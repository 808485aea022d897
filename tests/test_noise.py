import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturblab import (
    BoundednessCertificate,
    DiscreteDistribution,
    ValidationError,
    bernoulli,
    certificate_from_symmetric,
    char_magnitude,
    discretized_gaussian,
    distribution_from_spec,
    lazy_coin,
    make_standard,
    parse_distribution,
    sample_iid_matrix,
    sample_vector,
    symmetric_discretization,
    verify_certificate,
)
from perturblab.noise import symmetric_chain_margins

import oracles


# ---------------------------------------------------------------------------
# construction and validation


def test_atoms_sorted_and_normalized():
    d = DiscreteDistribution("d", ((2, Fraction(1, 4)), (-1, Fraction(3, 4))))
    assert d.values == (-1, 2)
    assert d.probabilities == (Fraction(3, 4), Fraction(1, 4))
    assert d.max_abs_value == 2


def test_zero_probability_atoms_dropped():
    d = DiscreteDistribution(
        "d", ((0, Fraction(1, 2)), (3, Fraction(0)), (1, Fraction(1, 2)))
    )
    assert d.values == (0, 1)


def test_mass_must_sum_to_one():
    with pytest.raises(ValidationError):
        DiscreteDistribution("bad", ((0, Fraction(1, 2)), (1, Fraction(1, 3))))


def test_duplicate_values_rejected():
    with pytest.raises(ValidationError):
        DiscreteDistribution("bad", ((1, Fraction(1, 2)), (1, Fraction(1, 2))))


def test_negative_probability_rejected():
    with pytest.raises(ValidationError):
        DiscreteDistribution("bad", ((0, Fraction(3, 2)), (1, Fraction(-1, 2))))


def test_is_symmetric():
    assert bernoulli().is_symmetric
    assert lazy_coin(Fraction(1, 4)).is_symmetric
    assert discretized_gaussian().is_symmetric
    skew = DiscreteDistribution("skew", ((0, Fraction(1, 2)), (1, Fraction(1, 2))))
    assert not skew.is_symmetric


# ---------------------------------------------------------------------------
# built-in laws


def test_bernoulli_atoms():
    b = bernoulli()
    assert b.atoms == ((-1, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_lazy_coin_mass_split():
    lc = lazy_coin(Fraction(1, 3))
    assert lc.probability_of(0) == Fraction(2, 3)
    assert lc.probability_of(1) == Fraction(1, 6)
    assert lc.probability_of(-1) == Fraction(1, 6)


def test_lazy_coin_alpha_one_is_bernoulli():
    assert lazy_coin(1).atoms == bernoulli().atoms


def test_lazy_coin_alpha_range():
    with pytest.raises(ValidationError):
        lazy_coin(0)
    with pytest.raises(ValidationError):
        lazy_coin(Fraction(3, 2))


def test_discretized_gaussian_masses_match_normal_cdf():
    g = discretized_gaussian()
    # frozen via the mpmath oracle: P(k) = P(k - 1/2 < Z <= k + 1/2)
    assert float(g.probability_of(0)) == pytest.approx(0.3829249225480262, abs=1e-15)
    assert float(g.probability_of(1)) == pytest.approx(0.24173033745712882, abs=1e-15)
    for k in range(0, 7):
        want = oracles.normal_mass(k - 0.5, k + 0.5)
        assert abs(float(g.probability_of(k)) - float(want)) < 1e-12


def test_discretized_gaussian_exact_total_mass():
    g = discretized_gaussian()
    assert sum(g.probabilities) == 1
    assert g.is_symmetric
    assert g.max_abs_value == 8


def test_discretized_gaussian_thread_safe():
    # each build runs on its own mpmath context: concurrent builds neither
    # see another build's precision nor leave the global one changed
    import sys
    from concurrent.futures import ThreadPoolExecutor

    import mpmath

    want = discretized_gaussian().atoms
    prec = mpmath.mp.prec
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda _: discretized_gaussian().atoms, range(400), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 400
    assert all(atoms == want for atoms in got)
    assert mpmath.mp.prec == prec


def test_discretized_gaussian_radius_floor():
    with pytest.raises(ValidationError):
        discretized_gaussian(truncation_radius=4)


def test_symmetric_discretization_rounds_away_from_zero_on_ties():
    d = symmetric_discretization(
        [
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(-1, 2), Fraction(1, 4)),
            (0, Fraction(1, 2)),
        ]
    )
    # 1/2 rounds to 1, -1/2 to -1: symmetry survives
    assert d.probability_of(1) == Fraction(1, 4)
    assert d.probability_of(-1) == Fraction(1, 4)
    assert d.probability_of(0) == Fraction(1, 2)
    assert d.is_symmetric


def test_symmetric_discretization_rejects_asymmetric_table():
    with pytest.raises(ValidationError):
        symmetric_discretization([(1, Fraction(1, 2)), (0, Fraction(1, 2))])


def test_make_standard_and_spec_strings():
    assert make_standard("bernoulli").atoms == bernoulli().atoms
    assert distribution_from_spec("bernoulli").atoms == bernoulli().atoms
    assert distribution_from_spec("lazy_coin:1/2").atoms == lazy_coin(Fraction(1, 2)).atoms
    assert distribution_from_spec("discretized_gaussian:8").atoms == discretized_gaussian().atoms
    with pytest.raises(ValidationError):
        distribution_from_spec("unknown_kind")


def test_parse_distribution_round_trip(tmp_path):
    text = "# a comment\n-1 1/4\n0 1/2\n1 1/4\n"
    d = parse_distribution(text, "tri")
    assert d.values == (-1, 0, 1)
    assert d.probability_of(0) == Fraction(1, 2)
    p = tmp_path / "law.txt"
    p.write_text(text)
    d2 = distribution_from_spec(f"file:{p}")
    assert d2.atoms == d.atoms


# ---------------------------------------------------------------------------
# characteristic function and certificates


def test_char_magnitude_at_zero_is_one():
    for d in (bernoulli(), lazy_coin(Fraction(1, 3)), discretized_gaussian()):
        assert char_magnitude(d, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_char_magnitude_bernoulli_closed_form():
    b = bernoulli()
    for t in (0.1, 0.25, 0.4):
        assert char_magnitude(b, t) == pytest.approx(abs(math.cos(2 * math.pi * t)), abs=1e-12)


def test_bernoulli_certificate_is_quarter_two():
    cert = certificate_from_symmetric(bernoulli())
    assert cert.mu == Fraction(1, 4)
    assert cert.k == 2


def test_lazy_coin_certificate():
    cert = certificate_from_symmetric(lazy_coin(Fraction(1, 2)))
    assert cert.mu == Fraction(1, 8)  # alpha / 4
    assert cert.k == 2


def test_gaussian_certificate_frozen_value():
    cert = certificate_from_symmetric(discretized_gaussian())
    # mu = P(xi = 1) / 2, frozen from the cdf oracle
    assert float(cert.mu) == pytest.approx(0.12086516872856441, abs=1e-15)
    assert cert.k == 2


def test_verify_certificate_accepts_valid():
    for d in (bernoulli(), lazy_coin(Fraction(1, 10)), discretized_gaussian()):
        cert = certificate_from_symmetric(d)
        check = verify_certificate(d, cert, grid_size=4096)
        assert check.ok
        assert check.worst_margin >= -1e-12


def test_verify_certificate_rejects_overtight():
    # mu = 0.49 with k = 2 fails for bernoulli: at t = 1/2 we need
    # |cos(pi)| = 1 <= (1 - mu) + mu cos(2 pi) = 1, but at t = 1/4,
    # |cos(pi/2)| = 0 <= (1 - mu) + mu = 1 holds; the failing point is
    # t near 0 where 1 - O(t^2) must stay under 1 - 2 mu (2 pi k t)^2 / 2.
    bad = BoundednessCertificate(mu=Fraction(49, 100), k=2, d_bound=2)
    check = verify_certificate(bernoulli(), bad, grid_size=4096)
    assert not check.ok


def test_certificate_validation():
    with pytest.raises(ValidationError):
        BoundednessCertificate(mu=Fraction(3, 4), k=1, d_bound=1)  # mu > 1/2
    with pytest.raises(ValidationError):
        BoundednessCertificate(mu=Fraction(1, 4), k=3, d_bound=2)  # k > D


def test_certificate_needs_symmetric_law():
    skew = DiscreteDistribution("skew", ((0, Fraction(1, 2)), (1, Fraction(1, 2))))
    with pytest.raises(ValidationError):
        certificate_from_symmetric(skew)


def test_certificate_needs_a_nonzero_atom():
    point = DiscreteDistribution("point", ((0, Fraction(1)),))
    with pytest.raises(ValidationError):
        certificate_from_symmetric(point)


@pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 2), Fraction(1)])
def test_two_step_chain_lazy_coins(alpha):
    d = lazy_coin(alpha)
    m1, m2 = symmetric_chain_margins(d, 1, grid_size=4096)
    assert m1 >= -1e-12
    assert m2 >= -1e-12


def test_two_step_chain_gaussian():
    m1, m2 = symmetric_chain_margins(discretized_gaussian(), 1, grid_size=4096)
    assert m1 >= -1e-12
    assert m2 >= -1e-12


@given(
    num=st.integers(min_value=1, max_value=9),
    den=st.just(10),
    s=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_chain_margins_property(num, den, s):
    # the chain holds for any symmetric two-point-plus-zero law and any
    # pair position s
    alpha = Fraction(num, den)
    d = DiscreteDistribution(
        "pair",
        ((-s, alpha / 2), (0, 1 - alpha), (s, alpha / 2))
        if alpha != 1
        else ((-s, Fraction(1, 2)), (s, Fraction(1, 2))),
    )
    m1, m2 = symmetric_chain_margins(d, s, grid_size=512)
    assert m1 >= -1e-12
    assert m2 >= -1e-12


# ---------------------------------------------------------------------------
# sampling


def test_sample_vector_deterministic():
    dists = [bernoulli()] * 5 + [discretized_gaussian()] * 5
    a = sample_vector(dists, seed=123)
    b = sample_vector(dists, seed=123)
    c = sample_vector(dists, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_vector_values_in_support():
    d = lazy_coin(Fraction(1, 3))
    x = sample_vector([d] * 1000, seed=7)
    assert set(np.unique(x)) <= {-1, 0, 1}


def test_sample_vector_empirical_frequencies():
    d = lazy_coin(Fraction(1, 2))
    x = sample_vector([d] * 20000, seed=11)
    frac_zero = float(np.mean(x == 0))
    assert abs(frac_zero - 0.5) < 0.02


def test_sample_iid_matrix_shape_and_determinism():
    m = sample_iid_matrix(bernoulli(), 8, seed=5)
    assert m.shape == (8, 8)
    assert set(np.unique(m)) <= {-1, 1}
    assert np.array_equal(m, sample_iid_matrix(bernoulli(), 8, seed=5))


def test_sample_matrix_matches_vector_layout():
    # the matrix is the length-n^2 sample laid out row-major
    d = bernoulli()
    flat = sample_vector([d] * 9, seed=42)
    m = sample_iid_matrix(d, 3, seed=42)
    assert np.array_equal(m, flat.reshape(3, 3))
