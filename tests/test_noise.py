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
    noise,
    parse_distribution,
    sample_iid_matrix,
    verify_certificate,
)
from perturblab.noise import GRID_TOLERANCE, symmetric_chain_margins

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


def test_distribution_spec_strings():
    assert distribution_from_spec("bernoulli").atoms == bernoulli().atoms
    assert distribution_from_spec("lazy_coin:1/2").atoms == lazy_coin(Fraction(1, 2)).atoms
    assert distribution_from_spec("discretized_gaussian:8").atoms == discretized_gaussian().atoms
    with pytest.raises(ValidationError):
        distribution_from_spec("unknown_kind")


def test_distribution_spec_defaults_and_case():
    assert distribution_from_spec(" Lazy_Coin ").atoms == lazy_coin(Fraction(1, 2)).atoms
    assert distribution_from_spec("DISCRETIZED_GAUSSIAN").atoms == discretized_gaussian(8).atoms
    for spec in ("bernoulli:7", "lazy_coin:", "lazy_coin:x", "file"):
        with pytest.raises(ValidationError, match="noise spec"):
            distribution_from_spec(spec)


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


def test_certificate_is_checked_once_per_law(monkeypatch):
    from perturblab import noise

    checks = []
    real = noise.verify_certificate

    def counted(dist, cert, grid_size=None):
        checks.append(dist)
        return real(dist, cert, grid_size)

    monkeypatch.setattr(noise, "verify_certificate", counted)
    certificate_from_symmetric.cache_clear()
    first = [certificate_from_symmetric(lazy_coin(Fraction(1, 3))) for _ in range(5)]
    second = [certificate_from_symmetric(bernoulli()) for _ in range(3)]
    assert len(checks) == 2  # equal laws built separately share one check
    assert all(c is first[0] for c in first) and all(c is second[0] for c in second)
    assert first[0].mu == Fraction(1, 12) and second[0].mu == Fraction(1, 4)
    certificate_from_symmetric.cache_clear()


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


FIVE_LAWS = (
    bernoulli(),
    lazy_coin(Fraction(1, 2)),
    lazy_coin(Fraction(1, 10)),
    discretized_gaussian(),
    DiscreteDistribution("symmetric_discretization",
                         ((-2, Fraction(1, 4)), (0, Fraction(1, 2)), (2, Fraction(1, 4)))),
)


@pytest.mark.parametrize("law", FIVE_LAWS, ids=str)
def test_fourier_grid_equals_scalar_loop(law):
    # one vectorized grid, the same floats as the point-by-point loop
    n = 4096
    grid = char_magnitude(law, np.arange(n) / n)
    assert grid.tolist() == [oracles.scalar_char_magnitude(law, j / n) for j in range(n)]
    sound = certificate_from_symmetric(law)
    overtight = BoundednessCertificate(mu=Fraction(49, 100), k=2, d_bound=2)  # fails for the first four laws
    for cert in (sound, overtight):
        check = verify_certificate(law, cert, grid_size=n)
        worst = oracles.scalar_certificate_margin(law, float(cert.mu), cert.k, n)
        assert check.worst_margin == worst
        assert check.ok == (worst >= -GRID_TOLERANCE)
    s = sound.k // 2
    assert symmetric_chain_margins(law, s, n) == oracles.scalar_chain_margins(law, s, n)


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


def test_sample_iid_matrix_deterministic():
    for law in (bernoulli(), discretized_gaussian()):
        a = sample_iid_matrix(law, 32, seed=123)
        b = sample_iid_matrix(law, 32, seed=123)
        c = sample_iid_matrix(law, 32, seed=124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_sample_iid_matrix_values_in_support():
    d = lazy_coin(Fraction(1, 3))
    x = sample_iid_matrix(d, 32, seed=7)
    assert set(np.unique(x)) <= {-1, 0, 1}


def test_sample_iid_matrix_empirical_frequencies():
    d = lazy_coin(Fraction(1, 2))
    x = sample_iid_matrix(d, 142, seed=11)
    frac_zero = float(np.mean(x == 0))
    assert abs(frac_zero - 0.5) < 0.02


@pytest.mark.parametrize("law", FIVE_LAWS, ids=str)
def test_sample_iid_matrix_atom_frequencies(law):
    # 142^2 = 20164 draws: each atom's share within 5 standard errors of its mass
    x = sample_iid_matrix(law, 142, seed=11)
    draws = x.size
    assert set(np.unique(x)) <= set(law.values)
    for value, p in law.atoms:
        freq = float(np.count_nonzero(x == value)) / draws
        p = float(p)
        assert abs(freq - p) <= 5.0 * math.sqrt(p * (1.0 - p) / draws) + 1.0 / draws, value


def test_sample_iid_matrix_shape_and_determinism():
    m = sample_iid_matrix(bernoulli(), 8, seed=5)
    assert m.shape == (8, 8)
    assert set(np.unique(m)) <= {-1, 1}
    assert np.array_equal(m, sample_iid_matrix(bernoulli(), 8, seed=5))


# the vectorized sampler against the scalar per-coordinate loop, bit for bit

_LAWS = [
    bernoulli(),
    lazy_coin(Fraction(1, 2)),
    lazy_coin(Fraction(1, 10)),
    lazy_coin(1),
    discretized_gaussian(6),
    discretized_gaussian(8),
    DiscreteDistribution("symmetric_discretization",
                         ((-2, Fraction(1, 8)), (0, Fraction(3, 4)), (2, Fraction(1, 8)))),
    parse_distribution("-2 1/3\n5 1/6\n7 1/2\n", name="skewed"),
    DiscreteDistribution("point", ((4, Fraction(1)),)),
]


@pytest.mark.parametrize("law", _LAWS, ids=lambda d: d.name)
@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**40 + 5])
def test_sample_iid_matrix_equals_scalar_loop(law, seed):
    for n in (1, 2, 3, 7, 20, 50):
        ref = oracles.scalar_sample_vector([law] * (n * n), seed).reshape(n, n)
        got = sample_iid_matrix(law, n, seed)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("law", _LAWS, ids=lambda d: d.name)
def test_draw_takes_first_atom_at_or_above_u(law):
    # uniforms on and just past each cumulative float mass: the side="left"
    # lookup picks the first atom whose cumulative mass is >= u
    cum = np.cumsum([float(p) for p in law.probabilities])
    cum[-1] = 1.0
    probes = [0.0, float(np.nextafter(1.0, 0.0))]
    for c in cum[:-1]:
        probes += [float(c), float(np.nextafter(c, 1.0))]
    u = np.array(probes)
    want = [law.values[next(k for k, c in enumerate(cum) if c >= x)] for x in probes]
    got = noise._draw(law, u)
    assert got.dtype == np.int64
    assert got.tolist() == want
