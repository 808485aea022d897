from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturblab import (
    ConcentrationQuery,
    concentration,
    ResourceError,
    ValidationError,
    bernoulli,
    certificate_from_symmetric,
    check_dominance,
    classify_rich,
    discretized_gaussian,
    exact_concentration,
    exact_point_mass,
    fourier_bound,
    lazy_coin,
    parse_query,
)

import oracles

BERN = bernoulli()
LAZY = lazy_coin(Fraction(1, 2))
GAUSS = discretized_gaussian()


# ---------------------------------------------------------------------------
# exact concentration vs the enumeration oracle


def test_exact_bernoulli_pair():
    q = ConcentrationQuery(dists=(BERN, BERN))
    out = exact_concentration(q, (1, 1))
    assert out.sup == Fraction(1, 2)  # frozen: oracle gives (1/2, 0)
    assert out.argmax == 0


def test_exact_bernoulli_four_ones():
    q = ConcentrationQuery(dists=(BERN,) * 4)
    out = exact_concentration(q, (1, 1, 1, 1))
    assert out.sup == Fraction(3, 8)  # frozen: C(4,2)/16


def test_exact_bernoulli_123():
    q = ConcentrationQuery(dists=(BERN,) * 3)
    out = exact_concentration(q, (1, 2, 3))
    assert out.sup == Fraction(1, 4)  # frozen via oracle


def test_exact_lazy_pair():
    q = ConcentrationQuery(dists=(LAZY, LAZY))
    out = exact_concentration(q, (1, 1))
    assert out.sup == Fraction(3, 8)  # frozen via oracle


def test_exact_gaussian_single():
    q = ConcentrationQuery(dists=(GAUSS,))
    out = exact_concentration(q, (1,))
    assert out.sup == GAUSS.probability_of(0)
    assert out.argmax == 0


def test_shift_moves_argmax_not_sup():
    base = ConcentrationQuery(dists=(BERN, BERN))
    shifted = ConcentrationQuery(dists=(BERN, BERN), shift=(1, 0))
    a = exact_concentration(base, (2, 2))
    b = exact_concentration(shifted, (2, 2))
    assert a.sup == b.sup == Fraction(1, 2)
    assert a.argmax == 0
    assert b.argmax == 2  # frozen: oracle argmax shifts by z . v


def test_zero_weights_concentrate_fully():
    q = ConcentrationQuery(dists=(BERN, BERN))
    out = exact_concentration(q, (0, 0))
    assert out.sup == Fraction(1)
    assert out.argmax == 0


@given(
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_exact_matches_brute_force(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    v = tuple(int(x) for x in rng.integers(-6, 7, size=n))
    pool = [BERN, LAZY, GAUSS]
    dists = tuple(pool[int(i)] for i in rng.integers(0, 3, size=n))
    shift = tuple(int(x) for x in rng.integers(-2, 3, size=n)) if seed % 2 else None
    q = ConcentrationQuery(dists=dists, shift=shift)
    out = exact_concentration(q, v)
    want_sup, want_arg, want_at_zero = oracles.brute_force_concentration(dists, v, shift)
    assert out.sup == want_sup
    assert out.argmax == want_arg
    assert exact_point_mass(q, v) == want_at_zero


def test_exact_concentration_budget(monkeypatch):
    q = ConcentrationQuery(dists=(BERN,) * 30)
    v = tuple(10**14 + i for i in range(30))
    monkeypatch.setattr(concentration, "DP_STATE_BUDGET", 1000)
    with pytest.raises(ResourceError, match=r"^exact convolution needs ~1\.02e\+03 states "
                                            r"\(concentration\.DP_STATE_BUDGET = 1000\)$"):
        exact_concentration(q, v)


def test_exact_point_mass_budget(monkeypatch):
    # the point mass walks the same convolution and meets the same limit
    q = ConcentrationQuery(dists=(BERN,) * 30)
    v = tuple(10**14 + i for i in range(30))
    monkeypatch.setattr(concentration, "DP_STATE_BUDGET", 1000)
    with pytest.raises(ResourceError, match=r"^exact convolution needs ~1\.02e\+03 states "
                                            r"\(concentration\.DP_STATE_BUDGET = 1000\)$"):
        exact_point_mass(q, v)


def test_budget_counts_sparse_states_for_wide_weights(monkeypatch):
    # weights near 10^14 span ~10^15 dense states, but 9 bernoulli
    # coordinates reach only 2^9 = 512 points: at a budget of 512 the walk
    # runs and agrees with enumeration, one state fewer refuses
    dists = (BERN,) * 9
    v = tuple(10**14 + 3**i for i in range(9))
    q = ConcentrationQuery(dists=dists)
    monkeypatch.setattr(concentration, "DP_STATE_BUDGET", 512)
    want_sup, want_arg, want_at_zero = oracles.brute_force_concentration(dists, v)
    out = exact_concentration(q, v)
    assert (out.sup, out.argmax) == (want_sup, want_arg)
    assert exact_point_mass(q, v) == want_at_zero
    monkeypatch.setattr(concentration, "DP_STATE_BUDGET", 511)
    with pytest.raises(ResourceError, match=r"^exact convolution needs ~5\.12e\+02 states "
                                            r"\(concentration\.DP_STATE_BUDGET = 511\)$"):
        exact_concentration(q, v)


def test_budget_counts_dense_states_for_many_atoms(monkeypatch):
    # 8 lazy coins with weights 1, 2, 3, ... reach 3^8 = 6561 points but
    # only 2 * 15 + 1 = 31 sums: the dense count decides
    dists = (LAZY,) * 8
    v = tuple(1 + i % 3 for i in range(8))
    q = ConcentrationQuery(dists=dists)
    monkeypatch.setattr(concentration, "DP_STATE_BUDGET", 31)
    want_sup, want_arg, _ = oracles.brute_force_concentration(dists, v)
    out = exact_concentration(q, v)
    assert (out.sup, out.argmax) == (want_sup, want_arg)
    monkeypatch.setattr(concentration, "DP_STATE_BUDGET", 30)
    with pytest.raises(ResourceError, match=r"^exact convolution needs ~3\.10e\+01 states "
                                            r"\(concentration\.DP_STATE_BUDGET = 30\)$"):
        exact_concentration(q, v)


# ---------------------------------------------------------------------------
# fourier bound


def test_fourier_frozen_quarter():
    q = ConcentrationQuery(dists=(BERN, BERN), multipliers=(2, 2))
    got = fourier_bound(q, (1, 1), Fraction(1, 4))
    assert got == pytest.approx(19 / 32, abs=1e-12)  # frozen via quadrature


def test_fourier_matches_quadrature():
    rng = np.random.Generator(np.random.PCG64(77))
    for _ in range(15):
        n = int(rng.integers(1, 5))
        v = tuple(int(x) for x in rng.integers(-8, 9, size=n))
        mults = tuple(int(x) for x in rng.integers(1, 4, size=n))
        mu = float(rng.uniform(0.05, 0.5))
        q = ConcentrationQuery(dists=(BERN,) * n, multipliers=mults)
        got = fourier_bound(q, v, mu)
        want = oracles.quad_cosine_product([m * w for m, w in zip(mults, v)], mu)
        assert got == pytest.approx(want, abs=1e-10)


def test_fourier_excluded_rows_dropped():
    q = ConcentrationQuery(dists=(BERN,) * 3, multipliers=(2, 2, 2), exclusion=frozenset({1}))
    got = fourier_bound(q, (1, 5, 1), Fraction(1, 4))
    want = oracles.quad_cosine_product((2, 2), 0.25)  # row 1 removed
    assert got == pytest.approx(want, abs=1e-10)


def test_fourier_all_zero_frequencies():
    q = ConcentrationQuery(dists=(BERN, BERN))
    assert fourier_bound(q, (0, 0), Fraction(1, 4)) == pytest.approx(1.0)


def test_fourier_budget(monkeypatch):
    q = ConcentrationQuery(dists=(BERN,) * 3)
    monkeypatch.setattr(concentration, "AVERAGING_BUDGET", 100)
    with pytest.raises(ResourceError, match=r"^equispaced averaging needs 3000000001 points \(budget 100\)$"):
        fourier_bound(q, (10**9, 10**9, 10**9), Fraction(1, 4))


# ---------------------------------------------------------------------------
# dominance


def test_dominance_bernoulli_pair():
    q = ConcentrationQuery(dists=(BERN, BERN))
    cert = certificate_from_symmetric(BERN)
    rep = check_dominance(q, (1, 1), [cert, cert])
    assert rep.ok
    assert rep.exact == Fraction(1, 2)
    assert rep.bound == pytest.approx(19 / 32, abs=1e-12)
    assert rep.multipliers == (2, 2)
    assert rep.mu == Fraction(1, 4)


@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_dominance_property(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    v = tuple(int(x) for x in rng.integers(-20, 21, size=n))
    pool = [BERN, LAZY, GAUSS, lazy_coin(Fraction(1, 10))]
    dists = tuple(pool[int(i)] for i in rng.integers(0, 4, size=n))
    q = ConcentrationQuery(dists=dists)
    certs = [certificate_from_symmetric(d) for d in dists]
    rep = check_dominance(q, v, certs)
    assert rep.ok, f"exact {rep.exact} > bound {rep.bound}"


def test_dominance_with_exclusion_still_holds():
    # dropping a coordinate from the product only raises the bound
    n = 6
    q = ConcentrationQuery(dists=(BERN,) * n, exclusion=frozenset({0, 3}))
    certs = [certificate_from_symmetric(BERN)] * n
    rep = check_dominance(q, (3, 1, 4, 1, 5, 9), certs)
    assert rep.ok
    plain = check_dominance(
        ConcentrationQuery(dists=(BERN,) * n), (3, 1, 4, 1, 5, 9), certs
    )
    assert rep.bound >= plain.bound - 1e-12


def test_cert_count_mismatch():
    q = ConcentrationQuery(dists=(BERN, BERN))
    with pytest.raises(ValidationError):
        check_dominance(q, (1, 1), [certificate_from_symmetric(BERN)])


# ---------------------------------------------------------------------------
# query validation


def test_query_multiplier_positivity():
    with pytest.raises(ValidationError):
        ConcentrationQuery(dists=(BERN, BERN), multipliers=(0, 2))


def test_query_exclusion_bounds():
    with pytest.raises(ValidationError):
        ConcentrationQuery(dists=(BERN, BERN), exclusion=frozenset({5}))


def test_query_exclusion_size_cap():
    # ceil(2^0.99) = 2 would allow both rows; the cap is strict n^0.99
    with pytest.raises(ValidationError):
        ConcentrationQuery(dists=(BERN, BERN), exclusion=frozenset({0, 1}))


def test_query_lcm_cap():
    # lcm(6, 10) = 30 > 4^1 = 4 violates the configured multiplier budget
    with pytest.raises(ValidationError):
        ConcentrationQuery(
            dists=(BERN,) * 4,
            multipliers=(6, 10, 1, 1),
            k_exponent=1.0,
        )
    # generous exponent admits the same multipliers
    ConcentrationQuery(dists=(BERN,) * 4, multipliers=(6, 10, 1, 1), k_exponent=3.0)
    # a non-finite exponent is refused, not read as no cap
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=f"^k_exponent = {bad} is not finite$"):
            ConcentrationQuery(dists=(BERN,) * 4, multipliers=(6, 10, 1, 1), k_exponent=bad)
    # and so is a finite one whose cap n^K overflows a float
    with pytest.raises(ValidationError, match=r"^k_exponent = 1e\+300 overflows 4\^\(k_exponent\)$"):
        ConcentrationQuery(dists=(BERN,) * 4, multipliers=(6, 10, 1, 1), k_exponent=1e300)


def test_query_shift_length():
    with pytest.raises(ValidationError):
        ConcentrationQuery(dists=(BERN, BERN), shift=(1,))


# ---------------------------------------------------------------------------
# richness


def test_classify_rich_constant_vector():
    n = 8
    q = ConcentrationQuery(dists=(BERN,) * n)
    rep = classify_rich(q, (1,) * n, a_exponent=1.0)
    assert rep.label == "rich"
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match=f"^a_exponent = {bad} is not finite$"):
            classify_rich(q, (1,) * n, a_exponent=bad)
    with pytest.raises(ValidationError, match=r"^-\(a_exponent \+ RICH_OFFSET\) = 1e\+300 overflows"):
        classify_rich(q, (1,) * n, a_exponent=-1e300)  # threshold n^(1e300 - 4)


def test_classify_rich_powers_of_two_boundary():
    # weights 2^0 .. 2^(n-1) make every signed sum distinct, so the sup
    # is exactly 2^-n.  At n = 14 that is 6.1e-5 and the threshold
    # n^-(A+4) crosses it at A ~ -0.32: a larger A (-0.5, threshold
    # 14^-3.5 = 9.7e-5) classifies poor, a smaller one (0.0, threshold
    # 14^-4 = 2.6e-5) classifies rich.  At A = 1 the same construction
    # stays rich all the way to n = 22.
    n = 14
    q = ConcentrationQuery(dists=(BERN,) * n)
    v = tuple(2**i for i in range(n))
    rep = classify_rich(q, v, a_exponent=-0.5)
    assert rep.sup == Fraction(1, 2**n)
    assert rep.label == "poor"
    rep = classify_rich(q, v, a_exponent=0.0)
    assert rep.sup == Fraction(1, 2**n)
    assert rep.label == "rich"


def test_classify_rich_default_offset():
    n = 12
    q = ConcentrationQuery(dists=(BERN,) * n)
    rep = classify_rich(q, tuple(2**i for i in range(n)), a_exponent=1.0)
    assert rep.label == "rich"  # 2^-12 = 2.4e-4 >= 12^-5 = 4.0e-6


# ---------------------------------------------------------------------------
# parsing


def test_parse_query_full():
    text = """
    # weights and law
    dist bernoulli
    v 1 -2 3
    z 0 1 0
    a 2 2 2
    exclude 1
    mu 1/4
    k_exponent 2.0
    """
    parsed = parse_query(text)
    assert parsed.v == (1, -2, 3)
    assert parsed.query.shift == (0, 1, 0)
    assert parsed.query.multipliers == (2, 2, 2)
    assert parsed.query.exclusion == frozenset({1})
    assert parsed.mu == Fraction(1, 4)


def test_parse_query_requires_core_fields():
    with pytest.raises(ValidationError):
        parse_query("dist bernoulli\n")
