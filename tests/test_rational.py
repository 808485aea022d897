from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturblab import (
    BoundednessCertificate, ConcentrationQuery, DiscreteDistribution, DiscretizationResult, Gap,
    ValidationError, WitnessVector, bernoulli, determinant, discretize_rank1, exact_concentration,
    fourier_bound, inverse_lo_search, invert_exact, lazy_coin, solve_exact,
)
from perturblab import rational
from perturblab.noise import mu_float
from perturblab.rational import singular_flags

import oracles


def test_determinant_small_known():
    assert determinant([[3, 0], [0, 4]]) == 12
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[5]]) == 5


def test_determinant_matches_cofactor_oracle():
    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(200):
        rows = rng.integers(-9, 10, size=(3, 3)).tolist()
        assert determinant(rows) == oracles.det3_cofactor(rows)


def test_determinant_zero_rows():
    singular = [[1, 2, 3], [1, 2, 3], [0, 0, 1]]
    assert determinant(singular) == 0
    assert singular_flags([singular, np.eye(3, dtype=np.int64)]) == [True, False]
    with pytest.raises(ValidationError, match="one size"):
        singular_flags([[[1]], [[1, 0], [0, 1]]])


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_determinant_matches_numpy_sign_and_scale(rows):
    d = determinant(rows)
    nd = np.linalg.det(np.array(rows, dtype=float))
    assert abs(d - nd) < 1e-4 * max(1.0, abs(nd))


def test_solve_exact_known_system():
    x = solve_exact([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]


def test_solve_exact_zero_residual_on_integer_systems():
    rng = np.random.Generator(np.random.PCG64(3))
    checked = 0
    while checked < 50:
        a = rng.integers(-9, 10, size=(5, 5)).tolist()
        b = [int(v) for v in rng.integers(-9, 10, size=5)]
        x = solve_exact(a, b)
        if x is None:
            continue
        for i in range(5):
            assert sum(Fraction(a[i][j]) * x[j] for j in range(5)) == b[i]
        checked += 1


def test_solve_exact_singular_returns_none():
    assert solve_exact([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_exact_fraction_rhs():
    x = solve_exact([[2, 1], [1, 1]], [Fraction(1, 3), Fraction(1, 6)])
    assert x == [Fraction(1, 6), Fraction(0)]


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_back_substitution_matches_fraction_oracle(n):
    rng = np.random.Generator(np.random.PCG64(300 + n))
    for _ in range(5):
        a = rng.integers(-9, 10, size=(n, n)).tolist()
        b = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, size=n), rng.integers(1, 7, size=n))]
        assert solve_exact(a, b) == oracles.solve_by_fractions(a, b)
        if determinant(a) != 0:
            assert invert_exact(a) == oracles.invert_by_fractions(a)


# a 4 x 4 system that stays in int64 beside one whose entries near 10^6 pass 2^63 after step 0
_SMALL = np.random.Generator(np.random.PCG64(71)).integers(-9, 10, size=(4, 4))
_WIDE = np.random.Generator(np.random.PCG64(72)).integers(-(10**6), 10**6 + 1, size=(4, 4))


@pytest.mark.parametrize("matrices, rhs", [
    ([[[1, 2, 3], [2, 4, 6], [1, 0, 1]], [[2, 1, 0], [1, 1, 1], [0, 3, 1]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]],
     [[1, 2, 3], [4, -5, 6], [0, 0, 7]]),
    ([_SMALL.tolist(), _WIDE.tolist()], [[1, -2, 3, 4], [5, 6, -7, 8]]),
    ([[[3]], [[0]], [[-2]]], [[7], [5], [1]]),
], ids=["singular-member", "wide-entries", "n=1"])
@pytest.mark.parametrize("entries", [rational._PYTHON_INT_ENTRIES, 1], ids=["one-group", "groups-of-one"])
def test_stacked_solve_matches_fraction_oracles(matrices, rhs, entries, monkeypatch):
    monkeypatch.setattr(rational, "_PYTHON_INT_ENTRIES", entries)
    n = len(matrices[0])
    systems = [[row + [c] + [int(i == j) for j in range(n)] for i, (row, c) in enumerate(zip(a, b))]
               for a, b in zip(matrices, rhs)]
    solved = rational._solve(systems)
    assert len(solved) == len(matrices)
    for a, b, got in zip(matrices, rhs, solved):
        want = oracles.solve_by_fractions(a, b)
        assert solve_exact(a, b) == want
        if want is None:
            assert got is None and determinant(a) == 0
            continue
        d, y = got
        assert abs(d) == abs(determinant(a))
        assert [Fraction(row[0], d) for row in y] == want
        assert [[Fraction(v, d) for v in row[1:]] for row in y] == oracles.invert_by_fractions(a)
        assert invert_exact(a) == oracles.invert_by_fractions(a)


def test_wide_entries_turn_the_stack_to_python_ints_partway():
    assert determinant(_SMALL) != 0 and determinant(_WIDE) != 0
    a, sign, prev = rational._start([np.hstack([m, np.ones((4, 1), dtype=np.int64)]) for m in (_SMALL, _WIDE)])
    assert a.dtype == np.int64
    a, prev = rational._eliminate(a, range(1), sign, prev)
    assert a.dtype == np.int64
    assert rational._eliminate(a, range(1, 4), sign, prev)[0].dtype == object


def test_python_int_steps_in_groups_of_one_match_leibniz(monkeypatch):
    # every matrix of these wide stacks runs its Python-int steps alone
    monkeypatch.setattr(rational, "_PYTHON_INT_ENTRIES", 1)
    rng = np.random.Generator(np.random.PCG64(73))
    prefixes = rng.integers(-(10**6), 10**6 + 1, size=(5, 3, 4))
    prefixes[2, 2] = prefixes[2, 0]  # a rank-deficient prefix: every cofactor 0
    for p, c in zip(prefixes, rational.cofactors(prefixes)):
        assert [int(v) for v in c] == [(-1) ** (3 + j) * oracles.leibniz_det(np.delete(p, j, axis=1).tolist())
                                        for j in range(4)]
    squares = rng.integers(-(10**6), 10**6 + 1, size=(4, 4, 4))
    squares[1, 3] = squares[1, 0]
    assert singular_flags(squares) == [oracles.leibniz_det(m.tolist()) == 0 for m in squares]
    assert singular_flags(squares)[1]
    assert [determinant(m) for m in squares] == [oracles.leibniz_det(m.tolist()) for m in squares]


def test_invert_exact_identity_product():
    rng = np.random.Generator(np.random.PCG64(17))
    done = 0
    while done < 25:
        a = rng.integers(-6, 7, size=(4, 4)).tolist()
        if determinant(a) == 0:
            continue
        inv = invert_exact(a)
        for i in range(4):
            for j in range(4):
                acc = sum(Fraction(a[i][k]) * inv[k][j] for k in range(4))
                assert acc == (1 if i == j else 0)
        done += 1


def test_invert_exact_singular_raises():
    with pytest.raises(ValidationError):
        invert_exact([[1, 2], [2, 4]])


def test_determinant_multiplicativity():
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(20):
        a = rng.integers(-5, 6, size=(3, 3))
        b = rng.integers(-5, 6, size=(3, 3))
        assert determinant((a @ b).tolist()) == determinant(a.tolist()) * determinant(
            b.tolist()
        )


def test_large_entries_stay_exact():
    big = 10**12
    a = [[big, 1], [1, big]]
    assert determinant(a) == big * big - 1
    x = solve_exact(a, [1, 0])
    assert x is not None
    assert x[0] * (big * big - 1) == big


@pytest.mark.parametrize("call", [
    lambda: determinant([[1.5, 0], [0, 1]]),
    lambda: solve_exact([[2.7]], [1]),
], ids=["determinant-1.5", "solve-2.7"])
def test_non_integral_entries_are_refused(call):
    with pytest.raises(ValidationError, match="entries are not integers"):
        call()


def test_entries_at_the_int64_edge_stay_exact():
    # -2^63 fits int64, but its absolute value wraps there; the product below does not fit
    assert determinant([[-(2**63), 1], [1, 1]]) == -(2**63) - 1
    assert determinant([[2**63 - 1, 2**62], [2**62, 2**63 - 1]]) == (2**63 - 1) ** 2 - 2**124


def test_int64_arrays_past_2_53_equal_their_lists():
    # math.floor of a numpy int goes through float, which loses these entries
    a = np.array([[2**62 + 1, 3, -(2**61)], [5, 2**55 + 7, 1], [-(2**54) - 1, 2, 2**53 + 1]])
    assert a.dtype == np.int64
    rows = a.tolist()
    assert determinant(a) == determinant(rows)
    assert determinant(np.array([[2**62 + 1, 0], [0, 1]])) == 2**62 + 1
    assert solve_exact(a, [1, -2, 3]) == solve_exact(rows, [1, -2, 3])
    assert invert_exact(a) == invert_exact(rows)


def _query(**fields):
    return ConcentrationQuery(dists=(bernoulli(),) * 2, **fields)


INTEGER_SITES = {
    "weights": lambda x: exact_concentration(_query(), [1, x]),
    "shift": lambda x: _query(shift=(0, x)),
    "multipliers": lambda x: _query(multipliers=(1, x)),
    "exclusion": lambda x: _query(exclusion=frozenset([x])),
    "witness": lambda x: WitnessVector(values=(1, x), norm=1.0, b_exponent=1.0),
    "gap-dims": lambda x: Gap((1,), (x,)),
    "rank1-R0": lambda x: discretize_rank1(Gap((1,), (1,)), x, 2),
    "rank1-S": lambda x: discretize_rank1(Gap((1,), (1,)), 2, x),
    "search-v": lambda x: inverse_lo_search([1, x], Fraction(1, 4)),
    "support-value": lambda x: DiscreteDistribution("x", ((x, 1),)),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_inputs_refuse_non_whole_values(site):
    call = INTEGER_SITES[site]
    with pytest.raises(ValidationError, match="entries are not integers"):
        call(1.5)
    call(1.0)  # whole floats and numpy ints pass as before
    call(np.int64(1))


# every site that takes an exact rational, with an integer value and a
# rational string for it; no integer is a valid mu, so at the mu sites both
# ints meet the same refusal
RATIONAL_SITES = {
    "gap-generator": (lambda x: Gap((x,), (1,)), 3, "3/2"),
    "lazy-coin": (lazy_coin, 1, "1/3"),
    "certificate-mu": (lambda x: BoundednessCertificate(x, 1, 1), 1, "1/4"),
    "scale-R": (lambda x: DiscretizationResult(Gap((1,), (1,)), Gap((1,), (1,)), x, 1, 1, 0), 2, "5/2"),
    "mu": (mu_float, 1, "1/3"),
    "search-mu": (lambda x: inverse_lo_search([1, 2], x), 1, "1/4"),
    "fourier-mu": (lambda x: fourier_bound(ConcentrationQuery(dists=(bernoulli(),) * 2), [1, 3], x), 1, "1/3"),
}


def _outcome(call, x):
    try:
        return call(x)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("site", RATIONAL_SITES)
def test_rational_inputs_take_numpy_ints_and_refuse_non_finite_floats(site):
    call, value, text = RATIONAL_SITES[site]
    for np_int in (np.int64, np.int32):
        assert _outcome(call, np_int(value)) == _outcome(call, value)
    # a string reads exactly; a float or Fraction keeps its value bit for bit
    near = float(Fraction(text))
    assert call(text) == call(Fraction(text))
    assert call(near) == call(Fraction(near))
    for bad in (float("nan"), float("inf"), float("-inf"), None):
        with pytest.raises(ValidationError, match="cannot interpret"):
            call(bad)
