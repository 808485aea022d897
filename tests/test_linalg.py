import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturblab import (
    ConvergenceError,
    IntegerMatrix,
    RealMatrix,
    SingularSpectrum,
    ValidationError,
    bernoulli,
    discretized_gaussian,
    exact_inverse_norm,
    frobenius_norm,
    lazy_coin,
    load_integer_matrix,
    matrix_from_spec,
    perturb,
    sample_iid_matrix,
    save_integer_matrix,
    svd,
    svd_stack,
)
from perturblab import experiments, linalg

import oracles
from test_golden_outputs import LARGE, _large_draws


def _random_int_matrix(rng, n, lo=-9, hi=10):
    return IntegerMatrix(rng.integers(lo, hi, size=(n, n)))


def _plain_stack(ms):
    """`svd_stack` with its size floor raised past n: every matrix is swept as x."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PRECONDITION_MIN_N", math.inf)
        return svd_stack(ms)


def _jacobi(m):
    """The plain Jacobi kernel on one matrix, with no preconditioner."""
    return _plain_stack([m])[0]


# ---------------------------------------------------------------------------
# containers


def test_integer_matrix_entries_read_only():
    m = IntegerMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 9


def test_integer_matrix_bound_derived():
    m = IntegerMatrix([[1, -7], [3, 4]])
    assert m.entry_bound == 7
    assert IntegerMatrix([[-(2**63), 0], [0, 1]]).entry_bound == 2**63


def test_integer_matrix_rejects_non_square():
    with pytest.raises(ValidationError):
        IntegerMatrix([[1, 2, 3], [4, 5, 6]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries", [
    [[2**64 - 1]],  # uint64, would wrap to -1
    [[2**63]],  # uint64, would wrap to -2^63
    np.array([[1e30]]),
    [[np.inf]],
    [[9.3e18]],  # just past 2^63 ~ 9.22e18
    np.array([[2**63, 0], [0, 1]], dtype=object),
], ids=["uint64-max", "uint64-2^63", "float-1e30", "float-inf", "float-9.3e18", "object-2^63"])
def test_integer_matrix_refuses_entries_a_cast_would_wrap(entries):
    with pytest.raises(ValidationError, match="an entry overflows the 64-bit range"):
        IntegerMatrix(entries)


@pytest.mark.filterwarnings("error")
def test_integer_matrix_keeps_entries_inside_the_64_bit_range():
    assert IntegerMatrix(np.array([[2**63 - 1]], dtype=np.uint64)).entries[0, 0] == 2**63 - 1
    assert IntegerMatrix(np.array([[-(2.0**63)]])).entry_bound == 2**63
    assert IntegerMatrix(np.array([[1, -2], [3, 4]], dtype=object)).entries.tolist() == [[1, -2], [3, 4]]
    with pytest.raises(ValidationError, match="entries are not integers"):
        IntegerMatrix([[0.5]])


def test_real_matrix_rejects_nan():
    with pytest.raises(ValidationError):
        RealMatrix([[1.0, float("nan")], [0.0, 1.0]])


def test_spectrum_orders_descending():
    with pytest.raises(ValidationError):
        SingularSpectrum(sigma=(1.0, 2.0), convergence_residual=0.0, sweeps=1, singular=False)
    with pytest.raises(ValidationError):
        SingularSpectrum(sigma=(1.0, -2.0), convergence_residual=0.0, sweeps=1, singular=False)


# ---------------------------------------------------------------------------
# svd


def test_svd_diagonal_exact():
    s = svd(IntegerMatrix([[3, 0], [0, 4]]))
    assert s.sigma == (4.0, 3.0)
    assert s.sigma_max == 4.0
    assert s.sigma_min == 3.0


def test_svd_zero_matrix():
    s = svd(IntegerMatrix([[0, 0], [0, 0]]))
    assert s.sigma == (0.0, 0.0)


def test_svd_matches_numpy_random():
    rng = np.random.Generator(np.random.PCG64(21))
    for n in (2, 3, 5, 8, 13, 20):
        m = _random_int_matrix(rng, n)
        ours = np.array(svd(m).sigma)
        ref = np.linalg.svd(m.entries.astype(float), compute_uv=False)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10)


def test_svd_rank_one():
    m = IntegerMatrix(np.ones((6, 6), dtype=np.int64))
    s = svd(m)
    assert s.sigma_max == pytest.approx(6.0, rel=1e-12)
    assert s.sigma_min == pytest.approx(0.0, abs=1e-12)


def test_svd_small_sigma_relative_accuracy():
    # graded diagonal spans 9 orders of magnitude; the small singular
    # value must come back with high relative accuracy, not absolute
    n = 10
    d = np.diag([2.0**-i for i in range(n)])
    s = svd(RealMatrix(d))
    assert s.sigma_min == pytest.approx(2.0 ** -(n - 1), rel=1e-12)


def test_svd_residual_reported():
    rng = np.random.Generator(np.random.PCG64(2))
    m = _random_int_matrix(rng, 12)
    s = svd(m)
    assert 0.0 <= s.convergence_residual <= linalg.RESIDUAL_TOL


def test_frobenius_sandwich():
    rng = np.random.Generator(np.random.PCG64(33))
    for _ in range(20):
        m = _random_int_matrix(rng, 6)
        s = svd(m)
        f = frobenius_norm(m)
        n = m.n
        assert s.sigma_max <= f * (1 + 1e-12)
        assert f <= math.sqrt(n) * s.sigma_max * (1 + 1e-12)


def test_sum_of_squares_is_frobenius():
    rng = np.random.Generator(np.random.PCG64(4))
    m = _random_int_matrix(rng, 7)
    s = svd(m)
    assert sum(x * x for x in s.sigma) == pytest.approx(frobenius_norm(m) ** 2, rel=1e-12)


def _jacobi_inputs(n, kinds=("zero", "graded_diagonal", "duplicated_column"), laws=None):
    """Worst-case bases plus seeded noise of several laws, plus all-zero draws."""
    yield np.zeros((n, n))
    for kind in kinds:
        base = matrix_from_spec(kind, n).entries
        yield base.astype(float)
        for law in laws or (bernoulli(), lazy_coin("1/10"), discretized_gaussian()):
            for seed in (1, 2):
                yield (base + sample_iid_matrix(law, n, seed)).astype(float)
        rng = np.random.Generator(np.random.PCG64(n))
        yield base + rng.standard_normal((n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 20, 50, 100])
def test_svd_equals_reference_jacobi_bit_for_bit(n):
    # n = 100 is the condition-tail benchmark's size: its graded base under
    # bernoulli noise, and one gaussian draw
    if n == 100:
        inputs = _jacobi_inputs(n, ("graded_diagonal",), (bernoulli(),))
    else:
        inputs = _jacobi_inputs(n)
    for a in inputs:
        sigma, residual, converged = oracles.jacobi_svd(a)
        assert converged
        spec = _jacobi(RealMatrix(a))
        assert spec.sigma == sigma
        assert spec.convergence_residual == residual


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 20])
def test_round_robin_schedule(n):
    # the schedule svd_stack runs: each round's ps and qs lead its column order
    start, layouts, places, steps, pairs = schedule = linalg._round_robin_layouts(n)
    assert linalg._round_robin_layouts(n) is schedule  # every svd call of this size shares it
    rounds = n - 1 + n % 2  # n - 1 rounds, n at odd n
    assert len(layouts) == len(places) == len(steps) == len(pairs) == rounds
    for r in range(rounds):  # one gather by the step takes the round before's layout (round 0's: the last's) to r's
        assert layouts[r - 1][steps[r]].tolist() == layouts[r].tolist()
    for index in schedule:
        assert not index.flags.writeable
    assert sorted(start.tolist()) == list(range(n))
    if rounds:
        assert layouts[0].tolist() == list(range(n))  # the start order is the first round's
    half, seen = n // 2, []
    for layout, place, flat in zip(layouts, places, pairs):
        assert sorted(layout.tolist()) == list(range(n))
        assert place[layout].tolist() == list(range(n))  # the inverse layout
        for other in layouts:  # any round's layout reaches any other's by one gather
            assert layout[place[other]].tolist() == other.tolist()
        order = start[layout]
        ps, qs = order[:half], order[half:2 * half]
        assert np.all(ps < qs)
        rest = sorted(set(range(n)) - set(ps.tolist()) - set(qs.tolist()))
        assert order.tolist() == ps.tolist() + qs.tolist() + rest  # disjoint within a round
        # each pair's place above the diagonal of a Gram matrix in the start order
        assert [divmod(f, n) for f in flat.tolist()] == [
            tuple(sorted(pq)) for pq in zip(layout[:half].tolist(), layout[half:2 * half].tolist())]
        seen.extend(zip(ps.tolist(), qs.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_convergence_error_reports_the_last_full_sweep(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(8))
    a = rng.standard_normal((7, 7))
    sigma, residual, converged = oracles.jacobi_svd(a, max_sweeps=1)
    assert not converged and residual > 0.0
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as info:
        _jacobi(RealMatrix(a))
    assert info.value.residual == residual


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50])
def test_svd_stack_entries_equal_lone_svd_and_reference(n):
    # the all-zero draws, the duplicated-column bases and noisy matrices that
    # converge at different sweeps, swept in one stack
    stack = list(_jacobi_inputs(n))
    spectra = _plain_stack(stack)
    assert len(spectra) == len(stack)
    for a, spec in zip(stack, spectra):
        sigma, residual, converged, sweeps = oracles.jacobi_sweeps(a)
        assert converged
        lone = _jacobi(RealMatrix(a))
        assert spec.sigma == lone.sigma == sigma
        assert spec.convergence_residual == lone.convergence_residual == residual
        assert spec.sweeps == lone.sweeps == sweeps
        assert spec.convergence_residual <= linalg.RESIDUAL_TOL
    assert spectra[0].sigma == (0.0,) * n and spectra[0].sweeps == 0
    if n >= 3:
        assert len({spec.sweeps for spec in spectra if spec.sweeps}) >= 3


@pytest.mark.parametrize("n", [2, 7, 20])
def test_integer_stack_equals_real_stack_and_reference(n):
    # integer draws go into the float buffers with no float copy of their
    # own: the zero draw, the duplicated-column base and noisy draws, which
    # converge at different sweeps
    draws = [IntegerMatrix(np.zeros((n, n), dtype=np.int64))]
    for kind in ("duplicated_column", "graded_diagonal"):
        base = matrix_from_spec(kind, n)
        draws.append(base)
        for law in (bernoulli(), lazy_coin("1/10"), discretized_gaussian()):
            draws.append(perturb(base, IntegerMatrix(sample_iid_matrix(law, n, 1))))
    spectra = _plain_stack(draws)
    reals = _plain_stack([RealMatrix(m.entries) for m in draws])
    for m, spec, real in zip(draws, spectra, reals):
        sigma, residual, converged, sweeps = oracles.jacobi_sweeps(m.entries)
        assert converged
        assert spec.sigma == real.sigma == sigma
        assert spec.convergence_residual == real.convergence_residual == residual
        assert spec.sweeps == real.sweeps == sweeps
        assert spec.singular == real.singular
    assert {spec.singular for spec in spectra} == {True, False}
    assert len({spec.sweeps for spec in spectra}) >= 3


def test_svd_stack_convergence_error_names_the_failing_matrix(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(8))
    first, second = rng.standard_normal((7, 7)), rng.standard_normal((7, 7))
    _, residual, converged = oracles.jacobi_svd(first, max_sweeps=1)
    assert not converged and residual != oracles.jacobi_svd(second, max_sweeps=1)[1]
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    done_in_one = np.diag(np.arange(1.0, 8.0))  # orthogonal columns: one rotation-free sweep
    assert _jacobi(RealMatrix(done_in_one)).sweeps == 1
    with pytest.raises(ConvergenceError) as info:
        _plain_stack([done_in_one, np.zeros((7, 7)), first, second])
    assert info.value.residual == residual


# ---------------------------------------------------------------------------
# svd_stack: the preconditioned route and its rule


def _graded_draw(n):
    """A diagonal graded from 1 to 10^7 under bernoulli noise: n eps kappa > ROUTE_TOL."""
    base = IntegerMatrix(np.diag(np.round(10.0 ** np.linspace(0, 7, n)).astype(np.int64)))
    return perturb(base, IntegerMatrix(sample_iid_matrix(bernoulli(), n, 3)))


def _kept_as_x(n):
    """Draws the route rule sweeps as x: the zero draw, a singular integer
    draw, the duplicated-column base and an ill-conditioned graded draw."""
    singular = sample_iid_matrix(bernoulli(), n, 4)
    singular[:, -1] = singular[:, 0]
    return [IntegerMatrix(np.zeros((n, n), dtype=np.int64)), IntegerMatrix(singular),
            matrix_from_spec("duplicated_column", n), _graded_draw(n)]


@pytest.mark.parametrize("n", [2, 7, 20])
def test_svd_stack_sweeps_what_the_rule_keeps_as_x_as_the_kernel_does(n, monkeypatch):
    # the rule's other clauses at every n, not the size floor
    monkeypatch.setattr(linalg, "PRECONDITION_MIN_N", 1)
    draws = _kept_as_x(n)
    for m in draws:
        assert linalg._preconditioned(m.entries) is m.entries
    assert draws[-1].n * linalg._EPS * _jacobi(draws[-1]).kappa > linalg.ROUTE_TOL
    spectra = svd_stack(draws)
    for m, spec in zip(draws, spectra):
        kernel = _jacobi(m)
        sigma, residual, converged, sweeps = oracles.jacobi_sweeps(m.entries)
        assert converged
        assert spec.sigma == kernel.sigma == sigma
        assert spec.convergence_residual == kernel.convergence_residual == residual
        assert spec.sweeps == kernel.sweeps == sweeps
        assert spec.singular == kernel.singular
    assert [spec.singular for spec in spectra] == [True, True, True, False]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50])
def test_svd_stack_entries_equal_lone_svd(n, monkeypatch):
    # both routes in one stack, at every n: the draws kept as x and
    # well-conditioned noisy matrices swept as x V, which converge in fewer sweeps
    monkeypatch.setattr(linalg, "PRECONDITION_MIN_N", 1)
    stack = list(_jacobi_inputs(n))
    spectra = svd_stack(stack)
    assert len(spectra) == len(stack)
    for a, spec in zip(stack, spectra):
        lone = svd(RealMatrix(a))
        assert spec.sigma == lone.sigma
        assert spec.convergence_residual == lone.convergence_residual <= linalg.RESIDUAL_TOL
        assert spec.sweeps == lone.sweeps
        assert spec.singular == lone.singular
    preconditioned = [linalg._preconditioned(np.asarray(a)) is not a for a in stack]
    assert any(preconditioned) and not preconditioned[0]
    if n >= 7:
        assert max(s.sweeps for s, p in zip(spectra, preconditioned) if p) <= 3


@pytest.mark.parametrize("n", [2, 7, 20])
def test_svd_stack_integer_stack_equals_its_real_copy(n, monkeypatch):
    monkeypatch.setattr(linalg, "PRECONDITION_MIN_N", 1)
    draws = _kept_as_x(n)
    for kind in ("zero", "graded_diagonal"):
        base = matrix_from_spec(kind, n)
        for law in (bernoulli(), lazy_coin("1/10"), discretized_gaussian()):
            draws.append(perturb(base, IntegerMatrix(sample_iid_matrix(law, n, 1))))
    spectra = svd_stack(draws)
    reals = svd_stack([RealMatrix(m.entries) for m in draws])
    for m, spec, real in zip(draws, spectra, reals):
        assert spec.sigma == real.sigma
        assert spec.convergence_residual == real.convergence_residual
        assert spec.sweeps == real.sweeps
        assert spec.singular == _jacobi(m).singular  # exactly det = 0
    assert {spec.singular for spec in spectra} == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4, 8, 20, 50, 100])
def test_svd_stack_spectra_within_4_n_eps_sigma_max_of_the_kernel(n, monkeypatch):
    # sigma(x V) departs from sigma(x) by V's departure from orthogonality and
    # the roundoff of forming x V: about n eps sigma_max at most, at every n
    monkeypatch.setattr(linalg, "PRECONDITION_MIN_N", 1)
    draws = []
    for kind in ("zero", "graded_diagonal", "duplicated_column", "rank_one_ones"):
        base = matrix_from_spec(kind, n)
        for law in (bernoulli(), lazy_coin("1/2"), discretized_gaussian()):
            for seed in (1, 2) if n < 100 else (1,):
                draws.append(perturb(base, IntegerMatrix(sample_iid_matrix(law, n, seed))))
    for spec, kernel in zip(svd_stack(draws), _plain_stack(draws)):
        bound = 4 * n * linalg._EPS * kernel.sigma_max
        assert max(abs(s - t) for s, t in zip(spec.sigma, kernel.sigma)) <= bound
        assert spec.singular == kernel.singular


@pytest.mark.parametrize("n", [2, 8, linalg.PRECONDITION_MIN_N - 1, linalg.PRECONDITION_MIN_N])
def test_svd_stack_keeps_every_matrix_under_the_size_floor_as_x(n):
    draws = [perturb(matrix_from_spec("zero", n), IntegerMatrix(sample_iid_matrix(law, n, seed)))
             for law in (discretized_gaussian(), lazy_coin("1/2")) for seed in (1, 2, 3)]
    kept = [linalg._preconditioned(m.entries) is m.entries for m in draws]
    assert kept == [n < linalg.PRECONDITION_MIN_N] * len(draws)
    if n < linalg.PRECONDITION_MIN_N:
        for spec, kernel in zip(svd_stack(draws), _plain_stack(draws)):
            assert spec == kernel


def test_svd_stack_preconditioned_sigma_min_within_route_tol():
    # x V costs sigma_min its high relative accuracy: forming x V leaves about
    # n eps sigma_max of absolute error, a relative n eps kappa <= ROUTE_TOL.
    # Columns graded over two orders: the kernel on x itself stays relatively
    # accurate, since its error follows the condition of the column-scaled x
    n = 20
    x = np.random.default_rng(7).standard_normal((n, n)) * np.logspace(0, -2, n)
    assert linalg._preconditioned(x) is not x
    spec, kernel = svd(RealMatrix(x)), _jacobi(RealMatrix(x))
    assert n * linalg._EPS * kernel.kappa <= linalg.ROUTE_TOL
    for s, t in zip(spec.sigma, kernel.sigma):
        assert abs(s - t) <= linalg.ROUTE_TOL * t


def _grid_bases():
    """Matrices on the preconditioner's grid of multiples of 2^-26 whose
    columns have norm about 1 or less: a signed permutation, +-2^-26
    everywhere, +-1 once per column and +-2^-26 elsewhere, mixed magnitudes
    and signs, and the grid-rounded eigenbases of the golden LARGE draws,
    rounded as `_preconditioned` rounds them."""
    rng, n, grid = np.random.default_rng(29), 100, linalg.EIGENBASIS_GRID
    signs = rng.choice((-1.0, 1.0), size=(3, n, n))
    perm = np.eye(n)[rng.permutation(n)] * signs[0]
    yield perm
    yield signs[1] / grid
    yield np.where(perm != 0.0, perm, signs[2] / grid)
    yield np.rint(rng.uniform(-1.0, 1.0, (n, n)) * grid / math.sqrt(n)) / grid
    for size, count in LARGE.items():
        for m in _large_draws(size, count):
            y = linalg._entries(m).astype(float)
            yield np.rint(np.linalg.eigh(y.T @ y)[1] * grid) / grid


def test_the_preconditioners_gram_is_exact_in_blas():
    # every product of two grid entries is a multiple of 2^-52 and every
    # partial sum of a column pair one below |v_i| |v_j| < 2, so V^T V is
    # exact in any order: BLAS, whatever its kernel, gives einsum's bits.
    # The exact sum is taken in int64 multiples of 2^-52, which hold the n
    # products of |m| <= 2^26 for every n < 2^11
    for v in _grid_bases():
        m = v * linalg.EIGENBASIS_GRID
        assert np.array_equal(m, np.rint(m)) and np.abs(m).max() <= linalg.EIGENBASIS_GRID
        m = m.astype(np.int64)
        exact = m.T @ m
        assert np.abs(exact).max() < 2**53
        gram = v.T @ v
        scaled = gram * 2.0**52
        assert np.array_equal(scaled, np.rint(scaled)) and np.array_equal(scaled.astype(np.int64), exact)
        assert np.array_equal(gram, np.einsum("ki,kj->ij", v, v))


def test_svd_stack_refuses_mixed_sizes():
    with pytest.raises(ValidationError):
        svd_stack([np.eye(3), np.eye(4)])
    assert svd_stack([]) == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("entries", [
    [[1e80, 1e80], [1, 2]],  # g_pp g_qq overflows: nothing would rotate
    [[1e200, 0], [0, 1]],  # ||A||_F^2 overflows
    [[1e-170, 0], [0, 2e-170]],  # ||A||_F^2 underflows to 0, the zero matrix's
    [[1e-160, 1e-161], [2e-160, 3e-160]],  # subnormal: sigma_max would lose digits
    [[1e100, 1e100, 3], [1, 2, 5], [7, 1e99, 1]],  # a ConvergenceError with residual inf
])
def test_svd_stack_refuses_a_frobenius_norm_outside_the_float_range(entries):
    # every g_pp g_qq is finite while tiny <= ||A||_F^2 <= sqrt(max)
    with pytest.raises(ValidationError, match="^matrix 1: "):
        svd_stack([np.eye(len(entries)), np.array(entries)])


def test_svd_stack_sweeps_a_frobenius_norm_near_the_top_of_the_range():
    entries = np.array([[1e76, 1e76], [1, 2]])  # ||A||_F^2 = 2e152
    spec = svd(entries)
    assert np.allclose(spec.sigma, np.linalg.svd(entries, compute_uv=False), rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# svd_stack: the Gram test and the rounds it skips


def _settling(n, seed=11):
    """A graded diagonal plus noise of growing size: the plain kernel ends
    them after 1, 2, 3, 4 or 5, and about 6 to 8 sweeps."""
    rng = np.random.default_rng(seed)
    d = np.diag(np.linspace(1.0, 3.0, n))
    return [d + eps * rng.standard_normal((n, n)) for eps in (0.0, 1e-9, 1e-6, 1e-2, 0.3)]


def _assert_reference(draws, spectra, route=linalg._preconditioned):
    """Each spectrum is the reference Jacobi run on what svd_stack swept
    (`route` of the entries), field for field; returns the sweep counts."""
    assert len(spectra) == len(draws)
    for m, spec in zip(draws, spectra):
        sigma, residual, converged, sweeps = oracles.jacobi_sweeps(route(linalg._entries(m)))
        assert converged
        assert (spec.sigma, spec.convergence_residual, spec.sweeps) == (sigma, residual, sweeps)
    return [spec.sweeps for spec in spectra]


def _kept(m):
    entries = linalg._entries(m)
    return linalg._preconditioned(entries) is entries


@pytest.mark.parametrize("n", [7, 20])
def test_gram_test_retires_each_matrix_at_its_reference_sweep_on_x(n):
    # one stack whose matrices leave at the Gram tests of sweeps 1, 2, 3 and
    # later ones, while the others keep rotating
    draws = _settling(n) + _settling(n, seed=12)
    sweeps = _assert_reference(draws, _plain_stack(draws), route=lambda x: x)
    assert {1, 2, 3} <= set(sweeps) and len({s for s in sweeps if s >= 4}) >= 2


@pytest.mark.parametrize("n", [7, 20])
def test_gram_test_retires_each_matrix_at_its_reference_sweep_on_both_routes(n, monkeypatch):
    # x V leaves after one to three sweeps, beside the draws the rule keeps as
    # x, which keep rotating
    monkeypatch.setattr(linalg, "PRECONDITION_MIN_N", 1)
    draws = _settling(n) + _kept_as_x(n)
    sweeps = _assert_reference(draws, svd_stack(draws))
    kept = [_kept(m) for m in draws]
    assert {1, 2} <= {s for s, k in zip(sweeps, kept) if not k}
    assert max(s for s, k in zip(sweeps, kept) if k) >= 4


@pytest.mark.parametrize("n", [1, 3, 9, 15, linalg.PRECONDITION_MIN_N, 17])
def test_gram_test_at_the_edges_of_the_schedule(n):
    # n = 1 has no pair, odd n leave one column out of every round, and from
    # n = PRECONDITION_MIN_N on the default route sweeps x V
    draws = list(_jacobi_inputs(n)) + _settling(n)
    _assert_reference(draws, svd_stack(draws))
    _assert_reference(draws, _plain_stack(draws), route=lambda x: x)
    assert any(_kept(m) for m in draws) and (n < linalg.PRECONDITION_MIN_N) == all(_kept(m) for m in draws)


def test_gram_test_retires_a_matrix_in_the_sweep_that_zeroes_its_dead_column():
    n = 5
    x = np.diag([3.0, 2.0, 1.5, 1.0, 0.5])
    x[:, 4] = x[:, 0] + 1e-110 * np.eye(n)[4]  # the first sweep squeezes it to about 7e-111
    sigma, _, converged, _ = oracles.jacobi_sweeps(x, max_sweeps=1)
    assert not converged and 0.0 < sigma[-1] < 1e-100
    draws = [x] + _settling(n)
    sweeps = _assert_reference(draws, _plain_stack(draws), route=lambda a: a)
    assert sweeps[0] == 2 and _jacobi(RealMatrix(x)).sigma[-1] == 0.0


@pytest.mark.parametrize("max_sweeps", [2, 3])
def test_gram_test_leaves_the_convergence_error_to_the_reference(max_sweeps, monkeypatch):
    # the last sweep runs every round and sums the residual of the matrices
    # still rotating; those its Gram test finds done leave as they would
    rng = np.random.default_rng(8)
    done, late = _settling(9)[:max_sweeps], [rng.standard_normal((9, 9)) for _ in range(2)]
    _, residual, converged, _ = oracles.jacobi_sweeps(late[0], max_sweeps=max_sweeps)
    assert not converged
    x_v = [rng.standard_normal((20, 20)) for _ in range(8)]
    needs = [oracles.jacobi_sweeps(linalg._preconditioned(x))[3] for x in x_v]
    assert not any(map(_kept, x_v)) and set(needs) == {2, 3}
    monkeypatch.setattr(linalg, "MAX_SWEEPS", max_sweeps)
    assert _assert_reference(done, _plain_stack(done), route=lambda x: x) == list(range(1, max_sweeps + 1))
    with pytest.raises(ConvergenceError) as info:
        _plain_stack(done + late)
    assert info.value.residual == residual
    if max_sweeps == 3:  # x V that needs three sweeps leaves at the last sweep's Gram test
        assert _assert_reference(x_v, svd_stack(x_v)) == needs
    else:
        with pytest.raises(ConvergenceError) as info:
            svd_stack(x_v)
        late = linalg._preconditioned(x_v[needs.index(3)])
        assert info.value.residual == oracles.jacobi_sweeps(late, max_sweeps=max_sweeps)[1]


@pytest.mark.parametrize("whole", [True, False])
def test_gram_test_reads_nothing_below_the_diagonal_of_its_buffer(whole):
    # the test forms the upper triangles alone and builds its thresholds
    # below them: an idle buffer of NaN gives what a zeroed one gives
    n = 20
    rng = np.random.default_rng(3)
    draws = [np.linalg.qr(rng.standard_normal((n, n)))[0] * rng.uniform(1.0, 9.0, n) for _ in range(6)]
    draws[1][:, 3] += 1e-6 * draws[1][:, 5]  # pair (3, 5) fails
    draws[3][:, 1] += 1e-6 * draws[3][:, 7]  # pair (1, 7) fails
    start, _, _, _, flat_pairs = linalg._round_robin_layouts(n)
    a = np.stack([x.T[start] for x in draws], axis=1)  # a[j, b] is column start[j] of matrix b
    quiet = np.array([True, False, True, True, False, False])
    tested = [linalg._gram_test(a, quiet, whole, flat_pairs, np.full(a.size, fill)) for fill in (0.0, np.nan)]
    for zeroed, nan in zip(*tested):
        assert np.array_equal(zeroed, nan)
    clean, off2, failing, norms2 = tested[0]
    assert clean.tolist() == [0, 2] and np.all(off2 > 0.0)
    bent = {(3, 5), (1, 7)} if whole else {(1, 7)}
    assert {tuple(sorted((int(start[p]), int(start[q])))) for p, q in np.argwhere(failing)} == bent
    assert np.array_equal(failing, failing.T) and len(norms2) == (6 if whole else 3)


def test_gram_test_skips_the_rounds_that_rotate_nothing(monkeypatch):
    # a stack of one draw: after its first sweep most rounds have no failing
    # pair and are skipped, and every field is still the reference's
    n = 100
    base = matrix_from_spec("graded_diagonal", n)
    m = perturb(base, IntegerMatrix(sample_iid_matrix(bernoulli(), n, 5)))
    run, rounds = linalg._round, []
    monkeypatch.setattr(linalg, "_round", lambda *args: rounds.append(args) or run(*args))
    (spec,) = svd_stack([m])
    _assert_reference([m], [spec])
    assert spec.sweeps == 3 and len(rounds) < 1.2 * (n - 1)


@pytest.mark.parametrize("n, integer", [(20, True), (50, False), (100, False)])
def test_compact_rounds_rotate_the_failing_slots_alone(n, integer, monkeypatch):
    # the chunks of ge-check (163 bernoulli 20 x 20), tail (26 gaussian
    # 50 x 50) and cond-tail (6 gaussian 100 x 100): some rounds fail at most
    # half of their (pair, matrix) slots and rotate those alone, with every
    # field the reference's and the stack still about twice its bytes
    count = experiments.STACK_ENTRIES // (n * n)
    if integer:
        draws = [IntegerMatrix(sample_iid_matrix(bernoulli(), n, seed)) for seed in range(count)]
    else:
        draws = [RealMatrix(experiments.gaussian_matrix(n, seed)) for seed in range(count)]
    run, rotate, rounds, gathered = linalg._round, linalg._rotate, [0], [0]

    def counted(*args):
        mask, failing = run(*args)
        rounds[0] += int(0 < 2 * failing <= mask.size)
        return mask, failing

    def counted_rotate(ap, *args):
        gathered[0] += ap.ndim == 2  # the failing slots' columns, not the whole blocks
        rotate(ap, *args)

    monkeypatch.setattr(linalg, "_round", counted)
    monkeypatch.setattr(linalg, "_rotate", counted_rotate)
    tracemalloc.start()
    try:
        spectra = svd_stack(draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rounds[0] > 0 and gathered[0] == rounds[0]
    assert peak <= 2.5 * count * n * n * 8
    _assert_reference(draws, spectra)


def _chunk(kind, n, count, c_exponent=None):
    if kind == "gaussian":
        return [RealMatrix(experiments.gaussian_matrix(n, seed)) for seed in range(count)]
    base = matrix_from_spec("graded_diagonal" if kind == "graded" else "zero", n, c_exponent)
    return [perturb(base, IntegerMatrix(sample_iid_matrix(bernoulli(), n, seed))) for seed in range(count)]


@pytest.mark.parametrize("kind, n, count, c_exponent", [
    ("graded", 100, 1, None),  # cond-tail's lone draw, swept as x V
    ("gaussian", 50, 26, None),  # tail's chunk, x V
    ("bernoulli", 20, 2, None),  # ge-check's two-trial batch, x V
    ("bernoulli", 8, 128, None),  # under the size floor: x
    ("graded", 100, 3, 3.0),  # C = 3, kappa past the route rule: x
])
def test_rounds_whose_cosines_all_round_to_one_leave_out_the_products_by_c(kind, n, count, c_exponent,
                                                                           monkeypatch):
    # on x V the rotations are near-identity and nearly every round hands
    # _rotate c = None; on x the general path runs too; every field is the
    # reference's either way
    draws = _chunk(kind, n, count, c_exponent)
    calls, rotate = [], linalg._rotate

    def spy(ap, aq, c, *args):
        calls.append(c is None)
        rotate(ap, aq, c, *args)

    monkeypatch.setattr(linalg, "_rotate", spy)
    spectra = svd_stack(draws)
    _assert_reference(draws, spectra)
    kept = {_kept(m) for m in draws}
    assert len(kept) == 1 and calls.count(True) > 0
    if kept == {False}:
        assert calls.count(True) > 3 * calls.count(False)
    else:
        assert calls.count(False) > 0


# ---------------------------------------------------------------------------
# condition numbers and the inverse norm


@pytest.mark.parametrize(
    "entries, singular, kappa",
    [
        ([[0, 0], [0, 0]], True, math.inf),
        ([[1, 1], [1, 1]], True, math.inf),
        ([[3, 0], [0, 4]], False, 4 / 3),
    ],
)
def test_spectrum_kappa_and_singular(entries, singular, kappa):
    spec = svd(IntegerMatrix(entries))
    assert spec.singular is singular
    assert spec.kappa == pytest.approx(kappa, rel=1e-15)


def test_exact_inverse_norm_identity():
    rng = np.random.Generator(np.random.PCG64(6))
    # the top two sigma of its inverse nearly tie, where power iteration falls 3.6e-9 short
    ms = [IntegerMatrix([[100000, 1], [0, 100001]])]
    while len(ms) < 11:
        m = _random_int_matrix(rng, 5)
        if svd(m).sigma_min >= 1e-9:
            ms.append(m)
    for m in ms:
        assert svd(m).sigma_min * exact_inverse_norm(m) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# perturbation and masks


def test_perturb_adds_noise():
    base = IntegerMatrix([[1, 0], [0, 1]])
    noise = IntegerMatrix([[1, 2], [3, 4]])
    out = perturb(base, noise)
    assert np.array_equal(out.entries, [[2, 2], [3, 5]])


def test_perturb_mask_freezes_entries():
    base = IntegerMatrix([[1, 0], [0, 1]])
    noise = IntegerMatrix([[1, 2], [3, 4]])
    mask = np.array([[True, False], [False, True]])
    out = perturb(base, noise, mask)
    assert np.array_equal(out.entries, [[1, 2], [3, 1]])


def test_perturb_refuses_int64_overflow():
    big = IntegerMatrix([[2**62, 0], [0, 1]])
    with pytest.raises(ValidationError, match="64-bit"):
        perturb(big, IntegerMatrix([[0, 0], [0, 1]]))
    assert perturb(big, IntegerMatrix([[0, 0], [0, 0]])).entry_bound == 2**62
    with pytest.raises(ValidationError, match="64-bit"):  # int64 min, whose np.abs wraps
        perturb(IntegerMatrix([[-(2**63), 0], [0, 1]]), IntegerMatrix([[-1, 0], [0, 1]]))


def test_perturb_dimension_mismatch():
    with pytest.raises(ValidationError):
        perturb(IntegerMatrix([[1]]), IntegerMatrix([[1, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# worst-case generators and file io


def test_zero_generator():
    m = matrix_from_spec("zero", 4)
    assert not m.entries.any()


def test_graded_diagonal_condition():
    m = matrix_from_spec("graded_diagonal", 10, c_exponent=2.0)
    assert svd(m).kappa == pytest.approx(100.0, rel=1e-12)


def test_graded_diagonal_caps_at_n_to_c():
    m = matrix_from_spec("graded_diagonal", 30, c_exponent=1.0)
    assert int(np.max(np.abs(m.entries))) <= 30


@pytest.mark.parametrize("c", [1e300, math.nan, math.inf])
def test_graded_diagonal_refuses_an_exponent_whose_cap_is_not_a_number(c):
    # n^C overflows or is not finite: invalid input, not an arithmetic error
    with pytest.raises(ValidationError, match="C = "):
        matrix_from_spec("graded_diagonal", 30, c_exponent=c)


def test_rank_one_ones():
    m = matrix_from_spec("rank_one_ones", 5)
    assert np.array_equal(m.entries, np.ones((5, 5), dtype=np.int64))


def test_duplicated_column_is_singular():
    m = matrix_from_spec("duplicated_column", 6)
    s = svd(m)
    assert s.sigma_min == pytest.approx(0.0, abs=1e-12)


def test_unknown_generator_kind():
    with pytest.raises(ValidationError):
        matrix_from_spec("mystery", 4)


def test_matrix_spec_parsing():
    m = matrix_from_spec("graded_diagonal", 10, 2.0)
    assert svd(m).kappa == pytest.approx(100.0, rel=1e-12)
    z = matrix_from_spec("zero", 3, 1.0)
    assert not z.entries.any()


def test_matrix_file_round_trip(tmp_path):
    m = IntegerMatrix([[1, -2], [3, 4]])
    path = tmp_path / "m.txt"
    save_integer_matrix(str(path), m)
    back = load_integer_matrix(str(path))
    assert np.array_equal(back.entries, m.entries)
    via_spec = matrix_from_spec(f"file:{path}", 2, 1.0)
    assert np.array_equal(via_spec.entries, m.entries)


def test_matrix_file_size_mismatch(tmp_path):
    m = IntegerMatrix([[1, -2], [3, 4]])
    path = tmp_path / "m.txt"
    save_integer_matrix(str(path), m)
    with pytest.raises(ValidationError):
        matrix_from_spec(f"file:{path}", 3, 1.0)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_svd_invariant_under_transpose(n, seed):
    m = IntegerMatrix(sample_iid_matrix(bernoulli(), n, seed))
    mt = IntegerMatrix(m.entries.T)
    assert np.allclose(svd(m).sigma, svd(mt).sigma, rtol=1e-10, atol=1e-12)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_svd_scales_linearly(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = _random_int_matrix(rng, n)
    doubled = IntegerMatrix(2 * m.entries)
    assert np.allclose(svd(doubled).sigma, 2 * np.array(svd(m).sigma), rtol=1e-10)
