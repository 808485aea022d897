import math

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
    condition_number,
    discretized_gaussian,
    exact_inverse_norm,
    frobenius_norm,
    lazy_coin,
    load_integer_matrix,
    matrix_from_spec,
    operator_norm,
    perturb,
    sample_iid_matrix,
    save_integer_matrix,
    svd,
    svd_stack,
)
from perturblab import linalg

import oracles


def _random_int_matrix(rng, n, lo=-9, hi=10):
    return IntegerMatrix(rng.integers(lo, hi, size=(n, n)))


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
    assert IntegerMatrix(np.array([[1, -2], [3, 4]], dtype=object)).rows() == [[1, -2], [3, 4]]
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
        spec = svd(RealMatrix(a))
        assert spec.sigma == sigma
        assert spec.convergence_residual == residual


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 20])
def test_round_robin_schedule(n):
    rounds = linalg._round_robin_rounds(n)
    seen = []
    for ps, qs in rounds:
        assert np.all(ps < qs)
        cols = np.concatenate([ps, qs])
        assert len(set(cols.tolist())) == len(cols)  # disjoint within a round
        seen.extend(zip(ps.tolist(), qs.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    # the cached gathers, not the rounds, are what every svd call shares
    start, gathers = schedule = linalg._round_robin_gathers(n)
    assert linalg._round_robin_gathers(n) is schedule
    assert len(gathers) == len(rounds)
    for index in (start,) + gathers:
        assert not index.flags.writeable
        assert sorted(index.tolist()) == list(range(n))
    order = start
    for _ in range(2):  # the second sweep starts where the first ended
        for gather, (ps, qs) in zip(gathers, rounds):
            order = order[gather]
            rest = sorted(set(range(n)) - set(ps.tolist()) - set(qs.tolist()))
            assert order.tolist() == ps.tolist() + qs.tolist() + rest


def test_convergence_error_reports_the_last_full_sweep(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(8))
    a = rng.standard_normal((7, 7))
    sigma, residual, converged = oracles.jacobi_svd(a, max_sweeps=1)
    assert not converged and residual > 0.0
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as info:
        svd(RealMatrix(a))
    assert info.value.residual == residual


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50])
def test_svd_stack_entries_equal_lone_svd_and_reference(n):
    # the all-zero draws, the duplicated-column bases and noisy matrices that
    # converge at different sweeps, swept in one stack
    stack = list(_jacobi_inputs(n))
    spectra = svd_stack(stack)
    assert len(spectra) == len(stack)
    for a, spec in zip(stack, spectra):
        sigma, residual, converged, sweeps = oracles.jacobi_sweeps(a)
        assert converged
        lone = svd(RealMatrix(a))
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
    spectra = svd_stack(draws)
    reals = svd_stack([RealMatrix(m.entries) for m in draws])
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
    assert svd(RealMatrix(done_in_one)).sweeps == 1
    with pytest.raises(ConvergenceError) as info:
        svd_stack([done_in_one, np.zeros((7, 7)), first, second])
    assert info.value.residual == residual


def test_svd_stack_refuses_mixed_sizes():
    with pytest.raises(ValidationError):
        svd_stack([np.eye(3), np.eye(4)])
    assert svd_stack([]) == []


# ---------------------------------------------------------------------------
# norms and condition numbers


def test_operator_norm_matches_numpy():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        m = _random_int_matrix(rng, 9)
        assert operator_norm(m) == pytest.approx(
            float(np.linalg.norm(m.entries.astype(float), 2)), rel=1e-9
        )


def test_condition_number_diagonal():
    assert condition_number(IntegerMatrix([[3, 0], [0, 4]])) == pytest.approx(4 / 3)


def test_condition_number_singular_is_inf():
    assert condition_number(IntegerMatrix([[1, 1], [1, 1]])) == math.inf


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


def test_condition_number_zero_matrix_rejected():
    with pytest.raises(ValidationError):
        condition_number(IntegerMatrix([[0, 0], [0, 0]]))


def test_exact_inverse_norm_identity():
    rng = np.random.Generator(np.random.PCG64(6))
    done = 0
    while done < 10:
        m = _random_int_matrix(rng, 5)
        s = svd(m)
        if s.sigma_min < 1e-9:
            continue
        assert s.sigma_min * exact_inverse_norm(m) == pytest.approx(1.0, abs=1e-10)
        done += 1


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
    assert condition_number(m) == pytest.approx(100.0, rel=1e-12)


def test_graded_diagonal_caps_at_n_to_c():
    m = matrix_from_spec("graded_diagonal", 30, c_exponent=1.0)
    assert int(np.max(np.abs(m.entries))) <= 30


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
    assert condition_number(m) == pytest.approx(100.0, rel=1e-12)
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
