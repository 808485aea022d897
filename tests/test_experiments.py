import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from perturblab import (
    DiscreteDistribution,
    ExperimentConfig,
    IntegerMatrix,
    ResourceError,
    ValidationError,
    bernoulli,
    build_mask,
    condition_tail,
    derive_seed,
    determinant,
    discretized_gaussian,
    format_records_csv,
    format_summary_json,
    frozen_entries_experiment,
    gaussian_matrix,
    ge_error_experiment,
    lazy_coin,
    matrix_from_spec,
    minors_experiment,
    sample_iid_matrix,
    singularity_probability,
    svd,
    tail_curve,
)
from perturblab import experiments

import oracles


# ---------------------------------------------------------------------------
# gaussian sampler


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(6, seed=9)
    b = gaussian_matrix(6, seed=9)
    c = gaussian_matrix(6, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_matrix_moments():
    x = gaussian_matrix(200, seed=3).ravel()
    assert abs(float(np.mean(x))) < 0.02
    assert abs(float(np.var(x)) - 1.0) < 0.02
    assert float(np.max(np.abs(x))) < 8.0  # no Box-Muller log(0) blowup


def test_gaussian_matrix_shape():
    assert gaussian_matrix(3, seed=1).shape == (3, 3)


# ---------------------------------------------------------------------------
# masks


def test_mask_none():
    base = IntegerMatrix(np.zeros((4, 4), dtype=np.int64))
    assert build_mask("none", base, seed=1) is None


def test_mask_zeros_freezes_zero_entries():
    # diagonal base: each row has exactly 3 zeros, right at the n=4 row cap
    entries = np.diag(np.array([7, -2, 5, 1], dtype=np.int64))
    base = IntegerMatrix(entries)
    mask = build_mask("zeros", base, seed=1)
    assert mask is not None
    assert not mask.diagonal().any()
    assert mask.sum() == 12


def test_mask_random_counts():
    base = IntegerMatrix(np.zeros((10, 10), dtype=np.int64))
    mask = build_mask("random:3", base, seed=5)
    assert mask.shape == (10, 10)
    assert (mask.sum(axis=1) == 3).all()


def test_mask_random_deterministic():
    base = IntegerMatrix(np.zeros((6, 6), dtype=np.int64))
    a = build_mask("random:2", base, seed=5)
    b = build_mask("random:2", base, seed=5)
    assert np.array_equal(a, b)


def test_mask_full_row_rejected():
    base = IntegerMatrix(np.zeros((6, 6), dtype=np.int64))
    with pytest.raises(ValidationError):
        build_mask("random:6", base, seed=1)


def test_mask_row_cap_enforced():
    # all-zero base at n = 100: freezing the zeros would freeze 100
    # entries per row, over ceil(100^0.99) = 96
    base = IntegerMatrix(np.zeros((100, 100), dtype=np.int64))
    with pytest.raises(ValidationError):
        build_mask("zeros", base, seed=1)


def test_mask_unknown_spec():
    base = IntegerMatrix(np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(ValidationError):
        build_mask("checkerboard", base, seed=1)


# ---------------------------------------------------------------------------
# exact singularity


def test_singularity_bernoulli_2_is_half():
    assert singularity_probability(2, bernoulli()) == Fraction(1, 2)


def test_singularity_bernoulli_3_frozen():
    # frozen via the Leibniz-determinant oracle (320 of 512)
    assert singularity_probability(3, bernoulli()) == Fraction(5, 8)
    assert oracles.singularity_by_enumeration(3, (1, -1)) == Fraction(5, 8)


def test_singularity_orders_agree():
    for n in (2, 3):
        rows = singularity_probability(n, bernoulli(), order="rows")
        cols = singularity_probability(n, bernoulli(), order="cols")
        assert rows == cols


def test_singularity_nonuniform_law():
    lc = lazy_coin(Fraction(1, 2))
    got = singularity_probability(2, lc)
    # oracle: direct mass sum over 81 assignments
    want_sup = Fraction(0)
    import itertools

    probs = {v: p for v, p in lc.atoms}
    total = Fraction(0)
    for m in itertools.product(lc.values, repeat=4):
        if m[0] * m[3] - m[1] * m[2] == 0:
            mass = Fraction(1)
            for v in m:
                mass *= probs[v]
            total += mass
    assert got == total


def test_singularity_size_budget(monkeypatch):
    # bernoulli n=7 needs C(69, 6) prefix multisets, over the default budget
    with pytest.raises(ResourceError, match="budget"):
        singularity_probability(7, bernoulli())
    # lazy_coin n=4: 41 row classes, C(43, 3) prefix multisets
    monkeypatch.setattr(experiments, "SINGULARITY_BUDGET", 1000)
    with pytest.raises(ResourceError, match=r"^normal-vector route needs at least 12341 prefix multisets "
                                            r"\(budget 1000\)$"):
        singularity_probability(4, lazy_coin(Fraction(1, 2)))


SKEWED = DiscreteDistribution("skewed", ((-1, Fraction(1, 5)), (0, Fraction(1, 2)), (2, Fraction(3, 10))))
ZERO_ONE = DiscreteDistribution("zero-one", ((0, Fraction(1, 3)), (1, Fraction(2, 3))))
SINGULARITY_LAWS = {
    "bernoulli": bernoulli(),
    "lazy_coin:1/2": lazy_coin(Fraction(1, 2)),
    "lazy_coin:1/10": lazy_coin(Fraction(1, 10)),
    "discretized_gaussian": discretized_gaussian(),
    "skewed": SKEWED,
    "zero-one": ZERO_ONE,
}


@pytest.mark.parametrize(
    "law, n",
    [(law, n) for law in SINGULARITY_LAWS for n in (1, 2, 3) if (law, n) != ("discretized_gaussian", 3)],
)
def test_singularity_matches_enumeration_oracle(law, n):
    dist = SINGULARITY_LAWS[law]
    # the oracle fills rows at even n and columns at odd n: both fill orders run
    want = oracles.singularity_by_enumeration(n, dist, order=("rows", "cols")[n % 2])
    assert singularity_probability(n, dist, "rows") == want
    assert singularity_probability(n, dist, "cols") == want


def test_singularity_wide_entries_take_the_rational_fallback(monkeypatch):
    # |minor| can reach 2 * 10^12 at n=3, whose square overflows int64
    wide = DiscreteDistribution("wide", ((-(10**6), Fraction(1, 4)), (1, Fraction(1, 4)), (10**6, Fraction(1, 2))))
    dtypes = set()
    eliminate = experiments.rational._eliminate

    def traced(*args):
        reduced, prev = eliminate(*args)
        dtypes.add(reduced.dtype)
        return reduced, prev

    monkeypatch.setattr(experiments.rational, "_eliminate", traced)
    got = singularity_probability(3, wide)
    assert np.dtype(object) in dtypes
    assert got == oracles.singularity_by_enumeration(3, wide)


def test_singularity_pinned_values():
    # n=4 and n=5 agree with brute force; n=6 is 43,090,149,376 of the 2^36 sign matrices
    assert singularity_probability(4, bernoulli(), "rows") == Fraction(169, 256)
    assert singularity_probability(4, bernoulli(), "cols") == Fraction(169, 256)
    assert singularity_probability(5, bernoulli()) == Fraction(1343, 2048)
    assert singularity_probability(6, bernoulli()) == Fraction(1315007, 2097152)


def test_singularity_bad_order():
    with pytest.raises(ValidationError):
        singularity_probability(2, bernoulli(), order="diag")


# ---------------------------------------------------------------------------
# tail curve


def _tail_cfg(**kw):
    base = dict(kind="tail", sizes=(10,), trials=120, seed=7, grid_points=6)
    base.update(kw)
    return ExperimentConfig(**base)


def test_tail_curve_shapes():
    out = tail_curve(_tail_cfg())
    assert len(out.records) == 120
    curve = out.curves[10]
    assert len(curve.grid) == 6
    assert all(0.0 <= f <= 1.0 for f in curve.fractions)
    # exceedance is monotone nonincreasing along the grid
    assert all(a >= b for a, b in zip(curve.fractions, curve.fractions[1:]))
    for lo, f, hi in zip(curve.ci_low, curve.fractions, curve.ci_high):
        assert lo <= f <= hi


def test_tail_curve_minimum_trials():
    with pytest.raises(ValidationError):
        tail_curve(_tail_cfg(trials=50))


def test_tail_curve_gaussian_noise_supported():
    out = tail_curve(_tail_cfg(noise="gaussian"))
    assert len(out.records) == 120
    assert out.curves[10].slope is not None


# ---------------------------------------------------------------------------
# condition tail


def _cond_cfg(**kw):
    base = dict(
        kind="cond-tail", sizes=(8,), trials=60, seed=11, b_grid=(1.0, 2.0, 6.0)
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_condition_tail_tables():
    out = condition_tail(_cond_cfg())
    table = out.tables[8]
    assert [r.b for r in table] == [1.0, 2.0, 6.0]
    # exceedance cannot grow as the threshold rises
    assert all(a.count >= b.count for a, b in zip(table, table[1:]))
    assert out.smallest_sufficient_b[8] in (1.0, 2.0, 6.0, None)


def test_condition_tail_compare_gaussian():
    out = condition_tail(_cond_cfg(compare_gaussian=True))
    assert 8 in out.gaussian_tables
    for row in out.tables[8]:
        assert row.comparable_to_gaussian is not None


def test_condition_tail_summary_json_ready():
    import json

    out = condition_tail(_cond_cfg())
    text = json.dumps(out.summary())
    assert "cond-tail" in text


# ---------------------------------------------------------------------------
# elimination error


def _ge_cfg(**kw):
    base = dict(kind="ge-check", sizes=(8,), trials=40, seed=13)
    base.update(kw)
    return ExperimentConfig(**base)


def test_ge_single_precision_ratios():
    out = ge_error_experiment(_ge_cfg())
    assert out.eps_machine == 2.0**-24
    ok = [t for t in out.trials if not t.singular]
    assert ok, "all draws singular?"
    finite = [t.ratio for t in ok if math.isfinite(t.ratio)]
    assert finite
    # error should be within a few orders of eps * kappa
    assert min(finite) >= 0.0


def test_ge_double_precision_much_smaller_error():
    # sign noise produces dyadic solutions that float32 often nails exactly,
    # so use a denser value set to expose the precision gap
    single = ge_error_experiment(_ge_cfg(noise="discretized_gaussian"))
    double = ge_error_experiment(_ge_cfg(noise="discretized_gaussian", precision="double"))
    s_med = np.median([t.rel_error for t in single.trials if not t.singular])
    d_med = np.median([t.rel_error for t in double.trials if not t.singular])
    assert d_med < s_med * 1e-4


def test_ge_exact_reference_is_exact():
    # the reference path must solve integer systems with zero error
    from perturblab import solve_exact

    rng = np.random.Generator(np.random.PCG64(55))
    a = rng.integers(-9, 10, size=(6, 6)).tolist()
    b = [int(x) for x in rng.integers(-9, 10, size=6)]
    x = solve_exact(a, b)
    assert x is not None
    for i in range(6):
        assert sum(Fraction(a[i][j]) * x[j] for j in range(6)) == b[i]


def test_ge_singular_is_the_exact_determinant():
    # duplicated_column under lazy coins has exactly singular draws whose
    # floating sigma_min is still positive; the exact half decides
    cfg = _ge_cfg(sizes=(5,), trials=60, noise="lazy_coin:1/2", matrix="duplicated_column")
    out = ge_error_experiment(cfg)
    base = matrix_from_spec(cfg.matrix, 5).entries
    law = lazy_coin(Fraction(1, 2))
    for r in out.records:
        system = base + sample_iid_matrix(law, 5, r.seed)
        assert r.singular == (determinant(system.tolist()) == 0)
        assert r.singular == (r.kappa == math.inf)
    assert any(r.singular and r.sigma_min > 0.0 for r in out.records)


def test_ge_applies_the_mask():
    cfg = _ge_cfg(sizes=(5,), trials=60, noise="lazy_coin:1/2", matrix="duplicated_column")
    masked = replace(cfg, mask="random:1")
    out = ge_error_experiment(masked)
    assert format_records_csv(out.records) != format_records_csv(ge_error_experiment(cfg).records)
    base = matrix_from_spec(cfg.matrix, 5)
    mask = build_mask(masked.mask, base, masked.seed)
    law = lazy_coin(Fraction(1, 2))
    for r in out.records:
        system = base.entries + np.where(mask, 0, sample_iid_matrix(law, 5, r.seed))
        assert r.singular == (determinant(system.tolist()) == 0)


def test_ge_rejects_gaussian_noise():
    with pytest.raises(ValidationError):
        ge_error_experiment(_ge_cfg(noise="gaussian"))


def test_ge_summary_fields():
    out = ge_error_experiment(_ge_cfg(trials=20))
    s = out.summary()
    assert s["experiment"] == "ge-check"
    assert s["trials"] == 20
    assert "fraction_ratio_le_100_well_conditioned" in s


def _swap_heavy_bernoulli(n, dtype):
    """(matrix, swaps): of the nonsingular bernoulli draws of seeds 0..49,
    the one whose elimination swaps rows at the most steps."""
    best = None
    for seed in range(50):
        a = sample_iid_matrix(bernoulli(), n, seed).astype(np.float64)
        pivots = []
        if oracles.ge_solve(a, np.ones(n), dtype, pivots) is not None:
            swaps = sum(p != k for k, p in enumerate(pivots))
            if best is None or swaps > best[1]:
                best = (a, swaps)
    return best


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
def test_stacked_elimination_equals_one_system_at_a_time(n, dtype):
    rng = np.random.Generator(np.random.PCG64(400 + n))
    swapping, swaps = _swap_heavy_bernoulli(n, dtype)
    # a +-1 column ties at step 0 and step n - 1 has one row: most of the n - 2 steps between swap
    assert 2 * swaps > n - 2 or n <= 2
    singular = swapping.copy()  # a zero pivot column: at the last step, and at once when n = 1
    singular[:, -1] = singular[:, 0] if n > 1 else 0.0
    matrices = [swapping, singular, rng.integers(-9, 10, size=(n, n)).astype(np.float64), swapping]
    rhs = [rng.integers(-9, 10, size=n).astype(np.float64) for _ in range(3)]
    rhs.append(rhs[0])  # the last member duplicates the first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, solved = experiments._ge_solve(np.dstack([np.stack(matrices), np.stack(rhs)]), dtype)
    assert x.dtype == dtype and x.shape == (4, n)
    for b, (a, r) in enumerate(zip(matrices, rhs)):
        want = oracles.ge_solve(a, r, dtype)
        assert solved[b] == (want is not None)
        if want is not None:
            assert (x[b] == want).all()
    assert not solved[1] and solved[0] and solved[3]


# ---------------------------------------------------------------------------
# one singular verdict: det = 0 for every integer matrix


# sizes where two equal or opposite lines make singular draws common, and
# Jacobi alone leaves many of them with sigma_min > 0
VERDICT_SIZES = {"lazy_coin:1/2": (3, 4, 5, 6, 7, 8), "bernoulli": (5, 6, 7, 8, 9, 10)}


@pytest.mark.parametrize("noise", list(VERDICT_SIZES))
@pytest.mark.parametrize("kind", ["cond-tail", "tail", "minors"])
def test_singular_is_exactly_det_zero_under_discrete_noise(kind, noise, monkeypatch):
    swept = []  # every matrix the run passes to svd_stack, with its spectrum
    stack = experiments.svd_stack

    def spy(matrices):
        spectra = stack(matrices)
        swept.extend(zip(matrices, spectra))
        return spectra

    monkeypatch.setattr(experiments, "svd_stack", spy)
    cfg = ExperimentConfig(kind=kind, sizes=VERDICT_SIZES[noise], trials=200, seed=16, noise=noise)
    out = {"cond-tail": condition_tail, "tail": tail_curve, "minors": minors_experiment}[kind](cfg)
    law = experiments._law(noise)
    for r in out.records:
        matrix = sample_iid_matrix(law, r.n, r.seed)  # the base matrix is zero
        assert r.singular == (determinant(matrix.tolist()) == 0)
        assert (r.kappa == math.inf) == r.singular
    # the draws Jacobi alone would have missed are there to be caught
    assert any(r.singular and r.sigma_min > 0.0 for r in out.records)
    # every spectrum the run read, each leading block of a minors draw included
    assert len(swept) == (sum(cfg.sizes) if kind == "minors" else len(cfg.sizes)) * cfg.trials
    for matrix, spectrum in swept:
        assert isinstance(matrix, IntegerMatrix)
        assert spectrum.singular == (determinant(matrix.entries) == 0)


# ---------------------------------------------------------------------------
# minors


def test_minors_tracks_leading_blocks():
    cfg = ExperimentConfig(kind="minors", sizes=(6,), trials=25, seed=17, b_grid=(6.0,))
    out = minors_experiment(cfg)
    per_k = out.per_k[6]
    assert sorted(per_k) == [1, 2, 3, 4, 5, 6]
    # k = 1 minor of a sign matrix has kappa exactly 1 (|entry| = 1)
    assert per_k[1] == pytest.approx(1.0)
    assert 0.0 <= out.fraction_all_below[6] <= 1.0
    assert len(out.records) == 25


def test_minors_summary_writes_a_singular_minor_as_inf():
    # bernoulli n=2: P(singular) = 1/2, so 8 trials all but surely hit kappa = inf
    cfg = ExperimentConfig(kind="minors", sizes=(2,), trials=8, seed=1, b_grid=(1.0,))
    text = format_summary_json(minors_experiment(cfg).summary())
    assert json.loads(text)["per_minor_max_kappa"] == {"2": {"1": 1.0, "2": "inf"}}


def test_minors_size_cap():
    cfg = ExperimentConfig(kind="minors", sizes=(400,), trials=1, seed=1)
    with pytest.raises(ValidationError):
        minors_experiment(cfg)


# ---------------------------------------------------------------------------
# frozen entries


def test_frozen_requires_mask():
    cfg = ExperimentConfig(kind="frozen", sizes=(6,), trials=10, seed=19)
    with pytest.raises(ValidationError):
        frozen_entries_experiment(cfg)


def test_frozen_vs_unmasked_tables():
    cfg = ExperimentConfig(
        kind="frozen", sizes=(8,), trials=40, seed=19, mask="random:2", b_grid=(1.0, 3.0)
    )
    out = frozen_entries_experiment(cfg)
    assert 8 in out.masked_tables
    assert 8 in out.unmasked_tables
    assert len(out.records) == 40
    # masked and unmasked runs share per-trial seeds
    assert all(r.seed for r in out.records)


def test_frozen_masked_run_actually_freezes():
    cfg = ExperimentConfig(
        kind="frozen", sizes=(8,), trials=30, seed=23, mask="random:4", b_grid=(1.0, 2.0)
    )
    out = frozen_entries_experiment(cfg)
    base = matrix_from_spec(cfg.matrix, 8, cfg.c_exponent)
    mask = build_mask(cfg.mask, base, cfg.seed)
    law = experiments._law(cfg.noise)
    assert mask.sum(axis=1).tolist() == [4] * 8
    for record in out.records:
        m = experiments._matrix(base, law, record.seed, mask)
        assert svd(m).sigma_min == record.sigma_min  # the trial the record came from
        assert np.array_equal(m.entries[mask], base.entries[mask])
        # bernoulli noise is never 0: every unmasked entry moved
        assert np.all(m.entries[~mask] != base.entries[~mask])
    assert out.masked_tables[8] != out.unmasked_tables[8]


# ---------------------------------------------------------------------------
# chunks of trials swept as one svd_stack


def _ge_trial_alone(cfg, trial, seed, system, spectrum):
    """A ge-check trial recomputed on its own from the one-system oracles."""
    n = system.n
    rel = ratio = math.inf
    if not spectrum.singular:
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "ge-rhs", n, trial)))
        b = rng.integers(-9, 10, size=n)
        x_true = np.array([float(x) for x in oracles.solve_by_fractions(system.entries.tolist(), b.tolist())])
        single = cfg.precision == "single"
        approx = oracles.ge_solve(
            system.entries.astype(np.float64), b.astype(np.float64), np.float32 if single else np.float64
        )
        denom = math.sqrt(np.add.reduce(x_true * x_true))
        if approx is not None and denom != 0.0:
            rel = math.sqrt(np.add.reduce((approx - x_true) ** 2)) / denom
        if math.isfinite(spectrum.kappa):
            ratio = rel / ((2.0**-24 if single else 2.0**-53) * spectrum.kappa)
    return experiments.GeTrial(trial, seed, spectrum.kappa, rel, ratio, spectrum.singular)


@pytest.mark.parametrize("kind, entries", [
    pytest.param("tail", experiments.STACK_ENTRIES, id="tail"),  # a full 2^16 stack
    pytest.param("ge-check", 2**13, id="ge-check"),  # chunks of 20 at n = 20
    pytest.param("ge-check", 1, id="ge-check-chunks-of-one"),
    pytest.param("minors", 2**13, id="minors"),  # chunks of 9 at n = 30
])
def test_stacked_runs_equal_trials_one_at_a_time(kind, entries, monkeypatch):
    n = {"tail": 50, "ge-check": 20, "minors": 30}[kind]
    monkeypatch.setattr(experiments, "STACK_ENTRIES", entries)
    size = max(1, entries // (n * n))
    full_chunks = 1 if kind == "minors" else 3  # a minors trial runs n - 1 more svd calls
    trials = 100 if kind == "tail" else full_chunks * size + size // 2 if size > 1 else 12
    assert trials // size >= full_chunks and (trials % size or size == 1)  # full chunks, then a short one
    cfg = ExperimentConfig(
        kind=kind, sizes=(n,), trials=trials, seed=29, mask="random:2",
        noise="gaussian" if kind == "tail" else "bernoulli",
    )
    run = {"tail": tail_curve, "ge-check": ge_error_experiment, "minors": minors_experiment}[kind]
    out = run(cfg)
    records = out.records
    threaded = run(replace(cfg, threads=3))
    assert threaded.records == records
    if kind == "ge-check":
        assert threaded.trials == out.trials
    base = matrix_from_spec(cfg.matrix, n)
    mask = build_mask(cfg.mask, base, cfg.seed)
    law = experiments._law(cfg.noise)
    assert [r.trial for r in records] == list(range(trials))
    full_kappas = []
    for record in records:
        seed = derive_seed(cfg.seed, kind, n, record.trial)
        matrix = experiments._matrix(base, law, seed, mask)
        spectrum = svd(matrix)
        if kind == "tail":
            hit = spectrum.sigma_min == 0.0 or 1.0 / spectrum.sigma_min >= 10.0 * math.sqrt(n)
            assert record == experiments._record(record.trial, seed, spectrum, hit)
        elif kind == "minors":  # the tail flag reads the k < n blocks too
            assert record == experiments._record(record.trial, seed, spectrum, record.tail_hit)
            full_kappas.append(spectrum.kappa)
        else:  # the tail flag comes from the solve error
            alone = _ge_trial_alone(cfg, record.trial, seed, matrix, spectrum)
            assert out.trials[record.trial] == alone
            hit = not spectrum.singular and alone.ratio > 100.0
            assert record == experiments._record(record.trial, seed, spectrum, hit)
    if kind == "minors":
        assert out.per_k[n][n] == max(full_kappas)
        assert out.fraction_all_below[n] == sum(not r.tail_hit for r in records) / trials
    if kind == "ge-check":
        assert not all(t.singular for t in out.trials)


# ---------------------------------------------------------------------------
# every experiment kind


_EVERY_KIND = {
    "tail": (tail_curve, _tail_cfg(mask="random:2")),
    "cond-tail": (condition_tail, _cond_cfg(mask="random:2", compare_gaussian=True)),
    "ge-check": (
        ge_error_experiment,
        _ge_cfg(sizes=(5,), noise="lazy_coin:1/2", matrix="duplicated_column"),
    ),
    "ge-check-masked": (ge_error_experiment, _ge_cfg(sizes=(5,), mask="random:1")),
    "minors": (minors_experiment, ExperimentConfig(kind="minors", sizes=(6,), trials=25, seed=17)),
    "minors-gaussian": (
        minors_experiment,
        ExperimentConfig(kind="minors", sizes=(6,), trials=25, seed=17, noise="gaussian"),
    ),
    "frozen": (
        frozen_entries_experiment,
        ExperimentConfig(kind="frozen", sizes=(8,), trials=40, seed=19, mask="random:2"),
    ),
}


@pytest.mark.parametrize("kind", list(_EVERY_KIND))
def test_record_seeds_follow_the_kind(kind):
    run, cfg = _EVERY_KIND[kind]
    records = run(cfg).records
    assert len(records) == cfg.trials * len(cfg.sizes)
    for r in records:
        assert r.seed == derive_seed(cfg.seed, cfg.kind, r.n, r.trial)


def test_frozen_tables_are_the_cond_tail_tables():
    cfg = ExperimentConfig(
        kind="frozen", sizes=(5, 8), trials=30, seed=19, mask="random:2", b_grid=(1.0, 1.5, 3.0)
    )
    out = frozen_entries_experiment(cfg)
    assert out.unmasked_tables == condition_tail(replace(cfg, mask="none")).tables
    assert out.masked_tables == condition_tail(cfg).tables
    assert out.masked_tables != out.unmasked_tables


@pytest.mark.parametrize("kind", list(_EVERY_KIND))
def test_outputs_independent_of_thread_count(kind):
    run, cfg = _EVERY_KIND[kind]
    outputs = []
    for threads in (1, 3):
        out = run(replace(cfg, threads=threads))
        outputs.append((format_records_csv(out.records), format_summary_json(out.summary())))
    assert outputs[0] == outputs[1]
