import json
import math
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


def test_singularity_size_budget():
    # bernoulli n=7 needs C(69, 6) prefix multisets, over the default budget
    with pytest.raises(ResourceError, match="budget"):
        singularity_probability(7, bernoulli())
    with pytest.raises(ResourceError):
        singularity_probability(4, lazy_coin(Fraction(1, 2)), budget=1000)


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
    calls = []
    exact_det = experiments.rational.determinant

    def counted(matrix):
        calls.append(matrix)
        return exact_det(matrix)

    monkeypatch.setattr(experiments.rational, "determinant", counted)
    got = singularity_probability(3, wide)
    assert calls
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


@pytest.mark.parametrize("kind", ["tail", "ge-check"])
def test_stacked_runs_equal_trials_one_at_a_time(kind):
    n = 50 if kind == "tail" else 20
    size = max(1, experiments.STACK_ENTRIES // (n * n))
    trials = 3 * size + size // 2 if kind == "ge-check" else 100
    assert trials // size >= 3 and trials % size  # three full chunks or more, then a short one
    cfg = ExperimentConfig(
        kind=kind, sizes=(n,), trials=trials, seed=29, mask="random:2",
        noise="gaussian" if kind == "tail" else "bernoulli",
    )
    run = tail_curve if kind == "tail" else ge_error_experiment
    records = run(cfg).records
    assert run(replace(cfg, threads=3)).records == records
    base = matrix_from_spec(cfg.matrix, n)
    mask = build_mask(cfg.mask, base, cfg.seed)
    law = experiments._law(cfg.noise)
    assert [r.trial for r in records] == list(range(trials))
    for record in records:
        seed = derive_seed(cfg.seed, kind, n, record.trial)
        spectrum = svd(experiments._matrix(base, law, seed, mask))
        if kind == "tail":
            hit = spectrum.sigma_min == 0.0 or 1.0 / spectrum.sigma_min >= 10.0 * math.sqrt(n)
            assert record == experiments._record(record.trial, seed, spectrum, hit)
        else:  # the exact solve decides singularity, and the tail flag from its error
            assert (record.seed, record.sigma_max, record.sigma_min) == (
                seed, spectrum.sigma_max, spectrum.sigma_min)
            assert record.singular or record.kappa == spectrum.kappa


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
