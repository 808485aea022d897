import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from perturblab import (
    ExperimentConfig,
    IntegerMatrix,
    ResourceError,
    ValidationError,
    bernoulli,
    build_mask,
    condition_tail,
    determinant,
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
    tail_curve,
)

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
    # frozen via the cofactor-determinant oracle (320 of 512)
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
    with pytest.raises(ValidationError):
        singularity_probability(6, bernoulli())
    with pytest.raises(ResourceError):
        singularity_probability(4, lazy_coin(Fraction(1, 2)), budget=1000)


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
    # with every off-diagonal entry of row 0 frozen... instead compare:
    # a mask changes the kappa stream with overwhelming probability
    cfg = ExperimentConfig(
        kind="frozen", sizes=(8,), trials=30, seed=23, mask="random:4", b_grid=(1.0,)
    )
    out = frozen_entries_experiment(cfg)
    masked = [r.kappa for r in out.records]
    plain_cfg = ExperimentConfig(
        kind="cond-tail", sizes=(8,), trials=30, seed=23, b_grid=(1.0,)
    )
    # not directly comparable (different seed labels); just sanity-check ranges
    assert all(k >= 1.0 for k in masked if math.isfinite(k))


# ---------------------------------------------------------------------------
# every experiment kind


_EVERY_KIND = {
    "tail": (tail_curve, _tail_cfg(mask="random:2")),
    "cond-tail": (condition_tail, _cond_cfg(mask="random:2", compare_gaussian=True)),
    "ge-check": (
        ge_error_experiment,
        _ge_cfg(sizes=(5,), noise="lazy_coin:1/2", matrix="duplicated_column"),
    ),
    "minors": (minors_experiment, ExperimentConfig(kind="minors", sizes=(6,), trials=25, seed=17)),
    "frozen": (
        frozen_entries_experiment,
        ExperimentConfig(kind="frozen", sizes=(8,), trials=40, seed=19, mask="random:2"),
    ),
}


@pytest.mark.parametrize("kind", list(_EVERY_KIND))
def test_outputs_independent_of_thread_count(kind):
    run, cfg = _EVERY_KIND[kind]
    outputs = []
    for threads in (1, 3):
        out = run(replace(cfg, threads=threads))
        outputs.append((format_records_csv(out.records), format_summary_json(out.summary())))
    assert outputs[0] == outputs[1]
