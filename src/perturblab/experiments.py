"""Seeded Monte Carlo experiments over perturbed matrices.

Every trial derives its own seed from (master seed, experiment kind,
size, trial index), so the record stream is identical no matter how many
worker threads run and rerunning a config reproduces its outputs byte
for byte.  Gaussian baseline noise is generated by Box-Muller from the
same seeded uniform stream rather than a library normal sampler, so the
baseline is reproducible from the seed alone as well.

Every Monte Carlo kind runs one trial loop: chunks of consecutive
trials, each chunk's base + noise matrices through one `svd_stack` call
(which gives each of them the spectrum and singular verdict `svd` alone
would; minors adds one call per leading block size), then one row per
trial.  `frozen` is the cond-tail measurement run twice, masked and
unmasked, on matched per-trial seeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .concentration import ConcentrationQuery, exact_point_mass
from .config import ExperimentConfig
from .errors import ResourceError, ValidationError
from .linalg import (
    IntegerMatrix,
    RealMatrix,
    SingularSpectrum,
    matrix_from_spec,
    perturb,
    svd_stack,
)
from .noise import NOISE_ARGS, DiscreteDistribution, distribution_from_spec, sample_iid_matrix
from .records import ExperimentRecord, run_trials
from . import rational
from .util import derive_seed, parse_spec, wilson_interval

SINGULARITY_BUDGET = 10_000_000
# Matrix entries per svd_stack call: a chunk of trials stacks max(1, this // n^2)
# matrices (163 at n = 20, 26 at n = 50, 6 at n = 100).  A bigger stack pays
# numpy's per-call cost over more matrices, but every pool thread holds its
# stack and svd_stack's idle buffer of the same size at once, and they show in
# the peak resident set.  On the tail-gaussian-n50 benchmark, against one matrix
# at a time, 2^14 gave 2.9x the throughput for +1.8% peak RSS, 2^15 3.8x for
# +4.4% and 2^16 4.2x for +8.9%.
STACK_ENTRIES = 2**16


# ---------------------------------------------------------------------------
# noise sampling


def gaussian_matrix(n: int, seed: int) -> np.ndarray:
    """n x n standard normals via Box-Muller from the seeded uniform stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    count = n * n
    half = (count + 1) // 2
    u1 = 1.0 - rng.random(half)  # in (0, 1]: log stays finite
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)])
    return z[:count].reshape(n, n)


_MASK_ARGS = {"none": None, "zeros": None, "random": (int, None)}


def build_mask(spec: str, base: IntegerMatrix, seed: int) -> np.ndarray | None:
    """Frozen-entry masks: 'none' (or ''), 'zeros' (freeze zero entries of
    the base), or 'random:<k>' (k seeded positions per row).

    Per-row frozen counts are capped at min(ceil(n^0.99), n - 1): freezing
    a full row would remove all randomness from it.
    """
    head, k = parse_spec(spec.strip() or "none", "mask", _MASK_ARGS)
    n = base.n
    if head == "none":
        return None
    if head == "zeros":
        mask = base.entries == 0
    else:
        if k < 0:
            raise ValidationError("random mask count must be >= 0")
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "mask", n)))
        mask = np.zeros((n, n), dtype=bool)
        for i in range(n):
            cols = rng.choice(n, size=min(k, n), replace=False)
            mask[i, cols] = True
    cap = min(math.ceil(n**0.99), n - 1) if n > 1 else 0
    worst = int(np.max(np.sum(mask, axis=1)))
    if worst > cap:
        raise ValidationError(
            f"mask freezes {worst} entries in a row, cap is {cap} (= min(ceil(n^0.99), n-1))"
        )
    return mask


# ---------------------------------------------------------------------------
# shared trial loop


def _law(spec: str) -> DiscreteDistribution | None:
    """The discrete noise law named by spec, or None for gaussian noise."""
    head, _ = parse_spec(spec, "noise", NOISE_ARGS)
    return None if head == "gaussian" else distribution_from_spec(spec)


def _sizes(cfg: ExperimentConfig) -> Iterator[tuple[int, IntegerMatrix, np.ndarray | None]]:
    """(n, base matrix, frozen-entry mask) for each configured size."""
    for n in cfg.sizes:
        base = matrix_from_spec(cfg.matrix, n, cfg.c_exponent)
        yield n, base, build_mask(cfg.mask, base, cfg.seed)


def _matrix(
    base: IntegerMatrix, law: DiscreteDistribution | None, seed: int, mask: np.ndarray | None
) -> IntegerMatrix | RealMatrix:
    """One trial's base + noise, with law None meaning gaussian noise; entries
    under the mask stay frozen.  Discrete noise keeps the matrix integer."""
    if law is None:
        noise = gaussian_matrix(base.n, seed)
        if mask is not None:
            noise[mask] = 0.0
        return RealMatrix(base.entries.astype(float) + noise)
    return perturb(base, IntegerMatrix(sample_iid_matrix(law, base.n, seed)), mask)


def _record(trial: int, seed: int, spectrum: SingularSpectrum, tail_hit: bool) -> ExperimentRecord:
    return ExperimentRecord(
        trial=trial, seed=seed, n=len(spectrum.sigma), sigma_max=spectrum.sigma_max,
        sigma_min=spectrum.sigma_min, singular=spectrum.singular, tail_hit=bool(tail_hit),
    )


def _svd_trials(
    cfg: ExperimentConfig, n: int, base: IntegerMatrix, law: DiscreteDistribution | None,
    mask: np.ndarray | None, row: Callable[..., object], suffix: str = "", blocks: range = range(0),
) -> list:
    """row(trial, seed, matrix, spectrum, *block spectra) for every trial of
    base + noise, in trial order, with the spectra of its leading k x k
    blocks for k in `blocks`.  A chunk of max(1, STACK_ENTRIES // n^2)
    consecutive trials goes through one svd_stack call per matrix size, and
    each seed is derived from (master seed, cfg.kind + suffix, n, index)
    alone, so neither the chunk size nor the thread count moves a result."""
    label = cfg.kind + suffix
    size = max(1, STACK_ENTRIES // (n * n))
    starts = range(0, cfg.trials, size)

    def run(chunk: int) -> list:
        indices = range(starts[chunk], min(starts[chunk] + size, cfg.trials))
        seeds = [derive_seed(cfg.seed, label, n, i) for i in indices]
        matrices = [_matrix(base, law, seed, mask) for seed in seeds]
        # each block keeps its matrix's type, so an integer block gets the exact verdict
        stacks = [svd_stack([type(m)(m.entries[:k, :k]) for m in matrices]) for k in blocks]
        return list(map(row, indices, seeds, matrices, svd_stack(matrices), *stacks))

    return [out for part in run_trials(run, len(starts), cfg.threads) for out in part]


def _exceedance(values: Sequence[float], thresholds: Sequence[float]) -> list[tuple]:
    """(count of values >= x, fraction, Wilson low, Wilson high) per threshold x."""
    counts = [sum(1 for v in values if v >= x) for x in thresholds]
    return [(c, c / len(values), *wilson_interval(c, len(values))) for c in counts]


# ---------------------------------------------------------------------------
# tail of the inverse norm


@dataclass(frozen=True, slots=True)
class TailCurve:
    n: int
    grid: tuple[float, ...]
    counts: tuple[int, ...]
    fractions: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    slope: float | None
    slope_points: int


@dataclass(frozen=True, slots=True)
class TailResult:
    config: ExperimentConfig
    records: list[ExperimentRecord]
    curves: dict[int, TailCurve]

    def summary(self) -> dict:
        return {
            "experiment": "tail",
            "trials": self.config.trials,
            "noise": self.config.noise,
            "curves": {
                str(n): {
                    "grid": c.grid,
                    "counts": c.counts,
                    "fractions": c.fractions,
                    "ci_low": c.ci_low,
                    "ci_high": c.ci_high,
                    "loglog_slope": c.slope,
                    "slope_points": c.slope_points,
                }
                for n, c in self.curves.items()
            },
        }


def _tail_curve_from(inv_norms: list[float], n: int, grid_points: int) -> TailCurve:
    finite = sorted(x for x in inv_norms if math.isfinite(x))
    if len(finite) < 2:
        raise ValidationError("too few finite inverse norms to build a curve")
    lo = finite[int(0.50 * (len(finite) - 1))]
    hi = finite[int(0.98 * (len(finite) - 1))]
    if not (0 < lo < hi):
        lo = max(finite[0], 1e-6)
        hi = finite[-1]
    if hi <= lo:
        hi = lo * 10.0  # all observations equal: still emit a usable grid
    grid = list(np.geomspace(lo, hi, grid_points))
    counts, fracs, cl, ch = zip(*_exceedance(inv_norms, grid))
    pts = [(math.log10(x), math.log10(f)) for x, f in zip(grid, fracs) if 0.0 < f < 1.0]
    slope = None
    if len(pts) >= 3:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return TailCurve(
        n=n,
        grid=tuple(grid),
        counts=counts,
        fractions=fracs,
        ci_low=cl,
        ci_high=ch,
        slope=slope,
        slope_points=len(pts),
    )


def _inverse_norm(x: SingularSpectrum | ExperimentRecord) -> float:
    return math.inf if x.singular or x.sigma_min == 0.0 else 1.0 / x.sigma_min


def tail_curve(cfg: ExperimentConfig) -> TailResult:
    """Exceedance curve of ||inverse|| = 1/sigma_min over a log grid."""
    if cfg.trials < 100:
        raise ValidationError("tail curves need at least 100 trials")
    law = _law(cfg.noise)
    records: list[ExperimentRecord] = []
    curves: dict[int, TailCurve] = {}
    for n, base, mask in _sizes(cfg):
        x_ref = 10.0 * math.sqrt(n)  # record-level tail flag reference
        rows = _svd_trials(
            cfg, n, base, law, mask, lambda i, seed, _, s: _record(i, seed, s, _inverse_norm(s) >= x_ref)
        )
        records.extend(rows)
        curves[n] = _tail_curve_from([_inverse_norm(r) for r in rows], n, cfg.grid_points)
    return TailResult(config=cfg, records=records, curves=curves)


# ---------------------------------------------------------------------------
# condition number tail


@dataclass(frozen=True, slots=True)
class ExceedanceRow:
    b: float
    threshold: float
    count: int
    fraction: float
    ci_low: float
    ci_high: float
    comparable_to_gaussian: bool | None = None


@dataclass(frozen=True, slots=True)
class CondTailResult:
    config: ExperimentConfig
    records: list[ExperimentRecord]
    tables: dict[int, list[ExceedanceRow]]
    gaussian_tables: dict[int, list[ExceedanceRow]]
    smallest_sufficient_b: dict[int, float | None]

    def summary(self) -> dict:
        out = {
            "experiment": "cond-tail",
            "trials": self.config.trials,
            "noise": self.config.noise,
            "matrix": self.config.matrix,
            "tables": _tables_json(self.tables),
            "smallest_sufficient_b": {
                str(n): b for n, b in self.smallest_sufficient_b.items()
            },
        }
        if self.gaussian_tables:
            out["gaussian_tables"] = _tables_json(self.gaussian_tables)
        return out


def _tables_json(tables: dict[int, list[ExceedanceRow]], threshold: bool = True) -> dict:
    """Exceedance tables keyed by str(n); the frozen summary has never
    carried the threshold column."""

    def row(r: ExceedanceRow) -> dict:
        return {
            k: v for k, v in asdict(r).items()
            if v is not None and (threshold or k != "threshold")
        }

    return {str(n): [row(r) for r in table] for n, table in tables.items()}


def _exceedance_table(kappas: list[float], n: int, b_grid: Sequence[float]) -> list[ExceedanceRow]:
    thresholds = [float(n) ** float(b) for b in b_grid]
    return [
        ExceedanceRow(float(b), threshold, *counted)
        for b, threshold, counted in zip(b_grid, thresholds, _exceedance(kappas, thresholds))
    ]


def condition_tail(cfg: ExperimentConfig) -> CondTailResult:
    """Empirical P(kappa >= n^B) per B, with an optional Gaussian baseline.

    The baseline runs the same trial count at the same sizes from its own
    derived seed stream; a B row is flagged comparable when the two 99%
    intervals overlap.  The summary also reports the smallest grid B whose
    exceedance is at or below the configured target (empirical sufficiency).
    """
    law = _law(cfg.noise)
    records: list[ExperimentRecord] = []
    tables: dict[int, list[ExceedanceRow]] = {}
    gauss_tables: dict[int, list[ExceedanceRow]] = {}
    smallest: dict[int, float | None] = {}
    for n, base, mask in _sizes(cfg):
        tail_ref = float(n) ** float(cfg.b_grid[0])

        def record(trial: int, seed: int, _, spectrum: SingularSpectrum) -> ExperimentRecord:
            return _record(trial, seed, spectrum, spectrum.kappa >= tail_ref)

        rows = _svd_trials(cfg, n, base, law, mask, record)
        records.extend(rows)
        table = _exceedance_table([r.kappa for r in rows], n, cfg.b_grid)
        if cfg.compare_gaussian:
            gaussian = _svd_trials(cfg, n, base, None, mask, record, "-gaussian")
            gtable = _exceedance_table([r.kappa for r in gaussian], n, cfg.b_grid)
            gauss_tables[n] = gtable
            table = [
                replace(r, comparable_to_gaussian=r.ci_low <= g.ci_high and g.ci_low <= r.ci_high)
                for r, g in zip(table, gtable)
            ]
        tables[n] = table
        sufficient = [r.b for r in table if r.fraction <= cfg.target_exceedance]
        smallest[n] = min(sufficient) if sufficient else None
    return CondTailResult(
        config=cfg, records=records, tables=tables,
        gaussian_tables=gauss_tables, smallest_sufficient_b=smallest,
    )


# ---------------------------------------------------------------------------
# exact singularity probability


def _cofactors(prefixes: np.ndarray) -> np.ndarray:
    """c[b, j] = (-1)^(r+j) det(prefix b without column j) for a stack of
    r x (r + 1) integer prefixes, so that det([prefix; x]) = x . c.

    One `rational` Bareiss elimination over the whole stack (int64 while
    no product can overflow, Python ints past that).  Bareiss treats
    columns alike, so the minors without column j share the first j steps:
    one elimination of the whole prefix, and minor j branches off it before
    step j.
    """
    count, r, n = prefixes.shape
    a = rational._stack(prefixes)
    sign = np.ones(count, dtype=np.int64)
    prev = np.ones(count, dtype=a.dtype)
    dets = []
    for j in range(r):
        minor, minor_sign = np.delete(a, j, axis=1), sign.copy()
        minor, _ = rational._eliminate(minor, range(j, r), minor_sign, prev.copy())
        dets.append(minor_sign * minor[r - 1, r - 1])
        a, prev = rational._eliminate(a, range(j, j + 1), sign, prev)
    dets.append(sign * a[r - 1, r - 1])
    return np.stack(dets, axis=1) * np.array([(-1) ** (r + j) for j in range(n)])


def singularity_probability(
    n: int,
    dist: DiscreteDistribution,
    order: str = "rows",
    budget: int = SINGULARITY_BUDGET,
) -> Fraction:
    """Exact P(det = 0) for an n x n matrix of iid entries with law `dist`.

    The normal-vector reduction: once the first n - 1 rows are fixed, the
    matrix is singular exactly when the last row X is orthogonal to their
    integer cofactor vector c, so

        P(det = 0) = sum over prefixes of P(prefix) * P(X . c = 0),

    where a rank-deficient prefix has c = 0 and counts in full, and
    P(X . c = 0) is the point mass of the walk that
    `concentration.exact_point_mass` convolves (cached by sorted c, by
    sorted |c| under a symmetric law).  Rows are exchangeable, so the
    prefix is enumerated as a multiset of row classes weighted by its
    multinomial coefficient; under a symmetric law a row and its negation
    are one class of twice the mass.  `budget` caps the number of prefix
    multisets, C(m + n - 2, n - 1) for m row classes, and is checked
    before any work.

    `order` names the side the n - 1 prefix lines come from ('rows' or
    'cols').  For iid entries the transpose has the law of the matrix, so
    both sides run one code path and give the same value.
    """
    if n < 1:
        raise ValidationError("singularity needs n >= 1")
    if order not in ("rows", "cols"):
        raise ValidationError(f"order must be 'rows' or 'cols', got {order!r}")
    symmetric = dist.is_symmetric
    k = len(dist.atoms)
    zero = int(0 in dist.values)
    m = (k**n - zero) // 2 + zero if symmetric else k**n
    # C(m + n - 2, n - 1) >= m once n >= 2: a huge class count is refused uncounted
    count = m if n > 1 and m > budget else math.comb(m + n - 2, n - 1)
    if count > budget:
        raise ResourceError(f"normal-vector route needs at least {count} prefix multisets (budget {budget})")
    if n == 1:
        return dist.probability_of(0)
    # row classes, with masses as integers over den^n
    den = math.lcm(*(p.denominator for p in dist.probabilities))
    scaled = [p.numerator * (den // p.denominator) for p in dist.probabilities]
    digits = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
    rows = np.array(dist.values, dtype=np.int64)[digits]
    masses = np.array([math.prod(scaled[d] for d in row) for row in digits.tolist()], dtype=object)
    if symmetric:  # a row and its negation: one class of twice the mass
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        keep = lead >= 0
        rows, masses = rows[keep], masses[keep] * np.where(lead[keep] > 0, 2, 1)
    weight_by_key: dict[tuple, int] = {}
    prefixes = itertools.combinations_with_replacement(range(m), n - 1)
    while chunk := list(itertools.islice(prefixes, 4096)):
        picks = np.array(chunk, dtype=np.int64)
        # multinomial (n-1)! / prod(multiplicity!) from the runs of each sorted pick
        run = np.ones(len(picks), dtype=np.int64)
        repeats = np.ones(len(picks), dtype=np.int64)
        for i in range(1, n - 1):
            run = np.where(picks[:, i] == picks[:, i - 1], run + 1, 1)
            repeats *= run
        weights = (math.factorial(n - 1) // repeats).astype(object)
        for i in range(n - 1):
            weights = weights * masses[picks[:, i]]
        c = _cofactors(rows[picks])
        keys = np.sort(np.abs(c) if symmetric else c, axis=1)
        for key, w in zip(map(tuple, keys.tolist()), weights):
            weight_by_key[key] = weight_by_key.get(key, 0) + w
    query = ConcentrationQuery(dists=(dist,) * n)
    total = sum((w * exact_point_mass(query, key) for key, w in weight_by_key.items()), Fraction(0))
    return total / den ** (n * (n - 1))


# ---------------------------------------------------------------------------
# elimination error against the exact reference


def _ge_solve(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray | None:
    """Gaussian elimination with partial pivoting carried out in `dtype`
    (float32 simulates single precision end to end)."""
    a = a.astype(dtype).copy()
    b = b.astype(dtype).copy()
    n = len(b)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0:
            return None
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        factors = (a[k + 1 :, k] / a[k, k]).astype(dtype)
        a[k + 1 :, k:] -= factors[:, None] * a[k, k:]
        b[k + 1 :] -= factors * b[k]
    x = np.zeros(n, dtype=dtype)
    for i in range(n - 1, -1, -1):
        acc = dtype(b[i] - np.dot(a[i, i + 1 :], x[i + 1 :]))
        if a[i, i] == 0:
            return None
        x[i] = acc / a[i, i]
    return x


@dataclass(frozen=True, slots=True)
class GeTrial:
    trial: int
    seed: int
    kappa: float
    rel_error: float
    ratio: float
    singular: bool


@dataclass(frozen=True, slots=True)
class GeResult:
    config: ExperimentConfig
    records: list[ExperimentRecord]
    trials: list[GeTrial]
    eps_machine: float

    def summary(self) -> dict:
        ok = [t for t in self.trials if not t.singular]
        ratios = sorted(t.ratio for t in ok if math.isfinite(t.ratio))
        well = [t for t in ok if t.kappa <= 1e3]
        frac_small = (
            sum(1 for t in well if t.ratio <= 100.0) / len(well) if well else None
        )
        return {
            "experiment": "ge-check",
            "precision": self.config.precision,
            "eps_machine": self.eps_machine,
            "trials": len(self.trials),
            "singular_draws": sum(1 for t in self.trials if t.singular),
            "ratio_median": ratios[len(ratios) // 2] if ratios else None,
            "ratio_p90": ratios[int(0.9 * (len(ratios) - 1))] if ratios else None,
            "ratio_max": ratios[-1] if ratios else None,
            "well_conditioned_count": len(well),
            "fraction_ratio_le_100_well_conditioned": frac_small,
        }


def ge_error_experiment(cfg: ExperimentConfig) -> GeResult:
    """Relative solve error of floating GE against the exact rational answer.

    Systems are integer (base + discrete noise, masked entries frozen,
    integer right-hand side), so the reference path is exact elimination;
    the reported ratio is rel_error / (eps_machine * kappa).  Singular
    draws (the spectrum's exact verdict) are recorded, skip the solves and
    are excluded from the error statistics.
    """
    law = _law(cfg.noise)
    if law is None:
        raise ValidationError("ge-check needs discrete noise: the exact reference path is integer")
    dtype = np.float32 if cfg.precision == "single" else np.float64
    eps = 2.0**-24 if cfg.precision == "single" else 2.0**-53
    records: list[ExperimentRecord] = []
    trials: list[GeTrial] = []
    for n, base, mask in _sizes(cfg):

        def one(
            trial: int, seed: int, system: IntegerMatrix, spectrum: SingularSpectrum
        ) -> tuple[ExperimentRecord, GeTrial]:
            rel = ratio = math.inf
            if not spectrum.singular:
                rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "ge-rhs", n, trial)))
                b = rng.integers(-9, 10, size=n)
                exact = rational.solve_exact(system.rows(), [int(x) for x in b])
                approx = _ge_solve(system.entries.astype(np.float64), b.astype(np.float64), dtype)
                x_true = np.array([float(x) for x in exact])
                denom = float(np.linalg.norm(x_true))
                if approx is not None and denom != 0.0:
                    rel = float(np.linalg.norm(approx.astype(np.float64) - x_true)) / denom
                if math.isfinite(spectrum.kappa):
                    ratio = rel / (eps * spectrum.kappa)
            return _record(trial, seed, spectrum, not spectrum.singular and ratio > 100.0), GeTrial(
                trial, seed, spectrum.kappa, rel, ratio, spectrum.singular
            )

        rows = _svd_trials(cfg, n, base, law, mask, one)
        records.extend(r for r, _ in rows)
        trials.extend(t for _, t in rows)
    return GeResult(config=cfg, records=records, trials=trials, eps_machine=eps)


# ---------------------------------------------------------------------------
# leading principal minors


@dataclass(frozen=True, slots=True)
class MinorsResult:
    config: ExperimentConfig
    records: list[ExperimentRecord]
    per_k: dict[int, dict[int, float]]  # n -> k -> max kappa over trials
    fraction_all_below: dict[int, float]

    def summary(self) -> dict:
        return {
            "experiment": "minors",
            "trials": self.config.trials,
            "b": self.config.b_grid[0],
            "per_minor_max_kappa": {
                str(n): {str(k): v for k, v in ks.items()} for n, ks in self.per_k.items()
            },
            "fraction_all_minors_below_threshold": {
                str(n): f for n, f in self.fraction_all_below.items()
            },
        }


def minors_experiment(cfg: ExperimentConfig) -> MinorsResult:
    """Condition numbers of every leading principal minor of the perturbed
    matrix; B = first entry of b_grid sets the n^B quality threshold."""
    if max(cfg.sizes) > 300:
        raise ValidationError("minors experiment caps n at 300")
    law = _law(cfg.noise)
    b = cfg.b_grid[0]
    records: list[ExperimentRecord] = []
    per_k: dict[int, dict[int, float]] = {}
    frac_ok: dict[int, float] = {}
    for n, base, mask in _sizes(cfg):
        threshold = float(n) ** float(b)

        def one(trial: int, seed: int, _, spectrum: SingularSpectrum, *blocks) -> tuple:
            kappas = [s.kappa for s in (*blocks, spectrum)]
            return _record(trial, seed, spectrum, max(kappas) > threshold), kappas

        rows = _svd_trials(cfg, n, base, law, mask, one, blocks=range(1, n))
        records.extend(r for r, _ in rows)
        per_k[n] = {k: max(kappas[k - 1] for _, kappas in rows) for k in range(1, n + 1)}
        frac_ok[n] = sum(max(kappas) <= threshold for _, kappas in rows) / cfg.trials
    return MinorsResult(config=cfg, records=records, per_k=per_k, fraction_all_below=frac_ok)


# ---------------------------------------------------------------------------
# frozen entries


@dataclass(frozen=True, slots=True)
class FrozenResult:
    config: ExperimentConfig
    records: list[ExperimentRecord]  # masked run
    masked_tables: dict[int, list[ExceedanceRow]]
    unmasked_tables: dict[int, list[ExceedanceRow]]

    def summary(self) -> dict:
        return {
            "experiment": "frozen",
            "mask": self.config.mask,
            "trials": self.config.trials,
            "masked_tables": _tables_json(self.masked_tables, threshold=False),
            "unmasked_tables": _tables_json(self.unmasked_tables, threshold=False),
        }


def frozen_entries_experiment(cfg: ExperimentConfig) -> FrozenResult:
    """Condition tail with a frozen-entry mask, against the unmasked run
    at matched per-trial seeds: both runs are cond-tail under kind frozen."""
    if next(_sizes(cfg))[2] is None:  # a bad matrix or mask spec fails here first, as in a run
        raise ValidationError("frozen experiment needs a mask spec")
    masked = condition_tail(replace(cfg, compare_gaussian=False))
    unmasked = condition_tail(replace(cfg, compare_gaussian=False, mask="none"))
    return FrozenResult(
        config=cfg, records=masked.records,
        masked_tables=masked.tables, unmasked_tables=unmasked.tables,
    )
