"""The benchmark's workloads, their seeded inputs and their output oracles.

A workload runs as a stream of small batches.  Batch ``i`` of a run with
seed ``s`` gets its own inputs, derived from ``(workload, s, i)`` alone, so
a seed always yields the same input stream however many batches fit in the
time.  Batches are small so that a run holds many of them: the host's
speed swings by up to 2x within seconds as neighbours load it, and a low
quantile of many short, calibrated batch times (see ``run.ops_per_s``) is
steady where a mean is not.

Every call into perturblab goes through a module attribute
(``perturblab.experiments.condition_tail``, not a name imported here), so
that the tracer's wrappers see it.

The oracles are independent of the routes they check: singular values are
recomputed with ``numpy.linalg.svd`` on matrices rebuilt from
``derive_seed`` and the public samplers, singularity in the elimination
check is decided by the exact Bareiss determinant, witness labels by the
classification rule restated here, and progression covers by enumerating
the progression.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median

import numpy as np

import perturblab
from perturblab import concentration, experiments, gaps, linalg, noise, rational, util, witness

SIGMA_RTOL = 1e-10  # |sigma - sigma_lapack| <= SIGMA_RTOL * sigma_max
KAPPA_RTOL = 1e-12


@dataclass
class Batch:
    index: int
    kind: str
    ops: int
    seconds: float
    output: object = None  # None when the batch raised


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def batch_seed(workload: str, seed: int, index: int) -> int:
    return random.Random(f"{workload}/{seed}/{index}").getrandbits(62)


def run_batch(workload, index: int, span=None) -> Batch:
    """One timed batch.  A batch that raises is kept with no output, so the
    oracle counts all its operations as failed."""
    kind, ops = workload.unit(index)
    t0 = time.perf_counter()
    try:
        output = workload.batch(index, span or (lambda name: nullcontext()))
    except Exception:  # the run keeps going; the failure is counted and shown
        traceback.print_exc(file=sys.stderr)
        output = None
    return Batch(index, kind, ops, time.perf_counter() - t0, output)


# ---------------------------------------------------------------------------
# Monte Carlo workloads


@dataclass
class MonteCarlo:
    """One experiment function called on a fresh master seed per batch."""

    name: str
    experiment: str  # attribute of perturblab.experiments
    label: str  # derive_seed label of the experiment's per-trial seeds
    config: dict
    trials: int  # trials per batch
    trace_batches: int
    seed: int = 0

    @property
    def threads(self) -> int:
        return self.config["threads"]

    # batch kinds and counts that make up one unit of the workload mix
    round = (("trials", 1),)

    def unit(self, index: int) -> tuple[str, int]:
        return "trials", self.trials

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.law = None if self.config["noise"] == "gaussian" else noise.distribution_from_spec(
            self.config["noise"])
        self.first_config = self.make_config(0)

    def make_config(self, index: int) -> perturblab.ExperimentConfig:
        return perturblab.ExperimentConfig(
            trials=self.trials, seed=batch_seed(self.name, self.seed, index), **self.config)

    def batch(self, index: int, span) -> object:
        cfg = self.first_config if index == 0 else self.make_config(index)
        return getattr(experiments, self.experiment)(cfg)

    # -- oracle ----------------------------------------------------------------

    def check(self, batches: list[Batch], check: Check) -> None:
        for b in batches:
            if b.output is None:
                for _ in range(b.ops):
                    check.record(False, f"batch {b.index} raised")
                continue
            cfg = b.output.config
            records = sorted(b.output.records, key=lambda r: r.trial)
            if [r.trial for r in records] != list(range(cfg.trials)):
                for _ in range(cfg.trials):
                    check.record(False, f"batch {b.index}: records do not cover the trials")
                continue
            n = cfg.sizes[0]
            base = linalg.matrix_from_spec(cfg.matrix, n, cfg.c_exponent).entries
            ge_trials = getattr(b.output, "trials", None)
            for rec in records:
                ok, why = self.check_record(rec, cfg, base, ge_trials[rec.trial] if ge_trials else None)
                check.record(ok, f"batch {b.index} trial {rec.trial}: {why}")

    def rebuild(self, n: int, seed: int, base: np.ndarray) -> np.ndarray:
        if self.law is None:
            return base.astype(float) + experiments.gaussian_matrix(n, seed)
        return (base + noise.sample_iid_matrix(self.law, n, seed)).astype(float)

    def check_record(self, rec, cfg, base, ge_trial) -> tuple[bool, str]:
        n = cfg.sizes[0]
        seed = util.derive_seed(cfg.seed, self.label, n, rec.trial)
        if rec.seed != seed or rec.n != n:
            return False, "seed or size does not match derive_seed"
        a = self.rebuild(n, seed, base)
        sigma = np.linalg.svd(a, compute_uv=False)
        tol = SIGMA_RTOL * sigma[0]
        if abs(rec.sigma_max - sigma[0]) > tol or abs(rec.sigma_min - sigma[-1]) > tol:
            return False, f"sigma ({rec.sigma_max}, {rec.sigma_min}) vs LAPACK ({sigma[0]}, {sigma[-1]})"
        if ge_trial is None:
            singular = rec.sigma_max == 0.0 or rec.sigma_min < 1e-300 * max(rec.sigma_max, 1e-300)
        else:
            singular = rational.determinant(a.astype(np.int64).tolist()) == 0
        if rec.singular != singular:
            return False, f"singular flag {rec.singular}, expected {singular}"
        kappa = math.inf if singular or rec.sigma_min <= 0 else rec.sigma_max / rec.sigma_min
        if not (kappa == rec.kappa or abs(rec.kappa - kappa) <= KAPPA_RTOL * kappa):
            return False, f"kappa {rec.kappa}, expected {kappa}"
        if self.experiment == "condition_tail":
            hit = rec.kappa >= float(n) ** float(cfg.b_grid[0])
        elif self.experiment == "tail_curve":
            inv = math.inf if rec.sigma_min == 0.0 else 1.0 / rec.sigma_min
            hit = inv >= 10.0 * math.sqrt(n)
        else:
            if (ge_trial.trial, ge_trial.seed, ge_trial.singular, ge_trial.kappa) != (
                    rec.trial, rec.seed, rec.singular, rec.kappa):
                return False, "ge trial and record disagree"
            hit = not singular and ge_trial.ratio > 100.0
        if rec.tail_hit != hit:
            return False, f"tail_hit {rec.tail_hit}, expected {hit}"
        return True, ""

    # -- context numbers, not pass/fail ------------------------------------------

    def science(self, batches: list[Batch]) -> dict:
        outs = [b.output for b in batches if b.output is not None]
        if not outs:
            return {}
        n = outs[0].config.sizes[0]
        if self.experiment == "condition_tail":
            rows = [o.tables[n][-1] for o in outs]
            return {"b": rows[0].b, "exceedance_fraction": sum(r.count for r in rows) / sum(
                o.config.trials for o in outs)}
        if self.experiment == "tail_curve":
            slopes = [o.curves[n].slope for o in outs if o.curves[n].slope is not None]
            return {"tail_slope_median": median(slopes) if slopes else None}
        ratios = [t.ratio for o in outs for t in o.trials if not t.singular and math.isfinite(t.ratio)]
        return {"ratio_median": median(ratios) if ratios else None,
                "singular_draws": sum(t.singular for o in outs for t in o.trials)}


# ---------------------------------------------------------------------------
# exact half


@dataclass(frozen=True)
class Query:
    law: int
    v: tuple[int, ...]
    a_exponent: float
    b_exponent: float


@dataclass
class QueryOut:
    query: Query
    dominance: object
    witness: object
    search: object


@dataclass
class ExactSmallBall:
    """Weight-vector queries over the built-in laws, in groups of one query
    per law, and after every ``groups`` groups one exhaustive singularity
    enumeration, alternating the fill order."""

    name: str
    groups: int  # query groups per enumeration
    max_n: int
    enumeration_n: int
    enumeration_value: Fraction
    trace_batches: int
    threads: int = 1
    seed: int = 0

    @property
    def round(self) -> tuple[tuple[str, int], ...]:
        return (("queries", self.groups), ("enumeration", 1))

    def unit(self, index: int) -> tuple[str, int]:
        if index % (self.groups + 1) == self.groups:
            return "enumeration", 0
        return "queries", len(self.laws)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.laws = (
            noise.bernoulli(),
            noise.lazy_coin(Fraction(1, 10)),
            noise.lazy_coin(Fraction(1, 2)),
            noise.lazy_coin(1),
            noise.discretized_gaussian(),
        )
        self.first_queries = self.make_queries(0)

    def make_queries(self, index: int) -> list[Query]:
        """One query per law.  Weight vectors carry rank-1 structure (multiples
        of one step) or, for one query in the group, rank-2 structure (small
        combinations of two steps), so the inverse search finds covers of
        both ranks and every group costs about the same."""
        rng = random.Random(batch_seed(self.name, self.seed, index))
        rank2 = rng.randrange(len(self.laws))
        out = []
        for law in range(len(self.laws)):
            n = rng.randint(2, self.max_n)
            if law != rank2:
                step = rng.randint(1, 3)
                ks = [rng.randint(-3, 3) for _ in range(n)]
                ks[rng.randrange(n)] = rng.choice((-1, 1))
                v = [step * k for k in ks]
            else:
                g1, g2 = rng.choice(((3, 5), (4, 7), (5, 8)))
                v = [g1 * rng.randint(-1, 1) + g2 * rng.randint(-1, 1) for _ in range(n)]
                a, b = rng.sample(range(n), 2)
                v[a], v[b] = g1, g2
            out.append(Query(law=law, v=tuple(v), a_exponent=rng.choice((0.5, 1.0, 2.0)),
                             b_exponent=2.0))
        return out

    def batch(self, index: int, span):
        if self.unit(index)[0] == "enumeration":
            order = ("rows", "cols")[index // (self.groups + 1) % 2]
            with span("bench.enumeration"):
                value = experiments.singularity_probability(self.enumeration_n, self.laws[0], order)
            return order, value
        queries = self.first_queries if index == 0 else self.make_queries(index)
        outs = []
        for q in queries:
            with span("bench.query"):
                dist = self.laws[q.law]
                n = len(q.v)
                cert = noise.certificate_from_symmetric(dist)
                cq = concentration.ConcentrationQuery(dists=(dist,) * n)
                dominance = concentration.check_dominance(cq, q.v, [cert] * n)
                w = witness.WitnessVector(values=q.v, norm=math.sqrt(sum(x * x for x in q.v)),
                                          b_exponent=q.b_exponent)
                labeled = witness.classify_witness(w, cq, q.a_exponent)
                search = gaps.inverse_lo_search(q.v, cert.mu, a_exponent=4.0)
                outs.append(QueryOut(q, dominance, labeled, search))
        return outs

    # -- oracle ----------------------------------------------------------------

    def check(self, batches: list[Batch], check: Check) -> None:
        for b in batches:
            if b.output is None:
                for _ in range(max(b.ops, 1)):
                    check.record(False, f"batch {b.index} raised")
            elif b.kind == "enumeration":
                order, value = b.output
                # rows and cols are both pinned to the same exact value, so they agree
                check.record(value == self.enumeration_value,
                             f"batch {b.index}: {order} enumeration gave {value}")
            else:
                for out in b.output:
                    ok, why = self.check_query(out)
                    check.record(ok, f"batch {b.index} v={out.query.v}: {why}")

    @staticmethod
    def check_query(out: QueryOut) -> tuple[bool, str]:
        q, rep = out.query, out.dominance
        n = len(q.v)
        if not float(rep.exact) <= rep.bound + 1e-12:
            return False, f"exact {float(rep.exact)} above bound {rep.bound}"
        # classification rule restated: rich at sup >= n^-(A+4); among rich,
        # fewer than ceil(n^0.2) coordinates of size >= ceil(n^(B/2)) is singular
        if float(rep.exact) < float(n) ** (-(q.a_exponent + 4.0)):
            want = witness.WitnessClass.POOR
        else:
            large = sum(1 for x in q.v if abs(x) >= math.ceil(float(n) ** (q.b_exponent / 2.0)))
            want = (witness.WitnessClass.RICH_SINGULAR if large < math.ceil(float(n) ** 0.2)
                    else witness.WitnessClass.RICH_NONSINGULAR)
        if out.witness.label != want:
            return False, f"witness label {out.witness.label}, expected {want}"
        found = out.search.found
        if found is not None:
            gap = found.gap
            if gap.rank > 2 or gap.volume > 2001:
                return False, f"cover rank {gap.rank} volume {gap.volume} over the caps"
            members = {sum((c * g for c, g in zip(coeffs, gap.generators)), Fraction(0))
                       for coeffs in itertools.product(*(range(-d, d + 1) for d in gap.dims))}
            missing = [j for j, x in enumerate(q.v) if j not in found.excluded and Fraction(x) not in members]
            if missing:
                return False, f"cover misses weights at {missing}"
        return True, ""

    def science(self, batches: list[Batch]) -> dict:
        outs = [o for b in batches if b.output is not None and b.kind == "queries" for o in b.output]
        if not outs:
            return {}
        ranks = [o.search.found.gap.rank for o in outs if o.search.found is not None]
        return {
            "queries": len(outs),
            "rich_fraction": sum(o.witness.label != witness.WitnessClass.POOR for o in outs) / len(outs),
            "covers_rank1": ranks.count(1),
            "covers_rank2": ranks.count(2),
            "counterexample_candidates": sum(o.search.counterexample_candidate for o in outs),
            "min_dominance_gap": min(o.dominance.gap for o in outs),
        }


# ---------------------------------------------------------------------------
# the four workloads; ``tiny`` shrinks each one for the self-test


def make(name: str, tiny: bool = False):
    if name == "cond-tail-n100":
        return MonteCarlo(
            name, "condition_tail", "cond-tail",
            dict(kind="cond-tail", sizes=(8 if tiny else 100,), noise="bernoulli",
                 matrix="graded_diagonal", c_exponent=1.0, b_grid=(5.0,), threads=1),
            trials=1, trace_batches=3 if tiny else 40)
    if name == "tail-gaussian-n50":
        # tail_curve refuses fewer than 100 trials, so this batch cannot shrink
        return MonteCarlo(
            name, "tail_curve", "tail",
            dict(kind="tail", sizes=(6 if tiny else 50,), noise="gaussian", matrix="zero", threads=2),
            trials=100, trace_batches=1)
    if name == "ge-check-n20":
        return MonteCarlo(
            name, "ge_error_experiment", "ge-check",
            dict(kind="ge-check", sizes=(5 if tiny else 20,), noise="bernoulli", precision="single",
                 threads=1),
            trials=2, trace_batches=2 if tiny else 120)
    if name == "exact-small-ball":
        # ten groups of five queries per enumeration keep certificate work
        # ahead of the enumeration's determinants, as in the criterion-1 suite
        return ExactSmallBall(
            name, groups=1 if tiny else 10, max_n=8, enumeration_n=3 if tiny else 4,
            enumeration_value=Fraction(5, 8) if tiny else Fraction(169, 256),
            trace_batches=4 if tiny else 22)
    raise KeyError(name)


NAMES = ("cond-tail-n100", "tail-gaussian-n50", "ge-check-n20", "exact-small-ball")
