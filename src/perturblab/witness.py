"""Integer witnesses, sphere nets, and the small-image event.

A near-null unit direction v is converted to an integer witness by
rounding n^(B+2) v to the nearest lattice point; the witness inherits a
norm window [0.9, 1.1] n^(B+2) and is then classified by the exact
concentration of its row walks (rich/poor) and by how many of its
coordinates are large (singular/nonsingular profile).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .concentration import ConcentrationQuery, RichnessReport, classify_rich
from .errors import ValidationError
from .noise import mu_float
from .util import wilson_interval

# beyond 2^53 the float scale n^(B+2) no longer represents integers
# exactly and rounding would be meaningless
_SCALE_LIMIT = 2.0**53


class WitnessClass(enum.Enum):
    POOR = "poor"
    RICH_SINGULAR = "rich_singular"
    RICH_NONSINGULAR = "rich_nonsingular"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True, slots=True)
class WitnessVector:
    values: tuple[int, ...]
    norm: float
    b_exponent: float
    label: WitnessClass = WitnessClass.UNCLASSIFIED

    def __post_init__(self):
        vals = tuple(int(x) for x in self.values)
        if not vals:
            raise ValidationError("empty witness")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


def round_witness(v: Sequence[float], n: int, b_exponent: float) -> WitnessVector:
    """Round n^(B+2) v to integers; v must be a unit vector (within 1%).

    The rounding perturbs each coordinate by at most 1/2, so the witness
    norm stays inside [0.9, 1.1] n^(B+2) and the witness image under any
    matrix M gains at most ||M|| sqrt(n)/2 over n^(B+2) ||M v||.
    """
    v_arr = np.asarray(v, dtype=float)
    if v_arr.ndim != 1 or len(v_arr) != n:
        raise ValidationError(f"direction has length {v_arr.shape}, expected {n}")
    norm_v = float(np.linalg.norm(v_arr))
    if not (0.99 <= norm_v <= 1.01):
        raise ValidationError(f"direction norm {norm_v} outside [0.99, 1.01]")
    scale = float(n) ** (float(b_exponent) + 2.0)
    if not math.isfinite(scale) or scale > _SCALE_LIMIT:
        raise ValidationError(
            f"scale n^(B+2) = {scale:.3g} overflows exact integer rounding"
        )
    w = np.rint(scale * v_arr).astype(np.int64)
    norm_w = float(np.linalg.norm(w.astype(float)))
    if not (0.9 * scale <= norm_w <= 1.1 * scale):
        raise ValidationError(
            f"witness norm {norm_w:.4g} outside [0.9, 1.1] * {scale:.4g}"
        )
    return WitnessVector(values=tuple(int(x) for x in w), norm=norm_w,
                         b_exponent=float(b_exponent))


def classify_witness(
    w: WitnessVector,
    row_queries: ConcentrationQuery | Sequence[ConcentrationQuery],
    a_exponent: float,
    rich_offset: float = 4.0,
    singular_count_exponent: float = 0.2,
    large_coord_exponent: float | None = None,
) -> WitnessVector:
    """Attach a class label: poor, rich_singular, or rich_nonsingular.

    Poor means no row walk concentrates at rate n^-(A + offset).  Among
    rich witnesses, one with fewer than ceil(n^0.2) coordinates of
    magnitude at least ceil(n^(B/2)) has its mass on a thin coordinate
    set (the singular profile).  Both thresholds compare integers against
    ceilings of the float exponentials.
    """
    report = classify_rich(row_queries, w.values, a_exponent, offset=rich_offset)
    return label_witness(w, report, singular_count_exponent, large_coord_exponent)


def label_witness(
    w: WitnessVector,
    report: RichnessReport,
    singular_count_exponent: float = 0.2,
    large_coord_exponent: float | None = None,
) -> WitnessVector:
    """The classify_witness label from an already computed richness report."""
    n = w.n
    if report.label == "poor":
        return replace(w, label=WitnessClass.POOR)
    large_exp = (w.b_exponent / 2.0) if large_coord_exponent is None else float(large_coord_exponent)
    large_cut = math.ceil(float(n) ** large_exp)
    count_cut = math.ceil(float(n) ** float(singular_count_exponent))
    large = sum(1 for x in w.values if abs(x) >= large_cut)
    label = WitnessClass.RICH_SINGULAR if large < count_cut else WitnessClass.RICH_NONSINGULAR
    return replace(w, label=label)


# ---------------------------------------------------------------------------
# greedy nets on the unit sphere


@dataclass(frozen=True, slots=True)
class EpsilonNet:
    """Maximal-by-construction separated point set on S^(l-1).

    Separation > epsilon holds for every pair (checked at construction).
    rejection_streak is the number of consecutive random proposals
    rejected before the builder stopped; uncovered_mass_bound is the
    largest uncovered-cap mass consistent with that streak at 99%
    confidence (a heuristic certificate, since exact coverage
    verification is exponential in l).
    """

    dimension: int
    epsilon: float
    points: np.ndarray
    rejection_streak: int
    uncovered_mass_bound: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension or pts.shape[0] == 0:
            raise ValidationError(f"bad net shape {pts.shape}")
        norms = np.linalg.norm(pts, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValidationError("net points must be unit vectors")
        if len(pts) > 1:
            gram = pts @ pts.T
            d2 = 2.0 - 2.0 * gram
            np.fill_diagonal(d2, np.inf)
            if float(np.min(d2)) <= self.epsilon**2:
                raise ValidationError("net points closer than epsilon")
        # packing bound: balls of radius eps/2 around net points are
        # disjoint inside the ball of radius 1 + eps/2
        assert len(pts) <= (1.0 + 2.0 / self.epsilon) ** self.dimension
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def min_distance_to(self, x: np.ndarray) -> float:
        diffs = self.points - np.asarray(x, dtype=float)
        return float(np.sqrt(np.min(np.sum(diffs * diffs, axis=1))))


def _deterministic_mesh(l: int) -> np.ndarray | None:
    """Dense deterministic unit-vector meshes for low dimensions."""
    if l == 1:
        return np.array([[1.0], [-1.0]])
    if l == 2:
        ang = 2.0 * math.pi * np.arange(100_000) / 100_000
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if l == 3:
        m = 200_000
        i = np.arange(m, dtype=float) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / m
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return None


def greedy_net(
    l: int,
    epsilon: float,
    seed: int,
    patience: int = 500_000,
    batch: int = 4096,
) -> EpsilonNet:
    """Randomized greedy maximal packing on S^(l-1).

    Seeded Gaussian directions are proposed in batches; a proposal
    farther than epsilon from every accepted point joins the net.  The
    builder stops after `patience` consecutive rejections.  For l <= 3 a
    deterministic mesh completion pass then inserts any mesh point still
    uncovered, which removes every uncovered region wider than the mesh
    spacing; higher dimensions rely on the rejection-streak certificate
    alone.
    """
    if l < 1:
        raise ValidationError(f"dimension {l} < 1")
    if not (0.0 < epsilon <= 2.0):
        raise ValidationError("epsilon must lie in (0, 2]: the sphere has diameter 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    pts: list[np.ndarray] = []
    streak = 0
    eps2 = float(epsilon) ** 2
    while streak < patience:
        raw = rng.standard_normal((batch, l))
        norms = np.linalg.norm(raw, axis=1)
        ok = norms > 1e-12
        raw = raw[ok] / norms[ok, None]
        if len(pts) == 0 and len(raw):
            pts.append(raw[0])
            raw = raw[1:]
        if not len(raw):
            continue
        base = np.stack(pts)
        min_d2 = (2.0 - 2.0 * (raw @ base.T)).min(axis=1)
        fresh_start = len(pts)
        for row, md2 in zip(raw, min_d2):
            # proposals accepted earlier in this batch also repel
            if md2 > eps2 and len(pts) > fresh_start:
                diffs = np.stack(pts[fresh_start:]) - row
                md2 = min(md2, float(np.min(np.sum(diffs * diffs, axis=1))))
            if md2 > eps2:
                pts.append(row)
                streak = 0
            else:
                streak += 1
                if streak >= patience:
                    break
    mesh = _deterministic_mesh(l)
    if mesh is not None:
        net = np.stack(pts)
        d2 = 2.0 - 2.0 * (mesh @ net.T)
        min_d2 = d2.min(axis=1)
        order = np.nonzero(min_d2 > eps2)[0]
        for idx in order:
            row = mesh[idx]
            diffs = np.stack(pts) - row
            if float(np.min(np.sum(diffs * diffs, axis=1))) > eps2:
                pts.append(row)
    # rejection streak k leaves uncovered mass p with (1-p)^k >= 0.01
    # only when p <= 1 - 0.01^(1/k)
    bound = 1.0 - 0.01 ** (1.0 / max(streak, 1))
    return EpsilonNet(
        dimension=l,
        epsilon=float(epsilon),
        points=np.stack(pts),
        rejection_streak=streak,
        uncovered_mass_bound=bound,
    )


def embed_zero_padded(net: EpsilonNet, n: int) -> np.ndarray:
    """Embed net points into R^n on the first l coordinates (zeros elsewhere)."""
    if n < net.dimension:
        raise ValidationError(f"target dimension {n} below net dimension {net.dimension}")
    out = np.zeros((len(net), n))
    out[:, : net.dimension] = net.points
    return out


# ---------------------------------------------------------------------------
# the small-image event


@dataclass(frozen=True, slots=True)
class SmallImageReport:
    estimate: float
    ci_low: float
    ci_high: float
    product_bound: float
    threshold: float
    trials: int


def small_image_event(
    sample_matrix: Callable[[int], np.ndarray],
    y: Sequence[float],
    trials: int,
    mu,
) -> SmallImageReport:
    """Estimate P(||M y|| <= n^-2) over seeded matrix draws.

    Also reports the per-row product bound (1 - mu/2)^n: each row has
    escape probability at least mu/2 under non-degeneracy, and the rows
    are independent.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    y_arr = np.asarray(y, dtype=float)
    n = len(y_arr)
    mu_f = mu_float(mu)
    cut = float(n) ** (-2.0)
    hits = 0
    for t in range(trials):
        m = sample_matrix(t)
        arr = getattr(m, "entries", m)
        image = np.asarray(arr, dtype=float) @ y_arr
        if float(np.linalg.norm(image)) <= cut:
            hits += 1
    lo, hi = wilson_interval(hits, trials)
    bound = (1.0 - mu_f / 2.0) ** n
    return SmallImageReport(
        estimate=hits / trials, ci_low=lo, ci_high=hi,
        product_bound=bound, threshold=cut, trials=trials,
    )
