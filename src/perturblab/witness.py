"""Integer witnesses and their labels, and separated nets on the sphere.

An integer witness is classified by the exact concentration of its row
walk (rich/poor) and by how many of its coordinates are large
(singular/nonsingular profile).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .concentration import ConcentrationQuery, RichnessReport, classify_rich
from .errors import ValidationError
from .rational import whole_numbers
from .util import finite, power

# a rich witness has the singular profile when fewer than
# ceil(n^SINGULAR_COUNT_EXPONENT) coordinates reach ceil(n^(B/2))
SINGULAR_COUNT_EXPONENT = 0.2
# greedy_net draws NET_BATCH proposals at a time, stops at NET_PATIENCE rejections in a row
NET_PATIENCE = 500_000
NET_BATCH = 4096


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
        vals = tuple(whole_numbers(list(self.values)))
        if not vals:
            raise ValidationError("empty witness")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "b_exponent", finite("b_exponent", self.b_exponent))

    @property
    def n(self) -> int:
        return len(self.values)


def classify_witness(w: WitnessVector, query: ConcentrationQuery, a_exponent: float) -> WitnessVector:
    """Attach a class label: poor, rich_singular, or rich_nonsingular.

    Poor means the walk does not concentrate at rate n^-(A + 4) (see
    concentration.classify_rich).  Among rich witnesses, one with fewer
    than ceil(n^0.2) coordinates of magnitude at least ceil(n^(B/2)) has
    its mass on a thin coordinate set (the singular profile).  Both
    thresholds compare integers against ceilings of the float exponentials.
    """
    return label_witness(w, classify_rich(query, w.values, a_exponent))


def label_witness(w: WitnessVector, report: RichnessReport) -> WitnessVector:
    """The classify_witness label from an already computed richness report."""
    if report.label == "poor":
        return replace(w, label=WitnessClass.POOR)
    large_cut = math.ceil(power("b_exponent / 2", w.n, w.b_exponent / 2.0))
    count_cut = math.ceil(float(w.n) ** SINGULAR_COUNT_EXPONENT)
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


def greedy_net(l: int, epsilon: float, seed: int) -> EpsilonNet:
    """Randomized greedy maximal packing on S^(l-1).

    Seeded Gaussian directions are proposed in batches; a proposal
    farther than epsilon from every accepted point joins the net.  The
    builder stops after NET_PATIENCE consecutive rejections.  For l <= 3 a
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
    while streak < NET_PATIENCE:
        raw = rng.standard_normal((NET_BATCH, l))
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
                if streak >= NET_PATIENCE:
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
