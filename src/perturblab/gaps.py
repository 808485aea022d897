"""Symmetric generalized arithmetic progressions and their discretization.

A progression here is the set {sum_i x_i g_i : |x_i| <= N_i} with rational
generators g_i and integer box radii N_i.  Its volume is the coefficient
box count prod(2 N_i + 1); collisions between coefficient tuples are
allowed, so volume can exceed the number of distinct values.  Everything
in this module is exact rational arithmetic; no floats touch set
membership or the four discretization clauses.

Note the distinction between the dilate k*A = {k a : a in A} (generators
scaled by k) and the iterated sumset kA (k-fold sums).  The sparseness
clause below is checked on the dilate S*P_sparse.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .concentration import cosine_average
from .errors import ConstructionError, ResourceError, ValidationError
from .noise import _as_fraction

logger = logging.getLogger("perturblab.gaps")

ENUMERATION_CAP = 10_000_000
SEARCH_WORK_BUDGET = 20_000_000


@dataclass(frozen=True)
class Gap:
    """Symmetric progression: generators and box radii, dimensionwise."""

    generators: tuple[Fraction, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(_as_fraction(g) for g in self.generators)
        dims = tuple(int(d) for d in self.dims)
        if len(gens) != len(dims) or not gens:
            raise ValidationError("generators and dims must align and be nonempty")
        if any(d < 0 for d in dims):
            raise ValidationError("box radii must be nonnegative")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "dims", dims)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def volume(self) -> int:
        v = 1
        for d in self.dims:
            v *= 2 * d + 1
        return v

    def elements(self, cap: int = ENUMERATION_CAP) -> list[Fraction]:
        """Sorted distinct values; refuses when the coefficient box exceeds cap."""
        if self.volume > cap:
            raise ResourceError(f"volume {self.volume} exceeds enumeration cap {cap}")
        if self.rank == 1:
            g = self.generators[0]
            n = self.dims[0]
            vals = {g * k for k in range(-n, n + 1)}
        else:
            vals = set()
            ranges = [range(-d, d + 1) for d in self.dims]
            for coeffs in itertools.product(*ranges):
                vals.add(sum(c * g for c, g in zip(coeffs, self.generators)))
        return sorted(vals)

    def dilate(self, k) -> "Gap":
        k = _as_fraction(k)
        return Gap(tuple(g * k for g in self.generators), self.dims)

    def contains(self, x, cap: int = ENUMERATION_CAP) -> bool:
        """Exact membership.  Rank 1 and 2 solve for coefficients directly;
        higher ranks fall back to enumeration under the cap."""
        x = _as_fraction(x)
        if self.rank == 1:
            g = self.generators[0]
            n = self.dims[0]
            if g == 0:
                return x == 0
            q = x / g
            return q.denominator == 1 and abs(q) <= n
        if self.rank == 2:
            g1, g2 = self.generators
            n1, n2 = self.dims
            if g1 == 0 and g2 == 0:
                return x == 0
            if g1 == 0:
                return Gap((g2,), (n2,)).contains(x)
            if g2 == 0:
                return Gap((g1,), (n1,)).contains(x)
            # loop the smaller box, solve the other coordinate
            if n2 < n1:
                g1, g2, n1, n2 = g2, g1, n2, n1
            for x1 in range(-n1, n1 + 1):
                q = (x - x1 * g1) / g2
                if q.denominator == 1 and abs(q) <= n2:
                    return True
            return False
        return x in set(self.elements(cap))

    def contains_quotient(self, x, a_bound: int, cap: int = ENUMERATION_CAP) -> bool:
        """Membership in {p / a : p in gap, 1 <= a <= a_bound} (symmetry makes
        negative divisors redundant)."""
        if a_bound < 1:
            raise ValidationError("a_bound must be >= 1")
        x = _as_fraction(x)
        return any(self.contains(x * a, cap=cap) for a in range(1, a_bound + 1))


def sumset(p: Gap, q: Gap) -> Gap:
    """The sumset of two progressions is the progression of the
    concatenated generators (ranks add)."""
    return Gap(p.generators + q.generators, p.dims + q.dims)


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class DiscretizationResult:
    """A coarse/fine split of a progression near a requested scale.

    scale_R is the working scale; d_exponent records the smallest e with
    scale_R <= (S * volume)^e * R0, so e = 0 means the scale stayed at or
    below the request.
    """

    p_small: Gap
    p_sparse: Gap
    scale_R: Fraction
    S: int
    R0: int
    d_exponent: int

    def __post_init__(self):
        object.__setattr__(self, "scale_R", _as_fraction(self.scale_R))
        if self.scale_R < 1:
            raise ValidationError("scale_R must be >= 1")
        if self.S < 1 or self.R0 < 1:
            raise ValidationError("S and R0 must be positive integers")
        if self.d_exponent < 0:
            raise ValidationError("d_exponent must be nonnegative")


@dataclass(frozen=True)
class ClauseReport:
    scale: bool
    smallness: bool
    sparseness: bool
    covering: bool

    @property
    def ok(self) -> bool:
        return self.scale and self.smallness and self.sparseness and self.covering

    def failing(self) -> str | None:
        for name in ("scale", "smallness", "sparseness", "covering"):
            if not getattr(self, name):
                return name
        return None


def verify_discretization(
    p: Gap, result: DiscretizationResult, cap: int = ENUMERATION_CAP
) -> ClauseReport:
    """Exact check of the four clauses.

    Scale:      R <= (S V)^d' R0, V the volume of p.
    Smallness:  p_small has rank <= rank(p), volume <= V, and every
                element lies in [-R/S, R/S].
    Sparseness: p_sparse has rank <= rank(p), volume <= V, and distinct
                elements of the dilate S * p_sparse sit >= R S apart.
    Covering:   every element of p is a sum of one element from each part.
    """
    r = result.scale_R
    s = result.S
    v = p.volume
    scale_ok = r <= Fraction(s * v) ** result.d_exponent * result.R0
    bound = r / s
    small_ok = (
        result.p_small.rank <= p.rank
        and result.p_small.volume <= v
        and all(abs(x) <= bound for x in result.p_small.elements(cap))
    )
    sparse_ok = result.p_sparse.rank <= p.rank and result.p_sparse.volume <= v
    if sparse_ok:
        dilated = result.p_sparse.dilate(s).elements(cap)
        min_gap = r * s
        sparse_ok = all(
            dilated[i + 1] - dilated[i] >= min_gap for i in range(len(dilated) - 1)
        )
    whole = sumset(result.p_small, result.p_sparse)
    if whole.volume <= cap:
        reachable = set(whole.elements(cap))
        cover_ok = all(x in reachable for x in p.elements(cap))
    else:
        cover_ok = all(
            any(result.p_sparse.contains(x - y, cap=cap) for y in result.p_small.elements(cap))
            for x in p.elements(cap)
        )
    return ClauseReport(
        scale=bool(scale_ok), smallness=bool(small_ok), sparseness=bool(sparse_ok), covering=bool(cover_ok)
    )


def _smallest_scale_exponent(r: Fraction, s: int, volume: int, r0: int) -> int:
    base = Fraction(s * volume)
    target = Fraction(r, r0)
    e = 0
    acc = Fraction(1)
    while acc < target:
        if base <= 1:
            raise ConstructionError("scale exponent diverges (S * V <= 1)", "scale")
        acc *= base
        e += 1
        if e > 64:
            raise ConstructionError("scale exponent exceeds 64", "scale")
    return e


def discretize_rank1(p: Gap, r0: int, s: int) -> DiscretizationResult:
    """Split a rank-1 integer progression into coarse + small parts.

    Writing each coefficient a = q m + r with |r| <= q // 2 gives
    p_small on the original generator and p_sparse on the q-fold coarse
    generator; q is the smallest choice for which all four clauses pass.
    When the whole progression already fits inside [-R0/S, R0/S], it is
    itself the small part and the sparse part degenerates to {0}.
    """
    if p.rank != 1:
        raise ValidationError(f"constructor handles rank 1, got rank {p.rank}")
    g_frac = p.generators[0]
    if g_frac.denominator != 1 or g_frac <= 0:
        raise ValidationError(f"generator {g_frac} is not a positive integer")
    g = int(g_frac)
    n = p.dims[0]
    r0 = int(r0)
    s = int(s)
    if r0 < 1 or s < 1:
        raise ValidationError("R0 and S must be positive integers")
    v = p.volume

    # whole progression small enough: coarse part degenerates
    if Fraction(n * g * s) <= r0:
        trivial = DiscretizationResult(
            p_small=p,
            p_sparse=Gap((Fraction(g),), (0,)),
            scale_R=Fraction(r0),
            S=s,
            R0=r0,
            d_exponent=0,
        )
        if verify_discretization(p, trivial).ok:
            return trivial

    last_failure = "covering"
    for q in range(1, 2 * n + 2):
        half = min(q // 2, n)
        rest = n - half
        m_dim = -(-rest // q) if rest > 0 else 0  # ceil
        p_small = Gap((Fraction(g),), (half,))
        p_sparse = Gap((Fraction(q * g),), (m_dim,))
        lo = max(Fraction(1), Fraction(s * g * half))
        hi = Fraction(q * g) if m_dim >= 1 else None
        if hi is not None and lo > hi:
            last_failure = "sparseness"
            continue
        scale = min(max(Fraction(r0), lo), hi) if hi is not None else max(Fraction(r0), lo)
        d_exp = _smallest_scale_exponent(scale, s, v, r0)
        candidate = DiscretizationResult(
            p_small=p_small, p_sparse=p_sparse, scale_R=scale, S=s, R0=r0, d_exponent=d_exp
        )
        report = verify_discretization(p, candidate)
        if report.ok:
            return candidate
        last_failure = report.failing() or last_failure
    raise ConstructionError(
        f"no coefficient split passed all four clauses (last failure: {last_failure})",
        last_failure,
    )


# ---------------------------------------------------------------------------
# inverse search: from high concentration to a structured cover


@dataclass(frozen=True)
class GapCover:
    gap: Gap
    excluded: frozenset[int]
    multiplier_s: int


@dataclass(frozen=True)
class SearchOutcome:
    found: GapCover | None
    hypothesis_holds: bool
    hypothesis_value: float
    counterexample_candidate: bool


def inverse_lo_search(
    v: Sequence[int],
    mu,
    rank_cap: int = 2,
    volume_cap: int = 2001,
    except_cap: int = 0,
    a_exponent: float = 1.0,
    work_budget: int = SEARCH_WORK_BUDGET,
) -> SearchOutcome:
    """Search for a small progression covering almost all weights.

    Triggered only when the unit-multiplier cosine average reaches
    n^-a_exponent (high concentration).  Generators are drawn from
    {v_i / s : 1 <= s <= volume_cap}; ranks 1 and 2 are searched in a
    fixed deterministic order (s ascending, generators ascending, box
    radii ascending).  A trigger with no cover found is logged as a
    counterexample candidate and reported in the outcome, never dropped.
    """
    v = [int(x) for x in v]
    n = len(v)
    if n == 0 or n > 16:
        raise ValidationError(f"search supports 1 <= n <= 16, got {n}")
    if rank_cap not in (1, 2):
        raise ValidationError(f"rank_cap must be 1 or 2, got {rank_cap}")
    if volume_cap < 1 or except_cap < 0:
        raise ValidationError("volume_cap must be >= 1 and except_cap >= 0")
    mu_f = float(mu)
    if not (0.0 < mu_f <= 0.5):
        raise ValidationError(f"mu = {mu_f} outside (0, 1/2]")
    hyp_value = cosine_average(v, mu_f)
    threshold = float(n) ** (-float(a_exponent))
    if hyp_value < threshold:
        return SearchOutcome(
            found=None, hypothesis_holds=False, hypothesis_value=hyp_value,
            counterexample_candidate=False,
        )

    nonzero = sorted({abs(x) for x in v if x != 0})
    if not nonzero:
        cover = GapCover(gap=Gap((Fraction(1),), (0,)), excluded=frozenset(), multiplier_s=1)
        return SearchOutcome(found=cover, hypothesis_holds=True,
                             hypothesis_value=hyp_value, counterexample_candidate=False)

    n_max = (volume_cap - 1) // 2
    work = 0

    def rank1_try(u: Fraction) -> tuple[frozenset[int], int] | None:
        nonlocal work
        misses = []
        radius = 0
        for j, vj in enumerate(v):
            work += 1
            q = Fraction(vj) / u
            if q.denominator == 1 and abs(q) <= n_max:
                radius = max(radius, abs(int(q)))
            else:
                misses.append(j)
        if len(misses) <= except_cap:
            return frozenset(misses), radius
        return None

    for s in range(1, volume_cap + 1):
        cands = sorted({Fraction(a, s) for a in nonzero})
        for u in cands:
            if work > work_budget:
                raise ResourceError(f"search work exceeded budget {work_budget}")
            hit = rank1_try(u)
            if hit is not None:
                excluded, radius = hit
                cover = GapCover(gap=Gap((u,), (radius,)), excluded=excluded, multiplier_s=s)
                return SearchOutcome(found=cover, hypothesis_holds=True,
                                     hypothesis_value=hyp_value, counterexample_candidate=False)
        if rank_cap >= 2:
            dim_pairs = [
                (n1, n2)
                for n1 in range(1, n_max + 1)
                for n2 in range(n1, n_max + 1)
                if (2 * n1 + 1) * (2 * n2 + 1) <= volume_cap
            ]
            for u1, u2 in itertools.combinations(cands, 2):
                for n1, n2 in dim_pairs:
                    if work > work_budget:
                        raise ResourceError(f"search work exceeded budget {work_budget}")
                    gap = Gap((u1, u2), (n1, n2))
                    misses = []
                    for j, vj in enumerate(v):
                        work += 2 * n1 + 1
                        if not gap.contains(Fraction(vj)):
                            misses.append(j)
                        if len(misses) > except_cap:
                            break
                    if len(misses) <= except_cap:
                        cover = GapCover(gap=gap, excluded=frozenset(misses), multiplier_s=s)
                        return SearchOutcome(found=cover, hypothesis_holds=True,
                                             hypothesis_value=hyp_value,
                                             counterexample_candidate=False)

    logger.warning(
        "counterexample candidate: concentration %.3e >= n^-%s but no rank<=%d cover "
        "of volume <= %d found for v=%s",
        hyp_value, a_exponent, rank_cap, volume_cap, v,
    )
    return SearchOutcome(
        found=None, hypothesis_holds=True, hypothesis_value=hyp_value,
        counterexample_candidate=True,
    )


# ---------------------------------------------------------------------------
# file formats
#
# gap literal:             discretization result:
#   rank 2                   R 10
#   3/2 4                    S 2
#   10 1                     R0 10
#                            D 0
#                            small rank 1
#                            1 2
#                            sparse rank 1
#                            10 5


def parse_gap(text: str) -> Gap:
    lines = _content_lines(text)
    return _gap_from_lines(lines, 0)[0]


def _content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _gap_from_lines(lines: list[list[str]], start: int) -> tuple[Gap, int]:
    header = lines[start]
    if header[0].lower() != "rank" or len(header) != 2:
        raise ValidationError(f"expected 'rank d' header, got {' '.join(header)!r}")
    rank = int(header[1])
    gens = []
    dims = []
    for row in lines[start + 1 : start + 1 + rank]:
        if len(row) != 2:
            raise ValidationError(f"expected 'generator dim', got {' '.join(row)!r}")
        gens.append(_as_fraction(row[0]))
        dims.append(int(row[1]))
    if len(gens) != rank:
        raise ValidationError(f"rank {rank} declared but {len(gens)} generator lines found")
    return Gap(tuple(gens), tuple(dims)), start + 1 + rank


def load_gap(path: str) -> Gap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gap(fh.read())


def format_gap(g: Gap) -> str:
    lines = [f"rank {g.rank}"]
    for gen, d in zip(g.generators, g.dims):
        lines.append(f"{gen} {d}")
    return "\n".join(lines) + "\n"


def parse_discretization(text: str) -> DiscretizationResult:
    lines = _content_lines(text)
    scalars: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i][0].lower() not in ("small", "sparse"):
        if len(lines[i]) != 2:
            raise ValidationError(f"expected 'key value', got {' '.join(lines[i])!r}")
        scalars[lines[i][0].upper()] = lines[i][1]
        i += 1
    parts: dict[str, Gap] = {}
    while i < len(lines):
        row = lines[i]
        tag = row[0].lower()
        if tag not in ("small", "sparse") or len(row) != 3 or row[1].lower() != "rank":
            raise ValidationError(f"expected a 'small rank d' or 'sparse rank d' header, got {' '.join(row)!r}")
        rank = int(row[2])
        gens, dims = [], []
        for r2 in lines[i + 1 : i + 1 + rank]:
            if len(r2) != 2:
                raise ValidationError(f"expected 'generator dim', got {' '.join(r2)!r}")
            gens.append(_as_fraction(r2[0]))
            dims.append(int(r2[1]))
        if len(gens) != rank:
            raise ValidationError(f"{tag} block declares rank {rank} but has {len(gens)} lines")
        parts[tag] = Gap(tuple(gens), tuple(dims))
        i += 1 + rank
    for key in ("R", "S", "R0", "D"):
        if key not in scalars:
            raise ValidationError(f"missing scalar {key} in discretization file")
    if "small" not in parts or "sparse" not in parts:
        raise ValidationError("discretization file needs both small and sparse blocks")
    return DiscretizationResult(
        p_small=parts["small"],
        p_sparse=parts["sparse"],
        scale_R=_as_fraction(scalars["R"]),
        S=int(scalars["S"]),
        R0=int(scalars["R0"]),
        d_exponent=int(scalars["D"]),
    )


def load_discretization(path: str) -> DiscretizationResult:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_discretization(fh.read())


def format_discretization(r: DiscretizationResult) -> str:
    lines = [f"R {r.scale_R}", f"S {r.S}", f"R0 {r.R0}", f"D {r.d_exponent}"]
    lines.append(f"small rank {r.p_small.rank}")
    for gen, d in zip(r.p_small.generators, r.p_small.dims):
        lines.append(f"{gen} {d}")
    lines.append(f"sparse rank {r.p_sparse.rank}")
    for gen, d in zip(r.p_sparse.generators, r.p_sparse.dims):
        lines.append(f"{gen} {d}")
    return "\n".join(lines) + "\n"
