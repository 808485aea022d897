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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .concentration import cosine_average
from .errors import ResourceError, ValidationError
from .noise import mu_float
from .rational import as_fraction, whole_numbers
from .util import content_lines, keyed_lines, power, token

# resource limits, read at call time (tests lower them by monkeypatch)
ENUMERATION_CAP = 10_000_000
SEARCH_WORK_BUDGET = 20_000_000


def _least_coefficient(x: int, a: int, b: int, n1: int) -> int | float:
    """The least |x2| over integer solutions of x = x1 a + x2 b with |x1| <= n1
    (b != 0), or inf when there is none.  So x lies in the progression of
    generators a, b and box radii n1, n2 exactly when this is at most n2;
    with n1 = 0 it is the rank-1 rule, |x / b| when b divides x."""
    least = math.inf
    for x1 in range(-n1, n1 + 1):
        q, r = divmod(x - x1 * a, b)
        if r == 0 and abs(q) < least:
            least = abs(q)
    return least


@dataclass(frozen=True, slots=True)
class Gap:
    """Symmetric progression: generators and box radii, dimensionwise."""

    generators: tuple[Fraction, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(as_fraction(g) for g in self.generators)
        dims = tuple(whole_numbers(list(self.dims)))
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

    def elements(self) -> list[Fraction]:
        """Sorted distinct values; refuses a coefficient box past ENUMERATION_CAP."""
        if self.volume > ENUMERATION_CAP:
            raise ResourceError(f"volume {self.volume} exceeds enumeration cap {ENUMERATION_CAP}")
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
        k = as_fraction(k)
        return Gap(tuple(g * k for g in self.generators), self.dims)

    def contains(self, x) -> bool:
        """Exact membership.  Rank 1 and 2 solve for coefficients in integers
        (see _least_coefficient); higher ranks fall back to enumeration under
        ENUMERATION_CAP."""
        x = as_fraction(x)
        if self.rank > 2:
            return x in set(self.elements())
        # zero generators drop out; loop the smaller box, solve the other one
        terms = sorted((d, g) for g, d in zip(self.generators, self.dims) if g != 0)
        if not terms:
            return x == 0
        (n1, g1), (n2, g2) = ([(0, Fraction(0))] + terms)[-2:]
        scale = math.lcm(x.denominator, g1.denominator, g2.denominator)
        x, a, b = (int(t * scale) for t in (x, g1, g2))
        return _least_coefficient(x, a, b, n1) <= n2

    def contains_quotient(self, x, a_bound: int) -> bool:
        """Membership in {p / a : p in gap, 1 <= a <= a_bound} (symmetry makes
        negative divisors redundant)."""
        if a_bound < 1:
            raise ValidationError("a_bound must be >= 1")
        x = as_fraction(x)
        return any(self.contains(x * a) for a in range(1, a_bound + 1))


def sumset(p: Gap, q: Gap) -> Gap:
    """The sumset of two progressions is the progression of the
    concatenated generators (ranks add)."""
    return Gap(p.generators + q.generators, p.dims + q.dims)


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True, slots=True)
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
        object.__setattr__(self, "scale_R", as_fraction(self.scale_R))
        if self.scale_R < 1:
            raise ValidationError("scale_R must be >= 1")
        if self.S < 1 or self.R0 < 1:
            raise ValidationError("S and R0 must be positive integers")
        if self.d_exponent < 0:
            raise ValidationError("d_exponent must be nonnegative")


@dataclass(frozen=True, slots=True)
class ClauseReport:
    scale: bool
    smallness: bool
    sparseness: bool
    covering: bool

    @property
    def ok(self) -> bool:
        return self.scale and self.smallness and self.sparseness and self.covering


def verify_discretization(p: Gap, result: DiscretizationResult) -> ClauseReport:
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
        and all(abs(x) <= bound for x in result.p_small.elements())
    )
    sparse_ok = result.p_sparse.rank <= p.rank and result.p_sparse.volume <= v
    if sparse_ok:
        dilated = result.p_sparse.dilate(s).elements()
        min_gap = r * s
        sparse_ok = all(
            dilated[i + 1] - dilated[i] >= min_gap for i in range(len(dilated) - 1)
        )
    whole = sumset(result.p_small, result.p_sparse)
    if whole.volume <= ENUMERATION_CAP:
        reachable = set(whole.elements())
        cover_ok = all(x in reachable for x in p.elements())
    else:
        cover_ok = all(
            any(result.p_sparse.contains(x - y) for y in result.p_small.elements())
            for x in p.elements()
        )
    return ClauseReport(
        scale=bool(scale_ok), smallness=bool(small_ok), sparseness=bool(sparse_ok), covering=bool(cover_ok)
    )


def discretize_rank1(p: Gap, r0: int, s: int) -> DiscretizationResult:
    """Split a rank-1 integer progression p = {k g : |k| <= N} in closed form.

    If N g S <= R0, p is the small part and {0} the sparse part, at R = R0;
    else {0} is the small part and p the sparse part, at R = min(R0, g).
    Scale:      R <= R0, so d = 0.
    Smallness:  {0} always; p only when N g <= R0 / S.
    Sparseness: {0} always; p since its elements are multiples of g, so S p
                is S g-separated, and S g >= R S.
    Covering:   {0} + p = p.
    """
    if p.rank != 1:
        raise ValidationError(f"constructor handles rank 1, got rank {p.rank}")
    g_frac = p.generators[0]
    if g_frac.denominator != 1 or g_frac <= 0:
        raise ValidationError(f"generator {g_frac} is not a positive integer")
    g = int(g_frac)
    n = p.dims[0]
    r0, s = whole_numbers([r0, s])
    if r0 < 1 or s < 1:
        raise ValidationError("R0 and S must be positive integers")
    zero = Gap((g_frac,), (0,))
    if n * g * s <= r0:
        return DiscretizationResult(p_small=p, p_sparse=zero, scale_R=r0, S=s, R0=r0, d_exponent=0)
    return DiscretizationResult(p_small=zero, p_sparse=p, scale_R=min(r0, g), S=s, R0=r0, d_exponent=0)


# ---------------------------------------------------------------------------
# inverse search: from high concentration to a structured cover


# the one excluded set of every cover that excludes nothing
NO_EXCLUSIONS: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class GapCover:
    gap: Gap
    excluded: frozenset[int]
    multiplier_s: int


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    found: GapCover | None
    hypothesis_holds: bool
    hypothesis_value: float
    counterexample_candidate: bool


def _box_radius_pairs(volume_cap: int) -> Iterator[tuple[int, int]]:
    """Rank-2 box radii 1 <= n1 <= n2 with (2 n1 + 1)(2 n2 + 1) <= volume_cap,
    n1 then n2 ascending: the order the search tries them in.  The smaller
    side fits the cap twice over, so 2 n1 + 1 <= isqrt(volume_cap).  Lazy,
    since a search mostly stops at one of the first few boxes."""
    return (
        (n1, n2)
        for n1 in range(1, (math.isqrt(volume_cap) - 1) // 2 + 1)
        for n2 in range(n1, (volume_cap // (2 * n1 + 1) - 1) // 2 + 1)
    )


def inverse_lo_search(
    v: Sequence[int],
    mu,
    rank_cap: int = 2,
    volume_cap: int = 2001,
    except_cap: int = 0,
    a_exponent: float = 1.0,
) -> SearchOutcome:
    """Search for a small progression covering almost all weights.

    Triggered only when the unit-multiplier cosine average reaches
    n^-a_exponent (high concentration).  Generators are drawn from
    {v_i / s : 1 <= s <= volume_cap}; ranks 1 and 2 are searched in a
    fixed deterministic order (s ascending, generators ascending, box
    radii ascending).  A trigger with no cover found is logged as a
    counterexample candidate and reported in the outcome, never dropped.

    Membership is tested in integers: at multiplier s the weights become
    v_j s and the generators a / s become a.  Work counts coefficients
    tried, one per weight at rank 1 and 2 n1 + 1 per weight and box at rank
    2; past SEARCH_WORK_BUDGET the search raises ResourceError.
    """
    v = whole_numbers(list(v))
    n = len(v)
    if n == 0 or n > 16:
        raise ValidationError(f"search supports 1 <= n <= 16, got {n}")
    if rank_cap not in (1, 2):
        raise ValidationError(f"rank_cap must be 1 or 2, got {rank_cap}")
    if volume_cap < 1 or except_cap < 0:
        raise ValidationError("volume_cap must be >= 1 and except_cap >= 0")
    mu_f = mu_float(mu)
    hyp_value = cosine_average(v, mu_f)

    def outcome(found: GapCover | None, holds: bool = True, candidate: bool = False) -> SearchOutcome:
        return SearchOutcome(found=found, hypothesis_holds=holds, hypothesis_value=hyp_value,
                             counterexample_candidate=candidate)

    def cover(gap: Gap, misses: list[int], s: int) -> SearchOutcome:
        return outcome(GapCover(gap=gap, excluded=frozenset(misses) if misses else NO_EXCLUSIONS,
                                multiplier_s=s))

    if hyp_value < power("-a_exponent", n, -float(a_exponent)):
        return outcome(None, holds=False)

    nonzero = sorted({abs(x) for x in v if x != 0})
    if not nonzero:
        return cover(Gap((Fraction(1),), (0,)), [], 1)

    n_max = (volume_cap - 1) // 2
    work = 0
    for s in range(1, volume_cap + 1):
        scaled = [vj * s for vj in v]
        for a in nonzero:
            if work > SEARCH_WORK_BUDGET:
                raise ResourceError(f"search work exceeded budget {SEARCH_WORK_BUDGET}")
            work += n
            radii = [_least_coefficient(x, 0, a, 0) for x in scaled]
            misses = [j for j, r in enumerate(radii) if r > n_max]
            if len(misses) <= except_cap:
                radius = max((r for r in radii if r <= n_max), default=0)
                return cover(Gap((Fraction(a, s),), (radius,)), misses, s)
        if rank_cap == 1:
            continue
        for a1, a2 in itertools.combinations(nonzero, 2):
            n1_at = 0
            for n1, n2 in _box_radius_pairs(volume_cap):
                if work > SEARCH_WORK_BUDGET:
                    raise ResourceError(f"search work exceeded budget {SEARCH_WORK_BUDGET}")
                if n1 != n1_at:
                    # each weight's least second coefficient, for every n2 at this n1
                    n1_at, least = n1, [_least_coefficient(x, a1, a2, n1) for x in scaled]
                misses = []
                for j, x2 in enumerate(least):
                    work += 2 * n1 + 1
                    if x2 > n2:
                        misses.append(j)
                        if len(misses) > except_cap:
                            break
                if len(misses) <= except_cap:
                    return cover(Gap((Fraction(a1, s), Fraction(a2, s)), (n1, n2)), misses, s)

    import logging  # only this warning needs it: importing perturblab does not load it

    logging.getLogger("perturblab.gaps").warning(
        "counterexample candidate: concentration %.3e >= n^-%s but no rank<=%d cover "
        "of volume <= %d found for v=%s",
        hyp_value, a_exponent, rank_cap, volume_cap, v,
    )
    return outcome(None, candidate=True)


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
    lines = list(content_lines(text))
    gap, end = _gap_from_lines(lines, 0)
    if end < len(lines):
        raise ValidationError(f"line {lines[end][0]}: text after the rank-{gap.rank} progression")
    return gap


def _gap_from_lines(lines: list[tuple[int, list[str]]], start: int, tag: str = "") -> tuple[Gap, int]:
    """The progression whose '[tag] rank d' header is lines[start], and the
    index of the line after its d 'generator dim' lines."""
    want = f"{tag} rank d".strip()
    if start >= len(lines):
        raise ValidationError(f"missing '{want}' header")
    lineno, header = lines[start]
    if [h.lower() for h in header[:-1]] != want.split()[:-1]:
        raise ValidationError(f"line {lineno}: expected '{want}' header, got {' '.join(header)!r}")
    rank = token(lineno, header[-1])
    rows = lines[start + 1 : start + 1 + rank]
    if len(rows) != rank:
        raise ValidationError(f"line {lineno}: rank {rank} declared but {len(rows)} generator lines found")
    gens, dims = [], []
    for lineno, row in rows:
        if len(row) != 2:
            raise ValidationError(f"line {lineno}: expected 'generator dim', got {' '.join(row)!r}")
        gens.append(token(lineno, row[0], as_fraction))
        dims.append(token(lineno, row[1]))
    return Gap(tuple(gens), tuple(dims)), start + 1 + rank


def format_gap(g: Gap) -> str:
    return f"rank {g.rank}\n" + "".join(f"{gen} {d}\n" for gen, d in zip(g.generators, g.dims))


_SCALARS = ("R", "S", "R0", "D")
_BLOCKS = ("small", "sparse")


def parse_discretization(text: str) -> DiscretizationResult:
    lines = list(content_lines(text))
    i = next((k for k, (_, row) in enumerate(lines) if row[0].lower() in _BLOCKS), len(lines))
    scalars = {}
    for key, (lineno, values) in keyed_lines(lines[:i], _SCALARS).items():
        if len(values) != 1:
            raise ValidationError(f"line {lineno}: expected '{key} value'")
        scalars[key] = token(lineno, values[0], as_fraction if key == "R" else int)
    blocks: dict[str, Gap] = {}
    while i < len(lines):
        lineno, row = lines[i]
        tag = row[0].lower()
        if tag not in _BLOCKS or tag in blocks:
            raise ValidationError(f"line {lineno}: expected a new 'small rank d' or 'sparse rank d' header")
        blocks[tag], i = _gap_from_lines(lines, i, tag)
    missing = [key for key in _SCALARS + _BLOCKS if key not in scalars and key not in blocks]
    if missing:
        raise ValidationError(f"discretization file lacks {', '.join(missing)}")
    return DiscretizationResult(
        p_small=blocks["small"],
        p_sparse=blocks["sparse"],
        scale_R=scalars["R"],
        S=scalars["S"],
        R0=scalars["R0"],
        d_exponent=scalars["D"],
    )


def format_discretization(r: DiscretizationResult) -> str:
    header = f"R {r.scale_R}\nS {r.S}\nR0 {r.R0}\nD {r.d_exponent}\n"
    return f"{header}small {format_gap(r.p_small)}sparse {format_gap(r.p_sparse)}"
