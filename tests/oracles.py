"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the library's own code paths:
concentration by direct enumeration of all noise outcomes, the cosine
product integral by adaptive quadrature, determinants by cofactor
expansion or the Leibniz sum, the singularity probability by summing
over every entry assignment, and the normal law by mpmath's ncdf.  The
scalar sampler, the Jacobi SVD, the scalar Fourier-side grid checks and
the term-by-term Fraction back-substitution (on a Bareiss elimination
over Python lists with largest-value pivots, not the library's stacked
kernel), the floating elimination of one system at a time with partial
pivoting, the rank-1 discretization searched over coefficient splits and
checked clause by clause, and the inverse search that filters every
box-radius pair afresh for each multiplier and tests membership in
Fractions below are the straightforward loops that the faster library
versions must reproduce exactly.  Slow and simple on purpose; the tests
compare the fast implementations against these.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from scipy import integrate

from perturblab.concentration import cosine_average
from perturblab.errors import ResourceError, ValidationError
from perturblab.gaps import (
    SEARCH_WORK_BUDGET,
    DiscretizationResult,
    Gap,
    GapCover,
    SearchOutcome,
    verify_discretization,
)
from perturblab.noise import mu_float

logger = logging.getLogger("perturblab.gaps")


def brute_force_concentration(dists, v, shift=None):
    """sup_a P(sum_i (z_i + x_i) v_i = a) over every outcome combination.

    dists: sequence of DiscreteDistribution-like objects with .atoms;
    exponential in n, keep n small.  Each law's probabilities are put over
    their common denominator, so a combination's mass is a product of
    integers and one Fraction per sum is built at the end.  Returns (sup,
    argmax, mass at 0).
    """
    z = shift if shift is not None else (0,) * len(v)
    supports = []
    denominator = 1
    for dist, zi, vi in zip(dists, z, v):
        common = math.lcm(*(prob.denominator for _, prob in dist.atoms))
        denominator *= common
        supports.append([((zi + x) * vi, int(prob * common)) for x, prob in dist.atoms])
    mass: dict = {}
    for combo in itertools.product(*supports):
        sums, weights = zip(*combo)
        s = sum(sums)
        mass[s] = mass.get(s, 0) + math.prod(weights)
    best = max(mass.values())
    arg = min(k for k, w in mass.items() if w == best)
    return Fraction(best, denominator), arg, Fraction(mass.get(0, 0), denominator)


def quad_cosine_product(freqs, mu, tol=1e-12):
    """Adaptive-quadrature value of the mean of prod((1-mu)+mu cos(2 pi f t))
    over [0,1], split so each panel holds few oscillations."""
    mu = float(mu)
    freqs = [abs(int(f)) for f in freqs]

    def integrand(t):
        acc = 1.0
        for f in freqs:
            acc *= (1.0 - mu) + mu * math.cos(2.0 * math.pi * f * t)
        return acc

    top = max(freqs) if freqs else 1
    panels = max(1, min(4 * top, 4096))
    total = 0.0
    for j in range(panels):
        a, b = j / panels, (j + 1) / panels
        val, _ = integrate.quad(integrand, a, b, epsabs=tol, epsrel=tol, limit=200)
        total += val
    return total


def det3_cofactor(rows):
    """3x3 integer determinant by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@functools.cache
def _signed_permutations(n):
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        out.append((-1 if inversions % 2 else 1, tuple(enumerate(perm))))
    return out


def leibniz_det(rows):
    """Integer determinant as the signed sum over all permutations."""
    return sum(sign * math.prod(rows[i][j] for i, j in cells) for sign, cells in _signed_permutations(len(rows)))


def normal_mass(lo, hi, dps=40):
    """P(lo < Z <= hi) for a standard normal, via mpmath's cdf."""
    with mpmath.workdps(dps):
        return mpmath.ncdf(hi) - mpmath.ncdf(lo)


def singularity_by_enumeration(n, law, order="rows"):
    """P(det = 0) for an n x n matrix of iid entries, summed over every one
    of the k^(n^2) entry assignments with Leibniz determinants.

    law: an object with .atoms (value, probability) or a sequence of values
    taken uniformly.  order: 'rows' or 'cols', the fill order of the
    assignment tuple; the sum is the same either way.
    """
    if hasattr(law, "atoms"):
        atoms = dict(law.atoms)
    else:
        atoms = {v: Fraction(1, len(law)) for v in law}
    singular: dict = {}  # sorted entries -> number of singular assignments
    for combo in itertools.product(atoms, repeat=n * n):
        if order == "rows":
            rows = [combo[i * n : (i + 1) * n] for i in range(n)]
        else:
            rows = [combo[i::n] for i in range(n)]
        if leibniz_det(rows) == 0:
            key = tuple(sorted(combo))
            singular[key] = singular.get(key, 0) + 1
    return sum(
        (count * math.prod(atoms[v] for v in key) for key, count in singular.items()), Fraction(0)
    )


def _bareiss(aug: list[list[int]], n: int) -> tuple[int, list[list[int]]]:
    """Forward elimination on an n x m augmented integer matrix.

    Pivots by largest absolute value in the column (ties to the lowest
    row index).  Returns (sign from row swaps, reduced rows); the result
    is upper triangular in its first n columns.  A zero pivot column
    leaves sign = 0 (singular).
    """
    sign = 1
    prev = 1
    m = len(aug[0])
    for k in range(n):
        pivot_row = -1
        pivot_val = 0
        for r in range(k, n):
            v = abs(aug[r][k])
            if v > pivot_val:
                pivot_val = v
                pivot_row = r
        if pivot_row < 0:
            return 0, aug
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            sign = -sign
        pivot = aug[k][k]
        for i in range(k + 1, n):
            row_i = aug[i]
            row_k = aug[k]
            head = row_i[k]
            for j in range(k + 1, m):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign, aug


def fraction_back_substitute(red, n, col):
    """Solve the upper triangular system in the first n columns of the
    reduced rows against their column `col`, one Fraction per term."""
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(red[i][col])
        for j in range(i + 1, n):
            acc -= red[i][j] * x[j]
        x[i] = acc / red[i][i]
    return x


def solve_by_fractions(matrix, rhs):
    """rational.solve_exact with the Fraction back-substitution; None when
    the matrix is singular."""
    n = len(matrix)
    b = [Fraction(x) for x in rhs]
    denom = math.lcm(*(x.denominator for x in b))
    aug = [[int(v) for v in matrix[i]] + [int(b[i] * denom)] for i in range(n)]
    sign, red = _bareiss(aug, n)
    if sign == 0:
        return None
    return [v / denom for v in fraction_back_substitute(red, n, n)]


def invert_by_fractions(matrix):
    """rational.invert_exact with the Fraction back-substitution."""
    n = len(matrix)
    aug = [[int(v) for v in matrix[i]] + [int(i == j) for j in range(n)] for i in range(n)]
    _, red = _bareiss(aug, n)
    columns = [fraction_back_substitute(red, n, n + col) for col in range(n)]
    return [list(row) for row in zip(*columns)]


def ge_solve(a: np.ndarray, b: np.ndarray, dtype, pivots: list | None = None) -> np.ndarray | None:
    """Gaussian elimination with partial pivoting on one system, carried out
    in `dtype` (float32 simulates single precision end to end), elementwise;
    None at a zero pivot column.  The pivot row of each step is appended to
    `pivots` when one is given."""
    a = a.astype(dtype).copy()
    b = b.astype(dtype).copy()
    n = len(b)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if pivots is not None:
            pivots.append(piv)
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
        x[i] = dtype(b[i] - np.add.reduce(a[i, i + 1 :] * x[i + 1 :])) / a[i, i]
    return x


def scalar_sample_vector(dists, seed):
    """One inverse-CDF lookup per coordinate from the seeded uniform stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(len(dists))
    out = np.empty(len(dists), dtype=np.int64)
    for i, dist in enumerate(dists):
        values = np.array(dist.values, dtype=np.int64)
        cum = np.cumsum([float(p) for p in dist.probabilities])
        cum[-1] = 1.0
        out[i] = values[int(np.searchsorted(cum, u[i], side="left"))]
    return out


def _round_robin_pairs(n):
    m = n if n % 2 == 0 else n + 1
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(idx[k], idx[m - 1 - k]) for k in range(m // 2)]
        pairs = [(min(a, b), max(a, b)) for a, b in pairs if a < n and b < n]
        if pairs:
            rounds.append((np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])))
        idx = [idx[0]] + [idx[-1]] + idx[1:-1]
    return rounds


def jacobi_svd(a, max_sweeps=60, pair_tol=1e-14, column_floor2=1e-200):
    """One-sided Jacobi in round-robin order, every pair gathered afresh and
    every sweep's off-diagonal sum taken in full.

    Returns (descending singular values, residual, converged); when the
    sweep budget runs out, the residual is that of the last sweep."""
    return jacobi_sweeps(a, max_sweeps, pair_tol, column_floor2)[:3]


def jacobi_sweeps(a, max_sweeps=60, pair_tol=1e-14, column_floor2=1e-200):
    """jacobi_svd's loop, also returning the number of sweeps it ran: the
    last, rotation-free sweep counts, and the zero matrix runs none."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    frob2 = float(np.sum(a * a))
    if frob2 == 0.0:
        return tuple([0.0] * n), 0.0, True, 0
    rounds = _round_robin_pairs(n)
    off2 = 0.0
    for sweep in range(max_sweeps):
        norms2 = np.einsum("ij,ij->j", a, a)
        dead = norms2 <= column_floor2 * frob2
        if dead.any():
            a[:, dead] = 0.0
        rotated = False
        off2 = 0.0
        for ps, qs in rounds:
            ap = a[:, ps]
            aq = a[:, qs]
            app = np.einsum("ij,ij->j", ap, ap)
            aqq = np.einsum("ij,ij->j", aq, aq)
            apq = np.einsum("ij,ij->j", ap, aq)
            off2 += float(np.sum(apq * apq))
            mask = np.abs(apq) > pair_tol * np.sqrt(app * aqq)
            if not mask.any():
                continue
            rotated = True
            apqm = apq[mask]
            theta = (aqq[mask] - app[mask]) / (2.0 * apqm)
            sgn = np.where(theta >= 0.0, 1.0, -1.0)
            t = sgn / (np.abs(theta) + np.hypot(1.0, theta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            pm = ps[mask]
            qm = qs[mask]
            apm = a[:, pm]
            aqm = a[:, qm]
            a[:, pm] = c * apm - s * aqm
            a[:, qm] = s * apm + c * aqm
        if not rotated:
            sigma = np.sort(np.linalg.norm(a, axis=0))[::-1]
            return tuple(float(x) for x in sigma), math.sqrt(off2) / frob2, True, sweep + 1
    sigma = np.sort(np.linalg.norm(a, axis=0))[::-1]
    return tuple(float(x) for x in sigma), math.sqrt(off2) / frob2, False, max_sweeps


def scalar_char_magnitude(dist, t):
    """|E exp(2 pi i xi t)| at one point, summed atom by atom."""
    re = 0.0
    im = 0.0
    for value, prob in dist.atoms:
        angle = 2.0 * math.pi * value * t
        p = float(prob)
        re += p * math.cos(angle)
        im += p * math.sin(angle)
    return math.hypot(re, im)


def scalar_certificate_margin(dist, mu, k, grid_size):
    """Least slack of the envelope (1 - mu) + mu cos(2 pi k t) over |phi(t)|
    on t = j / grid_size, one point at a time."""
    worst = math.inf
    for j in range(grid_size):
        t = j / grid_size
        envelope = (1.0 - mu) + mu * math.cos(2.0 * math.pi * k * t)
        worst = min(worst, envelope - scalar_char_magnitude(dist, t))
    return worst


def scalar_chain_margins(dist, s, grid_size):
    """Least slack of each step of the symmetric certificate chain on
    t = j / grid_size, one point at a time."""
    eps = float(dist.probability_of(s))
    worst1 = math.inf
    worst2 = math.inf
    for j in range(grid_size):
        t = j / grid_size
        mid = (1.0 - 2.0 * eps) + abs(2.0 * eps * math.cos(2.0 * math.pi * s * t))
        top = (1.0 - eps / 2.0) + (eps / 2.0) * math.cos(4.0 * math.pi * s * t)
        worst1 = min(worst1, mid - scalar_char_magnitude(dist, t))
        worst2 = min(worst2, top - mid)
    return worst1, worst2


def _search_scale_exponent(r: Fraction, s: int, volume: int, r0: int) -> int:
    """The least e with r <= (s volume)^e r0, found by multiplying up."""
    base = Fraction(s * volume)
    target = Fraction(r, r0)
    e = 0
    acc = Fraction(1)
    while acc < target:
        assert base > 1, "scale exponent diverges (S * V <= 1)"
        acc *= base
        e += 1
        assert e <= 64, "scale exponent exceeds 64"
    return e


def discretize_rank1_search(p: Gap, r0: int, s: int) -> DiscretizationResult:
    """The rank-1 split found by search: the whole progression when it fits
    inside [-R0/S, R0/S], else the least q = 1 .. 2N + 1 whose coefficient
    split a = q m + r, |r| <= q // 2 (p_small on g, p_sparse on q g) passes
    all four clauses by exact enumeration."""
    g = int(p.generators[0])
    n = p.dims[0]
    v = p.volume

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
        d_exp = _search_scale_exponent(scale, s, v, r0)
        candidate = DiscretizationResult(
            p_small=p_small, p_sparse=p_sparse, scale_R=scale, S=s, R0=r0, d_exponent=d_exp
        )
        report = verify_discretization(p, candidate)
        if report.ok:
            return candidate
        last_failure = report
    raise AssertionError(f"no coefficient split passed all four clauses (last failure: {last_failure})")


def filtered_box_radius_pairs(volume_cap):
    """Every (n1, n2) with 1 <= n1 <= n2 <= (volume_cap - 1) // 2, kept when
    its box (2 n1 + 1)(2 n2 + 1) fits the cap."""
    n_max = (volume_cap - 1) // 2
    return [
        (n1, n2)
        for n1 in range(1, n_max + 1)
        for n2 in range(n1, n_max + 1)
        if (2 * n1 + 1) * (2 * n2 + 1) <= volume_cap
    ]


def fraction_rank2_contains(gap: Gap, x: Fraction) -> bool:
    """x in a rank-2 progression with nonzero generators, in Fraction
    arithmetic: try every first coefficient, solve for the second."""
    (g1, g2), (n1, n2) = gap.generators, gap.dims
    for x1 in range(-n1, n1 + 1):
        q = (x - x1 * g1) / g2
        if q.denominator == 1 and abs(q) <= n2:
            return True
    return False


def inverse_lo_search_reference(
    v: Sequence[int],
    mu,
    rank_cap: int = 2,
    volume_cap: int = 2001,
    except_cap: int = 0,
    a_exponent: float = 1.0,
    work_budget: int = SEARCH_WORK_BUDGET,
) -> SearchOutcome:
    """gaps.inverse_lo_search as it was before its box radii were built once
    per call and its membership moved to integers: the (n1, n2) list is
    re-filtered from all n1 <= n2 <= n_max for every multiplier s, and each
    weight is tested against a Gap in Fractions.

    Search for a small progression covering almost all weights.

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
    mu_f = mu_float(mu)
    hyp_value = cosine_average(v, mu_f)

    def outcome(found: GapCover | None, holds: bool = True, candidate: bool = False) -> SearchOutcome:
        return SearchOutcome(found=found, hypothesis_holds=holds, hypothesis_value=hyp_value,
                             counterexample_candidate=candidate)

    if hyp_value < float(n) ** (-float(a_exponent)):
        return outcome(None, holds=False)

    nonzero = sorted({abs(x) for x in v if x != 0})
    if not nonzero:
        return outcome(GapCover(gap=Gap((Fraction(1),), (0,)), excluded=frozenset(), multiplier_s=1))

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
                return outcome(GapCover(gap=Gap((u,), (radius,)), excluded=excluded, multiplier_s=s))
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
                        if not fraction_rank2_contains(gap, Fraction(vj)):
                            misses.append(j)
                        if len(misses) > except_cap:
                            break
                    if len(misses) <= except_cap:
                        return outcome(GapCover(gap=gap, excluded=frozenset(misses), multiplier_s=s))

    logger.warning(
        "counterexample candidate: concentration %.3e >= n^-%s but no rank<=%d cover "
        "of volume <= %d found for v=%s",
        hyp_value, a_exponent, rank_cap, volume_cap, v,
    )
    return outcome(None, candidate=True)
