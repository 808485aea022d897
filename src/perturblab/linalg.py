"""Matrix types, singular spectra, and base matrices by spec.

The SVD here, `svd_stack` (and `svd`, a stack of one), is a one-sided
Jacobi iteration built from scratch: column pairs are rotated until all
pairwise column inner products vanish, at which point the column norms are
the singular values.  Swept on x itself, one-sided Jacobi computes small
singular values to high *relative* accuracy (the stopping rule is relative
per pair), which matters because the quantities under study are tail
events of 1/sigma_min.  The kernel sweeps many matrices of one size
together, so that numpy's per-call cost, which dominates at the sizes
studied here, is paid once per stack.  The stack is held column-major, in
the current round's column order, so a round's pairs are two contiguous
blocks.  A round rotates only what fails its pair test: when at most half
of its (pair, matrix) slots fail, their columns are gathered, rotated and
put back; otherwise the whole blocks rotate, with s and then c copied out
beside them so that all products but one run on contiguous operands.  A
round whose cosines all round to 1.0, as nearly every round on a
preconditioned matrix does, leaves out the products by c, which are exact.
A matrix leaves the stack at a Gram test, which evaluates a whole sweep's
pair tests from the diagonal and upper triangle of its Gram matrix.
The stack lives in one of two flat buffers allocated once per call, and
every temporary as large as the stack is a view of the other, so a call
holds about twice its stack's bytes: 2.3 to 2.45 times, traced, at the
experiments' chunks of n = 20, 50 and 100.

Most matrices are swept preconditioned: as x V instead of x, V the
eigenbasis of x^T x from LAPACK rounded to multiples of 2^-26 and made
orthogonal again by one Newton-Schulz step: its Gram V^T V in BLAS, whose
products and sums on that grid are all exact, the rest in einsum.  Its
columns are orthogonal up to that rounding, and the sweeps end after two
or three instead of about ten.  The route rule keeps x itself when
n < PRECONDITION_MIN_N (a full stack of small matrices sweeps faster than
it preconditions them one by one), when lambda_min(x^T x) <= 0 (the zero
matrix, singular integer draws), when n eps kappa-hat > ROUTE_TOL
(kappa-hat = sqrt(lambda_max / lambda_min), the ill-conditioned tail) or
when two eigenvalues lie so close that roundoff can move V by a grid step.
Raising PRECONDITION_MIN_N past n gives the plain kernel on x, bit for bit.
On x the small sigma keep their high relative accuracy; on x V, forming
the product leaves an absolute error of about n eps sigma_max, so sigma_min
carries a relative error of up to about n eps kappa-hat <= ROUTE_TOL.
Spectra of matrices kept as x never touch BLAS.  Those of x V depend on the
BLAS kernel only when an entry of the eigenbasis lies within that kernel's
roundoff of a grid midpoint, which rint then sends the other way: rare,
but not ruled out (see `_preconditioned`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError
from .records import kappa
from .util import content_lines, finite, parse_file, parse_spec, power, token
from . import rational

_INT64_SAFE = 2**62

# Per-pair relative stopping threshold.  When every pair (p, q) satisfies
# |u_p . u_q| <= PAIR_TOL * |u_p| |u_q|, the Gram matrix is diagonal up to
# a relative perturbation of size n * PAIR_TOL, so summing over at most
# n^2/2 pairs keeps the aggregate off-diagonal residual below
# 1e-13 * ||A||_F^2 for every n this package targets (n <= 2000).
PAIR_TOL = 1e-14
RESIDUAL_TOL = 1e-13
MAX_SWEEPS = 60
COLUMN_FLOOR2 = 1e-200  # squared column norm under this times ||A||_F^2 is noise
# sigma_min > this * sigma_max clears an integer matrix: Jacobi's sigma are off by
# about n eps sigma_max at most (Weyl), and this is over 200 n eps at n = 2000
SINGULAR_RTOL = 1e-10
# svd_stack's preconditioner and its route rule (see _preconditioned).  Under
# PRECONDITION_MIN_N a stack of 2^16 / n^2 matrices (an experiment's chunk)
# sweeps as x about as fast or faster than it takes the per-matrix eigh and
# einsums: preconditioned, n <= 13 took 0.95-2.4 times the plain sweep's
# time, n >= 16 0.34-0.94 times
PRECONDITION_MIN_N = 16
EIGENBASIS_GRID = 2.0**26
ROUTE_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_FROB2_MIN, _FROB2_MAX = float(np.finfo(float).tiny), math.sqrt(np.finfo(float).max)


@dataclass(frozen=True, slots=True)
class IntegerMatrix:
    """Square integer matrix; entry_bound is its largest |entry|."""

    entries: np.ndarray
    entry_bound: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        if arr.dtype != np.int64:
            # checked in Python numbers: a cast would wrap uint64 past 2^63 - 1,
            # floats and Python ints outside [-2^63, 2^63), and infinities
            try:
                arr = np.array(rational.whole_numbers(arr.ravel().tolist()), dtype=np.int64).reshape(arr.shape)
            except OverflowError:
                raise ValidationError("an entry overflows the 64-bit range") from None
        arr = arr.astype(np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        # in Python ints: np.abs(-2**63) wraps to -2**63 in int64
        object.__setattr__(self, "entry_bound", max(int(arr.max()), -int(arr.min())))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, slots=True)
class RealMatrix:
    """Square float matrix; every entry must be finite."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("matrix has non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _entries(m) -> np.ndarray:
    """The entries as stored (int64 or float), read-only; anything else is
    checked and converted to a RealMatrix's floats."""
    if isinstance(m, (IntegerMatrix, RealMatrix)):
        return m.entries
    return RealMatrix(m).entries


def _head(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first prod(shape) items of a flat buffer, as a C-contiguous view."""
    return buf[:math.prod(shape)].reshape(shape)


def _views(buf: np.ndarray, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """One of `svd_stack`'s buffers and a stack of `count` in it."""
    return buf, _head(buf, (n, count, n))


@dataclass(frozen=True, slots=True)
class SingularSpectrum:
    """All singular values, descending, the final Jacobi residual and sweep
    count, and the singular verdict `svd_stack` gives by input type: for an
    IntegerMatrix exactly det = 0 (SINGULAR_RTOL clears most, the rational
    elimination decides the rest), else sigma_min = 0, since the COLUMN_FLOOR2
    floor puts every nonzero sigma_min above 1e-100 sigma_max.  The residual
    and sweep count are those of the Jacobi run that produced sigma: on x V
    when `svd_stack` preconditioned the matrix, on x when its route rule kept
    x, relative to the Frobenius norm of what was swept.  A matrix leaves the
    stack at the Gram test of the sweep that would rotate nothing in it; the
    count includes that sweep, which the test stands in for, and the residual
    is the one that sweep would sum, so both are the plain Jacobi run's."""

    sigma: tuple[float, ...]
    convergence_residual: float
    sweeps: int  # sweeps, the last (rotation-free) one, or the Gram test in its place, included; 0 for the zero matrix
    singular: bool

    def __post_init__(self):
        sig = tuple(map(float, self.sigma))
        if any(s < 0 for s in sig):
            raise ValidationError("negative singular value")
        if any(sig[i] < sig[i + 1] for i in range(len(sig) - 1)):
            raise ValidationError("singular values not sorted descending")
        object.__setattr__(self, "sigma", sig)

    @property
    def sigma_max(self) -> float:
        return self.sigma[0]

    @property
    def sigma_min(self) -> float:
        return self.sigma[-1]

    @property
    def kappa(self) -> float:
        """sigma_max / sigma_min by `records.kappa`: +inf when singular or sigma_min = 0."""
        return kappa(self.sigma_max, self.sigma_min, self.singular)


@functools.lru_cache(maxsize=None)
def _round_robin_layouts(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`svd_stack`'s deterministic all-pairs schedule, rounds of disjoint pairs
    (n - 1 of them, n at odd n, so one with no pair at n = 1), over the start
    order, the first round's column order: per round its layout, the rows of
    the start order that its order takes (its ps, its qs, then the column
    left over at odd n), and the inverse, the row that each start-order row
    takes in it, so a stack laid out for round r reaches round t's layout by
    the one gather places[r][layouts[t]]; per round that gather from the round
    before, steps[t] = places[t - 1][layouts[t]] (round 0's from the last
    round); and per round the flat indices of its pairs above the diagonal of
    an n x n Gram matrix in the start order.  Cached per n, read-only, in the
    narrowest index types: about 4 n^2 bytes a size up to n = 255, 8 n^2
    beyond.  Built in Python: numpy's set routines would add about 1.7 MB to
    every run's peak RSS."""
    m = n + n % 2
    idx = list(range(m))
    orders = []
    for _ in range(m - 1):
        pairs = [sorted((idx[k], idx[m - 1 - k])) for k in range(m // 2)]
        paired = [pair[i] for i in (0, 1) for pair in pairs if pair[1] < n]  # ps, then qs
        orders.append(paired + sorted(set(range(n)).difference(paired)))
        idx = [idx[0]] + [idx[-1]] + idx[1:-1]
    start = orders[0]
    row = {col: i for i, col in enumerate(start)}
    layouts = [[row[col] for col in order] for order in orders]
    places = [sorted(range(n), key=layout.__getitem__) for layout in layouts]
    steps = [[places[r - 1][row] for row in layout] for r, layout in enumerate(layouts)]
    pairs = [[min(p, q) * n + max(p, q) for p, q in zip(x[:n // 2], x[n // 2:2 * (n // 2)])] for x in layouts]
    # in the narrowest index types: they hold n^2 entries each
    schedule = (*(np.array(x, dtype=np.min_scalar_type(n)) for x in (start, layouts, places, steps)),
                np.array(pairs, dtype=np.min_scalar_type(n * n)))
    for index in schedule:
        index.setflags(write=False)  # every svd call of this size shares them
    return schedule


def svd(m) -> SingularSpectrum:
    """Full singular spectrum by one-sided Jacobi rotations: `svd_stack` of one matrix."""
    return svd_stack([m])[0]


def _preconditioned(x: np.ndarray) -> np.ndarray:
    """x V, the matrix `svd_stack` sweeps in place of x, or x itself when the
    route rule keeps x.

    V is the eigenbasis of x^T x from LAPACK, rounded to multiples of
    1 / EIGENBASIS_GRID and made orthogonal again by one Newton-Schulz step,
    V <- 1.5 V - 0.5 V (V^T V).  V^T V runs in BLAS, since it is exact: each
    entry of the rounded V is m / 2^26 with |m| <= 2^26, so every product is
    a multiple of 2^-52, and every partial sum of a column pair, in any order,
    is a multiple of 2^-52 below |v_i| |v_j| < 2 in magnitude, which a double
    holds exactly; every BLAS kernel gives einsum's bits.  V (V^T V) and the
    product x V are not exact and run in einsum, so x V depends on the BLAS
    kernel that computed the eigenbasis only where an entry lies within that
    kernel's roundoff of a grid midpoint: 2 of 2000 draws at n = 50 and 2 of
    600 at n = 100 (gaussian and graded bernoulli) moved under OpenBLAS's
    Prescott kernel against the default, none under Haswell.  The rule keeps
    x when n < PRECONDITION_MIN_N, when its Gram matrix is not finite, when
    the smallest eigenvalue lambda_min is <= 0 (the zero matrix and singular
    integer draws), when n eps kappa-hat > ROUTE_TOL, kappa-hat =
    sqrt(lambda_max / lambda_min) (the ill-conditioned tail, where the
    roundoff of forming x V, about n eps sigma_max, is no longer small
    against sigma_min), and when two eigenvalues are within
    n eps EIGENBASIS_GRID lambda_max of each other: the eigenvectors of such
    a pair are fixed by LAPACK's roundoff only to about a grid step, and an
    exact tie leaves their basis to the BLAS kernel.
    """
    if len(x) < PRECONDITION_MIN_N:
        return x
    y = x.astype(float, copy=False)
    gram = y.T @ y
    if not np.all(np.isfinite(gram)):
        return x
    lam, v = np.linalg.eigh(gram)
    n_eps = len(x) * _EPS
    if (not lam[0] > 0.0 or n_eps * math.sqrt(lam[-1] / lam[0]) > ROUTE_TOL
            or np.diff(lam).min(initial=math.inf) <= n_eps * EIGENBASIS_GRID * lam[-1]):
        return x
    v = np.rint(v * EIGENBASIS_GRID) / EIGENBASIS_GRID
    v = 1.5 * v - 0.5 * np.einsum("ik,kj->ij", v, v.T @ v)
    return np.einsum("ik,kj->ij", y, v)


def _rotate(ap: np.ndarray, aq: np.ndarray, c: np.ndarray | None, s: np.ndarray,
            sp: np.ndarray, sq: np.ndarray) -> None:
    """ap, aq <- c ap - s aq, s ap + c aq in place, by the same products and
    sums, with sp and sq taking s ap and s aq: s, and then c, is copied into
    one of them first, so that only ap *= c reads a stride-0 operand.  c is
    None when every c is 1.0: then ap, aq <- ap - s aq, s ap + aq, which
    leaves out the products by c, each exact (signed zeros included), so
    the values are the same and no operand is stride-0."""
    np.copyto(sp, s)
    np.multiply(sp, aq, out=sq)
    sp *= ap
    if c is None:
        ap -= sq
        aq += sp
        return
    ap *= c
    ap -= sq
    np.copyto(sq, c)
    aq *= sq
    aq += sp


def _round(a: np.ndarray, buf: np.ndarray, off2: np.ndarray | None) -> tuple[np.ndarray, int]:
    """One round on the ps and qs blocks that lead a stack `a`, in place: the
    pair test of every pair, each matrix's sum of apq^2 into off2 (when
    given), and the rotations of the pairs that fail the test.  When at most
    half of the (pair, matrix) slots fail, only theirs rotate: their ps and
    qs columns are gathered into the idle buffer `buf`, rotated there beside
    their two products and put back, and the four fit, 4 (h B / 2) n <= B n^2
    for h pairs and B matrices.  Otherwise the whole blocks rotate, their
    products in `buf`, and a slot that passes gets t = 0: c = 1, s = 0.
    When every 1 + t^2 rounds to 1 (t^2 <= 2^-53, as on nearly every
    round of a preconditioned x V, whose rotations are near-identity), every
    c = 1 / sqrt(1 + t^2) is 1.0 and s = t c is t, bit for bit, so the round
    hands `_rotate` c = None and s = t; a masked slot's t = 0 counts as one
    of them.  Returns the test's mask and its count."""
    half, n = len(a) // 2, a.shape[2]
    ap, aq = a[:half], a[half:2 * half]
    norms2 = np.einsum("jbi,jbi->bj", a[:2 * half], a[:2 * half], order="C")
    app, aqq = norms2[:, :half], norms2[:, half:]
    apq = np.einsum("jbi,jbi->bj", ap, aq, order="C")
    if off2 is not None:
        off2 += np.add.reduce(apq * apq, axis=1)
    mask = np.abs(apq) > PAIR_TOL * np.sqrt(app * aqq)
    count = np.count_nonzero(mask)
    if not count:
        return mask, count
    compact = 2 * count <= mask.size
    if compact:  # by slot, pair-major like the blocks
        fails = mask.T
        app, aqq, apq = app.T[fails], aqq.T[fails], apq.T[fails]
    partial = not compact and count < mask.size
    if partial:
        apq = np.where(mask, apq, 1.0)  # keeps theta finite where t is zeroed
    theta = (aqq - app) / (2.0 * apq)
    sgn = np.where(theta >= 0.0, 1.0, -1.0)
    t = sgn / (np.abs(theta) + np.hypot(1.0, theta))
    if partial:
        t = np.where(mask, t, 0.0)
    w = 1.0 + t * t
    c = None if w.max() == 1.0 else 1.0 / np.sqrt(w)
    s = t if c is None else t * c
    if not compact:
        _rotate(ap, aq, c if c is None else c.T[:, :, None], s.T[:, :, None], *_head(buf, (2, *ap.shape)))
        return mask, count
    c, s = c if c is None else c[:, None], s[:, None]
    slots, rows_p, rows_q = np.flatnonzero(fails), ap.reshape(-1, n), aq.reshape(-1, n)
    gp, gq, sp, sq = _head(buf, (4, count, n))
    np.take(rows_p, slots, axis=0, out=gp, mode="clip")
    np.take(rows_q, slots, axis=0, out=gq, mode="clip")
    _rotate(gp, gq, c, s, sp, sq)
    rows_p[slots] = gp
    rows_q[slots] = gq
    return mask, count


def _gram_test(a: np.ndarray, quiet: np.ndarray, whole: bool, flat_pairs: np.ndarray,
               buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Gram test of a stack laid out in the start order: the kernel's
    pair test, |g_pq| > PAIR_TOL sqrt(g_pp g_qq), of every pair of every
    matrix, from the Gram matrices of the whole stack or of its `quiet`
    matrices alone, in the idle buffer `buf`.  Only their diagonals and upper
    triangles are formed, by the einsum in blocks of rows; the thresholds
    are built below the diagonal, over whatever the buffer held there, so
    the test reads nothing there that it did not write, and it allocates
    one boolean per entry and nothing the size of the stack.  Returns the
    quiet matrices with no failing pair, the off-diagonal sum of each over
    a sweep (each round's pairs in the round's order, the rounds one after
    another, as the sweep sums it), which pairs fail in some tested matrix
    (by start-order rows, both ways) and the tested matrices' squared
    column norms."""
    n = len(a)
    sel = np.arange(a.shape[1]) if whole else np.flatnonzero(quiet)
    sub = a if whole else np.take(a, sel, axis=1, out=_head(buf, (n, len(sel), n)), mode="clip")
    gram = _head(buf[0 if whole else sub.size:], (len(sel), n, n))
    # 8 rows a block: each block's entries are the full einsum's sums, only its
    # corner below the diagonal is wasted work, and n / 8 calls keep numpy's
    # per-call cost small (4 rows cost more at n = 100, 16 more at n = 20)
    for lo in range(0, n, 8):
        np.einsum("jbi,kbi->bjk", sub[lo:lo + 8], sub[lo:], out=gram[:, lo:lo + 8, lo:])
    norms2 = np.einsum("bjj->bj", gram).copy()
    upper, lower = np.less.outer(np.arange(n), np.arange(n)), np.greater.outer(np.arange(n), np.arange(n))
    np.copyto(gram, norms2[:, :, None], where=lower)
    np.multiply(gram, norms2[:, None, :], out=gram, where=lower)
    np.sqrt(gram, out=gram, where=lower)
    np.multiply(gram, PAIR_TOL, out=gram, where=lower)
    np.abs(gram, out=gram, where=upper)
    fails = np.greater(gram, gram.transpose(0, 2, 1), out=np.zeros(gram.shape, dtype=bool), where=upper)
    clean = np.flatnonzero(quiet[sel] & ~np.logical_or.reduce(fails, axis=(1, 2)))
    failing = np.logical_or.reduce(fails, axis=0)
    del fails
    failing |= failing.T
    # above the diagonal the Gram matrices hold |g_pq|, whose square is g_pq^2:
    # the sums over the tested matrices that span the clean ones, a quarter
    # of them at a time, whose pairs take no more bytes than fails did
    grams, step, off2 = gram.reshape(len(sel), n * n), max(1, len(sel) // 4), np.empty(len(sel))
    for lo in range(clean[0], clean[-1] + 1, step) if len(clean) else ():
        apq2 = np.take(grams[lo:lo + step], flat_pairs, axis=1)
        off2[lo:lo + step] = np.add.accumulate(np.add.reduce(np.square(apq2, out=apq2), axis=2), axis=1)[:, -1]
    return sel[clean], off2[clean], failing, norms2


def _refresh(a: np.ndarray, cols: np.ndarray, layout: np.ndarray, norms2: np.ndarray,
             failing: np.ndarray, buf: np.ndarray) -> None:
    """After the columns at rows `cols` of a stack laid out as `layout` have
    rotated, their squared norms into `norms2` and their pair tests against
    every column into `failing` (any matrix), both by start-order rows, from
    their rows of the Gram matrices by one einsum.  The gathered columns,
    the Gram rows and the thresholds are views of the idle buffer `buf`,
    which holds them while len(cols) <= n / 2."""
    k, count, n = len(cols), a.shape[1], a.shape[0]
    cut = np.take(a, cols, axis=0, out=_head(buf, (k, count, n)), mode="clip")
    rows = np.einsum("jbi,kbi->bjk", cut, a, out=_head(buf[cut.size:], (count, k, n)))
    own = rows[:, np.arange(k), cols]
    norms2[:, layout[cols]] = own
    bound = np.einsum("bj,bk->bjk", own, norms2[:, layout], out=_head(buf, (count, k, n)))  # app aqq
    np.sqrt(bound, out=bound)
    bound *= PAIR_TOL
    fails = np.logical_or.reduce(np.abs(rows, out=rows) > bound, axis=0)
    failing[layout[cols, None], layout] = fails
    failing[layout, layout[cols, None]] = fails


def _sigmas(done: np.ndarray, buf: np.ndarray) -> list[list[float]]:
    """The singular values of a column-major stack `done` of converged
    matrices, each descending: their column norms, squared and summed down
    the rows of row-major copies, made by one transposed copy into `buf`,
    as np.linalg.norm sums them."""
    rows = _head(buf, (done.shape[1], len(done), len(done)))
    np.copyto(rows, done.transpose(1, 2, 0))
    return np.sort(np.sqrt(np.add.reduce(np.square(rows, out=rows), axis=1)), axis=1)[:, ::-1].tolist()


def svd_stack(ms: Sequence) -> list[SingularSpectrum]:
    """Full singular spectra of equal-size square matrices by one-sided
    Jacobi rotations, preconditioned, swept together as one stack.

    Each matrix x is swept as `_preconditioned` hands it over: x V, whose
    sigma are those of x up to V's departure from orthogonality, a few eps,
    and the roundoff of forming x V, about n eps sigma_max; or x itself.
    Each matrix is preconditioned on its own.  A nonzero one whose swept
    ||A||_F^2 is outside [tiny, sqrt(max)] of float64 raises ValidationError.

    Sweeps run in a fixed round-robin order; each round rotates a set of
    disjoint column pairs simultaneously (the rotations commute), in every
    matrix of the stack at once.  A matrix is done once a full sweep would
    perform no rotation in it, i.e. all its column pairs are orthogonal to
    relative tolerance PAIR_TOL, which drives its off-diagonal Gram residual
    below RESIDUAL_TOL * ||A||_F^2; it then leaves the stack.  That sweep
    is not run: the first round of every sweep probes it, and a matrix
    that round leaves alone goes to the Gram test (`_gram_test`), which
    evaluates every pair test of the sweep from the upper triangle of its
    Gram matrix.  A matrix with no failing pair leaves there, with the
    sigma and residual that the rotation-free sweep would have given and
    that sweep counted in `sweeps`, so every field is what the sweep gives.
    When the probe left most of the stack quiet, the test covers the whole
    stack and also says which rounds have a failing pair in some matrix:
    the sweep runs only those rounds, refreshing the tests of the columns
    each one rotates (`_refresh`), so a round is skipped only when it would
    rotate nothing.  The last sweep runs every round and sums its residual,
    which ConvergenceError reports.  At n = 1 the one round has no pair, and
    the Gram test retires every matrix.

    The stack is column-major, columns outermost: a[j, b] is a column of
    matrix b, one contiguous row, in the round's column order, so the
    round's ps and qs columns are two contiguous blocks; each round is one
    gather from the layout of the last round run (`_round_robin_layouts`
    caches the step from the round before) and a rotation in place
    (`_round`): of the whole ps and qs blocks when more than half of the
    round's (pair, matrix) slots fail, else of the failing slots' columns
    alone, gathered and put back.  The stack lives in one of two flat
    buffers allocated once per call, and every array as large as it is a
    view of the other, idle one: the gather (the buffers then swap), the
    rotation products or the gathered columns beside them, the row-major
    copy for the dead-column test, the Gram matrices and the compaction
    when matrices leave, which gathers the leaving ones beside the rest and
    swaps the buffers, so that their row-major copies for sigma go into the
    one it frees.  So a call holds about twice its
    stack's bytes.  The inputs are written straight into the first buffer
    in start-column order.
    Each matrix keeps its own off-diagonal sum, dead-column floor and sweep
    count.  Every reduction runs in the order a lone row-major matrix
    takes: ||A||_F^2 along the matrix's rows, pair sums along one
    contiguous column (einsum, whose Gram entries are the same sums; numpy
    lays out the gathered columns a[:, ps] of a row-major matrix
    column-contiguous too, so the sums are the same), the off-diagonal sum
    along one matrix's row of pairs (the per-pair arrays are (B, pairs),
    row-major), and column norms down the rows of a row-major copy.  A
    rotation takes the same products and sums in the same order on every
    path.  A pair that does not rotate is left alone, or, when the whole
    blocks rotate, gets c = 1, s = 0, which changes at most the sign of a
    zero entry, so each spectrum is the same, bit for bit, whatever else is
    stacked with it.  A matrix still rotating after MAX_SWEEPS
    sweeps raises ConvergenceError with its residual (the first such matrix
    in `ms`).
    The integer matrices that SINGULAR_RTOL does not clear go through one
    exact elimination together for their verdict (see SingularSpectrum).
    """
    if not len(ms):
        return []
    spectra = _sweep_stack(ms)
    exact = [i for i, (m, (sigma, _, _)) in enumerate(zip(ms, spectra))
             if isinstance(m, IntegerMatrix) and not sigma[-1] > SINGULAR_RTOL * sigma[0]]
    flags = dict(zip(exact, rational.singular_flags([ms[i].entries for i in exact])))
    return [SingularSpectrum(*s, flags.get(i, s[0][-1] == 0.0)) for i, s in enumerate(spectra)]


def _sweep_stack(ms: Sequence) -> list[tuple[list[float], float, int]]:
    """`svd_stack`'s (sigma, residual, sweeps) per matrix; its buffers go when it returns."""
    n = _entries(ms[0]).shape[0]
    start, layouts, places, steps, flat_pairs = _round_robin_layouts(n)
    half = n // 2
    held = np.empty(len(ms) * n * n)
    # column-major: a[j, b] is column start[j] of matrix b, one contiguous row
    a = _head(held, (n, len(ms), n))
    frob2 = np.empty(len(ms))
    for b, m in enumerate(ms):
        x = _entries(m)
        if x.shape != (n, n):
            sizes = sorted({_entries(m).shape[0] for m in ms})
            raise ValidationError(f"svd_stack needs matrices of one size, got sizes {sizes}")
        x = _preconditioned(x)
        frob2[b] = np.add.reduce(np.square(x, dtype=float).ravel())
        if not _FROB2_MIN <= frob2[b] <= _FROB2_MAX and (frob2[b] or x.any()):
            raise ValidationError(f"matrix {b}: ||A||_F^2 = {frob2[b]:.3e} overflows or underflows the pair test")
        a[:, b] = x.T[start]
    del x  # the last x V is not held through the sweeps
    idle = np.empty(len(ms) * n * n)  # allocated once the preconditioner's temporaries are gone
    spectra: list[tuple | None] = [([0.0] * n, 0.0, 0) if f == 0.0 else None for f in frob2]
    live = np.flatnonzero(frob2 != 0.0)  # index in ms of each matrix left in the stack
    a = np.take(a, live, axis=1, out=_head(idle, (n, len(live), n)), mode="clip")
    held, idle, frob2 = idle, held, frob2[live]
    at = 0  # the round whose layout the stack is in: the first round's
    for sweep in range(MAX_SWEEPS):
        if not len(live):
            break
        # columns squeezed this far below ||A||_F are pure roundoff debris
        # (their true singular value is 0 at this precision); zeroing them
        # stops the rotation pair test from chasing denormal residue
        rows = _head(idle, (len(live), n, n))
        np.copyto(rows, a.transpose(1, 2, 0))
        dead = np.einsum("bij,bij->bj", rows, rows) <= COLUMN_FLOOR2 * frob2[:, None]
        a.transpose(1, 0, 2)[dead] = 0.0
        # this sweep's views of the buffer that holds the stack and of the idle one
        here, there = _views(held, n, len(live)), _views(idle, n, len(live))
        # off2 is summed only by the last sweep, for ConvergenceError: every
        # other residual comes from the Gram test
        last = sweep == MAX_SWEEPS - 1
        off2 = np.zeros(len(live))
        skip = False
        for r, layout in enumerate(layouts):
            if skip and not failing.take(flat_pairs[r]).any():
                continue
            if r != at:  # one step from the round before, or from the last round run
                step = steps[r] if at == (r - 1) % len(layouts) else places[at][layout]
                np.take(here[1], step, axis=0, out=there[1], mode="clip")
                here, there, at = there, here, r
            a = here[1]
            mask, count = _round(a, there[0], off2 if last else None)
            if r == 0:
                # The first round probes the sweep: a matrix it left alone
                # (quiet) fails no pair at all, or it rotates later in this
                # sweep, and the Gram test tells which.  It tests the whole
                # stack when this round left most matrices quiet, and the
                # sweep then skips the rounds with no failing pair while the
                # columns it refreshes number at most n / 2 (half a Gram's
                # einsum work).
                quiet = ~np.logical_or.reduce(mask, axis=1)
                budget = n // 2
                whole = 2 * np.count_nonzero(quiet) > len(live)
                if not (whole or quiet.any()):
                    continue
                clean, clean_off2, failing, norms2 = _gram_test(a, quiet, whole, flat_pairs, there[0])
                skip = whole and not last
                if not len(clean):
                    continue
                # the matrices that stay and those that leave, gathered side
                # by side into the idle buffer, free the stack's buffer for
                # the leaving ones' row-major copies
                keep = np.delete(np.arange(len(live)), clean)
                done = np.take(a, clean, axis=1, out=_head(there[0][len(keep) * n * n:], (n, len(clean), n)),
                               mode="clip")
                a = np.take(a, keep, axis=1, out=_head(there[0], (n, len(keep), n)), mode="clip")
                for b, b_sigma, b_off2 in zip(clean, _sigmas(done, here[0]), clean_off2):
                    spectra[live[b]] = (b_sigma, math.sqrt(b_off2) / float(frob2[b]), sweep + 1)
                here, there = _views(there[0], n, len(keep)), _views(here[0], n, len(keep))
                live, frob2, off2 = live[keep], frob2[keep], off2[keep]
                if skip:
                    norms2 = norms2[keep]
                if not len(live):
                    break
            elif skip and count:
                pairs = np.flatnonzero(np.logical_or.reduce(mask, axis=0))
                budget -= 2 * len(pairs)
                skip = budget >= 0
                if skip:
                    _refresh(a, np.concatenate((pairs, half + pairs)), layout, norms2, failing, there[0])
        held, idle = here[0], there[0]
    if len(live):
        residual = math.sqrt(off2[0]) / float(frob2[0])
        raise ConvergenceError(
            f"Jacobi sweep budget exhausted (residual {residual:.3e})", residual=residual
        )
    return spectra


def frobenius_norm(m) -> float:
    a = _entries(m).astype(float, copy=False)
    return float(np.sqrt(np.sum(a * a)))


def perturb(
    m: IntegerMatrix, noise: IntegerMatrix, mask: np.ndarray | None = None
) -> IntegerMatrix:
    """Entrywise m + noise; where mask is True the entry is frozen (no noise)."""
    if m.n != noise.n:
        raise ValidationError(f"shape mismatch: {m.n} vs {noise.n}")
    if m.entry_bound + noise.entry_bound > _INT64_SAFE:
        raise ValidationError("entry bounds too large for 64-bit addition")
    add = noise.entries.copy()
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != m.entries.shape:
            raise ValidationError(f"mask shape {mask.shape} does not match matrix")
        add[mask] = 0
    return IntegerMatrix(m.entries + add)


# ---------------------------------------------------------------------------
# base matrices M: worst-case inputs or a matrix file

_MATRIX_ARGS = {"zero": None, "graded_diagonal": None, "rank_one_ones": None,
                "duplicated_column": None, "file": (str, None)}


def matrix_from_spec(spec: str, n: int, c_exponent: float | None = None) -> IntegerMatrix:
    """The n x n base matrix named by a matrix spec: 'zero',
    'graded_diagonal' (powers of two capped at n^C, C = 1 by default),
    'rank_one_ones', 'duplicated_column', or 'file:<path>'."""
    head, path = parse_spec(spec, "matrix", _MATRIX_ARGS)
    if n < 1:
        raise ValidationError(f"matrix size {n} < 1")
    if head == "zero":
        return IntegerMatrix(np.zeros((n, n), dtype=np.int64))
    if head == "graded_diagonal":
        c = 1.0 if c_exponent is None else finite("C", c_exponent)
        if c < 0:
            raise ValidationError(f"exponent C = {c} < 0")
        cap = max(1, math.floor(power("C", n, c)))
        diag = [min(2**i if i < 63 else cap, cap) for i in range(n)]
        return IntegerMatrix(np.diag(np.array(diag, dtype=np.int64)))
    if head == "rank_one_ones":
        return IntegerMatrix(np.ones((n, n), dtype=np.int64))
    if head == "duplicated_column":
        a = np.eye(n, dtype=np.int64)
        if n >= 2:
            a[:, n - 1] = a[:, 0]
        return IntegerMatrix(a)
    loaded = load_integer_matrix(path)
    if loaded.n != n:
        raise ValidationError(f"{path}: the matrix is {loaded.n}x{loaded.n}, expected {n}")
    return loaded


# ---------------------------------------------------------------------------
# matrix file format: first line n, then n rows of n integers.


def _parse_integer_matrix(text: str) -> IntegerMatrix:
    lines = list(content_lines(text))
    if not lines or len(lines[0][1]) != 1:
        raise ValidationError("the first line must be the matrix size n")
    (first, (size,)), *rows = lines
    n = token(first, size)
    if n < 1:
        raise ValidationError(f"line {first}: matrix size {n} < 1")
    values = [token(lineno, tok) for lineno, row in rows for tok in row]
    if len(values) != n * n:
        raise ValidationError(f"expected {n * n} entries, found {len(values)}")
    return IntegerMatrix(np.array(values).reshape(n, n))


def load_integer_matrix(path: str) -> IntegerMatrix:
    return parse_file(path, _parse_integer_matrix)


def save_integer_matrix(path: str, m: IntegerMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.n}\n")
        for row in m.entries:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def exact_inverse_norm(m: IntegerMatrix) -> float:
    """The 2-norm of the exact rational inverse, rounded once to floats, by
    LAPACK: a dual route to 1/sigma_min that shares nothing with the Jacobi
    kernel it checks."""
    return float(np.linalg.norm(np.array(rational.invert_exact(m.entries), dtype=float), 2))
