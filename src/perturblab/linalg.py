"""Matrix types, singular spectra, and base matrices by spec.

The SVD here is a one-sided Jacobi iteration built from scratch: column
pairs are rotated until all pairwise column inner products vanish, at
which point the column norms are the singular values.  One-sided Jacobi
computes small singular values to high *relative* accuracy (the stopping
rule is relative per pair), which matters because the quantities under
study are tail events of 1/sigma_min.  `svd_stack` sweeps many matrices
of one size together, so that numpy's per-call cost, which dominates at
the sizes studied here, is paid once per stack; `svd` is a stack of one.
The stack is held column-major, in the current round's column order, so
a round costs one contiguous gather and no scatter.  It lives in one of two
flat buffers allocated once per call, and every temporary as large as the
stack is a view of the other, so a call holds about twice its stack's bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError
from .util import content_lines, parse_file, parse_spec, token
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
                whole = rational.whole_numbers(arr.ravel().tolist())
            except OverflowError:
                raise ValidationError("an entry overflows the 64-bit range") from None
            if any(not -(2**63) <= x < 2**63 for x in whole):
                raise ValidationError("an entry overflows the 64-bit range")
            arr = np.array(whole, dtype=np.int64).reshape(arr.shape)
        arr = arr.astype(np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        # in Python ints: np.abs(-2**63) wraps to -2**63 in int64
        object.__setattr__(self, "entry_bound", max(int(arr.max()), -int(arr.min())))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def rows(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.entries]


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


def _as_real_array(m) -> np.ndarray:
    """The entries as floats; read-only unless converted from integers."""
    return _entries(m).astype(float, copy=False)


def _head(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first prod(shape) items of a flat buffer, as a C-contiguous view."""
    return buf[:math.prod(shape)].reshape(shape)


def _views(buf: np.ndarray, n: int, count: int) -> tuple[np.ndarray, ...]:
    """A sweep's views of one of `svd_stack`'s buffers: the buffer, a stack of
    `count` in it with its ps and qs halves, and the two rotation products it
    takes while the other buffer holds the stack."""
    half = n // 2
    a = _head(buf, (n, count, n))
    sp, sq = _head(buf, (2, half, count, n))
    return buf, a, a[:half], a[half:2 * half], sp, sq


@dataclass(frozen=True, slots=True)
class SingularSpectrum:
    """All singular values, descending, the final Jacobi residual and sweep
    count, and the singular verdict `svd_stack` gives by input type: for an
    IntegerMatrix exactly det = 0 (SINGULAR_RTOL clears most, the rational
    elimination decides the rest), else sigma_min = 0, since the COLUMN_FLOOR2
    floor puts every nonzero sigma_min above 1e-100 sigma_max."""

    sigma: tuple[float, ...]
    convergence_residual: float
    sweeps: int  # sweeps run, the last (rotation-free) one included; 0 for the zero matrix
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
        """sigma_max / sigma_min; +inf when singular or sigma_min = 0."""
        return math.inf if self.singular or self.sigma_min == 0.0 else self.sigma_max / self.sigma_min


def _round_robin_rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Deterministic all-pairs schedule: rounds of disjoint pairs (n-1 of them, n at odd n)."""
    m = n if n % 2 == 0 else n + 1
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for k in range(m // 2):
            a, b = idx[k], idx[m - 1 - k]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        if ps:
            rounds.append((np.array(ps), np.array(qs)))
        idx = [idx[0]] + [idx[-1]] + idx[1:-1]
    return tuple(rounds)


@functools.lru_cache(maxsize=None)
def _round_robin_gathers(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """`svd_stack`'s start order, the last round's, and per round the gather
    from the previous round's order to this one's: its ps, its qs, then the
    column left over at odd n.  Cached per n, read-only.  Built in Python:
    numpy's set routines would add about 1.7 MB to every run's peak RSS."""
    orders = []
    for ps, qs in _round_robin_rounds(n):
        paired = ps.tolist() + qs.tolist()
        orders.append(paired + sorted(set(range(n)).difference(paired)))
    start = np.array(orders[-1] if orders else range(n))
    gathers = []
    for prev, order in zip(orders[-1:] + orders, orders):
        position = {col: i for i, col in enumerate(prev)}
        gathers.append(np.array([position[col] for col in order]))
    for index in [start] + gathers:
        index.setflags(write=False)  # every svd call of this size shares them
    return start, tuple(gathers)


def svd(m) -> SingularSpectrum:
    """Full singular spectrum by one-sided Jacobi rotations: `svd_stack` of one matrix."""
    return svd_stack([m])[0]


def svd_stack(ms: Sequence) -> list[SingularSpectrum]:
    """Full singular spectra of equal-size square matrices by one-sided
    Jacobi rotations, swept together as one stack.

    Sweeps run in a fixed round-robin order; each round rotates a set of
    disjoint column pairs simultaneously (the rotations commute), in every
    matrix of the stack at once.  A matrix is done once a full sweep
    performs no rotation in it, i.e. all its column pairs are orthogonal
    to relative tolerance PAIR_TOL, which drives its off-diagonal Gram
    residual below RESIDUAL_TOL * ||A||_F^2; it then leaves the stack.

    The stack is column-major, columns outermost: a[j, b] is a column of
    matrix b, one contiguous row, in the round's column order, so the
    round's ps and qs columns are two contiguous blocks; each round is one
    gather (`_round_robin_gathers`) and a rotation in place.  The stack
    lives in one of two flat buffers allocated once per call, and every
    array as large as it is a view of the other, idle one: the gather (the
    buffers then swap), the two rotation products, the row-major copy for
    the dead-column test and the compaction when matrices leave (it swaps
    them too).  So a call holds about twice its stack's bytes, and the
    views a round needs are built once a sweep (`_views`).  The inputs are
    written straight into the first buffer in start-column order.
    Each matrix keeps its own rotated flag, off-diagonal sum, dead-column
    floor and sweep count.  Every reduction runs in the order a lone
    row-major matrix takes: ||A||_F^2 along the matrix's rows, pair sums
    along one contiguous column (einsum; numpy lays out the gathered
    columns a[:, ps] of a row-major matrix column-contiguous too, so the
    sums are the same), the off-diagonal sum along one matrix's row of
    pairs (the per-pair arrays are (B, pairs), row-major), and column norms
    down the rows of a row-major copy.  A pair that does not rotate gets
    c = 1, s = 0, which changes at most the sign of a zero entry, so each
    spectrum is the same, bit for bit, whatever else is stacked with it.
    A matrix still rotating after MAX_SWEEPS sweeps raises ConvergenceError
    with its residual (the first such matrix in `ms`).
    The integer matrices that SINGULAR_RTOL does not clear go through one
    exact elimination together for their verdict (see SingularSpectrum).
    """
    if not len(ms):
        return []
    n = _entries(ms[0]).shape[0]
    start, gathers = _round_robin_gathers(n)
    held, idle = np.empty(len(ms) * n * n), np.empty(len(ms) * n * n)
    # column-major: a[j, b] is column start[j] of matrix b, one contiguous row
    a = _head(held, (n, len(ms), n))
    frob2 = np.empty(len(ms))
    for b, m in enumerate(ms):
        x = _entries(m)
        if x.shape != (n, n):
            sizes = sorted({_entries(m).shape[0] for m in ms})
            raise ValidationError(f"svd_stack needs matrices of one size, got sizes {sizes}")
        frob2[b] = np.add.reduce(np.square(x, dtype=float).ravel())
        a[:, b] = x.T[start]
    # (sigma, residual, sweeps) per matrix, the verdict comes last
    spectra: list[tuple | None] = [([0.0] * n, 0.0, 0) if f == 0.0 else None for f in frob2]
    live = np.flatnonzero(frob2 != 0.0)  # index in ms of each matrix left in the stack
    if len(live) < len(ms):
        a = np.take(a, live, axis=1, out=_head(idle, (n, len(live), n)), mode="clip")
        held, idle, frob2 = idle, held, frob2[live]
    off2 = np.zeros(len(live))
    for sweep in range(MAX_SWEEPS):
        if not len(live):
            break
        # this sweep's views of the buffer that holds the stack and of the idle one
        here, there = _views(held, n, len(live)), _views(idle, n, len(live))
        # columns squeezed this far below ||A||_F are pure roundoff debris
        # (their true singular value is 0 at this precision); zeroing them
        # stops the rotation pair test from chasing denormal residue
        rows = _head(idle, (len(live), n, n))
        np.copyto(rows, a.transpose(1, 2, 0))
        dead = np.einsum("bij,bij->bj", rows, rows) <= COLUMN_FLOOR2 * frob2[:, None]
        if dead.any():
            a.transpose(1, 0, 2)[dead] = 0.0
        # `rotated` is kept per matrix until every matrix has rotated this
        # sweep (`every`).  Rounds where every pair rotates are the common
        # case and skip the flags and the t = 0 masking; without these short
        # cuts a stack of one (n >= 91) runs about 11% slower at n = 100.
        rotated = np.zeros(len(live), dtype=bool)
        every = False
        # off2 is reported only by a sweep with no rotation, or by the last
        # sweep when the budget runs out; once every matrix has rotated,
        # the sweep stops summing it
        last = sweep == MAX_SWEEPS - 1
        off2 = np.zeros(len(live))
        for gather in gathers:
            np.take(a, gather, axis=0, out=there[1], mode="clip")
            here, there = there, here
            _, a, ap, aq, _, _ = here
            app = np.einsum("jbi,jbi->bj", ap, ap, order="C")
            aqq = np.einsum("jbi,jbi->bj", aq, aq, order="C")
            apq = np.einsum("jbi,jbi->bj", ap, aq, order="C")
            if last or not every:
                off2 += np.add.reduce(apq * apq, axis=1)
            mask = np.abs(apq) > PAIR_TOL * np.sqrt(app * aqq)
            count = np.count_nonzero(mask)
            if not count:
                continue
            partial = count < mask.size
            if not partial:
                every = True
            else:  # the pairs that fail the test get t = 0: c = 1, s = 0
                if not every:
                    rotated |= np.logical_or.reduce(mask, axis=1)
                    every = bool(np.logical_and.reduce(rotated))
                apq = np.where(mask, apq, 1.0)  # keeps theta finite where t is zeroed
            theta = (aqq - app) / (2.0 * apq)
            sgn = np.where(theta >= 0.0, 1.0, -1.0)
            t = sgn / (np.abs(theta) + np.hypot(1.0, theta))
            if partial:
                t = np.where(mask, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = (t * c).T[:, :, None]
            c = c.T[:, :, None]
            # in place, the same products and sums as c ap - s aq and s ap + c aq
            sp, sq = there[4:]
            np.multiply(s, ap, out=sp)
            np.multiply(s, aq, out=sq)
            ap *= c
            ap -= sq
            aq *= c
            aq += sp
        held, idle = here[0], there[0]
        if every:
            continue
        for b in np.flatnonzero(~rotated):
            sigma = np.sort(np.linalg.norm(np.ascontiguousarray(a[:, b].T), axis=0))[::-1]
            spectra[live[b]] = (sigma.tolist(), math.sqrt(off2[b]) / float(frob2[b]), sweep + 1)
        keep = np.flatnonzero(rotated)
        a = np.take(a, keep, axis=1, out=_head(idle, (n, len(keep), n)), mode="clip")
        held, idle = idle, held
        live, frob2, off2 = live[keep], frob2[keep], off2[keep]
    if len(live):
        residual = math.sqrt(off2[0]) / float(frob2[0])
        raise ConvergenceError(
            f"Jacobi sweep budget exhausted (residual {residual:.3e})", residual=residual
        )
    exact = [i for i, (m, (sigma, _, _)) in enumerate(zip(ms, spectra))
             if isinstance(m, IntegerMatrix) and not sigma[-1] > SINGULAR_RTOL * sigma[0]]
    flags = dict(zip(exact, rational.singular_flags([ms[i].entries for i in exact])))
    return [SingularSpectrum(*s, flags.get(i, s[0][-1] == 0.0)) for i, s in enumerate(spectra)]


def operator_norm(m, tol: float = 1e-15, max_iter: int = 100_000) -> float:
    """Largest singular value by power iteration on the Gram matrix.

    Three deterministic starting vectors guard against a start that is
    orthogonal to the leading singular subspace; the largest estimate
    wins.  Accuracy rests on a nonnegligible spectral gap, which holds
    for the generic matrices this is applied to; tests cross-check
    against the Jacobi spectrum.
    """
    a = _as_real_array(m)
    n = a.shape[0]
    if not np.any(a):
        return 0.0
    best = 0.0
    starts = [
        np.ones(n),
        1.0 + np.arange(n) / (2.0 * n),
        np.cos(np.arange(n) + 1.0),
    ]
    for v in starts:
        nv = np.linalg.norm(v)
        if nv == 0:
            continue
        v = v / nv
        prev = 0.0
        for _ in range(max_iter):
            w = a @ v
            est = float(np.linalg.norm(w))
            if est == 0.0:
                break
            v = a.T @ w
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                break
            v /= nv
            if abs(est - prev) <= tol * est:
                break
            prev = est
        best = max(best, est)
    return best


def frobenius_norm(m) -> float:
    a = _as_real_array(m)
    return float(np.sqrt(np.sum(a * a)))


def condition_number(m) -> float:
    """sigma_max / sigma_min; +inf when `svd` calls the matrix singular."""
    spec = svd(m)
    if spec.sigma_max == 0.0:
        raise ValidationError("condition number of the zero matrix is undefined")
    return spec.kappa


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
        c = 1.0 if c_exponent is None else float(c_exponent)
        if c < 0:
            raise ValidationError(f"exponent C = {c} < 0")
        cap = max(1, math.floor(n**c))
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
    """Operator norm of the exact rational inverse (dual route to 1/sigma_min)."""
    inv = rational.invert_exact(m.rows())
    arr = np.array([[float(x) for x in row] for row in inv], dtype=float)
    return operator_norm(RealMatrix(arr))
