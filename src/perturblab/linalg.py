"""Matrix types, singular spectra, and worst-case inputs.

The SVD here is a one-sided Jacobi iteration built from scratch: column
pairs are rotated until all pairwise column inner products vanish, at
which point the column norms are the singular values.  One-sided Jacobi
computes small singular values to high *relative* accuracy (the stopping
rule is relative per pair), which matters because the quantities under
study are tail events of 1/sigma_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
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


@dataclass(frozen=True)
class IntegerMatrix:
    """Square integer matrix with its entry bound recorded at construction."""

    entries: np.ndarray
    entry_bound: int = 0

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.round(arr)):
                raise ValidationError("entries are not integers")
            arr = arr.astype(np.int64)
        arr = arr.astype(np.int64, copy=True)
        arr.setflags(write=False)
        observed = int(np.max(np.abs(arr))) if arr.size else 0
        bound = self.entry_bound if self.entry_bound else observed
        if observed > bound:
            raise ValidationError(f"entry magnitude {observed} exceeds declared bound {bound}")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "entry_bound", bound)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def rows(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.entries]


@dataclass(frozen=True)
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


def _as_real_array(m) -> np.ndarray:
    if isinstance(m, (IntegerMatrix, RealMatrix)):
        return m.entries.astype(float)
    return RealMatrix(np.asarray(m, dtype=float)).entries.copy()


@dataclass(frozen=True)
class SingularSpectrum:
    """All singular values, descending, plus the final Jacobi residual."""

    sigma: tuple[float, ...]
    convergence_residual: float

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigma)
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
    def singular(self) -> bool:
        """Numerically singular: the zero matrix, or sigma_min < 1e-300 sigma_max.

        `svd` zeroes every column whose squared norm is at most
        COLUMN_FLOOR2 * ||A||_F^2, so on its output a nonzero sigma_min is
        above 1e-100 sigma_max and this is the same as sigma_min == 0."""
        return self.sigma_max == 0.0 or self.sigma_min < 1e-300 * self.sigma_max

    @property
    def kappa(self) -> float:
        """sigma_max / sigma_min; +inf when singular."""
        return math.inf if self.singular else self.sigma_max / self.sigma_min


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic all-pairs schedule: n-1 rounds of disjoint pairs."""
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
    return rounds


def svd(m) -> SingularSpectrum:
    """Full singular spectrum by one-sided Jacobi rotations.

    Sweeps run in a fixed round-robin order; each round rotates a set of
    disjoint column pairs simultaneously (the rotations commute).  The
    iteration stops once a full sweep performs no rotation, i.e. all
    column pairs are orthogonal to relative tolerance PAIR_TOL, which
    drives the off-diagonal Gram residual below RESIDUAL_TOL * ||A||_F^2.
    """
    a = _as_real_array(m)
    n = a.shape[0]
    frob2 = float(np.sum(a * a))
    if frob2 == 0.0:
        return SingularSpectrum(tuple([0.0] * n), 0.0)
    rounds = _round_robin_rounds(n)
    off2 = 0.0
    for _sweep in range(MAX_SWEEPS):
        # columns squeezed this far below ||A||_F are pure roundoff debris
        # (their true singular value is 0 at this precision); zeroing them
        # stops the rotation pair test from chasing denormal residue.
        norms2 = np.einsum("ij,ij->j", a, a)
        dead = norms2 <= COLUMN_FLOOR2 * frob2
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
            mask = np.abs(apq) > PAIR_TOL * np.sqrt(app * aqq)
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
            residual = math.sqrt(off2) / frob2
            sigma = np.sort(np.linalg.norm(a, axis=0))[::-1]
            return SingularSpectrum(tuple(float(x) for x in sigma), residual)
    raise ConvergenceError(
        f"Jacobi sweep budget exhausted (residual {math.sqrt(off2) / frob2:.3e})",
        residual=math.sqrt(off2) / frob2,
    )


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
    """sigma_max / sigma_min; +inf when the matrix is numerically singular."""
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
# worst-case inputs


def worst_case_generator(
    kind: str, n: int, c_exponent: float | None = None, path: str | None = None
) -> IntegerMatrix:
    """Deterministic hard inputs for the experiments.

    kinds: 'zero', 'graded_diagonal' (powers of two capped at n^C),
    'rank_one_ones', 'duplicated_column', 'file:<path>' / 'user_file'.
    """
    kind = kind.strip().lower()
    if n < 1:
        raise ValidationError(f"matrix size {n} < 1")
    if kind == "zero":
        return IntegerMatrix(np.zeros((n, n), dtype=np.int64))
    if kind == "graded_diagonal":
        c = 1.0 if c_exponent is None else float(c_exponent)
        if c < 0:
            raise ValidationError(f"exponent C = {c} < 0")
        cap = max(1, math.floor(n**c))
        diag = [min(2**i if i < 63 else cap, cap) for i in range(n)]
        return IntegerMatrix(np.diag(np.array(diag, dtype=np.int64)), entry_bound=cap)
    if kind == "rank_one_ones":
        return IntegerMatrix(np.ones((n, n), dtype=np.int64))
    if kind == "duplicated_column":
        a = np.eye(n, dtype=np.int64)
        if n >= 2:
            a[:, n - 1] = a[:, 0]
        return IntegerMatrix(a)
    if kind in ("user_file", "file"):
        if not path:
            raise ValidationError("user_file generator needs a path")
        loaded = load_integer_matrix(path)
        if loaded.n != n:
            raise ValidationError(f"file matrix is {loaded.n}x{loaded.n}, expected {n}")
        return loaded
    raise ValidationError(f"unknown worst-case kind {kind!r}")


def matrix_from_spec(spec: str, n: int, c_exponent: float | None = None) -> IntegerMatrix:
    """'graded_diagonal', 'zero', ..., or 'file:<path>'."""
    head, _, arg = spec.strip().partition(":")
    return worst_case_generator(head, n, c_exponent=c_exponent, path=arg or None)


# ---------------------------------------------------------------------------
# matrix file format: first line n, then n rows of n integers.


def load_integer_matrix(path: str, entry_bound: int | None = None) -> IntegerMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        tokens_by_line = [
            line.split("#", 1)[0].split() for line in fh if line.split("#", 1)[0].strip()
        ]
    if not tokens_by_line:
        raise ValidationError(f"{path}: empty matrix file")
    try:
        n = int(tokens_by_line[0][0])
    except (IndexError, ValueError):
        raise ValidationError(f"{path}: first line must be the matrix size") from None
    flat = [tok for line in tokens_by_line[1:] for tok in line]
    if len(flat) != n * n:
        raise ValidationError(f"{path}: expected {n * n} entries, found {len(flat)}")
    try:
        values = [int(tok) for tok in flat]
    except ValueError as exc:
        raise ValidationError(f"{path}: non-integer entry ({exc})") from None
    arr = np.array(values, dtype=np.int64).reshape(n, n)
    m = IntegerMatrix(arr, entry_bound=entry_bound or 0)
    if entry_bound is not None and int(np.max(np.abs(arr))) > entry_bound:
        raise ValidationError(f"{path}: entries exceed declared bound {entry_bound}")
    return m


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
