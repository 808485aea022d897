"""Exact linear algebra over the rationals.

One Bareiss fraction-free elimination, `_eliminate`, runs over a stack of
integer matrices at once; every value it writes is a minor of its matrix
and each division is exact.  Step k pivots on the first nonzero entry at
or below row k (exact results do not depend on the pivot rule).  A stack
runs in int64 while twice the square of the largest entry a step reads is
below 2^63, so no product can overflow, and in dtype=object (Python ints)
from the first step past that.  `determinant`, `solve_exact` and
`invert_exact` are stacks of one; `singular_flags` (the exact half of
`linalg.svd_stack`'s verdict) and the singularity enumeration's cofactors
stack many.  The exact half is the oracle of the floating one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError


def whole_numbers(values: list) -> list[int]:
    """The values as Python ints; ValidationError for any that is not a whole
    number.  An infinity raises OverflowError: the caller names the range."""
    try:
        whole = [math.floor(x) for x in values]
    except (TypeError, ValueError):
        raise ValidationError("entries are not integers") from None
    if whole != values:
        raise ValidationError("entries are not integers")
    return whole


def _to_int_rows(matrix) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValidationError("matrix must be square and nonempty")
    try:
        return [whole_numbers(row) for row in rows]
    except OverflowError:
        raise ValidationError("entries are not integers") from None


def _stack(matrices) -> np.ndarray:
    """Equal-shape r x m integer matrices as one (r, m, B) elimination stack,
    stacked along the last axis so that every update runs over the stack."""
    try:
        a = np.array(matrices, dtype=np.int64)
    except OverflowError:  # an entry past int64: Python ints from the start
        a = np.array(matrices, dtype=object)
    return a.transpose(1, 2, 0).copy()


def _eliminate(
    a: np.ndarray, steps: range, sign: np.ndarray, prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bareiss steps on an (r, m, B) stack from `_stack`; returns the stack
    and `prev`, updated in place, or as dtype=object copies from the first
    step whose products could overflow int64.  `sign` collects each
    matrix's row swaps and `prev` its last pivot (the next divisor), so a
    caller can resume, or branch off a copy, after any step.  A zero pivot
    column sets `sign` to 0 and zeroes the matrix, which then rides along.
    """
    for k in steps:
        if a.dtype != object:
            rest = a[k:, k:]  # in Python ints: np.abs would wrap -2^63
            if 2 * max(int(rest.max()), -int(rest.min())) ** 2 >= 2**63:
                a, prev = a.astype(object), prev.astype(object)
        pivot = a[k, k]
        if (pivot == 0).any():  # swap in the first nonzero entry below, if any
            piv = k + np.argmax(a[k:, k] != 0, axis=0)
            moved = np.flatnonzero(piv != k)
            row_k = a[k, :, moved]
            a[k, :, moved] = a[piv[moved], :, moved]
            a[piv[moved], :, moved] = row_k
            sign[moved] *= -1
            dead = a[k, k] == 0
            sign[dead] = 0
            a[:, :, dead] = 0
            pivot = np.where(dead, 1, a[k, k])
        a[k + 1 :, k + 1 :] = (a[k + 1 :, k + 1 :] * pivot - a[k + 1 :, k, None] * a[k, k + 1 :]) // prev
        prev[:] = pivot
    return a, prev


def _reduce(matrices) -> tuple[np.ndarray, np.ndarray]:
    """All steps on a fresh stack: the reduced stack and each matrix's sign,
    0 where singular; a square matrix ends with +-det at a[r - 1, r - 1]."""
    a = _stack(matrices)
    r, _, count = a.shape
    sign = np.ones(count, dtype=np.int64)
    a, _ = _eliminate(a, range(r), sign, np.ones(count, dtype=a.dtype))
    return a, sign


def singular_flags(matrices: Sequence[np.ndarray]) -> list[bool]:
    """Exactly det = 0, for each of equal-size square integer matrices."""
    return (_reduce(matrices)[1] == 0).tolist() if len(matrices) else []


def determinant(matrix) -> int:
    """Exact determinant of an integer matrix."""
    a, sign = _reduce([_to_int_rows(matrix)])
    return int(sign[0]) * int(a[-1, -1, 0])


def _back_substitute(red: list[list[int]], n: int, col: int) -> list[Fraction]:
    """Solve the upper triangular system in the first n columns of the
    reduced rows against their column `col`.

    The last pivot d is +-det, so by Cramer's rule y = d x is an integer
    vector: back-substitution runs in integers with exact divisions, and
    each x_i = y_i / d is one Fraction at the end.
    """
    d = red[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = red[i]
        acc = d * row[col]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return [Fraction(v, d) for v in y]


def solve_exact(matrix, rhs: Sequence) -> list[Fraction] | None:
    """Solve A x = b exactly; returns None when A is singular."""
    rows = _to_int_rows(matrix)
    n = len(rows)
    b = [Fraction(x) for x in rhs]
    if len(b) != n:
        raise ValidationError("right-hand side length mismatch")
    # scale rhs to integers so Bareiss stays fraction-free
    denom = math.lcm(*(x.denominator for x in b))
    a, sign = _reduce([[rows[i] + [int(b[i] * denom)] for i in range(n)]])
    if not sign[0]:
        return None
    return [v / denom for v in _back_substitute(a[:, :, 0].tolist(), n, n)]


def invert_exact(matrix) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix; raises on singular input."""
    rows = _to_int_rows(matrix)
    n = len(rows)
    a, sign = _reduce([[rows[i] + [1 if j == i else 0 for j in range(n)] for i in range(n)]])
    if not sign[0]:
        raise ValidationError("matrix is singular, no inverse")
    red = a[:, :, 0].tolist()
    columns = [_back_substitute(red, n, n + col) for col in range(n)]
    return [list(row) for row in zip(*columns)]
