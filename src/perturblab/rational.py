"""Exact linear algebra over the rationals, the one reader and eliminator
of exact integer matrices: an int64 array is taken as it is, anything else
is checked whole in Python ints.  It owns the package's two exact
coercions, `whole_numbers` (integers) and `as_fraction` (rationals).

One Bareiss fraction-free elimination, `_eliminate`, runs over a stack of
integer matrices at once; every value it writes is a minor of its matrix
and each division is exact.  Step k pivots on the first nonzero entry at
or below row k (exact results do not depend on the pivot rule).  A stack
runs in int64 while twice the square of the largest entry a step reads is
below 2^63, so no product can overflow, and in dtype=object (Python ints)
from the first step past that.  `determinant`, `solve_exact` and
`invert_exact` (one shared solve) eliminate one matrix; `singular_flags`
(the exact half of `linalg.svd_stack`'s verdict) and `cofactors` (the
singularity enumeration's) stack many.  The exact half is the oracle of
the floating one.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError


def whole_numbers(values: list) -> list[int]:
    """The values as Python ints (any integer type exactly: math.floor takes
    a numpy int through float); ValidationError for any that is not a whole
    number.  An infinity raises OverflowError: the caller names the range."""
    try:
        whole = [x if type(x) is int else int(x) if isinstance(x, numbers.Integral) else math.floor(x) for x in values]
    except (TypeError, ValueError):
        raise ValidationError("entries are not integers") from None
    if whole != values:
        raise ValidationError("entries are not integers")
    return whole


def as_fraction(x) -> Fraction:
    """x as an exact rational: integers of any type, Fractions, finite floats
    (their binary value) and strings, parsed exactly ('0.25' -> 1/4); anything
    else, NaN and infinities included, is a ValidationError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(x, float) and math.isfinite(x):
        return Fraction(x)
    raise ValidationError(f"cannot interpret {x!r} as an exact rational")


def _square(matrix) -> np.ndarray | list[list[int]]:
    """A square integer matrix: an int64 array as it is, anything else as
    rows of Python ints (an array's read by .tolist())."""
    if isinstance(matrix, np.ndarray) and matrix.dtype == np.int64 and matrix.ndim == 2:
        rows = matrix
    else:
        try:
            rows = [whole_numbers(list(r)) for r in (matrix.tolist() if isinstance(matrix, np.ndarray) else matrix)]
        except OverflowError:
            raise ValidationError("entries are not integers") from None
    if not len(rows) or any(len(r) != len(rows) for r in rows):
        raise ValidationError("matrix must be square and nonempty")
    return rows


def _array(values) -> np.ndarray:
    """Integers as int64, or as Python ints (dtype=object) if one is past it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _eliminate(
    a: np.ndarray, steps: range, sign: np.ndarray, prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bareiss steps on an (r, m, B) stack from `_start`; returns the stack
    and `prev`, updated in place, or as dtype=object copies from the first
    step whose products could overflow int64.  `sign` collects each
    matrix's row swaps and `prev` its last pivot (the next divisor), so the
    elimination can resume, or branch off a copy, after any step.  A zero
    pivot column sets `sign` to 0 and zeroes the matrix, which then rides
    along.
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


def _start(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-shape integer matrices as an (r, m, B) stack, matrix b at
    a[:, :, b], with the sign and last pivot of an elimination at step 0."""
    a = _array(matrices).transpose(1, 2, 0).copy()
    return a, np.ones(a.shape[2], dtype=np.int64), np.ones(a.shape[2], dtype=a.dtype)


def _reduce(matrices) -> tuple[np.ndarray, np.ndarray]:
    """All steps on a fresh stack: the reduced stack and each matrix's sign,
    0 where singular; a square matrix ends with +-det at a[r - 1, r - 1]."""
    a, sign, prev = _start(matrices)
    return _eliminate(a, range(a.shape[0]), sign, prev)[0], sign


def singular_flags(matrices: Sequence) -> list[bool]:
    """Exactly det = 0, for each of equal-size square integer matrices."""
    rows = [_square(m) for m in matrices]
    sizes = sorted({len(r) for r in rows})
    if len(sizes) > 1:
        raise ValidationError(f"singular_flags needs matrices of one size, got sizes {sizes}")
    return (_reduce(rows)[1] == 0).tolist() if rows else []


def determinant(matrix) -> int:
    """Exact determinant of an integer matrix."""
    a, sign = _reduce([_square(matrix)])
    return int(sign[0]) * int(a[-1, -1, 0])


def cofactors(prefixes: np.ndarray) -> np.ndarray:
    """c[b, j] = (-1)^(r+j) det(prefix b without column j) for a stack of
    r x (r + 1) integer prefixes, so that det([prefix; x]) = x . c.

    One elimination over the whole stack.  Bareiss treats columns alike, so
    the minors without column j share the first j steps: the whole prefix
    is eliminated once, and minor j branches off it before step j.
    """
    a, sign, prev = _start(prefixes)
    r, n, _ = a.shape
    dets = []
    for j in range(r):
        minor, minor_sign = np.delete(a, j, axis=1), sign.copy()
        minor, _ = _eliminate(minor, range(j, r), minor_sign, prev.copy())
        dets.append(minor_sign * minor[r - 1, r - 1])
        a, prev = _eliminate(a, range(j, j + 1), sign, prev)
    dets.append(sign * a[r - 1, r - 1])
    return np.stack(dets, axis=1) * np.array([(-1) ** (r + j) for j in range(n)])


def _solve(a, rhs) -> list[list[Fraction]] | None:
    """The columns x of A x = c, exactly, for A from `_square` and each
    column c of the integer n x k matrix `rhs`; None when A is singular.

    One elimination of [A | rhs].  Its last pivot d is +-det, so by
    Cramer's rule y = d x is an integer vector: back-substitution runs in
    integers with exact divisions, and each x_i = y_i / d is one Fraction
    at the end.
    """
    n = len(a)
    if len(rhs) != n:
        raise ValidationError("right-hand side length mismatch")
    red, sign = _reduce([np.concatenate([_array(a), _array(rhs)], axis=1)])
    if not sign[0]:
        return None
    red = red[:, :, 0].tolist()
    d = red[n - 1][n - 1]
    columns = []
    for col in range(n, len(red[0])):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            y[i] = (d * red[i][col] - sum(red[i][j] * y[j] for j in range(i + 1, n))) // red[i][i]
        columns.append([Fraction(v, d) for v in y])
    return columns


def solve_exact(matrix, rhs: Sequence) -> list[Fraction] | None:
    """Solve A x = b exactly; returns None when A is singular."""
    a = _square(matrix)
    b = [Fraction(x) for x in rhs]
    # scale rhs to integers so Bareiss stays fraction-free
    denom = math.lcm(*(x.denominator for x in b))
    x = _solve(a, [[int(v * denom)] for v in b])
    return None if x is None else [v / denom for v in x[0]]


def invert_exact(matrix) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix; raises on singular input."""
    a = _square(matrix)
    columns = _solve(a, np.eye(len(a), dtype=np.int64))
    if columns is None:
        raise ValidationError("matrix is singular, no inverse")
    return [list(row) for row in zip(*columns)]
