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
from the first step past that, in groups that keep their ints in cache.
`determinant` eliminates one matrix; `_solve` stacks many augmented
systems [A | R] and answers each with the integers (d, Y), A Y = d R (the
exact reference of `ge-check`, a chunk of trials at once), and
`solve_exact` and `invert_exact` are its stacks of one, the only ones that
build Fractions; `singular_flags` (the exact half of `linalg.svd_stack`'s
verdict) and `cofactors` (the singularity enumeration's) stack many.  The
exact half is the oracle of the floating one.
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


# Remaining entries per group once a stack runs in Python ints.  A step then
# costs Python int operations on every entry, which run faster while the
# group's ints stay in cache: 6 bernoulli 100 x 100 systems [A | b] took
# 1.10-1.14 times their lone eliminations as one group, and 0.98-1.02 times
# as groups of one.
_PYTHON_INT_ENTRIES = 2**13


def _eliminate(
    a: np.ndarray, steps: range, sign: np.ndarray, prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bareiss steps on an (r, m, B) stack from `_start`; returns the stack
    and `prev`, updated in place, or as dtype=object copies from the first
    step whose products could overflow int64.  From that step on, groups of
    consecutive matrices with at most _PYTHON_INT_ENTRIES entries left each
    run the remaining steps alone.  `sign` collects each matrix's row swaps
    and `prev` its last pivot (the next divisor), so the elimination can
    resume, or branch off a copy, after any step.  A zero pivot column sets
    `sign` to 0 and zeroes the matrix, which then rides along.
    """
    for k in steps:
        if a.dtype != object:
            rest = a[k:, k:]  # in Python ints: np.abs would wrap -2^63
            if 2 * max(int(rest.max()), -int(rest.min())) ** 2 >= 2**63:
                size = max(1, _PYTHON_INT_ENTRIES // rest[:, :, 0].size)
                out, prev = np.empty(a.shape, dtype=object), prev.astype(object)
                for g in range(0, a.shape[2], size):
                    part = slice(g, g + size)  # its ints made, and reduced, together
                    out[:, :, part] = _eliminate(a[:, :, part].astype(object), range(k, steps.stop), sign[part],
                                                 prev[part])[0]
                return out, prev
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
    a[:, :, b], with the sign and last pivot of an elimination at step 0.
    numpy's inner loops run along the axis of smallest stride, so the longer
    of a row and the stack is laid out innermost: each matrix contiguous
    when its rows are longer, the stack's axis when it is deeper."""
    a = _array(matrices).transpose(1, 2, 0)
    if a.shape[2] > a.shape[1]:
        a = a.copy()
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


def _solve(systems) -> list[tuple[int, list[list[int]]] | None]:
    """Each of an equal-shape stack of n x (n + k) integer systems [A | R]
    solved exactly: None where A is singular, else the pair (d, Y) of
    integers with A Y = d R, where d = +-det A.

    One elimination over the whole stack.  Its last pivot d is +-det A, so
    by Cramer's rule Y = d A^-1 R is an integer n x k matrix:
    back-substitution runs in integers, over the stack at once, with exact
    divisions.  Callers build any Fraction Y / d themselves.
    """
    red, sign = _reduce(systems)
    n, m, _ = red.shape
    live = np.flatnonzero(sign)
    red = red[:, :, live].astype(object)  # Python ints: d * R can pass 2^63
    d = red[n - 1, n - 1]
    y = np.empty((n, m - n, len(live)), dtype=object)
    for i in range(n - 1, -1, -1):
        y[i] = (d * red[i, n:] - np.add.reduce(red[i, i + 1 : n, None] * y[i + 1 :], axis=0)) // red[i, i]
    pairs = zip(d.tolist(), y.transpose(2, 0, 1).tolist())
    return [next(pairs) if s else None for s in sign.tolist()]


def solve_exact(matrix, rhs: Sequence) -> list[Fraction] | None:
    """Solve A x = b exactly; returns None when A is singular."""
    a = _square(matrix)
    if len(rhs) != len(a):
        raise ValidationError("right-hand side length mismatch")
    b = [Fraction(x) for x in rhs]
    # scale rhs to integers so Bareiss stays fraction-free
    denom = math.lcm(*(x.denominator for x in b))
    solved = _solve([np.concatenate([_array(a), _array([[int(v * denom)] for v in b])], axis=1)])[0]
    if solved is None:
        return None
    d, y = solved
    return [Fraction(row[0], d * denom) for row in y]


def invert_exact(matrix) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix; raises on singular input."""
    a = _square(matrix)
    solved = _solve([np.concatenate([_array(a), np.eye(len(a), dtype=np.int64)], axis=1)])[0]
    if solved is None:
        raise ValidationError("matrix is singular, no inverse")
    d, y = solved
    return [[Fraction(v, d) for v in row] for row in y]
