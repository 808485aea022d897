"""Exact linear algebra over the rationals.

Bareiss fraction-free elimination with partial pivoting: intermediate
values stay integers (each division is exact), so nothing is lost to
rounding.  Used as the reference path for floating-point solvers and as
the ground-truth oracle for singular values (sigma_min * ||inverse|| = 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError


def _to_int_rows(matrix) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValidationError("matrix must be square and nonempty")
    return rows


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


def determinant(matrix) -> int:
    """Exact determinant of an integer matrix."""
    rows = _to_int_rows(matrix)
    n = len(rows)
    sign, red = _bareiss(rows, n)
    if sign == 0:
        return 0
    return sign * red[n - 1][n - 1]


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
    aug = [rows[i] + [int(b[i] * denom)] for i in range(n)]
    sign, red = _bareiss(aug, n)
    if sign == 0:
        return None
    return [v / denom for v in _back_substitute(red, n, n)]


def invert_exact(matrix) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix; raises on singular input."""
    rows = _to_int_rows(matrix)
    n = len(rows)
    aug = [rows[i] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    sign, red = _bareiss(aug, n)
    if sign == 0:
        raise ValidationError("matrix is singular, no inverse")
    columns = [_back_substitute(red, n, n + col) for col in range(n)]
    return [list(row) for row in zip(*columns)]
