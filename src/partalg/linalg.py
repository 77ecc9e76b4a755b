"""Exact dense linear algebra over Q and over polynomial rings.

Determinants and ranks share one fraction-free (Bareiss) elimination,
which stays inside any integral domain supporting exact division (int,
Fraction, Poly).  ``rank`` first scales each row by the least common
multiple of its denominators, so its elimination runs on Python ints;
every intermediate entry is a minor of that integer matrix.  Nullspace,
inverse and solving work over Fraction entries via reduced row echelon
form; polynomial or rational-function matrices can be cleared to a
common domain first by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "bareiss_det",
    "rank",
    "rref",
    "nullspace",
    "invert",
    "solve_right",
]


def _exact_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError("inexact integer division in elimination")
        return q
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    return a / b


def _eliminate(m) -> tuple[int, int]:
    """One-step fraction-free (Bareiss) elimination of the rows m, in place.

    Pivots are taken row by row, each in the leftmost column that still
    has a nonzero entry at or below the current row.  Every updated
    entry is (a * pivot - lead * b) / previous pivot, a minor of the
    input, so the division is exact.  A row whose entry in the pivot
    column is zero is left alone: across consecutive steps its true
    value only scales by pivot / previous pivot, which telescopes, so
    the row remembers the pivot in force when it was last updated and
    catches up when it is next used.  Returns (rank, sign of the row
    swaps); after the call m[rank - 1] holds the last pivot row, up to
    date, with its pivot at the end of its leading zeros.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    dens = [1] * nrows
    prev = 1
    sign = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            m[row], m[pivot_row] = m[pivot_row], m[row]
            dens[row], dens[pivot_row] = dens[pivot_row], dens[row]
            sign = -sign
        top = m[row]
        if dens[row] != prev:
            top = m[row] = _divide_row([v * prev for v in top], dens[row])
        pivot = top[col]
        tail = top[col + 1 :]
        for r in range(row + 1, nrows):
            target = m[r]
            lead = target[col]
            if not lead:
                continue
            values = [a * pivot - lead * b for a, b in zip(target[col + 1 :], tail)]
            target[col + 1 :] = _divide_row(values, dens[r])
            target[col] = lead - lead
            dens[r] = pivot
        prev = pivot
        row += 1
    return row, sign


def _divide_row(values, den):
    if den == 1:
        return values
    return [_exact_div(v, den) for v in values]


def bareiss_det(matrix):
    """Determinant of a square matrix by fraction-free elimination.

    Entries may be ints, Fractions, or any domain elements exposing
    * and - and either / (exact) or .exact_div().  Intermediate values
    stay in the same domain, never a fraction field.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    full, sign = _eliminate(m)
    det = m[n - 1][n - 1]
    if full < n:
        return det - det
    return det if sign == 1 else -det


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def rank(matrix) -> int:
    """Rank over Q.  Entries may be ints or Fractions; each row is
    scaled to integers by its common denominator, then eliminated over
    Z without fractions."""
    return _eliminate([_integer_row(row) for row in matrix])[0]


def _integer_row(row) -> list[int]:
    den = 1
    for v in row:
        if type(v) is not int:
            den = lcm(den, Fraction(v).denominator)
    if den == 1:
        return [int(v) for v in row]
    return [int(Fraction(v) * den) for v in row]


def nullspace(matrix) -> list[list[Fraction]]:
    """Basis of the right nullspace {v : Mv = 0}, one vector per free column."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return []
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def invert(matrix) -> list[list[Fraction]]:
    """Inverse of a square matrix over Q; raises ValueError if singular."""
    n = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def solve_right(matrix, rhs) -> list[Fraction] | None:
    """One solution of Mv = rhs over Q, or None if inconsistent."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return []
    ncols = len(m[0])
    aug = [row + [Fraction(b)] for row, b in zip(m, rhs)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    vec = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        vec[pc] = reduced[r][ncols]
    return vec
