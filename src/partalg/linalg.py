"""Exact dense linear algebra over Q and over polynomial rings.

Determinants, ranks and the singularity test share one elimination
loop, run over Z (or another integral domain) or over Z/p.  Over a
domain it is fraction-free (Bareiss) and stays inside any domain
supporting exact division (int, Fraction, Poly); ``rank`` first scales
each row by the least common multiple of its denominators, so its
elimination runs on Python ints and every intermediate entry is a minor
of that integer matrix.  Over Z/p each update is reduced mod p instead.

``singular`` answers det == 0 with a certificate either way: full rank
mod p proves det != 0, and an integer kernel vector, lifted from Z/p by
rational reconstruction and checked exactly over Z, proves det == 0.
When the lift fails it takes the rank over Z.  Inverses work over
Fraction entries via reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "bareiss_det",
    "rank",
    "rref",
    "invert",
    "singular",
]

# The prime of ``singular``'s elimination mod p (a Mersenne prime), and
# the bound on numerator and denominator of the rational lift from it.
PRIME = 2**61 - 1
LIFT_BOUND = 2**30


def _exact_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError("inexact integer division in elimination")
        return q
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    return a / b


def _eliminate(m, p: int | None = None) -> tuple[int, int]:
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

    With a prime p the entries are ints in [0, p).  Each pivot row is
    scaled mod p so that its pivot is 1, and each update is
    (a - lead * b) mod p, with no division; dens and prev then stay 1.
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
        if p:
            inverse = pow(top[col], -1, p)
            top = m[row] = [v * inverse % p for v in top]
        pivot = top[col]
        tail = top[col + 1 :]
        for r in range(row + 1, nrows):
            target = m[r]
            lead = target[col]
            if not lead:
                continue
            if p:
                target[col + 1 :] = [(a - lead * b) % p for a, b in zip(target[col + 1 :], tail)]
            else:
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


def singular(matrix) -> bool:
    """Whether a square matrix over Q has determinant zero, exactly.

    Rows are scaled to integers and eliminated mod PRIME.  Full rank
    mod p proves det != 0.  Otherwise the kernel vector of the first
    free column is lifted to Q by rational reconstruction and its
    denominators cleared; a nonzero integer w with M w = 0 over Z
    proves det == 0.  If the lift or that check fails (p divides a
    nonzero determinant, or the kernel needs larger entries), the rank
    is taken over Z.
    """
    rows = [_integer_row(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    echelon = [[v % PRIME for v in row] for row in rows]
    rank_mod_p = _eliminate(echelon, PRIME)[0]
    if rank_mod_p == n:
        return False
    w = _lifted_kernel_vector(echelon, rank_mod_p)
    # w is nonzero at the free column, so M w = 0 means det M = 0
    if w is not None and not any(sum(a * b for a, b in zip(row, w)) for row in rows):
        return True
    return _eliminate(rows)[0] < n


def _lifted_kernel_vector(echelon, rank_mod_p: int) -> list[int] | None:
    """An integer vector w, one entry per column up to the first free
    column f, with w[f] != 0 and w mod p in the kernel of the echelon
    rows mod PRIME; None if an entry has no rational lift within
    LIFT_BOUND.

    Columns before f are the pivots, all 1, of the rows before f, so w
    is x[f] = 1 back-substituted through those rows, later columns zero.
    """
    free = next(
        (i for i, row in enumerate(echelon[:rank_mod_p]) if not row[i]), rank_mod_p
    )
    x = [0] * free + [1]
    for i in reversed(range(free)):
        row = echelon[i]
        x[i] = -sum(row[j] * x[j] for j in range(i + 1, free + 1)) % PRIME
    lifted = [_rational_lift(v) for v in x]
    if None in lifted:
        return None
    den = lcm(*(q.denominator for q in lifted))
    return [q.numerator * (den // q.denominator) for q in lifted]


def _rational_lift(u: int) -> Fraction | None:
    """A fraction a/b with |a|, |b| <= LIFT_BOUND and a = u b mod PRIME,
    by the extended Euclidean algorithm stopped at the first remainder
    within the bound; None if its cofactor exceeds the bound."""
    r0, r1 = PRIME, u
    t0, t1 = 0, 1
    while r1 > LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > LIFT_BOUND:
        return None
    return Fraction(r1, t1)
