"""Exact dense linear algebra over Q and over Q[x].

Determinants, ranks, reduced row echelon forms, null spaces and
inverses share one fraction-free (Bareiss) elimination, and it runs
over Z only.  A rational matrix is first scaled, each row by the lcm
of its denominators, so every intermediate entry is a minor of that
integer matrix and no row operation runs on Fractions.  A matrix with
polynomial (``Poly``) entries reaches the same integer elimination by
Kronecker substitution: ``bareiss_det`` scales its rows to integer
polynomials, evaluates them at x = 2**w for a w large enough that the
determinant's coefficients are read back exactly from its base-2**w
digits.  Every entry point raises ValueError on rows of unequal
length, and on a non-square matrix where it needs a square one.

``singular`` answers det == 0 with a certificate either way: full rank
mod the prime p = PRIME proves det != 0, and an integer kernel vector,
lifted from Z/p by rational reconstruction and checked exactly over Z,
proves det == 0.  When the lift fails it takes the rank over Z.  The
elimination mod p stops at the first column without a pivot, because
the kernel vector of that column reads nothing to its right.

Its elimination mod p holds each of the r rows as one Python int,
column j in slot j of w bits, w = 2 bitlen(p) + bitlen(r) + 1 rounded
up to a whole byte, so a row update is a single bigint multiply-add
done in C.  Slots are not reduced mod p as the rows are updated: each
update adds less than p**2 to a slot, and a row is updated at most once
per pivot, so a slot stays below (r + 1) p**2 < 2**w and never carries
into the next.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .scalars import Poly

__all__ = [
    "bareiss_det",
    "rank",
    "rref",
    "null_space",
    "invert",
    "singular",
]

# The prime of ``singular``'s elimination mod p (a Mersenne prime), and
# the bound on numerator and denominator of the rational lift from it.
PRIME = 2**61 - 1
LIFT_BOUND = 2**30


def _eliminate(m: list[list[int]]) -> tuple[int, int]:
    """One-step fraction-free (Bareiss) elimination of the int rows m,
    in place.

    Pivots are taken row by row, each in the leftmost column that still
    has a nonzero entry at or below the current row.  Every updated
    entry is (a * pivot - lead * b) / previous pivot, a minor of the
    input, so the division is exact.  A row whose entry in the pivot
    column is zero is left alone: across consecutive steps its true
    value only scales by pivot / previous pivot, which telescopes, so
    the row remembers the pivot in force when it was last updated and
    catches up when it is next used.  Returns (rank, sign of the row
    swaps); after the call m[rank - 1] holds the last pivot row, up to
    date, with its pivot at the end of its leading zeros, and each row
    above it holds its pivot row as it was when it was used.

    This is the only elimination over Z; over Z/p, ``singular`` uses
    _eliminate_mod_p on packed rows.
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
            target[col] = 0
            dens[r] = pivot
        prev = pivot
        row += 1
    return row, sign


def _eliminate_mod_p(rows) -> list[list[int]]:
    """The echelon rows of the integer rows mod PRIME, in [0, PRIME),
    up to the first free column f: f rows, row i zero before its pivot
    at column i and scaled so the pivot is 1.  Stopping there loses
    nothing singular reads, since _lifted_kernel_vector needs only
    these rows; f equals the number of columns exactly when the columns
    are independent mod PRIME.

    Pivots are chosen as in _eliminate: row by row, each in the leftmost
    column with a nonzero entry at or below the current row, that row
    swapped up, so the rows returned are the first f of the full
    echelon form.  Each row is packed into one int, column j in slot j
    of w bits; the module docstring gives w and why no slot carries.
    The current column is kept in slot 0: every live row shifts right
    by w as the column advances, so its lead is (row & mask) % p, and
    an update is (row >> w) + (p - lead) * tail, tail being the pivot
    row's later columns scaled mod p.  Only a pivot row is unpacked and
    reduced, once.
    """
    p = PRIME
    ncols = len(rows[0]) if rows else 0
    size = -(-(2 * p.bit_length() + len(rows).bit_length() + 1) // 8)
    shift = 8 * size
    mask = (1 << shift) - 1
    live = [_pack([v % p for v in row], size) for row in rows]
    echelon = []
    for col in range(ncols):
        leads = [(v & mask) % p for v in live]
        pivot_row = next((r for r, a in enumerate(leads) if a), None)
        if pivot_row is None:
            break
        top, lead = live[pivot_row], leads[pivot_row]
        live[pivot_row], leads[pivot_row] = live[0], leads[0]
        del live[0], leads[0]
        data = top.to_bytes(size * (ncols - col), "little")
        inverse = pow(lead, -1, p)
        pivot = [
            int.from_bytes(data[i : i + size], "little") * inverse % p
            for i in range(0, len(data), size)
        ]
        echelon.append([0] * col + pivot)
        tail = _pack(pivot[1:], size)
        # in place, so each old row is freed as its new one is made
        for r, a in enumerate(leads):
            live[r] = (live[r] >> shift) + (p - a) * tail if a else live[r] >> shift
    return echelon


def _pack(values, size: int) -> int:
    """The nonnegative ints values as one int, the j-th in bytes
    j * size to (j + 1) * size."""
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")


def _divide_row(values: list[int], den: int) -> list[int]:
    """The ints values each divided by den; ValueError if a division
    leaves a remainder."""
    if den == 1:
        return values
    quotients = []
    for v in values:
        q, r = divmod(v, den)
        if r:
            raise ValueError("inexact integer division in elimination")
        quotients.append(q)
    return quotients


def bareiss_det(matrix):
    """Determinant of a square matrix of ints, Fractions and Polys, by
    one fraction-free elimination over Z; ValueError on any other entry,
    a float or a bool among them.  The result is an int, a Fraction once
    an entry is a Fraction, and a Poly once an entry is a Poly.

    Each row is scaled to integers by the lcm of its entries'
    denominators (a Poly's is that of its coefficients), and
    det M = det(D M) / det D.  A matrix of integer polynomials p_ij is
    then taken to Z by Kronecker substitution: it is evaluated at
    x = 2**w, and det(D M)(2**w) is read back in balanced w-bit digits,
    which are the coefficients of det(D M) as long as each is below
    2**(w - 1) in absolute value.  They are below 2**(w - 2):

    - by Cauchy's estimate on |z| = 1, each coefficient of det(D M) is
      at most the largest |det(D M)(z)| there;
    - by Hadamard's inequality, and |p(z)| <= |p|_1 (the sum of the
      absolute values of p's coefficients), that is at most
      sqrt(N), N = prod_i sum_j |p_ij|_1**2;
    - a coefficient is an integer, so it is at most isqrt(N), and w is
      the bit length of isqrt(N) plus 2.

    >>> from partalg.scalars import Poly
    >>> x = Poly.x()
    >>> bareiss_det([[x, 2], [Fraction(1, 2), x - 3]])
    Poly('x^2 - 3*x - 1')
    """
    m = _checked([list(row) for row in matrix], square=True)
    kinds = {type(v) for row in m for v in row}
    if not kinds <= {int, Fraction, Poly}:
        raise ValueError("matrix entries must be ints, Fractions or Polys")
    if Poly in kinds:
        return _poly_det(m)
    if Fraction in kinds:
        scale = prod(lcm(*(v.denominator for v in row)) for row in m)
        return Fraction(_integer_det([list(_integer_row(row)) for row in m]), scale)
    return _integer_det(m)


def _integer_det(m: list[list[int]]) -> int:
    """Determinant of the square int matrix m, eliminated in place."""
    if not m:
        return 1
    full, sign = _eliminate(m)
    return sign * m[-1][-1] if full == len(m) else 0


def _poly_det(m) -> Poly:
    """bareiss_det of a matrix with a Poly entry, by Kronecker
    substitution at x = 2**w; bareiss_det gives w and why the digits
    read back are exact."""
    scales = [lcm(*(v.denominator for v in row)) for row in m]
    rows = [[_integer_coeffs(v, s) for v in row] for row, s in zip(m, scales)]
    w = isqrt(prod(sum(sum(map(abs, p)) ** 2 for p in row) for row in rows)).bit_length() + 2
    value = _integer_det([[_at_power_of_two(p, w) for p in row] for row in rows])
    coeffs = []
    while value:
        digit = value & ((1 << w) - 1)
        if digit >> (w - 1):
            digit -= 1 << w
        coeffs.append(digit)
        value = (value - digit) >> w
    scale = prod(scales)
    if scale == 1:
        return Poly._from_ints(tuple(coeffs))
    return Poly([Fraction(c, scale) for c in coeffs])


def _integer_coeffs(v, scale: int):
    """The coefficients of the int, Fraction or Poly v times scale, a
    multiple of v's denominator, as ints."""
    if type(v) is not Poly:
        return (v.numerator * (scale // v.denominator),)
    if scale == 1:
        return v.coeffs  # ints, as v.denominator is 1
    return [c.numerator * (scale // c.denominator) for c in v.coeffs]


def _at_power_of_two(coeffs, w: int) -> int:
    """The integer polynomial of these coefficients at x = 2**w, by
    Horner's rule with shifts; exact for signed coefficients."""
    value = 0
    for c in reversed(coeffs):
        value = (value << w) + c
    return value


def _reduced(matrix) -> tuple[list[list[int]], list[int], int]:
    """(rows, pivots, d): the integer rows eliminated, then back-solved
    up to d times their reduced rows, d the last pivot; exact, as the
    entries are minors."""
    m = _checked([list(_integer_row(row)) for row in matrix])
    full = _eliminate(m)[0]
    pivots = [next(j for j, v in enumerate(row) if v) for row in m[:full]]
    d = m[full - 1][pivots[-1]] if full else 1
    for i in reversed(range(full - 1)):
        row, col = m[i], pivots[i]
        values = [d * v for v in row[col:]]
        for k in range(i + 1, full):
            lead = row[pivots[k]]
            if lead:
                values = [a - lead * b for a, b in zip(values, m[k][col:])]
        row[col:] = _divide_row(values, row[col])
    return m, pivots, d


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows as Fractions,
    pivot columns), the zero rows last: the rows of _reduced over d.

    >>> rows, pivots = rref([[1, 2, 3], [2, 4, 7], [3, 6, 10]])
    >>> [[str(v) for v in row] for row in rows], pivots
    ([['1', '2', '0'], ['0', '0', '1'], ['0', '0', '0']], [0, 2])
    """
    m, pivots, d = _reduced(matrix)
    return [[Fraction(v, d) for v in row] for row in m], pivots


def null_space(matrix) -> list[list[int]]:
    """Basis of the null space over Q, per free column f of the reduced
    form in order: e_f minus column f of the reduced rows on their
    pivots, as coprime ints, positive on f, the last nonzero entry.

    >>> null_space([[1, 2, 3], [2, 4, 7], [3, 6, 10]])
    [[-2, 1, 0]]
    """
    m, pivots, d = _reduced(matrix)
    rows, cols = dict(zip(pivots, m)), range(len(m[0]) if m else 0)
    kernel = []
    for f in sorted(set(cols) - rows.keys()):
        v = [-rows[j][f] if j in rows else d if j == f else 0 for j in cols]
        g = gcd(*v) if d > 0 else -gcd(*v)
        kernel.append([a // g for a in v])
    return kernel


def rank(matrix) -> int:
    """Rank over Q.  Entries may be ints or Fractions; each row is
    scaled to integers by its common denominator, then eliminated over
    Z without fractions."""
    # _eliminate works in place, and _integer_row may return the caller's row
    return _eliminate(_checked([list(_integer_row(row)) for row in matrix]))[0]


def _checked(rows: list, square: bool = False) -> list:
    """rows, once they are known to have one length: the number of rows
    if square; ValueError otherwise."""
    width = len(rows) if square else len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("matrix is not square" if square else "matrix rows differ in length")
    return rows


def _integer_row(row):
    """row scaled by the least common multiple of its denominators, as
    ints; row itself, not a copy, when its entries are ints already."""
    if all(type(v) is int for v in row):
        return row
    den = lcm(*(Fraction(v).denominator for v in row))
    return [int(Fraction(v) * den) for v in row]


def invert(matrix) -> list[list[Fraction]]:
    """Inverse of a square matrix over Q, read off the reduced row
    echelon form of [M | I]; raises ValueError if singular.

    >>> [[str(v) for v in row] for row in invert([[2, 1], [4, 3]])]
    [['3/2', '-1/2'], ['-2', '1']]
    >>> invert([[1, 2], [2, 4]])
    Traceback (most recent call last):
    ...
    ValueError: matrix is singular
    """
    rows = _checked([list(row) for row in matrix], square=True)
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def singular(matrix) -> bool:
    """Whether a square matrix over Q has determinant zero, exactly.

    Rows are scaled to integers and eliminated mod PRIME by
    _eliminate_mod_p, on packed rows whose w-bit slots never carry (see
    the module docstring), up to the first column without a pivot,
    which is as far as its kernel vector reads.  Full rank mod p proves
    det != 0.  Otherwise the kernel vector of that first free column is
    lifted to Q by rational reconstruction and its denominators
    cleared; a nonzero integer w with M w = 0 over Z proves det == 0.
    If the lift or that check fails (p divides a nonzero determinant,
    or the kernel needs larger entries), the rank is taken over Z.
    """
    rows = _checked([_integer_row(row) for row in matrix], square=True)
    n = len(rows)
    echelon = _eliminate_mod_p(rows)
    if len(echelon) == n:
        return False
    w = _lifted_kernel_vector(echelon)
    # w is nonzero at the free column, so M w = 0 means det M = 0
    if w is not None and not any(sum(a * b for a, b in zip(row, w)) for row in rows):
        return True
    # copied: _eliminate works in place, and rows may be the caller's own
    return _eliminate([list(row) for row in rows])[0] < n


def _lifted_kernel_vector(echelon) -> list[int] | None:
    """An integer vector w, one entry per column up to the first free
    column f = len(echelon), with w[f] != 0 and w mod p in the kernel
    of the echelon rows mod PRIME (from _eliminate_mod_p); None if an
    entry has no rational lift within LIFT_BOUND.

    Columns before f are the pivots, all 1, of the f echelon rows, so w
    is x[f] = 1 back-substituted through those rows, later columns zero.
    """
    free = len(echelon)
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
