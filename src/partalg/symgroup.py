"""Symmetric group machinery inside the diagram tower.

Permutations, the sum-of-transpositions central element, Young
symmetrizers, and exact rational matrix units for the group algebra.
The units come from Young's seminormal representation of each shape
alone: adjacent transpositions act on the standard tableaux by matrices
read from contents, a walk of the group gives every permutation's
matrix, and Fourier inversion turns the entries into units (Okounkov
and Vershik, Selecta Math. 2 (1996)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import factorial, gcd, lcm

from .algebra import AlgebraElement, Mode, _norm_coeff, diagram_element, multiply
from .combinatorics import _validate, partitions_of, syt_dimension
from .diagrams import _as_tuple, _int_images, permutation_diagram
from .errors import BadParams, SizeMismatch
from .limits import _nonnegative, check
from .scalars import parse_parameter

__all__ = [
    "Permutation",
    "MatrixUnitSystem",
    "transposition",
    "kappa",
    "standard_tableaux_of",
    "row_reading_tableau",
    "column_reading_tableau",
    "young_elements",
    "sym_matrix_units",
]


class Permutation:
    """Bijection of {1..size} stored in one-line form."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = _int_images(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise SizeMismatch("images are not a bijection of 1..size")
        self.images = images

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """(self * other)(i) = other(self(i)): apply self first, matching
        the top-down diagram product."""
        if self.size != other.size:
            raise SizeMismatch("permutation sizes differ")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> Permutation:
        out = [0] * self.size
        for i, v in enumerate(self.images, start=1):
            out[v - 1] = i
        return Permutation(out)

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = [False] * self.size
        out = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cycle = []
            v = start
            while not seen[v - 1]:
                seen[v - 1] = True
                cycle.append(v)
                v = self.images[v - 1]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def to_element(self, mode: Mode = None) -> AlgebraElement:
        return diagram_element(permutation_diagram(self.images, 2 * self.size), mode=mode)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    @staticmethod
    def from_cycles(size: int, cycles) -> Permutation:
        images = list(range(1, _nonnegative("from_cycles", size) + 1))
        for cycle in _as_tuple(cycles, "cycles"):
            cycle = _as_tuple(cycle, "a cycle")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[_point(a, size) - 1] = b
        return Permutation(images)


def _point(v, size: int) -> int:
    """v if it is an int (a bool is not) in 1..size, else BadParams."""
    if type(v) is not int or not 1 <= v <= size:
        raise BadParams(f"{v!r} is not a point of 1..{size}")
    return v


def transposition(a: int, b: int, size: int) -> Permutation:
    images = list(range(1, _nonnegative("transposition", size) + 1))
    if _point(a, size) == _point(b, size):
        raise BadParams(f"({a} {b}) is not a transposition")
    images[a - 1], images[b - 1] = b, a
    return Permutation(images)


def kappa(n: int, mode: Mode = None) -> AlgebraElement:
    """Sum of all transpositions of S_n; central in the group algebra."""
    pairs = combinations(range(1, check("kappa", n) + 1), 2)
    terms = ((permutation_diagram(transposition(a, b, n).images, 2 * n), 1) for a, b in pairs)
    return AlgebraElement(2 * n, terms, mode)


def standard_tableaux_of(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Standard fillings of the shape, as row tuples, sorted; BadParams
    unless the shape is a partition, and LimitExceeded, before any
    filling is made, over the box cap or when the fillings would hold
    more entries (boxes times the hook-length count) than
    partalg.limits allows."""
    shape = _validate(shape)
    size = sum(shape)
    # grow recurses once per box, and the count costs the square of size
    check("standard_tableaux_boxes", size)
    check("standard_tableaux", size * syt_dimension(shape))

    def grow(rows: tuple[tuple[int, ...], ...], value: int):
        if value > size:
            yield rows
            return
        for r, length in enumerate(shape):
            if len(rows[r]) < length and (r == 0 or len(rows[r]) < len(rows[r - 1])):
                yield from grow(rows[:r] + (rows[r] + (value,),) + rows[r + 1 :], value + 1)

    return sorted(grow(tuple(() for _ in shape), 1))


def row_reading_tableau(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    rows, next_value = [], 1
    for length in shape:
        rows.append(tuple(range(next_value, next_value + length)))
        next_value += length
    return tuple(rows)


def column_reading_tableau(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * length for length in shape]
    next_value = 1
    for j in range(shape[0]):
        for i in range(len(shape)):
            if j < shape[i]:
                rows[i][j] = next_value
                next_value += 1
    return tuple(tuple(r) for r in rows)


def _subgroup_sum(shape: tuple[int, ...], size: int, signed: bool, mode: Mode) -> AlgebraElement:
    """Sum over the parabolic subgroup permuting consecutive segments,
    with signs when requested."""
    segments = row_reading_tableau(shape)
    pairs = []
    for choice in product(*(permutations(seg) for seg in segments)):
        images = list(range(1, size + 1))
        for seg, perm in zip(segments, choice):
            for slot, value in zip(seg, perm):
                images[slot - 1] = value
        w = Permutation(images)
        pairs.append((permutation_diagram(w.images, 2 * size), w.sign() if signed else 1))
    return AlgebraElement(2 * size, pairs, mode)


def _conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        sum(1 for length in shape if length > j) for j in range(shape[0])
    ) if shape else ()


def _checked_shape(shape, size: int) -> tuple[int, ...]:
    try:
        shape = _validate(shape)
    except BadParams as exc:
        raise SizeMismatch(str(exc)) from None
    if sum(shape) != size:
        raise SizeMismatch("shape size differs from the group rank")
    return shape


def reading_word_permutation(shape, size: int) -> Permutation:
    """The permutation carrying the row reading tableau entrywise to
    the column reading tableau."""
    shape = _checked_shape(shape, size)
    images = [0] * size
    for s_row, d_row in zip(row_reading_tableau(shape), column_reading_tableau(shape)):
        for s, d in zip(s_row, d_row):
            images[s - 1] = d
    return Permutation(images)


def young_elements(shape, size: int, mode: Mode = None):
    """Row-sum, signed column-sum, the reading-word permutation, and
    the quasi-idempotent built from them.

    Returns (row_part, signed_part, tau, product) where the product is
    row_part * tau * signed_part * tau^{-1}.
    """
    shape = _checked_shape(shape, size)
    row_part = _subgroup_sum(shape, size, signed=False, mode=mode)
    signed_part = _subgroup_sum(_conjugate(shape), size, signed=True, mode=mode)
    tau = reading_word_permutation(shape, size)
    conjugated = multiply(
        multiply(tau.to_element(mode), signed_part), tau.inverse().to_element(mode)
    )
    return row_part, signed_part, tau, multiply(row_part, conjugated)


class MatrixUnitSystem:
    """Complete system of matrix units of one algebra, at double rank
    double_rank and parameter mode.

    Keys are (shape, P, Q) with P, Q standard tableaux of the shape for
    the group algebra of S_k, or (vertex, P, Q) with P, Q root-to-vertex
    walks in the Bratteli graph for a level of the diagram tower.
    """

    __slots__ = ("double_rank", "mode", "index", "units")

    def __init__(self, double_rank: int, mode: Mode, units: dict):
        self.double_rank = double_rank
        self.mode = mode
        self.index = sorted(units)
        self.units = units

    def unit(self, shape, p, q) -> AlgebraElement:
        try:
            return self.units[(tuple(shape), p, q)]
        except (KeyError, TypeError):
            raise BadParams(f"no unit ({shape!r}, {p!r}, {q!r})") from None

    def diagonal_index(self) -> list[tuple]:
        return [key for key in self.index if key[1] == key[2]]

    def identity_sum(self) -> AlgebraElement:
        diagonal = (self.units[key].terms.items() for key in self.diagonal_index())
        return AlgebraElement(self.double_rank, chain.from_iterable(diagonal), self.mode)


def _seminormal(shape, i: int) -> list[list[Fraction]]:
    """Young's seminormal matrix of s_i = (i i+1) on the standard
    tableaux of the shape, in sorted order.

    The column of tableau T holds 1/r on the diagonal, with
    r = c_T(i+1) - c_T(i) the difference of the contents: 1 when i and
    i + 1 share a row of T, and -1 when they share a column.  Otherwise
    |r| > 1, and the row of T with i and i + 1 exchanged holds 1 when
    i + 1 sits in a lower row of T than i (r < 0), else 1 - 1/r^2.

    >>> [[str(v) for v in row] for row in _seminormal((2, 1), 2)]
    [['-1/2', '3/4'], ['1', '1/2']]
    """
    tabs = standard_tableaux_of(shape)
    out = [[Fraction(0)] * len(tabs) for _ in tabs]
    for a, t in enumerate(tabs):
        content = {v: j - k for k, row in enumerate(t) for j, v in enumerate(row)}
        r = content[i + 1] - content[i]
        out[a][a] = Fraction(1, r)
        if abs(r) > 1:
            out[tabs.index(_swapped(t, i))][a] = Fraction(1) if r < 0 else 1 - Fraction(1, r * r)
    return out


def sym_matrix_units(size: int, mode: Mode = None) -> MatrixUnitSystem:
    """Matrix units for the group algebra of S_size; partalg.limits caps 2 * size.

    Every unit is read from Young's seminormal representation rho of
    its shape lam by Fourier inversion: with P and Q the a-th and b-th
    standard tableaux of lam and f its number of tableaux,

        E_{P,Q} = (f / size!) * sum over g of rho(g)[b][a] * g.

    rho(g) is found for every g by a breadth-first walk from the
    identity, rho(s_i w) = S_i rho(w), with S_i the seminormal matrix
    of s_i = (i i+1) (see _seminormal).  The diagonal units are the
    Okounkov-Vershik idempotents: X_m = sum of (j m) over j < m acts on
    E_{T,T} as c_T(m), the content of m's box.  No algebra product is
    taken.

    >>> from partalg.algebra import one
    >>> units = sym_matrix_units(2)
    >>> print(units.unit((2,), ((1, 2),), ((1, 2),)))
    (1/2)*{{1,-2},{-1,2}} + (1/2)*{{1,-1},{2,-2}}
    >>> print(units.unit((1, 1), ((1,), (2,)), ((1,), (2,))))
    (-1/2)*{{1,-2},{-1,2}} + (1/2)*{{1,-1},{2,-2}}
    >>> sym_matrix_units(4).identity_sum() == one(8)
    True
    """
    check("sym_matrix_units", 2 * size if type(size) is int else size)
    return _sym_matrix_units(size, None if mode is None else parse_parameter(mode))


# Each kept size-6 system holds about 13 MB.  Ten modes at size 6 in one
# process peaked at 169 MB unbounded and at 103 MB with this bound (four
# kept while a fifth is built); a rebuild at size 6 takes 0.6-1.0 s.
@lru_cache(maxsize=4)
def _sym_matrix_units(size: int, mode: Mode) -> MatrixUnitSystem:
    shapes = [tuple(shape) for shape in partitions_of(size)]
    tableaux = [standard_tableaux_of(shape) for shape in shapes]
    generators = [[_integral(_seminormal(shape, i)) for shape in shapes] for i in range(1, size)]
    # rho(g) of each shape, g a map of 0..size-1, and rho(s_i w) = S_i rho(w)
    start = tuple(range(size))
    rho = {start: [(1, [[int(a == b) for b in tabs] for a in tabs]) for tabs in tableaux]}
    walk = [start]
    for w in walk:
        for i, sparse in enumerate(generators):
            g = tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)
            if g not in rho:
                rho[g] = [_product(s, m) for s, m in zip(sparse, rho[w])]
                walk.append(g)
    diagrams = [permutation_diagram([v + 1 for v in g], 2 * size) for g in walk]
    order = factorial(size)
    # the coefficients take few values: each is read into the mode's kind once
    coefficient = lru_cache(maxsize=None)(lambda num, den: _norm_coeff(Fraction(num, den), mode))

    units: dict = {}
    for k, (shape, tabs) in enumerate(zip(shapes, tableaux)):
        matrices = [rho[g][k] for g in walk]
        for a, p in enumerate(tabs):
            for b, q in enumerate(tabs):
                terms = (
                    (d, coefficient(len(tabs) * rows[b][a], order * den))
                    for d, (den, rows) in zip(diagrams, matrices)
                    if rows[b][a]
                )
                units[(shape, p, q)] = AlgebraElement(2 * size, terms, mode)
    return MatrixUnitSystem(2 * size, mode, units)


def _integral(matrix) -> tuple[int, list]:
    """(den, rows): den the common denominator of the rational matrix, a
    row the (column, den * entry) pairs of its nonzero entries."""
    den = lcm(*(v.denominator for row in matrix for v in row))
    return den, [[(c, int(v * den)) for c, v in enumerate(row) if v] for row in matrix]


def _product(s, m) -> tuple[int, list]:
    """S M for S in the form of _integral and M as (den, int rows),
    returned as (den, int rows) in lowest terms."""
    (s_den, s_rows), (den, rows) = s, m
    out = [[sum(v * rows[c][j] for c, v in row) for j in range(len(rows))] for row in s_rows]
    g = gcd(s_den * den, *chain.from_iterable(out))
    return s_den * den // g, [[x // g for x in row] for row in out]


def _swapped(tableau, i: int):
    """The tableau with the entries i and i + 1 exchanged."""
    swap = {i: i + 1, i + 1: i}
    return tuple(tuple(swap.get(v, v) for v in row) for row in tableau)
