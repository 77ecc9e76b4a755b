"""Symmetric group machinery inside the diagram tower.

Permutations, the sum-of-transpositions central element, Young
symmetrizers, and exact rational matrix units for the group algebra.
The diagonal units project onto the joint eigenspaces of the commuting
family X_i = sum of (j i), j < i, at its integer content eigenvalues;
the off-diagonal ones are read from Young's seminormal form, where an
adjacent transposition acts on the units of two tableaux with
coefficients given by their contents.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product

from .algebra import AlgebraElement, Mode, diagram_element, multiply, one
from .combinatorics import _validate, partitions_of
from .diagrams import permutation_diagram
from .errors import BadParams, SizeMismatch
from .limits import check
from .scalars import parse_rational

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
        images = tuple(int(v) for v in images)
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
        return diagram_element(
            permutation_diagram(self.images, 2 * self.size), mode=mode
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    @staticmethod
    def identity(size: int) -> Permutation:
        return Permutation(range(1, size + 1))

    @staticmethod
    def from_cycles(size: int, cycles) -> Permutation:
        images = list(range(1, size + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return Permutation(images)


def transposition(a: int, b: int, size: int) -> Permutation:
    images = list(range(1, size + 1))
    images[a - 1], images[b - 1] = b, a
    return Permutation(images)


def kappa(n: int, mode: Mode = None) -> AlgebraElement:
    """Sum of all transpositions of S_n; central in the group algebra."""
    return _transposition_sum(combinations(range(1, n + 1), 2), n, mode)


def _transposition_sum(pairs, size: int, mode: Mode) -> AlgebraElement:
    """Sum of the transpositions (a b) of S_size over the pairs (a, b)."""
    perms = (transposition(a, b, size).images for a, b in pairs)
    terms = ((permutation_diagram(w, 2 * size), 1) for w in perms)
    return AlgebraElement(2 * size, terms, mode)


def standard_tableaux_of(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Standard fillings of the shape, as row tuples, sorted."""
    size = sum(shape)

    def grow(rows: tuple[tuple[int, ...], ...], value: int):
        if value > size:
            yield rows
            return
        for r in range(len(shape)):
            filled = len(rows[r]) if r < len(rows) else 0
            if r == 0:
                above = shape[0]
            else:
                above = len(rows[r - 1]) if r - 1 < len(rows) else 0
            if filled < shape[r] and filled < above:
                grown = list(rows)
                while len(grown) <= r:
                    grown.append(())
                grown[r] = grown[r] + (value,)
                yield from grow(tuple(grown), value + 1)

    return sorted(grow((), 1))


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


def _tableau_map(src, dst, size: int) -> Permutation:
    """The permutation carrying tableau src entrywise to dst."""
    images = [0] * size
    for s_row, d_row in zip(src, dst):
        for s, d in zip(s_row, d_row):
            images[s - 1] = d
    return Permutation(images)


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
    return _tableau_map(row_reading_tableau(shape), column_reading_tableau(shape), size)


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
        return self.units[(tuple(shape), p, q)]

    def diagonal_index(self) -> list[tuple]:
        return [key for key in self.index if key[1] == key[2]]

    def identity_sum(self) -> AlgebraElement:
        diagonal = (self.units[key].terms.items() for key in self.diagonal_index())
        return AlgebraElement(self.double_rank, chain.from_iterable(diagonal), self.mode)


def _addable_contents(shape) -> list[int]:
    """Contents j - i of the boxes (i, j) that can be added to the shape."""
    lengths = list(shape) + [0]
    return [
        length - i
        for i, length in enumerate(lengths)
        if i == 0 or lengths[i - 1] > length
    ]


def sym_matrix_units(size: int, mode: Mode = None) -> MatrixUnitSystem:
    """Matrix units for the group algebra of S_size; partalg.limits caps 2 * size.

    Diagonal units grow along the branching tree (Okounkov-Vershik).
    With m the largest entry of the tableau T, T' the tableau T
    without m, and c_T(m) the content of m's box,

        E_T = E_T' * prod (X_m - c) / (c_T(m) - c),

    c running over the contents of the addable boxes of the shape of
    T' other than c_T(m), and E of the empty tableau the identity.  X_m
    is the sum of (j m) over j < m; it commutes with E_T' and acts on
    its image with one eigenvalue per addable box.  Every prefix unit
    is built once, and each unit is scaled once.

    Off-diagonal units follow Young's seminormal form.  A breadth-first
    walk from the first tableau of each shape reaches every tableau T
    from one S by a swap of i and i + 1, s_i = (i i+1).  With
    r = c_T(i+1) - c_T(i), never 0 or +-1, E_T s_i E_T = E_T / r, so

        E_{S,T} = (s_i E_T - E_T / r) * r^2 / (r^2 - 1),
        E_{T,S} = E_T s_i - E_T / r,

    multiply to E_S and E_T.  Units from and to the first tableau are
    chained along the walk, and the rest are their products.

    >>> units = sym_matrix_units(2)
    >>> print(units.unit((2,), ((1, 2),), ((1, 2),)))
    (1/2)*{{1,-2},{-1,2}} + (1/2)*{{1,-1},{2,-2}}
    >>> print(units.unit((1, 1), ((1,), (2,)), ((1,), (2,))))
    (-1/2)*{{1,-2},{-1,2}} + (1/2)*{{1,-1},{2,-2}}
    >>> sym_matrix_units(4).identity_sum() == one(8)
    True
    """
    check("sym_matrix_units", 2 * size if type(size) is int else size)
    return _sym_matrix_units(size, None if mode is None else parse_rational(mode))


@lru_cache(maxsize=None)
def _sym_matrix_units(size: int, mode: Mode) -> MatrixUnitSystem:
    # X_m, the sum of (j m) over j < m
    jm = [
        _transposition_sum(((j, m) for j in range(1, m)), size, mode)
        for m in range(1, size + 1)
    ]
    swaps = [transposition(i, i + 1, size).to_element(mode) for i in range(1, size)]
    identity = one(2 * size, mode)
    grown: dict[tuple, AlgebraElement] = {(): identity}

    def diagonal_unit(tableau) -> AlgebraElement:
        unit = grown.get(tableau)
        if unit is not None:
            return unit
        m = sum(map(len, tableau))
        row = next(i for i, r in enumerate(tableau) if r[-1] == m)
        prefix = tuple(r[:-1] if i == row else r for i, r in enumerate(tableau) if r != (m,))
        target = len(tableau[row]) - 1 - row
        unit, ratio = diagonal_unit(prefix), 1
        for c in _addable_contents(map(len, prefix)):
            if c != target:
                unit = multiply(unit, jm[m - 1] - identity.scale(c))
                ratio *= target - c
        grown[tableau] = unit = unit.scale(Fraction(1, ratio))
        return unit

    units: dict = {}
    for shape in map(tuple, partitions_of(size)):
        tabs = standard_tableaux_of(shape)
        base = tabs[0]
        units[(shape, base, base)] = diagonal_unit(base)
        walk, unseen = [base], set(tabs[1:])
        # E_{base,T} and E_{T,base}
        from_base: dict = {}
        to_base: dict = {}
        for s in walk:
            for i in range(1, size):
                t = _swapped(s, i)
                if t not in unseen:
                    continue
                unseen.remove(t)
                walk.append(t)
                diag = units[(shape, t, t)] = diagonal_unit(t)
                content = {v: j - k for k, row in enumerate(t) for j, v in enumerate(row)}
                r = content[i + 1] - content[i]
                tail = diag.scale(Fraction(1, r))
                step_from = (multiply(swaps[i - 1], diag) - tail).scale(Fraction(r * r, r * r - 1))
                step_to = multiply(diag, swaps[i - 1]) - tail
                from_base[t] = step_from if s == base else multiply(from_base[s], step_from)
                to_base[t] = step_to if s == base else multiply(step_to, to_base[s])
        for p in tabs[1:]:
            units[(shape, p, base)] = to_base[p]
            units[(shape, base, p)] = from_base[p]
            for q in tabs[1:]:
                if p != q:
                    units[(shape, p, q)] = multiply(to_base[p], from_base[q])
    return MatrixUnitSystem(2 * size, mode, units)


def _swapped(tableau, i: int):
    """The tableau with the entries i and i + 1 exchanged."""
    swap = {i: i + 1, i + 1: i}
    return tuple(tuple(swap.get(v, v) for v in row) for row in tableau)
