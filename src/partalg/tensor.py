"""Diagram actions on tensor powers of the natural module.

A rank-k diagram acts on the k-fold tensor power of an n-dimensional
space: the matrix coefficient between a top labeling and a bottom
labeling is 1 exactly when equal labels sit on every block.  Half ranks
act on the subspace whose extra slot is pinned to the last basis
vector.  The nonzero entries are generated, not searched for: each
labelling of the blocks lands at one flat position, the sum over blocks
of label times the block's place weight, so a diagram with b free
blocks costs n**b steps rather than a test of every pair of labelings;
orbit elements take the labellings with distinct labels.  Each support
is built once per (diagram, n) and kept, as a tuple of positions, in
one bounded cache; every public call checks its arguments before it
reads the cache, and builds its own rows.  A matrix is exact: int rows
over one positive common denominator, in lowest terms, so equality
compares ints and no operation does Fraction arithmetic.

Ranks are counted, not eliminated: a labelling fixes which blocks share
labels, so the orbit supports partition the matrix positions, and the
rank of the span of the actions is the number of nonempty supports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product
from math import gcd, lcm
from operator import mul

from .algebra import AlgebraElement, diagram_element, multiply
from .combinatorics import build_bratteli, counting, syt_dimension
from .diagrams import Diagram, _checked_diagram, _generators, columns
from .diagrams import enumerate_diagrams, identity_diagram
from .errors import BadParams, PartalgError, RankMismatch
from .limits import check

__all__ = [
    "EndoMatrix",
    "phi",
    "phi_orbit",
    "sym_tensor_matrix",
    "endo_eps",
    "restrict_last",
    "homomorphism_check",
    "commutant_dims",
    "bimodule_dimension_check",
]

class EndoMatrix:
    """Endomorphism of the slots-fold tensor power of an n-space.

    Rows are indexed by top (input) labelings, columns by bottom
    (output) labelings, both enumerated big-endian with the first slot
    most significant; with that layout the matrix product of two
    diagram actions stacks the diagrams top to bottom.

    The entries are the int rows ``num`` over one positive int ``den``,
    kept in lowest terms (gcd(den, *entries) == 1), so equal matrices
    store equal rows and denominators and every operation runs on ints.
    The constructor takes int and Fraction entries; ``rows`` shows them
    as ints where integral and Fractions otherwise.

    >>> m = EndoMatrix(2, 1, [[Fraction(1, 2), 1], [0, 2]])
    >>> p = (m @ m).scale(3)
    >>> p.rows
    [[Fraction(3, 4), Fraction(15, 2)], [0, 12]]
    >>> p.num, p.den
    ([[3, 30], [0, 48]], 4)
    """

    __slots__ = ("n", "slots", "num", "den")

    def __init__(self, n: int, slots: int, rows):
        side = _side(n, slots)
        try:
            rows = [list(row) for row in rows]
        except TypeError as exc:
            raise BadParams("rows must be sequences of entries") from exc
        if len(rows) != side or any(len(r) != side for r in rows):
            raise BadParams("matrix side must be n**slots")
        if not all(_is_int(v) or isinstance(v, Fraction) for row in rows for v in row):
            raise BadParams("entries must be ints or Fractions")
        # over the lcm of reduced denominators the rows are in lowest terms
        den = lcm(*(v.denominator for row in rows for v in row))
        self.n = n
        self.slots = slots
        self.num = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
        self.den = den

    @classmethod
    def _of(cls, n: int, slots: int, num, den: int = 1) -> EndoMatrix:
        """Wraps int rows over den > 0 built in this module, without
        copying or checking, reduced to lowest terms when den > 1."""
        if den > 1:
            g = gcd(den, *chain.from_iterable(num))
            if g > 1:
                den //= g
                num = [[v // g for v in row] for row in num]
        m = cls.__new__(cls)
        m.n = n
        m.slots = slots
        m.num = num
        m.den = den
        return m

    @classmethod
    def _of_flat(cls, n: int, slots: int, flat, den: int = 1) -> EndoMatrix:
        side = n**slots
        num = [flat[i : i + side] for i in range(0, len(flat), side)]
        return cls._of(n, slots, num, den)

    @property
    def side(self) -> int:
        return self.n**self.slots

    @property
    def rows(self) -> list[list[int | Fraction]]:
        """The entries: the int rows themselves when den == 1, else
        ints where integral and Fractions otherwise."""
        den = self.den
        if den == 1:
            return self.num
        return [[Fraction(v, den) if v % den else v // den for v in row] for row in self.num]

    @staticmethod
    def zero(n: int, slots: int) -> EndoMatrix:
        side = n**slots
        return EndoMatrix._of(n, slots, [[0] * side for _ in range(side)])

    @staticmethod
    def identity(n: int, slots: int) -> EndoMatrix:
        side = n**slots
        return EndoMatrix._of(
            n, slots, [[1 if i == j else 0 for j in range(side)] for i in range(side)]
        )

    def _check(self, other: EndoMatrix) -> None:
        if self.n != other.n or self.slots != other.slots:
            raise RankMismatch("endomorphism shapes differ")

    def __add__(self, other: EndoMatrix) -> EndoMatrix:
        self._check(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return EndoMatrix._of(
            self.n,
            self.slots,
            [
                [sa * a + sb * b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.num, other.num)
            ],
            den,
        )

    def scale(self, value: int | Fraction) -> EndoMatrix:
        if not (_is_int(value) or isinstance(value, Fraction)):
            raise BadParams(f"scale by an int or a Fraction, not {value!r}")
        p = value.numerator
        return EndoMatrix._of(
            self.n,
            self.slots,
            [[p * v for v in row] for row in self.num],
            self.den * value.denominator,
        )

    def __sub__(self, other: EndoMatrix) -> EndoMatrix:
        return self + other.scale(-1)

    def __matmul__(self, other: EndoMatrix) -> EndoMatrix:
        # row-sparse accumulation; diagram actions have few nonzero entries
        self._check(other)
        side = self.side
        out = [[0] * side for _ in range(side)]
        sparse_other = [
            [(j, v) for j, v in enumerate(row) if v] for row in other.num
        ]
        for i, row in enumerate(self.num):
            target = out[i]
            for t, a in enumerate(row):
                if a:
                    for j, b in sparse_other[t]:
                        target[j] += a * b
        return EndoMatrix._of(self.n, self.slots, out, self.den * other.den)

    def trace(self) -> Fraction:
        return Fraction(sum(self.num[i][i] for i in range(self.side)), self.den)

    def is_zero(self) -> bool:
        return all(not v for row in self.num for v in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EndoMatrix)
            and self.n == other.n
            and self.slots == other.slots
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.n, self.slots, self.den, tuple(map(tuple, self.num))))

    def __repr__(self) -> str:
        return f"<EndoMatrix n={self.n} slots={self.slots}>"


def _is_int(value) -> bool:
    """Whether value is an int; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _side(n: int, slots: int) -> int:
    """n**slots, checked against the limits table; slots is checked first
    (n**slots > slots once n >= 2), so no huge power is ever built."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise BadParams(f"need an integer n >= 1, not {n!r}")
    check("tensor_side", slots)
    return check("tensor_side", n**slots)


# 1024 entries hold every diagram through double rank 7 (877 of them);
# filled with the last 1024 diagrams of double rank 8 at n = 3, 12 MB
@lru_cache(maxsize=1 << 10)
def _support(d: Diagram, n: int, distinct: bool) -> tuple[int, ...]:
    """Flat positions row * side + col of the nonzero entries of the
    action of d, one per labelling of its blocks.

    A block's weight is the sum of the place values its vertices hold
    in the flat index (top vertex m: n**(slots - m) * side, bottom
    vertex -m: n**(slots - m)), so a labelling lands at the sum of
    label * weight over the blocks.  The block holding the pinned
    column always carries the last label, n - 1.  With ``distinct`` the
    labels are pairwise distinct, as for an orbit element.

    Built once per (d, n, distinct) and shared, so the positions are an
    immutable tuple; callers check d and n first.
    """
    slots = d.double_rank // 2
    pinned = columns(d.double_rank) if d.double_rank % 2 == 1 else None
    side = n**slots
    base = 0
    weights = []
    for block in d.blocks:
        weight = sum(
            n ** (slots - v) * side if v > 0 else n ** (slots + v)
            for v in block
            if abs(v) != pinned
        )
        if pinned in block:
            base = (n - 1) * weight
        else:
            weights.append(weight)
    if distinct:
        labels = permutations(range(n - 1 if pinned else n), len(weights))
        return tuple(base + sum(map(mul, choice, weights)) for choice in labels)
    # product(range(n), repeat=len(weights)), one block at a time
    positions = [base]
    for weight in weights:
        steps = range(0, n * weight, weight)
        positions = [p + step for p in positions for step in steps]
    return tuple(positions)


def phi(b: Diagram | AlgebraElement, n: int) -> EndoMatrix:
    """Matrix of the diagram action; linear over specialized elements.

    The support of each diagram at n is built once and shared; every
    call checks its arguments and returns fresh rows.

    >>> d = Diagram(4, [[1, 2], [-1], [-2]])
    >>> phi(d, 2).rows
    [[1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]]
    >>> phi(d, 2).rows  # from the cached support
    [[1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]]
    """
    if isinstance(b, AlgebraElement):
        slots = b.double_rank // 2
        _side(n, slots)
        if b.mode != n:
            raise BadParams("element must be specialized at the same n")
        flat = [0] * n ** (2 * slots)
        for d, c in b.num.items():
            for p in _support(d, n, False):
                flat[p] += c
        return EndoMatrix._of_flat(n, slots, flat, b.den)
    return _indicator(_checked_diagram(b), n, False)


def phi_orbit(d: Diagram, n: int) -> EndoMatrix:
    """Action of the orbit element of d: entry 1 only when the label
    pattern matches the blocks of d exactly (distinct labels on
    distinct blocks)."""
    return _indicator(_checked_diagram(d), n, True)


def _indicator(d: Diagram, n: int, distinct: bool) -> EndoMatrix:
    """The 0/1 matrix on the support of d at n, after checking n and
    the side."""
    slots = d.double_rank // 2
    _side(n, slots)
    flat = [0] * n ** (2 * slots)
    for p in _support(d, n, distinct):
        flat[p] = 1
    return EndoMatrix._of_flat(n, slots, flat)


def sym_tensor_matrix(images, n: int, slots: int) -> EndoMatrix:
    """Diagonal permutation action: relabels every tensor slot."""
    _side(n, slots)
    try:
        bijection = all(map(_is_int, images)) and sorted(images) == list(range(1, n + 1))
    except TypeError:
        bijection = False
    if not bijection:
        raise BadParams("images must be a bijection of 1..n")
    labels = list(product(range(1, n + 1), repeat=slots))
    position = {lab: t for t, lab in enumerate(labels)}
    side = len(labels)
    rows = [[0] * side for _ in range(side)]
    for t, lab in enumerate(labels):
        image = tuple(images[v - 1] for v in lab)
        rows[t][position[image]] = 1
    return EndoMatrix._of(n, slots, rows)


def endo_eps(b: EndoMatrix, which: str) -> EndoMatrix:
    """Index operations on the last tensor slot: "down" keeps entries
    whose last top and bottom labels agree, "up" sums both last labels
    out, "one" contracts them against each other."""
    if b.slots < 1:
        raise BadParams("no tensor slot to operate on")
    n, slots = b.n, b.slots
    outer = n ** (slots - 1)
    if which == "down":
        rows = [
            [v if i % n == j % n else 0 for j, v in enumerate(row)]
            for i, row in enumerate(b.num)
        ]
        return EndoMatrix._of(n, slots, rows, b.den)
    if which in ("up", "one"):
        # "up" sums every pair of last labels, "one" the equal pairs
        last = [(a, c) for a in range(n) for c in range(n) if which == "up" or a == c]
        rows = [
            [sum(b.num[i * n + a][j * n + c] for a, c in last) for j in range(outer)]
            for i in range(outer)
        ]
        return EndoMatrix._of(n, slots - 1, rows, b.den)
    raise BadParams(f"unknown direction {which!r}")


def restrict_last(b: EndoMatrix, value: int | None = None) -> EndoMatrix:
    """Compression to labelings whose last slot carries the given basis
    index (default: the last one)."""
    if b.slots < 1:
        raise BadParams("no tensor slot to restrict")
    if value is None:
        value = b.n
    elif not _is_int(value):
        raise BadParams(f"pinned value must be an int, not {value!r}")
    pin = value - 1
    if not 0 <= pin < b.n:
        raise BadParams("pinned value out of range")
    n, outer = b.n, b.n ** (b.slots - 1)
    rows = [
        [b.num[i * n + pin][j * n + pin] for j in range(outer)] for i in range(outer)
    ]
    return EndoMatrix._of(n, b.slots - 1, rows, b.den)


def homomorphism_check(n: int, double_rank: int) -> dict:
    """Checks phi(g d) == phi(g) phi(d) at n for every basis diagram d
    and every g among the identity and diagrams._generators, which
    proves phi multiplicative: each diagram a is n**-r times a product
    g_1 ... g_m of generators (n >= 1), so by induction on m both
    phi(a b) and phi(a) phi(b) are n**-r phi(g_1) ... phi(g_m) phi(b),
    the latter since the identity pairs give phi(1) phi(b) = phi(b).
    ``pairs`` is (1 + generators) * Bell(double rank)."""
    check("enumerate_diagrams", double_rank)
    side = _side(n, double_rank // 2)
    gens = [identity_diagram(double_rank), *_generators(double_rank).values()]
    pairs = len(gens) * counting("bell", double_rank)
    check("homomorphism_check", pairs * side**2)
    mode = Fraction(n)
    left = [(g, diagram_element(g, 1, mode), phi(g, n)) for g in gens]
    failures = []
    for d in enumerate_diagrams(double_rank):
        element, right = diagram_element(d, 1, mode), phi(d, n)
        for g, g_element, g_matrix in left:
            if phi(multiply(g_element, element), n) != g_matrix @ right:
                failures.append((g, d))
    return {"pairs": pairs, "failures": failures}


def commutant_dims(n: int, double_rank: int) -> tuple[int, int, list[Diagram]]:
    """Rank of the span of the diagram actions, the kernel dimension,
    and the diagrams whose orbit elements span the kernel (those with
    more than n blocks, whose supports are empty).  The orbit supports
    are checked to partition the matrix positions, so the nonzero orbit
    actions are independent and span what the diagram actions span.

    >>> commutant_dims(2, 4)[:2]
    (8, 7)
    """
    check("enumerate_diagrams", double_rank)
    side = _side(n, double_rank // 2)
    basis = list(enumerate_diagrams(double_rank))
    supports = [_support(d, n, True) for d in basis]
    if sorted(chain.from_iterable(supports)) != list(range(side * side)):
        raise PartalgError("orbit supports do not partition the matrix positions")
    witnesses = [d for d, support in zip(basis, supports) if not support]
    return len(basis) - len(witnesses), len(witnesses), witnesses


def bimodule_dimension_check(n: int, double_rank: int) -> dict:
    """Dimension bookkeeping for the joint symmetric-group/diagram
    action: weighted path counts against the tensor dimension and
    squared path counts against the image rank."""
    check("tensor_side", n)  # V itself has side n, even at double rank 0 and 1
    image_rank, kernel_dim, _ = commutant_dims(n, double_rank)
    graph = build_bratteli("concrete", double_rank, n)
    level = graph.levels[double_rank]
    weighted = 0
    squared = 0
    for shape in level:
        paths = graph.path_count(double_rank, shape)
        weighted += syt_dimension(shape) * paths
        squared += paths * paths
    slots = double_rank // 2
    return {
        "tensor_dim": n**slots,
        "weighted_paths": weighted,
        "squared_paths": squared,
        "image_rank": image_rank,
        "kernel_dim": kernel_dim,
    }
