"""Sparse linear combinations of diagrams with exact coefficients.

Elements live at a fixed rank in one of two modes: generic, where
coefficients are polynomials in the parameter x, and specialized, where
the parameter is a fixed rational n.  The product of two diagrams is
x^r (or n^r) times their composition, r counting the components removed
from the middle row, so the structure constants lie in Z[x].  A
specialized element keeps int numerators over one common denominator,
so its sums, scalings, products and equality do no Fraction arithmetic;
``terms`` shows its coefficients as Fractions.

>>> from partalg.algebra import diagram_element, multiply
>>> from partalg.diagrams import make_diagram
>>> p1 = diagram_element(make_diagram(2, [[1], [-1]]))
>>> print(multiply(p1, p1))
(x)*{{1},{-1}}
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm

from .diagrams import (
    Diagram,
    _block_positions,
    _checked_diagram,
    _diagram,
    _relabeled,
    _rg_strings,
    closure_components,
    columns,
    compose,
    enumerate_diagrams,
    generator,
    identity_diagram,
    propagating_number,
)
from .errors import (
    BadParams,
    InvalidTarget,
    ModeMismatch,
    NonHalfIntegerRank,
    NonIntegerRank,
    RankMismatch,
)
from .limits import _nonnegative, check
from .scalars import Poly, Scalar, parse_parameter

__all__ = [
    "AlgebraElement",
    "element",
    "diagram_element",
    "generator_element",
    "one",
    "zero",
    "multiply",
    "embed",
    "to_orbit_basis",
    "from_orbit_basis",
    "orbit_element",
    "mobius_coefficient",
    "refinements",
    "coarsenings",
    "eps_down",
    "eps_up",
    "eps_one",
    "trace",
    "specialize",
    "ideal_basis",
    "as_scalar",
]

Mode = Fraction | None  # None is the generic parameter x


def _norm_coeff(value, mode: Mode):
    if isinstance(value, Poly):
        if mode is None:
            return value
        raise ModeMismatch("specialized element cannot hold symbolic coefficients")
    try:
        value = Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise BadParams(f"coefficient {value!r} is not a polynomial or a rational") from None
    return value if mode is not None else Poly.const(value)


def _generic_terms(double_rank: int, pairs) -> dict[Diagram, Poly]:
    # a Poly, and so the sum of two, is canonical already, and false
    # exactly when it is zero
    cleaned: dict[Diagram, Poly] = {}
    for d, c in pairs:
        if type(d) is not Diagram or d.double_rank != double_rank:
            _refuse_term(d)
        if type(c) is not Poly:
            c = _norm_coeff(c, None)
        if c:
            prev = cleaned.get(d)
            if prev is None:
                cleaned[d] = c
            else:
                total = prev + c
                if total:
                    cleaned[d] = total
                else:
                    del cleaned[d]
    return cleaned


def _refuse_term(d) -> None:
    _checked_diagram(d)
    raise RankMismatch("term rank differs from element rank")


def _specialized_terms(double_rank: int, pairs, mode: Fraction) -> tuple[dict[Diagram, int], int]:
    """The summed coefficients as nonzero ints over one positive
    denominator, in lowest terms."""
    sums: dict[Diagram, int] = {}
    den = 1
    for d, c in pairs:
        if type(d) is not Diagram or d.double_rank != double_rank:
            _refuse_term(d)
        if type(c) is not int and type(c) is not Fraction:
            c = _norm_coeff(c, mode)
        p, q = c.as_integer_ratio()
        if den % q:
            # widen den to lcm(den, q), rescaling the sums so far
            m = q // gcd(den, q)
            den *= m
            for k in sums:
                sums[k] *= m
        sums[d] = sums.get(d, 0) + p * (den // q)
    return _lowest_terms(sums, den)


def _lowest_terms(sums: dict[Diagram, int], den: int) -> tuple[dict[Diagram, int], int]:
    """sums / den, for den > 0, with the zero sums dropped and the rest
    in lowest terms."""
    g = gcd(den, *sums.values())
    if g > 1:
        return {d: v // g for d, v in sums.items() if v}, den // g
    if all(sums.values()):
        return sums, den
    return {d: v for d, v in sums.items() if v}, den


class AlgebraElement:
    """Linear combination of same-rank diagrams.  Treat as immutable.

    ``terms`` is a dict or an iterable of (diagram, coefficient) pairs;
    the coefficients of a repeated diagram are summed, and a diagram
    whose sum is zero is dropped.

    A specialized element stores its coefficients as the nonzero ints
    ``num`` over one positive int ``den``, in lowest terms (gcd(den,
    *num.values()) == 1), so equal elements store equal numerators and
    denominators and their sums, scalings and products run on ints.
    A generic element stores Poly coefficients in ``num`` over ``den``
    1.  The constructor takes ints, Fractions and values Fraction()
    parses, which become constant Polys in generic mode, and Polys in
    generic mode only; any other coefficient, a rational function among
    them, raises BadParams.  It reads a mode other than None with
    ``parse_parameter``.  ``terms`` shows the coefficients by diagram,
    as Fractions in specialized mode.

    >>> from partalg.diagrams import identity_diagram, make_diagram
    >>> p1, e = make_diagram(2, [[1], [-1]]), identity_diagram(2)
    >>> a = AlgebraElement(2, [(p1, Fraction(1, 2)), (e, 3)], Fraction(3))
    >>> a.num[p1], a.num[e], a.den
    (1, 6, 2)
    >>> b = a.scale(Fraction(2, 3))
    >>> b.num[p1], b.num[e], b.den
    (1, 6, 3)
    >>> b.terms[p1], b.terms[e]
    (Fraction(1, 3), Fraction(2, 1))
    """

    __slots__ = ("double_rank", "mode", "num", "den")

    def __init__(self, double_rank: int, terms, mode: Mode = None):
        check("diagram", double_rank)
        if mode is not None:
            mode = parse_parameter(mode)
        # the term loops refuse with PartalgErrors; these mean no pairs
        try:
            pairs = terms.items() if isinstance(terms, dict) else iter(terms)
            if mode is None:
                self.num, self.den = _generic_terms(double_rank, pairs), 1
            else:
                self.num, self.den = _specialized_terms(double_rank, pairs, mode)
        except (TypeError, ValueError):
            raise BadParams(f"terms must be diagram, coefficient pairs: {terms!r}") from None
        self.double_rank = double_rank
        self.mode = mode

    @property
    def terms(self) -> dict[Diagram, Scalar]:
        """The nonzero coefficients by diagram: Fractions in specialized
        mode, Polys in generic mode."""
        if self.mode is None:
            return self.num
        den = self.den
        return {d: Fraction(v, den) for d, v in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, d: Diagram):
        if self.mode is None:
            return self.num.get(d, Poly(()))
        return Fraction(self.num.get(d, 0), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.double_rank == other.double_rank
            and (self.mode is other.mode or self.mode == other.mode)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.double_rank, self.mode, self.den, frozenset(self.num.items())))

    def _check_compatible(self, other: AlgebraElement) -> None:
        if self.double_rank != other.double_rank:
            raise RankMismatch("element ranks differ")
        if self.mode is not other.mode and self.mode != other.mode:
            raise ModeMismatch("element modes differ")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_compatible(other)
        if self.mode is not None:
            return _add_specialized(self, other, 1)
        merged = dict(self.num)
        for d, c in other.num.items():
            merged[d] = merged.get(d, 0) + c
        return AlgebraElement(self.double_rank, merged, self.mode)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_compatible(other)
        if self.mode is not None:
            return _add_specialized(self, other, -1)
        return self + (-other)

    def __neg__(self) -> AlgebraElement:
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> AlgebraElement:
        if self.mode is None:
            value = _norm_coeff(value, None)
            return AlgebraElement(
                self.double_rank, {d: c * value for d, c in self.num.items()}
            )
        p, q = _norm_coeff(value, self.mode).as_integer_ratio()
        num = {d: v * p for d, v in self.num.items()}
        return _trusted(self.double_rank, *_lowest_terms(num, self.den * q), self.mode)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for d, c in sorted(self.terms.items(), key=lambda item: item[0].blocks):
            blocks = ",".join(
                "{" + ",".join(str(v) for v in b) + "}" for b in d.blocks
            )
            parts.append(f"({c})*{{{blocks}}}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<AlgebraElement rank {Fraction(self.double_rank, 2)}: {self}>"


def element(double_rank: int, terms, mode: Mode = None) -> AlgebraElement:
    return AlgebraElement(double_rank, terms, mode)


def diagram_element(d: Diagram, coeff=1, mode: Mode = None) -> AlgebraElement:
    return AlgebraElement(d.double_rank, {d: coeff}, mode)


def generator_element(kind: str, index, double_rank: int, mode: Mode = None) -> AlgebraElement:
    return diagram_element(generator(kind, index, double_rank), mode=mode)


def one(double_rank: int, mode: Mode = None) -> AlgebraElement:
    return diagram_element(identity_diagram(double_rank), mode=mode)


def zero(double_rank: int, mode: Mode = None) -> AlgebraElement:
    return AlgebraElement(double_rank, {}, mode)


def _param_power(mode: Mode, r: int):
    if mode is None:
        return Poly((0,) * r + (1,))
    return mode**r


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of d1 d2 = x^r (d1 composed over d2).

    One integer kernel per mode accumulates ints and builds the result
    through ``_trusted``, without the constructor's checks, dropping the
    diagrams whose sum is zero.  Specialized factors are ints over one
    denominator each, D for a and E for b; with n = p/q in lowest terms
    and K the column count (r <= K), each term pair adds u v p^r q^(K-r)
    for numerators u and v into one int per output diagram, and the
    sums are over D E q^K, reduced once by their gcd.  Generic factors
    are scaled to integers by the common denominator of all their Poly
    coefficients, D and E again (1 when every coefficient is integral):
    each term pair adds the convolution of its two integer tuples,
    shifted up by r places for x^r, into one integer list per output
    diagram, and each output coefficient is divided once at the end, by
    D E.
    """
    a._check_compatible(b)
    if a.mode is not None:
        return _multiply_specialized(a, b)
    return _multiply_poly(a.double_rank, *_integer_polys(a.num), *_integer_polys(b.num))


def _trusted(double_rank: int, num: dict[Diagram, Scalar], den: int, mode: Mode) -> AlgebraElement:
    """The element num / den, which the caller guarantees is canonical:
    terms of the rank, nonzero, of the mode's own kind (Poly over den 1,
    or ints over den > 0 in lowest terms); nothing is checked."""
    out = object.__new__(AlgebraElement)
    out.double_rank = double_rank
    out.mode = mode
    out.num = num
    out.den = den
    return out


def _add_specialized(a: AlgebraElement, b: AlgebraElement, sign: int) -> AlgebraElement:
    den = lcm(a.den, b.den)
    ka, kb = den // a.den, sign * (den // b.den)
    sums = {d: v * ka for d, v in a.num.items()}
    for d, v in b.num.items():
        sums[d] = sums.get(d, 0) + v * kb
    return _trusted(a.double_rank, *_lowest_terms(sums, den), a.mode)


def _integer_polys(terms: dict[Diagram, Poly]):
    """The Poly coefficient tuples of the terms scaled to integers by
    their common denominator, and that denominator."""
    den = 1
    for c in terms.values():
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    if den == 1:
        return [(d, c.coeffs) for d, c in terms.items()], 1
    scaled = [
        (d, [u.numerator * (den // u.denominator) for u in c.coeffs])
        for d, c in terms.items()
    ]
    return scaled, den


def _multiply_specialized(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    p, q = a.mode.numerator, a.mode.denominator
    k2 = columns(a.double_rank)
    weights = [p**r * q ** (k2 - r) for r in range(k2 + 1)]
    right = b.num.items()
    sums: dict[Diagram, int] = {}
    get = sums.get
    for d1, u in a.num.items():
        scaled = [u * w for w in weights]
        for d2, v in right:
            d, r = compose(d1, d2)
            sums[d] = get(d, 0) + scaled[r] * v
    return _trusted(a.double_rank, *_lowest_terms(sums, a.den * b.den * q**k2), a.mode)


def _multiply_poly(double_rank: int, left, da: int, right, db: int) -> AlgebraElement:
    sums: dict[Diagram, list[int]] = {}
    get = sums.get
    for d1, p in left:
        nonzero = [(i, u) for i, u in enumerate(p) if u]
        top = len(p) - 1
        for d2, q in right:
            d, r = compose(d1, d2)
            acc = get(d)
            size = r + top + len(q)
            if acc is None:
                acc = sums[d] = [0] * size
            elif len(acc) < size:
                acc.extend([0] * (size - len(acc)))
            for i, u in nonzero:
                for j, v in enumerate(q, r + i):
                    acc[j] += u * v
    den = da * db
    terms = {}
    for d, acc in sums.items():
        while acc and not acc[-1]:
            acc.pop()
        if not acc:
            continue
        if den == 1:
            terms[d] = Poly._from_ints(tuple(acc))
        else:
            terms[d] = Poly([Fraction(s, den) for s in acc])
    return _trusted(double_rank, terms, 1, None)


def embed(a: AlgebraElement, target_double_rank: int) -> AlgebraElement:
    """Inclusion along the tower, in half-rank steps.

    Integer to half adds the through-strand on the new column; half to
    integer reinterprets the same diagrams one level up.
    """
    if _nonnegative("embed target", target_double_rank) < a.double_rank:
        raise InvalidTarget("cannot embed downward")
    result = a
    while result.double_rank < target_double_rank:
        dr = result.double_rank
        if dr % 2 == 0:
            k2, fresh = columns(dr), (dr,)  # dr = 2 * k2 is past every label
            num = {
                _relabeled(dr + 1, d.labels[:k2] + fresh + d.labels[k2:] + fresh): c
                for d, c in result.num.items()
            }
        else:
            num = {_diagram(dr + 1, d.labels): c for d, c in result.num.items()}
        # distinct diagrams embed to distinct diagrams: still canonical
        result = _trusted(dr + 1, num, result.den, result.mode)
    return result


def refinements(d: Diagram) -> list[Diagram]:
    """All diagrams below d in the coarsening order (blocks split), the
    set partitions of each block in the order of ``blocks``.

    At a half-integer rank -K goes wherever K goes, so the two stay in
    one block.  There are up to Bell(double rank) of them, so the double
    rank is capped, as for every orbit-basis entry, in partalg.limits.
    """
    dr = check("orbit_basis", _checked_diagram(d).double_rank)
    k2 = columns(dr)
    twin = 2 * k2 - 1 if dr % 2 else None  # the label position of -K
    blocks = [[i for i in group if i != twin] for group in _block_positions(d)]
    out = []
    for strings in product(*(_rg_strings(len(members)) for members in blocks)):
        names: list = [None] * (2 * k2)
        for b, (members, string) in enumerate(zip(blocks, strings)):
            for i, part in zip(members, string):
                names[i] = (b, part)
        if twin is not None:
            names[twin] = names[k2 - 1]
        out.append(_relabeled(dr, names))
    return out


def coarsenings(d: Diagram) -> list[Diagram]:
    """All diagrams above d in the coarsening order (blocks merged), the
    set partitions of ``blocks`` in order.  Every orbit-basis map goes
    through here, and shares the cap of refinements."""
    dr = check("orbit_basis", _checked_diagram(d).double_rank)
    index = {d.labels[group[0]]: n for n, group in enumerate(_block_positions(d))}
    order = [index[label] for label in d.labels]
    return [_relabeled(dr, [string[n] for n in order]) for string in _rg_strings(d.block_count)]


def mobius_coefficient(finer: Diagram, coarser: Diagram) -> int:
    """Mobius function of the refinement interval [finer, coarser]."""
    if finer.double_rank != coarser.double_rank:
        raise RankMismatch("diagram ranks differ")
    nested = set(zip(finer.labels, coarser.labels))
    if len(nested) != finer.block_count:
        raise RankMismatch("diagrams are not nested")
    out = 1
    for m in Counter(outer for _, outer in nested).values():
        out *= (-1) ** (m - 1) * factorial(m - 1)
    return out


def to_orbit_basis(a: AlgebraElement) -> dict[Diagram, Scalar]:
    """Coefficients of a on the orbit basis: each diagram is the sum of
    the orbit elements of all its coarsenings, so that the orbit element
    of d captures labelings whose equality pattern is exactly d."""
    if not isinstance(a, AlgebraElement):
        raise BadParams(f"need an AlgebraElement, not {a!r}")
    pairs = ((coarser, c) for d, c in a.terms.items() for coarser in coarsenings(d))
    return AlgebraElement(a.double_rank, pairs, a.mode).terms


def from_orbit_basis(
    coeffs, double_rank: int, mode: Mode = None
) -> AlgebraElement:
    """Element with the given orbit-basis coefficients."""
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    pairs = ((e, c * mobius_coefficient(d, e)) for d, c in items for e in coarsenings(d))
    return AlgebraElement(double_rank, pairs, mode)


def orbit_element(d: Diagram, mode: Mode = None) -> AlgebraElement:
    """The orbit basis element of d as a diagram combination."""
    return from_orbit_basis({d: 1}, d.double_rank, mode)


def eps_down(a: AlgebraElement) -> AlgebraElement:
    """Halves the rank by merging the blocks of the last column's
    endpoints; linear, no parameter factor."""
    if a.double_rank % 2 == 1:
        raise NonIntegerRank("lowering by a half step needs an integer rank")
    if a.double_rank == 0:
        raise InvalidTarget("rank 0 has no lower level")
    k2 = columns(a.double_rank)
    pairs = []
    for d, c in a.terms.items():
        top, bottom = d.labels[k2 - 1], d.labels[-1]
        names = (top if label == bottom else label for label in d.labels)
        pairs.append((_relabeled(a.double_rank - 1, names), c))
    return AlgebraElement(a.double_rank - 1, pairs, a.mode)


def eps_up(a: AlgebraElement) -> AlgebraElement:
    """Lowers a half-integer rank by deleting the constraint column; a
    term picks up a factor of the parameter exactly when its constraint
    block is the bare pair, which the deletion destroys."""
    if a.double_rank % 2 == 0:
        raise NonHalfIntegerRank("deleting the last column needs a half-integer rank")
    k2 = columns(a.double_rank)
    x = _param_power(a.mode, 1)
    pairs = []
    for d, c in a.terms.items():
        rest = d.labels[: k2 - 1] + d.labels[k2:-1]
        kept = d.labels[k2 - 1] in rest
        pairs.append((_relabeled(a.double_rank - 1, rest), c if kept else c * x))
    return AlgebraElement(a.double_rank - 1, pairs, a.mode)


def eps_one(a: AlgebraElement) -> AlgebraElement:
    """Full-step conditional expectation: merge then delete."""
    if a.double_rank % 2 == 1:
        raise NonIntegerRank("full step needs an integer rank")
    return eps_up(eps_down(a))


def trace(a: AlgebraElement) -> Scalar:
    """tr(d) = parameter^(closure components), extended linearly."""
    total = Fraction(0) if a.mode is not None else Poly(())
    for d, c in a.terms.items():
        total = total + c * _param_power(a.mode, closure_components(d))
    return total


def specialize(a: AlgebraElement, n) -> AlgebraElement:
    """Evaluates generic coefficients at x = n."""
    if a.mode is not None:
        raise ModeMismatch("element is already specialized")
    point = parse_parameter(n)
    return AlgebraElement(a.double_rank, {d: c(point) for d, c in a.terms.items()}, point)


def ideal_basis(double_rank: int) -> list[Diagram]:
    """Diagrams with propagating number below the column count; they
    span the ideal complementing the permutation quotient."""
    k2 = columns(check("enumerate_diagrams", double_rank))
    return [
        d
        for d in enumerate_diagrams(double_rank)
        if propagating_number(d) < k2
    ]


def as_scalar(a: AlgebraElement) -> Scalar:
    """Reads a rank-0 element as a scalar."""
    if a.double_rank != 0:
        raise RankMismatch("only rank 0 elements are scalars")
    if not a.terms:
        return Fraction(0) if a.mode is not None else Poly(())
    return next(iter(a.terms.values()))
