"""Structural analysis of the diagram algebras along the tower.

Two trace forms drive everything here.  The diagram trace closes a
diagram up and counts components; the regular trace reads the diagonal
of left multiplication on the diagram basis.  A diagram is a top half
(its top-row blocks, each marked propagating or not), a matching of the
propagating blocks, and a bottom half (Martin, J. Algebra 183, 1996).
Left multiplication never reads the bottom half: whether d e = x^r e,
and r, depend on e only through its top half, because stacking d on e
joins d's blocks to e's top-row blocks alone and passes e's bottom row
through.  So the regular trace of a diagram takes one composition per
top half, not per basis diagram.  Gram matrices of either form are
symmetric, so half of each is computed.  Semisimplicity verdicts read
the cell forms instead, which the same top halves give: one half
flipped onto another leaves n^r times a permutation of their
propagating blocks, or drops propagation and pairs to 0.  Per-vertex
character polynomials in the parameter give the trace weights level by
level, and their ratios along branching-graph edges normalize a
recursive construction of matrix units.  On top of those sit the
basic construction of each level's proper ideal over the level below,
checked on bases, the radical as the kernel of the regular Gram form,
cell modules with their rank checks, and the averaging map onto the
center.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .algebra import (
    AlgebraElement,
    _param_power,
    diagram_element,
    embed,
    eps_down,
    eps_up,
    generator_element,
    ideal_basis,
    multiply,
    one,
    specialize,
    zero,
)
from .combinatorics import (
    BratteliGraph,
    _validate,
    boxes_added,
    boxes_removed,
    build_bratteli,
    counting,
    hooks_and_contents,
)
from .diagrams import (
    Diagram,
    _diagram,
    _generators,
    _rg_strings,
    closure_components,
    columns,
    compose,
    enumerate_diagrams,
    flip,
    identity_diagram,
    propagating_number,
)
from .errors import (
    BadParams,
    BadShape,
    DegenerateForm,
    DenominatorVanishes,
    ModeMismatch,
    NonIntegerRank,
    NotSemisimple,
    PartalgError,
    VertexNotFound,
)
from .limits import _nonnegative, check
from .linalg import bareiss_det, invert, null_space, singular
from .linalg import rank as matrix_rank
from .scalars import Poly, RatFunc, Scalar, parse_parameter
from .symgroup import MatrixUnitSystem, sym_matrix_units, young_elements

__all__ = [
    "GramReport",
    "CharacterPolynomial",
    "regular_trace",
    "gram",
    "semisimple_verdict",
    "char_poly",
    "char_decomposition_check",
    "eps_ratio",
    "basic_construction_iso",
    "matrix_units",
    "radical_basis",
    "specht",
    "symmetrize",
]

@lru_cache(maxsize=None)
def _basis(double_rank: int) -> tuple[Diagram, ...]:
    return tuple(
        sorted(enumerate_diagrams(double_rank), key=lambda d: d.blocks)
    )


@lru_cache(maxsize=None)
def _graph(double_rank: int) -> BratteliGraph:
    return build_bratteli("abstract", double_rank)


@dataclass(frozen=True)
class CharacterPolynomial:
    """Trace weight of one branching-graph vertex, as a polynomial in
    the parameter; the half flag selects the half-level variant."""

    mu: tuple[int, ...]
    half: bool
    poly: Poly


def char_poly(mu, half: bool = False) -> CharacterPolynomial:
    """Weight polynomial of the vertex mu.

    Integer levels: (prod of inverse hooks) * prod_{j=1..|mu|}
    (x - |mu| - (mu_j - j)), degree |mu|.  Half levels carry an extra
    leading factor x and shift each root up by one, degree |mu| + 1.
    The empty vertex gives the constants 1 and x.
    """
    parts = _validate(mu)
    hooks, _ = hooks_and_contents(parts)
    m = sum(parts)
    shift = 1 if half else 0
    poly = Poly.x() if half else Poly.const(1)
    for j in range(1, m + 1):
        mu_j = parts[j - 1] if j <= len(parts) else 0
        poly = poly * (Poly.x() - Poly.const(m + shift + mu_j - j))
    denom = 1
    for h in hooks:
        denom *= h
    return CharacterPolynomial(parts, bool(half), poly * Fraction(1, denom))


def _weight(double_level: int, vertex) -> Poly:
    return char_poly(vertex, half=bool(double_level % 2)).poly


def _coordinates(u: AlgebraElement, position: dict[Diagram, int]) -> list[int]:
    """Numerators of u on the indexed diagrams, all over u.den; other
    terms drop out.  Scaling a row by its denominator keeps the rank and
    whether the row is zero, which is all specht reads."""
    vec = [0] * len(position)
    for d, v in u.num.items():
        i = position.get(d)
        if i is not None:
            vec[i] = v
    return vec


def _at(value: Poly, mode) -> Scalar:
    return value if mode is None else value(mode)


@lru_cache(maxsize=None)
def _top_halves(double_rank: int) -> tuple[tuple[Diagram, ...], ...]:
    """The top halves, grouped by their number m of free marked blocks;
    entry m lists one standard diagram D_H per half H.

    A half is a set partition of the top row with some blocks marked
    propagating, ordered by their least vertices.  At a half-integer
    rank the block of K is always marked; it is pinned, and only the
    other m marked blocks are free.  D_H has top row H, its bottom
    vertex -i joins the i-th free marked block, -K joins the pinned
    block, and every other bottom vertex is a singleton.  A diagram is
    a top half, a permutation of its free marked blocks and a flipped
    bottom half, so len(entry m) * m! basis diagrams share each half of
    entry m.
    """
    k2 = columns(double_rank)
    half = double_rank % 2
    groups: list[list[Diagram]] = [[] for _ in range(k2 + 1 - half)]
    for top in _rg_strings(k2):
        blocks = max(top, default=-1) + 1
        pinned = top[-1:] * half  # the pinned block's label, if any
        free = [b for b in range(blocks) if (b,) != pinned]
        for m in range(len(free) + 1):
            singletons = tuple(range(blocks, blocks + k2 - half - m))
            for marked in combinations(free, m):
                groups[m].append(_diagram(double_rank, top + marked + singletons + pinned))
    return tuple(tuple(g) for g in groups)


@lru_cache(maxsize=None)
def _regular_value(d: Diagram) -> Poly:
    """Generic regular trace of one diagram: the sum of x^r over the
    basis diagrams e with d e = x^r e.

    Whether d e = x^r e, and r, depend on e only through its top half
    (_top_halves): stacking d on e joins d's blocks to e's blocks that
    meet the top row and nothing else, so the removed components and
    the top rim of d e come from d and those blocks alone, and e's
    bottom row passes through unchanged.  So one composition per top
    half suffices, weighted by the number of basis diagrams sharing it.
    """
    # r <= K: each removed component holds a middle vertex
    coeffs = [0] * (columns(d.double_rank) + 1)
    for m, halves in enumerate(_top_halves(d.double_rank)):
        count = len(halves) * factorial(m)
        for e in halves:
            out, r = compose(d, e)
            if out is e:
                coeffs[r] += count
    return Poly(coeffs)


def regular_trace(a: AlgebraElement) -> Scalar:
    """Trace of left multiplication by a on the diagram basis.

    Linear in a: each diagram contributes its coefficient times its own
    regular trace, evaluated at the element's parameter.  Diagram
    values are cached, so a first call costs one composition per term
    and top half, and no products.  The double rank is capped by the
    enumerate_diagrams entry of partalg.limits.
    """
    check("enumerate_diagrams", a.double_rank)
    if a.mode is not None:
        return Fraction(sum(v * _regular_value(d)(a.mode) for d, v in a.num.items()), a.den)
    total = Poly(())
    for d, c in a.terms.items():
        total = total + c * _regular_value(d)
    return total


@dataclass(frozen=True)
class GramReport:
    double_rank: int
    n: Fraction | None
    trace_kind: str
    diagrams: tuple[Diagram, ...]
    matrix: tuple[tuple[Scalar, ...], ...]
    det: Scalar | None


def gram(
    double_rank: int,
    n=None,
    trace_kind: str = "regular",
    *,
    want_det: bool = True,
) -> GramReport:
    """Gram matrix of the chosen trace form on the diagram basis.

    Entries are exact: polynomials in generic mode, ints at an integral
    parameter n (each regular value is evaluated once to an int, and
    an entry is n**r times it), and Fractions at any other n.  Both
    forms are traces, so tr(a b) = tr(b a): the entries on and above
    the diagonal are computed and mirrored below it.  The
    determinant is linalg.bareiss_det, one fraction-free elimination
    over Z, by Kronecker substitution in generic mode.  The double rank
    and the height of n are capped in partalg.limits.
    """
    check("gram", double_rank)
    if want_det and n is None:
        check("gram_generic_det", double_rank)
    if trace_kind not in ("regular", "diagram"):
        raise BadParams(f"unknown trace kind {trace_kind!r}")
    mode = None if n is None else parse_parameter(n)
    point = mode.numerator if mode is not None and mode.denominator == 1 else mode
    basis = _basis(double_rank)
    if trace_kind == "regular":
        values = {d: _at(_regular_value(d), mode) for d in basis}
        if type(point) is int:
            # regular values have integer coefficients
            values = {d: v.numerator for d, v in values.items()}

        def entry(a: Diagram, b: Diagram) -> Scalar:
            d, r = compose(a, b)
            return _param_power(point, r) * values[d]

    else:

        def entry(a: Diagram, b: Diagram) -> Scalar:
            d, r = compose(a, b)
            return _param_power(point, r + closure_components(d))

    # the entries with j >= i, mirrored below the diagonal
    upper = [[entry(a, b) for b in basis[i:]] for i, a in enumerate(basis)]
    matrix = tuple(
        tuple([upper[j][i - j] for j in range(i)] + row) for i, row in enumerate(upper)
    )
    det: Scalar | None = None
    if want_det:
        det = bareiss_det(matrix)
        if mode is not None:
            det = Fraction(det)  # an int at integral n, as a Fraction like any numeric n
    return GramReport(double_rank, mode, trace_kind, basis, matrix, det)


def _cell_pairings(double_rank: int, n: int):
    """For each m, the matrix of the cell pairing on the halves of
    _top_halves entry m, expanded over the regular representation of
    S_m: one row and column per half H and permutation s, for the
    diagram D_H s.

    Stacking flip(D_B) on D_T gives n^r times the standard diagram of
    entry m with a permutation p of the free marked blocks (i -> -p[i])
    when all m free blocks, and the pinned one, propagate distinctly;
    otherwise fewer blocks propagate and the pairing is 0.  The entry
    of (B, s) and (T, t) is the coefficient of the identity in
    flip(D_B s) D_T t = n^r s^-1 p t, so it is n^r where s = t o p as
    maps.  Over Q this symmetric matrix is the direct sum over the
    shapes lam of m of d_lam copies of the cell form of lam, because
    the trace form of S_m splits so over its Wedderburn blocks.
    """
    k2 = columns(double_rank)
    for m, halves in enumerate(_top_halves(double_rank)):
        group = list(permutations(range(m)))
        position = {s: i for i, s in enumerate(group)}
        size = len(group)
        rows = [[0] * (len(halves) * size) for _ in range(len(halves) * size)]
        for b, flipped in enumerate(map(flip, halves)):
            for t in range(b, len(halves)):
                out, r = compose(flipped, halves[t])
                if propagating_number(out) < m + double_rank % 2:
                    continue
                top, bottom = out.labels[:m], out.labels[k2 : k2 + m]
                p = [bottom.index(label) for label in top]
                value = n**r
                for j, tau in enumerate(group):
                    i = b * size + position[tuple(tau[x] for x in p)]
                    rows[i][t * size + j] = rows[t * size + j][i] = value
        yield rows


def semisimple_verdict(double_rank: int, n: int) -> dict:
    """Compares the parameter-range criterion with the cell forms;
    returns both routes.

    A_k(n) is cellular (Xi, 1999), so it is semisimple, and its
    regular-trace Gram form nondegenerate, exactly when every cell form
    is (Graham-Lehrer, 1996).  by_gram checks the cell forms of all
    shapes of m at once, on one matrix per m from _cell_pairings, each
    decided by linalg.singular with a certificate either way;
    gram(double_rank, n).det gives the Gram determinant itself.  The
    double rank is capped in partalg.limits.

    >>> semisimple_verdict(4, 2)["by_gram"]
    False
    >>> semisimple_verdict(4, 3)["by_gram"]
    True
    """
    check("semisimple_verdict", double_rank)
    point = parse_parameter(n)
    if point.denominator != 1 or point < 2:
        raise BadParams("verdict needs an integer parameter n >= 2")
    n = int(point)
    by_gram = not any(map(singular, _cell_pairings(double_rank, n)))
    by_theorem = double_rank <= n + 1
    return {
        "double_rank": double_rank,
        "n": n,
        "verdict": by_gram,
        "by_theorem": by_theorem,
        "by_gram": by_gram,
    }


def eps_ratio(double_level: int, mu, lam, n=None) -> Scalar:
    """Weight ratio across a vertex pair between consecutive levels:
    weight of lam at double_level over weight of mu one level below.

    The pair must be equal or one box apart (either direction; the
    branching graph only ever removes toward half levels and adds back,
    but the ratio is meaningful both ways).  Generic mode returns a
    reduced rational function, collapsed to a polynomial when the
    denominator divides out.
    """
    t = _nonnegative("double level", double_level)
    if t < 1:
        raise BadParams("ratios start at double level 1")
    mu = _validate(mu)
    lam = _validate(lam)
    if sum(mu) > (t - 1) // 2:
        raise VertexNotFound(f"{mu} not at level {t - 1}/2")
    if sum(lam) > t // 2:
        raise VertexNotFound(f"{lam} not at level {t}/2")
    if lam != mu and lam not in boxes_added(mu) and lam not in boxes_removed(mu):
        raise BadParams(f"{mu} and {lam} differ by more than one box")
    num = _weight(t, lam)
    den = _weight(t - 1, mu)
    if n is None:
        ratio = RatFunc(num, den)
        return ratio.num if ratio.den == Poly.const(1) else ratio
    point = parse_parameter(n)
    den_value = den(point)
    if den_value == 0:
        raise DenominatorVanishes(
            f"weight of {mu} at level {(t - 1)}/2 vanishes at n = {n}"
        )
    return num(point) / den_value


def _tableau_walk(tableau, double_rank: int) -> tuple:
    """The branching-graph walk of a standard tableau: stay on the way
    down to each half level, add the next box on the way back up."""
    m = sum(len(row) for row in tableau)
    chain = []
    for i in range(m + 1):
        rows = tuple(sum(1 for v in row if v <= i) for row in tableau)
        chain.append(tuple(r for r in rows if r))
    walk: list[tuple] = []
    for i in range(m):
        walk.append(chain[i])
        walk.append(chain[i])
    walk.append(chain[m])
    if double_rank % 2:
        walk.append(chain[m])
    return tuple(walk)


def _sandwich_factors(t: int, n, prev: MatrixUnitSystem):
    """The factors of the sandwich elements at level t, from the units
    prev at level t - 1.  For each vertex mu at level t - 2, yields mu,
    its walks to level t and two dicts keyed by walk: left[p] is the
    embedded unit of prev from p to the first walk through mu, times
    the collapse generator p_t; right[q] is the embedded unit back to
    q.  The sandwich element of p and q is left[p] * right[q]."""
    graph = _graph(t)
    p_elem = generator_element("p", Fraction(t, 2), t, n)
    for mu in graph.levels[t - 2]:
        walk_t = min(graph.paths(t - 2, mu))
        paths = graph.paths(t, mu)
        left = {
            p: multiply(embed(prev.unit(p[-2], p[:-1], walk_t + (p[-2],)), t), p_elem)
            for p in paths
        }
        right = {q: embed(prev.unit(q[-2], walk_t + (q[-2],), q[:-1]), t) for q in paths}
        yield mu, paths, left, right


@lru_cache(maxsize=None)
def _build_units(t: int, n: Fraction) -> MatrixUnitSystem:
    units: dict = {}
    if t >= 2:
        for vertex in _graph(t).levels[t - 1]:
            if _weight(t - 1, vertex)(n) == 0:
                raise NotSemisimple(
                    f"the tower construction needs every weight at level {t - 1}/2"
                    f" nonzero, and that of {vertex} vanishes at n = {n}"
                )
        for mu, paths, left, right in _sandwich_factors(t, n, _build_units(t - 1, n)):
            den = _weight(t - 2, mu)(n)
            for q in paths:
                ratio = _weight(t - 1, q[-2])(n) / den
                for p in paths:
                    units[(mu, p, q)] = multiply(left[p], right[q]).scale(1 / ratio)
    complement = one(t, n)
    for (_, p, q), u in units.items():
        if p == q:
            complement = complement - u
    sym = sym_matrix_units(t // 2, n)
    for (shape, ptab, qtab), u in sym.units.items():
        key = (shape, _tableau_walk(ptab, t), _tableau_walk(qtab, t))
        units[key] = multiply(complement, embed(u, t))
    return MatrixUnitSystem(t, n, units)


def matrix_units(double_rank: int, n) -> MatrixUnitSystem:
    """Matrix units at rank double_rank/2, parameter n.

    Units over the proper ideal come from the level below: conjugate
    the collapse generator by lower units along each pair of walks,
    then divide by the weight ratio of the column walk's half-level
    vertex (rational normalization, no square roots).  The top layer
    multiplies symmetric-group units by the complement of the ideal's
    central idempotent.  A vanishing lower weight makes the division
    impossible and raises NotSemisimple.  That condition is stronger
    than semisimplicity: A_{3/2}(0) is semisimple (its regular Gram
    matrix has full rank), yet the weight x of the level 1/2 vanishes.
    """
    check("matrix_units", double_rank)
    return _build_units(double_rank, parse_parameter(n))


def char_decomposition_check(double_rank: int, n) -> dict:
    """Expands every basis diagram in the matrix-unit basis and checks
    that the diagram trace equals the weight-by-multiplicity sum of the
    block characters."""
    system = matrix_units(double_rank, n)
    point = system.mode
    basis = _basis(double_rank)
    keys = system.index
    table = [
        [system.units[key].coeff(d) for key in keys] for d in basis
    ]
    try:
        inverse = invert(table)
    except ValueError:
        raise NotSemisimple("matrix units do not span the algebra") from None
    vertices = tuple(_graph(double_rank).levels[double_rank])
    weights = {v: _weight(double_rank, v)(point) for v in vertices}
    diagonal_rows = {
        v: [j for j, key in enumerate(keys) if key[0] == v and key[1] == key[2]]
        for v in vertices
    }
    failures = []
    identity_multiplicities: dict[tuple, Fraction] = {}
    identity = identity_diagram(double_rank)
    for i, d in enumerate(basis):
        chi = {
            v: sum(inverse[j][i] for j in rows)
            for v, rows in diagonal_rows.items()
        }
        combined = sum(weights[v] * chi[v] for v in vertices)
        if combined != point ** closure_components(d):
            failures.append(d.blocks)
        if d == identity:
            identity_multiplicities = dict(chi)
    return {
        "double_rank": double_rank,
        "n": point,
        "weights": weights,
        "identity_multiplicities": identity_multiplicities,
        "checked": len(basis),
        "failures": failures,
        "ok": not failures,
    }


def basic_construction_iso(double_rank: int, n) -> dict:
    """Checks that the proper ideal of A_k, k = double_rank/2, is the
    basic construction of A_{k-1} inside A_{k-1/2} (Martin, J. Algebra
    183, 1996).

    With p the generator collapsing the newest column pair and B, C the
    diagrams of A_{k-1/2} and A_{k-1} embedded in A_k, each b1 p b2 over
    B x B is n^r times one diagram.  So the span rank counts distinct
    diagrams with n^r nonzero, and factored_all asks that r = 0 reach
    every ideal diagram.  c p = p c for c in A_{k-1} gives (b c) p a =
    b p (c a) for all b and a; it is closed under products in c, so it
    is checked on the generators of A_{k-1} (diagrams._generators).
    p y p = p eps(y) for y in B, eps the half-step conditional
    expectation onto A_{k-1}, gives (a p b)(c p d) = a p eps(b c) d for
    all a, b, c and d; it is not multiplicative in y, so it is checked
    on the basis B.  partalg.limits caps the double rank at that of
    enumerate_diagrams.
    """
    t = check("enumerate_diagrams", double_rank)
    if t < 2:
        raise BadParams("basic construction checks start at double rank 2")
    point = parse_parameter(n)
    p_elem = generator_element("p", Fraction(t, 2), t, point)
    p_diag = next(iter(p_elem.num))
    half = [diagram_element(d, 1, point) for d in _basis(t - 1)]
    lifted = [embed(y, t) for y in half]
    upper = [next(iter(u.num)) for u in lifted]
    spanned, factored = set(), set()
    for b1 in upper:
        first, r1 = compose(b1, p_diag)
        for b2 in upper:
            # no pair comes twice: caching dr 8's 769,129 pairs took 98 MB, not 21
            out, r2 = compose.__wrapped__(first, b2)
            if r1 + r2 == 0:
                factored.add(out)
            if r1 + r2 == 0 or point:
                spanned.add(out)
    ideal = ideal_basis(t)
    expected = counting("bell", t) - factorial(t // 2)
    factored_all = factored.issuperset(ideal)

    lower = [embed(diagram_element(g, 1, point), t) for g in _generators(t - 2).values()]
    moved_ok = all(multiply(c, p_elem) == multiply(p_elem, c) for c in lower)
    contract = eps_up if t % 2 == 0 else eps_down
    rule_ok = all(
        multiply(multiply(p_elem, u), p_elem) == multiply(p_elem, embed(contract(y), t))
        for y, u in zip(half, lifted)
    )

    span_rank = len(spanned)
    return {
        "double_rank": t,
        "n": point,
        "ideal_dimension": len(ideal),
        "expected_dimension": expected,
        "span_rank": span_rank,
        "surjective": span_rank == len(ideal),
        "factored_all": factored_all,
        "well_defined_checked": len(lower),
        "well_defined_ok": moved_ok,
        "product_rule_checked": len(half),
        "product_rule_ok": rule_ok,
        "ok": span_rank == expected == len(ideal) and factored_all and moved_ok and rule_ok,
    }


def radical_basis(double_rank: int, n) -> list[AlgebraElement]:
    """Basis of the radical at parameter n, as elements specialized at n.

    In characteristic 0 the radical is the kernel of the regular trace
    form (Dickson): rad A = {a : tr_reg(ab) = 0 for all b}.  The basis
    is linalg.null_space of gram(double_rank, n), one element per free
    column of its reduced echelon form: 1 on that diagram and minus the
    reduced entry on each pivot diagram.  A Gram matrix that
    linalg.singular finds nonsingular has an empty kernel, so the null
    space is skipped.  gram caps the double rank and the height of n.

    >>> len(radical_basis(4, 2))
    5
    >>> radical_basis(3, 0)
    []
    """
    point = parse_parameter(n)
    matrix = gram(double_rank, point, want_det=False).matrix
    if not singular(matrix):
        return []
    basis = _basis(double_rank)
    # a kernel vector's last nonzero entry is the one on its free column
    kernel = [(v, [a for a in v if a][-1]) for v in null_space(matrix)]
    return [AlgebraElement(double_rank, zip(basis, v), point) * Fraction(1, f) for v, f in kernel]


def specht(double_rank: int, lam, witness_n: int | None = None) -> dict:
    """Cell module of the vertex lam: rank of the right multiplication
    image modulo low-propagating diagrams, against the walk count."""
    if check("specht", double_rank) % 2:
        raise NonIntegerRank("cell modules are built at integer ranks")
    ell = double_rank // 2
    try:
        parts = _validate(lam)
    except PartalgError as exc:
        raise BadShape(str(exc)) from None
    m = sum(parts)
    if m > ell:
        raise BadShape(f"{parts} has more than {ell} boxes")
    point = parse_parameter(2 * ell if witness_n is None else witness_n)
    if point.denominator != 1:
        raise BadParams(f"witness n must be an integer, not {witness_n!r}")
    _, _, _, product = young_elements(parts, m)
    e = embed(product, double_rank)
    for j in range(m + 1, ell + 1):
        e = multiply(e, generator_element("p", j, double_rank))
    e = specialize(e, point)
    basis = _basis(double_rank)
    coords = [d for d in basis if propagating_number(d) >= m]
    position = {d: i for i, d in enumerate(coords)}
    rows = [
        _coordinates(multiply(diagram_element(b, 1, point), e), position)
        for b in basis
    ]
    image_rank = matrix_rank(rows)
    walks = _graph(double_rank).path_count(double_rank, parts)
    psi_nonzero = any(_coordinates(e, position))
    return {
        "double_rank": double_rank,
        "lam": parts,
        "witness_n": int(point),
        "rank": image_rank,
        "path_count": walks,
        "psi_nonzero": psi_nonzero,
        "ok": image_rank == walks and psi_nonzero,
    }


def symmetrize(a: AlgebraElement, double_rank: int, n) -> AlgebraElement:
    """Averages a over the algebra: the sum of b a b* over the diagram
    basis, b* the dual basis of the regular trace form, read from the
    inverse of gram.  The sum does not depend on the basis, and it is
    central: with the identity, diagrams._generators generate the
    algebra, so commuting with them is enough to show it."""
    check("symmetrize", double_rank)
    point = parse_parameter(n)
    if a.double_rank != double_rank:
        raise BadParams("element rank differs from the requested rank")
    if a.mode is None:
        a = specialize(a, point)
    elif a.mode != point:
        raise ModeMismatch("element is specialized at a different parameter")
    try:
        inverse = invert(gram(double_rank, point, want_det=False).matrix)
    except ValueError:
        raise DegenerateForm(
            f"regular trace form is degenerate at n = {n}"
        ) from None
    basis = _basis(double_rank)
    total = zero(double_rank, point)
    for j, d in enumerate(basis):
        dual = AlgebraElement(double_rank, zip(basis, (row[j] for row in inverse)), point)
        total = total + multiply(multiply(diagram_element(d, 1, point), a), dual)
    return total
