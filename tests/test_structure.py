"""Structural analysis: trace forms, Gram matrices and determinants,
semisimplicity verdicts, matrix units along the tower, the basic
construction, the radical, and averaging onto the center.

Each check uses an oracle outside the code under test: the trace of a
left-multiplication matrix built here from products, the closure trace
of the algebra layer, the parameter-range theorem, or the matrix-unit
relations themselves.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from partalg import structure
from partalg.algebra import (
    AlgebraElement,
    diagram_element,
    embed,
    eps_down,
    eps_up,
    generator_element,
    multiply,
    orbit_element,
    specialize,
    trace,
)
from partalg.combinatorics import counting
from partalg.diagrams import (
    Diagram,
    _generators,
    closure_components,
    columns,
    compose,
    enumerate_diagrams,
    propagating_number,
)
from partalg.errors import DenominatorVanishes, NotSemisimple
from partalg.linalg import PRIME, bareiss_det, invert, rank, rref, singular
from partalg.scalars import Poly, RatFunc
from partalg.structure import (
    _build_units,
    _sandwich_factors,
    _weight,
    basic_construction_iso,
    char_decomposition_check,
    eps_ratio,
    gram,
    matrix_units,
    radical_basis,
    _regular_value,
    _top_halves,
    regular_trace,
    semisimple_verdict,
    symmetrize,
)
from conftest import unit_system_obeys_relations

MODES = (None, Fraction(3), Fraction(1, 2))


def _element(double_rank: int, mode, rng: random.Random) -> AlgebraElement:
    basis = list(enumerate_diagrams(double_rank))
    picked = rng.sample(basis, min(3, len(basis)))
    return AlgebraElement(
        double_rank, {d: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for d in picked}, mode
    )


def _left_multiplication_trace(a: AlgebraElement):
    """Sum of the diagonal of b -> a b on the diagram basis."""
    total = Fraction(0) if a.mode is not None else Poly(())
    for e in enumerate_diagrams(a.double_rank):
        total = total + multiply(a, diagram_element(e, 1, a.mode)).coeff(e)
    return total


@pytest.mark.parametrize("mode", MODES)
def test_regular_trace_is_trace_of_left_multiplication(mode):
    rng = random.Random(11)
    for dr in range(5):
        elements = [diagram_element(d, 1, mode) for d in enumerate_diagrams(dr)]
        elements.append(_element(dr, mode, rng))
        for a in elements:
            assert regular_trace(a) == _left_multiplication_trace(a)


def _swept_regular_value(d) -> Poly:
    """Regular trace of d by a sweep over the whole basis: the sum of
    x^r over every basis diagram e with d e = x^r e."""
    total = Poly(())
    for e in enumerate_diagrams(d.double_rank):
        out, r = compose(d, e)
        if out == e:
            total = total + Poly.x() ** r
    return total


def test_regular_values_match_a_sweep_over_the_basis():
    for dr in range(7):
        for d in enumerate_diagrams(dr):
            assert _regular_value(d) == _swept_regular_value(d), d
    basis = list(enumerate_diagrams(7))
    for d in random.Random(9).sample(basis, 100):
        assert _regular_value(d) == _swept_regular_value(d), d


@pytest.mark.parametrize("n", (None, 3, Fraction(-5, 7)))
def test_gram_entries_match_the_pair_formula(n):
    def at(value: Poly):
        return value if n is None else value(Fraction(n))

    x = Poly.x()
    for dr in range(5):
        regular = gram(dr, n, "regular", want_det=False)
        closure = gram(dr, n, "diagram", want_det=False)
        for i, a in enumerate(regular.diagrams):
            for j, b in enumerate(regular.diagrams):
                d, r = compose(a, b)
                assert regular.matrix[i][j] == at(x**r * _swept_regular_value(d))
                assert closure.matrix[i][j] == at(x ** (r + closure_components(d)))


@pytest.mark.parametrize("n", (None, 3))
def test_gram_entries_are_trace_values(n):
    mode = None if n is None else Fraction(n)
    for dr in range(4):
        regular = gram(dr, n, "regular", want_det=False)
        closure = gram(dr, n, "diagram", want_det=False)
        assert regular.diagrams == closure.diagrams
        elements = [diagram_element(d, 1, mode) for d in regular.diagrams]
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                product = multiply(a, b)
                assert regular.matrix[i][j] == regular_trace(product)
                assert closure.matrix[i][j] == trace(product)


@pytest.mark.parametrize("n", (2, 3, 4, 5, Fraction(-5, 7)))
def test_gram_entries_are_ints_at_an_integral_parameter(n):
    report = gram(6, n, want_det=False)
    kind = Fraction if isinstance(n, Fraction) else int
    assert all(type(v) is kind for row in report.matrix for v in row)
    mode = Fraction(n)
    elements = [diagram_element(d, 1, mode) for d in report.diagrams]
    rng = random.Random(7)
    for _ in range(300):
        i, j = rng.randrange(len(elements)), rng.randrange(len(elements))
        assert report.matrix[i][j] == regular_trace(multiply(elements[i], elements[j]))


def _integer_roots(p: Poly) -> set[int]:
    """Integer roots of a nonzero polynomial, by the rational root test
    on its square-free part."""
    derivative = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
    square_free = p.exact_div(Poly.gcd(p, derivative))
    roots = {0} if square_free(0) == 0 else set()
    coeffs = list(square_free.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator
    lowest = abs(int(coeffs[0] * scale))
    for q in range(1, lowest + 1):
        if lowest % q == 0:
            roots.update(r for r in (q, -q) if square_free(r) == 0)
    return roots


def test_generic_regular_gram_roots():
    expected = {2: {0}, 3: {1}, 4: {0, 1, 2}}
    for dr, roots in expected.items():
        det = gram(dr, None).det
        assert not det.is_zero()
        assert _integer_roots(det) == roots


@pytest.mark.parametrize("trace_kind", ["regular", "diagram"])
def test_generic_gram_determinants_interpolate_the_numeric_ones(trace_kind):
    """The generic determinant and the true one both have degree at
    most D = sum_i max_j deg m_ij, so agreeing with the integer
    determinants of the numeric Gram matrices at D + 2 points proves
    them equal."""
    for dr in range(5):
        report = gram(dr, None, trace_kind)
        bound = sum(max(v.degree for v in row) for row in report.matrix)
        assert report.det.degree <= bound
        for x0 in range(bound + 2):
            numeric = gram(dr, x0, trace_kind, want_det=False).matrix
            assert report.det(x0) == bareiss_det(numeric), (dr, x0)


def test_gram_determinants_at_rational_n_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in (3, Fraction(-5, 7)):
        for dr in range(1, 5):
            report = gram(dr, n)
            assert type(report.det) is Fraction
            assert report.det == sympy.Matrix(report.matrix).det(), (dr, n)


def test_semisimple_verdict_agrees_with_theorem():
    for dr in range(2, 10):
        for n in range(2, dr + 2):
            report = semisimple_verdict(dr, n)
            assert report["by_gram"] == report["by_theorem"]


def test_semisimple_verdict_at_double_rank_six(elimination_moduli):
    reports = [semisimple_verdict(6, n) for n in range(2, 6)]
    assert [r["by_gram"] for r in reports] == [False, False, False, True]
    assert [r["by_theorem"] for r in reports] == [False, False, False, True]
    # every verdict is certified mod PRIME, a singular pairing by a
    # lifted kernel vector: none needs an elimination over Z
    assert elimination_moduli and set(elimination_moduli) == {PRIME}


@pytest.mark.parametrize("double_rank", range(7))
def test_semisimple_verdict_matches_the_regular_gram_form(double_rank):
    for n in range(2, 9):
        regular = gram(double_rank, n, want_det=False).matrix
        assert semisimple_verdict(double_rank, n)["by_gram"] == (not singular(regular))


def test_top_halves_count_the_basis():
    for dr in range(9):
        k2 = columns(dr)
        halves = _top_halves(dr)
        total = sum(len(group) ** 2 * factorial(m) for m, group in enumerate(halves))
        assert total == counting("bell", dr)
        tops = set()
        for m, group in enumerate(halves):
            for d in group:
                # the m free marked blocks and the pinned one propagate
                assert propagating_number(d) == m + dr % 2
                top = d.labels[:k2]
                tops.add((top, frozenset(top).intersection(d.labels[k2:])))
        assert len(tops) == sum(map(len, halves))


def test_radical_dimension_is_gram_nullity():
    for dr, n in ((2, 0), (3, 1), (4, 2)):
        size = len(list(enumerate_diagrams(dr)))
        nullity = size - rank(gram(dr, n, want_det=False).matrix)
        assert nullity > 0
        assert len(radical_basis(dr, n)) == nullity


@pytest.mark.parametrize("dr, n", ((2, 0), (3, 1), (4, 2), (4, 0), (6, 1)))
def test_radical_basis_is_the_rref_read_off(dr, n):
    # the reference reading: per free column f of the reduced Gram
    # matrix, 1 on diagram f and minus the reduced entry of column f on
    # each pivot diagram
    point = Fraction(n)
    rows, pivots = rref(gram(dr, point, want_det=False).matrix)
    basis = structure._basis(dr)
    expected = [
        AlgebraElement(dr, [(d, 1)] + [(basis[p], -row[f]) for row, p in zip(rows, pivots)], point)
        for f, d in enumerate(basis)
        if f not in pivots
    ]
    assert radical_basis(dr, n) == expected


def _sandwich_radical(double_rank: int, n) -> list[AlgebraElement]:
    """The radical at the first level where a tower weight vanishes, by
    the sandwich route: the products left[p] * right[q] of the units one
    level down whose row or column weight vanishes at n."""
    point = Fraction(n)
    out = []
    for _, paths, left, right in _sandwich_factors(
        double_rank, point, _build_units(double_rank - 1, point)
    ):
        for p in paths:
            for q in paths:
                weights = (_weight(double_rank - 1, w[-2])(point) for w in (p, q))
                if not all(weights):
                    out.append(multiply(left[p], right[q]))
    return out


def _span_rank(elements, double_rank: int) -> int:
    """Rank of the specialized elements' distinct numerator rows:
    scaling a row by its denominator keeps the rank."""
    basis = list(enumerate_diagrams(double_rank))
    rows = {tuple(u.num.get(d, 0) for d in basis) for u in elements}
    return rank(list(rows)) if rows else 0


@pytest.mark.parametrize("dr, n", ((2, 0), (3, 1), (4, 2)))
def test_radical_is_the_span_of_the_sandwich_route(dr, n):
    oracle = _sandwich_radical(dr, n)
    kernel = radical_basis(dr, n)
    assert _span_rank(kernel, dr) == len(kernel) > 0
    assert _span_rank(oracle, dr) == _span_rank(oracle + kernel, dr) == len(kernel)


@pytest.mark.parametrize("dr, n", ((4, 0), (4, 1), (5, 1), (5, 2), (5, 3)))
def test_radical_is_a_nilpotent_ideal_where_the_sandwich_route_cannot_reach(dr, n):
    kernel = radical_basis(dr, n)
    size = _span_rank(kernel, dr)
    assert size == len(kernel) > 0
    diagrams = [diagram_element(d, 1, Fraction(n)) for d in enumerate_diagrams(dr)]
    products = [multiply(g, u) for u in kernel for g in diagrams]
    products += [multiply(u, g) for u in kernel for g in diagrams]
    assert _span_rank(kernel + products, dr) == size
    # products of three: each independent product of two, times each
    # basis element, vanishes (scaling a column keeps the pivots)
    pairs = [multiply(u, v) for u in kernel for v in kernel]
    basis = list(enumerate_diagrams(dr))
    columns_of_pairs = [[w.num.get(d, 0) for w in pairs] for d in basis]
    independent = [pairs[j] for j in rref(columns_of_pairs)[1]]
    assert all(multiply(w, u).is_zero() for w in independent for u in kernel)


@pytest.mark.parametrize("dr", range(2, 6))
def test_radical_vanishes_exactly_when_the_cell_forms_are_nondegenerate(dr):
    for n in range(2, 8):
        assert (radical_basis(dr, n) == []) == semisimple_verdict(dr, n)["by_gram"]


def test_radical_dimensions_at_n_zero_and_one():
    # A_{k+1/2}(0) is semisimple
    assert radical_basis(3, 0) == radical_basis(5, 0) == []
    assert len(radical_basis(4, 0)) == 9
    assert [len(radical_basis(6, n)) for n in (0, 1)] == [111, 44]


def test_eps_ratio_is_a_rational_function_with_poles():
    """The one generic value that is not a polynomial: the ratio of
    weights, a Poly only where the lower weight divides out, and a
    DenominatorVanishes at a pole, asked for generically or at n."""
    x = Poly.x()
    assert eps_ratio(3, (), (1,)) == x * x - 2 * x
    ratio = eps_ratio(3, (1,), ())
    assert ratio == RatFunc(x, x - 1)
    for n in (0, 2, 5, Fraction(1, 2)):
        assert eps_ratio(3, (1,), (), n) == ratio(n)
    with pytest.raises(DenominatorVanishes):
        eps_ratio(3, (1,), (), 1)
    with pytest.raises(DenominatorVanishes):
        ratio(1)


def test_char_decomposition():
    for dr in range(5):
        assert char_decomposition_check(dr, 3)["ok"]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_tower_matrix_units(n):
    for dr in range(5):
        unit_system_obeys_relations(matrix_units(dr, n))


def test_tower_units_need_more_than_semisimplicity():
    # A_{3/2}(0) is semisimple: its regular Gram matrix has full rank
    assert rank(gram(3, 0, want_det=False).matrix) == counting("bell", 3) == 5
    # yet the tower divides by the weight x of level 1/2, which is 0 there
    with pytest.raises(NotSemisimple, match=r"every weight at level 1/2 nonzero.* \(\) vanishes"):
        matrix_units(3, 0)


def _bell(m: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@pytest.mark.parametrize("n", (3, Fraction(-5, 7), 0))
def test_basic_construction_spans_the_ideal(n):
    # the ideal is everything but the (dr//2)! permutation diagrams; at
    # n = 0 the products that remove components vanish, and the others
    # still reach every ideal diagram.  The sandwich identities are
    # checked on the bases of the two levels below.
    span_ranks = (1, 4, 13, 50, 197, 871)
    for dr, span_rank in zip(range(2, 8), span_ranks):
        report = basic_construction_iso(dr, n)
        assert report["span_rank"] == report["ideal_dimension"] == span_rank
        assert span_rank == _bell(dr) - factorial(dr // 2)
        assert report["well_defined_checked"] == len(_generators(dr - 2))
        assert report["product_rule_checked"] == _bell(dr - 1)
        assert report["factored_all"] and report["ok"]


@pytest.mark.parametrize("dr", (4, 5, 6))
def test_collapse_commutes_with_the_whole_level_two_below(dr):
    # basic_construction_iso checks c p = p c on the generators of
    # A_{k-1} only; here c runs over its whole basis
    n = Fraction(-5, 7)
    p = generator_element("p", Fraction(dr, 2), dr, n)
    for d in enumerate_diagrams(dr - 2):
        c = embed(diagram_element(d, 1, n), dr)
        assert multiply(c, p) == multiply(p, c), d


@pytest.mark.parametrize("dr", (4, 5))
def test_sandwich_product_rule_on_sampled_quadruples(dr):
    # (a p b)(c p d) = a p eps(b c) d over A_{k-1/2}, k = dr/2, multiplied
    # out in full: the identity that basic_construction_iso proves from
    # p y p = p eps(y) on a basis
    n = Fraction(-5, 7)
    rng = random.Random(dr)
    half = [diagram_element(d, 1, n) for d in enumerate_diagrams(dr - 1)]
    p = generator_element("p", Fraction(dr, 2), dr, n)
    contract = eps_up if dr % 2 == 0 else eps_down
    for _ in range(50):
        a, b, c, d = (rng.choice(half) for _ in range(4))
        left = multiply(multiply(embed(a, dr), p), embed(b, dr))
        right = multiply(multiply(embed(c, dr), p), embed(d, dr))
        middle = embed(multiply(embed(contract(multiply(b, c)), dr - 1), d), dr)
        assert multiply(left, right) == multiply(multiply(embed(a, dr), p), middle)


def test_basic_construction_needs_the_factor_of_eps_up(monkeypatch):
    # eps_up gains a factor x where it deletes a bare constraint pair;
    # without it p y p = p eps(y) fails at even double ranks
    def eps_up_without_x(a):
        k2 = columns(a.double_rank)
        pairs = []
        for d, c in a.terms.items():
            blocks = [kept for b in d.blocks if (kept := [v for v in b if abs(v) != k2])]
            pairs.append((Diagram(a.double_rank - 1, blocks), c))
        return AlgebraElement(a.double_rank - 1, pairs, a.mode)

    monkeypatch.setattr(structure, "eps_up", eps_up_without_x)
    for dr in (2, 4):
        report = basic_construction_iso(dr, 3)
        assert report["well_defined_ok"] and report["span_rank"] == report["ideal_dimension"]
        assert not report["product_rule_ok"] and not report["ok"]


def test_symmetrize_central_and_basis_free():
    n = Fraction(3)
    diagrams = list(enumerate_diagrams(4))
    a = _element(4, n, random.Random(5))
    z = symmetrize(a, 4, n)
    assert not z.is_zero()
    for d in diagrams:
        g = diagram_element(d, 1, n)
        assert multiply(z, g) == multiply(g, z)
    # sum of b a b* over the orbit basis, b* its dual under the regular
    # trace form, computed here from products
    orbit = [specialize(orbit_element(d), n) for d in diagrams]
    inverse = invert([[regular_trace(multiply(u, v)) for v in orbit] for u in orbit])
    total = AlgebraElement(4, {}, n)
    for j, b in enumerate(orbit):
        dual = AlgebraElement(4, {}, n)
        for i, u in enumerate(orbit):
            dual = dual + u.scale(inverse[i][j])
        total = total + multiply(multiply(b, a), dual)
    assert total == z
