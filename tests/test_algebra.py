"""Algebra-level behaviour: products, embeddings, orbit basis,
conditional expectations, traces, specialization, the ideal."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partalg.algebra import (
    AlgebraElement,
    as_scalar,
    coarsenings,
    diagram_element,
    element,
    embed,
    eps_down,
    eps_one,
    eps_up,
    from_orbit_basis,
    generator_element,
    ideal_basis,
    mobius_coefficient,
    multiply,
    one,
    orbit_element,
    refinements,
    specialize,
    to_orbit_basis,
    trace,
    zero,
)
from partalg.diagrams import (
    Diagram,
    coarsens,
    compose,
    enumerate_diagrams,
    generator,
    identity_diagram,
    make_diagram,
    propagating_number,
)
from partalg.errors import (
    InvalidTarget,
    ModeMismatch,
    NonHalfIntegerRank,
    NonIntegerRank,
    RankMismatch,
)
from partalg.linalg import invert
from partalg.scalars import Poly

X = Poly.x()
A1 = list(enumerate_diagrams(2))
A1H = list(enumerate_diagrams(3))
A2 = list(enumerate_diagrams(4))
A2H = list(enumerate_diagrams(5))
A3 = list(enumerate_diagrams(6))


def elem(d: Diagram) -> AlgebraElement:
    return diagram_element(d)


def test_multiply_p1_squared():
    p1 = generator_element("p", 1, 2)
    assert multiply(p1, p1) == p1.scale(X)


def test_multiply_worked_pair():
    d1 = make_diagram(
        14, [[1, 3, -4], [2], [4, 5, 6], [7], [-1], [-2, -3], [-5, -7], [-6]]
    )
    d2 = make_diagram(
        14, [[1], [2, 4], [5, 7], [3, -4, -5, -6], [6, -2, -7], [-1], [-3]]
    )
    expect = make_diagram(
        14, [[1, 3, -4, -5, -6], [2], [4, 5, 6], [7], [-1], [-2, -7], [-3]]
    )
    product = multiply(elem(d1), elem(d2))
    assert product == diagram_element(expect, X**2)


def test_multiply_specialized():
    n = Fraction(3)
    e1 = generator_element("e", 1, 4, mode=n)
    assert multiply(e1, e1) == e1.scale(3)
    assert e1.terms[generator("e", 1, 4)] == Fraction(1)


def test_multiply_mode_and_rank_guards():
    a = one(2)
    with pytest.raises(ModeMismatch):
        multiply(a, one(2, mode=Fraction(3)))
    with pytest.raises(RankMismatch):
        multiply(a, one(4))
    with pytest.raises(ModeMismatch):
        element(2, {identity_diagram(2): X}, mode=Fraction(3))


def test_embed_single_steps():
    assert embed(one(2), 3) == one(3)
    two_step = embed(generator_element("p", 1, 2), 4)
    assert two_step == generator_element("p", 1, 4)
    assert two_step.terms.keys() == {make_diagram(4, [[1], [-1], [2, -2]])}
    with pytest.raises(InvalidTarget):
        embed(one(4), 2)


def test_embed_is_algebra_map():
    for src, target in ((A1, 4), (A1H, 4), (A2, 5)):
        images = {embed(elem(d), target) for d in src}
        assert len(images) == len(src)
        for a in src:
            for b in src:
                lhs = embed(multiply(elem(a), elem(b)), target)
                rhs = multiply(embed(elem(a), target), embed(elem(b), target))
                assert lhs == rhs


def test_orbit_elements_of_a1():
    expect = generator_element("p", 1, 2) - one(2)
    assert orbit_element(make_diagram(2, [[1], [-1]])) == expect
    assert orbit_element(identity_diagram(2)) == one(2)


def test_orbit_round_trip_a2():
    for d in A2:
        a = elem(d)
        assert from_orbit_basis(to_orbit_basis(a), 4) == a
        back = to_orbit_basis(from_orbit_basis({d: Poly.const(1)}, 4))
        assert back == {d: Poly.const(1)}


def test_orbit_sum_over_coarsenings_gives_diagram():
    finest = make_diagram(4, [[1], [2], [-1], [-2]])
    assert len(coarsenings(finest)) == 15
    assert len(refinements(make_diagram(4, [[1, 2, -1, -2]]))) == 15
    total = zero(4)
    for coarser in coarsenings(finest):
        total = total + orbit_element(coarser)
    assert total == elem(finest)


@pytest.mark.parametrize("double_rank", range(1, 6))
def test_refinements_against_brute_force(double_rank):
    """refinements(d) lists, once each, every diagram whose blocks each
    lie inside a block of d; at half ranks this keeps K and -K
    together, where splitting them raised HalfIntegerConstraintViolated."""
    diagrams = list(enumerate_diagrams(double_rank))
    for d in diagrams:
        blocks = [set(b) for b in d.blocks]
        expect = {
            e for e in diagrams if all(any(set(b) <= c for c in blocks) for b in e.blocks)
        }
        found = refinements(d)
        assert len(found) == len(expect)
        assert set(found) == expect


def test_mobius_against_zeta_inversion():
    for double_rank in (2, 3, 4):
        basis = list(enumerate_diagrams(double_rank))
        size = len(basis)
        zeta = [
            [Fraction(1 if coarsens(basis[i], basis[j]) else 0) for j in range(size)]
            for i in range(size)
        ]
        mu = invert(zeta)
        for i in range(size):
            for j in range(size):
                if coarsens(basis[i], basis[j]):
                    assert mu[i][j] == mobius_coefficient(basis[i], basis[j])
                else:
                    assert mu[i][j] == 0


def test_eps_down_examples():
    assert eps_down(one(2)) == element(1, {make_diagram(1, [[1, -1]]): 1})
    s1 = generator_element("s", 1, 4)
    assert eps_down(s1) == element(3, {make_diagram(3, [[1, 2, -1, -2]]): 1})
    with pytest.raises(NonIntegerRank):
        eps_down(one(3))
    with pytest.raises(InvalidTarget):
        eps_down(one(0))


def test_eps_down_rank5_picture():
    d = make_diagram(10, [[1, 3, -3], [2], [4, -2], [5], [-1], [-4, -5]])
    merged = make_diagram(9, [[1, 3, -3], [2], [4, -2], [5, -4, -5], [-1]])
    assert eps_down(elem(d)) == elem(merged)
    d2 = make_diagram(10, [[1, 3, -3], [2], [4, -2], [5], [-1], [-4], [-5]])
    merged2 = make_diagram(9, [[1, 3, -3], [2], [4, -2], [5, -5], [-1], [-4]])
    assert eps_down(elem(d2)) == elem(merged2)


def test_eps_up_factor_rule():
    kept = make_diagram(9, [[1, 3, -3], [2], [4, -2], [5, -4, -5], [-1]])
    dropped = make_diagram(8, [[1, 3, -3], [2], [4, -2], [-1], [-4]])
    assert eps_up(elem(kept)) == elem(dropped)

    bare = make_diagram(9, [[1, 3, -3], [2], [4, -2], [5, -5], [-1], [-4]])
    assert eps_up(elem(bare)) == diagram_element(dropped, X)

    assert eps_up(one(3)) == one(2).scale(X)
    assert eps_up(one(3, mode=Fraction(3))) == one(2, mode=Fraction(3)).scale(3)
    with pytest.raises(NonHalfIntegerRank):
        eps_up(one(2))


def test_eps_one_and_trace_identification():
    empty = diagram_element(Diagram(0, []))
    assert eps_one(one(2)) == empty.scale(X)
    assert eps_one(generator_element("p", 1, 2)) == empty.scale(X)
    with pytest.raises(NonIntegerRank):
        eps_one(one(3))
    for d in A1:
        assert as_scalar(eps_one(elem(d))) == trace(elem(d))
    for d in A2:
        assert as_scalar(eps_one(eps_one(elem(d)))) == trace(elem(d))
    with pytest.raises(RankMismatch):
        as_scalar(one(2))


def test_trace_examples():
    assert trace(one(2)) == X
    assert trace(one(4)) == X**2
    assert trace(one(6)) == X**3
    assert trace(generator_element("e", 1, 4)) == X
    assert trace(generator_element("s", 1, 4)) == X
    assert trace(one(4, mode=Fraction(5))) == Fraction(25)


def test_specialize():
    p1 = generator_element("p", 1, 2).scale(X)
    assert specialize(p1, 4) == generator_element("p", 1, 2, mode=Fraction(4)).scale(4)
    rng = random.Random(11)
    for _ in range(30):
        a, b = elem(rng.choice(A2)), elem(rng.choice(A2))
        lhs = specialize(multiply(a, b), Fraction(3))
        rhs = multiply(specialize(a, 3), specialize(b, 3))
        assert lhs == rhs
    with pytest.raises(ModeMismatch):
        specialize(one(2, mode=Fraction(3)), 3)


def test_ideal_basis():
    assert ideal_basis(2) == [make_diagram(2, [[1], [-1]])]
    ideal2 = ideal_basis(4)
    assert len(ideal2) == 13
    span = set(ideal2)
    for d in A2:
        for i in ideal2:
            left = multiply(elem(d), elem(i))
            right = multiply(elem(i), elem(d))
            assert set(left.terms) <= span and set(right.terms) <= span


def test_associativity():
    for a in A2:
        ea = elem(a)
        for b in A2:
            ab = multiply(ea, elem(b))
            for c in A2:
                assert multiply(ab, elem(c)) == multiply(ea, multiply(elem(b), elem(c)))
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = (elem(rng.choice(A3)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_bimodule_property():
    for b in A2:
        eb = eps_down(elem(b))
        for a1 in A1H:
            for a2 in A1H:
                lhs = eps_down(
                    multiply(multiply(embed(elem(a1), 4), elem(b)), embed(elem(a2), 4))
                )
                rhs = multiply(multiply(elem(a1), eb), elem(a2))
                assert lhs == rhs


def test_sandwich_identities():
    p_half = generator_element("p", Fraction(5, 2), 5)
    for b in A2:
        eb = embed(elem(b), 5)
        lhs = multiply(multiply(p_half, eb), p_half)
        rhs = multiply(embed(eps_down(elem(b)), 5), p_half)
        assert lhs == rhs

    p2 = generator_element("p", 2, 4)
    for b in A1H:
        eb = embed(elem(b), 4)
        lhs = multiply(multiply(p2, eb), p2)
        rhs = multiply(embed(eps_up(elem(b)), 4), p2)
        assert lhs == rhs

    e2 = generator_element("e", 2, 6)
    for b in A2:
        eb = embed(elem(b), 6)
        lhs = multiply(multiply(e2, eb), e2)
        rhs = multiply(embed(eps_one(elem(b)), 6), e2)
        assert lhs == rhs


def test_trace_compatibility():
    for double_rank in (2, 4, 6):
        for d in enumerate_diagrams(double_rank):
            assert trace(elem(d)) == trace(eps_down(elem(d)))
    for double_rank in (1, 3, 5):
        for d in enumerate_diagrams(double_rank):
            assert trace(elem(d)) == trace(eps_up(elem(d)))


def test_trace_is_symmetric():
    for a in A2:
        for b in A2:
            assert trace(multiply(elem(a), elem(b))) == trace(multiply(elem(b), elem(a)))
    rng = random.Random(23)
    for _ in range(200):
        a, b = elem(rng.choice(A3)), elem(rng.choice(A3))
        assert trace(multiply(a, b)) == trace(multiply(b, a))


def test_quotient_dimension():
    for double_rank in (2, 3, 4, 5, 6):
        total = len(list(enumerate_diagrams(double_rank)))
        gap = total - len(ideal_basis(double_rank))
        perm_letters = double_rank // 2
        expect = 1
        for j in range(2, perm_letters + 1):
            expect *= j
        assert gap == expect


small_coeffs = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(A2), small_coeffs), max_size=4),
    st.lists(st.tuples(st.sampled_from(A2), small_coeffs), max_size=4),
    st.lists(st.tuples(st.sampled_from(A2), small_coeffs), max_size=4),
    small_coeffs,
)
def test_bilinearity(ta, tb, tc, scale):
    a, b, c = (element(4, terms) for terms in (ta, tb, tc))
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
    assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)
    assert multiply(a.scale(scale), b) == multiply(a, b).scale(scale)
    assert trace(a + b) == trace(a) + trace(b)


def _oracle_sums(a: AlgebraElement, b: AlgebraElement) -> dict:
    """Sum of c1 * c2 * parameter**r over every term pair, by compose,
    before any zero sum is dropped."""
    out = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            d, r = compose(d1, d2)
            power = X**r if a.mode is None else a.mode**r
            out[d] = out.get(d, 0) + c1 * c2 * power
    return out


def _oracle_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.double_rank, _oracle_sums(a, b), a.mode)


def _assert_canonical(value):
    if isinstance(value, Poly):
        assert value.coeffs and value.coeffs[-1] != 0
        for c in value.coeffs:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    else:
        assert type(value) is Fraction


def test_generic_products_drop_cancelled_top_degrees_and_zero_sums():
    e, p = identity_diagram(2), generator("p", 1, 2)
    # (e + p)(x e - p) = x e - p + x p - x p: p keeps only its constant
    product = multiply(AlgebraElement(2, {e: 1, p: 1}), AlgebraElement(2, {e: X, p: -1}))
    assert product.num == {e: X, p: Poly((-1,))}
    # (x e - p1)(p1 + p2) = x p1 + x p2 - x p1 - p1 p2: p1 sums to zero
    e2, p1, p2 = identity_diagram(4), generator("p", 1, 4), generator("p", 2, 4)
    cancelled = multiply(AlgebraElement(4, {e2: X, p1: -1}), AlgebraElement(4, {p1: 1, p2: 1}))
    assert cancelled.num == {p2: X, compose(p1, p2)[0]: Poly((-1,))}
    assert multiply(AlgebraElement(4, {e2: X, p1: -1}), elem(p1)).is_zero()
    for c in [*product.num.values(), *cancelled.num.values()]:
        assert c.coeffs[-1] != 0
        assert c.denominator == 1
        assert c == Poly(c.coeffs)
    # over a common denominator the product goes through Poly itself
    halves = multiply(AlgebraElement(2, {e: Fraction(1, 2), p: Fraction(1, 2)}), product)
    assert halves.num == {e: X * Fraction(1, 2), p: Poly((Fraction(-1, 2),))}


def _cancelling_pair(diagrams, rng):
    """(d1, e2, r2, e3, r3) with d1 composed over e2 and over e3 the same
    diagram, for e2 != e3, with removed-component counts r2 and r3."""
    for _ in range(50):
        d1 = rng.choice(diagrams)
        seen = {}
        for e in rng.sample(diagrams, min(len(diagrams), 40)):
            d, r = compose(d1, e)
            if d in seen:
                return (d1, *seen[d], e, r)
            seen[d] = (e, r)
    return None


@pytest.mark.parametrize("kind", ["poly", 0, 3, Fraction(1, 2)])
def test_multiply_against_compose_oracle(kind):
    rng = random.Random(20040113)
    mode = None if kind == "poly" else Fraction(kind)

    def fraction():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def coeff():
        if mode is not None:
            return fraction()
        return Poly([fraction() for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)])

    def power(r):
        return X**r if mode is None else mode**r

    kinds = (Fraction,) if mode is not None else (Poly,)
    survivors = 0
    for dr in range(1, 7):
        diagrams = list(enumerate_diagrams(dr))
        for _ in range(3):
            a, b = (
                AlgebraElement(
                    dr,
                    {d: coeff() for d in rng.sample(diagrams, min(len(diagrams), 8))},
                    mode,
                )
                for _ in range(2)
            )
            pairs = [(a, b), (b, a), (a, a), (a, b - b)]
            found = _cancelling_pair(diagrams, rng)
            if found is not None:
                # c d1 (n^r3 e2 - n^r2 e3) = c (n^r3 n^r2 - n^r2 n^r3) d = 0
                d1, e2, r2, e3, r3 = found
                left = AlgebraElement(dr, {d1: coeff() or 1}, mode)
                right = AlgebraElement(dr, {e2: power(r3), e3: -power(r2)}, mode)
                assert multiply(left, right).is_zero()
                pairs += [(left, right), (a + left, right)]
                # d cancels beside a diagram that survives: d1 over e makes
                # no loop, so its term is nonzero even at n = 0
                d = compose(d1, e2)[0]
                kept = [e for e in diagrams if compose(d1, e)[0] is not d and not compose(d1, e)[1]]
                if kept:
                    survivor = AlgebraElement(dr, {kept[0]: coeff() or 1}, mode)
                    product = multiply(left, survivor)
                    assert not product.is_zero()
                    assert multiply(left, right + survivor) == product
                    pairs.append((left, right + survivor))
                    survivors += 1
            for x, y in pairs:
                product = multiply(x, y)
                assert product == _oracle_product(x, y)
                for value in product.terms.values():
                    # the kernels build their result unchecked: no zero
                    # and no other kind may be kept
                    assert value and type(value) in kinds
                    _assert_canonical(value)
    assert survivors


@pytest.mark.parametrize("kind", ["poly", 0, 3, Fraction(1, 2)])
def test_constructor_sums_repeated_pairs(kind):
    """The constructor is the accumulator of (diagram, coefficient)
    pairs: it equals the +-fold of the single-term elements, drops a
    diagram whose sum cancels, and keeps one that cancels and then
    reappears."""
    rng = random.Random(20040114)
    mode = None if kind == "poly" else Fraction(kind)

    def coeff():
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if mode is not None:
            return value
        return Poly((value, rng.randint(-2, 2), 1))

    for dr in (4, 5, 6):
        gone, back, whole, *pool = rng.sample(list(enumerate_diagrams(dr)), 7)
        c, c_back = coeff(), coeff()
        while not c or not c_back:
            c, c_back = coeff(), coeff()
        # any two parts of 1
        part = coeff()
        noise = [(rng.choice(pool), coeff()) for _ in range(30)]
        # back sums to zero after its second pair and reappears with its third
        pairs = (
            noise[:10]
            + [(gone, c), (back, c_back), (whole, part)]
            + noise[10:20]
            + [(back, -c_back), (gone, -c), (whole, 1 - part)]
            + noise[20:]
            + [(back, c)]
        )
        built = AlgebraElement(dr, pairs, mode)
        folded = zero(dr, mode)
        for d, value in pairs:
            folded = folded + AlgebraElement(dr, [(d, value)], mode)
        assert built == folded
        assert AlgebraElement(dr, iter(pairs), mode) == built
        assert gone not in built.terms
        assert built.terms[back] == AlgebraElement(dr, [(back, c)], mode).terms[back]
        assert built.terms[whole] == (Poly.const(1) if mode is None else 1)
        assert type(built.terms[whole]) is (Poly if mode is None else Fraction)
        for value in built.terms.values():
            assert value
            _assert_canonical(value)


def test_specialize_commutes_with_multiply():
    """Generic products of rational Poly coefficients, with mixed
    denominators, degrees up to 3 and sums that cancel, specialize to
    the specialized products, and every output coefficient is
    canonical."""
    rng = random.Random(20040115)

    def coeff():
        degree = rng.randint(0, 3)
        low = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(degree)]
        return Poly(low + [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5, 7)))])

    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-5, 7)]
    for dr in range(1, 7):
        diagrams = list(enumerate_diagrams(dr))
        for _ in range(3):
            a, b = (
                AlgebraElement(dr, {d: coeff() for d in rng.sample(diagrams, min(len(diagrams), 6))})
                for _ in range(2)
            )
            pairs = [(a, b), (b, a), (a, b - b), (a, one(dr) + b)]
            found = _cancelling_pair(diagrams, rng)
            if found is not None:
                # c d1 (x^r3 e2 - x^r2 e3) = 0; with halves and thirds the
                # two contributions to d add to a sixth of the first
                d1, e2, r2, e3, r3 = found
                left = AlgebraElement(dr, {d1: coeff()})
                cancelling = AlgebraElement(dr, {e2: X**r3, e3: -(X**r2)})
                assert multiply(left, cancelling).is_zero()
                partial = AlgebraElement(dr, {e2: X**r3 * Fraction(1, 2), e3: X**r2 * Fraction(-1, 3)})
                pairs += [(left, cancelling), (a + left, cancelling), (left, partial)]
            for x, y in pairs:
                product = multiply(x, y)
                for value in product.terms.values():
                    _assert_canonical(value)
                for n in points:
                    expect = multiply(specialize(x, n), specialize(y, n))
                    assert specialize(product, n) == expect


def _fraction_sums(pairs) -> dict:
    """The Fraction sum of each diagram's coefficients, zeros dropped."""
    out = {}
    for d, c in pairs:
        out[d] = out.get(d, 0) + Fraction(c)
    return {d: c for d, c in out.items() if c}


def _assert_lowest_terms(a: AlgebraElement, expect: dict) -> None:
    """a stores nonzero ints over a positive denominator in lowest
    terms, and shows them as the Fractions expect."""
    assert type(a.den) is int and a.den > 0
    assert all(type(v) is int and v != 0 for v in a.num.values())
    assert gcd(a.den, *a.num.values()) == 1
    assert all(type(c) is Fraction for c in a.terms.values())
    assert a.terms == expect


@pytest.mark.parametrize("mode", [Fraction(0), Fraction(3), Fraction(-5, 7), Fraction(1, 2)])
def test_specialized_elements_are_int_numerators_in_lowest_terms(mode):
    rng = random.Random(20040115)
    basis = list(enumerate_diagrams(4))

    def pairs(count):
        # few diagrams, so they repeat, and denominators sharing factors
        # with each other and with the parameter
        return [
            (rng.choice(basis[:8]), Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))))
            for _ in range(count)
        ]

    def extended(f, x):
        """The pairs of the linear map f on x, from f of each diagram."""
        return [
            (k2, v * w)
            for k, v in x.terms.items()
            for k2, w in f(diagram_element(k, 1, mode)).terms.items()
        ]

    d, e = basis[3], basis[9]
    # a sum that cancels takes its denominator with it
    cancelled = AlgebraElement(4, [(d, Fraction(1, 6)), (e, Fraction(1, 2)), (d, Fraction(-1, 6))], mode)
    _assert_lowest_terms(cancelled, {e: Fraction(1, 2)})
    assert cancelled.den == 2
    _assert_lowest_terms(AlgebraElement(4, [(d, 2), (d, Fraction(-4, 2))], mode), {})
    assert zero(4, mode).den == 1

    for _ in range(25):
        ta, tb, tc = pairs(6), pairs(6), pairs(3)
        a, b, c = (AlgebraElement(4, t, mode) for t in (ta, tb, tc))
        for built, t in ((a, ta), (b, tb), (c, tc)):
            _assert_lowest_terms(built, _fraction_sums(t))
        ab = multiply(a, b)
        _assert_lowest_terms(ab, {k: v for k, v in _oracle_sums(a, b).items() if v})
        _assert_lowest_terms(a + b, _fraction_sums(ta + tb))
        _assert_lowest_terms(a - b, _fraction_sums(ta + [(k, -v) for k, v in tb]))
        factor = Fraction(rng.choice((-4, -1, 2, 6)), rng.choice((1, 3, 9)))
        _assert_lowest_terms(a.scale(factor), {k: v * factor for k, v in a.terms.items()})
        _assert_lowest_terms(a.scale(Fraction(0)), {})
        for target in (5, 6):
            up = extended(lambda x: embed(x, target), a)
            _assert_lowest_terms(embed(a, target), _fraction_sums(up))
        _assert_lowest_terms(eps_down(a), _fraction_sums(extended(eps_down, a)))
        a5 = embed(a, 5)
        _assert_lowest_terms(eps_up(a5), _fraction_sums(extended(eps_up, a5)))
        generic = AlgebraElement(4, [(k, Poly([v, Fraction(1, 2), -v])) for k, v in ta])
        at_mode = [(k, p(mode)) for k, p in generic.terms.items()]
        _assert_lowest_terms(specialize(generic, mode), _fraction_sums(at_mode))

        # equal elements reached by different routes hash equal
        routes = [
            (a + b, b + a),
            (a - a, zero(4, mode)),
            (AlgebraElement(4, ab.terms, mode), ab),
            (a.scale(factor).scale(1 / factor), a),
            (multiply(a, b + c), multiply(a, b) + multiply(a, c)),
            (embed(ab, 6), multiply(embed(a, 6), embed(b, 6))),
        ]
        for x, y in routes:
            assert x == y and hash(x) == hash(y)
