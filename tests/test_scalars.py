from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from partalg.errors import DenominatorVanishes
from partalg.scalars import (
    Poly,
    RatFunc,
    parse_rational,
    rational_str,
)

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.lists(small_fractions, max_size=5).map(Poly)
points = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def test_parse_and_format_round_trip():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert rational_str(Fraction(7)) == "7"
    assert rational_str(Fraction(-1, 3)) == "-1/3"
    assert parse_rational(rational_str(Fraction(22, 7))) == Fraction(22, 7)


def test_poly_canonical_form():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly(()).degree == -1
    assert Poly((0,)).is_zero()
    assert Poly.x().degree == 1


def test_poly_arithmetic_basics():
    x = Poly.x()
    assert (x + 1) * (x - 1) == x**2 - 1
    assert (x**3 - x).exact_div(x) == x**2 - 1
    with pytest.raises(ValueError):
        (x**2 + 1).exact_div(x - 1)
    q, r = (x**2 + 1).divmod(x - 1)
    assert q * (x - 1) + r == x**2 + 1
    assert r.degree < 1


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly(()) == a
    assert a * Poly.const(1) == a


@given(polys, polys, points)
def test_poly_eval_is_ring_hom(a, b, p):
    assert (a + b)(p) == a(p) + b(p)
    assert (a * b)(p) == a(p) * b(p)


@given(polys, polys)
def test_poly_gcd_divides_both(a, b):
    g = Poly.gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert a.divmod(g)[1].is_zero()
        assert b.divmod(g)[1].is_zero()
        assert g.leading() == 1


def test_ratfunc_canonical_form():
    x = Poly.x()
    f = RatFunc(x**2 - 1, x - 1)
    assert f == RatFunc(x + 1)
    g = RatFunc(x, 2 * x + 2)
    assert g.den.leading() == 1
    assert g == RatFunc(Poly((0, Fraction(1, 2))), x + 1)


@given(polys, polys, polys)
def test_ratfunc_field_ops(a, b, c):
    f = RatFunc(a, c + Poly.const(5) + c * c)  # denominator never zero at build
    g = RatFunc(b)
    assert f + g - g == f
    if not g.is_zero():
        assert (f * g) / g == f


def test_ratfunc_pole_raises():
    x = Poly.x()
    f = RatFunc(Poly.const(1), x - 2)
    assert f(3) == Fraction(1)
    with pytest.raises(DenominatorVanishes):
        f(2)


@given(polys, polys, points)
def test_ratfunc_eval_matches_parts(a, b, p):
    den = b * b + Poly.const(1)  # positive at every rational point
    f = RatFunc(a, den)
    assert f(p) == a(p) / den(p)


def test_poly_stores_integral_coefficients_as_int():
    mixed = Poly((Fraction(2), Fraction(1, 2)))
    assert mixed.coeffs == (2, Fraction(1, 2))
    assert type(mixed.coeffs[0]) is int
    assert type(mixed.coeffs[1]) is Fraction
    assert Poly((Fraction(3), Fraction(0))).coeffs == (3,)
    assert mixed == Poly((2, Fraction(1, 2)))
    assert hash(mixed) == hash(Poly((2, Fraction(1, 2))))
    assert hash(Poly.x()) == hash(Poly((Fraction(0), Fraction(1))))
    assert str(mixed) == "1/2*x + 2"
    assert type(mixed.leading()) is Fraction
    assert type(Poly((4,)).leading()) is Fraction
    assert type(Poly((4,)).const_value()) is Fraction
    assert type(Poly(()).const_value()) is Fraction
    # the common denominator of the coefficients, which multiply scales by
    assert mixed.denominator == 2
    assert Poly((Fraction(1, 6), 0, Fraction(-3, 4), Fraction(0, 5))).denominator == 12
    assert Poly((Fraction(4, 2), 3)).denominator == Poly(()).denominator == 1


int_polys = st.lists(st.integers(min_value=-6, max_value=6), max_size=5).map(Poly)


@given(int_polys, int_polys, st.integers(min_value=-4, max_value=4))
def test_int_coefficient_inputs_never_give_floats(a, b, point):
    # Poly turns a float coefficient into the Fraction of its binary
    # value, so an int/int true division shows as a wrong value here.
    third = Fraction(point, 3)
    assert type(a(point)) is Fraction and type(a(third)) is Fraction
    assert a(third) == sum(Fraction(c) * third**i for i, c in enumerate(a.coeffs))
    assert a.monic() * a.leading() == a
    g = Poly.gcd(a, b)
    assert (a.is_zero() and b.is_zero()) or g.leading() == 1
    if not b.is_zero():
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
        assert (a * b).exact_div(b) == a
        f = RatFunc(a, b)
        assert f.num * b == a * f.den and f.den.leading() == 1
        assert a.exact_div(g) * g == a
