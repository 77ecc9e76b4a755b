"""Bad parameters raise only PartalgError: pinned cases, then a seeded
fuzz over the size and parameter arguments of the public entries."""

import random
from fractions import Fraction

import pytest

from partalg import combinatorics, diagrams, murphy, structure, symgroup, tensor
from partalg import algebra
from partalg.algebra import diagram_element, one
from partalg.combinatorics import syt_dimension
from partalg.diagrams import Diagram, enumerate_diagrams
from partalg.errors import (
    BadParams,
    BadShape,
    IndexOutOfRange,
    LimitExceeded,
    PartalgError,
    RankMismatch,
)
from partalg.scalars import Poly, RatFunc, parse_rational

P1 = Diagram(2, [[1], [-1]])
POLE = RatFunc(Poly.const(1), Poly((-1, 1)))  # 1 / (x - 1)
IDENTITY = tensor.EndoMatrix.identity(2, 1)
ID2 = diagrams.identity_diagram(2)


@pytest.mark.parametrize("text", ["x", "1/0", None, "nan", 1.5j])
def test_parse_rational_refuses_non_rationals(text):
    with pytest.raises(BadParams):
        parse_rational(text)


NOT_RATIONAL = {
    "gram": lambda: structure.gram(2, "x"),
    "eps_ratio": lambda: structure.eps_ratio(2, (), (1,), "x"),
    "matrix_units": lambda: structure.matrix_units(2, "x"),
    "char_decomposition_check": lambda: structure.char_decomposition_check(2, "x"),
    "basic_construction_iso": lambda: structure.basic_construction_iso(2, "x"),
    "radical_basis": lambda: structure.radical_basis(4, "a"),
    "symmetrize": lambda: structure.symmetrize(one(2, Fraction(3)), 2, "x"),
    "specht": lambda: structure.specht(4, (1,), "x"),
    "specht_fractional_witness": lambda: structure.specht(4, (1,), 2.5),
    "semisimple_verdict": lambda: structure.semisimple_verdict(2, "x"),
}


@pytest.mark.parametrize("call", NOT_RATIONAL.values(), ids=NOT_RATIONAL.keys())
def test_parameters_that_are_not_rationals(call):
    with pytest.raises(BadParams):
        call()


OUT_OF_DOMAIN = {
    # these used to return or leak another exception
    "enumerate_diagrams(-2)": lambda: list(enumerate_diagrams(-2)),  # yielded Diagram(0, ())
    "commutant_dims(2, -1)": lambda: tensor.commutant_dims(2, -1),  # returned (1, 0, [])
    "Z(2.5)": lambda: murphy.Z(2.5),  # leaked TypeError
    "kappa_tensor_matrix(0, 2)": lambda: murphy.kappa_tensor_matrix(0, 2),  # n = 0 matrix
    # leaked TypeError; p_tilde_s took the parity before any check
    "b_s(None, [1])": lambda: murphy.b_s(None, [1]),
    "b_s(2.5, [1])": lambda: murphy.b_s(2.5, [1]),
    "d_i(None, [1], [1])": lambda: murphy.d_i(None, [1], [1]),
    "p_s(None, [1])": lambda: murphy.p_s(None, [1]),
    "p_tilde_s(None, [1])": lambda: murphy.p_tilde_s(None, [1]),
    # lower bounds are domain checks, not caps
    "basic_construction_iso(1, 3)": lambda: structure.basic_construction_iso(1, 3),
    "matrix_units(-1, 3)": lambda: structure.matrix_units(-1, 3),
    # accepted, until repr raised TypeError
    "AlgebraElement(2.5, {})": lambda: algebra.AlgebraElement(2.5, {}),
    "zero(2.5)": lambda: algebra.zero(2.5),
    # leaked TypeError
    "AlgebraElement(2, None)": lambda: algebra.AlgebraElement(2, None),
    "Diagram(2, None)": lambda: Diagram(2, None),
    "Diagram(2, [None])": lambda: Diagram(2, [None]),
    # terms that are not (diagram, coefficient) pairs leaked TypeError
    # or ValueError from the unpacking in the term loops
    "AlgebraElement(2, [None])": lambda: algebra.AlgebraElement(2, [None]),
    "AlgebraElement(2, [None], 3)": lambda: algebra.AlgebraElement(2, [None], 3),
    "AlgebraElement(2, [(d,)])": lambda: algebra.AlgebraElement(2, [(ID2,)]),
    "AlgebraElement(2, [(d,)], 3)": lambda: algebra.AlgebraElement(2, [(ID2,)], 3),
    "AlgebraElement(2, [(d, 1, 1)])": lambda: algebra.AlgebraElement(2, [(ID2, 1, 1)]),
    "AlgebraElement(2, [(d, 1, 1)], 3)": lambda: algebra.AlgebraElement(2, [(ID2, 1, 1)], 3),
    # a rational function was a generic coefficient, and a
    # ModeMismatch in specialized mode; coefficients are polynomials
    "element(2, [(d, 1/(x-1))])": lambda: algebra.element(2, [(ID2, POLE)]),
    "element(2, [(d, 1/(x-1))], 3)": lambda: algebra.element(2, [(ID2, POLE)], 3),
    "diagram_element(d, 1/(x-1))": lambda: diagram_element(ID2, POLE),
    "diagram_element(d, 1/(x-1), 3)": lambda: diagram_element(ID2, POLE, 3),
    "one(2).scale(1/(x-1))": lambda: one(2).scale(POLE),
    "one(2, 3).scale(1/(x-1))": lambda: one(2, 3).scale(POLE),
    # returned Diagram(8, ((1, -3), (-1, 3), (2, -4), (-2, 4))), which is
    # no monoid image
    "planar_to_tl(crossing)": lambda: diagrams.planar_to_tl(Diagram(4, [[1, -2], [2, -1]])),
}


@pytest.mark.parametrize("call", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN.keys())
def test_ranks_out_of_the_domain(call):
    with pytest.raises(BadParams):
        call()


def test_radical_basis_at_double_ranks_zero_and_one_is_empty():
    # A_0(n) and A_{1/2}(n) are one-dimensional and semisimple
    for dr in (0, 1):
        for n in (0, 3):
            assert structure.radical_basis(dr, n) == []


DIAGRAM_ARGUMENTS = {
    "presentation_relations(-1)": (lambda: diagrams.presentation_relations(-1), BadParams),  # returned []
    # each leaked TypeError or ValueError
    "verify_presentation(2.5)": (lambda: diagrams.verify_presentation(2.5), BadParams),
    'evaluate_word("ab", 2)': (lambda: diagrams.evaluate_word("ab", 2), IndexOutOfRange),
    "evaluate_word(None, 2)": (lambda: diagrams.evaluate_word(None, 2), IndexOutOfRange),
    "one(2.5)": (lambda: one(2.5), BadParams),
    "Diagram(2.5, [[1, -1]])": (lambda: Diagram(2.5, [[1, -1]]), BadParams),
    "Diagram(True, [[1, -1]])": (lambda: Diagram(True, [[1, -1]]), BadParams),  # was accepted
    # took 4.0 s and 756 MB
    "identity_diagram(2 * 10**6)": (lambda: diagrams.identity_diagram(2 * 10**6), LimitExceeded),
    # the word helpers leaked AttributeError, ValueError and TypeError
    "parse_token(5)": (lambda: diagrams.parse_token(5), IndexOutOfRange),
    'token_str("x")': (lambda: diagrams.token_str("x"), IndexOutOfRange),
    'perm_word([1, "a"])': (lambda: diagrams.perm_word([1, "a"]), BadParams),
    "perm_word([3, 3])": (lambda: diagrams.perm_word([3, 3]), BadParams),  # returned []
    'permutation_diagram("x", 4)': (lambda: diagrams.permutation_diagram("x", 4), BadParams),
}


@pytest.mark.parametrize("call, error", DIAGRAM_ARGUMENTS.values(), ids=DIAGRAM_ARGUMENTS.keys())
def test_diagram_arguments_that_cannot_be_read(call, error):
    with pytest.raises(error):
        call()


UNREADABLE_PARTITIONS = {
    # each leaked ValueError or TypeError from its own parse of the parts
    'char_poly("ab")': (lambda: structure.char_poly("ab"), BadParams),
    "char_poly(None)": (lambda: structure.char_poly(None), BadParams),
    'eps_ratio(2, "ab", ())': (lambda: structure.eps_ratio(2, "ab", ()), BadParams),
    'specht(4, "ab")': (lambda: structure.specht(4, "ab"), BadShape),
    "specht(4, None)": (lambda: structure.specht(4, None), BadShape),
}


@pytest.mark.parametrize(
    "call, error", UNREADABLE_PARTITIONS.values(), ids=UNREADABLE_PARTITIONS.keys()
)
def test_partitions_that_cannot_be_read(call, error):
    with pytest.raises(error):
        call()


NOT_INTEGERS = {
    # each used to be truncated by int() and answered for another input
    "char_poly((2.5,))": lambda: structure.char_poly((2.5,)),  # .mu was (2,)
    'char_poly(("3",))': lambda: structure.char_poly(("3",)),  # .mu was (3,)
    "eps_ratio(2.5, (), ())": lambda: structure.eps_ratio(2.5, (), ()),  # eps_ratio(2, ...)
    "syt_dimension((1.5,))": lambda: syt_dimension((1.5,)),  # was 1
    "char_poly((True,))": lambda: structure.char_poly((True,)),  # .mu was (1,)
    "syt_dimension((2, True))": lambda: syt_dimension((2, True)),  # was 2
}


@pytest.mark.parametrize("call", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_non_integers_are_refused_not_truncated(call):
    with pytest.raises(BadParams):
        call()


TENSOR_ARGUMENTS = {
    # each leaked TypeError, ValueError or AttributeError, or was read
    # as another value (0.5 as 1/2, True as 1)
    'scale("x")': lambda: IDENTITY.scale("x"),
    "scale(None)": lambda: IDENTITY.scale(None),
    "scale(0.5)": lambda: IDENTITY.scale(0.5),
    "scale(True)": lambda: IDENTITY.scale(True),
    "restrict_last(m, 3/2)": lambda: tensor.restrict_last(IDENTITY, Fraction(3, 2)),
    'restrict_last(m, "a")': lambda: tensor.restrict_last(IDENTITY, "a"),
    "restrict_last(m, True)": lambda: tensor.restrict_last(IDENTITY, True),
    "sym_tensor_matrix(None, 2, 2)": lambda: tensor.sym_tensor_matrix(None, 2, 2),
    'sym_tensor_matrix([1, "a"], 2, 2)': lambda: tensor.sym_tensor_matrix([1, "a"], 2, 2),
    "sym_tensor_matrix([2.0, 1.0], 2, 1)": lambda: tensor.sym_tensor_matrix([2.0, 1.0], 2, 1),  # was the swap
    "sym_tensor_matrix([True, 2], 2, 1)": lambda: tensor.sym_tensor_matrix([True, 2], 2, 1),  # was the identity
    "EndoMatrix(1, 1, [[True]])": lambda: tensor.EndoMatrix(1, 1, [[True]]),  # rows were [[1]]
    'phi("x", 2)': lambda: tensor.phi("x", 2),
    'phi_orbit("x", 2)': lambda: tensor.phi_orbit("x", 2),
}


@pytest.mark.parametrize("call", TENSOR_ARGUMENTS.values(), ids=TENSOR_ARGUMENTS.keys())
def test_tensor_arguments_that_cannot_be_read(call):
    with pytest.raises(BadParams):
        call()


SYMGROUP_ARGUMENTS = {
    # each leaked another exception or answered for another input
    "transposition(1, 3, 2)": lambda: symgroup.transposition(1, 3, 2),  # IndexError
    "transposition(1, 1, 2)": lambda: symgroup.transposition(1, 1, 2),  # was the identity
    "kappa(-1)": lambda: symgroup.kappa(-1),  # was an element of rank -1
    'kappa("a")': lambda: symgroup.kappa("a"),  # TypeError
    'Permutation("ab")': lambda: symgroup.Permutation("ab"),  # ValueError
    "Permutation([1.5])": lambda: symgroup.Permutation([1.5]),  # was [1]
    "from_cycles(2, [(1, 3)])": lambda: symgroup.Permutation.from_cycles(2, [(1, 3)]),  # IndexError
    "Permutation(5)": lambda: symgroup.Permutation(5),  # TypeError
    "from_cycles(2, [1])": lambda: symgroup.Permutation.from_cycles(2, [1]),  # TypeError
    "from_cycles(2, 7)": lambda: symgroup.Permutation.from_cycles(2, 7),  # TypeError
    'standard_tableaux_of("ab")': lambda: symgroup.standard_tableaux_of("ab"),  # TypeError
    "standard_tableaux_of((1, 2))": lambda: symgroup.standard_tableaux_of((1, 2)),  # was accepted
    "standard_tableaux_of((2, 0))": lambda: symgroup.standard_tableaux_of((2, 0)),  # was accepted
    "unit of a missing key": lambda: symgroup.sym_matrix_units(2).unit(
        (2,), ((1,), (2,)), ((1,), (2,))
    ),  # KeyError
    'young_elements((2, 1), 3, "x")': lambda: symgroup.young_elements((2, 1), 3, "x"),  # AttributeError
}


@pytest.mark.parametrize("call", SYMGROUP_ARGUMENTS.values(), ids=SYMGROUP_ARGUMENTS.keys())
def test_symgroup_arguments_that_cannot_be_read(call):
    with pytest.raises(BadParams):
        call()


def test_oversized_shapes_are_refused_before_enumerating():
    """(1200,) recursed once per box into RecursionError; (30, 30) has
    Catalan(30) fillings.  Both are refused before any filling is made."""
    with pytest.raises(LimitExceeded, match="^standard_tableaux_boxes: "):
        symgroup.standard_tableaux_of((1200,))
    with pytest.raises(LimitExceeded, match="^standard_tableaux: "):
        symgroup.standard_tableaux_of((30, 30))


def test_a_cap_names_a_huge_size_without_printing_it():
    # formatting an int of more than 4300 digits raised ValueError
    with pytest.raises(LimitExceeded, match="^kappa: size over 2\\*\\*"):
        symgroup.kappa(10**5000)


ALGEBRA_ARGUMENTS = {
    # each leaked ValueError or TypeError, or was read as another value
    'element(2, [(d, "a")], 3)': (
        lambda: algebra.element(2, [(ID2, "a")], Fraction(3)),
        BadParams,
    ),
    'element(2, [(d, "a")])': (lambda: algebra.element(2, [(ID2, "a")]), BadParams),
    'diagram_element(d, "a", 3)': (lambda: diagram_element(ID2, "a", 3), BadParams),
    "element(2, [(d, None)], 3)": (
        lambda: algebra.element(2, [(ID2, None)], Fraction(3)),
        BadParams,
    ),
    "element(2, [(d, None)])": (lambda: algebra.element(2, [(ID2, None)]), BadParams),
    'one(2, 3).scale("a")': (lambda: one(2, Fraction(3)).scale("a"), BadParams),
    "one(2, 3).scale(None)": (lambda: one(2, Fraction(3)).scale(None), BadParams),
    'one(2).scale("a")': (lambda: one(2).scale("a"), BadParams),
    'ideal_basis("a")': (lambda: algebra.ideal_basis("a"), BadParams),
    "mobius_coefficient(ranks 2 and 4)": (
        lambda: algebra.mobius_coefficient(ID2, diagrams.identity_diagram(4)),
        RankMismatch,
    ),
    "embed(one(2), 2.5)": (lambda: algebra.embed(one(2), 2.5), BadParams),  # was rank 3/2
    # a mode was never parsed: one(2, "a") was accepted, and its
    # products leaked AttributeError
    'one(2, "a")': (lambda: one(2, "a"), BadParams),
    'zero(2, "a")': (lambda: algebra.zero(2, "a"), BadParams),
    "one(2, 2**9)": (lambda: one(2, 2**9), LimitExceeded),
    # each leaked AttributeError
    'element(2, [("x", 1)])': (lambda: algebra.element(2, [("x", 1)]), BadParams),
    'element(2, [("x", 1)], 3)': (lambda: algebra.element(2, [("x", 1)], 3), BadParams),
    'refinements("x")': (lambda: algebra.refinements("x"), BadParams),
    'coarsenings("x")': (lambda: algebra.coarsenings("x"), BadParams),
    'to_orbit_basis("x")': (lambda: algebra.to_orbit_basis("x"), BadParams),
}


@pytest.mark.parametrize("call, error", ALGEBRA_ARGUMENTS.values(), ids=ALGEBRA_ARGUMENTS.keys())
def test_algebra_arguments_that_cannot_be_read(call, error):
    with pytest.raises(error):
        call()


def test_modes_are_read_as_parameters():
    assert one(2, 2.5).mode == Fraction(5, 2)
    assert type(one(2, 3).mode) is Fraction
    assert one(2, "3/6") == one(2, Fraction(1, 2))
    # a diagram of another rank is still a rank mismatch
    with pytest.raises(RankMismatch):
        algebra.element(2, [(diagrams.identity_diagram(4), 1)], 3)


def test_float_coefficients_keep_their_values():
    # Fraction() reads a float exactly; a generic scale by a float
    # leaked TypeError
    assert diagram_element(ID2, 0.5, Fraction(3)).coeff(ID2) == Fraction(1, 2)
    assert one(2).scale(2.5) == diagram_element(ID2, Fraction(5, 2))
    assert one(2, Fraction(3)).scale(0.25).coeff(ID2) == Fraction(1, 4)


COMBINATORICS_ARGUMENTS = {
    # each leaked TypeError
    'counting("bell", "x")': lambda: combinatorics.counting("bell", "x"),
    'partitions_of("x")': lambda: combinatorics.partitions_of("x"),
    'build_bratteli("abstract", "x")': lambda: combinatorics.build_bratteli("abstract", "x"),
    'build_bratteli("concrete", 3, "x")': lambda: combinatorics.build_bratteli("concrete", 3, "x"),
    'paths("x", ())': lambda: combinatorics.build_bratteli("abstract", 2).paths("x", ()),
    'attach_first_row((1,), "x")': lambda: combinatorics.attach_first_row((1,), "x"),
}


@pytest.mark.parametrize(
    "call", COMBINATORICS_ARGUMENTS.values(), ids=COMBINATORICS_ARGUMENTS.keys()
)
def test_combinatorics_arguments_that_cannot_be_read(call):
    with pytest.raises(BadParams):
        call()


def test_enumerate_checks_at_the_call():
    with pytest.raises(BadParams):
        enumerate_diagrams(-2)


def _bad_values(rng: random.Random) -> list:
    return [
        None,
        "x",
        str(rng.randint(2, 5)),
        rng.uniform(-5, 5),
        float("nan"),
        -rng.randint(1, 10**6),
        10 ** rng.randint(12, 40),
        # an unhashable and a hashable container
        [rng.randint(1, 5)],
        (rng.randint(1, 5),),
    ]


def _entry(name, fn, valid, positions, **kwargs):
    return pytest.param(fn, valid, positions, id=name, **kwargs)


# function, valid arguments, positions to replace with bad values
ENTRIES = [
    _entry("enumerate_diagrams", lambda r: list(diagrams.enumerate_diagrams(r)), (2,), (0,)),
    _entry("gram", structure.gram, (2, 3), (0, 1)),
    _entry("semisimple_verdict", structure.semisimple_verdict, (2, 3), (0, 1)),
    _entry("matrix_units", structure.matrix_units, (2, 3), (0, 1)),
    _entry("char_decomposition_check", structure.char_decomposition_check, (2, 3), (0, 1)),
    _entry("basic_construction_iso", structure.basic_construction_iso, (2, 3), (0, 1)),
    _entry("radical_basis", structure.radical_basis, (2, 0), (0, 1)),
    _entry("specht", structure.specht, (2, (1,), 3), (0, 2)),
    _entry(
        "specht(4, ())",
        structure.specht,
        (4, ()),
        (),
        marks=pytest.mark.xfail(
            strict=True, raises=IndexError, reason="column_reading_tableau of ()"
        ),
    ),
    _entry("symmetrize", structure.symmetrize, (one(2, Fraction(3)), 2, 3), (1, 2)),
    _entry("generator", diagrams.generator, ("s", 1, 4), (1, 2)),
    _entry("identity_diagram", diagrams.identity_diagram, (4,), (0,)),
    _entry("verify_presentation", diagrams.verify_presentation, (4,), (0,)),
    _entry("evaluate_word", diagrams.evaluate_word, ([("s", 1)], 4), (0, 1)),
    _entry("b_s", murphy.b_s, (4, [1, 2]), (0, 1)),
    _entry("d_i", murphy.d_i, (4, [1, 2], [1]), (0, 1, 2)),
    _entry("p_s", murphy.p_s, (4, [1, 2]), (0, 1)),
    _entry("p_tilde_s", murphy.p_tilde_s, (3, [1, 2]), (0, 1)),
    _entry("Z", murphy.Z, (2,), (0,)),
    _entry("M", murphy.M, (2,), (0,)),
    _entry("murphy_family", murphy.murphy_family, (2,), (0,)),
    _entry("kappa_tensor_matrix", murphy.kappa_tensor_matrix, (2, 2), (0, 1)),
    _entry("verify_murphy", murphy.verify_murphy, (2, [2]), (0, 1)),
    _entry("verify_murphy_witness", lambda r, n: murphy.verify_murphy(r, [n]), (2, 2), (1,)),
    _entry(
        "verify_murphy_witnesses",
        lambda a, b: murphy.verify_murphy(2, [a, 2, b]),
        (3, 4),
        (0, 1),
    ),
    _entry("sym_matrix_units", symgroup.sym_matrix_units, (2, 3), (0, 1)),
    _entry("kappa", symgroup.kappa, (3, 3), (0, 1)),
    _entry("phi", tensor.phi, (P1, 2), (0, 1)),
    _entry("phi_orbit", tensor.phi_orbit, (P1, 2), (0, 1)),
    _entry("sym_tensor_matrix", tensor.sym_tensor_matrix, ([2, 1], 2, 1), (0, 1, 2)),
    _entry("EndoMatrix.scale", IDENTITY.scale, (3,), (0,)),
    _entry("restrict_last", lambda v: tensor.restrict_last(IDENTITY, v), (1,), (0,)),
    _entry("homomorphism_check", tensor.homomorphism_check, (2, 2), (0, 1)),
    _entry("commutant_dims", tensor.commutant_dims, (2, 2), (0, 1)),
    _entry("bimodule_dimension_check", tensor.bimodule_dimension_check, (2, 2), (0, 1)),
]


def _only_partalg_errors(fn, args) -> None:
    try:
        fn(*args)
    except PartalgError:
        pass


@pytest.mark.parametrize("fn, valid, positions", ENTRIES)
def test_fuzzed_parameters_raise_only_partalg_errors(fn, valid, positions):
    rng = random.Random(20040113)
    _only_partalg_errors(fn, valid)
    for position in positions:
        for bad in _bad_values(rng):
            args = list(valid)
            args[position] = bad
            _only_partalg_errors(fn, args)
