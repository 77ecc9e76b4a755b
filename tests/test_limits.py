"""The limits table: every entry refuses the first job past its cap
before it allocates, and admits the sizes the benchmark runs."""

import tracemalloc
from fractions import Fraction

import pytest

from partalg import combinatorics, structure
from partalg.combinatorics import hooks_and_contents, syt_dimension
from partalg.algebra import (
    AlgebraElement,
    coarsenings,
    from_orbit_basis,
    one,
    orbit_element,
    refinements,
    specialize,
    to_orbit_basis,
)
from partalg.diagrams import (
    Diagram,
    enumerate_diagrams,
    generator,
    identity_diagram,
    presentation_relations,
    verify_presentation,
)
from partalg.errors import BadParams, LimitExceeded
from partalg.limits import LIMITS, check
from partalg.murphy import (
    M,
    Z,
    b_s,
    d_i,
    kappa_tensor_matrix,
    murphy_family,
    p_s,
    p_tilde_s,
    verify_murphy,
)
from partalg.scalars import parse_parameter
from partalg.structure import (
    basic_construction_iso,
    char_decomposition_check,
    eps_ratio,
    gram,
    matrix_units,
    radical_basis,
    regular_trace,
    semisimple_verdict,
    specht,
    symmetrize,
)
from partalg.symgroup import kappa, standard_tableaux_of, sym_matrix_units
from partalg.tensor import (
    bimodule_dimension_check,
    homomorphism_check,
    phi,
    phi_orbit,
    sym_tensor_matrix,
)

CAP = LIMITS
SIDE = CAP["tensor_side"] + 1
# Built before any allocation is traced.
ONE_PAST_SYMMETRIZE = one(CAP["symmetrize"] + 1, Fraction(3))
ONE_PAST_ENUMERATE = one(CAP["enumerate_diagrams"] + 1)
ORBIT_PAST = identity_diagram(CAP["orbit_basis"] + 1)
ONE_PAST_ORBIT = one(CAP["orbit_basis"] + 1)
P1 = Diagram(2, [[1], [-1]])
# Parameters one bit past the height cap: a fraction and an integer.
TALL = Fraction(1, 2 ** CAP["parameter_bits"] - 1)
TALL_INT = 2 ** (CAP["parameter_bits"] - 1)

# For each entry, the calls that ask for the first job past its cap,
# in the entry's unit.
PAST_CAP = {
    "enumerate_diagrams": [
        lambda: enumerate_diagrams(CAP["enumerate_diagrams"] + 1),
        lambda: regular_trace(ONE_PAST_ENUMERATE),
    ],
    "gram": [lambda: gram(CAP["gram"] + 1, 3)],
    "gram_generic_det": [lambda: gram(CAP["gram_generic_det"] + 1, None)],
    "semisimple_verdict": [lambda: semisimple_verdict(CAP["semisimple_verdict"] + 1, 3)],
    "matrix_units": [lambda: matrix_units(CAP["matrix_units"] + 1, 3)],
    # bounded by the enumerate_diagrams entry, whose bases it checks on
    "basic_construction_iso": [
        lambda: basic_construction_iso(CAP["enumerate_diagrams"] + 1, 3)
    ],
    # bounded by the gram entry, whose kernel it takes
    "radical_basis": [lambda: radical_basis(CAP["gram"] + 1, 2)],
    "specht": [lambda: specht(CAP["specht"] + 1, ())],
    "symmetrize": [
        lambda: symmetrize(ONE_PAST_SYMMETRIZE, CAP["symmetrize"] + 1, 3)
    ],
    "murphy_family": [
        lambda: Z(CAP["murphy_family"] + 1),
        lambda: M(CAP["murphy_family"] + 1),
        lambda: murphy_family(CAP["murphy_family"] + 1),
        lambda: p_s(CAP["murphy_family"] + 1, [1]),
        lambda: p_tilde_s(CAP["murphy_family"] + 1, [CAP["murphy_family"] // 2 + 1]),
    ],
    "diagram": [
        lambda: Diagram(CAP["diagram"] + 1, []),
        lambda: identity_diagram(CAP["diagram"] + 1),
        lambda: one(CAP["diagram"] + 1),
        lambda: generator("s", 1, CAP["diagram"] + 1),
        lambda: b_s(CAP["diagram"] + 1, [1, 2]),
        lambda: d_i(CAP["diagram"] + 1, [1, 2], [1]),
    ],
    "presentation": [
        lambda: presentation_relations(CAP["presentation"] + 1),
        lambda: verify_presentation(CAP["presentation"] + 1),
    ],
    "orbit_basis": [
        lambda: refinements(ORBIT_PAST),
        lambda: coarsenings(ORBIT_PAST),
        lambda: to_orbit_basis(ONE_PAST_ORBIT),
        lambda: from_orbit_basis({ORBIT_PAST: 1}, CAP["orbit_basis"] + 1),
        lambda: orbit_element(ORBIT_PAST),
    ],
    "verify_murphy": [lambda: verify_murphy(CAP["verify_murphy"] + 1, [2])],
    # the unit is the sum of the witnesses' n
    "verify_murphy_witnesses": [
        lambda: verify_murphy(2, [CAP["verify_murphy_witnesses"] + 1]),
        lambda: verify_murphy(2, [2] * (CAP["verify_murphy_witnesses"] // 2 + 1)),
        lambda: verify_murphy(6, [4] * 12 + [3]),
    ],
    # the unit is the double rank 2 * size, so the next job is size + 1
    "sym_matrix_units": [lambda: sym_matrix_units(CAP["sym_matrix_units"] // 2 + 1)],
    "hook_boxes": [
        lambda: syt_dimension((CAP["hook_boxes"] + 1,)),
        lambda: syt_dimension((CAP["hook_boxes"] // 2 + 1, CAP["hook_boxes"] // 2)),
        lambda: hooks_and_contents((CAP["hook_boxes"] + 1,)),
        lambda: syt_dimension((10**7,)),
    ],
    "kappa": [lambda: kappa(CAP["kappa"] + 1)],
    "standard_tableaux_boxes": [
        lambda: standard_tableaux_of((CAP["standard_tableaux_boxes"] + 1,)),
        lambda: standard_tableaux_of((1,) * (CAP["standard_tableaux_boxes"] + 1)),
    ],
    # entries, boxes times tableaux: 15 boxes with 292,864 tableaux
    "standard_tableaux": [lambda: standard_tableaux_of((5, 4, 3, 2, 1))],
    "tensor_side": [
        lambda: phi(P1, SIDE),
        lambda: phi_orbit(P1, SIDE),
        lambda: sym_tensor_matrix(list(range(1, SIDE + 1)), SIDE, 1),
        lambda: kappa_tensor_matrix(SIDE, 1),
        lambda: verify_murphy(2, [SIDE]),
        # V has side n at every rank, though n**0 = 1
        lambda: bimodule_dimension_check(SIDE, 0),
        lambda: bimodule_dimension_check(10**6, 1),
    ],
    # pairs x side**2: 14 x 4140 pairs at double rank 8, side 81
    "homomorphism_check": [lambda: homomorphism_check(3, 8)],
    # bits of numerator plus denominator; every entry that parses n
    "parameter_bits": [
        lambda: gram(2, TALL),
        lambda: gram(2, TALL_INT, "diagram"),
        lambda: semisimple_verdict(2, TALL_INT),
        lambda: eps_ratio(1, (), (), str(TALL)),
        lambda: matrix_units(2, TALL),
        lambda: char_decomposition_check(2, TALL),
        lambda: basic_construction_iso(2, TALL),
        lambda: radical_basis(2, TALL),
        lambda: specht(2, (1,), TALL_INT),
        lambda: symmetrize(one(2), 2, TALL),
        lambda: specialize(one(2), TALL),
        lambda: sym_matrix_units(CAP["sym_matrix_units"] // 2, TALL),
    ],
}


# Entry points with no cap of their own, and the entry whose cap bounds them.
BOUNDED_BY = {"radical_basis": "gram", "basic_construction_iso": "enumerate_diagrams"}


def test_every_entry_has_a_past_cap_call():
    assert PAST_CAP.keys() == LIMITS.keys() | BOUNDED_BY.keys()
    assert not LIMITS.keys() & BOUNDED_BY.keys()


@pytest.mark.parametrize("name", [*LIMITS, *BOUNDED_BY])
def test_one_past_the_cap_raises_before_allocating(name):
    entry = BOUNDED_BY.get(name, name)
    for call in PAST_CAP[name]:
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceeded, match=f"^{entry}: "):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_jobs_over_the_time_budget_are_refused():
    with pytest.raises(LimitExceeded):
        sym_matrix_units(7)
    with pytest.raises(LimitExceeded):
        homomorphism_check(3, 8)
    with pytest.raises(LimitExceeded):
        verify_murphy(2, [81])
    with pytest.raises(LimitExceeded):
        verify_presentation(192)
    with pytest.raises(LimitExceeded):
        verify_murphy(6, [4] * 13)
    # did not finish in 60 s before the height cap
    with pytest.raises(LimitExceeded, match="^parameter_bits: size 40 "):
        gram(6, Fraction(1000003, 999983))


def test_parameter_height_counts_numerator_and_denominator_bits():
    cap = CAP["parameter_bits"]
    assert parse_parameter(Fraction(-3, 61)) == Fraction(-3, 61)  # 2 + 6 bits
    assert parse_parameter(2 ** (cap - 2)) == 2 ** (cap - 2)  # cap - 1 + 1 bits
    assert parse_parameter("1/" + str(2 ** (cap - 1) - 1)) == Fraction(1, 2 ** (cap - 1) - 1)
    for past in (Fraction(1, 2 ** (cap - 1)), -(2 ** (cap - 1)), TALL, TALL_INT):
        with pytest.raises(LimitExceeded, match="^parameter_bits: "):
            parse_parameter(past)
    for bad in ("x", "1/0", None):
        with pytest.raises(BadParams):
            parse_parameter(bad)


def test_check_takes_only_nonnegative_ints():
    assert check("specht", 0) == 0
    assert check("specht", CAP["specht"]) == CAP["specht"]
    for bad in (-1, 2.0, "2", None, True):
        with pytest.raises(BadParams):
            check("specht", bad)
    with pytest.raises(KeyError):
        check("no such entry", 1)


def test_benchmark_sizes_are_admitted(monkeypatch):
    assert verify_murphy(6, [2, 3])["ok"]
    assert sym_matrix_units(4).double_rank == 8
    assert gram(4, None).det is not None
    for n in (3, 4, 5):
        assert char_decomposition_check(4, n)["ok"]
    for lam in ((1,), (2,), (1, 1)):
        assert specht(4, lam)["ok"]
    for rank, n in ((2, 0), (3, 1), (4, 2)):
        assert isinstance(radical_basis(rank, n), list)
    assert not symmetrize(one(4, Fraction(3)), 4, 3).is_zero()
    assert bimodule_dimension_check(2, 7)["image_rank"] > 0
    for rank in (4, 5):
        assert phi(next(iter(enumerate_diagrams(rank))), 3).side == 9

    # admission is all this asks of semisimple_verdict(6, n); stop it at
    # its first work
    class Admitted(Exception):
        pass

    def first_work(double_rank):
        raise Admitted

    monkeypatch.setattr(structure, "_top_halves", first_work)
    for n in (2, 3, 4, 5):
        with pytest.raises(Admitted):
            structure.semisimple_verdict(6, n)


def test_orbit_basis_cap_is_admitted():
    # the identity at the cap has 5 blocks of 2: 2**5 refinements and
    # Bell(5) coarsenings
    cap = CAP["orbit_basis"]
    e = identity_diagram(cap)
    assert len(refinements(e)) == 32
    assert len(coarsenings(e)) == len(orbit_element(e).num) == 52
    assert from_orbit_basis(to_orbit_basis(one(cap)), cap) == one(cap)


def test_hook_box_cap_is_admitted(monkeypatch):
    cap = CAP["hook_boxes"]
    hooks, contents = hooks_and_contents((cap,))
    assert hooks == tuple(range(1, cap + 1)) and contents == tuple(range(cap))

    # syt_dimension((cap,)) takes seconds; admission is all this asks
    # of it, so stop it at its first big-int work
    class Admitted(Exception):
        pass

    def first_work(m):
        raise Admitted

    monkeypatch.setattr(combinatorics, "factorial", first_work)
    for shape in ((cap,), (1,) * cap):
        with pytest.raises(Admitted):
            syt_dimension(shape)
    with pytest.raises(LimitExceeded, match="^hook_boxes: "):
        syt_dimension((1,) * (cap + 1))
