"""Commuting family: collapse diagrams, split sums, central elements."""

import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from partalg import murphy
from partalg.algebra import (
    diagram_element,
    element,
    embed,
    multiply,
    one,
    specialize,
)
from partalg.diagrams import Diagram, enumerate_diagrams, identity_diagram
from partalg.errors import BadParams, BadSubset, LimitExceeded
from partalg.limits import LIMITS
from partalg.linalg import rank as matrix_rank
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
from partalg.scalars import Poly
from partalg.tensor import EndoMatrix, phi

X = Poly.x()


def build(double_rank, terms):
    acc = {}
    for coeff, blocks in terms:
        d = Diagram(double_rank, [list(b) for b in blocks])
        poly = coeff if isinstance(coeff, Poly) else Poly.const(Fraction(coeff))
        acc[d] = acc.get(d, Poly.const(Fraction(0))) + poly
    return element(double_rank, acc)


def strands(columns, skip):
    return [[m, -m] for m in range(1, columns + 1) if m not in skip]


def test_collapse_diagram_pictures():
    s = {2, 4, 5, 8}
    merged = [v for m in sorted(s) for v in (m, -m)]
    assert b_s(18, s) == Diagram(18, [merged] + strands(9, s))
    assert b_s(18, [3]) == identity_diagram(18)
    assert b_s(4, (2,)) == identity_diagram(4)
    with pytest.raises(BadSubset):
        b_s(4, [])
    with pytest.raises(BadSubset):
        b_s(4, [3])
    with pytest.raises(BadSubset):
        b_s(18, [0, 2])


def test_split_diagram_pictures():
    s = {2, 4, 5, 8}
    inside = [2, 4, -4, 5, 8]
    rest = [-2, -5, -8]
    assert d_i(18, s, inside) == Diagram(18, [inside, rest] + strands(9, s))
    with pytest.raises(BadSubset):
        d_i(18, s, [2, 3])
    with pytest.raises(BadSubset):
        d_i(18, s, [])
    with pytest.raises(BadSubset):
        d_i(18, s, [v for m in s for v in (m, -m)])


def test_split_diagram_keeps_pinned_pair_together():
    assert d_i(3, [1, 2], [2, -2]) == Diagram(3, [[2, -2], [1, -1]])
    assert d_i(3, [1, 2], [1, 2, -2]) == Diagram(3, [[1, 2, -2], [-1]])
    with pytest.raises(BadSubset):
        d_i(3, [1, 2], [2])
    with pytest.raises(BadSubset):
        d_i(3, [1, 2], [1, -2])


def test_split_sum_smallest_case():
    assert p_s(2, [1]) == build(2, [(1, ([1], [-1]))])


def test_split_sum_two_columns():
    want = build(4, [
        (-1, ([1], [-1, 2, -2])),
        (-1, ([2], [1, -1, -2])),
        (-1, ([-1], [1, 2, -2])),
        (-1, ([-2], [1, -1, 2])),
        (1, ([1, -2], [-1, 2])),
        (1, ([1, 2], [-1, -2])),
    ])
    assert p_s(4, [1, 2]) == want


def test_split_sum_coefficients_are_integers():
    for double_rank, s in ((4, (1, 2)), (6, (1, 3)), (6, (1, 2, 3))):
        for poly in p_s(double_rank, s).terms.values():
            assert all(c.denominator == 1 for c in poly.coeffs)


def test_split_sum_guards():
    with pytest.raises(BadSubset):
        p_s(3, [1, 2])
    with pytest.raises(BadSubset):
        p_tilde_s(4, [1, 2])
    with pytest.raises(BadSubset):
        p_tilde_s(3, [1])


def test_pinned_split_sum_two_columns():
    want = build(3, [
        (-1, ([1], [-1, 2, -2])),
        (-1, ([1, 2, -2], [-1])),
    ])
    assert p_tilde_s(3, [1, 2]) == want


def test_pinned_split_sum_admits_the_pinned_pair_split():
    elem = p_tilde_s(5, [1, 2, 3])
    cut = Diagram(5, [[1, -1, 2, -2], [3, -3]])
    assert elem.coeff(cut) == Poly.const(Fraction(-1))
    for poly in elem.terms.values():
        assert all(c.denominator == 1 for c in poly.coeffs)


def test_central_element_conventions_and_cap():
    assert Z(0) == one(0)
    assert Z(1) == one(1)
    assert M(0) == one(0)
    assert M(1) == one(1)
    cap = LIMITS["murphy_family"]
    assert cap == 8
    with pytest.raises(LimitExceeded):
        Z(cap + 1)
    with pytest.raises(LimitExceeded):
        M(cap + 1)
    with pytest.raises(BadParams):
        Z(-1)


def test_central_element_displays():
    assert Z(2) == build(2, [(1, ([1], [-1]))])
    assert Z(3) == build(3, [
        (1, ([1, -1], [2, -2])),
        (1, ([1], [-1], [2, -2])),
        (-1, ([1], [-1, 2, -2])),
        (-1, ([1, 2, -2], [-1])),
        (X, ([1, -1, 2, -2],)),
    ])
    assert Z(4) == build(4, [
        (1, ([1, -1], [2, -2])),
        (1, ([1], [-1], [2, -2])),
        (1, ([1, -1], [2], [-2])),
        (-1, ([1], [-1, 2, -2])),
        (-1, ([2], [1, -1, -2])),
        (-1, ([-1], [1, 2, -2])),
        (-1, ([-2], [1, -1, 2])),
        (1, ([1, -2], [-1, 2])),
        (1, ([1, 2], [-1, -2])),
        (X, ([1, -1, 2, -2],)),
    ])


def test_family_member_displays():
    assert M(2) == build(2, [(1, ([1], [-1])), (-1, ([1, -1],))])
    assert M(3) == build(3, [
        (1, ([1, -1], [2, -2])),
        (-1, ([1], [-1, 2, -2])),
        (-1, ([1, 2, -2], [-1])),
        (X, ([1, -1, 2, -2],)),
    ])
    assert M(4) == build(4, [
        (1, ([1, -1], [2], [-2])),
        (-1, ([2], [1, -1, -2])),
        (-1, ([-2], [1, -1, 2])),
        (1, ([1, -2], [-1, 2])),
        (1, ([1, 2], [-1, -2])),
    ])


def test_half_rank_closed_form_matches_construction():
    for double_rank in (3, 5, 7):
        k = double_rank // 2
        cols = k + 1
        total = one(double_rank).scale(Poly.const(Fraction(k)))
        total = total + embed(Z(double_rank - 1), double_rank)
        for m in range(2, cols + 1):
            for rest in combinations(range(1, cols), m - 1):
                s = rest + (cols,)
                coeff = (X - Poly.const(Fraction(cols - m))) * Fraction(
                    -1 if m % 2 else 1
                )
                total = total + p_tilde_s(double_rank, s)
                total = total + diagram_element(b_s(double_rank, s)).scale(coeff)
        assert total == Z(double_rank)


def test_top_rank_element_is_central_for_generators():
    from partalg.diagrams import _generators

    z = Z(7)
    for g in _generators(7).values():
        ge = diagram_element(g)
        assert multiply(z, ge) == multiply(ge, z)


def test_family_commutes_at_top_verified_rank():
    family = murphy_family(6)
    assert [r for r, _ in family] == [Fraction(r, 2) for r in range(1, 7)]
    for (_, a), (_, b) in combinations(family, 2):
        assert multiply(a, b) == multiply(b, a)


def test_centrality_exhaustive_small_ranks():
    for double_rank in (2, 3, 4):
        z = Z(double_rank)
        for d in enumerate_diagrams(double_rank):
            g = diagram_element(d)
            assert multiply(z, g) == multiply(g, z)


def test_tensor_identity_integer_rank_witnesses():
    for n, slots in ((2, 2), (3, 2), (3, 1)):
        got = phi(specialize(Z(2 * slots), Fraction(n)), n)
        shift = Fraction(slots * n - n * (n - 1) // 2)
        want = kappa_tensor_matrix(n, slots) + EndoMatrix.identity(n, slots).scale(shift)
        assert got == want


def test_tensor_identity_half_rank_witnesses():
    for n, k in ((3, 1), (4, 1)):
        got = phi(specialize(Z(2 * k + 1), Fraction(n)), n)
        shift = Fraction((k + 1) * n - 1 - n * (n - 1) // 2)
        want = kappa_tensor_matrix(n, k, fixed_last=True)
        want = want + EndoMatrix.identity(n, k).scale(shift)
        assert got == want


def test_kappa_tensor_matrix_checks_cap_before_allocating():
    # 3**6 = 729 exceeds the side cap; the check must come before any
    # 729 x 729 matrix is built.
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded):
            kappa_tensor_matrix(3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def stacked_nullity(mats, values):
    """Dimension of the common kernel of the shifts m - t, read as the
    nullity of all of them stacked, each block of rows taken as
    den * (m - t) = num - t * den, of the same rank."""
    stacked = [
        [v - t * m.den if i == j else v for j, v in enumerate(row)]
        for m, t in zip(mats, values)
        for i, row in enumerate(m.num)
    ]
    return mats[0].side - matrix_rank(stacked)


def test_joint_nullity_reads_matrices_with_a_denominator():
    # eigenvalues 2 (vector (1, 1)) and 1 (vector (1, -1)), stored as
    # [[3, 1], [1, 3]] over 2
    m = EndoMatrix(2, 1, [[Fraction(3, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 2)]])
    assert m.den == 2
    assert murphy._joint_nullities([m], [(1,), (2,), (3,)]) == {(1,): 1, (2,): 1, (3,): 0}
    keys = [(1, 1), (1, 2), (2, 2), (2, 1)]
    assert murphy._joint_nullities([m, m], keys) == {(1, 1): 1, (1, 2): 0, (2, 2): 1, (2, 1): 0}


def test_joint_nullities_assume_no_diagonalizable_matrix():
    # a Jordan block: t = 1 is its only eigenvalue, with a kernel of
    # dimension 1, so a spectrum certificate must see 1 < side = 2
    jordan = EndoMatrix(2, 1, [[1, 1], [0, 1]])
    nullity = murphy._joint_nullities([jordan, jordan], [(1, 1), (1, 0), (0, 1)])
    assert nullity == {(1, 1): 1, (1, 0): 0, (0, 1): 0}
    assert sum(nullity.values()) < jordan.side
    for key, dim in nullity.items():
        assert dim == stacked_nullity([jordan, jordan], key)


def test_joint_nullities_stop_where_a_kernel_empties():
    # diag(1, 2, 2) then a matrix that splits the 2-eigenspace: t = 3 is
    # no eigenvalue of the first member, so its branch stops at once
    first = EndoMatrix(3, 1, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    second = EndoMatrix(3, 1, [[5, 0, 0], [0, 0, 1], [0, 1, 0]])
    keys = [(3, 5), (3, 1), (2, 1), (2, -1), (2, 5), (1, 5)]
    nullity = murphy._joint_nullities([first, second], keys)
    assert nullity == {(3, 5): 0, (3, 1): 0, (2, 1): 1, (2, -1): 1, (2, 5): 0, (1, 5): 1}
    assert nullity == {key: stacked_nullity([first, second], key) for key in keys}


def test_refined_nullities_match_stacked_ranks():
    for double_rank in range(2, 7):
        family = murphy_family(double_rank)
        n = 1
        while n ** (double_rank // 2) <= 27:
            mats = [phi(specialize(elem, n), n) for _, elem in family[1:]]
            spec = murphy._spectra_report(family, double_rank, n)
            for item in spec["tuples"]:
                assert item["measured"] == stacked_nullity(mats, item["values"]), (double_rank, n)
            n += 1


def test_first_family_member_eigenvalues_at_witness_seven():
    m = phi(specialize(M(2), Fraction(7)), 7)
    shifted_up = [
        [v + (1 if i == j else 0) for j, v in enumerate(row)]
        for i, row in enumerate(m.rows)
    ]
    assert matrix_rank(shifted_up) == 1
    top = [
        [v - (6 if i == j else 0) for j, v in enumerate(row)]
        for i, row in enumerate(m.rows)
    ]
    assert matrix_rank(top) == 6


def test_verify_report_small_witnesses():
    report = verify_murphy(4, [2, 3])
    assert report["ok"]
    assert report["commuting"]["pairs"] == 6
    assert report["commuting"]["failures"] == []
    assert report["centrality"]["failures"] == []
    # the generators at double ranks 2, 3 and 4
    assert report["centrality"]["checked"] == 1 + 2 + 5
    assert all(item["ok"] for item in report["tensor_identity"])
    for spec in report["spectra"]:
        n = spec["n"]
        assert all(item["values"][0] in (n - 1, -1) for item in spec["tuples"])
        assert spec["ok"]


def test_verify_report_spectra_at_small_witness():
    report = verify_murphy(4, [3])
    tuples = {
        tuple(item["values"]): item["measured"] for item in report["spectra"][0]["tuples"]
    }
    assert tuples == {
        (2, 0, 3): 1,
        (2, 0, 0): 2,
        (-1, 3, 3): 1,
        (-1, 3, 0): 2,
        (-1, 1, 2): 2,
        (-1, 1, -1): 1,
    }
    assert sum(tuples.values()) == 9
    assert all(item["ok"] for item in report["spectra"][0]["tuples"])


def test_verify_report_spectra_at_generic_witness():
    report = verify_murphy(4, [7])
    assert report["ok"]
    spec = report["spectra"][0]
    assert spec["side"] == 49
    tuples = {tuple(item["values"]): item["measured"] for item in spec["tuples"]}
    assert tuples == {
        (6, 0, 7): 1,
        (6, 0, 0): 6,
        (-1, 7, 7): 1,
        (-1, 7, 0): 6,
        (-1, 1, 6): 6,
        (-1, 1, 1): 14,
        (-1, 1, -1): 15,
    }


def test_verify_catches_a_shifted_first_member(monkeypatch):
    # an offset fitted to M(1)'s own spectrum would absorb this shift
    unshifted = murphy._family

    def shifted(zs):
        family = unshifted(zs)
        rank, m = family[1]
        assert rank == 1
        family[1] = (rank, m + one(m.double_rank))
        return family

    monkeypatch.setattr(murphy, "_family", shifted)
    assert not verify_murphy(4, [3])["ok"]


def test_each_central_element_is_built_once_per_call(monkeypatch):
    built = []
    unwrapped = murphy.Z

    def counted(double_rank):
        built.append(double_rank)
        return unwrapped(double_rank)

    monkeypatch.setattr(murphy, "Z", counted)
    verify_murphy(6, [])
    assert built == [2, 4, 6]
    built.clear()
    # the half rank 7/2 comes from Z(8), within the murphy_family cap
    murphy_family(7)
    assert built == [2, 4, 6, 8]


def test_spectra_sweep_over_ranks_and_witnesses():
    for double_rank in range(2, 7):
        family = murphy_family(double_rank)
        n = 1
        while n ** (double_rank // 2) <= 81:
            spec = murphy._spectra_report(family, double_rank, n)
            assert spec["ok"], (double_rank, n)
            assert spec["side"] == n ** (double_rank // 2)
            assert sum(item["measured"] for item in spec["tuples"]) == spec["side"]
            n += 1


def test_verify_report_top_rank_symbolic():
    report = verify_murphy(6, [2])
    assert report["ok"]
    assert report["commuting"]["pairs"] == 15
    assert report["commuting"]["failures"] == []
    assert report["centrality"]["failures"] == []


def test_verify_guards():
    with pytest.raises(BadParams):
        verify_murphy(1, [2])
    with pytest.raises(LimitExceeded):
        verify_murphy(7, [2])


def test_verify_rejects_witness_over_side_cap_before_any_work(monkeypatch):
    # 10**2 labelings exceed the side cap; the witness used to be skipped
    # while the report still read ok with no spectra.
    def no_work(double_rank):
        raise AssertionError("central elements built before the witness check")

    monkeypatch.setattr(murphy, "_ladder", no_work)
    with pytest.raises(LimitExceeded):
        verify_murphy(4, [10])
    with pytest.raises(LimitExceeded):
        verify_murphy(6, [2, 5])
