"""Tensor-power actions: matrices, kernels, conditional expectations."""

import random
from fractions import Fraction
from itertools import chain, permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partalg import tensor
from partalg.algebra import (
    coarsenings,
    diagram_element,
    element,
    embed,
    eps_down,
    eps_one,
    eps_up,
    multiply,
    orbit_element,
    specialize,
    trace,
)
from partalg.diagrams import (
    Diagram,
    _generators,
    enumerate_diagrams,
    generator,
    identity_diagram,
)
from partalg.errors import BadParams, LimitExceeded, PartalgError
from partalg.linalg import rank as matrix_rank
from partalg.tensor import (
    EndoMatrix,
    bimodule_dimension_check,
    commutant_dims,
    endo_eps,
    homomorphism_check,
    phi,
    phi_orbit,
    restrict_last,
    sym_tensor_matrix,
)

P1 = Diagram(2, [[1], [-1]])


def make_diagram(double_rank, blocks):
    return Diagram(double_rank, blocks)


def spec_elem(d, n):
    return specialize(diagram_element(d), Fraction(n))


def flat(m):
    """The entries of an EndoMatrix, row after row."""
    return [v for row in m.rows for v in row]


def test_phi_examples():
    assert phi(P1, 2).rows == [[1, 1], [1, 1]]
    for n in (1, 2):
        for dr in (2, 4):
            ident = Diagram(dr, [[i, -i] for i in range(1, dr // 2 + 1)])
            assert phi(ident, n) == EndoMatrix.identity(n, dr // 2)
    cupcap = generator("e", 1, 4)
    m = phi(cupcap, 2)
    ones = [(i, j) for i in range(4) for j in range(4) if m.rows[i][j]]
    assert ones == [(0, 0), (0, 3), (3, 0), (3, 3)]


def test_phi_half_rank_pins_last_slot():
    assert phi(Diagram(3, [[1, -1], [2, -2]]), 3) == EndoMatrix.identity(3, 1)
    full = phi(Diagram(3, [[1, -1, 2, -2]]), 3)
    assert full.rows == [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    free = phi(Diagram(3, [[1], [-1], [2, -2]]), 3)
    assert all(v == 1 for row in free.rows for v in row)
    top_tied = phi(Diagram(3, [[1, 2, -2], [-1]]), 3)
    assert top_tied.rows == [[0, 0, 0], [0, 0, 0], [1, 1, 1]]


def test_phi_element_and_guards():
    a = spec_elem(P1, 2) - spec_elem(Diagram(2, [[1, -1]]), 2)
    assert phi(a, 2).rows == [[0, 1], [1, 0]]
    with pytest.raises(BadParams):
        phi(diagram_element(P1), 2)
    with pytest.raises(BadParams):
        phi(spec_elem(P1, 3), 2)
    with pytest.raises(BadParams):
        phi(P1, 0)
    with pytest.raises(LimitExceeded):
        phi(Diagram(14, [[i, -i] for i in range(1, 8)]), 2)


def test_checks_run_before_the_support_cache():
    d = Diagram(4, [[1, 2], [-1], [-2]])
    phi(d, 3)
    with pytest.raises(LimitExceeded):
        phi(d, 82)
    with pytest.raises(BadParams):
        phi(spec_elem(d, 2), 3)
    phi_orbit(d, 1)
    with pytest.raises(BadParams):
        phi_orbit(d, True)  # True == 1, so only the check tells them apart


def test_cached_supports_are_not_shared_with_results():
    d = Diagram(4, [[1, -1], [2], [-2]])
    labelings = vertex_labelings(4, 2)
    phi(d, 2).rows[0][0] = 7
    phi_orbit(d, 2).rows[0][1] = 7
    action, orbit = block_label_oracle(d, labelings)
    assert flat(phi(d, 2)) == action
    assert flat(phi_orbit(d, 2)) == orbit


def test_support_cache_is_bounded():
    assert tensor._support.cache_info().maxsize is not None


def vertex_labelings(double_rank, n):
    """Every pair of top and bottom labelings, row-major, as a map from
    vertices to labels; vertices of the pinned column carry the last
    basis index."""
    slots = double_rank // 2
    pinned = slots + 1 if double_rank % 2 else None
    labelings = list(product(range(n), repeat=slots))
    out = []
    for top in labelings:
        for bot in labelings:
            label = {m + 1: top[m] for m in range(slots)}
            label.update({-(m + 1): bot[m] for m in range(slots)})
            if pinned is not None:
                label[pinned] = label[-pinned] = n - 1
            out.append(label)
    return out


def block_label_oracle(d, labelings):
    """Flat entries of phi(d) and phi_orbit(d) from the definition: 1 when
    every block carries one label, and for the orbit element when
    distinct blocks also carry distinct labels."""
    action, orbit = [], []
    blocks = d.blocks
    for label in labelings:
        per_block = [{label[v] for v in block} for block in blocks]
        constant = all(len(labels) == 1 for labels in per_block)
        action.append(int(constant))
        orbit.append(int(constant and len(set().union(*per_block)) == len(per_block)))
    return action, orbit


def test_phi_and_phi_orbit_match_block_label_oracle():
    for dr in range(8):
        diagrams = list(enumerate_diagrams(dr))
        for n in (1, 2, 3):
            labelings = vertex_labelings(dr, n)
            for d in diagrams:
                action, orbit = block_label_oracle(d, labelings)
                assert flat(phi(d, n)) == action, (d, n)
                assert flat(phi_orbit(d, n)) == orbit, (d, n)


def test_phi_of_element_is_sum_of_diagram_actions():
    rng = random.Random(3)
    for dr in range(6):
        diagrams = list(enumerate_diagrams(dr))
        for n in (1, 2, 3):
            for _ in range(5):
                picks = rng.sample(diagrams, min(len(diagrams), rng.randint(1, 6)))
                coeffs = {
                    d: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for d in picks
                }
                expected = EndoMatrix.zero(n, dr // 2)
                for d, c in coeffs.items():
                    expected = expected + phi(d, n).scale(c)
                assert phi(element(dr, coeffs, Fraction(n)), n) == expected


def test_phi_orbit_examples():
    assert phi_orbit(P1, 2).rows == [[0, 1], [1, 0]]
    assert phi_orbit(P1, 1).is_zero()
    for d in enumerate_diagrams(4):
        total = EndoMatrix.zero(2, 2)
        for coarser in coarsenings(d):
            total = total + phi_orbit(coarser, 2)
        assert total == phi(d, 2)


def test_phi_orbit_matches_orbit_expansion():
    for n in (2, 3):
        for dr in (2, 3, 4):
            for d in enumerate_diagrams(dr):
                expanded = specialize(orbit_element(d), Fraction(n))
                assert phi_orbit(d, n) == phi(expanded, n)


def test_homomorphism_exhaustive():
    # pairs is (1 + generators) * Bell(dr): 6 * 15 at dr 4, 2 * 2 at dr 2
    for n, dr, pairs in ((2, 4, 90), (3, 4, 90), (2, 2, 4), (3, 2, 4)):
        report = homomorphism_check(n, dr)
        assert report["pairs"] == pairs
        assert report["failures"] == []


def _pair_failures(n, dr):
    """The all-pairs oracle: every pair of basis diagrams whose product
    acts otherwise than the product of their actions."""
    basis = list(enumerate_diagrams(dr))
    mode = Fraction(n)
    return [
        (d1, d2)
        for d1 in basis
        for d2 in basis
        if phi(multiply(diagram_element(d1, 1, mode), diagram_element(d2, 1, mode)), n)
        != phi(d1, n) @ phi(d2, n)
    ]


@pytest.mark.parametrize("n, dr", [(2, 4), (3, 4), (2, 5)])
def test_homomorphism_on_generators_agrees_with_all_pairs(n, dr):
    assert _pair_failures(n, dr) == []
    assert homomorphism_check(n, dr)["failures"] == []


def test_homomorphism_check_sees_a_broken_action_of_any_other_diagram(monkeypatch):
    # drop one position from the support of one diagram that is neither
    # the identity nor a generator: every such victim is caught through
    # the generators alone
    gens = {identity_diagram(4), *_generators(4).values()}
    victims = [d for d in enumerate_diagrams(4) if d not in gens]
    assert len(victims) == 15 - 6
    original = tensor._support
    for victim in victims:

        def broken(d, n, distinct, victim=victim):
            positions = original(d, n, distinct)
            return positions[1:] if d is victim else positions

        monkeypatch.setattr(tensor, "_support", broken)
        failures = homomorphism_check(2, 4)["failures"]
        assert failures, victim
        assert _pair_failures(2, 4)
    monkeypatch.undo()
    assert homomorphism_check(2, 4)["failures"] == []


def test_homomorphism_sampled_and_projection_rule():
    # the generator proof at double rank 6, and seeded sampled pairs
    # there checked directly
    assert homomorphism_check(2, 6) == {"pairs": 10 * 203, "failures": []}
    rng = random.Random(11)
    basis = list(enumerate_diagrams(6))
    mode = Fraction(2)
    for _ in range(40):
        d1, d2 = rng.choice(basis), rng.choice(basis)
        product_element = multiply(diagram_element(d1, 1, mode), diagram_element(d2, 1, mode))
        assert phi(product_element, 2) == phi(d1, 2) @ phi(d2, 2)
    m = phi(P1, 3)
    assert m @ m == m.scale(3)


def test_commutant_dims_integer_ranks():
    image_rank, kernel_dim, witnesses = commutant_dims(2, 4)
    assert (image_rank, kernel_dim) == (8, 7)
    assert len(witnesses) == 7
    assert all(len(d.blocks) > 2 for d in witnesses)
    assert commutant_dims(3, 4)[:2] == (14, 1)
    assert commutant_dims(4, 4)[:2] == (15, 0)
    assert commutant_dims(5, 4)[:2] == (15, 0)


def test_commutant_dims_half_rank_matches_path_counts():
    image_rank, kernel_dim, witnesses = commutant_dims(2, 3)
    report = bimodule_dimension_check(2, 3)
    assert image_rank == report["squared_paths"] == 4
    assert kernel_dim == 1
    assert len(witnesses) == 1


def bell(m):
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling2(m, j):
    """Stirling number of the second kind, by its recurrence."""
    table = [[1] + [0] * j]
    for i in range(1, m + 1):
        prev = table[-1]
        table.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, j + 1)])
    return table[m][j]


# the sizes the elimination once admitted: n**(dr // 2) <= 81 and
# Bell(dr) * side**2 <= 1,059,840, with n <= 81 at double rank 0 and 1
ELIMINATED_SIZES = {
    dr: [
        n
        for n in range(1, 82)
        if n ** (dr // 2) <= 81 and bell(dr) * n ** (2 * (dr // 2)) <= 1_059_840
    ]
    for dr in range(9)
}


@pytest.mark.parametrize("dr", ELIMINATED_SIZES)
def test_counted_commutant_dims_match_elimination(dr):
    basis = list(enumerate_diagrams(dr))
    for n in ELIMINATED_SIZES[dr]:
        image_rank = matrix_rank([flat(phi(d, n)) for d in basis])
        counted, kernel_dim, witnesses = commutant_dims(n, dr)
        assert (counted, kernel_dim) == (image_rank, len(basis) - image_rank), (n, dr)
        assert witnesses == [d for d in basis if len(d.blocks) > n]


def test_image_rank_counts_partitions_with_at_most_n_blocks():
    # a half-rank diagram is a set partition of dr points once its
    # pinned column is merged, so both kinds count partitions of dr
    for dr in range(9):
        for n in (1, 2, 3, 4, 9, 81):
            if n ** (dr // 2) <= 81:
                expected = sum(stirling2(dr, j) for j in range(n + 1))
                assert commutant_dims(n, dr)[0] == expected, (n, dr)


def test_commutant_dims_past_the_old_elimination_cap():
    assert commutant_dims(3, 8)[:2] == (1094, 3046)
    assert commutant_dims(4, 7)[:2] == (715, 162)
    assert commutant_dims(3, 8)[0] == bimodule_dimension_check(3, 8)["squared_paths"]


def test_overlapping_orbit_supports_are_refused(monkeypatch):
    support = tensor._support

    def repeated(d, n, distinct=False):
        positions = support(d, n, distinct)
        return positions + positions[:1]

    monkeypatch.setattr(tensor, "_support", repeated)
    with pytest.raises(PartalgError):
        commutant_dims(2, 4)


def test_low_block_orbit_matrices_independent():
    for n in (2, 3):
        for dr in (2, 3, 4):
            keep = [d for d in enumerate_diagrams(dr) if len(d.blocks) <= n]
            vectors = [flat(phi_orbit(d, n)) for d in keep]
            assert matrix_rank(vectors) == len(keep)


def test_symmetric_group_equivariance():
    for n in (2, 3):
        actions = [
            sym_tensor_matrix(list(images), n, 2)
            for images in permutations(range(1, n + 1))
        ]
        for d in enumerate_diagrams(4):
            m = phi(d, n)
            for p in actions:
                assert m @ p == p @ m


def test_trace_bridge_integer_rank():
    for d in enumerate_diagrams(4):
        assert phi(d, 3).trace() == trace(diagram_element(d))(Fraction(3))


def test_trace_bridge_half_rank():
    for d in enumerate_diagrams(3):
        lhs = phi(d, 3).trace()
        assert lhs == Fraction(1, 3) * trace(diagram_element(d))(Fraction(3))


def test_trace_is_iterated_contraction():
    for d in enumerate_diagrams(4):
        m = phi(d, 2)
        contracted = endo_eps(endo_eps(m, "one"), "one")
        assert contracted.rows == [[m.trace()]]


def test_eps_down_bridge_restricts():
    # murphy.Z builds each half rank from this bridge at one rank higher
    for n, dr in product((2, 3), (4, 6)):
        for d in enumerate_diagrams(dr):
            lowered = specialize(eps_down(diagram_element(d)), Fraction(n))
            lhs = phi(lowered, n)
            rhs = restrict_last(endo_eps(phi(d, n), "down"))
            assert lhs == rhs


def test_eps_up_bridge():
    for n in (2, 3):
        for dr in (1, 3):
            for d in enumerate_diagrams(dr):
                raised = embed(spec_elem(d, n), dr + 1)
                lhs = phi(specialize(eps_up(diagram_element(d)), Fraction(n)), n)
                assert lhs == endo_eps(phi(raised, n), "up")


def test_eps_one_bridge():
    for n in (2, 3):
        for d in enumerate_diagrams(4):
            lowered = specialize(eps_one(diagram_element(d)), Fraction(n))
            assert phi(lowered, n) == endo_eps(phi(d, n), "one")


def test_bimodule_dimension_reports():
    r = bimodule_dimension_check(3, 4)
    assert r["weighted_paths"] == r["tensor_dim"] == 9
    assert r["squared_paths"] == r["image_rank"]
    r = bimodule_dimension_check(2, 4)
    assert r["weighted_paths"] == 4
    assert r["squared_paths"] == r["image_rank"] == 8
    r = bimodule_dimension_check(5, 2)
    assert r["weighted_paths"] == r["tensor_dim"] == 5
    assert r["squared_paths"] == r["image_rank"] == 2
    r = bimodule_dimension_check(2, 3)
    assert r["weighted_paths"] == r["tensor_dim"] == 2
    assert r["squared_paths"] == r["image_rank"] == 4


def test_endomatrix_guards():
    with pytest.raises(BadParams):
        EndoMatrix(2, 2, [[1, 0], [0, 1]])
    with pytest.raises(BadParams):
        endo_eps(EndoMatrix.identity(2, 0), "one")
    with pytest.raises(BadParams):
        endo_eps(EndoMatrix.identity(2, 1), "sideways")
    with pytest.raises(BadParams):
        restrict_last(EndoMatrix.identity(3, 1), 4)
    with pytest.raises(BadParams):
        sym_tensor_matrix([1, 1], 2, 1)
    with pytest.raises(LimitExceeded):
        sym_tensor_matrix([2, 1], 2, 7)


def test_endomatrix_entries_are_ints_or_fractions():
    for bad in ("x", None, 1.5, 1.0):
        with pytest.raises(BadParams):
            EndoMatrix(1, 1, [[bad]])
    with pytest.raises(BadParams):
        EndoMatrix(2, 1, [[1, 0], None])
    for n, slots in (("a", 1), (None, 1), (0, 1), (2, -1), (2, 1.5)):
        with pytest.raises(BadParams):
            EndoMatrix(n, slots, [[1]])
    m = EndoMatrix(2, 1, [[1, Fraction(1, 2)], [0, 3]])
    assert m.rows == [[1, Fraction(1, 2)], [0, 3]]
    assert type(m.rows[1][1]) is int
    assert m.trace() == 4 and type(m.trace()) is Fraction
    assert type(phi(P1, 2).trace()) is Fraction
    assert type(EndoMatrix.zero(2, 1).trace()) is Fraction


def test_commutant_dims_rank_four_at_two():
    # Bell(8) = 4140 diagrams; the 1 + 127 with at most two blocks act
    # independently and the orbit elements of the other 4012 span the kernel.
    image_rank, kernel_dim, witnesses = commutant_dims(2, 8)
    assert (image_rank, kernel_dim) == (128, 4012)
    assert len(witnesses) == kernel_dim
    report = bimodule_dimension_check(2, 8)
    assert report["squared_paths"] == report["image_rank"] == image_rank
    assert report["kernel_dim"] == kernel_dim


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.integers(min_value=-3, max_value=3), min_size=2, max_size=2
    ),
    picks=st.lists(st.integers(min_value=0, max_value=14), min_size=2, max_size=2),
)
def test_phi_is_linear(coeffs, picks):
    basis = list(enumerate_diagrams(4))
    mode = Fraction(2)
    a = element(4, {basis[picks[0]]: coeffs[0]}, mode)
    b = element(4, {basis[picks[1]]: coeffs[1]}, mode)
    assert phi(a + b, 2) == phi(a, 2) + phi(b, 2)
    assert phi(multiply(a, b), 2) == phi(a, 2) @ phi(b, 2)


def fraction_element(rng, double_rank, n):
    """Seeded element specialized at n, coefficients with denominators 1..6."""
    diagrams = list(enumerate_diagrams(double_rank))
    picks = rng.sample(diagrams, min(len(diagrams), rng.randint(1, 4)))
    coeffs = {d: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 6)) for d in picks}
    return element(double_rank, coeffs, Fraction(n))


def test_phi_is_multiplicative_and_linear_with_fraction_coefficients():
    rng = random.Random(20040113)
    for dr in range(2, 6):
        for n in (1, 2, 3):
            for _ in range(4):
                a, b = fraction_element(rng, dr, n), fraction_element(rng, dr, n)
                r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                assert phi(multiply(a, b), n) == phi(a, n) @ phi(b, n)
                assert phi(a.scale(r) + b, n) == phi(a, n).scale(r) + phi(b, n)


def fraction_product(x, y):
    """Matrix product over Fractions, entry by entry."""
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*y)] for row in x]


def test_rows_of_arithmetic_match_a_fraction_oracle():
    rng = random.Random(20040114)
    for dr in range(2, 6):
        for n in (1, 2, 3):
            a = phi(fraction_element(rng, dr, n), n)
            b = phi(fraction_element(rng, dr, n), n)
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            x, y = a.rows, b.rows
            results = {
                "@": ((a @ b).rows, fraction_product(x, y)),
                "+": ((a + b).rows, [[u + v for u, v in zip(p, q)] for p, q in zip(x, y)]),
                "-": ((a - b).rows, [[u - v for u, v in zip(p, q)] for p, q in zip(x, y)]),
                "scale": (a.scale(r).rows, [[r * u for u in p] for p in x]),
            }
            for op, (got, want) in results.items():
                assert got == want, (op, dr, n)
                # ints where integral, reduced Fractions otherwise
                assert all(
                    type(v) is int or (type(v) is Fraction and v.denominator > 1)
                    for v in chain.from_iterable(got)
                ), (op, dr, n)
            assert a.trace() == sum((x[i][i] for i in range(a.side)), Fraction(0))


def test_endomatrix_is_kept_in_lowest_terms():
    rng = random.Random(20040115)
    m = phi(fraction_element(rng, 4, 2), 2)
    for built in (m, m @ m, m.scale(Fraction(2, 3)), m + m.scale(Fraction(1, 5))):
        assert type(built.den) is int and built.den > 0
        assert all(type(v) is int for v in chain.from_iterable(built.num))
        assert gcd(built.den, *chain.from_iterable(built.num)) == 1
    back = m.scale(Fraction(1, 2)).scale(2)
    assert back == m and hash(back) == hash(m)
    two, also_two = EndoMatrix(1, 1, [[Fraction(2)]]), EndoMatrix(1, 1, [[2]])
    assert two == also_two and hash(two) == hash(also_two)
    assert two.den == 1 and type(two.rows[0][0]) is int
    assert (m - m).den == 1 and (m - m).is_zero()
