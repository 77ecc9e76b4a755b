"""Symmetric group layer: permutations, kappa, Young symmetrizers,
matrix units."""

from fractions import Fraction
from itertools import permutations

import pytest

from partalg import symgroup
from partalg.algebra import diagram_element, multiply, one, zero
from partalg.combinatorics import partitions_of, syt_dimension
from partalg.diagrams import generator, identity_diagram, make_diagram
from partalg.errors import SizeMismatch
from partalg.symgroup import (
    Permutation,
    column_reading_tableau,
    kappa,
    reading_word_permutation,
    row_reading_tableau,
    standard_tableaux_of,
    sym_matrix_units,
    transposition,
    young_elements,
)
from conftest import standard_tableaux, unit_system_obeys_relations


def test_permutation_basics():
    p = Permutation([2, 3, 1])
    assert p(1) == 2 and p(3) == 1
    assert p.inverse().images == (3, 1, 2)
    assert (p * p.inverse()).images == (1, 2, 3)
    assert p.sign() == 1 and transposition(1, 3, 3).sign() == -1
    assert p.cycles() == [(1, 2, 3)]
    assert Permutation.from_cycles(4, [(1, 3), (2, 4)]).images == (3, 4, 1, 2)
    with pytest.raises(SizeMismatch):
        Permutation([1, 1, 2])


def test_permutation_sign_multiplicative():
    group = [Permutation(p) for p in permutations(range(1, 5))]
    for p in group:
        inversions = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if p.images[i] > p.images[j]
        )
        assert p.sign() == (-1) ** inversions
    for p in group[:8]:
        for q in group[::5]:
            assert (p * q).sign() == p.sign() * q.sign()


def test_permutation_to_element_is_homomorphism():
    s1 = transposition(1, 2, 2)
    assert s1.to_element() == diagram_element(generator("s", 1, 4))
    group = [Permutation(p) for p in permutations(range(1, 5))]
    for p in group[::3]:
        for q in group[::4]:
            lhs = (p * q).to_element()
            rhs = multiply(p.to_element(), q.to_element())
            assert lhs == rhs


def test_kappa_small():
    assert kappa(2) == transposition(1, 2, 2).to_element()
    k3 = kappa(3)
    assert len(k3.terms) == 3
    assert all(coeff.const_value() == 1 for coeff in k3.terms.values())


def test_kappa_central():
    for n in range(2, 6):
        kn = kappa(n)
        for i in range(1, n):
            g = transposition(i, i + 1, n).to_element()
            assert multiply(kn, g) == multiply(g, kn)


def test_kappa_vanishes_on_two_dim_module():
    def matmul(a, b):
        return [
            [sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
            for i in range(2)
        ]

    a = [[-1, 1], [0, 1]]
    b = [[1, 0], [1, -1]]
    eye = [[1, 0], [0, 1]]
    assert matmul(a, a) == eye and matmul(b, b) == eye
    assert matmul(matmul(a, b), a) == matmul(matmul(b, a), b)
    aba = matmul(matmul(a, b), a)
    total = [[a[i][j] + b[i][j] + aba[i][j] for j in range(2)] for i in range(2)]
    assert total == [[0, 0], [0, 0]]


def test_reading_tableaux():
    assert row_reading_tableau((2, 1)) == ((1, 2), (3,))
    assert column_reading_tableau((2, 1)) == ((1, 3), (2,))
    shape = (5, 5, 3, 3, 1, 1)
    assert row_reading_tableau(shape)[1] == (6, 7, 8, 9, 10)
    assert column_reading_tableau(shape)[0] == (1, 7, 11, 15, 17)


def test_standard_tableaux_against_oracle():
    for size in range(1, 6):
        for shape in partitions_of(size):
            mine = standard_tableaux_of(tuple(shape))
            oracle = {tuple(tuple(r) for r in t) for t in standard_tableaux(shape)}
            assert set(mine) == oracle
            assert len(mine) == syt_dimension(shape)


def test_young_elements_row_shape():
    row_part, signed_part, tau, p = young_elements((2,), 2)
    s1 = transposition(1, 2, 2).to_element()
    assert row_part == one(4) + s1
    assert signed_part == one(4)
    assert tau.images == (1, 2)
    assert p == one(4) + s1


def test_young_elements_column_shape():
    row_part, signed_part, tau, p = young_elements((1, 1), 2)
    s1 = transposition(1, 2, 2).to_element()
    assert row_part == one(4)
    assert signed_part == one(4) - s1
    assert tau.images == (1, 2)
    assert p == one(4) - s1


def test_young_tau_large_shape():
    tau = reading_word_permutation((5, 5, 3, 3, 1, 1), 18)
    assert tau.cycles() == [
        (2, 7, 8, 12, 9, 16, 14, 4, 15, 10, 18, 6),
        (3, 11),
        (5, 17),
    ]


def test_young_elements_errors():
    with pytest.raises(SizeMismatch):
        young_elements((2, 1), 4)
    with pytest.raises(SizeMismatch):
        reading_word_permutation((1, 2), 3)


def test_young_symmetrizer_quasi_idempotent():
    for size in range(1, 5):
        for shape in partitions_of(size):
            _, _, _, p = young_elements(tuple(shape), size)
            square = multiply(p, p)
            d = next(iter(p.terms))
            ratio = square.coeff(d).const_value() / p.coeff(d).const_value()
            assert ratio != 0
            assert square == p.scale(ratio)
            expect = Fraction(1)
            for j in range(2, size + 1):
                expect *= j
            assert ratio == expect / syt_dimension(shape)


def test_units_size_one_and_two():
    system1 = sym_matrix_units(1)
    assert system1.index == [(((1,)), ((1,),), ((1,),))] or len(system1.index) == 1
    only = system1.units[system1.index[0]]
    assert only == one(2)

    system2 = sym_matrix_units(2)
    s1 = transposition(1, 2, 2).to_element()
    half = Fraction(1, 2)
    sym = (one(4) + s1).scale(half)
    alt = (one(4) - s1).scale(half)
    tab_row = ((1, 2),)
    tab_col = ((1,), (2,))
    assert system2.units[((2,), tab_row, tab_row)] == sym
    assert system2.units[((1, 1), tab_col, tab_col)] == alt
    assert multiply(sym, alt).is_zero()
    unit_system_obeys_relations(system2)


def test_units_size_three():
    system = sym_matrix_units(3)
    assert len(system.index) == 6
    diag_by_shape = {}
    for shape, p, q in system.diagonal_index():
        diag_by_shape[shape] = diag_by_shape.get(shape, 0) + 1
    assert diag_by_shape == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    unit_system_obeys_relations(system)


def test_units_size_four():
    system = sym_matrix_units(4)
    assert len(system.index) == 24
    for shape in ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)):
        count = sum(1 for key in system.diagonal_index() if key[0] == shape)
        assert count == syt_dimension(shape)
    unit_system_obeys_relations(system)


def test_units_specialized_mode():
    system = sym_matrix_units(3, Fraction(7))
    assert system.mode == Fraction(7)
    unit_system_obeys_relations(system)


def _content(tableau, entry: int) -> int:
    """Column minus row of the entry's box."""
    for i, row in enumerate(tableau):
        if entry in row:
            return row.index(entry) - i
    raise ValueError(entry)


@pytest.mark.parametrize("mode", [None, Fraction(3)])
def test_diagonal_units_are_jucys_murphy_eigenvectors(mode):
    """X_i E_T = E_T X_i = c_T(i) E_T for every standard tableau T and
    every i, with X_i the sum of the transpositions (j i), j < i."""
    for size in range(1, 5):
        system = sym_matrix_units(size, mode)
        x = []
        for i in range(1, size + 1):
            x_i = zero(2 * size, mode)
            for j in range(1, i):
                x_i = x_i + transposition(j, i, size).to_element(mode)
            x.append(x_i)
        for shape, t, _ in system.diagonal_index():
            unit = system.units[(shape, t, t)]
            assert not unit.is_zero()
            for i, x_i in enumerate(x, start=1):
                expect = unit.scale(_content(t, i))
                assert multiply(x_i, unit) == expect
                assert multiply(unit, x_i) == expect


@pytest.mark.parametrize("mode", [None, Fraction(3)])
def test_units_size_five_chain_through_the_first_tableau(mode):
    """E_{base,T} E_{T,base} = E_base and E_{T,base} E_{base,T} = E_T
    for every tableau T of every shape of size 5, base the first
    tableau of its shape."""
    system = sym_matrix_units(5, mode)
    for shape in map(tuple, partitions_of(5)):
        base, *rest = standard_tableaux_of(shape)
        e_base = system.unit(shape, base, base)
        for t in rest:
            from_base = system.unit(shape, base, t)
            to_base = system.unit(shape, t, base)
            assert multiply(from_base, to_base) == e_base
            assert multiply(to_base, from_base) == system.unit(shape, t, t)


def test_units_size_four_multiply_count(monkeypatch):
    """Every unit is read from the seminormal matrices by Fourier
    inversion, so building them takes no algebra product."""
    calls = []

    def counting(a, b):
        calls.append(None)
        return multiply(a, b)

    monkeypatch.setattr(symgroup, "multiply", counting)
    symgroup._sym_matrix_units.__wrapped__(4, None)
    assert len(calls) == 0


def test_units_cache_is_bounded():
    # a size-6 system holds about 13 MB, and each mode is another key
    assert symgroup._sym_matrix_units.cache_info().maxsize is not None


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col) if x) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("size", range(2, 7))
def test_seminormal_generators_obey_the_coxeter_relations(size):
    """s_i^2 = 1, s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and s_i s_j =
    s_j s_i for |i - j| > 1, on every shape of the size."""
    for shape in map(tuple, partitions_of(size)):
        s = {i: symgroup._seminormal(shape, i) for i in range(1, size)}
        eye = _matmul(s[1], s[1])
        assert eye == [[int(a == b) for b in range(len(eye))] for a in range(len(eye))]
        for i in range(1, size):
            assert _matmul(s[i], s[i]) == eye
            for j in range(i + 1, size):
                if j == i + 1:
                    lhs = _matmul(_matmul(s[i], s[j]), s[i])
                    rhs = _matmul(_matmul(s[j], s[i]), s[j])
                else:
                    lhs, rhs = _matmul(s[i], s[j]), _matmul(s[j], s[i])
                assert lhs == rhs


def _chained_units(size, mode):
    """Matrix units of S_size by products, independent of the seminormal
    matrices.  With m the largest entry of the tableau T, T' the tableau
    T without m, and X_m the sum of (j m) over j < m,

        E_T = E_T' * prod (X_m - c) / (c_T(m) - c),

    c running over the contents of the addable boxes of the shape of T'
    other than c_T(m).  A breadth-first walk from the first tableau of
    each shape reaches each T from one S by swapping i and i + 1; with
    s_i = (i i+1) and r = c_T(i+1) - c_T(i),

        E_{S,T} = (s_i E_T - E_T / r) * r^2 / (r^2 - 1),
        E_{T,S} = E_T s_i - E_T / r.

    Units from and to the first tableau are chained along the walk, and
    the rest are their products."""
    jm = [
        sum(
            (transposition(j, m, size).to_element(mode) for j in range(1, m)),
            zero(2 * size, mode),
        )
        for m in range(1, size + 1)
    ]
    swaps = [transposition(i, i + 1, size).to_element(mode) for i in range(1, size)]
    identity = one(2 * size, mode)
    grown = {(): identity}

    def diagonal_unit(tableau):
        if tableau in grown:
            return grown[tableau]
        m = sum(map(len, tableau))
        row = next(i for i, r in enumerate(tableau) if r[-1] == m)
        prefix = tuple(r[:-1] if i == row else r for i, r in enumerate(tableau) if r != (m,))
        lengths = [len(r) for r in prefix] + [0]
        addable = [n - i for i, n in enumerate(lengths) if i == 0 or lengths[i - 1] > n]
        target = len(tableau[row]) - 1 - row
        unit, ratio = diagonal_unit(prefix), 1
        for c in addable:
            if c != target:
                unit = multiply(unit, jm[m - 1] - identity.scale(c))
                ratio *= target - c
        grown[tableau] = unit.scale(Fraction(1, ratio))
        return grown[tableau]

    units = {}
    for shape in map(tuple, partitions_of(size)):
        base, *rest = standard_tableaux_of(shape)
        units[(shape, base, base)] = diagonal_unit(base)
        walk, unseen = [base], set(rest)
        from_base, to_base = {}, {}
        for s in walk:
            for i in range(1, size):
                t = tuple(tuple({i: i + 1, i + 1: i}.get(v, v) for v in r) for r in s)
                if t not in unseen:
                    continue
                unseen.remove(t)
                walk.append(t)
                diag = units[(shape, t, t)] = diagonal_unit(t)
                r = _content(t, i + 1) - _content(t, i)
                tail = diag.scale(Fraction(1, r))
                step_from = (multiply(swaps[i - 1], diag) - tail).scale(Fraction(r * r, r * r - 1))
                step_to = multiply(diag, swaps[i - 1]) - tail
                from_base[t] = step_from if s == base else multiply(from_base[s], step_from)
                to_base[t] = step_to if s == base else multiply(step_to, to_base[s])
        for p in rest:
            units[(shape, p, base)] = to_base[p]
            units[(shape, base, p)] = from_base[p]
            for q in rest:
                if p != q:
                    units[(shape, p, q)] = multiply(to_base[p], from_base[q])
    return units


@pytest.mark.parametrize(
    "size, mode", [(s, m) for s in range(1, 5) for m in (None, Fraction(3))] + [(5, None)]
)
def test_units_match_the_chained_products(size, mode):
    assert sym_matrix_units(size, mode).units == _chained_units(size, mode)


def test_units_size_six():
    """At the cap the units sum to one, and the identity coefficient of
    E_{P,Q} is f/6! when P = Q and 0 otherwise, f the number of
    tableaux of the shape."""
    system = sym_matrix_units(6, 3)
    assert system.identity_sum() == one(12, 3)
    for shape, p, q in system.index:
        expect = Fraction(syt_dimension(shape), 720) if p == q else 0
        assert system.units[(shape, p, q)].coeff(identity_diagram(12)) == expect
