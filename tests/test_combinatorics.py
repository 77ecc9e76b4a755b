from fractions import Fraction
from math import comb, factorial

import pytest

from conftest import brute_partitions, standard_tableaux
from partalg.combinatorics import (
    attach_first_row,
    boxes_added,
    boxes_removed,
    build_bratteli,
    counting,
    hooks_and_contents,
    partitions_of,
    strip_first_row,
    syt_dimension,
)
from partalg.errors import BadParams, VertexNotFound


def test_counting_examples():
    assert counting("bell", 4) == 15
    assert counting("bell", 4) == len(list(brute_partitions(range(4))))
    assert counting("catalan", 4) == comb(8, 4) // 5 == 14
    assert counting("odd_double_factorial", 3) == 15
    assert counting("odd_double_factorial", 0) == 1
    assert counting("factorial", 5) == 120
    with pytest.raises(BadParams):
        counting("bell", -1)
    with pytest.raises(BadParams):
        counting("fibonacci", 3)


def test_bell_against_insertion_oracle():
    for m in range(7):
        assert counting("bell", m) == len(list(brute_partitions(range(m))))


def test_bell_generating_function():
    # coefficients of exp(exp(z) - 1) through degree 8, exactly
    deg = 8
    inner = [Fraction(0)] + [Fraction(1, factorial(m)) for m in range(1, deg + 1)]
    series = [Fraction(0)] * (deg + 1)
    series[0] = Fraction(1)
    power = series[:]
    for m in range(1, deg + 1):
        nxt = [Fraction(0)] * (deg + 1)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(inner):
                    if b and i + j <= deg:
                        nxt[i + j] += a * b
        power = nxt
        for i, a in enumerate(power):
            series[i] += a / factorial(m)
    for ell in range(deg + 1):
        assert series[ell] * factorial(ell) == counting("bell", ell)


def test_partitions_of():
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(8)) == 22


def test_box_moves():
    assert boxes_added((2, 1)) == [(3, 1), (2, 2), (2, 1, 1)]
    assert boxes_added(()) == [(1,)]
    assert boxes_removed((2, 1)) == [(1, 1), (2,)]
    assert boxes_removed((1,)) == [()]
    assert boxes_removed(()) == []
    with pytest.raises(BadParams):
        boxes_added((1, 2))


def test_first_row_helpers():
    assert strip_first_row((6, 3, 1)) == (3, 1)
    assert strip_first_row((4,)) == ()
    assert attach_first_row((3, 1), 10) == (6, 3, 1)
    assert attach_first_row((), 5) == (5,)
    with pytest.raises(BadParams):
        attach_first_row((3,), 5)  # first row 2 would sit above a 3


def test_hooks_and_contents():
    assert hooks_and_contents((1,)) == ((1,), (0,))
    hooks, contents = hooks_and_contents((2, 1))
    assert sorted(hooks) == [1, 1, 3]
    assert sorted(contents) == [-1, 0, 1]
    lam = (10, 7, 3, 3, 1)
    first_row = [
        (lam[0] - j) + sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1)
    ]
    assert first_row == [14, 12, 11, 8, 7, 6, 5, 3, 2, 1]
    hooks, _ = hooks_and_contents(lam)
    assert max(hooks) == 14
    for h in first_row:
        assert h in hooks
    hooks, _ = hooks_and_contents((5, 5, 3, 3, 1, 1))
    assert max(hooks) == 10


def test_syt_dimension():
    assert syt_dimension((2, 1)) == 2
    assert syt_dimension((7,)) == 1
    assert syt_dimension((2, 2)) == 2
    for size in range(7):
        for lam in partitions_of(size):
            assert syt_dimension(lam) == len(standard_tableaux(lam))


def test_abstract_graph_levels():
    g = build_bratteli("abstract", 6)
    assert set(g.levels[4]) == {(), (1,), (2,), (1, 1)}
    for t in range(0, 6, 2):
        assert set(g.levels[t]) == set(g.levels[t + 1])
    for t, level in enumerate(g.levels):
        bound = t // 2
        assert all(sum(lam) <= bound for lam in level)
        assert set(level) == {
            lam for size in range(bound + 1) for lam in partitions_of(size)
        }


def test_abstract_path_counts():
    g = build_bratteli("abstract", 6)
    assert g.path_count(4, ()) == 2
    assert g.path_count(4, (1,)) == 3
    assert g.path_count(4, (2,)) == 1
    assert g.path_count(4, (1, 1)) == 1
    assert g.path_count(2, ()) == 1
    assert g.path_count(2, (1,)) == 1
    for t in (1, 2, 3, 4, 5, 6):
        total = sum(g.path_count(t, v) ** 2 for v in g.levels[t])
        assert total == counting("bell", t)
    with pytest.raises(VertexNotFound):
        g.path_count(2, (5,))
    with pytest.raises(VertexNotFound):
        g.path_count(40, ())


def test_paths_are_edge_walks():
    g = build_bratteli("abstract", 4)
    for walk in g.paths(4, (1,)):
        assert walk[0] == ()
        assert len(walk) == 5
        for t in range(4):
            src = g.levels[t].index(walk[t])
            dst = g.levels[t + 1].index(walk[t + 1])
            assert (src, dst) in g.edges[t]


def test_concrete_graph():
    g = build_bratteli("concrete", 4, n=5)
    assert g.levels[0] == ((5,),)
    assert set(g.levels[2]) == {(5,), (4, 1)}
    assert set(g.levels[1]) == {(4,)}
    for t, level in enumerate(g.levels):
        size = 5 if t % 2 == 0 else 4
        assert all(sum(lam) == size for lam in level)
    # edges strictly remove going down, add coming up; never keep equal
    for t, es in enumerate(g.edges):
        for src, dst in es:
            a, b = g.levels[t][src], g.levels[t + 1][dst]
            if t % 2 == 0:
                assert b in boxes_removed(a)
            else:
                assert b in boxes_added(a)
    with pytest.raises(BadParams):
        build_bratteli("concrete", 4)
    with pytest.raises(BadParams):
        build_bratteli("nonsense", 4)


def test_concrete_matches_abstract_for_large_n():
    # stripping first rows identifies the n=5 graph with the abstract
    # one through level 2
    concrete = build_bratteli("concrete", 4, n=5)
    abstract = build_bratteli("abstract", 4)
    for t in range(5):
        mapped = [strip_first_row(v) for v in concrete.levels[t]]
        assert len(set(mapped)) == len(mapped)
        assert set(mapped) == set(abstract.levels[t])
        remap = {i: abstract.levels[t].index(m) for i, m in enumerate(mapped)}
        if t < 4:
            mapped_next = [strip_first_row(v) for v in concrete.levels[t + 1]]
            remap_next = {
                i: abstract.levels[t + 1].index(m) for i, m in enumerate(mapped_next)
            }
            lhs = {(remap[s], remap_next[d]) for s, d in concrete.edges[t]}
            rhs = set(abstract.edges[t])
            assert lhs == rhs


def test_graph_exports():
    g = build_bratteli("abstract", 2)
    assert g.kind == "abstract"
    assert g.levels[2] == ((), (1,))
