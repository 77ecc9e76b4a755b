"""Every map from diagrams to diagrams works on restricted-growth labels.

Each is pinned here against a block-based body, written on the public
``blocks`` view and the validating ``Diagram`` constructor, as the maps
were first written: on every diagram of double rank at most 7, on
every pair at double rank at most 4, in generic and specialized mode.
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from partalg import murphy
from partalg.algebra import (
    coarsenings,
    diagram_element,
    element,
    embed,
    eps_down,
    eps_up,
    mobius_coefficient,
    refinements,
)
from partalg.diagrams import (
    Diagram,
    _rg_strings,
    coarsens,
    columns,
    enumerate_diagrams,
    flip,
    identity_diagram,
    is_planar,
    planar_to_tl,
)
from partalg.errors import RankMismatch
from partalg.murphy import b_s, d_i
from partalg.scalars import Poly

RANKS = range(8)
MODES = (None, Fraction(3))


def block_flip(d):
    return Diagram(d.double_rank, [[-v for v in b] for b in d.blocks])


def block_embed_step(d):
    dr = d.double_rank
    if dr % 2 == 0:
        new_col = columns(dr) + 1
        return Diagram(dr + 1, d.blocks + ((new_col, -new_col),))
    return Diagram(dr + 1, d.blocks)


def block_eps_down(d):
    k2, blocks = columns(d.double_rank), d.blocks
    top = next(b for b in blocks if k2 in b)
    bot = next(b for b in blocks if -k2 in b)
    merged = top if top is bot else top + bot
    rest = [b for b in blocks if b is not top and b is not bot]
    return Diagram(d.double_rank - 1, rest + [merged])


def block_eps_up(d):
    """The diagram left by deleting the last column, and whether the
    deletion destroyed a whole block."""
    k2 = columns(d.double_rank)
    blocks = []
    destroyed = True
    for b in d.blocks:
        kept = tuple(v for v in b if v not in (k2, -k2))
        if kept:
            blocks.append(kept)
        if len(kept) != len(b) and kept:
            destroyed = False
    return Diagram(d.double_rank - 1, blocks), destroyed


def block_coarsens(d1, d2):
    owner = {v: i for i, b in enumerate(d2.blocks) for v in b}
    return all(len({owner[v] for v in b}) == 1 for b in d1.blocks)


def block_mobius(finer, coarser):
    owner = {v: i for i, b in enumerate(coarser.blocks) for v in b}
    counts = [0] * len(coarser.blocks)
    for block in finer.blocks:
        tops = {owner[v] for v in block}
        if len(tops) != 1:
            raise RankMismatch("diagrams are not nested")
        counts[tops.pop()] += 1
    out = 1
    for m in counts:
        out *= (-1) ** (m - 1) * factorial(m - 1)
    return out


def block_split(double_rank, s, inside):
    full = {v for m in s for v in (m, -m)}
    strands = [[m, -m] for m in range(1, columns(double_rank) + 1) if m not in s]
    parts = [sorted(inside), sorted(full - set(inside))]
    return Diagram(double_rank, [p for p in parts if p] + strands)


def block_set_partitions(items):
    out = []
    for string in _rg_strings(len(items)):
        parts = [[] for _ in range(max(string, default=-1) + 1)]
        for label, item in zip(string, items):
            parts[label].append(item)
        out.append(parts)
    return out


def block_refinements(d):
    k2 = columns(d.double_rank)
    twin = -k2 if d.double_rank % 2 else 0
    splits = [block_set_partitions([v for v in block if v != twin]) for block in d.blocks]
    return [
        Diagram(
            d.double_rank,
            [part + [twin] if twin and k2 in part else part for split in choice for part in split],
        )
        for choice in product(*splits)
    ]


def block_coarsenings(d):
    return [
        Diagram(d.double_rank, [[v for b in group for v in b] for group in groups])
        for groups in block_set_partitions(d.blocks)
    ]


def block_is_planar(d):
    k2 = columns(d.double_rank)
    pos = [sorted(v - 1 if v > 0 else 2 * k2 + v for v in block) for block in d.blocks]
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            merged = sorted([(p, 0) for p in pos[i]] + [(p, 1) for p in pos[j]])
            n = len(merged)
            if sum(merged[t][1] != merged[(t + 1) % n][1] for t in range(n)) >= 4:
                return False
    return True


def block_planar_to_tl(d):
    k2 = columns(d.double_rank)

    def outgoing(v):
        return 2 * v if v > 0 else -(2 * (-v) - 1)

    def incoming(v):
        return 2 * v - 1 if v > 0 else -(2 * (-v))

    def cyclic(v):
        return v - 1 if v > 0 else 2 * k2 + v

    blocks = []
    for block in d.blocks:
        ring = sorted(block, key=cyclic)
        for t, v in enumerate(ring):
            w = ring[(t + 1) % len(ring)]
            blocks.append([outgoing(v), incoming(w)])
    return Diagram(4 * k2, blocks)


def test_blocks_are_derived_not_stored():
    assert "blocks" not in Diagram.__slots__
    for dr in RANKS:
        assert identity_diagram(dr) is Diagram(dr, [[m, -m] for m in range(1, columns(dr) + 1)])
        for d in enumerate_diagrams(dr):
            assert d.block_count == len(d.blocks) == len(set(d.labels))
            assert Diagram(dr, d.blocks) is d


def test_flip_and_one_embedding_step_match_block_bodies():
    for dr in RANKS:
        for d in enumerate_diagrams(dr):
            assert flip(d) is block_flip(d)
            up = block_embed_step(d)
            for mode in MODES:
                a = diagram_element(d, 2, mode)
                assert embed(a, dr + 1) == diagram_element(up, 2, mode)
                assert embed(a, dr + 2) == diagram_element(block_embed_step(up), 2, mode)


def test_conditional_expectations_match_block_bodies():
    for dr in RANKS:
        for d in enumerate_diagrams(dr):
            for mode in MODES:
                a = diagram_element(d, 2, mode)
                if dr % 2 == 0 and dr:
                    assert eps_down(a) == diagram_element(block_eps_down(d), 2, mode)
                if dr % 2:
                    down, destroyed = block_eps_up(d)
                    x = Poly.x() if mode is None else mode
                    coeff = 2 * x if destroyed else 2
                    assert eps_up(a) == element(dr - 1, {down: coeff}, mode)


def test_coarsening_order_and_mobius_match_block_bodies():
    for dr in range(5):
        diagrams = list(enumerate_diagrams(dr))
        for d1 in diagrams:
            for d2 in diagrams:
                nested = block_coarsens(d1, d2)
                assert coarsens(d1, d2) is nested
                if nested:
                    assert mobius_coefficient(d1, d2) == block_mobius(d1, d2)
                else:
                    with pytest.raises(RankMismatch):
                        mobius_coefficient(d1, d2)


def test_collapses_and_splits_match_block_bodies():
    for dr in range(1, 8):
        k2 = columns(dr)
        pair = {k2, -k2} if dr % 2 else set()
        for m in range(1, k2 + 1):
            for s in combinations(range(1, k2 + 1), m):
                full = frozenset(v for c in s for v in (c, -c))
                assert b_s(dr, s) is block_split(dr, s, full)
                assert murphy._split(dr, full, full) is b_s(dr, s)
                for r in range(1, len(full)):
                    for inside in map(frozenset, combinations(sorted(full), r)):
                        if pair <= full and not (pair <= inside or pair <= full - inside):
                            continue
                        split = block_split(dr, s, inside)
                        assert d_i(dr, s, inside) is split
                        assert murphy._split(dr, full, inside) is split


@pytest.mark.parametrize("double_rank", RANKS)
def test_refinements_coarsenings_and_doubling_match_block_bodies(double_rank):
    # the same lists in the same order: set partitions of each block, or
    # of the blocks, in the order of blocks
    planar = 0
    for d in enumerate_diagrams(double_rank):
        assert refinements(d) == block_refinements(d)
        assert coarsenings(d) == block_coarsenings(d)
        assert is_planar(d) is block_is_planar(d)
        if is_planar(d):
            assert planar_to_tl(d) is block_planar_to_tl(d)
            planar += 1
    assert planar
