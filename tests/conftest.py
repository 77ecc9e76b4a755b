"""Shared independent oracles for the test suite, and one spy fixture.

These deliberately avoid the package's own algorithms: set partitions
come from recursive insertion, never from restricted-growth strings.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def elimination_moduli(monkeypatch) -> list:
    """The modulus (None over Z) of every linalg._eliminate call the
    test makes, in order."""
    from partalg import linalg

    moduli = []
    eliminate = linalg._eliminate

    def spy(m, p=None):
        moduli.append(p)
        return eliminate(m, p)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return moduli


def brute_partitions(items):
    """All set partitions of items, by inserting one element at a time."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in brute_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def partition_key(blocks):
    """Order-free canonical key for a set partition given as lists."""
    return frozenset(frozenset(b) for b in blocks)


def standard_tableaux(shape):
    """All standard fillings of a partition shape, as row tuples."""
    total = sum(shape)
    results = []

    def grow(filling, counts, next_val):
        if next_val > total:
            results.append(tuple(tuple(row) for row in filling))
            return
        for r in range(len(shape)):
            if counts[r] >= shape[r]:
                continue
            if r > 0 and counts[r - 1] <= counts[r]:
                continue
            filling[r].append(next_val)
            counts[r] += 1
            grow(filling, counts, next_val + 1)
            counts[r] -= 1
            filling[r].pop()

    grow([[] for _ in shape], [0] * len(shape), 1)
    return results


def unit_system_obeys_relations(system) -> None:
    """Matrix units sum to one and multiply as e_PQ e_RS = [Q = R] e_PS
    within a block, and to zero across blocks."""
    from partalg.algebra import multiply, one

    assert system.identity_sum() == one(system.double_rank, system.mode)
    for key1 in system.index:
        shape1, p1, q1 = key1
        u1 = system.units[key1]
        for key2 in system.index:
            shape2, p2, q2 = key2
            product = multiply(u1, system.units[key2])
            if shape1 == shape2 and q1 == p2:
                assert product == system.units[(shape1, p1, q2)]
            else:
                assert product.is_zero()
