import copy
import pickle
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_partitions, partition_key
from partalg.diagrams import (
    Diagram,
    _generators,
    classify,
    closure_components,
    coarsens,
    columns,
    compose,
    enumerate_diagrams,
    evaluate_word,
    factorize,
    flip,
    generator,
    identity_diagram,
    is_planar,
    make_diagram,
    parse_token,
    perm_word,
    permutation_diagram,
    planar_to_tl,
    presentation_relations,
    propagating_number,
    token_str,
    verify_presentation,
    vertex_universe,
)
from partalg.errors import (
    HalfIntegerConstraintViolated,
    IndexOutOfRange,
    LimitExceeded,
    NonIntegerRank,
    NotAPartition,
    RankMismatch,
    VertexOutOfRange,
)

A2 = list(enumerate_diagrams(4))
HALF = Fraction(1, 2)


def test_make_diagram_examples():
    assert make_diagram(2, [[1, -1]]) == identity_diagram(2)
    assert make_diagram(3, [[1, -1], [2, -2]]) == identity_diagram(3)
    big = make_diagram(
        16,
        [[1, 2, 4, -2, -5], [3], [5, 6, 7, -3, -4, -6, -7], [8, -8], [-1]],
    )
    assert propagating_number(big) == 3


def test_make_diagram_canonical_order():
    d = make_diagram(4, [[-2, 2], [-1, 1]])
    assert d.blocks == ((1, -1), (2, -2))
    assert make_diagram(4, [[2, 1], [-1, -2]]).blocks == ((1, 2), (-1, -2))


def test_make_diagram_errors():
    with pytest.raises(NotAPartition):
        make_diagram(2, [[1]])
    with pytest.raises(NotAPartition):
        make_diagram(2, [[1, -1], [1]])
    with pytest.raises(VertexOutOfRange):
        make_diagram(2, [[1, -1, 5]])
    with pytest.raises(VertexOutOfRange):
        make_diagram(2, [[1, -1, 0]])
    with pytest.raises(HalfIntegerConstraintViolated):
        make_diagram(3, [[1, -2], [2, -1]])


def test_compose_worked_example():
    d1 = make_diagram(
        14, [[1, 3, -4], [2], [4, 5, 6], [7], [-1], [-2, -3], [-5, -7], [-6]]
    )
    d2 = make_diagram(
        14, [[1], [2, 4], [5, 7], [3, -4, -5, -6], [6, -2, -7], [-1], [-3]]
    )
    expect = make_diagram(
        14, [[1, 3, -4, -5, -6], [2], [4, 5, 6], [7], [-1], [-2, -7], [-3]]
    )
    assert compose(d1, d2) == (expect, 2)


def test_compose_identity_and_break():
    one = identity_diagram(6)
    for d in enumerate_diagrams(6):
        assert compose(one, d) == (d, 0)
        assert compose(d, one) == (d, 0)
    p1 = make_diagram(2, [[1], [-1]])
    assert compose(p1, p1) == (p1, 1)
    with pytest.raises(RankMismatch):
        compose(p1, identity_diagram(4))


def test_compose_cache_keeps_the_rank_check():
    """compose is its own memo: a mismatched pair is refused on every
    call, since a raise is not cached, and a repeated pair is a hit."""
    p1 = make_diagram(2, [[1], [-1]])
    wide = identity_diagram(4)
    for _ in range(2):
        with pytest.raises(RankMismatch):
            compose(p1, wide)
    d1, d2 = generator("p", Fraction(3, 2), 4), generator("s", 1, 4)
    first = compose(d1, d2)
    hits = compose.cache_info().hits
    assert compose(d1, d2) is first
    assert compose.cache_info().hits == hits + 1
    assert compose.cache_info().maxsize == 1 << 18


def test_compose_associative_on_all_rank2_triples():
    for a in A2:
        for b in A2:
            ab = compose(a, b)[0]
            for c in A2:
                assert compose(ab, c)[0] == compose(a, compose(b, c)[0])[0]


def test_propagating_number_bound():
    for a in A2:
        for b in A2:
            assert propagating_number(compose(a, b)[0]) <= min(
                propagating_number(a), propagating_number(b)
            )


def test_propagating_examples():
    assert propagating_number(identity_diagram(6)) == 3
    assert propagating_number(identity_diagram(5)) == 3
    assert propagating_number(make_diagram(2, [[1], [-1]])) == 0


def test_is_planar_examples():
    assert is_planar(make_diagram(4, [[1, 2], [-1, -2]]))
    assert not is_planar(make_diagram(4, [[1, -2], [2, -1]]))
    assert is_planar(make_diagram(4, [[1, 2, -1, -2]]))
    assert is_planar(identity_diagram(4))


def test_classify_examples_and_counts():
    s1 = make_diagram(4, [[1, -2], [2, -1]])
    assert classify(s1) == {
        "in_S": True,
        "in_I": False,
        "in_P": False,
        "in_B": True,
        "in_T": False,
    }
    e1 = make_diagram(4, [[1, 2], [-1, -2]])
    assert classify(e1) == {
        "in_S": False,
        "in_I": True,
        "in_P": True,
        "in_B": True,
        "in_T": True,
    }
    tallies = {"in_S": 0, "in_I": 0, "in_P": 0, "in_B": 0, "in_T": 0}
    for d in A2:
        for key, hit in classify(d).items():
            tallies[key] += hit
    assert tallies == {"in_S": 2, "in_I": 13, "in_P": 14, "in_B": 3, "in_T": 2}


def test_generator_examples():
    assert generator("p", 1, 4) == make_diagram(4, [[1], [-1], [2, -2]])
    assert generator("s", 1, 4) == make_diagram(4, [[1, -2], [2, -1]])
    assert generator("e", 1, 4) == make_diagram(4, [[1, 2], [-1, -2]])
    word = [("p", Fraction(3, 2)), ("p", Fraction(1)), ("p", Fraction(2)), ("p", Fraction(3, 2))]
    assert evaluate_word(word, 4) == generator("e", 1, 4)


def test_generator_ranges():
    with pytest.raises(IndexOutOfRange):
        generator("s", 2, 4)
    with pytest.raises(IndexOutOfRange):
        generator("p", 3, 4)
    with pytest.raises(IndexOutOfRange):
        generator("p", 0, 4)
    with pytest.raises(IndexOutOfRange):
        generator("s", Fraction(3, 2), 4)
    # rank 2 + 1/2: break of column 3 or crossing 2,3 would split the
    # constraint block, but the wide merge of columns 2,3 keeps it
    with pytest.raises(IndexOutOfRange):
        generator("p", 3, 5)
    with pytest.raises(IndexOutOfRange):
        generator("s", 2, 5)
    with pytest.raises(IndexOutOfRange):
        generator("e", 2, 5)
    assert generator("p", Fraction(5, 2), 5).blocks == ((1, -1), (2, -2, 3, -3))
    assert generator("p", 2, 5).blocks == ((1, -1), (2,), (-2,), (3, -3))
    # an index Fraction cannot read leaked its TypeError or ValueError
    for bad in (None, "x", float("nan"), float("inf")):
        with pytest.raises(IndexOutOfRange):
            generator("s", bad, 4)


def test_enumerate_counts_against_insertion_oracle():
    for double_rank, expected in (
        (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877), (8, 4140)
    ):
        ours = list(enumerate_diagrams(double_rank))
        assert len(ours) == expected
        assert len(set(ours)) == expected
    # oracle comparison, integer and half-integer
    for double_rank in (2, 3, 4, 5):
        k2 = (double_rank + 1) // 2
        verts = list(range(1, k2 + 1)) + [-v for v in range(1, k2 + 1)]
        keys = set()
        for part in brute_partitions(verts):
            if double_rank % 2 == 1:
                if not any(k2 in b and -k2 in b for b in part):
                    continue
            keys.add(partition_key(part))
        assert {partition_key(d.blocks) for d in enumerate_diagrams(double_rank)} == keys


def test_enumerate_order_is_stable():
    first = list(enumerate_diagrams(4))
    second = list(enumerate_diagrams(4))
    assert first == second
    assert first[0] == make_diagram(4, [[1, 2, -1, -2]])


def test_enumerate_limit():
    with pytest.raises(LimitExceeded):
        list(enumerate_diagrams(9))


def test_flip_examples_and_antihomomorphism():
    assert flip(generator("p", Fraction(3, 2), 4)) == generator("p", Fraction(3, 2), 4)
    assert flip(make_diagram(4, [[1, -2], [2, -1]])) == make_diagram(4, [[1, -2], [2, -1]])
    assert flip(make_diagram(4, [[1, 2, -1], [-2]])) == make_diagram(4, [[1, -1, -2], [2]])
    for a in A2:
        assert flip(flip(a)) == a
    rng = random.Random(11)
    pool = list(enumerate_diagrams(6))
    for _ in range(150):
        a, b = rng.choice(pool), rng.choice(pool)
        left = compose(a, b)
        right = compose(flip(b), flip(a))
        assert flip(left[0]) == right[0] and left[1] == right[1]


def test_coarsens():
    for d in A2:
        assert coarsens(d, d)
    p1 = make_diagram(2, [[1], [-1]])
    assert coarsens(p1, identity_diagram(2))
    assert not coarsens(identity_diagram(2), p1)
    a1 = list(enumerate_diagrams(2))
    assert sum(coarsens(a, b) for a in a1 for b in a1) == 3
    with pytest.raises(RankMismatch):
        coarsens(p1, identity_diagram(4))


def test_factorize_examples():
    assert factorize(identity_diagram(6)) == []
    e1 = generator("e", 1, 4)
    assert evaluate_word(factorize(e1), 4) == e1
    s1 = generator("s", 1, 4)
    assert evaluate_word(factorize(s1), 4) == s1
    with pytest.raises(NonIntegerRank):
        factorize(identity_diagram(3))


def test_factorize_round_trip_rank3():
    for d in enumerate_diagrams(6):
        assert evaluate_word(factorize(d), 6) == d


def test_factorize_round_trip_rank4_sample():
    rng = random.Random(23)
    pool = list(enumerate_diagrams(8))
    for d in rng.sample(pool, 80):
        assert evaluate_word(factorize(d), 8) == d


def test_factorize_tokens_are_monoid_generators():
    for d in enumerate_diagrams(4):
        for kind, idx in factorize(d):
            assert kind in ("s", "p")
            generator(kind, idx, 4)


@given(st.permutations(list(range(1, 6))))
def test_perm_word_round_trip(images):
    word = perm_word(images)
    assert evaluate_word(word, 10) == permutation_diagram(images, 10)


def test_token_round_trip():
    for token in (("s", Fraction(1)), ("p", Fraction(3, 2)), ("e", Fraction(2))):
        assert parse_token(token_str(token)) == token
    # "s_x" leaked a ValueError from Fraction
    for bad in ("q_1", "s_x", "p_1/3"):
        with pytest.raises(IndexOutOfRange):
            parse_token(bad)
    # token_str("q", 5) gave "q_5", which parse_token refuses
    for bad in (("q", 5), ("s", Fraction(1, 3))):
        with pytest.raises(IndexOutOfRange):
            token_str(bad)


@given(
    st.sampled_from(["s", "e", "p", "q", "", 1]),
    st.one_of(
        st.integers(-20, 20),
        st.fractions(max_denominator=4),
        st.sampled_from(["3", "5/2", "2/3", "x", 1.5, 0.25, None]),
    ),
)
def test_token_str_is_read_back_by_parse_token(kind, idx):
    try:
        readable = kind in ("s", "e", "p") and Fraction(idx).denominator in (1, 2)
    except (TypeError, ValueError):
        readable = False
    if not readable:
        with pytest.raises(IndexOutOfRange):
            token_str((kind, idx))
    else:
        assert parse_token(token_str((kind, idx))) == (kind, Fraction(idx))


@pytest.mark.parametrize("double_rank", range(9))
def test_generators_generate_the_monoid(double_rank):
    # every check proved on _generators rests on this: closing the
    # identity under right products with them reaches every diagram
    table = _generators(double_rank)
    assert all(g is generator(kind, i, double_rank) for (kind, i), g in table.items())
    reached = frontier = {identity_diagram(double_rank)}
    while frontier:
        frontier = {compose(d, g)[0] for d in frontier for g in table.values()} - reached
        reached = reached | frontier
    assert reached == set(enumerate_diagrams(double_rank))


@pytest.mark.parametrize("double_rank", [2, 3, 4, 5, 6, 7, 8])
def test_presentation_holds(double_rank):
    assert verify_presentation(double_rank) == []


@pytest.mark.parametrize("k", [2, 3, 4])
def test_presentation_lists_the_top_double_merge_at_half_ranks(k):
    # p_{k+1/2} s_{k-1} p_{k+1/2} = p_{k+1/2} p_{k-1/2} at rank k + 1/2,
    # where s_{k-1} is the last transposition
    double_rank = 2 * k + 1
    top = Fraction(2 * k + 1, 2)
    lhs = [("p", top), ("s", Fraction(k - 1)), ("p", top)]
    rhs = [("p", top), ("p", top - 1)]
    listed = {name: (l, r) for name, l, r in presentation_relations(double_rank)}
    assert listed[f"double merge {k}"] == (lhs, rhs)
    assert evaluate_word(lhs, double_rank) == evaluate_word(rhs, double_rank)


def test_planar_tl_worked_example():
    d = make_diagram(
        14, [[1, -1, -2, -3], [2, 3, 4, -5], [5, -6], [6, 7], [-4], [-7]]
    )
    assert is_planar(d)
    expect = make_diagram(
        28,
        [
            [1, -1], [2, -6], [3, -9], [4, 5], [6, 7], [8, -10], [9, -11],
            [10, -12], [11, 14], [12, 13], [-2, -3], [-4, -5], [-7, -8],
            [-13, -14],
        ],
    )
    assert planar_to_tl(d) == expect


@pytest.mark.parametrize("double_rank", [2, 3, 4])
def test_planar_tl_bijective_monoid_hom(double_rank):
    source = [d for d in enumerate_diagrams(double_rank) if is_planar(d)]
    images = [planar_to_tl(d) for d in source]
    assert len(set(images)) == len(source)
    k2 = (double_rank + 1) // 2
    targets = [
        t
        for t in enumerate_diagrams(4 * k2)
        if is_planar(t) and all(len(b) == 2 for b in t.blocks)
    ]
    if double_rank % 2 == 0:
        assert set(images) == set(targets)
    else:
        pinned = [t for t in targets if (2 * k2, -2 * k2) in t.blocks]
        assert set(images) == set(pinned)
    for a in source:
        for b in source:
            ab = compose(a, b)[0]
            assert planar_to_tl(ab) == compose(planar_to_tl(a), planar_to_tl(b))[0]


def _block_compose(d1, d2):
    """Stacks d1 over d2 on vertex ids, not on block labels: the
    block-based composition the label core replaced, kept as an oracle.
    Returns the raw blocks of the product and the removed count."""
    k2 = (d1.double_rank + 1) // 2
    # node ids: top 0..k2-1, middle k2..2k2-1, bottom 2k2..3k2-1
    parent = list(range(3 * k2))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for top, d in ((-1, d1), (k2 - 1, d2)):
        # vertex m of d is node top + m, vertex -m is node bottom + m
        bottom = top + k2
        for block in d.blocks:
            nodes = [top + v if v > 0 else bottom - v for v in block]
            for node in nodes[1:]:
                parent[find(node)] = find(nodes[0])
    groups = {}
    for node in range(3 * k2):
        groups.setdefault(find(node), []).append(node)
    blocks = []
    removed = 0
    for members in groups.values():
        rim = [m for m in members if m < k2 or m >= 2 * k2]
        if not rim:
            removed += 1
            continue
        blocks.append([m + 1 if m < k2 else -(m - 2 * k2 + 1) for m in rim])
    return blocks, removed


def _assert_compose_matches_oracle(d1, d2):
    blocks, removed = _block_compose(d1, d2)
    product = Diagram(d1.double_rank, blocks)
    # the uncached core, then the public memoized entry
    assert compose.__wrapped__(d1, d2) == (product, removed)
    assert compose(d1, d2) == (product, removed)
    assert partition_key(product.blocks) == partition_key(blocks)


@pytest.mark.parametrize("double_rank", [0, 1, 2, 3, 4])
def test_compose_matches_block_oracle_on_all_pairs(double_rank):
    basis = list(enumerate_diagrams(double_rank))
    for d1 in basis:
        for d2 in basis:
            _assert_compose_matches_oracle(d1, d2)


@pytest.mark.parametrize("double_rank", [5, 6, 7, 8])
def test_compose_matches_block_oracle_on_seeded_pairs(double_rank):
    rng = random.Random(double_rank)
    basis = list(enumerate_diagrams(double_rank))
    for _ in range(400):
        _assert_compose_matches_oracle(rng.choice(basis), rng.choice(basis))


@pytest.mark.parametrize("double_rank", [7, 8])
def test_compose_matches_block_oracle_on_long_middle_chains(double_rank):
    # propagating number K - 1 or K on both sides: most middle vertices
    # chain a block of d1 to a block of d2 and on to the next
    k2 = columns(double_rank)
    rng = random.Random(double_rank)
    basis = [d for d in enumerate_diagrams(double_rank) if propagating_number(d) >= k2 - 1]
    for _ in range(500):
        _assert_compose_matches_oracle(rng.choice(basis), rng.choice(basis))


def _closure_oracle(d):
    """Components of the vertex graph with an edge along each block and
    from each i to -i, counted by breadth-first search."""
    adjacent = {v: [-v] for v in vertex_universe(d.double_rank)}
    for block in d.blocks:
        for u, v in zip(block, block[1:]):
            adjacent[u].append(v)
            adjacent[v].append(u)
    seen = set()
    count = 0
    for start in adjacent:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for v in adjacent[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return count


@pytest.mark.parametrize("double_rank", range(7))
def test_closure_components_match_vertex_graph_oracle(double_rank):
    for d in enumerate_diagrams(double_rank):
        assert closure_components(d) == _closure_oracle(d)


def _is_restricted_growth(labels):
    top = -1
    for label in labels:
        if not 0 <= label <= top + 1:
            return False
        top = max(top, label)
    return True


@pytest.mark.parametrize("double_rank", [0, 1, 2, 3, 4, 5, 6])
def test_labels_round_trip_through_blocks_and_json(double_rank):
    verts = list(range(1, (double_rank + 1) // 2 + 1))
    verts += [-v for v in verts]
    for d in enumerate_diagrams(double_rank):
        assert _is_restricted_growth(d.labels)
        assert len(d.labels) == len(verts)
        # same label exactly when same block
        owner = {v: i for i, b in enumerate(d.blocks) for v in b}
        for i, u in enumerate(verts):
            for j, v in enumerate(verts):
                assert (d.labels[i] == d.labels[j]) == (owner[u] == owner[v])
        assert Diagram(double_rank, d.blocks) is d
        assert make_diagram(double_rank, [list(reversed(b)) for b in reversed(d.blocks)]) is d
        # the hash is the interned object's: rebuilding, pickling and
        # copying all return that one object
        assert hash(Diagram(double_rank, d.blocks)) == hash(d)
        assert pickle.loads(pickle.dumps(d)) is d
        assert copy.deepcopy(d) is d


def test_equal_diagrams_are_one_object():
    a = make_diagram(4, [[2, 1], [-1, -2]])
    b = make_diagram(4, [[-2, -1], [1, 2]])
    assert a is b and a == b
    assert a != make_diagram(4, [[1, -1], [2, -2]])
    # the same partition at another rank is another diagram
    assert make_diagram(3, [[1, -1], [2, -2]]) is not make_diagram(4, [[1, -1], [2, -2]])
    basis = list(enumerate_diagrams(5))
    assert all(x is y for x, y in zip(basis, enumerate_diagrams(5)))
    p1 = make_diagram(2, [[1], [-1]])
    assert compose(p1, p1)[0] is p1
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    with pytest.raises(AttributeError):
        a.labels = (0, 0, 0, 0)
