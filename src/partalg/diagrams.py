"""Set-partition diagrams and their monoid.

A diagram of rank k (k a nonnegative half-integer, stored as
double_rank = 2k) is a set partition of {1,...,K, -1,...,-K} with
K = ceil(k); positive vertices form the top row, negative the bottom.
Half-integer ranks are the sub-monoid of rank K diagrams whose block
structure joins K and -K.

A diagram is stored as its restricted-growth string ``labels`` (Knuth,
TAOCP 4A, 7.2.1.5): one block number per vertex, over the vertices in
the order 1,...,K,-1,...,-K, numbering the blocks 0, 1, 2, ... in the
order they first appear.  It is stored with its block count; ``blocks``,
the same partition as sorted vertex tuples, is derived on each access.
Diagrams are interned: the constructor returns the one object of its
(double_rank, labels), so equal diagrams are the same object.

>>> from partalg.diagrams import make_diagram, compose, propagating_number
>>> d = make_diagram(2, [[1, -1]])
>>> propagating_number(d)
1
>>> p = make_diagram(2, [[1], [-1]])
>>> p.labels
(0, 1)
>>> compose(p, p)           # the lone middle component is removed
(Diagram(2, ((1,), (-1,))), 1)
>>> compose(p, p)[0] is p
True
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterator, Sequence

from .errors import (
    BadParams,
    HalfIntegerConstraintViolated,
    IndexOutOfRange,
    NonIntegerRank,
    NotAPartition,
    RankMismatch,
    VertexOutOfRange,
)
from .limits import check

__all__ = [
    "Diagram",
    "make_diagram",
    "identity_diagram",
    "columns",
    "vertex_universe",
    "compose",
    "closure_components",
    "propagating_number",
    "is_planar",
    "classify",
    "generator",
    "enumerate_diagrams",
    "flip",
    "coarsens",
    "factorize",
    "evaluate_word",
    "permutation_diagram",
    "perm_word",
    "planar_to_tl",
    "presentation_relations",
    "verify_presentation",
    "token_str",
    "parse_token",
]


def columns(double_rank: int) -> int:
    """Number of columns K = ceil(k) for rank k = double_rank/2."""
    return (double_rank + 1) // 2


def _strands(double_rank: int, skip) -> list[list[int]]:
    """Vertical strands [m, -m] on every column not in skip."""
    return [[m, -m] for m in range(1, columns(double_rank) + 1) if m not in skip]


def vertex_universe(double_rank: int) -> tuple[int, ...]:
    k2 = columns(double_rank)
    return tuple(range(1, k2 + 1)) + tuple(range(-1, -k2 - 1, -1))


class Diagram:
    """Canonical set-partition diagram; immutable, hashable and interned.

    ``Diagram(double_rank, blocks)`` validates raw vertex lists and
    returns the interned diagram of that partition, which stores its
    labels and their block count; ``blocks`` is derived on each access.
    Equality and the hash are both those of the object's identity;
    pickling and copying return the interned object.  Identity hashes
    differ between processes, so no result may depend on the iteration
    order of a set of diagrams.
    """

    __slots__ = ("double_rank", "labels", "block_count")

    def __new__(cls, double_rank: int, blocks):
        k2 = columns(check("diagram", double_rank))
        try:
            parts = [tuple(block) for block in blocks]
        except TypeError:
            raise BadParams(f"blocks must be lists of vertices, not {blocks!r}") from None
        owner: dict[int, int] = {}
        for i, part in enumerate(parts):
            if not part:
                raise NotAPartition("empty block")
            for v in part:
                if not isinstance(v, int) or v == 0 or abs(v) > k2:
                    raise VertexOutOfRange(f"vertex {v} outside rank {Fraction(double_rank, 2)}")
                if v in owner:
                    raise NotAPartition(f"vertex {v} appears twice")
                owner[v] = i
        if len(owner) != 2 * k2:
            missing = [v for m in range(1, k2 + 1) for v in (m, -m) if v not in owner]
            raise NotAPartition(f"vertices {missing} not covered")
        if double_rank % 2 == 1 and k2 > 0 and owner[k2] != owner[-k2]:
            raise HalfIntegerConstraintViolated(
                f"half-integer rank requires {k2} and {-k2} in one block"
            )
        return _relabeled(double_rank, map(owner.__getitem__, vertex_universe(double_rank)))

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    def __reduce__(self):
        return (_diagram, (self.double_rank, self.labels))

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, derived from the labels on each access, in
        column order with top before bottom, and by their first vertex.

        >>> Diagram(4, [[-1, 2], [1], [-2]]).blocks
        ((1,), (-1, 2), (-2,))
        """
        k2 = columns(self.double_rank)
        groups: dict[int, list[int]] = {}
        for m in range(1, k2 + 1):
            groups.setdefault(self.labels[m - 1], []).append(m)
            groups.setdefault(self.labels[k2 + m - 1], []).append(-m)
        return tuple(map(tuple, groups.values()))

    def __repr__(self) -> str:
        return f"Diagram({self.double_rank}, {self.blocks})"


# Every diagram made so far, by (double_rank, labels), kept for the life
# of the process: whole-algebra work meets each diagram of a rank many
# times.  Nothing bounds it; verify_presentation(128) leaves 20,411
# diagrams of double rank 128 in it, 25 MB once compose's cache is cleared.
_INTERNED: dict[tuple[int, tuple[int, ...]], Diagram] = {}


def _diagram(double_rank: int, labels: tuple[int, ...]) -> Diagram:
    """The interned diagram with these restricted-growth labels, which
    the caller guarantees valid for the rank; nothing is checked."""
    key = (double_rank, labels)
    d = _INTERNED.get(key)
    if d is None:
        d = object.__new__(Diagram)
        object.__setattr__(d, "double_rank", double_rank)
        object.__setattr__(d, "labels", labels)
        object.__setattr__(d, "block_count", max(labels, default=-1) + 1)
        d = _INTERNED.setdefault(key, d)
    return d


def _relabeled(double_rank: int, names) -> Diagram:
    """The interned diagram whose vertices, in label order, carry these
    block names, renumbered by first appearance; nothing is checked."""
    relabel: dict = {}
    return _diagram(double_rank, tuple(relabel.setdefault(n, len(relabel)) for n in names))


def _block_positions(d: Diagram) -> list[list[int]]:
    """The label positions of each block's vertices, in the order of
    ``blocks``."""
    k2 = columns(d.double_rank)
    return [[v - 1 if v > 0 else k2 - v - 1 for v in block] for block in d.blocks]


def _checked_diagram(d) -> Diagram:
    if not isinstance(d, Diagram):
        raise BadParams(f"need a Diagram, not {d!r}")
    return d


def make_diagram(double_rank: int, blocks) -> Diagram:
    """Builds and canonicalizes a diagram from raw vertex lists."""
    return Diagram(double_rank, blocks)


def identity_diagram(double_rank: int) -> Diagram:
    return _diagram(double_rank, tuple(range(columns(check("diagram", double_rank)))) * 2)


@lru_cache(maxsize=1 << 18)
def compose(d1: Diagram, d2: Diagram) -> tuple[Diagram, int]:
    """Stacks d1 above d2.

    Returns (d1 d2, removed) where removed counts the connected
    components of the stacked picture that touch neither the top rim of
    d1 nor the bottom rim of d2.  The body keeps one flat parent list
    over the blocks of d1, then those of d2; at each middle position it
    walks both roots and links the larger under the smaller, so a root
    is the least node of its component.  The rim is relabelled in vertex
    order by its roots, and removed is the component count less the
    roots the rim reaches.  Results are memoized; products of the same
    pair dominate whole-algebra computations.  A pair of different ranks
    raises RankMismatch on every call, since exceptions are not cached;
    ``compose.__wrapped__`` is the uncached body.
    """
    if d1.double_rank != d2.double_rank:
        raise RankMismatch(f"ranks {d1.double_rank}/2 and {d2.double_rank}/2 differ")
    k2 = columns(d1.double_rank)
    l1, l2 = d1.labels, d2.labels
    b1 = d1.block_count
    nodes = b1 + d2.block_count
    parent = list(range(nodes))
    joins = 0
    for m in range(k2):
        a = l1[k2 + m]
        while parent[a] != a:
            a = parent[a]
        b = b1 + l2[m]
        while parent[b] != b:
            b = parent[b]
        if a < b:
            parent[b] = a
            joins += 1
        elif b < a:
            parent[a] = b
            joins += 1
    relabel: dict[int, int] = {}
    rim = []
    for a in l1[:k2]:
        while parent[a] != a:
            a = parent[a]
        rim.append(relabel.setdefault(a, len(relabel)))
    for b in l2[k2:]:
        b += b1
        while parent[b] != b:
            b = parent[b]
        rim.append(relabel.setdefault(b, len(relabel)))
    return _diagram(d1.double_rank, tuple(rim)), nodes - joins - len(relabel)


def closure_components(d: Diagram) -> int:
    """Components of d after joining each top vertex to its bottom twin.

    The diagram trace of d is the parameter raised to this count.  The
    parent list runs over the blocks of d, linked as in ``compose``.
    """
    k2 = columns(d.double_rank)
    labels = d.labels
    parent = list(range(d.block_count))
    components = len(parent)
    for m in range(k2):
        a, b = labels[m], labels[k2 + m]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
            components -= 1
    return components


def propagating_number(d: Diagram) -> int:
    """Number of blocks meeting both rows."""
    k2 = columns(d.double_rank)
    return len(set(d.labels[:k2]).intersection(d.labels[k2:]))


def _cycle(d: Diagram) -> tuple[int, ...]:
    """The labels read around the boundary cycle 1,...,K,-K,...,-1."""
    k2 = columns(d.double_rank)
    return d.labels[:k2] + d.labels[k2:][::-1]


def is_planar(d: Diagram) -> bool:
    """True iff no two blocks interleave on the boundary cycle.

    Read around the cycle, the blocks met and not yet finished form a
    stack: two blocks interleave exactly when a block met before turns
    up again while another block is on top of it.
    """
    cycle = _cycle(d)
    last = {b: c for c, b in enumerate(cycle)}
    met: set[int] = set()
    stack: list[int] = []
    for c, b in enumerate(cycle):
        if b not in met:
            met.add(b)
            stack.append(b)
        elif stack[-1] != b:
            return False
        if last[b] == c:
            stack.pop()
    return True


def classify(d: Diagram) -> dict[str, bool]:
    """Membership flags for the permutation, ideal, planar, pairing,
    and planar-pairing sub-monoids."""
    k2 = columns(d.double_rank)
    pn = propagating_number(d)
    planar = is_planar(d)
    pairs = all(len(b) == 2 for b in d.blocks)
    return {
        "in_S": pn == k2,
        "in_I": pn < k2,
        "in_P": planar,
        "in_B": pairs,
        "in_T": planar and pairs,
    }


def _gen_index(index) -> Fraction:
    try:
        idx = Fraction(index)
    except (TypeError, ValueError, OverflowError):
        raise IndexOutOfRange(f"index {index!r} is not a half-integer") from None
    if idx.denominator not in (1, 2):
        raise IndexOutOfRange(f"index {index} is not a half-integer")
    return idx


def generator(kind: str, index, double_rank: int) -> Diagram:
    """The named generator diagram at the given rank.

    kind "s": adjacent transposition, integer index i, swaps columns
    i, i+1.  kind "e": joins columns i, i+1 within each row.  kind "p"
    with integer index j: isolates column j; with half-integer index
    i+1/2: merges columns i, i+1 across both rows.  Index ranges are
    exactly those for which the displayed diagram exists and respects
    the half-integer constraint block.  partalg.limits caps the double
    rank.
    """
    k2 = columns(check("diagram", double_rank))
    half = double_rank % 2 == 1
    idx = _gen_index(index)
    if kind == "s":
        if idx.denominator != 1 or not 1 <= idx <= k2 - 1 - (1 if half else 0):
            raise IndexOutOfRange(f"s_{index} undefined at rank {Fraction(double_rank, 2)}")
        i = int(idx)
        return Diagram(double_rank, [[i, -(i + 1)], [i + 1, -i]] + _strands(double_rank, {i, i + 1}))
    if kind == "e":
        if idx.denominator != 1 or not 1 <= idx <= k2 - 1 - (1 if half else 0):
            raise IndexOutOfRange(f"e_{index} undefined at rank {Fraction(double_rank, 2)}")
        i = int(idx)
        return Diagram(double_rank, [[i, i + 1], [-i, -(i + 1)]] + _strands(double_rank, {i, i + 1}))
    if kind == "p":
        if idx.denominator == 1:
            j = int(idx)
            if not 1 <= j <= k2 - (1 if half else 0):
                raise IndexOutOfRange(f"p_{index} undefined at rank {Fraction(double_rank, 2)}")
            return Diagram(double_rank, [[j], [-j]] + _strands(double_rank, {j}))
        i = int(idx - Fraction(1, 2))
        if not 1 <= i <= k2 - 1:
            raise IndexOutOfRange(f"p_{index} undefined at rank {Fraction(double_rank, 2)}")
        return Diagram(double_rank, [[i, i + 1, -i, -(i + 1)]] + _strands(double_rank, {i, i + 1}))
    raise IndexOutOfRange(f"unknown generator kind {kind!r}")


Token = tuple[str, Fraction]


def token_str(token: Token) -> str:
    try:
        kind, idx = token
    except (TypeError, ValueError):
        raise IndexOutOfRange(f"{token!r} is not a (kind, index) token") from None
    if kind not in ("s", "e", "p"):
        raise IndexOutOfRange(f"bad generator kind {kind!r}")
    return f"{kind}_{_gen_index(idx)}"


def parse_token(text: str) -> Token:
    if not isinstance(text, str):
        raise IndexOutOfRange(f"generator token {text!r} is not a string")
    kind, _, idx = text.partition("_")
    if kind not in ("s", "e", "p") or not idx:
        raise IndexOutOfRange(f"bad generator token {text!r}")
    return (kind, _gen_index(idx))


def evaluate_word(word: Sequence[Token], double_rank: int) -> Diagram:
    """Monoid product of generator tokens, top to bottom; removed
    components are ignored."""
    result = identity_diagram(double_rank)
    try:
        tokens = [(kind, idx) for kind, idx in word]
    except (TypeError, ValueError):
        raise IndexOutOfRange(f"{word!r} is not a word of (kind, index) tokens") from None
    for kind, idx in tokens:
        result, _ = compose(result, generator(kind, idx, double_rank))
    return result


def enumerate_diagrams(double_rank: int) -> Iterator[Diagram]:
    """All diagrams of the rank, in restricted-growth-string order.

    Strings run over the vertex sequence 1,...,K,-1,...,-K; for
    half-integer rank, strings placing K and -K apart are skipped.
    """
    check("enumerate_diagrams", double_rank)
    return _enumerate(double_rank)


def _rg_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length n in lexicographic order, one
    for each set partition of n items."""

    def rg(prefix: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for label in range(top + 2):
            yield from rg(prefix + (label,), max(top, label))

    return rg((), -1)


def _enumerate(double_rank: int) -> Iterator[Diagram]:
    k2 = columns(double_rank)
    n = 2 * k2
    half = double_rank % 2 == 1
    for string in _rg_strings(n):
        if half and string[k2 - 1] != string[n - 1]:
            continue
        yield _diagram(double_rank, string)


def flip(d: Diagram) -> Diagram:
    """Top-bottom mirror: negates every vertex.  An involution."""
    k2 = columns(d.double_rank)
    return _relabeled(d.double_rank, d.labels[k2:] + d.labels[:k2])


def coarsens(d1: Diagram, d2: Diagram) -> bool:
    """True iff every block of d1 lies inside a block of d2."""
    if d1.double_rank != d2.double_rank:
        raise RankMismatch("ranks differ")
    return len(set(zip(d1.labels, d2.labels))) == d1.block_count


def _as_tuple(values, what: str) -> tuple:
    """tuple(values), or BadParams when values is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise BadParams(f"{what} {values!r} is not a sequence") from None


def _int_images(images) -> tuple[int, ...]:
    """The images as a tuple of ints (a bool is not one), else BadParams."""
    images = _as_tuple(images, "images")
    if any(type(v) is not int for v in images):
        raise BadParams("images are not ints")
    return images


def permutation_diagram(images: Sequence[int], double_rank: int) -> Diagram:
    """Diagram of the permutation sending top i to bottom images[i-1]."""
    return Diagram(double_rank, [[i, -v] for i, v in enumerate(_int_images(images), 1)])


def perm_word(images: Sequence[int]) -> list[Token]:
    """Adjacent-transposition word whose top-down evaluation is the
    permutation diagram of images (bubble sort emission order)."""
    arr = list(_int_images(images))
    if sorted(arr) != list(range(1, len(arr) + 1)):
        raise BadParams(f"images {images!r} are not a permutation of 1..{len(arr)}")
    word: list[Token] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(("s", Fraction(i + 1)))
                changed = True
    return word


def factorize(d: Diagram) -> list[Token]:
    """A generator word whose monoid evaluation equals d.

    Layout: blocks in canonical order get consecutive top columns and
    consecutive bottom columns, yielding permutations sigma1, sigma2
    around a planar core; the core is emitted as merge run, break run,
    propagating permutation, break run, merge run.  The word is
    deterministic but not length-minimal.
    """
    if d.double_rank % 2 == 1:
        raise NonIntegerRank("factorization needs an integer rank")
    k = d.double_rank // 2
    if k == 0:
        return []
    c1: dict[int, int] = {}
    c2: dict[int, int] = {}
    col = 1
    for block in d.blocks:
        for v in block:
            if v > 0:
                c1[v] = col
                col += 1
    col = 1
    for block in d.blocks:
        for v in block:
            if v < 0:
                c2[-v] = col
                col += 1
    sigma1 = [c1[i] for i in range(1, k + 1)]
    sigma2 = [0] * k
    for v, c in c2.items():
        sigma2[c - 1] = v

    merges_top: list[int] = []
    merges_bot: list[int] = []
    su: list[int] = []
    sl: list[int] = []
    for block in d.blocks:
        top = sorted(c1[v] for v in block if v > 0)
        bot = sorted(c2[-v] for v in block if v < 0)
        if top:
            merges_top.extend(range(top[0], top[-1]))
        if bot:
            merges_bot.extend(range(bot[0], bot[-1]))
        if top and bot:
            su.append(top[0])
            sl.append(bot[0])
    breaks_top = [j for j in range(1, k + 1) if j not in su]
    breaks_bot = [j for j in range(1, k + 1) if j not in sl]
    tau = [0] * k
    for a, b in zip(su, sl):
        tau[a - 1] = b
    for a, b in zip(breaks_top, breaks_bot):
        tau[a - 1] = b

    half = Fraction(1, 2)
    word = perm_word(sigma1)
    word += [("p", i + half) for i in sorted(merges_top)]
    word += [("p", Fraction(j)) for j in breaks_top]
    word += perm_word(tau)
    word += [("p", Fraction(j)) for j in breaks_bot]
    word += [("p", i + half) for i in sorted(merges_bot)]
    word += perm_word(sigma2)
    return word


def planar_to_tl(d: Diagram) -> Diagram:
    """Doubles a planar diagram into a planar pairing of twice the rank.

    Each column splits into a left and right boundary point; every
    block, read around the boundary cycle, contributes one strand from
    each member's outgoing side to the next member's incoming side.
    The map is a monoid isomorphism onto its image; on a diagram that is
    not planar it is no monoid map, so such a diagram raises BadParams.
    """
    if not is_planar(_checked_diagram(d)):
        raise BadParams(f"{d!r} is not planar")
    rings: list[list[int]] = [[] for _ in range(d.block_count)]
    for c, b in enumerate(_cycle(d)):
        rings[b].append(c)
    # cycle position c splits into the incoming point 2c and the
    # outgoing point 2c + 1 of the image's cycle; the strand leaving c
    # is named c, and the image has one column per vertex of d
    width = 2 * columns(d.double_rank)
    names = [0] * (2 * width)
    for ring in rings:
        for c, after in zip(ring, ring[1:] + ring[:1]):
            names[2 * c + 1] = names[2 * after] = c
    return _relabeled(2 * width, names[:width] + names[width:][::-1])


def _p_indices(double_rank: int) -> list[Fraction]:
    k2 = columns(double_rank)
    half = double_rank % 2 == 1
    top_j = k2 - (1 if half else 0)
    out = [Fraction(j) for j in range(1, top_j + 1)]
    out += [Fraction(2 * i + 1, 2) for i in range(1, k2)]
    return sorted(out)


def _generators(double_rank: int) -> dict[Token, Diagram]:
    """The generators s_i, e_i and p_a of the rank, by token.  With the
    identity, the s_i, p_i and p_{i+1/2} generate the monoid at every
    rank (the presentation theorem), so a property closed under
    products, such as commuting with an element, needs checking on
    these alone.

    >>> [token_str(t) for t in _generators(4)]
    ['s_1', 'e_1', 'p_1', 'p_3/2', 'p_2']
    """
    top = columns(double_rank) - double_rank % 2
    tokens = [(kind, Fraction(i)) for i in range(1, top) for kind in "se"]
    tokens += [("p", a) for a in _p_indices(double_rank)]
    return {(kind, i): generator(kind, i, double_rank) for kind, i in tokens}


def presentation_relations(double_rank: int) -> list[tuple[str, list[Token], list[Token]]]:
    """Defining and derived relation instances at the given rank.

    Each entry is (name, left word, right word); both sides must agree
    under monoid evaluation.  Covers idempotents and sandwich rules for
    the join and break families, symmetric-group relations, the seven
    mixed rules, and four consequences used downstream.
    partalg.limits caps the double rank.
    """
    k2 = columns(check("presentation", double_rank))
    half = double_rank % 2 == 1
    s_max = k2 - 1 - (1 if half else 0)
    ps = _p_indices(double_rank)
    hf = Fraction(1, 2)
    rels: list[tuple[str, list[Token], list[Token]]] = []

    def s(i) -> Token:
        return ("s", Fraction(i))

    def e(i) -> Token:
        return ("e", Fraction(i))

    def p(a) -> Token:
        return ("p", Fraction(a))

    for i in range(1, s_max + 1):
        rels.append((f"e_{i} idempotent", [e(i), e(i)], [e(i)]))
        rels.append((f"s_{i} involution", [s(i), s(i)], []))
        if i + 1 <= s_max:
            rels.append((f"e sandwich {i},{i + 1}", [e(i), e(i + 1), e(i)], [e(i)]))
            rels.append((f"e sandwich {i + 1},{i}", [e(i + 1), e(i), e(i + 1)], [e(i + 1)]))
            rels.append((f"braid {i}", [s(i), s(i + 1), s(i)], [s(i + 1), s(i), s(i + 1)]))
        for j in range(i + 2, s_max + 1):
            rels.append((f"e far {i},{j}", [e(i), e(j)], [e(j), e(i)]))
            rels.append((f"s far {i},{j}", [s(i), s(j)], [s(j), s(i)]))
    for a in ps:
        rels.append((f"p_{a} idempotent", [p(a), p(a)], [p(a)]))
        for b in ps:
            if abs(a - b) == hf:
                rels.append((f"p sandwich {a},{b}", [p(a), p(b), p(a)], [p(a)]))
            elif a < b:
                rels.append((f"p commute {a},{b}", [p(a), p(b)], [p(b), p(a)]))
    for i in range(1, s_max + 1):
        fi = Fraction(i)
        if fi + 1 in ps:
            rels.append((f"absorb left {i}", [s(i), p(i), p(i + 1)], [p(i), p(i + 1)]))
            rels.append((f"absorb right {i}", [p(i), p(i + 1), s(i)], [p(i), p(i + 1)]))
            rels.append((f"conjugate {i}", [s(i), p(i), s(i)], [p(i + 1)]))
            rels.append((f"push left {i}", [p(i), s(i), p(i)], [p(i + 1), p(i)]))
            rels.append((f"merge to cross {i}", [p(i), p(fi + hf), p(i + 1)], [p(i), s(i)]))
            rels.append((f"cross to merge {i}", [p(i + 1), p(fi + hf), p(i)], [s(i), p(i)]))
        if fi + hf in ps:
            rels.append((f"fix left {i}", [s(i), p(fi + hf)], [p(fi + hf)]))
            rels.append((f"fix right {i}", [p(fi + hf), s(i)], [p(fi + hf)]))
        if i + 1 <= s_max and fi + Fraction(3, 2) in ps:
            rels.append(
                (
                    f"shift merge {i}",
                    [s(i), s(i + 1), p(fi + hf), s(i + 1), s(i)],
                    [p(fi + Fraction(3, 2))],
                )
            )
        for a in ps:
            if a not in (fi - hf, fi, fi + hf, fi + 1, fi + Fraction(3, 2)):
                rels.append((f"s_{i} past p_{a}", [s(i), p(a)], [p(a), s(i)]))
    # uses s_{i-1} alone, so i runs to s_max + 1, where p_{i+1/2}
    # exists at a half-integer rank
    for i in range(2, s_max + 2):
        fi = Fraction(i)
        if fi + hf in ps:
            rels.append(
                (
                    f"double merge {i}",
                    [p(fi + hf), s(i - 1), p(fi + hf)],
                    [p(fi + hf), p(fi - hf)],
                )
            )
    return rels


def verify_presentation(double_rank: int) -> list[str]:
    """Names of relation instances that fail under monoid evaluation,
    each word composed over one table of the rank's generators;
    partalg.limits caps the double rank."""
    relations = presentation_relations(double_rank)
    table, unit = _generators(double_rank), identity_diagram(double_rank)

    def value(word: list[Token]) -> Diagram:
        return reduce(lambda d, token: compose(d, table[token])[0], word, unit)

    return [name for name, lhs, rhs in relations if value(lhs) is not value(rhs)]
