"""Central elements and the commuting family built from column collapses.

The building blocks are diagrams that collapse a chosen set of columns
into one block (``b_s``) and the splittings of that block into a top
and bottom part (``d_i``).  Signed half-sums of the splittings give
``p_s`` and ``p_tilde_s``.  The ``p_s`` assemble into the central
element ``Z`` at integer ranks; Z(k + 1/2) = eps_down(Z(k + 1)) - 1
above rank 1/2 (proved in ``Z``); and the differences of one ladder of
Z's give the commuting family ``M`` indexed by half-integer ranks.

``verify_murphy`` packages the runnable checks: generic pairwise
commutation, centrality of ``Z``, the tensor-action identity relating
``Z`` to the sum of transposition actions on labelings, and the joint
spectra of the family on labelings compared with box-content
predictions read off walks in the concrete branching graph, each joint
kernel refined over Z from that of its prefix.  Ranks 0 and 1/2 of
``Z`` are the identity, so M(1) = p_1 - 1 and the content value of
the first step, that of p_1, is lowered by 1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby
from operator import itemgetter, mul
from typing import Sequence

from .algebra import (
    AlgebraElement,
    diagram_element,
    element,
    embed,
    eps_down,
    multiply,
    one,
    specialize,
)
from .combinatorics import build_bratteli, hooks_and_contents, syt_dimension
from .diagrams import Diagram, _generators, _relabeled, columns, identity_diagram, vertex_universe
from .errors import BadParams, BadSubset
from .limits import check
from .linalg import null_space, rank as matrix_rank
from .scalars import Poly
from .symgroup import transposition
from .tensor import EndoMatrix, _side, phi, sym_tensor_matrix

__all__ = [
    "b_s",
    "d_i",
    "p_s",
    "p_tilde_s",
    "Z",
    "M",
    "murphy_family",
    "kappa_tensor_matrix",
    "verify_murphy",
]


def _check_columns(entry: str, double_rank: int, subset) -> tuple[int, ...]:
    """The sorted column set, once the double rank passes the
    partalg.limits entry: "diagram" for the single diagrams b_s and
    d_i, "murphy_family" for the sums p_s and p_tilde_s."""
    cols = columns(check(entry, double_rank))
    try:
        s = tuple(sorted({int(v) for v in subset}))
    except (TypeError, ValueError) as exc:
        raise BadSubset(f"bad column set {subset!r}") from exc
    if not s:
        raise BadSubset("column set is empty")
    if s[0] < 1 or s[-1] > cols:
        raise BadSubset(f"columns must lie in 1..{cols}")
    return s


def b_s(double_rank: int, subset) -> Diagram:
    """Diagram collapsing the chosen columns into a single block."""
    s = _check_columns("diagram", double_rank, subset)
    merged = frozenset(v for m in s for v in (m, -m))
    return _split(double_rank, merged, merged)


def d_i(double_rank: int, subset, chosen) -> Diagram:
    """Split the collapsed block of ``b_s`` into a chosen part and its
    complement.

    ``chosen`` lists signed vertices: positive for top rows, negative
    for bottom rows, drawn from the collapsed columns.  Both parts
    must be nonempty.
    """
    s = _check_columns("diagram", double_rank, subset)
    full = frozenset(v for m in s for v in (m, -m))
    try:
        inside = frozenset(int(v) for v in chosen)
    except (TypeError, ValueError) as exc:
        raise BadSubset(f"bad vertex set {chosen!r}") from exc
    if not inside <= full:
        raise BadSubset("split must use vertices of the collapsed columns")
    if not inside or inside == full:
        raise BadSubset("split must be proper and nonempty")
    comp = full - inside
    if double_rank % 2 == 1:
        cols = columns(double_rank)
        pair = {cols, -cols}
        if cols in s and not (pair <= inside or pair <= comp):
            raise BadSubset("last column pair must stay on one side")
    return _split(double_rank, full, inside)


def _split(double_rank: int, full: frozenset[int], inside: frozenset[int]) -> Diagram:
    """The block full of b_s split into inside and the rest, unchecked:
    label names 0 and -1 for the parts and the column for each strand."""
    universe = vertex_universe(double_rank)
    names = (0 if v in inside else -1 if v in full else abs(v) for v in universe)
    return _relabeled(double_rank, names)


def _split_sign(s: tuple[int, ...], inside: frozenset[int]) -> int:
    whole = sum(
        1 for m in s if (m in inside) == (-m in inside)
    )
    return -1 if whole % 2 else 1


def _half_sum(double_rank: int, s: tuple[int, ...], admissible) -> AlgebraElement:
    vertices = [v for m in s for v in (m, -m)]
    full = frozenset(vertices)
    pairs = []
    for r in range(1, len(vertices)):
        for inside in map(frozenset, combinations(vertices, r)):
            if admissible(inside, full - inside):
                sign = _split_sign(s, inside)
                pairs.append((_split(double_rank, full, inside), Fraction(sign, 2)))
    return element(double_rank, pairs)


def p_s(double_rank: int, subset) -> AlgebraElement:
    """Signed half-sum of the proper splits of the collapsed block,
    leaving out the splits that merely drop one column.  Generic
    coefficients; every diagram ends up with an integer weight because
    a split and its complement give the same diagram.
    """
    s = _check_columns("murphy_family", double_rank, subset)
    if double_rank % 2 == 1 and columns(double_rank) in s:
        raise BadSubset("last column of a half rank needs the pinned variant")
    pairs = [frozenset({m, -m}) for m in s]

    def admissible(inside, comp):
        return inside not in pairs and comp not in pairs

    return _half_sum(double_rank, s, admissible)


def p_tilde_s(double_rank: int, subset) -> AlgebraElement:
    """Variant of ``p_s`` for half ranks whose subset contains the last
    column: splits must keep the last column pair on one side, and the
    splits that merely drop one of the other columns are left out.  The
    split cutting off the last column pair itself stays in.
    """
    s = _check_columns("murphy_family", double_rank, subset)
    if double_rank % 2 == 0:
        raise BadSubset("pinned variant is defined at half ranks only")
    cols = columns(double_rank)
    if cols not in s:
        raise BadSubset("subset must contain the last column")
    pair = frozenset({cols, -cols})
    pairs = [frozenset({m, -m}) for m in s if m != cols]

    def admissible(inside, comp):
        if not (pair <= inside or pair <= comp):
            return False
        return inside not in pairs and comp not in pairs

    return _half_sum(double_rank, s, admissible)


def Z(double_rank: int) -> AlgebraElement:
    """Central element at the given rank, with generic coefficients.

    Ranks 0 and 1/2 are set to the identity.  At integer rank k it is a
    constant plus the ``p_s`` over all nonempty column sets plus
    weighted collapses, and acts on the tensor power V^k as the sum of
    the transpositions of S_n plus kn - n(n-1)/2.  At half rank
    k + 1/2 > 1/2 it is eps_down(Z(k + 1)) - 1: eps_down cuts the action
    on V^(k+1) down to the labelings ending in n, keeping the
    transpositions that fix n, which is the action of Z(k + 1/2) (shift
    (k + 1)n - 1 - n(n-1)/2) plus 1; the action is faithful on
    A_{k+1/2}(n) for n >= 2k + 1, so the polynomial coefficients agree.

    >>> len(Z(5).num), len(Z(7).num)
    (29, 162)
    """
    check("murphy_family", double_rank)
    if double_rank <= 1:
        return one(double_rank)
    if double_rank % 2:
        return eps_down(Z(double_rank + 1)) - one(double_rank)
    x = Poly.x()
    k = double_rank // 2
    pairs = [(identity_diagram(double_rank), Fraction(k * (k - 1), 2))]
    for m in range(1, k + 1):
        for s in combinations(range(1, k + 1), m):
            pairs += p_s(double_rank, s).terms.items()
            if m >= 2:
                coeff = (x - Poly.const(k - m)) * Fraction(-1 if m % 2 else 1)
                pairs.append((b_s(double_rank, s), coeff))
    return element(double_rank, pairs)


def _ladder(double_rank: int) -> list[AlgebraElement]:
    """Z at double ranks 0, ..., double_rank, each built once: the
    integer ranks by ``Z``, each half rank above 1/2 by ``eps_down`` of
    the next integer rank, so an odd top builds Z one half step above."""
    zs = [one(0), one(1)]
    for r in range(2, double_rank + 2, 2):
        z = Z(r)
        zs += [eps_down(z) - one(r - 1), z] if r > 2 else [z]
    return zs[: double_rank + 1]


def _family(zs: list[AlgebraElement]) -> list[tuple[Fraction, AlgebraElement]]:
    """The family members at double ranks 1, ..., top from the ladder
    of Z at double ranks 0, ..., top, embedded at the top, as (rank,
    element) pairs."""
    top = len(zs) - 1
    return [
        (Fraction(r, 2), embed(zs[r] - embed(zs[r - 1], r) if r > 1 else one(1), top))
        for r in range(1, top + 1)
    ]


def M(double_rank: int) -> AlgebraElement:
    """Member of the commuting family: the difference of consecutive
    central elements, with the two lowest ranks set to the identity."""
    check("murphy_family", double_rank)
    if double_rank <= 1:
        return one(double_rank)
    return _family(_ladder(double_rank))[-1][1]


def murphy_family(double_rank: int) -> list[tuple[Fraction, AlgebraElement]]:
    """All family members up to the given rank, embedded at that rank,
    as (rank, element) pairs."""
    return _family(_ladder(check("murphy_family", double_rank)))


def kappa_tensor_matrix(n: int, slots: int, *, fixed_last: bool = False) -> EndoMatrix:
    """Sum of all transposition actions on labelings, applied to every
    slot at once.  ``fixed_last`` keeps only transpositions avoiding
    the largest label."""
    _side(n, slots)
    top = n - 1 if fixed_last else n
    total = EndoMatrix.zero(n, slots)
    for a in range(1, top + 1):
        for b in range(a + 1, top + 1):
            total = total + sym_tensor_matrix(transposition(a, b, n).images, n, slots)
    return total


def _joint_nullities(mats: Sequence[EndoMatrix], keys) -> dict[tuple[int, ...], int]:
    """Common kernel dimension of the shifts m_i - t_i for each tuple t
    of keys (see _spectra_report); B as rows, None for the whole space."""
    sparse = [[[(j, v) for j, v in enumerate(row) if v] for row in m.num] for m in mats]
    nullity = dict.fromkeys(keys, 0)

    def refine(level, basis, group):
        for t, below in groupby(group, itemgetter(level)):
            shift = t * mats[level].den
            if basis is None:
                w = [[v - shift if i == j else v for j, v in enumerate(row)]
                     for i, row in enumerate(mats[level].num)]
            else:  # summed over the nonzero entries of num
                w = []
                for b, row in zip(basis, sparse[level]):
                    acc = [-shift * x for x in b]
                    for j, v in row:
                        acc = [a + v * x for a, x in zip(acc, basis[j])]
                    w.append(acc)
            if level == len(mats) - 1:
                nullity[next(below)] = len(w[0]) - matrix_rank(w)
            elif kernel := null_space(w):
                if basis is not None:
                    kernel = [[sum(map(mul, b, c)) for b in basis] for c in kernel]
                refine(level + 1, list(zip(*kernel)), below)

    refine(0, None, sorted(keys))
    return nullity


def _step_value(prev, cur, n: int) -> int:
    """Predicted family eigenvalue for one walk step of the concrete
    graph: c + 1 when the step adds a box of content c, n - 1 - c when
    it removes one."""
    change = sum(hooks_and_contents(cur)[1]) - sum(hooks_and_contents(prev)[1])
    return change + 1 if sum(cur) > sum(prev) else n - 1 + change


def _spectra_report(family, double_rank: int, n: int) -> dict:
    """Joint spectra of M(1), ..., M(double_rank/2) on the labelings of
    n**k slots against the walks of the concrete graph at n.

    Each walk predicts one tuple, the content values of its steps after
    the first half step (M(1/2) is the identity), with the first value
    lowered by 1 because M(1) = p_1 - 1; the tuple's multiplicity is
    the number of its walks times dim S^lam at their end.  Joint kernels
    of distinct tuples are independent, so when each predicted kernel
    has the predicted dimension and these add up to n**k, the kernels
    span the whole space and no eigenvalue is left unchecked.

    One walk over the prefix tree of the sorted tuples refines an integer
    basis B of each prefix's joint kernel by the null space of W = (num -
    t den) B, t the next value: exact over Z, with no matrix assumed
    diagonalizable, so each value is the dimension of the meet of the
    ker(M_i - t_i).  An empty kernel ends its branch at 0.
    """
    side = n ** (double_rank // 2)
    graph = build_bratteli("concrete", double_rank, n)
    predicted: Counter[tuple[int, ...]] = Counter()
    for vertex in graph.levels[double_rank]:
        for walk in graph.paths(double_rank, vertex):
            key = tuple(
                _step_value(walk[r - 1], walk[r], n) - (1 if r == 2 else 0)
                for r in range(2, double_rank + 1)
            )
            predicted[key] += syt_dimension(vertex)

    stack = [phi(specialize(elem, n), n) for _, elem in family[1:]]
    measured = _joint_nullities(stack, predicted)
    tuples = [
        {"values": list(key), "predicted": count, "measured": dim, "ok": dim == count}
        for key, count in sorted(predicted.items())
        for dim in [measured[key]]
    ]
    ok = all(t["ok"] for t in tuples) and sum(t["measured"] for t in tuples) == side
    return {"n": n, "side": side, "tuples": tuples, "ok": ok}


def verify_murphy(double_rank: int, n_witnesses: Sequence[int]) -> dict:
    """Run the family checks at the given rank and return a report.

    Covers pairwise commutation with generic coefficients, centrality
    of the central element at every rank up to the given one (on
    diagrams._generators, which generate the algebra), the tensor-action
    identity against transposition sums for each witness, and the
    joint spectra of the family on labelings against the box-content
    predictions of ``_spectra_report``.  Z is built once per rank, on
    one ladder with the family.  Raises LimitExceeded, before any
    work, when a witness's tensor side at this rank or the sum of the
    witnesses is over its cap, so every witness is checked in full.

    >>> verify_murphy(4, [3])["ok"]
    True
    """
    if check("verify_murphy", double_rank) < 2:
        raise BadParams("need double rank at least 2")
    try:
        n_witnesses = list(n_witnesses)
    except TypeError:
        raise BadParams(f"witnesses must be a list of n, not {n_witnesses!r}") from None
    for n in n_witnesses:
        _side(n, double_rank // 2)
    check("verify_murphy_witnesses", sum(n_witnesses))

    zs = _ladder(double_rank)
    family = _family(zs)
    commuting = {"pairs": 0, "failures": []}
    for (ra, ma), (rb, mb) in combinations(family, 2):
        commuting["pairs"] += 1
        if multiply(ma, mb) != multiply(mb, ma):
            commuting["failures"].append(f"[M_{ra}, M_{rb}]")

    centrality = {"checked": 0, "failures": []}
    for r in range(2, double_rank + 1):
        for d in _generators(r).values():
            g = diagram_element(d)
            centrality["checked"] += 1
            if multiply(zs[r], g) != multiply(g, zs[r]):
                centrality["failures"].append(f"[Z at {Fraction(r, 2)}, {d.blocks}]")

    tensor_identity = []
    for n in n_witnesses:
        for r in range(2, double_rank + 1):
            slots, half = divmod(r, 2)
            mat = phi(specialize(zs[r], n), n)
            shift = (slots + half) * n - half - n * (n - 1) // 2
            expected = kappa_tensor_matrix(n, slots, fixed_last=bool(half))
            expected = expected + EndoMatrix.identity(n, slots).scale(shift)
            tensor_identity.append(
                {"n": n, "double_rank": r, "ok": mat == expected}
            )
    spectra = [_spectra_report(family, double_rank, n) for n in n_witnesses]

    ok = (
        not commuting["failures"]
        and not centrality["failures"]
        and all(item["ok"] for item in tensor_identity)
        and all(item["ok"] for item in spectra)
        and bool(tensor_identity)
    )
    return {
        "double_rank": double_rank,
        "witnesses": list(n_witnesses),
        "commuting": commuting,
        "centrality": centrality,
        "tensor_identity": tensor_identity,
        "spectra": spectra,
        "ok": ok,
    }
