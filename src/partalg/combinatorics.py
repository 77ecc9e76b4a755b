"""Integer partitions, counting sequences, and the two level graphs.

The abstract graph interleaves integer and half-integer levels: going
down to a half level removes a box or keeps the partition, coming back
up adds a box or keeps it.  The concrete graph at parameter n carries
partitions of n on integer levels and of n-1 on half levels, and its
edges strictly remove or add one box.  Path counts from the root give
module dimensions, so both graphs memoize their walks.
"""

from __future__ import annotations

from math import comb, factorial, prod
from operator import index

from .errors import BadParams, VertexNotFound
from .limits import _nonnegative, check

__all__ = [
    "Partition",
    "counting",
    "partitions_of",
    "boxes_added",
    "boxes_removed",
    "strip_first_row",
    "attach_first_row",
    "hooks_and_contents",
    "syt_dimension",
    "BratteliGraph",
    "build_bratteli",
]

Partition = tuple[int, ...]


def counting(kind: str, m: int) -> int:
    """Exact values of the four counting sequences."""
    _nonnegative("counting", m)
    if kind == "bell":
        # Bell triangle: each row starts with the previous row's last entry
        row = [1]
        for _ in range(m):
            nxt = [row[-1]]
            for value in row:
                nxt.append(nxt[-1] + value)
            row = nxt
        return row[0]
    if kind == "catalan":
        return comb(2 * m, m) // (m + 1)
    if kind == "odd_double_factorial":
        out = 1
        for j in range(1, 2 * m, 2):
            out *= j
        return out
    if kind == "factorial":
        return factorial(m)
    raise BadParams(f"unknown counting kind {kind!r}")


def _validate(lam) -> Partition:
    try:
        raw = tuple(lam)
        parts = tuple(index(p) for p in raw)
    except TypeError:
        raise BadParams(f"{lam!r} is not a partition") from None
    if (
        any(isinstance(p, bool) for p in raw)
        or any(p <= 0 for p in parts)
        or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1))
    ):
        raise BadParams(f"{lam!r} is not a partition")
    return parts


def partitions_of(m: int) -> list[Partition]:
    """All partitions of m, descending lexicographic order."""
    _nonnegative("partitions_of", m)
    out: list[Partition] = []

    def grow(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            grow(prefix, remaining - part, part)
            prefix.pop()

    grow([], m, m)
    return out


def boxes_added(lam) -> list[Partition]:
    """Partitions obtained by adding one box, top row first."""
    parts = _validate(lam)
    out = []
    for i in range(len(parts) + 1):
        if i == 0 or (i < len(parts) and parts[i] < parts[i - 1]) or (
            i == len(parts) and (not parts or parts[-1] >= 1)
        ):
            if i == len(parts):
                out.append(parts + (1,))
            else:
                out.append(parts[:i] + (parts[i] + 1,) + parts[i + 1 :])
    return out


def boxes_removed(lam) -> list[Partition]:
    """Partitions obtained by removing one box, top row first."""
    parts = _validate(lam)
    out = []
    for i in range(len(parts)):
        if i == len(parts) - 1 or parts[i] > parts[i + 1]:
            shrunk = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
            out.append(tuple(p for p in shrunk if p > 0))
    return out


def strip_first_row(lam) -> Partition:
    """Drops the first row: (6,3,1) -> (3,1)."""
    return _validate(lam)[1:]


def attach_first_row(mu, n: int) -> Partition:
    """Inverse of strip_first_row at total size n; defined only when the
    new first row n - |mu| is at least mu_1."""
    parts = _validate(mu)
    first = _nonnegative("attach_first_row", n) - sum(parts)
    if parts and first < parts[0]:
        raise BadParams(f"cannot put first row {first} above {parts}")
    if first < 0:
        raise BadParams(f"partition {parts} larger than n={n}")
    return (first,) + parts if first > 0 else parts


def hooks_and_contents(lam) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Hook lengths and contents j - i over the boxes, each sorted.
    The box count is capped by the hook_boxes entry of partalg.limits."""
    parts = _validate(lam)
    check("hook_boxes", sum(parts))
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    hooks = []
    contents = []
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            hooks.append((p - j) + (conj[j - 1] - i) + 1)
            contents.append(j - i)
    return tuple(sorted(hooks)), tuple(sorted(contents))


def syt_dimension(lam) -> int:
    """Number of standard fillings, by the hook length formula; the
    box count is capped as in hooks_and_contents."""
    parts = _validate(lam)
    hooks, _ = hooks_and_contents(parts)
    return factorial(sum(parts)) // prod(hooks)


class BratteliGraph:
    """Leveled graph with memoized path enumeration from the root.

    levels[t] is the vertex tuple at double level t (level t/2);
    edges[t] joins level t to t+1 as (source index, target index)
    pairs.
    """

    __slots__ = ("kind", "n", "levels", "edges", "_paths")

    def __init__(self, kind: str, n: int | None, levels, edges):
        self.kind = kind
        self.n = n
        self.levels = tuple(tuple(level) for level in levels)
        self.edges = tuple(tuple(es) for es in edges)
        self._paths: dict[tuple[int, int], tuple] = {}

    def vertex_index(self, double_level: int, vertex) -> int:
        if not _nonnegative("vertex_index", double_level) < len(self.levels):
            raise VertexNotFound(f"no level {double_level}/2")
        try:
            return self.levels[double_level].index(tuple(vertex))
        except (TypeError, ValueError):
            raise VertexNotFound(f"{vertex!r} not at level {double_level}/2") from None

    def paths(self, double_level: int, vertex) -> tuple:
        """All root-to-vertex walks, as tuples of partitions."""
        target = self.vertex_index(double_level, vertex)
        return self._paths_to(double_level, target)

    def _paths_to(self, t: int, idx: int) -> tuple:
        key = (t, idx)
        hit = self._paths.get(key)
        if hit is not None:
            return hit
        vertex = self.levels[t][idx]
        if t == 0:
            result = ((vertex,),)
        else:
            result = tuple(
                walk + (vertex,)
                for src, dst in self.edges[t - 1]
                if dst == idx
                for walk in self._paths_to(t - 1, src)
            )
        self._paths[key] = result
        return result

    def path_count(self, double_level: int, vertex) -> int:
        return len(self.paths(double_level, vertex))


def build_bratteli(kind: str, double_rank: int, n: int | None = None) -> BratteliGraph:
    """Builds the abstract or concrete graph up to level double_rank/2.

    Levels grow by reachability from the root: abstract edges keep the
    partition or remove/add a box depending on direction; concrete
    edges always remove (down to a half level) or add (up from one).
    """
    _nonnegative("build_bratteli", double_rank)
    if kind == "abstract":
        root: Partition = ()
    elif kind == "concrete":
        if n is None or _nonnegative("build_bratteli", n) < 1:
            raise BadParams("concrete graph needs n >= 1")
        root = (n,)
    else:
        raise BadParams(f"unknown graph kind {kind!r}")

    levels: list[list[Partition]] = [[root]]
    edges: list[list[tuple[int, int]]] = []
    for t in range(double_rank):
        down = t % 2 == 0  # integer level to half level
        nxt: list[Partition] = []
        seen: dict[Partition, int] = {}
        level_edges: list[tuple[int, int]] = []
        for src, vertex in enumerate(levels[-1]):
            targets = boxes_removed(vertex) if down else boxes_added(vertex)
            if kind == "abstract":
                targets = [vertex] + targets
            for target in targets:
                idx = seen.get(target)
                if idx is None:
                    idx = len(nxt)
                    seen[target] = idx
                    nxt.append(target)
                level_edges.append((src, idx))
        levels.append(nxt)
        edges.append(level_edges)
    return BratteliGraph(kind, n, levels, edges)
