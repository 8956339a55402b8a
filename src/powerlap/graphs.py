"""Undirected simple graphs, power graphs, twin partitions and connectivity.

Adjacency is stored as one Python-int bitmask per vertex, which keeps
membership tests O(1) and whole-row operations cheap at desk scale
(a few thousand vertices).  A power graph's twin partition comes from
its group's cyclic-subgroup lattice (Z_n's from the divisors of n, any
other group's from one power walk), with no graph built, and no command
builds one: `Graph` and its builders remain as test oracles and for the
benchmark's tracer, which binds them by name.  `power_graph` reads the
same lattice: two elements are joined when their cyclic subgroups are
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, filterfalse
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .groups import FiniteGroup, _bits, cyclic_group

__all__ = [
    "Graph",
    "CutCertificate",
    "TwinPartition",
    "power_graph",
    "proper_power_graph",
    "reduced_cyclic_graph",
    "components",
    "complement",
    "induced_subgraph",
    "vertex_connectivity",
    "twin_partition",
]


def _rows_to_bitmatrix(rows: Sequence[int], n: int) -> np.ndarray:
    """Bitmask rows as an n x n boolean matrix (C-speed bulk conversion)."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(n, nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")[:, :n]


def _bitmatrix_to_rows(mat: np.ndarray) -> list[int]:
    n = mat.shape[0]
    if n == 0:
        return []
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(packed[v].tobytes(), "little") for v in range(n)]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``rows[v]`` is the neighbor bitmask of v (bit u set iff u ~ v).
    Symmetric and irreflexive by construction; validated on creation.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count must equal vertex count")
        for v, row in enumerate(self.rows):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {v} references vertices outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        mat = _rows_to_bitmatrix(self.rows, self.n)
        if not np.array_equal(mat, mat.T):
            v, u = np.argwhere(mat != mat.T)[0]
            raise ValueError(f"adjacency not symmetric at ({int(v)}, {int(u)})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            out.extend((v, v + 1 + u) for u in _bits(self.rows[v] >> (v + 1)))
        return out


@dataclass(frozen=True)
class CutCertificate:
    """A minimum separating set: its size and one witnessing vertex set."""

    size: int
    separating_set: tuple[int, ...]


# ---------------------------------------------------------------------------
# power-graph constructions


def power_graph(g: FiniteGroup) -> Graph:
    """Power graph: u ~ v iff u != v and one generates a subgroup containing
    the other.  A vertex is joined to the generators of every cyclic
    subgroup comparable with its own, read from the lattice's closed keys."""
    members, below = g.cyclic_subgroups()
    spans = [sum(1 << x for x in atom) for atom in members]
    rows = [0] * g.order
    for atom, key in zip(members, _closed_keys(below)):
        row = 0
        for b in _bits(key):
            row |= spans[b]
        for x in atom:
            rows[x] = row ^ (1 << x)
    return Graph(g.order, tuple(rows))


def proper_power_graph(g: FiniteGroup) -> Graph:
    """Power graph with the identity vertex removed."""
    if g.order < 2:
        raise ValueError("proper power graph requires a group of order >= 2")
    pg = power_graph(g)
    keep = [v for v in range(g.order) if v != g.identity]
    return induced_subgraph(pg, keep)


def reduced_cyclic_graph(n: int) -> Graph:
    """Power graph of Z_n with the identity and all generators removed.

    For prime n every vertex is removed and the empty graph is returned;
    callers should treat that as the degenerate case, not an error.
    """
    if n < 2:
        raise ValueError(f"reduced_cyclic_graph requires n >= 2, got {n}")
    g = cyclic_group(n)
    pg = power_graph(g)
    keep = [v for v in range(1, n) if math.gcd(v, n) != 1]
    return induced_subgraph(pg, keep)


# ---------------------------------------------------------------------------
# combinatorial queries


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
        seen |= comp
        out.append(_bits(comp))
    return out


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full ^ g.rows[v]) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, rows)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by the given vertex set, relabeled 0..k-1 in sorted order."""
    verts = sorted(set(vertices))
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"unknown vertex {v}")
    mat = _rows_to_bitmatrix(g.rows, g.n)
    rows = _bitmatrix_to_rows(mat[np.ix_(verts, verts)])
    return Graph(len(verts), tuple(rows))


# ---------------------------------------------------------------------------
# twin classes (identical neighborhoods)


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertices into twin classes.

    Each class is either a clique of vertices sharing a closed
    neighborhood or an independent set sharing an open neighborhood.
    Cross-class adjacency is all-or-nothing, so the quotient carries the
    full structure: ``counts[i][j]`` is how many neighbors a vertex of
    class i has inside class j (within-class count on the diagonal).
    A degree is a row sum, and a class of two or more vertices is a
    clique iff its within count is nonzero.
    """

    classes: tuple[tuple[int, ...], ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def n(self) -> int:
        """Vertex count of the partitioned graph."""
        return sum(len(c) for c in self.classes)

    def class_size(self, i: int) -> int:
        return len(self.classes[i])

    def without(self, vertices: Iterable[int]) -> "TwinPartition":
        """Twin partition of the graph with ``vertices`` removed.

        Every class keeps its other vertices, their numbers and its place
        in the order; a class left empty is dropped.  A class that loses
        vertices is still a clique or an independent set, joined to the
        same classes as before, so each count becomes the new size of the
        class it counts, less one on the diagonal of a clique.  Two
        classes can become twins of each other, so the result need not
        be the coarsest partition; it is when only universal vertices are
        removed, because every vertex left was joined to all of them.
        """
        gone = set(vertices)
        kept = [tuple(filterfalse(gone.__contains__, c)) for c in self.classes]
        live = [i for i, c in enumerate(kept) if c]
        return TwinPartition(
            classes=tuple(kept[i] for i in live),
            counts=tuple(tuple(len(kept[j]) - (i == j) if self.counts[i][j] else 0 for j in live)
                         for i in live),
        )


def _twin_quotient(members: Sequence[Sequence[int]], closed: Sequence[int]) -> TwinPartition:
    """Twin partition from atoms: ``members[a]``, ascending, are closed twins,
    and ``closed[a]`` is the bitmask of the atoms joined to a, a included.
    Atoms sharing a closed key form a class; a lone one-vertex atom is
    grouped by open key instead.  Classes are ordered by smallest member.
    Row i is read from the closed bits of one atom a of class i, one class
    at a time: a class j != i is joined to all of a or to none of it, so
    the lowest bit left names the next class joined to a, whose whole
    mask is then cleared.  The diagonal is the weight of class i inside
    a's closed bits, less a itself: the whole class for closed twins, a
    alone for open ones."""
    by_closed: dict[int, list[int]] = {}
    for a, key in enumerate(closed):
        by_closed.setdefault(key, []).append(a)
    groups: list[list[int]] = []
    by_open: dict[int, list[int]] = {}
    for a, *more in by_closed.values():
        if more or len(members[a]) > 1:
            groups.append([a, *more])
        else:
            by_open.setdefault(closed[a] ^ (1 << a), []).append(a)
    groups.extend(by_open.values())
    groups.sort(key=lambda atoms: min(members[a][0] for a in atoms))
    class_of: dict[int, int] = {}
    masks: list[int] = []
    sizes: list[int] = []
    for i, atoms in enumerate(groups):
        mask = size = 0
        for a in atoms:
            class_of[a] = i
            mask |= 1 << a
            size += len(members[a])
        masks.append(mask)
        sizes.append(size)
    counts = []
    for i, atoms in enumerate(groups):
        a = atoms[0]
        row = [0] * len(groups)
        rest = closed[a]
        while rest:
            j = class_of[(rest & -rest).bit_length() - 1]
            row[j] = sizes[j]
            rest ^= rest & masks[j]
        row[i] = (sizes[i] if (closed[a] & masks[i]) != 1 << a else len(members[a])) - 1
        counts.append(tuple(row))
    return TwinPartition(
        classes=tuple(tuple(sorted(v for a in atoms for v in members[a])) for atoms in groups),
        counts=tuple(counts),
    )


def twin_partition(g: Graph | FiniteGroup) -> TwinPartition:
    """Group vertices with identical closed or open neighborhoods.  A group
    gives its power graph's partition without the graph: the generators of
    each cyclic subgroup are a clique of closed twins, joined to another
    subgroup's when either subgroup contains the other."""
    if isinstance(g, Graph):
        return _twin_quotient([[v] for v in range(g.n)],
                              [row | (1 << v) for v, row in enumerate(g.rows)])
    members, below = g.cyclic_subgroups()
    return _twin_quotient(members, _closed_keys(below))


def _closed_keys(below: Sequence[int]) -> list[int]:
    """Each cyclic subgroup's closed key: the bitmask of the subgroups
    below it or above it, itself included."""
    closed = list(below)
    for a, mask in enumerate(below):
        for b in _bits(mask):
            closed[b] |= 1 << a
    return closed


# ---------------------------------------------------------------------------
# vertex connectivity


def vertex_connectivity(g: Graph | TwinPartition) -> CutCertificate:
    """Exact vertex connectivity with a witnessing minimum separating set.

    Takes a graph or its twin partition; only the partition is read.
    Complete graphs get n-1 by convention (removal down to the trivial
    graph: every vertex but the largest); disconnected, trivial and
    empty graphs get 0.  Otherwise the universal vertices U are peeled
    first: each lies in every separating set, so kappa(G) = |U| +
    kappa(G - U) and the witness is U plus one of G - U, and when G - U
    is disconnected U itself is the minimum cut and no flow runs.  That
    is every non-cyclic p-group, where U is the identity, or the
    identity and the involution in a generalized quaternion group.  The
    rest is `_separate` on the twin quotient of G - U, which
    `TwinPartition.without` gives with no vertex renumbered.
    """
    tp = g if isinstance(g, TwinPartition) else twin_partition(g)
    n = tp.n
    if n <= 1:
        return CutCertificate(0, ())
    degrees = [sum(row) for row in tp.counts]
    peeled = tuple(sorted(v for c, d in zip(tp.classes, degrees) if d == n - 1 for v in c))
    if len(peeled) == n:
        return CutCertificate(n - 1, peeled[:-1])
    rest = [i for i, d in enumerate(degrees) if d < n - 1]
    if not _classes_connected(tp, rest):
        return CutCertificate(len(peeled), peeled)
    if peeled:
        tp = tp.without(peeled)
    cut = _separate(tp)
    return CutCertificate(len(peeled) + cut.size, tuple(sorted(peeled + cut.separating_set)))


def _classes_connected(tp: TwinPartition, keep: Sequence[int]) -> bool:
    """Whether the classes ``keep``, one or more, induce a connected graph.
    One class does iff it is a clique or a single vertex; with more, every
    vertex is joined to all of each class adjacent to its own, so the
    induced graph is connected iff its quotient is."""
    if len(keep) == 1:
        return tp.class_size(keep[0]) == 1 or tp.counts[keep[0]][keep[0]] > 0
    return len(next(_quotient_components(tp.counts, keep))) == len(keep)


def _quotient_components(counts: Sequence[Sequence[int]], keep: Sequence[int]) -> Iterator[list[int]]:
    """Components of the quotient on the classes ``keep``, where classes i
    and j are joined when ``counts[i][j]`` is nonzero, found one at a time.
    Each component lists its classes ascending; components come in order
    of their first class in ``keep``."""
    if len(keep) < 2:
        yield from ([i] for i in keep)
        return
    inside = itemgetter(*keep)
    seen = set()
    for start in keep:
        if start in seen:
            continue
        seen.add(start)
        reached = [start]
        for i in reached:
            for j in compress(keep, inside(counts[i])):
                if j not in seen:
                    seen.add(j)
                    reached.append(j)
        yield sorted(reached)


def _separate(tp: TwinPartition) -> CutCertificate:
    """Minimum separating set of a connected graph with two or more twin
    classes and no universal vertex, from its twin partition.

    The value is the Menger minimum over non-adjacent vertex pairs,
    computed as a vertex-capacitated max-flow on the twin quotient; the
    split network of the quotient is built once, and each class pair
    only resets its capacities.  Classes can stand in for their vertices
    because every minimum separating set S is a union of whole twin
    classes: if S held x but not its twin y, then x, put back, would
    join only y's component of G - S (x and y share their neighbours
    outside S), so S - x would separate too.  Hence once the source
    classes scanned so far hold more than `best` >= kappa vertices, one
    of them avoids some minimum cut S; its flow to a class beyond S, or
    the independent-set step when S holds its whole neighbourhood, has
    already found kappa, and the scan stops.  A minimum cut between two
    classes is symmetric, so each unordered pair is flowed once.
    """
    m = tp.size
    best: Optional[int] = None
    best_witness: tuple[int, ...] = ()
    degrees = [sum(row) for row in tp.counts]

    # non-adjacent pair inside one independent-set class: the shared
    # open neighborhood is the unique minimum cut for that pair
    for i in range(m):
        if tp.class_size(i) >= 2 and not tp.counts[i][i]:
            if best is None or degrees[i] < best:
                best = degrees[i]
                best_witness = tuple(sorted(
                    v for j, c in enumerate(tp.counts[i]) if c for v in tp.classes[j]
                ))

    network = _SplitNetwork(tp)
    order = sorted(range(m), key=lambda i: degrees[i])
    done = [False] * m
    scanned = 0
    for src in order:
        if best is not None and scanned > best:
            break
        row = tp.counts[src]
        for dst in range(m):
            if dst == src or done[dst] or row[dst]:
                continue
            value, cut_classes = network.min_cut(src, dst, best)
            if value is not None and (best is None or value < best):
                best = value
                witness: list[int] = []
                for c in cut_classes:
                    witness.extend(tp.classes[c])
                best_witness = tuple(sorted(witness))
        done[src] = True
        scanned += tp.class_size(src)
    assert best is not None  # non-complete connected graph has a cut
    return CutCertificate(best, best_witness)


_INF = 1 << 40


class _SplitNetwork:
    """Vertex-split flow network of a twin quotient, built once.

    Class i becomes the in-node 2i and the out-node 2i+1, joined by arc
    2i of capacity |class i|; each adjacent class pair (i, j) gives an
    uncapacitated arc from out(i) to in(j).  Arcs are stored flat, and
    arc a ^ 1 is the reverse of arc a, with zero capacity.
    """

    def __init__(self, tp: TwinPartition):
        m = tp.size
        self.m = m
        self.head: list[int] = []
        self.cap: list[int] = []
        self.arcs: list[list[int]] = [[] for _ in range(2 * m)]
        for i in range(m):
            self._add(2 * i, 2 * i + 1, tp.class_size(i))
        for i, row in enumerate(tp.counts):
            for j in range(m):
                if j != i and row[j]:
                    self._add(2 * i + 1, 2 * j, _INF)

    def _add(self, x: int, y: int, cap: int) -> None:
        a = len(self.head)
        self.head += (y, x)
        self.cap += (cap, 0)
        self.arcs[x].append(a)
        self.arcs[y].append(a + 1)

    def min_cut(self, src: int, dst: int, cap_limit: Optional[int]):
        """Min vertex-capacitated cut separating class src from class dst.

        Edmonds-Karp from out(src) to in(dst), with the split arcs of src
        and dst made uncapacitated.  Aborts and returns (None, ()) once
        the flow reaches cap_limit, since it can no longer improve on the
        best cut already known.  The cut is the classes whose in-node is
        reachable in the final residual network and whose out-node is not.
        """
        head, arcs = self.head, self.arcs
        cap = self.cap.copy()
        cap[2 * src] = cap[2 * dst] = _INF
        s, t = 2 * src + 1, 2 * dst
        nodes = 2 * self.m
        total = 0
        while True:
            if cap_limit is not None and total >= cap_limit:
                return None, ()
            # via[y]: the arc that first reached y; -1 unreached, -2 for s
            via = [-1] * nodes
            via[s] = -2
            queue = [s]
            for x in queue:
                for a in arcs[x]:
                    y = head[a]
                    if via[y] == -1 and cap[a] > 0:
                        via[y] = a
                        queue.append(y)
                if via[t] != -1:
                    break
            else:
                # t unreachable: via now marks the residual-reachable set
                cut = tuple(
                    i for i in range(self.m)
                    if via[2 * i] != -1 and via[2 * i + 1] == -1
                )
                return total, cut
            path = []
            y = t
            while y != s:
                a = via[y]
                path.append(a)
                y = head[a ^ 1]
            bottleneck = min(cap[a] for a in path)
            for a in path:
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
            total += bottleneck
