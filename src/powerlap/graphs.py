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
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import FiniteGroup, cyclic_group

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


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _rows_to_bitmatrix(rows: Sequence[int], n: int) -> np.ndarray:
    """Bitmask rows of n bits as a boolean matrix (C-speed bulk conversion)."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
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
        for b in key:
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
    return [_bits(comp) for comp in _components(g.rows, (1 << g.n) - 1)]


def _components(rows: Sequence[int], piece: int) -> list[int]:
    """Bitmasks of the components of the subgraph that the bitmask
    ``piece`` induces through ``rows``, ordered by lowest member."""
    out = []
    while piece:
        comp = _reach(rows, (piece & -piece).bit_length() - 1, piece)
        piece ^= comp
        out.append(comp)
    return out


def _reach(rows: Sequence[int], start: int, inside: int) -> int:
    """Bitmask of the vertices that ``start`` reaches through ``rows``
    without leaving the bitmask ``inside``, which holds ``start``."""
    reached = frontier = 1 << start
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= rows[u]
        frontier = nxt & inside & ~reached
        reached |= frontier
    return reached


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

    Each class is a clique of vertices sharing a closed neighborhood,
    and cross-class adjacency is all-or-nothing, so two fields carry the
    whole graph: ``adj[i]`` has bit j set exactly when class j != i is
    joined to class i.  A vertex of class i thus has ``len(classes[i]) -
    1`` neighbors in its own class, ``len(classes[j])`` in each class j
    joined to it and none in any other.  Open twins, vertices sharing an
    open neighborhood, stay apart here; the spectrum merges them as
    weighted twins of the quotient.  Every partition the package returns
    comes from `_twin_quotient`; a subgraph that keeps whole classes is
    read as a piece, the bitmask of its classes, with no partition
    rebuilt.
    """

    classes: tuple[tuple[int, ...], ...]
    adj: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def n(self) -> int:
        """Vertex count of the partitioned graph."""
        return sum(len(c) for c in self.classes)

    def degrees(self) -> list[int]:
        """The degree of a vertex of each class: its class size less one
        plus the sizes of the classes joined to its own, counted by one
        mask of the classes of each size."""
        sizes = [len(c) for c in self.classes]
        by_size: dict[int, int] = {}
        for i, s in enumerate(sizes):
            by_size[s] = by_size.get(s, 0) | 1 << i
        degrees = [s - 1 for s in sizes]
        for t, mask in by_size.items():
            for i, a in enumerate(self.adj):
                degrees[i] += t * (a & mask).bit_count()
        return degrees


def _twin_quotient(members: Sequence[Sequence[int]],
                   closed: Sequence[tuple[int, ...]]) -> TwinPartition:
    """Twin partition from atoms: ``members[a]``, ascending, are closed twins,
    and ``closed[a]`` is the ascending tuple of the atoms joined to a, a
    included.  Atoms sharing a closed key form a class, ordered by
    smallest member.  A class j != i is joined to all of class i or to
    none of it, so class i's adjacency is the classes that one atom's
    closed key names."""
    by_closed: dict[tuple[int, ...], list[int]] = {}
    for a, key in enumerate(closed):
        by_closed.setdefault(key, []).append(a)
    groups = sorted(by_closed.values(), key=lambda atoms: min(members[a][0] for a in atoms))
    class_of = [0] * len(closed)
    for i, atoms in enumerate(groups):
        for a in atoms:
            class_of[a] = i
    adj = []
    for i, atoms in enumerate(groups):
        mask = 0
        for b in closed[atoms[0]]:
            mask |= 1 << class_of[b]
        adj.append(mask ^ 1 << i)
    return TwinPartition(
        classes=tuple(tuple(sorted(v for a in atoms for v in members[a])) for atoms in groups),
        adj=tuple(adj),
    )


def twin_partition(g: Graph | FiniteGroup) -> TwinPartition:
    """Group vertices with identical closed neighborhoods.  A group gives
    its power graph's partition without the graph: the generators of
    each cyclic subgroup are a clique of closed twins, joined to another
    subgroup's when either subgroup contains the other.  A graph's atoms
    are its vertices grouped by closed row, and a row holds each atom it
    meets whole, so one vertex of each atom tells which it meets."""
    if isinstance(g, Graph):
        by_row: dict[int, list[int]] = {}
        for v, row in enumerate(g.rows):
            by_row.setdefault(row | (1 << v), []).append(v)
        atoms = list(by_row.values())
        met = _rows_to_bitmatrix(list(by_row), g.n)[:, [atom[0] for atom in atoms]].tolist()
        return _twin_quotient(atoms, [tuple(compress(range(len(atoms)), r)) for r in met])
    members, below = g.cyclic_subgroups()
    return _twin_quotient(members, _closed_keys(below))


def _closed_keys(below: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each cyclic subgroup's closed key: the ascending tuple of the
    subgroups below it or above it, itself included.  One scan by
    ascending index lists each subgroup's containers ascending, itself
    first, since every subgroup it contains has a smaller index."""
    above: list[list[int]] = [[] for _ in below]
    for a, key in enumerate(below):
        for b in key:
            above[b].append(a)
    return [key[:-1] + tuple(up) for key, up in zip(below, above)]


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
    identity and the involution in a generalized quaternion group.  U is
    a union of whole classes, so G - U is the piece of the other
    classes, and the rest is `_separate` on that piece, with each degree
    less |U|: every vertex left was joined to all of U.
    """
    tp = g if isinstance(g, TwinPartition) else twin_partition(g)
    n = tp.n
    if n <= 1:
        return CutCertificate(0, ())
    degrees = tp.degrees()
    peeled = tuple(sorted(v for c, d in zip(tp.classes, degrees) if d == n - 1 for v in c))
    if len(peeled) == n:
        return CutCertificate(n - 1, peeled[:-1])
    rest = sum(1 << i for i, d in enumerate(degrees) if d < n - 1)
    if not _classes_connected(tp, rest):
        return CutCertificate(len(peeled), peeled)
    cut = _separate(tp, rest, [d - len(peeled) for d in degrees])
    return CutCertificate(len(peeled) + cut.size, tuple(sorted(peeled + cut.separating_set)))


def _classes_connected(tp: TwinPartition, piece: int) -> bool:
    """Whether the classes in the bitmask ``piece``, one or more, induce a
    connected graph.  Each class is a clique and every vertex is joined
    to all of each class adjacent to its own, so the induced graph is
    connected iff its quotient is."""
    return _reach(tp.adj, (piece & -piece).bit_length() - 1, piece) == piece


def _separate(tp: TwinPartition, piece: int, degrees: Sequence[int]) -> CutCertificate:
    """Minimum separating set of the piece of ``tp``, the subgraph induced
    by the classes in the bitmask ``piece``: connected, with two or more
    classes and no universal vertex.  ``degrees[i]`` is the degree inside
    the piece of a vertex of class i, for each class i in it.

    The value is the Menger minimum over non-adjacent vertex pairs,
    computed as a vertex-capacitated max-flow on the twin quotient; the
    split network of the quotient is built once, and each class pair
    only resets its capacities.  Classes can stand in for their vertices
    because every minimum separating set S is a union of whole twin
    classes: if S held x but not its twin y, then x, put back, would
    join only y's component of G - S (x and y share their neighbours
    outside S), so S - x would separate too.  Hence once the source
    classes scanned so far hold more than `best` >= kappa vertices, one
    of them avoids some minimum cut S; its flow to a class beyond S has
    already found kappa, and the scan stops.  A minimum cut between two
    classes is symmetric, so each unordered pair is flowed once.
    """
    inside = _bits(piece)
    best: Optional[int] = None
    best_witness: tuple[int, ...] = ()
    network = _SplitNetwork(tp, piece)
    order = sorted(inside, key=lambda i: degrees[i])
    done = [False] * tp.size
    scanned = 0
    for src in order:
        if best is not None and scanned > best:
            break
        joined = tp.adj[src]
        for dst in inside:
            if dst == src or done[dst] or joined >> dst & 1:
                continue
            value, cut_classes = network.min_cut(src, dst, best)
            if value is not None and (best is None or value < best):
                best = value
                witness: list[int] = []
                for c in cut_classes:
                    witness.extend(tp.classes[c])
                best_witness = tuple(sorted(witness))
        done[src] = True
        scanned += len(tp.classes[src])
    assert best is not None  # non-complete connected graph has a cut
    return CutCertificate(best, best_witness)


_INF = 1 << 40


class _SplitNetwork:
    """Vertex-split flow network of the piece of a twin quotient, built once.

    Every class i of ``tp`` becomes the in-node 2i and the out-node 2i+1,
    joined by arc 2i of capacity |class i|, so that arc 2i stays class
    i's; each adjacent class pair (i, j) inside the bitmask ``piece``
    gives an uncapacitated arc from out(i) to in(j), and a class outside
    it is joined to nothing.  Arcs are stored flat, and arc a ^ 1 is the
    reverse of arc a, with zero capacity.
    """

    def __init__(self, tp: TwinPartition, piece: int):
        m = tp.size
        self.m = m
        self.head: list[int] = []
        self.cap: list[int] = []
        self.arcs: list[list[int]] = [[] for _ in range(2 * m)]
        for i in range(m):
            self._add(2 * i, 2 * i + 1, len(tp.classes[i]))
        for i in _bits(piece):
            for j in _bits(tp.adj[i] & piece):
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
