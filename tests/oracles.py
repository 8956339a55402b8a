"""Reference implementations the tests compare the package against.

Each one computes its answer the slow, direct way and shares no fast
path with `src/`: dense rational elimination and a Hessenberg reduction
over the rationals on the full Laplacian, a LAPACK eigensolve, an
exhaustive cut search, a per-element p-group scan, a scalar modular
Hessenberg reduction recombined by the Chinese remainder theorem, the
dicyclic table filled entry by entry from its relations, and whole
multiplication tables built by slicing and broadcasting, with the power
walk over them, which gives each element's cyclic subgroup as a bitmask
and from those the power graph, up-sets and primitive classes.  Twin
partitions are hashed from the neighbourhood rows of every vertex, and
the dicyclic facts about e and a^n are read off the power graph itself.
The twin quotient's dense count table, which `src/` never builds, is
derived here from a partition's two fields.  Two oracles are there
for parity instead: the unpruned class-pair scan, which shares the flow
network of `vertex_connectivity` but none of its pruning, and the
collapse of a whole twin quotient, which merges weighted twins found by
hashing dense count rows over every class at once, where `spectrum`
hashes adjacency bitmasks only on the pieces joins and unions leave.
The last section holds references the package no longer needs itself:
completeness by edge count, the complement spectrum, a p-group
decomposition tree built by recursion from its root, the join/union
calculus of factored characteristic polynomials (clique, union, join
and the removal of one root) and the tree's polynomial by it node by
node, the tree materialized as a graph, and one element's order,
cyclic subgroup and ~-class.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np
import sympy

from powerlap.graphs import (
    CutCertificate,
    Graph,
    TwinPartition,
    _SplitNetwork,
    _bits,
    components,
    induced_subgraph,
    twin_partition,
)
from powerlap.groups import FiniteGroup, factorize
from powerlap.pgroup import DecompTree
from powerlap.spectra import CharPolyContradiction, FactoredCharPoly, Spectrum


# ---------------------------------------------------------------------------
# dense rational Laplacian


def rational_nullity(rows: Sequence[Sequence[Fraction]]) -> int:
    """Nullity of a square rational matrix by exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = None
        for r in range(rank, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        prow = m[rank]
        pval = prow[col]
        for r in range(rank + 1, n):
            factor = m[r][col] / pval
            if factor:
                row = m[r]
                for c in range(col, n):
                    row[c] -= factor * prow[c]
        rank += 1
        col += 1
    return n - rank


@dataclass(frozen=True)
class RationalMatrix:
    """Dense square matrix over the rationals; exact arithmetic only."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    def minus_scaled_identity(self, lam: int | Fraction) -> "RationalMatrix":
        lam = Fraction(lam)
        return RationalMatrix(
            tuple(
                tuple(x - lam if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(self.entries)
            )
        )

    def nullity(self) -> int:
        return rational_nullity(self.entries)


def laplacian(g: Graph) -> RationalMatrix:
    """Laplacian L = D - A as an exact rational matrix."""
    rows = []
    for v in range(g.n):
        deg = Fraction(g.degree(v))
        row = tuple(
            deg if u == v else Fraction(-1 if g.adjacent(u, v) else 0)
            for u in range(g.n)
        )
        rows.append(row)
    return RationalMatrix(tuple(rows))


def fraction_charpoly(matrix):
    """det(xI - M), ascending, by Hessenberg reduction over Fraction."""
    n = len(matrix)
    if n == 0:
        return [1]
    h = [[Fraction(x) for x in row] for row in matrix]
    for col in range(n - 2):
        pivot = next((r for r in range(col + 1, n) if h[r][col]), None)
        if pivot is None:
            continue
        if pivot != col + 1:
            h[col + 1], h[pivot] = h[pivot], h[col + 1]
            for row in h:
                row[col + 1], row[pivot] = row[pivot], row[col + 1]
        pval = h[col + 1][col]
        for r in range(col + 2, n):
            factor = h[r][col] / pval
            if factor:
                hr = h[r]
                hp = h[col + 1]
                for c in range(col, n):
                    hr[c] -= factor * hp[c]
                for row in h:
                    row[col + 1] += factor * row[r]
    d = [[Fraction(1)]]
    for k in range(1, n + 1):
        prev = d[k - 1]
        poly = [Fraction(0)] * (k + 1)
        for i, c in enumerate(prev):
            poly[i + 1] += c
            poly[i] -= h[k - 1][k - 1] * c
        beta = Fraction(1)
        for j in range(k - 1, 0, -1):
            beta *= h[j][j - 1]
            if not beta:
                break
            coeff = beta * h[j - 1][k - 1]
            if coeff:
                for i, c in enumerate(d[j - 1]):
                    poly[i] -= coeff * c
        d.append(poly)
    assert all(c.denominator == 1 for c in d[n])
    return [c.numerator for c in d[n]]


def dense_nullity(g: Graph, lam: int) -> int:
    """Nullity of L - lam*I by exact elimination on the full matrix."""
    return laplacian(g).minus_scaled_identity(lam).nullity()


def dense_numeric_eigenvalues(g: Graph) -> np.ndarray:
    """All Laplacian eigenvalues of the full matrix by LAPACK, ascending."""
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        a[v, v] = g.degree(v)
        for u in g.neighbors(v):
            a[v, u] = -1.0
    return np.linalg.eigvalsh(a)


# ---------------------------------------------------------------------------
# connectivity and group structure


def vertex_connectivity_exhaustive(g: Graph) -> CutCertificate:
    """Brute-force minimum separating set, for cross-checking small graphs."""
    if g.n > 20:
        raise ValueError("exhaustive search is limited to 20 vertices")
    if g.n <= 1:
        return CutCertificate(0, ())
    if len(components(g)) > 1:
        return CutCertificate(0, ())
    if is_complete(g):
        return CutCertificate(g.n - 1, tuple(range(g.n - 1)))
    for k in range(1, g.n - 1):
        for subset in combinations(range(g.n), k):
            rest = [v for v in range(g.n) if v not in subset]
            h = induced_subgraph(g, rest)
            if len(components(h)) > 1:
                return CutCertificate(k, subset)
    return CutCertificate(g.n - 1, tuple(range(g.n - 1)))


def vertex_connectivity_every_class_pair(tp: TwinPartition) -> CutCertificate:
    """Minimum separating set by Menger over every ordered pair of classes.

    The scan `vertex_connectivity` prunes, with the same flow network and
    the same source order: no universal vertices are peeled, each
    ordered pair runs its own flow, and the scan stops only once the
    index of the source class exceeds the best cut.  Its witness is the
    first minimum cut met in that order, which the pruned scan must
    reproduce.
    """
    n = tp.n
    if n <= 1:
        return CutCertificate(0, ())
    m = tp.size
    if m == 1:
        return CutCertificate(n - 1, tuple(range(n - 1)))
    if len(components(Graph(m, tp.adj))) > 1:
        return CutCertificate(0, ())
    best: Optional[int] = None
    witness: tuple[int, ...] = ()
    degrees = [sum(row) for row in counts_of(tp)]
    network = _SplitNetwork(tp, (1 << m) - 1)
    for si, src in enumerate(sorted(range(m), key=lambda i: degrees[i])):
        if best is not None and si > best:
            break
        for dst in range(m):
            if dst == src or tp.adj[src] >> dst & 1:
                continue
            value, cut = network.min_cut(src, dst, best)
            if value is not None and (best is None or value < best):
                best = value
                witness = tuple(sorted(v for c in cut for v in tp.classes[c]))
    assert best is not None
    return CutCertificate(best, witness)


def is_p_group_by_elements(g: FiniteGroup) -> Optional[int]:
    """The prime p if every non-identity element order is a power of p, else None."""
    if g.order < 2:
        return None
    p = None
    for x in range(g.order):
        if x == g.identity:
            continue
        f = factorize(g.orders()[x])
        if not f.is_prime_power:
            return None
        q = f.prime_powers[0][0]
        if p is None:
            p = q
        elif p != q:
            return None
    return p


# ---------------------------------------------------------------------------
# twin partitions and the dicyclic involution, from the graph


def twin_partition_by_rows(g: Graph) -> TwinPartition:
    """Twin classes by hashing every vertex's closed row.

    Vertices sharing a closed neighbourhood form a class, ordered by
    smallest member.  One vertex of each class gives its adjacency, the
    other classes its row meets.
    """
    by_closed: dict[int, list[int]] = {}
    for v in range(g.n):
        by_closed.setdefault(g.rows[v] | (1 << v), []).append(v)
    classes = sorted(by_closed.values(), key=lambda c: c[0])
    masks = [sum(1 << v for v in members) for members in classes]
    rows = [g.rows[c[0]] for c in classes]
    return TwinPartition(
        classes=tuple(tuple(sorted(m)) for m in classes),
        adj=tuple(sum(1 << j for j, mask in enumerate(masks) if j != i and row & mask)
                  for i, row in enumerate(rows)),
    )


def counts_of(tp: TwinPartition) -> tuple[tuple[int, ...], ...]:
    """The dense count table of a twin partition: entry (i, j) is how many
    neighbours a vertex of class i has inside class j, its class size
    less one on the diagonal."""
    return tuple(
        tuple(len(c) - 1 if j == i else len(c) if a >> j & 1 else 0 for j, c in enumerate(tp.classes))
        for i, a in enumerate(tp.adj)
    )


def quotient_fields(sizes: Sequence[int], counts: Sequence[Sequence[int]]):
    """The arguments `spectra._quotient_spectrum` takes for the quotient
    of a dense count table: sizes, within counts, adjacency bitmasks and
    degrees (row sums).  Every entry off the diagonal must be 0 or the
    size of its column's class."""
    for i, row in enumerate(counts):
        for j, c in enumerate(row):
            assert j == i or c in (0, sizes[j]), (i, j, c)
    return (tuple(sizes), tuple(row[i] for i, row in enumerate(counts)),
            tuple(sum(1 << j for j, c in enumerate(row) if c and j != i) for i, row in enumerate(counts)),
            tuple(sum(row) for row in counts))


def merge_weighted_twins(sizes: Sequence[int], counts: Sequence[Sequence[int]]
                         ) -> tuple[list[int], list[list[int]], Counter] | None:
    """Merge every bucket of weighted twins of a dense quotient once: the
    merged sizes and counts and the eigenvalues split off, or None when
    no two classes are weighted twins.

    Classes i and j of equal size s and equal within count w are weighted
    twins with cross count c when their count rows agree once each
    diagonal entry is replaced by c.  The difference of their indicator
    vectors is then a Laplacian eigenvector with eigenvalue
    degree - w + c.  Equal sizes make the counts symmetric, so a class
    has one cross count with all its twins and lies in at most one bucket
    of two or more: hashing the rows with each candidate c on the
    diagonal finds every twin class in one pass.  A bucket of k classes
    keeps its first member's row and adds up its columns, which leaves
    size k*s and within count w + (k-1)c.
    """
    m = len(sizes)
    shared: dict[tuple[int, int, int], list[int]] = {}
    for i, row in enumerate(counts):
        shared.setdefault((sizes[i], row[i], sum(row)), []).append(i)
    buckets: dict[tuple, list[int]] = {}
    for group in shared.values():
        if len(group) < 2:
            continue
        for i in group:
            key = list(counts[i])
            for c in set(key):
                key[i] = c
                buckets.setdefault((sizes[i], counts[i][i], tuple(key)), []).append(i)
    merging = [b for b in buckets.values() if len(b) >= 2]
    if not merging:
        return None

    members = [i for bucket in merging for i in bucket]
    assert len(members) == len(set(members)), "a class lies in two twin buckets"

    extracted: Counter = Counter()
    merged_sizes = list(sizes)
    owner = list(range(m))
    for bucket in merging:
        i = bucket[0]
        row = counts[i]
        extracted[sum(row) - row[i] + row[bucket[1]]] += len(bucket) - 1
        merged_sizes[i] *= len(bucket)
        for j in bucket[1:]:
            owner[j] = i
    keep = [i for i in range(m) if owner[i] == i]
    column = {i: p for p, i in enumerate(keep)}
    merged = []
    for i in keep:
        out = [0] * len(keep)
        for j, x in enumerate(counts[i]):
            out[column[owner[j]]] += x
        merged.append(out)
    return [merged_sizes[i] for i in keep], merged, extracted


@dataclass(frozen=True)
class Collapsed:
    """A twin quotient merged to a fixpoint.  ``extracted`` are the
    eigenvalues split off with their multiplicities; the rest of the
    spectrum is that of diag(row sums of counts) - counts.  ``passes``
    counts the merge passes that merged."""

    sizes: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]
    extracted: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity)
    passes: int

    @property
    def core_size(self) -> int:
        return len(self.sizes)

    def quotient_rows(self) -> list[list[int]]:
        rows = [[-c for c in row] for row in self.counts]
        for i, row in enumerate(self.counts):
            rows[i][i] += sum(row)
        return rows


def collapse_to_fixpoint(g: Graph | TwinPartition) -> Collapsed:
    """Twin classes split off, then weighted twins merged over the whole
    dense quotient until a pass merges nothing."""
    tp = g if isinstance(g, TwinPartition) else twin_partition(g)
    sizes, counts = [len(c) for c in tp.classes], counts_of(tp)
    extracted: Counter = Counter()
    for i, (size, row) in enumerate(zip(sizes, counts)):
        if size >= 2:
            extracted[sum(row) + (1 if row[i] else 0)] += size - 1
    passes = 0
    while merged := merge_weighted_twins(sizes, counts):
        sizes, counts, found = merged
        extracted += found
        passes += 1
    return Collapsed(
        sizes=tuple(sizes),
        counts=tuple(tuple(row) for row in counts),
        extracted=tuple(sorted(extracted.items())),
        passes=passes,
    )


def involution_facts_by_graph(g: Graph, n: int) -> tuple[bool, bool, bool, tuple[int, ...]]:
    """What `verify._involution_facts` reads from classes, from the power
    graph of Q_n: whether a^n has degree 4n - 1, whether every other
    vertex is adjacent to e and a^n, and whether removing the two leaves
    two or more components.  The two vertices alone are removed, so no
    other vertex is reported."""
    sep = {0, n}
    universal = g.degree(n) == 4 * n - 1
    join_side = all(g.adjacent(v, 0) and g.adjacent(v, n) for v in range(g.n) if v not in sep)
    rest = induced_subgraph(g, [v for v in range(g.n) if v not in sep])
    return universal, join_side, len(components(rest)) >= 2, ()


# ---------------------------------------------------------------------------
# coefficient bounds and the scalar modular characteristic polynomial


def maclaurin_bound_every_term(m: int, trace: int) -> int:
    """Maclaurin's coefficient bound for m nonnegative eigenvalues summing
    to ``trace``: the largest ceiling of C(m, k) trace^k / m^k, with every
    k in 0..m evaluated."""
    return max(-(-comb(m, k) * trace ** k // m ** k) for k in range(m + 1))


def charpoly_mod(matrix: Sequence[Sequence[int]], p: int) -> list[int]:
    """Coefficients of det(xI - M) mod the prime p, ascending, in [0, p).

    Hessenberg reduction over the field of p elements one entry at a
    time, then the Hessenberg recurrence.
    """
    n = len(matrix)
    h = [[x % p for x in row] for row in matrix]
    for col in range(n - 2):
        nxt = col + 1
        pivot = next((r for r in range(nxt, n) if h[r][col]), None)
        if pivot is None:
            continue
        if pivot != nxt:
            h[nxt], h[pivot] = h[pivot], h[nxt]
            for row in h:
                row[nxt], row[pivot] = row[pivot], row[nxt]
        hp = h[nxt]
        tail = hp[col:]
        inv = pow(hp[col], -1, p)
        factors = [h[r][col] * inv % p for r in range(col + 2, n)]
        for hr, f in zip(h[col + 2:], factors):
            if f:
                hr[col:] = [(a - f * b) % p for a, b in zip(hr[col:], tail)]
        if any(factors):
            for row in h:
                row[nxt] = (row[nxt] + sum(map(mul, factors, row[col + 2:]))) % p
    d: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        prev = d[k - 1]
        diag = h[k - 1][k - 1]
        poly = [0] + prev
        for i, c in enumerate(prev):
            poly[i] -= diag * c
        beta = 1
        for j in range(k - 1, 0, -1):
            beta = beta * h[j][j - 1] % p
            if not beta:
                break
            coeff = beta * h[j - 1][k - 1] % p
            if coeff:
                for i, c in enumerate(d[j - 1]):
                    poly[i] -= coeff * c
        d.append([c % p for c in poly])
    return d[n]


def charpoly_scalar_crt(matrix: Sequence[Sequence[int]]) -> list[int]:
    """det(xI - M), ascending: `charpoly_mod` one prime at a time, by CRT.

    Takes the descending primes below 2**62 from sympy, so it shares
    neither the primes nor the batched arithmetic of `charpoly_exact`,
    and stops past the same coefficient bound 2 * (B + 1)^m.
    """
    m = len(matrix)
    if m == 0:
        return [1]
    bound = 2 * (max(sum(abs(x) for x in row) for row in matrix) + 1) ** m
    p = sympy.prevprime(2**62)
    coeffs = charpoly_mod(matrix, p)
    modulus = p
    while modulus <= bound:
        p = sympy.prevprime(p)
        inv = pow(modulus % p, -1, p)
        coeffs = [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, charpoly_mod(matrix, p))]
        modulus *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in coeffs]


# ---------------------------------------------------------------------------
# generalized quaternion groups by their presentation


def inverse(g: FiniteGroup, x: int) -> int:
    """The h with x*h = e, by a scan of the products of x."""
    for h in range(g.order):
        if g.mul(x, h) == g.identity:
            return h
    raise ValueError(f"element {x} has no inverse")


def is_generalized_quaternion_by_presentation(g: FiniteGroup) -> bool:
    """Whether the group satisfies <a, b | a^(2m) = e, b^2 = a^m, b a b^-1 = a^-1>.

    Searches for a of order 2m = |G|/2 and b outside <a> with b*b = a^m
    that inverts a by conjugation, O(|G|^2) table lookups.
    """
    order = g.order
    if order < 8 or order & (order - 1):
        return False
    m = order // 4  # presentation parameter: a has order 2m, b*b = a^m
    orders = g.orders()
    for a in range(order):
        if orders[a] != 2 * m:
            continue
        powers = [a]
        while powers[-1] != g.identity:
            powers.append(g.mul(powers[-1], a))
        am = powers[m - 1]
        a_inv = inverse(g, a)
        for b in range(order):
            if b in powers:
                continue
            if g.mul(b, b) != am:
                continue
            # b a b^-1 == a^-1
            if g.mul(g.mul(b, a), inverse(g, b)) == a_inv:
                return True
        return False  # one maximal cyclic subgroup candidate suffices
    return False


# ---------------------------------------------------------------------------
# dicyclic multiplication, one entry at a time


def dicyclic_table_by_mul(n: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of Q_n from the relations, entry by entry.

    Indices as in `dicyclic_group`: a^i is i and a^i b is 2n + i, with
    a^(2n) = e, b^2 = a^n and b a = a^(-1) b.
    """
    two_n = 2 * n

    def mul(x: int, y: int) -> int:
        if x < two_n and y < two_n:
            return (x + y) % two_n
        if x < two_n:  # a^x * a^j b = a^(x+j) b
            return two_n + (x + (y - two_n)) % two_n
        if y < two_n:  # a^i b * a^y = a^(i-y) b
            return two_n + ((x - two_n) - y) % two_n
        # a^i b * a^j b = a^(i-j+n)
        return ((x - two_n) - (y - two_n) + n) % two_n

    return tuple(tuple(mul(x, y) for y in range(2 * two_n)) for x in range(2 * two_n))


# ---------------------------------------------------------------------------
# multiplication tables, tabulated whole


Table = tuple[tuple[int, ...], ...]


def table_of(g: FiniteGroup) -> Table:
    """Every product of g, row x holding x*y for y = 0..n-1."""
    return tuple(tuple(g.mul(x, y) for y in range(g.order)) for x in range(g.order))


def cyclic_table(n: int) -> Table:
    """Addition mod n: each row is a slice of a doubled tuple."""
    base = tuple(range(n)) * 2
    return tuple(base[i : i + n] for i in range(n))


def dicyclic_table(n: int) -> Table:
    """Q_n with the indices of `dicyclic_group`, each row two slices.

    a^i times a^j is a^(i+j) and times a^j b is a^(i+j) b, a rotation of
    the powers and of the b coset; a^i b times a^j is a^(i-j) b and
    times a^j b is a^(i-j+n), a rotation of their reverses.
    """
    two_n = 2 * n
    powers = tuple(range(two_n)) * 2
    coset = tuple(range(two_n, 2 * two_n)) * 2
    # entry k of a reversed doubled tuple is entry -1-k mod 2n of the original
    powers_rev, coset_rev = powers[::-1], coset[::-1]
    table = [powers[i : i + two_n] + coset[i : i + two_n] for i in range(two_n)]
    for i in range(two_n):
        # a^(i-j) b sits at k = j-i-1 mod 2n, a^(i-j+n) at k = j-i-n-1 mod 2n
        s, t = two_n - 1 - i, (-i - n - 1) % two_n
        table.append(coset_rev[s : s + two_n] + powers_rev[t : t + two_n])
    return tuple(table)


def direct_product_table(gt: Table, ht: Table) -> Table:
    """G x H with (x, y) at x*|H| + y, by one numpy broadcast."""
    n, m = len(gt), len(ht)
    g, h = np.array(gt, dtype=np.int64), np.array(ht, dtype=np.int64)
    # entry [x, y, u, v] is (x*u, y*v) = (x*u)*m + y*v, flattened row-major
    prod = (g[:, None, :, None] * m + h[None, :, None, :]).reshape(n * m, n * m)
    return tuple(map(tuple, prod.tolist()))


def table_by_label(label: str) -> Table:
    """The table of a built-in group from its label, e.g. ``Z4xZ2`` or ``GQ16``.

    Products are folded from the left; lexicographic indexing makes
    that agree with any nesting.
    """
    tables = []
    for part in label.split("x"):
        if part.startswith("GQ"):
            tables.append(dicyclic_table(int(part[2:]) // 4))
        elif part.startswith("Q"):
            tables.append(dicyclic_table(int(part[1:])))
        else:
            tables.append(cyclic_table(int(part[1:])))
    table = tables[0]
    for t in tables[1:]:
        table = direct_product_table(table, t)
    return table


_BUILT_IN_LABEL = re.compile(r"(Z|Q|GQ)[0-9]+(x(Z|Q|GQ)[0-9]+)*")


@lru_cache(maxsize=4)
def tabulated(g: FiniteGroup) -> Table:
    """The multiplication table of g: a built-in group's from its label,
    any other group's by tabulating its products."""
    return table_by_label(g.label) if _BUILT_IN_LABEL.fullmatch(g.label) else table_of(g)


@lru_cache(maxsize=16)
def masks_of(g: FiniteGroup) -> tuple[int, ...]:
    """Bitmask of <x> for every element x of g, walked over its table."""
    return tuple(table_masks(tabulated(g), g.identity))


def power_graph_by_masks(masks: Sequence[int]) -> Graph:
    """u ~ v iff u != v and <u> holds v or <v> holds u."""
    rows = list(masks)
    for v, mask in enumerate(masks):
        for u in _bits(mask):
            rows[u] |= 1 << v
    return Graph(len(rows), tuple(row & ~(1 << v) for v, row in enumerate(rows)))


def up_set_by_masks(masks: Sequence[int], x: int) -> frozenset[int]:
    """U(x): the h whose cyclic subgroup holds x."""
    return frozenset(h for h, mask in enumerate(masks) if mask >> x & 1)


def hat_up_set_by_masks(masks: Sequence[int], x: int) -> frozenset[int]:
    """U(x) without the h that generate <x>."""
    return frozenset(h for h in up_set_by_masks(masks, x) if masks[h] != masks[x])


def primitive_classes_by_table(g: FiniteGroup) -> list[list[int]]:
    """For every x of a p-group, the smallest members of the ~-classes
    [h] != [e] with [h^p] = [x], by the p-th power of every element over
    its table."""
    table, masks = tabulated(g), masks_of(g)
    p = factorize(g.order).prime_powers[0][0]
    above: dict[int, dict[int, int]] = {}
    for h in range(g.order):
        hp = h
        for _ in range(p - 1):
            hp = table[hp][h]
        if h != g.identity:
            above.setdefault(masks[hp], {}).setdefault(masks[h], h)
    return [sorted(above.get(mask, {}).values()) for mask in masks]


def table_masks(table: Table, identity: int) -> list[int]:
    """Bitmask of <g> for every g, by power walks over the table."""
    masks = [0] * len(table)
    for g in range(len(table)):
        if masks[g]:
            continue
        seq = [g]
        while seq[-1] != identity:
            seq.append(table[seq[-1]][g])
        mask = sum(1 << v for v in seq)
        o = len(seq)
        for k in range(1, o + 1):
            if gcd(k, o) == 1:
                masks[seq[k - 1]] = mask
    return masks


# ---------------------------------------------------------------------------
# references with no caller in the package


def is_complete(g: Graph) -> bool:
    return g.edge_count() == g.n * (g.n - 1) // 2


def complement_spectrum(s: Spectrum) -> Spectrum:
    """Spectrum of the complement graph, from an exact spectrum.

    One zero eigenvalue stays; every other eigenvalue maps to n - value.
    """
    if not s.is_exact:
        raise ValueError("complement mapping requires an exact spectrum")
    if s.n == 0:
        return s
    counts = Counter(dict(s.exact.factors))
    if counts[0] < 1:
        raise ValueError("an exact Laplacian spectrum must contain 0")
    counts[0] -= 1
    mapped: Counter = Counter()
    for r, m in counts.items():
        if m:
            if r > s.n:
                raise ValueError(f"eigenvalue {r} above vertex count {s.n}")
            mapped[s.n - r] += m
    mapped[0] += 1
    return Spectrum(n=s.n, exact=FactoredCharPoly.from_counts(mapped))


def decompose_by_recursion(g: FiniteGroup) -> DecompTree:
    """`decompose` top-down: each class's children are found first, then
    each node is built by recursion from the root, its order read from
    `orders`."""
    members, below = g.cyclic_subgroups()
    by_below = {key: a for a, key in enumerate(below)}
    children: list[list[int]] = [[] for _ in members]
    root = 0
    for a, key in enumerate(below):
        if key == (a,):
            root = a
        else:
            children[by_below[key[:-1]]].append(a)

    def build(a: int) -> DecompTree:
        x = members[a][0]
        apex = len(members[a])
        subtrees = sorted((build(b) for b in children[a]),
                          key=lambda t: (-t.upset_size, t.element))
        upset = apex + sum(t.upset_size for t in subtrees)
        return DecompTree(apex, x, g.orders()[x], upset, tuple(subtrees))

    return build(root)


def remove_root(p: FactoredCharPoly, root: int) -> FactoredCharPoly:
    counts = Counter(dict(p.factors))
    if counts[root] < 1:
        raise CharPolyContradiction(
            f"required root {root} is absent from {p.text()}"
        )
    counts[root] -= 1
    return FactoredCharPoly.from_counts(counts)


def clique_charpoly(k: int) -> FactoredCharPoly:
    """Laplacian characteristic polynomial of the complete graph on k vertices."""
    if k < 0:
        raise ValueError("clique size must be non-negative")
    if k == 0:
        return FactoredCharPoly(())
    return FactoredCharPoly.from_counts({0: 1, k: k - 1})


def union_charpoly(parts: Iterable[FactoredCharPoly]) -> FactoredCharPoly:
    """Characteristic polynomial of a disjoint union: multiplicities add."""
    counts: Counter = Counter()
    for p in parts:
        counts += Counter(dict(p.factors))
    return FactoredCharPoly.from_counts(counts)


def join_charpoly(p1: FactoredCharPoly, n1: int, p2: FactoredCharPoly, n2: int) -> FactoredCharPoly:
    """Characteristic polynomial of a join of disjoint graphs.

    Shift the first polynomial's roots by n2 and the second's by n1,
    merge, add roots 0 and n1+n2, then cancel one occurrence each of n1
    and n2.  A missing cancellation root means the inputs were not
    Laplacian characteristic polynomials of graphs of the stated sizes.
    """
    for p, n, name in ((p1, n1, "first"), (p2, n2, "second")):
        if n < 0:
            raise ValueError("vertex counts must be non-negative")
        if p.degree != n:
            raise ValueError(
                f"{name} polynomial has degree {p.degree}, expected {n}"
            )
        if p.factors and p.factors[-1][0] > n:
            raise ValueError(
                f"{name} polynomial has a root above its vertex count {n}"
            )
    counts: Counter = Counter()
    for p, delta in ((p1, n2), (p2, n1)):
        for r, m in p.factors:
            counts[r + delta] += m
    counts[0] += 1
    counts[n1 + n2] += 1
    for r in (n1, n2):
        if counts[r] < 1:
            raise CharPolyContradiction(
                f"join formula needs root {r} but it is absent"
            )
        counts[r] -= 1
    return FactoredCharPoly.from_counts(counts)


def tree_charpoly_by_calculus(t: DecompTree) -> FactoredCharPoly:
    """`tree_charpoly` bottom-up through the calculus: a leaf is its
    clique, a node its apex clique joined to the union of its children."""
    if not t.children:
        return clique_charpoly(t.apex_size)
    union_poly = union_charpoly(tree_charpoly_by_calculus(c) for c in t.children)
    return join_charpoly(
        clique_charpoly(t.apex_size), t.apex_size,
        union_poly, t.upset_size - t.apex_size,
    )


def tree_graph(t: DecompTree) -> Graph:
    """Materialize the join/union expression of a decomposition tree as a graph."""
    blocks = [tree_graph(c) for c in t.children]
    apex = t.apex_size
    total = apex + sum(b.n for b in blocks)
    rows = [0] * total
    # apex vertices form a clique and are adjacent to every block vertex
    full = (1 << total) - 1
    for v in range(apex):
        rows[v] = full ^ (1 << v)
    offset = apex
    apex_mask = (1 << apex) - 1
    for b in blocks:
        for v in range(b.n):
            rows[offset + v] = (b.rows[v] << offset) | apex_mask
        offset += b.n
    return Graph(total, tuple(rows))


@dataclass(frozen=True)
class ElementInfo:
    """Order, generated cyclic subgroup and ~-class of one element."""

    element: int
    order: int
    cyclic_subgroup: frozenset[int]
    eq_class: frozenset[int]


def element_info(g: FiniteGroup, x: int) -> ElementInfo:
    """Order, cyclic subgroup and ~-class of element x."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order {g.order}")
    masks = masks_of(g)
    return ElementInfo(
        element=x,
        order=masks[x].bit_count(),
        cyclic_subgroup=frozenset(_bits(masks[x])),
        eq_class=frozenset(h for h, mask in enumerate(masks) if mask == masks[x]),
    )
