"""Laplacian spectra: exact integer certification and exact ordering.

The exact engine never rounds.  A graph is first collapsed to a small
integer quotient matrix.  Twin classes (vertices with equal open or
closed neighborhoods) come first; then classes that are weighted twins
in the quotient, found by hashing their count rows, merge pass by pass
until none are left.  Each step splits off eigenvalues carried by
difference vectors inside a class, all of them integers read off class
counts.  Every integer eigenvalue multiplicity then comes from the
quotient's exact characteristic polynomial, so an "Exact" spectrum is a
proof, not an approximation.  That polynomial is split before any of it
is computed: a set of classes with universal classes is their join with
the rest, and a disconnected set is the union of its components, whose
polynomials follow from the rest's and the components' (the Laplacian
calculus of joins and unions).  Only the pieces that cannot be split,
connected with two or more classes and no universal class, reach the
exact charpoly (modular images recombined past a proven coefficient
bound).  A power graph's identity is universal, so a non-cyclic
p-group's quotient splits all the way down and needs no charpoly.

When the certified multiplicities do not exhaust the vertex count, the
spectrum is "Mixed": dividing the certified roots out of the quotient's
characteristic polynomial leaves the integer residual polynomial, whose
roots are exactly the non-integer eigenvalues.  The quotient is similar
to a symmetric matrix, so the residual is real-rooted and Descartes'
rule counts its roots above any integer exactly; every comparison of an
eigenvalue with an integer is decided by such counts.  Floats from a
dense symmetric eigensolver serve only for display.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, TwinPartition, _quotient_components, twin_partition
from .linalg import (
    _synthetic_divide,
    charpoly_exact,
    eval_poly_at_int,
    integer_root_multiplicities,
    roots_above,
    taylor_shift,
)

__all__ = [
    "FactoredCharPoly",
    "Spectrum",
    "CharPolyContradiction",
    "integer_eigenvalue_multiplicity",
    "spectrum",
    "algebraic_connectivity",
    "spectral_radius",
    "spectral_radius_multiplicity",
    "clique_charpoly",
    "union_charpoly",
    "join_charpoly",
    "complement_spectrum",
    "max_component_radius",
]

class CharPolyContradiction(ValueError):
    """A factored-polynomial identity required a root that is absent."""


# ---------------------------------------------------------------------------
# factored characteristic polynomials


@dataclass(frozen=True)
class FactoredCharPoly:
    """Product of (x - root)^mult factors with non-negative integer roots.

    The constant polynomial 1 is the empty product (the null-graph
    convention).
    """

    factors: tuple[tuple[int, int], ...]  # (root, multiplicity), roots ascending

    def __post_init__(self):
        last = -1
        for root, mult in self.factors:
            if root < 0:
                raise ValueError(f"negative root {root}")
            if mult < 1:
                raise ValueError(f"non-positive multiplicity for root {root}")
            if root <= last:
                raise ValueError("roots must be strictly ascending")
            last = root

    @staticmethod
    def from_counts(counts: dict[int, int] | Counter) -> "FactoredCharPoly":
        items = tuple(sorted((r, m) for r, m in counts.items() if m))
        return FactoredCharPoly(items)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def multiplicity(self, root: int) -> int:
        for r, m in self.factors:
            if r == root:
                return m
        return 0

    def as_counter(self) -> Counter:
        return Counter({r: m for r, m in self.factors})

    def roots_descending(self) -> list[tuple[int, int]]:
        return sorted(self.factors, reverse=True)

    def shifted(self, delta: int) -> "FactoredCharPoly":
        return FactoredCharPoly(tuple((r + delta, m) for r, m in self.factors))

    def __mul__(self, other: "FactoredCharPoly") -> "FactoredCharPoly":
        return FactoredCharPoly.from_counts(self.as_counter() + other.as_counter())

    def remove_root(self, root: int) -> "FactoredCharPoly":
        counts = self.as_counter()
        if counts[root] < 1:
            raise CharPolyContradiction(
                f"required root {root} is absent from {self.text()}"
            )
        counts[root] -= 1
        return FactoredCharPoly.from_counts(counts)

    def text(self) -> str:
        """Factored form like ``x^1 (x-8)^7``, nonzero roots descending."""
        if not self.factors:
            return "1"
        parts = []
        zero = self.multiplicity(0)
        if zero:
            parts.append(f"x^{zero}")
        for r, m in self.roots_descending():
            if r != 0:
                parts.append(f"(x-{r})^{m}")
        return " ".join(parts)

    def to_json_list(self) -> list[list[int]]:
        return [[r, m] for r, m in self.roots_descending()]


def clique_charpoly(k: int) -> FactoredCharPoly:
    """Laplacian characteristic polynomial of the complete graph on k vertices."""
    if k < 0:
        raise ValueError("clique size must be non-negative")
    if k == 0:
        return FactoredCharPoly(())
    if k == 1:
        return FactoredCharPoly(((0, 1),))
    return FactoredCharPoly(((0, 1), (k, k - 1)))


def union_charpoly(parts: Iterable[FactoredCharPoly]) -> FactoredCharPoly:
    """Characteristic polynomial of a disjoint union: multiplicities add."""
    counts: Counter = Counter()
    for p in parts:
        counts += p.as_counter()
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
    counts = p1.shifted(n2).as_counter() + p2.shifted(n1).as_counter()
    counts[0] += 1
    counts[n1 + n2] += 1
    for r in (n1, n2):
        if counts[r] < 1:
            raise CharPolyContradiction(
                f"join formula needs root {r} but it is absent"
            )
        counts[r] -= 1
    return FactoredCharPoly.from_counts(counts)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Certified integer eigenvalues plus (possibly) non-integer residuals.

    ``exact`` holds every integer eigenvalue with its exact multiplicity.
    ``residual`` is the monic integer polynomial (coefficients ascending)
    whose roots are the remaining eigenvalues, all real and non-integer;
    ``numeric`` lists those roots as display floats, sorted descending.
    For an exact spectrum the multiplicities sum to n, the residual is 1
    and ``numeric`` is empty.
    """

    n: int
    exact: FactoredCharPoly
    numeric: tuple[float, ...] = ()
    residual: tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.exact.degree + len(self.numeric) != self.n:
            raise ValueError("multiplicities plus numeric count must equal n")
        if len(self.residual) != len(self.numeric) + 1 or self.residual[-1] != 1:
            raise ValueError("residual must be monic of degree equal to the numeric count")
        if roots_above(self.residual, 0) != len(self.numeric):
            raise ValueError("residual has a root at or below zero")
        for r, _ in self.exact.factors:
            if eval_poly_at_int(self.residual, r) == 0:
                raise ValueError(f"residual vanishes at the certified eigenvalue {r}")

    @property
    def is_exact(self) -> bool:
        return not self.numeric

    @property
    def kind(self) -> str:
        return "exact" if self.is_exact else "mixed"

    def count_at_most(self, k: int) -> int:
        """Number of eigenvalues <= the integer k, with multiplicity, exactly."""
        certified = sum(m for r, m in self.exact.factors if r <= k)
        return certified + len(self.numeric) - roots_above(self.residual, k)

    def eigenvalues_ascending(self) -> list[int | float]:
        """Every eigenvalue ascending; certified integers placed by exact counts."""
        floats = sorted(self.numeric)
        vals: list[int | float] = []
        placed = 0  # floats already in vals
        certified = 0  # certified eigenvalues below r
        for r, m in self.exact.factors:
            # the residual roots below r are the eigenvalues <= r not certified
            below = self.count_at_most(r) - certified - m
            vals.extend(floats[placed:below])
            vals.extend([r] * m)
            placed = below
            certified += m
        vals.extend(floats[placed:])
        return vals

    def eigenvalues_descending(self) -> list[int | float]:
        return list(reversed(self.eigenvalues_ascending()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "exact": self.exact.to_json_list(),
            "numeric": [round(v, 10) for v in self.numeric],
            "is_laplacian_integral": self.is_exact,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def table_text(self) -> str:
        """Two-row value/multiplicity table, values ascending."""
        cols: list[tuple[str, str]] = [
            (str(r), str(m)) for r, m in self.exact.factors
        ]
        cols.extend((f"{v:.8f}", "1") for v in sorted(self.numeric))
        if not cols:
            return "eigenvalue   (none)\nmultiplicity (none)"
        widths = [max(len(a), len(b)) for a, b in cols]
        top = "  ".join(a.rjust(w) for (a, _), w in zip(cols, widths))
        bot = "  ".join(b.rjust(w) for (_, b), w in zip(cols, widths))
        return f"eigenvalue    {top}\nmultiplicity  {bot}"


# ---------------------------------------------------------------------------
# the collapse engine


@dataclass(frozen=True)
class _CollapsedGraph:
    """Result of the iterated neighborhood collapse of a graph.

    ``extracted`` are eigenvalues split off with their multiplicities;
    the rest of the spectrum is exactly the spectrum of the quotient
    matrix diag(row sums of counts) - counts.
    """

    n: int
    sizes: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]
    extracted: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity)

    @property
    def core_size(self) -> int:
        return len(self.sizes)

    def quotient_rows(self) -> list[list[int]]:
        rows = [[-c for c in row] for row in self.counts]
        for i, row in enumerate(self.counts):
            rows[i][i] += sum(row)
        return rows

    def symmetrized(self) -> np.ndarray:
        """Symmetric matrix similar to the quotient (same eigenvalues)."""
        m = self.core_size
        if m == 0:
            return np.zeros((0, 0))
        k = np.array(self.sizes, dtype=float)
        q = np.array(self.quotient_rows(), dtype=float)
        scale = np.sqrt(k)
        s = q * scale[:, None] / scale[None, :]
        return (s + s.T) / 2.0


def _collapse(g: Graph | TwinPartition) -> _CollapsedGraph:
    tp = g if isinstance(g, TwinPartition) else twin_partition(g)
    extracted: Counter = Counter()
    for i, (c, row) in enumerate(zip(tp.classes, tp.counts)):
        if len(c) >= 2:
            # a clique class (nonzero within count) gives degree + 1
            lam = sum(row) + (1 if row[i] else 0)
            extracted[lam] += len(c) - 1
    sizes = [len(c) for c in tp.classes]
    counts = [list(row) for row in tp.counts]
    while _merge_weighted_twins(sizes, counts, extracted):
        pass
    return _CollapsedGraph(
        n=tp.n,
        sizes=tuple(sizes),
        counts=tuple(tuple(row) for row in counts),
        extracted=tuple(sorted(extracted.items())),
    )


def _merge_weighted_twins(sizes: list[int], counts: list[list[int]],
                          extracted: Counter) -> bool:
    """Merge every bucket of weighted twins once; True if any merged.

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
        return False

    members = [i for bucket in merging for i in bucket]
    assert len(members) == len(set(members)), "a class lies in two twin buckets"

    owner = list(range(m))
    for bucket in merging:
        i = bucket[0]
        row = counts[i]
        extracted[sum(row) - row[i] + row[bucket[1]]] += len(bucket) - 1
        sizes[i] *= len(bucket)
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
    sizes[:] = [sizes[i] for i in keep]
    counts[:] = merged
    return True


def _split_charpoly(sizes: Sequence[int],
                    counts: Sequence[Sequence[int]]) -> tuple[Counter, list[int]]:
    """Characteristic polynomial of the quotient diag(row sums) - counts,
    as its integer roots with multiplicities and the monic residual left
    when they are divided out, found by splitting the classes.

    A set S of classes with n_S vertices has the quotient Q_S of the
    subgraph its classes induce (counts restricted to S).  Its
    characteristic polynomial chi_S is split three ways:

    - Join.  Let U be the universal classes of S, whose row sum inside S
      is n_S - 1, holding n_U vertices, and R the rest.  Then
      chi_S(x) = x (x - n_S)^|U| chi_R(x - n_U) / (x - n_U); an empty R
      has chi_R = 1 and n_U = n_S, which leaves the clique's
      x (x - n_S)^(|U| - 1).  Proof for a nonempty R by block-constant
      eigenvectors of Q_S: a vertex of U sees every other vertex of S,
      and one of R sees all of U besides its own counts in R.  The
      constant vector gives 0.  The vector n_R on U and -n_U on R
      gives n_S.  Vectors on U, zero on R, whose class-size-weighted sum
      is zero give n_S, |U| - 1 more times.  Q_R is similar to a
      symmetric matrix, so it has an eigenbasis of its constant vector
      and |R| - 1 vectors of weighted sum zero; each of those, put on R
      and zero on U, turns its eigenvalue lambda into lambda + n_U.
      These |S| independent eigenvectors give all of chi_S.
    - Union.  A disconnected S gives a block-diagonal Q_S: chi_S is the
      product over its components.
    - Leaf.  A connected S of two or more classes and no universal class
      goes to `charpoly_exact`; its integer roots lie in 0..n_S.  One
      class gives x, and no class gives 1.

    The integer roots are carried in a Counter, shifted as joins
    shift them; the shifted 0 of R that a join removes is counted out
    when R is queued.  Each leaf's residual is Taylor-shifted once by
    its total shift, and the product of those is the residual.
    """
    roots: Counter = Counter()
    residual = [1]
    work = [(list(range(len(sizes))), 0)]
    while work:
        part, shift = work.pop()
        if len(part) <= 1:
            roots[shift] += len(part)
            continue
        total = sum(sizes[i] for i in part)
        inside = itemgetter(*part)
        degrees = [sum(inside(counts[i])) for i in part]
        universal = {i for i, d in zip(part, degrees) if d == total - 1}
        if universal:
            joined = sum(sizes[i] for i in universal)
            roots[shift] += 1
            roots[shift + total] += len(universal)
            roots[shift + joined] -= 1
            work.append(([i for i in part if i not in universal], shift + joined))
            continue
        pieces = _quotient_components(counts, part)
        if len(pieces) > 1:
            work.extend((piece, shift) for piece in pieces)
            continue
        rows = [[-c for c in inside(counts[i])] for i in part]
        for a, d in enumerate(degrees):
            rows[a][a] += d
        # an equitable quotient of a Laplacian is similar to a symmetric PSD matrix
        poly = charpoly_exact(rows, nonnegative_eigenvalues=True)
        for root, mult in integer_root_multiplicities(poly, 0, total).items():
            roots[shift + root] += mult
            for _ in range(mult):
                poly = _synthetic_divide(poly, root)
        residual = _poly_mul(residual, taylor_shift(poly, -shift))
    assert min(roots.values(), default=0) >= 0, "a join removed a root it did not have"
    return +roots, residual


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two polynomials, coefficients ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# spectrum computation


def integer_eigenvalue_multiplicity(g: Graph, lam: int) -> int:
    """Exact algebraic multiplicity of the integer lam in the Laplacian spectrum.

    Read from the certified part of `spectrum`: the multiplicities split
    off by the collapse plus the multiplicity of lam as a root of the
    quotient's exact characteristic polynomial.
    """
    if not 0 <= lam <= g.n:
        raise ValueError(f"eigenvalue candidate {lam} outside 0..{g.n}")
    return spectrum(g).exact.multiplicity(lam)


def spectrum(g: Graph | TwinPartition) -> Spectrum:
    """Full Laplacian spectrum with exact integer certification.

    Takes a graph or its twin partition; `twin_partition(group)` and
    `cyclic_twin_partition(n)` give a power graph's without building it.
    Every integer 0..n is certified through the exact engine; when the
    certified multiplicities sum to n the spectrum is Exact.  Otherwise
    the certified roots are divided out of the quotient's characteristic
    polynomial (`_split_charpoly`, which computes only the pieces that
    joins and unions cannot split), leaving the residual, and the result
    is Mixed.  Its display floats are the eigenvalues of the symmetrized
    quotient with the certified roots removed at the positions the exact
    counts give.
    """
    core = _collapse(g)
    n = core.n
    roots, residual = _split_charpoly(core.sizes, core.counts)
    exact = FactoredCharPoly.from_counts(Counter(dict(core.extracted)) + roots)
    certified = exact.degree
    if certified > n:
        raise AssertionError("certified multiplicities exceed vertex count")
    if certified == n:
        return Spectrum(n=n, exact=exact)

    # eigvalsh is ascending: the root r with multiplicity m sits after the
    # core's smaller certified roots and the residual roots below r
    values = np.linalg.eigvalsh(core.symmetrized())
    keep = np.ones(len(values), dtype=bool)
    degree = len(residual) - 1
    smaller = 0
    for root, mult in sorted(roots.items()):
        start = smaller + degree - roots_above(residual, root)
        keep[start:start + mult] = False
        smaller += mult
    return Spectrum(
        n=n,
        exact=exact,
        numeric=tuple(float(v) for v in values[keep][::-1]),
        residual=tuple(residual),
    )


# ---------------------------------------------------------------------------
# derived quantities


def algebraic_connectivity(s: Spectrum) -> int | float:
    """Second-smallest Laplacian eigenvalue; an int when certified exactly."""
    if s.n < 2:
        raise ValueError("algebraic connectivity requires at least 2 vertices")
    return s.eigenvalues_ascending()[1]


def spectral_radius(s: Spectrum) -> int | float:
    if s.n < 1:
        raise ValueError("spectral radius requires a nonempty graph")
    return s.eigenvalues_descending()[0]


def spectral_radius_multiplicity(s: Spectrum) -> int:
    """Multiplicity of the largest Laplacian eigenvalue, when it is an integer.

    Power graphs always qualify: the identity is a universal vertex, so
    the largest eigenvalue is the vertex count.
    """
    if s.n < 1:
        raise ValueError("spectral radius requires a nonempty graph")
    top = s.eigenvalues_descending()[0]
    if not isinstance(top, int):
        raise ValueError(
            "the largest eigenvalue is not a certified integer; its multiplicity is not certified"
        )
    return s.exact.multiplicity(top)


def complement_spectrum(s: Spectrum) -> Spectrum:
    """Spectrum of the complement graph, from an exact spectrum.

    One zero eigenvalue stays; every other eigenvalue maps to n - value.
    """
    if not s.is_exact:
        raise ValueError("complement mapping requires an exact spectrum")
    if s.n == 0:
        return s
    counts = s.exact.as_counter()
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


def max_component_radius(parts: Sequence[Spectrum]) -> int | float:
    """Largest spectral radius across component spectra."""
    if not parts:
        raise ValueError("max_component_radius requires at least one component")
    return max((spectral_radius(p) for p in parts), key=float)
