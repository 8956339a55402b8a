"""Laplacian spectra: exact integer certification and exact ordering.

The exact engine never rounds.  A graph's twin classes (cliques of
vertices with equal closed neighborhoods) split off their integer
eigenvalues, read off class sizes and degrees, and leave the twin
quotient: each class's size and bitmask of the classes joined to it.
One routine then takes the quotient apart piece by piece, each piece a
bitmask of classes: a piece with universal classes is their join with
the rest, a disconnected piece is the union of its components (the
Laplacian calculus of joins and unions), and a piece whose classes
include weighted twins, found by hashing their adjacency bitmasks,
splits off the integer eigenvalues of their difference vectors and is
merged.
Each rule's polynomial follows from its parts', so only the pieces no
rule fits, connected with two or more classes, no universal class and no
weighted twins, reach the exact charpoly (Lanczos modulo primes past a
proven bound, restarted through repeated eigenvalues) of the quotient
itself, whose simple 0 is checked and divided out.  A leaf's result
depends only on its sizes and counts and is memoized for the last 64
leaves, so a leaf met again, such as the one a Z_n quotient shares with
its reduced graph's, costs no second charpoly.  Every integer eigenvalue
multiplicity comes from these rules and polynomials, so an "Exact"
spectrum is a proof, not an approximation.  A power graph's identity is
universal, so a non-cyclic p-group's quotient splits all the way down
and needs no charpoly.

When the certified multiplicities do not exhaust the vertex count, the
spectrum is "Mixed": dividing each leaf's integer roots out of its
characteristic polynomial leaves an integer residual, and their product,
shifted as the joins shift it, has exactly the non-integer eigenvalues
as roots.  Each quotient is similar to a symmetric matrix, so the
residual is real-rooted and Descartes' rule counts its roots above any
integer exactly; every comparison of an eigenvalue with an integer is
decided by such counts.  Floats from a dense symmetric eigensolver on
each leaf serve only for display.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .graphs import Graph, TwinPartition, _bits, _components, twin_partition
from .linalg import (
    _maclaurin_bound,
    _residue_primes,
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
    "spectrum",
    "algebraic_connectivity",
    "spectral_radius",
    "spectral_radius_multiplicity",
]

class CharPolyContradiction(ValueError):
    """A decomposition tree's charpoly removes a root more often than it adds it."""


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

    def text(self) -> str:
        """Factored form like ``x^1 (x-8)^7``, nonzero roots descending."""
        if not self.factors:
            return "1"
        parts = []
        zero = self.multiplicity(0)
        if zero:
            parts.append(f"x^{zero}")
        for r, m in reversed(self.factors):
            if r != 0:
                parts.append(f"(x-{r})^{m}")
        return " ".join(parts)

    def to_json_list(self) -> list[list[int]]:
        return [[r, m] for r, m in reversed(self.factors)]


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
    and ``numeric`` is empty.  The second-smallest and the largest
    eigenvalue are placed by exact counts on first read and kept.
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

    def count_at_most(self, k: int) -> int:
        """Number of eigenvalues <= the integer k, with multiplicity, exactly."""
        certified = sum(m for r, m in self.exact.factors if r <= k)
        return certified + len(self.numeric) - roots_above(self.residual, k)

    @cached_property
    def _second(self) -> int | float:
        # the certified roots ascending, each placed after the residual
        # roots below it by one count, until two values are placed
        floats = sorted(self.numeric)
        vals: list[int | float] = []
        placed = 0  # floats already in vals
        for r, m in self.exact.factors:
            if len(vals) >= 2:
                break
            # the residual has no root at r, so those not above it lie below
            below = len(floats) - roots_above(self.residual, r)
            vals += floats[placed:below] + [r] * m
            placed = below
        return (vals + floats[placed:])[1]

    @cached_property
    def _top(self) -> int | float:
        # the top certified root, unless a residual root lies above it: one
        # count decides, and none is needed at n, as L(G) + L(G') = nI - J
        # for the complement G' bounds a Laplacian spectrum by n
        if self.exact.factors:
            top = self.exact.factors[-1][0]
            if top == self.n or not roots_above(self.residual, top):
                return top
        return max(self.numeric)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "exact": self.exact.to_json_list(),
            "numeric": [round(v, 10) for v in self.numeric],
            "is_laplacian_integral": self.is_exact,
        }

    def rows(self, decimals: int) -> list[tuple[str, str]]:
        """Value/multiplicity rows as printed: certified integers ascending,
        then non-integers ascending to ``decimals`` digits, multiplicity 1."""
        return [(str(r), str(m)) for r, m in self.exact.factors] + [
            (f"{v:.{decimals}f}", "1") for v in sorted(self.numeric)]

    def table_text(self) -> str:
        """The rows to 8 decimals as two right-aligned lines."""
        cols = self.rows(8)
        if not cols:
            return "eigenvalue   (none)\nmultiplicity (none)"
        widths = [max(len(a), len(b)) for a, b in cols]
        top = "  ".join(a.rjust(w) for (a, _), w in zip(cols, widths))
        bot = "  ".join(b.rjust(w) for (_, b), w in zip(cols, widths))
        return f"eigenvalue    {top}\nmultiplicity  {bot}"


# ---------------------------------------------------------------------------
# the quotient engine


def _quotient_spectrum(sizes: Sequence[int], within: Sequence[int], adj: Sequence[int],
                       degrees: Sequence[int]) -> tuple[Counter, list[int], list[float]]:
    """Spectrum of the quotient Q = diag(degrees) - counts of a twin
    partition, where class i has ``sizes[i]`` vertices, ``within[i]``
    neighbors in its own class and ``sizes[j]`` in each class j whose bit
    is set in ``adj[i]``: its integer roots with multiplicities, the
    monic residual left when they are divided out of its characteristic
    polynomial, and the residual's roots as display floats.

    A piece S is a bitmask of classes, with n_S vertices; it has the
    quotient Q_S of the subgraph its classes induce.  Classes keep their
    indices throughout, and each one lies in at most one piece, so the
    sizes, within counts and degrees inside its piece are kept per class
    and updated in place.  Each piece taken from the work list gets the
    first rule that fits:

    - Join.  Let U be the universal classes of S, whose degree inside S
      is n_S - 1, holding n_U vertices, and R the rest.  Then
      chi_S(x) = x (x - n_S)^|U| chi_R(x - n_U) / (x - n_U); an empty R
      has chi_R = 1 and n_U = n_S, which leaves the clique's
      x (x - n_S)^(|U| - 1).  Proof for a nonempty R by block-constant
      eigenvectors of Q_S: a vertex of U sees every other vertex of S,
      and one of R sees all of U besides its own neighbors in R.  The
      constant vector gives 0.  The vector n_R on U and -n_U on R
      gives n_S.  Vectors on U, zero on R, whose class-size-weighted sum
      is zero give n_S, |U| - 1 more times.  Q_R is similar to a
      symmetric matrix, so it has an eigenbasis of its constant vector
      and |R| - 1 vectors of weighted sum zero; each of those, put on R
      and zero on U, turns its eigenvalue lambda into lambda + n_U.
      These |S| independent eigenvectors give all of chi_S, and each
      degree in R drops by n_U.
    - Union.  A disconnected S gives a block-diagonal Q_S: chi_S is the
      product over its components.  Each class joined to no other class
      of S is a component with the root 0, counted at once; the rest is
      queued, and only a piece with no such class goes to `_components`.
    - Merge.  Weighted twins in Q_S (`_weighted_twins`) carry integer
      eigenvalues of difference vectors, which are split off.  The
      lowest class of each bucket takes the merged size and within
      count, the others leave S, and S is queued again with the rest
      of chi_S.  No degree changes.
    - Leaf.  Otherwise S, its classes relabeled ascending, goes to
      `_leaf_spectrum` as the only dense matrix built and its one
      `charpoly_exact`; its integer roots lie in 0..n_S.  One class
      gives x, and no class gives 1.

    The integer roots are carried in a Counter, shifted as joins shift
    them; the shifted 0 of R that a join removes is counted out when R
    is queued.  Each leaf's residual is Taylor-shifted once by its total
    shift, and the product of those is the residual.  A leaf's floats
    are the eigenvalues of its symmetrized quotient with its integer
    roots removed at the positions the exact counts give, shifted the
    same way.
    """
    sizes, within, degrees = list(sizes), list(within), list(degrees)
    roots: Counter = Counter()
    residual = [1]
    numeric: list[float] = []
    work = [((1 << len(sizes)) - 1, 0)]  # (piece, shift)
    while work:
        piece, shift = work.pop()
        part = _bits(piece)
        if len(part) <= 1:
            roots[shift] += len(part)
            continue
        total = sum(sizes[i] for i in part)
        universal = [i for i in part if degrees[i] == total - 1]
        if universal:
            joined = sum(sizes[i] for i in universal)
            roots[shift] += 1
            roots[shift + total] += len(universal)
            roots[shift + joined] -= 1
            rest = piece & ~sum(1 << i for i in universal)
            # every vertex of R sees all n_U vertices of U
            for i in _bits(rest):
                degrees[i] -= joined
            work.append((rest, shift + joined))
            continue
        lone = sum(1 << i for i in part if not adj[i] & piece)
        if lone:
            roots[shift] += lone.bit_count()
            work.append((piece ^ lone, shift))
            continue
        pieces = _components(adj, piece)
        if len(pieces) > 1:
            work.extend((component, shift) for component in pieces)
            continue
        buckets = _weighted_twins(piece, sizes, within, adj)
        if buckets:
            for i, *twins in buckets:
                cross = sizes[i] if adj[i] >> twins[0] & 1 else 0
                roots[shift + degrees[i] - within[i] + cross] += len(twins)
                within[i] += len(twins) * cross
                sizes[i] *= len(twins) + 1
                for j in twins:
                    piece ^= 1 << j
            work.append((piece, shift))
            continue
        # refused before its counts are built
        m = len(part)
        _residue_primes(m, _maclaurin_bound(m, sum(degrees[i] - within[i] for i in part)))
        found, poly, values = _leaf_spectrum(
            tuple(sizes[i] for i in part),
            tuple(tuple(within[i] if j == i else sizes[j] if adj[i] >> j & 1 else 0 for j in part)
                  for i in part),
        )
        for root, mult in found:
            roots[shift + root] += mult
        if values:
            numeric.extend(v + shift for v in values)
            residual = _poly_mul(residual, taylor_shift(poly, -shift))
    assert min(roots.values(), default=0) >= 0, "a join removed a root it did not have"
    return +roots, residual, numeric


def _weighted_twins(piece: int, sizes: Sequence[int], within: Sequence[int],
                    adj: Sequence[int]) -> list[list[int]]:
    """Every bucket of two or more weighted twins among the classes of the
    piece, each bucket ascending.

    Classes i and j of equal size s and equal within count w are weighted
    twins when they are joined to the same classes of the piece besides
    each other: closed twins when they are joined to each other, with
    cross count c = s, open twins when they are not, with c = 0.  The
    difference of their indicator vectors is then a Laplacian eigenvector
    with eigenvalue degree - w + c.  So a class is hashed by its closed
    key, its adjacency in the piece with its own bit set, and by its open
    key, without it; no closed key equals another class's open key, as
    adjacency is symmetric.  A class has one cross count with all its
    twins (an open twin and a closed twin of one class would disagree on
    each other), so it lies in at most one bucket of two or more.
    """
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for i in _bits(piece):
        joined = adj[i] & piece
        buckets.setdefault((sizes[i], within[i], joined | 1 << i), []).append(i)
        buckets.setdefault((sizes[i], within[i], joined), []).append(i)
    return [bucket for bucket in buckets.values() if len(bucket) >= 2]


@lru_cache(maxsize=64)
def _leaf_spectrum(sizes: tuple[int, ...], counts: tuple[tuple[int, ...], ...]
                   ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[float, ...]]:
    """Unshifted spectrum of one leaf Q = diag(row sums) - counts: its
    integer roots with multiplicities (ascending), the monic residual
    left when they are divided out of chi_Q, and the residual's roots as
    display floats (ascending).

    Q is self-adjoint in a form the class sizes give, passed as
    ``weights``, and `charpoly_exact` checks that its eigenvalues are
    real and nonnegative.  Q has zero row sums, so chi_Q(0) = 0, which is
    checked; a leaf is connected, so Q's 0 is simple, and chi_Q / x has a
    nonzero constant term for the integer roots.  The result depends
    only on the arguments, so the last 64 leaves are memoized: a Z_n
    quotient and its reduced graph's, for one, end in the same leaf.
    """
    rows = [[-c for c in row] for row in counts]
    for a, row in enumerate(counts):
        rows[a][a] += sum(row)
    zero, *rest = charpoly_exact(rows, weights=sizes)
    if zero:
        raise ValueError(f"chi_Q(0) = {zero} for a quotient with zero row sums")
    roots, poly = integer_root_multiplicities(rest, sum(sizes))
    found = ((0, 1), *roots.items())
    degree = len(poly) - 1
    if not degree:
        return found, (1,), ()
    # eigvalsh is ascending: the root r with multiplicity m sits after
    # the leaf's smaller integer roots and the residual roots below r
    scale = np.sqrt(np.array(sizes, dtype=float))
    s = np.array(rows, dtype=float) * scale[:, None] / scale[None, :]
    values = np.linalg.eigvalsh((s + s.T) / 2.0)
    keep = np.ones(len(values), dtype=bool)
    smaller = 0
    for root, mult in found:
        start = smaller + degree - roots_above(poly, root)
        keep[start:start + mult] = False
        smaller += mult
    return found, tuple(poly), tuple(float(v) for v in values[keep])


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two polynomials, coefficients ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# spectrum computation


def spectrum(g: Graph | TwinPartition) -> Spectrum:
    """Full Laplacian spectrum with exact integer certification.

    Takes a graph or its twin partition; `twin_partition(group)` gives a
    power graph's from the group's cyclic subgroups without building it.
    A twin class of k vertices, a clique, splits off its degree plus one
    k - 1 times; the rest of the spectrum is the twin quotient's, which
    `_quotient_spectrum` certifies: every integer eigenvalue with its
    exact multiplicity, and the residual polynomial of the others with
    their display floats.  When the certified multiplicities sum to n
    the spectrum is Exact, otherwise Mixed.
    """
    tp = g if isinstance(g, TwinPartition) else twin_partition(g)
    sizes = [len(c) for c in tp.classes]
    degrees = tp.degrees()
    exact: Counter = Counter()
    for size, degree in zip(sizes, degrees):
        exact[degree + 1] += size - 1
    roots, residual, numeric = _quotient_spectrum(sizes, [s - 1 for s in sizes], tp.adj, degrees)
    return Spectrum(
        n=tp.n,
        exact=FactoredCharPoly.from_counts(exact + roots),
        numeric=tuple(sorted(numeric, reverse=True)),
        residual=tuple(residual),
    )


# ---------------------------------------------------------------------------
# derived quantities


def algebraic_connectivity(s: Spectrum) -> int | float:
    """Second-smallest Laplacian eigenvalue; an int when certified exactly.
    Only the bottom of the spectrum is ordered, one count per root."""
    if s.n < 2:
        raise ValueError("algebraic connectivity requires at least 2 vertices")
    return s._second


def spectral_radius(s: Spectrum) -> int | float:
    """Largest Laplacian eigenvalue, from the top of the spectrum alone."""
    if s.n < 1:
        raise ValueError("spectral radius requires a nonempty graph")
    return s._top


def spectral_radius_multiplicity(s: Spectrum) -> int:
    """Multiplicity of the largest Laplacian eigenvalue, when it is an integer.

    Power graphs always qualify: the identity is a universal vertex, so
    the largest eigenvalue is the vertex count.
    """
    if s.n < 1:
        raise ValueError("spectral radius requires a nonempty graph")
    top = s._top
    if not isinstance(top, int):
        raise ValueError(
            "the largest eigenvalue is not a certified integer; its multiplicity is not certified"
        )
    return s.exact.multiplicity(top)
