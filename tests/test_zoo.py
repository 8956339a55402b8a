"""The engine on groups outside the paper's families, built from
permutation generators by `sympy.combinatorics`.

Every other test module builds cyclic, dicyclic and generalized
quaternion groups and their direct products.  Here non-nilpotent groups
(S_n, A_n, dihedral, SL(2,3), GL(2,3), PSL(2,7)) and p-groups, among
them every group of order 8, 16 and 27 (Hall & Senior, 1964), go
through `from_table`, each checked first to be the group it is named
for by its order and its counts of elements of each order; the groups
of order 8, 16 and 27 also by their centre's order and their number of
distinct squares, which tell each apart from the others of its order.
Their spectra are compared with the dense symmetric eigenvalues, kappa
with networkx, and the p-groups run the p-group claim bundle and are
checked against the decomposition, twin-partition and quaternion
oracles.
"""

from collections import Counter
from functools import lru_cache
from itertools import product

import networkx as nx
import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.group_constructs import DirectProduct
from sympy.combinatorics.named_groups import (
    AbelianGroup,
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    SymmetricGroup,
)

from oracles import (
    decompose_by_recursion,
    dense_numeric_eigenvalues,
    eigenvalues_ascending,
    element_orders,
    is_generalized_quaternion_by_presentation,
    is_p_group_by_elements,
    twin_partition_by_rows,
)
from powerlap.graphs import power_graph, twin_partition, vertex_connectivity
from powerlap.groups import from_table
from powerlap.pgroup import decompose
from powerlap.spectra import spectrum
from powerlap.verify import check_pgroup_bundle, is_generalized_quaternion


def acting(points, *maps):
    """The permutation group generated by ``maps``, each a function on
    the listed points."""
    index = {x: i for i, x in enumerate(points)}
    return PermutationGroup([Permutation([index[f(x)] for x in points]) for f in maps])


def matrix_action(p, n, *matrices):
    """Matrices over F_p acting on the nonzero vectors of F_p^n."""
    vectors = [v for v in product(range(p), repeat=n) if any(v)]

    def act(a):
        return lambda v: tuple(sum(a[i][j] * v[j] for j in range(n)) % p for i in range(n))

    return acting(vectors, *map(act, matrices))


def projective_line_7():
    """PSL(2,7) on the projective line over F_7, by x -> x + 1 and x -> -1/x."""
    inf = 7

    def shift(x):
        return inf if x == inf else (x + 1) % 7

    def invert(x):
        return 0 if x == inf else inf if x == 0 else -pow(x, -1, 7) % 7

    return acting(list(range(8)), shift, invert)


def semidihedral(k):
    """SD_{2^k} as <i -> i + 1, i -> (2^(k-2) - 1) i> on Z_{2^(k-1)}."""
    n = 2 ** (k - 1)
    return acting(list(range(n)), lambda i: (i + 1) % n, lambda i: (2 ** (k - 2) - 1) * i % n)


def regular(elements, mul, *generators):
    """The group on ``elements`` with product ``mul``, acting on itself
    by left multiplication by the ``generators``."""
    return acting(elements, *(lambda h, g=g: mul(g, h) for g in generators))


def metacyclic(m, k, r):
    """Z_m x| Z_k, b a b^-1 = a^r, on the normal forms a^x b^y as (x, y)."""
    return regular(list(product(range(m), range(k))),
                   lambda g, h: ((g[0] + r ** g[1] * h[0]) % m, (g[1] + h[1]) % k),
                   (1, 0), (0, 1))


def quaternion(n):
    """<a, b | a^(2n), b^2 = a^n, b a b^-1 = a^-1> on the normal forms a^x b^y."""
    return regular(list(product(range(2 * n), range(2))),
                   lambda g, h: ((g[0] + (-1) ** g[1] * h[0] + n * g[1] * h[1]) % (2 * n),
                                 (g[1] + h[1]) % 2),
                   (1, 0), (0, 1))


def z4z2_by_z2():
    """(Z4 x Z2) x| Z2 = <a, b, c | a^4, b^2, c^2, b central, c a c^-1 = a b>
    on the normal forms a^x b^y c^z."""
    return regular(list(product(range(4), range(2), range(2))),
                   lambda g, h: ((g[0] + h[0]) % 4, (g[1] + h[1] + g[2] * h[0]) % 2,
                                 (g[2] + h[2]) % 2),
                   (1, 0, 0), (0, 1, 0), (0, 0, 1))


def pauli():
    """The Pauli group <X, Z, iI> over F_5, where 2 is a square root of -1."""
    return matrix_action(5, 2, ((0, 1), (1, 0)), ((1, 0), (0, 4)), ((2, 0), (0, 2)))


# name: (a function making the sympy group, {element order: count})
ZOO = {
    "S3": (lambda: SymmetricGroup(3), {1: 1, 2: 3, 3: 2}),
    "S4": (lambda: SymmetricGroup(4), {1: 1, 2: 9, 3: 8, 4: 6}),
    "A4": (lambda: AlternatingGroup(4), {1: 1, 2: 3, 3: 8}),
    "A5": (lambda: AlternatingGroup(5), {1: 1, 2: 15, 3: 20, 5: 24}),
    "S5": (lambda: SymmetricGroup(5), {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}),
    "D10": (lambda: DihedralGroup(5), {1: 1, 2: 5, 5: 4}),
    "D12": (lambda: DihedralGroup(6), {1: 1, 2: 7, 3: 2, 6: 2}),
    "D16": (lambda: DihedralGroup(8), {1: 1, 2: 9, 4: 2, 8: 4}),
    "D30": (lambda: DihedralGroup(15), {1: 1, 2: 15, 3: 2, 5: 4, 15: 8}),
    "S3xS3": (lambda: DirectProduct(SymmetricGroup(3), SymmetricGroup(3)),
              {1: 1, 2: 15, 3: 8, 6: 12}),
    "SL(2,3)": (lambda: matrix_action(3, 2, ((1, 1), (0, 1)), ((1, 0), (1, 1))),
                {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}),
    "GL(2,3)": (lambda: matrix_action(3, 2, ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))),
                {1: 1, 2: 13, 3: 8, 4: 6, 6: 8, 8: 12}),
    "PSL(2,7)": (projective_line_7, {1: 1, 2: 21, 3: 56, 4: 42, 7: 48}),
    "D32": (lambda: DihedralGroup(16), {1: 1, 2: 17, 4: 2, 8: 4, 16: 8}),
    "SD16": (lambda: semidihedral(4), {1: 1, 2: 5, 4: 6, 8: 4}),
    "SD32": (lambda: semidihedral(5), {1: 1, 2: 9, 4: 10, 8: 4, 16: 8}),
    "Heis27": (lambda: acting(list(product(range(3), repeat=3)),
                              lambda v: ((v[0] + v[1]) % 3, v[1], v[2]),
                              lambda v: (v[0], (v[1] + v[2]) % 3, v[2])),
               {1: 1, 3: 26}),
    "D8xZ2": (lambda: DirectProduct(DihedralGroup(4), CyclicGroup(2)), {1: 1, 2: 11, 4: 4}),
    "Z8": (lambda: CyclicGroup(8), {1: 1, 2: 1, 4: 2, 8: 4}),
    "Z4xZ2": (lambda: AbelianGroup(4, 2), {1: 1, 2: 3, 4: 4}),
    "Z2^3": (lambda: AbelianGroup(2, 2, 2), {1: 1, 2: 7}),
    "D8": (lambda: DihedralGroup(4), {1: 1, 2: 5, 4: 2}),
    "Q8": (lambda: quaternion(2), {1: 1, 2: 1, 4: 6}),
    "Z16": (lambda: CyclicGroup(16), {1: 1, 2: 1, 4: 2, 8: 4, 16: 8}),
    "Z4xZ4": (lambda: AbelianGroup(4, 4), {1: 1, 2: 3, 4: 12}),
    "Z8xZ2": (lambda: AbelianGroup(8, 2), {1: 1, 2: 3, 4: 4, 8: 8}),
    "Z4xZ2^2": (lambda: AbelianGroup(4, 2, 2), {1: 1, 2: 7, 4: 8}),
    "Z2^4": (lambda: AbelianGroup(2, 2, 2, 2), {1: 1, 2: 15}),
    "Q16": (lambda: quaternion(4), {1: 1, 2: 1, 4: 10, 8: 4}),
    "M16": (lambda: metacyclic(8, 2, 5), {1: 1, 2: 3, 4: 4, 8: 8}),
    "Z4:Z4": (lambda: metacyclic(4, 4, 3), {1: 1, 2: 3, 4: 12}),
    "Q8xZ2": (lambda: DirectProduct(quaternion(2), CyclicGroup(2)), {1: 1, 2: 3, 4: 12}),
    "(Z4xZ2):Z2": (z4z2_by_z2, {1: 1, 2: 7, 4: 8}),
    "Pauli": (pauli, {1: 1, 2: 7, 4: 8}),
    "Z27": (lambda: CyclicGroup(27), {1: 1, 3: 2, 9: 6, 27: 18}),
    "Z9xZ3": (lambda: AbelianGroup(9, 3), {1: 1, 3: 8, 9: 18}),
    "Z3^3": (lambda: AbelianGroup(3, 3, 3), {1: 1, 3: 26}),
    "Z9:Z3": (lambda: metacyclic(9, 3, 4), {1: 1, 3: 8, 9: 18}),
}
# every group of order 8, 16 and 27: (centre order, distinct squares)
SMALL_P_GROUPS = {
    "Z8": (8, 4), "Z4xZ2": (8, 2), "Z2^3": (8, 1), "D8": (2, 2), "Q8": (2, 2),
    "Z16": (16, 8), "Z4xZ4": (16, 4), "Z8xZ2": (16, 4), "Z4xZ2^2": (16, 2), "Z2^4": (16, 1),
    "D16": (2, 4), "SD16": (2, 4), "Q16": (2, 4), "M16": (4, 4), "D8xZ2": (4, 2),
    "Q8xZ2": (4, 2), "Z4:Z4": (4, 3), "(Z4xZ2):Z2": (4, 3), "Pauli": (4, 2),
    "Z27": (27, 27), "Z9xZ3": (27, 27), "Z3^3": (27, 27), "Heis27": (3, 27), "Z9:Z3": (3, 27),
}
SPECTRAL = ["S3", "S4", "A4", "A5", "S5", "D10", "D12", "D16", "D30", "S3xS3", "SL(2,3)",
            "GL(2,3)", "PSL(2,7)"]
P_GROUPS = sorted({"D32", "SD32", *SMALL_P_GROUPS})
# their spectra are mixed, so a leaf reaches the exact charpoly
MIXED = {"S3xS3", "SL(2,3)", "GL(2,3)"}


@lru_cache(maxsize=32)
def zoo_group(name):
    """The named group as a `FiniteGroup` from the Cayley table of its
    permutations, after its order and element-order counts are checked
    on the permutations themselves."""
    make, counts = ZOO[name]
    elements = list(make().generate())
    assert len(elements) == sum(counts.values())
    assert Counter(e.order() for e in elements) == counts
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[a * b] for b in elements] for a in elements]
    return from_table(len(elements), table, label=name)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_groups_keep_their_element_orders(name):
    g = zoo_group(name)
    assert Counter(element_orders(g)) == ZOO[name][1]


@pytest.mark.parametrize("name", SPECTRAL)
def test_zoo_spectra_match_the_dense_eigenvalues(name):
    g = zoo_group(name)
    s = spectrum(twin_partition(g))
    dense = dense_numeric_eigenvalues(power_graph(g))
    assert s.n == g.order and s.is_exact == (name not in MIXED)
    assert np.allclose(eigenvalues_ascending(s), dense, rtol=0, atol=1e-8)
    for root, mult in s.exact.factors:
        assert np.count_nonzero(np.abs(dense - root) < 1e-6) == mult
    assert np.allclose(sorted(s.numeric), [v for v in dense
                                           if np.abs(v - np.round(v)) >= 1e-6], rtol=0, atol=1e-8)


@pytest.mark.parametrize("name", SPECTRAL)
def test_zoo_kappa_matches_networkx(name):
    g = zoo_group(name)
    graph = power_graph(g)
    h = nx.Graph()
    h.add_nodes_from(range(graph.n))
    h.add_edges_from(graph.edges())
    assert vertex_connectivity(twin_partition(g)).size == nx.node_connectivity(h)


def test_small_p_groups_are_told_apart():
    # counts and centre alone tie Z4:Z4 with Q8xZ2 and (Z4xZ2):Z2 with
    # Pauli; their squares differ
    for order, count in ((8, 5), (16, 14), (27, 5)):
        names = [name for name in SMALL_P_GROUPS if sum(ZOO[name][1].values()) == order]
        told = {(frozenset(ZOO[name][1].items()), SMALL_P_GROUPS[name]) for name in names}
        assert len(names) == len(told) == count, order


@pytest.mark.parametrize("name", sorted(SMALL_P_GROUPS))
def test_small_p_groups_keep_their_centre_and_squares(name):
    group = ZOO[name][0]()
    squares = {e ** 2 for e in group.generate()}
    assert (group.center().order(), len(squares)) == SMALL_P_GROUPS[name]


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_twin_partitions_match_the_rows(name):
    g = zoo_group(name)
    assert twin_partition(g) == twin_partition_by_rows(power_graph(g))


@pytest.mark.parametrize("name", P_GROUPS)
def test_zoo_p_groups_pass_the_bundle(name):
    g = zoo_group(name)
    report = check_pgroup_bundle(g)
    assert report.verdict == "pass", report.witness
    assert report.parameters["prime"] == is_p_group_by_elements(g)


@pytest.mark.parametrize("name", P_GROUPS)
def test_zoo_p_groups_match_the_oracles(name):
    g = zoo_group(name)
    assert is_generalized_quaternion(g) == is_generalized_quaternion_by_presentation(g)
    assert decompose(g) == decompose_by_recursion(g)
