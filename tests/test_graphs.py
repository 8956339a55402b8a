import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph, reduced_cyclic_partition, small_graphs, twin_rich_graphs
from oracles import (
    counts_of,
    is_complete,
    masks_of,
    power_graph_by_masks,
    twin_partition_by_rows,
    vertex_connectivity_every_class_pair,
    vertex_connectivity_exhaustive,
)
from powerlap.graphs import (
    Graph,
    TwinPartition,
    _SplitNetwork,
    _classes_connected,
    complement,
    components,
    induced_subgraph,
    power_graph,
    proper_power_graph,
    reduced_cyclic_graph,
    twin_partition,
    vertex_connectivity,
)
from powerlap.groups import (
    cyclic_group,
    dicyclic_group,
    direct_product,
    generalized_quaternion,
    parse_group_spec,
)
from powerlap.spectra import spectrum
from powerlap.verify import is_cyclic, is_generalized_quaternion, pgroup_catalog


def assert_certifies(g, cut):
    """The witness has cut.size vertices and its removal leaves a
    disconnected graph, or a single vertex (complete and trivial graphs)."""
    gone = set(cut.separating_set)
    assert len(gone) == len(cut.separating_set) == cut.size
    rest = induced_subgraph(g, [v for v in range(g.n) if v not in gone])
    assert rest.n <= 1 or len(components(rest)) > 1


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match="outside"):
        Graph(1, (0b10,))
    g = Graph.from_edges(3, [(0, 1)])
    assert g.adjacent(0, 1) and not g.adjacent(0, 2)
    assert g.degree(2) == 0


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(2, (0,)), "row count must equal vertex count"),
    (lambda: Graph(-1, ()), "row count must equal vertex count"),
    (lambda: Graph.from_edges(3, [(0, 1), (2, 2)]), "self-loop at vertex 2"),
], ids=["rows-short", "negative-n", "edge-loop"])
def test_graph_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_power_graph_examples():
    assert is_complete(power_graph(cyclic_group(4)))
    z6 = power_graph(cyclic_group(6))
    for universal in (0, 1, 5):
        assert z6.degree(universal) == 5
    assert not z6.adjacent(2, 3)
    trivial = power_graph(cyclic_group(1))
    assert trivial.n == 1 and trivial.edge_count() == 0


def test_power_graph_connected(small_groups):
    for g in small_groups:
        assert len(components(power_graph(g))) == 1


def test_power_graph_complete_iff_prime_power_cyclic(small_groups):
    from powerlap.groups import factorize

    for n in range(1, 61):
        expected = n == 1 or factorize(n).is_prime_power
        assert is_complete(power_graph(cyclic_group(n))) == expected
    assert not is_complete(power_graph(dicyclic_group(2)))
    assert not is_complete(power_graph(direct_product(cyclic_group(2), cyclic_group(2))))


def test_proper_power_graph():
    assert is_complete(proper_power_graph(cyclic_group(7)))
    z33 = direct_product(cyclic_group(3), cyclic_group(3))
    comps = components(proper_power_graph(z33))
    assert len(comps) == 4
    assert all(len(c) == 2 for c in comps)
    assert len(components(proper_power_graph(dicyclic_group(2)))) == 1
    with pytest.raises(ValueError):
        proper_power_graph(cyclic_group(1))


def test_reduced_cyclic_graph():
    r6 = reduced_cyclic_graph(6)
    assert r6 == induced_subgraph(power_graph(cyclic_group(6)), [2, 3, 4])
    assert components(r6) == [[0, 2], [1]]
    r4 = reduced_cyclic_graph(4)
    assert r4.n == 1
    assert r4 == induced_subgraph(power_graph(cyclic_group(4)), [2])
    r12 = reduced_cyclic_graph(12)
    assert r12.n == 12 - 4 - 1
    assert len(components(r12)) == 1
    assert reduced_cyclic_graph(7).n == 0  # prime: everything removed
    with pytest.raises(ValueError):
        reduced_cyclic_graph(1)


def test_reduced_disconnected_iff_two_distinct_primes():
    from powerlap.groups import factorize

    for n in range(4, 101):
        f = factorize(n)
        if f.is_prime:
            continue
        disconnected = len(components(reduced_cyclic_graph(n))) > 1
        assert disconnected == f.is_product_of_two_distinct_primes, n


def test_components_edge_cases():
    assert components(Graph(0, ())) == []
    assert components(Graph.complete(4)) == [[0, 1, 2, 3]]
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert components(g) == [[0, 1], [2, 3], [4]]


def test_complement():
    k4 = Graph.complete(4)
    assert complement(k4).edge_count() == 0
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert complement(complement(g)) == g
    q2 = power_graph(dicyclic_group(2))
    assert len(components(complement(q2))) == 3


def test_induced_subgraph():
    z6 = power_graph(cyclic_group(6))
    assert induced_subgraph(z6, range(6)) == z6
    sub = induced_subgraph(z6, [2, 3, 4])
    assert sub == reduced_cyclic_graph(6)
    with pytest.raises(ValueError, match="unknown vertex"):
        induced_subgraph(z6, [7])
    with pytest.raises(ValueError, match="unknown vertex"):
        induced_subgraph(z6, [-1])
    assert induced_subgraph(z6, []) == Graph(0, ())
    assert induced_subgraph(Graph(0, ()), []) == Graph(0, ())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.data())
def test_induced_subgraph_matches_networkx(n, p, seed, data):
    g = random_graph(random.Random(seed), n, p)
    verts = data.draw(st.lists(st.integers(0, n - 1), max_size=n) if n else st.just([]))
    sub = induced_subgraph(g, verts)
    keep = sorted(set(verts))
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges())
    pos = {v: i for i, v in enumerate(keep)}
    want = {(pos[u], pos[v]) for u, v in h.subgraph(keep).edges()}
    assert sub.n == len(keep)
    assert {tuple(sorted(e)) for e in sub.edges()} == {tuple(sorted(e)) for e in want}


def test_twin_partition_equitable():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        tp = twin_partition(g)
        counts = counts_of(tp)
        assert sorted(v for cls in tp.classes for v in cls) == list(range(g.n))
        for i, cls in enumerate(tp.classes):
            # the partition stores no flags: every class is a clique, so
            # its diagonal count is its size less one, a degree is a row sum
            if len(cls) >= 2:
                assert counts[i][i] in (0, len(cls) - 1)
            for u in cls:
                row = g.rows[u]
                assert g.degree(u) == sum(counts[i]) == tp.degrees()[i]
                for j, other in enumerate(tp.classes):
                    expected = counts[i][j]
                    actual = sum(1 for v in other if (row >> v) & 1)
                    assert actual == expected


def assert_degrees_are_row_sums(tp):
    assert tp.degrees() == [sum(row) for row in counts_of(tp)]


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_degrees_are_row_sums_on_small_graphs(g):
    assert_degrees_are_row_sums(twin_partition(g))


@settings(max_examples=100, deadline=None)
@given(twin_rich_graphs())
def test_degrees_are_row_sums_on_twin_rich_graphs(g):
    assert_degrees_are_row_sums(twin_partition(g))


def test_degrees_are_row_sums_on_groups(lattice_groups):
    # Z_n's classes have one size per distinct phi(d), many masks at once
    groups = lattice_groups + [cyclic_group(n) for n in range(1, 301)]
    for g in groups + [parse_group_spec("prod:" + "x".join(["zn:2"] * 8))]:
        assert_degrees_are_row_sums(twin_partition(g))


# every order to 300, and two divisor-rich ones with 30 and 36 divisors
CYCLIC_ORACLE_ORDERS = list(range(1, 301)) + [720, 1260]


def test_cyclic_twin_partition_matches_the_power_graph():
    for n in CYCLIC_ORACLE_ORDERS:
        g = power_graph(cyclic_group(n))
        tp = twin_partition(cyclic_group(n))
        assert tp == twin_partition(g), n
        assert tp.n == n
        assert spectrum(tp) == spectrum(g), n
        assert vertex_connectivity(tp) == vertex_connectivity(g), n


def test_reduced_cyclic_twin_partition_matches_the_graph():
    for n in CYCLIC_ORACLE_ORDERS[1:]:
        g = reduced_cyclic_graph(n)
        tp = reduced_cyclic_partition(n)
        # the partition keeps the residues as vertex numbers; the graph
        # numbers the kept residues 0..k-1 in sorted order
        rank = {v: i for i, v in enumerate(sorted(v for c in tp.classes for v in c))}
        renumbered = TwinPartition(tuple(tuple(rank[v] for v in c) for c in tp.classes),
                                   tp.adj)
        assert renumbered == twin_partition(g), n
        assert spectrum(tp) == spectrum(g), n
        assert vertex_connectivity(renumbered) == vertex_connectivity(g), n
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_vertex_connectivity_reads_only_the_twin_partition():
    rng = random.Random(8)
    cases = [
        Graph(0, ()),
        Graph(1, (0,)),
        Graph(4, (0, 0, 0, 0)),  # four one-vertex classes, no edges
        Graph.complete(5),  # one clique class
        Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]),  # disconnected
        Graph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),  # K_{2,3}
    ]
    for _ in range(500):
        p = rng.choice([0.0, 0.15, 0.3, 0.5, 0.8, 1.0])
        cases.append(random_graph(rng, rng.randint(0, 14), p))
    for g in cases:
        cut = vertex_connectivity(twin_partition(g))
        assert cut == vertex_connectivity(g)
        if g.n:
            assert cut.size == nx_connectivity(g)
            assert_certifies(g, cut)


def test_vertex_connectivity_examples():
    assert vertex_connectivity(Graph.complete(4)).size == 3
    assert vertex_connectivity(power_graph(cyclic_group(4))).size == 3
    assert vertex_connectivity(Graph(0, ())).size == 0
    assert vertex_connectivity(Graph(1, (0,))).size == 0
    assert vertex_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)])).size == 0

    z33 = power_graph(direct_product(cyclic_group(3), cyclic_group(3)))
    cut = vertex_connectivity(z33)
    assert cut.size == 1
    assert cut.separating_set == (0,)  # the identity is the only cut vertex

    for n in range(2, 9):
        g = power_graph(dicyclic_group(n))
        cut = vertex_connectivity(g)
        assert cut.size == 2
        # the canonical witness {e, a^n} separates too
        rest = induced_subgraph(g, [v for v in range(4 * n) if v not in (0, n)])
        assert len(components(rest)) > 1


def test_witness_is_separating(small_groups):
    for g in small_groups:
        pg = power_graph(g)
        assert_certifies(pg, vertex_connectivity(pg))


def test_vertex_connectivity_matches_exhaustive():
    rng = random.Random(12345)
    cases = [Graph.complete(5), Graph(3, (0, 0, 0)), Graph.from_edges(1, [])]
    for _ in range(60):
        n = rng.randint(2, 10)
        cases.append(random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8])))
    cases += [
        power_graph(cyclic_group(n)) for n in range(2, 13)
    ]
    cases.append(power_graph(dicyclic_group(2)))
    cases.append(power_graph(direct_product(cyclic_group(3), cyclic_group(3))))
    for g in cases:
        flow = vertex_connectivity(g)
        brute = vertex_connectivity_exhaustive(g)
        assert flow.size == brute.size, g
        assert_certifies(g, flow)


def nx_connectivity(g: Graph) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.node_connectivity(h)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 30), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_vertex_connectivity_matches_networkx_on_random_graphs(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    cut = vertex_connectivity(g)
    assert cut.size == nx_connectivity(g)
    assert_certifies(g, cut)


random_small_groups = st.one_of(
    st.builds(cyclic_group, st.integers(1, 60)),
    st.builds(dicyclic_group, st.integers(2, 12)),
    st.builds(generalized_quaternion, st.integers(2, 4)),
    st.builds(
        direct_product,
        st.builds(cyclic_group, st.integers(2, 8)),
        st.builds(cyclic_group, st.integers(2, 6)),
    ),
    st.builds(
        direct_product,
        st.builds(cyclic_group, st.integers(2, 4)),
        st.builds(direct_product, st.builds(cyclic_group, st.integers(2, 4)),
                  st.builds(cyclic_group, st.integers(2, 3))),
    ),
)


@settings(max_examples=80, deadline=None)
@given(random_small_groups, st.booleans())
def test_vertex_connectivity_matches_networkx_on_power_graphs(group, proper):
    # twin-rich inputs: whole ~-classes collapse into one quotient node
    g = proper_power_graph(group) if proper and group.order >= 2 else power_graph(group)
    cut = vertex_connectivity(g)
    assert cut.size == nx_connectivity(g)
    assert_certifies(g, cut)


@pytest.mark.parametrize("spec, kappa", [
    ("qn:105", 2),
    ("qn:250", 2),
    ("prod:zn:4xzn:4xzn:4xzn:4xzn:2", 1),
    ("prod:zn:8xzn:8xzn:8", 1),
])
def test_vertex_connectivity_on_large_quotients(spec, kappa):
    # 121-262 twin classes with kappa 1 or 2: every source meets many
    # non-adjacent classes before the scan can stop
    g = power_graph(parse_group_spec(spec))
    cut = vertex_connectivity(g)
    assert cut.size == kappa
    assert_certifies(g, cut)


@settings(max_examples=200, deadline=None)
@given(twin_rich_graphs())
def test_vertex_connectivity_on_twin_rich_graphs(g):
    cut = vertex_connectivity(g)
    assert cut.size == nx_connectivity(g)
    assert_certifies(g, cut)
    # peeling, one flow per pair and the vertex-count stop keep the witness
    assert cut == vertex_connectivity_every_class_pair(twin_partition(g))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), twin_rich_graphs()))
@example(Graph(0, ()))
@example(Graph(6, (0,) * 6))
@example(Graph.complete(7))
def test_twin_partition_matches_the_row_hash(g):
    assert twin_partition(g) == twin_partition_by_rows(g)


def assert_classes_are_closed_twins(rows, tp):
    """Every class holds vertices of one closed row, and no two classes
    share a closed row, read from the rows themselves."""
    assert sorted(v for c in tp.classes for v in c) == list(range(len(rows)))
    closed = []
    for c in tp.classes:
        keys = {rows[v] | 1 << v for v in c}
        assert len(keys) == 1, c
        closed += keys
    assert len(set(closed)) == len(closed)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), twin_rich_graphs()))
@example(Graph(6, (0,) * 6))
def test_twin_classes_are_closed_twins(g):
    assert_classes_are_closed_twins(g.rows, twin_partition(g))


def test_twin_classes_of_a_group_are_closed_twins(lattice_groups):
    for g in lattice_groups:
        assert_classes_are_closed_twins(power_graph_by_masks(masks_of(g)).rows, twin_partition(g))
    # Z2^4's fifteen involutions are open twins, each a class of its own
    assert twin_partition(parse_group_spec("prod:zn:2xzn:2xzn:2xzn:2")).size == 16


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), twin_rich_graphs()), st.data())
def test_classes_connected_matches_the_component_count(g, data):
    tp = twin_partition(g)
    if tp.size < 2:
        return
    keep = data.draw(st.lists(st.sampled_from(range(tp.size)), min_size=2, unique=True))
    # the quotient on the classes keep, in any class order, joins i and j
    # when a vertex of class i has a neighbour in class j
    counts = counts_of(tp)
    quotient = nx.Graph()
    quotient.add_nodes_from(keep)
    quotient.add_edges_from((i, j) for i in keep for j in keep if i != j and counts[i][j])
    assert _classes_connected(tp, sum(1 << i for i in keep)) == nx.is_connected(quotient)


def test_twin_partition_of_a_group_matches_its_power_graph(lattice_groups):
    groups = [cyclic_group(n) for n in range(1, 301)] + lattice_groups
    for g in groups:
        # the power graph by the table walk, and the package's from the lattice
        pg = power_graph_by_masks(masks_of(g))
        assert power_graph(g) == pg, g.label
        # classes, their order and the counts, with no graph built
        assert twin_partition(g) == twin_partition(pg) == twin_partition_by_rows(pg), g.label


def test_twin_partition_of_a_group_stays_small():
    # the graph route peaks at about 268 MB on Q_2048: n^2-byte matrices at
    # n = 8192; Z_2^13 peaked at 6.2 MB while each of its 8,192 cyclic
    # subgroups kept its containments as an n-bit mask, and its 8,192
    # one-vertex classes now peak at 2.9 MB
    z2_13 = parse_group_spec("prod:" + "x".join(["zn:2"] * 13))
    for g, bound_mb in ((dicyclic_group(2048), 64), (z2_13, 4)):
        g.cyclic_subgroups()
        tracemalloc.start()
        try:
            tp = twin_partition(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tp.n == 8192
        assert peak < bound_mb * 2**20, g.label


def test_vertex_connectivity_builds_no_second_partition(monkeypatch):
    # each graph has universal vertices and stays connected without them,
    # so the scan runs on the piece of the other classes of the partition
    # it was given
    groups = [cyclic_group(12), cyclic_group(360), dicyclic_group(5)]
    for g in groups:
        pg = power_graph(g)
        rest = [v for v in range(g.order) if pg.degree(v) < g.order - 1]
        assert len(rest) < g.order and len(components(induced_subgraph(pg, rest))) == 1
    partitions = [twin_partition(g) for g in groups]
    expected = [vertex_connectivity_every_class_pair(tp) for tp in partitions]
    built = 0
    init = TwinPartition.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TwinPartition, "__init__", counted)
    assert [vertex_connectivity(tp) for tp in partitions] == expected
    assert built == 0


def test_vertex_connectivity_matches_the_unpruned_scan_on_the_claim_suites():
    # the partitions the default verify run asks kappa of: 299 cyclic,
    # 31 dicyclic and 153 p-groups, then three with many classes
    partitions = [twin_partition(cyclic_group(n)) for n in range(2, 301)]
    partitions += [twin_partition(dicyclic_group(n)) for n in range(2, 33)]
    partitions += [twin_partition(g) for g in pgroup_catalog(256)]
    assert len(partitions) == 483
    partitions.append(twin_partition(cyclic_group(5040)))
    partitions += [twin_partition(dicyclic_group(n)) for n in (105, 250)]
    for tp in partitions:
        assert vertex_connectivity(tp) == vertex_connectivity_every_class_pair(tp)


# max-flows the unpruned scan runs on Z_5040, which every source class
# flows to every non-adjacent class in both directions
UNPRUNED_Z5040_FLOWS = 2040


def test_vertex_connectivity_runs_few_flows(monkeypatch):
    flows = 0
    min_cut = _SplitNetwork.min_cut

    def counted(self, *args):
        nonlocal flows
        flows += 1
        return min_cut(self, *args)

    monkeypatch.setattr(_SplitNetwork, "min_cut", counted)
    # removing the identity disconnects a non-cyclic p-group's power graph,
    # except for generalized quaternion groups, where removing the identity
    # and the involution does: the peel alone finds the cut (the unpruned
    # scan runs 629 flows over these groups)
    for g in pgroup_catalog(64):
        if not is_cyclic(g):
            assert vertex_connectivity(power_graph(g)).size == 1 + is_generalized_quaternion(g)
    assert flows == 0
    vertex_connectivity(twin_partition(cyclic_group(5040)))
    assert 0 < flows <= UNPRUNED_Z5040_FLOWS // 2


def test_proper_connected_iff_cyclic_or_quaternion(small_pgroups):
    for g in small_pgroups:
        connected = len(components(proper_power_graph(g))) == 1
        assert connected == (is_cyclic(g) or is_generalized_quaternion(g)), g.label


def test_dicyclic_outside_vertex_pattern():
    # vertices outside <a> are adjacent to exactly the identity, the
    # involution a^n and their partner a^(n+i) b
    for n in (2, 3, 4, 6):
        g = power_graph(dicyclic_group(n))
        universal = g.degree(n) == 4 * n - 1
        assert universal == (n & (n - 1) == 0)
        for i in range(2 * n):
            v = 2 * n + i
            partner = 2 * n + (i + n) % (2 * n)
            assert sorted(g.neighbors(v)) == sorted([0, n, partner])

