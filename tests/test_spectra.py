import functools
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import powerlap.spectra
import powerlap.verify
from conftest import (
    charpoly_leaves,
    default_verify,
    divisor_rich_spectra,
    log_kernels,
    random_graph,
    reduced_cyclic_partition,
    twin_rich_graphs,
    weighted_quotient,
)
from oracles import (
    algcon_equals_by_counts,
    charpoly_scalar_crt,
    clique_charpoly,
    collapse_to_fixpoint,
    complement_spectrum,
    counts_of,
    dense_nullity,
    dense_numeric_eigenvalues,
    eigenvalues_ascending,
    fraction_charpoly,
    join_charpoly,
    laplacian,
    quotient_fields,
    remove_root,
    tree_graph,
    union_charpoly,
)
from powerlap.graphs import (
    Graph,
    complement,
    components,
    power_graph,
    twin_partition,
)
from powerlap.groups import cyclic_group, dicyclic_group, direct_product, parse_group_spec
from powerlap.linalg import (
    charpoly_exact,
    eval_poly_at_int,
    integer_root_multiplicities,
)
from powerlap.pgroup import decompose
from powerlap.spectra import (
    CharPolyContradiction,
    FactoredCharPoly,
    Spectrum,
    algebraic_connectivity,
    spectral_radius,
    spectral_radius_multiplicity,
    spectrum,
)
from powerlap.verify import is_cyclic, pgroup_catalog, run_cyclic_suite, scan_conjecture


def poly(counts):
    return FactoredCharPoly.from_counts(counts)


# ---------------------------------------------------------------------------
# exact matrices


def test_laplacian_small():
    k2 = laplacian(Graph.complete(2))
    assert k2.entries == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))
    zero = laplacian(Graph(3, (0, 0, 0)))
    assert all(x == 0 for row in zero.entries for x in row)
    k3 = laplacian(Graph.complete(3))
    assert k3.entries[0] == (Fraction(2), Fraction(-1), Fraction(-1))
    assert all(sum(row) == 0 for row in k3.entries)


def exact_det(rows):
    """Fraction Gaussian elimination determinant, used as a charpoly oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def test_charpoly_exact_matches_determinant_oracle():
    # random connected weighted quotients of 2 to 7 classes
    rng = random.Random(99)
    for _ in range(25):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 7))]
        joined = {(i, i + 1) for i in range(len(sizes) - 1)}
        joined |= {(i, j) for i in range(len(sizes)) for j in range(i + 2, len(sizes))
                   if rng.random() < 0.5}
        mat = weighted_quotient(sizes, [rng.randrange(s) for s in sizes], joined)
        n = len(mat)
        coeffs = charpoly_exact(mat, weights=sizes)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        for x in (-2, 0, 1, 3, 7):
            shifted = [
                [x - mat[i][j] if i == j else -mat[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert eval_poly_at_int(coeffs, x) == exact_det(shifted)


# ---------------------------------------------------------------------------
# integer certification


def test_integer_multiplicity_examples():
    k4 = Graph.complete(4)
    assert spectrum(k4).exact.multiplicity(4) == 3
    q2 = power_graph(dicyclic_group(2))
    assert spectrum(q2).exact.multiplicity(8) == 2


def test_zero_multiplicity_counts_components():
    rng = random.Random(31)
    graphs = [random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(25)]
    graphs += [power_graph(cyclic_group(n)) for n in (2, 6, 12)]
    for g in graphs:
        assert spectrum(g).exact.multiplicity(0) == len(components(g))


def test_quotient_multiplicity_matches_dense_elimination():
    rng = random.Random(77)
    graphs = [random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
              for _ in range(20)]
    graphs += [
        power_graph(cyclic_group(12)),
        power_graph(cyclic_group(18)),
        power_graph(dicyclic_group(3)),
        power_graph(direct_product(cyclic_group(3), cyclic_group(3))),
    ]
    for g in graphs:
        s = spectrum(g)
        for lam in range(g.n + 1):
            assert s.exact.multiplicity(lam) == dense_nullity(g, lam)


def test_certified_integers_in_numeric_spectrum(small_groups):
    for g in small_groups:
        pg = power_graph(g)
        if pg.n > 40:
            continue
        numeric = dense_numeric_eigenvalues(pg)
        s = spectrum(pg)
        for root, mult in s.exact.factors:
            window = np.sum(np.abs(numeric - root) < 1e-8)
            assert window == mult, (g.label, root)


# ---------------------------------------------------------------------------
# weighted twins, merged over the whole twin quotient


def times_factors(coeffs, factors):
    """coeffs (ascending) times (x - lam)^mult for each (lam, mult)."""
    coeffs = list(coeffs)
    for lam, mult in factors:
        for _ in range(mult):
            coeffs = [a - lam * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def collapsed_charpoly(core):
    """Extracted factors times the quotient's charpoly, coefficients ascending."""
    return times_factors(charpoly_exact(core.quotient_rows(), weights=core.sizes),
                         core.extracted)


def spectrum_charpoly(s):
    """Certified factors times the residual, coefficients ascending."""
    return times_factors(s.residual, s.exact.factors)


def dense_charpoly(g):
    return fraction_charpoly(laplacian(g).entries)


def assert_collapse_of(g, core, charpoly=None):
    """Every vertex is extracted or in the core, the core's counts are
    neighbor counts (they add up to the degree sum of the graph), and the
    extracted factors times the quotient's charpoly are the graph's; so
    are the factors and residual `spectrum` certifies piece by piece."""
    want = charpoly or dense_charpoly(g)
    assert sum(core.sizes) == g.n
    assert core.core_size + sum(m for _, m in core.extracted) == g.n
    edge_ends = sum(s * sum(row) for s, row in zip(core.sizes, core.counts))
    assert edge_ends == 2 * g.edge_count()
    assert collapsed_charpoly(core) == want
    assert spectrum_charpoly(spectrum(g)) == want


def test_collapse_merges_a_join_of_matchings_in_two_passes():
    # 2K2 v 2K2: the four K2s are closed twin classes; each side's two
    # merge (cross count 0), then the two sides merge (cross count 4)
    join = [(a, b) for a in range(4) for b in range(4, 8)]
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)] + join)
    core = collapse_to_fixpoint(g)
    assert core.passes == 2
    assert core.sizes == (8,) and core.counts == ((5,),)
    assert core.extracted == ((4, 2), (6, 4), (8, 1))
    assert_collapse_of(g, core)


def test_collapse_merges_only_classes_with_equal_within_counts():
    # z is adjacent to two K2s (A1, A2) and to a pair B of open twins; y to
    # another pair B'.  A1, A2 and B share size and outside neighbors, but
    # only A1 and A2 have within count 1: B stays a class of its own
    z, y = 0, 7
    edges = [(1, 2), (3, 4)] + [(z, v) for v in range(1, 7)] + [(y, 8), (y, 9)]
    g = Graph.from_edges(10, edges)
    core = collapse_to_fixpoint(g)
    assert core.passes == 1
    assert sorted(core.sizes) == [1, 1, 2, 2, 4]
    assert core.extracted == ((1, 3), (3, 2))
    assert_collapse_of(g, core)


def test_collapse_matches_dense_charpoly_on_groups():
    for n in range(2, 13):
        g = power_graph(dicyclic_group(n))
        core = collapse_to_fixpoint(g)
        assert core.passes == 1, n
        assert_collapse_of(g, core)
    for grp in pgroup_catalog(64):
        g = power_graph(grp)
        want = dense_charpoly(g)
        for graph in (g, tree_graph(decompose(grp))):
            core = collapse_to_fixpoint(graph)
            assert core.passes <= 1, grp.label
            assert_collapse_of(graph, core, want)


def test_collapse_matches_dense_charpoly_on_random_graphs():
    rng = random.Random(14)
    for trial in range(100):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        assert_collapse_of(g, collapse_to_fixpoint(g))


# ---------------------------------------------------------------------------
# the quotient routine: joins, unions, merges and leaves


def quotient_matrix(counts):
    """diag(row sums) - counts."""
    rows = [[-c for c in row] for row in counts]
    for i, row in enumerate(counts):
        rows[i][i] += sum(row)
    return rows


def quotient_spectrum(sizes, counts):
    """`_quotient_spectrum` of the quotient of a dense count table."""
    return powerlap.spectra._quotient_spectrum(*quotient_fields(sizes, counts))


def assert_split_matches_full(sizes, counts):
    """`_quotient_spectrum` gives the integer roots of the whole quotient's
    charpoly, in 0..n as `spectrum` certified them from it: x^t, then the
    roots in 1..n of what is left; and a residual with no integer root;
    together they are that charpoly.  Its floats are the quotient's dense
    eigenvalues less those roots."""
    n = sum(sizes)
    rows = quotient_matrix(counts)
    full = charpoly_exact(rows, weights=sizes)
    roots, residual, numeric = quotient_spectrum(sizes, counts)
    t = next(i for i, c in enumerate(full) if c)
    assert roots == Counter({0: t}) + Counter(integer_root_multiplicities(full[t:], n)[0])
    assert integer_root_multiplicities(residual, n)[0] == {}
    assert times_factors(residual, roots.items()) == full
    scale = np.sqrt(np.array(sizes, dtype=float))
    m = len(sizes)
    dense = list(np.linalg.eigvalsh(np.array(rows, dtype=float).reshape(m, m)
                                    * scale[:, None] / scale[None, :]))
    for root, mult in roots.items():
        for _ in range(mult):
            dense.remove(min(dense, key=lambda v: abs(v - root)))
    assert np.allclose(sorted(numeric), sorted(dense), rtol=0, atol=1e-9)


def claim_suite_partitions():
    """Every twin partition whose spectrum the default claim suites take:
    Z_n and its reduced graph for n <= 300, Q_n for n <= 32, and the
    p-group catalog up to order 256."""
    for n in range(2, 301):
        yield twin_partition(cyclic_group(n))
        yield reduced_cyclic_partition(n)
    for n in range(2, 33):
        yield twin_partition(dicyclic_group(n))
    for g in pgroup_catalog(256):
        yield twin_partition(g)


def quotient_of(tp):
    return tuple(len(c) for c in tp.classes), counts_of(tp)


def test_split_charpoly_matches_full_core_on_claim_suites():
    for tp in claim_suite_partitions():
        assert_split_matches_full(*quotient_of(tp))


@pytest.mark.parametrize("n", [720, 1680, 2310, 5040])
def test_split_charpoly_matches_full_core_on_divisor_rich_zn(n):
    assert_split_matches_full(*quotient_of(twin_partition(cyclic_group(n))))


@pytest.mark.parametrize("spec", [
    "prod:zn:2xzn:2xzn:2xzn:2xzn:15",
    "prod:zn:6xzn:6",
    "prod:zn:2xzn:6xzn:6",
    "prod:zn:3xzn:3xzn:6",
    "qn:105",
    "qn:250",
])
def test_quotient_spectrum_merges_after_a_join(spec, monkeypatch):
    merge = powerlap.spectra._weighted_twins
    calls = []

    def counting(piece, *fields):
        calls.append(piece.bit_count())
        return merge(piece, *fields)

    monkeypatch.setattr(powerlap.spectra, "_weighted_twins", counting)
    assert_split_matches_full(*quotient_of(twin_partition(parse_group_spec(spec))))
    # the identity is universal, so every piece the merge sees comes after a join
    assert calls


def _union(g, h):
    return Graph(g.n + h.n, g.rows + tuple(r << g.n for r in h.rows))


def _join(g, h):
    to_h = ((1 << h.n) - 1) << g.n
    to_g = (1 << g.n) - 1
    return Graph(g.n + h.n, tuple(r | to_h for r in g.rows)
                 + tuple((r << g.n) | to_g for r in h.rows))


def _complete_bipartite(a, b):
    return _join(Graph(a, (0,) * a), Graph(b, (0,) * b))


_P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

# joins and unions of small random graphs, so that every split is taken
split_graphs = st.recursive(
    st.builds(lambda n, p, seed: random_graph(random.Random(seed), n, p),
              st.integers(0, 6), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)),
    lambda inner: st.one_of(st.builds(_union, inner, inner), st.builds(_join, inner, inner)),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(split_graphs)
@example(Graph(0, ()))
@example(Graph(1, (0,)))
@example(Graph(5, (0,) * 5))
@example(Graph.complete(6))
@example(_union(_union(Graph.complete(3), _P4), Graph(2, (0, 0))))
@example(_complete_bipartite(3, 4))
@example(_join(Graph.complete(2), _union(_P4, _complete_bipartite(2, 3))))
@example(_join(_union(_P4, _P4), _join(Graph(1, (0,)), _union(_P4, Graph.complete(2)))))
def test_split_charpoly_matches_full_core_on_random_graphs(g):
    tp = twin_partition(g)
    assert_split_matches_full(*quotient_of(tp))
    core = collapse_to_fixpoint(tp)
    assert_split_matches_full(core.sizes, core.counts)


@settings(max_examples=200, deadline=None)
@given(twin_rich_graphs())
def test_spectrum_of_twin_rich_graphs_matches_the_dense_charpoly(g):
    # open twins are separate classes, which only the merge rule joins
    assert spectrum_charpoly(spectrum(g)) == dense_charpoly(g)


def test_the_kernel_restarts_two_default_verify_leaves_and_replaces_no_prime(monkeypatch):
    # pins the kernel's traffic: the divisor-rich leaves and Z_55440's run
    # in one block on their first primes, and of the 159 default verify
    # leaves only an 8-row and a 10-row one restart, each for its last step
    calls = log_kernels(monkeypatch)
    divisor_rich_spectra((720, 840, 1260, 1680, 2310, 55440))
    assert calls == [(rows, 0, 0) for rows in (28, 30, 34, 38, 30, 118)]
    calls.clear()
    powerlap.spectra._leaf_spectrum.cache_clear()
    default_verify()
    assert len(calls) == 159 and not any(dropped for _, _, dropped in calls)
    assert sorted(call for call in calls if call[1]) == [(8, 1, 0), (10, 1, 0)]


def test_the_z55440_leaf_never_builds_a_residue_stack():
    # its one Krylov block never closes, so no (118, 118, primes) restart
    # basis of several MB is built
    [(matrix, sizes)] = charpoly_leaves(lambda: divisor_rich_spectra((55440,)))
    expected = charpoly_exact(matrix, weights=sizes)
    tracemalloc.start()
    try:
        assert charpoly_exact(matrix, weights=sizes) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_an_over_budget_leaf_is_refused_before_it_is_built():
    # Z2^9 x Z15 reaches a 2047-row leaf on 372 primes, an 11.6 GiB basis:
    # the refusal neither builds the leaf's count table nor sums every
    # Maclaurin term
    tp = twin_partition(parse_group_spec("prod:" + "x".join(["zn:2"] * 9 + ["zn:15"])))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="^2047 rows on 372 primes: .* over the 1073741824-byte budget$"):
            spectrum(tp)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 64 * 2**20


def _star(k):
    return Graph.from_edges(k + 1, [(0, v) for v in range(1, k + 1)])


@pytest.mark.parametrize("g", [
    *(Graph(n, (0,) * n) for n in range(1, 7)),
    *(_star(k) for k in range(1, 7)),
    _union(_P4, Graph(3, (0, 0, 0))),
    _union(Graph(2, (0, 0)), _union(_complete_bipartite(2, 3), Graph(1, (0,)))),
    _join(Graph.complete(2), _union(_P4, Graph(2, (0, 0)))),
], ids=[f"edgeless-{n}" for n in range(1, 7)] + [f"star-{k}" for k in range(1, 7)]
    + ["P4+3K1", "2K1+K23+K1", "K2vP4+2K1"])
def test_lone_classes_match_the_dense_charpoly(g):
    # each class joined to nothing else in its piece leaves it with root 0
    assert spectrum_charpoly(spectrum(g)) == dense_charpoly(g)


@pytest.mark.parametrize("k", range(1, 7))
def test_lone_involutions_match_the_dense_charpoly(k):
    g = functools.reduce(direct_product, [cyclic_group(2)] * k)
    want = dense_charpoly(power_graph(g))
    assert spectrum_charpoly(spectrum(twin_partition(g))) == want


def test_lone_involutions_need_no_component_search(monkeypatch):
    searches = []
    search = powerlap.spectra._components

    def counting(rows, piece):
        searches.append(piece)
        return search(rows, piece)

    monkeypatch.setattr(powerlap.spectra, "_components", counting)
    s = spectrum(twin_partition(parse_group_spec("prod:" + "x".join(["zn:2"] * 8))))
    assert s.exact == poly({0: 1, 1: 254, 256: 1}) and searches == []


def test_split_charpoly_by_hand():
    def split(sizes, counts):
        roots, residual, numeric = quotient_spectrum(sizes, counts)
        return roots, residual, sorted(numeric)

    assert split((), ()) == ({}, [1], [])
    assert split((3,), ((0,),)) == ({0: 1}, [1], [])
    # K_3 as three one-vertex classes, each universal: x (x-3)^2
    assert split((1, 1, 1), ((0, 1, 1), (1, 0, 1), (1, 1, 0))) == ({0: 1, 3: 2}, [1], [])
    # K_2 v 3K_1: a universal clique class joined to an independent class
    # gives the quotient eigenvalues 0 and 5 with no charpoly
    assert split((2, 3), ((1, 3), (2, 0))) == ({0: 1, 5: 1}, [1], [])
    # the path on 4 vertices cannot be split: 0, 2 and the roots of x^2 - 4x + 2
    roots, residual, numeric = split((1,) * 4, ((0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0)))
    assert (roots, residual) == ({0: 1, 2: 1}, [2, -4, 1])
    assert np.allclose(numeric, [2 - 2 ** 0.5, 2 + 2 ** 0.5], rtol=0, atol=1e-12)


def test_non_cyclic_p_groups_need_no_charpoly(monkeypatch):
    calls = []
    merges = []
    merge = powerlap.spectra._weighted_twins

    def counting(matrix, **kwargs):
        calls.append(len(matrix))
        return charpoly_exact(matrix, **kwargs)

    def merge_counting(piece, *fields):
        merges.append(piece.bit_count())
        return merge(piece, *fields)

    monkeypatch.setattr(powerlap.spectra, "charpoly_exact", counting)
    monkeypatch.setattr(powerlap.spectra, "_weighted_twins", merge_counting)
    groups = [g for g in pgroup_catalog(256) if not is_cyclic(g)]
    assert len(groups) == 83
    for g in groups:
        spectrum(twin_partition(g))
    # Q_2048: joins at {e, a^n} and unions leave single classes
    spectrum(twin_partition(dicyclic_group(2048)))
    assert calls == [] and merges == []
    spectrum(twin_partition(cyclic_group(12)))
    assert calls
    spectrum(twin_partition(dicyclic_group(3)))
    assert merges


def test_leaf_charpoly_takes_the_quotient_and_divides_out_its_zero(monkeypatch):
    """Each leaf's charpoly runs on Q itself, whose rows sum to zero, so
    chi_Q(0) = 0, and the integer-root step gets chi_Q / x, on every leaf
    of the default suites and of the divisor-rich Z_n."""
    leaves = []
    passed = []
    divided = []
    leaf = powerlap.spectra._leaf_spectrum
    roots = powerlap.spectra.integer_root_multiplicities

    def recording(sizes, counts):
        leaves.append((sizes, counts))
        return leaf.__wrapped__(sizes, counts)

    def spying(matrix, **kwargs):
        passed.append(matrix)
        return charpoly_exact(matrix, **kwargs)

    def dividing(coeffs, hi):
        divided.append(list(coeffs))
        return roots(coeffs, hi)

    monkeypatch.setattr(powerlap.spectra, "_leaf_spectrum", recording)
    monkeypatch.setattr(powerlap.spectra, "charpoly_exact", spying)
    monkeypatch.setattr(powerlap.spectra, "integer_root_multiplicities", dividing)
    partitions = list(claim_suite_partitions())
    partitions += [twin_partition(cyclic_group(n)) for n in (720, 840, 1260, 1680, 2310, 5040)]
    for tp in partitions:
        quotient_spectrum(*quotient_of(tp))
    assert len(passed) == len(divided) == len(leaves) > 0
    checked = set()
    for (sizes, counts), matrix, poly in zip(leaves, passed, divided):
        if (sizes, counts) in checked:
            continue
        checked.add((sizes, counts))
        assert matrix == quotient_matrix(counts)
        assert not any(map(sum, matrix))
        full = charpoly_scalar_crt(matrix)
        assert full[0] == 0 and poly == full[1:]
    assert max(map(len, passed)) == 58  # Z_5040 ends in a leaf of 58 classes


def test_a_leaf_charpoly_with_a_nonzero_constant_term_is_refused(monkeypatch):
    # a kernel that lost the zero of a quotient's zero row sums is caught
    # at the leaf, before its roots are read
    monkeypatch.setattr(powerlap.spectra, "charpoly_exact",
                        lambda matrix, **kwargs: [1] + charpoly_exact(matrix, **kwargs)[1:])
    with pytest.raises(ValueError, match="chi_Q\\(0\\) = 1"):
        spectrum(twin_partition(cyclic_group(12)))


def test_cyclic_suite_takes_one_charpoly_per_distinct_leaf(monkeypatch):
    calls = []

    def counting(matrix, **kwargs):
        calls.append(tuple(map(tuple, matrix)))
        return charpoly_exact(matrix, **kwargs)

    def run():
        powerlap.verify._cyclic.cache_clear()
        powerlap.verify._cyclic_spectrum.cache_clear()
        calls.clear()
        reports = [r.to_json_dict() for r in run_cyclic_suite(60)]
        return reports, list(calls)

    monkeypatch.setattr(powerlap.spectra, "charpoly_exact", counting)
    warm, warm_calls = run()
    assert warm_calls and len(warm_calls) == len(set(warm_calls))

    spectrum_of = powerlap.verify.spectrum

    def cold(tp):
        powerlap.spectra._leaf_spectrum.cache_clear()
        return spectrum_of(tp)

    monkeypatch.setattr(powerlap.verify, "spectrum", cold)
    cold_reports, cold_calls = run()
    assert cold_reports == warm
    # the reduced Z_n of the radius claim ends in its full quotient's leaf
    assert set(cold_calls) == set(warm_calls) and len(cold_calls) > len(warm_calls)


def test_leaf_memo_stays_bounded():
    scan_conjecture(600)
    info = powerlap.spectra._leaf_spectrum.cache_info()
    assert info.maxsize == 64
    assert 0 < info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# spectrum objects


def test_spectrum_prime_power():
    s = spectrum(power_graph(cyclic_group(8)))
    assert s.is_exact and s.exact == poly({0: 1, 8: 7})


def test_spectrum_quaternion():
    s = spectrum(power_graph(dicyclic_group(2)))
    assert s.is_exact and s.exact == poly({0: 1, 2: 2, 4: 3, 8: 2})


def test_spectrum_q3_mixed():
    # non-integer part frozen from the dense elimination + Jacobi oracles
    s = spectrum(power_graph(dicyclic_group(3)))
    assert not s.is_exact
    assert s.exact == poly({0: 1, 2: 2, 4: 3, 5: 1, 6: 1, 12: 1})
    assert np.allclose(sorted(s.numeric), [1.556743, 5.341560, 10.101697], atol=1e-5)


def test_spectrum_z12_mixed():
    # exact part frozen from dense elimination over all integers 0..12
    s = spectrum(power_graph(cyclic_group(12)))
    assert s.exact == poly({0: 1, 8: 1, 9: 1, 10: 1, 12: 5})
    assert np.allclose(sorted(s.numeric), [5.676596, 8.642074, 10.681331], atol=1e-5)


def test_spectrum_empty_and_trivial():
    assert spectrum(Graph(0, ())).exact == poly({})
    assert spectrum(Graph(1, (0,))).exact == poly({0: 1})


def test_algebraic_connectivity():
    assert algebraic_connectivity(spectrum(power_graph(cyclic_group(6)))) == 3
    z33 = direct_product(cyclic_group(3), cyclic_group(3))
    assert algebraic_connectivity(spectrum(power_graph(z33))) == 1
    mu = algebraic_connectivity(spectrum(power_graph(dicyclic_group(3))))
    assert isinstance(mu, float) and 1 < mu < 2
    assert abs(mu - round(mu)) > 1e-6
    with pytest.raises(ValueError):
        algebraic_connectivity(spectrum(Graph(1, (0,))))


def test_spectral_radius_multiplicity():
    assert spectral_radius_multiplicity(spectrum(power_graph(cyclic_group(12)))) == 5
    assert spectral_radius_multiplicity(spectrum(power_graph(dicyclic_group(2)))) == 2
    assert spectral_radius_multiplicity(spectrum(power_graph(dicyclic_group(3)))) == 1


def test_union_charpoly():
    k2 = clique_charpoly(2)
    assert union_charpoly([k2, k2, k2]) == poly({0: 3, 2: 3})
    assert union_charpoly([]) == poly({})
    assert union_charpoly([clique_charpoly(1)]) == poly({0: 1})


def test_join_charpoly():
    x = clique_charpoly(1)
    assert join_charpoly(x, 1, x, 1) == poly({0: 1, 2: 1}) == clique_charpoly(2)
    three_k6 = union_charpoly([clique_charpoly(6)] * 3)
    joined = join_charpoly(clique_charpoly(2), 2, three_k6, 18)
    assert joined == poly({0: 1, 2: 2, 8: 15, 20: 2})


def test_join_reproduces_identity_vertex_split(small_groups):
    # joining a single vertex onto the proper power graph recovers the
    # full power-graph polynomial
    from powerlap.graphs import proper_power_graph

    for g in small_groups:
        if g.order < 2 or g.order > 40:
            continue
        full = spectrum(power_graph(g))
        rest = spectrum(proper_power_graph(g))
        if not (full.is_exact and rest.is_exact):
            continue
        rebuilt = join_charpoly(clique_charpoly(1), 1, rest.exact, g.order - 1)
        assert rebuilt == full.exact, g.label


def test_join_charpoly_errors():
    with pytest.raises(ValueError, match="degree"):
        join_charpoly(clique_charpoly(2), 3, clique_charpoly(1), 1)
    bad = poly({1: 2})  # no zero root: not a Laplacian charpoly
    with pytest.raises(CharPolyContradiction):
        join_charpoly(bad, 2, clique_charpoly(1), 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: remove_root(poly({0: 1}), 2), CharPolyContradiction,
     "required root 2 is absent from x^1"),
    (lambda: clique_charpoly(-1), ValueError, "clique size must be non-negative"),
    (lambda: join_charpoly(poly({}), -1, clique_charpoly(1), 1), ValueError,
     "vertex counts must be non-negative"),
    (lambda: join_charpoly(clique_charpoly(1), 1, poly({0: 1, 3: 1}), 2), ValueError,
     "second polynomial has a root above its vertex count 2"),
    (lambda: spectral_radius(Spectrum(n=0, exact=poly({}))), ValueError,
     "spectral radius requires a nonempty graph"),
    (lambda: spectral_radius_multiplicity(Spectrum(n=0, exact=poly({}))), ValueError,
     "spectral radius requires a nonempty graph"),
], ids=["absent-root", "negative-clique", "negative-join-count", "root-above-count",
        "empty-radius", "empty-radius-multiplicity"])
def test_charpoly_and_spectrum_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_empty_clique_and_spectrum():
    assert clique_charpoly(0) == poly({}) and clique_charpoly(0).text() == "1"
    assert Spectrum(n=0, exact=poly({})).table_text() == "eigenvalue   (none)\nmultiplicity (none)"


def test_rows_list_certified_roots_then_floats_ascending():
    # Z_12's spectrum is mixed: the integer rows carry their multiplicities,
    # then each non-integer eigenvalue has a row of its own at the digits asked
    s = spectrum(twin_partition(cyclic_group(12)))
    floats = sorted(s.numeric)
    assert floats
    for decimals in (8, 10):
        assert s.rows(decimals) == [(str(r), str(m)) for r, m in s.exact.factors] + [
            (f"{v:.{decimals}f}", "1") for v in floats]
    # the text table prints rows(8), one column per row
    top, bottom = s.table_text().split("\n")
    assert list(zip(top.split()[1:], bottom.split()[1:])) == s.rows(8)


def test_complement_spectrum():
    kn = spectrum(Graph.complete(5))
    edgeless = complement_spectrum(kn)
    assert edgeless.exact == poly({0: 5})
    q2 = spectrum(power_graph(dicyclic_group(2)))
    comp = complement_spectrum(q2)
    assert comp.exact == poly({0: 3, 4: 3, 6: 2})
    direct = spectrum(complement(power_graph(dicyclic_group(2))))
    assert direct.exact == comp.exact
    assert complement_spectrum(comp).exact == q2.exact
    with pytest.raises(ValueError):
        complement_spectrum(spectrum(power_graph(dicyclic_group(3))))


def test_max_component_radius():
    from powerlap.graphs import induced_subgraph, proper_power_graph, reduced_cyclic_graph

    z33 = proper_power_graph(direct_product(cyclic_group(3), cyclic_group(3)))
    pieces = [spectrum(induced_subgraph(z33, c)) for c in components(z33)]
    assert len(pieces) == 4
    assert max(spectral_radius(p) for p in pieces) == 2
    r6 = reduced_cyclic_graph(6)
    comps = [spectrum(induced_subgraph(r6, c)) for c in components(r6)]
    assert max(spectral_radius(p) for p in comps) == 2


def test_charpoly_text_forms():
    assert spectrum(power_graph(cyclic_group(8))).exact.text() == "x^1 (x-8)^7"
    g = direct_product(cyclic_group(9), cyclic_group(3))
    text = spectrum(power_graph(g)).exact.text()
    assert text == "x^1 (x-27)^1 (x-21)^2 (x-9)^15 (x-3)^5 (x-1)^3"
    assert poly({}).text() == "1"


def test_spectrum_json():
    s = spectrum(power_graph(cyclic_group(8)))
    doc = s.to_json_dict()
    assert doc == {
        "n": 8,
        "exact": [[8, 7], [0, 1]],
        "numeric": [],
        "is_laplacian_integral": True,
    }


# ---------------------------------------------------------------------------
# structural invariants


def _eigen_multiset(s):
    return eigenvalues_ascending(s)


def test_trace_identity(small_groups):
    for g in small_groups:
        pg = power_graph(g)
        if pg.n > 60:
            continue
        s = spectrum(pg)
        total = sum(float(v) for v in _eigen_multiset(s))
        degrees = sum(pg.degree(v) for v in range(pg.n))
        assert abs(total - degrees) < 1e-8 * max(pg.n, 1)


def test_radius_bound_and_equality(small_groups):
    rng = random.Random(4)
    graphs = [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(20)]
    graphs += [power_graph(g) for g in small_groups if g.order <= 40]
    for g in graphs:
        s = spectrum(g)
        top = eigenvalues_ascending(s)[::-1][0]
        assert float(top) <= g.n + 1e-9
        hits_n = s.exact.multiplicity(g.n) >= 1
        complement_disconnected = len(components(complement(g))) > 1
        assert hits_n == complement_disconnected


def test_identity_deletion_shift(small_groups):
    # between the extremes, deleting the universal identity shifts every
    # eigenvalue down by one
    from powerlap.graphs import proper_power_graph

    for g in small_groups:
        if g.order < 3 or g.order > 40:
            continue
        full = spectrum(power_graph(g))
        rest = spectrum(proper_power_graph(g))
        if not (full.is_exact and rest.is_exact):
            continue
        window = eigenvalues_ascending(full)[::-1][1 : g.order - 1]
        shifted = [v + 1 for v in eigenvalues_ascending(rest)[::-1][: g.order - 2]]
        assert window == shifted, g.label


def test_connectivity_iff_positive_algcon(small_groups):
    rng = random.Random(11)
    graphs = [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(20)]
    for g in graphs:
        s = spectrum(g)
        mu = algebraic_connectivity(s)
        assert (float(mu) > 1e-9) == (len(components(g)) == 1)


def test_full_spectrum_matches_dense_eigvalsh():
    # collapse engine + quotient charpoly + exact placement of the residual
    # against a dense Laplacian eigensolve, eigenvalue by eigenvalue
    rng = random.Random(2024)
    for trial in range(120):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8, 0.95]))
        s = spectrum(g)
        merged = sorted(float(v) for v in eigenvalues_ascending(s))
        dense = dense_numeric_eigenvalues(g)
        assert len(merged) == g.n
        assert all(abs(x - y) < 1e-7 for x, y in zip(merged, dense)), trial


def test_unit_algcon_iff_unit_kappa(small_groups):
    from powerlap.graphs import vertex_connectivity

    for g in small_groups:
        if g.order < 3:
            continue
        pg = power_graph(g)
        mu = algebraic_connectivity(spectrum(pg))
        kappa = vertex_connectivity(pg).size
        assert (mu == 1) == (kappa == 1), g.label


def test_factored_charpoly_validation():
    with pytest.raises(ValueError, match="negative root"):
        FactoredCharPoly(((-1, 2),))
    with pytest.raises(ValueError, match="multiplicity"):
        FactoredCharPoly(((2, 0),))
    # a negative count, as the radius-block identity meets on a spectrum
    # with no root 0, is refused the same way
    with pytest.raises(ValueError, match="non-positive multiplicity"):
        poly({2: -1})
    with pytest.raises(ValueError, match="ascending"):
        FactoredCharPoly(((2, 1), (1, 1)))
    assert poly({3: 0, 1: 2}) == FactoredCharPoly(((1, 2),))


def test_spectrum_invariant_enforcement():
    with pytest.raises(ValueError, match="equal n"):
        Spectrum(n=3, exact=poly({0: 1}), numeric=(1.5,))
    with pytest.raises(ValueError, match="monic of degree"):
        Spectrum(n=2, exact=poly({0: 1}), numeric=(1.5,))
    with pytest.raises(ValueError, match="monic of degree"):
        Spectrum(n=2, exact=poly({0: 1}), numeric=(1.5,), residual=(-3, 2))
    # the residual decides, not the float: x - 2 vanishes at the certified 2
    with pytest.raises(ValueError, match="vanishes at the certified eigenvalue 2"):
        Spectrum(n=3, exact=poly({0: 1, 2: 1}), numeric=(2.5,), residual=(-2, 1))
    # x^2 + x - 1 has the root -1.618...
    with pytest.raises(ValueError, match="at or below zero"):
        Spectrum(n=3, exact=poly({0: 1}), numeric=(0.618, -1.618), residual=(-1, 1, 1))
    # x^2 - 3x has the root 0, which Descartes' rule does not count as positive
    with pytest.raises(ValueError, match="at or below zero"):
        Spectrum(n=3, exact=poly({0: 1}), numeric=(3.0, 0.0), residual=(0, -3, 1))


def test_eigenvalue_ordering_is_kept_but_never_shared():
    s = spectrum(twin_partition(cyclic_group(12)))
    first = eigenvalues_ascending(s)
    assert eigenvalues_ascending(s) == first
    first.append(-1.0)
    first[0] = 99
    again = eigenvalues_ascending(s)
    assert len(again) == s.n and again[0] == 0
    kept = list(again)
    again.clear()
    assert eigenvalues_ascending(s) == kept
    # the ends kept on the spectrum share nothing with the lists either
    assert (algebraic_connectivity(s), spectral_radius(s)) == (kept[1], kept[-1])


def test_exact_ordering_ignores_display_floats():
    # x^2 - 5x + 5 has the roots (5 -+ sqrt 5)/2 = 1.38..., 3.61...; floats
    # placed on the wrong side of the certified 2 still order exactly
    honest = Spectrum(n=4, exact=poly({0: 1, 2: 1}), numeric=(3.618, 1.382), residual=(5, -5, 1))
    skewed = Spectrum(n=4, exact=poly({0: 1, 2: 1}), numeric=(2.001, 1.999), residual=(5, -5, 1))
    assert [honest.count_at_most(k) for k in range(-1, 5)] == [0, 1, 1, 3, 3, 4]
    assert [skewed.count_at_most(k) for k in range(-1, 5)] == [0, 1, 1, 3, 3, 4]
    assert eigenvalues_ascending(honest) == [0, 1.382, 2, 3.618]
    assert eigenvalues_ascending(skewed) == [0, 1.999, 2, 2.001]
    assert algebraic_connectivity(skewed) == 1.999


def test_count_at_most_matches_dense_eigenvalues():
    rng = random.Random(808)
    graphs = [random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.5, 0.8]))
              for _ in range(40)]
    graphs += [power_graph(cyclic_group(n)) for n in (12, 30, 36)]
    graphs += [power_graph(dicyclic_group(n)) for n in (3, 6)]
    for g in graphs:
        s = spectrum(g)
        dense = dense_numeric_eigenvalues(g)
        for k in range(-1, g.n + 2):
            # no eigenvalue lies within 1e-6 of an integer it is not equal to
            assert s.count_at_most(k) == int(np.sum(dense < k + 1e-6))


def test_spectrum_never_calls_jacobi(monkeypatch):
    import powerlap.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("jacobi_eigenvalues called")

    monkeypatch.setattr(powerlap.linalg, "jacobi_eigenvalues", forbidden)
    rng = random.Random(50)
    graphs = [power_graph(cyclic_group(720))]
    graphs += [power_graph(dicyclic_group(n)) for n in range(2, 13)]
    graphs += [random_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(50)]
    mixed = 0
    for g in graphs:
        s = spectrum(g)
        mixed += not s.is_exact
        values = eigenvalues_ascending(s)
        assert values == sorted(values)
        if g.n >= 2:
            algebraic_connectivity(s)
    assert mixed >= 20


def test_radius_multiplicity_needs_a_certified_top():
    # the path on 4 vertices has spectrum 0, 2 - sqrt 2, 2, 2 + sqrt 2
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    s = spectrum(p4)
    assert s.exact == poly({0: 1, 2: 1}) and s.residual == (2, -4, 1)
    with pytest.raises(ValueError, match="not a certified integer"):
        spectral_radius_multiplicity(s)


# ---------------------------------------------------------------------------
# the ends of the spectrum against the whole order


def assert_ends_match_the_order(s):
    """mu, the radius and its multiplicity, read from the ends alone,
    equal the full order's values, ints exactly where the order has ints."""
    values = eigenvalues_ascending(s)
    assert len(values) == s.n and values[-1] <= s.n
    if s.n >= 2:
        mu = algebraic_connectivity(s)
        assert (mu, type(mu)) == (values[1], type(values[1]))
    top = spectral_radius(s)
    assert (top, type(top)) == (values[-1], type(values[-1]))
    if isinstance(top, int):
        assert spectral_radius_multiplicity(s) == values.count(top)
    else:
        with pytest.raises(ValueError, match="not a certified integer"):
            spectral_radius_multiplicity(s)


def test_ends_match_the_order_on_cyclic_groups():
    for n in range(2, 1501):
        assert_ends_match_the_order(powerlap.verify._cyclic_spectrum(n))


def test_ends_match_the_order_on_the_lattice_groups(lattice_groups):
    for g in lattice_groups:
        assert_ends_match_the_order(spectrum(twin_partition(g)))


@st.composite
def clustered_spectra(draw):
    """Mixed spectra whose residual roots sit within 1/d of integers k and
    k + d, beside certified eigenvalues at and around those integers:
    x^2 - (2k + d)x + k(k + d) + 1 has the roots k + e and k + d - e,
    with e = (d - sqrt(d^2 - 4))/2 < 1/(d - 1), never integers for d >= 3.
    As in a Laplacian spectrum, no value exceeds n: zeros pad the count,
    and n itself is certified when drawn, as a power graph's is."""
    residual, numeric = [1], []
    for _ in range(draw(st.integers(0, 4))):
        k, d = draw(st.integers(0, 8)), draw(st.integers(3, 40))
        e = (d - (d * d - 4) ** 0.5) / 2
        residual = powerlap.spectra._poly_mul(residual, [k * (k + d) + 1, -(2 * k + d), 1])
        numeric += [k + e, k + d - e]
    certified = Counter(draw(st.dictionaries(st.integers(0, 50), st.integers(1, 3), max_size=6)))
    certified[0] += 1
    top_is_n = draw(st.booleans())
    count = sum(certified.values()) + len(numeric) + top_is_n
    n = max(count, math.ceil(max(numeric + list(certified))) + top_is_n)
    certified[0] += n - count
    certified[n] += top_is_n
    return Spectrum(n=n, exact=poly(certified),
                    numeric=tuple(sorted(numeric, reverse=True)), residual=tuple(residual))


@settings(max_examples=300, deadline=None)
@given(clustered_spectra())
def test_ends_match_the_order_on_clustered_spectra(s):
    assert_ends_match_the_order(s)


def test_ends_are_kept_on_the_spectrum(monkeypatch):
    s = spectrum(twin_partition(cyclic_group(30)))
    ends = algebraic_connectivity(s), spectral_radius(s), spectral_radius_multiplicity(s)

    def forbidden(*args):
        raise AssertionError("a kept end was counted again")

    monkeypatch.setattr(powerlap.spectra, "roots_above", forbidden)
    assert (algebraic_connectivity(s), spectral_radius(s), spectral_radius_multiplicity(s)) == ends


# ---------------------------------------------------------------------------
# mu against an integer: its certified type against the counts


def assert_typed_equality_matches_the_counts(s):
    """mu equals the integer t exactly when it is returned as the int t,
    as the counts find, for t in 0..5 and around mu's ceiling."""
    mu = algebraic_connectivity(s)
    ceiling = mu if isinstance(mu, int) else math.ceil(mu)
    for t in set(range(6)) | {ceiling - 1, ceiling, ceiling + 1}:
        assert (isinstance(mu, int) and mu == t) == algcon_equals_by_counts(s, t), (mu, t)


def test_typed_equality_matches_the_counts_on_the_claim_families():
    for n in range(2, 1501):
        assert_typed_equality_matches_the_counts(powerlap.verify._cyclic_spectrum(n))
    for n in range(2, 301):
        assert_typed_equality_matches_the_counts(spectrum(twin_partition(dicyclic_group(n))))
    for g in pgroup_catalog(256):
        assert_typed_equality_matches_the_counts(spectrum(twin_partition(g)))


@settings(max_examples=300, deadline=None)
@given(clustered_spectra())
def test_typed_equality_matches_the_counts_on_clustered_spectra(s):
    assume(s.n >= 2)
    assert_typed_equality_matches_the_counts(s)
