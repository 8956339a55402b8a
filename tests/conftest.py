import contextlib
import io
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import strategies as st

from powerlap import cli, linalg, spectra
from powerlap.graphs import Graph, TwinPartition
from powerlap.groups import (
    cyclic_group,
    dicyclic_group,
    direct_product,
    generalized_quaternion,
    load_table_file,
)
from powerlap.spectra import _leaf_spectrum
from powerlap.verify import _cyclic, _reduced_partition, pgroup_catalog

Q3_TABLE = Path(__file__).parent / "data" / "q3.txt"


@pytest.fixture(autouse=True)
def cold_leaf_memo():
    """Every test starts with an empty leaf memo, so a test that counts
    charpoly calls sees none saved by leaves an earlier test computed."""
    _leaf_spectrum.cache_clear()


@pytest.fixture(scope="session")
def small_groups():
    """A varied bag of groups for invariant sweeps."""
    groups = [cyclic_group(n) for n in (1, 2, 3, 4, 6, 8, 12, 15, 20)]
    groups += [dicyclic_group(n) for n in (2, 3, 4, 5)]
    groups += [
        direct_product(cyclic_group(3), cyclic_group(3)),
        direct_product(cyclic_group(9), cyclic_group(3)),
        direct_product(cyclic_group(2), cyclic_group(2)),
        direct_product(cyclic_group(4), cyclic_group(2)),
        direct_product(cyclic_group(6), cyclic_group(4)),
        generalized_quaternion(3),
    ]
    return groups


@pytest.fixture(scope="session")
def product_groups():
    """Direct products with a non-abelian or a non-p-group factor."""
    return [
        direct_product(dicyclic_group(3), cyclic_group(4)),
        direct_product(cyclic_group(6), dicyclic_group(5)),
        direct_product(dicyclic_group(2), dicyclic_group(2)),
        direct_product(cyclic_group(15), cyclic_group(10)),
    ]


@pytest.fixture(scope="session")
def lattice_groups(small_groups, product_groups):
    """Groups whose cyclic-subgroup lattice the tests compare with the
    table walk: the small groups, every p-group of order at most 256 in
    the catalog, Q_n for n <= 64, the Q3 table and the products."""
    groups = small_groups + pgroup_catalog(256) + [dicyclic_group(n) for n in range(2, 65)]
    return groups + [load_table_file(Q3_TABLE)] + product_groups


@pytest.fixture(scope="session")
def small_pgroups():
    groups = [cyclic_group(n) for n in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)]
    groups += [
        direct_product(cyclic_group(2), cyclic_group(2)),
        direct_product(cyclic_group(3), cyclic_group(3)),
        direct_product(cyclic_group(4), cyclic_group(2)),
        direct_product(cyclic_group(9), cyclic_group(3)),
        direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2))),
        direct_product(cyclic_group(4), cyclic_group(4)),
        generalized_quaternion(2),
        generalized_quaternion(3),
        generalized_quaternion(4),
        direct_product(generalized_quaternion(2), cyclic_group(2)),
    ]
    return groups


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def reduced_cyclic_partition(n: int) -> TwinPartition:
    """Twin partition of the reduced graph of Z_n, the power graph's without
    the elements of orders 1 and n, as the verify suite builds it."""
    return _reduced_partition(_cyclic(n)[0])


def charpoly_leaves(run) -> list:
    """(matrix, class sizes) of every leaf charpoly `run()` takes, from a
    cold leaf memo, in call order."""
    leaves = []
    charpoly = spectra.charpoly_exact

    def kept(matrix, **kwargs):
        leaves.append((matrix, kwargs["weights"]))
        return charpoly(matrix, **kwargs)

    _leaf_spectrum.cache_clear()
    with mock.patch.object(spectra, "charpoly_exact", kept):
        run()
    return leaves


def log_kernels(monkeypatch) -> list:
    """Patch the charpoly kernel to log each run on a batch of primes, in
    order: (rows, restarts, primes dropped for the caller to replace)."""
    calls = []
    kernel, restart = linalg._charpoly_lanczos, linalg._restart

    def logged_kernel(a, s, primes):
        calls.append([len(a), 0, 0])
        kept, residues = kernel(a, s, primes)
        calls[-1][2] = len(primes) - len(kept)
        calls[-1] = tuple(calls[-1])
        return kept, residues

    def logged_restart(*args):
        calls[-1][1] += 1
        return restart(*args)

    monkeypatch.setattr(linalg, "_charpoly_lanczos", logged_kernel)
    monkeypatch.setattr(linalg, "_restart", logged_restart)
    return calls


def weighted_quotient(sizes, within, joined):
    """The Laplacian quotient Q = diag(row sums) - counts whose class i
    has sizes[i] vertices, within[i] neighbors in its own class and
    sizes[j] in each class j with (i, j) in joined, i < j."""
    m = len(sizes)
    counts = [[within[i] if i == j else sizes[j] if (min(i, j), max(i, j)) in joined else 0
               for j in range(m)] for i in range(m)]
    rows = [[-c for c in row] for row in counts]
    for i, row in enumerate(counts):
        rows[i][i] += sum(row)
    return rows


def default_verify() -> None:
    """`powerlap verify` with its default suites, output dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == 0


def divisor_rich_spectra(orders=(720, 840, 1260, 1680, 2310)) -> None:
    """The spectra of Z_n that the spectrum-divisor-rich workload takes."""
    for n in orders:
        spectra.spectrum(_cyclic(n)[1])


@st.composite
def small_graphs(draw):
    """Any graph on at most 14 vertices, one coin per vertex pair."""
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    joined = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, j in zip(pairs, joined) if j])


@st.composite
def twin_rich_graphs(draw):
    """Blow-ups of a small random graph: each vertex becomes a clique or an
    independent set of up to four twins, each edge joins two such classes
    completely, and up to two universal vertices are added."""
    k = draw(st.integers(1, 6))
    joined = {(i, j) for i in range(k) for j in range(i + 1, k) if draw(st.booleans())}
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    clique = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    owner = [i for i in range(k) for _ in range(sizes[i])] + [None] * draw(st.integers(0, 2))
    owner = draw(st.permutations(owner))

    def adjacent(a, b):
        if a is None or b is None:
            return True
        return clique[a] if a == b else (min(a, b), max(a, b)) in joined

    n = len(owner)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if adjacent(owner[u], owner[v])])
