import math
import random
from pathlib import Path

import pytest

from powerlap.graphs import Graph, TwinPartition, twin_partition
from powerlap.groups import (
    cyclic_group,
    dicyclic_group,
    direct_product,
    generalized_quaternion,
    load_table_file,
)
from powerlap.spectra import _leaf_spectrum
from powerlap.verify import pgroup_catalog

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
    """Twin partition of the reduced graph of Z_n: the power graph's without
    the elements of orders 1 and n, the residues x with gcd(x, n) = n or 1."""
    return twin_partition(cyclic_group(n)).without(x for x in range(n) if math.gcd(x, n) in (1, n))
