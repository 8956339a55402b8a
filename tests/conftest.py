import math
import random

import pytest

from powerlap.graphs import Graph, TwinPartition, twin_partition
from powerlap.groups import (
    cyclic_group,
    dicyclic_group,
    direct_product,
    generalized_quaternion,
)
from powerlap.spectra import _leaf_spectrum


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
