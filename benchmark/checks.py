"""Checks of powerlap's outputs against computations made apart from it.

Nothing here imports powerlap.  Each group is rebuilt from its
definition, in the element order powerlap documents (Z_n: residues;
dicyclic of order 4n: a^i at index i, a^i b at 2n + i; direct products:
lexicographic, first factor most significant).  Its power graph joins x
and y when one lies in the cyclic subgroup the other generates, and
`numpy.linalg.eigvalsh` of the dense Laplacian gives the reference
spectrum.  Every check returns a list of problems, empty when it passes.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import networkx as nx
import numpy as np

# eigvalsh of an n x n Laplacian is accurate to about n * eps * 2n, below
# 3e-9 at n = 2310; the program prints residuals to 10 decimals
TOL = 1e-6


# ---------------------------------------------------------------------------
# groups and power graphs from their definitions


def _membership_cyclic(n: int) -> np.ndarray:
    """member[x, y] iff x is a multiple of y modulo n."""
    member = np.zeros((n, n), dtype=bool)
    k = np.arange(n)
    for y in range(n):
        member[(k * y) % n, y] = True
    return member


def _membership_product(factors: tuple[int, ...]) -> np.ndarray:
    """member[x, y] iff x = t*y in Z_m1 x ... x Z_mk for some t."""
    moduli = np.array(factors)
    size = int(np.prod(moduli))
    # mixed radix, first factor most significant
    weights = np.array([int(np.prod(moduli[i + 1:])) for i in range(len(factors))])
    coords = (np.arange(size)[:, None] // weights[None, :]) % moduli[None, :]
    member = np.zeros((size, size), dtype=bool)
    columns = np.arange(size)
    for t in range(math.lcm(*factors)):
        member[((t * coords) % moduli) @ weights, columns] = True
    return member


def _membership_dicyclic(n: int) -> np.ndarray:
    """member[x, y] iff x is a power of y in <a, b | a^2n, b^2 = a^n, b a = a^-1 b>."""
    two_n = 2 * n

    def mul(x: int, y: int) -> int:
        i, s = x % two_n, x // two_n  # x = a^i b^s
        j, t = y % two_n, y // two_n
        # b^s a^j = a^((-1)^s j) b^s, and b^2 = a^n
        k = i + (j if s == 0 else -j) + (n if s + t == 2 else 0)
        return (k % two_n) + two_n * ((s + t) % 2)

    size = 4 * n
    member = np.zeros((size, size), dtype=bool)
    for y in range(size):
        power = 0  # the identity a^0
        while True:
            member[power, y] = True
            power = mul(power, y)
            if power == 0:
                break
    return member


@lru_cache(maxsize=8)
def adjacency(group: tuple) -> np.ndarray:
    """Power-graph adjacency of ("cyclic", n), ("dicyclic", n) or ("product", factors)."""
    kind, arg = group
    if kind == "cyclic":
        member = _membership_cyclic(arg)
    elif kind == "dicyclic":
        member = _membership_dicyclic(arg)
    elif kind == "product":
        member = _membership_product(tuple(arg))
    else:
        raise ValueError(f"unknown group {group!r}")
    adj = member | member.T
    np.fill_diagonal(adj, False)
    return adj


@lru_cache(maxsize=64)
def eigenvalues(group: tuple) -> np.ndarray:
    """Laplacian eigenvalues of the power graph, ascending."""
    adj = adjacency(group)
    lap = np.diag(adj.sum(axis=1).astype(float)) - adj.astype(float)
    return np.linalg.eigvalsh(lap)


# ---------------------------------------------------------------------------
# spectra


def spectrum_problems(exact, numeric, eigs: np.ndarray) -> list[str]:
    """Compare certified multiplicities and numeric residuals with eigvalsh.

    `exact` is a list of (integer eigenvalue, multiplicity) pairs and
    `numeric` the reported non-integer eigenvalues.
    """
    problems = []
    claimed = sum(m for _, m in exact) + len(numeric)
    if claimed != len(eigs):
        problems.append(f"{claimed} eigenvalues reported for {len(eigs)} vertices")
    uncovered = np.ones(len(eigs), dtype=bool)
    for root, mult in exact:
        near = np.abs(eigs - root) < TOL
        uncovered &= ~near
        if int(near.sum()) != mult:
            problems.append(f"eigenvalue {root}: multiplicity {mult}, eigvalsh finds {int(near.sum())}")
    residual = np.sort(eigs[uncovered])
    for v in residual:
        if abs(v - round(v)) < TOL:
            problems.append(f"integer eigenvalue {round(v)} is not certified")
    for v in numeric:
        if abs(v - round(v)) < TOL:
            problems.append(f"numeric eigenvalue {v} is an integer")
    reported = np.sort(np.array(numeric, dtype=float))
    if len(reported) != len(residual):
        problems.append(f"{len(reported)} numeric eigenvalues, eigvalsh leaves {len(residual)}")
    else:
        worst = float(np.max(np.abs(reported - residual), initial=0.0))
        if worst > TOL:
            problems.append(f"numeric eigenvalues differ from eigvalsh by up to {worst:.3g}")
    return problems


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def cyclic_edge_count(n: int) -> int:
    """|E| of the power graph of Z_n: each generator of the order-d subgroup
    sees the other d - 1 elements, and pairs of generators count twice."""
    return sum(_phi(d) * (d - 1) - math.comb(_phi(d), 2) for d in _divisors(n))


def spectrum_query_problems(n: int, out: dict) -> list[str]:
    """Check `powerlap spectrum zn:<n> --format json`."""
    if out["exit"] != 0:
        return [f"exit code {out['exit']}"]
    doc = json.loads(out["stdout"])
    problems = []
    if doc["n"] != n:
        problems.append(f"n = {doc['n']}, expected {n}")
    if doc["is_laplacian_integral"] != (not doc["numeric"]):
        problems.append("is_laplacian_integral disagrees with the numeric part")
    problems += spectrum_problems(doc["exact"], doc["numeric"], eigenvalues(("cyclic", n)))
    total = sum(r * m for r, m in doc["exact"]) + sum(doc["numeric"])
    if abs(total - 2 * cyclic_edge_count(n)) > TOL * n:
        problems.append(f"eigenvalue sum {total} != 2|E| = {2 * cyclic_edge_count(n)}")
    return [f"zn:{n}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# vertex connectivity


@lru_cache(maxsize=8)
def _neighbours(group: tuple) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in adjacency(group))


def separates(group: tuple, removed) -> bool:
    """Whether deleting `removed` leaves at least two components (BFS)."""
    neighbours = _neighbours(group)
    gone = set(removed)
    rest = [v for v in range(len(neighbours)) if v not in gone]
    if len(rest) < 2:
        return False
    seen = gone | {rest[0]}
    frontier = [rest[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbours[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) < len(neighbours)


@lru_cache(maxsize=64)
def _node_connectivity(group: tuple) -> int:
    return nx.node_connectivity(nx.from_numpy_array(adjacency(group)))


def cut_problems(group: tuple, size: int, witness) -> list[str]:
    """A minimum separating set: of the stated size, separating, and minimal."""
    problems = []
    if len(set(witness)) != size:
        problems.append(f"witness has {len(set(witness))} vertices, kappa = {size}")
    if separates(group, ()):
        problems.append("the graph is not connected")
    if not separates(group, witness):
        problems.append(f"witness {sorted(witness)[:8]} does not separate the graph")
    if size == 2:
        graph = nx.from_numpy_array(adjacency(group))
        if any(True for _ in nx.articulation_points(graph)):
            problems.append("the graph has a cut vertex, so kappa < 2")
    elif size > 2:
        kappa = _node_connectivity(group)
        if kappa != size:
            problems.append(f"networkx node_connectivity is {kappa}, not {size}")
    return problems


# ---------------------------------------------------------------------------
# claim bundles


def bundle_problems(kind: str, arg, out: dict) -> list[str]:
    """Check one check_dicyclic_bundle / check_pgroup_bundle result."""
    if kind == "dicyclic":
        group, order = ("dicyclic", arg), 4 * arg
    else:
        group, order = ("product", tuple(arg)), math.prod(arg)
    problems = []
    if out["verdict"] != "pass":
        problems.append(f"verdict {out['verdict']}: {out['witness']}")
    spectra = [s for s in out["spectra"] if s["n"] == order]
    if len(spectra) != 1:
        problems.append(f"{len(spectra)} spectra of the whole graph, expected 1")
    else:
        problems += spectrum_problems(spectra[0]["exact"], spectra[0]["numeric"], eigenvalues(group))
    cuts = out["cuts"]
    if len(cuts) != 1:
        problems.append(f"{len(cuts)} vertex-connectivity results, expected 1")
    else:
        cut = cuts[0]
        if cut["size"] != out["evidence"]["kappa"]:
            problems.append(f"evidence kappa {out['evidence']['kappa']} != cut size {cut['size']}")
        problems += cut_problems(group, cut["size"], cut["separating_set"])
    if kind == "dicyclic":
        problems += dicyclic_evidence_problems(arg, out["evidence"], node_connectivity=False)
    return [f"{kind} {arg}: {p}" for p in problems]


def dicyclic_evidence_problems(n: int, evidence: dict, node_connectivity: bool = True) -> list[str]:
    """Dicyclic evidence against eigvalsh and, if asked, networkx node_connectivity."""
    group = ("dicyclic", n)
    eigs = eigenvalues(group)
    problems = []
    if abs(evidence["algebraic_connectivity"] - eigs[1]) > TOL:
        problems.append(f"algebraic connectivity {evidence['algebraic_connectivity']}, eigvalsh {eigs[1]}")
    top = int(np.sum(np.abs(eigs - eigs[-1]) < TOL))
    if evidence["radius_multiplicity"] != top:
        problems.append(f"radius multiplicity {evidence['radius_multiplicity']}, eigvalsh {top}")
    integral = bool(np.all(np.abs(eigs - np.rint(eigs)) < TOL))
    if evidence["statements"]["laplacian_integral"] != integral:
        problems.append(f"laplacian_integral {evidence['statements']['laplacian_integral']}, eigvalsh {integral}")
    if node_connectivity:
        kappa = _node_connectivity(group)
        if evidence["kappa"] != kappa:
            problems.append(f"kappa {evidence['kappa']}, networkx {kappa}")
        if not separates(group, evidence["kappa_witness"]):
            problems.append("kappa witness does not separate the graph")
    return problems


# ---------------------------------------------------------------------------
# claim suites


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _partition_count(k: int) -> int:
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def expected_claim_counts(cyclic_max: int, dicyclic_max: int, pgroup_max: int) -> dict[str, int]:
    """Claims per family: one per cyclic n in 2..cyclic_max for each cyclic
    claim, one per dicyclic n in 2..dicyclic_max, and one per abelian
    p-group (p(k) of order p^k) plus the generalized quaternion groups
    of order 8..pgroup_max."""
    abelian = 0
    for p in _primes_upto(pgroup_max):
        k = 1
        while p**k <= pgroup_max:
            abelian += _partition_count(k)
            k += 1
    quaternion = sum(1 for alpha in range(2, pgroup_max.bit_length()) if 2 ** (alpha + 1) <= pgroup_max)
    cyclic = cyclic_max - 1
    return {
        "cyclic-algcon": cyclic,
        "cyclic-radius-mult": cyclic,
        "cyclic-kappa-vs-algcon": cyclic,
        "dicyclic-bundle": dicyclic_max - 1,
        "pgroup-bundle": abelian + quaternion,
    }


def verify_problems(out: dict, cyclic_max: int, dicyclic_max: int, pgroup_max: int) -> list[str]:
    """Check `powerlap verify --format json`: exit 0, every verdict pass,
    the family counts, and the dicyclic evidence up to order 4 * dicyclic_max."""
    problems = []
    if out["exit"] != 0:
        problems.append(f"exit code {out['exit']}")
    reports = json.loads(out["stdout"])
    failed = [r for r in reports if r["verdict"] != "pass"]
    for r in failed[:5]:
        problems.append(f"{r['claim']} {r['params']}: verdict {r['verdict']}: {r['witness']}")
    if len(failed) > 5:
        problems.append(f"{len(failed)} verdicts are not pass")
    counts: dict[str, int] = {}
    for r in reports:
        counts[r["claim"]] = counts.get(r["claim"], 0) + 1
    expected = expected_claim_counts(cyclic_max, dicyclic_max, pgroup_max)
    if counts != expected:
        problems.append(f"claims per family {counts}, expected {expected}")
    dicyclic = sorted(r["params"]["n"] for r in reports if r["claim"] == "dicyclic-bundle")
    if dicyclic != list(range(2, dicyclic_max + 1)):
        problems.append(f"dicyclic n {dicyclic[:5]}..., expected 2..{dicyclic_max}")
    for r in reports:
        if r["claim"] == "dicyclic-bundle":
            problems += [f"dicyclic {r['params']['n']}: {p}"
                         for p in dicyclic_evidence_problems(r["params"]["n"], r["evidence"])]
    return problems


def output_problems(item, out: dict, verify_defaults: tuple[int, int, int]) -> list[str]:
    """Dispatch one worker output to its check."""
    kind, arg = item
    if kind == "spectrum":
        return spectrum_query_problems(arg, out)
    if kind == "verify":
        return verify_problems(out, *verify_defaults)
    return bundle_problems(kind, arg, out)
