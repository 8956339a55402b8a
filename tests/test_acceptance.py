"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; exact means exact.
"""

import random
import time

from oracles import complement_spectrum, join_charpoly, tree_graph, union_charpoly
from powerlap.graphs import (
    Graph,
    complement,
    components,
    power_graph,
)
from powerlap.groups import cyclic_group, dicyclic_group, direct_product, factorize
from powerlap.pgroup import classify_eigenvalues, decompose, tree_charpoly
from powerlap.spectra import FactoredCharPoly, spectrum
from powerlap.verify import (
    pgroup_catalog,
    quaternion_closed_form,
    run_cyclic_suite,
    run_dicyclic_suite,
    scan_conjecture,
)


def poly(counts):
    return FactoredCharPoly.from_counts(counts)


def report(num, description, elapsed, budget):
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_1_worked_example():
    started = time.monotonic()
    g = direct_product(cyclic_group(9), cyclic_group(3))
    expected = poly({0: 1, 1: 3, 3: 5, 9: 15, 21: 2, 27: 1})
    recursive = tree_charpoly(decompose(g))
    assert recursive == expected
    s = spectrum(power_graph(g))
    assert s.is_exact and s.exact == expected
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, "27-element worked example, exact factored polynomial", elapsed, 1)


def test_criterion_2_prime_power_cyclic_spectra():
    started = time.monotonic()
    checked = 0
    for n in range(2, 1025):
        if not factorize(n).is_prime_power:
            continue
        s = spectrum(power_graph(cyclic_group(n)))
        assert s.is_exact and s.exact == poly({0: 1, n: n - 1}), n
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(2, f"{checked} prime-power cyclic spectra, exact", elapsed, 60)


def test_criterion_3_generalized_quaternion_spectra():
    started = time.monotonic()
    for alpha in range(2, 7):
        g = dicyclic_group(2 ** (alpha - 1))
        s = spectrum(power_graph(g))
        assert s.is_exact and s.exact == quaternion_closed_form(alpha), alpha
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(3, "generalized quaternion spectra alpha=2..6, exact", elapsed, 60)


def test_criterion_4_cyclic_suites_to_300():
    started = time.monotonic()
    reports = run_cyclic_suite(300)
    failures = [r for r in reports if r.verdict != "pass"]
    assert not failures, failures[:3]
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(4, f"{len(reports)} cyclic claim checks for n=2..300", elapsed, 600)


def test_criterion_5_dicyclic_bundle_to_32():
    started = time.monotonic()
    reports = run_dicyclic_suite(32)
    failures = [r for r in reports if r.verdict != "pass"]
    assert not failures, failures[:3]
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(5, f"{len(reports)} dicyclic bundles for n=2..32", elapsed, 300)


def test_criterion_6_pgroup_integrality_to_256():
    started = time.monotonic()
    catalog = pgroup_catalog(256)
    for g in catalog:
        s = spectrum(power_graph(g))
        assert s.is_exact, g.label
        forms = classify_eigenvalues(s, decompose(g))
        assert len(forms) == len(s.exact.factors), g.label
        assert all(f.form == "zero" or f.witness is not None for f in forms)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(6, f"{len(catalog)} p-groups of order <= 256: exact + classified", elapsed, 600)


def test_criterion_7_structural_oracle_equivalence():
    started = time.monotonic()
    catalog = pgroup_catalog(256)
    for g in catalog:
        pg = power_graph(g)
        direct = spectrum(pg)
        tree = decompose(g)
        assert tree_charpoly(tree) == direct.exact, g.label
        materialized = tree_graph(tree)
        assert sorted(materialized.degree(v) for v in range(materialized.n)) == sorted(
            pg.degree(v) for v in range(pg.n)
        ), g.label
        assert spectrum(materialized).exact == direct.exact, g.label
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(7, f"recursion == direct spectrum on {len(catalog)} p-groups, zero tolerance", elapsed, 600)


def test_criterion_8_order_p_squared_closed_form():
    started = time.monotonic()
    for p in (2, 3, 5, 7):
        g = direct_product(cyclic_group(p), cyclic_group(p))
        s = spectrum(power_graph(g))
        expected = poly({0: 1, 1: p, p: (p + 1) * (p - 2), p * p: 1})
        assert s.is_exact and s.exact == expected, p
    elapsed = time.monotonic() - started
    report(8, "order p^2 closed forms for p in {2,3,5,7}, exact", elapsed, 60)


def test_criterion_9_conjecture_scan_to_200():
    started = time.monotonic()
    rows, summary = scan_conjecture(200)
    assert len(rows) == 199
    assert summary["holds_strict"], (
        "three-way equivalence failed at "
        f"{summary['failures_strict']}: "
        + "; ".join(
            str(r.to_json_dict()) for r in rows if r.n in summary["failures_strict"]
        )
    )
    elapsed = time.monotonic() - started
    assert elapsed < 900.0
    report(9, "conjecture equivalence for n=2..200 under the distinct-primes reading", elapsed, 900)


# ---------------------------------------------------------------------------
# criterion 10: randomized calculus self-consistency


def _union_graph(a: Graph, b: Graph) -> Graph:
    rows = list(a.rows) + [r << a.n for r in b.rows]
    return Graph(a.n + b.n, tuple(rows))


def _join_graph(a: Graph, b: Graph) -> Graph:
    a_mask = (1 << a.n) - 1
    rows = [r | (((1 << b.n) - 1) << a.n) for r in a.rows]
    rows += [(r << a.n) | a_mask for r in b.rows]
    return Graph(a.n + b.n, tuple(rows))


def _random_expression(rng: random.Random, budget: int):
    """Random join/union expression over cliques.

    Returns (charpoly, graph) where the polynomial is built purely from
    the factored calculus and the graph purely from edge constructions.
    """
    if budget <= 2 or rng.random() < 0.35:
        k = rng.randint(1, max(1, min(9, budget)))
        return FactoredCharPoly.from_counts({0: 1, k: k - 1} if k > 1 else {0: 1}), Graph.complete(k)
    split = rng.randint(1, budget - 1)
    p1, g1 = _random_expression(rng, split)
    p2, g2 = _random_expression(rng, budget - split)
    if rng.random() < 0.5:
        return union_charpoly([p1, p2]), _union_graph(g1, g2)
    return join_charpoly(p1, g1.n, p2, g2.n), _join_graph(g1, g2)


def test_criterion_10_calculus_self_consistency():
    started = time.monotonic()
    rng = random.Random(20260810)
    for trial in range(200):
        budget = rng.randint(2, 100)
        p, g = _random_expression(rng, budget)
        assert g.n <= 100
        s = spectrum(g)
        assert s.is_exact, trial
        assert s.exact == p, trial

        twice = complement_spectrum(complement_spectrum(s))
        assert twice.exact == s.exact, trial

        assert s.exact.multiplicity(0) == len(components(g)), trial

        hits_n = s.exact.multiplicity(g.n) >= 1
        assert hits_n == (len(components(complement(g))) > 1), trial
    elapsed = time.monotonic() - started
    report(10, "200 random join/union expressions, calculus == spectrum exactly", elapsed, 600)
