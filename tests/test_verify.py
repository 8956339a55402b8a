import json
from collections import Counter

import pytest

from oracles import (
    involution_facts_by_graph,
    is_generalized_quaternion_by_presentation,
    masks_of,
    power_graph_by_masks,
)
from powerlap.graphs import Graph, twin_partition
from powerlap.groups import (
    MAX_ORDER,
    cyclic_group,
    dicyclic_group,
    direct_product,
    generalized_quaternion,
)
from powerlap.spectra import FactoredCharPoly, Spectrum
from powerlap.verify import (
    _involution_facts,
    check_cyclic_algcon,
    check_cyclic_kappa_eq_mu,
    check_cyclic_radius_mult,
    check_dicyclic_bundle,
    check_pgroup_bundle,
    is_generalized_quaternion,
    pgroup_catalog,
    quaternion_closed_form,
    run_cyclic_suite,
    scan_conjecture,
)


def test_cyclic_algcon_examples():
    r = check_cyclic_algcon(15)
    assert r.verdict == "pass" and r.evidence["algebraic_connectivity"] == 9
    r = check_cyclic_algcon(12)
    assert r.verdict == "pass" and r.evidence["attains_bound"] is False
    r = check_cyclic_algcon(7)
    assert r.verdict == "pass" and r.evidence["algebraic_connectivity"] == 7


def test_cyclic_radius_examples():
    r = check_cyclic_radius_mult(4)
    assert r.verdict == "pass" and r.evidence["radius_multiplicity"] == 3
    r = check_cyclic_radius_mult(8)
    assert r.verdict == "pass" and r.evidence["radius_multiplicity"] == 7
    r = check_cyclic_radius_mult(12)
    assert r.verdict == "pass" and r.evidence["radius_multiplicity"] == 5
    assert r.evidence["block_structure"] is True


def test_radius_block_rejects_a_doctored_residual(monkeypatch):
    # roots of the reduced graph's residual moved up by one, display floats
    # untouched: only the exact polynomial identity can tell
    import dataclasses

    import powerlap.verify
    from powerlap.linalg import taylor_shift

    true_spectrum = powerlap.verify.spectrum

    def doctored(g):
        s = true_spectrum(g)
        if g.n == 12:
            return s
        assert not s.is_exact
        return dataclasses.replace(s, residual=tuple(taylor_shift(s.residual, -1)))

    powerlap.verify._cyclic_spectrum.cache_clear()
    monkeypatch.setattr(powerlap.verify, "spectrum", doctored)
    r = check_cyclic_radius_mult(12)
    assert r.verdict == "fail" and r.evidence["block_structure"] is False
    assert "block=False" in r.witness
    powerlap.verify._cyclic_spectrum.cache_clear()


def test_radius_block_rejects_a_doctored_exact_part(monkeypatch):
    # one copy of the reduced graph's largest certified eigenvalue moved
    # down by one, residual untouched: only the factored identity can tell
    import dataclasses

    import powerlap.verify

    true_spectrum = powerlap.verify.spectrum

    def doctored(g):
        s = true_spectrum(g)
        if g.n == 12:
            return s
        counts = Counter(dict(s.exact.factors))
        top = max(counts)
        counts[top] -= 1
        counts[top - 1] += 1
        return dataclasses.replace(s, exact=FactoredCharPoly.from_counts(counts))

    powerlap.verify._cyclic_spectrum.cache_clear()
    monkeypatch.setattr(powerlap.verify, "spectrum", doctored)
    r = check_cyclic_radius_mult(12)
    assert r.verdict == "fail" and r.evidence["block_structure"] is False
    assert r.evidence["radius_multiplicity"] == 5
    powerlap.verify._cyclic_spectrum.cache_clear()


def test_dicyclic_window_reads_the_residual(monkeypatch):
    # the smallest residual root of Q3 (1.5567...) moved below 1, display
    # floats untouched: the window check counts the residual's roots
    import dataclasses

    import powerlap.verify
    from powerlap.linalg import taylor_shift

    true_spectrum = powerlap.verify.spectrum

    def doctored(g):
        s = true_spectrum(g)
        return dataclasses.replace(s, residual=tuple(taylor_shift(s.residual, 1)))

    monkeypatch.setattr(powerlap.verify, "spectrum", doctored)
    r = check_dicyclic_bundle(3)
    assert r.verdict == "fail" and "not above 1" in r.witness


def test_cyclic_kappa_examples():
    r = check_cyclic_kappa_eq_mu(6)
    assert r.verdict == "pass" and r.evidence["kappa"] == 3 and r.evidence["equal"]
    r = check_cyclic_kappa_eq_mu(9)
    assert r.verdict == "pass" and r.evidence["kappa"] == 8
    assert r.evidence["algebraic_connectivity"] == 9
    r = check_cyclic_kappa_eq_mu(12)
    assert r.verdict == "pass" and not r.evidence["equal"]


def test_cyclic_suite_small_range():
    reports = run_cyclic_suite(40)
    assert all(r.verdict == "pass" for r in reports)
    assert len(reports) == 3 * 39


def test_dicyclic_bundle():
    for n, expect_true in ((2, True), (3, False), (4, True), (6, False)):
        r = check_dicyclic_bundle(n)
        assert r.verdict == "pass", r.witness
        statements = r.evidence["statements"]
        assert all(v == expect_true for v in statements.values())
        assert r.evidence["kappa"] == 2
    r = check_dicyclic_bundle(4)
    assert r.evidence["radius_multiplicity"] == 2
    r = check_dicyclic_bundle(3)
    assert r.evidence["radius_multiplicity"] == 1


def test_dicyclic_involution_facts_match_the_graph():
    # (d), the join side of (f) and the separation, read from classes
    for n in range(2, 65):
        g = dicyclic_group(n)
        facts = _involution_facts(twin_partition(g), n)
        assert facts == involution_facts_by_graph(power_graph_by_masks(masks_of(g)), n), n
        pow2 = n & (n - 1) == 0
        assert facts == (pow2, pow2, True, ())


def test_dicyclic_bundle_fails_when_the_involution_classes_hold_more(monkeypatch):
    # vertices 0, 1 and 2 are universal, so 1 is a closed twin of e and a^2
    import powerlap.verify

    g = Graph.from_edges(8, [(u, v) for u in (0, 1, 2) for v in range(8) if v != u])
    tp = twin_partition(g)
    assert _involution_facts(tp, 2) == (True, True, True, (1,))
    monkeypatch.setattr(powerlap.verify, "twin_partition", lambda group: tp)
    r = check_dicyclic_bundle(2)
    assert r.verdict == "fail"
    assert "the classes of e and a^n also hold [1]" in r.witness


def test_dicyclic_bundle_names_a_failed_separation_once(monkeypatch):
    # kappa equals algcon for n = 4, so the join check (f) runs as well as
    # the separation check that holds for every n
    import powerlap.verify

    def unseparated(tp, n):
        universal, join_side, _, others = _involution_facts(tp, n)
        return universal, join_side, False, others

    monkeypatch.setattr(powerlap.verify, "_involution_facts", unseparated)
    r = check_dicyclic_bundle(4)
    assert r.verdict == "fail"
    assert r.evidence["statements"]["kappa_eq_algcon"]
    assert r.witness == "n=4: {e, a^n} does not separate the graph"


def test_dicyclic_bundle_reports_a_wrong_radius(monkeypatch):
    import powerlap.verify

    monkeypatch.setattr(powerlap.verify, "spectral_radius", lambda s: 0)
    r = check_dicyclic_bundle(3)
    assert r.verdict == "fail"
    assert r.witness == "n=3: radius 0 != 12"


@pytest.mark.parametrize("n, facts, witness", [
    # (d): a^n universal although n = 3 is not a power of two
    (3, (True, False, True, ()), "n=3: a^n universal=True, power-of-two=False"),
    # (f): kappa equals algcon for n = 4, yet some vertex misses {e, a^n}
    (4, (True, False, True, ()), "n=4: some vertex misses the {e, a^n} join"),
], ids=["d-universal", "f-join"])
def test_dicyclic_bundle_reports_doctored_involution_facts(monkeypatch, n, facts, witness):
    import powerlap.verify

    monkeypatch.setattr(powerlap.verify, "_involution_facts", lambda tp, n: facts)
    r = check_dicyclic_bundle(n)
    assert r.verdict == "fail"
    assert r.witness == witness


def z3z3():
    return direct_product(cyclic_group(3), cyclic_group(3))


def test_pgroup_bundle_reports_a_broken_three_way_equivalence(monkeypatch):
    # (a): Z3xZ3 has algcon 1 and is neither cyclic nor generalized
    # quaternion, so a radius multiplicity of 2 breaks the equivalence
    import powerlap.verify

    monkeypatch.setattr(powerlap.verify, "spectral_radius_multiplicity", lambda s: 2)
    r = check_pgroup_bundle(z3z3())
    assert r.verdict == "fail"
    assert r.witness == ("Z3xZ3: algcon-1=True, radius-mult-1=False, "
                         "neither-cyclic-nor-gq=True")


def test_pgroup_bundle_reports_kappa_unequal_to_algcon(monkeypatch):
    # (b): kappa must equal algcon for a non-cyclic p-group
    import powerlap.verify
    from powerlap.graphs import CutCertificate

    monkeypatch.setattr(powerlap.verify, "vertex_connectivity",
                        lambda tp: CutCertificate(5, ()))
    r = check_pgroup_bundle(z3z3())
    assert r.verdict == "fail"
    assert r.witness == "Z3xZ3: kappa=5, algcon=1, cyclic=False"


def test_pgroup_bundle_reports_a_mixed_spectrum(monkeypatch):
    # (c): two copies of 3 replaced by the roots 3 +- sqrt(2) of x^2 - 6x + 7
    import powerlap.verify

    mixed = Spectrum(n=9, exact=FactoredCharPoly.from_counts({0: 1, 1: 3, 3: 2, 9: 1}),
                     numeric=(3 + 2 ** 0.5, 3 - 2 ** 0.5), residual=(7, -6, 1))
    monkeypatch.setattr(powerlap.verify, "spectrum", lambda tp: mixed)
    r = check_pgroup_bundle(z3z3())
    assert r.verdict == "fail"
    assert r.witness.startswith("Z3xZ3: spectrum is not certified integral; ")


def test_pgroup_bundle_reports_a_doctored_exact_spectrum(monkeypatch):
    # one eigenvalue 3 of Z3xZ3 moved to 5: (c) classifies it and checks
    # its divisibility, (d) compares the order-p^2 closed form and (e) the
    # recursive charpoly
    import powerlap.verify

    doctored = Spectrum(n=9, exact=FactoredCharPoly.from_counts({0: 1, 1: 3, 3: 3, 5: 1, 9: 1}))
    monkeypatch.setattr(powerlap.verify, "spectrum", lambda tp: doctored)
    r = check_pgroup_bundle(z3z3())
    wrong = "x^1 (x-9)^1 (x-5)^1 (x-3)^3 (x-1)^3"
    right = "x^1 (x-9)^1 (x-3)^4 (x-1)^3"
    assert r.verdict == "fail"
    assert r.witness.split("; ") == [
        "Z3xZ3: eigenvalue 5 of Z3xZ3 fits no structural form",
        "eigenvalue 5 is neither 1 nor a multiple of 3",
        f"order p^2 spectrum {wrong} != {right}",
        f"recursion gives {right}, direct gives {wrong}",
    ]


def test_quaternion_closed_form_merges_alpha_two():
    assert quaternion_closed_form(2) == FactoredCharPoly.from_counts(
        {0: 1, 2: 2, 4: 3, 8: 2}
    )
    assert quaternion_closed_form(4) == FactoredCharPoly.from_counts(
        {0: 1, 2: 8, 4: 8, 16: 13, 32: 2}
    )


def test_pgroup_bundle():
    for g in (
        cyclic_group(8),
        direct_product(cyclic_group(3), cyclic_group(3)),
        generalized_quaternion(2),
        direct_product(cyclic_group(4), cyclic_group(2)),
    ):
        r = check_pgroup_bundle(g)
        assert r.verdict == "pass", r.witness
    r = check_pgroup_bundle(cyclic_group(8))
    assert r.evidence["kappa"] == 7 and r.evidence["algebraic_connectivity"] == 8
    r = check_pgroup_bundle(generalized_quaternion(2))
    assert r.evidence["kappa"] == 2 == r.evidence["algebraic_connectivity"]
    assert r.evidence["laplacian_integral"]
    r = check_pgroup_bundle(cyclic_group(6))
    assert r.verdict == "inapplicable"


def test_pgroup_bundle_builds_one_decomposition_tree(monkeypatch):
    import powerlap.pgroup
    import powerlap.verify

    built = []
    original = powerlap.pgroup.decompose

    def counting(g):
        built.append(g.label)
        return original(g)

    monkeypatch.setattr(powerlap.pgroup, "decompose", counting)
    monkeypatch.setattr(powerlap.verify, "decompose", counting)
    g = direct_product(cyclic_group(9), cyclic_group(3))
    assert check_pgroup_bundle(g).verdict == "pass"
    assert built == [g.label]


def test_cyclic_graph_cache_holds_one_graph():
    import powerlap.verify

    scan_conjecture(30)
    run_cyclic_suite(20)
    for cache in (powerlap.verify._cyclic_partition, powerlap.verify._cyclic_spectrum):
        info = cache.cache_info()
        assert info.maxsize == 1 and info.currsize == 1


def test_cyclic_claims_go_past_max_order():
    # Z_n's twin partition reads only its divisor lattice, so the cyclic
    # claims (and `scan --max`, `verify --cyclic-max`) are not held to the
    # MAX_ORDER that guards a walked group's power walk
    n = MAX_ORDER + 1  # 3 * 2731
    with pytest.raises(ValueError, match="MAX_ORDER"):
        cyclic_group(n)
    for check in (check_cyclic_algcon, check_cyclic_radius_mult, check_cyclic_kappa_eq_mu):
        report = check(n)
        assert report.verdict == "pass", json.dumps(report.to_json_dict(), sort_keys=True)


def test_is_generalized_quaternion():
    assert is_generalized_quaternion(generalized_quaternion(2))
    assert is_generalized_quaternion(generalized_quaternion(3))
    assert is_generalized_quaternion(dicyclic_group(4))  # Q_4 has order 16
    assert not is_generalized_quaternion(cyclic_group(8))
    assert not is_generalized_quaternion(direct_product(cyclic_group(4), cyclic_group(2)))
    assert not is_generalized_quaternion(dicyclic_group(3))
    assert not is_generalized_quaternion(cyclic_group(6))


def test_is_generalized_quaternion_matches_the_presentation_search():
    q8 = generalized_quaternion(2)
    groups = pgroup_catalog(512)
    groups += [dicyclic_group(n) for n in range(2, 65)]
    groups += [cyclic_group(n) for n in range(1, 130)]
    groups += [
        direct_product(q8, cyclic_group(2)),
        direct_product(q8, q8),
        direct_product(generalized_quaternion(3), cyclic_group(3)),
    ]
    quaternion = [g for g in groups if is_generalized_quaternion_by_presentation(g)]
    assert len(quaternion) == 13  # GQ8..GQ512, and dicyclic n = 2, 4, ..., 64
    for g in groups:
        assert is_generalized_quaternion(g) == is_generalized_quaternion_by_presentation(g), g.label


def test_scan_conjecture():
    rows, summary = scan_conjecture(40)
    assert summary["holds_strict"] and summary["holds_loose"]
    assert len(rows) == 39
    by_n = {r.n: r for r in rows}
    assert by_n[6].algcon_integer and by_n[6].laplacian_integral and by_n[6].predicate_strict
    assert by_n[8].predicate_strict
    r12 = by_n[12]
    assert not r12.predicate_strict
    assert not r12.algcon_integer and not r12.laplacian_integral
    for r in rows:
        if r.laplacian_integral:
            assert r.algcon_integer
        # the two readings coincide: p*p is already a prime power
        assert r.predicate_strict == r.predicate_loose
    with pytest.raises(ValueError):
        scan_conjecture(1)


def test_pgroup_catalog():
    cat = pgroup_catalog(16)
    labels = {g.label for g in cat}
    assert "Z16" in labels and "GQ8" in labels and "GQ16" in labels
    assert "Z2xZ2xZ2xZ2" in labels and "Z4xZ4" in labels
    assert all(g.order <= 16 for g in cat)
    # deterministic ordering
    again = pgroup_catalog(16)
    assert [g.label for g in again] == [g.label for g in cat]


@pytest.mark.parametrize("call, message", [
    (lambda: check_cyclic_algcon(1), "requires n >= 2"),
    (lambda: check_cyclic_radius_mult(1), "requires n >= 2"),
    (lambda: check_cyclic_kappa_eq_mu(1), "requires n >= 2"),
    (lambda: check_dicyclic_bundle(1), "requires n >= 2"),
    (lambda: quaternion_closed_form(1), "alpha must be >= 2"),
], ids=["algcon", "radius-mult", "kappa", "dicyclic", "quaternion-closed-form"])
def test_claim_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_report_json_deterministic():
    a = json.dumps(check_cyclic_algcon(10).to_json_dict(), sort_keys=True)
    b = json.dumps(check_cyclic_algcon(10).to_json_dict(), sort_keys=True)
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"claim", "params", "verdict", "witness", "evidence"}


def test_conjecture_row_serialization():
    rows, _ = scan_conjecture(6)
    assert rows[0].to_tsv() == "2\ttrue\ttrue\ttrue\ttrue"
    doc = rows[0].to_json_dict()
    assert doc["n"] == 2 and doc["algcon_integer"] is True
