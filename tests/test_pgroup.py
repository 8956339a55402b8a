import pytest

from oracles import (
    decompose_by_recursion,
    element_info,
    hat_up_set_by_masks,
    masks_of,
    power_graph_by_masks,
    primitive_classes_by_table,
    tree_charpoly_by_calculus,
    tree_graph,
    up_set_by_masks,
)
from powerlap.graphs import components, power_graph, proper_power_graph
from powerlap.groups import (
    FiniteGroup,
    cyclic_group,
    direct_product,
    euler_phi,
    generalized_quaternion,
    parse_group_spec,
    primitive_classes,
    up_set,
)
from powerlap.pgroup import (
    DecompTree,
    check_multiple_property,
    classify_eigenvalues,
    decompose,
    tree_charpoly,
    tree_json_dict,
    tree_string,
)
from powerlap.spectra import FactoredCharPoly, Spectrum, spectrum
from powerlap.verify import check_pgroup_bundle, pgroup_catalog


def poly(counts):
    return FactoredCharPoly.from_counts(counts)


def z9z3():
    return direct_product(cyclic_group(9), cyclic_group(3))


def test_decompose_strings():
    assert tree_string(decompose(z9z3())) == "K1 v ((K2 v 3*K6) + 3*K2)"
    z33 = direct_product(cyclic_group(3), cyclic_group(3))
    assert tree_string(decompose(z33)) == "K1 v 4*K2"
    assert tree_string(decompose(cyclic_group(9))) == "K1 v (K2 v K6)"
    assert tree_string(decompose(cyclic_group(8))) == "K1 v (K1 v (K2 v K4))"


def test_decompose_rejects_non_pgroups():
    with pytest.raises(ValueError, match="not a p-group"):
        decompose(cyclic_group(6))


@pytest.mark.parametrize("group, spectrum_of, message", [
    (6, 6, "Z6 is not a p-group"),
    (9, 12, "the property check requires an exact spectrum"),
], ids=["not-a-p-group", "mixed-spectrum"])
def test_multiple_property_guards(group, spectrum_of, message):
    # each guard raises before the tree is read; Z12's spectrum is mixed
    s = spectrum(power_graph(cyclic_group(spectrum_of)))
    with pytest.raises(ValueError, match=message):
        check_multiple_property(cyclic_group(group), s, None)


def test_decompose_matches_the_recursive_build():
    # generalized_quaternion(alpha) has order 2^(alpha + 1)
    groups = pgroup_catalog(512) + [generalized_quaternion(a) for a in range(2, 11)]
    for g in groups:
        want = decompose_by_recursion(g)
        got = decompose(g)
        assert tree_json_dict(got) == tree_json_dict(want), g.label
        assert tree_string(got) == tree_string(want), g.label


def test_decompose_reads_no_element_orders(monkeypatch):
    specs = ["gq:4", "prod:zn:4xzn:4xzn:2"]
    want = [decompose_by_recursion(parse_group_spec(spec)) for spec in specs]

    def refuse(self):
        raise AssertionError("decompose read the element order table")

    monkeypatch.setattr(FiniteGroup, "orders", refuse)
    for spec, tree in zip(specs, want):
        assert decompose(parse_group_spec(spec)) == tree, spec


def test_tree_annotations(small_pgroups):
    def walk(g, t):
        assert t.apex_size
        assert tree_graph(t).n == t.upset_size == len(up_set_by_masks(masks_of(g), t.element))
        assert t.apex_size == euler_phi(t.element_order)
        for c in t.children:
            walk(g, c)

    def nodes(t):
        yield t
        for c in t.children:
            yield from nodes(c)

    for g in small_pgroups:
        t = decompose(g)
        assert t.upset_size == g.order
        walk(g, t)
        # each ~-class appears once, keyed by the subgroup its members
        # generate; U-hat and the primitive classes come from the table walk
        masks = masks_of(g)
        primitive = primitive_classes_by_table(g)
        by_class = {masks[node.element]: node for node in nodes(t)}
        assert len(by_class) == len(set(masks)) == len(list(nodes(t)))
        for x in range(g.order):
            node = by_class[masks[x]]
            assert node.upset_size - node.apex_size == len(hat_up_set_by_masks(masks, x)), (g.label, x)
            assert sorted(c.element for c in node.children) == primitive[x], (g.label, x)
            assert node.element == min(element_info(g, x).eq_class), (g.label, x)


def test_tree_graph():
    k4 = tree_graph(DecompTree(4, 0, 1, 4))
    assert k4.n == 4 and k4.edge_count() == 6
    star = tree_graph(
        DecompTree(1, 0, 1, 5, (DecompTree(2, 0, 1, 2), DecompTree(2, 0, 1, 2)))
    )
    assert star.n == 5
    assert star.degree(0) == 4
    assert sorted(star.degree(v) for v in range(5)) == [2, 2, 2, 2, 4]


def test_tree_graph_matches_power_graph(small_pgroups):
    for g in small_pgroups:
        if g.order > 81:
            continue
        pg = power_graph(g)
        tg = tree_graph(decompose(g))
        assert tg.n == pg.n
        assert sorted(tg.degree(v) for v in range(tg.n)) == sorted(
            pg.degree(v) for v in range(pg.n)
        )
        assert spectrum(tg).exact == spectrum(pg).exact


def test_tree_charpoly_examples():
    g = z9z3()
    t = decompose(g)
    assert tree_charpoly(t) == poly({0: 1, 1: 3, 3: 5, 9: 15, 21: 2, 27: 1})
    # the large child is the induced subgraph over U((3, 0))
    big = t.children[0]
    assert big.upset_size == 20
    assert tree_charpoly(big) == poly({0: 1, 2: 2, 8: 15, 20: 2})
    z33 = direct_product(cyclic_group(3), cyclic_group(3))
    assert tree_charpoly(decompose(z33)) == poly({0: 1, 1: 3, 3: 4, 9: 1})


HAND_BUILT_TREES = [
    DecompTree(4, 0, 1, 4),
    DecompTree(1, 0, 1, 5, (DecompTree(2, 0, 1, 2), DecompTree(2, 0, 1, 2))),
    DecompTree(2, 1, 3, 6, (DecompTree(2, 3, 9, 2), DecompTree(2, 5, 9, 2))),
]


def test_tree_charpoly_matches_the_calculus():
    def subtrees(t):
        yield t
        for c in t.children:
            yield from subtrees(c)

    trees = [decompose(g) for g in pgroup_catalog(256)] + HAND_BUILT_TREES
    for t in trees:
        for sub in subtrees(t):
            assert tree_charpoly(sub) == tree_charpoly_by_calculus(sub), tree_string(sub)


@pytest.mark.parametrize("tree", [
    # the root's upset should be 1 + 2 + 2
    DecompTree(1, 0, 1, 6, (DecompTree(2, 1, 2, 2), DecompTree(2, 3, 2, 2))),
    # a child's upset should be 2 + 2, and the root's is 1 plus the wrong 5
    DecompTree(1, 0, 1, 6, (DecompTree(2, 1, 2, 5, (DecompTree(2, 3, 4, 2),)),)),
], ids=["root", "inner"])
def test_tree_charpoly_rejects_an_upset_that_does_not_add_up(tree):
    for evaluate in (tree_charpoly, tree_charpoly_by_calculus):
        with pytest.raises(ValueError):
            evaluate(tree)


def test_tree_charpoly_builds_one_polynomial(monkeypatch):
    tree = decompose(parse_group_spec("prod:" + "x".join(["zn:2"] * 8)))
    built = []
    check = FactoredCharPoly.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(FactoredCharPoly, "__post_init__", counting)
    result = tree_charpoly(tree)
    assert len(built) == 1 and result == poly({0: 1, 1: 254, 256: 1})


def test_tree_charpoly_matches_direct_spectrum(small_pgroups):
    for g in small_pgroups:
        s = spectrum(power_graph(g))
        assert s.is_exact
        assert tree_charpoly(decompose(g)) == s.exact, g.label


def test_tree_json_shape():
    doc = tree_json_dict(decompose(cyclic_group(4)))
    assert doc["join"]["apex"] == 1
    assert doc["order"] == 1 and doc["u_size"] == 4
    child = doc["join"]["children"][0]
    assert child == {"clique": 1, "element": 2, "order": 2, "u_size": 4} or "join" in child


def test_classify_eigenvalues():
    g = z9z3()
    s = spectrum(power_graph(g))
    forms = {f.value: f for f in classify_eigenvalues(g, s, decompose(g))}
    assert forms[0].form == "zero"
    assert forms[9].form == "order_of"
    assert g.orders()[forms[9].witness] == 9
    f21 = forms[21]
    assert f21.form == "uhat_plus_order"
    w = f21.witness
    from powerlap.groups import hat_up_set

    assert len(hat_up_set(g, w)) + g.orders()[w] == 21
    mixed = spectrum(power_graph(cyclic_group(12)))
    assert not mixed.is_exact
    with pytest.raises(ValueError, match="exact spectrum"):
        classify_eigenvalues(g, mixed, decompose(g))


def test_classification_covers_catalog(small_pgroups):
    def brute_force(g, value):
        # the per-element search: smallest element of the first form that fits
        if value == 0:
            return "zero", None
        masks = masks_of(g)
        orders = [mask.bit_count() for mask in masks]
        for x in range(g.order):
            if orders[x] == value:
                return "order_of", x
        for x in range(g.order):
            if len(hat_up_set_by_masks(masks, x)) + orders[x] == value:
                return "uhat_plus_order", x
        return None, None

    for g in small_pgroups:
        s = spectrum(power_graph(g))
        forms = classify_eigenvalues(g, s, decompose(g))
        assert len(forms) == len(s.exact.factors)
        for f in forms:
            if f.form == "zero":
                assert f.value == 0
            elif f.form == "order_of":
                assert g.orders()[f.witness] == f.value
            assert (f.form, f.witness) == brute_force(g, f.value), (g.label, f)


def test_multiple_property(small_pgroups):
    for g in small_pgroups:
        s = spectrum(power_graph(g))
        report = check_multiple_property(g, s, decompose(g))
        assert report.ok, (g.label, report.violations)
        p = report.prime
        for value, _ in s.exact.factors:
            assert value in (0, 1) or value % p == 0


def test_multiple_property_reports_a_doctored_eigenvalue():
    g = cyclic_group(4)
    s = spectrum(power_graph(g))
    assert s.exact == poly({0: 1, 4: 3})
    doctored = Spectrum(n=4, exact=poly({0: 1, 4: 2, 5: 1}))
    report = check_multiple_property(g, doctored, decompose(g))
    assert not report.ok and report.prime == 2
    assert report.violations == ("eigenvalue 5 is neither 1 nor a multiple of 2",)


def test_classify_eigenvalues_rejects_an_eigenvalue_of_no_form():
    # Z3xZ3's forms give 0, 1, 3 and 9 only: 1 and 3 are element orders,
    # 9 = |U-hat(e)| + o(e) and 3 = |U-hat(x)| + o(x) for o(x) = 3
    g = direct_product(cyclic_group(3), cyclic_group(3))
    doctored = Spectrum(n=9, exact=poly({0: 1, 1: 3, 3: 3, 5: 1, 9: 1}))
    with pytest.raises(AssertionError, match=f"eigenvalue 5 of {g.label} fits no structural form"):
        classify_eigenvalues(g, doctored, decompose(g))


def test_multiple_property_reports_a_doctored_tree():
    # a class of order 3 with two primitive classes above it, each of
    # order 9: |U-hat| + o = 4 + 3 = 7, a prime not divisible by 3, and
    # 2 primitive classes, not 1 mod 3; the leaves give 0 + 9 = 9
    g = direct_product(cyclic_group(3), cyclic_group(3))
    leaves = (DecompTree(2, 3, 9, 2), DecompTree(2, 5, 9, 2))
    doctored = DecompTree(2, 1, 3, 6, leaves)
    report = check_multiple_property(g, spectrum(power_graph(g)), doctored)
    assert not report.ok and report.prime == 3
    assert report.violations == (
        "element 1: |U-hat|+order = 7 not a multiple of 3",
        "element 1: prime-power value 7 but 2 primitive classes",
    )


def test_pgroup_bundle_on_a_large_prime_order():
    report = check_pgroup_bundle(cyclic_group(509))
    assert report.verdict == "pass", report.witness


def test_multiple_property_hand_example():
    g = z9z3()
    from powerlap.groups import hat_up_set

    combined = len(hat_up_set(g, 9)) + g.orders()[9]
    assert combined == 21 and combined % 3 == 0


def test_component_of_prime_order_element_is_upset(small_pgroups):
    # identity is always index 0, so proper-graph vertex i is element i+1
    for g in small_pgroups:
        if g.order > 81:
            continue
        p = None
        from powerlap.groups import is_p_group

        p = is_p_group(g)
        proper = proper_power_graph(g)
        comps = components(proper)
        by_vertex = {}
        for comp in comps:
            for v in comp:
                by_vertex[v] = comp
        for x in range(g.order):
            if g.orders()[x] != p:
                continue
            comp_elements = {v + 1 for v in by_vertex[x - 1]}
            assert comp_elements == up_set_by_masks(masks_of(g), x), (g.label, x)


def test_primitive_subtrees_disjoint_and_nonadjacent(small_pgroups):

    for g in small_pgroups:
        if g.order > 81:
            continue
        pg = power_graph_by_masks(masks_of(g))
        for x in range(g.order):
            reps = primitive_classes(g, x)
            sets = [up_set(g, h) for h in reps]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert not (sets[i] & sets[j])
                    for u in sets[i]:
                        for v in sets[j]:
                            assert not pg.adjacent(u, v)


def test_mixed_quaternion_cyclic_product():
    # the recursion has no special casing for non-abelian 2-groups
    g = direct_product(generalized_quaternion(2), cyclic_group(2))
    s = spectrum(power_graph(g))
    assert s.is_exact
    assert tree_charpoly(decompose(g)) == s.exact
