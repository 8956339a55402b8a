import functools
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cyclic_table,
    dicyclic_table,
    dicyclic_table_by_mul,
    element_info,
    hat_up_set_by_masks,
    is_p_group_by_elements,
    masks_of,
    power_graph_by_masks,
    primitive_classes_by_table,
    table_by_label,
    table_masks,
    table_of,
    up_set_by_masks,
)
from powerlap.groups import (
    FiniteGroup,
    GroupValidationError,
    cyclic_group,
    dicyclic_group,
    direct_product,
    euler_phi,
    factorize,
    from_table,
    generalized_quaternion,
    hat_up_set,
    is_p_group,
    load_table_file,
    parse_group_spec,
    primitive_classes,
    up_set,
)
from powerlap.graphs import _closed_keys, power_graph, twin_partition
from powerlap.spectra import spectrum


def brute_phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_euler_phi_basics():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(12) == brute_phi(12) == 4


@pytest.mark.parametrize("n", range(1, 200))
def test_euler_phi_matches_brute_force(n):
    assert euler_phi(n) == brute_phi(n)


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_factorize():
    assert factorize(8).prime_powers == ((2, 3),)
    assert factorize(12).prime_powers == ((2, 2), (3, 1))
    f15 = factorize(15)
    assert f15.prime_powers == ((3, 1), (5, 1))
    assert f15.is_product_of_two_distinct_primes
    assert factorize(8).is_prime_power
    assert not factorize(8).is_product_of_two_distinct_primes
    assert factorize(9).is_product_of_two_primes
    assert not factorize(9).is_product_of_two_distinct_primes
    with pytest.raises(ValueError):
        factorize(1)


def test_cyclic_group():
    g1 = cyclic_group(1)
    assert g1.order == 1 and g1.identity == 0
    z4 = cyclic_group(4)
    assert z4.orders()[2] == 2
    z6 = cyclic_group(6)
    generators = {h for h in range(6) if z6.orders()[h] == 6}
    info = element_info(z6, 1)
    assert info.eq_class == frozenset(generators) == frozenset({1, 5})
    assert len(info.eq_class) == euler_phi(6)
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_dicyclic_group_presentation():
    for n in (2, 3, 4, 5):
        q = dicyclic_group(n)
        assert q.order == 4 * n
        # a = index 1 generates a cyclic subgroup of order 2n
        assert q.orders()[1] == 2 * n
        outside = list(range(2 * n, 4 * n))
        assert len(outside) == 2 * n
        for x in outside:
            assert q.orders()[x] == 4
            assert q.mul(x, x) == n  # (a^i b)^2 = a^n
    q2 = dicyclic_group(2)
    assert element_info(q2, 4).cyclic_subgroup == frozenset({0, 4, 2, 6})
    assert q2.orders()[4] == 4
    with pytest.raises(ValueError):
        dicyclic_group(1)


def test_dicyclic_table_matches_the_relations():
    for n in range(2, 65):
        assert table_of(dicyclic_group(n)) == dicyclic_table_by_mul(n), n


def test_rules_match_the_tabulated_groups():
    from powerlap.verify import pgroup_catalog

    for n in range(1, 301):
        assert table_of(cyclic_group(n)) == cyclic_table(n), n
    for n in range(2, 65):
        assert table_of(dicyclic_group(n)) == dicyclic_table(n), n
    for g in pgroup_catalog(64):
        assert table_of(g) == table_by_label(g.label), g.label


def subgroup_masks(g):
    """Bitmask of <x> for every x, read from the lattice: the generators of
    every cyclic subgroup below x's."""
    members, below = g.cyclic_subgroups()
    masks = [0] * g.order
    for atom, key in zip(members, below):
        inside = sum(1 << h for b in key for h in members[b])
        for x in atom:
            masks[x] = inside
    return masks


def test_subgroup_masks_match_the_table_walk():
    from powerlap.verify import pgroup_catalog

    groups = pgroup_catalog(256) + [dicyclic_group(n) for n in range(2, 33)]
    for g in groups:
        assert subgroup_masks(g) == table_masks(table_by_label(g.label), g.identity), g.label


def test_rule_groups_pass_the_axiom_check():
    from powerlap.verify import pgroup_catalog

    groups = pgroup_catalog(64) + [cyclic_group(n) for n in range(1, 65)]
    groups += [dicyclic_group(n) for n in range(2, 17)]
    groups += [direct_product(dicyclic_group(3), cyclic_group(4)),
               direct_product(cyclic_group(2), dicyclic_group(2)),
               direct_product(generalized_quaternion(2), dicyclic_group(2))]
    for g in groups:
        checked = from_table(g.order, table_of(g))
        assert checked.identity == g.identity, g.label
        assert checked.cyclic_subgroups() == g.cyclic_subgroups(), g.label


def test_cyclic_lattice_from_divisors_matches_the_walk():
    for n in list(range(1, 301)) + [720, 840, 1260, 1680, 2310, 5040]:
        z = cyclic_group(n)
        walked = FiniteGroup(n, 0, "walked", z.mul)
        assert z.cyclic_subgroups() == walked.cyclic_subgroups(), n
        assert z.orders() == walked.orders(), n


def assert_lattice_matches_the_masks(g):
    masks = masks_of(g)
    members, below = g.cyclic_subgroups()
    assert len(below) == len(members)
    assert sorted(x for atom in members for x in atom) == list(range(g.order))
    for atom in members:
        # the ~-class of its first generator, ascending
        assert list(atom) == [h for h in range(g.order) if masks[h] == masks[atom[0]]]
    closed = _closed_keys(below)
    for a, atom in enumerate(members):
        x = masks[atom[0]]
        contained = tuple(b for b, other in enumerate(members) if masks[other[0]] & ~x == 0)
        assert below[a] == contained and contained[-1] == a, (g.label, a)
        comparable = tuple(b for b, other in enumerate(members)
                           if masks[other[0]] & ~x == 0 or x & ~masks[other[0]] == 0)
        assert closed[a] == comparable, (g.label, a)
    assert g.orders() == [mask.bit_count() for mask in masks]


def test_cyclic_subgroups_are_the_mask_classes_ordered_by_containment(lattice_groups):
    for g in lattice_groups:
        assert_lattice_matches_the_masks(g)


def test_walk_plans_over_many_element_orders():
    # the walk makes one plan per element order it meets and reuses it for
    # every later element of that order; from_table forces the walk of
    # Z_12 and Z_30, whose lattices cyclic_group reads from divisors
    groups = [
        functools.reduce(direct_product, [cyclic_group(8), cyclic_group(4), cyclic_group(2)]),
        direct_product(cyclic_group(9), cyclic_group(3)),
        dicyclic_group(15),
        generalized_quaternion(4),
    ]
    for n in (12, 30):
        walked = from_table(n, cyclic_table(n))
        assert walked.cyclic_subgroups() == cyclic_group(n).cyclic_subgroups(), n
        groups.append(walked)
    for g in groups:
        assert len(set(g.orders())) >= 3, g.label
        assert_lattice_matches_the_masks(g)


def test_up_sets_and_primitive_classes_match_the_table_walk(lattice_groups):
    for g in lattice_groups:
        masks = masks_of(g)
        for x in range(g.order):
            assert up_set(g, x) == up_set_by_masks(masks, x), (g.label, x)
            assert hat_up_set(g, x) == hat_up_set_by_masks(masks, x), (g.label, x)
        if is_p_group(g):
            want = primitive_classes_by_table(g)
            # one element of each ~-class, its largest
            for x in {mask: x for x, mask in enumerate(masks)}.values():
                assert primitive_classes(g, x) == want[x], (g.label, x)


FACTORS = st.one_of(st.builds(cyclic_group, st.integers(1, 12)),
                    st.builds(dicyclic_group, st.integers(2, 6)))


@settings(max_examples=100, deadline=None)
@given(st.lists(FACTORS, min_size=1, max_size=3).filter(
    lambda fs: math.prod(f.order for f in fs) <= 512))
def test_walked_products_match_the_table_walk(factors):
    g = functools.reduce(direct_product, factors)
    masks = masks_of(g)
    assert_lattice_matches_the_masks(g)
    assert power_graph(g) == power_graph_by_masks(masks), g.label
    for x in range(g.order):
        assert up_set(g, x) == up_set_by_masks(masks, x), (g.label, x)
        assert hat_up_set(g, x) == hat_up_set_by_masks(masks, x), (g.label, x)


def test_groups_keep_no_quadratic_state():
    # both lattices peak at about 1 MB; a table of order 8192 would hold
    # 67M entries, 515 MB for the dicyclic group alone
    tracemalloc.start()
    try:
        for g in (dicyclic_group(2048), cyclic_group(8192)):
            g.cyclic_subgroups()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_dicyclic_partition_and_spectrum_keep_no_class_table():
    # Q_2048 has 2,050 twin classes: a dense class-by-class count table
    # alone would peak near 34 MB; its lattice, partition and spectrum
    # peak near 2 MB
    g = dicyclic_group(2048)
    tracemalloc.start()
    try:
        s = spectrum(twin_partition(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.n == 8192 and s.is_exact
    assert peak < 10 * 2**20


def test_generalized_quaternion():
    assert generalized_quaternion(2).order == 8
    assert generalized_quaternion(3).order == 16
    assert generalized_quaternion(4).order == 32
    with pytest.raises(ValueError):
        generalized_quaternion(1)


def test_direct_product():
    g = direct_product(cyclic_group(9), cyclic_group(3))
    assert g.order == 27
    # (3, 0) has index 9 under lexicographic indexing
    assert g.orders()[9] == 3
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert sorted(klein.orders()) == [1, 2, 2, 2]
    z3z3 = direct_product(cyclic_group(3), cyclic_group(3))
    assert sorted(z3z3.orders()) == [1] + [3] * 8


def test_direct_product_table_is_componentwise():
    # a non-abelian factor on each side, against the defining rule
    for g, h in ((dicyclic_group(3), cyclic_group(4)), (cyclic_group(2), dicyclic_group(2)),
                 (cyclic_group(1), cyclic_group(5))):
        gh = direct_product(g, h)
        m = h.order
        for x in range(gh.order):
            for y in range(gh.order):
                assert gh.mul(x, y) == g.mul(x // m, y // m) * m + h.mul(x % m, y % m)
        assert all(type(v) is int for row in table_of(gh) for v in row)
        assert gh.identity == 0 and gh.label == f"{g.label}x{h.label}"


def test_direct_product_order_is_lcm(small_groups):
    g = direct_product(cyclic_group(6), cyclic_group(4))
    for x in range(6):
        for y in range(4):
            idx = x * 4 + y
            expected = math.lcm(cyclic_group(6).orders()[x], cyclic_group(4).orders()[y])
            assert g.orders()[idx] == expected


def test_from_table():
    assert from_table(1, [[0]]).order == 1
    z3 = from_table(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert table_of(z3) == cyclic_table(3)
    with pytest.raises(GroupValidationError, match="no inverse"):
        from_table(2, [[0, 1], [1, 1]])
    broken = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 0, 1, 2]]
    with pytest.raises(GroupValidationError, match="associativity"):
        from_table(4, broken)
    # a valid group whose identity happens to sit at index 1
    assert from_table(2, [[1, 0], [0, 1]]).identity == 1
    with pytest.raises(GroupValidationError, match="identity"):
        from_table(2, [[0, 0], [0, 0]])


def test_element_info_examples():
    z6 = cyclic_group(6)
    info = element_info(z6, 2)
    assert info.order == 3
    assert info.cyclic_subgroup == frozenset({0, 2, 4})
    q2 = dicyclic_group(2)
    assert element_info(q2, 4).order == 4  # b has order 4
    g = direct_product(cyclic_group(9), cyclic_group(3))
    info = element_info(g, 3)  # element (1, 0)
    powers = set()
    cur = 3
    for _ in range(20):
        powers.add(cur)
        cur = g.mul(cur, 3)
    assert info.order == 9
    assert info.cyclic_subgroup == frozenset(powers)
    assert len(info.eq_class) == euler_phi(9) == 6
    with pytest.raises(ValueError):
        element_info(z6, 6)


def test_element_invariants(small_groups):
    for g in small_groups:
        for x in range(g.order):
            info = element_info(g, x)
            assert len(info.cyclic_subgroup) == info.order
            assert len(info.eq_class) == euler_phi(info.order)
            assert info.eq_class <= info.cyclic_subgroup
            assert g.identity in info.cyclic_subgroup


def test_up_sets():
    z4 = cyclic_group(4)
    assert up_set(z4, 2) == frozenset({1, 2, 3})
    assert hat_up_set(z4, 2) == frozenset({1, 3})
    g = direct_product(cyclic_group(9), cyclic_group(3))
    assert up_set(g, g.identity) == frozenset(range(27))
    assert len(up_set(g, 9)) == 20  # U((3, 0))


def test_is_p_group():
    assert is_p_group(dicyclic_group(2)) == 2
    assert is_p_group(cyclic_group(6)) is None
    assert is_p_group(direct_product(cyclic_group(9), cyclic_group(3))) == 3
    assert is_p_group(cyclic_group(1)) is None
    assert is_p_group(dicyclic_group(3)) is None


def test_is_p_group_matches_the_element_scan(small_groups, small_pgroups):
    from powerlap.verify import pgroup_catalog

    catalog = pgroup_catalog(256)
    assert len(catalog) == 153
    groups = catalog + small_groups + small_pgroups
    groups += [cyclic_group(n) for n in range(1, 301)]
    groups += [dicyclic_group(n) for n in range(2, 33)]
    for g in groups:
        assert is_p_group(g) == is_p_group_by_elements(g), g.label


def test_primitive_classes():
    g = direct_product(cyclic_group(9), cyclic_group(3))
    # classes of (3,0), (3,1), (3,2) and (0,1); smallest representatives
    assert primitive_classes(g, g.identity) == [1, 9, 10, 11]
    # above (3, 0): the three order-9 classes
    assert primitive_classes(g, 9) == [3, 4, 5]
    z5 = cyclic_group(5)
    assert primitive_classes(z5, 1) == []
    with pytest.raises(ValueError, match="not a p-group"):
        primitive_classes(cyclic_group(6), 1)


def test_primitive_class_count_at_identity(small_pgroups):
    # the number of primitive classes of e equals the number of
    # equivalence classes of elements of prime order
    for g in small_pgroups:
        p = is_p_group(g)
        reps = primitive_classes(g, g.identity)
        classes = {frozenset(element_info(g, x).eq_class)
                   for x in range(g.order) if g.orders()[x] == p}
        assert len(reps) == len(classes)
        assert all(g.orders()[r] == p for r in reps)


def test_up_set_partition_for_pgroups(small_pgroups):
    # U(g) = [g] together with the disjoint U(h) over primitive classes
    for g in small_pgroups:
        if g.order > 81:
            continue
        for x in range(g.order):
            union = set(element_info(g, x).eq_class)
            reps = primitive_classes(g, x)
            seen = [up_set(g, h) for h in reps]
            for i, s in enumerate(seen):
                for t in seen[i + 1 :]:
                    assert not (s & t)
                union |= s
            assert union == set(up_set(g, x))


def test_table_file_roundtrip(tmp_path):
    z3 = cyclic_group(3)
    path = tmp_path / "z3.txt"
    lines = ["3"] + [" ".join(str(x) for x in row) for row in table_of(z3)]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_table_file(path)
    assert table_of(loaded) == table_of(z3)
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n1\n")
    with pytest.raises(GroupValidationError, match="expected"):
        load_table_file(bad)
    shifted = tmp_path / "shifted.txt"
    shifted.write_text("2\n1 0\n0 1\n")
    with pytest.raises(GroupValidationError):
        load_table_file(shifted)


@pytest.mark.parametrize("text, message", [
    ("2\n0 1\n1 x\n", "'x'"),
    ("two\n0 1\n1 0\n", "'two'"),
    ("", "empty table file"),
    ("0\n", "order must be positive, got 0"),
    ("2\n0 1\n1 2\n", "table entries must be indices in 0..order-1"),
    ("2\n0 1\n1 1\n", "element 1 has no inverse"),
], ids=["non-integer-entry", "non-integer-order", "empty", "order-0", "entry-out-of-range",
        "no-inverse"])
def test_table_file_defects_raise_validation_errors(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GroupValidationError, match=re.escape(message)) as info:
        load_table_file(path)
    # every defect, in the tokens or in the table they spell, names the file
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("x", [6, -1])
def test_element_index_out_of_range(x):
    for upward in (up_set, hat_up_set):
        with pytest.raises(ValueError, match=f"element index {x} out of range for order 6"):
            upward(cyclic_group(6), x)


def test_from_table_rejects_a_table_of_the_wrong_shape():
    for table in ([[0, 1]], [[0, 1], [1]], [[0, 1, 0], [1, 0, 1]]):
        with pytest.raises(GroupValidationError, match="table must be 2x2"):
            from_table(2, table)


def test_parse_group_spec(tmp_path):
    assert parse_group_spec("zn:6").order == 6
    assert parse_group_spec("qn:3").order == 12
    assert parse_group_spec("gq:2").order == 8
    g = parse_group_spec("prod:zn:9xzn:3")
    assert g.order == 27 and is_p_group(g) == 3
    g = parse_group_spec("prod:zn:2xzn:2xzn:2")
    assert g.order == 8
    path = tmp_path / "z2.txt"
    path.write_text("2\n0 1\n1 0\n")
    assert parse_group_spec(f"table:{path}").order == 2
    for bad in ("zn:x", "foo:3", "prod:zn:2", "prod:zn:2xqn:2"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)
