"""Exact linear algebra against oracles that share none of its arithmetic.

`fraction_charpoly` is Hessenberg reduction over the rationals, so it
checks the modular characteristic polynomial and its prime bound without
any modular arithmetic; sympy's `Matrix.charpoly` is a second oracle,
and `oracles.charpoly_scalar_crt`, a scalar modular Hessenberg over
other primes, checks cores too large for the first two.
`scan_integer_roots` evaluates every candidate.  Root counts by
Descartes' rule are checked against sympy's Sturm-sequence
`Poly.count_roots`.
"""

import math
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    charpoly_leaves,
    default_verify,
    divisor_rich_spectra,
    log_kernels,
    reduced_cyclic_partition,
)
from oracles import (
    charpoly_scalar_crt,
    collapse_to_fixpoint,
    fraction_charpoly,
    maclaurin_bound_every_term,
)
from powerlap import linalg
from powerlap.graphs import power_graph, twin_partition
from powerlap.groups import cyclic_group, dicyclic_group, parse_group_spec
from powerlap.linalg import (
    _maclaurin_bound,
    _prime,
    _synthetic_divide,
    charpoly_exact,
    eval_poly_at_int,
    integer_root_multiplicities,
    roots_above,
    taylor_shift,
)
from powerlap.verify import pgroup_catalog

ORACLE_MAX_DIM = 40
# the first two primes of the modular sequence, checked against sympy below
P0, P1 = 2**25 - 39, 2**25 - 49


def sympy_charpoly(matrix):
    x = sympy.Symbol("x")
    return [int(c) for c in reversed(sympy.Matrix(matrix).charpoly(x).all_coeffs())]


def scan_integer_roots(coeffs, lo, hi):
    """Evaluate and divide out every candidate in [lo, hi]."""
    result = {}
    for r in range(lo, hi + 1):
        work = list(coeffs)
        mult = 0
        while len(work) > 1 and eval_poly_at_int(work, r) == 0:
            work = _synthetic_divide(work, r)
            mult += 1
        if mult:
            result[r] = mult
    return result


# ---------------------------------------------------------------------------
# characteristic polynomial


def quotient_cores(groups):
    cores = (collapse_to_fixpoint(power_graph(g)).quotient_rows() for g in groups)
    return [q for q in cores if len(q) <= ORACLE_MAX_DIM]


def test_charpoly_matches_fraction_oracle_on_quotient_cores(small_groups, small_pgroups):
    groups = small_groups + small_pgroups + pgroup_catalog(256)
    groups += [dicyclic_group(n) for n in (6, 15, 21)]
    cores = quotient_cores(groups)
    assert max(len(q) for q in cores) >= 30
    for q in cores:
        assert charpoly_exact(q) == fraction_charpoly(q)


int_entries = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def int_matrices(draw, max_dim=7, entries=int_entries):
    """Signed, generally non-symmetric integer matrices, some rows zero."""
    m = draw(st.integers(1, max_dim))
    row = st.lists(entries, min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    zero = draw(st.sets(st.integers(0, m - 1), max_size=m))
    return [[0] * m if i in zero else r for i, r in enumerate(rows)]


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_charpoly_matches_oracles_on_integer_matrices(matrix):
    coeffs = charpoly_exact(matrix)
    assert coeffs == fraction_charpoly(matrix)
    assert coeffs == sympy_charpoly(matrix)


def test_charpoly_with_pivots_that_differ_across_primes():
    # column 0 below the diagonal: modulo P0 the subdiagonal entry vanishes,
    # so P0 pivots on row 2 and every other prime on row 1
    swap = [[1, 2, 3], [P0, 0, 1], [5, 1, 0]]
    # modulo P0 the whole column vanishes and P0 skips it; modulo P1 only
    # the subdiagonal entry does
    skip = [[1, 2, 3, 4], [P0 * P1, 0, 1, 2], [2 * P0, 1, 0, 7], [3 * P0, 5, 1, 1]]
    for matrix in (swap, skip):
        assert charpoly_exact(matrix) == fraction_charpoly(matrix) == sympy_charpoly(matrix)


@st.composite
def matrices_divisible_by_the_first_primes(draw, max_dim=6):
    """Matrices whose entries vanish modulo P0, P1 or both, and not others."""
    m = draw(st.integers(2, max_dim))
    entry = st.sampled_from([0, 1, -1, 3, P0, -P0, 2 * P1, P0 * P1])
    return draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))


@settings(max_examples=60, deadline=None)
@given(matrices_divisible_by_the_first_primes())
def test_charpoly_on_entries_divisible_by_the_first_primes(matrix):
    # zero pivots and zero columns modulo some primes and not others
    assert charpoly_exact(matrix) == fraction_charpoly(matrix)


def test_charpoly_with_entries_beyond_int64():
    rng = random.Random(7)
    for m in (1, 2, 5, 8):
        matrix = [[rng.choice([-1, 1]) * rng.randrange(10**29, 10**30) if rng.random() < 0.7 else 0
                   for _ in range(m)] for _ in range(m)]
        assert charpoly_exact(matrix) == fraction_charpoly(matrix)


def test_charpoly_matches_scalar_oracle_on_the_z5040_core():
    core = collapse_to_fixpoint(twin_partition(cyclic_group(5040))).quotient_rows()
    assert len(core) == 59
    assert charpoly_exact(core) == charpoly_scalar_crt(core)


def test_charpoly_matches_scalar_oracle_on_the_divisor_rich_leaves():
    # the leaves that `spectrum` of Z_n takes the charpoly of, n = 720..2310,
    # by elimination and, given their class sizes, by Lanczos
    leaves = charpoly_leaves(divisor_rich_spectra)
    assert [len(leaf) for leaf, _ in leaves] == [27, 29, 33, 37, 29]
    for leaf, sizes in leaves:
        expected = charpoly_scalar_crt(leaf)
        assert charpoly_exact(leaf, nonnegative_eigenvalues=True) == expected
        assert charpoly_exact(leaf, nonnegative_eigenvalues=True, weights=sizes) == expected


def test_charpoly_where_every_residue_is_p_minus_one():
    # -1 reduces to p - 1, the largest residue, modulo every prime;
    # det(xI + J) = x^63 (x + 64)
    matrix = [[-1] * 64 for _ in range(64)]
    expected = [0] * 63 + [64, 1]
    assert charpoly_exact(matrix) == charpoly_scalar_crt(matrix) == expected


near_2_to_40 = st.integers(2**40 - 2**20, 2**40 + 2**20)
wide_entries = st.one_of(near_2_to_40, near_2_to_40.map(lambda x: -x), st.integers(-3, 3))


@settings(max_examples=40, deadline=None)
@given(int_matrices(max_dim=12, entries=wide_entries))
def test_charpoly_matches_scalar_oracle_on_entries_near_2_to_40(matrix):
    assert charpoly_exact(matrix) == charpoly_scalar_crt(matrix)


def test_charpoly_refuses_more_rows_than_its_sums_allow():
    # one shared row: nothing of size 8193^2 is built before the check
    row = [0] * 8193
    with pytest.raises(ValueError, match="8193 rows"):
        charpoly_exact([row] * 8193)


def test_charpoly_refuses_a_residue_stack_over_its_byte_budget(monkeypatch):
    # det(xI - 3I) = (x - 3)^3 takes one prime: a stack of 8 * 1 * 3 * 3 bytes
    matrix = [[3 if i == j else 0 for j in range(3)] for i in range(3)]
    built = []
    mod_primes = linalg._charpoly_mod_primes

    def spy(h, primes):
        built.append(h.nbytes)
        return mod_primes(h, primes)

    monkeypatch.setattr(linalg, "_charpoly_mod_primes", spy)
    monkeypatch.setattr(linalg, "_MAX_STACK_BYTES", 72)
    assert charpoly_exact(matrix) == [-27, 27, -9, 1] and built == [72]
    monkeypatch.setattr(linalg, "_MAX_STACK_BYTES", 71)
    with pytest.raises(ValueError, match="3 rows on 1 primes: the int64 residue stack needs "
                                         "72 bytes, over the 71-byte budget"):
        charpoly_exact(matrix)
    assert built == [72]


def test_charpoly_at_the_coefficient_bound():
    # det(xI + B*I) = (x + B)^m: the constant B^m sits just under half the
    # modulus the row-sum bound 2 * (B + 1)^m asks for
    m, b = 40, 10**6
    matrix = [[-b if i == j else 0 for j in range(m)] for i in range(m)]
    assert charpoly_exact(matrix) == [math.comb(m, k) * b ** (m - k) for k in range(m + 1)]
    assert charpoly_exact([]) == [1]
    with pytest.raises(ValueError):
        charpoly_exact([[1, 2]])


def test_maclaurin_bound_is_sharp_on_a_scalar_matrix():
    # det(xI - b*I) = (x - b)^m: every eigenvalue equals the mean, where
    # Maclaurin's inequality is an equality, so the bound is attained
    m, b = 40, 10**6
    matrix = [[b if i == j else 0 for j in range(m)] for i in range(m)]
    expected = [math.comb(m, k) * (-b) ** (m - k) for k in range(m + 1)]
    assert charpoly_exact(matrix, nonnegative_eigenvalues=True) == expected
    assert charpoly_exact([[0]], nonnegative_eigenvalues=True) == [0, 1]
    assert charpoly_exact([], nonnegative_eigenvalues=True) == [1]


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10**5))
@example(2046, 45501)  # the leaf of Z2^9 x Z15
@example(1, 0)
@example(7, 1)
def test_maclaurin_bound_is_its_peak_term(m, trace):
    assert _maclaurin_bound(m, trace) == maclaurin_bound_every_term(m, trace)


def test_maclaurin_bound_refuses_a_negative_trace():
    with pytest.raises(ValueError, match="negative"):
        charpoly_exact([[1, 0], [0, -2]], nonnegative_eigenvalues=True)


@st.composite
def positive_semidefinite_matrices(draw, max_dim=7):
    """B^T B for a signed integer B, and a similar non-symmetric D B^T B D^-1
    scaled by the product of D's entries to keep it integral."""
    m = draw(st.integers(1, max_dim))
    entry = st.integers(-20, 20)
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    gram = [[sum(b[k][i] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    if draw(st.booleans()):
        return gram
    d = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    scale = math.prod(d)
    return [[gram[i][j] * d[i] * scale // d[j] for j in range(m)] for i in range(m)]


@settings(max_examples=100, deadline=None)
@given(positive_semidefinite_matrices())
def test_maclaurin_bound_on_positive_semidefinite_matrices(matrix):
    assert charpoly_exact(matrix, nonnegative_eigenvalues=True) == fraction_charpoly(matrix)


def test_maclaurin_and_row_sum_bounds_agree_on_every_claim_core():
    # the quotient cores the default verify run and the divisor-rich
    # spectrum queries take the charpoly of, and three larger ones
    partitions = [p for n in range(2, 301)
                  for p in (twin_partition(cyclic_group(n)), reduced_cyclic_partition(n))]
    partitions += [twin_partition(cyclic_group(n)) for n in (720, 840, 1260, 1680, 2310, 5040)]
    groups = [dicyclic_group(n) for n in (*range(2, 33), 105, 250)] + pgroup_catalog(256)
    partitions += [twin_partition(power_graph(g)) for g in groups]
    for tp in partitions:
        core = collapse_to_fixpoint(tp).quotient_rows()
        assert charpoly_exact(core, nonnegative_eigenvalues=True) == charpoly_exact(core)


def test_maclaurin_bound_takes_fewer_primes_on_the_z4_4_core(monkeypatch):
    core = collapse_to_fixpoint(power_graph(parse_group_spec("prod:zn:4xzn:4xzn:4xzn:4"))).quotient_rows()
    used = []
    mod_primes = linalg._charpoly_mod_primes

    def counted(h, primes):
        used.append(len(primes))
        return mod_primes(h, primes)

    monkeypatch.setattr(linalg, "_charpoly_mod_primes", counted)
    assert charpoly_exact(core, nonnegative_eigenvalues=True) == charpoly_exact(core)
    # 31 rows with trace 540: a 130-bit modulus against a 280-bit one
    assert len(core) == 31 and used == [6, 12]


def test_primes_descend_from_the_largest_below_2_to_25():
    # 4,000 primes cross the first two sieve windows, of 2**12 and 2**16 integers
    primes = [_prime(i) for i in range(4000)]
    assert primes[0] == sympy.prevprime(2**25) == P0 and primes[1] == P1
    assert primes[-1] < 2**25 - 2**16 < primes[0]
    for p, q in zip(primes, primes[1:]):
        assert sympy.prevprime(p) == q


def test_primes_are_sieved_on_demand_down_to_2():
    # in a fresh interpreter: import sieves nothing, the last of the n primes
    # below 2**25 is 2, and past it _prime raises
    code = """
import sys
import powerlap
from powerlap.linalg import _PRIMES, _prime
n = int(sys.argv[1])
print(len(_PRIMES), _prime(n - 1))
try:
    _prime(n)
except IndexError:
    print("IndexError")
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(sympy.primepi(2**25))],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "2", "IndexError"]


# ---------------------------------------------------------------------------
# Lanczos on the deflation of a weighted quotient


def deflation(sizes, within, joined):
    """Q'_ij = Q_{i+1,j+1} - Q_{0,j+1} for the Laplacian quotient Q whose
    class i has sizes[i] vertices, within[i] neighbors in its own class
    and sizes[j] in each class j with (i, j) in joined, i < j."""
    m = len(sizes)
    counts = [[within[i] if i == j else sizes[j] if (min(i, j), max(i, j)) in joined else 0
               for j in range(m)] for i in range(m)]
    rows = [[-c for c in row] for row in counts]
    for i, row in enumerate(counts):
        rows[i][i] += sum(row)
    return [[x - y for x, y in zip(row[1:], rows[0][1:])] for row in rows[1:]]


def test_lanczos_agrees_with_elimination_on_the_gated_and_large_leaves(monkeypatch):
    # every leaf of the default verify suite and of spectrum-divisor-rich,
    # then Z_5040's and Z_55440's, each through both kernels
    leaves = charpoly_leaves(default_verify) + charpoly_leaves(divisor_rich_spectra)
    leaves += charpoly_leaves(lambda: divisor_rich_spectra((5040, 55440)))
    assert len(leaves) == 159 + 7
    assert [len(matrix) for matrix, _ in leaves[-7:]] == [27, 29, 33, 37, 29, 57, 117]
    monkeypatch.setattr(linalg, "_LANCZOS_ROWS", 2)
    calls = log_kernels(monkeypatch)
    for matrix, sizes in leaves:
        assert (charpoly_exact(matrix, nonnegative_eigenvalues=True, weights=sizes)
                == charpoly_exact(matrix, nonnegative_eigenvalues=True))
    taken = [call[2] for call in calls if call[0] == "lanczos"]
    assert len(taken) == sum(len(matrix) >= 2 for matrix, _ in leaves)
    # the large leaves, and most of the small, go through without a fallback
    assert taken[-7:] == [False] * 7 and taken.count(False) > len(taken) // 2


@st.composite
def weighted_quotients(draw, max_classes=24):
    """Class sizes 1..20, within counts below them, and a symmetric
    adjacency holding the path 0, 1, ..., m - 1, so Q is connected."""
    m = draw(st.integers(2, max_classes))
    sizes = draw(st.lists(st.integers(1, 20), min_size=m, max_size=m))
    within = [draw(st.integers(0, s - 1)) for s in sizes]
    pairs = [(i, j) for i in range(m) for j in range(i + 2, m)]
    coins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    joined = {(i, i + 1) for i in range(m - 1)} | {e for e, c in zip(pairs, coins) if c}
    return sizes, within, joined


@settings(max_examples=60, deadline=None)
@given(weighted_quotients())
def test_lanczos_matches_the_scalar_oracle_on_weighted_quotients(quotient):
    sizes, within, joined = quotient
    matrix = deflation(sizes, within, joined)
    with mock.patch.object(linalg, "_LANCZOS_ROWS", 2):
        assert (charpoly_exact(matrix, nonnegative_eigenvalues=True, weights=sizes)
                == charpoly_scalar_crt(matrix))


def test_lanczos_hands_a_repeated_eigenvalue_back_to_elimination(monkeypatch):
    # a hub class with three isomorphic arms, each a path of six classes:
    # the arms' antisymmetric eigenvectors make every such eigenvalue
    # double, so the Krylov space of (1, ..., d) is short and a norm
    # vanishes modulo every prime (two arms give no repeated eigenvalue)
    sizes = [2] + [1, 2, 3, 1, 2, 3] * 3
    joined = set()
    for first in (1, 7, 13):
        joined |= {(0, first)} | {(i, i + 1) for i in range(first, first + 5)}
    matrix = deflation(sizes, [s - 1 for s in sizes], joined)
    assert len(matrix) == linalg._LANCZOS_ROWS
    calls = log_kernels(monkeypatch)
    assert (charpoly_exact(matrix, nonnegative_eigenvalues=True, weights=sizes)
            == charpoly_scalar_crt(matrix))
    assert calls == [("lanczos", 18, True), ("elimination", 18)]


def test_lanczos_hands_back_a_leaf_whose_norm_vanishes_modulo_one_prime(monkeypatch):
    # draw connected 19-class quotients until the first norm
    # <q_1, q_1> = N sum s_i i^2 - (sum s_i i)^2 has a prime factor p with
    # N < p < 2**25, then put p first in the leaf's prime list
    rng = random.Random(40)
    factors = []
    while not factors:
        sizes = [rng.randint(1, 20) for _ in range(19)]
        within = [rng.randrange(s) for s in sizes]
        joined = {(i, i + 1) for i in range(18)}
        joined |= {(i, j) for i in range(19) for j in range(i + 2, 19) if rng.random() < 0.5}
        total = sum(sizes)
        norm = (total * sum(s * i * i for i, s in enumerate(sizes[1:], 1))
                - sum(s * i for i, s in enumerate(sizes[1:], 1)) ** 2)
        factors = [p for p in sympy.primefactors(norm) if total < p < 2**25]
    matrix = deflation(sizes, within, joined)
    expected = charpoly_scalar_crt(matrix)
    calls = log_kernels(monkeypatch)
    assert charpoly_exact(matrix, nonnegative_eigenvalues=True, weights=sizes) == expected
    assert calls == [("lanczos", 18, False)]
    primes = linalg._residue_primes
    monkeypatch.setattr(linalg, "_residue_primes",
                        lambda m, bound: (factors[0],) + primes(m, bound))
    assert charpoly_exact(matrix, nonnegative_eigenvalues=True, weights=sizes) == expected
    assert calls[1:] == [("lanczos", 18, True), ("elimination", 18)]


def test_lanczos_refuses_weights_that_do_not_fit_the_matrix():
    [(matrix, sizes)] = charpoly_leaves(lambda: divisor_rich_spectra((720,)))
    assert len(matrix) == 27
    bumped = sizes[:1] + (sizes[1] + 1,) + sizes[2:]
    with pytest.raises(ValueError, match="not self-adjoint in the form of its weights"):
        charpoly_exact(matrix, nonnegative_eigenvalues=True, weights=bumped)
    with pytest.raises(ValueError, match="27 weights for the deflation of a 28-row quotient"):
        charpoly_exact(matrix, nonnegative_eigenvalues=True, weights=sizes[1:])


# ---------------------------------------------------------------------------
# integer roots


@st.composite
def polys_with_integer_roots(draw):
    roots = draw(st.lists(st.integers(-6, 12), max_size=8))
    rest = draw(st.lists(st.integers(-20, 20), max_size=4))
    coeffs = rest or [0]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs + [0] * draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(polys_with_integer_roots(), st.integers(-8, 0), st.integers(0, 14))
def test_integer_roots_match_scan(coeffs, lo, hi):
    got, residual = integer_root_multiplicities(coeffs, lo, hi)
    want = scan_integer_roots(coeffs, lo, hi)
    assert list(got.items()) == list(want.items())
    if not any(coeffs):
        assert residual == coeffs
        return
    # the residual times prod (x - r)^m is the input, with no root left
    rebuilt = residual
    for r, m in got.items():
        for _ in range(m):
            rebuilt = [a - r * b for a, b in zip([0] + rebuilt, rebuilt + [0])]
    assert rebuilt == coeffs
    assert scan_integer_roots(residual, lo, hi) == {}


def test_integer_roots_refuse_a_root_modulo_the_prime_only():
    # q = x^2 + 3p - 9: 3 divides q(0) and q(3) = 3p vanishes modulo p, but
    # not over the integers, so the exact evaluation must refuse it
    p = _prime(0)
    q = [3 * p - 9, 0, 1]
    assert eval_poly_at_int(q, 3) % p == 0
    assert integer_root_multiplicities(q, -5, 5)[0] == scan_integer_roots(q, -5, 5) == {}
    assert integer_root_multiplicities([0, 0] + q, -5, 5)[0] == {0: 2}


# ---------------------------------------------------------------------------
# root counts by Descartes' rule


@st.composite
def symmetric_int_matrices(draw, max_block=3):
    """Symmetric integer matrices with repeated and integer eigenvalues.

    A random symmetric block, optionally repeated (every eigenvalue
    doubled), next to an integer diagonal, scrambled by a signed
    permutation similarity.
    """
    m = draw(st.integers(1, max_block))
    entries = draw(st.lists(st.integers(-3, 3), min_size=m * m, max_size=m * m))
    block = [[entries[min(i, j) * m + max(i, j)] for j in range(m)] for i in range(m)]
    blocks = [block] * draw(st.integers(1, 2))
    diag = draw(st.lists(st.integers(-3, 3), max_size=3))
    blocks += [[[d]] for d in diag]
    size = sum(len(b) for b in blocks)
    mat = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            mat[at + i][at:at + len(b)] = row
        at += len(b)
    perm = draw(st.permutations(range(size)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    return [[signs[i] * signs[j] * mat[perm[i]][perm[j]] for j in range(size)]
            for i in range(size)]


def sympy_roots_above(coeffs, k):
    """Roots greater than k with multiplicity, from Sturm counts per square-free factor."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(coeffs)), x).sqf_list()
    return sum(e * (f.count_roots(k, None) - (f.eval(k) == 0)) for f, e in factors)


@settings(max_examples=120, deadline=None)
@given(symmetric_int_matrices())
def test_descartes_count_matches_sturm_on_symmetric_matrices(matrix):
    coeffs = charpoly_exact(matrix)
    bound = max(sum(abs(v) for v in row) for row in matrix)
    _, residual = integer_root_multiplicities(coeffs, -bound, bound)
    for k in range(-1, bound + 2):
        assert roots_above(residual, k) == sympy_roots_above(residual, k), k
        # with the integer roots left in, a root at k itself is not counted
        assert roots_above(coeffs, k) == sympy_roots_above(coeffs, k), k


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=9), st.integers(-20, 20))
def test_taylor_shift_matches_sympy(coeffs, k):
    x = sympy.Symbol("x")
    shifted = sympy.Poly(sympy.Poly(list(reversed(coeffs)), x).as_expr().subs(x, x + k), x)
    want = [int(c) for c in reversed(shifted.all_coeffs())]
    got = taylor_shift(coeffs, k)
    # sympy drops leading zeros
    assert got[:len(want)] == want and not any(got[len(want):])


def test_roots_above_edge_cases():
    assert roots_above([1], 0) == 0
    assert roots_above([-3, 1], 2) == 1 and roots_above([-3, 1], 3) == 0
    # (x - 1)^2 (x^2 - 2): irrational roots on both sides of 0
    coeffs = [-2, 4, -1, -2, 1]
    assert [roots_above(coeffs, k) for k in (-2, -1, 0, 1, 2)] == [4, 3, 3, 1, 0]
