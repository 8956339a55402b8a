"""Exact linear algebra against oracles that share none of its arithmetic.

`fraction_charpoly` is Hessenberg reduction over the rationals, so it
checks the Lanczos charpoly and its prime bound without any modular
arithmetic; sympy's `Matrix.charpoly` is a second oracle, and
`oracles.charpoly_scalar_crt`, a scalar modular Hessenberg elimination
over other primes past the row-sum bound, checks cores too large for
the first two.
`scan_integer_roots` evaluates every candidate.  Root counts by
Descartes' rule are checked against sympy's Sturm-sequence
`Poly.count_roots`.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    weighted_quotient,
)
from oracles import (
    charpoly_mod,
    charpoly_scalar_crt,
    collapse_to_fixpoint,
    fraction_charpoly,
    maclaurin_bound_every_term,
)
from powerlap import linalg
from powerlap.graphs import power_graph, twin_partition
from powerlap.groups import cyclic_group, dicyclic_group, parse_group_spec
from powerlap.spectra import spectrum
from powerlap.linalg import (
    _MAX_STACK_BYTES,
    _maclaurin_bound,
    _primes,
    _residue_primes,
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
    """Evaluate and divide out every candidate in [lo, hi]: the roots with
    their multiplicities, and the residual left."""
    result, work = {}, list(coeffs)
    for r in range(lo, hi + 1):
        while len(work) > 1 and eval_poly_at_int(work, r) == 0:
            work = _synthetic_divide(work, r)[0]
            result[r] = result.get(r, 0) + 1
    return result, work


# ---------------------------------------------------------------------------
# characteristic polynomial


def quotient_cores(groups):
    cores = (collapse_to_fixpoint(power_graph(g)) for g in groups)
    return [c for c in cores if len(c.sizes) <= ORACLE_MAX_DIM]


def test_charpoly_matches_fraction_oracle_on_quotient_cores(small_groups, small_pgroups):
    groups = small_groups + small_pgroups + pgroup_catalog(256)
    groups += [dicyclic_group(n) for n in (6, 15, 21)]
    cores = quotient_cores(groups)
    assert max(len(c.sizes) for c in cores) >= 30
    for core in cores:
        rows = core.quotient_rows()
        assert charpoly_exact(rows, weights=core.sizes) == fraction_charpoly(rows)


@st.composite
def weighted_quotients(draw, max_classes=24, max_size=20):
    """Class sizes 1..max_size, within counts below them, and a symmetric
    adjacency holding the path 0, 1, ..., m - 1, so Q is connected."""
    m = draw(st.integers(2, max_classes))
    sizes = draw(st.lists(st.integers(1, max_size), min_size=m, max_size=m))
    within = [draw(st.integers(0, s - 1)) for s in sizes]
    pairs = [(i, j) for i in range(m) for j in range(i + 2, m)]
    coins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    joined = {(i, i + 1) for i in range(m - 1)} | {e for e, c in zip(pairs, coins) if c}
    return sizes, within, joined


@settings(max_examples=150, deadline=None)
@given(weighted_quotients(max_classes=8))
def test_charpoly_matches_oracles_on_integer_matrices(quotient):
    # weighted quotients, the matrices the charpoly takes
    sizes, within, joined = quotient
    matrix = weighted_quotient(sizes, within, joined)
    coeffs = charpoly_exact(matrix, weights=sizes)
    assert coeffs == fraction_charpoly(matrix)
    assert coeffs == sympy_charpoly(matrix)


@st.composite
def quotients_with_a_class_of_a_first_prime(draw):
    """A weighted quotient with one class of P0 or P1 vertices, the
    others small: its quotient has entries divisible by that prime, and
    modulo it the form degenerates, so the kernel drops it."""
    sizes, within, joined = draw(weighted_quotients(max_classes=6, max_size=4))
    big = draw(st.sampled_from([P0, P1]))
    at = draw(st.integers(0, len(sizes) - 1))
    sizes[at], within[at] = big, draw(st.sampled_from([0, big - 1]))
    return sizes, within, joined


@settings(max_examples=60, deadline=None)
@given(quotients_with_a_class_of_a_first_prime())
def test_charpoly_on_entries_divisible_by_the_first_primes(quotient):
    sizes, within, joined = quotient
    assert sum(sizes) < 2**25
    matrix = weighted_quotient(sizes, within, joined)
    assert charpoly_exact(matrix, weights=sizes) == fraction_charpoly(matrix)


def test_charpoly_with_entries_beyond_int64():
    # refused: a row sum of |Q| from 2**28 on would round in the float64
    # product with residues; a one-class block with that many neighbors
    # outside it is no leaf's, but its form checks out
    with pytest.raises(ValueError, match="reaches 2\\*\\*28"):
        charpoly_exact([[2**28]], weights=(1,))
    assert charpoly_exact([[2**28 - 1]], weights=(1,)) == [1 - 2**28, 1]
    for m in (1, 2, 5, 8):
        matrix = [[10**30 if i == j else 0 for j in range(m)] for i in range(m)]
        with pytest.raises(ValueError, match="reaches 2\\*\\*28"):
            charpoly_exact(matrix, weights=(1,) * m)


def test_charpoly_matches_scalar_oracle_on_the_z5040_core():
    core = collapse_to_fixpoint(twin_partition(cyclic_group(5040)))
    rows = core.quotient_rows()
    assert len(rows) == 59
    assert charpoly_exact(rows, weights=core.sizes) == charpoly_scalar_crt(rows)


def test_charpoly_matches_scalar_oracle_on_the_divisor_rich_leaves():
    # the leaves that `spectrum` of Z_n takes the charpoly of, n = 720..2310
    leaves = charpoly_leaves(divisor_rich_spectra)
    assert [len(leaf) for leaf, _ in leaves] == [28, 30, 34, 38, 30]
    for leaf, sizes in leaves:
        assert charpoly_exact(leaf, weights=sizes) == charpoly_scalar_crt(leaf)


def test_charpoly_where_every_residue_is_p_minus_one():
    # K_64 with a pendant class 0 joined to class 1: every entry of the
    # quotient off the diagonal and outside the pendant's row and column
    # is -1, so A q reduces near p - 1
    matrix = weighted_quotient([1] * 65, [0] * 65, {(0, 1)} | {(i, j) for i in range(1, 65)
                                                              for j in range(i + 1, 65)})
    assert sum(x == -1 for row in matrix for x in row) == 64 * 63 + 2
    assert charpoly_exact(matrix, weights=[1] * 65) == charpoly_scalar_crt(matrix)


def test_charpoly_checks_its_weights_before_an_empty_matrix_returns():
    assert charpoly_exact([], weights=()) == [1]
    with pytest.raises(ValueError, match="3 weights for a 0-row quotient"):
        charpoly_exact([], weights=(1, 2, 3))


def test_charpoly_refuses_more_rows_than_its_sums_allow():
    # one shared row: nothing of size 8193^2 is built before the check
    row = [0] * 8193
    with pytest.raises(ValueError, match="8193 rows"):
        charpoly_exact([row] * 8193, weights=[1] * 8193)


def test_charpoly_refuses_a_residue_stack_over_its_byte_budget(monkeypatch):
    # K_4's quotient 4 I - J has det(xI - Q) = x (x - 4)^3 on one prime:
    # a restart basis of 8 * 1 * 4 * 4 bytes
    matrix = weighted_quotient([1] * 4, [0] * 4, {(i, j) for i in range(4)
                                                  for j in range(i + 1, 4)})
    monkeypatch.setattr(linalg, "_MAX_STACK_BYTES", 128)
    assert charpoly_exact(matrix, weights=[1] * 4) == [0, -64, 48, -12, 1]
    monkeypatch.setattr(linalg, "_MAX_STACK_BYTES", 127)
    with pytest.raises(ValueError, match="4 rows on 1 primes: the int64 restart basis needs "
                                         "128 bytes, over the 127-byte budget"):
        charpoly_exact(matrix, weights=[1] * 4)


def scalar(n, m):
    """n I on m rows: a block with full degrees on its diagonal, which
    the form of any weights takes."""
    return [[n if i == j else 0 for j in range(m)] for i in range(m)]


def test_charpoly_at_the_coefficient_bound():
    # det(xI - N I) = (x - N)^m: every eigenvalue is the mean, so the
    # largest |coefficient| is the Maclaurin bound itself, and the modulus
    # must pass twice it
    m, n = 40, 10**6
    sizes = [n - m] + [1] * (m - 1)
    expected = [math.comb(m, k) * (-n) ** (m - k) for k in range(m + 1)]
    assert max(map(abs, expected)) == _maclaurin_bound(m, m * n)
    assert charpoly_exact(scalar(n, m), weights=sizes) == expected
    assert charpoly_exact([], weights=()) == [1]
    with pytest.raises(ValueError):
        charpoly_exact([[1, 2]], weights=(1,))


def test_maclaurin_bound_is_sharp_on_a_scalar_matrix():
    # det(xI - 41 I) = (x - 41)^40, every eigenvalue the mean, where
    # Maclaurin's inequality is an equality
    m = 40
    expected = [math.comb(m, k) * (-41) ** (m - k) for k in range(m + 1)]
    assert charpoly_exact(scalar(41, m), weights=[1] * m) == expected
    assert max(map(abs, expected)) == _maclaurin_bound(m, 41 * m)
    # two classes joined to nothing: Q = 0
    assert charpoly_exact([[0, 0], [0, 0]], weights=(3, 2)) == [0, 0, 1]


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10**5))
@example(2046, 45501)  # the leaf of Z2^9 x Z15
@example(1, 0)
@example(7, 1)
def test_maclaurin_bound_is_its_peak_term(m, trace):
    assert _maclaurin_bound(m, trace) == maclaurin_bound_every_term(m, trace)


def test_crt_reads_half_the_modulus_as_positive(monkeypatch):
    # 3I, a block with full degrees: det(xI - 3I) = x^2 - 6x + 9, Maclaurin
    # bound 9: on a table starting at 19 = 2 * 9 + 1 the constant term's
    # residue is the modulus's half, rounded down, the largest residue
    # that the symmetric range reads as positive
    monkeypatch.setattr(linalg, "_primes", lambda: (19, 17, 13, 11))
    assert _maclaurin_bound(2, 6) == 9 and _residue_primes(2, 9) == (19,)
    assert charpoly_exact(scalar(3, 2), weights=(1, 1)) == [9, -6, 1]


def test_maclaurin_bound_refuses_a_negative_trace():
    with pytest.raises(ValueError, match="negative"):
        _maclaurin_bound(2, -1)
    with pytest.raises(ValueError, match="negative"):
        charpoly_exact([[1, 0], [0, -2]], weights=(1, 1))


@settings(max_examples=100, deadline=None)
@given(weighted_quotients(max_classes=8))
def test_maclaurin_bound_on_positive_semidefinite_matrices(quotient):
    # a quotient is positive semidefinite in its form: the bound from its
    # trace covers every coefficient
    sizes, within, joined = quotient
    matrix = weighted_quotient(sizes, within, joined)
    coeffs = charpoly_exact(matrix, weights=sizes)
    assert coeffs == fraction_charpoly(matrix)
    assert max(map(abs, coeffs)) <= _maclaurin_bound(len(matrix), sum(
        matrix[i][i] for i in range(len(matrix))))


def test_maclaurin_and_row_sum_bounds_agree_on_every_claim_core():
    # the quotient cores the default verify run and the divisor-rich
    # spectrum queries take the charpoly of, and three larger ones, against
    # the scalar oracle, which stops past the row-sum bound 2 (B + 1)^m
    partitions = [p for n in range(2, 301)
                  for p in (twin_partition(cyclic_group(n)), reduced_cyclic_partition(n))]
    partitions += [twin_partition(cyclic_group(n)) for n in (720, 840, 1260, 1680, 2310, 5040)]
    groups = [dicyclic_group(n) for n in (*range(2, 33), 105, 250)] + pgroup_catalog(256)
    partitions += [twin_partition(power_graph(g)) for g in groups]
    for tp in partitions:
        core = collapse_to_fixpoint(tp)
        rows = core.quotient_rows()
        assert charpoly_exact(rows, weights=core.sizes) == charpoly_scalar_crt(rows)


def test_maclaurin_bound_takes_fewer_primes_on_the_z4_4_core(monkeypatch):
    core = collapse_to_fixpoint(power_graph(parse_group_spec("prod:zn:4xzn:4xzn:4xzn:4")))
    matrix = core.quotient_rows()
    used = []
    kernel = linalg._charpoly_lanczos

    def counted(a, s, primes):
        used.append(len(primes))
        return kernel(a, s, primes)

    monkeypatch.setattr(linalg, "_charpoly_lanczos", counted)
    assert charpoly_exact(matrix, weights=core.sizes) == charpoly_scalar_crt(matrix)
    # 31 rows with trace 540: a 129-bit bound; the row-sum bound needs 12 primes
    widest = max(sum(map(abs, row)) for row in matrix)
    assert len(matrix) == 31 and used == [6]
    assert len(_residue_primes(31, (widest + 1) ** 31)) == 12


def test_primes_descend_from_the_largest_below_2_to_25():
    # the table is every prime in [2**25 - 2**14, 2**25), descending
    assert list(_primes()) == list(reversed(list(sympy.primerange(2**25 - 2**14, 2**25))))
    assert len(_primes()) == 968 and _primes()[:2] == (P0, P1) == (sympy.prevprime(2**25),
                                                                    sympy.prevprime(P0))


def test_importing_powerlap_sieves_no_prime():
    code = ("import powerlap; from powerlap.linalg import _primes; "
            "print(_primes.cache_info().currsize)")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_residue_primes_are_the_shortest_prefix_past_twice_the_bound():
    # P0 // 2 and P0 // 2 + 1 sit on either side of one prime's modulus
    for bound in (1, P0 // 2, P0 // 2 + 1, P0 * P1, 2**1000, 3**5000):
        primes = _residue_primes(1, bound)
        assert primes == _primes()[:len(primes)]
        assert math.prod(primes[:-1]) <= 2 * bound < math.prod(primes)


def test_only_an_over_budget_leaf_runs_out_of_primes():
    # a Maclaurin bound is below 2**(29 m) for row sums of |M| below 2**28,
    # and the table runs out only when twice it reaches the table's product:
    # the fewest rows that can need that are already over the byte budget
    product = math.prod(_primes())
    m_min = -(-(product.bit_length() - 1) // 29)
    assert 2 ** (29 * m_min + 1) > product >= 2 ** (29 * (m_min - 1) + 1)
    assert 8 * len(_primes()) * m_min**2 > _MAX_STACK_BYTES
    with pytest.raises(ValueError, match=f"past the product of all {len(_primes())} primes"):
        _residue_primes(1, product // 2 + 1)
    assert _residue_primes(1, product // 2) == _primes()


# ---------------------------------------------------------------------------
# Lanczos on a weighted quotient


def test_lanczos_agrees_with_elimination_on_the_gated_and_large_leaves():
    # every leaf of the default verify suite and of spectrum-divisor-rich,
    # then Z_5040's and Z_55440's, against the scalar Hessenberg
    # elimination of the oracle: by CRT up to 60 rows, past that modulo
    # two of its primes
    leaves = charpoly_leaves(default_verify) + charpoly_leaves(divisor_rich_spectra)
    leaves += charpoly_leaves(lambda: divisor_rich_spectra((5040, 55440)))
    assert len(leaves) == 159 + 7
    assert [len(matrix) for matrix, _ in leaves[-7:]] == [28, 30, 34, 38, 30, 58, 118]
    primes = [sympy.prevprime(2**61), sympy.prevprime(2**60)]
    for matrix, sizes in leaves:
        coeffs = charpoly_exact(matrix, weights=sizes)
        if len(matrix) <= 60:
            assert coeffs == charpoly_scalar_crt(matrix)
        else:
            assert [[c % p for c in coeffs] for p in primes] == [charpoly_mod(matrix, p)
                                                                 for p in primes]


@settings(max_examples=60, deadline=None)
@given(weighted_quotients())
def test_lanczos_matches_the_scalar_oracle_on_weighted_quotients(quotient):
    sizes, within, joined = quotient
    matrix = weighted_quotient(sizes, within, joined)
    assert charpoly_exact(matrix, weights=sizes) == charpoly_scalar_crt(matrix)


def block_quotient(sizes, weights, surplus):
    """(sizes, Q) with Q_ij = -c_ij s_j off the diagonal, c_ij = c_ji
    from ``weights`` keyed by (i, j), i < j, and each row summing to its
    ``surplus``: diag(s) Q is symmetric with no positive entry off the
    diagonal and no negative row sum, as for a block of a quotient with
    full degrees on its diagonal."""
    m = len(sizes)
    rows = [[-weights.get((min(i, j), max(i, j)), 0) * sizes[j] if i != j else 0
             for j in range(m)] for i in range(m)]
    for i, row in enumerate(rows):
        row[i] = surplus[i] - sum(row)
    return sizes, rows


@st.composite
def block_quotients(draw, max_rows=12, max_size=50):
    """`block_quotient` with up to 12 rows, sizes up to 50, c_ij in 0..2
    and surpluses in 0..60, some of them positive."""
    m = draw(st.integers(1, max_rows))
    sizes = draw(st.lists(st.integers(1, max_size), min_size=m, max_size=m))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    weights = dict(zip(pairs, draw(st.lists(st.integers(0, 2), min_size=len(pairs),
                                            max_size=len(pairs)))))
    surplus = draw(st.lists(st.integers(0, 60), min_size=m, max_size=m).filter(any))
    return block_quotient(sizes, weights, surplus)


# a hub with three equal arms, and two equal blocks joined to nothing:
# repeated eigenvalues that close a Krylov block early and restart it
HUB_OF_BLOCKS = block_quotient([2] + [1, 2, 3] * 3,
                               {(0, 1): 1, (0, 4): 1, (0, 7): 1, (1, 2): 1, (2, 3): 2,
                                (4, 5): 1, (5, 6): 2, (7, 8): 1, (8, 9): 2},
                               [5] + [1, 0, 7] * 3)
TWO_BLOCKS = block_quotient([3, 4, 3, 4], {(0, 1): 1, (2, 3): 1}, [2, 0, 2, 0])


@settings(max_examples=150, deadline=None)
@given(block_quotients())
@example(HUB_OF_BLOCKS)
@example(TWO_BLOCKS)
def test_charpoly_of_blocks_with_full_degrees_matches_the_fraction_oracle(block):
    sizes, matrix = block
    assert charpoly_exact(matrix, weights=sizes) == fraction_charpoly(matrix)


def test_blocks_with_repeated_eigenvalues_restart(monkeypatch):
    calls = log_kernels(monkeypatch)
    for sizes, matrix in (HUB_OF_BLOCKS, TWO_BLOCKS):
        charpoly_exact(matrix, weights=sizes)
    assert calls == [(10, 1, 0), (4, 1, 0)]


def hub_with_three_arms():
    """A hub class with three isomorphic arms, each a path of six classes:
    the arms' antisymmetric eigenvectors make every such eigenvalue
    double, so the Krylov space of (1, ..., d) is short (two arms give no
    repeated eigenvalue)."""
    sizes = [2] + [1, 2, 3, 1, 2, 3] * 3
    joined = set()
    for first in (1, 7, 13):
        joined |= {(0, first)} | {(i, i + 1) for i in range(first, first + 5)}
    return weighted_quotient(sizes, [s - 1 for s in sizes], joined), sizes


def test_lanczos_restarts_through_repeated_eigenvalues(monkeypatch):
    # the hub, the two default verify leaves whose first block closes one
    # step short, and Z2^4 x Z15's leaf, 63 rows in 14 blocks
    calls = log_kernels(monkeypatch)
    verify = charpoly_leaves(default_verify)
    leaves = [hub_with_three_arms()] + [leaf for leaf, call in zip(verify, calls) if call[1]]
    leaves += charpoly_leaves(lambda: spectrum(twin_partition(
        parse_group_spec("prod:zn:2xzn:2xzn:2xzn:2xzn:15"))))
    calls.clear()
    for matrix, sizes in leaves:
        assert charpoly_exact(matrix, weights=sizes) == charpoly_scalar_crt(matrix)
    assert calls == [(19, 1, 0), (8, 1, 0), (10, 1, 0), (63, 13, 0)]


def test_lanczos_drops_a_prime_that_a_restart_vector_leaves_at_zero(monkeypatch):
    # one start vector serves every prime: zeroed modulo the first prime at
    # the first restart of Z2^4 x Z15's leaf, it has that prime dropped at
    # its norm, and one run on a replacement makes up the modulus
    [(matrix, sizes)] = charpoly_leaves(lambda: spectrum(twin_partition(
        parse_group_spec("prod:zn:2xzn:2xzn:2xzn:2xzn:15"))))
    restart, zeroed = linalg._restart, []

    def zero_at_the_first_prime_once(*args):
        q = restart(*args)
        if not zeroed:
            zeroed.append(args[-1][0])
            q[:, 0] = 0
        return q

    monkeypatch.setattr(linalg, "_restart", zero_at_the_first_prime_once)
    calls = log_kernels(monkeypatch)
    assert charpoly_exact(matrix, weights=sizes) == charpoly_scalar_crt(matrix)
    assert zeroed == [P0]
    assert calls == [(63, 13, 1), (63, 13, 0)]


def class_form(sizes, x, y):
    """<x, y> = sum s_i x_i y_i over the class sizes."""
    return sum(w * a * b for w, a, b in zip(sizes, x, y))


def restart_from(q0, primes, sizes):
    """`_restart` after one stored vector u_0, the residues of the integer
    vector ``q0`` modulo each prime, with its inverse norm."""
    norm = class_form(sizes, q0, q0)
    basis = [[[x % r for r in primes] for x in q0]]
    inverses = [[pow(norm, -1, r) for r in primes]]
    return linalg._restart(*(np.array(x, dtype=np.int64) for x in (basis, inverses, sizes)),
                           np.array(primes, dtype=np.int64))


def projection_mod(i, q0, sizes, r):
    """e_i - <e_i, u_0> / <u_0, u_0> u_0 over Q, reduced modulo r."""
    e = [int(j == i) for j in range(len(q0))]
    c = class_form(sizes, e, q0) * pow(class_form(sizes, q0, q0), -1, r)
    return [(a - c * b) % r for a, b in zip(e, q0)]


def test_restart_takes_the_first_unit_vector_it_leaves_nonzero_modulo_some_prime():
    sizes = [2, 3, 5]
    # e_1 spans K: its projection vanishes modulo every prime, so e_2's is taken
    q = restart_from([0, 1, 0], (P0, P1), sizes)
    assert q.T.tolist() == [projection_mod(2, [0, 1, 0], sizes, r) for r in (P0, P1)]
    # u_0 = e_1 + P0 e_2 is e_1 modulo P0 only: e_1's projection vanishes
    # there, is nonzero modulo P1, and serves both primes
    q = restart_from([0, 1, P0], (P0, P1), sizes)
    assert q.T.tolist() == [[0, 0, 0], projection_mod(1, [0, 1, P0], sizes, P1)]
    assert any(q[:, 1])


def bad_prime_leaf():
    """A connected 19-class quotient, drawn until the first norm
    <u_1, u_1> = sum s_i i^2, i = 1..19, has a prime factor p with N < p
    < 2**25, with that p."""
    rng = random.Random(40)
    while True:
        sizes = [rng.randint(1, 20) for _ in range(19)]
        within = [rng.randrange(s) for s in sizes]
        joined = {(i, i + 1) for i in range(18)}
        joined |= {(i, j) for i in range(19) for j in range(i + 2, 19) if rng.random() < 0.5}
        norm = sum(s * i * i for i, s in enumerate(sizes, 1))
        factors = [p for p in sympy.primefactors(norm) if sum(sizes) < p < 2**25]
        if factors:
            return weighted_quotient(sizes, within, joined), sizes, factors[0]


def test_lanczos_replaces_a_prime_where_a_norm_vanishes(monkeypatch):
    matrix, sizes, bad = bad_prime_leaf()
    expected = charpoly_scalar_crt(matrix)
    calls = log_kernels(monkeypatch)
    assert charpoly_exact(matrix, weights=sizes) == expected
    assert calls == [(19, 0, 0)]
    primes = linalg._residue_primes
    # planted ahead of the leaf's primes, the bad one leaves enough behind
    monkeypatch.setattr(linalg, "_residue_primes", lambda m, bound: (bad,) + primes(m, bound))
    assert charpoly_exact(matrix, weights=sizes) == expected
    # planted in place of the first, it leaves too few: the next prime of
    # the sequence runs in a batch of its own
    monkeypatch.setattr(linalg, "_residue_primes", lambda m, bound: (bad,) + primes(m, bound)[1:])
    assert charpoly_exact(matrix, weights=sizes) == expected
    assert calls[1:] == [(19, 0, 1), (19, 0, 1), (19, 0, 0)]


def test_lanczos_replaces_a_prime_dividing_a_class_size(monkeypatch):
    # a class of P0 vertices, the first prime: modulo it the form
    # degenerates, as it kills that class's unit vector, and a norm vanishes
    sizes = [P0, 2, 3, 4, 6]
    matrix = weighted_quotient(sizes, [s - 1 for s in sizes],
                               {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})
    calls = log_kernels(monkeypatch)
    assert charpoly_exact(matrix, weights=sizes) == charpoly_scalar_crt(matrix)
    assert [call[2] for call in calls] == [1, 0]


def test_lanczos_checks_a_wide_form_in_int64():
    # two leaves with classes of millions of vertices, whose Gram entries
    # s_i Q_ij = -s_i s_j reach 2**45
    sizes = [2**23, 3, 2**22, 5, 7, 2**21]
    matrix = weighted_quotient(sizes, [s - 1 for s in sizes],
                               {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (2, 5)})
    assert charpoly_exact(matrix, weights=sizes) == charpoly_scalar_crt(matrix)
    n = 2**24 + 12345
    wide = [n - 2**20 - 2**19 - 8, 3, 2**20, 5, 2**19]
    matrix = weighted_quotient(wide, [s - 1 for s in wide],
                               {(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)})
    assert charpoly_exact(matrix, weights=wide) == charpoly_scalar_crt(matrix)
    bumped = wide[:1] + [wide[1] + 1] + wide[2:]
    with pytest.raises(ValueError, match="not self-adjoint in the form of its weights"):
        charpoly_exact(matrix, weights=bumped)
    # at both limits at once, a two-class block with full degrees: weights
    # summing to 2**25 - 1 and a row sum of |Q| of 2**28 - 1 put
    # s_0 Q_00 near 2**52, still exact in int64
    s0, s1 = 2**24, 2**24 - 1
    block = [[2**28 - 1 - s1, -s1], [-s0, s0]]
    assert charpoly_exact(block, weights=(s0, s1)) == fraction_charpoly(block)
    with pytest.raises(ValueError, match="summing to 33554432"):
        charpoly_exact(block, weights=(s0, s1 + 1))
    block[0][0] += 1
    with pytest.raises(ValueError, match="reaches 2\\*\\*28"):
        charpoly_exact(block, weights=(s0, s1))


def test_lanczos_refuses_n_from_2_to_25():
    sizes = [2**25 - 3, 1, 2]
    matrix = weighted_quotient(sizes, [0, 0, 1], {(0, 1), (1, 2)})
    with pytest.raises(ValueError, match="summing to 33554432: .* the sum below 2\\*\\*25"):
        charpoly_exact(matrix, weights=sizes)
    sizes[0] -= 1
    matrix = weighted_quotient(sizes, [0, 0, 1], {(0, 1), (1, 2)})
    assert charpoly_exact(matrix, weights=sizes) == charpoly_scalar_crt(matrix)


def test_lanczos_refuses_weights_that_do_not_fit_the_matrix():
    [(matrix, sizes)] = charpoly_leaves(lambda: divisor_rich_spectra((720,)))
    assert len(matrix) == 28
    bumped = sizes[:1] + (sizes[1] + 1,) + sizes[2:]
    with pytest.raises(ValueError, match="not self-adjoint in the form of its weights"):
        charpoly_exact(matrix, weights=bumped)
    with pytest.raises(ValueError, match="27 weights for a 28-row quotient"):
        charpoly_exact(matrix, weights=sizes[1:])
    # self-adjoint in the form of unit weights, with eigenvalues -1 and 1
    with pytest.raises(ValueError, match="not a Laplacian quotient of its weights"):
        charpoly_exact([[0, 1], [1, 0]], weights=(1, 1))


# ---------------------------------------------------------------------------
# integer roots


@st.composite
def polys_with_integer_roots(draw):
    """q(0) != 0: a factor with a nonzero constant term times x - r for
    roots r in [-6, 12] other than 0."""
    roots = draw(st.lists(st.integers(-6, 12).filter(bool), max_size=8))
    coeffs = [draw(st.integers(-20, 20).filter(bool))] + draw(
        st.lists(st.integers(-20, 20), max_size=3))
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@settings(max_examples=300, deadline=None)
@given(polys_with_integer_roots(), st.integers(0, 14))
def test_integer_roots_match_scan(coeffs, hi):
    got, residual = integer_root_multiplicities(coeffs, hi)
    assert list(got.items()) == list(scan_integer_roots(coeffs, 1, hi)[0].items())
    # the residual times prod (x - r)^m is the input
    rebuilt = residual
    for r, m in got.items():
        for _ in range(m):
            rebuilt = [a - r * b for a, b in zip([0] + rebuilt, rebuilt + [0])]
    assert rebuilt == coeffs
    # it keeps every root outside 1..hi, negative or above hi, and no other;
    # integer roots of a factor of degree 3 or less with coefficients in
    # [-20, 20] lie in [-21, 21], by Cauchy's bound
    outside = {r: m for r, m in scan_integer_roots(coeffs, -21, 21)[0].items()
               if not 1 <= r <= hi}
    assert scan_integer_roots(residual, -21, 21)[0] == outside


def test_integer_roots_refuse_a_root_modulo_the_prime_only(monkeypatch):
    # q = x^2 + 3p - 9: 3 divides q(0) and q(3) = 3p vanishes modulo p, but
    # not over the integers, so the exact division's remainder must refuse
    # it; the filter's prime is the table's first, so only 3 reaches it
    # (-3 lies outside 1..hi)
    p = _primes()[0]
    q = [3 * p - 9, 0, 1]
    assert eval_poly_at_int(q, 3) % p == 0
    divided = []
    divide = linalg._synthetic_divide
    monkeypatch.setattr(linalg, "_synthetic_divide",
                        lambda c, r: divided.append(r) or divide(c, r))
    assert integer_root_multiplicities(q, 5) == ({}, q)
    assert scan_integer_roots(q, 1, 5)[0] == {}
    assert divided == [3]


def test_integer_roots_refuse_a_zero_constant_term():
    # the caller divides out the root 0; a q with q(0) = 0 is refused
    with pytest.raises(ValueError, match="constant term is zero"):
        integer_root_multiplicities([0, 0, 3, 1], 5)
    with pytest.raises(ValueError, match="constant term is zero"):
        integer_root_multiplicities([0], 5)


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
    coeffs = charpoly_scalar_crt(matrix)
    bound = max(sum(abs(v) for v in row) for row in matrix)
    _, residual = scan_integer_roots(coeffs, -bound, bound)
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
