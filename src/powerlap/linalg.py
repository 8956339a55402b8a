"""Exact matrix and polynomial engines behind the spectral code.

Exact routines never round, so every integrality decision downstream is
a genuine certification.  The characteristic polynomial of an integer
matrix is computed modulo enough descending primes below 2**25, sieved
a window at a time, to pass a proven bound on its coefficients, and the
Chinese remainder theorem recombines the results.  Elimination finds the
residues of all primes at once in one (primes, m, m) int64 array, each
sum of products one batched matmul reduced once (`_MAX_ROWS` bounds it),
with each prime's own Hessenberg pivots; a deflated Laplacian quotient
of 18 or more rows, given its class sizes, takes Lanczos in their inner
product instead: one float64 matmul per step for every prime, and no
stack.  Integer roots and their multiplicities are read off that
polynomial and divided out by synthetic division, and the roots of a
real-rooted integer polynomial above an integer are counted exactly by
Descartes' rule of signs after one integer Taylor shift.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Sequence

import numpy as np

__all__ = [
    "charpoly_exact",
    "integer_root_multiplicities",
    "eval_poly_at_int",
    "taylor_shift",
    "roots_above",
    "jacobi_eigenvalues",
]


# A residue is below 2**25, so a product of two is below 2**50 and a sum
# of 8192 products below 2**63.  Every sum the charpoly forms has at most
# one term per row, so this bounds the rows.
_MAX_ROWS = 8192
# Bytes one charpoly's (primes, m, m) int64 residue stack may take: Z_720720's
# leaf needs 77 MB; Z2^8 x Z15's, 1022 rows on 186 primes, 1.45 GiB, refused.
_MAX_STACK_BYTES = 2**30
# Rows from which a deflated quotient takes Lanczos.  Per leaf the kernels
# cross near 15 rows (519 against 517 us; 17 rows: 687 against 610); 18
# keeps the default verify suite, whose leaves stop at 17, on elimination.
_LANCZOS_ROWS = 18
# The descending primes below 2**25, extended on demand by `_prime`.
# Every modular charpoly walks a prefix of the same sequence, so each
# window is sieved once per process.
_PRIMES: list[int] = []


def _prime(i: int) -> int:
    """The i-th prime, counting from 0, of the descending primes below 2**25.

    A segmented sieve of Eratosthenes (Crandall & Pomerance, Prime
    Numbers, 2005, section 3.2): the next window below the smallest prime
    held, 2**12 integers for the first, which holds 240 primes, and 2**16
    for each after it, loses the multiples of every prime d up to
    sqrt(2**25), from d * d on, and its survivors are appended in
    descending order.  A prime below 64 strikes its many multiples by
    one slice; the others strike few each, all of them at once through
    one index array; striking the small primes that way too makes the
    array of a 2**16 window about 160,000 indices long, and the full
    sieve slower than with one slice per prime.  Past the last prime, 2,
    it raises IndexError.
    """
    while len(_PRIMES) <= i and _PRIMES[-1:] != [2]:
        hi = _PRIMES[-1] if _PRIMES else 2**25
        lo = max(hi - (2**16 if _PRIMES else 2**12), 2)
        root = math.isqrt(2**25)
        small = np.ones(root + 1, dtype=bool)
        small[:2] = False
        for d in range(2, math.isqrt(root) + 1):
            if small[d]:
                small[d * d::d] = False
        d = np.flatnonzero(small)
        first = np.maximum(d * d, -(-lo // d) * d) - lo
        alive = np.ones(hi - lo, dtype=bool)
        dense = int(np.searchsorted(d, 64))
        for p, f in zip(d[:dense].tolist(), first[:dense].tolist()):
            alive[f::p] = False
        d, first = d[dense:], first[dense:]
        counts = np.maximum(-(-(hi - lo - first) // d), 0)
        steps = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        alive[np.repeat(first, counts) + steps * np.repeat(d, counts)] = False
        _PRIMES.extend((np.flatnonzero(alive)[::-1] + lo).tolist())
    return _PRIMES[i]


def charpoly_exact(matrix: Sequence[Sequence[int]], *, nonnegative_eigenvalues: bool = False,
                   weights: Sequence[int] | None = None) -> list[int]:
    """Coefficients of det(xI - M) for an integer matrix, ascending by power.

    The coefficients are determined once the modulus exceeds twice a
    bound on their absolute values.  The coefficient of x^(m-k) is
    (-1)^k e_k, the k-th elementary symmetric function of the
    eigenvalues; each has |lambda| <= B, the largest absolute row sum,
    so |e_k| <= C(m, k) B^k <= (B + 1)^m.  Enough primes for that are
    taken up front from a fixed descending sequence below 2**25
    (`_residue_primes`), the polynomial is computed modulo all of them
    at once (`_charpoly_mod_primes`), and the residues are recombined by
    the Chinese remainder theorem into the symmetric range, so the
    result is exact.  Pass ``nonnegative_eigenvalues`` only for a matrix
    whose eigenvalues are all real and nonnegative, such as one similar
    to a positive semidefinite matrix: it selects the tighter
    `_maclaurin_bound`.

    ``weights`` are the class sizes s_0..s_m of a Laplacian quotient Q
    whose deflation M_ij = Q_{i+1,j+1} - Q_{0,j+1} is the matrix.  From
    `_LANCZOS_ROWS` rows on, `_charpoly_lanczos` then gives the residues
    in the inner product the sizes define, checked exactly (ValueError if
    M is not self-adjoint in it); elimination serves the rest.

    A matrix of more than `_MAX_ROWS` rows, or one whose residue stack
    would exceed `_MAX_STACK_BYTES`, raises ValueError before any array
    is built, whichever kernel would run.
    """
    m = len(matrix)
    if m > _MAX_ROWS:
        raise ValueError(f"{m} rows: an int64 sum of products of residues below 2**25 "
                         f"holds at most {_MAX_ROWS} terms")
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square")
    if m == 0:
        return [1]
    if nonnegative_eigenvalues:
        bound = _maclaurin_bound(m, sum(matrix[i][i] for i in range(m)))
    else:
        bound = (max(sum(abs(x) for x in row) for row in matrix) + 1) ** m
    primes = _residue_primes(m, bound)
    modulus = math.prod(primes)
    try:
        entries = np.array(matrix, dtype=np.int64)
    except OverflowError:
        # entries beyond int64 are reduced as Python ints before numpy sees them
        entries = np.array(matrix, dtype=object)
    residues = None
    if weights is not None and m >= _LANCZOS_ROWS:
        residues = _charpoly_lanczos(entries, weights, primes)
    if residues is None:
        reduced = entries % np.array(primes, dtype=entries.dtype)[:, None, None]
        residues = _charpoly_mod_primes(reduced.astype(np.int64), primes)
    # CRT: c = sum of r_i * (M/p_i) * ((M/p_i)^-1 mod p_i), reduced mod M
    basis = []
    for p in primes:
        cofactor = modulus // p
        basis.append(cofactor * pow(cofactor % p, -1, p))
    half = modulus // 2
    coeffs = []
    for column in residues.T.tolist():
        c = sum(map(mul, column, basis)) % modulus
        coeffs.append(c - modulus if c > half else c)
    return coeffs


def _maclaurin_bound(m: int, trace: int) -> int:
    """A bound on every |e_k|, the k-th elementary symmetric function of m
    real nonnegative eigenvalues summing to ``trace``.  Maclaurin's
    inequality (Hardy, Littlewood & Polya, Inequalities, 1934) gives
    (e_k / C(m, k))^(1/k) <= trace / m.  The term C(m, k) trace^k / m^k
    over the one before it is (m - k + 1) trace / (k m), so the largest
    sits at k = ceil(m (trace - 1) / (trace + m)), clipped to 0..m, and
    its ceiling is the bound.  A negative trace contradicts the premise
    and raises ValueError.
    """
    if trace < 0:
        raise ValueError(f"trace {trace} is negative, so some eigenvalue is not nonnegative real")
    k = min(m, max(0, -(-m * (trace - 1) // (trace + m))))
    return -(-math.comb(m, k) * trace ** k // m ** k)


@lru_cache(maxsize=64)
def _primes_past(bound: int) -> tuple[int, ...]:
    """The first primes of `_prime`'s sequence whose product exceeds twice
    ``bound``, memoized: a leaf's budget check and charpoly share them."""
    primes: list[int] = []
    modulus = 1
    while modulus <= 2 * bound:
        primes.append(_prime(len(primes)))
        modulus *= primes[-1]
    return tuple(primes)


def _residue_primes(m: int, bound: int) -> tuple[int, ...]:
    """`_primes_past(bound)`; ValueError when their (primes, m, m) int64
    residue stack would pass `_MAX_STACK_BYTES`."""
    primes = _primes_past(bound)
    stack = 8 * len(primes) * m * m
    if stack > _MAX_STACK_BYTES:
        raise ValueError(f"{m} rows on {len(primes)} primes: the int64 residue stack needs "
                         f"{stack} bytes, over the {_MAX_STACK_BYTES}-byte budget")
    return primes


def _charpoly_lanczos(a: np.ndarray, weights: Sequence[int], primes: Sequence[int]
                      ) -> np.ndarray | None:
    """det(xI - A) mod each prime, ascending, as a (P, d + 1) array, by
    Lanczos (J. Res. Nat. Bur. Standards 45, 1950); None hands A back.

    A, deflated from a quotient with class sizes s_0..s_d summing to N,
    is self-adjoint in <x, y> = N sum s_i x_i y_i - (sum s_i x_i)
    (sum s_i y_i), i >= 1 (N times Q's form modulo the constant vector),
    as is checked exactly.  From q_1 = (1, ..., d), q_{k+1} = A q_k -
    alpha_k q_k - gamma_k q_{k-1}, alpha_k = <A q_k, q_k> / n_k, gamma_k =
    n_k / n_{k-1}, n_k = <q_k, q_k>.  If no n_k vanishes mod p, the q_k
    are orthogonal, so a basis, and A K = K T for a tridiagonal T:
    chi_A = chi_T mod p.  A zero n_k (a repeated eigenvalue, or bad luck
    mod p) hands A back, as do the guards: N below every prime, the
    check in int64, and A q_k, one float64 matmul for all primes, exact
    (row sums of |A| times p below 2**53).
    """
    d = len(a)
    if len(weights) != d + 1:
        raise ValueError(f"{len(weights)} weights for the deflation of a {d + 1}-row quotient")
    total = sum(weights)
    if (a.dtype == object or total >= min(primes) or not -2**28 < a.min() <= a.max() < 2**28
            or total * total * int(np.abs(a).max()) >= 2**62
            or int(np.abs(a).sum(axis=1).max()) * max(primes) >= 2**53):
        return None
    s = np.array(weights[1:], dtype=np.int64)
    gram = total * s[:, None] * a - np.outer(s, s @ a)
    if not np.array_equal(gram, gram.T):
        raise ValueError("the matrix is not self-adjoint in the form of its weights")
    p = np.array(primes, dtype=np.int64)
    floats = a.astype(np.float64)
    q = np.outer(np.arange(1, d + 1), np.ones_like(p))
    back = np.zeros_like(q)
    inv = np.zeros_like(p)  # gamma_1 multiplies zeros only
    # the rolling rows chi_{k-2}, chi_{k-1} of T's leading blocks, ascending
    before, poly = np.zeros((2, d + 1, len(primes)), dtype=np.int64)
    poly[0] = 1
    for _ in range(d):
        z = np.matmul(floats, q).astype(np.int64) % p
        # <x, y> = N (s @ (x * y)) - (s @ x)(s @ y), every sum in int64
        sq, sz = s @ q % p, s @ z % p
        norm = (s @ (q * q % p) % p * total - sq * sq) % p
        if not norm.all():
            return None
        gamma = norm * inv % p
        inv = np.array([pow(v, -1, r) for v, r in zip(norm.tolist(), primes)], dtype=np.int64)
        alpha = (s @ (q * z % p) % p * total - sq * sz) % p * inv % p
        q, back = (z - alpha * q - gamma * back) % p, q
        nxt = (p - alpha) * poly + (p - gamma) * before
        nxt[1:] += poly[:-1]
        before, poly = poly, nxt % p
    return poly.T


def _charpoly_mod_primes(h: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """Coefficients of det(xI - H_i) mod p_i for a (P, m, m) stack, ascending.

    `h[i]` holds the matrix reduced into [0, p_i); it is overwritten.
    Each sum of products (the Hessenberg column op, the recurrence's sum
    over j) is one batched matmul reduced once, which stays in int64 for
    m <= `_MAX_ROWS`.  Each slice is brought to upper Hessenberg form by
    similarity transforms over its own field, with its own pivots, and
    the characteristic polynomial is expanded by the Hessenberg
    recurrence (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, section 2.2).  Returns a (P, m + 1) array in [0, p_i).
    """
    count, n, _ = h.shape
    p1 = np.array(primes, dtype=np.int64)[:, None]
    p2 = p1[:, :, None]
    for col in range(n - 2):
        nxt = col + 1
        below = h[:, nxt:, col].tolist()
        if not any(any(r[1:]) for r in below):
            continue  # already Hessenberg in this column modulo every prime
        # each prime pivots on its first nonzero entry at or below the
        # subdiagonal; a prime whose column is zero keeps offset 0
        offsets = [next((i for i, v in enumerate(r) if v), 0) for r in below]
        if any(offsets):
            every = np.arange(count)
            pivot = np.array(offsets) + nxt
            rows = h[every, pivot]
            h[every, pivot] = h[every, nxt]
            h[every, nxt] = rows
            cols = h[every, :, pivot]
            h[every, :, pivot] = h[every, :, nxt]
            h[every, :, nxt] = cols
        inv = [pow(r[i] or 1, -1, p) for r, i, p in zip(below, offsets, primes)]
        # eliminate below the subdiagonal with row ops, then apply their
        # inverse as one column op: the row ops commute with each other
        factors = h[:, nxt + 1:, col] * np.array(inv, dtype=np.int64)[:, None]
        factors %= p1
        block = h[:, nxt + 1:, col:]
        block -= factors[:, :, None] * h[:, None, nxt, col:]
        block %= p2
        target = h[:, :, nxt]
        target += np.matmul(h[:, :, nxt + 1:], factors[:, :, None])[:, :, 0]
        target %= p1

    # d[:, :, k] = charpoly of the leading k x k block, coefficients ascending
    # down the column: d_k = x d_{k-1} - sum_{j=1..k} beta_j h[j-1][k-1] d_{j-1},
    # where beta_j is the product of the subdiagonal entries h[j][j-1] ..
    # h[k-1][k-2]; with each polynomial a column, the sum over j is a matmul
    # that reads d along its rows
    d = np.zeros((count, n + 1, n + 1), dtype=np.int64)
    d[:, 0, 0] = d[:, 1, 1] = 1
    d[:, 0, 1] = -h[:, 0, 0] % p1[:, 0]
    beta = np.ones((count, n), dtype=np.int64)
    for k in range(2, n + 1):
        running = beta[:, :k - 1]
        running *= h[:, k - 1, k - 2, None]
        running %= p1
        coeff = beta[:, :k] * h[:, :k, k - 1]
        coeff %= p1
        poly = d[:, :k + 1, k]
        poly[:, 1:] = d[:, :k, k - 1]
        poly[:, :k] -= np.matmul(d[:, :k, :k], coeff[:, :, None])[:, :, 0]
        poly %= p1
    return d[:, :, n]


def eval_poly_at_int(coeffs: Sequence[int], x: int) -> int:
    """Evaluate a polynomial with integer coefficients (ascending) at integer x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_root_multiplicities(coeffs: Sequence[int], lo: int, hi: int
                                ) -> tuple[dict[int, int], list[int]]:
    """Multiplicity of every integer root in [lo, hi] of an integer
    polynomial, ascending, and the residual left when they are divided out.

    Write the polynomial as x^t * q with q(0) != 0.  The root 0 has
    multiplicity t, and every other integer root of q divides q(0), so
    only those candidates are tried.  A root r has q(r) = 0, hence
    q(r) = 0 modulo the first prime of the charpoly sequence: all the
    candidates are evaluated modulo that prime at once, and only those
    that pass are evaluated and divided out exactly, of one running
    quotient, which decides.  The zero polynomial is its own residual.
    """
    t = next((i for i, c in enumerate(coeffs) if c), None)
    if t is None:
        # the zero polynomial: every candidate divides it to the constant 0
        return {r: len(coeffs) - 1 for r in range(lo, hi + 1) if len(coeffs) > 1}, list(coeffs)
    q = list(coeffs[t:])
    candidates = [r for r in range(lo, hi + 1) if not r or not q[0] % r]
    p = _prime(0)
    at = np.array([r % p for r in candidates], dtype=np.int64)
    residues = np.zeros(len(candidates), dtype=np.int64)
    for c in reversed(q):
        residues *= at
        residues += c % p
        residues %= p
    result: dict[int, int] = {}
    for r, residue in zip(candidates, residues.tolist()):
        if r == 0:
            if t:
                result[0] = t
            continue
        if residue:
            continue
        mult = 0
        while len(q) > 1 and eval_poly_at_int(q, r) == 0:
            q = _synthetic_divide(q, r)
            mult += 1
        if mult:
            result[r] = mult
    return result, [0] * (t - result.get(0, 0)) + q


def _synthetic_divide(coeffs: Sequence[int], r: int) -> list[int]:
    """Divide by (x - r); assumes r is a root (remainder zero)."""
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * r
        out[i - 1] = carry
    assert coeffs[0] + carry * r == 0, "synthetic division with nonzero remainder"
    return out


def taylor_shift(coeffs: Sequence[int], k: int) -> list[int]:
    """Coefficients of p(x + k), ascending, for p given ascending."""
    a = list(coeffs)
    if not k:
        return a
    d = len(a) - 1
    # d rounds of synthetic division by (x - k); round i fixes the coefficient of x^i
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += k * a[j + 1]
    return a


def roots_above(coeffs: Sequence[int], k: int) -> int:
    """Number of roots greater than k, with multiplicity, of a real-rooted polynomial.

    Descartes' rule of signs bounds the positive roots of p(x + k) by the
    sign variations of its coefficients, with equality when every root
    is real (Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry,
    2006, ch. 2); a root at k itself is not counted.  The caller
    guarantees real roots: a characteristic polynomial of a matrix
    similar to a symmetric one, or a factor of it.
    """
    variations = 0
    last = 0
    for c in taylor_shift(coeffs, k):
        if c:
            if last and (c < 0) != (last < 0):
                variations += 1
            last = c
    return variations


# No caller in this package: benchmark/spans.py looks it up by name to trace it.
def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of an exactly symmetric matrix (LAPACK ``eigvalsh``)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise ValueError("matrix must be square and exactly symmetric")
    return np.linalg.eigvalsh(a)
