"""Exact matrix and polynomial engines behind the spectral code.

Exact routines never round, so every integrality decision downstream is
a genuine certification.  The characteristic polynomial of a Laplacian
quotient is computed modulo the first primes of one fixed table, the
968 in [2**25 - 2**14, 2**25) descending, whose product passes twice a
proven bound on its coefficients, and the Chinese remainder theorem
recombines the results.
One kernel finds the residues of all primes at once: Lanczos in the
form sum s_i x_i y_i of the class sizes, one float64 matmul per step
for every prime, restarted in the complement of each Krylov block that
closes, with a prime where a norm vanishes replaced by the next ones.
Its positive integer roots are divided out by synthetic division, whose
remainder decides each, and the roots of a real-rooted integer
polynomial above an integer are counted exactly by Descartes' rule of
signs after one integer Taylor shift.
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
# of 8192 products below 2**63.  A restart's projection sums one product
# per stored vector, at most one per row, so this bounds the rows.
_MAX_ROWS = 8192
# Bytes one charpoly's (rows, rows, primes) int64 restart basis may take:
# Z2^7 x Z15's leaf, 511 rows on 93 primes, needs 194 MB; Z2^8 x Z15's,
# 1023 rows on 186 primes, 1.45 GiB, refused.
_MAX_STACK_BYTES = 2**30


@lru_cache(maxsize=1)
def _primes() -> tuple[int, ...]:
    """The 968 primes in [2**25 - 2**14, 2**25), descending: every modular
    charpoly walks a prefix of this table (`_residue_primes`), so it is
    sieved once per process, on first use, by one slice per prime up to
    sqrt(2**25) (Crandall & Pomerance, Prime Numbers, 2005, section 3.2)."""
    lo, hi = 2**25 - 2**14, 2**25
    small = np.ones(math.isqrt(hi) + 1, dtype=bool)
    for d in range(2, math.isqrt(len(small)) + 1):
        if small[d]:
            small[d * d::d] = False
    alive = np.ones(hi - lo, dtype=bool)
    for d in np.flatnonzero(small)[2:].tolist():  # past 0 and 1
        alive[-lo % d::d] = False
    return tuple((np.flatnonzero(alive)[::-1] + lo).tolist())


def charpoly_exact(matrix: Sequence[Sequence[int]], *, weights: Sequence[int]) -> list[int]:
    """Coefficients of det(xI - Q), ascending by power, for a Laplacian
    quotient Q with class sizes ``weights``, one per row.

    Q is self-adjoint in the positive definite form <x, y> = sum s_i x_i
    y_i, and its Gram matrix diag(s) Q is a weighted Laplacian: symmetric,
    no positive entry off the diagonal, no negative row sum, so positive
    semidefinite.  Both are checked exactly, in int64, as each s_i is
    below 2**25 and each row sum of |Q| below 2**28: the eigenvalues are
    real and nonnegative, and `_maclaurin_bound` holds.
    `_charpoly_lanczos` gives the residues modulo the table's first
    primes past twice it (`_residue_primes`), each dropped prime is
    replaced by the table's next ones until the modulus passes twice the
    bound again, and the CRT recombines them in the symmetric range.
    ValueError, before any array is built, for a weight count other than
    m, past `_MAX_ROWS` rows or `_MAX_STACK_BYTES`; then for weights that
    do not fit, summing to 2**25 or more, a row sum of |Q| of 2**28 or
    more, and a failed check.
    """
    m = len(matrix)
    if m > _MAX_ROWS:
        raise ValueError(f"{m} rows: an int64 sum of products of residues below 2**25 "
                         f"holds at most {_MAX_ROWS} terms")
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square")
    if len(weights) != m:
        raise ValueError(f"{len(weights)} weights for a {m}-row quotient")
    if m == 0:
        return [1]
    bound = _maclaurin_bound(m, sum(matrix[i][i] for i in range(m)))
    primes = _residue_primes(m, bound)
    if min(weights) < 1 or sum(weights) >= 2**25:
        raise ValueError(f"class sizes {min(weights)}..{max(weights)} summing to {sum(weights)}: "
                         f"each must be positive and the sum below 2**25")
    floats = np.array(matrix, dtype=np.float64)
    if np.abs(floats).sum(axis=1).max() >= 2**28:
        raise ValueError("a row sum of |matrix| reaches 2**28: its float64 product with "
                         "residues below 2**25 could round")
    s = np.array(weights, dtype=np.int64)
    gram = s[:, None] * floats.astype(np.int64)
    if (gram != gram.T).any():
        raise ValueError("the matrix is not self-adjoint in the form of its weights")
    # symmetric, so its upper triangle holds every entry off the diagonal
    if (gram.sum(axis=1) < 0).any() or (np.triu(gram, 1) > 0).any():
        raise ValueError("the matrix is not a Laplacian quotient of its weights")
    table, kept, found, batch, taken = _primes(), [], [], primes, len(primes)
    while batch:
        good, residues = _charpoly_lanczos(floats, s, batch)
        kept += good
        found.append(residues)
        batch = []
        while math.prod(kept + batch) <= 2 * bound:
            batch.append(table[taken])
            taken += 1
    modulus = math.prod(kept)
    half = modulus // 2
    # CRT: c = sum of r_i * (M/p_i) * ((M/p_i)^-1 mod p_i), reduced mod M
    units = [modulus // p * pow(modulus // p % p, -1, p) for p in kept]
    coeffs = []
    for column in np.concatenate(found).T.tolist():
        c = sum(map(mul, column, units)) % modulus
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


def _residue_primes(m: int, bound: int) -> tuple[int, ...]:
    """The shortest prefix of `_primes()` whose product exceeds twice
    ``bound``; ValueError when the (m, m, primes) int64 basis that a
    restart stores would pass `_MAX_STACK_BYTES`, or when the table runs
    out.  Only a refused leaf runs out: `charpoly_exact` refuses row sums
    of |Q| from 2**28 on; below that the trace is below m 2**28, so the
    Maclaurin bound is at most C(m, k) 2**(28 k) < 2**(29 m), and as the
    table's product has 24,200 bits, running out needs 29 m + 1 >= 24,200,
    m >= 835, where 968 primes need 5.4 GB, past the 1 GiB budget.
    """
    table, modulus, taken = _primes(), 1, 0
    while modulus <= 2 * bound:
        if taken == len(table):
            raise ValueError(f"{m} rows with a {bound.bit_length()}-bit coefficient bound: "
                             f"past the product of all {len(table)} primes")
        modulus *= table[taken]
        taken += 1
    primes = table[:taken]
    stack = 8 * len(primes) * m * m
    if stack > _MAX_STACK_BYTES:
        raise ValueError(f"{m} rows on {len(primes)} primes: the int64 restart basis needs "
                         f"{stack} bytes, over the {_MAX_STACK_BYTES}-byte budget")
    return primes


def _charpoly_lanczos(a: np.ndarray, s: np.ndarray, primes: Sequence[int]
                      ) -> tuple[list[int], np.ndarray]:
    """The primes kept and det(xI - A) modulo each, ascending, as a
    (P, d + 1) array, by Lanczos (J. Res. Nat. Bur. Standards 45, 1950)
    in <x, y> = sum s_i x_i y_i, in which A is self-adjoint.

    From u_0 = 0 and u_1 = (1, ..., d), u_{k+1} = lambda_k (n_k A - c_k)
    u_k - n_k^2 u_{k-1}, n_k = <u_k, u_k>, c_k = <A u_k, u_k>, lambda_1 =
    1 and lambda_{k+1} = lambda_k n_k^2: with no division, u_{k+1} is
    lambda_k n_k times u_k's multiple of the Lanczos vector q_{k+1} = A
    q_k - (c_k / n_k) q_k - (|q_k|^2 / |q_{k-1}|^2) q_{k-1}.  If no n_k
    vanishes mod p, the u_k are orthogonal, so a basis, and A K = K T for
    a tridiagonal T: chi_A = chi_T mod p, the polynomial row over its
    leading coefficient, one inverse per prime at the end.
    - Restart.  If u_{k+1} = 0 modulo every prime, K = span(u_1..u_k) is
      A-invariant and nondegenerate, its basis orthogonal with nonzero
      norms: F_p^d = K + K^perp, K^perp A-invariant as A is self-adjoint.
      The next block starts in K^perp (`_restart`) with u_{k-1} = 0, as
      at u_1 (any lambda_k serves there), so the blocks' polynomials
      multiply.  A first pass stores nothing; a block closed early runs
      again, keeping each u_k with 1 / n_k.
    - Drop.  A prime where a norm vanishes while u is nonzero modulo
      some prime (an isotropic u; a u zero modulo that prime only, as a
      restart vector may be; a prime dividing some s_i) is dropped for
      the caller to replace; the form is definite over Q, so only
      finitely many primes can be.
    Every int64 product, of a residue and a residue or an s_i, is below
    2**50; A u_k, one float64 matmul for all primes, is an exact integer
    below 2**53 as the caller keeps A's row sums below 2**28, so it is
    reduced in int64, not by float64's slower % on values of both signs.
    """
    d = len(a)
    for store in (False, True):
        p = np.array(primes, dtype=np.int64)
        # u_k over its polynomial, ascending: both obey v_{k+1} = lambda_k
        # (n_k X - c_k) v_k - n_k^2 v_{k-1}, where X is A on the vector and
        # multiplication by x on the polynomial
        v = np.zeros((2 * d + 1, len(p)), dtype=np.int64)
        v[:d] = np.arange(1, d + 1)[:, None]
        v[d] = 1
        back = np.zeros_like(v)
        lam = np.ones_like(p)
        # each stored u_j with 1 / n_j, for `_restart`
        basis = np.empty((d if store else 0, d, len(p)), dtype=np.int64)
        inverses = np.empty((len(basis), len(p)), dtype=np.int64)
        for k in range(d):
            q = v[:d]
            if not q.any():
                if not store:
                    break
                q[:], back = _restart(basis[:k], inverses[:k], s, p), 0 * back
            qz = np.array((q, np.matmul(a, q).astype(np.int64) % p))
            # <u, u> and <A u, u>
            norm, cross = s @ (qz * q % p) % p
            if not norm.all():
                keep = norm != 0
                p, v, back, lam, qz, norm, cross, basis, inverses = (
                    x[..., keep] for x in (p, v, back, lam, qz, norm, cross, basis, inverses))
            if store:
                basis[k] = qz[0]
                inverses[k] = [pow(n, -1, r) for n, r in zip(norm.tolist(), p.tolist())]
            shifted = np.concatenate((qz[1], 0 * v[d:d + 1], v[d:-1])) * (lam * norm % p)
            # -lambda c and -n^2 as residues: a sum of one sign, which % reduces faster
            v, back = (shifted + -lam * cross % p * v + -norm * norm % p * back) % p, v
            lam = lam * norm % p * norm % p
        else:
            lead = [pow(c, -1, r) for c, r in zip(v[-1].tolist(), p.tolist())]
            return p.tolist(), (v[d:] * lead % p).T
    raise AssertionError("a pass that stores its basis never breaks")


def _restart(basis: np.ndarray, inverses: np.ndarray, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """One start vector in K^perp for every prime, K spanned by the k
    stored u_j: the projection e_i - sum_j <e_i, u_j> / n_j u_j of the
    first e_i from e_k on, cyclically, whose projection is nonzero modulo
    some prime (K is proper); from e_0, Z2^6 x Z15's leaf took up to d a
    restart.  A prime where it is zero is dropped at its norm and replaced."""
    k, d = len(basis), basis.shape[1]
    for i in [(k + j) % d for j in range(d)]:
        # <e_i, u_j> = s_i u_j[i]
        c = basis[:, i] * inverses % p * s[i] % p
        q = -np.einsum("jp,jdp->dp", c, basis) % p
        q[i] = (q[i] + 1) % p
        if q.any():
            break
    return q


def eval_poly_at_int(coeffs: Sequence[int], x: int) -> int:
    """Evaluate a polynomial with integer coefficients (ascending) at integer x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_root_multiplicities(coeffs: Sequence[int], hi: int) -> tuple[dict[int, int], list[int]]:
    """Multiplicity of every integer root in 1..hi of an integer
    polynomial q, ascending, with q(0) != 0, and the residual left when
    they are divided out; ValueError when q(0) = 0.

    Every integer root divides q(0), so only those candidates are tried.
    A root r has q(r) = 0, hence q(r) = 0 modulo the charpoly table's
    first prime, 2**25 - 39: all the candidates are evaluated modulo that
    prime at once, and only those that pass are divided out exactly, of
    one running quotient, while the remainder, q(r), is zero.
    """
    if not coeffs[0]:
        raise ValueError("the constant term is zero: divide out the root 0 first")
    q = list(coeffs)
    candidates = [r for r in range(1, hi + 1) if not q[0] % r]
    p = _primes()[0]
    at = np.array([r % p for r in candidates], dtype=np.int64)
    residues = np.zeros(len(candidates), dtype=np.int64)
    for c in reversed(q):
        residues *= at
        residues += c % p
        residues %= p
    result: dict[int, int] = {}
    for r, residue in zip(candidates, residues.tolist()):
        if residue:
            continue
        quotient, remainder = _synthetic_divide(q, r)
        while not remainder:
            q = quotient
            result[r] = result.get(r, 0) + 1
            quotient, remainder = _synthetic_divide(q, r)
    return result, q


def _synthetic_divide(coeffs: Sequence[int], r: int) -> tuple[list[int], int]:
    """Quotient and remainder of the division by (x - r): one Horner pass,
    whose remainder is the value at r."""
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * r
        out[i - 1] = carry
    return out, coeffs[0] + carry * r


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
