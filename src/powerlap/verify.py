"""Machine-checkable registry of the structural claims about power-graph spectra.

Every checker returns a ClaimReport with a pass/fail verdict, a concrete
witness on failure, and the computed evidence backing the verdict.  All
integrality decisions are taken from the exact certification engine,
never from floating-point rounding, and every comparison of a
non-integer eigenvalue with an integer is an exact count of residual
roots (Descartes' rule on a real-rooted integer polynomial).  Floats
appear only as reported evidence.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import lru_cache
from typing import Iterable, Optional

from .graphs import (
    TwinPartition,
    _classes_connected,
    _closed_keys,
    _twin_quotient,
    twin_partition,
    vertex_connectivity,
)
from .groups import (
    FiniteGroup,
    _cyclic_lattice,
    cyclic_group,
    dicyclic_group,
    direct_product,
    euler_phi,
    factorize,
    generalized_quaternion,
    is_p_group,
)
from .linalg import taylor_shift
from .pgroup import (
    check_multiple_property,
    classify_eigenvalues,
    decompose,
    tree_charpoly,
)
from .spectra import (
    FactoredCharPoly,
    Spectrum,
    algebraic_connectivity,
    spectral_radius,
    spectral_radius_multiplicity,
    spectrum,
)

__all__ = [
    "ClaimReport",
    "ConjectureRow",
    "check_cyclic_algcon",
    "check_cyclic_radius_mult",
    "check_cyclic_kappa_eq_mu",
    "check_dicyclic_bundle",
    "check_pgroup_bundle",
    "scan_conjecture",
    "pgroup_catalog",
    "is_generalized_quaternion",
    "run_cyclic_suite",
    "run_dicyclic_suite",
    "run_pgroup_suite",
    "CLAIM_IDS",
    "CYCLIC_CHECKS",
]

CLAIM_IDS = (
    "cyclic-algcon",
    "cyclic-radius-mult",
    "cyclic-kappa-vs-algcon",
    "dicyclic-bundle",
    "pgroup-bundle",
)


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one claim check with its witness and evidence."""

    claim_id: str
    parameters: dict
    verdict: str  # "pass" | "fail" | "inapplicable"
    witness: Optional[str] = None
    evidence: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "params": self.parameters,
            "verdict": self.verdict,
            "witness": self.witness,
            "evidence": self.evidence,
        }


def _report(claim_id, params, ok, witness, evidence, started) -> ClaimReport:
    return ClaimReport(
        claim_id=claim_id,
        parameters=params,
        verdict="pass" if ok else "fail",
        witness=None if ok else witness,
        evidence=evidence,
        elapsed=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# shared cyclic-group machinery


# One entry each: the suites and the scan visit n in order, so every
# claim about n finds its lattice, partitions and spectrum here.  Z_n's
# partitions read only its divisor lattice, with no group built and at
# most one class per divisor, so the suites and the scan pass MAX_ORDER.
_cyclic_lattice = lru_cache(maxsize=1)(_cyclic_lattice)


@lru_cache(maxsize=1)
def _cyclic_partition(n: int) -> TwinPartition:
    members, below = _cyclic_lattice(n)
    return _twin_quotient(members, _closed_keys(below))


def _reduced_cyclic_partition(n: int) -> TwinPartition:
    """Twin partition of Z_n's reduced graph, its power graph without the
    identity and the generators: the lattice without its first subgroup,
    {0}, which every subgroup holds, and its last, Z_n, which only Z_n
    holds, so each other subgroup's containments move down one index."""
    members, below = _cyclic_lattice(n)
    inner = [tuple(b - 1 for b in key[1:]) for key in below[1:-1]]
    return _twin_quotient(members[1:-1], _closed_keys(inner))


@lru_cache(maxsize=1)
def _cyclic_spectrum(n: int) -> Spectrum:
    return spectrum(_cyclic_partition(n))


def _algcon_equals(s: Spectrum, target: int) -> bool:
    """Whether the algebraic connectivity equals the integer target, exactly.

    It does iff at least two eigenvalues are <= target and fewer than two
    lie below it; both are exact counts, and no residual root is an
    integer, so the eigenvalues equal to target are the certified ones.
    """
    at_most = s.count_at_most(target)
    return at_most >= 2 > at_most - s.exact.multiplicity(target)


# ---------------------------------------------------------------------------
# cyclic-group claims


def check_cyclic_algcon(n: int) -> ClaimReport:
    """Algebraic connectivity of the cyclic power graph equals phi(n)+1
    exactly when n is prime or a product of two distinct primes."""
    started = time.perf_counter()
    if n < 2:
        raise ValueError("requires n >= 2")
    s = _cyclic_spectrum(n)
    mu = algebraic_connectivity(s)
    target = euler_phi(n) + 1
    f = factorize(n)
    predicate = f.is_prime or f.is_product_of_two_distinct_primes
    attains = _algcon_equals(s, target)
    ok = attains == predicate
    return _report(
        "cyclic-algcon",
        {"n": n},
        ok,
        f"n={n}: algcon={mu}, phi(n)+1={target}, predicate={predicate}",
        {
            "algebraic_connectivity": mu,
            "phi_plus_one": target,
            "predicate": predicate,
            "attains_bound": attains,
        },
        started,
    )


def check_cyclic_radius_mult(n: int) -> ClaimReport:
    """The spectral radius n of the cyclic power graph has multiplicity
    phi(n)+1 exactly when n = 4 or n is not a prime power; for composite n
    the spectrum also splits into the top block of n's and the shifted
    spectrum of the reduced graph."""
    started = time.perf_counter()
    if n < 2:
        raise ValueError("requires n >= 2")
    s = _cyclic_spectrum(n)
    radius = spectral_radius(s)
    mult = spectral_radius_multiplicity(s)
    target = euler_phi(n) + 1
    f = factorize(n)
    predicate = n == 4 or not f.is_prime_power
    ok = (radius == n) and ((mult == target) == predicate)
    evidence = {
        "radius": radius,
        "radius_multiplicity": mult,
        "phi_plus_one": target,
        "predicate": predicate,
    }

    block_ok = True
    if not f.is_prime:
        # the spectrum is 0, n with multiplicity phi(n)+1, and the reduced
        # graph's spectrum without one 0 shifted up by phi(n)+1: the
        # certified parts agree as root counts, the non-integer parts as
        # residual polynomials
        reduced = spectrum(_reduced_cyclic_partition(n))
        counts = Counter({0: 1, n: target, target: -1})
        for r, m in reduced.exact.factors:
            counts[r + target] += m
        block_ok = (
            s.exact == FactoredCharPoly.from_counts(counts)
            and s.residual == tuple(taylor_shift(reduced.residual, -target))
        )
        evidence["block_structure"] = block_ok
    ok = ok and block_ok
    return _report(
        "cyclic-radius-mult",
        {"n": n},
        ok,
        f"n={n}: radius={radius}, multiplicity={mult}, phi(n)+1={target}, "
        f"predicate={predicate}, block={block_ok}",
        evidence,
        started,
    )


def check_cyclic_kappa_eq_mu(n: int) -> ClaimReport:
    """Vertex connectivity equals algebraic connectivity for the cyclic
    power graph exactly when n is a product of two distinct primes."""
    started = time.perf_counter()
    if n < 2:
        raise ValueError("requires n >= 2")
    s = _cyclic_spectrum(n)
    mu = algebraic_connectivity(s)
    kappa = vertex_connectivity(_cyclic_partition(n)).size
    predicate = factorize(n).is_product_of_two_distinct_primes
    equal = _algcon_equals(s, kappa)
    ok = equal == predicate
    return _report(
        "cyclic-kappa-vs-algcon",
        {"n": n},
        ok,
        f"n={n}: kappa={kappa}, algcon={mu}, predicate={predicate}",
        {
            "kappa": kappa,
            "algebraic_connectivity": mu,
            "equal": equal,
            "predicate": predicate,
        },
        started,
    )


# ---------------------------------------------------------------------------
# dicyclic claims


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def quaternion_closed_form(alpha: int) -> FactoredCharPoly:
    """Closed-form spectrum of the generalized quaternion power graph."""
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    counts: Counter = Counter()
    counts[0] += 1
    counts[2] += 2 ** (alpha - 1)
    counts[4] += 2 ** (alpha - 1)
    counts[2**alpha] += 2**alpha - 3
    counts[2 ** (alpha + 1)] += 2
    return FactoredCharPoly.from_counts(counts)


def _involution_facts(tp: TwinPartition, n: int) -> tuple[bool, bool, bool, tuple[int, ...]]:
    """From Q_n's twin partition: whether a^n = n is universal, whether all
    other vertices meet e = 0 and a^n (as e ~ a^n: both universal), whether
    removing their classes disconnects, and the other vertices those
    classes hold.  e's class comes first, holding the smallest vertex."""
    sep = [i for i, c in enumerate(tp.classes) if 0 in c or n in c]
    degrees = tp.degrees()
    universal = [degrees[i] == 4 * n - 1 for i in sep]
    separated = not _classes_connected(tp, sum(1 << i for i in range(tp.size) if i not in sep))
    others = tuple(v for i in sep for v in tp.classes[i] if v not in (0, n))
    return universal[-1], all(universal), separated, others


def check_dicyclic_bundle(n: int) -> ClaimReport:
    """All spectral claims about the order-4n dicyclic power graph at once.

    Verifies the (1, 2] algebraic-connectivity window, the spectral
    radius multiplicity rule, the five-way equivalence (connectivity
    equality, connectivity value 2, integrality of the connectivity,
    integrality of the whole spectrum, n a power of two), the universal
    adjacency of the unique involution, the closed-form spectrum in the
    power-of-two case, and the join decomposition when the equality of
    connectivities holds.
    """
    started = time.perf_counter()
    if n < 2:
        raise ValueError("requires n >= 2")
    tp = twin_partition(dicyclic_group(n))
    order = 4 * n
    s = spectrum(tp)
    mu = algebraic_connectivity(s)
    cut = vertex_connectivity(tp)
    kappa = cut.size
    pow2 = _is_power_of_two(n)
    failures: list[str] = []

    # (a) 1 < algcon <= 2, by exact counts, with the eigenvalue 2 certified
    two_present = s.exact.multiplicity(2) >= 1
    if s.count_at_most(1) >= 2:
        failures.append(f"algcon {mu} not above 1")
    if s.count_at_most(2) < 2:
        failures.append(f"algcon {mu} above 2")
    if not two_present:
        failures.append("2 is not a certified eigenvalue")

    # (b) multiplicity of the radius 4n
    mult = spectral_radius_multiplicity(s)
    radius = spectral_radius(s)
    if radius != order:
        failures.append(f"radius {radius} != {order}")
    if mult != (2 if pow2 else 1):
        failures.append(f"radius multiplicity {mult}, expected {2 if pow2 else 1}")

    # (c) five-way equivalence
    s1 = _algcon_equals(s, kappa)
    s2 = _algcon_equals(s, 2)
    s3 = isinstance(mu, int)
    s4 = s.is_exact
    s5 = pow2
    statements = {"kappa_eq_algcon": s1, "algcon_is_2": s2,
                  "algcon_integer": s3, "laplacian_integral": s4,
                  "power_of_two": s5}
    if len({s1, s2, s3, s4, s5}) != 1:
        failures.append(f"equivalence mismatch: {statements}")

    # (d) the involution a^n is universal exactly in the power-of-two case
    universal, join_side, separated, others = _involution_facts(tp, n)
    if universal != pow2:
        failures.append(f"a^n universal={universal}, power-of-two={pow2}")

    # (e) closed-form spectrum for generalized quaternion orders
    if pow2:
        alpha = n.bit_length()
        expected = quaternion_closed_form(alpha)
        if not (s.is_exact and s.exact == expected):
            failures.append(f"spectrum {s.exact.text()} != closed form {expected.text()}")

    # (f) join decomposition whenever the connectivities agree: every vertex
    # meets {e, a^n}; the cut value 2 and the separation, checked below,
    # hold for every n
    if s1 and not join_side:
        failures.append("some vertex misses the {e, a^n} join")

    if kappa != 2:
        failures.append(f"vertex connectivity {kappa} != 2")
    if not separated:
        failures.append("{e, a^n} does not separate the graph")
    if others:
        failures.append(f"the classes of e and a^n also hold {list(others)}")

    ok = not failures
    return _report(
        "dicyclic-bundle",
        {"n": n},
        ok,
        f"n={n}: " + "; ".join(failures) if failures else None,
        {
            "order": order,
            "algebraic_connectivity": mu,
            "kappa": kappa,
            "kappa_witness": list(cut.separating_set),
            "radius_multiplicity": mult,
            "statements": statements,
            "universal_involution": universal,
        },
        started,
    )


# ---------------------------------------------------------------------------
# p-group claims


def is_cyclic(g: FiniteGroup) -> bool:
    return max(g.orders()) == g.order


def is_generalized_quaternion(g: FiniteGroup) -> bool:
    """Whether the group is generalized quaternion.

    A group of order 2^k >= 8 is generalized quaternion iff it is not
    cyclic and has exactly one involution (Burnside; Gorenstein, *Finite
    Groups*, Thm 5.4.10).
    """
    order = g.order
    return (
        order >= 8
        and _is_power_of_two(order)
        and not is_cyclic(g)
        and g.orders().count(2) == 1
    )


def check_pgroup_bundle(g: FiniteGroup) -> ClaimReport:
    """All spectral claims about one p-group power graph at once.

    Verifies that connectivity value 1, radius multiplicity 1 and "neither
    cyclic nor generalized quaternion" coincide (order >= 3); that the
    vertex and algebraic connectivities agree exactly when the group is
    not cyclic; that the spectrum is certified integral and every
    eigenvalue classifies structurally; the order-p^2 closed forms; and
    that the recursive characteristic polynomial matches the direct one.
    """
    started = time.perf_counter()
    p = is_p_group(g)
    if p is None:
        return ClaimReport(
            claim_id="pgroup-bundle",
            parameters={"group": g.label, "order": g.order},
            verdict="inapplicable",
            witness=None,
            evidence={"reason": "not a p-group"},
            elapsed=time.perf_counter() - started,
        )
    tree = decompose(g)
    tp = twin_partition(g)
    s = spectrum(tp)
    cut = vertex_connectivity(tp)
    kappa = cut.size
    cyclic = is_cyclic(g)
    genq = is_generalized_quaternion(g)
    failures: list[str] = []

    mu = algebraic_connectivity(s)
    mult = spectral_radius_multiplicity(s)

    # (a) three-way equivalence, stated for order >= 3
    if g.order >= 3:
        a1 = _algcon_equals(s, 1)
        a2 = mult == 1
        a3 = not cyclic and not genq
        if len({a1, a2, a3}) != 1:
            failures.append(
                f"algcon-1={a1}, radius-mult-1={a2}, neither-cyclic-nor-gq={a3}"
            )

    # (b) kappa equals algcon exactly when not cyclic
    b1 = _algcon_equals(s, kappa)
    if b1 == cyclic:
        failures.append(f"kappa={kappa}, algcon={mu}, cyclic={cyclic}")

    # (c) certified integral spectrum, full classification
    if not s.is_exact:
        failures.append("spectrum is not certified integral")
    else:
        try:
            classify_eigenvalues(g, s, tree)
        except AssertionError as exc:
            failures.append(str(exc))
        prop = check_multiple_property(g, s, tree)
        if not prop.ok:
            failures.extend(prop.violations)

    # (d) order p^2 closed forms
    if g.order == p * p:
        if cyclic:
            expected = FactoredCharPoly.from_counts({0: 1, p * p: p * p - 1})
        else:
            expected = FactoredCharPoly.from_counts(
                {0: 1, 1: p, p: (p + 1) * (p - 2), p * p: 1}
            )
        if not (s.is_exact and s.exact == expected):
            failures.append(
                f"order p^2 spectrum {s.exact.text()} != {expected.text()}"
            )

    # (e) recursive characteristic polynomial equals the direct spectrum
    recursive = tree_charpoly(tree)
    if not (s.is_exact and recursive == s.exact):
        failures.append(
            f"recursion gives {recursive.text()}, direct gives {s.exact.text()}"
        )

    ok = not failures
    return _report(
        "pgroup-bundle",
        {"group": g.label, "order": g.order, "prime": p},
        ok,
        f"{g.label}: " + "; ".join(failures) if failures else None,
        {
            "kappa": kappa,
            "algebraic_connectivity": mu,
            "radius_multiplicity": mult,
            "cyclic": cyclic,
            "generalized_quaternion": genq,
            "laplacian_integral": s.is_exact,
        },
        started,
    )


# ---------------------------------------------------------------------------
# the conjecture scanner


@dataclass(frozen=True)
class ConjectureRow:
    """One scanned order: exact integrality facts and the order predicate."""

    n: int
    algcon_integer: bool
    laplacian_integral: bool
    predicate_strict: bool  # prime power or product of two distinct primes
    predicate_loose: bool  # prime power or product of two primes (p = q allowed)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_tsv(self) -> str:
        return "\t".join(str(x).lower() if isinstance(x, bool) else str(x) for x in astuple(self))


TSV_HEADER = "\t".join(f.name for f in fields(ConjectureRow))


def scan_conjecture(max_n: int) -> tuple[list[ConjectureRow], dict]:
    """Scan 2..max_n for the three-way equivalence between integral
    algebraic connectivity, an integral spectrum, and the order predicate.

    Integrality comes from the exact engine only.  The summary lists the
    orders violating the equivalence under each reading of "product of
    two primes" (the two readings define the same predicate, since a
    square of a prime is already a prime power; both are still reported).
    """
    if max_n < 2:
        raise ValueError("requires max_n >= 2")
    rows: list[ConjectureRow] = []
    for n in range(2, max_n + 1):
        s = _cyclic_spectrum(n)
        mu = algebraic_connectivity(s)
        algcon_integer = isinstance(mu, int)
        laplacian_integral = s.is_exact
        if laplacian_integral and not algcon_integer:
            raise AssertionError("integral spectrum with non-integral connectivity")
        f = factorize(n)
        strict = f.is_prime_power or f.is_product_of_two_distinct_primes
        loose = f.is_prime_power or f.is_product_of_two_primes
        rows.append(
            ConjectureRow(n, algcon_integer, laplacian_integral, strict, loose)
        )
    failures_strict = [
        r.n
        for r in rows
        if not (r.algcon_integer == r.laplacian_integral == r.predicate_strict)
    ]
    failures_loose = [
        r.n
        for r in rows
        if not (r.algcon_integer == r.laplacian_integral == r.predicate_loose)
    ]
    summary = {
        "max_n": max_n,
        "rows": len(rows),
        "failures_strict": failures_strict,
        "failures_loose": failures_loose,
        "holds_strict": not failures_strict,
        "holds_loose": not failures_loose,
    }
    return rows, summary


# ---------------------------------------------------------------------------
# suites and the p-group catalog


def _partitions(k: int, cap: Optional[int] = None):
    if k == 0:
        yield ()
        return
    cap = k if cap is None else min(cap, k)
    for first in range(cap, 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def pgroup_catalog(max_order: int) -> list[FiniteGroup]:
    """Every p-group of order <= max_order built from cyclic direct
    products, plus the generalized quaternion groups."""
    groups: list[FiniteGroup] = []
    p = 2
    while p <= max_order:
        if factorize(p).is_prime:
            pk = p
            k = 1
            while pk <= max_order:
                for part in _partitions(k):
                    factors = [cyclic_group(p**a) for a in part]
                    g = factors[0]
                    for f in factors[1:]:
                        g = direct_product(g, f)
                    groups.append(g)
                k += 1
                pk *= p
        p += 1
    alpha = 2
    while 2 ** (alpha + 1) <= max_order:
        groups.append(generalized_quaternion(alpha))
        alpha += 1
    groups.sort(key=lambda g: (g.order, g.label))
    return groups


# claim id -> checker of one cyclic order.  The checkers are looked up when
# called, so rebinding one on this module reaches the suite as well.
CYCLIC_CHECKS = {
    "cyclic-algcon": lambda n: check_cyclic_algcon(n),
    "cyclic-radius-mult": lambda n: check_cyclic_radius_mult(n),
    "cyclic-kappa-vs-algcon": lambda n: check_cyclic_kappa_eq_mu(n),
}


def run_cyclic_suite(max_n: int,
                     claim_ids: Iterable[str] = tuple(CYCLIC_CHECKS)) -> list[ClaimReport]:
    """The given cyclic claims (all three by default) for n = 2..max_n, by n."""
    checks = [CYCLIC_CHECKS[c] for c in claim_ids]
    return [check(n) for n in range(2, max_n + 1) for check in checks]


def run_dicyclic_suite(max_n: int) -> list[ClaimReport]:
    return [check_dicyclic_bundle(n) for n in range(2, max_n + 1)]


def run_pgroup_suite(max_order: int) -> list[ClaimReport]:
    return [check_pgroup_bundle(g) for g in pgroup_catalog(max_order)]
