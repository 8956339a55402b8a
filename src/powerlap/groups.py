"""Finite groups on index sets 0..n-1, each given by a multiplication rule.

Groups are the substrate for every power-graph construction in this
package.  Elements are always plain integer indices; the identity is
index 0 for every built-in constructor.  A group stores no table: the
built-in groups multiply by their presentations (addition mod n, the
dicyclic relations, products componentwise) and a `from_table` group
looks its products up in the validated rows.  Per-element data is read
from the group's cyclic-subgroup lattice, cached lazily on the group
object: Z_n's comes from the divisors of n, any other group's from one
power walk per element not yet placed, with its rule; no per-element
subgroup mask is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Factorization",
    "FiniteGroup",
    "GroupValidationError",
    "MAX_ORDER",
    "euler_phi",
    "factorize",
    "cyclic_group",
    "dicyclic_group",
    "generalized_quaternion",
    "direct_product",
    "from_table",
    "up_set",
    "hat_up_set",
    "is_p_group",
    "primitive_classes",
    "parse_group_spec",
    "load_table_file",
]


class GroupValidationError(ValueError):
    """Raised when a multiplication table fails the group axioms."""


# Largest group order the constructors accept.  It bounds a walked
# group's lattice: the power walk multiplies through the cyclic subgroups
# of each element not yet placed, and the lattice and the twin partition
# built from it keep lists per element and per containment.
# `cyclic_group` applies the same limit to Z_n, whose lattice comes from
# the divisors of n with no walk but still lists every element.  Larger
# orders fail fast instead of running long.
MAX_ORDER = 8192


def _order_error(name: str, order: str) -> ValueError:
    return ValueError(
        f"{name} would build a group of order {order}, above the limit "
        f"MAX_ORDER = {MAX_ORDER}"
    )


def _check_order(name: str, order: int) -> None:
    if order > MAX_ORDER:
        raise _order_error(name, str(order))


# ---------------------------------------------------------------------------
# number theory helpers


@dataclass(frozen=True)
class Factorization:
    """Canonical prime factorization: (prime, exponent) pairs, primes increasing."""

    n: int
    prime_powers: tuple[tuple[int, int], ...]

    @property
    def is_prime_power(self) -> bool:
        return len(self.prime_powers) == 1

    @property
    def is_prime(self) -> bool:
        return self.prime_powers == ((self.n, 1),)

    @property
    def is_product_of_two_distinct_primes(self) -> bool:
        return (
            len(self.prime_powers) == 2
            and all(a == 1 for _, a in self.prime_powers)
        )

    @property
    def is_product_of_two_primes(self) -> bool:
        """n = p*q with p, q prime, possibly equal (q = p gives p^2)."""
        if self.is_product_of_two_distinct_primes:
            return True
        return len(self.prime_powers) == 1 and self.prime_powers[0][1] == 2


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 2 by trial division."""
    if n <= 1:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    m = n
    pairs = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            pairs.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return Factorization(n, tuple(pairs))


def euler_phi(n: int) -> int:
    """Count of integers in 1..n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    result = n
    for p, _ in factorize(n).prime_powers:
        result -= result // p
    return result


# ---------------------------------------------------------------------------
# the group type


class CyclicSubgroups(NamedTuple):
    """Every cyclic subgroup of a group once.

    ``members[a]`` lists the generators of subgroup a ascending: the
    ~-class of elements that generate it.  ``below[a]`` lists the
    subgroups that a contains, ascending; each is placed before a, so a
    itself comes last.
    """

    members: tuple[tuple[int, ...], ...]
    below: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group of order n on the index set 0..n-1.

    ``mul(i, j)`` is the product of elements i and j, computed by the
    group's rule on demand.  Instances are immutable; derived data
    (the cyclic-subgroup lattice and element orders) is computed on
    first use and cached; `cyclic_group` seeds the lattice from the
    divisors of n instead.
    """

    order: int
    identity: int
    label: str
    mul: Callable[[int, int], int]
    _cache: dict = field(default_factory=dict, repr=False)

    # cached structure ----------------------------------------------

    def cyclic_subgroups(self) -> CyclicSubgroups:
        """The cyclic-subgroup lattice, unless `cyclic_group` seeded it.

        One walk of the powers g^0..g^(o-1) of each element g not yet
        placed, ascending: for every divisor d of o, the g^(d*j) with
        gcd(j, o/d) = 1 generate <g^d>, which contains <g^f> exactly when
        d divides f.  So the walk places every cyclic subgroup of <g> not
        met before, and one met before already holds its own subgroups.
        These exponents depend on o alone, so each order's plan is made
        once: per divisor d, the exponents of g^d, of the generators of
        <g^d> and of the generators of the subgroups it contains.
        """
        lattice = self._cache.get("lattice")
        if lattice is None:
            e, mul = self.identity, self.mul
            atom_of = [-1] * self.order
            members: list[tuple[int, ...]] = []
            below: list[tuple[int, ...]] = []
            plans: dict[int, list[tuple[int, list[int], list[int]]]] = {}
            for g in range(self.order):
                if atom_of[g] >= 0:
                    continue
                powers = [e]
                cur = g
                while cur != e:
                    powers.append(cur)
                    cur = mul(cur, g)
                o = len(powers)
                plan = plans.get(o)
                if plan is None:
                    divisors = [d for d in range(1, o + 1) if o % d == 0]
                    # largest d first: the subgroups inside <g^d> are placed before it
                    plan = plans[o] = [
                        (d % o, [d * j % o for j in range(1, o // d + 1) if math.gcd(j, o // d) == 1],
                         [f % o for f in divisors if f % d == 0])
                        for d in reversed(divisors)
                    ]
                for head, generators, inside in plan:
                    if atom_of[powers[head]] < 0:
                        atom = sorted(powers[x] for x in generators)
                        for x in atom:
                            atom_of[x] = len(members)
                        members.append(tuple(atom))
                        # subgroups met in earlier walks interleave with new ones
                        below.append(tuple(sorted(atom_of[powers[f]] for f in inside)))
            lattice = CyclicSubgroups(tuple(members), tuple(below))
            self._cache["lattice"] = lattice
        return lattice

    def orders(self) -> list[int]:
        """o(g) for every element g: |<g>| is the number of generators of
        all the cyclic subgroups inside <g>."""
        orders = self._cache.get("orders")
        if orders is None:
            members, below = self.cyclic_subgroups()
            orders = [0] * self.order
            for atom, key in zip(members, below):
                o = sum(len(members[b]) for b in key)
                for x in atom:
                    orders[x] = o
            self._cache["orders"] = orders
        return orders

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


# ---------------------------------------------------------------------------
# constructors


def _validate_table(order: int, table: Sequence[Sequence[int]]) -> int:
    """Full group-axiom check; returns the identity index.

    Associativity is checked exhaustively (vectorized), so this is meant
    for desk-scale orders only.
    """
    if order < 1:
        raise GroupValidationError(f"order must be positive, got {order}")
    if len(table) != order or any(len(row) != order for row in table):
        raise GroupValidationError(f"table must be {order}x{order}")
    arr = np.asarray(table, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= order:
        raise GroupValidationError("table entries must be indices in 0..order-1")

    identity = None
    idx = np.arange(order)
    for e in range(order):
        if np.array_equal(arr[e], idx) and np.array_equal(arr[:, e], idx):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("no identity element found")

    for g in range(order):
        if not (arr[g] == identity).any():
            raise GroupValidationError(f"element {g} has no inverse")

    # (i*j)*k == i*(j*k), one vectorized slab per i
    for i in range(order):
        left = arr[arr[i], :]
        right = arr[i][arr]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            raise GroupValidationError(
                f"associativity fails at triple ({i}, {int(j)}, {int(k)})"
            )
    return identity


def from_table(
    order: int,
    table: Sequence[Sequence[int]],
    label: str = "table-group",
) -> FiniteGroup:
    """Build a group from an explicit multiplication table, validating the axioms."""
    rows = tuple(tuple(int(x) for x in row) for row in table)
    identity = _validate_table(order, rows)
    return FiniteGroup(order, identity, label, lambda x, y: rows[x][y])


def _cyclic_lattice(n: int) -> CyclicSubgroups:
    """Z_n's cyclic subgroups from the divisors of n, with no power walk:
    the residues of order d, the k*(n/d) with gcd(k, d) = 1, generate the
    one subgroup of order d, which contains the one of order e exactly
    when e divides d.  Subgroups come by ascending order, as a walk of
    Z_n's powers of 1 places them."""
    by_order: dict[int, list[int]] = {}
    for x in range(n):
        by_order.setdefault(n // math.gcd(x, n), []).append(x)
    orders = sorted(by_order)
    below = tuple(tuple(b for b, e in enumerate(orders) if d % e == 0) for d in orders)
    return CyclicSubgroups(tuple(tuple(by_order[d]) for d in orders), below)


def cyclic_group(n: int) -> FiniteGroup:
    """Additive group of integers modulo n; identity 0.

    Its cyclic-subgroup lattice comes from the divisors of n
    (`_cyclic_lattice`), with no power walk.
    """
    if n < 1:
        raise ValueError(f"cyclic_group requires n >= 1, got {n}")
    _check_order("cyclic_group", n)
    return FiniteGroup(n, 0, f"Z{n}", lambda x, y: (x + y) % n,
                       _cache={"lattice": _cyclic_lattice(n)})


def dicyclic_group(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a^(2n)=e, a^n=b^2, ab=ba^(-1).

    Indices 0..2n-1 are the powers a^i; indices 2n..4n-1 are a^(i-2n)*b.
    """
    if n < 2:
        raise ValueError(f"dicyclic_group requires n >= 2, got {n}")
    _check_order("dicyclic_group", 4 * n)
    two_n = 2 * n

    def mul(x: int, y: int) -> int:
        if x < two_n:
            if y < two_n:  # a^x a^y = a^(x+y)
                return (x + y) % two_n
            return two_n + (x + y) % two_n  # a^x a^j b = a^(x+j) b
        if y < two_n:  # a^i b a^y = a^(i-y) b
            return two_n + (x - y) % two_n
        return (x - y + n) % two_n  # a^i b a^j b = a^(i-j+n)

    return FiniteGroup(4 * n, 0, f"Q{n}", mul)


def generalized_quaternion(alpha: int) -> FiniteGroup:
    """Generalized quaternion group of order 2^(alpha+1), alpha >= 2."""
    if alpha < 2:
        raise ValueError(f"generalized_quaternion requires alpha >= 2, got {alpha}")
    # checked on the exponent, so a huge alpha is never raised to a power
    if alpha + 1 > MAX_ORDER.bit_length() - 1:
        raise _order_error("generalized_quaternion", f"2^{alpha + 1}")
    q = dicyclic_group(2 ** (alpha - 1))
    return FiniteGroup(q.order, q.identity, f"GQ{q.order}", q.mul)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with lexicographic element indexing: (x, y) -> x*|H| + y."""
    m = h.order
    size = g.order * m
    _check_order("direct_product", size)
    gmul, hmul = g.mul, h.mul

    def mul(x: int, y: int) -> int:
        return gmul(x // m, y // m) * m + hmul(x % m, y % m)

    identity = g.identity * m + h.identity
    return FiniteGroup(size, identity, f"{g.label}x{h.label}", mul)


# ---------------------------------------------------------------------------
# element machinery


def _atom_of(g: FiniteGroup, x: int) -> int:
    """The index of <x> in g's cyclic-subgroup lattice."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order {g.order}")
    return next(a for a, atom in enumerate(g.cyclic_subgroups().members) if x in atom)


def up_set(g: FiniteGroup, x: int) -> frozenset[int]:
    """U(x): all h whose generated cyclic subgroup contains x, the
    generators of every cyclic subgroup above <x>."""
    members, below = g.cyclic_subgroups()
    a = _atom_of(g, x)
    return frozenset(h for atom, key in zip(members, below) if a in key for h in atom)


def hat_up_set(g: FiniteGroup, x: int) -> frozenset[int]:
    """U(x) minus the ~-class of x, the elements generating <x>."""
    return up_set(g, x).difference(g.cyclic_subgroups().members[_atom_of(g, x)])


def is_p_group(g: FiniteGroup) -> Optional[int]:
    """The prime p if g is a p-group, else None.

    Every element order is a power of p exactly when the group order
    is: element orders divide the group order (Lagrange), and every
    prime dividing the group order is the order of some element
    (Cauchy).  Requires order at least two; the trivial group is not a
    p-group here.
    """
    if g.order < 2:
        return None
    f = factorize(g.order)
    return f.prime_powers[0][0] if f.is_prime_power else None


def primitive_classes(g: FiniteGroup, x: int) -> list[int]:
    """Representatives of the ~-classes [h] with [h^p] = [x] and h != e.

    One representative per class, the smallest element index; sorted
    ascending.  Only defined for p-groups.  [h^p] depends on [h] alone,
    so one p-th power is walked per cyclic subgroup.
    """
    p = is_p_group(g)
    if p is None:
        raise ValueError(f"{g.label} is not a p-group")
    members = g.cyclic_subgroups().members
    target = members[_atom_of(g, x)]
    reps = []
    for h, *_ in members:
        if h == g.identity:
            continue
        hp = h
        for _ in range(p - 1):
            hp = g.mul(hp, h)
        if hp in target:
            reps.append(h)
    return sorted(reps)


# ---------------------------------------------------------------------------
# external interfaces: table files and CLI group specs


def load_table_file(path: str | Path, label: Optional[str] = None) -> FiniteGroup:
    """Read a multiplication table file: first line n, then n rows of n indices.

    The identity element must be index 0.
    """
    path = Path(path)
    tokens = path.read_text().split()
    if not tokens:
        raise GroupValidationError(f"{path}: empty table file")
    try:
        n, *entries = [int(t) for t in tokens]
    except ValueError as exc:
        raise GroupValidationError(f"{path}: {exc}") from None
    if len(entries) != n * n:
        raise GroupValidationError(
            f"{path}: expected {n * n} entries after the order line, got {len(entries)}"
        )
    table = [entries[i * n : (i + 1) * n] for i in range(n)]
    try:
        group = from_table(n, table, label=label or path.stem)
    except GroupValidationError as exc:
        raise GroupValidationError(f"{path}: {exc}") from None
    if group.identity != 0:
        raise GroupValidationError(f"{path}: identity must be index 0, found {group.identity}")
    return group


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse a CLI group spec: zn:<n>, qn:<n>, gq:<alpha>, prod:zn:<a>xzn:<b>[x...], table:<path>."""
    spec = spec.strip()
    if spec.startswith("zn:"):
        return cyclic_group(_parse_int(spec[3:], spec))
    if spec.startswith("qn:"):
        return dicyclic_group(_parse_int(spec[3:], spec))
    if spec.startswith("gq:"):
        return generalized_quaternion(_parse_int(spec[3:], spec))
    if spec.startswith("prod:"):
        body = spec[len("prod:") :]
        parts = body.split("x")
        if len(parts) < 2:
            raise ValueError(f"bad product spec {spec!r}: need at least two factors")
        factors = []
        for part in parts:
            if not part.startswith("zn:"):
                raise ValueError(f"bad product factor {part!r} in {spec!r} (only zn:<n> allowed)")
            factors.append(cyclic_group(_parse_int(part[3:], spec)))
        group = factors[0]
        for f in factors[1:]:
            group = direct_product(group, f)
        return group
    if spec.startswith("table:"):
        return load_table_file(spec[len("table:") :])
    raise ValueError(f"unrecognized group spec {spec!r}")


def _parse_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r} in group spec {spec!r}") from None
