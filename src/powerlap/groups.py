"""Finite groups on index sets 0..n-1, each given by a multiplication rule.

Groups are the substrate for every power-graph construction in this
package.  Elements are always plain integer indices; the identity is
index 0 for every built-in constructor.  A group stores no table: the
built-in groups multiply by their presentations (addition mod n, the
dicyclic relations, products componentwise) and a `from_table` group
looks its products up in the validated rows.  Per-element data (orders,
generated cyclic subgroups) is found by power walks with that rule and
cached lazily on the group object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Factorization",
    "FiniteGroup",
    "ElementInfo",
    "GroupValidationError",
    "MAX_ORDER",
    "euler_phi",
    "factorize",
    "cyclic_group",
    "dicyclic_group",
    "generalized_quaternion",
    "direct_product",
    "from_table",
    "element_info",
    "up_set",
    "hat_up_set",
    "is_p_group",
    "primitive_classes",
    "parse_group_spec",
    "parse_cyclic_spec",
    "load_table_file",
]


class GroupValidationError(ValueError):
    """Raised when a multiplication table fails the group axioms."""


# Largest group order the constructors accept.  A group keeps one n-bit
# subgroup mask per element, and its power graph n bit rows of n bits:
# n**2 bits, 8 MB at order 8192.  Larger orders fail fast instead of
# exhausting memory.
MAX_ORDER = 8192


def _order_error(name: str, order: str) -> ValueError:
    return ValueError(
        f"{name} would build a group of order {order}, above the limit "
        f"MAX_ORDER = {MAX_ORDER} on its n-bit subgroup masks and n^2-bit power graph"
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


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group of order n on the index set 0..n-1.

    ``mul(i, j)`` is the product of elements i and j, computed by the
    group's rule on demand.  Instances are immutable; derived data
    (element orders, cyclic subgroups as bitmasks, the ~-class
    partition) is computed on first use and cached.
    """

    order: int
    identity: int
    label: str
    mul: Callable[[int, int], int]
    _cache: dict = field(default_factory=dict, repr=False)

    # cached per-element structure -----------------------------------

    def subgroup_masks(self) -> list[int]:
        """Bitmask of <g> for every g; bit h set iff h is a power of g.

        One power walk per distinct cyclic subgroup: the walk from g
        assigns the subgroup's mask to every generator of <g> at once.
        """
        masks = self._cache.get("masks")
        if masks is None:
            e = self.identity
            mul = self.mul
            masks = [0] * self.order
            for g in range(self.order):
                if masks[g]:
                    continue
                seq = []
                cur = g
                while True:
                    seq.append(cur)
                    if cur == e:
                        break
                    cur = mul(cur, g)
                o = len(seq)
                mask = 0
                for v in seq:
                    mask |= 1 << v
                for k in range(1, o + 1):
                    if math.gcd(k, o) == 1:
                        masks[seq[k - 1]] = mask
            self._cache["masks"] = masks
        return masks

    def orders(self) -> list[int]:
        """o(g) for every element g."""
        orders = self._cache.get("orders")
        if orders is None:
            orders = [m.bit_count() for m in self.subgroup_masks()]
            self._cache["orders"] = orders
        return orders

    def order_of(self, g: int) -> int:
        return self.orders()[g]

    def eq_class_masks(self) -> list[int]:
        """Bitmask of [g] = {h : <h> = <g>} for every g."""
        classes = self._cache.get("eq_classes")
        if classes is None:
            masks = self.subgroup_masks()
            by_subgroup: dict[int, int] = {}
            for g, m in enumerate(masks):
                by_subgroup[m] = by_subgroup.get(m, 0) | (1 << g)
            classes = [by_subgroup[m] for m in masks]
            self._cache["eq_classes"] = classes
        return classes

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


@dataclass(frozen=True)
class ElementInfo:
    """Order, generated cyclic subgroup and ~-class of one element."""

    element: int
    order: int
    cyclic_subgroup: frozenset[int]
    eq_class: frozenset[int]


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


def _check_cyclic_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"cyclic_group requires n >= 1, got {n}")
    _check_order("cyclic_group", n)


def cyclic_group(n: int) -> FiniteGroup:
    """Additive group of integers modulo n; identity 0."""
    _check_cyclic_order(n)
    return FiniteGroup(n, 0, f"Z{n}", lambda x, y: (x + y) % n)


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


def element_info(g: FiniteGroup, x: int) -> ElementInfo:
    """Order, cyclic subgroup and ~-class of element x."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order {g.order}")
    mask = g.subgroup_masks()[x]
    cls = g.eq_class_masks()[x]
    return ElementInfo(
        element=x,
        order=g.order_of(x),
        cyclic_subgroup=frozenset(_bits(mask)),
        eq_class=frozenset(_bits(cls)),
    )


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def up_set(g: FiniteGroup, x: int) -> frozenset[int]:
    """U(x): all h whose generated cyclic subgroup contains x."""
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order {g.order}")
    bit = 1 << x
    return frozenset(h for h, m in enumerate(g.subgroup_masks()) if m & bit)


def hat_up_set(g: FiniteGroup, x: int) -> frozenset[int]:
    """U(x) minus the ~-class of x."""
    cls = g.eq_class_masks()[x]
    return frozenset(h for h in up_set(g, x) if not (cls >> h) & 1)


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
    ascending.  Only defined for p-groups.
    """
    p = is_p_group(g)
    if p is None:
        raise ValueError(f"{g.label} is not a p-group")
    if not 0 <= x < g.order:
        raise ValueError(f"element index {x} out of range for order {g.order}")
    target = g.subgroup_masks()[x]
    masks = g.subgroup_masks()
    reps: dict[int, int] = {}
    for h in range(g.order):
        if h == g.identity:
            continue
        hp = h
        for _ in range(p - 1):
            hp = g.mul(hp, h)
        if masks[hp] == target:
            key = masks[h]
            if key not in reps or h < reps[key]:
                reps[key] = h
    return sorted(reps.values())


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
    n = int(tokens[0])
    if len(tokens) != 1 + n * n:
        raise GroupValidationError(
            f"{path}: expected {n * n} entries after the order line, got {len(tokens) - 1}"
        )
    entries = [int(t) for t in tokens[1:]]
    table = [entries[i * n : (i + 1) * n] for i in range(n)]
    group = from_table(n, table, label=label or path.stem)
    if group.identity != 0:
        raise GroupValidationError(f"{path}: identity must be index 0, found {group.identity}")
    return group


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse a CLI group spec: zn:<n>, qn:<n>, gq:<alpha>, prod:zn:<a>xzn:<b>[x...], table:<path>."""
    spec = spec.strip()
    n = parse_cyclic_spec(spec)
    if n is not None:
        return cyclic_group(n)
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


def parse_cyclic_spec(spec: str) -> Optional[int]:
    """The n of a ``zn:<n>`` group spec, or None for any other spec.

    n is checked as `cyclic_group` checks it, with the same messages, so
    a caller can work from the divisors of n without building Z_n.
    """
    spec = spec.strip()
    if not spec.startswith("zn:"):
        return None
    n = _parse_int(spec[3:], spec)
    _check_cyclic_order(n)
    return n


def _parse_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r} in group spec {spec!r}") from None
