"""Recursive structure of p-group power graphs.

For a p-group, the power graph decomposes recursively: the subgraph
induced by U(g) is a clique on the ~-class of g joined to the disjoint
union of the subgraphs for the primitive classes above g.  This module
builds that decomposition tree, evaluates its factored characteristic
polynomial by the join/union calculus unrolled over the tree, and
classifies every Laplacian eigenvalue into its structural form.

The cyclic subgroups of a cyclic p-group form a chain, so every
non-identity class [h] has exactly one parent class, [h^p], the
generators of the largest proper subgroup of <h>, and h has order p^k
for a chain of k + 1 subgroups.  The tree is read off the group's
cyclic-subgroup lattice in one pass from the last subgroup to the
first, since a subgroup comes after every one it holds; a node's parent
holds what the node holds but itself.  The tree holds each ~-class
once, by its smallest element; no element order is looked up.  A
node's ``upset_size`` is |U(x)|, its number of children is the
primitive-class count of x, and |U-hat(x)| is ``upset_size`` minus the
apex size.  The eigenvalue classification and the divisibility checks
read these values off the tree, one node per class, instead of
scanning elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, factorize, is_p_group
from .spectra import CharPolyContradiction, FactoredCharPoly, Spectrum

__all__ = [
    "DecompTree",
    "EigenvalueForm",
    "MultiplePropertyReport",
    "decompose",
    "tree_charpoly",
    "tree_string",
    "tree_json_dict",
    "classify_eigenvalues",
    "check_multiple_property",
]


@dataclass(frozen=True)
class DecompTree:
    """An apex clique (one ~-class) joined to the subtrees above it.

    A leaf is a node with no children: its subgraph is the apex clique.
    """

    apex_size: int
    element: int
    element_order: int
    upset_size: int
    children: tuple["DecompTree", ...] = ()


def decompose(g: FiniteGroup) -> DecompTree:
    """Decomposition tree of the power graph of a p-group.

    Children are sorted by descending vertex count, then by
    representative element index, so trees render canonically.
    """
    p = is_p_group(g)
    if p is None:
        raise ValueError(f"{g.label} is not a p-group")
    members, below = g.cyclic_subgroups()
    children: list[list[DecompTree]] = [[] for _ in members]
    # a subgroup's index exceeds those of the subgroups it holds: from the
    # top down each node follows its children, and the root, the trivial
    # subgroup 0, comes last; <x>'s chain of k + 1 subgroups gives o(x) = p^k,
    # and its parent, the largest proper one, holds the rest: below[a][-2]
    for a in reversed(range(len(members))):
        kids = sorted(children[a], key=lambda t: (-t.upset_size, t.element))
        apex = len(members[a])
        node = DecompTree(apex, members[a][0], p ** (len(below[a]) - 1),
                          apex + sum(t.upset_size for t in kids), tuple(kids))
        if a:
            children[below[a][-2]].append(node)
    return node


def _classes(t: DecompTree) -> list[DecompTree]:
    """Every node of the tree, one per ~-class, by ascending element."""
    out = [t]
    i = 0
    while i < len(out):
        out.extend(out[i].children)
        i += 1
    return sorted(out, key=lambda node: node.element)


def tree_charpoly(t: DecompTree) -> FactoredCharPoly:
    """Factored characteristic polynomial of the tree's graph in one pass.

    The join/union calculus, unrolled.  A node with apex a and upset u
    is K_a joined to the union of its children's graphs, on u - a
    vertices, so its roots are 0 once, u a times, and the union's roots
    shifted by a, less one a; a leaf, u = a, is the clique.  Every
    ancestor's apex shifts a node's roots once more, so a node whose
    strict ancestors' apexes sum to S adds root S once and S + u a
    times, and removes one S + a.
    """
    counts: dict[int, int] = {}
    stack = [(t, 0)]
    while stack:
        node, shift = stack.pop()
        apex, upset = node.apex_size, node.upset_size
        if upset != apex + sum(c.upset_size for c in node.children):
            raise ValueError(f"node {node.element}: upset {upset} is not its apex plus its children's")
        counts[shift] = counts.get(shift, 0) + 1
        counts[shift + upset] = counts.get(shift + upset, 0) + apex
        counts[shift + apex] = counts.get(shift + apex, 0) - 1
        stack.extend((c, shift + apex) for c in node.children)
    short = [root for root, mult in counts.items() if mult < 0]
    if short:
        raise CharPolyContradiction(f"the tree removes root {short[0]} more often than it adds it")
    return FactoredCharPoly.from_counts(counts)


def tree_string(t: DecompTree) -> str:
    """Canonical text form, e.g. ``K1 v ((K2 v 3*K6) + 3*K2)``."""
    if not t.children:
        return f"K{t.apex_size}"
    terms: list[str] = []
    counts: list[int] = []
    for c in t.children:
        s = tree_string(c)
        if c.children:
            s = f"({s})"
        if terms and terms[-1] == s:
            counts[-1] += 1
        else:
            terms.append(s)
            counts.append(1)
    rendered = [f"{k}*{s}" if k > 1 else s for s, k in zip(terms, counts)]
    body = " + ".join(rendered)
    if len(rendered) > 1:
        body = f"({body})"
    return f"K{t.apex_size} v {body}"


def tree_json_dict(t: DecompTree) -> dict:
    base = {
        "element": t.element,
        "order": t.element_order,
        "u_size": t.upset_size,
    }
    if not t.children:
        return {"clique": t.apex_size, **base}
    return {
        "join": {
            "apex": t.apex_size,
            "children": [tree_json_dict(c) for c in t.children],
        },
        **base,
    }


# ---------------------------------------------------------------------------
# eigenvalue classification


@dataclass(frozen=True)
class EigenvalueForm:
    """Structural form of one Laplacian eigenvalue of a p-group power graph.

    form is "zero", "order_of" (value equals the order of the witness) or
    "uhat_plus_order" (value equals |U(w)| - |[w]| + o(w) for witness w).
    """

    value: int
    form: str
    witness: int | None


def classify_eigenvalues(g: FiniteGroup, s: Spectrum,
                         tree: DecompTree) -> list[EigenvalueForm]:
    """Assign every distinct eigenvalue its structural form with a witness.

    The witness is the smallest element of that form.  An unclassifiable
    eigenvalue would falsify the structural theory and raises immediately.
    ``tree`` is ``decompose(g)``.
    """
    classes = _classes(tree)
    if not s.is_exact:
        raise ValueError("classification requires an exact spectrum")
    forms: list[EigenvalueForm] = []
    for value, _ in s.exact.factors:
        if value == 0:
            forms.append(EigenvalueForm(0, "zero", None))
            continue
        witness = next(
            (t.element for t in classes if t.element_order == value), None
        )
        if witness is not None:
            forms.append(EigenvalueForm(value, "order_of", witness))
            continue
        witness = next(
            (
                t.element
                for t in classes
                if t.upset_size - t.apex_size + t.element_order == value
            ),
            None,
        )
        if witness is not None:
            forms.append(EigenvalueForm(value, "uhat_plus_order", witness))
            continue
        raise AssertionError(
            f"eigenvalue {value} of {g.label} fits no structural form"
        )
    return forms


@dataclass(frozen=True)
class MultiplePropertyReport:
    """Divisibility facts about the eigenvalues of a p-group power graph."""

    ok: bool
    prime: int
    violations: tuple[str, ...]


def check_multiple_property(g: FiniteGroup, s: Spectrum,
                            tree: DecompTree) -> MultiplePropertyReport:
    """Verify the divisibility properties of an exact p-group spectrum.

    Every nonzero eigenvalue must be 1 or divisible by p; for every
    element x, |U-hat(x)| + o(x) must be a multiple of o(x); and whenever
    that quantity is a prime power, the primitive-class count of x must
    be 0 or congruent to 1 mod p.  Both element facts depend only on the
    ~-class of x, so a violation is reported once per class, naming its
    smallest element.  ``tree`` is ``decompose(g)``.
    """
    p = is_p_group(g)
    if p is None:
        raise ValueError(f"{g.label} is not a p-group")
    if not s.is_exact:
        raise ValueError("the property check requires an exact spectrum")
    violations: list[str] = []
    for value, _ in s.exact.factors:
        if value not in (0, 1) and value % p != 0:
            violations.append(f"eigenvalue {value} is neither 1 nor a multiple of {p}")
    prime_power: dict[int, bool] = {}  # each distinct value factorized once
    for t in _classes(tree):
        x, order = t.element, t.element_order
        combined = t.upset_size - t.apex_size + order
        if combined % order != 0:
            violations.append(
                f"element {x}: |U-hat|+order = {combined} not a multiple of {order}"
            )
        if combined not in prime_power:
            prime_power[combined] = combined >= 2 and factorize(combined).is_prime_power
        if prime_power[combined]:
            pi = len(t.children)
            if pi != 0 and pi % p != 1:
                violations.append(
                    f"element {x}: prime-power value {combined} but {pi} primitive classes"
                )
    return MultiplePropertyReport(
        ok=not violations, prime=p, violations=tuple(violations)
    )
