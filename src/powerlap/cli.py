"""Command-line interface: spectra, decompositions, claim suites, the scanner.

Exit codes: 0 on success (all claims pass), 1 on usage errors and on inputs
that cannot be read or computed, 2 when any claim check fails, so the suites
can gate CI directly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from .graphs import twin_partition, vertex_connectivity
from .groups import MAX_ORDER, is_p_group, parse_group_spec
from .pgroup import decompose, tree_json_dict, tree_string
from .spectra import algebraic_connectivity, spectrum
from .verify import (
    CLAIM_IDS,
    CYCLIC_CHECKS,
    TSV_HEADER,
    _kappa_floor,
    run_cyclic_suite,
    run_dicyclic_suite,
    run_pgroup_suite,
    scan_conjecture,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        raise SystemExit(self.fail(message))

    def fail(self, message) -> int:
        """Print the usage and one error line; return the exit code 1."""
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


# Built once per process: parse_args leaves the parser unchanged, and
# every default is None, False, an int or a string, never a shared list.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="powerlap", description=__doc__)
    parser.add_argument(
        "--seedless",
        action="store_true",
        help="accepted for interface stability; every command is deterministic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("group_spec", help="zn:<n> | qn:<n> | gq:<alpha> | prod:zn:<a>xzn:<b>[x...] "
                                          "| table:<path> (a multiplication table file)")

    p_spec = sub.add_parser("spectrum", help="Laplacian spectrum of a power graph")
    add_group_args(p_spec)
    p_spec.add_argument("--format", choices=("text", "json", "tsv"), default="text")

    p_dec = sub.add_parser("decompose", help="recursive decomposition of a p-group power graph")
    add_group_args(p_dec)
    p_dec.add_argument("--format", choices=("text", "json"), default="text")

    p_info = sub.add_parser("info", help="group and power-graph summary")
    add_group_args(p_info)
    p_info.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="run the claim-check suites")
    p_ver.add_argument("--all", action="store_true", help="run every suite (default)")
    p_ver.add_argument("--theorem", choices=CLAIM_IDS, help="run a single claim family")
    p_ver.add_argument("--cyclic-max", type=int, default=300)
    p_ver.add_argument("--dicyclic-max", type=int, default=32)
    p_ver.add_argument("--pgroup-max", type=int, default=256)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")

    p_scan = sub.add_parser("scan", help="scan cyclic orders for the integrality equivalence")
    p_scan.add_argument("--max", type=int, default=200)
    p_scan.add_argument("--format", choices=("tsv", "json"), default="tsv")
    return parser


def _cmd_spectrum(args, parser) -> int:
    # the twin partition builds no graph; Z_n's comes from the divisors of n
    g = parse_group_spec(args.group_spec)
    s = spectrum(twin_partition(g))
    if args.format == "json":
        doc = s.to_json_dict()
        doc["group"] = g.label
        doc["charpoly"] = s.exact.text() if s.is_exact else None
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "tsv":
        print("eigenvalue\tmultiplicity")
        for value, mult in s.rows(10):
            print(f"{value}\t{mult}")
    else:
        if s.is_exact:
            print(s.exact.text())
        else:
            print(f"mixed spectrum: {s.exact.text()} * (non-integer part of degree {len(s.numeric)})")
        print(s.table_text())
    return 0


def _cmd_decompose(args, parser) -> int:
    g = parse_group_spec(args.group_spec)
    tree = decompose(g)
    if args.format == "json":
        doc = {"group": g.label, "decomposition": tree_json_dict(tree), "string": tree_string(tree)}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(tree_string(tree))
    return 0


def _cmd_info(args, parser) -> int:
    g = parse_group_spec(args.group_spec)
    # the power graph's figures are read from its twin partition
    tp = twin_partition(g)
    n = tp.n
    degrees = tp.degrees()
    # kappa stops at Fiedler's floor, the ceiling of the algebraic
    # connectivity; one vertex has none, nor has a spectrum refused as over
    # the charpoly's budget, and kappa then searches from 0
    try:
        s = spectrum(tp)
        floor = _kappa_floor(s, algebraic_connectivity(s))
    except ValueError:
        floor = 0
    # elements per order, from each cyclic subgroup's order and generator count
    lattice = g.cyclic_subgroups()
    histogram: Counter = Counter()
    for atom, order in zip(lattice.members, lattice.subgroup_orders()):
        histogram[order] += len(atom)
    doc = {
        "group": g.label,
        "order": g.order,
        "identity": g.identity,
        "p_group_prime": is_p_group(g),
        "element_order_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "power_graph": {
            "vertices": n,
            "edges": sum(len(c) * d for c, d in zip(tp.classes, degrees)) // 2,
            "complete": all(d == n - 1 for d in degrees),
            # the identity is a power of every element, so it is joined
            # to every other vertex and the graph has one component
            "components": 1,
            "vertex_connectivity": vertex_connectivity(tp, floor).size,
        },
    }
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"group {doc['group']}: order {doc['order']}, identity index {doc['identity']}")
        prime = doc["p_group_prime"]
        print(f"p-group: {f'yes (p={prime})' if prime else 'no'}")
        hist = ", ".join(f"{k}:{v}" for k, v in sorted(histogram.items()))
        print(f"element orders (order:count): {hist}")
        stats = doc["power_graph"]
        print(
            f"power graph: {stats['vertices']} vertices, {stats['edges']} edges, "
            f"complete={str(stats['complete']).lower()}, kappa={stats['vertex_connectivity']}"
        )
    return 0


def _cmd_verify(args, parser) -> int:
    if min(args.cyclic_max, args.dicyclic_max, args.pgroup_max) < 2:
        parser.error("--cyclic-max, --dicyclic-max and --pgroup-max must be at least 2")
    if args.dicyclic_max > MAX_ORDER // 4 or args.pgroup_max > MAX_ORDER:
        parser.error(f"--dicyclic-max must be at most {MAX_ORDER // 4} (Q_n has order 4n) "
                     f"and --pgroup-max at most MAX_ORDER = {MAX_ORDER}")
    theorem = args.theorem
    reports = []
    if theorem is None:
        reports += run_cyclic_suite(args.cyclic_max)
    elif theorem in CYCLIC_CHECKS:
        reports += run_cyclic_suite(args.cyclic_max, [theorem])
    if theorem in (None, "dicyclic-bundle"):
        reports += run_dicyclic_suite(args.dicyclic_max)
    if theorem in (None, "pgroup-bundle"):
        reports += run_pgroup_suite(args.pgroup_max)

    failures = [r for r in reports if r.verdict == "fail"]
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))
    else:
        by_claim: dict[str, list] = {}
        for r in reports:
            by_claim.setdefault(r.claim_id, []).append(r)
        for claim_id in sorted(by_claim):
            group = by_claim[claim_id]
            passed = sum(1 for r in group if r.verdict == "pass")
            print(f"{claim_id}: {passed}/{len(group)} pass")
        for r in failures:
            print(f"FAIL {r.claim_id} {r.parameters}: {r.witness}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_scan(args, parser) -> int:
    if args.max < 2:
        parser.error("--max must be at least 2")
    rows, summary = scan_conjecture(args.max)
    if args.format == "json":
        doc = {"rows": [r.to_json_dict() for r in rows], "summary": summary}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(TSV_HEADER)
        for r in rows:
            print(r.to_tsv())
    if not summary["holds_strict"]:
        for n in summary["failures_strict"]:
            row = next(r for r in rows if r.n == n)
            print(
                f"EQUIVALENCE FAILURE at n={n}: {row.to_json_dict()}",
                file=sys.stderr,
            )
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    handlers = {
        "spectrum": _cmd_spectrum,
        "decompose": _cmd_decompose,
        "info": _cmd_info,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
    }
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        # bad specs, unreadable or invalid tables, inputs too large to compute
        return parser.fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
