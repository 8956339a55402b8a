"""The benchmark's workloads: their inputs, made from the seed.

Every workload is a fixed set of operations whose order the seed
permutes.  One round runs each operation once, in a fresh process.
"""

from __future__ import annotations

import random

# Divisor-rich cyclic orders: 720, 1260 and 2310 from the ROADMAP list,
# 840 and 1680 as neighbours.  Each one is a distinct `spectrum` query.
SPECTRUM_ORDERS = (720, 840, 1260, 1680, 2310)

# `powerlap verify` defaults; the claim counts are derived from them in
# checks.expected_claim_counts, never read back from the program.
CYCLIC_MAX = 300
DICYCLIC_MAX = 32
PGROUP_MAX = 256

# Dicyclic bundles for n with an odd factor (orders 420 and 1000) and
# p-group bundles for large non-cyclic p-groups, given as the cyclic
# factors of a direct product.
DICYCLIC_BUNDLES = (105, 250)
PGROUP_BUNDLES = ((4, 4, 4, 4, 2), (8, 8, 8))

WORKLOADS = ("spectrum-divisor-rich", "claim-suites", "connectivity-bundles")

# Rounds a run makes at least.  The host's speed drifts by up to a fifth
# over tens of seconds, and an operation's time is its median over the
# rounds, so a run spreads each operation over that many windows.
MIN_ROUNDS = {"spectrum-divisor-rich": 3, "claim-suites": 2, "connectivity-bundles": 2}


def product_spec(factors: tuple[int, ...]) -> str:
    """CLI group spec of a direct product of cyclic groups."""
    return "prod:" + "x".join(f"zn:{m}" for m in factors)


def items(workload: str, seed: int) -> list[tuple]:
    """The operations of one round, in the order the seed gives.

    An item is ``(kind, argument)``:
    - ``("spectrum", n)``: `powerlap spectrum zn:<n> --format json`;
    - ``("verify", None)``: `powerlap verify --format json`;
    - ``("dicyclic", n)``: `check_dicyclic_bundle(n)`;
    - ``("pgroup", factors)``: `check_pgroup_bundle` of the product group.
    """
    if workload == "spectrum-divisor-rich":
        out = [("spectrum", n) for n in SPECTRUM_ORDERS]
    elif workload == "claim-suites":
        # a single command: the claim order inside it is the program's own
        out = [("verify", None)]
    elif workload == "connectivity-bundles":
        out = [("dicyclic", n) for n in DICYCLIC_BUNDLES]
        out += [("pgroup", f) for f in PGROUP_BUNDLES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out
