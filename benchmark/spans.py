"""Spans around calls into powerlap's public functions, recorded from outside.

`Tracer.install` rebinds each listed function, in every powerlap module
that holds it, to a wrapper that records a span (name, start, end,
parent, item) and the counts of its layer.  Nothing under `src/` is
edited: the wrappers only replace module attributes in this process.

A layer's `_s` metric is self time: the duration of its spans minus the
time covered by their child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from functools import wraps
from typing import Callable

MODULES = ("groups", "graphs", "spectra", "linalg", "pgroup", "verify", "cli")

CLAIM_FUNCTIONS = (
    "check_cyclic_algcon",
    "check_cyclic_radius_mult",
    "check_cyclic_kappa_eq_mu",
    "check_dicyclic_bundle",
    "check_pgroup_bundle",
)

# span bucket -> (module, public functions whose spans it owns)
BUCKETS = {
    "groups.construct": ("groups", ("cyclic_group", "dicyclic_group", "generalized_quaternion",
                                    "direct_product", "from_table", "load_table_file",
                                    "parse_group_spec")),
    "groups.structure": ("groups", ("is_p_group", "primitive_classes", "up_set", "hat_up_set")),
    "graphs.build": ("graphs", ("power_graph", "proper_power_graph", "reduced_cyclic_graph",
                                "induced_subgraph", "components", "complement")),
    "graphs.twin_partition": ("graphs", ("twin_partition",)),
    "graphs.vertex_connectivity": ("graphs", ("vertex_connectivity",)),
    "spectra.spectrum": ("spectra", ("spectrum",)),
    "linalg.charpoly": ("linalg", ("charpoly_exact",)),
    "linalg.integer_roots": ("linalg", ("integer_root_multiplicities",)),
    "linalg.jacobi": ("linalg", ("jacobi_eigenvalues",)),
    "pgroup.decompose": ("pgroup", ("decompose", "tree_charpoly")),
    "pgroup.classify": ("pgroup", ("classify_eigenvalues",)),
    "pgroup.multiple_property": ("pgroup", ("check_multiple_property",)),
    "verify.check": ("verify", CLAIM_FUNCTIONS + ("run_cyclic_suite", "run_dicyclic_suite",
                                                 "run_pgroup_suite", "pgroup_catalog",
                                                 "scan_conjecture")),
    "cli.self": ("cli", ("main",)),
}

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("groups.construct_s", "s"),
    ("groups.construct_calls", "count"),
    ("groups.structure_s", "s"),
    ("groups.is_p_group_calls", "count"),
    ("groups.primitive_classes_calls", "count"),
    ("graphs.build_s", "s"),
    ("graphs.vertices", "count"),
    ("graphs.twin_partition_s", "s"),
    ("graphs.twin_classes_max", "count"),
    ("graphs.vertex_connectivity_s", "s"),
    ("graphs.vertex_connectivity_calls", "count"),
    ("spectra.spectrum_s", "s"),
    ("spectra.spectrum_calls", "count"),
    ("spectra.mixed_results", "count"),
    ("linalg.charpoly_s", "s"),
    ("linalg.charpoly_calls", "count"),
    ("linalg.charpoly_dim_max", "rows"),
    ("linalg.integer_roots_s", "s"),
    ("linalg.integer_roots_calls", "count"),
    ("linalg.jacobi_s", "s"),
    ("linalg.jacobi_calls", "count"),
    ("linalg.jacobi_dim_max", "rows"),
    ("pgroup.decompose_s", "s"),
    ("pgroup.classify_s", "s"),
    ("pgroup.multiple_property_s", "s"),
    ("verify.check_s", "s"),
    ("verify.claims", "count"),
    ("verify.claim_spectra", "count"),
    ("verify.spectra_per_claim", "ratio"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
)


def powerlap_modules() -> list:
    return [sys.modules["powerlap"]] + [sys.modules[f"powerlap.{m}"] for m in MODULES]


def rebind(original: Callable, replacement: Callable) -> None:
    """Point every powerlap module attribute bound to `original` at `replacement`.

    Modules import each other's functions by name, so each binding is
    replaced; calls inside a module go through its globals and see it too.
    """
    for module in powerlap_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def time_claims(sink: list[float]) -> None:
    """Append the duration of every public check_* call to `sink`."""
    verify = sys.modules["powerlap.verify"]
    for name in CLAIM_FUNCTIONS:
        original = getattr(verify, name)

        @wraps(original)
        def timed(*args, _original=original, **kwargs):
            started = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - started)

        rebind(original, timed)


class Tracer:
    """Collects spans and per-layer counts for one round."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, item)
        self.item = -1
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._claim_depth = 0
        self.self_s = {bucket: 0.0 for bucket in BUCKETS}
        self.counts = {name: 0 for name, unit in PER_LAYER if unit not in ("s", "ratio", "bytes")}

    def install(self) -> None:
        for bucket, (module_name, names) in BUCKETS.items():
            module = sys.modules[f"powerlap.{module_name}"]
            for name in names:
                original = getattr(module, name)
                rebind(original, self._wrap(bucket, f"{module_name}.{name}", original))

    def _wrap(self, bucket: str, span_name: str, original: Callable) -> Callable:
        is_claim = span_name.split(".")[1] in CLAIM_FUNCTIONS
        stack = self._stack
        spans = self.spans

        @wraps(original)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [span_id, 0.0, 0.0]
            stack.append(frame)
            if is_claim:
                self._claim_depth += 1
            frame[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_claim:
                    self._claim_depth -= 1
                duration = end - frame[1]
                self.self_s[bucket] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans[span_id] = (span_id, parent, span_name, frame[1], end, self.item)
            self._count(span_name, args, result)
            return result

        return traced

    def _count(self, span_name: str, args: tuple, result) -> None:
        c = self.counts
        module, name = span_name.split(".")
        if module == "groups" and name in BUCKETS["groups.construct"][1]:
            c["groups.construct_calls"] += 1
        elif name == "is_p_group":
            c["groups.is_p_group_calls"] += 1
        elif name == "primitive_classes":
            c["groups.primitive_classes_calls"] += 1
        elif name == "power_graph":
            c["graphs.vertices"] += result.n
        elif name == "twin_partition":
            c["graphs.twin_classes_max"] = max(c["graphs.twin_classes_max"], result.size)
        elif name == "vertex_connectivity":
            c["graphs.vertex_connectivity_calls"] += 1
        elif name == "spectrum":
            c["spectra.spectrum_calls"] += 1
            c["spectra.mixed_results"] += bool(result.numeric)
            c["verify.claim_spectra"] += self._claim_depth > 0
        elif name == "charpoly_exact":
            c["linalg.charpoly_calls"] += 1
            c["linalg.charpoly_dim_max"] = max(c["linalg.charpoly_dim_max"], len(args[0]))
        elif name == "integer_root_multiplicities":
            c["linalg.integer_roots_calls"] += 1
        elif name == "jacobi_eigenvalues":
            c["linalg.jacobi_calls"] += 1
            c["linalg.jacobi_dim_max"] = max(c["linalg.jacobi_dim_max"], len(args[0]))
        elif name in CLAIM_FUNCTIONS:
            c["verify.claims"] += 1

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Every per-layer metric of the round."""
        out: dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name.endswith("_s"):
                out[name] = self.self_s[name[: -len("_s")]]
            elif name == "verify.spectra_per_claim":
                claims = self.counts["verify.claims"]
                out[name] = self.counts["verify.claim_spectra"] / claims if claims else 0.0
            elif name == "cli.stdout_bytes":
                out[name] = stdout_bytes
            else:
                out[name] = self.counts[name]
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
