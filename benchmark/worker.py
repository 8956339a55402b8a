"""One round of one workload, in a fresh process: run.py starts it.

    python3 benchmark/worker.py --workload W --seed N --trace 0|1 --spawned-at T [--setup-only]

`--spawned-at` is the parent's `time.monotonic()` just before the spawn,
so set-up time covers interpreter start-up, the imports and building the
input list, up to the first timed call.  The timed phase runs every item
once; peak RSS is read right after it.  The last line of stdout is one
JSON object with the timings and the raw outputs; run.py checks them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def import_powerlap():
    """Import powerlap from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import powerlap
    from powerlap import cli, groups, verify  # noqa: F401

    if Path(powerlap.__file__).resolve().parent != SRC / "powerlap":
        raise SystemExit(f"powerlap imported from {powerlap.__file__}, not from {SRC}")
    return powerlap


def capture(module_names: tuple[str, ...], sink: dict) -> None:
    """Keep the result of every call to the named public functions.

    The bundles return verdicts and evidence but not the spectrum or the
    separating set behind them; this records both for the checks.
    """
    for dotted in module_names:
        module_name, name = dotted.split(".")
        original = getattr(sys.modules[f"powerlap.{module_name}"], name)

        def kept(*args, _original=original, _name=name, **kwargs):
            result = _original(*args, **kwargs)
            sink.setdefault(_name, []).append(result)
            return result

        spans.rebind(original, kept)


def run_item(powerlap, item, captured: dict) -> dict:
    """Run one operation; return its raw output for the checks."""
    kind, arg = item
    if kind in ("spectrum", "verify"):
        argv = [kind, f"zn:{arg}"] if kind == "spectrum" else [kind]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = powerlap.cli.main(argv + ["--format", "json"])
        return {"exit": code, "stdout": buf.getvalue()}

    captured.clear()
    if kind == "dicyclic":
        report = powerlap.verify.check_dicyclic_bundle(arg)
    else:
        group = powerlap.groups.parse_group_spec(workloads.product_spec(arg))
        report = powerlap.verify.check_pgroup_bundle(group)
    return {
        "verdict": report.verdict,
        "witness": report.witness,
        "evidence": report.evidence,
        "spectra": [
            {"n": s.n, "exact": [list(f) for f in s.exact.factors], "numeric": list(s.numeric)}
            for s in captured.get("spectrum", [])
        ],
        "cuts": [
            {"size": c.size, "separating_set": list(c.separating_set)}
            for c in captured.get("vertex_connectivity", [])
        ],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    powerlap = import_powerlap()
    todo = workloads.items(args.workload, args.seed)
    claim_seconds: list[float] = []
    spans.time_claims(claim_seconds)
    captured: dict = {}
    if args.workload == "connectivity-bundles":
        capture(("spectra.spectrum", "graphs.vertex_connectivity"), captured)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    first_call = time.monotonic()
    setup_s = first_call - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs = []
    item_seconds = []
    started = time.perf_counter()
    for index, item in enumerate(todo):
        if tracer:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            out = run_item(powerlap, item, captured)
        except Exception as exc:  # counted as a failed operation, reported below
            out = {"error": f"{type(exc).__name__}: {exc}"}
        item_seconds.append(time.perf_counter() - t0)
        outputs.append({"item": list(item), **out})
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stdout_bytes = sum(len(o.get("stdout", "").encode()) for o in outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "item_seconds": item_seconds,
        "claim_seconds": claim_seconds,
        "outputs": outputs,
        "per_layer": tracer.metrics(stdout_bytes) if tracer else None,
    }
    if tracer and args.trace_file:
        tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
