"""Benchmark of powerlap's exact spectral engine.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Runs whole rounds of workload W (every item once, order from the seed),
each in a fresh single-threaded worker process: at least the workload's
MIN_ROUNDS, and more until S seconds have passed.  The workers' outputs
are then checked against computations made apart from the program
(checks.py).  The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with
--trace 0 and the per-layer ones with --trace 1.  A full record goes to
benchmark/results/.
"""

from __future__ import annotations

import os

# the oracle's LAPACK calls in this process run on one thread, as the workers do
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

SETUP_PROBES = 4  # extra set-up-only processes per untraced run, for the setup_s median
RUN_LIMIT_S = 170  # a run never outlives this, workers included

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("claim_p99_s", "s"),
)


def host_unit_ms() -> float:
    """A fixed pure-Python unit of work, timed to follow the host's speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - started) * 1000.0


def spawn_worker(args, deadline: float, extra: list[str]) -> dict:
    """Run one worker process to its end and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)] + extra, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "powerlap" / "__init__.py").is_file():
        print(f"no powerlap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn_worker(args, deadline, ["--setup-only"])["setup_s"])

    rounds = []
    host_ms = []
    started = time.monotonic()
    while len(rounds) < workloads.MIN_ROUNDS[args.workload] or time.monotonic() - started < args.seconds:
        host_ms.append(host_unit_ms())
        extra = ["--trace-file", str(RESULTS / f"spans-{tag}-round{len(rounds)}.jsonl.gz")] if args.trace else []
        rounds.append(spawn_worker(args, deadline, extra))
    host_ms.append(host_unit_ms())

    # correctness, outside every timed phase
    verify_defaults = (workloads.CYCLIC_MAX, workloads.DICYCLIC_MAX, workloads.PGROUP_MAX)
    claims_per_verify = sum(checks.expected_claim_counts(*verify_defaults).values())
    attempted = failed = 0
    errors: list[str] = []  # operations that raised: failed, not wrong
    problems: list[str] = []  # outputs that disagree with the checks: wrong
    for r in rounds:
        for out in r["outputs"]:
            item = out["item"]
            ops = claims_per_verify if item[0] == "verify" else 1
            attempted += ops
            if "error" in out:
                failed += ops
                errors.append(f"{item}: {out['error']}")
            else:
                problems += checks.output_problems(item, out, verify_defaults)
    correct = not problems

    # An operation is a claim where the workload makes claims, a query
    # otherwise; every round makes the same operations in the same order.
    # Its time is the median over the rounds.
    per_round = [r["claim_seconds"] or r["item_seconds"] for r in rounds]
    op_seconds = [statistics.median(times) for times in zip(*per_round)]
    claim_p50_s = statistics.median(op_seconds)
    if args.trace:
        metrics = {n: {"value": statistics.median(r["per_layer"][n] for r in rounds), "unit": u}
                   for n, u in spans.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            # below forty operations p99 would be no tail: report the median alone
            "claim_p99_s": (statistics.quantiles(op_seconds, n=100, method="inclusive")[98]
                            if len(op_seconds) >= 40 else claim_p50_s),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "operations_timed": len(op_seconds), "claim_p50_s": claim_p50_s,
        "setup_samples": setups,
        "round_wall_s": [r["wall_s"] for r in rounds], "host_unit_ms": host_ms,
        "errors": errors, "problems": problems, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in (errors + problems)[:20]:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
