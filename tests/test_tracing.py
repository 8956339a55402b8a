"""The benchmark's tracer still installs on the package and sees every layer.

`benchmark/spans.py` rebinds public functions of every powerlap module by
name, so renaming, moving or deleting one of them breaks traced benchmark
runs.  The tracer runs in a subprocess: its rebinding never leaks into
other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_ROUND = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import spans
from powerlap import cli, graphs, groups, linalg, pgroup, spectra, verify

tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["spectrum", "zn:12", "--format", "json"])
verify.check_dicyclic_bundle(3)
verify.check_pgroup_bundle(groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(2)))
print(json.dumps(tracer.metrics(0)))
"""


def test_tracer_installs_and_counts_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, str(ROOT / "benchmark"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    # Z12 and Q3 are mixed, Z4xZ2 exact; none of them calls the Jacobi solver.
    # The quotient of Z4xZ2 splits into joins and unions down to single
    # classes, so only Z12 and Q3 leave one piece each for the charpoly
    assert metrics["spectra.spectrum_calls"] == 3
    assert metrics["spectra.mixed_results"] == 2
    assert metrics["linalg.charpoly_calls"] == 2
    assert metrics["linalg.integer_roots_calls"] == 2
    assert metrics["linalg.jacobi_calls"] == 0 and metrics["linalg.jacobi_s"] == 0
    assert metrics["graphs.vertex_connectivity_calls"] == 2
    assert metrics["verify.claims"] == 2
    assert metrics["groups.is_p_group_calls"] >= 1
