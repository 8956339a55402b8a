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
import collections, contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import spans
from powerlap import cli, graphs, groups, linalg, pgroup, spectra, verify

tracer = spans.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["spectrum", "zn:12", "--format", "json"])
verify.check_dicyclic_bundle(3)
verify.check_pgroup_bundle(groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(2)))
print(json.dumps([tracer.metrics(0), collections.Counter(span[2] for span in tracer.spans)]))
"""


def test_tracer_installs_and_counts_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, str(ROOT / "benchmark"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics, spans_by_name = json.loads(proc.stdout.strip().splitlines()[-1])
    # Z12's partition goes through the traced twin_partition, as Q3's and
    # Z4xZ2's do: one span each
    assert spans_by_name["graphs.twin_partition"] == 3
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


TRACED_VERIFY = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import spans
from powerlap import cli

tracer = spans.Tracer()
tracer.install()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify"])
print(json.dumps([code, tracer.metrics(len(out.getvalue().encode()))]))
"""


def test_traced_default_verify_keeps_its_counts():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(ROOT / "benchmark"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert metrics["spectra.spectrum_calls"] == 720
    assert metrics["spectra.mixed_results"] == 292
    # no leaf of the default suite passes 17 rows
    assert metrics["linalg.charpoly_calls"] == 159
    assert metrics["linalg.charpoly_dim_max"] == 17
    assert metrics["graphs.vertex_connectivity_calls"] == 483
    assert metrics["verify.claims"] == 1081
    # Z2^8's 256 classes: the identity and 255 involutions, each its own class
    assert metrics["graphs.twin_classes_max"] == 256
