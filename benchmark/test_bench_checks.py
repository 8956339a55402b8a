"""The benchmark's checks accept powerlap's real outputs and reject corrupted ones."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from powerlap import cli  # noqa: E402
from powerlap.graphs import power_graph, vertex_connectivity  # noqa: E402
from powerlap.groups import dicyclic_group, parse_group_spec  # noqa: E402
from powerlap.spectra import spectrum  # noqa: E402
from powerlap.verify import check_dicyclic_bundle, check_pgroup_bundle  # noqa: E402


def _cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def _bundle_output(kind: str, arg) -> dict:
    """What worker.py records for one bundle, built from the public API."""
    if kind == "dicyclic":
        group = dicyclic_group(arg)
        report = check_dicyclic_bundle(arg)
    else:
        group = parse_group_spec("prod:" + "x".join(f"zn:{m}" for m in arg))
        report = check_pgroup_bundle(group)
    graph = power_graph(group)
    s = spectrum(graph)
    cut = vertex_connectivity(graph)
    return {
        "verdict": report.verdict,
        "witness": report.witness,
        "evidence": json.loads(json.dumps(report.evidence)),
        "spectra": [{"n": s.n, "exact": [list(f) for f in s.exact.factors], "numeric": list(s.numeric)}],
        "cuts": [{"size": cut.size, "separating_set": list(cut.separating_set)}],
    }


def _with_doc(out: dict, edit) -> dict:
    doc = json.loads(out["stdout"])
    edit(doc)
    return {**out, "stdout": json.dumps(doc)}


# ---------------------------------------------------------------------------
# the reference groups


def test_reference_spectra_match_closed_forms():
    # Z_8 is complete: 0 once and 8 seven times
    assert np.allclose(checks.eigenvalues(("cyclic", 8)), [0] + [8] * 7)
    # Z_2 x Z_2 is the star K_{1,3}
    assert np.allclose(checks.eigenvalues(("product", (2, 2))), [0, 1, 1, 4])
    # the quaternion group Q_8: 0, 2^2, 4^3, 8^2
    assert np.allclose(checks.eigenvalues(("dicyclic", 2)), [0, 2, 2, 4, 4, 4, 8, 8])


def test_expected_claim_counts_at_the_verify_defaults():
    counts = checks.expected_claim_counts(300, 32, 256)
    assert counts == {
        "cyclic-algcon": 299,
        "cyclic-radius-mult": 299,
        "cyclic-kappa-vs-algcon": 299,
        "dicyclic-bundle": 31,
        "pgroup-bundle": 153,
    }
    assert sum(counts.values()) == 1081


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_check_accepts_a_mixed_spectrum():
    out = _cli(["spectrum", "zn:12", "--format", "json"])
    assert json.loads(out["stdout"])["numeric"], "zn:12 should have a numeric part"
    assert checks.spectrum_query_problems(12, out) == []


def test_spectrum_check_rejects_a_multiplicity_moved_by_one():
    out = _cli(["spectrum", "zn:12", "--format", "json"])

    def move(doc):
        doc["exact"][0][1] += 1
        doc["exact"][1][1] -= 1

    problems = checks.spectrum_query_problems(12, _with_doc(out, move))
    assert any("multiplicity" in p for p in problems)


def test_spectrum_check_rejects_a_shifted_numeric_residual():
    out = _cli(["spectrum", "zn:12", "--format", "json"])

    def shift(doc):
        doc["numeric"][0] += 1e-3

    problems = checks.spectrum_query_problems(12, _with_doc(out, shift))
    assert any("numeric eigenvalues differ" in p for p in problems)
    assert any("2|E|" in p for p in problems)


# ---------------------------------------------------------------------------
# bundles and vertex connectivity


def test_bundle_checks_accept_real_bundles():
    assert checks.bundle_problems("dicyclic", 3, _bundle_output("dicyclic", 3)) == []
    assert checks.bundle_problems("pgroup", (4, 2), _bundle_output("pgroup", (4, 2))) == []


def test_bundle_check_rejects_a_witness_that_does_not_separate():
    out = _bundle_output("dicyclic", 3)
    assert out["cuts"][0]["size"] == 2
    bad = copy.deepcopy(out)
    bad["cuts"][0]["separating_set"] = [1, 2]  # a^1, a^2: the graph stays connected
    problems = checks.bundle_problems("dicyclic", 3, bad)
    assert any("does not separate" in p for p in problems)


def test_bundle_check_rejects_a_shifted_numeric_residual():
    bad = _bundle_output("dicyclic", 3)
    bad["spectra"][0]["numeric"][0] += 1e-3
    assert checks.bundle_problems("dicyclic", 3, bad)


def test_bundle_check_rejects_a_failed_verdict():
    bad = _bundle_output("pgroup", (4, 2))
    bad["verdict"] = "fail"
    problems = checks.bundle_problems("pgroup", (4, 2), bad)
    assert any("verdict fail" in p for p in problems)


# ---------------------------------------------------------------------------
# claim suites


def _small_verify() -> dict:
    return _cli(["verify", "--cyclic-max", "12", "--dicyclic-max", "4", "--pgroup-max", "16",
                 "--format", "json"])


def test_verify_check_accepts_a_real_run():
    assert checks.verify_problems(_small_verify(), 12, 4, 16) == []


def test_verify_check_rejects_a_failed_verdict():
    out = _small_verify()

    def fail_one(reports):
        reports[0]["verdict"] = "fail"

    problems = checks.verify_problems(_with_doc(out, fail_one), 12, 4, 16)
    assert any("verdict fail" in p for p in problems)


def test_verify_check_rejects_wrong_dicyclic_evidence():
    out = _small_verify()

    def wrong_kappa(reports):
        next(r for r in reports if r["claim"] == "dicyclic-bundle")["evidence"]["kappa"] = 3

    problems = checks.verify_problems(_with_doc(out, wrong_kappa), 12, 4, 16)
    assert any("networkx" in p for p in problems)
