import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import powerlap.graphs
import powerlap.groups
import powerlap.verify
from oracles import is_complete
from powerlap.cli import _build_parser, main
from powerlap.graphs import components, power_graph, vertex_connectivity
from powerlap.groups import parse_group_spec

Q3_TABLE = Path(__file__).parent / "data" / "q3.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "zn:8", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "x^1 (x-8)^7"
    assert "eigenvalue" in out and "multiplicity" in out


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "qn:2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 8 and doc["is_laplacian_integral"] is True
    assert doc["exact"] == [[8, 2], [4, 3], [2, 2], [0, 1]]


def test_spectrum_tsv(capsys):
    code, out, _ = run(capsys, "spectrum", "zn:4", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eigenvalue\tmultiplicity"
    assert "0\t1" in lines and "4\t3" in lines


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "prod:zn:9xzn:3")
    assert code == 0
    assert out.strip() == "K1 v ((K2 v 3*K6) + 3*K2)"


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "zn:9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["string"] == "K1 v (K2 v K6)"
    assert doc["decomposition"]["join"]["apex"] == 1


def test_decompose_requires_pgroup(capsys):
    code, _, err = run(capsys, "decompose", "zn:6")
    assert code == 1
    assert "not a p-group" in err


def test_info(capsys):
    code, out, _ = run(capsys, "info", "gq:2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8 and doc["p_group_prime"] == 2
    assert doc["power_graph"]["vertex_connectivity"] == 2


def spec_of(label):
    """The CLI spec of a built-in group from its label, e.g. ``Z4xZ2``."""
    if label.startswith("GQ"):
        return f"gq:{int(label[2:]).bit_length() - 2}"  # order 2^(alpha+1)
    parts = label.split("x")
    if len(parts) > 1:
        return "prod:" + "x".join(f"zn:{p[1:]}" for p in parts)
    return f"{'zn' if label[0] == 'Z' else 'qn'}:{label[1:]}"


def test_info_reads_the_power_graph_from_its_twin_partition(capsys, small_groups):
    specs = [spec_of(g.label) for g in small_groups] + [f"table:{Q3_TABLE}", "gq:4"]
    for spec in specs:
        code, out, _ = run(capsys, "info", spec, "--format", "json")
        assert code == 0, spec
        pg = power_graph(parse_group_spec(spec))
        assert json.loads(out)["power_graph"] == {
            "vertices": pg.n,
            "edges": pg.edge_count(),
            "complete": is_complete(pg),
            "components": len(components(pg)),
            "vertex_connectivity": vertex_connectivity(pg).size,
        }, spec


def test_info_at_max_order_builds_no_n_squared_arrays(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "info", "zn:8192", "--format", "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["power_graph"]["vertex_connectivity"] == 8191
    # the power graph's n x n byte matrices took 273 MB here
    assert peak < 64 * 2**20


def test_verify_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--all",
        "--cyclic-max", "30",
        "--dicyclic-max", "4",
        "--pgroup-max", "16",
    )
    assert code == 0
    assert "cyclic-algcon: 29/29 pass" in out
    assert "dicyclic-bundle: 3/3 pass" in out


def test_verify_spec_ranges_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--all",
        "--cyclic-max", "100",
        "--dicyclic-max", "16",
        "--pgroup-max", "128",
    )
    assert code == 0
    assert "pgroup-bundle:" in out


def test_seedless_flag_accepted(capsys):
    code, out, _ = run(capsys, "--seedless", "spectrum", "zn:4")
    assert code == 0 and "x^1 (x-4)^3" in out


def test_verify_single_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "cyclic-algcon", "--cyclic-max", "12")
    assert code == 0
    assert out.strip() == "cyclic-algcon: 11/11 pass"


def test_verify_single_cyclic_claim_runs_only_that_claim(capsys, monkeypatch):
    ranges = ("--cyclic-max", "24", "--dicyclic-max", "2", "--pgroup-max", "2")
    _, full_text, _ = run(capsys, "verify", *ranges)
    _, full_json, _ = run(capsys, "verify", *ranges, "--format", "json")

    def no_kappa(graph):
        raise AssertionError("cyclic-algcon must not compute vertex connectivity")

    monkeypatch.setattr(powerlap.verify, "vertex_connectivity", no_kappa)
    args = ("verify", "--theorem", "cyclic-algcon", *ranges)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.splitlines() == [
        line for line in full_text.splitlines() if line.startswith("cyclic-algcon:")
    ]
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    docs = [d for d in json.loads(full_json) if d["claim"] == "cyclic-algcon"]
    assert out == json.dumps(docs, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "spec", ["zn:100000", "qn:100000", "prod:zn:1000xzn:1000", "gq:100000000"]
)
def test_groups_too_large_to_tabulate_fail_fast(capsys, spec):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "spectrum", spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert "MAX_ORDER = 8192" in err
    # the two Z_1000 factors are built; the million-element product is not
    assert peak < 64 * 2**20


@pytest.mark.parametrize("spec", ["zn:0", "zn:-4", "zn:abc", "zn:", "zn:100000"])
def test_cyclic_spec_errors_match_the_table_path(capsys, spec):
    # `spectrum` and `info` both parse zn:<n> through parse_group_spec
    expected = run(capsys, "info", spec)
    assert expected[0] == 1 and expected[1] == ""
    assert run(capsys, "spectrum", spec) == expected
    assert run(capsys, "spectrum", "--group", spec) == expected


def test_cyclic_spec_with_two_sources_is_a_usage_error(capsys):
    code, out, err = run(capsys, "spectrum", "zn:12", "--group", "zn:12")
    assert code == 1 and out == ""
    assert "provide exactly one of" in err


def refusal(message):
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    return refuse


def rebind_everywhere(monkeypatch, original, replacement):
    """Point every powerlap module binding `original` at `replacement`."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "powerlap"]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


def refuse_everywhere(monkeypatch, originals, message):
    """Make every powerlap module binding one of `originals` raise instead."""
    for original in originals:
        rebind_everywhere(monkeypatch, original, refusal(message))


def test_cyclic_commands_tabulate_no_group(capsys, monkeypatch):
    # Z_n's cyclic subgroups come from the divisors of n: no element of
    # Z_n (or of Q_n, for the live check) is multiplied and no graph is built
    message = "a cyclic path multiplied group elements or built a graph"
    refuse_everywhere(monkeypatch, [powerlap.graphs.power_graph], message)
    for build in (powerlap.groups.cyclic_group, powerlap.groups.dicyclic_group):
        def unmultiplied(n, _build=build):
            return dataclasses.replace(_build(n), mul=refusal(message))

        rebind_everywhere(monkeypatch, build, unmultiplied)
    for cache in (powerlap.verify._cyclic_partition, powerlap.verify._cyclic_spectrum):
        cache.cache_clear()
    with pytest.raises(AssertionError):
        main(["spectrum", "qn:3"])  # the guard is live: Q_3's lattice is walked
    for argv in (
        ["spectrum", "zn:2310"],
        ["spectrum", "--group", "zn:12", "--format", "json"],
        ["info", "zn:2310"],
        ["decompose", "zn:81"],
        ["verify", "--theorem", "cyclic-kappa-vs-algcon", "--cyclic-max", "30"],
        ["scan", "--max", "60"],
    ):
        assert run(capsys, *argv)[0] == 0, argv


def test_claims_and_group_spectra_build_no_power_graph(capsys, monkeypatch):
    refuse_everywhere(monkeypatch, [powerlap.graphs.power_graph], "a power graph was built")
    with pytest.raises(AssertionError):
        powerlap.graphs.power_graph(powerlap.groups.cyclic_group(3))  # the guard is live
    for argv in (
        ["spectrum", "qn:3"],
        ["spectrum", "gq:3"],
        ["spectrum", "prod:zn:4xzn:2"],
        ["spectrum", f"table:{Q3_TABLE}"],
        ["info", "qn:3"],
        ["info", "gq:3"],
        ["info", f"table:{Q3_TABLE}"],
        ["info", "prod:zn:4xzn:2"],
        ["verify", "--cyclic-max", "12", "--dicyclic-max", "8", "--pgroup-max", "32"],
    ):
        assert run(capsys, *argv)[0] == 0, argv


@pytest.mark.parametrize("ranges", [
    ("--theorem", "pgroup-bundle", "--pgroup-max", "20000"),
    ("--theorem", "dicyclic-bundle", "--dicyclic-max", "2049"),
    # a suite bound below 2 would run an empty suite and pass
    ("--theorem", "dicyclic-bundle", "--dicyclic-max", "1"),
    ("--cyclic-max", "-5"),
    ("--theorem", "cyclic-algcon", "--cyclic-max", "1"),
    ("--pgroup-max", "1"),
    ("--theorem", "pgroup-bundle", "--pgroup-max", "0"),
])
def test_verify_ranges_above_max_order_fail_before_any_claim(capsys, monkeypatch, ranges):
    refuse_everywhere(monkeypatch, [powerlap.verify.run_cyclic_suite,
                                    powerlap.verify.run_dicyclic_suite,
                                    powerlap.verify.run_pgroup_suite], "a claim ran")
    code, out, err = run(capsys, "verify", *ranges)
    assert code == 1 and out == ""
    reason = "at least 2" if int(ranges[-1]) < 2 else "MAX_ORDER = 8192"
    assert reason in err and "Traceback" not in err


def test_verify_json_stable(capsys):
    args = ("verify", "--theorem", "dicyclic-bundle", "--dicyclic-max", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    docs = json.loads(out1)
    assert all(d["verdict"] == "pass" for d in docs)


def test_scan_tsv(capsys):
    code, out, _ = run(capsys, "scan", "--max", "50", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n\talgcon_integer")
    assert len(lines) == 1 + 49


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--max", "20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["holds_strict"] is True
    assert len(doc["rows"]) == 19


def test_table_input(capsys, tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    code, out, _ = run(capsys, "spectrum", "--table", str(path), "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "x^1 (x-3)^2"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "spectrum", "zn:zzz")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    code, _, err = run(capsys, "scan", "--max", "1")
    assert code == 1


def test_parser_is_built_once_and_reused(capsys):
    assert _build_parser() is _build_parser()
    # a usage error and an option on one call leave the next call unchanged
    for argv in (["spectrum", "--format", "xml", "zn:4"], ["verify", "--theorem", "nope"],
                 ["spectrum", "zn:4"], ["scan", "--max", "1"]):
        assert run(capsys, *argv) == run(capsys, *argv)
    _build_parser().parse_args(["verify", "--cyclic-max", "5", "--all"])
    args = _build_parser().parse_args(["verify"])
    assert (args.cyclic_max, args.all, args.theorem) == (300, False, None)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "powerlap", "verify", "--theorem", "cyclic-algcon",
         "--cyclic-max", "30"],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "cyclic-algcon: 29/29 pass"
