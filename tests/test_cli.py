import dataclasses
import json
import os
import resource
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import powerlap.cli
import powerlap.graphs
import powerlap.groups
import powerlap.verify
from oracles import dense_numeric_eigenvalues, is_complete
from powerlap.cli import _build_parser, main
from powerlap.graphs import components, power_graph, vertex_connectivity
from powerlap.groups import parse_group_spec
from powerlap.linalg import _MAX_STACK_BYTES
from powerlap.spectra import FactoredCharPoly

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


def test_spectrum_tsv_lists_the_non_integer_eigenvalues(capsys):
    # Z_12's spectrum is mixed: its integer rows come first, then one row
    # of multiplicity 1 per non-integer eigenvalue, ascending
    code, out, _ = run(capsys, "spectrum", "zn:12", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    integers = [(int(v), int(m)) for v, m in rows if "." not in v]
    floats = [float(v) for v, m in rows if "." in v and m == "1"]
    assert len(integers) + len(floats) == len(rows)
    assert floats and floats == sorted(floats)
    assert sum(m for _, m in integers) + len(floats) == 12
    dense = dense_numeric_eigenvalues(power_graph(parse_group_spec("zn:12")))
    listed = sorted([float(v) for v, m in integers for _ in range(m)] + floats)
    assert np.allclose(listed, dense, rtol=0, atol=1e-9)


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
    # decompose's own refusal, with no check of the group before it
    code, out, err = run(capsys, "decompose", "zn:6")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "powerlap: error: Z6 is not a p-group"


def test_info(capsys):
    code, out, _ = run(capsys, "info", "gq:2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8 and doc["p_group_prime"] == 2
    assert doc["power_graph"]["vertex_connectivity"] == 2


def test_info_stops_kappa_at_the_fiedler_floor(capsys, monkeypatch):
    # Q_15's algebraic connectivity lies in (1, 2], so kappa's floor is 2;
    # one vertex has no algebraic connectivity and keeps the floor 0, and
    # Z_12's, about 5.68, gives 6
    floors = []

    def recorded(tp, floor=0):
        floors.append(floor)
        return vertex_connectivity(tp, floor)

    monkeypatch.setattr(powerlap.cli, "vertex_connectivity", recorded)
    for spec in ("qn:15", "zn:1", "zn:12"):
        assert run(capsys, "info", spec)[0] == 0, spec
    assert floors == [2, 0, 6]


def test_info_without_a_spectrum_runs_kappa_from_no_floor(capsys, monkeypatch):
    # a spectrum over the charpoly's budget leaves kappa to search unaided
    _, want, _ = run(capsys, "info", "qn:15")

    def refused(tp):
        raise ValueError("over the budget")

    monkeypatch.setattr(powerlap.cli, "spectrum", refused)
    assert run(capsys, "info", "qn:15") == (0, want, "")


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
    "spec", ["zn:100000", "qn:100000", "prod:zn:1000xzn:1000", "gq:100000000", "zn:8193"]
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
    # the message names the limit only: Z_n's lattice needs no power walk
    assert "walk" not in err
    # the two Z_1000 factors are built; the million-element product is not
    assert peak < 64 * 2**20


@pytest.mark.parametrize("spec", ["zn:0", "zn:-4", "zn:abc", "zn:", "zn:100000"])
def test_cyclic_spec_errors_match_the_table_path(capsys, spec):
    # `spectrum`, `info` and `decompose` all parse zn:<n> through parse_group_spec
    expected = run(capsys, "info", spec)
    assert expected[0] == 1 and expected[1] == ""
    assert run(capsys, "spectrum", spec) == expected
    assert run(capsys, "decompose", spec) == expected


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
    for cache in (powerlap.verify._cyclic, powerlap.verify._cyclic_spectrum):
        cache.cache_clear()
    with pytest.raises(AssertionError):
        main(["spectrum", "qn:3"])  # the guard is live: Q_3's lattice is walked
    for argv in (
        ["spectrum", "zn:2310"],
        ["spectrum", "zn:12", "--format", "json"],
        ["info", "zn:2310"],
        ["decompose", "zn:81"],
        ["verify", "--theorem", "cyclic-kappa-vs-algcon", "--cyclic-max", "30"],
        ["scan", "--max", "60"],
    ):
        assert run(capsys, *argv)[0] == 0, argv


def test_cyclic_spectra_list_no_residue(capsys, monkeypatch):
    # the spectrum reads each class's size alone, so Z_n's classes, held
    # by their divisors, are never listed; `info` reads only the size of
    # kappa's certificate, whose classes are listed only when its
    # separating set is read, so it lists none either
    listed = 0
    iterate = powerlap.groups.OrderClass.__iter__

    def counted(self):
        nonlocal listed
        listed += 1
        return iterate(self)

    monkeypatch.setattr(powerlap.groups.OrderClass, "__iter__", counted)
    for n in (720, 840, 1260, 1680, 2310):
        assert run(capsys, "spectrum", f"zn:{n}", "--format", "json")[0] == 0, n
    assert listed == 0
    assert run(capsys, "info", "zn:2310")[0] == 0
    assert listed == 0
    # a read witness lists its classes once: Z_2310's universal class and
    # the eight classes of its final cut
    cut = vertex_connectivity(powerlap.graphs.twin_partition(powerlap.groups.cyclic_group(2310)))
    assert listed == 0
    assert cut.separating_set == cut.separating_set and len(cut.separating_set) == cut.size
    assert listed == 9


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


def test_verify_text_reports_failing_claims(capsys, monkeypatch):
    # a wrong recursive charpoly fails Z4's bundle; Z2's recursion is x^1 (x-2)^1
    monkeypatch.setattr(powerlap.verify, "pgroup_catalog",
                        lambda max_order: [powerlap.groups.cyclic_group(n) for n in (2, 4)])
    monkeypatch.setattr(powerlap.verify, "tree_charpoly",
                        lambda tree: FactoredCharPoly.from_counts({0: 1, 2: 1}))
    code, out, err = run(capsys, "verify", "--theorem", "pgroup-bundle")
    assert code == 2
    assert out == "pgroup-bundle: 1/2 pass\n"
    assert err == ("FAIL pgroup-bundle {'group': 'Z4', 'order': 4, 'prime': 2}: "
                   "Z4: recursion gives x^1 (x-2)^1, direct gives x^1 (x-4)^3\n")


def test_scan_reports_an_equivalence_failure(capsys, monkeypatch):
    # Z_6 given Z_12's mixed spectrum: 6 = 2 * 3 meets the predicate, yet
    # neither its connectivity nor its spectrum is integral
    cyclic_spectrum = powerlap.verify._cyclic_spectrum
    monkeypatch.setattr(powerlap.verify, "_cyclic_spectrum",
                        lambda n: cyclic_spectrum(12 if n == 6 else n))
    code, out, err = run(capsys, "scan", "--max", "7")
    assert code == 2
    assert out.splitlines()[5] == "6\tfalse\tfalse\ttrue\ttrue"
    assert err == ("EQUIVALENCE FAILURE at n=6: {'n': 6, 'algcon_integer': False, "
                   "'laplacian_integral': False, 'predicate_strict': True, "
                   "'predicate_loose': True}\n")


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
    code, out, _ = run(capsys, "spectrum", f"table:{path}", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "x^1 (x-3)^2"


@pytest.mark.parametrize("text, message", [
    ("3\n0 1 2\n1 2 0\n2 0 x\n", "'x'"),
    ("", "empty table file"),
    ("0\n", "order must be positive, got 0"),
    ("2\n0 1\n1 2\n", "table entries must be indices in 0..order-1"),
    ("2\n0 1\n1 1\n", "element 1 has no inverse"),
], ids=["non-integer", "empty", "order-0", "entry-out-of-range", "no-inverse"])
def test_table_defects_are_usage_errors(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "spectrum", f"table:{path}")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    # every defect, in the tokens or in the table they spell, names the file
    line = err.splitlines()[-1]
    assert line.startswith(f"powerlap: error: {path}: ") and line.endswith(message)


def test_a_leaf_over_the_stack_budget_is_one_error_line():
    # Z2^9 x Z15 (order 7680) reaches a 2047-row leaf on 372 primes, an
    # 11.6 GiB restart basis; the child is capped at 2 GiB of address space,
    # with one BLAS thread so that its buffers stay within the cap too
    spec = "prod:" + "x".join(["zn:2"] * 9 + ["zn:15"])
    cap = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "powerlap", "spectrum", spec],
        cwd=Path(__file__).resolve().parent.parent / "src", capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("powerlap: error:")]
    assert errors == [f"powerlap: error: 2047 rows on 372 primes: the int64 restart basis needs "
                      f"{8 * 372 * 2047**2} bytes, over the {_MAX_STACK_BYTES}-byte budget"]


def test_usage_errors(capsys):
    code, _, err = run(capsys, "spectrum", "zn:zzz")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    code, _, err = run(capsys, "scan", "--max", "1")
    assert code == 1
    # a group is named by its positional spec alone
    code, out, _ = run(capsys, "spectrum", "--group", "zn:12")
    assert code == 1 and out == ""
    code, out, _ = run(capsys, "spectrum", "zn:12", "--table", str(Q3_TABLE))
    assert code == 1 and out == ""


def test_parser_is_built_once_and_reused(capsys):
    assert _build_parser() is _build_parser()
    # a usage error and an option on one call leave the next call unchanged
    for argv in (["spectrum", "--format", "xml", "zn:4"], ["verify", "--theorem", "nope"],
                 ["spectrum", "zn:4"], ["scan", "--max", "1"]):
        assert run(capsys, *argv) == run(capsys, *argv)
    _build_parser().parse_args(["verify", "--cyclic-max", "5", "--all"])
    args = _build_parser().parse_args(["verify"])
    assert (args.cyclic_max, args.all, args.theorem) == (300, False, None)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["verify", "--theorem", "cyclic-algcon", "--cyclic-max", "30"]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "powerlap", *argv],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "cyclic-algcon: 29/29 pass"
    assert run(capsys, *argv)[:2] == (proc.returncode, proc.stdout)


def test_python_dash_m_exits_with_mains_code(capsys, monkeypatch):
    # the module run in this process: `sys.exit` carries main's exit code
    monkeypatch.setattr(sys, "argv", ["powerlap", "spectrum", "qn:3", "--format", "json"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("powerlap", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == run(capsys, *sys.argv[1:])[1]
