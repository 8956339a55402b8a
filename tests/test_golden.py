"""Default CLI stdout against committed golden files.

Text outputs must match byte for byte.  JSON outputs must match
structurally: every non-float value exactly, every float within 1e-9
(display floats come from a dense eigensolver and may move in their last
bits across platforms).  Regenerate a file only for an intended change of
output, and record why.
"""

import functools
import json
from pathlib import Path

import pytest

import powerlap.cli as cli
from powerlap.cli import main

GOLDEN = Path(__file__).parent / "golden"
# Q_3 as a table file (identity 0): the non-abelian `table:` path
Q3_TABLE = f"table:{Path(__file__).parent / 'data' / 'q3.txt'}"
# Z_2^13: a walked group at MAX_ORDER, with 8,192 cyclic subgroups
Z2_13 = "prod:" + "x".join(["zn:2"] * 13)

TEXT_CASES = [
    (("verify",), "verify.txt"),
    (("scan", "--max", "300"), "scan_300.tsv"),
    (("scan", "--max", "600"), "scan_600.tsv"),
    (("spectrum", "zn:720"), "spectrum_zn_720.txt"),
    (("spectrum", "zn:2310"), "spectrum_zn_2310.txt"),
    (("spectrum", "zn:5040"), "spectrum_zn_5040.txt"),
    (("spectrum", "qn:105"), "spectrum_qn_105.txt"),
    (("spectrum", "qn:250"), "spectrum_qn_250.txt"),
    (("decompose", "prod:zn:9xzn:3"), "decompose_prod_zn9xzn3.txt"),
    (("decompose", "gq:3"), "decompose_gq_3.txt"),
    (("info", "qn:8"), "info_qn_8.txt"),
    (("info", "zn:360"), "info_zn_360.txt"),
    (("info", "zn:5040"), "info_zn_5040.txt"),
    (("spectrum", "gq:4"), "spectrum_gq_4.txt"),
    (("spectrum", "prod:zn:4xzn:2xzn:2"), "spectrum_prod_zn4xzn2xzn2.txt"),
    (("info", Q3_TABLE), "info_table_q3.txt"),
    (("spectrum", Q3_TABLE), "spectrum_table_q3.txt"),
    (("spectrum", "zn:2310", "--format", "tsv"), "spectrum_zn_2310.tsv"),
    (("spectrum", Q3_TABLE, "--format", "tsv"), "spectrum_table_q3.tsv"),
    (("info", Z2_13), "info_prod_zn2x13.txt"),
    (("spectrum", Z2_13), "spectrum_prod_zn2x13.txt"),
]

JSON_CASES = [
    (("verify", "--format", "json"), "verify.json"),
    (("spectrum", "zn:720", "--format", "json"), "spectrum_zn_720.json"),
    (("spectrum", "zn:840", "--format", "json"), "spectrum_zn_840.json"),
    (("spectrum", "zn:1260", "--format", "json"), "spectrum_zn_1260.json"),
    (("spectrum", "zn:1680", "--format", "json"), "spectrum_zn_1680.json"),
    (("spectrum", "zn:2310", "--format", "json"), "spectrum_zn_2310.json"),
    (("decompose", "prod:zn:9xzn:3", "--format", "json"), "decompose_prod_zn9xzn3.json"),
    (("decompose", "gq:3", "--format", "json"), "decompose_gq_3.json"),
    (("info", "prod:zn:4xzn:4xzn:4xzn:4xzn:2", "--format", "json"),
     "info_prod_zn4xzn4xzn4xzn4xzn2.json"),
    (("info", "zn:360", "--format", "json"), "info_zn_360.json"),
    (("spectrum", "gq:4", "--format", "json"), "spectrum_gq_4.json"),
    (("spectrum", "prod:zn:8xzn:8xzn:4", "--format", "json"), "spectrum_prod_zn8xzn8xzn4.json"),
    (("info", Q3_TABLE, "--format", "json"), "info_table_q3.json"),
    (("spectrum", Q3_TABLE, "--format", "json"), "spectrum_table_q3.json"),
]

FLOAT_TOL = 1e-9


@pytest.fixture(scope="module", autouse=True)
def suites_run_once():
    """Serve `verify` text and JSON from one run of each claim suite.

    Both formats render the same list of reports, so the second command
    only re-renders; the JSON golden file checks every report's content.
    """
    patch = pytest.MonkeyPatch()
    for name in ("run_cyclic_suite", "run_dicyclic_suite", "run_pgroup_suite"):
        patch.setattr(cli, name, functools.cache(getattr(cli, name)))
    yield
    patch.undo()


def _stdout(capsys, argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _assert_same_json(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same_json(a, b, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("argv,name", TEXT_CASES, ids=[n for _, n in TEXT_CASES])
def test_text_stdout_is_byte_identical(capsys, argv, name):
    assert _stdout(capsys, argv) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("argv,name", JSON_CASES, ids=[n for _, n in JSON_CASES])
def test_json_stdout_matches_structurally(capsys, argv, name):
    got = json.loads(_stdout(capsys, argv))
    _assert_same_json(got, json.loads((GOLDEN / name).read_text()))


def test_json_comparison_catches_a_moved_value():
    with pytest.raises(AssertionError):
        _assert_same_json({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-6]})
    with pytest.raises(AssertionError):
        _assert_same_json({"a": True}, {"a": 1})
    _assert_same_json({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-12]})
