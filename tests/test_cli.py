import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from galaxyid import cli
from galaxyid.reports import REPORT_COLUMNS

BUILD_ARGS = [
    "--n", "16", "--k", "8", "--b", "0", "--power", "100", "--sigma", "1",
    "--m", "4", "--seed", "7", "--max-roots", "6",
]


# the child imports the same galaxyid as this process, installed or not
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_python(*args, env=None, **kw):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kw)


def run_cli(*args, env=None, **kw):
    return run_python("-m", "galaxyid.cli", *args, env=env, **kw)


@pytest.fixture(scope="module")
def code_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "code.json"
    res = run_cli("build", *BUILD_ARGS, "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


def test_build_summary_and_determinism(tmp_path, code_file):
    other = tmp_path / "again.json"
    res = run_cli("build", *BUILD_ARGS, "--out", str(other))
    assert res.returncode == 0
    assert "codewords=" in res.stdout
    assert other.read_bytes() == code_file.read_bytes()


def test_build_rejects_small_k(tmp_path):
    res = run_cli("build", "--n", "16", "--k", "5", "--power", "100",
                  "--out", str(tmp_path / "x.json"))
    assert res.returncode == 2
    assert "k must be >= 7" in res.stderr


def test_verify_pass_exit_zero(code_file):
    res = run_cli("verify", "--code", str(code_file))
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_verify_displaced_leaf_exits_one(tmp_path, code_file):
    doc = json.loads(code_file.read_text())
    pt = doc["trees"][0]["points"][0]
    pt[0] = (float.fromhex(pt[0]) + 50.0).hex()
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    res = run_cli("verify", "--code", str(broken), "--json", str(tmp_path / "report.json"))
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["passed"]
    assert report["counts"]["cond1"] > 0 or report["counts"]["cond2"] > 0


def test_verify_missing_file_exits_two():
    res = run_cli("verify", "--code", "/nonexistent/code.json")
    assert res.returncode == 2


def test_simulate_deterministic_stdout(code_file):
    args = ["simulate", "--code", str(code_file), "--type1", "--trials", "5000", "--seed", "1"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    header = a.stdout.splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)


def test_simulate_type2_row(code_file):
    res = run_cli(
        "simulate", "--code", str(code_file), "--type2", "--pairs", "cross-galaxy",
        "--trials", "5000", "--seed", "2",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 2
    row = dict(zip(REPORT_COLUMNS, lines[1].split(",")))
    assert row["mc_kind"] == "type2"
    assert row["mc_pair_mode"] == "cross-galaxy"
    assert row["mc_trials"] == "5000"


def test_simulate_threads_do_not_change_output(code_file):
    base = ["simulate", "--code", str(code_file), "--type1", "--trials", "20000", "--seed", "3"]
    a = run_cli(*base, "--threads", "1")
    b = run_cli(*base, "--threads", "4")
    assert a.stdout == b.stdout


def test_simulate_zero_trials_rejected(code_file):
    res = run_cli("simulate", "--code", str(code_file), "--type1", "--trials", "0")
    assert res.returncode == 2


def test_simulate_unparsable_code(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("not json")
    res = run_cli("simulate", "--code", str(bad), "--type1", "--trials", "10")
    assert res.returncode == 2


@pytest.fixture(scope="module")
def deep_code_file(tmp_path_factory):
    """A depth-2 code: each root's 4 points center 4 height-1 nodes."""
    path = tmp_path_factory.mktemp("cli") / "deep.json"
    res = run_cli("build", *BUILD_ARGS, "--depth", "2", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _node_edit(path, change):
    """An edit applying change() to the record of node (root, *child indices)."""

    def edit(doc):
        node = doc["trees"][path[0]]
        for i in path[1:]:
            node = node["children"][i]
        change(node)
        return doc

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: {**doc, "params": _without(doc["params"], "n")}, "params lack 'n'"),
        (lambda doc: {**doc, "params": {**doc["params"], "k": None}}, "param 'k' is not int: None"),
        (lambda doc: _without(doc, "trees"), "needs a 'trees' list"),
        (lambda doc: [doc], "must hold a JSON object, not list"),
        (_node_edit((0,), lambda node: node["children"].pop()),
         "node (0,) has height 2, so needs one child per point (4)"),
        (_node_edit((0,), lambda node: node.pop("children")),
         "node (0,) has height 2, so needs one child per point (4)"),
        (_node_edit((0, 1), lambda node: node["points"][0].__delitem__(slice(5, None))),
         "node (0, 1) needs n = 16 coordinates per point"),
        (_node_edit((0, 0), lambda node: node.update(points=[])),
         "node (0, 0) needs a list of 1 to m_per_level = 4 points"),
        (lambda doc: {**doc, "trees": []}, "'trees' list is empty"),
        (_node_edit((0, 0), lambda node: node["points"].append(node["points"][0])),
         "node (0, 0) needs a list of 1 to m_per_level = 4 points"),
        (_node_edit((0, 0), lambda node: node.update(children=[])),
         "node (0, 0) has height 1 but lists children"),
        (lambda doc: {**doc, "format_version": 1}, "unsupported code file format_version 1"),
        (_node_edit((1, 2), lambda node: node["points"][0].__setitem__(3, "nan")),
         "node (1, 2) has a non-finite coordinate"),
        (_node_edit((0,), lambda node: node["center"].__setitem__(0, "inf")),
         "node (0,) has a non-finite coordinate"),
    ],
    ids=["params-without-n", "null-k", "no-trees", "top-level-list", "fewer-children",
         "no-children", "short-point", "empty-points", "empty-trees", "too-many-points",
         "leaf-children", "format-v1", "nan-point", "inf-root-center"],
)
def test_malformed_code_file_exits_two(tmp_path, deep_code_file, edit, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(deep_code_file.read_text()))))
    for command in (["verify"], ["simulate", "--type1", "--trials", "10"], ["rate"]):
        res = run_cli(command[0], "--code", str(bad), *command[1:])
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ") and message in res.stderr, res.stderr


def test_cli_import_leaves_scipy_spatial_out():
    # numpy is the only runtime dependency: no scipy module at all may load.
    res = run_python(
        "-c",
        "import galaxyid.cli, sys; "
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded",
    )
    assert res.returncode == 0, res.stderr


def test_rate_formula_mode():
    res = run_cli("rate", "--b", "0", "--k-pow2", "3..20")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 1 + 18
    rows = [dict(zip(REPORT_COLUMNS, ln.split(","))) for ln in lines[1:]]
    vals = [float(r["rate_asymptotic"]) for r in rows]
    assert vals[0] == pytest.approx(0.375 - 1 / 6, abs=1e-12)  # k = 8
    assert vals[1] == pytest.approx(0.25, abs=1e-12)  # k = 16
    assert vals[-1] == pytest.approx(0.35, abs=1e-12)  # k = 2^20
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_rate_code_mode(code_file):
    res = run_cli("rate", "--code", str(code_file))
    assert res.returncode == 0
    row = dict(zip(REPORT_COLUMNS, res.stdout.splitlines()[1].split(",")))
    assert row["command"] == "rate"
    assert float(row["rate_achieved"]) > 0


def test_rate_rejects_bad_b():
    res = run_cli("rate", "--b", "0.3", "--k-pow2", "3..5")
    assert res.returncode == 2
    assert "b must lie in" in res.stderr


def test_rate_requires_inputs():
    res = run_cli("rate")
    assert res.returncode == 2


def test_sweep_csv(code_file):
    res = run_cli(
        "sweep", "--n", "16", "--power", "100", "--k-list", "8,16", "--m", "4",
        "--seed", "5", "--max-roots", "3", "--trials-type1", "2000",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 3
    ks = [ln.split(",")[REPORT_COLUMNS.index("k")] for ln in lines[1:]]
    assert ks == ["8", "16"]


def test_jsonl_format(code_file):
    res = run_cli(
        "simulate", "--code", str(code_file), "--type1", "--trials", "1000",
        "--seed", "1", "--format", "jsonl",
    )
    row = json.loads(res.stdout.splitlines()[0])
    assert row["schema_version"] == 1
    assert row["mc_kind"] == "type1"


def test_threads_env_honored_only_without_flag(code_file):
    base = ["simulate", "--code", str(code_file), "--type1", "--trials", "10000", "--seed", "9"]
    env_run = run_cli(*base, env={**os.environ, "GALAXYID_THREADS": "4"})
    flag_run = run_cli(*base, "--threads", "1")
    assert env_run.returncode == 0, env_run.stderr
    assert flag_run.returncode == 0, flag_run.stderr
    assert env_run.stdout == flag_run.stdout  # totals identical by unit design

    # Totals cannot tell thread counts apart, so show the variable is read
    # without the flag and ignored with it: a bad value fails only the former.
    bad_env = {**os.environ, "GALAXYID_THREADS": "abc"}
    bad_run = run_cli(*base, env=bad_env)
    assert bad_run.returncode == 2, bad_run.stderr
    assert "error: GALAXYID_THREADS must be an integer >= 1, got 'abc'" in bad_run.stderr
    flag_wins = run_cli(*base, "--threads", "1", env=bad_env)
    assert flag_wins.returncode == 0, flag_wins.stderr
    assert flag_wins.stdout == flag_run.stdout


@pytest.mark.parametrize(
    ("flag", "env", "source"),
    [
        (["--threads", "0"], None, "--threads"),
        (["--threads", "-2"], None, "--threads"),
        ([], "-1", "GALAXYID_THREADS"),
        ([], "2.5", "GALAXYID_THREADS"),
    ],
)
def test_bad_thread_count_names_source(code_file, flag, env, source):
    environ = {**os.environ}
    environ.pop("GALAXYID_THREADS", None)
    if env is not None:
        environ["GALAXYID_THREADS"] = env
    res = run_cli("simulate", "--code", str(code_file), "--type1", "--trials", "100", *flag,
                  env=environ)
    assert res.returncode == 2
    assert f"error: {source} must be an integer >= 1" in res.stderr


def test_thread_resolver_accepts_large_counts(monkeypatch):
    # resolved only; a count this large must never reach a thread pool in a test
    monkeypatch.delenv("GALAXYID_THREADS", raising=False)
    assert cli._threads(argparse.Namespace(threads=None)) == 1
    assert cli._threads(argparse.Namespace(threads=10**9)) == 10**9
    monkeypatch.setenv("GALAXYID_THREADS", str(10**9))
    assert cli._threads(argparse.Namespace(threads=None)) == 10**9
    assert cli._threads(argparse.Namespace(threads=3)) == 3


@pytest.mark.parametrize("count", ["553", "-1"])
def test_pair_sample_out_of_range_rejected(code_file, count):
    # the CLI code has 24 codewords: 552 ordered pairs
    res = run_cli("simulate", "--code", str(code_file), "--type2", "--pairs", "exhaustive-sample",
                  "--pair-sample", count, "--trials", "100", timeout=60)
    assert res.returncode == 2
    assert f"sample_count {count} outside [1, 552]" in res.stderr


@pytest.mark.parametrize("flags, message", [
    (["--pairs", "same-planet", "--min-distance", "1e9"],
     "min_distance applies to cross-galaxy only, not same-planet"),
    (["--pairs", "cross-galaxy", "--pair-sample", "5"],
     "sample_count applies to exhaustive-sample only, not cross-galaxy"),
])
def test_pair_flag_the_mode_ignores_rejected(code_file, flags, message):
    res = run_cli("simulate", "--code", str(code_file), "--type2", *flags, "--trials", "100",
                  timeout=60)
    assert res.returncode == 2
    assert message in res.stderr
    assert not res.stdout


def test_rate_code_mode_out_of_float_range(tmp_path):
    path = tmp_path / "deep.json"
    build = run_cli("build", "--n", "256", "--k", "16", "--power", "1e7", "--m", "2",
                    "--depth", "3", "--r-min-coeff", "2", "--max-roots", "1", "--out", str(path))
    assert build.returncode == 0, build.stderr
    res = run_cli("rate", "--code", str(path))
    assert res.returncode == 0, res.stderr
    row = dict(zip(REPORT_COLUMNS, res.stdout.splitlines()[1].split(",")))
    assert row["count_bound_claim1_hi"] == "inf"


@pytest.mark.parametrize("n, k, points", [(2, 8, 3), (3, 8, 4), (6, 9, 7)])
def test_build_simplex_with_more_points_than_coordinates(tmp_path, n, k, points):
    # obtuse theta: the simplex witness has n + 1 vertices in n coordinates
    path = tmp_path / "simplex.json"
    build = run_cli("build", "--n", str(n), "--k", str(k), "--power", "1e6", "--m", str(points),
                    "--max-roots", "1", "--out", str(path))
    assert build.returncode == 0, build.stderr
    assert f"codewords={points} " in build.stdout
    res = run_cli("verify", "--code", str(path))
    assert res.returncode == 0, res.stdout
    assert "PASS" in res.stdout


def test_rate_formula_mode_out_of_float_range():
    res = run_cli("rate", "--n", "8192", "--power", "1", "--k", "16")
    assert res.returncode == 0, res.stderr
    row = dict(zip(REPORT_COLUMNS, res.stdout.splitlines()[1].split(",")))
    assert row["m_bound_csw"] == "inf"
