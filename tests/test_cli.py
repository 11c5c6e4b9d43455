import argparse
import base64
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galaxyid import cli, codefile
from galaxyid.galaxy import GalaxyParams, theta_of_k
from galaxyid.reports import REPORT_COLUMNS
from galaxyid.seeding import derive_seed
from reference import (
    codeword_table,
    from_arrays,
    node_points,
    reference_violations,
    stack_galaxies,
)

BUILD_ARGS = [
    "--n", "16", "--k", "8", "--b", "0", "--power", "100", "--sigma", "1",
    "--m", "4", "--seed", "7", "--max-roots", "6",
]


def _block(doc, name):
    """A code file's coordinate block as a writable (rows, n) array."""
    raw = base64.b64decode(doc[name])
    return np.frombuffer(raw, dtype="<f8").reshape(-1, doc["params"]["n"]).copy()


def _encoded(table) -> str:
    return base64.b64encode(np.asarray(table, dtype="<f8").tobytes()).decode("ascii")


# the child imports the same galaxyid as this process, installed or not
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def child_env(env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_python(*args, env=None, **kw):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(env), **kw)


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


def test_build_rejects_theta_pi(tmp_path):
    # the rate bounds take theta in (0, pi) only, so build must not write such a code
    out = tmp_path / "x.json"
    res = run_cli("build", "--n", "16", "--k", "8", "--power", "400",
                  "--theta", "3.141592653589793", "--m", "2", "--out", str(out))
    assert res.returncode == 2
    assert "theta must lie in (0, pi), got 3.141592653589793" in res.stderr
    assert not out.exists()


def _address_space(gib):
    """A preexec_fn capping the address space at gib GiB: it runs in the child
    between fork and exec, so the limit is the child's alone."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (gib << 30, gib << 30))


def test_build_past_the_table_cap_exits_2(tmp_path):
    # n = 100000 at k = 8: each root adds 4^2 codewords of 800 kB, so the
    # 84th root would take the table past 1 GiB; the build stops there.
    out = tmp_path / "x.json"
    res = run_cli("build", "--n", "100000", "--power", "4000", "--k", "8", "--out", str(out),
                  env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                  preexec_fn=_address_space(3), timeout=60)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "N = 1344 codewords of n = 100000 coordinates" in res.stderr
    assert f"{1 << 30}-byte table cap" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("n", ["1000000000", "100000000"])
def test_build_refuses_a_first_root_past_the_table_cap_before_allocating(tmp_path, n):
    # one root's subtree alone passes the cap: refused before the first
    # center buffer or candidate of n coordinates is allocated
    out = tmp_path / "x.json"
    res = run_cli("build", "--n", n, "--k", "16", "--power", "1e7", "--max-roots", "1",
                  "--out", str(out), env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                  preexec_fn=_address_space(2), timeout=60)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "error: refusing root 1: N = " in res.stderr
    assert not out.exists()


def test_verify_passes_antipodal_pairs_below_pi(tmp_path):
    # theta a nanoradian below pi: each node holds an antipodal pair, whose
    # angle acos of a dot product put 2e-8 below pi
    out = tmp_path / "pi.json"
    res = run_cli("build", "--n", "16", "--k", "8", "--power", "400", "--theta", "3.1415926525",
                  "--m", "2", "--max-roots", "4", "--out", str(out))
    assert res.returncode == 0, res.stderr
    res = run_cli("verify", "--code", str(out))
    assert res.returncode == 0, res.stdout
    assert "angle: ok" in res.stdout and res.stdout.splitlines()[-1] == "PASS"


def test_verify_pass_exit_zero(code_file):
    res = run_cli("verify", "--code", str(code_file))
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_verify_displaced_leaf_exits_one(tmp_path, code_file):
    # root 0 (depth 1: its points are codewords 0-3) listed as an exception
    # node, with codeword 0 moved
    doc = _exception_edit(0, _set(0, 0, 50.0, add=True))(json.loads(code_file.read_text()))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    res = run_cli("verify", "--code", str(broken), "--json", str(tmp_path / "report.json"))
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["passed"]
    assert report["counts"]["cond1"] > 0 or report["counts"]["cond2"] > 0


def test_verify_json_lists_crowded_violations(tmp_path, code_file):
    # galaxies stacked together, and one leaf pulled toward its neighbour
    code = codefile.load(code_file)
    u = codeword_table(code)
    u[1] += 0.9 * (u[2] - u[1])
    code = stack_galaxies(
        from_arrays(code.params, code.centers, code.counts, u, code.packing_saturated), 0.3
    )
    crowded = tmp_path / "crowded.json"
    codefile.save(code, crowded)
    res = run_cli("verify", "--code", str(crowded), "--json", str(tmp_path / "report.json"))
    assert res.returncode == 1
    report = json.loads((tmp_path / "report.json").read_text())
    cond2, cross = reference_violations(code)
    assert cond2 and cross
    assert report["cond2_violations"] == [{**v, "pair": list(v["pair"])} for v in cond2]
    assert report["cross_galaxy_violations"] == [{**v, "pair": list(v["pair"])} for v in cross]


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


@pytest.mark.parametrize("kind", [["--type1"], ["--type2", "--pairs", "cross-galaxy"]],
                         ids=["type1", "type2"])
@pytest.mark.parametrize("trials", [10**12, 10**21])
def test_simulate_refuses_trials_past_the_cap(code_file, kind, trials):
    # refused before any unit is planned or drawn
    res = run_cli("simulate", "--code", str(code_file), *kind, "--trials", str(trials),
                  timeout=30)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert f"trials must be <= {1 << 30} (the cap on trials per estimate), got {trials}" \
        in res.stderr


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


def _exceptions_edit(**fields):
    """An edit setting fields of the 'exceptions' section."""
    return lambda doc: {**doc, "exceptions": {**doc["exceptions"], **fields}}


def _exception_edit(node, change, count=None):
    """An edit listing node as the only exception, holding change() of its
    points, and by default as many as it holds."""

    def edit(doc):
        points = change(node_points(codefile.deserialize(json.dumps(doc)), node).copy())
        counts = [len(points) if count is None else count]
        return _exceptions_edit(nodes=[node], counts=counts, points=_encoded(points))(doc)

    return edit


def _param_edit(**values):
    """An edit setting values of the params record."""
    return lambda doc: {**doc, "params": {**doc["params"], **values}}


def _block_edit(name, change):
    """An edit replacing a coordinate block by change() of its (rows, n) array."""
    return lambda doc: {**doc, name: _encoded(change(_block(doc, name)))}


def _set(row, column, value, add=False):
    def change(table):
        table[row, column] = table[row, column] + value if add else value
        return table

    return change


def _next_up(row, column):
    """A change moving one coordinate of a table up by one ulp."""

    def change(table):
        table[row, column] = np.nextafter(table[row, column], np.inf)
        return table

    return change


def _v4(doc):
    """The file's code as code file v4 wrote it: counts and every coordinate."""
    code = codefile.deserialize(json.dumps(doc))
    return {"format_version": 4, "params": doc["params"], "achieved": doc["achieved"],
            "counts": code.counts.tolist(), "centers": _encoded(code.centers),
            "codewords": _encoded(codeword_table(code))}


def _repeat_first(rows):
    """An edit of some node's points to `rows` copies of its first row."""
    return lambda points: np.repeat(points[:1], rows, axis=0)


# The depth-2 code has 6 roots of 4 height-1 nodes of 4 codewords, all grown
# from the 4-point prefix: 30 nodes and 96 codewords.  In level order nodes
# 0-5 are the roots and node 6 + 4q + i is node (q, i); node (1, 2) holds
# codewords 24-27.
RANGE = "holds {} points, not 1 to m_per_level = 4"
PREFIX = ("'prefix' block ({} directions) is not the 4-direction witness prefix its params "
          "give here, so the code would not grow as it was built; rebuild the code with "
          "`galaxyid build`")
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: {**doc, "params": _without(doc["params"], "n")}, "params lack 'n'"),
        (lambda doc: {**doc, "params": {**doc["params"], "k": None}}, "param 'k' is not int: None"),
        (lambda doc: _without(doc, "roots"), "needs a 'roots' string"),
        (lambda doc: [doc], "must hold a JSON object, not list"),
        (_exceptions_edit(nodes=[6, 7], counts=[4]), "'exceptions' lists 2 nodes and 1 counts"),
        (lambda doc: {**doc, "prefix": ""}, PREFIX.format(0)),
        (lambda doc: {**doc, "roots": _encoded(_block(doc, "roots").ravel()[:-5])},
         "'roots' block holds 728 bytes, not whole rows of n = 16 float64 coordinates"),
        (_exceptions_edit(nodes=[6], counts=[0]), "exception node 6 " + RANGE.format(0)),
        (lambda doc: {**doc, "roots": ""}, "the code has no root"),
        (_exception_edit(6, _repeat_first(5)), "exception node 6 " + RANGE.format(5)),
        (_exception_edit(12, _repeat_first(5), count=4),
         "exception points hold 5 rows, not the 4 their counts give"),
        (lambda doc: {**doc, "format_version": 1}, "unsupported code file format_version 1"),
        (_exception_edit(12, _set(0, 3, np.nan)), "node 12 has a non-finite coordinate"),
        (_block_edit("roots", _set(0, 0, np.inf)), "node 0 has a non-finite coordinate"),
        (lambda doc: {"format_version": 2, "params": doc["params"], "trees": [],
                      "achieved": doc["achieved"]},
         "unsupported code file format_version 2, expected 5; rebuild the code with "
         "`galaxyid build`"),
        (lambda doc: {**doc, "format_version": 3},
         "unsupported code file format_version 3, expected 5; rebuild the code with "
         "`galaxyid build`"),
        (lambda doc: {**doc, "roots": "!" + doc["roots"][1:]}, "'roots' block is not base64"),
        (_exception_edit(12, _repeat_first(3), count=4),
         "exception points hold 3 rows, not the 4 their counts give"),
        (_exceptions_edit(nodes=[6], counts=[4, 4]), "'exceptions' lists 1 nodes and 2 counts"),
        (_exceptions_edit(nodes=[6], counts=[4.0]),
         "'exceptions' nodes and counts must be 64-bit integers"),
        (_exceptions_edit(nodes=[6], counts=[2**63 - 1]),
         "exception node 6 " + RANGE.format(2**63 - 1)),
        (_exception_edit(0, _set(1, 5, -np.inf)), "node 0 has a non-finite coordinate"),
        (_v4, "unsupported code file format_version 4, expected 5; rebuild the code with "
              "`galaxyid build`"),
        (_exceptions_edit(nodes=[30], counts=[4], points=_encoded(np.ones((4, 16)))),
         "exception node 30 is out of range: the code has 30 nodes"),
        (_exceptions_edit(nodes=[-1], counts=[4], points=_encoded(np.ones((4, 16)))),
         "exception node -1 is out of range"),
        (_exceptions_edit(nodes=[2**70], counts=[1], points=_encoded(np.ones(16))),
         "'exceptions' nodes and counts must be 64-bit integers"),
        (_exceptions_edit(nodes=[6, 6], counts=[4, 4]),
         "'exceptions' nodes must be strictly increasing, got 6 after 6"),
        (_exceptions_edit(nodes=[7, 6], counts=[4, 4]),
         "'exceptions' nodes must be strictly increasing, got 6 after 7"),
        (lambda doc: {**doc, "prefix": _encoded(_block(doc, "prefix").ravel()[:-1])},
         "'prefix' block holds 504 bytes, not whole rows of n = 16 float64 coordinates"),
        (_block_edit("prefix", _repeat_first(5)), PREFIX.format(5)),
        (lambda doc: {**doc, "exceptions": []}, "needs a 'exceptions' object"),
        (_block_edit("prefix", _next_up(2, 7)), PREFIX.format(4)),
        (_param_edit(n=16.5), "param 'n' is not int: 16.5"),
        (_param_edit(n="16"), "param 'n' is not int: '16'"),
        (_param_edit(enforce_cross_galaxy_margin="false"),
         "param 'enforce_cross_galaxy_margin' is not bool: 'false'"),
        (_param_edit(enforce_cross_galaxy_margin=2),
         "param 'enforce_cross_galaxy_margin' is not bool: 2"),
        (_param_edit(power="100"), "param 'power' is not float: '100'"),
        (lambda doc: {**doc, "achieved": {"packing_saturated": "false"}},
         "'achieved.packing_saturated' is not a boolean: 'false'"),
        (lambda doc: {**doc, "achieved": {"packing_saturated": 0}},
         "'achieved.packing_saturated' is not a boolean: 0"),
    ],
    ids=["params-without-n", "null-k", "no-trees", "top-level-list", "fewer-children",
         "no-children", "short-point", "empty-points", "empty-trees", "too-many-points",
         "leaf-children", "format-v1", "nan-point", "inf-root-center", "format-v2",
         "format-v3", "bad-base64", "missing-center-row", "extra-root", "float-count",
         "huge-count", "inf-inner-center", "format-v4", "exception-past-the-end",
         "exception-negative", "exception-huge-index", "exception-duplicated",
         "exception-unsorted", "prefix-partial-row", "prefix-too-many", "exceptions-list",
         "prefix-one-ulp", "fractional-int", "string-int", "string-bool", "int-two-as-bool",
         "string-float", "string-saturated", "int-saturated"],
)
def test_malformed_code_file_exits_two(tmp_path, deep_code_file, edit, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(deep_code_file.read_text()))))
    for command in (["verify"], ["simulate", "--type1", "--trials", "10"], ["rate"]):
        res = run_cli(command[0], "--code", str(bad), *command[1:])
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
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


NUMPY_MA_PROBE = """
import contextlib, io, sys
from galaxyid import cli
code = sys.argv[1]
runs = [
    ["build", *sys.argv[2:], "--out", code],
    ["rate", "--code", code],
    ["verify", "--code", code],
    ["simulate", "--code", code, "--type1", "--trials", "200"],
    ["simulate", "--code", code, "--type2", "--trials", "200"],
    ["simulate", "--code", code, "--type2", "--min-distance", "1", "--trials", "200"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = [m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")]
assert not loaded, loaded
"""


def test_commands_leave_numpy_ma_out(tmp_path):
    # Importing numpy.ma (np.unique does, lazily) costs ~10 ms per CLI process.
    res = run_python("-c", NUMPY_MA_PROBE, str(tmp_path / "code.json"), *BUILD_ARGS)
    assert res.returncode == 0, res.stderr


COMMAND_MODULES_PROBE = """
import contextlib, io, json, sys
from galaxyid import cli
imported = [m for m in ("galaxyid.experiments", "galaxyid.gaussian") if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0, sys.argv
loaded = [m for m in ("concurrent.futures", "statistics", "hashlib") if m in sys.modules]
print(json.dumps([imported, loaded]))
"""


@pytest.mark.parametrize("command, absent", [
    (["rate"], ["concurrent.futures", "statistics", "hashlib"]),
    (["verify"], ["concurrent.futures", "statistics", "hashlib"]),
    (["simulate", "--type1", "--type2", "--trials", "200", "--threads", "1"],
     ["concurrent.futures"]),
], ids=["rate", "verify", "simulate"])
def test_commands_load_standard_modules_on_first_use(code_file, command, absent):
    # Each pulls in more (hashlib loads OpenSSL, 3.5 MB of RSS), so a command
    # loads only those it calls; the benchmark's import probe needs
    # experiments and gaussian.
    res = run_python("-c", COMMAND_MODULES_PROBE, *command, "--code", str(code_file))
    assert res.returncode == 0, res.stderr
    imported, loaded = json.loads(res.stdout)
    assert imported == ["galaxyid.experiments", "galaxyid.gaussian"]
    assert not set(loaded) & set(absent), loaded


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


@pytest.mark.parametrize("n, power", [("1", "1"), ("0", "2"), ("-3", "2")])
def test_rate_formula_mode_rejects_n_below_two(n, power):
    res = run_cli("rate", "--n", n, "--power", power, "--k", "8")
    assert res.returncode == 2, res.stderr
    assert f"error: n must be >= 2, got {n}" in res.stderr
    assert not res.stdout


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


@pytest.mark.parametrize("argv, refused", [
    (["build", *BUILD_ARGS, "--out", "{tmp}/code.json"], ["--k", "5"]),
    (["simulate", "--code", "{code}", "--type1", "--trials", "100"], ["--trials", "0"]),
    (["verify", "--code", "{code}"], ["--code", "{tmp}/missing.json"]),
    (["rate", "--k", "8"], ["--k", "5"]),
    (["sweep", "--n", "16", "--power", "100", "--k-list", "8", "--m", "4", "--max-roots", "2"],
     ["--k-list", ","]),
])
def test_each_command_times_itself_once_unless_it_exits_2(tmp_path, code_file, capsys, argv,
                                                           refused):
    """main prints one [time] line when a command returns, and none on an error."""
    def run(args):
        code = cli.main([a.format(tmp=tmp_path, code=code_file) for a in args])
        return code, [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("[time]")]

    code, timed = run(argv)
    assert code == 0 and len(timed) == 1, timed
    assert timed[0].startswith(f"[time] {argv[0]} ") and timed[0].endswith("s")
    assert run([*argv, *refused]) == (2, [])


def _jsonl(capsys, *argv):
    """Exit code and JSON-lines rows of one in-process CLI run."""
    code = cli.main([*argv, "--format", "jsonl"])
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


SWEEP_ARGS = ["sweep", "--n", "16", "--power", "100", "--m", "4", "--seed", "3",
              "--max-roots", "3", "--probes", "50"]


def test_sweep_rows_in_order_and_reproducible(capsys):
    trials = ["--trials-type1", "2000", "--trials-type2", "2000", "--pairs", "same-planet"]
    code, rows = _jsonl(capsys, *SWEEP_ARGS, "--k-list", "8,16,8", *trials)
    assert code == 0
    assert [(r["k"], r["mc_kind"]) for r in rows] == [
        (8, "type1"), (8, "type2"), (16, "type1"), (16, "type2"), (8, "type1"), (8, "type2")]
    assert not any(r["error"] for r in rows)
    assert rows[:2] == rows[4:]  # duplicate cells give identical rows
    # the cells run on a thread pool: same rows in the same order
    assert _jsonl(capsys, *SWEEP_ARGS, "--k-list", "8,16,8", *trials, "--threads", "4") == (0, rows)


def test_sweep_records_cell_failures(capsys):
    # n = 2: the default m is 4 at k = 64 but 1 at k = 8, which leaves no same-planet pair
    code, rows = _jsonl(capsys, "sweep", "--n", "2", "--power", "100", "--k-list", "64,8",
                        "--max-roots", "2", "--trials-type2", "100", "--pairs", "same-planet")
    assert code == 0
    assert [(r["k"], r["structure_passed"], r["mc_trials"], r["error"]) for r in rows] == [
        (64, True, 100, ""), (8, "", "", "no pairs match strategy 'same-planet'")]
    code, rows = _jsonl(capsys, "sweep", "--n", "8", "--power", "0.1", "--k-list", "8,16",
                        "--m", "2", "--max-roots", "2", "--trials-type1", "100")
    assert code == 0
    assert [r["k"] for r in rows] == [8, 16]
    assert all(r["error"].startswith("power budget too small") for r in rows)


def test_sweep_cell_rows_are_simulate_rows(tmp_path, capsys):
    shared = ["--n", "16", "--b", "0.1", "--power", "100", "--sigma", "1.5", "--m", "3",
              "--seed", "9", "--r-min-coeff", "0.5", "--max-roots", "3", "--probes", "50"]
    code, swept = _jsonl(capsys, "sweep", *shared, "--k-list", "8,16", "--trials-type1", "3000",
                         "--trials-type2", "3000", "--pairs", "same-planet")
    assert code == 0 and len(swept) == 4
    parser = cli.build_parser()
    for k, cell in zip(("8", "16"), (swept[:2], swept[2:])):
        path = tmp_path / f"k{k}.json"
        build = ["build", *shared, "--k", k, "--out", str(path)]
        assert cli.main(build) == 0
        params = cli._params_from_args(parser.parse_args(build))
        seed = derive_seed(9, "cell", cli._params_key(params))
        capsys.readouterr()
        code, simulated = _jsonl(capsys, "simulate", "--code", str(path), "--type1", "--type2",
                                 "--pairs", "same-planet", "--trials", "3000", "--seed", str(seed))
        assert code == 0
        assert [(r["command"], r["structure_passed"]) for r in cell] == [("sweep", True)] * 2
        assert [(r["command"], r["structure_passed"]) for r in simulated] == [("simulate", "")] * 2
        drop = ("command", "structure_passed")
        assert [{c: v for c, v in r.items() if c not in drop} for r in cell] == [
            {c: v for c, v in r.items() if c not in drop} for r in simulated]


@pytest.mark.parametrize("flag", ["--trials-type1", "--trials-type2"])
def test_sweep_rejects_negative_trials_before_building(monkeypatch, capsys, flag):
    monkeypatch.setattr(cli, "build_code", lambda params: pytest.fail("a cell was built"))
    assert cli.main([*SWEEP_ARGS, "--k-list", "8,16", flag, "-5"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert f"error: {flag} must be >= 0, got -5" in err


@pytest.mark.parametrize("flag", ["--trials-type1", "--trials-type2"])
def test_sweep_refuses_trials_past_the_cap_before_building(monkeypatch, capsys, flag):
    monkeypatch.setattr(cli, "build_code", lambda params: pytest.fail("a cell was built"))
    argv = ["sweep", "--n", "16", "--power", "130", "--k-list", "8,9", flag, "2000000000"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert (f"error: {flag}: trials must be <= {1 << 30} (the cap on trials per estimate), "
            "got 2000000000") in err


def test_sweep_rejects_empty_k_list(monkeypatch, capsys):
    """An empty --k-list, or one of more than 1024 values, exits 2 before any
    GalaxyParams is made or any code is built; 1024 values run every cell."""
    monkeypatch.setattr(cli, "build_code", lambda params: pytest.fail("a cell was built"))
    monkeypatch.setattr(cli, "GalaxyParams", lambda **kw: pytest.fail("params were made"))
    for k_list, message in ((",", "--k-list is empty"),
                            (",".join(["8"] * 1025),
                             "--k-list holds 1025 values, more than the cap of 1024")):
        assert cli.main([*SWEEP_ARGS, "--k-list", k_list]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert f"error: {message}" in err
    monkeypatch.undo()
    built = []

    def refuse(params):
        built.append(params.k)
        raise ValueError("not built here")

    monkeypatch.setattr(cli, "build_code", refuse)
    assert cli.main([*SWEEP_ARGS, "--k-list", ",".join(["8"] * 1024)]) == 0
    assert built == [8] * 1024


def test_sweep_rejects_non_integer_k(capsys):
    assert cli.main([*SWEEP_ARGS, "--k-list", "9,x"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert "error: expected --k-list like 8,16,32, got '9,x'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, field", [
    ("--power", "power"), ("--sigma", "sigma"), ("--r-min-coeff", "r_min_coeff")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_build_rejects_nonfinite_params(tmp_path, capsys, flag, field, value):
    out = tmp_path / "code.json"
    argv = ["build", "--n", "16", "--k", "8", "--power", "100", "--m", "2", "--out", str(out)]
    assert cli.main([*argv, flag, value]) == 2
    assert f"error: {field} must be finite and > 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("count", ["553", "0", "-1"])
def test_pair_sample_out_of_range_rejected(code_file, count):
    # the CLI code has 24 codewords: 552 ordered pairs
    res = run_cli("simulate", "--code", str(code_file), "--type2", "--pairs", "exhaustive-sample",
                  "--pair-sample", count, "--trials", "100", timeout=60)
    assert res.returncode == 2
    assert f"sample_count {count} outside [1, 552]" in res.stderr
    assert "Traceback" not in res.stderr


def run_measured(tmp_path, *args, gib=2, timeout=120):
    """run_cli with the child's address space capped at gib GiB, returning
    (exit code, stdout, stderr, the child's own resource usage from os.wait4)."""
    env = child_env({**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    out_path, err_path = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "galaxyid.cli", *args], stdout=out,
                                stderr=err, env=env, preexec_fn=_address_space(gib))
        # os.kill, not proc.kill: Popen would reap the child before wait4 reads its usage
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), err_path.read_text(), usage


@pytest.fixture(scope="module")
def ladder_file(tmp_path_factory):
    """The scale-ladder code at R = 16 roots: n = 256, depth 3, N = 8192."""
    path = tmp_path_factory.mktemp("ladder") / "r16.json"
    res = run_cli("build", "--n", "256", "--k", "16", "--m", "8", "--depth", "3",
                  "--r-min-coeff", "2", "--power", "1e7", "--seed", "5", "--max-roots", "16",
                  "--out", str(path), timeout=120)
    assert res.returncode == 0, res.stderr
    assert "codewords=8192 " in res.stdout
    return path


def test_pair_sample_past_the_cap_rejected(tmp_path, ladder_file):
    # 8192 codewords form 67 M ordered pairs; the sample may not exceed the
    # 20 000 pairs every other mode subsamples to
    args = ["simulate", "--code", str(ladder_file), "--type2", "--pairs", "exhaustive-sample",
            "--trials", "100"]
    rc, out, err, _ = run_measured(tmp_path, *args, "--pair-sample", "20001")
    assert rc == 2, err
    assert "Traceback" not in err
    assert "sample_count 20001 exceeds the cap of 20000 pairs" in err
    assert not out
    rc, out, err, _ = run_measured(tmp_path, *args, "--pair-sample", "20000")
    assert rc == 0, err
    assert len(out.splitlines()) == 2


def test_min_distance_past_the_code_diameter_exits_2_at_once(tmp_path):
    """On the large-n benchmark code (N = 4096), a min_distance whose square
    overflows matches no pair and exits 2 in under a second, with no
    warning.  Each of its cells was a Python-level norm recheck: the command
    ran for minutes."""
    path = tmp_path / "large.json"
    res = run_cli("build", "--n", "64", "--k", "16", "--power", "1e7", "--m", "8", "--depth", "3",
                  "--r-min-coeff", "2", "--max-roots", "8", "--seed", "103", "--out", str(path),
                  timeout=120)
    assert res.returncode == 0, res.stderr
    start = time.perf_counter()
    res = run_cli("simulate", "--code", str(path), "--type2", "--pairs", "cross-galaxy",
                  "--min-distance", "1e300", "--trials", "10", timeout=60)
    elapsed = time.perf_counter() - start
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: no pairs match strategy 'cross-galaxy'\n"
    assert elapsed < 1.0


# A child's ru_maxrss counts the pages it shares with its parent at the fork,
# so the command is started from a small Python process, not from pytest.
MAXRSS_PROBE = """
import os, subprocess, sys
with open(os.devnull, "w") as sink:
    proc = subprocess.Popen([sys.executable, "-m", "galaxyid.cli", *sys.argv[1:]], stdout=sink)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_kb(*args):
    """The ru_maxrss (kB) of one command started from MAXRSS_PROBE."""
    res = run_python("-c", MAXRSS_PROBE, *args, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    rc, peak = map(int, res.stdout.split())
    assert rc == 0, res.stderr
    return peak


def test_simulate_peaks_near_the_loaded_code(ladder_file):
    """Neither estimator holds a dense (N, t, n) direction table (50 MB
    here): each simulate peaks at most 16 MB above rate --code, which only
    loads the code."""
    code = ["--code", str(ladder_file)]
    loaded = peak_kb("rate", *code)
    for kind in (["--type1"], ["--type2", "--pairs", "same-planet"]):
        assert peak_kb("simulate", *code, *kind, "--trials", "20000") - loaded <= 16 << 10, kind


def test_commands_hold_no_codeword_table(ladder_file):
    """The ladder code's codewords would take a 16 MiB table (8192 of n = 256).
    rate --code, verify and both simulate kinds peak less than that above
    formula-mode rate, which loads no code: none holds the table.  Each held
    it, and peaked 21-30 MB above."""
    bare = peak_kb("rate", "--k", "16")
    code = ["--code", str(ladder_file)]
    for command in (["rate", *code], ["verify", *code],
                    ["simulate", *code, "--type1", "--trials", "20000"],
                    ["simulate", *code, "--type2", "--pairs", "same-planet", "--trials", "20000"]):
        assert peak_kb(*command) - bare < 8192 * 256 * 8 >> 10, command  # kB


def test_out_of_memory_exits_2(monkeypatch, capsys):
    # exit 1 is verify's "violations found"; running out of memory is an error
    def exhausted(args):
        return np.empty(1 << 58)  # 2 EiB: numpy's MemoryError, before anything is mapped

    def bare(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    assert cli.main(["verify", "--code", "code.json"]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate 2.00 EiB")
    monkeypatch.setattr(cli, "cmd_verify", bare)
    assert cli.main(["verify", "--code", "code.json"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_depth_past_float_range_exits_2_at_once(tmp_path, code_file):
    # k ** t_bar as an exact int would take longer than any timeout here
    deep = tmp_path / "deep.json"
    doc = json.loads(code_file.read_text())
    deep.write_text(json.dumps({**doc, "params": {**doc["params"], "t_bar": 10**300}}))
    rc, out, err, usage = run_measured(tmp_path, "rate", "--code", str(deep), timeout=20)
    assert rc == 2, err
    assert "Traceback" not in err and not out
    assert "error: t_bar must satisfy (t_bar - 1) log2(k) < 1024, got t_bar = 1000" in err
    assert usage.ru_utime + usage.ru_stime < 1.0


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
def test_min_distance_out_of_range_exits_2(code_file, value):
    # every pair meets a negative threshold: the filter would keep them all
    res = run_cli("simulate", "--code", str(code_file), "--type2", "--pairs", "cross-galaxy",
                  "--min-distance", value, "--trials", "100", timeout=60)
    assert (res.returncode, res.stdout) == (2, "")
    assert f"error: min_distance must be finite and >= 0, got {float(value)}" in res.stderr


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


def test_m_past_64_bits_verifies_and_simulates(tmp_path):
    # the code holds 4 points per node whatever m asks for; m = 2^64 is no uint64
    path = tmp_path / "m64.json"
    build = run_cli("build", "--n", "16", "--k", "8", "--power", "400", "--m", str(2**64),
                    "--max-roots", "2", "--seed", "3", "--out", str(path))
    assert build.returncode == 0, build.stderr
    for command in (["verify"], ["simulate", "--type1", "--trials", "1000"]):
        res = run_cli(command[0], "--code", str(path), *command[1:])
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr


def test_rate_formula_mode_out_of_float_range():
    res = run_cli("rate", "--n", "8192", "--power", "1", "--k", "16")
    assert res.returncode == 0, res.stderr
    row = dict(zip(REPORT_COLUMNS, res.stdout.splitlines()[1].split(",")))
    assert row["m_bound_csw"] == "inf"


@pytest.mark.parametrize("args, message", [
    (["--n", "16", "--power", "0"], "power must be > 0, got 0.0"),
    (["--n", "16", "--power", "-2"], "power must be > 0, got -2.0"),
    (["--n", "16", "--power", "nan"], "power must be > 0, got nan"),
    (["--power", "5"], "--power needs --n"),
    (["--k", "0"], "k must be >= 7, got 0"),  # the last --k wins
    (["--n", "16", "--power", "inf"], "power must be finite, got inf"),
])
def test_rate_formula_mode_rejects_power(args, message):
    res = run_cli("rate", "--k", "16", *args)
    assert res.returncode == 2, res.stderr
    assert f"error: {message}" in res.stderr
    assert not res.stdout


ANALYTIC_COLUMNS = ["n", "k", "b", "power", "theta", "rate_bound_lemma1", "rate_asymptotic",
                    "count_bound_claim1_lo", "count_bound_claim1_hi", "m_bound_csw"]


@pytest.mark.parametrize("n, power, b, k", [("16", "100", "0", "8"), ("64", "1e7", "0.1", "16")])
def test_rate_formula_mode_matches_code_mode(tmp_path, n, power, b, k):
    path = tmp_path / "code.json"
    build = run_cli("build", "--n", n, "--power", power, "--b", b, "--k", k, "--m", "2",
                    "--max-roots", "2", "--out", str(path))
    assert build.returncode == 0, build.stderr
    coded = run_cli("rate", "--code", str(path))
    formula = run_cli("rate", "--n", n, "--power", power, "--b", b, "--k", k)
    assert coded.returncode == formula.returncode == 0, coded.stderr + formula.stderr
    rows = [dict(zip(REPORT_COLUMNS, res.stdout.splitlines()[1].split(",")))
            for res in (coded, formula)]
    assert all(rows[0][c] for c in ANALYTIC_COLUMNS)
    assert [rows[0][c] for c in ANALYTIC_COLUMNS] == [rows[1][c] for c in ANALYTIC_COLUMNS]


@pytest.mark.parametrize("args, message", [
    (["rate", "--k-pow2", "3..1100"], "--k-pow2 exponents must be <= 1023"),
    (["rate", "--k-pow2", "3..100000000"], "--k-pow2 exponents must be <= 1023"),
    (["rate", "--k", str(2**1030)], "error: "),
    (["build", "--n", "16", "--k", str(2**600), "--depth", "2", "--power", "100"], "error: "),
])
def test_k_past_float_range_exits_2(tmp_path, args, message):
    out = tmp_path / "code.json"
    res = run_cli(*args, *(["--out", str(out)] if args[0] == "build" else []), timeout=60)
    assert res.returncode == 2, res.stderr
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert not res.stdout and not out.exists()


# The one build flag that sets each GalaxyParams field.
FIELD_FLAGS = {
    "n": "--n", "power": "--power", "b": "--b", "k": "--k", "theta": "--theta",
    "m_per_level": "--m", "sigma": "--sigma", "master_seed": "--seed", "t_bar": "--depth",
    "r_min_coeff": "--r-min-coeff", "enforce_cross_galaxy_margin": "--no-cross-margin",
    "max_roots": "--max-roots", "saturation_probes": "--probes",
    "max_attempts": "--max-attempts",
}


def _subparser(name: str) -> argparse.ArgumentParser:
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return commands.choices[name]


def test_each_galaxy_field_is_set_by_one_build_flag():
    names = [f.name for f in fields(GalaxyParams)]
    assert sorted(FIELD_FLAGS) == sorted(names)
    dests = Counter(a.dest for a in _subparser("build")._actions)
    assert {name: dests[name] for name in names} == dict.fromkeys(names, 1)
    by_flag = {flag: a.dest for a in _subparser("build")._actions for flag in a.option_strings}
    assert all(by_flag[flag] == name for name, flag in FIELD_FLAGS.items())


@st.composite
def galaxy_fields(draw):
    k = draw(st.integers(7, 64))
    return {
        "n": draw(st.integers(2, 512)),
        "power": draw(st.floats(1e-3, 1e9)),
        "b": draw(st.floats(0.0, 0.249)),
        "k": k,
        "theta": draw(st.none() | st.floats(theta_of_k(k), 3.1)),
        "m_per_level": draw(st.none() | st.integers(1, 64)),
        "sigma": draw(st.floats(1e-3, 1e3)),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "t_bar": draw(st.none() | st.integers(1, 8)),
        "r_min_coeff": draw(st.none() | st.floats(1e-3, 10.0)),
        "enforce_cross_galaxy_margin": draw(st.booleans()),
        "max_roots": draw(st.integers(1, 10**4)),
        "saturation_probes": draw(st.integers(1, 10**4)),
        "max_attempts": draw(st.integers(1, 10**6)),
    }


@settings(max_examples=200, deadline=None)
@given(galaxy_fields())
def test_build_flags_give_the_drawn_params(values):
    argv = ["build", "--out", "-"]
    for name, value in values.items():
        if name == "enforce_cross_galaxy_margin":
            argv += [] if value else [FIELD_FLAGS[name]]
        elif value is not None:
            argv += [FIELD_FLAGS[name], repr(value)]
    args = cli.build_parser().parse_args(argv)
    assert cli._params_from_args(args) == GalaxyParams(**values)


def test_sweep_cells_match_build_params(monkeypatch, capsys):
    shared = ["--n", "64", "--b", "0.1", "--power", "4000", "--sigma", "1.5", "--m", "3",
              "--seed", "9", "--r-min-coeff", "2", "--probes", "50"]
    grid = []
    real_build = cli.build_code
    monkeypatch.setattr(cli, "build_code", lambda params: grid.append(params) or real_build(params))
    monkeypatch.delenv("GALAXYID_THREADS", raising=False)
    code, rows = _jsonl(capsys, "sweep", *shared, "--k-list", "8,16,32", "--trials-type1", "10")
    assert code == 0
    parser = cli.build_parser()
    assert [cell.k for cell in grid] == [8, 16, 32]
    for cell, row in zip(grid, rows):
        build = ["build", *shared, "--k", str(cell.k), "--max-roots", "64", "--out", "-"]
        assert cell == cli._params_from_args(parser.parse_args(build))
        assert row["mc_seed"] == derive_seed(9, "cell", cli._params_key(cell))
    # the one shared default that differs
    assert parser.parse_args(["build", *shared, "--k", "8", "--out", "-"]).max_roots == 256


@pytest.mark.parametrize("command, options", [
    ("build", ["--m M", "--seed SEED", "--depth DEPTH", "--probes PROBES"]),
    ("sweep", ["--m M", "--seed SEED", "--probes PROBES"]),
])
def test_help_shows_flag_metavars(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for option in options:
        assert option in out
