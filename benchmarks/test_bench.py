"""Smoke tests for the benchmark harness, kept apart from the package's tests.

Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py

Each workload runs at reduced size, untraced and traced, with every output
check; the result must be correct and name exactly the metrics that
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=BENCH_DIR.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / SPEC["command"][1]), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0, proc.stderr
    assert res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_every_seed_has_reference_counts():
    for name in run.WORKLOADS:
        for smoke in (False, True):
            for index in range(run.SEED_SETS):
                ref = run.load_reference(name, smoke, index)
                assert ref is not None, (name, smoke, index)
                assert ref["codewords"] == run.workload_for(name, smoke).codewords


def test_scaled_wall_uses_calibrations_within_one_command_length(tmp_path):
    pipe = run.Pipeline(run.workload_for("small-mc", True), 100, 200, None, tmp_path)
    pipe.cals = [(0.0, 0.4), (9.0, 0.5), (10.0, 0.5), (12.0, 1.0), (20.0, 0.4)]
    op = run.Op("rate", 1.5, 0.0, None, 10.5)  # ran from 10.5 to 12.0
    # the calibrations at 9, 10 and 12 fall within 1.5 s of it: mean 2/3 s
    assert pipe.scaled_wall(op) == pytest.approx(1.5 * run.CAL_REF_S / (2 / 3))


def test_failed_check_is_counted_not_raised(tmp_path):
    w = run.workload_for("small-mc", smoke=True)
    _, build_seed, mc_seed = run.input_set(0)
    good = run.load_reference(w.name, True, 0)
    bad = dict(good, type1=["-1", "", ""])
    pipe = run.Pipeline(w, build_seed, mc_seed, bad, tmp_path)
    for kind in run.KINDS:
        pipe.run(kind)
    failed = [op.kind for op in pipe.ops if not op.ok]
    assert failed == ["type1"]
    assert pipe.metrics()["ops_ok_frac"][0] == pytest.approx(4 / 5)


def test_output_checks_reject_wrong_outputs():
    assert run.check_build("roots=8 codewords=31 t_bar=1\n", 32)
    assert run.check_build("roots=8 codewords=32 t_bar=1\n", 32) is None
    assert run.check_verify("cond1: ok\nFAIL\n")
    assert run.check_verify("cond1: ok\nPASS\n") is None
    header = ",".join(["mc_trials", *run.HIT_COLUMNS])
    out = f"{header}\r\n100,7,,\r\n"
    assert run.check_simulate(out, 100, ["7", "", ""]) is None
    assert run.check_simulate(out, 100, ["8", "", ""])
    assert run.check_simulate(out, 99, ["7", "", ""])
    assert run.check_simulate(out, 100, None)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "small-mc", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
