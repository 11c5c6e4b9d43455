"""End-to-end benchmark of the galaxyid CLI pipeline.

Run from the repository root:

    python3 benchmarks/run.py --workload large-n --seed 3 --seconds 40 --trace 0

One client runs the pipeline a researcher runs, as a closed loop of fresh
CLI processes, one at a time: ``build``, ``rate --code``, ``verify``,
``simulate --type1`` and ``simulate --type2``.  Each command's wall clock
is timed from outside and its peak RSS read with ``os.wait4``.  A fixed
calibration process (``calibrate.py``) runs before every command, and each
wall time is scaled to the calibration speed around it, so the host's
drifting speed cancels out.  Commands repeat until ``--seconds`` is spent,
and every end-to-end metric is a median over its samples.  Every command's
output is checked; a failed check counts against ``ops_ok_frac`` and
``correct`` and never aborts the run.

``--trace 1`` runs the same workload in-process instead and reports the
per-layer metrics (see ``layers.py``).  ``--smoke`` shrinks every workload
and runs each command once, for the benchmark's own tests.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
CALIBRATION = BENCH_DIR / "calibrate.py"
# Timings are reported in seconds at the speed where calibrate.py takes this
# long, about its median on the machine the benchmark was written on.
CAL_REF_S = 0.5
OUT_DIR = BENCH_DIR / "out"

# The workload seed picks one of this many input sets; each set's hit
# counts are recorded in reference.json, so every seed has a reference.
SEED_SETS = 16
MIN_SAMPLES = 2
KINDS = ("build", "rate", "verify", "type1", "type2")
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # nothing starts that could end after this


@dataclass(frozen=True)
class Workload:
    name: str
    build_args: tuple  # `galaxyid build` flags other than --seed and --out
    codewords: int  # N; fixed by the --max-roots cap, whatever the seed
    type1_trials: int
    type2_trials: int
    pairs: str
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        # k=8 makes theta obtuse, so every node burns max_attempts rejections
        # in spherical.generate: the one workload where construction dominates.
        Workload(
            "wide-build",
            ("--n", "64", "--k", "8", "--power", "4000", "--max-roots", "32"),
            codewords=128,
            type1_trials=400_000,
            type2_trials=200_000,
            pairs="same-planet",
            threads=1,
        ),
        # N=4096: O(N^2) pair selection and verification, and about two rows
        # per decide() call.  n=64, not 256: every n=256 depth-3 code makes
        # `rate --code` and `simulate` crash (OverflowError in
        # galaxy.center_count_bounds), see README.md.
        Workload(
            "large-n",
            ("--n", "64", "--k", "16", "--power", "1e7", "--m", "8", "--depth", "3",
             "--r-min-coeff", "2", "--max-roots", "8"),
            codewords=4096,
            type1_trials=200_000,
            type2_trials=60_000,
            pairs="cross-galaxy",
            threads=1,
        ),
        # The README code, N=32: hundreds of rows per decide() call, so RNG
        # draws dominate, on the threaded path.
        Workload(
            "small-mc",
            ("--n", "100", "--k", "8", "--power", "400", "--m", "4", "--r-min-coeff", "2",
             "--max-roots", "8"),
            codewords=32,
            type1_trials=1_000_000,
            type2_trials=500_000,
            pairs="same-planet",
            threads=min(2, len(os.sched_getaffinity(0))),
        ),
    )
}

# Reduced sizes for the smoke run: same code paths, seconds instead of minutes.
SMOKE = {
    "wide-build": dict(
        build_args=("--n", "64", "--k", "8", "--power", "4000", "--max-roots", "2"),
        codewords=8, type1_trials=20_000, type2_trials=10_000),
    "large-n": dict(
        build_args=("--n", "64", "--k", "16", "--power", "1e7", "--m", "4", "--depth", "3",
                    "--r-min-coeff", "2", "--max-roots", "2"),
        codewords=128, type1_trials=20_000, type2_trials=10_000),
    "small-mc": dict(type1_trials=40_000, type2_trials=20_000),
}


def workload_for(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w


def input_set(seed: int) -> tuple[int, int, int]:
    """(set index, build seed, Monte Carlo seed) for a workload seed."""
    index = seed % SEED_SETS
    return index, 100 + index, 200 + index


def reference_key(name: str, smoke: bool, index: int) -> str:
    return f"{'smoke' if smoke else 'full'}/{name}/{index}"


def load_reference(name: str, smoke: bool, index: int) -> dict | None:
    """Recorded N and hit counts for one input set, or None if absent."""
    try:
        doc = json.loads(REFERENCE_FILE.read_text())
    except (OSError, ValueError):
        return None
    return doc.get(reference_key(name, smoke, index))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("GALAXYID_THREADS", None)  # thread counts come from --threads only
    # BLAS stays single-threaded, so no command runs more threads than --threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def _csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def check_build(stdout: str, codewords: int) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("roots="):
            got = dict(kv.split("=", 1) for kv in line.split())
            if got.get("codewords") == str(codewords):
                return None
            return f"build reported codewords={got.get('codewords')}, expected {codewords}"
    return "build printed no roots=/codewords= line"


def check_rate(stdout: str, codewords: int) -> str | None:
    rows = _csv_rows(stdout)
    if len(rows) != 1:
        return f"rate printed {len(rows)} rows, expected 1"
    if rows[0].get("num_codewords") != str(codewords):
        return f"rate num_codewords={rows[0].get('num_codewords')}, expected {codewords}"
    return None


def check_verify(stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "PASS":
        return f"verify did not print PASS (last line {lines[-1] if lines else ''!r})"
    return None


HIT_COLUMNS = ("mc_hits", "mc_shell_hits", "mc_decisive_slab_hits")


def check_simulate(stdout: str, trials: int, expected: list | None) -> str | None:
    """Hit counts must equal the recorded ones (the determinism contract)."""
    rows = _csv_rows(stdout)
    if len(rows) != 1:
        return f"simulate printed {len(rows)} rows, expected 1"
    row = rows[0]
    if row.get("mc_trials") != str(trials):
        return f"simulate mc_trials={row.get('mc_trials')}, expected {trials}"
    return hits_error([row.get(c, "") for c in HIT_COLUMNS], expected)


def hits_error(got: list, expected: list | None) -> str | None:
    if expected is None:
        return f"no reference hit counts recorded; got {got}"
    return None if got == expected else f"hit counts {got} differ from reference {expected}"


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    wall_s: float
    maxrss_mb: float
    error: str | None
    start_s: float = 0.0  # time.perf_counter() when the command started

    @property
    def ok(self) -> bool:
        return self.error is None


def run_cli(args: list, workdir: Path, env: dict):
    """Run one CLI process; return (exit code, stdout, stderr, wall s, maxrss MB)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)
        # os.kill, not proc.kill: Popen.kill polls and could reap the child first.
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


@dataclass
class Pipeline:
    workload: Workload
    build_seed: int
    mc_seed: int
    reference: dict | None
    workdir: Path
    env: dict = field(default_factory=child_env)
    ops: list = field(default_factory=list)
    cals: list = field(default_factory=list)  # (start, wall) of each calibration

    @property
    def code_path(self) -> Path:
        return self.workdir / "code.json"

    def cli(self, kind: str, args: list, check) -> Op:
        start = time.perf_counter()
        rc, stdout, stderr, wall, rss = run_cli(["-m", "galaxyid.cli", *args], self.workdir, self.env)
        error = f"exit code {rc}: {stderr.strip()[-300:]}" if rc != 0 else check(stdout)
        if error:
            print(f"[{kind}] FAILED: {error}", file=sys.stderr)
        self.ops.append(Op(kind, wall, rss, error, start))
        return self.ops[-1]

    def warm_up(self) -> None:
        """Compile bytecode and fill the file cache before anything is timed."""
        self.cli("warm-up", ["--help"], lambda out: None)
        self.calibrate()

    def calibrate(self) -> None:
        """Time one calibration process; its failure is the harness's, so it raises."""
        start = time.perf_counter()
        rc, _, stderr, wall, _ = run_cli([str(CALIBRATION)], self.workdir, self.env)
        if rc != 0:
            raise RuntimeError(f"calibration exited {rc}: {stderr.strip()[-300:]}")
        self.cals.append((start, wall))

    def scaled_wall(self, op: Op) -> float:
        """Wall time at the reference speed.

        The machine's speed during the command is the mean of the
        calibrations that ran within one command-length of it, the ones just
        before and after it always among them: a short command follows fast
        drift, a long one averages over more calibrations."""
        lo, hi = op.start_s - op.wall_s, op.start_s + 2 * op.wall_s
        near = [wall for start, wall in self.cals if start + wall >= lo and start <= hi]
        return op.wall_s * CAL_REF_S / statistics.mean(near)

    def simulate_args(self, kind: str) -> list:
        w = self.workload
        args = ["simulate", "--code", str(self.code_path), "--seed", str(self.mc_seed),
                "--threads", str(w.threads)]
        if kind == "type1":
            return args + ["--type1", "--trials", str(w.type1_trials)]
        return args + ["--type2", "--pairs", w.pairs, "--trials", str(w.type2_trials)]

    def expected_hits(self, kind: str) -> list | None:
        return None if self.reference is None else self.reference[kind]

    def run(self, kind: str) -> Op:
        """Calibrate, then run one command of the pipeline and check its output."""
        self.calibrate()
        w = self.workload
        code = str(self.code_path)
        if kind == "build":
            args = ["build", *w.build_args, "--seed", str(self.build_seed), "--out", code]
            check = lambda out: check_build(out, w.codewords)  # noqa: E731
        elif kind == "rate":
            args = ["rate", "--code", code]
            check = lambda out: check_rate(out, w.codewords)  # noqa: E731
        elif kind == "verify":
            args, check = ["verify", "--code", code], check_verify
        else:
            trials = w.type1_trials if kind == "type1" else w.type2_trials
            args = self.simulate_args(kind)
            check = lambda out: check_simulate(out, trials, self.expected_hits(kind))  # noqa: E731
        return self.cli(kind, args, check)

    def metrics(self) -> dict:
        def walls(kind):
            return [self.scaled_wall(op) for op in self.ops if op.kind == kind and op.ok]

        def median(values):
            return statistics.median(values) if values else None

        w = self.workload
        return {
            "setup_s": (median(walls("rate")), "s"),
            "build_s": (median(walls("build")), "s"),
            "verify_s": (median(walls("verify")), "s"),
            "type1_trials_per_s": (median([w.type1_trials / t for t in walls("type1")]), "trials/s"),
            "type2_trials_per_s": (median([w.type2_trials / t for t in walls("type2")]), "trials/s"),
            "peak_rss_mb": (max((op.maxrss_mb for op in self.ops), default=None), "MB"),
            "ops_ok_frac": (sum(op.ok for op in self.ops) / len(self.ops), "ratio"),
        }


def run_end_to_end(w: Workload, build_seed, mc_seed, reference, workdir, seconds, smoke) -> dict:
    """Closed loop of CLI commands until --seconds is spent.

    Single commands jitter, so medians need many samples spread over the
    run.  Every command first gets MIN_SAMPLES runs (build first: the
    others read its code file); after that the next command is the one
    with the least wall time so far, so cheap commands are sampled often
    and no command takes the whole run.  The run stops before a command
    that would end after --seconds.  A calibration runs before every
    command and once more after the last.
    """
    pipe = Pipeline(w, build_seed, mc_seed, reference, workdir)
    pipe.warm_up()
    min_samples = 1 if smoke else MIN_SAMPLES
    spent = dict.fromkeys(KINDS, 0.0)
    count = dict.fromkeys(KINDS, 0)
    last = dict.fromkeys(KINDS, 0.0)
    t0 = time.perf_counter()
    while True:
        kind = min(KINDS, key=lambda k: (count[k] >= min_samples, spent[k]))
        elapsed = time.perf_counter() - t0
        if count[kind] >= min_samples and (smoke or elapsed + last[kind] > seconds):
            break
        if elapsed + last[kind] > RUN_LIMIT_S:
            break
        op = pipe.run(kind)
        spent[kind] += op.wall_s
        count[kind] += 1
        # what the next such command costs, with its calibration and the final one
        last[kind] = op.wall_s + 2 * pipe.cals[-1][1]
    pipe.calibrate()
    print(f"{len(pipe.ops)} commands in {time.perf_counter() - t0:.1f} s; wall s, scaled to "
          f"calibrate.py = {CAL_REF_S} s in brackets", file=sys.stderr)
    for kind in KINDS:
        ops = [op for op in pipe.ops if op.kind == kind]
        walls = " ".join(f"{op.wall_s:.3f} ({pipe.scaled_wall(op):.3f})" for op in ops)
        print(f"  {kind:6s} {walls}", file=sys.stderr)
    print(f"  calibration: {' '.join(f'{wall:.3f}' for _, wall in pipe.cals)}", file=sys.stderr)
    return result(pipe.ops, pipe.metrics())


def result(ops: list, metrics: dict) -> dict:
    failed = sum(not op.ok for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, one sample each")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "galaxyid" / "cli.py").is_file():
        print(f"error: no galaxyid sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    w = workload_for(args.workload, args.smoke)
    index, build_seed, mc_seed = input_set(args.seed)
    reference = load_reference(w.name, args.smoke, index)
    if reference is None:
        print(f"warning: no reference hit counts for input set {index}", file=sys.stderr)
    print(f"workload={w.name} input_set={index} build_seed={build_seed} mc_seed={mc_seed} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]}", file=sys.stderr)

    workdir = OUT_DIR / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            sys.path.insert(0, str(ROOT / "src"))
            import layers

            trace_path = OUT_DIR / f"trace-{w.name}-{args.seed}.jsonl.gz"
            res = layers.run_traced(w, build_seed, mc_seed, reference, workdir, args.seconds,
                                    args.smoke, trace_path)
        else:
            res = run_end_to_end(w, build_seed, mc_seed, reference, workdir, args.seconds,
                                 args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
