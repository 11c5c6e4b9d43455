"""Record the reference N and hit counts that run.py checks outputs against.

Run from the repository root, on a commit whose outputs are known good:

    python3 benchmarks/record.py

For every workload, at full and smoke size, and for every input set, it
builds the code and runs both simulations through the CLI at
``--threads 1``.  A benchmark run at ``--threads 2`` that matches these
counts therefore also matches the single-threaded result.  The counts are
fixed by the determinism contract, so a correct optimisation never needs
them re-recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import run


def record_one(w: run.Workload, index: int, workdir) -> dict:
    _, build_seed, mc_seed = run.input_set(index)
    pipe = run.Pipeline(replace(w, threads=1), build_seed, mc_seed, None, workdir)
    code = str(pipe.code_path)
    rc, out, err, _, _ = run.run_cli(
        ["-m", "galaxyid.cli", "build", *w.build_args, "--seed", str(build_seed), "--out", code],
        workdir, pipe.env)
    if rc != 0 or run.check_build(out, w.codewords):
        raise SystemExit(f"{w.name} set {index}: build failed: {err or out}")
    entry = {"codewords": w.codewords}
    for kind in ("type1", "type2"):
        rc, out, err, _, _ = run.run_cli(["-m", "galaxyid.cli", *pipe.simulate_args(kind)],
                                         workdir, pipe.env)
        rows = run._csv_rows(out)
        if rc != 0 or len(rows) != 1:
            raise SystemExit(f"{w.name} set {index}: simulate {kind} failed: {err}")
        entry[kind] = [rows[0].get(c, "") for c in run.HIT_COLUMNS]
    return entry


def dump(doc: dict) -> str:
    """One line per input set, so a re-recording diffs line by line."""
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(doc.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    doc = {}
    workdir = run.OUT_DIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for smoke in (True, False):
            for name in run.WORKLOADS:
                w = run.workload_for(name, smoke)
                for index in range(run.SEED_SETS):
                    key = run.reference_key(name, smoke, index)
                    doc[key] = record_one(w, index, workdir)
                    print(key, doc[key], file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_FILE.write_text(dump(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
