"""Per-layer run of one workload: the CLI pipeline's library calls, in-process.

Each pass runs the pipeline twice, untraced and then traced: build the code,
serialize and write it, read and deserialize it, verify it, and run both
Monte Carlo estimates.  The traced copy wraps the module attributes that
the callers look up at call time, so the program itself is not changed:

* public entry points the harness calls: ``galaxy.build_code``,
  ``codefile.serialize``/``deserialize``, ``experiments.verify_structure``,
  ``experiments.estimate_type1``/``estimate_type2``;
* layers reached only inside those calls: ``galaxy.pack_centers``,
  ``galaxy.build_galaxy``, ``galaxy.flatten_codewords``,
  ``spherical.generate``, ``experiments.cdist``,
  ``experiments.min_pairwise_angle``, ``experiments.select_pairs``,
  ``experiments._CodewordKernel.decide``, and ``experiments.meet_depth``
  (called millions of times, so counted without spans).

Spans (id, parent, name, start, end, run id, thread) stay in memory and are
written to ``benchmarks/out/`` when the run ends.  RNG cost is measured by
replaying the unit plan's draws.  Counts marked ``.computed`` in their unit
are derived from the unit plan, N, n and t_bar, not measured.  Times are
medians over the traced passes; the difference between the traced and
untraced passes is reported as the tracing overhead.
"""

from __future__ import annotations

import gzip
import itertools
import json
import re
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

import run
from galaxyid import cli, codefile, experiments, galaxy, spherical
from galaxyid.channel import DecoderParams
from galaxyid.seeding import derive_seed

# A code-file coordinate is '"0x1.<13 hex digits>p+<exp>",': about 25 bytes.
HEX_COORD_BYTES = 25
IMPORT_SAMPLES = 5


class Tracer:
    """Wraps module attributes with span-recording shims and restores them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, run id, thread)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, path: str, name: str, on_result=None, spans: bool = True) -> None:
        """Replace module.<path> by a shim that records a span (or a count) per call."""
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        tracer = self

        if not spans:
            def shim(*args, **kwargs):
                tracer.counts[name] += 1
                return orig(*args, **kwargs)
        else:
            def shim(*args, **kwargs):
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                t0 = time.perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(
                        (sid, parent, name, t0, t1, tracer.run_id, threading.get_ident())
                    )
                if on_result is not None:
                    on_result(result)
                return result

        setattr(owner, attr, shim)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def total_s(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def self_s(self, name: str) -> float:
        """Summed duration of the named spans minus the time their children cover."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1, *_ in self.spans:
            if parent:
                children[parent].append((t0, t1))
        total = 0.0
        for sid, _, span_name, t0, t1, *_ in self.spans:
            if span_name != name:
                continue
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            total += (t1 - t0) - covered
        return total


def install(tracer: Tracer) -> None:
    def generated(code):
        tracer.counts["spherical.points_accepted"] += len(code)
        tracer.counts["spherical.saturated_nodes"] += bool(code.saturated)

    def selected(pairs):
        tracer.counts["experiments.pairs_kept"] += len(pairs)

    for module, path, kwargs in (
        (galaxy, "build_code", {}),
        (galaxy, "pack_centers", {}),
        (galaxy, "build_galaxy", {}),
        (galaxy, "flatten_codewords", {}),
        (spherical, "generate", {"on_result": generated}),
        (codefile, "serialize", {}),
        (codefile, "deserialize", {}),
        (experiments, "verify_structure", {}),
        (experiments, "cdist", {}),
        (experiments, "min_pairwise_angle", {}),
        (experiments, "estimate_type1", {}),
        (experiments, "estimate_type2", {}),
        (experiments, "select_pairs", {"on_result": selected}),
        (experiments, "_CodewordKernel.decide", {}),
        (experiments, "meet_depth", {"spans": False}),
    ):
        short = module.__name__.rsplit(".", 1)[1]
        tracer.wrap(module, path, f"{short}.{path.rsplit('.', 1)[-1]}", **kwargs)


# ---------------------------------------------------------------------------
# one in-process pipeline pass
# ---------------------------------------------------------------------------


def build_params(w: run.Workload, build_seed: int) -> galaxy.GalaxyParams:
    """The GalaxyParams `galaxyid build` would use, parsed by the CLI's own parser."""
    args = cli.build_parser().parse_args(
        ["build", *w.build_args, "--seed", str(build_seed), "--out", "-"]
    )
    return cli._params_from_args(args)


def hits_of(est) -> list:
    return [str(est.hits), str(est.components.get("shell_hits", "")),
            str(est.components.get("decisive_slab_hits", ""))]


def run_pass(w, params, mc_seed, reference, workdir, tracer=None):
    """Run the pipeline once; return (ops, per-op seconds, facts about the code)."""
    ops, seconds, facts = [], {}, {}
    path = workdir / "code.json"

    def step(kind, fn, check):
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        out = fn()
        seconds[kind] = time.perf_counter() - t0
        error = check(out)
        if error:
            print(f"[{kind}] FAILED: {error}", file=sys.stderr)
        ops.append(run.Op(kind, seconds[kind], 0.0, error))
        return out

    def build():
        code = galaxy.build_code(params)
        facts.update(codewords=len(code.codewords), roots=len(code.roots))
        return code

    def write(code):
        text = codefile.serialize(code)
        path.write_text(text)
        facts["bytes_written"] = len(text.encode())

    def size_error(code):
        if len(code.codewords) != w.codewords:
            return f"code has {len(code.codewords)} codewords, expected {w.codewords}"
        return None

    expected = (lambda kind: None) if reference is None else reference.get
    kinds = ["build", "write", "load", "verify", "type1", "type2"]
    try:
        code = step("build", build, size_error)
        step("write", lambda: write(code), lambda _: None)
        del code
        code = step("load", lambda: codefile.deserialize(path.read_text()), size_error)
        step("verify", lambda: experiments.verify_structure(code),
             lambda r: None if r.passed else f"verify failed: {r.counts()}")
        dec = DecoderParams.from_galaxy(code.params)
        step("type1",
             lambda: experiments.estimate_type1(code, dec, w.type1_trials, mc_seed, w.threads),
             lambda est: run.hits_error(hits_of(est), expected("type1")))
        strategy = experiments.PairStrategy(mode=w.pairs)
        step("type2",
             lambda: experiments.estimate_type2(code, strategy, dec, w.type2_trials, mc_seed,
                                                w.threads),
             lambda est: run.hits_error(hits_of(est), expected("type2")))
        facts.update(n=code.params.n, t_bar=code.params.t_bar, m=code.params.m_per_level)
    except Exception:  # a crash fails this pass's remaining ops, not the benchmark
        traceback.print_exc()
        for kind in kinds[len(ops):]:
            ops.append(run.Op(kind, float("nan"), 0.0, "crashed"))
    return ops, seconds, facts


# ---------------------------------------------------------------------------
# measurements around the passes
# ---------------------------------------------------------------------------


def replay_draws(kind: str, trials: int, seed: int, n: int) -> float:
    """Seconds to redraw the unit plan's noise, exactly as the estimators do."""
    t0 = time.perf_counter()
    for unit, start in enumerate(range(0, trials, experiments.UNIT_SIZE)):
        size = min(experiments.UNIT_SIZE, trials - start)
        np.random.default_rng(derive_seed(seed, kind, unit)).standard_normal((size, n))
    return time.perf_counter() - t0


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_times(ops: list) -> dict:
    """Cumulative import seconds from `python -X importtime -c 'import galaxyid.cli'`."""
    samples = defaultdict(list)
    env = run.child_env()
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import galaxyid.cli"],
                              capture_output=True, text=True, env=env, timeout=run.CHILD_TIMEOUT_S)
        found = {}
        for cumulative, indent, module in _IMPORT_LINE.findall(proc.stderr):
            us = int(cumulative) / 1e6
            if len(indent) == 1 and module in ("galaxyid", "galaxyid.cli"):
                found["cli"] = found.get("cli", 0.0) + us  # the package, then the CLI module
            elif module in ("galaxyid.gaussian", "galaxyid.experiments"):
                found.setdefault(module.split(".")[1], us)
        error = None if proc.returncode == 0 and len(found) == 3 else (
            f"importtime exit {proc.returncode}, parsed {sorted(found)}")
        ops.append(run.Op("import", float("nan"), 0.0, error))
        for key, value in found.items():
            samples[key].append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def computed_counts(w: run.Workload, facts: dict, pairs_kept: int) -> dict:
    """Work the current algorithms do, derived from the unit plan, N, n and t_bar."""
    n_cw, n, t_bar, roots = facts["codewords"], facts["n"], facts["t_bar"], facts["roots"]

    def unit_sizes(trials):
        return [min(experiments.UNIT_SIZE, trials - s)
                for s in range(0, trials, experiments.UNIT_SIZE)]

    # One decide() per distinct codeword (type 1) or pair (type 2) in a unit.
    calls = (sum(min(size, n_cw) for size in unit_sizes(w.type1_trials))
             + sum(min(size, max(pairs_kept, 1)) for size in unit_sizes(w.type2_trials)))
    rows = w.type1_trials + w.type2_trials
    # Each node stores its center and its points; m is the achieved fan-out.
    fanout = (n_cw / roots) ** (1.0 / t_bar)
    per_tree = sum(fanout**h for h in range(t_bar)) + sum(fanout**h for h in range(1, t_bar + 1))
    return {
        "decide_calls": calls,
        "decide_rows": rows,
        "rows_per_decide": rows / calls,
        # |d|^2 is 2n flops and the projections on t_bar directions 2n*t_bar.
        "decide_flops": rows * 2 * n * (t_bar + 1),
        "noise_bytes": rows * n * 8,
        "pairs_enumerated": n_cw * (n_cw - 1),
        "codefile_bytes": round(n * roots * (1 + per_tree)) * HEX_COORD_BYTES,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def run_traced(w, build_seed, mc_seed, reference, workdir, seconds, smoke, trace_path):
    params = build_params(w, build_seed)
    t_start = time.perf_counter()
    ops: list = []
    imports = import_times(ops)
    samples = defaultdict(list)
    all_spans = []
    passes = 0
    while True:
        p0 = time.perf_counter()
        plain_ops, plain_s, _ = run_pass(w, params, mc_seed, reference, workdir)
        tracer = Tracer()
        install(tracer)
        try:
            traced_ops, traced_s, facts = run_pass(w, params, mc_seed, reference, workdir, tracer)
        finally:
            tracer.restore()
        ops += plain_ops + traced_ops
        passes += 1
        all_spans += [(passes,) + s for s in tracer.spans]
        if "n" in facts:
            rng1 = replay_draws("type1", w.type1_trials, mc_seed, facts["n"])
            rng2 = replay_draws("type2", w.type2_trials, mc_seed, facts["n"])
            for name, value in pass_metrics(w, tracer, facts, rng1, rng2,
                                            plain_s, traced_s).items():
                samples[name].append(value)
        # Stop before a pass that would end after --seconds.
        now = time.perf_counter()
        if smoke or now - t_start + (now - p0) > min(seconds, run.RUN_LIMIT_S):
            break
    print(f"{passes} traced passes in {time.perf_counter() - t_start:.1f} s", file=sys.stderr)
    if tracer.missing:
        print(f"warning: not found, not traced: {tracer.missing}", file=sys.stderr)
    write_spans(all_spans, trace_path)

    metrics = {
        "cli.import_s": (imports.get("cli"), "s"),
        "gaussian.import_s": (imports.get("gaussian"), "s"),
        "experiments.import_s": (imports.get("experiments"), "s"),
    }
    for name, unit in METRIC_UNITS.items():
        values = samples.get(name)
        metrics[name] = (statistics.median(values) if values else None, unit)
    return run.result(ops, metrics)


def pass_metrics(w, tracer, facts, rng1, rng2, plain_s, traced_s) -> dict:
    c = tracer.counts
    t = tracer.total_s
    kept = c["experiments.pairs_kept"]
    comp = computed_counts(w, facts, kept)
    gen_calls = tracer.calls("spherical.generate")
    requested = gen_calls * facts["m"]
    untraced = sum(plain_s.values())
    traced = sum(traced_s.values())
    return {
        "codefile.serialize_s": t("codefile.serialize"),
        "codefile.deserialize_s": t("codefile.deserialize"),
        "codefile.bytes": comp["codefile_bytes"],
        "codefile.bytes_written": facts["bytes_written"],
        "galaxy.build_code_s": t("galaxy.build_code"),
        "galaxy.pack_centers_s": t("galaxy.pack_centers"),
        "galaxy.build_galaxy_s": t("galaxy.build_galaxy"),
        "galaxy.flatten_codewords_s": t("galaxy.flatten_codewords"),
        "galaxy.roots": facts["roots"],
        "galaxy.codewords": facts["codewords"],
        "spherical.generate_s": t("spherical.generate"),
        "spherical.generate_calls": gen_calls,
        "spherical.saturated_nodes": c["spherical.saturated_nodes"],
        "spherical.points_accepted": c["spherical.points_accepted"],
        "spherical.points_requested": requested,
        "spherical.fill_ratio": _ratio(c["spherical.points_accepted"], requested),
        "experiments.verify_structure_s": t("experiments.verify_structure"),
        "experiments.cdist_s": t("experiments.cdist"),
        "experiments.min_pairwise_angle_s": t("experiments.min_pairwise_angle"),
        "experiments.select_pairs_s": t("experiments.select_pairs"),
        "experiments.meet_depth_calls": c["experiments.meet_depth"],
        "experiments.pairs_enumerated": comp["pairs_enumerated"],
        "experiments.pairs_kept": kept,
        "experiments.estimate_type1_s": t("experiments.estimate_type1"),
        "experiments.estimate_type2_s": t("experiments.estimate_type2"),
        "experiments.rng_draw_s": rng1 + rng2,
        "experiments.rng_draw_type1_s": rng1,
        "experiments.decide_self_s": tracer.self_s("experiments.decide"),
        "experiments.decide_calls": comp["decide_calls"],
        "experiments.decide_calls_traced": tracer.calls("experiments.decide"),
        "experiments.decide_rows": comp["decide_rows"],
        "experiments.rows_per_decide": comp["rows_per_decide"],
        "experiments.decide_flops": comp["decide_flops"],
        "experiments.noise_bytes": comp["noise_bytes"],
        "share.generate_of_build": _ratio(t("spherical.generate"), t("galaxy.build_code")),
        "share.select_pairs_of_type2": _ratio(t("experiments.select_pairs"),
                                              t("experiments.estimate_type2")),
        "share.rng_of_type1": _ratio(rng1, t("experiments.estimate_type1")),
        "trace.untraced_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": _ratio(traced - untraced, untraced),
        "trace.spans": len(tracer.spans),
    }


# Unit of every per-pass metric; ".computed" marks counts derived, not measured.
METRIC_UNITS = {
    "codefile.serialize_s": "s",
    "codefile.deserialize_s": "s",
    "codefile.bytes": "B.computed",
    "codefile.bytes_written": "B",
    "galaxy.build_code_s": "s",
    "galaxy.pack_centers_s": "s",
    "galaxy.build_galaxy_s": "s",
    "galaxy.flatten_codewords_s": "s",
    "galaxy.roots": "count",
    "galaxy.codewords": "count",
    "spherical.generate_s": "s",
    "spherical.generate_calls": "count",
    "spherical.saturated_nodes": "count",
    "spherical.points_accepted": "count",
    "spherical.points_requested": "count",
    "spherical.fill_ratio": "ratio",
    "experiments.verify_structure_s": "s",
    "experiments.cdist_s": "s",
    "experiments.min_pairwise_angle_s": "s",
    "experiments.select_pairs_s": "s",
    "experiments.meet_depth_calls": "count",
    "experiments.pairs_enumerated": "count.computed",
    "experiments.pairs_kept": "count",
    "experiments.estimate_type1_s": "s",
    "experiments.estimate_type2_s": "s",
    "experiments.rng_draw_s": "s",
    "experiments.rng_draw_type1_s": "s",
    "experiments.decide_self_s": "s",
    "experiments.decide_calls": "count.computed",
    "experiments.decide_calls_traced": "count",
    "experiments.decide_rows": "count.computed",
    "experiments.rows_per_decide": "ratio.computed",
    "experiments.decide_flops": "flop.computed",
    "experiments.noise_bytes": "B.computed",
    "share.generate_of_build": "ratio",
    "share.select_pairs_of_type2": "ratio",
    "share.rng_of_type1": "ratio",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def write_spans(spans: list, path) -> None:
    """One JSON list per span: pass, id, parent, name, start, end, run id, thread."""
    t0 = min((s[4] for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for p, sid, parent, name, start, end, run_id, thread in spans:
            fh.write(json.dumps([p, sid, parent, name, start - t0, end - t0, run_id, thread]))
            fh.write("\n")
