import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from galaxyid import experiments
from galaxyid.channel import DecoderParams
from galaxyid.experiments import (
    PairStrategy,
    _worker_count,
    estimate_type1,
    estimate_type2,
    rate_report,
    select_pairs,
    verify_structure,
    wilson_interval,
)
from galaxyid.galaxy import GalaxyParams, build_code
from galaxyid.gaussian import projection_tail
from galaxyid.reports import rate_columns
from reference import codeword_table, from_arrays, index_paths, meet_depth
from test_cli import run_python
from test_galaxy import BENCHMARK_BUILDS


@pytest.fixture(scope="module")
def small_code():
    return build_code(
        GalaxyParams(
            n=16, power=130.0, k=8, m_per_level=4, master_seed=7, t_bar=2,
            max_roots=4, saturation_probes=200,
        )
    )


@pytest.fixture(scope="module")
def decoder(small_code):
    return DecoderParams.from_galaxy(small_code.params)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and 0.0 <= hi < 0.01
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0 and 0.99 < lo <= 1.0
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)


@pytest.mark.parametrize("confidence", [-0.5, 0.0, 1.0, 1.5, math.nan, math.inf])
def test_wilson_interval_refuses_confidence_outside_0_1(confidence):
    with pytest.raises(ValueError, match="confidence"):
        wilson_interval(5, 100, confidence)


def test_type1_reproducible(small_code, decoder):
    a = estimate_type1(small_code, decoder, 20_000, master_seed=5)
    b = estimate_type1(small_code, decoder, 20_000, master_seed=5)
    assert (a.trials, a.hits, a.p_hat, a.wilson_95) == (b.trials, b.hits, b.p_hat, b.wilson_95)
    c = estimate_type1(small_code, decoder, 20_000, master_seed=6)
    assert c.hits != a.hits or c.seed != a.seed


def test_type1_parallel_merge_matches_serial(small_code, decoder):
    serial = estimate_type1(small_code, decoder, 50_000, master_seed=9, threads=1)
    for w in (2, 3, 8):
        par = estimate_type1(small_code, decoder, 50_000, master_seed=9, threads=w)
        assert (par.trials, par.hits) == (serial.trials, serial.hits)


def test_type1_bound_attached(small_code, decoder):
    est = estimate_type1(small_code, decoder, 50_000, master_seed=1)
    assert est.kind == "type1"
    assert est.bound_formula == "shell-exact+slab-union"
    se = math.sqrt(max(est.p_hat * (1 - est.p_hat), 1e-12) / est.trials)
    assert est.p_hat <= est.analytic_bound + 3 * se
    assert est.rule_of_three == pytest.approx(3 / 50_000)
    with pytest.raises(ValueError):
        estimate_type1(small_code, decoder, 0, master_seed=1)


def test_select_pairs_strata(small_code):
    t_bar = small_code.params.t_bar
    paths = index_paths(small_code)

    planet = select_pairs(small_code, PairStrategy(mode="same-planet"), 0).tolist()
    assert planet and all(meet_depth(paths[i], paths[j]) == 1 for i, j in planet)
    deep = select_pairs(small_code, PairStrategy(mode="same-galaxy-deep"), 0).tolist()
    assert deep and all(meet_depth(paths[i], paths[j]) == t_bar for i, j in deep)
    cross = select_pairs(small_code, PairStrategy(mode="cross-galaxy"), 0).tolist()
    assert cross and all(paths[i, 0] != paths[j, 0] for i, j in cross)
    sample = select_pairs(small_code, PairStrategy(mode="exhaustive-sample", sample_count=50), 3)
    assert sample.shape == (50, 2)
    assert sample.tolist() == select_pairs(
        small_code, PairStrategy(mode="exhaustive-sample", sample_count=50), 3
    ).tolist()


def test_pair_strategy_validation():
    with pytest.raises(ValueError):
        PairStrategy(mode="bogus")
    with pytest.raises(ValueError):
        PairStrategy(mode="exhaustive-sample")
    for bad in (math.nan, math.inf, -5.0, -1e-300):
        with pytest.raises(ValueError, match="min_distance must be finite and >= 0"):
            PairStrategy(mode="cross-galaxy", min_distance=bad)
    PairStrategy(mode="cross-galaxy", min_distance=0.0)  # met by every pair, but not refused
    with pytest.raises(ValueError, match="min_distance applies to cross-galaxy only, not same-planet"):
        PairStrategy(mode="same-planet", min_distance=1e9)
    with pytest.raises(ValueError, match="sample_count applies to exhaustive-sample only, not cross-galaxy"):
        PairStrategy(mode="cross-galaxy", sample_count=5)


def test_type2_cross_galaxy(small_code, decoder):
    strat = PairStrategy(mode="cross-galaxy")
    est = estimate_type2(small_code, strat, decoder, 20_000, master_seed=2)
    assert est.kind == "type2"
    assert est.bound_formula == "cross-shell"
    assert est.components["decisive_slab_hits"] == 0  # no meet ancestor across roots
    again = estimate_type2(small_code, strat, decoder, 20_000, master_seed=2)
    assert (again.hits, again.components) == (est.hits, est.components)


def test_type2_same_planet_bound_tag(small_code, decoder):
    est = estimate_type2(
        small_code, PairStrategy(mode="same-planet"), decoder, 20_000, master_seed=3
    )
    assert est.bound_formula == "meet-slab-tail"
    assert est.analytic_bound == pytest.approx(2 * 0.5 * math.erfc(math.log2(16) / math.sqrt(2)))


def test_analytic_bounds_follow_slab_halfwidth():
    code = build_code(
        GalaxyParams(n=100, power=400.0, k=8, m_per_level=4, master_seed=11, r_min_coeff=2.0,
                     max_roots=8)
    )
    dec = DecoderParams(n=100, sigma=1.0, slab_halfwidth=2.0)
    tail = projection_tail(2.0)  # 2 Phi(-2) = 0.0455
    type1 = estimate_type1(code, dec, 2_000, master_seed=1)
    assert type1.analytic_bound >= tail
    type2 = estimate_type2(code, PairStrategy(mode="same-planet"), dec, 2_000, master_seed=1)
    assert type2.analytic_bound == tail
    # the half-width is in units of sigma
    wider = DecoderParams(n=100, sigma=2.0, slab_halfwidth=4.0)
    type2 = estimate_type2(code, PairStrategy(mode="same-planet"), wider, 2_000, master_seed=1)
    assert type2.analytic_bound == tail


def test_worker_count(monkeypatch):
    # computed only: no pool is started with these counts
    cpus = len(os.sched_getaffinity(0))
    assert _worker_count(None, 10) == 1
    assert _worker_count(4, 10) == min(4, cpus)
    assert _worker_count(10**9, 3) == min(3, cpus)  # one thread per unit at most
    assert _worker_count(8, 1) == 1
    assert _worker_count(10**9, 10**6) == cpus  # one thread per usable CPU at most
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _worker_count(4, 10) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _worker_count(10**9, 10**6) == 5


def test_type2_parallel_merge(small_code, decoder):
    strat = PairStrategy(mode="same-planet")
    serial = estimate_type2(small_code, strat, decoder, 30_000, master_seed=4, threads=1)
    par = estimate_type2(small_code, strat, decoder, 30_000, master_seed=4, threads=4)
    assert (serial.hits, serial.components) == (par.hits, par.components)


def test_estimators_reject_sigma_zero_before_any_trial(small_code, monkeypatch):
    # the decoder accepts sigma = 0, but the analytic bounds need sigma > 0
    def drawn(*args, **kwargs):
        raise AssertionError("trials drawn before sigma was checked")

    monkeypatch.setattr(experiments, "_pair_counts", drawn)
    dec = DecoderParams(n=small_code.params.n, sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        estimate_type1(small_code, dec, 200_000, master_seed=1)
    for mode in ("same-planet", "cross-galaxy"):
        with pytest.raises(ValueError, match="sigma"):
            estimate_type2(small_code, PairStrategy(mode=mode), dec, 5_000, master_seed=1)


@pytest.fixture(scope="module")
def table_code():
    """4096 codewords in the shape of the large-n benchmark code: n = 64, depth 3."""
    return build_code(GalaxyParams(n=64, power=1e7, k=16, m_per_level=8, t_bar=3,
                                   max_roots=8, master_seed=3))


@pytest.mark.parametrize("width", [32, 100])
def test_estimators_refuse_a_decoder_of_another_width_before_any_trial(table_code, width,
                                                                       monkeypatch):
    """A decoder wider than the code once counted no hit, and a narrower one
    raised IndexError; the direction cells index the code's coordinates, so
    both are refused before a trial is drawn."""
    def drawn(*args, **kwargs):
        raise AssertionError("trials drawn before the decoder width was checked")

    monkeypatch.setattr(experiments, "_pair_counts", drawn)
    dec = DecoderParams(n=width, sigma=1.0)
    with pytest.raises(ValueError, match="does not match the code's n = 64"):
        estimate_type1(table_code, dec, 5000, master_seed=1)
    for mode in ("same-planet", "cross-galaxy"):
        with pytest.raises(ValueError, match="does not match the code's n = 64"):
            estimate_type2(table_code, PairStrategy(mode=mode), dec, 5000, master_seed=1)


def test_direction_table_keeps_three_cells_per_direction(table_code):
    """Every chain direction of the large-n shape has at most 3 nonzero
    coordinates (acute theta, +-e_i prefix), so the table holds at most
    N t_bar 3 coordinates and values, against N t_bar n dense cells."""
    code = table_code
    coords, values = experiments._direction_table(code, np.arange(len(code.codewords)))
    n_cw, t_bar = len(code.codewords), code.params.t_bar
    assert coords.shape == values.shape and coords.shape[:2] == (n_cw, t_bar)
    assert coords.shape[2] <= 3
    assert coords.nbytes + values.nbytes <= n_cw * t_bar * 3 * 16


@pytest.mark.parametrize("threads", [1, 2])
def test_estimators_hold_one_direction_table_plus_draw_and_decide_blocks(table_code, threads):
    """The traced peak of each estimator stays within the sparse direction
    table twice (its row blocks and their join), a few pair-length arrays,
    and (2 + 3 workers) blocks of _DECIDE_CELLS cells: before the first
    draw, the table's dense row blocks, and per worker one normals block
    and the temporaries of decide() and of the block's gathers.  No dense
    (N, t_bar, n) table, 12 blocks here, and no draw chunk.  A cross-galaxy
    run with no row in the shell holds no table at all.  P = 100 and 341
    sampled pairs, at most a block's rows (341 here), are tiled once, and
    no run allocates a zeroed (..., t_bar, n) table or scratch."""
    code, trials = table_code, 2 * experiments.UNIT_SIZE
    t_bar, n = code.params.t_bar, code.params.n
    assert experiments._DECIDE_CELLS // (t_bar * n) == 341
    coords, values = experiments._direction_table(code, np.arange(len(code.codewords)))
    blocks = 2 + 3 * _worker_count(threads, 2)
    tableless = 8 * (4 * experiments._PAIR_CAP + blocks * experiments._DECIDE_CELLS)
    bound = 2 * (coords.nbytes + values.nbytes) + tableless
    dec = DecoderParams.from_galaxy(code.params)

    def type2(limit, **strategy):
        return limit, lambda: estimate_type2(code, PairStrategy(**strategy), dec, trials, 1, threads)

    runs = [(bound, lambda: estimate_type1(code, dec, trials, 1, threads)),
            type2(bound, mode="same-planet"),
            type2(bound, mode="exhaustive-sample", sample_count=100),
            type2(bound, mode="exhaustive-sample", sample_count=341),
            type2(tableless, mode="cross-galaxy")]
    assert runs[-1][1]().components["shell_hits"] == 0
    zeros = np.zeros

    def spy(shape, *args, **kwargs):
        assert tuple(np.atleast_1d(shape)[-2:]) != (t_bar, n), f"zeroed table {shape}"
        return zeros(shape, *args, **kwargs)

    for limit, run in runs:
        run()  # the modules an estimator imports on first use are not its working set
        with mock.patch.object(np, "zeros", spy):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= limit


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pairs", [100, 341])
def test_tiled_pairs_hold_one_dense_table_and_no_scratch(table_code, threads, pairs):
    """P pairs at most a block's rows (341 here) and P equal to it: the run
    gathers their direction cells once into one table dense in rows,
    (P + 341, t_bar, K) coordinates and values, of which every block's
    decide() gets a view, and allocates no zeroed (..., t_bar, n) scratch.
    Its traced peak stays within the bound of the test above."""
    code, trials = table_code, 2 * experiments.UNIT_SIZE
    t_bar, n = code.params.t_bar, code.params.n
    assert experiments._DECIDE_CELLS // (t_bar * n) == 341
    coords, values = experiments._direction_table(code, np.arange(len(code.codewords)))
    blocks = 2 + 3 * _worker_count(threads, 2)
    bound = 2 * (coords.nbytes + values.nbytes) + \
        8 * (4 * experiments._PAIR_CAP + blocks * experiments._DECIDE_CELLS)
    dec = DecoderParams.from_galaxy(code.params)
    strategy = PairStrategy(mode="exhaustive-sample", sample_count=pairs)
    run = lambda: estimate_type2(code, strategy, dec, trials, 1, threads)
    run()  # the modules an estimator imports on first use are not its working set
    zeros, decide, bases, tables = np.zeros, experiments.decide, [], []

    def zeros_spy(shape, *args, **kwargs):
        tables.append(shape)
        return zeros(shape, *args, **kwargs)

    def decide_spy(deltas, cells, params):
        bases.append(tuple(a.base for a in cells))
        return decide(deltas, cells, params)

    with mock.patch.object(np, "zeros", zeros_spy), \
            mock.patch.object(experiments, "decide", decide_spy):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert [shape for shape in tables if tuple(np.atleast_1d(shape)[-2:]) == (t_bar, n)] == []
    assert bases and all(b is not None for pair in bases for b in pair)
    tiled = {tuple(id(b) for b in pair) for pair in bases}
    assert len(tiled) == 1  # one gathered table, every block a view of it
    for b, full in zip(bases[0], (coords, values)):
        assert b.shape == (pairs + 341, t_bar, full.shape[2])
    assert peak <= bound


# One call in a fresh process, printing the minor page faults it takes.
# "warm" first allocates and frees one 8 MB array: that raises glibc's mmap
# and trim thresholds past every block, so no block needs fresh pages.
MINOR_FAULTS = """
import json, resource, sys
import numpy as np
from galaxyid import cli, experiments
from galaxyid.channel import DecoderParams
from galaxyid.galaxy import build_code
flags, call, state = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
code = build_code(cli._params_from_args(cli.build_parser().parse_args(["build", *flags,
                                                                       "--out", "-"])))
dec = DecoderParams.from_galaxy(code.params)
if state == "warm":
    np.ones(1 << 20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
exec(call)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(flags, call):
    """The minor faults call takes on the code of build flags: (cold, warm),
    each in a fresh process (see MINOR_FAULTS)."""
    pytest.importorskip("resource")
    faults = []
    for state in ("cold", "warm"):
        res = run_python("-c", MINOR_FAULTS, json.dumps(flags), call, state, timeout=120,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert res.returncode == 0, res.stderr
        faults.append(int(res.stdout))
    return faults


@pytest.mark.parametrize("threads", [1, 2])
def test_estimator_blocks_take_no_fresh_pages(threads):
    """estimate_type1 over 40 units on the small-mc code (32 codewords, so
    its blocks are views of one tiled table) takes at most 10 more minor
    faults a unit in a fresh process than after one 8 MB alloc/free: each
    thread allocates its blocks once.  Fresh 512 kB blocks in every unit
    took about 9 000 faults against 270 at 1 thread, and 7 000-7 300
    against 740 at 2."""
    units = 40
    cold, warm = minor_faults(
        BENCHMARK_BUILDS["small-mc"] + ("--seed", "100"),
        f"experiments.estimate_type1(code, dec, {units * experiments.UNIT_SIZE}, 1, {threads})")
    assert cold - warm <= 10 * units, (cold, warm)


def test_verify_structure_passes_fresh(small_code):
    report = verify_structure(small_code)
    assert report.passed
    assert report.counts() == {"cond1": 0, "cond2": 0, "cross_galaxy": 0, "angle": 0, "power": 0}
    assert report.separation["strict_holds"]


def _with(code, centers=None, codewords=None):
    """The code with replaced coordinate tables, everything else derived afresh."""
    return from_arrays(
        code.params,
        code.centers if centers is None else centers,
        code.counts,
        codeword_table(code) if codewords is None else codewords,
        code.packing_saturated,
    )


R_WINDOW = {1: (1.0, 1.0), 2: (7.0, 9.0)}  # radial_bounds(r = 1, k = 8, t)
THETA = 1.910633236249019  # theta_of_k(8)
POWER_CAP = 45.60701700396552  # sqrt(n P) = sqrt(16 * 130)


def _radial(codeword, height, measured):
    return {"kind": "codeword-radial", "codeword": codeword, "height": height,
            "measured": measured, "bound": R_WINDOW[height]}


def _node_radius(point, measured):
    return {"kind": "node-radius", "root": 0, "height": 1, "point": point,
            "measured": measured, "bound": (1.0, 1.0)}


def _angle(height, measured):
    return {"root": 0, "height": height, "measured": measured, "bound": THETA}


def assert_violations(report, **expected):
    """Every check's violation list equals expected[check] (default: none).

    The records were measured on the same arrays before the codebook lost
    its node trees.  Angles were then the acos of a dot product and are now
    2 atan2(||a - b||, ||a + b||), so they agree to rounding only.
    """
    for check, found in report.violations().items():
        want = expected.get(check, [])
        if check == "angle":
            want = [{**v, "measured": pytest.approx(v["measured"], rel=1e-9)} for v in want]
        assert found == want, check


def test_fault_displaced_leaf(small_code):
    u = codeword_table(small_code)
    u[0] += 10.0 * small_code.params.r
    assert_violations(
        verify_structure(_with(small_code, codewords=u)),
        cond1=[_radial(0, 1, 40.01249804748511), _radial(0, 2, 41.0),
               _node_radius(0, 40.01249804748511)],
        angle=[_angle(1, 1.579127153544906)],
        power=[{"codeword": 0, "measured": 45.92891551572386, "bound": POWER_CAP}],
    )


def test_fault_translated_tree(small_code):
    # slide galaxy 1 onto galaxy 0: the cross-galaxy floor must break, pair by pair
    shift = small_code.roots[0] - small_code.roots[1]
    centers, u = small_code.centers.copy(), codeword_table(small_code)
    centers[np.unique(small_code.ancestors[small_code.ancestors[:, -1] == 1])] += shift
    u[index_paths(small_code)[:, 0] == 1] += shift
    measured = [
        2.7858859700533853e-15, 3.1512740483014287e-15, 2.9240419872774234e-15,
        3.0660254739324506e-15, 3.0235190130503666e-15, 2.4466760311477726e-15,
        3.1512740483014287e-15, 3.283446176038139e-15, 3.3705101272969287e-15,
        3.678274868408959e-15, 3.9808271648811464e-15, 3.605508297989837e-15,
        3.691654591199124e-15, 3.974629682131324e-15, 3.79699546035317e-15,
        3.2361813916771603e-15,
    ]
    assert_violations(
        verify_structure(_with(small_code, centers, u)),
        cross_galaxy=[{"pair": (i, i + 16), "measured": d, "bound": 1.0}
                      for i, d in enumerate(measured)],
    )


def test_fault_angle_violation(small_code):
    # drag root 0's second point, the center of node (0, 1), nearly onto its
    # first, staying on the root's sphere; node (0, 1)'s codewords stay put.
    # Level order lists nodes (0, 0) and (0, 1) right after the R roots.
    centers = small_code.centers.copy()
    first = len(small_code.roots)
    p0, p1 = centers[first] - centers[0], centers[first + 1] - centers[0]
    blended = 0.99 * p0 + 0.01 * p1
    blended *= small_code.params.r * small_code.params.k / np.linalg.norm(blended)
    centers[first + 1] = centers[0] + blended
    far = [12.21388617402623, 13.845597520317966, 13.06075969104057, 13.06075969104057]
    assert_violations(
        verify_structure(_with(small_code, centers=centers)),
        cond1=[_radial(4 + i, 1, d) for i, d in enumerate(far)]
        + [_node_radius(i, d) for i, d in enumerate(far)],
        angle=[_angle(2, 0.00955520622938453), _angle(1, 0.004974533637534246)],
    )


def test_fault_power_violation(small_code):
    u = codeword_table(small_code)
    u[0] *= 50.0
    assert_violations(
        verify_structure(_with(small_code, codewords=u)),
        cond1=[_radial(0, 1, 1412.225584546334), _radial(0, 2, 1411.976602034271),
               _node_radius(0, 1412.225584546334)],
        angle=[_angle(1, 1.385747070868412)],
        power=[{"codeword": 0, "measured": 1441.0815210814928, "bound": POWER_CAP}],
    )


def test_verify_empty_raises(small_code):
    # an empty code cannot even be made: GalaxyCode refuses a code with no root
    empty = np.empty((0, small_code.params.n))
    with pytest.raises(ValueError, match="the code has no root"):
        verify_structure(from_arrays(small_code.params, empty, [], empty, False))


def test_rate_report(small_code):
    rep = rate_report(small_code)
    p = small_code.params
    n_exp = len(small_code.roots) * p.m_per_level**p.t_bar
    assert rep.num_codewords == n_exp
    assert rep.rate_achieved == pytest.approx(math.log2(n_exp) / (p.n * math.log2(p.n)))
    assert rep.m_achieved == 4
    cols = rate_columns(p.k, p.b, p.theta, p.n, p.power)
    assert rep.num_roots <= cols["count_bound_claim1_hi"]
    assert cols["rate_asymptotic"] == pytest.approx(0.375 - 1 / 6)


def test_rate_report_out_of_float_range():
    # (s / rho)^n leaves float range for every n = 256 depth-3 code
    p = build_code(
        GalaxyParams(n=256, power=1e7, k=16, m_per_level=2, t_bar=3, r_min_coeff=2.0,
                     master_seed=7, max_roots=1)
    ).params
    cols = rate_columns(p.k, p.b, p.theta, p.n, p.power)
    assert cols["count_bound_claim1_hi"] == math.inf
    assert cols["count_bound_claim1_lo"] == math.inf


def test_rate_report_single_codeword():
    code = build_code(
        GalaxyParams(
            n=8, power=0.7, k=8, m_per_level=1, master_seed=3, max_roots=1, saturation_probes=10
        )
    )
    rep = rate_report(code)
    assert rep.num_codewords == 1
    assert rep.rate_achieved == 0.0


def test_example_rate_arithmetic():
    # two roots, m=4, depth 2, n=16 -> N=32, R = 5/64
    assert math.log2(2 * 4**2) / (16 * math.log2(16)) == pytest.approx(0.078125)
