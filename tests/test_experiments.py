import copy
import math
import os

import numpy as np
import pytest

from galaxyid.channel import DecoderParams
from galaxyid.experiments import (
    PairStrategy,
    _worker_count,
    TrialPlan,
    estimate_type1,
    estimate_type2,
    rate_report,
    select_pairs,
    sweep,
    verify_structure,
    wilson_interval,
)
from galaxyid.galaxy import GalaxyCode, GalaxyParams, build_code
from galaxyid.gaussian import projection_tail


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
    paths = small_code.index_paths
    from reference import meet_depth

    planet = select_pairs(small_code, PairStrategy(mode="same-planet"), 0)
    assert planet and all(meet_depth(paths[i], paths[j]) == 1 for i, j in planet)
    deep = select_pairs(small_code, PairStrategy(mode="same-galaxy-deep"), 0)
    assert deep and all(meet_depth(paths[i], paths[j]) == t_bar for i, j in deep)
    cross = select_pairs(small_code, PairStrategy(mode="cross-galaxy"), 0)
    assert cross and all(paths[i, 0] != paths[j, 0] for i, j in cross)
    sample = select_pairs(small_code, PairStrategy(mode="exhaustive-sample", sample_count=50), 3)
    assert len(sample) == 50
    assert sample == select_pairs(
        small_code, PairStrategy(mode="exhaustive-sample", sample_count=50), 3
    )


def test_pair_strategy_validation():
    with pytest.raises(ValueError):
        PairStrategy(mode="bogus")
    with pytest.raises(ValueError):
        PairStrategy(mode="exhaustive-sample")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="min_distance must be finite"):
            PairStrategy(mode="cross-galaxy", min_distance=bad)
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


def test_type2_sigma_zero_never_accepts():
    # noiseless channel: the sender's point is far outside the target shell
    # for every pair class in this geometry, so p_hat is exactly zero
    code = build_code(
        GalaxyParams(
            n=100, power=400.0, k=8, m_per_level=4, master_seed=11, r_min_coeff=2.0,
            max_roots=2, saturation_probes=50,
        )
    )
    dec = DecoderParams(n=100, sigma=0.0)
    for mode in ("same-planet", "cross-galaxy"):
        est = estimate_type2(code, PairStrategy(mode=mode), dec, 5_000, master_seed=1)
        assert est.hits == 0
        assert est.p_hat == 0.0


def test_verify_structure_passes_fresh(small_code):
    report = verify_structure(small_code)
    assert report.passed
    assert report.counts() == {"cond1": 0, "cond2": 0, "cross_galaxy": 0, "angle": 0, "power": 0}
    assert report.separation["strict_holds"]


def _mutated(code):
    c = copy.deepcopy(code)
    return c


def _rebuilt(code):
    """The code of the (mutated) trees: its roots and codewords derived afresh."""
    return GalaxyCode(code.params, code.trees, code.packing_saturated)


def test_fault_displaced_leaf(small_code):
    bad = _mutated(small_code)
    node = bad.trees[0].children[0]
    node.code.points[0] = node.code.points[0] + 10.0 * bad.params.r
    report = verify_structure(_rebuilt(bad))
    assert not report.passed
    assert report.cond1_violations or report.cond2_violations
    flagged = {v.get("codeword") for v in report.cond1_violations}
    assert 0 in flagged


def test_fault_translated_tree(small_code):
    if len(small_code.roots) < 2:
        pytest.skip("needs two roots")
    bad = _mutated(small_code)
    # slide galaxy 1 on top of galaxy 0: cross-galaxy floor must break
    shift = bad.roots[0] - bad.roots[1]

    def translate(node):
        node.code.center = node.code.center + shift
        node.code.points = node.code.points + shift
        for ch in node.children:
            translate(ch)

    translate(bad.trees[1])
    report = verify_structure(_rebuilt(bad))
    assert report.cross_galaxy_violations


def test_fault_angle_violation(small_code):
    bad = _mutated(small_code)
    node = bad.trees[0]
    # drag the second point nearly onto the first, staying on the sphere
    p0 = node.code.points[0] - node.code.center
    p1 = node.code.points[1] - node.code.center
    blended = 0.99 * p0 + 0.01 * p1
    blended *= node.code.radius / np.linalg.norm(blended)
    node.code.points[1] = node.code.center + blended
    report = verify_structure(_rebuilt(bad))
    assert report.angle_violations


def test_fault_power_violation(small_code):
    bad = _mutated(small_code)
    leaf = bad.trees[0].children[0]
    leaf.code.points[0] = leaf.code.points[0] * 50.0
    report = verify_structure(_rebuilt(bad))
    assert report.power_violations


def test_verify_empty_raises(small_code):
    bad = GalaxyCode(small_code.params, [], small_code.packing_saturated)
    with pytest.raises(ValueError):
        verify_structure(bad)


def test_rate_report(small_code):
    rep = rate_report(small_code)
    p = small_code.params
    n_exp = len(small_code.roots) * p.m_per_level**p.t_bar
    assert rep.num_codewords == n_exp
    assert rep.rate_achieved == pytest.approx(math.log2(n_exp) / (p.n * math.log2(p.n)))
    assert rep.claim1_upper_ok
    assert rep.m_achieved == 4
    assert rep.asymptotic == pytest.approx(0.375 - 1 / 6)


def test_rate_report_out_of_float_range():
    # (s / rho)^n leaves float range for every n = 256 depth-3 code
    code = build_code(
        GalaxyParams(n=256, power=1e7, k=16, m_per_level=2, t_bar=3, r_min_coeff=2.0,
                     master_seed=7, max_roots=1)
    )
    lo, hi = rate_report(code).claim1_bounds
    assert hi == math.inf
    assert lo == math.inf


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


def test_sweep_rows_in_order_and_reproducible():
    grid = [
        GalaxyParams(
            n=16, power=100.0, k=k, m_per_level=4, master_seed=3, max_roots=3,
            saturation_probes=50,
        )
        for k in (8, 16, 8)
    ]
    plan = TrialPlan(type1_trials=2000, type2_trials=2000, pair_mode="same-planet")
    rows = sweep(grid, plan, master_seed=77)
    assert [r.params.k for r in rows] == [8, 16, 8]
    assert all(r.error is None for r in rows)
    # duplicate cells (indices 0 and 2) produce identical estimates
    assert rows[0].type1.hits == rows[2].type1.hits
    assert rows[0].type2.hits == rows[2].type2.hits
    # parallel execution preserves ordering and values
    rows4 = sweep(grid, plan, master_seed=77, threads=4)
    assert [r.type1.hits for r in rows4] == [r.type1.hits for r in rows]


def test_sweep_records_cell_failures():
    good = GalaxyParams(n=16, power=100.0, k=8, m_per_level=2, master_seed=3, max_roots=2,
                        saturation_probes=20)
    bad = GalaxyParams(n=8, power=0.1, k=8, m_per_level=2, t_bar=2, max_roots=2,
                       saturation_probes=20)  # power too small to build
    rows = sweep([good, bad], TrialPlan(), master_seed=1)
    assert rows[0].error is None
    assert rows[1].error is not None and "power budget" in rows[1].error


def test_sweep_empty_grid():
    with pytest.raises(ValueError):
        sweep([], TrialPlan(), master_seed=0)
