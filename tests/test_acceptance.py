"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported gaps.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from galaxyid.channel import DecoderParams
from galaxyid.experiments import (
    PairStrategy,
    estimate_type1,
    estimate_type2,
    verify_structure,
    wilson_interval,
)
from galaxyid.galaxy import (
    GalaxyParams,
    asymptotic_rate,
    build_code,
    center_count_bounds,
    rate_lower_bound,
    theta_of_k,
)
from galaxyid.gaussian import (
    ShellSpec,
    projection_tail,
    shell_prob_cross,
    std_normal_cdf,
)
from reference import (
    mills_bound,
    shell_prob_same,
    shell_prob_same_normal_approx,
    slab_separation_margin,
)

DISTANCE_TOL = 1e-6


def _structural_power(n: int, k: int, t: int) -> float:
    # ball radius = galaxy extent + room for a handful of spaced roots
    ext = (k**t - 1) / (k - 1)
    spacing = max(2 * n**0.25, n**0.25 / 2 + 2 * ext)
    return float(math.ceil((ext + 1.9 * spacing) ** 2 / n))


@pytest.fixture(scope="module")
def standard_code():
    """n=100 configuration shared by the error-rate criteria."""
    params = GalaxyParams(
        n=100,
        power=400.0,
        k=8,
        m_per_level=4,
        sigma=1.0,
        master_seed=11,
        r_min_coeff=2.0,
        max_roots=8,
        saturation_probes=100,
    )
    assert params.t_bar == 1  # depth per the depth formula at n=100, k=8
    return build_code(params)


def test_acceptance_1_structural_suite():
    total_roots = 0
    for n in (8, 16):
        for k in (8, 16):
            for t in (1, 2, 3):
                params = GalaxyParams(
                    n=n,
                    power=_structural_power(n, k, t),
                    b=0.0,
                    k=k,
                    m_per_level=4,
                    t_bar=t,
                    master_seed=101,
                    max_roots=12,
                    saturation_probes=300,
                )
                code = build_code(params)
                assert len(code.codewords) <= 4096
                assert len(code.roots) >= 2, "cross-galaxy check needs two roots"
                total_roots += len(code.roots)
                report = verify_structure(code, tol=DISTANCE_TOL)
                assert report.passed, (
                    f"n={n} k={k} t_bar={t}: {report.counts()}"
                )
    print(f"ACCEPTANCE 1 structural-suite: PASS ({total_roots} roots across 12 builds)")


def test_acceptance_2_projection_law():
    n, trials = 50, 1_000_000
    rng = np.random.default_rng(202)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    hits = 0
    chunk = 100_000
    for _ in range(trials // chunk):
        z = rng.standard_normal((chunk, n))
        hits += int(np.sum(np.abs(z @ direction) >= 2.0))
    p_hat = hits / trials
    target = projection_tail(2.0)  # 2 Phi(-2) = 0.04550026...
    assert target == pytest.approx(0.04550, abs=5e-6)
    assert abs(p_hat - 0.04550) <= 0.0015
    print(f"ACCEPTANCE 2 projection-law: PASS (empirical {p_hat:.5f} vs {target:.5f})")


def test_acceptance_3_shell_concentration():
    n, sigma, trials = 100, 1.0, 1_000_000
    spec = ShellSpec(n=n, sigma=sigma)
    assert spec.eps_n == pytest.approx(math.log2(100) / 10)
    exact = shell_prob_same(spec)
    approx = shell_prob_same_normal_approx(spec)
    assert exact == pytest.approx(0.999965, abs=5e-6)
    assert approx == pytest.approx(0.9999974, abs=5e-7)
    gap = abs(approx - exact)
    assert gap <= 1e-4

    lo_edge = n * (sigma**2 - spec.eps_n)
    hi_edge = n * (sigma**2 + spec.eps_n)
    rng = np.random.default_rng(303)
    hits = 0
    chunk = 100_000
    for _ in range(trials // chunk):
        z = rng.standard_normal((chunk, n))
        sq = np.einsum("ij,ij->i", z, z)
        hits += int(np.sum((lo_edge <= sq) & (sq <= hi_edge)))
    w_lo, w_hi = wilson_interval(hits, trials, confidence=0.99)
    assert w_lo <= exact <= w_hi
    print(
        f"ACCEPTANCE 3 shell-concentration: PASS "
        f"(empirical {hits / trials:.6f}, exact {exact:.6f}, approximation gap {gap:.2e})"
    )


def test_acceptance_4_mills_dominance():
    checked = 0
    for j in range(4, 13):  # n = 16 .. 4096
        n = 2**j
        for sigma in (0.5, 1.0, 2.0):
            spec = ShellSpec(n=n, sigma=sigma)
            tail = std_normal_cdf(-math.sqrt(n) * spec.eps_n / (math.sqrt(2) * sigma**2))
            bound = mills_bound(spec)
            assert bound > tail, f"n={n} sigma={sigma}"
            checked += 1
    print(f"ACCEPTANCE 4 mills-dominance: PASS ({checked} grid points, strict)")


def test_acceptance_5_type1_end_to_end(standard_code):
    params = standard_code.params
    dec = DecoderParams.from_galaxy(params)
    trials = 100_000
    est = estimate_type1(standard_code, dec, trials, master_seed=42)
    spec = ShellSpec(n=params.n, sigma=params.sigma)
    bound = (1.0 - shell_prob_same(spec)) + 2 * params.t_bar * std_normal_cdf(
        -math.log2(params.n)
    )
    assert est.analytic_bound == pytest.approx(bound, rel=1e-12)
    se = math.sqrt(est.p_hat * (1.0 - est.p_hat) / trials)
    assert est.p_hat <= bound + 3 * se, (est.p_hat, bound, se)
    print(
        f"ACCEPTANCE 5 type1-end-to-end: PASS "
        f"(p_hat {est.p_hat:.2e} <= bound {bound:.2e} + 3se {3 * se:.2e})"
    )


def test_acceptance_6_type2_cross_galaxy(standard_code):
    params = standard_code.params
    dec = DecoderParams.from_galaxy(params)
    d_min = params.n**0.25 * math.log2(params.n)
    strategy = PairStrategy(mode="cross-galaxy", min_distance=d_min)
    est = estimate_type2(standard_code, strategy, dec, 100_000, master_seed=43)
    assert est.hits == 0
    assert est.rule_of_three == pytest.approx(3e-5)
    reference = shell_prob_cross(ShellSpec(n=params.n, sigma=params.sigma), d_min)
    assert reference == pytest.approx(1.4e-17, abs=1e-17)
    assert est.analytic_bound <= reference  # actual pairs sit even farther out
    print(
        f"ACCEPTANCE 6 type2-cross-galaxy: PASS "
        f"(0 hits in 1e5; bound at threshold distance {reference:.2e}; rule of three 3e-5)"
    )


def test_acceptance_7_same_galaxy_slab(standard_code):
    params = standard_code.params
    dec = DecoderParams.from_galaxy(params)
    threshold = 2 * params.sigma * math.log2(params.n)
    u = standard_code.codewords
    chains = standard_code.centers[standard_code.ancestors]
    from galaxyid.experiments import select_pairs

    pairs = select_pairs(standard_code, PairStrategy(mode="same-planet"), 0)
    # premise verified numerically for every pair before the run
    for i, j in pairs:
        meet_center = chains[i, 0]
        margin = slab_separation_margin(u[i], u[j], meet_center)
        assert margin >= threshold, (i, j, margin, threshold)
    est = estimate_type2(
        standard_code, PairStrategy(mode="same-planet"), dec, 1_000_000, master_seed=44
    )
    assert est.components["decisive_slab_hits"] == 0
    bound = projection_tail(math.log2(params.n))
    assert bound == pytest.approx(3.06e-11, abs=1e-12)
    print(
        f"ACCEPTANCE 7 same-galaxy-slab: PASS "
        f"(0 decisive-slab hits in 1e6; analytic bound {bound:.2e})"
    )


def test_acceptance_8_rate_formulas():
    vals = [asymptotic_rate(0.0, 2**j) for j in range(3, 21)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert abs(asymptotic_rate(0.0, 16) - 0.25) <= 1e-12
    assert abs(asymptotic_rate(0.0, 2**20) - 0.35) <= 1e-12
    assert abs(asymptotic_rate(0.0, 2**1000) - 0.375) <= 1e-3

    v = rate_lower_bound(2**16, 1.0, 0.0, 256, theta_of_k(256))
    assert v == pytest.approx(0.2502, abs=1e-3)

    lo, hi = center_count_bounds(4, 1.0, 0.0)
    assert lo == pytest.approx(0.25, rel=1e-12)
    assert hi == pytest.approx(33.97, abs=0.01)

    for k in range(7, 10_001):
        th = theta_of_k(k)
        assert abs(math.sin(th) - 4 * math.sqrt(k - 6) / (k - 2)) <= 1e-12
    print("ACCEPTANCE 8 rate-formulas: PASS")


def test_acceptance_9_determinism(tmp_path, standard_code):
    args = [
        sys.executable, "-m", "galaxyid.cli", "build",
        "--n", "16", "--k", "8", "--b", "0", "--power", "100", "--sigma", "1",
        "--m", "4", "--seed", "7", "--max-roots", "6",
    ]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = subprocess.run([*args, "--out", str(f1)], capture_output=True, text=True)
    r2 = subprocess.run([*args, "--out", str(f2)], capture_output=True, text=True)
    assert r1.returncode == r2.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert r1.stdout.replace(str(f1), "F") == r2.stdout.replace(str(f2), "F")

    sim = [
        sys.executable, "-m", "galaxyid.cli", "simulate",
        "--code", str(f1), "--type1", "--trials", "20000", "--seed", "5",
    ]
    s1 = subprocess.run(sim, capture_output=True, text=True)
    s2 = subprocess.run(sim, capture_output=True, text=True)
    assert s1.stdout == s2.stdout

    # W-way parallel split reproduces single-threaded totals exactly
    dec = DecoderParams.from_galaxy(standard_code.params)
    serial = estimate_type1(standard_code, dec, 60_000, master_seed=4, threads=1)
    for w in (2, 4, 7):
        par = estimate_type1(standard_code, dec, 60_000, master_seed=4, threads=w)
        assert (par.trials, par.hits) == (serial.trials, serial.hits)
    print("ACCEPTANCE 9 determinism: PASS")
