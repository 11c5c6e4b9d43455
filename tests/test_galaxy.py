import math

import numpy as np
import pytest

from galaxyid.codefile import serialize
from galaxyid.galaxy import (
    GalaxyCode,
    GalaxyParams,
    asymptotic_rate,
    build_code,
    build_galaxy,
    center_count_bounds,
    depth_bar,
    pack_centers,
    pair_distance_lower_bound,
    radial_bounds,
    rate_lower_bound,
    separation_margins,
    theta_of_k,
)
from reference import index_paths, meet_depth, separation_condition


def small_params(**kw):
    defaults = dict(
        n=16, power=100.0, k=8, m_per_level=4, master_seed=7, max_roots=6, saturation_probes=100
    )
    defaults.update(kw)
    return GalaxyParams(**defaults)


def test_theta_of_k_examples():
    assert theta_of_k(18) == pytest.approx(math.pi / 3, abs=1e-12)
    assert theta_of_k(11) == pytest.approx(1.459455, abs=1e-6)
    assert theta_of_k(1 << 20) < 0.005
    with pytest.raises(ValueError):
        theta_of_k(6)


def test_theta_sine_identity():
    for k in range(7, 10_001):
        th = theta_of_k(k)
        assert abs(math.sin(th) - 4 * math.sqrt(k - 6) / (k - 2)) <= 1e-12


def test_depth_bar():
    assert depth_bar(256, 0.0, 4) == 1
    assert depth_bar(2**16, 1 / 16, 2) == 3
    assert depth_bar(2**16, 0.2499, 16) == 1
    assert depth_bar(100, 0.0, 8) == 1
    with pytest.raises(ValueError):
        depth_bar(100, 0.3, 8)


def test_separation_condition():
    assert separation_condition(18, math.pi / 3)
    assert separation_condition(7, theta_of_k(7))
    assert not separation_condition(18, 0.01)
    margins = separation_margins(18, math.pi / 3)
    assert margins["lhs"] == pytest.approx(0.19463668, abs=1e-7)
    assert margins["strict_rhs"] == pytest.approx(2 / 17)
    assert margins["strict_holds"] and margins["weak_holds"]
    # the weak form can hold where the strict one fails
    margins = separation_margins(18, 0.715)
    assert margins["weak_holds"] and not margins["strict_holds"]
    assert not separation_condition(18, 0.715)
    with pytest.raises(ValueError, match="k must be >= 2"):
        separation_margins(1, 0.5)


def test_default_theta_satisfies_separation():
    for k in (7, 8, 16, 64, 1024):
        assert separation_condition(k, theta_of_k(k))


def test_radial_bounds_examples():
    lo, hi = radial_bounds(2.0, 5, 1)
    assert lo == hi == 2.0
    assert radial_bounds(1.0, 4, 2) == (3.0, 5.0)
    assert radial_bounds(1.0, 2, 3) == (1.0, 7.0)


def test_pair_distance_examples():
    theta = math.pi / 3
    assert pair_distance_lower_bound(1.0, 4, theta, 1) == pytest.approx(2 * math.sin(theta / 2))
    assert pair_distance_lower_bound(1.0, 4, theta, 2) == pytest.approx(2.0)
    # positive whenever the separation condition holds
    for k in range(7, 65):
        th = theta_of_k(k)
        for t in range(1, 7):
            assert pair_distance_lower_bound(1.0, k, th, t) > 0


def test_center_count_bounds():
    lo, hi = center_count_bounds(4, 1.0, 0.0)
    assert lo == pytest.approx(0.25, rel=1e-12)
    assert hi == pytest.approx(33.9706, abs=0.001)
    # ratio one: hi = 2^n, lo = 2^-n
    n = 6
    p_match = (n ** (0.25)) ** 2 / n  # sqrt(nP) = n^(1/4)
    lo, hi = center_count_bounds(n, p_match, 0.0)
    assert hi == pytest.approx(2.0**n, rel=1e-9)
    assert lo == pytest.approx(2.0**-n, rel=1e-9)
    # beyond float range: hi is inf; lo = 1.1^1000 still fits although 2.2^1000 does not
    n = 1000
    p_wide = (2.2 * n**0.25) ** 2 / n  # sqrt(nP) / n^(1/4) = 2.2
    lo, hi = center_count_bounds(n, p_wide, 0.0)
    assert hi == math.inf
    assert lo == pytest.approx(1.1**n, rel=1e-9)


def test_rate_lower_bound_example():
    v = rate_lower_bound(2**16, 1.0, 0.0, 256, theta_of_k(256))
    assert v == pytest.approx(0.2502, abs=1e-3)
    assert rate_lower_bound(2**10, 1.0, 0.1, 100, math.pi / 2) == pytest.approx(
        (math.log2(2**5) - 1) / 10 - 0.35, abs=1e-12
    )


def test_rate_lower_bound_monotone_in_k():
    vals = [rate_lower_bound(2**16, 1.0, 0.0, 2**j, theta_of_k(2**j)) for j in range(3, 11)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_asymptotic_rate():
    assert asymptotic_rate(0.0, 16) == pytest.approx(0.25, abs=1e-15)
    assert asymptotic_rate(0.0, 1 << 20) == pytest.approx(0.35, abs=1e-15)
    assert asymptotic_rate(0.0, 8) == pytest.approx(0.375 - 1 / 6, abs=1e-15)
    vals = [asymptotic_rate(0.0, 2**j) for j in range(3, 21)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 0.375 for v in vals)
    with pytest.raises(ValueError):
        asymptotic_rate(0.3, 16)


def test_params_validation():
    with pytest.raises(ValueError):
        GalaxyParams(n=16, power=100.0, k=5)
    with pytest.raises(ValueError):
        GalaxyParams(n=16, power=100.0, k=8, b=0.3)
    with pytest.raises(ValueError):
        GalaxyParams(n=16, power=-1.0, k=8)
    with pytest.raises(ValueError):
        GalaxyParams(n=16, power=100.0, k=8, theta=0.05)  # separation fails


def test_default_m_per_level():
    # min(floor(sin(theta)^-n), 16), at least 1; past float range the cap applies
    assert GalaxyParams(n=16, power=100.0, k=8).m_per_level == 2
    assert GalaxyParams(n=64, power=100.0, k=16).m_per_level == 16
    assert GalaxyParams(n=8192, power=1.0, k=16).m_per_level == 16


def test_params_r_min_override():
    plain = small_params()
    assert plain.r == plain.r_nominal == 1.0
    raised = small_params(n=100, r_min_coeff=2.0)
    assert raised.r == pytest.approx(2.0 * math.log2(100))
    assert raised.r_nominal == 1.0


def test_pack_centers_spacing_and_determinism():
    p = small_params(max_roots=40, saturation_probes=400)
    centers, saturated = pack_centers(p)
    assert len(centers) >= 2
    arr = np.asarray(centers)
    d = np.linalg.norm(arr[:, None, :] - arr[None, :, :], axis=2)
    iu = np.triu_indices(len(centers), k=1)
    assert np.min(d[iu]) >= p.spacing
    assert all(np.linalg.norm(c) <= p.pack_radius + 1e-9 for c in centers)
    centers2, saturated2 = pack_centers(p)
    assert saturated == saturated2
    assert all(np.array_equal(a, b) for a, b in zip(centers, centers2))


def test_pack_centers_single_when_tight():
    # ball barely larger than the galaxy extent: one center only
    p = GalaxyParams(
        n=8, power=0.7, k=8, m_per_level=2, master_seed=1, max_roots=10, saturation_probes=50
    )
    assert p.pack_radius > 0
    centers, saturated = pack_centers(p)
    assert len(centers) == 1
    assert saturated


def test_pack_centers_power_too_small():
    with pytest.raises(ValueError, match="power budget too small"):
        pack_centers(GalaxyParams(n=8, power=0.1, k=8, m_per_level=2, t_bar=2))


def test_saturated_count_within_volume_bounds():
    # genuine saturation (probe exhaustion, not the cap): the achieved count
    # is the oracle for the volume-argument window
    for seed in (1, 2, 3):
        p = GalaxyParams(
            n=4, power=6.0, k=8, m_per_level=2, master_seed=seed,
            max_roots=500, saturation_probes=4000,
        )
        centers, saturated = pack_centers(p)
        assert saturated
        lo, hi = center_count_bounds(4, 6.0, 0.0)
        assert lo >= 1
        assert lo <= len(centers) <= hi


def test_build_galaxy_structure():
    p = small_params(t_bar=3, power=20000.0)
    centers, counts, leaves = build_galaxy(np.zeros(16), p, root_index=0)
    # 1 + 4 + 16 nodes of 4 points each, 4^3 leaves
    assert centers.shape == (21, 16) and leaves.shape == (4**3, 16)
    assert counts.tolist() == [4] * 21
    code = GalaxyCode(p, centers, counts, leaves, packing_saturated=False)
    assert not code.degraded
    # every child center and leaf exactly on its parent's sphere
    for row in np.flatnonzero(code.parents >= 0):
        parent = code.parents[row]
        r_expected = p.r * p.k ** (code.heights[parent] - 1)
        dist = np.linalg.norm(centers[row] - centers[parent])
        assert dist == pytest.approx(r_expected, rel=1e-9)
    dist = np.linalg.norm(leaves - centers[code.ancestors[:, 0]], axis=1)
    np.testing.assert_allclose(dist, p.r, rtol=1e-9)


def test_build_code_counts_and_power():
    p = small_params()
    code = build_code(p)
    assert len(code.codewords) == len(code.roots) * p.m_per_level**p.t_bar
    cap = math.sqrt(p.n * p.power)
    assert max(float(np.linalg.norm(u)) for u in code.codewords) <= cap
    # depth-1 code: 1 root x m codewords when the budget admits one center
    tiny = GalaxyParams(
        n=8, power=0.7, k=8, m_per_level=4, master_seed=3, max_roots=4, saturation_probes=20
    )
    tiny_code = build_code(tiny)
    assert len(tiny_code.codewords) == len(tiny_code.roots) * 4


def test_build_code_deterministic_bytes():
    p = small_params()
    assert serialize(build_code(p)) == serialize(build_code(p))


def test_meet_depth():
    p = small_params(t_bar=2, power=2000.0, max_roots=4)
    code = build_code(p)
    paths = index_paths(code)
    m = p.m_per_level
    # siblings under one height-1 center
    assert meet_depth(paths[0], paths[1]) == 1
    # same root, different height-1 parents
    assert meet_depth(paths[0], paths[m]) == 2
    # different roots
    per_root = m**2
    if len(code.roots) >= 2:
        assert meet_depth(paths[0], paths[per_root]) is None
    with pytest.raises(ValueError):
        meet_depth(paths[0], paths[0])


def test_codeword_paths_end_at_root():
    p = small_params(t_bar=2, power=2000.0, max_roots=3)
    code = build_code(p)
    for path, row in zip(code.centers[code.ancestors], index_paths(code), strict=True):
        assert len(path) == p.t_bar
        assert np.array_equal(path[-1], code.roots[row[0]])
