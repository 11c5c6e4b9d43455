import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galaxyid import cli, galaxy, spherical
from galaxyid.codefile import serialize
from galaxyid.galaxy import (
    GalaxyCode,
    GalaxyParams,
    asymptotic_rate,
    build_code,
    center_count_bounds,
    depth_bar,
    pack_centers,
    pair_distance_lower_bound,
    radial_bounds,
    rate_lower_bound,
    separation_margins,
    theta_of_k,
)
from reference import (
    assert_same_code,
    build_code_reference,
    codeword_table,
    index_paths,
    meet_depth,
    node_points,
    separation_condition,
)


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


def test_build_code_structure():
    p = small_params(t_bar=3, power=20000.0, max_roots=1)
    code = build_code(p)
    # 1 + 4 + 16 nodes of 4 points each, 4^3 codewords
    assert code.centers.shape == (21, 16) and code.codewords.shape == (4**3, 16)
    assert code.counts.tolist() == [4] * 21
    assert not code.degraded
    # every child center and codeword exactly on its parent's sphere
    for row in np.flatnonzero(code.parents >= 0):
        parent = code.parents[row]
        r_expected = p.r * p.k ** (code.heights[parent] - 1)
        dist = np.linalg.norm(code.centers[row] - code.centers[parent])
        assert dist == pytest.approx(r_expected, rel=1e-9)
    dist = np.linalg.norm(codeword_table(code) - code.centers[code.ancestors[:, 0]], axis=1)
    np.testing.assert_allclose(dist, p.r, rtol=1e-9)


@pytest.fixture(scope="module")
def deep_code():
    """6 roots of 4 height-1 nodes of 4 codewords: 30 centers, counts [4] * 30,
    96 codewords.  In level order rows 0-5 are the roots and row 6 + 4q + i is
    node (q, i); node (1, 2) holds codewords 24-27."""
    return build_code(small_params(t_bar=2))


def _listed(node, change=lambda points: points, count=None, **fields):
    """An edit of (roots, exceptions) listing node as the only exception, holding
    change() of its points and by default as many as that gives; `fields`
    replace nodes or counts."""

    def edit(code, roots):
        points = change(node_points(code, node).copy())
        counts = [len(points) if count is None else count]
        return roots, {"nodes": [node], "counts": counts, "points": points, **fields}

    return edit


def _set(row, column, value):
    def change(table):
        table[row, column] = value
        return table

    return change


def _repeat_first(rows):
    return lambda points: np.repeat(points[:1], rows, axis=0)


RANGE = "holds {} points, not 1 to m_per_level = 4"
@pytest.mark.parametrize(
    "edit,message",
    [
        (_listed(6, counts=[]), "'exceptions' lists 1 nodes and 0 counts"),
        (_listed(12, nodes=[6, 12]), "'exceptions' lists 2 nodes and 1 counts"),
        (_listed(12, nodes=[12, 6], counts=[4, 4]),
         "'exceptions' nodes must be strictly increasing, got 6 after 12"),
        (_listed(6, count=0), "exception node 6 " + RANGE.format(0)),
        (_listed(6, _repeat_first(5)), "exception node 6 " + RANGE.format(5)),
        (_listed(12, _repeat_first(5), count=4),
         "exception points hold 5 rows, not the 4 their counts give"),
        (_listed(12, _repeat_first(3), count=4),
         "exception points hold 3 rows, not the 4 their counts give"),
        (_listed(29, nodes=[30]), "exception node 30 is out of range: the code has 30 nodes"),
        (_listed(6, count=4.0), "'exceptions' nodes and counts must be integers"),
        (_listed(6, count=2**63 - 1), "exception node 6 " + RANGE.format(2**63 - 1)),
        (_listed(12, _set(0, 3, np.nan)), "node 12 has a non-finite coordinate"),
        (lambda code, roots: (_set(0, 0, np.inf)(roots), {}), "node 0 has a non-finite coordinate"),
        (_listed(0, _set(1, 5, -np.inf)), "node 0 has a non-finite coordinate"),
        (_listed(12, lambda points: points[:, :-1]),
         "exception points have shape (4, 15), not (rows, n = 16)"),
        (lambda code, roots: (roots[:, :-1], {}), "roots have shape (6, 15), not (rows, n = 16)"),
        (lambda code, roots: (roots[:0], {}), "the code has no root"),
        (_listed(6, nodes=[-1]), "exception node -1 is out of range"),
    ],
    ids=["no-counts", "fewer-children", "no-children", "empty-points", "too-many-points",
         "leaf-children", "missing-center-row", "extra-root", "float-count", "huge-count",
         "nan-point", "inf-root-center", "inf-inner-center", "narrow-codewords", "narrow-roots",
         "no-root", "negative-node"],
)
def test_galaxy_code_rejects_malformed_arrays(deep_code, edit, message):
    # the checks a library caller meets when making a GalaxyCode from its roots
    # and exception nodes (the code file loader meets them too)
    roots, fields = edit(deep_code, deep_code.roots.copy())
    exceptions = {"nodes": [], "counts": [], "points": np.empty((0, 16)), **fields}
    with pytest.raises(ValueError) as err:
        GalaxyCode(deep_code.params, roots, tuple(exceptions.values()), False)
    assert message in str(err.value)


def test_galaxy_code_copies_what_it_is_given(deep_code):
    # the caller's arrays stay writeable, and editing them leaves the code as it was
    roots, points = deep_code.roots.copy(), node_points(deep_code, 12).copy()
    nodes, counts = np.array([12]), np.array([4])
    code = GalaxyCode(deep_code.params, roots, (nodes, counts, points), False)
    before = {"centers": code.centers.copy(), "codewords": codeword_table(code),
              "roots": code.roots.copy()}
    for table in (roots, points, nodes, counts):
        assert table.flags.writeable
    roots += 1.0
    points += 1.0
    nodes[0], counts[0] = 13, 3
    for name, table in before.items():
        assert getattr(code, name)[:].tobytes() == table.tobytes(), name
    assert [a.tolist() for a in code.exceptions[:2]] == [[12], [4]]
    assert code.exceptions[2].tobytes() == node_points(deep_code, 12).tobytes()
    for table in (code.roots, code.centers, *code.exceptions):
        assert not table.flags.writeable
    with pytest.raises(TypeError):  # codewords are grown rows, not a table to write into
        code.codewords[0] = 0.0


def _cli_params(*flags):
    args = cli.build_parser().parse_args(["build", *flags, "--out", "-"])
    return cli._params_from_args(args)


BENCHMARK_BUILDS = {
    "wide-build": ("--n", "64", "--k", "8", "--power", "4000", "--max-roots", "32"),
    "large-n": ("--n", "64", "--k", "16", "--power", "1e7", "--m", "8", "--depth", "3",
                "--r-min-coeff", "2", "--max-roots", "8"),
    "small-mc": ("--n", "100", "--k", "8", "--power", "400", "--m", "4", "--r-min-coeff", "2",
                 "--max-roots", "8"),
}

SHAPED_BUILDS = {  # tails: nodes that draw past the witness prefix get uneven point counts
    "tails-n4": dict(n=4, k=32, power=1e8, m_per_level=16, t_bar=2, max_roots=3,
                     max_attempts=5, saturation_probes=30),
    "tails-n6": dict(n=6, k=32, power=1e8, m_per_level=16, t_bar=2, max_roots=3,
                     max_attempts=3, saturation_probes=30),
    "obtuse-k9": dict(n=5, k=9, power=1e8, m_per_level=8, t_bar=2, max_roots=3,
                      max_attempts=50, saturation_probes=30),  # the 6-point simplex per node
}

EQUIVALENCE_GRID = {
    # acute, m <= 2n: the signed basis fills every node
    **{f"k16-depth{t}-seed{s}": dict(n=16, k=16, m_per_level=8, t_bar=t, power=1e6,
                                     master_seed=s, max_roots=3)
       for t in (1, 2, 3) for s in (1, 2)},
    # acute, m > 2n: every node draws past the prefix, and saturates fast
    **{f"tail-n{n}-seed{s}": dict(n=n, k=16, m_per_level=2 * n + 3, t_bar=2, max_attempts=20,
                                  power=1e6, master_seed=s, max_roots=3)
       for n in (4, 5, 6) for s in (1, 2)},
    # tails that accept draws, so node sizes differ within a level
    **{f"tail-uneven-seed{s}": dict(n=4, k=64, theta=0.9, m_per_level=16, t_bar=3,
                                    max_attempts=3, power=1e7, master_seed=s, max_roots=2)
       for s in (3, 4)},
    # obtuse: the ceiling (2, 4, 8 points at k = 7, 8, 9) stops every node
    **{f"k{k}-depth{t}": dict(n=12, k=k, m_per_level=10, t_bar=t, power=1e6, master_seed=5,
                              max_roots=3)
       for k in (7, 8, 9) for t in (1, 2)},
    "k8-depth3": dict(n=9, k=8, m_per_level=3, t_bar=3, power=1e6, master_seed=6, max_roots=2),
    # the first rejection stops a node
    "acute-max-attempts-1": dict(n=6, k=16, m_per_level=16, t_bar=2, max_attempts=1,
                                 power=1e6, master_seed=8, max_roots=3),
    "obtuse-max-attempts-1": dict(n=6, k=8, m_per_level=8, t_bar=2, max_attempts=1,
                                  power=1e6, master_seed=8, max_roots=3),
    # more roots than pack_centers' first capacity
    "many-roots": dict(n=3, k=16, m_per_level=2, t_bar=1, power=1e6, master_seed=9,
                       max_roots=3 * galaxy._INITIAL_ROOTS, saturation_probes=50),
}


@pytest.mark.parametrize(
    "params",
    [pytest.param(GalaxyParams(**kw), id=name) for name, kw in EQUIVALENCE_GRID.items()]
    + [pytest.param(_cli_params(*flags, "--seed", str(seed)), id=f"{name}-{seed}")
       for name, flags in BENCHMARK_BUILDS.items() for seed in (100, 107)],
)
def test_build_code_matches_per_node_reference(params):
    # The level-at-a-time build, with its one prefix run, grows the same code
    # as every node running the whole greedy loop itself.  (The reference is
    # made from arrays, so its file lists every node as an exception.)
    assert_same_code(build_code(params), build_code_reference(params))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(SHAPED_BUILDS)), seed=st.integers(0, 2**16))
def test_nodes_are_in_level_order(name, seed):
    params = GalaxyParams(**SHAPED_BUILDS[name], master_seed=seed)
    code = build_code(params)
    n_roots, rows = len(code.roots), np.arange(len(code.centers))
    assert n_roots == len(code.centers) + len(code.codewords) - code.counts.sum()
    assert (code.parents[:n_roots] == -1).all() and (code.parents[n_roots:] >= 0).all()
    assert (code.parents[n_roots:] < rows[n_roots:]).all()
    assert (np.diff(code.parents[n_roots:]) >= 0).all()
    assert (code.heights[code.parents[n_roots:]] == code.heights[n_roots:] + 1).all()
    assert (np.diff(code.ancestors, axis=0) >= 0).all()
    assert code.ancestors[:, -1].tolist() == index_paths(code)[:, 0].tolist()
    assert_same_code(code, build_code_reference(params))


def test_build_peak_memory_is_about_the_tables():
    """A build holds no codeword table: it peaks under twice the centers plus
    the table it would take, for the large-n benchmark build and for a tail
    build of 21858 codewords and 478 exception nodes (whose build once held
    every level's points, one path per node and the whole height-1 level:
    7.4 times)."""
    tail = GalaxyParams(n=4, k=64, theta=0.9, m_per_level=16, t_bar=3, max_attempts=3,
                        power=1e8, master_seed=1, max_roots=40)
    for params in (_cli_params(*BENCHMARK_BUILDS["large-n"], "--seed", "103"), tail):
        build_code(params)  # leave one-time import and cache allocations out of the peak
        tracemalloc.start()
        try:
            code = build_code(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (code.centers.nbytes + codeword_table(code).nbytes)
    assert (len(code.codewords), len(code.exceptions[0])) == (21858, 478)


def test_pack_centers_refuses_the_root_that_passes_the_table_cap(monkeypatch):
    p = small_params(t_bar=2, power=1e4, max_roots=5)
    roots, saturated = pack_centers(p)
    assert len(roots) == 5
    leaves = p.m_per_level**p.t_bar
    per_root = leaves * p.n * 8
    for held in range(1, len(roots) + 1):
        for cap in (held * per_root, (held + 1) * per_root - 1):
            monkeypatch.setattr(galaxy, "_TABLE_CAP", cap)
            if held == len(roots):
                capped, capped_saturated = pack_centers(p)
                assert capped.tobytes() == roots.tobytes() and capped_saturated == saturated
                continue
            with pytest.raises(ValueError) as err:
                pack_centers(p)
            message = str(err.value)
            assert f"N = {(held + 1) * leaves} codewords" in message
            assert f"n = {p.n}" in message and str(cap) in message


def test_pack_centers_refuses_a_first_root_past_the_cap_before_allocating(monkeypatch):
    # one root of n = 2^20 would take 8 MB for its candidate alone
    p = small_params(n=1 << 20, power=4000.0)
    per_root = spherical.max_points(p.n, p.theta, p.m_per_level) ** p.t_bar * p.n * 8
    monkeypatch.setattr(galaxy, "_TABLE_CAP", per_root - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"refusing root 1: N = {per_root // (8 * p.n)} "):
            pack_centers(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_table_cap_admits_the_largest_baseline_build():
    # R = 512 roots of 8^3 codewords at n = 256: 537 MB of coordinates
    assert 512 * 8**3 * 256 * 8 <= galaxy._TABLE_CAP


def test_build_code_counts_and_power():
    p = small_params()
    code = build_code(p)
    assert len(code.codewords) == len(code.roots) * p.m_per_level**p.t_bar
    cap = math.sqrt(p.n * p.power)
    assert max(float(np.linalg.norm(u)) for u in codeword_table(code)) <= cap
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
