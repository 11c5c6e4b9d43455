"""verify_structure, batched by shape, against the per-node loop and all-pairs
scan of tests/reference.py: whole reports, angles at the bound, degenerate
nodes, and guards on how the work is split that do not depend on timing."""

import dataclasses
import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from galaxyid import cli, codefile, experiments
from galaxyid.experiments import ANGLE_TOL, verify_structure
from galaxyid.galaxy import (
    GalaxyParams,
    build_code,
    pair_distance_lower_bound,
    separation_margins,
)
from galaxyid.spherical import min_pairwise_angle
from reference import (
    _close_pairs_reference,
    codeword_table,
    from_arrays,
    root_of,
    stack_galaxies,
    verify_structure_reference,
)
from test_galaxy import (  # wide-build is degraded: m = 4 of 16
    BENCHMARK_BUILDS,
    SHAPED_BUILDS,
    _cli_params,
)
from test_experiments import minor_faults
from test_pair_selection import codes, sibling_pairs


def _code(flags, seed):
    """The code of benchmark build flags or GalaxyParams fields, at a seed."""
    if isinstance(flags, tuple):
        return build_code(_cli_params(*flags, "--seed", str(seed)))
    return build_code(GalaxyParams(**flags, master_seed=seed))


def _moved(code, centers=None, codewords=None):
    return from_arrays(code.params, code.centers if centers is None else centers, code.counts,
                       codeword_table(code) if codewords is None else codewords,
                       code.packing_saturated)


def pulled(code):
    """Leaf 5 pulled toward leaf 6, leaf 9 put on its node's center, and the
    second node that has a parent, if any, moved off its parent's sphere."""
    u, c = codeword_table(code), code.centers.copy()
    u[5] += 0.4 * (u[6] - u[5])
    u[9] = c[code.ancestors[9, 0]]
    c[np.flatnonzero(code.parents >= 0)[1:2]] += 1e-3
    return _moved(code, c, u)


def one_node_radius(code):
    """Codeword 3 moved outward by 1e-8 of the leaf radius: past the node-radius
    test's 1e-9, inside the radial windows' absolute tol."""
    u, center = codeword_table(code), code.centers[code.ancestors[3, 0]]
    u[3] = center + (1 + 1e-8) * (u[3] - center)
    return _moved(code, codewords=u)


# The scale ladder's build flags (n = 256, depth 3) but for --max-roots: at
# R = 4, N = 2048, so verify's radial blocks (85 rows) and leaf-node blocks
# (32 nodes) end in partial ones.
LADDER = ("--n", "256", "--k", "16", "--m", "8", "--depth", "3", "--r-min-coeff", "2",
          "--power", "1e7")

CASES = {
    **{f"{name}-{seed}": (flags, seed, None) for name, flags in BENCHMARK_BUILDS.items()
       for seed in (100, 107)},
    "ladder-r4": (LADDER + ("--max-roots", "4"), 5, None),
    "ladder-r4-pulled": (LADDER + ("--max-roots", "4"), 5, pulled),
    **{name: (flags, 1, None) for name, flags in SHAPED_BUILDS.items()},
    "large-n-pulled": (BENCHMARK_BUILDS["large-n"], 100, pulled),
    "small-mc-pulled": (BENCHMARK_BUILDS["small-mc"], 100, pulled),
    "large-n-stacked": (BENCHMARK_BUILDS["large-n"], 100, lambda code: stack_galaxies(code, 0.5)),
    "obtuse-k9-stacked": (SHAPED_BUILDS["obtuse-k9"], 1, lambda code: stack_galaxies(code, 0.3)),
    "large-n-node-radius": (BENCHMARK_BUILDS["large-n"], 107, one_node_radius),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_reference(case):
    flags, seed, change = CASES[case]
    code = _code(flags, seed)
    if change is not None:
        code = change(code)
    report = verify_structure(code)
    assert dataclasses.asdict(report) == dataclasses.asdict(verify_structure_reference(code))
    if case.startswith("tails"):
        assert len(set(code.counts.tolist())) > 1
    if case == "large-n-node-radius":
        assert [v["kind"] for v in report.cond1_violations] == ["node-radius"]
        assert report.counts() == {"cond1": 1, "cond2": 0, "cross_galaxy": 0, "angle": 0,
                                   "power": 0}


def test_verify_json_matches_reference_bytes(tmp_path):
    code = pulled(_code(BENCHMARK_BUILDS["large-n"], 100))
    codefile.save(code, tmp_path / "code.json")
    with redirect_stdout(io.StringIO()):
        status = cli.main(["verify", "--code", str(tmp_path / "code.json"),
                           "--json", str(tmp_path / "report.json")])
    assert status == 1
    ref = verify_structure_reference(code)
    doc = {"passed": ref.passed, "counts": ref.counts(), "separation": ref.separation}
    doc.update((f"{name}_violations", found) for name, found in ref.violations().items())
    expected = json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == expected
    assert ref.counts()["angle"] and ref.counts()["cond1"] and ref.counts()["cond2"]


@st.composite
def uneven_codes(draw):
    """Small codes whose nodes mostly draw past the witness prefix, so sibling
    point counts differ; in the plane k >= 32 leaves room for several draws."""
    n = draw(st.sampled_from([2, 3, 5]))
    t_bar = draw(st.integers(1, 3))
    params = GalaxyParams(
        n=n, power=1e8, k=draw(st.sampled_from([9, 16, 32] if n >= 4 else [16, 32])),
        m_per_level=draw(st.integers(2, 7 if t_bar < 3 else 4)), t_bar=t_bar,
        master_seed=draw(st.integers(0, 2**16)), max_roots=draw(st.integers(1, 3)),
        saturation_probes=30, max_attempts=draw(st.sampled_from([5, 40])),
    )
    return build_code(params)


SETTINGS = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(code=uneven_codes())
def test_mixed_point_counts_match_reference(code):
    assert dataclasses.asdict(verify_structure(code)) == \
        dataclasses.asdict(verify_structure_reference(code))


def test_close_pairs_at_the_prune_margin():
    """Limits at a sibling node pair's measured clearance ||c_A - c_B|| -
    rho_A - rho_B, with start and rho as verify_structure takes them, and one
    float step either side.  Each node gets a codeword on the segment between
    the centers at its measured radius, so the codeword pair's distance is the
    clearance up to rounding, and only the node threshold's rounding stands
    between clearing the node pair and missing the codeword pair.  The same
    is checked at the codeword pair's own distance.  _close_pairs matches the
    all-pairs scan, and across the drawn cases some node pair is cleared
    above the codewords, so the pruning is exercised, not just the leaves."""
    at_least, cleared = experiments._at_least, []

    @SETTINGS
    @given(drawn=st.one_of(codes(max_roots=st.integers(2, 4)), uneven_codes()),
           pick=st.integers(0, 2**16))
    def check(drawn, pick):
        pairs = sibling_pairs(drawn)
        assume(pairs)
        a, b = pairs[pick % len(pairs)]
        c, u = drawn.centers, codeword_table(drawn)
        below = [np.flatnonzero(drawn.ancestors[:, drawn.heights[x] - 1] == x) for x in (a, b)]
        unit = (c[b] - c[a]) / np.linalg.norm(c[b] - c[a])
        rho = [max(np.linalg.norm(u[rows] - c[x], axis=1)) for x, rows in zip((a, b), below)]
        i, j = below[0][pick % len(below[0])], below[1][pick % len(below[1])]
        u[i], u[j] = c[a] + rho[0] * unit, c[b] - rho[1] * unit
        code = from_arrays(drawn.params, c, drawn.counts, u, drawn.packing_saturated)
        p, anc = code.params, code.ancestors
        start = len(code.roots) + np.cumsum(code.counts) - code.counts
        rho = np.zeros(len(c))
        np.maximum.at(rho, anc, np.linalg.norm(u[:, None] - c[anc], axis=2))
        limit = np.array([p.n ** (p.b + 0.25) / 2.0] + [
            pair_distance_lower_bound(p.r, p.k, p.theta, t) for t in range(1, p.t_bar + 1)]) - 1e-6
        k = int(code.heights[code.parents[a]]) if code.parents[a] >= 0 else 0

        def spy(u, sq, rows, threshold, cols):
            far = at_least(u, sq, rows, threshold, cols)
            if u is not code.codewords:
                cleared.append(bool((far & (rows[..., :, None] < cols[..., None, :])).any()))
            return far

        for tie in (float(np.linalg.norm(c[a] - c[b])) - (rho[a] + rho[b]),
                    float(np.linalg.norm(u[i] - u[j]))):
            for t in (math.nextafter(tie, -math.inf), tie, math.nextafter(tie, math.inf)):
                limit[k] = t
                with mock.patch.object(experiments, "_at_least", side_effect=spy):
                    close = experiments._close_pairs(code, start, rho, limit)
                assert list(map(tuple, close.T.tolist())) == _close_pairs_reference(code, limit)

    check()
    assert any(cleared)


def _node_points(code, v):
    """Row indices of node v's points and the table holding them."""
    if code.heights[v] == 1:
        return np.flatnonzero(code.ancestors[:, 0] == v), "codewords"
    return np.flatnonzero(code.parents == v), "centers"


@SETTINGS
@given(code=uneven_codes(), pick=st.integers(0, 2**16), step=st.sampled_from([-1, 0, 1]))
def test_angle_at_the_bound_is_reported_as_the_scalar_check_says(code, pick, step):
    """Two points of one node turned to theta - ANGLE_TOL apart; theta is then
    set so that theta - ANGLE_TOL is the scalar angle itself, or one float
    step either side.  The node is reported exactly when the scalar angle
    lies below the bound, and with the scalar's value."""
    nodes = np.flatnonzero(code.counts >= 2)
    assume(len(nodes))
    v = int(nodes[pick % len(nodes)])
    rows, name = _node_points(code, v)
    table = codeword_table(code) if name == "codewords" else code.centers.copy()
    center = code.centers[v]
    a, b = table[rows[0]] - center, table[rows[-1]] - center  # the prefix pairs e1 with -e1
    e1 = a / np.linalg.norm(a)
    e2 = b - (b @ e1) * e1
    assume(np.linalg.norm(e2) > 1e-3 * np.linalg.norm(b))
    e2 /= np.linalg.norm(e2)
    phi = code.params.theta - ANGLE_TOL
    table[rows[-1]] = center + np.linalg.norm(a) * (math.cos(phi) * e1 + math.sin(phi) * e2)
    moved = _moved(code, **{name: table})
    angle = min_pairwise_angle(table[rows], center)
    bound = angle if step == 0 else math.nextafter(angle, math.inf * step)
    theta = bound + ANGLE_TOL
    for _ in range(8):  # the float theta with theta - ANGLE_TOL == bound, where one exists
        if theta - ANGLE_TOL == bound:
            break
        theta = math.nextafter(theta, math.inf if theta - ANGLE_TOL < bound else -math.inf)
    assume(theta - ANGLE_TOL == bound)
    # the turned point may come nearer another point of the node than phi, and
    # a theta that small fails the separation condition GalaxyParams checks
    assume(separation_margins(code.params.k, theta)["strict_holds"])
    code = from_arrays(dataclasses.replace(moved.params, theta=theta), moved.centers,
                       moved.counts, codeword_table(moved), moved.packing_saturated)
    report = verify_structure(code)
    root = root_of(code, v)
    found = [f for f in report.angle_violations
             if (f["root"], f["height"], f["measured"]) == (root, code.heights[v], angle)]
    assert bool(found) == (angle < theta - ANGLE_TOL) == (step == 1)
    assert dataclasses.asdict(report) == dataclasses.asdict(verify_structure_reference(code))


def test_point_on_its_node_center_reads_angle_zero():
    # pytest turns a RuntimeWarning (a division by a zero norm) into an error
    code = _code(BENCHMARK_BUILDS["small-mc"], 100)
    u = codeword_table(code)
    u[2] = code.centers[code.ancestors[2, 0]]
    code = _moved(code, codewords=u)
    report = verify_structure(code)
    assert {"root": 0, "height": 1, "measured": 0.0, "bound": code.params.theta} in \
        report.angle_violations
    assert dataclasses.asdict(report) == dataclasses.asdict(verify_structure_reference(code))


@pytest.fixture(scope="module")
def large_code():
    return _code(BENCHMARK_BUILDS["large-n"], 100)


def test_large_code_runs_no_scalar_angle_and_blocks_not_nodes(large_code):
    """On the large-n code (N = 4096, 512 height-1 nodes) no node needs the
    scalar angle, and at each height the tiles reach _at_least in stacks
    whose count follows that height's block bound, not its node count: one
    stack per height once the bound holds them."""
    code, at_least = large_code, experiments._at_least
    leaves, t_bar = int((code.heights == 1).sum()), code.params.t_bar

    def calls(gather_cells):
        scalar, stacks = [], []

        def spy(u, sq, rows, threshold, cols):
            height = 0 if u is code.codewords else int(code.heights[rows.flat[0]])
            stacks.append((height, rows.shape))
            return at_least(u, sq, rows, threshold, cols)

        with mock.patch.object(experiments, "min_pairwise_angle",
                               side_effect=lambda *args: scalar.append(args)), \
                mock.patch.object(experiments, "_at_least", side_effect=spy), \
                mock.patch.object(experiments, "_DECIDE_CELLS", gather_cells):
            assert verify_structure(code).passed
        assert not scalar
        return stacks

    stacks = calls(experiments._DECIDE_CELLS)
    n = code.params.n
    # Each point is gathered twice, as a row and as a column of its sibling
    # group's tile: the codewords at height 0, the nodes of each height above.
    points = [len(code.codewords)] + [int((code.heights == t).sum()) for t in range(1, t_bar + 1)]
    for height, count in enumerate(points):
        at = [shape for t, shape in stacks if t == height]
        assert 1 <= len(at) <= -(-count * 2 * n // experiments._DECIDE_CELLS) + 1
    assert sum(shape[0] for t, shape in stacks if t == 0) >= leaves  # each leaf's own tile
    assert len(stacks) < leaves // 32
    assert sorted(t for t, _ in calls(2 * len(code.codewords) * n)) == list(range(t_bar + 1))


def test_verify_blocks_take_no_fresh_pages():
    """On the R = 16 ladder code (N = 8192), verify_structure's radial and
    node passes take at most 1000 more minor faults in a fresh process than
    after one 8 MB alloc/free: each pass allocates its buffers once, so its
    speed does not depend on the allocator state the load leaves.
    _close_pairs, whose tiles are not covered here, is stubbed to find no
    pair, as it finds none on this passing code.  With fresh blocks the
    passes took about 26 600 faults against 430."""
    stub = "experiments._close_pairs = lambda *args: np.empty((3, 0), dtype=np.intp)\n"
    cold, warm = minor_faults(LADDER + ("--max-roots", "16", "--seed", "5"),
                              stub + "assert experiments.verify_structure(code).passed")
    assert cold - warm <= 1000, (cold, warm)


def test_verify_peak_is_bounded_by_the_codeword_table(large_code):
    """verify_structure's traced peak is at most twice the codeword table; the
    blocks keep it near 1.5 times.  A per-node loop over one copy of every
    node's points, taking each height's radial distances for all codewords at
    once, measured 2.32 times on this code."""
    tracemalloc.start()
    try:
        verify_structure(large_code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * codeword_table(large_code).nbytes


def test_close_pairs_cuts_a_wide_sibling_group_into_blocks():
    """512 roots of depth 1: their 130816 center pairs form one sibling group.
    With _MASK_CELLS patched down, _close_pairs cuts the group into row
    stripes, so its traced peak stays within a few blocks, plus the codeword
    tiles' gathers of _DECIDE_CELLS cells.  Taking the group as one block
    held 28.5 MB here."""
    code = build_code(GalaxyParams(n=8, power=1e4, k=8, m_per_level=2, t_bar=1, max_roots=512,
                                   master_seed=1, saturation_probes=2000))
    assert len(code.roots) == 512
    close, cells, peaks = experiments._close_pairs, 1 << 12, []

    def traced(*args):
        tracemalloc.start()
        try:
            return close(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with mock.patch.object(experiments, "_MASK_CELLS", cells), \
            mock.patch.object(experiments, "_close_pairs", side_effect=traced):
        report = verify_structure(code)
    assert dataclasses.asdict(report) == dataclasses.asdict(verify_structure(code))
    assert peaks[0] <= 8 * (2 * experiments._DECIDE_CELLS + 16 * cells)
