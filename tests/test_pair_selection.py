"""The tree-block paths against direct per-pair definitions, one pair at a time:
pair selection, type-II meet rows, and the pairwise checks of verification;
and, over the same random codes, the block-batched Monte Carlo kernel against
per-codeword and per-pair decoder loops, the codeword table against a
node-by-node walk and the code file round trip."""

import copy
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from galaxyid import experiments
from galaxyid.channel import DecoderParams
from galaxyid.codefile import deserialize, serialize
from galaxyid.experiments import (
    PairStrategy,
    estimate_type1,
    estimate_type2,
    select_pairs,
    verify_structure,
)
from galaxyid.galaxy import (
    GalaxyCode,
    GalaxyParams,
    build_code,
    iter_nodes,
    pair_distance_lower_bound,
)
from galaxyid.seeding import derive_seed
from reference import meet_depth, type1_hits, type2_counts, walk_codewords

MODES = ("same-planet", "same-galaxy-deep", "cross-galaxy")


def reference_pairs(code, strategy, master_seed):
    """Walk all N(N-1) ordered pairs i-major, keep the matches, then cap them."""
    u, paths = code.codewords, code.index_paths
    t_bar = code.params.t_bar
    pairs = []
    for i in range(len(u)):
        for j in range(len(u)):
            if i == j:
                continue
            if paths[i, 0] != paths[j, 0]:
                if strategy.mode != "cross-galaxy":
                    continue
                if strategy.min_distance is not None:
                    if float(np.linalg.norm(u[i] - u[j])) < strategy.min_distance:
                        continue
                pairs.append((i, j))
            else:
                meet = meet_depth(paths[i], paths[j])
                if strategy.mode == "same-planet" and meet == 1:
                    pairs.append((i, j))
                elif strategy.mode == "same-galaxy-deep" and meet == t_bar:
                    pairs.append((i, j))
    if not pairs:
        raise ValueError(f"no pairs match strategy {strategy.mode!r}")
    if len(pairs) > experiments._PAIR_CAP:
        rng = np.random.default_rng(derive_seed(master_seed, "pair-cap"))
        keep = rng.choice(len(pairs), size=experiments._PAIR_CAP, replace=False)
        pairs = [pairs[int(t)] for t in np.sort(keep)]
    return pairs


def assert_same_selection(code, strategy, seed):
    try:
        expected = reference_pairs(code, strategy, seed)
    except ValueError:
        with pytest.raises(ValueError, match="no pairs match"):
            select_pairs(code, strategy, seed)
        return
    assert select_pairs(code, strategy, seed) == expected


@st.composite
def codes(draw):
    """Small codes at depths 1-3.  In the plane, k >= 32 leaves room for a
    random number of points past the axis witnesses, so a few attempts make
    sibling blocks of uneven size."""
    t_bar = draw(st.integers(1, 3))
    k = draw(st.sampled_from([8, 16, 32]))
    params = GalaxyParams(
        n=draw(st.sampled_from([8] if k == 8 else [2, 3, 8])),  # k=8 needs n >= 4
        power=1e8,
        k=k,
        m_per_level=draw(st.integers(2, 7 if t_bar < 3 else 4)),
        t_bar=t_bar,
        master_seed=draw(st.integers(0, 2**16)),
        max_roots=draw(st.integers(1, 4)),
        saturation_probes=30,
        max_attempts=draw(st.sampled_from([5, 40])),
    )
    return build_code(params)


SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(code=codes(), seed=st.integers(0, 2**16))
def test_select_pairs_matches_reference(code, seed):
    if len(code.codewords) < 2:
        return
    for mode in MODES:
        assert_same_selection(code, PairStrategy(mode=mode), seed)


@SETTINGS
@given(code=codes(), pick=st.integers(0, 2**16), seed=st.integers(0, 2**16))
def test_min_distance_tie_matches_reference(code, pick, seed):
    u, roots = code.codewords, code.index_paths[:, 0]
    cross = [(i, j) for i in range(len(u)) for j in range(len(u)) if roots[i] != roots[j]]
    if not cross:
        return
    i, j = cross[pick % len(cross)]
    tie = float(np.linalg.norm(u[i] - u[j]))
    for md in (tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)):
        assert_same_selection(code, PairStrategy(mode="cross-galaxy", min_distance=md), seed)


@SETTINGS
@given(code=codes(), cap=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_capped_selection_matches_reference(code, cap, seed):
    if len(code.codewords) < 2:
        return
    u = code.codewords
    median = float(np.median(np.linalg.norm(u - u[0], axis=1)))
    with mock.patch.object(experiments, "_PAIR_CAP", cap):
        for mode in MODES:
            assert_same_selection(code, PairStrategy(mode=mode), seed)
        assert_same_selection(code, PairStrategy(mode="cross-galaxy", min_distance=median), seed)


@pytest.fixture(scope="module")
def two_root_code():
    return build_code(
        GalaxyParams(n=16, power=130.0, k=8, m_per_level=3, master_seed=7, t_bar=2,
                     max_roots=3, saturation_probes=200)
    )


@pytest.fixture(scope="module")
def uneven_code():
    code = build_code(
        GalaxyParams(n=2, power=1e8, k=64, m_per_level=10, master_seed=0, t_bar=2,
                     max_roots=3, saturation_probes=30, max_attempts=5)
    )
    planets = Counter((root, planet) for root, planet, _ in code.index_paths.tolist())
    assert code.degraded and len(set(planets.values())) > 1
    return code


def test_uneven_blocks_match_reference(uneven_code):
    u = uneven_code.codewords
    tie = float(np.linalg.norm(u[0] - u[-1]))
    strategies = [PairStrategy(mode=mode) for mode in MODES] + [
        PairStrategy(mode="cross-galaxy", min_distance=md) for md in (tie, 0.0, -1.0)
    ]
    for strategy in strategies:
        assert_same_selection(uneven_code, strategy, 3)
    # one target row per distance block sends the filter through many blocks
    with mock.patch.object(experiments, "_MASK_CELLS", 1):
        assert_same_selection(uneven_code, strategies[-3], 3)


def test_exhaustive_sample_count_bounds(two_root_code):
    n_cw = len(two_root_code.codewords)
    ordered = n_cw * (n_cw - 1)
    every = select_pairs(
        two_root_code, PairStrategy(mode="exhaustive-sample", sample_count=ordered), 1
    )
    assert sorted(every) == [(i, j) for i in range(n_cw) for j in range(n_cw) if i != j]
    for count in (ordered + 1, -5):
        with pytest.raises(ValueError, match=rf"sample_count {count} outside \[1, {ordered}\]"):
            select_pairs(two_root_code, PairStrategy(mode="exhaustive-sample", sample_count=count), 1)


@SETTINGS
@given(code=codes(), seed=st.integers(0, 2**16))
def test_meet_rows_match_meet_depth(code, seed):
    n_cw = len(code.codewords)
    if n_cw < 2:
        return
    paths = code.index_paths
    strategies = [PairStrategy(mode=mode) for mode in MODES] + [
        PairStrategy(mode="exhaustive-sample", sample_count=min(40, n_cw * (n_cw - 1)))
    ]
    for strategy in strategies:
        try:
            pairs = select_pairs(code, strategy, seed)
        except ValueError:
            continue  # no pair of this class
        targets, senders = np.asarray(pairs).T
        expected = [-1 if m is None else m - 1 for m in (meet_depth(paths[i], paths[j]) for i, j in pairs)]
        assert experiments._meet_rows(code, targets, senders).tolist() == expected


def straddling_decoder(code, pairs, spread, width, scale):
    """Decoder thresholds at the scale of the pairs' offsets D (0 for a
    codeword with itself), so both outcomes of the shell and slab tests occur."""
    u, n = code.codewords, code.params.n
    d = float(np.median([np.linalg.norm(u[j] - u[i]) for i, j in pairs]))
    sigma = scale * max(d, 1.0) / math.sqrt(n)
    return DecoderParams(n=n, sigma=sigma, eps_n=spread * (d * d / n + sigma**2),
                         slab_halfwidth=width * (d + sigma))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    code=codes(),
    trials=st.integers(1, 230),
    seed=st.integers(0, 2**16),
    spread=st.floats(0.2, 2.0),
    width=st.floats(0.1, 1.5),
    scale=st.floats(0.3, 3.0),
)
def test_pair_kernel_matches_per_group_loops(code, trials, seed, spread, width, scale):
    """Hits and components of both estimators equal one decoder call per
    codeword or pair and unit, with blocks of one row and of three rows
    straddling unit starts (50-trial units) and pair wrap-around."""
    n_cw, t_bar, n = len(code.codewords), code.params.t_bar, code.params.n
    runs = [(None, [(i, i) for i in range(n_cw)])]
    if n_cw >= 2:
        median = float(np.median(np.linalg.norm(code.codewords - code.codewords[0], axis=1)))
        for strategy in [PairStrategy(mode=mode) for mode in MODES] + [
            PairStrategy(mode="exhaustive-sample", sample_count=min(40, n_cw * (n_cw - 1))),
            PairStrategy(mode="cross-galaxy", min_distance=median),
        ]:
            try:
                runs.append((strategy, select_pairs(code, strategy, seed)))
            except ValueError:
                continue  # no pair of this class
    with mock.patch.object(experiments, "UNIT_SIZE", 50):
        for strategy, pairs in runs:
            dec = straddling_decoder(code, pairs, spread, width, scale)
            if strategy is None:
                expected = type1_hits(code, dec, trials, seed)
            else:
                expected = type2_counts(code, strategy, dec, trials, seed)
            for cells in (1, 3 * t_bar * n, experiments._DECIDE_CELLS):
                for threads in (1, 2):
                    with mock.patch.object(experiments, "_DECIDE_CELLS", cells):
                        if strategy is None:
                            est = estimate_type1(code, dec, trials, seed, threads)
                            assert est.hits == expected
                            assert est.components == {}
                        else:
                            est = estimate_type2(code, strategy, dec, trials, seed, threads)
                            assert (est.hits, est.components) == (expected[0], {
                                "shell_hits": expected[1], "decisive_slab_hits": expected[2]})


def reference_violations(code, tol=1e-6):
    """cond2 and cross-galaxy violations from an i < j loop over every pair."""
    p = code.params
    u, paths = code.codewords, code.index_paths
    floor = p.n ** (p.b + 0.25) / 2.0
    cond2, cross = [], []
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            d = float(np.linalg.norm(u[i] - u[j]))
            meet = meet_depth(paths[i], paths[j])
            if meet is None:
                if d < floor - tol:
                    cross.append({"pair": (i, j), "measured": d, "bound": floor})
                continue
            bound = pair_distance_lower_bound(p.r, p.k, p.theta, meet)
            if d < bound - tol:
                cond2.append({"pair": (i, j), "meet": meet, "measured": d, "bound": bound})
    return cond2, cross


def crowded(code, offset, leaf, pull):
    """The code with root 1's galaxy moved next to root 0's, shifted by `offset`
    along the first axis, and one leaf pulled toward its list neighbour."""
    u = code.codewords.copy()
    roots = code.index_paths[:, 0]
    if roots.max() > 0:
        moved = roots == 1
        u[moved] += u[0] - u[np.flatnonzero(moved)[0]]
        u[moved, 0] += offset
    i = leaf % len(u)
    j = i + 1 if i + 1 < len(u) else max(i - 1, 0)
    u[i] += pull * (u[j] - u[i])
    trees = copy.deepcopy(code.trees)
    start = 0
    for node in (node for root in trees for node in iter_nodes(root) if node.height == 1):
        node.code.points = u[start : start + len(node.code)]  # leaves in codeword order
        start += len(node.code)
    return GalaxyCode(code.params, trees, code.packing_saturated)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    code=codes(),
    offset=st.floats(0.0, 2.0),
    leaf=st.integers(0, 2**16),
    pull=st.floats(0.0, 0.99),
    tol=st.sampled_from([1e-6, -0.01]),  # a negative tolerance demands a margin
)
@example(  # pulls a leaf onto its node's center: the angle check must not divide by 0
    code=build_code(GalaxyParams(n=2, power=1e8, k=16, m_per_level=2, t_bar=1, master_seed=0,
                                 max_roots=1, saturation_probes=30, max_attempts=5)),
    offset=0.0, leaf=0, pull=0.5, tol=1e-6,
)
def test_pairwise_violations_match_reference(code, offset, leaf, pull, tol):
    code = crowded(code, offset, leaf, pull)
    expected = reference_violations(code, tol)
    for cells in (experiments._MASK_CELLS, 1):
        with mock.patch.object(experiments, "_MASK_CELLS", cells):
            report = verify_structure(code, tol)
        assert (report.cond2_violations, report.cross_galaxy_violations) == expected


def test_at_least_meets_nonpositive_thresholds_without_recheck():
    # A distance is never negative, so a cell whose threshold is <= 0 (the
    # codeword itself in every verify block) is far with no norm recheck.
    u = np.random.default_rng(0).standard_normal((6, 4))
    sq = np.einsum("ij,ij->i", u, u)
    dist = np.linalg.norm(u[:, None] - u[None, :], axis=2)
    scale = np.where(np.arange(36).reshape(6, 6) % 2, 0.5, 2.0)
    for diagonal in (0.0, -1e-6):
        threshold = np.where(np.eye(6, dtype=bool), diagonal, dist * scale)
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            far = experiments._at_least(u, sq, np.arange(6), threshold)
            everywhere = experiments._at_least(u, sq, np.arange(6), diagonal)
        assert norm.call_count == 0
        np.testing.assert_array_equal(far, dist >= threshold)
        assert everywhere.all()


@SETTINGS
@given(code=codes())
def test_codeword_table_matches_node_walk(code):
    walked = walk_codewords(code)
    expected = {
        "codewords": (np.asarray([c.u for c in walked]), code.codewords),
        "chains": (np.asarray([c.path for c in walked]), code.centers[code.ancestors]),
        "index_paths": (
            np.asarray([(c.root_index, *c.index_path) for c in walked], dtype=np.intp),
            code.index_paths,
        ),
    }
    for name, (ref, table) in expected.items():
        assert (ref.shape, ref.dtype, ref.tobytes()) == (table.shape, table.dtype, table.tobytes()), name


@SETTINGS
@given(code=codes())
def test_code_file_round_trip_is_bit_identical(code):
    text = serialize(code)
    back = deserialize(text)
    assert serialize(back) == text
    assert (back.degraded, back.packing_saturated) == (code.degraded, code.packing_saturated)
    for name in ("codewords", "centers", "ancestors", "index_paths"):
        a, b = getattr(code, name), getattr(back, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    nodes = [node for root in code.trees for node in iter_nodes(root)]
    back_nodes = [node for root in back.trees for node in iter_nodes(root)]
    for a, b in zip(nodes, back_nodes, strict=True):
        assert (a.height, a.code.radius) == (b.height, b.code.radius)
        assert a.code.saturated == b.code.saturated
