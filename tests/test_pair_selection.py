"""The tree-block paths against direct per-pair definitions, one pair at a time:
pair selection, type-II meet rows, and the pairwise checks of verification;
and, over the same random codes, the block-batched Monte Carlo kernel against
per-codeword and per-pair decoder loops, the codeword rows against a
node-by-node walk and the materialized table, and the code file round trip."""

import math
import os
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from galaxyid import experiments
from galaxyid.channel import DecoderParams, unit_directions
from galaxyid.codefile import deserialize, serialize
from galaxyid.experiments import (
    PairStrategy,
    estimate_type1,
    estimate_type2,
    select_pairs,
    verify_structure,
)
from galaxyid.galaxy import GalaxyParams, build_code, pair_distance_lower_bound
from galaxyid.seeding import derive_seed
from reference import (
    NoDraws,
    assert_same_code,
    codeword_table,
    from_arrays,
    index_paths,
    meet_depth,
    reference_violations,
    stack_galaxies,
    type1_hits,
    type2_counts,
    walk_codewords,
)

MODES = ("same-planet", "same-galaxy-deep", "cross-galaxy")


def reference_pairs(code, strategy, master_seed):
    """Walk all N(N-1) ordered pairs i-major, keep the [i, j] matches, then cap them."""
    u, paths = codeword_table(code), index_paths(code)
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
                pairs.append([i, j])
            else:
                meet = meet_depth(paths[i], paths[j])
                if strategy.mode == "same-planet" and meet == 1:
                    pairs.append([i, j])
                elif strategy.mode == "same-galaxy-deep" and meet == t_bar:
                    pairs.append([i, j])
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
    assert select_pairs(code, strategy, seed).tolist() == expected


@st.composite
def codes(draw, max_roots=st.integers(1, 4)):
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
        max_roots=draw(max_roots),
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
    u, roots = codeword_table(code), index_paths(code)[:, 0]
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
    u = codeword_table(code)
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
    planets = Counter((root, planet) for root, planet, _ in index_paths(code).tolist())
    assert code.degraded and len(set(planets.values())) > 1
    return code


def test_uneven_blocks_match_reference(uneven_code):
    u = codeword_table(uneven_code)
    tie = float(np.linalg.norm(u[0] - u[-1]))
    strategies = [PairStrategy(mode=mode) for mode in MODES] + [
        PairStrategy(mode="cross-galaxy", min_distance=md) for md in (tie, 0.0)
    ]  # a negative min_distance is refused (test_pair_strategy_validation)
    for strategy in strategies:
        assert_same_selection(uneven_code, strategy, 3)
    # one target row per distance block sends the filter through many blocks
    with mock.patch.object(experiments, "_MASK_CELLS", 1):
        assert_same_selection(uneven_code, strategies[-2], 3)


def test_min_distance_refuses_past_its_work_cap(two_root_code, monkeypatch):
    """A min_distance filter of N^2 n coordinate products at the cap still
    runs; one product past it is refused before any distance is taken."""
    n_cw, n = two_root_code.codewords.shape
    strategy = PairStrategy(mode="cross-galaxy", min_distance=0.0)
    monkeypatch.setattr(experiments, "_MIN_DISTANCE_CAP", n_cw * n_cw * n)
    assert_same_selection(two_root_code, strategy, 3)

    def untouched(u):
        raise AssertionError("squared norms taken past the cap")

    cap = n_cw * n_cw * n - 1
    monkeypatch.setattr(experiments, "_MIN_DISTANCE_CAP", cap)
    monkeypatch.setattr(experiments, "_sq_norms", untouched)
    with pytest.raises(ValueError) as err:
        select_pairs(two_root_code, strategy, 3)
    message = str(err.value)
    assert f"N = {n_cw} codewords of n = {n} coordinates" in message
    assert f"cap of {cap} coordinate products" in message


def test_min_distance_past_the_diameter_bound_matches_no_pair_at_once():
    """A min_distance above 2 max ||u||, widened by the rounding band, matches
    no pair, and select_pairs says so before it compares any: no distance
    test, no norm recheck and no overflow warning, also where the
    threshold's square overflows (from about 1.34e154).  Such a square made
    every cell a recheck: 16 384 on this 128-codeword code."""
    code = build_code(GalaxyParams(n=64, k=8, power=4000, max_roots=32, master_seed=100))
    far = 2.0 * float(np.linalg.norm(codeword_table(code), axis=1).max())
    assert len(code.codewords) == 128
    for min_distance in (far * (1 + 1e-9), 1.4e154, 1e300, np.finfo(np.float64).max):
        strategy = PairStrategy(mode="cross-galaxy", min_distance=min_distance)
        with warnings.catch_warnings(), \
                mock.patch.object(np.linalg, "norm", side_effect=AssertionError("rechecked")), \
                mock.patch.object(experiments, "_at_least", side_effect=AssertionError("compared")):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no pairs match strategy 'cross-galaxy'"):
                select_pairs(code, strategy, 1)
    assert_same_selection(code, PairStrategy(mode="cross-galaxy", min_distance=far), 1)


def test_exhaustive_sample_count_bounds(two_root_code):
    n_cw = len(two_root_code.codewords)
    ordered = n_cw * (n_cw - 1)
    every = select_pairs(
        two_root_code, PairStrategy(mode="exhaustive-sample", sample_count=ordered), 1
    )
    assert sorted(every.tolist()) == [[i, j] for i in range(n_cw) for j in range(n_cw) if i != j]
    for count in (ordered + 1, -5):
        with pytest.raises(ValueError, match=rf"sample_count {count} outside \[1, {ordered}\]"):
            select_pairs(two_root_code, PairStrategy(mode="exhaustive-sample", sample_count=count), 1)


@SETTINGS
@given(code=codes(), seed=st.integers(0, 2**16))
def test_meet_rows_match_meet_depth(code, seed):
    n_cw = len(code.codewords)
    if n_cw < 2:
        return
    paths = index_paths(code)
    strategies = [PairStrategy(mode=mode) for mode in MODES] + [
        PairStrategy(mode="exhaustive-sample", sample_count=min(40, n_cw * (n_cw - 1)))
    ]
    for strategy in strategies:
        try:
            pairs = select_pairs(code, strategy, seed)
        except ValueError:
            continue  # no pair of this class
        targets, senders = pairs.T
        expected = [-1 if m is None else m - 1 for m in (meet_depth(paths[i], paths[j]) for i, j in pairs)]
        assert experiments._meet_rows(code, targets, senders).tolist() == expected


def reference_layout(code):
    """Each codeword's [start, end) block at every tree level L: the codewords
    whose index_paths rows share its first L entries, checked to be one run."""
    paths, n_cw = index_paths(code), len(code.codewords)
    lo, hi = [], []
    for level in range(code.params.t_bar + 2):
        same = (paths[:, None, :level] == paths[None, :, :level]).all(axis=2)
        first, last = same.argmax(axis=1), n_cw - same[:, ::-1].argmax(axis=1)
        assert (same.sum(axis=1) == last - first).all()
        lo.append(first)
        hi.append(last)
    return np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)


@SETTINGS
@given(code=codes())
@example(  # three roots, uneven sibling blocks at depth 3
    code=build_code(GalaxyParams(n=2, power=1e8, k=64, m_per_level=6, master_seed=0, t_bar=3,
                                 max_roots=3, saturation_probes=30, max_attempts=5)),
)
def test_tree_layout_matches_reference_paths(code):
    ref_lo, ref_hi = reference_layout(code)
    assert len(ref_lo) == code.params.t_bar + 2
    for level, refs in enumerate(zip(ref_lo, ref_hi)):
        for ref, table in zip(refs, experiments._tree_layout(code, level), strict=True):
            assert (ref.shape, ref.dtype, ref.tobytes()) == \
                (table.shape, table.dtype, table.tobytes()), level


@pytest.mark.parametrize("mode", ["same-galaxy-deep", "cross-galaxy", "exhaustive-sample"])
def test_select_pairs_lays_out_only_the_levels_it_reads(mode):
    """On 65 536 codewords, far more than the _PAIR_CAP pairs it keeps, pair
    selection's traced peak stays within 7 codeword-length arrays (the
    [start, end) of its two tree levels, their keys, block sizes and the
    sizes' running sum) and 8 pair-length ones: it lays out no level it does
    not read.  Laying out all t_bar + 2 levels took 136 bytes a codeword."""
    code = build_code(GalaxyParams(n=16, power=1e8, k=16, m_per_level=8, t_bar=3, max_roots=128,
                                   master_seed=3, saturation_probes=30))
    n_cw = len(code.codewords)
    assert n_cw == 65536
    strategy = PairStrategy(mode=mode, sample_count=experiments._PAIR_CAP
                            if mode == "exhaustive-sample" else None)
    select_pairs(code, strategy, 1)  # the modules it imports on first use are not its working set
    tracemalloc.start()
    try:
        pairs = select_pairs(code, strategy, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == experiments._PAIR_CAP
    assert peak <= 8 * (7 * n_cw + 8 * experiments._PAIR_CAP)


def test_min_norm_rechecks_near_ties():
    # Permutations of one vector have one exact norm but round differently, so
    # the row with the smallest einsum need not have the smallest per-row norm.
    shortcuts = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(64)
        rows = np.stack([rng.permutation(v) for _ in range(50)] + [2.0 * v])
        expected = min(float(np.linalg.norm(row)) for row in rows)
        assert experiments._min_norm(rows) == expected
        sq = np.einsum("ij,ij->i", rows, rows)
        shortcuts += float(np.linalg.norm(rows[sq.argmin()])) != expected
        shortcuts += math.sqrt(sq.min()) != expected
    assert shortcuts  # without the recheck the result would differ


def straddling_decoder(code, pairs, spread, width, scale):
    """Decoder thresholds at the scale of the pairs' offsets D (0 for a
    codeword with itself), so both outcomes of the shell and slab tests occur."""
    u, n = codeword_table(code), code.params.n
    d = float(np.median([np.linalg.norm(u[j] - u[i]) for i, j in pairs]))
    sigma = scale * max(d, 1.0) / math.sqrt(n)
    return DecoderParams(n=n, sigma=sigma, eps_n=spread * (d * d / n + sigma**2),
                         slab_halfwidth=width * (d + sigma))


def assert_kernel_matches_reference(code, strategy, dec, trials, seed):
    """Hits and components of the estimator (type 1 for strategy None) equal
    one decoder call per codeword or pair and unit, in 50-trial units, at 1
    and 2 threads: in decide() blocks of one row; of three rows; of five
    rows, so a block ends at the wrap of P = 25 or 50 pairs with no cut; of
    16 rows, so a block holds 16, 14 or 2 rows, and P = 7 lies below a
    block's rows (the pairs tiled once) and P = 25 between a block and a
    unit (blocks cut at the end of the pair list); and of the default size."""
    t_bar, n = code.params.t_bar, code.params.n
    with mock.patch.object(experiments, "UNIT_SIZE", 50):
        if strategy is None:
            expected = type1_hits(code, dec, trials, seed), {}
        else:
            hits, shell_hits, slab_hits = type2_counts(code, strategy, dec, trials, seed)
            expected = hits, {"shell_hits": shell_hits, "decisive_slab_hits": slab_hits}
        for rows in (1, 3, 5, 16, None):
            cells = experiments._DECIDE_CELLS if rows is None else rows * t_bar * n
            with mock.patch.object(experiments, "_DECIDE_CELLS", cells):
                for threads in (1, 2):
                    if strategy is None:
                        est = estimate_type1(code, dec, trials, seed, threads)
                    else:
                        est = estimate_type2(code, strategy, dec, trials, seed, threads)
                    assert (est.hits, est.components) == expected


def assert_table_scatters_to_unit_directions(code):
    """_direction_table's cells, scattered into zeros level by level, give
    unit_directions bit for bit; each list holds its direction's nonzero
    coordinates in order, then padding of coordinate 0 and value 0.0.
    Returns K, the cells per list."""
    coords, values = experiments._direction_table(code, np.arange(len(code.codewords)))
    u, t_bar, n = codeword_table(code), code.params.t_bar, code.params.n
    assert coords.shape == values.shape == (len(u), t_bar, coords.shape[2])
    real = values != 0
    assert (coords[~real] == 0).all() and (np.diff(real.astype(int), axis=2) <= 0).all()
    assert (np.diff(coords, axis=2)[real[..., 1:]] > 0).all()  # no cell repeats
    expected = unit_directions(u, code.centers[code.ancestors])
    dense = np.zeros_like(expected)
    for level in range(t_bar):
        rows, cells = np.nonzero(real[:, level])
        dense[rows, level, coords[rows, level, cells]] = values[rows, level, cells]
    assert dense.tobytes() == expected.tobytes()
    return coords.shape[2]


@SETTINGS
@given(code=codes())
def test_direction_table_scatters_to_unit_directions(code):
    assert_table_scatters_to_unit_directions(code)


def test_direction_table_of_drawn_nodes_keeps_every_coordinate():
    """Nodes that draw past the witness prefix have directions with no zero
    coordinate, so some list holds all n coordinates of its direction."""
    code = build_code(GalaxyParams(n=4, k=64, theta=0.9, m_per_level=16, t_bar=3, power=1e8,
                                   max_roots=3, master_seed=1))
    assert len(code.exceptions[0])  # nodes whose points the prefix does not give
    assert assert_table_scatters_to_unit_directions(code) == code.params.n


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
    """The kernel against per-group decoder loops on random codes, with
    blocks straddling unit starts and pair wrap-around."""
    n_cw = len(code.codewords)
    runs = [(None, [(i, i) for i in range(n_cw)])]
    if n_cw >= 2:
        u = codeword_table(code)
        median = float(np.median(np.linalg.norm(u - u[0], axis=1)))
        for strategy in [PairStrategy(mode=mode) for mode in MODES] + [
            PairStrategy(mode="exhaustive-sample", sample_count=min(40, n_cw * (n_cw - 1))),
            PairStrategy(mode="cross-galaxy", min_distance=median),
        ]:
            try:
                runs.append((strategy, select_pairs(code, strategy, seed)))
            except ValueError:
                continue  # no pair of this class
    for strategy, pairs in runs:
        dec = straddling_decoder(code, pairs, spread, width, scale)
        assert_kernel_matches_reference(code, strategy, dec, trials, seed)


@pytest.fixture(scope="module")
def wide_code():
    """64 codewords, more than one 50-trial unit."""
    return build_code(GalaxyParams(n=8, power=1e8, k=16, m_per_level=4, master_seed=2, t_bar=2,
                                   max_roots=4, saturation_probes=30))


UNIT_EDGES = pytest.mark.parametrize("pair_count", [None, 7, 25, 50, 73, 150],
                                     ids=["type1", "P7", "P25", "P50", "P73", "P150"])


def edge_run(code, pair_count):
    """(strategy, pairs) of type 1 (strategy None) or of pair_count
    exhaustive-sample pairs at seed 11."""
    if pair_count is None:
        return None, [(i, i) for i in range(len(code.codewords))]
    strategy = PairStrategy(mode="exhaustive-sample", sample_count=pair_count)
    return strategy, select_pairs(code, strategy, 11)


@UNIT_EDGES
@pytest.mark.parametrize("code_name", ["two_root_code", "wide_code"])
def test_pair_kernel_matches_reference_across_unit_edges(code_name, pair_count, request):
    """The kernel against per-group decoder loops for P pairs below,
    dividing, equal to and above the 50-trial unit, P = 73 wrapping in the
    middle of the second unit, and type 1 on 27 and on 64 codewords."""
    code = request.getfixturevalue(code_name)
    strategy, pairs = edge_run(code, pair_count)
    dec = straddling_decoder(code, pairs, 1.0, 0.5, 1.0)
    assert_kernel_matches_reference(code, strategy, dec, 230, 11)


@UNIT_EDGES
@pytest.mark.parametrize("code_name", ["two_root_code", "wide_code"])
def test_pair_kernel_matches_reference_at_sigma_one(code_name, pair_count, request):
    """The same runs at sigma = 1.0 exactly, where the kernel skips its
    multiply by sigma, with a shell and a slab of unit scale that noise of
    sigma 1 both passes and fails."""
    code = request.getfixturevalue(code_name)
    strategy, _ = edge_run(code, pair_count)
    dec = DecoderParams(n=code.params.n, sigma=1.0, eps_n=0.5, slab_halfwidth=1.0)
    assert_kernel_matches_reference(code, strategy, dec, 230, 11)


def test_degenerate_chain_raises_before_any_draw(wide_code):
    """A codeword on its planet's center has no slab line: both estimators
    raise while filling the direction table, one row per block, before
    their first draw."""
    code = wide_code
    words = codeword_table(code)
    words[-1] = code.centers[code.ancestors[-1, 0]]
    bad = from_arrays(code.params, code.centers, code.counts, words, code.packing_saturated)
    dec = DecoderParams.from_galaxy(code.params)
    with mock.patch.object(experiments.np.random, "default_rng", lambda seed: NoDraws()), \
            mock.patch.object(experiments, "_DECIDE_CELLS", 1):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_type1(bad, dec, 1000, 1)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_type2(bad, PairStrategy(mode="same-planet"), dec, 1000, 1)


def spied_tables(run, pause=0.0):
    """The codeword rows of each _direction_table call made while run() runs,
    and run()'s result; each call first sleeps `pause` seconds."""
    built, table = [], experiments._direction_table

    def spy(code, rows):
        built.append(np.asarray(rows).tolist())
        time.sleep(pause)
        return table(code, rows)

    with mock.patch.object(experiments, "_direction_table", side_effect=spy):
        result = run()
    return built, result


@pytest.mark.parametrize("threads", [1, 2])
def test_direction_table_covers_the_rows_the_trials_read(wide_code, threads):
    """Type 1 builds the table over the first min(trials, N) codewords, or
    all N when they are tiled (N at most a block's rows); type 2 over its
    distinct targets.  A cross-galaxy run builds it once a block has a row in
    the shell, and never if none has."""
    code = wide_code
    n_cw, rows = len(code.codewords), code.params.t_bar * code.params.n
    dec = DecoderParams.from_galaxy(code.params)
    with mock.patch.object(experiments, "UNIT_SIZE", 50):
        for cells, trials, read in ((5 * rows, 30, 30), (5 * rows, 230, n_cw),
                                    (experiments._DECIDE_CELLS, 30, n_cw)):
            with mock.patch.object(experiments, "_DECIDE_CELLS", cells):
                built, _ = spied_tables(lambda: estimate_type1(code, dec, trials, 1, threads))
            assert built == [list(range(read))]
        for strategy in (PairStrategy(mode="same-planet"),
                         PairStrategy(mode="exhaustive-sample", sample_count=40),
                         PairStrategy(mode="cross-galaxy")):
            pairs = select_pairs(code, strategy, 1)
            targets = np.unique(pairs[:, 0]).tolist()
            shelled = straddling_decoder(code, pairs, 1.0, 0.5, 1.0)
            built, est = spied_tables(lambda: estimate_type2(code, strategy, shelled, 230, 1,
                                                            threads))
            assert est.components["shell_hits"] > 0
            assert built == [targets], strategy.mode
        built, est = spied_tables(lambda: estimate_type2(code, strategy, dec, 230, 1, threads))
        assert est.components["shell_hits"] == 0
        assert built == []


def test_cross_galaxy_table_is_built_once_by_many_threads(wide_code, monkeypatch):
    """Eight workers on eight units, switching every microsecond, reach the
    shell while the first to get there builds the table (slowed down): it
    is built once, and every count equals the one-thread run."""
    code, strategy = wide_code, PairStrategy(mode="cross-galaxy")
    dec = straddling_decoder(code, select_pairs(code, strategy, 1), 1.0, 0.5, 1.0)
    monkeypatch.setattr(experiments, "UNIT_SIZE", 50)
    expected = estimate_type2(code, strategy, dec, 400, 1, 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        built, est = spied_tables(lambda: estimate_type2(code, strategy, dec, 400, 1, 8), 0.05)
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 1 and expected.components["shell_hits"] > 0
    assert (est.hits, est.components, est.analytic_bound) == \
        (expected.hits, expected.components, expected.analytic_bound)


@pytest.mark.parametrize("threads", [1, 2])
def test_cross_shell_bound_takes_the_least_norm_of_every_cross_pair(wide_code, threads):
    """The cross-shell term's d_min is the least np.linalg.norm of a
    cross-root pair's offset, over all P pairs, whether the trials stop just
    before the least pair (measured after the run) or just after it, visit
    every pair or visit them twice; with
    the pairs tiled (P at most a block's rows) or cut in 16-row blocks."""
    code = wide_code
    u, rows = codeword_table(code), code.params.t_bar * code.params.n
    dec = DecoderParams.from_galaxy(code.params)
    shell_prob_cross, visited = experiments.shell_prob_cross, set()
    for strategy in (PairStrategy(mode="cross-galaxy"),
                     PairStrategy(mode="exhaustive-sample", sample_count=150)):
        pairs = select_pairs(code, strategy, 1)
        norms = [float(np.linalg.norm(u[j] - u[i])) if m < 0 else math.inf
                 for (i, j), m in zip(pairs.tolist(), experiments._meet_rows(code, *pairs.T))]
        d_min, first = min(norms), norms.index(min(norms))
        for cells in (16 * rows, experiments._DECIDE_CELLS):
            for trials in (max(first, 1), first + 1, len(pairs), 2 * len(pairs) + 7):
                with mock.patch.object(experiments, "UNIT_SIZE", 500), \
                        mock.patch.object(experiments, "_DECIDE_CELLS", cells), \
                        mock.patch.object(experiments, "shell_prob_cross",
                                          wraps=shell_prob_cross) as spy:
                    est = estimate_type2(code, strategy, dec, trials, 1, threads)
                assert spy.call_args.args[1] == d_min
                assert est.analytic_bound == max(
                    [shell_prob_cross(dec, d_min)]
                    + [experiments._slab_tail(code, dec)] * (strategy.mode != "cross-galaxy"))
                visited.add(first < trials)
    assert visited == {False, True}  # the least pair is both visited and measured after


def test_degenerate_cross_galaxy_target_raises_at_the_first_block_in_the_shell(wide_code):
    """With only cross-root pairs the table waits for a row in the shell: a
    degenerate target chain raises there, before any decide(), and a
    degenerate codeword that is no target never stops the run."""
    code = wide_code
    words = codeword_table(code)
    words[-1] = code.centers[code.ancestors[-1, 0]]
    bad = from_arrays(code.params, code.centers, code.counts, words, code.packing_saturated)
    strategy = PairStrategy(mode="cross-galaxy")
    pairs = select_pairs(bad, strategy, 1)
    assert len(words) - 1 in pairs[:, 0]
    dec = straddling_decoder(bad, pairs, 1.0, 0.5, 1.0)
    in_shell, shelled = experiments.in_shell, []

    def spy(block, params):
        shell = in_shell(block, params)
        shelled.append(bool(shell.any()))
        return shell

    with mock.patch.object(experiments, "_DECIDE_CELLS", code.params.t_bar * code.params.n), \
            mock.patch.object(experiments, "in_shell", side_effect=spy), \
            mock.patch.object(experiments, "decide", side_effect=AssertionError("decided")):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_type2(bad, strategy, dec, 1000, 1)
    assert shelled.count(True) == 1 and shelled[-1]

    with mock.patch.object(experiments, "_PAIR_CAP", 20), \
            mock.patch.object(experiments, "UNIT_SIZE", 50):
        seed = next(s for s in range(100)
                    if len(words) - 1 not in select_pairs(bad, strategy, s)[:, 0])
        pairs = select_pairs(bad, strategy, seed)
        dec = straddling_decoder(bad, pairs, 1.0, 0.5, 1.0)
        est = estimate_type2(bad, strategy, dec, 230, seed)
        hits, shell_hits, slab_hits = type2_counts(bad, strategy, dec, 230, seed)
    assert shell_hits > 0
    assert (est.hits, est.components) == \
        (hits, {"shell_hits": shell_hits, "decisive_slab_hits": slab_hits})


def crowded(code, offset, leaf, pull):
    """The code with root 1's galaxy moved next to root 0's, shifted by `offset`
    along the first axis, and one leaf pulled toward its list neighbour."""
    u = codeword_table(code)
    roots = index_paths(code)[:, 0]
    if roots.max() > 0:
        moved = roots == 1
        u[moved] += u[0] - u[np.flatnonzero(moved)[0]]
        u[moved, 0] += offset
    i = leaf % len(u)
    j = i + 1 if i + 1 < len(u) else max(i - 1, 0)
    u[i] += pull * (u[j] - u[i])
    return from_arrays(code.params, code.centers, code.counts, u, code.packing_saturated)


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


def sibling_pairs(code):
    """Every pair of distinct nodes with one parent, roots included."""
    parents = code.parents.tolist()
    return [(a, b) for b in range(len(parents)) for a in range(b) if parents[a] == parents[b]]


def measured_gap(code, a, b):
    """||c_a - c_b|| - (rho_a + rho_b), with rho a node's largest distance to a
    codeword below it, in the operations verification uses."""
    c, u = code.centers, codeword_table(code)
    rho = [max(np.linalg.norm(u[code.ancestors[:, code.heights[x] - 1] == x] - c[x], axis=1))
           for x in (a, b)]
    return float(np.linalg.norm((c[a] - c[b])[None], axis=1)[0] - (rho[0] + rho[1]))


def tol_for(bound, threshold):
    """A tol with bound - tol == threshold, or the nearest this search finds."""
    tol = bound - threshold
    for _ in range(8):
        got = bound - tol
        if got == threshold:
            break
        tol = math.nextafter(tol, math.inf if got > threshold else -math.inf)
    return tol


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(code=codes(max_roots=st.integers(2, 4)), pick=st.integers(0, 2**16))
def test_prune_boundary_matches_reference(code, pick):
    """Thresholds at a sibling node pair's measured gap, and one float step
    either side, with a codeword pair placed on the gap: each of the two
    nodes gets a codeword on the segment between their centers, at the
    node's measured radius.  The codeword pair's distance then equals the
    gap up to rounding, so only the margin stands between clearing the
    node pair and missing a violation.  The same is checked at the
    codeword pair's own distance, where the exact test breaks the tie."""
    pairs = sibling_pairs(code)
    if not pairs:
        return
    a, b = pairs[pick % len(pairs)]
    c, u = code.centers, codeword_table(code)
    below = [np.flatnonzero(code.ancestors[:, code.heights[x] - 1] == x) for x in (a, b)]
    unit = (c[b] - c[a]) / np.linalg.norm(c[b] - c[a])
    rho = [max(np.linalg.norm(u[rows] - c[x], axis=1)) for x, rows in zip((a, b), below)]
    i, j = below[0][pick % len(below[0])], below[1][pick % len(below[1])]
    u[i], u[j] = c[a] + rho[0] * unit, c[b] - rho[1] * unit
    code = from_arrays(code.params, code.centers, code.counts, u, code.packing_saturated)
    p = code.params
    meet = code.heights[code.parents[a]] if code.parents[a] >= 0 else None
    bound = (p.n ** (p.b + 0.25) / 2.0 if meet is None
             else pair_distance_lower_bound(p.r, p.k, p.theta, int(meet)))
    for tie in (measured_gap(code, a, b), float(np.linalg.norm(u[i] - u[j]))):
        for threshold in (math.nextafter(tie, -math.inf), tie, math.nextafter(tie, math.inf)):
            tol = tol_for(bound, threshold)
            report = verify_structure(code, tol)
            assert (report.cond2_violations, report.cross_galaxy_violations) == \
                reference_violations(code, tol)


def test_gap_meeting_its_threshold_exactly_is_cleared():
    """With every center and codeword at the origin, each node pair's gap is
    0 with nothing to round.  At tol = the cross-galaxy floor the root pairs'
    threshold is 0 too, so the root pass clears them all and no codeword tile
    spans two roots."""
    built = build_code(GalaxyParams(n=8, power=1e8, k=16, m_per_level=3, t_bar=2,
                                    master_seed=1, max_roots=3, saturation_probes=30))
    assert len(built.roots) == 3
    code = from_arrays(built.params, np.zeros_like(built.centers), built.counts,
                       np.zeros_like(codeword_table(built)), built.packing_saturated)
    floor = code.params.n ** (code.params.b + 0.25) / 2.0
    roots, at_least, blocks = code.ancestors[:, -1], experiments._at_least, []

    def spy(u, sq, rows, threshold, cols):
        far = at_least(u, sq, rows, threshold, cols)
        blocks.append((u is code.codewords, rows, cols, far))
        return far

    with mock.patch.object(experiments, "_at_least", side_effect=spy):
        report = verify_structure(code, tol=floor)
    assert (report.cond2_violations, report.cross_galaxy_violations) == \
        reference_violations(code, floor)
    node_root = np.empty(len(code.centers), dtype=np.intp)
    node_root[code.ancestors] = code.ancestors[:, -1:]
    assert any(leaf for leaf, *_ in blocks)
    # Each tile of a stack, its rows and its columns, lies under one root;
    # only node tiles may span roots, and then every pair in them is cleared.
    for leaf, rows, cols, far in blocks:
        root = (roots if leaf else node_root)[np.hstack([rows, cols])]
        spans = (root != root[:, :1]).any(axis=1)
        assert not (spans & leaf).any() and far[spans].all()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(code=codes(max_roots=st.integers(2, 4)), offset=st.floats(0.0, 2.0))
def test_stacked_galaxies_match_reference_in_bounded_blocks(code, offset):
    """Every galaxy moved onto root 0's leaves few node pairs cleared; the
    lists still match the reference, and no exact-test call exceeds
    _MASK_CELLS cells."""
    code = stack_galaxies(code, offset)
    expected = reference_violations(code)
    at_least = experiments._at_least
    for cells in (1, 7, experiments._MASK_CELLS):
        sizes = []

        def spy(*args):
            far = at_least(*args)
            sizes.append(far.size)
            return far

        with mock.patch.object(experiments, "_MASK_CELLS", cells), \
                mock.patch.object(experiments, "_at_least", side_effect=spy):
            report = verify_structure(code)
        assert (report.cond2_violations, report.cross_galaxy_violations) == expected
        assert sizes and max(sizes) <= cells


def test_at_least_meets_nonpositive_thresholds_without_recheck():
    # A distance is never negative, so a threshold <= 0 is met by every
    # cell, the codeword itself included, with no norm recheck.
    u = np.random.default_rng(0).standard_normal((6, 4))
    sq = np.einsum("ij,ij->i", u, u)
    dist = np.linalg.norm(u[:, None] - u[None, :], axis=2)
    for threshold in (0.0, -1e-6):
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            far = experiments._at_least(u, sq, np.arange(6), threshold)
        assert norm.call_count == 0
        assert far.all()
    for rows, cols in ((np.arange(6), slice(None)), (slice(1, 4), slice(2, 6))):
        far = experiments._at_least(u, sq, rows, float(np.median(dist)), cols)
        np.testing.assert_array_equal(far, dist[rows][:, cols] >= np.median(dist))


def test_at_least_takes_a_threshold_per_cell():
    # A (T, h, w) threshold array meets the mask cell by cell: thresholds <= 0
    # (the point itself included), each cell's measured distance, where the
    # recheck must read it as met, and one float step above it, where not.
    u = np.random.default_rng(1).standard_normal((7, 5))
    sq = np.einsum("ij,ij->i", u, u)
    rows, cols = np.array([[0, 1, 2], [3, 4, 5]]), np.array([[0, 2, 4, 6], [1, 3, 5, 6]])
    dist = np.array([[[float(np.linalg.norm(u[i] - u[j])) for j in c] for i in r]
                     for r, c in zip(rows, cols)])
    pick = np.arange(dist.size).reshape(dist.shape) % 5
    threshold = np.choose(pick, [np.zeros_like(dist), -dist, dist,
                                 np.nextafter(dist, np.inf), 0.5 * dist])
    far = experiments._at_least(u, sq, rows, threshold, cols)
    np.testing.assert_array_equal(far, dist >= threshold)
    assert (far == (pick != 3)).all()


@SETTINGS
@given(code=codes())
def test_codeword_table_matches_node_walk(code):
    walked = walk_codewords(code)
    expected = {
        "codewords": (np.asarray([c.u for c in walked]), code.codewords[:]),
        "chains": (np.asarray([c.path for c in walked]), code.centers[code.ancestors]),
    }
    for name, (ref, table) in expected.items():
        assert (ref.shape, ref.dtype, ref.tobytes()) == (table.shape, table.dtype, table.tobytes()), name


@SETTINGS
@given(code=codes(), listed=st.booleans(), data=st.data())
def test_codeword_rows_match_the_table(code, listed, data):
    """Slices, integers, 1-D and 2-D index arrays (negative entries too) and
    empty indices into the row source give the materialized table's rows bit
    for bit: on codes grown from the prefix, with uneven exception nodes, and
    with every node listed.  Past either end it raises IndexError, and it
    takes no assignment."""
    table = codeword_table(code)
    if listed:
        code = from_arrays(code.params, code.centers, code.counts, table, code.packing_saturated)
    u, n_cw = code.codewords, len(table)
    assert (len(u), u.shape) == (n_cw, table.shape)
    entry = st.integers(-n_cw, n_cw - 1)
    bound = st.none() | st.integers(-n_cw - 2, n_cw + 2)
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    indices = [
        slice(data.draw(bound), data.draw(bound), data.draw(st.sampled_from([None, 2, -1, -3]))),
        data.draw(entry),
        np.array(data.draw(st.lists(entry, max_size=12)), dtype=np.intp),
        np.array(data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                 dtype=np.intp).reshape(rows, cols),
        np.empty(0, dtype=np.intp), [],
    ]
    for index in indices:
        got, want = u[index], table[index]
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    for index in (n_cw, -n_cw - 1, np.array([0, n_cw])):
        with pytest.raises(IndexError):
            u[index]
    with pytest.raises(TypeError):
        u[0] = table[0]


@SETTINGS
@given(code=codes())
def test_code_file_round_trip_is_bit_identical(code):
    text = serialize(code)
    back = deserialize(text)
    assert serialize(back) == text
    assert_same_code(back, code)
