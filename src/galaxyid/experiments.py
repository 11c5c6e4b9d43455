"""Monte Carlo error estimation, exhaustive structural checks, rate reports.

Estimation is organized in fixed-size work units, each with its own RNG
stream derived from (master seed, unit index).  The unit plan depends only
on the trial count, so results are bit-identical no matter how many
workers execute the units, and merging is plain summation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import galaxy
from .channel import DecoderParams, decide, unit_directions
from .galaxy import GalaxyCode, _band
from .gaussian import projection_tail, shell_prob_cross, shell_prob_miss
from .seeding import derive_seed
from .spherical import min_pairwise_angle

__all__ = [
    "ErrorEstimate",
    "PairStrategy",
    "StructureReport",
    "RateReport",
    "wilson_interval",
    "estimate_type1",
    "estimate_type2",
    "verify_structure",
    "rate_report",
    "run_units",
]

UNIT_SIZE = 8192  # trials per RNG work unit; fixed so worker count never matters
_PAIR_CAP = 20000  # strategies larger than this are subsampled deterministically
# The most trials one estimate may run, 2^30 (131072 units): hours at the
# ~10^5-10^6 trials/s of the benchmark codes, so an estimator refuses more
# instead of running for weeks.
_TRIAL_CAP = 1 << 30
_MASK_CELLS = 1 << 20  # (row, codeword) cells per block of a pairwise distance test
# An estimator holds one (N, t_bar, n) direction table plus, per thread,
# buffers of at most UNIT_SIZE rows.  Its blocks: gathered (row, level,
# coordinate) direction cells per decide() call, 512 kB per thread, and the
# cells of each direction-table fill and cross-galaxy distance block; verify
# gathers its codeword, node and tile blocks within the same bound.
# _MASK_CELLS would gather 8 MB per block and thread: more than the ~5 MB
# (10 %) peak-RSS bound of the small-mc benchmark workload.
_DECIDE_CELLS = 1 << 16
_DRAW_CELLS = 1 << 18  # normals per draw chunk, 2 MB per thread at any thread count
ANGLE_TOL = 1e-9


def wilson_interval(hits: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; well-defined at p_hat of 0 or 1."""
    if trials <= 0:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits {hits} outside [0, {trials}]")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    radius = z * math.sqrt(max(0.0, phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)))
    lo = max(0.0, (center - radius) / denom)
    hi = min(1.0, (center + radius) / denom)
    # rounding must never push the interval off the point estimate
    return min(lo, phat), max(hi, phat)


@dataclass(frozen=True)
class ErrorEstimate:
    """Result of one Monte Carlo error estimation run.

    `hits` counts the headline event (type1: rejection of the true
    codeword's decision set; type2: false acceptance).  `components`
    carries sub-event counts (shell / decisive slab) so the two failure
    routes can be reported separately without composing a bound the
    analysis does not state.  `rule_of_three` is the 3/trials zero-hit
    upper bound, reported alongside since the analytic bounds usually sit
    below Monte Carlo resolution.
    """

    kind: str
    trials: int
    hits: int
    p_hat: float
    wilson_95: tuple[float, float]
    analytic_bound: float
    bound_formula: str
    seed: int
    rule_of_three: float
    components: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PairStrategy:
    """Which ordered codeword pairs (target, sender) a type-II run exercises.

    mode: "same-planet" (meet height 1), "same-galaxy-deep" (meet at the
    full depth), "cross-galaxy", or "exhaustive-sample" (seeded sample of
    `sample_count` ordered pairs of any class).  min_distance filters
    cross-galaxy pairs by Euclidean distance.
    """

    mode: str
    sample_count: int | None = None
    min_distance: float | None = None

    _MODES = ("same-planet", "same-galaxy-deep", "cross-galaxy", "exhaustive-sample")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"unknown pair mode {self.mode!r}; expected one of {self._MODES}")
        if self.mode == "exhaustive-sample" and self.sample_count is None:
            raise ValueError("exhaustive-sample requires sample_count")
        if self.sample_count is not None and self.mode != "exhaustive-sample":
            raise ValueError(f"sample_count applies to exhaustive-sample only, not {self.mode}")
        if self.min_distance is not None and self.mode != "cross-galaxy":
            raise ValueError(f"min_distance applies to cross-galaxy only, not {self.mode}")
        if self.min_distance is not None and not math.isfinite(self.min_distance):
            raise ValueError(f"min_distance must be finite, got {self.min_distance}")


@dataclass
class StructureReport:
    """Violation lists from the exhaustive structural checks; empty means pass."""

    cond1_violations: list = field(default_factory=list)
    cond2_violations: list = field(default_factory=list)
    cross_galaxy_violations: list = field(default_factory=list)
    angle_violations: list = field(default_factory=list)
    power_violations: list = field(default_factory=list)
    separation: dict = field(default_factory=dict)

    _CHECKS = ("cond1", "cond2", "cross_galaxy", "angle", "power")

    def violations(self) -> dict:
        """Each check's violation list, keyed by check name."""
        return {name: getattr(self, f"{name}_violations") for name in self._CHECKS}

    @property
    def passed(self) -> bool:
        return not any(self.violations().values())

    def counts(self) -> dict:
        return {name: len(found) for name, found in self.violations().items()}


@dataclass(frozen=True)
class RateReport:
    """Achieved codebook size and rate; reports.rate_columns gives the bounds."""

    num_codewords: int
    num_roots: int
    rate_achieved: float
    m_achieved: int
    packing_saturated: bool


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def _slab_tail(params: DecoderParams) -> float:
    """Probability 2 Phi(-w/sigma) that noise leaves one slab of half-width w.

    The estimators call it before drawing any trial: their bounds need
    sigma > 0, which the decoder itself does not.
    """
    if params.sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {params.sigma}")
    return projection_tail(params.slab_halfwidth / params.sigma)


def _unit_count(trials: int) -> int:
    """Work units of a trial count: unit i runs trials i * UNIT_SIZE on, at
    most UNIT_SIZE of them.  Raises unless 1 <= trials <= _TRIAL_CAP."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > _TRIAL_CAP:
        raise ValueError(f"trials must be <= {_TRIAL_CAP} (the cap on trials per estimate), "
                         f"got {trials}")
    return -(-trials // UNIT_SIZE)


def _worker_count(threads: int | None, n_units: int) -> int:
    """Threads to start: the requested count (None means 1), at most one per
    unit and one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads or 1, n_units, cpus))


def run_units(worker, n_units: int, threads: int | None) -> list:
    """[worker(i) for i in range(n_units)], run on up to `threads` threads."""
    workers = _worker_count(threads, n_units)
    if workers == 1:
        return [worker(i) for i in range(n_units)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_units)))


def _direction_table(code: GalaxyCode) -> np.ndarray:
    """unit_directions of every codeword's chain as one (N, t_bar, n) array,
    filled in row blocks of at most _DECIDE_CELLS cells, so no temporary
    outgrows a block.  Raises on a degenerate chain, as unit_directions does."""
    u = code.codewords
    table = np.empty((len(u), code.ancestors.shape[1], u.shape[1]))
    step = max(1, _DECIDE_CELLS // table[0].size)
    for s in range(0, len(u), step):
        rows = slice(s, s + step)
        table[rows] = unit_directions(u[rows], code.centers[code.ancestors[rows]])
    return table


def _pair_counts(
    code: GalaxyCode,
    tag: str,
    params: DecoderParams,
    trials: int,
    n_units: int,
    master_seed: int,
    threads: int | None,
    targets: np.ndarray,
    senders: np.ndarray | None = None,
    meet_rows: np.ndarray | None = None,
) -> tuple[int, int, int]:
    """(accepted, in shell, in decisive slab) counts, summed over the units,
    when trial t sends senders[p] to targets[p]'s decoder, p = t mod P; with
    no senders, each target sends itself.

    The decisive slab is the one at the pair's meet ancestor, row
    meet_rows[p] of the chain; a pair with none (-1: across roots) counts
    nothing there, and neither does a codeword sent to itself.
    The trials run as n_units = _unit_count(trials) units, and each unit's
    noise comes from the stream (master_seed, tag, unit).  The run holds
    one (N, t_bar, n) direction table, and each thread at most
    UNIT_SIZE rows of its unit's pair offsets (row i sends visited pair
    i mod P), a reused buffer of normals drawn in chunks of _DRAW_CELLS
    cells (a stream fills the same values in chunks as in one call), and
    decide() blocks of at most _DECIDE_CELLS gathered direction cells.
    """
    u = code.codewords
    directions = _direction_table(code)
    step = max(1, _DECIDE_CELLS // directions[0].size)
    chunk = step * max(1, _DRAW_CELLS // (step * params.n))

    def run_unit(unit_index: int) -> np.ndarray:
        start = unit_index * UNIT_SIZE
        size = min(UNIT_SIZE, trials - start)
        visited = (start + np.arange(min(len(targets), size))) % len(targets)
        unit_targets = targets[visited]
        if senders is not None:
            offsets = np.empty((len(visited), params.n))
            for s in range(0, len(visited), step):
                p = visited[s : s + step]
                np.subtract(u[senders[p]], u[targets[p]], out=offsets[s : s + step])
            unit_meet_rows = meet_rows[visited]
        rng = np.random.default_rng(derive_seed(master_seed, tag, unit_index))
        noise = np.empty((min(chunk, size), params.n))
        counts = np.zeros(3, dtype=np.int64)
        for c in range(0, size, chunk):
            deltas = noise[: size - c]
            rng.standard_normal(out=deltas)
            deltas *= params.sigma
            for s in range(0, len(deltas), step):
                block = deltas[s : s + step]
                i = (c + s + np.arange(len(block))) % len(visited)
                if senders is not None:
                    block += offsets[i]
                shell, slabs, accept = decide(block, directions[unit_targets[i]], params)
                counts[:2] += accept.sum(), shell.sum()
                if senders is not None:
                    rows = unit_meet_rows[i]
                    met = rows >= 0
                    counts[2] += slabs[met, rows[met]].sum()
        return counts

    accepted, shell_hits, slab_hits = sum(run_units(run_unit, n_units, threads))
    return int(accepted), int(shell_hits), int(slab_hits)


def _estimate(kind, trials, hits, bound, formula, seed, **components) -> ErrorEstimate:
    """An ErrorEstimate with p_hat, the Wilson interval and the rule of three
    derived from hits and trials."""
    return ErrorEstimate(
        kind=kind, trials=trials, hits=hits, p_hat=hits / trials,
        wilson_95=wilson_interval(hits, trials), analytic_bound=bound, bound_formula=formula,
        seed=seed, rule_of_three=3.0 / trials, components=components,
    )


def estimate_type1(
    code: GalaxyCode,
    params: DecoderParams,
    trials: int,
    master_seed: int,
    threads: int | None = None,
) -> ErrorEstimate:
    """Miss rate of the decoder on its own transmissions.

    Codewords are visited round-robin (trial t uses codeword t mod N) so
    every decision set is exercised; a hit is a rejection.  The analytic
    companion is the exact shell miss plus the union bound over the slab
    levels.
    """
    bound = shell_prob_miss(params) + code.params.t_bar * _slab_tail(params)
    n_units = _unit_count(trials)
    every = np.arange(len(code.codewords))
    accepted, _, _ = _pair_counts(code, "type1", params, trials, n_units, master_seed, threads,
                                  every)
    return _estimate("type1", trials, trials - accepted, bound, "shell-exact+slab-union",
                     master_seed)


def _tree_layout(code: GalaxyCode) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) of the block holding each codeword at every tree level.

    Row L of the (t_bar + 2, N) results is level L: 0 is the whole code,
    L in 1..t_bar the codeword's ancestor at height t_bar + 1 - L (1 is its
    root), t_bar + 1 the codeword itself.  Codewords are listed depth-first,
    so each level's key (one value, an ancestors column, the codeword's own
    index) is sorted and a block is the run of one key value.
    """
    n_cw = len(code.codewords)
    keys = [np.zeros(n_cw, dtype=np.intp), *code.ancestors.T[::-1], np.arange(n_cw)]
    lo = np.stack([np.searchsorted(key, key, side="left") for key in keys])
    hi = np.stack([np.searchsorted(key, key, side="right") for key in keys])
    return lo, hi


def _at_least(u: np.ndarray, sq: np.ndarray, rows, threshold, cols=slice(None)) -> np.ndarray:
    """Mask over (rows, cols) of ||u_i - u_j|| >= threshold; rows and cols index u.

    (T, h) and (T, w) index arrays make a (T, h, w) stack of tiles, with a
    threshold per row.  Distances come from the Gram form; cells within its
    rounding band are decided by np.linalg.norm of the difference, so a tie
    goes the way a direct per-pair comparison sends it.  A distance is never
    negative, so a threshold <= 0 is met everywhere with no recheck.
    """
    a, b, t = u[rows], u[cols], np.asarray(threshold)[..., None]
    d2 = a @ np.swapaxes(b, -1, -2)
    d2 *= -2.0
    band = sq[rows][..., :, None] + sq[cols][..., None, :]
    d2 += band
    t2 = t * t
    far = (d2 >= t2) | (t <= 0)
    band += t2
    band *= _band(u.shape[1])
    d2 -= t2
    t = np.broadcast_to(t, far.shape)
    for cell in zip(*np.nonzero((np.abs(d2, out=d2) <= band) & (t > 0))):
        *tile, x, y = cell
        far[cell] = float(np.linalg.norm(a[(*tile, x)] - b[(*tile, y)])) >= t[cell]
    return far


def select_pairs(code: GalaxyCode, strategy: PairStrategy, master_seed: int) -> np.ndarray:
    """Ordered (target, sender) index pairs matching the strategy, i-major, as (P, 2) rows.

    Codewords are listed depth-first, so the senders of target i are an
    outer tree block minus an inner one (see _tree_layout): i's height-1
    sibling group minus i for same-planet, i's root minus i's first-level
    subtree for same-galaxy-deep, the whole code minus i's root for
    cross-galaxy, the whole code minus i for exhaustive-sample.
    Pairs are counted per target in closed form and located by position,
    so no pair list larger than the result is built.  Deterministic: any
    subsampling, to sample_count or _PAIR_CAP pairs, uses a stream derived
    from the master seed.  Raises when the code contains no pair of the
    requested class.
    """
    u = code.codewords
    n_cw = len(u)
    if n_cw < 2:
        raise ValueError("need at least two codewords to form pairs")
    t_bar = code.params.t_bar
    lo, hi = _tree_layout(code)
    outer, inner = {"same-planet": (t_bar, t_bar + 1), "same-galaxy-deep": (1, 2),
                    "cross-galaxy": (0, 1), "exhaustive-sample": (0, t_bar + 1)}[strategy.mode]
    outer_lo, outer_hi, inner_lo, inner_hi = lo[outer], hi[outer], lo[inner], hi[inner]

    filtered = strategy.min_distance is not None
    if filtered:
        sq = np.einsum("ij,ij->i", u, u)
        step = max(1, _MASK_CELLS // n_cw)

        def far(rows):  # outside the target's root
            return _at_least(u, sq, rows, strategy.min_distance) & (lo[1, rows, None] != lo[1])

        counts = np.concatenate(
            [far(np.arange(s, min(s + step, n_cw))).sum(axis=1) for s in range(0, n_cw, step)]
        )
    else:
        counts = (outer_hi - outer_lo) - (inner_hi - inner_lo)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        raise ValueError(f"no pairs match strategy {strategy.mode!r}")
    if strategy.sample_count is not None and not 1 <= strategy.sample_count <= total:
        raise ValueError(
            f"sample_count {strategy.sample_count} outside [1, {total}]: "
            f"{n_cw} codewords form {total} ordered pairs"
        )
    cap = strategy.sample_count or _PAIR_CAP
    if total > cap:
        rng = np.random.default_rng(derive_seed(master_seed, "pair-cap"))
        keep = np.sort(rng.choice(total, size=cap, replace=False))
    else:
        keep = np.arange(total)
    targets = np.searchsorted(ends, keep, side="right")
    local = keep - (ends[targets] - counts[targets])

    if filtered:
        senders = np.empty_like(keep)
        rows, first = np.unique(targets, return_index=True)
        bounds = np.r_[first, len(keep)]
        for s in range(0, len(rows), step):
            for a, row_mask in enumerate(far(rows[s : s + step]), start=s):
                first, last = bounds[a], bounds[a + 1]
                senders[first:last] = np.flatnonzero(row_mask)[local[first:last]]
    else:
        before = inner_lo[targets] - outer_lo[targets]
        senders = np.where(
            local < before, outer_lo[targets] + local, inner_hi[targets] + (local - before)
        )
    return np.column_stack([targets, senders])


def _min_norm(rows: np.ndarray) -> float:
    """min(np.linalg.norm(row) for row in rows) bit for bit: squared norms from one
    einsum pick the rows within its rounding band of the smallest, and only those
    get the per-row norm."""
    sq = np.einsum("ij,ij->i", rows, rows)
    near = sq <= sq.min() * (1.0 + _band(rows.shape[1]))
    return min(float(np.linalg.norm(row)) for row in rows[near])


def _meet_rows(code: GalaxyCode, targets: np.ndarray, senders: np.ndarray) -> np.ndarray:
    """Slab row (meet height - 1) of each pair's meet ancestor; -1 across roots
    and for a codeword with itself."""
    shared = (code.ancestors[targets] == code.ancestors[senders]).sum(axis=1)
    return np.where((shared > 0) & (targets != senders), code.params.t_bar - shared, -1)


def estimate_type2(
    code: GalaxyCode,
    strategy: PairStrategy,
    params: DecoderParams,
    trials: int,
    master_seed: int,
    threads: int | None = None,
) -> ErrorEstimate:
    """False-acceptance rate: transmit the sender, test the target's decision set.

    Pairs are visited round-robin.  Sub-events are counted separately: the
    shell of the target, and the slab at the pair's meet ancestor (the one
    the separation analysis makes decisive).  Cross-galaxy pairs have no
    meet ancestor, so their decisive-slab count stays zero by construction.
    """
    slab_tail = _slab_tail(params)
    n_units = _unit_count(trials)  # refused before pairs are selected
    targets, senders = select_pairs(code, strategy, master_seed).T
    meet_rows = _meet_rows(code, targets, senders)
    hits, shell_hits, slab_hits = _pair_counts(
        code, "type2", params, trials, n_units, master_seed, threads, targets, senders, meet_rows
    )
    u, cross = code.codewords, meet_rows < 0  # two distinct codewords: across roots
    terms = {}  # one bound per pair class present
    if cross.any():
        cross_t, cross_s = targets[cross], senders[cross]
        step = max(1, _DECIDE_CELLS // u.shape[1])
        d_min = min(_min_norm(u[cross_s[s : s + step]] - u[cross_t[s : s + step]])
                    for s in range(0, len(cross_t), step))
        terms["cross-shell"] = shell_prob_cross(params, d_min)
    if not cross.all():
        terms["meet-slab-tail"] = slab_tail
    formula = f"max({','.join(terms)})" if len(terms) > 1 else next(iter(terms))
    return _estimate("type2", trials, hits, max(terms.values()), formula, master_seed,
                     shell_hits=shell_hits, decisive_slab_hits=slab_hits)


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


def _block_pairs(a0, an, b0, bn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (a0[p] + x, b0[p] + y, p) with x < an[p] and y < bn[p], p-major."""
    sizes = an * bn
    p = np.repeat(np.arange(len(sizes)), sizes)
    cell = np.arange(len(p)) - (np.cumsum(sizes) - sizes)[p]
    return a0[p] + cell // bn[p], b0[p] + cell % bn[p], p


def _close_pairs(code: GalaxyCode, start, rho: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """(i, j, class) columns of every codeword pair i < j closer than
    limit[class], (i, j)-sorted; the class is 0 across roots, else the meet height.

    A dual-tree check (Gray & Moore, NIPS 2000).  Node pairs start as
    siblings: roots in class 0, a height-t node's children in class t.  No
    codeword below node A lies farther than rho[A] from its center, so a
    pair is cleared when ||c_A - c_B|| - rho[A] - rho[B] beats its limit by
    the rounding band; the rest give way to their children's pairs, down to
    height 1.  There they and each height-1 node with itself make codeword
    rectangles, cut into tiles that go to _at_least in stacks of one shape.
    start locates node points as in verify_structure."""
    p, u, c, counts = code.params, code.codewords, code.centers, code.counts
    inner = np.flatnonzero(code.heights > 1)
    g_first, g_size = np.r_[0, start[inner]], np.r_[len(code.roots), counts[inner]]
    g_class, g_height = np.r_[0, code.heights[inner]], np.r_[p.t_bar, code.heights[inner] - 1]
    kept = [np.empty((3, 0), dtype=np.intp)]
    step = max(1, _MASK_CELLS // p.n)  # node pairs per block of gathered center differences
    for height in range(p.t_bar, 0, -1):
        # Children pairs of the uncleared pairs one level up, and sibling pairs.
        a, b, cls = np.concatenate(kept, axis=1)
        g = np.flatnonzero(g_height == height)
        x0, xn = np.r_[start[a], g_first[g]], np.r_[counts[a], g_size[g]]
        y0, yn = np.r_[start[b], g_first[g]], np.r_[counts[b], g_size[g]]
        parent_cls = np.r_[cls, g_class[g]]
        per = max(1, step // int((xn * yn).max()))
        kept = []
        for s in range(0, len(x0), per):
            part = slice(s, s + per)
            x, y, q = _block_pairs(x0[part], xn[part], y0[part], yn[part])
            up = x < y  # a sibling group pairs with itself: keep each pair once
            pa, pb, k = x[up], y[up], parent_cls[part][q[up]]
            d = np.linalg.norm(c[pa] - c[pb], axis=1)
            reach, t = rho[pa] + rho[pb], limit[k]
            near = d - reach - t < _band(p.n) * (d + reach + np.abs(t))
            kept.append(np.stack([pa[near], pb[near], k[near]]))

    # Codeword rectangles: a row node against a run of adjacent column nodes of
    # one class.  Rectangles over one column range list their rows in one.
    leaf = np.flatnonzero(code.heights == 1)
    start = start - len(c)  # the height-1 nodes' first codeword rows
    pairs = np.concatenate(kept + [np.stack([leaf, leaf, np.ones_like(leaf)])], axis=1)
    del kept  # with nothing cleared, each copy holds one entry per pair of height-1 nodes
    a, b, cls = pairs[:, np.lexsort((start[pairs[1]], start[pairs[0]]))]
    del pairs
    runs = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (cls[1:] != cls[:-1])
                                | (start[b[1:]] != start[b[:-1]] + counts[b[:-1]])])
    ends = np.r_[runs[1:], len(a)] - 1
    c0, c1 = start[b[runs]], start[b[ends]] + counts[b[ends]]
    order = np.lexsort((c1, c0))
    a, c0, c1, h = a[runs][order], c0[order], c1[order], counts[a[runs][order]]
    row_k = np.repeat(cls[runs][order], h)  # the codeword rows listed, and their classes
    row = np.repeat(start[a] - np.cumsum(h) + h, h) + np.arange(len(row_k))
    lists = np.flatnonzero(np.r_[True, (c0[1:] != c0[:-1]) | (c1[1:] != c1[:-1])])
    first = np.r_[np.cumsum(h) - h, len(row)]
    f0, f1, c0, c1 = first[lists], first[np.r_[lists[1:], len(h)]], c0[lists], c1[lists]
    # Tiles of at most _MASK_CELLS cells and _DECIDE_CELLS gathered coordinates.
    gather = _DECIDE_CELLS // p.n  # rows of u
    tw = np.minimum(c1 - c0, max(1, min(_MASK_CELLS, gather // 2)))
    th = np.minimum(f1 - f0, np.maximum(1, np.minimum(_MASK_CELLS // tw, gather - tw)))
    x, y, q = _block_pairs(0 * th, -(-(f1 - f0) // th), 0 * tw, -(-(c1 - c0) // tw))
    i0, j0 = f0[q] + x * th[q], c0[q] + y * tw[q]
    th, tw = np.minimum(th[q], f1[q] - i0), np.minimum(tw[q], c1[q] - j0)
    order = np.lexsort((tw, th))  # tiles of one shape go in stacks within the same bounds
    i0, j0, th, tw = i0[order], j0[order], th[order], tw[order]
    shapes = np.flatnonzero(np.r_[True, (th[1:] != th[:-1]) | (tw[1:] != tw[:-1]), True])
    sq = np.einsum("ij,ij->i", u, u)
    found = [np.empty((3, 0), dtype=np.intp)]
    for s0, s1 in zip(shapes[:-1].tolist(), shapes[1:].tolist()):
        x, y = np.arange(th[s0]), np.arange(tw[s0])
        per = max(1, min(_MASK_CELLS // (len(x) * len(y)), gather // (len(x) + len(y))))
        for s in range(s0, s1, per):
            pos, cols = i0[s : min(s + per, s1), None] + x, j0[s : min(s + per, s1), None] + y
            t, x_t, y_t = np.nonzero(~_at_least(u, sq, row[pos], limit[row_k[pos]], cols))
            i, j = row[pos[t, x_t]], cols[t, y_t]
            found.append(np.stack([i, j, row_k[pos[t, x_t]]])[:, j > i])
    found = np.concatenate(found, axis=1)
    return found[:, np.lexsort(found[1::-1])]


def verify_structure(code: GalaxyCode, tol: float = 1e-6) -> StructureReport:
    """Exhaustive check of every structural guarantee of the construction.

    Radial windows codeword-to-ancestor, exact node-chain radii, pairwise
    meet-height distance bounds within a root, the cross-galaxy floor
    n^(b+1/4)/2, per-node minimum angles, and the power constraint.  All
    violations are returned with their measured values.  Codewords go in
    row blocks, nodes in (nodes, m, n) blocks of one point count; the scalar
    min_pairwise_angle sees only a node whose largest cosine comes within
    rounding of the angle bound, or with a point on its center.  Pairs are
    skipped by node pairs whose radii clear the bound (_close_pairs), the
    rest tested in stacks of equal-shape tiles: when nothing clears, each
    pair i < j once in O(N^2) time, plus one entry per node pair on a level.
    """
    if not len(code.codewords):
        raise ValueError("cannot verify an empty code")
    p, u, c = code.params, code.codewords, code.centers
    report = StructureReport(separation=galaxy.separation_margins(p.k, p.theta))

    # Each codeword's distance to its ancestor at every height, against that
    # height's radial window (lo = hi = r at height 1), and its norm, against
    # the power cap; rho is each node's measured radius, the largest distance
    # to a codeword below it.
    windows = [galaxy.radial_bounds(p.r, p.k, t) for t in range(1, p.t_bar + 1)]
    lo, hi = np.array(windows).T
    power_cap = math.sqrt(p.n * p.power)
    rho = np.zeros(len(c))
    radial = []
    step = max(1, _DECIDE_CELLS // (p.t_bar * p.n))
    for s in range(0, len(u), step):
        anc = code.ancestors[s : s + step]
        dist = np.linalg.norm(u[s : s + step, None] - c[anc], axis=2)
        np.maximum.at(rho, anc, dist)
        i, t = np.nonzero((dist < lo - tol) | (dist > hi + tol))
        radial += zip(t.tolist(), (i + s).tolist(), dist[i, t].tolist())
        norms = np.linalg.norm(u[s : s + step], axis=1)
        i = np.flatnonzero(norms > power_cap + tol)
        report.power_violations += [{"codeword": j, "measured": x, "bound": power_cap}
                                    for j, x in zip((i + s).tolist(), norms[i].tolist())]
    report.cond1_violations += [{"kind": "codeword-radial", "codeword": i, "height": t + 1,
                                 "measured": x, "bound": windows[t]} for t, i, x in sorted(radial)]

    # Exact node-chain radii and per-node angles.  Node v's x-th point is
    # centers[start[v] + x] above height 1, codewords[start[v] - C + x] at
    # height 1: level order lists each node's points as the next rows.
    inner = code.heights > 1
    start = len(code.roots) + np.cumsum(code.counts) - code.counts
    radii = np.array([p.level_radius(h) for h in range(1, p.t_bar + 1)])[code.heights - 1]
    cos_floor = math.cos(p.theta - ANGLE_TOL) - _band(p.n)  # cosines below it clear theta
    bad_radius, bad_angle = [], []
    for m in np.flatnonzero(np.bincount(code.counts)).tolist():
        per = max(1, _DECIDE_CELLS // (m * max(m, p.n)))
        for leaf in (False, True):
            nodes = np.flatnonzero((code.counts == m) & (inner != leaf))
            for s in range(0, len(nodes), per):
                v = nodes[s : s + per]
                rows = start[v, None] + np.arange(m)
                pts = u[rows - len(c)] if leaf else c[rows]
                offs = pts - c[v, None]
                d = np.linalg.norm(offs, axis=2)
                x, i = np.nonzero(np.abs(d - radii[v, None]) > 1e-9 * radii[v, None])
                bad_radius += zip(v[x].tolist(), i.tolist(), d[x, i].tolist())
                if m < 2:
                    continue
                offs /= np.where(d > 0, d, 1.0)[..., None]
                gram = offs @ offs.transpose(0, 2, 1)
                gram[:, range(m), range(m)] = -1.0
                recheck = (gram.max(axis=(1, 2)) >= cos_floor) | (d == 0).any(axis=1)
                for x in np.flatnonzero(recheck):
                    ang = min_pairwise_angle(pts[x], c[v[x]])
                    if ang < p.theta - ANGLE_TOL:
                        bad_angle.append((int(v[x]), float(ang)))
    root_of = np.empty(len(c), dtype=np.intp)  # a node's root is its codewords' last ancestor
    root_of[code.ancestors] = code.ancestors[:, -1:]
    root_of = root_of.tolist()
    report.cond1_violations += [
        {"kind": "node-radius", "root": root_of[v], "height": int(code.heights[v]), "point": i,
         "measured": x, "bound": (float(radii[v]),) * 2} for v, i, x in sorted(bad_radius)]
    report.angle_violations += [{"root": root_of[v], "height": int(code.heights[v]),
                                 "measured": x, "bound": p.theta} for v, x in sorted(bad_angle)]

    # Pairwise distances, with the bound of the pair's class: the floor
    # n^(b+1/4)/2 across roots (class 0), the meet bound at height t inside one.
    bound_at = [p.n ** (p.b + 0.25) / 2.0] + [
        galaxy.pair_distance_lower_bound(p.r, p.k, p.theta, t) for t in range(1, p.t_bar + 1)
    ]
    for i, j, meet in _close_pairs(code, start, rho, np.asarray(bound_at) - tol).T.tolist():
        found = {
            "pair": (i, j),
            "measured": float(np.linalg.norm(u[i] - u[j])),
            "bound": float(bound_at[meet]),
        }
        if meet:
            report.cond2_violations.append({**found, "meet": meet})
        else:
            report.cross_galaxy_violations.append(found)
    return report


def rate_report(code: GalaxyCode) -> RateReport:
    """Achieved size and rate of the code."""
    p = code.params
    n_cw = len(code.codewords)
    return RateReport(
        num_codewords=n_cw,
        num_roots=len(code.roots),
        rate_achieved=math.log2(n_cw) / (p.n * math.log2(p.n)) if n_cw >= 1 else 0.0,
        m_achieved=int(code.counts.min()),
        packing_saturated=code.packing_saturated,
    )
