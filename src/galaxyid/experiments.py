"""Monte Carlo error estimation, exhaustive structural checks, rate reports.

Estimation is organized in fixed-size work units, each with its own RNG
stream derived from (master seed, unit index).  The unit plan depends only
on the trial count, so results are bit-identical no matter how many
workers execute the units, and merging is plain summation.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import galaxy
from .channel import DecoderParams, decide, in_shell, unit_directions
from .galaxy import _DECIDE_CELLS, GalaxyCode, _band
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
# The most coordinate products, N^2 n, that a min_distance filter may take,
# 2^38: about a minute on the R = 64 ladder code (N = 32768, n = 256).
_MIN_DISTANCE_CAP = 1 << 38
# _DECIDE_CELLS (galaxy's): a decide() block has at most _DECIDE_CELLS /
# (t_bar n) rows, so an estimator holds the nonzero cells of its (N, t_bar,
# n) directions plus, per thread, one block of its rows' normals and pair
# offsets, fewer than _DECIDE_CELLS cells.  Each direction-table row block
# and cross-galaxy distance block stays within the same bound, and verify
# grows its codeword, node and tile blocks within it: no command holds the
# (N, n) codeword table.
# _MASK_CELLS would gather 8 MB per block and thread: more than the ~5 MB
# (10 %) peak-RSS bound of the small-mc benchmark workload.
ANGLE_TOL = 1e-9


def wilson_interval(hits: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; well-defined at p_hat of 0 or 1."""
    if trials <= 0:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits {hits} outside [0, {trials}]")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    from statistics import NormalDist  # on first use: it loads fractions and decimal

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
    `sample_count` ordered pairs of any class, at most _PAIR_CAP).  min_distance filters
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
        if self.sample_count is not None and self.sample_count > _PAIR_CAP:
            raise ValueError(f"sample_count {self.sample_count} exceeds the cap of {_PAIR_CAP} "
                             "pairs that every pair mode subsamples to")
        if self.min_distance is not None and self.mode != "cross-galaxy":
            raise ValueError(f"min_distance applies to cross-galaxy only, not {self.mode}")
        # every pair meets a negative threshold: refused, not filtered in O(N^2 n)
        if self.min_distance is not None and not 0 <= self.min_distance < math.inf:
            raise ValueError(f"min_distance must be finite and >= 0, got {self.min_distance}")


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


def _slab_tail(code: GalaxyCode, params: DecoderParams) -> float:
    """Probability 2 Phi(-w/sigma) that noise leaves one slab of half-width w.

    The estimators call it before drawing any trial: their bounds need
    sigma > 0, which the decoder itself does not, and a decoder of another
    width than the code would read its direction cells at wrong coordinates.
    """
    if params.n != code.params.n:
        raise ValueError(f"decoder n = {params.n} does not match the code's n = {code.params.n}")
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
    from concurrent.futures import ThreadPoolExecutor  # on first use: it loads logging

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_units)))


def _direction_table(code: GalaxyCode, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero cells of unit_directions along the chains of codewords
    rows: (coords, values), each (len(rows), t_bar, K), K the most nonzero
    coordinates of any one of these directions, a shorter list padded with
    coordinate 0 and value 0.0 (a repeated cell would be summed twice).
    Directions come in blocks of at most _DECIDE_CELLS cells, so no
    temporary outgrows a block.  Raises on a degenerate chain, as
    unit_directions does."""
    u, anc = code.codewords, code.ancestors
    t_bar, n = anc.shape[1], u.shape[1]
    step = max(1, _DECIDE_CELLS // (t_bar * n))
    blocks = []
    for s in range(0, len(rows), step):
        block = rows[s : s + step]
        d = unit_directions(u[block], code.centers[anc[block]]).reshape(-1, n)
        r, c = np.nonzero(d)  # every direction has a nonzero cell
        count = np.bincount(r, minlength=len(d))
        at = (r, np.arange(len(r)) - (np.cumsum(count) - count)[r])
        coords = np.zeros((len(d), count.max()), dtype=np.intp)
        values = np.zeros(coords.shape)
        coords[at], values[at] = c, d[r, c]
        blocks.append(tuple(a.reshape(len(block), t_bar, -1) for a in (coords, values)))
    k = max(a.shape[2] for a, _ in blocks)

    def padded(a):  # k cells per list, the last ones zero
        return a if a.shape[2] == k else np.pad(a, ((0, 0), (0, 0), (0, k - a.shape[2])))

    return tuple(np.concatenate([padded(a) for a in arrays]) for arrays in zip(*blocks))


def _pair_counts(
    code: GalaxyCode,
    tag: str,
    params: DecoderParams,
    trials: int,
    n_units: int,
    master_seed: int,
    threads: int | None,
    targets: np.ndarray | None = None,
    senders: np.ndarray | None = None,
    meet_rows: np.ndarray | None = None,
) -> tuple[int, int, int, float]:
    """(accepted, in shell, in decisive slab) counts, summed over the units,
    when trial t sends senders[p] to targets[p]'s decoder, p = t mod P; with
    no targets, codeword t mod N sends itself.  Last, the least norm of the
    offsets of the cross-root pairs the trials visit (inf for none), taken
    as each is first visited: the trials visit pairs [0, min(trials, P)).

    The decisive slab is the one at the pair's meet ancestor, row
    meet_rows[p] of the chain; a pair with none (-1: across roots) counts
    nothing there, and neither does a codeword sent to itself.
    The trials run as n_units = _unit_count(trials) units, and each unit's
    noise comes from the stream (master_seed, tag, unit), drawn block by
    block (a stream fills the same values in parts as in one call).  Row r
    of a block sends pair (first trial + r) mod P.  The run holds the
    direction cells (_direction_table) of the codewords its trials decode:
    when P is at most a block's rows, of the pairs tiled once to P + step
    rows, so each block takes a view of them; else of the first
    min(trials, N) codewords, or of the distinct targets, which each block
    indexes.  Each thread allocates one block of normals once, for the
    largest block it may run.  A type-2 block with no decisive slab and no
    row in the shell accepts nothing: its slabs are not tested.  So when no
    pair has a decisive slab the table is built only once some block has a
    row in the shell, by the first thread to need it.
    """
    u, t_bar = code.codewords, code.params.t_bar
    step = max(1, _DECIDE_CELLS // (t_bar * params.n))
    n_pairs = len(u) if targets is None else len(targets)
    tiled = n_pairs <= step
    if targets is None:  # row q of the table is codeword q
        words, table_row = np.arange(n_pairs if tiled else min(trials, n_pairs)), None
    else:
        words, table_row = np.unique(targets, return_inverse=True)

    def pair_rows(q):  # table rows, sender - target offsets and meet rows of pairs q
        if targets is None:
            return q, None, None
        return table_row[q], u[senders[q]] - u[targets[q]], meet_rows[q]

    if tiled:  # tiled once to P + step rows, so every block is a view
        gather, *tiles = pair_rows(np.arange(n_pairs + step) % n_pairs)
        span = n_pairs + step
        block_rows = lambda q: [q] + [a if a is None else a[q] for a in tiles]
    else:  # a block ends at the end of the pair list, so it is a slice of it
        gather, span, block_rows = slice(None), n_pairs, pair_rows

    table, lock = None, threading.Lock()

    def direction_cells():  # built once, by the first caller
        nonlocal table
        with lock:
            if table is None:
                table = tuple(a[gather] for a in _direction_table(code, words))
        return table

    if targets is None or (meet_rows >= 0).any():  # some slab test is certain
        direction_cells()

    seen = min(trials, n_pairs)  # trials [0, seen) visit each pair first
    most = min(step, UNIT_SIZE, trials)  # the rows of the largest block
    local = threading.local()  # each thread's normals

    def run_unit(unit_index: int) -> tuple[np.ndarray, float]:
        start = unit_index * UNIT_SIZE
        size = min(UNIT_SIZE, trials - start)
        rng = np.random.default_rng(derive_seed(master_seed, tag, unit_index))
        if not hasattr(local, "noise"):
            local.noise = np.empty((most, params.n))
        noise = local.noise
        counts = np.zeros(3, dtype=np.int64)
        least = math.inf
        s = 0
        while s < size:
            q = (start + s) % n_pairs
            rows = min(step, size - s, span - q)
            fresh = max(0, min(rows, seen - start - s))  # rows visiting their pair first
            s += rows
            table_rows, shift, meet = block_rows(slice(q, q + rows))
            block = noise[:rows]
            rng.standard_normal(out=block)
            if params.sigma != 1.0:  # times 1.0 changes no bit
                block *= params.sigma
            if shift is not None:
                across = meet[:fresh] < 0
                if across.any():  # no mask copy when every fresh row crosses roots
                    least = min(least, _min_norm(shift[:fresh] if across.all()
                                                 else shift[:fresh][across]))
                block += shift
                met = meet >= 0
                if not met.any() and not in_shell(block, params).any():
                    continue
            cells = table if table is not None else direction_cells()
            shell, slabs, accept = decide(block, [a[table_rows] for a in cells], params)
            counts[:2] += accept.sum(), shell.sum()
            if shift is not None:
                counts[2] += slabs[met, meet[met]].sum()
        return counts, least

    results = run_units(run_unit, n_units, threads)
    accepted, shell_hits, slab_hits = sum(counts for counts, _ in results)
    return int(accepted), int(shell_hits), int(slab_hits), min(least for _, least in results)


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
    bound = shell_prob_miss(params) + code.params.t_bar * _slab_tail(code, params)
    n_units = _unit_count(trials)
    accepted, *_ = _pair_counts(code, "type1", params, trials, n_units, master_seed, threads)
    return _estimate("type1", trials, trials - accepted, bound, "shell-exact+slab-union",
                     master_seed)


def _tree_layout(code: GalaxyCode, level: int) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) of the block holding each codeword at one tree level.

    Level 0 is the whole code, L in 1..t_bar the codeword's ancestor at
    height t_bar + 1 - L (1 is its root), t_bar + 1 the codeword itself.
    Codewords are listed depth-first, so the level's key (one value, an
    ancestors column, the codeword's own index) is sorted and a block is
    the run of one key value.
    """
    n_cw, t_bar = len(code.codewords), code.params.t_bar
    if level == 0:
        key = np.zeros(n_cw, dtype=np.intp)
    elif level <= t_bar:
        key = np.ascontiguousarray(code.ancestors[:, t_bar - level])
    else:
        key = np.arange(n_cw)
    return np.searchsorted(key, key, side="left"), np.searchsorted(key, key, side="right")


def _sq_norms(u) -> np.ndarray:
    """Each codeword's squared norm, from one einsum per block of rows: handed
    the whole row source, einsum would iterate it row by row."""
    step = max(1, _DECIDE_CELLS // u.shape[1])
    return np.concatenate([np.einsum("ij,ij->i", rows, rows)
                           for rows in (u[s : s + step] for s in range(0, len(u), step))])


def _at_least(u, sq: np.ndarray, rows, threshold, cols=slice(None)) -> np.ndarray:
    """Mask over (rows, cols) of ||u_i - u_j|| >= threshold; rows and cols index u.

    (T, h) and (T, w) index arrays make a (T, h, w) stack of tiles.  The
    threshold broadcasts against the (..., h, w) mask: one value, one per
    tile as (T, 1, 1), or one per cell.  Distances come from the Gram form;
    cells within its rounding band are decided by np.linalg.norm of the
    difference, so a tie goes the way a direct per-pair comparison sends it.
    A distance is never negative, so a threshold <= 0 is met everywhere with
    no recheck.
    """
    a, b, t = u[rows], u[cols], np.asarray(threshold)
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
    requested class, and a min_distance filter past _MIN_DISTANCE_CAP
    coordinate products (N^2 n), or past the code's diameter bound, before
    it compares any pair.  Only the outer and inner levels are laid out.
    """
    u = code.codewords
    n_cw = len(u)
    if n_cw < 2:
        raise ValueError("need at least two codewords to form pairs")
    t_bar = code.params.t_bar
    outer, inner = {"same-planet": (t_bar, t_bar + 1), "same-galaxy-deep": (1, 2),
                    "cross-galaxy": (0, 1), "exhaustive-sample": (0, t_bar + 1)}[strategy.mode]
    inner_lo, inner_hi = _tree_layout(code, inner)  # the root level for min_distance

    filtered = strategy.min_distance is not None
    if filtered:
        if n_cw * n_cw * u.shape[1] > _MIN_DISTANCE_CAP:
            raise ValueError(
                f"refusing min_distance over N = {n_cw} codewords of n = {u.shape[1]} "
                f"coordinates: N^2 n passes the cap of {_MIN_DISTANCE_CAP} coordinate products"
            )
        sq = _sq_norms(u)
        # No pair is farther apart than 2 max ||u||, nor measures so up to the
        # rounding band: past that no pair matches (and the threshold's square
        # may overflow).
        if strategy.min_distance > 2.0 * math.sqrt(sq.max()) * (1.0 + _band(u.shape[1])):
            raise ValueError(f"no pairs match strategy {strategy.mode!r}")
        step, width = max(1, _MASK_CELLS // n_cw), max(1, _DECIDE_CELLS // u.shape[1])

        def far(rows):  # outside the target's root, from column tiles of `width` codewords
            mask = np.concatenate([_at_least(u, sq, rows, strategy.min_distance,
                                             slice(s, s + width)) for s in range(0, n_cw, width)],
                                  axis=1)
            return mask & (inner_lo[rows, None] != inner_lo)

        counts = np.concatenate(
            [far(np.arange(s, min(s + step, n_cw))).sum(axis=1) for s in range(0, n_cw, step)]
        )
    else:
        outer_lo, outer_hi = _tree_layout(code, outer)
        counts = outer_hi - outer_lo
        counts -= inner_hi - inner_lo
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
    meet ancestor, so their decisive-slab count stays zero by construction;
    their bound takes d_min, the least norm of their offsets, which the
    trials measure as they first visit each pair: only the pairs that they
    never reach are measured after them.
    """
    slab_tail = _slab_tail(code, params)
    n_units = _unit_count(trials)  # refused before pairs are selected
    targets, senders = select_pairs(code, strategy, master_seed).T
    meet_rows = _meet_rows(code, targets, senders)
    hits, shell_hits, slab_hits, d_min = _pair_counts(
        code, "type2", params, trials, n_units, master_seed, threads, targets, senders, meet_rows
    )
    u, cross = code.codewords, meet_rows < 0  # two distinct codewords: across roots
    terms = {}  # one bound per pair class present
    if cross.any():
        rest = trials + np.flatnonzero(cross[trials:])
        step = max(1, _DECIDE_CELLS // u.shape[1])
        d_min = min([d_min] + [_min_norm(u[senders[q]] - u[targets[q]])
                               for q in (rest[s : s + step] for s in range(0, len(rest), step))])
        terms["cross-shell"] = shell_prob_cross(params, d_min)
    if not cross.all():
        terms["meet-slab-tail"] = slab_tail
    formula = f"max({','.join(terms)})" if len(terms) > 1 else next(iter(terms))
    return _estimate("type2", trials, hits, max(terms.values()), formula, master_seed,
                     shell_hits=shell_hits, decisive_slab_hits=slab_hits)


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


def _tiles(x0, xn, y0, yn, h, w):
    """The h by w tiles (smaller at the far edges) that cut each rectangle
    x0 + [0, xn) by y0 + [0, yn): (x0, xn, y0, yn, rectangle) of each tile,
    rectangle-major."""
    down, across = -(-xn // h), -(-yn // w)  # tiles along each side of a rectangle
    sizes = down * across
    e = np.repeat(np.arange(len(sizes)), sizes)
    cell = np.arange(len(e)) - (np.cumsum(sizes) - sizes)[e]
    tx0, ty0 = x0[e] + cell // across[e] * h[e], y0[e] + cell % across[e] * w[e]
    return (tx0, np.minimum(h[e], x0[e] + xn[e] - tx0),
            ty0, np.minimum(w[e], y0[e] + yn[e] - ty0), e)


def _close_pairs(code: GalaxyCode, start, rho: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """(i, j, class) columns of every codeword pair i < j closer than
    limit[class], (i, j)-sorted; the class is 0 across roots, else the meet height.

    A dual-tree check (Gray & Moore, NIPS 2000), one pass per height down to
    the codewords' (height 0).  A pass cuts the children of the pairs kept
    above, and each sibling group with itself (roots in class 0, a node's
    points in the class of its height), into tiles; stacks of one tile shape
    go to _at_least, and each pair x < y it does not clear is kept.  A node
    pair is cleared when ||c_A - c_B|| - rho[A] - rho[B] beats its limit by
    the rounding band: no codeword below A lies farther than rho[A] from
    c_A.  start locates node points as in verify_structure."""
    p, c, counts = code.params, code.centers, code.counts
    first, size = np.r_[0, start], np.r_[len(code.roots), counts]  # the roots, each node's points
    group_cls, group_height = np.r_[0, code.heights], np.r_[p.t_bar, code.heights - 1]
    gather, band = _DECIDE_CELLS // p.n, _band(p.n)  # rows gathered per stack
    sq_c = _sq_norms(c)
    found = np.empty((3, 0), dtype=np.intp)
    for height in range(p.t_bar, -1, -1):
        a, b, cls = found
        u, off = (c, 0) if height else (code.codewords, len(c))  # start counts centers first
        sq = sq_c if height else _sq_norms(u)
        g = np.flatnonzero(group_height == height)
        x0, xn = np.r_[start[a], first[g]] - off, np.r_[counts[a], size[g]]
        y0, yn = np.r_[start[b], first[g]] - off, np.r_[counts[b], size[g]]
        w = np.minimum(yn, max(1, min(_MASK_CELLS, gather // 2)))
        h = np.minimum(xn, np.maximum(1, np.minimum(_MASK_CELLS // w, gather - w)))
        x0, xn, y0, yn, e = _tiles(x0, xn, y0, yn, h, w)
        tile = np.flatnonzero(x0 < y0 + yn - 1)  # a tile with no x < y holds no pair of its own
        tile = tile[np.lexsort((yn[tile], xn[tile]))]  # tiles of one shape go in stacks
        x0, xn, y0, yn, e = x0[tile], xn[tile], y0[tile], yn[tile], e[tile]
        cls = np.r_[cls, group_cls[g]][e]  # each tile's class
        shapes = np.flatnonzero(np.diff(xn, prepend=0, append=0) | np.diff(yn, prepend=0, append=0))
        kept = [found[:, :0]]
        for s0, s1 in zip(shapes[:-1].tolist(), shapes[1:].tolist()):
            x, y = np.arange(xn[s0]), np.arange(yn[s0])
            per = max(1, min(_MASK_CELLS // (len(x) * len(y)), gather // (len(x) + len(y))))
            for s in range(s0, s1, per):
                part = slice(s, min(s + per, s1))
                rows, cols, q = x0[part, None] + x, y0[part, None] + y, cls[part]
                t = limit[q][:, None, None]
                if height:
                    # The band's prune, d - reach - t >= band (d + reach + |t|), solved for
                    # d.  Its roundings move it by under 5 * 2^-53 scale (band << 1), so
                    # adding 2^-50 scale, rounded too, keeps it at or above the exact
                    # value: a node pair is cleared only where the exact test holds.
                    reach = rho[rows][:, :, None] + rho[cols][:, None, :]
                    scale = np.abs(t) + reach
                    t = (t + reach + band * scale) / (1.0 - band) + scale * 2.0**-50
                k, i, j = np.nonzero(~_at_least(u, sq, rows, t, cols))
                i, j = rows[k, i], cols[k, j]
                kept.append(np.stack([i, j, q[k]])[:, i < j])
        found = np.concatenate(kept, axis=1)
    return found[:, np.lexsort(found[1::-1])]


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The first cells of a flat buffer, as a C-contiguous array of this shape."""
    return buf[: math.prod(shape)].reshape(shape)


def _norms(x: np.ndarray, sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) bit for bit, by its own multiply, add.reduce
    and sqrt, into out; sq (x itself, or an array of its shape) takes the
    squares."""
    np.multiply(x, x, out=sq)
    return np.sqrt(np.add.reduce(sq, axis=-1, out=out), out=out)


def verify_structure(code: GalaxyCode, tol: float = 1e-6) -> StructureReport:
    """Exhaustive check of every structural guarantee of the construction.

    Radial windows codeword-to-ancestor, exact node-chain radii, pairwise
    meet-height distance bounds within a root, the cross-galaxy floor
    n^(b+1/4)/2, per-node minimum angles, and the power constraint.  All
    violations are returned with their measured values.  Codewords go in
    row blocks, nodes in (nodes, m, n) blocks of one point count; the scalar
    min_pairwise_angle sees only a node whose largest cosine comes within
    rounding of the angle bound, or with a point on its center.  Pairs go
    through one descent (_close_pairs) that measures node and codeword pairs
    alike: when nothing clears, each pair i < j once in O(N^2) time, plus
    one kept entry per node pair of a height.  The codeword and node passes
    grow and measure their blocks in buffers allocated once per pass, sized
    to its largest block on this code.
    """
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
    most = min(step, len(u))  # the largest block's rows, and its buffers, allocated once
    row_buf, gap_buf = np.empty(most * p.n), np.empty(most * p.t_bar * p.n)
    dist_buf, norm_buf = np.empty(most * p.t_bar), np.empty(most)
    for s in range(0, len(u), step):
        anc = code.ancestors[s : s + step]
        k = len(anc)
        rows = u.grow(slice(s, s + k), _view(row_buf, k, p.n), _view(gap_buf, k, p.n))
        gaps = np.take(c, anc, axis=0, out=_view(gap_buf, k, p.t_bar, p.n), mode="clip")
        np.subtract(rows[:, None], gaps, out=gaps)
        dist = _norms(gaps, gaps, _view(dist_buf, k, p.t_bar))
        np.maximum.at(rho, anc, dist)
        i, t = np.nonzero((dist < lo - tol) | (dist > hi + tol))
        radial += zip(t.tolist(), (i + s).tolist(), dist[i, t].tolist())
        norms = _norms(rows, _view(gap_buf, k, p.n), norm_buf[:k])
        i = np.flatnonzero(norms > power_cap + tol)
        report.power_violations += [{"codeword": j, "measured": x, "bound": power_cap}
                                    for j, x in zip((i + s).tolist(), norms[i].tolist())]
    report.cond1_violations += [{"kind": "codeword-radial", "codeword": i, "height": t + 1,
                                 "measured": x, "bound": windows[t]} for t, i, x in sorted(radial)]

    # Exact node-chain radii and per-node angles.  Node v's x-th point is
    # centers[start[v] + x] above height 1, codewords[start[v] - C + x] at
    # height 1: level order lists each node's points as the next rows.
    # Nodes go in blocks of one point count m and kind, `per` at a time.
    inner = code.heights > 1
    start = len(code.roots) + np.cumsum(code.counts) - code.counts
    radii = np.array([p.level_radius(h) for h in range(1, p.t_bar + 1)])[code.heights - 1]
    cos_floor = math.cos(p.theta - ANGLE_TOL) - _band(p.n)  # cosines below it clear theta
    groups = [(m, max(1, _DECIDE_CELLS // (m * max(m, p.n))), leaf, nodes)
              for m in np.flatnonzero(np.bincount(code.counts)).tolist() for leaf in (False, True)
              if len(nodes := np.flatnonzero((code.counts == m) & (inner != leaf)))]
    blocks = [(min(per, len(nodes)), m) for m, per, _, nodes in groups]  # each group's largest
    points = max(k * m for k, m in blocks)
    off_buf, sq_buf, d_buf = np.empty(points * p.n), np.empty(points * p.n), np.empty(points)
    center_buf = np.empty(max(k for k, _ in blocks) * p.n)
    gram_buf = np.empty(max(k * m * m for k, m in blocks))
    bad_radius, bad_angle = [], []
    for m, per, leaf, nodes in groups:
        for s in range(0, len(nodes), per):
            v = nodes[s : s + per]
            k = len(v)
            rows = start[v, None] + np.arange(m)
            offs, sq = _view(off_buf, k, m, p.n), _view(sq_buf, k, m, p.n)
            if leaf:
                u.grow(rows - len(c), offs, sq)
            else:
                np.take(c, rows, axis=0, out=offs, mode="clip")
            np.subtract(offs, np.take(c, v, axis=0, out=_view(center_buf, k, p.n),
                                      mode="clip")[:, None], out=offs)
            d = _norms(offs, sq, _view(d_buf, k, m))
            x, i = np.nonzero(np.abs(d - radii[v, None]) > 1e-9 * radii[v, None])
            bad_radius += zip(v[x].tolist(), i.tolist(), d[x, i].tolist())
            if m < 2:
                continue
            offs /= np.where(d > 0, d, 1.0)[..., None]
            gram = np.matmul(offs, offs.transpose(0, 2, 1), out=_view(gram_buf, k, m, m))
            gram[:, range(m), range(m)] = -1.0
            recheck = (gram.max(axis=(1, 2)) >= cos_floor) | (d == 0).any(axis=1)
            for x in np.flatnonzero(recheck):
                pts = u[rows[x] - len(c)] if leaf else c[rows[x]]
                ang = min_pairwise_angle(pts, c[v[x]])
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
    close = _close_pairs(code, start, rho, np.asarray(bound_at) - tol)
    step = max(1, _DECIDE_CELLS // p.n)
    for s in range(0, close.shape[1], step):  # each pair's difference, grown in blocks
        block = close[:, s : s + step]
        for (i, j, meet), diff in zip(block.T.tolist(), u[block[0]] - u[block[1]]):
            found = {"pair": (i, j), "measured": float(np.linalg.norm(diff)),
                     "bound": float(bound_at[meet])}
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
        rate_achieved=math.log2(n_cw) / (p.n * math.log2(p.n)),
        m_achieved=int(code.counts.min()),
        packing_saturated=code.packing_saturated,
    )
