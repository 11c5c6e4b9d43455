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
from dataclasses import dataclass, field, fields
from statistics import NormalDist

import numpy as np

from . import galaxy
from .channel import DecoderParams, decide, unit_directions
from .galaxy import GalaxyCode, iter_nodes
from .gaussian import ShellSpec, projection_tail, shell_prob_cross, shell_prob_miss
from .seeding import derive_seed
from .spherical import csw_lower_bound, min_pairwise_angle

__all__ = [
    "ErrorEstimate",
    "PairStrategy",
    "StructureReport",
    "RateReport",
    "TrialPlan",
    "SweepResult",
    "wilson_interval",
    "estimate_type1",
    "estimate_type2",
    "verify_structure",
    "rate_report",
    "sweep",
]

UNIT_SIZE = 8192  # trials per RNG work unit; fixed so worker count never matters
_PAIR_CAP = 20000  # strategies larger than this are subsampled deterministically
_MASK_CELLS = 1 << 20  # (row, codeword) cells per block of a pairwise distance test
# Gathered (row, level, coordinate) direction cells per decide() block, 512 kB
# per thread.  _MASK_CELLS would gather 8 MB per block and thread: more than
# the ~5 MB (10 %) peak-RSS bound of the small-mc benchmark workload.
_DECIDE_CELLS = 1 << 16
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
        if self.mode == "exhaustive-sample" and not self.sample_count:
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
    """Achieved codebook size against every bound the analysis provides.

    `lemma1_met` is None (no claim either way) whenever the per-level code
    size falls short of the simplified spherical-code bound or the packing
    stopped for a reason other than saturation; the gap is data, not a
    failure.
    """

    num_codewords: int
    num_roots: int
    rate_achieved: float
    lemma1_bound: float
    claim1_bounds: tuple[float, float]
    asymptotic: float
    csw_bound: float
    m_achieved: int
    packing_saturated: bool
    claim1_upper_ok: bool
    claim1_consistent: bool | None
    lemma1_met: bool | None


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def _slab_tail(params: DecoderParams) -> float:
    """Probability 2 Phi(-w/sigma) that noise leaves one slab of half-width w.

    With sigma = 0 the ratio is undefined; log2 n, the default w/sigma,
    stands in.
    """
    if params.sigma > 0:
        return projection_tail(params.slab_halfwidth / params.sigma)
    return projection_tail(math.log2(params.n))


def _unit_plan(trials: int) -> list[tuple[int, int]]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return [(s, min(UNIT_SIZE, trials - s)) for s in range(0, trials, UNIT_SIZE)]


def _worker_count(threads: int | None, n_units: int) -> int:
    """Threads to start: the requested count (None means 1), at most one per
    unit and one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads or 1, n_units, cpus))


def _run_units(worker, n_units: int, threads: int | None) -> list:
    workers = _worker_count(threads, n_units)
    if workers == 1:
        return [worker(i) for i in range(n_units)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_units)))


def _pair_counts(
    code: GalaxyCode,
    targets: np.ndarray,
    senders: np.ndarray,
    tag: str,
    params: DecoderParams,
    trials: int,
    master_seed: int,
    threads: int | None,
) -> tuple[int, int, int]:
    """(accepted, in shell, in decisive slab) counts, summed over the units,
    when trial t sends senders[p] to targets[p]'s decoder, p = t mod P.

    The decisive slab is the one at the pair's meet ancestor; a pair with
    none (across roots, or a codeword with itself) counts nothing there.
    Each unit's noise comes from the stream (master_seed, tag, unit) and is
    decided in row blocks of at most _DECIDE_CELLS gathered direction cells.
    """
    plan = _unit_plan(trials)
    u = code.codewords
    directions = unit_directions(u, code.centers[code.ancestors])
    offsets = u[senders] - u[targets]
    meet_rows = _meet_rows(code, targets, senders)
    step = max(1, _DECIDE_CELLS // directions[0].size)

    def run_unit(unit_index: int) -> np.ndarray:
        start, size = plan[unit_index]
        rng = np.random.default_rng(derive_seed(master_seed, tag, unit_index))
        deltas = rng.standard_normal((size, params.n))
        deltas *= params.sigma
        counts = np.zeros(3, dtype=np.int64)
        for s in range(0, size, step):
            block = deltas[s : s + step]
            p = (start + s + np.arange(len(block))) % len(offsets)
            block += offsets[p]
            shell, slabs, accept = decide(block, directions[targets[p]], params)
            rows = meet_rows[p]
            met = rows >= 0
            counts += accept.sum(), shell.sum(), slabs[met, rows[met]].sum()
        return counts

    accepted, shell_hits, slab_hits = sum(_run_units(run_unit, len(plan), threads))
    return int(accepted), int(shell_hits), int(slab_hits)


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
    every = np.arange(len(code.codewords))
    accepted, _, _ = _pair_counts(code, every, every, "type1", params, trials, master_seed, threads)
    hits = trials - accepted
    spec = ShellSpec(n=params.n, sigma=params.sigma, eps_n=params.eps_n)
    t_bar = code.params.t_bar
    bound = shell_prob_miss(spec) + t_bar * _slab_tail(params)
    return ErrorEstimate(
        kind="type1",
        trials=trials,
        hits=hits,
        p_hat=hits / trials,
        wilson_95=wilson_interval(hits, trials),
        analytic_bound=bound,
        bound_formula="shell-exact+slab-union",
        seed=master_seed,
        rule_of_three=3.0 / trials,
    )


def _tree_layout(code: GalaxyCode) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) of the block holding each codeword at every tree level.

    Codewords are listed depth-first, so those sharing the first L entries
    of their index_paths row form one contiguous run.  Row L of
    the (t_bar + 2, N) results is level L: 0 is the whole code, 1 the
    codeword's root, t_bar + 1 the codeword itself.
    """
    keys = code.index_paths
    n_cw, t_bar = len(keys), code.params.t_bar
    lo = np.zeros((t_bar + 2, n_cw), dtype=np.intp)
    hi = np.full_like(lo, n_cw)
    for level in range(1, t_bar + 2):
        starts = np.flatnonzero(np.r_[True, (keys[1:, :level] != keys[:-1, :level]).any(axis=1)])
        sizes = np.diff(np.r_[starts, n_cw])
        lo[level] = np.repeat(starts, sizes)
        hi[level] = lo[level] + np.repeat(sizes, sizes)
    return lo, hi


def _shared_level(lo: np.ndarray, i, j) -> np.ndarray:
    """Levels L >= 1 whose tree block holds both i and j (broadcast); 0 across roots."""
    level = np.zeros(np.broadcast_shapes(np.shape(i), np.shape(j)), dtype=np.int16)
    for block in lo[1:]:
        level += block[i] == block[j]
    return level


def _at_least(u: np.ndarray, sq: np.ndarray, rows: np.ndarray, threshold) -> np.ndarray:
    """Mask over (rows, every codeword) of ||u_i - u_j|| >= threshold.

    threshold is a scalar or one value per cell.  Distances come from the
    Gram form; cells within its rounding band of a positive threshold are
    decided by np.linalg.norm of the difference, so a tie goes the way a
    direct per-pair comparison sends it.
    """
    d2 = u[rows] @ u.T
    d2 *= -2.0
    band = sq[rows, None] + sq[None, :]
    d2 += band
    t2 = np.maximum(threshold, 0.0) ** 2
    far = d2 >= t2
    band += t2
    band *= 16 * (u.shape[1] + 4) * np.finfo(np.float64).eps
    d2 -= t2
    limit = np.broadcast_to(threshold, far.shape)
    for a, j in zip(*np.nonzero(np.abs(d2, out=d2) <= band)):
        # A distance is never negative, so a threshold <= 0 needs no recheck.
        far[a, j] = limit[a, j] <= 0 or float(np.linalg.norm(u[rows[a]] - u[j])) >= limit[a, j]
    return far


def select_pairs(code: GalaxyCode, strategy: PairStrategy, master_seed: int) -> list[tuple[int, int]]:
    """Ordered (target, sender) index pairs matching the strategy, i-major.

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
    return list(zip(targets.tolist(), senders.tolist()))


def _meet_rows(code: GalaxyCode, targets: np.ndarray, senders: np.ndarray) -> np.ndarray:
    """Slab row (meet height - 1) of each pair's meet ancestor; -1 across roots."""
    shared = _shared_level(_tree_layout(code)[0], targets, senders)
    return np.where(shared > 0, code.params.t_bar - shared, -1)


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
    targets, senders = np.asarray(select_pairs(code, strategy, master_seed)).T
    hits, shell_hits, slab_hits = _pair_counts(
        code, targets, senders, "type2", params, trials, master_seed, threads
    )
    u, roots = code.codewords, code.index_paths[:, 0]
    cross = roots[targets] != roots[senders]
    terms = {}  # one bound per pair class present
    if cross.any():
        d_min = min(float(np.linalg.norm(d)) for d in u[senders[cross]] - u[targets[cross]])
        terms["cross-shell"] = 0.0
        if params.sigma > 0:
            spec = ShellSpec(n=params.n, sigma=params.sigma, eps_n=params.eps_n)
            terms["cross-shell"] = shell_prob_cross(spec, d_min)
    if not cross.all():
        terms["meet-slab-tail"] = _slab_tail(params)
    formula = f"max({','.join(terms)})" if len(terms) > 1 else next(iter(terms))
    return ErrorEstimate(
        kind="type2",
        trials=trials,
        hits=hits,
        p_hat=hits / trials,
        wilson_95=wilson_interval(hits, trials),
        analytic_bound=max(terms.values()),
        bound_formula=formula,
        seed=master_seed,
        rule_of_three=3.0 / trials,
        components={"shell_hits": shell_hits, "decisive_slab_hits": slab_hits},
    )


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


def verify_structure(code: GalaxyCode, tol: float = 1e-6) -> StructureReport:
    """Exhaustive check of every structural guarantee of the construction.

    Radial windows codeword-to-ancestor, exact node-chain radii, pairwise
    meet-height distance bounds within a root, the cross-galaxy floor
    n^(b+1/4)/2, per-node minimum angles, and the power constraint.  All
    violations are returned with their measured values.  Pairs are checked
    in row blocks of at most _MASK_CELLS cells: O(N^2) time, bounded memory.
    """
    if not len(code.codewords):
        raise ValueError("cannot verify an empty code")
    p = code.params
    report = StructureReport(separation=galaxy.separation_margins(p.k, p.theta))

    u_mat = code.codewords

    # Radial windows per ancestor height (lo = hi = r at height 1).
    for t in range(1, p.t_bar + 1):
        lo, hi = galaxy.radial_bounds(p.r, p.k, t)
        dist = np.linalg.norm(u_mat - code.centers[code.ancestors[:, t - 1]], axis=1)
        for i in np.nonzero((dist < lo - tol) | (dist > hi + tol))[0]:
            report.cond1_violations.append(
                {
                    "kind": "codeword-radial",
                    "codeword": int(i),
                    "height": t,
                    "measured": float(dist[i]),
                    "bound": (lo, hi),
                }
            )

    # Exact node-chain radii and per-node angles.
    for root_index, root in enumerate(code.trees):
        for node in iter_nodes(root):
            radius = node.code.radius
            d = np.linalg.norm(node.code.points - node.code.center, axis=1)
            bad = np.nonzero(np.abs(d - radius) > 1e-9 * radius)[0]
            for i in bad:
                report.cond1_violations.append(
                    {
                        "kind": "node-radius",
                        "root": root_index,
                        "height": node.height,
                        "point": int(i),
                        "measured": float(d[i]),
                        "bound": (radius, radius),
                    }
                )
            if len(node.code) >= 2:
                ang = min_pairwise_angle(node.code)
                if ang < p.theta - ANGLE_TOL:
                    report.angle_violations.append(
                        {
                            "root": root_index,
                            "height": node.height,
                            "measured": float(ang),
                            "bound": p.theta,
                        }
                    )

    # Pairwise distances, in row blocks, with the bound of the pair's shared
    # tree level: the floor n^(b+1/4)/2 across roots (level 0), the meet
    # bound at height t_bar + 1 - L inside one, none for the codeword itself.
    bound_at = np.asarray(
        [p.n ** (p.b + 0.25) / 2.0]
        + [galaxy.pair_distance_lower_bound(p.r, p.k, p.theta, t) for t in range(p.t_bar, 0, -1)]
        + [0.0]
    )
    lo, _ = _tree_layout(code)
    sq = np.einsum("ij,ij->i", u_mat, u_mat)
    n_cw = len(u_mat)
    step = max(1, _MASK_CELLS // n_cw)
    for start in range(0, n_cw, step):
        rows = np.arange(start, min(start + step, n_cw))
        level = _shared_level(lo, rows[:, None], np.arange(n_cw)[None, :])
        close = ~_at_least(u_mat, sq, rows, (bound_at - tol)[level])
        for a, j in zip(*np.nonzero(np.triu(close, k=start + 1))):
            i, j, shared = start + int(a), int(j), int(level[a, j])
            found = {
                "pair": (i, j),
                "measured": float(np.linalg.norm(u_mat[i] - u_mat[j])),
                "bound": float(bound_at[shared]),
            }
            if shared:
                report.cond2_violations.append({**found, "meet": p.t_bar + 1 - shared})
            else:
                report.cross_galaxy_violations.append(found)

    # Power constraint on every codeword.
    power_cap = math.sqrt(p.n * p.power)
    norms = np.linalg.norm(u_mat, axis=1)
    for i in np.nonzero(norms > power_cap + tol)[0]:
        report.power_violations.append(
            {"codeword": int(i), "measured": float(norms[i]), "bound": power_cap}
        )
    return report


def rate_report(code: GalaxyCode) -> RateReport:
    """Achieved size and rate next to every analytic bound, gaps flagged."""
    p = code.params
    n_cw = len(code.codewords)
    n_roots = len(code.roots)
    rate = math.log2(n_cw) / (p.n * math.log2(p.n)) if n_cw >= 1 else 0.0
    lo, hi = galaxy.center_count_bounds(p.n, p.power, p.b)
    csw = csw_lower_bound(p.n, p.theta)
    m_achieved = min(len(node.code) for root in code.trees for node in iter_nodes(root))
    claim1_upper_ok = n_roots <= hi
    claim1_consistent = None
    if lo >= 1 and code.packing_saturated:
        claim1_consistent = bool(lo <= n_roots <= hi)
    lemma1_bound = galaxy.rate_lower_bound(p.n, p.power, p.b, p.k, p.theta)
    lemma1_met = None
    if m_achieved >= csw and code.packing_saturated:
        lemma1_met = bool(rate >= lemma1_bound - 1e-12)
    return RateReport(
        num_codewords=n_cw,
        num_roots=n_roots,
        rate_achieved=rate,
        lemma1_bound=lemma1_bound,
        claim1_bounds=(lo, hi),
        asymptotic=galaxy.asymptotic_rate(p.b, p.k),
        csw_bound=csw,
        m_achieved=m_achieved,
        packing_saturated=code.packing_saturated,
        claim1_upper_ok=claim1_upper_ok,
        claim1_consistent=claim1_consistent,
        lemma1_met=lemma1_met,
    )


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialPlan:
    """Per-cell Monte Carlo plan for a sweep."""

    type1_trials: int = 0
    type2_trials: int = 0
    pair_mode: str = "cross-galaxy"


@dataclass
class SweepResult:
    params: galaxy.GalaxyParams
    rate: RateReport | None = None
    structure_passed: bool | None = None
    type1: ErrorEstimate | None = None
    type2: ErrorEstimate | None = None
    error: str | None = None


def _params_key(p: galaxy.GalaxyParams) -> str:
    return "|".join(repr(getattr(p, f.name)) for f in fields(p))


def sweep(
    grid: list,
    plan: TrialPlan,
    master_seed: int,
    threads: int | None = None,
) -> list[SweepResult]:
    """Build + verify + estimate per grid cell; rows come back in grid order.

    Cells are independent; estimator seeds derive from the cell's own
    parameters, so duplicate cells produce identical rows and execution
    order is irrelevant.  Per-cell failures are recorded in the row and
    the sweep continues.
    """
    if not grid:
        raise ValueError("sweep grid is empty")

    def run_cell(index: int) -> SweepResult:
        params = grid[index]
        result = SweepResult(params=params)
        try:
            code = galaxy.build_code(params)
            result.rate = rate_report(code)
            result.structure_passed = verify_structure(code).passed
            dec = DecoderParams.from_galaxy(params)
            cell_seed = derive_seed(master_seed, "cell", _params_key(params))
            if plan.type1_trials:
                result.type1 = estimate_type1(code, dec, plan.type1_trials, cell_seed)
            if plan.type2_trials:
                result.type2 = estimate_type2(
                    code, PairStrategy(mode=plan.pair_mode), dec, plan.type2_trials, cell_seed
                )
        except (ValueError, ArithmeticError) as exc:
            result.error = str(exc)
        return result

    return _run_units(run_cell, len(grid), threads)
