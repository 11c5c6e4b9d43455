"""Hierarchical codebook construction and its structural/rate formulas.

A codebook is a saturated greedy packing of root centers inside the power
ball, each root carrying a depth-t tree of nested spherical codes: a node
at height h holds a code of radius k^(h-1) * r around its own center, the
points of which are the centers of the height-(h-1) children (codewords at
height 1).  A GalaxyCode holds this as arrays: the nodes' centers and point
counts in pre-order and the codewords; it derives, for every codeword, the
rows of its ancestor centers, the chain the hierarchical decoder tests
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spherical
from .seeding import derive_seed

__all__ = [
    "GalaxyParams",
    "GalaxyCode",
    "theta_of_k",
    "depth_bar",
    "separation_margins",
    "pack_centers",
    "build_code",
    "radial_bounds",
    "pair_distance_lower_bound",
    "center_count_bounds",
    "rate_lower_bound",
    "asymptotic_rate",
]

_CEIL_GUARD = 1e-9  # absorbs float noise at exact integer depth ratios

# The most bytes of codeword coordinates a build may hold, 1 GiB: packing
# refuses the root whose subtree could take the table past it.
_TABLE_CAP = 1 << 30
_INITIAL_ROOTS = 64  # pack_centers' first capacity; it doubles as roots are accepted


def theta_of_k(k: int) -> float:
    """Design angle 2 arcsin(2 / sqrt(k-2)); needs k >= 7 to stay below pi."""
    if k < 7:
        raise ValueError(f"k must be >= 7, got {k}")
    return 2.0 * math.asin(2.0 / math.sqrt(k - 2))


def depth_bar(n: int, b: float, k: int) -> int:
    """Tree depth ceil((1/4 - b) log2 n / log2 k), clamped to at least 1."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0 <= b < 0.25:
        raise ValueError(f"b must lie in [0, 1/4), got {b}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    v = (0.25 - b) * math.log2(n) / math.log2(k)
    return max(1, math.ceil(v - _CEIL_GUARD))


def separation_margins(k: int, theta: float) -> dict:
    """Both forms of the separation condition with their numeric sides.

    strict: (sin(theta/2) - 1/(k-1))^2 > 2/(k-1); weak replaces the right
    side by 1/(k-1).  Reports show both because the two appear
    interchangeably in the analysis.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    lhs = (math.sin(theta / 2.0) - 1.0 / (k - 1)) ** 2
    return {
        "lhs": lhs,
        "strict_rhs": 2.0 / (k - 1),
        "strict_holds": lhs > 2.0 / (k - 1),
        "weak_rhs": 1.0 / (k - 1),
        "weak_holds": lhs > 1.0 / (k - 1),
    }


def radial_bounds(r: float, k: int, t: int) -> tuple[float, float]:
    """Distance window [lo, hi] between a codeword and its height-t ancestor.

    lo = r (k^t - 2 k^(t-1) + 1)/(k-1), hi = r (k^t - 1)/(k-1); both equal r
    at t = 1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    lo = r * (k**t - 2 * k ** (t - 1) + 1) / (k - 1)
    hi = r * (k**t - 1) / (k - 1)
    return lo, hi


def pair_distance_lower_bound(r: float, k: int, theta: float, t: int) -> float:
    """Minimum distance between two codewords whose paths first meet at height t.

    2 r (k^(t-1) sin(theta/2) - (k^(t-1) - 1)/(k-1)); positive for every
    t >= 1 whenever the separation condition holds.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    kt = k ** (t - 1)
    return 2.0 * r * (kt * math.sin(theta / 2.0) - (kt - 1) / (k - 1))


def center_count_bounds(n: int, P: float, b: float) -> tuple[float, float]:
    """Volume-argument bounds on the size of a saturated center packing.

    lo = 2^-n (sqrt(nP)/n^(b+1/4))^n, hi = ((sqrt(nP)+n^(b+1/4))/n^(b+1/4))^n.
    A bound beyond float range is math.inf.
    """
    if P <= 0:
        raise ValueError(f"P must be > 0, got {P}")
    s = math.sqrt(n * P)
    rho = n ** (b + 0.25)
    try:
        lo = 2.0**-n * (s / rho) ** n
    except OverflowError:  # (s/rho)^n can leave float range where lo itself does not
        try:
            lo = math.exp(n * math.log(s / (2.0 * rho)))
        except OverflowError:
            lo = math.inf
    try:
        hi = ((s + rho) / rho) ** n
    except OverflowError:
        hi = math.inf
    return lo, hi


def rate_lower_bound(n: int, P: float, b: float, k: int, theta: float) -> float:
    """Guaranteed rate of the construction in the 2^(nR log n) scale.

    (log2 sqrt(nP) - 1)/log2 n - (1/4 - b) log2(sin theta)/log2 k - (b + 1/4).
    """
    if not (0 < theta < math.pi):
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    return (
        (math.log2(math.sqrt(n * P)) - 1.0) / math.log2(n)
        - (0.25 - b) * math.log2(math.sin(theta)) / math.log2(k)
        - (b + 0.25)
    )


def asymptotic_rate(b: float, k) -> float:
    """Large-n limit of the achieved rate: 3/8 + b (2/log2 k - 3/2) - 1/(2 log2 k).

    Accepts arbitrarily large integer k (the limit toward 3/8 is taken by
    letting log2 k grow).
    """
    if k < 7:
        raise ValueError(f"k must be >= 7, got {k}")
    if not 0 <= b < 0.25:
        raise ValueError(f"b must lie in [0, 1/4), got {b}")
    lk = math.log2(k)
    return 0.375 + b * (2.0 / lk - 1.5) - 1.0 / (2.0 * lk)


@dataclass(frozen=True)
class GalaxyParams:
    """Everything that determines a codebook; all randomness keys off master_seed.

    Defaults resolve at construction: theta from theta_of_k(k), t_bar from
    depth_bar(n, b, k), r from n^b.  Two finite-n feasibility margins are
    controlled here and flagged whenever they bind:

    * r_min_coeff: when set, the leaf radius is raised to
      max(n^b, r_min_coeff * sigma * log2 n) so the slab-separation premise
      is checkable at small n instead of vacuous.
    * enforce_cross_galaxy_margin: widens the center spacing to
      max(2 n^(b+1/4), n^(b+1/4)/2 + 2 * extent) so the cross-galaxy
      distance bound holds structurally even when the requested depth
      exceeds depth_bar.  At asymptotic scale the widened value coincides
      with the nominal one.
    """

    n: int
    power: float
    b: float = 0.0
    k: int = 8
    theta: float | None = None
    m_per_level: int | None = None
    sigma: float = 1.0
    master_seed: int = 0
    t_bar: int | None = None
    r_min_coeff: float | None = None
    enforce_cross_galaxy_margin: bool = True
    max_roots: int = 256
    saturation_probes: int = 200
    max_attempts: int = 20000

    # m_per_level default is min(floor(csw bound), this cap), at least 1
    _M_CAP = 16

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0 < self.power < math.inf:
            raise ValueError(f"power must be finite and > 0, got {self.power}")
        if not 0 <= self.b < 0.25:
            raise ValueError(f"b must lie in [0, 1/4), got {self.b}")
        if self.k < 7:
            raise ValueError(f"k must be >= 7, got {self.k}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.theta is None:
            object.__setattr__(self, "theta", theta_of_k(self.k))
        if not (0 < self.theta < math.pi):
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if self.t_bar is None:
            object.__setattr__(self, "t_bar", depth_bar(self.n, self.b, self.k))
        if self.t_bar < 1:
            raise ValueError(f"t_bar must be >= 1, got {self.t_bar}")
        if self.m_per_level is None:
            csw = spherical.csw_lower_bound(self.n, self.theta)  # may be inf
            object.__setattr__(self, "m_per_level", max(1, math.floor(min(csw, self._M_CAP))))
        if self.m_per_level < 1:
            raise ValueError(f"m_per_level must be >= 1, got {self.m_per_level}")
        if self.r_min_coeff is not None and not 0 < self.r_min_coeff < math.inf:
            raise ValueError(f"r_min_coeff must be finite and > 0, got {self.r_min_coeff}")
        if self.max_roots < 1 or self.saturation_probes < 1 or self.max_attempts < 1:
            raise ValueError("max_roots, saturation_probes and max_attempts must be >= 1")
        m = separation_margins(self.k, self.theta)
        if not m["strict_holds"]:
            raise ValueError(
                "separation condition fails: "
                f"(sin(theta/2) - 1/(k-1))^2 = {m['lhs']:.6g} <= 2/(k-1) = {m['strict_rhs']:.6g}"
            )

    @property
    def r_nominal(self) -> float:
        """Leaf radius n^b before any feasibility override."""
        return self.n**self.b

    @property
    def r(self) -> float:
        """Effective leaf radius (n^b, possibly raised by the r_min override)."""
        if self.r_min_coeff is None:
            return self.r_nominal
        return max(self.r_nominal, self.r_min_coeff * self.sigma * math.log2(self.n))

    @property
    def extent(self) -> float:
        """Maximum codeword distance from its root: r (k^t - 1)/(k - 1)."""
        return radial_bounds(self.r, self.k, self.t_bar)[1]

    @property
    def spacing_nominal(self) -> float:
        return 2.0 * self.n ** (self.b + 0.25)

    @property
    def spacing(self) -> float:
        """Effective minimum distance between root centers."""
        if not self.enforce_cross_galaxy_margin:
            return self.spacing_nominal
        return max(self.spacing_nominal, self.n ** (self.b + 0.25) / 2.0 + 2.0 * self.extent)

    @property
    def pack_radius(self) -> float:
        """Center-packing ball radius: sqrt(nP) shrunk by the galaxy extent."""
        return math.sqrt(self.n * self.power) - self.extent


@dataclass(frozen=True)
class GalaxyCode:
    """A codebook as arrays: every node's center and point count, and the codewords.

    centers (C, n) and counts (C,) list the nodes in pre-order, root after
    root.  A node above height 1 has one child per point, centered on it;
    the height-1 nodes' points are the codewords (N, n), in the same order.
    Derived here, and only here: heights and parents (C,), -1 for a root;
    roots, the root centers, whose rank is the root index; ancestors
    (N, t_bar), where ancestors[j, h-1] is the row of centers holding
    codeword j's height-h ancestor (pre-order makes every column sorted, so
    a node's codewords form one run); and degraded (some node holds fewer
    than m_per_level points).  All arrays are read-only.
    Counts that are not complete depth-t_bar trees of 1 to m_per_level
    points per node, tables of another shape and non-finite coordinates
    raise ValueError naming the node as (root, *child indices).
    """

    params: GalaxyParams
    centers: np.ndarray
    counts: np.ndarray
    codewords: np.ndarray
    packing_saturated: bool
    heights: np.ndarray = field(init=False)
    parents: np.ndarray = field(init=False)
    roots: np.ndarray = field(init=False)
    ancestors: np.ndarray = field(init=False)
    degraded: bool = field(init=False)

    def __post_init__(self):
        p = self.params
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or (counts.size and counts.dtype.kind not in "iu"):
            raise ValueError("counts must be a list of integers")
        values = counts.tolist()
        heights, parents, slots = [], [], []  # slot: root index, or rank among siblings
        open_nodes = []  # [row, children placed] of each node still missing children
        n_roots = 0

        def where(row: int) -> tuple:
            path = []
            while row >= 0:
                path.append(slots[row])
                row = parents[row]
            return tuple(reversed(path))

        for row, count in enumerate(values):
            if open_nodes:
                parent, slot = top = open_nodes[-1]
                top[1] += 1
                if top[1] == values[parent]:
                    open_nodes.pop()
                height = heights[parent] - 1
            else:
                parent, slot, height = -1, n_roots, p.t_bar
                n_roots += 1
            heights.append(height)
            parents.append(parent)
            slots.append(slot)
            if not 1 <= count <= p.m_per_level:
                raise ValueError(
                    f"node {where(row)} holds {count} points, not 1 to "
                    f"m_per_level = {p.m_per_level}"
                )
            if height > 1:
                open_nodes.append([row, 0])
        if open_nodes:
            row, placed = open_nodes[-1]
            raise ValueError(
                f"node {where(row)} holds {values[row]} points, but the counts end "
                f"after {placed} of its children"
            )

        counts = counts.astype(np.intp)
        heights, parents = np.asarray(heights, dtype=np.intp), np.asarray(parents, dtype=np.intp)
        rows = np.arange(len(counts))
        sizes = counts[heights == 1]
        owner = np.repeat(rows[heights == 1], sizes)  # the height-1 node of each codeword
        tables = {}
        # A root's center is its own; any other center is a point of its parent.
        for name, node_of in (("centers", np.where(parents < 0, rows, parents)),
                              ("codewords", owner)):
            table = tables[name] = np.asarray(getattr(self, name), dtype=np.float64)
            if table.shape != (len(node_of), p.n):
                raise ValueError(
                    f"{name} have shape {table.shape}, the counts need {(len(node_of), p.n)}"
                )
            bad = ~np.isfinite(table).all(axis=1)
            if bad.any():
                raise ValueError(
                    f"node {where(int(node_of[bad.argmax()]))} has a non-finite coordinate"
                )
        chain = [owner]
        for _ in range(1, p.t_bar):
            chain.append(parents[chain[-1]])
        derived = dict(
            tables, counts=counts, heights=heights, parents=parents,
            roots=tables["centers"][parents < 0], ancestors=np.stack(chain, axis=1),
        )
        for name, value in derived.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "degraded", bool((counts < p.m_per_level).any()))


def _band(n: int) -> float:
    """Relative rounding band 16 (n + 4) eps of float64 sums of n squares."""
    return 16 * (n + 4) * np.finfo(np.float64).eps


def pack_centers(params: GalaxyParams) -> tuple[np.ndarray, bool]:
    """Greedy packing of root centers in the shrunken power ball.

    Draws uniform points in the ball of radius pack_radius, accepts one iff
    it keeps the pairwise spacing, and stops after saturation_probes
    consecutive rejections (reported as saturated=True) or at max_roots
    (saturated=False: the cap, not the geometry, ended the packing).
    Gram-form squared distances pick the centers within rounding of spacing
    or nearer, and only their norms decide, as if all were measured.
    Returns the accepted centers as the rows of one array.  Each root adds
    at most max_points^t_bar codewords; a root that would take that bound
    on the codeword table past _TABLE_CAP bytes raises ValueError.
    """
    radius = params.pack_radius
    if radius <= 0:
        raise ValueError(
            f"power budget too small for galaxy extent: sqrt(nP) = "
            f"{math.sqrt(params.n * params.power):.6g} <= extent = {params.extent:.6g}"
        )
    n = params.n
    leaves = spherical.max_points(n, params.theta, params.m_per_level) ** params.t_bar
    rng = np.random.default_rng(derive_seed(params.master_seed, "centers"))
    spacing = params.spacing
    centers = np.empty((min(params.max_roots, _INITIAL_ROOTS), n))
    sq = np.empty(len(centers))  # the accepted centers' squared norms
    band = _band(n)
    count = rejections = 0
    while count < params.max_roots:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        u = rng.random()
        cand = v * (radius * u ** (1.0 / n) / norm)
        cand_sq = cand @ cand
        d2 = sq[:count] - 2.0 * (centers[:count] @ cand) + cand_sq
        near = centers[:count][~(d2 >= spacing**2 + band * (sq[:count] + cand_sq + spacing**2))]
        if len(near) and np.min(np.linalg.norm(near - cand, axis=1)) < spacing:
            rejections += 1
            if rejections >= params.saturation_probes:
                return centers[:count], True
            continue
        if (count + 1) * leaves * n * 8 > _TABLE_CAP:
            raise ValueError(
                f"refusing root {count + 1}: N = {(count + 1) * leaves} codewords of "
                f"n = {n} coordinates would pass the {_TABLE_CAP}-byte table cap"
            )
        if count == len(centers):
            centers, sq = np.concatenate([centers, centers]), np.concatenate([sq, sq])
        centers[count], sq[count] = cand, cand_sq
        count += 1
        rejections = 0
    return centers[:count], False


def build_code(params: GalaxyParams) -> GalaxyCode:
    """Pack root centers and grow every galaxy one tree level at a time.

    The greedy's witness-prefix run is the same at every node, so it runs
    once.  When it stops, a level's points are its centers plus the run's
    directions scaled to the level's radius, for all nodes at once.  Only
    when it falls short does each node resume it on its own stream,
    derive_seed(master_seed, "node", root, *child indices).  Paths padded
    with -1 sort the nodes into pre-order; within one level, the level
    order already is pre-order, so the last level's points are the codewords.
    """
    roots, saturated = pack_centers(params)
    run = spherical.greedy_prefix(params.n, params.theta, params.m_per_level, params.max_attempts)
    level = roots
    paths = np.full((len(roots), params.t_bar), -1, dtype=np.intp)
    paths[:, 0] = np.arange(len(roots))
    centers, counts, node_paths = [], [], []
    for depth, height in enumerate(range(params.t_bar, 0, -1)):
        r = params.r * params.k ** (height - 1)
        if run.stopped:
            sizes = np.full(len(level), len(run.accepted), dtype=np.intp)
            points = (level[:, None, :] + r * run.accepted).reshape(-1, params.n)
        else:
            grown = [
                center + r * spherical.greedy_tail(
                    run, derive_seed(params.master_seed, "node", *path[: depth + 1].tolist())
                )
                for center, path in zip(level, paths)
            ]
            sizes = np.array([len(g) for g in grown], dtype=np.intp)
            points = np.concatenate(grown)
        centers.append(level)
        counts.append(sizes)
        node_paths.append(paths)
        if height > 1:  # each point centers a child; its path adds the point's rank
            parent = np.repeat(np.arange(len(level)), sizes)
            rank = np.arange(len(parent)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            paths = paths[parent]
            paths[:, depth + 1] = rank
        level = points
    order = np.lexsort(np.concatenate(node_paths).T[::-1])
    return GalaxyCode(
        params,
        np.concatenate(centers)[order],
        np.concatenate(counts)[order],
        level,
        packing_saturated=saturated,
    )
