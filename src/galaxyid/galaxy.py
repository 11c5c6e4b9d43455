"""Hierarchical codebook construction and its structural/rate formulas.

A codebook is a saturated greedy packing of root centers inside the power
ball, each root carrying a depth-t tree of nested spherical codes: a node
at height h holds a code of radius k^(h-1) * r around its own center, the
points of which are the centers of the height-(h-1) children (codewords at
height 1).  A GalaxyCode holds this as arrays: the nodes' centers and point
counts in level order (the roots, then each height in turn, as the build
grows them) and the codewords; it derives, for every codeword, the rows of
its ancestor centers, the chain the hierarchical decoder tests against.
Every level is grown by one step, _grow_level: each node's points are its
center plus the shared prefix directions scaled to the level's radius,
except at exception nodes, whose points are given.  build_code and the
code-file loader both grow through it, so a loaded code is the built one
bit for bit.
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

    def level_radius(self, height: int) -> float:
        """Radius r k^(height-1) of the code a height-`height` node holds."""
        return self.r * self.k ** (height - 1)

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

    centers (C, n) and counts (C,) list the nodes in level order, as
    build_code grows them: the roots, then every node one height lower, down
    to height 1.  A node's points are the next rows of the level below, in
    order: the centers of its children above height 1, the codewords (N, n)
    at height 1.  So the roots number R = C + N - sum(counts).  Derived
    here, and only here: heights and parents (C,), -1 for a root; roots,
    the first R centers, whose row is the root index; ancestors (N, t_bar),
    where ancestors[j, h-1] is the row of centers holding codeword j's
    height-h ancestor (each column is sorted, so a node's codewords form
    one run, and ancestors[j, -1] is j's root index); and degraded (some
    node holds fewer than m_per_level points).  All arrays are read-only.
    Counts that do not fill t_bar complete levels of the tables' rows,
    tables of another width, and a count outside [1, m_per_level] or a
    non-finite coordinate, named by its node as (root, *child indices),
    raise ValueError.  build_code and codefile.deserialize make it through
    _grow_code; a code given other arrays is written to a code file with the
    nodes that _grow_level would not reproduce as exception nodes.
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
        counts = counts.astype(np.intp)
        tables = {}
        for name in ("centers", "codewords"):
            table = tables[name] = np.asarray(getattr(self, name), dtype=np.float64)
            if table.ndim != 2 or table.shape[1] != p.n:
                raise ValueError(f"{name} have shape {table.shape}, not (rows, n = {p.n})")
        n_c, n_w = len(tables["centers"]), len(tables["codewords"])
        # Row y of the centers, then the codewords (y >= C), is a root for
        # y < R, else a point of the node v with ends[v - 1] <= y < ends[v].
        # No node holds more points than there are rows, so clipping only
        # keeps the sums of malformed counts in range.
        clipped = np.clip(counts, 0, n_c + n_w + 1)
        n_roots = n_c + n_w - int(clipped.sum())
        ends = n_roots + np.cumsum(clipped)
        bounds = [0, n_roots]  # level L holds rows bounds[L] to bounds[L + 1] - 1
        for _ in range(1, p.t_bar):
            last = bounds[-1]
            bounds.append(int(ends[last - 1]) if bounds[-2] < last <= len(counts) else last)
        if len(counts) != n_c or bounds[-1] != n_c or (n_c and min(np.diff(bounds)) < 1):
            raise ValueError(
                f"counts do not fill t_bar = {p.t_bar} complete levels for {n_c} centers and "
                f"{n_w} codewords (the counts have length {len(counts)} and sum "
                f"{sum(counts.tolist())})"
            )

        def where(row: int) -> tuple:  # (root, *child indices) of a row; counts before it in range
            path = []
            while row >= n_roots:
                parent = int(np.searchsorted(ends[:row], row, side="right"))
                path.append(row - int(ends[parent] - counts[parent]))
                row = parent
            return (row, *reversed(path))

        bad = (counts < 1) | (counts > p.m_per_level)
        if bad.any():
            row = int(bad.argmax())
            raise ValueError(
                f"node {where(row)} holds {counts[row]} points, not 1 to "
                f"m_per_level = {p.m_per_level}"
            )
        for first, table in zip((0, n_c), tables.values()):
            bad = ~np.isfinite(table).all(axis=1)
            if bad.any():  # a root's center is its own; any other point is its node's
                path = where(first + int(bad.argmax()))
                raise ValueError(f"node {path[:-1] or path} has a non-finite coordinate")
        owner = np.repeat(np.arange(n_c), counts)  # the node of each row past the roots
        parents = np.concatenate([np.full(n_roots, -1, dtype=np.intp), owner[: n_c - n_roots]])
        chain = [owner[n_c - n_roots :]]
        for _ in range(1, p.t_bar):
            chain.append(parents[chain[-1]])
        derived = dict(
            tables, counts=counts, parents=parents, roots=tables["centers"][:n_roots],
            heights=np.repeat(np.arange(p.t_bar, 0, -1), np.diff(bounds)),
            ancestors=np.stack(chain, axis=1),
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


def _grow_level(level: np.ndarray, r: float, prefix: np.ndarray, nodes, counts, points):
    """The point counts and points of one level's nodes, one node after another.

    Node i's points are level[i] + r * prefix, except at the exception nodes:
    `nodes`, ascending indices into the level, whose point counts and points
    (one node's after another) are given.  The build and the code-file loader
    both grow every level here, so a loaded code is bit for bit the built one.
    A level of points past _TABLE_CAP bytes raises ValueError.
    """
    n = level.shape[1]
    sizes = np.full(len(level), len(prefix), dtype=np.intp)
    sizes[nodes] = counts
    total = int(sizes.sum())
    if total * n * 8 > _TABLE_CAP:
        raise ValueError(
            f"refusing to grow {total} points of n = {n} coordinates: past the "
            f"{_TABLE_CAP}-byte table cap"
        )
    if not len(nodes):
        return sizes, (level[:, None, :] + r * prefix).reshape(-1, n)
    grown = np.ones(len(level), dtype=bool)
    grown[nodes] = False
    rows = np.repeat(grown, sizes)
    out = np.empty((total, n))
    out[rows] = (level[grown][:, None, :] + r * prefix).reshape(-1, n)
    out[~rows] = points
    return sizes, out


def _grow_code(params: GalaxyParams, roots, prefix, exceptions, packing_saturated) -> GalaxyCode:
    """The code grown from its roots one tree level at a time by _grow_level.

    exceptions(first, level, r, paths) gives _grow_level's (nodes, counts,
    points) for the level of nodes first, first + 1, ... in level order, with
    centers `level`, radius r and each node's (root, *child indices) in paths.
    The last level's points are the codewords.  An internal hook with two
    callers: build_code draws its exceptions (from level, r and paths), and
    codefile.deserialize looks up the file's (from first and len(level)).
    """
    level, first = roots, 0
    paths = np.arange(len(roots))[:, None]
    centers, counts = [], []
    for height in range(params.t_bar, 0, -1):
        r = params.level_radius(height)
        sizes, points = _grow_level(level, r, prefix, *exceptions(first, level, r, paths))
        centers.append(level)
        counts.append(sizes)
        first += len(level)
        if height > 1:  # each point centers a child; its path adds the point's rank
            parent = np.repeat(np.arange(len(level)), sizes)
            rank = np.arange(len(parent)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            paths = np.column_stack([paths[parent], rank])
        level = points
    return GalaxyCode(
        params, np.concatenate(centers), np.concatenate(counts), level,
        packing_saturated=packing_saturated,
    )


def build_code(params: GalaxyParams) -> GalaxyCode:
    """Pack root centers and grow every galaxy one tree level at a time.

    The greedy's witness-prefix run is the same at every node, so it runs
    once.  When it stops, every node's points are its center plus the run's
    directions scaled to its level's radius, and _grow_code makes them for a
    whole level at once.  Only when it falls short does each node resume it
    on its own stream, derive_seed(master_seed, "node", root, *child
    indices); every node is then an exception that _grow_level is handed.
    """
    roots, saturated = pack_centers(params)
    run = spherical.greedy_prefix(params.n, params.theta, params.m_per_level, params.max_attempts)

    def drawn(first, level, r, paths):
        if run.stopped:
            return [], [], None
        grown = [
            center + r * spherical.greedy_tail(
                run, derive_seed(params.master_seed, "node", *path.tolist())
            )
            for center, path in zip(level, paths)
        ]
        sizes = np.array([len(g) for g in grown], dtype=np.intp)
        return np.arange(len(level)), sizes, np.concatenate(grown)

    return _grow_code(params, roots, run.accepted, drawn, saturated)
