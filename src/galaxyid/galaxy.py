"""Hierarchical codebook construction and its structural/rate formulas.

A codebook is a saturated greedy packing of root centers inside the power
ball, each root carrying a depth-t tree of nested spherical codes: a node
at height h holds a code of radius k^(h-1) * r around its own center, the
points of which are the centers of the height-(h-1) children (codewords at
height 1).  A GalaxyCode is its root centers, its witness prefix and its
exception nodes: every other node's points are its center plus the shared
witness-prefix directions scaled to the level's radius, and an exception
node's points are given.  One row source, LevelRows, grows any level's
points by that rule.  The constructor grows every level above the
codewords through it into one table of the nodes' centers in level order
(the roots, then each height in turn); the height-1 one is the codewords,
grown on demand a block of rows at a time.  Every codeword keeps the rows
of its ancestor centers, the chain the hierarchical decoder tests against.
build_code and the code-file loader both make a code through the
constructor, so a loaded code is the built one bit for bit.
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

# The most bytes a code's (N, n) codeword table may take, 1 GiB, though no
# command holds it whole: packing refuses the root whose subtree could take
# the table past it, so the cap bounds N.
_TABLE_CAP = 1 << 30
_INITIAL_ROOTS = 64  # pack_centers' first capacity; it doubles as roots are accepted
# The most cells a kernel gathers or grows at once, 512 kB of float64 (see experiments).
_DECIDE_CELLS = 1 << 16


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
        # past it r k^(t_bar - 1) leaves float range; exact at any t_bar, unlike k ** t_bar
        if self.t_bar - 1 >= 1024 / math.log2(self.k):
            raise ValueError(f"t_bar must satisfy (t_bar - 1) log2(k) < 1024, got t_bar = "
                             f"{self.t_bar} at k = {self.k}")
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


class LevelRows:
    """One level's points as a read-only row source of shape (rows, n), grown on demand.

    Row j is point slot[j] of the node in row owner[j] of centers: the listed
    point of an exception node, else centers[owner[j]] + (r * prefix)[slot[j]],
    r the radius of that node's level.  GalaxyCode grows every level above the
    codewords through one, and its codewords are the height-1 one, so every row
    is bit for bit the one a materialized table would hold.  Supports len,
    shape, and indexing by a slice or by an integer array of any shape (an int
    gives one row); only the rows asked for are grown.  grow() grows them into
    a caller's buffers instead of fresh arrays.
    """

    def __init__(self, centers, owner, slot, grown, listed, points):
        self._centers, self._owner, self._slot = centers, owner, slot
        self._grown, self._points = grown, points
        # each node's first row in points, -1 if it is not listed; None if none is
        self._listed = listed
        self.shape = (len(owner), centers.shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, *args, **kwargs):
        raise TypeError("rows are grown on demand: index a block of them instead")

    def __getitem__(self, index) -> np.ndarray:
        return self.grow(index)

    def grow(self, index, out=None, scratch=None) -> np.ndarray:
        """self[index], grown into out, an array of its shape, or a fresh one
        for None; scratch, of the same shape, takes the prefix rows that are
        added (a fresh temporary for None)."""
        if isinstance(index, slice):
            index = np.arange(*index.indices(len(self)))
        j = np.asarray(index)
        if j.size and j.dtype.kind not in "iu":
            raise IndexError(f"rows take a slice or integer indices, not {index!r}")
        j = j.astype(np.intp, copy=False)
        owner, slot = self._owner[j], self._slot[j]  # IndexError past either end
        if out is None:
            out = np.empty(j.shape + (self.shape[1],))
        if self._listed is None:  # the indices are valid, so "clip" takes without a copy
            np.take(self._centers, owner, axis=0, out=out, mode="clip")
            out += np.take(self._grown, slot, axis=0, out=scratch, mode="clip")
            return out
        owner, slot = owner.reshape(-1), slot.reshape(-1)
        listed = self._listed[owner]
        given = listed >= 0
        flat = out.reshape(len(owner), self.shape[1])
        flat[~given] = self._centers[owner[~given]] + self._grown[slot[~given]]
        flat[given] = self._points[listed[given] + slot[given]]
        return out


@dataclass(frozen=True)
class GalaxyCode:
    """A codebook: its root centers and exception nodes, grown into arrays.

    Level order lists the roots, then every node one height lower, down to
    height 1, each level in the order of its parents' points.  A node's
    points are its center plus the witness prefix,
    greedy_prefix(...).accepted, scaled to its level's radius, except at
    the exception nodes: exceptions = (nodes, counts, points) gives their
    level-order indices (ascending), point counts and points, one node
    after another.  The constructor sizes every level before it grows any,
    then grows each through a LevelRows: the levels above height 1 into
    their slices of centers (C, n), every node's center in level order, and
    the height-1 one as codewords, of shape (N, n), grown a block of rows at
    a time when a kernel asks for them.  It derives prefix (m, n), the
    witness prefix every level grows from; counts (C,), every node's point
    count; heights (C,); ancestors (N, t_bar), where ancestors[j, h-1] is
    the row of centers holding codeword j's height-h ancestor (each column
    is sorted, so a node's codewords form one run, and ancestors[j, -1] is
    j's root index); and degraded (some node holds fewer than m_per_level
    points).  roots, the first R centers, and exceptions are the
    constructor's own copies; all arrays are read-only.  No root, tables of
    another width, exception lists of other lengths, not integers, not
    strictly increasing or out of range, a count outside [1, m_per_level],
    points of other rows than the counts give, and a non-finite coordinate
    (checked in blocks of _DECIDE_CELLS cells) raise ValueError, naming a
    node by its level-order index.
    """

    params: GalaxyParams
    roots: np.ndarray
    exceptions: tuple
    packing_saturated: bool
    centers: np.ndarray = field(init=False)
    prefix: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)
    codewords: LevelRows = field(init=False)
    heights: np.ndarray = field(init=False)
    ancestors: np.ndarray = field(init=False)
    degraded: bool = field(init=False)

    def __post_init__(self):
        p = self.params
        roots = np.array(self.roots, dtype=np.float64)
        nodes, counts, points = self.exceptions
        nodes, counts = np.array(nodes), np.array(counts)
        points = np.array(points, dtype=np.float64)
        for name, table in (("roots", roots), ("exception points", points)):
            if table.ndim != 2 or table.shape[1] != p.n:
                raise ValueError(f"{name} have shape {table.shape}, not (rows, n = {p.n})")
        if not len(roots):
            raise ValueError("the code has no root")
        if nodes.ndim != 1 or counts.ndim != 1 or any(
            a.size and a.dtype.kind not in "iu" for a in (nodes, counts)
        ):
            raise ValueError("'exceptions' nodes and counts must be integers")
        if len(nodes) != len(counts):
            raise ValueError(f"'exceptions' lists {len(nodes)} nodes and {len(counts)} counts")
        bad = (counts < 1) | (counts > p.m_per_level)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"exception node {nodes[i]} holds {counts[i]} points, not 1 to "
                f"m_per_level = {p.m_per_level}"
            )
        nodes, counts = nodes.astype(np.intp), counts.astype(np.intp)
        bad = np.diff(nodes) <= 0
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"'exceptions' nodes must be strictly increasing, got {nodes[i + 1]} after "
                f"{nodes[i]}"
            )
        if len(nodes) and nodes[0] < 0:
            raise ValueError(f"exception node {nodes[0]} is out of range")
        if len(points) != counts.sum():
            raise ValueError(
                f"exception points hold {len(points)} rows, not the {counts.sum()} "
                "their counts give"
            )
        bad = ~np.isfinite(roots).all(axis=1)
        if bad.any():
            raise ValueError(f"node {bad.argmax()} has a non-finite coordinate")

        # Every level's size from the counts alone: level i holds rows
        # starts[i]:starts[i + 1] (the codewords last) and exception nodes
        # cuts[i]:cuts[i + 1].
        prefix = spherical.greedy_prefix(p.n, p.theta, p.m_per_level, p.max_attempts).accepted
        starts, cuts = [0, len(roots)], [0]
        for _ in range(p.t_bar):
            cuts.append(int(np.searchsorted(nodes, starts[-1])))
            given = counts[cuts[-2] : cuts[-1]]
            total = (starts[-1] - starts[-2] - len(given)) * len(prefix) + int(given.sum())
            if total * p.n * 8 > _TABLE_CAP:
                raise ValueError(
                    f"refusing to grow {total} points of n = {p.n} coordinates: past the "
                    f"{_TABLE_CAP}-byte table cap"
                )
            starts.append(starts[-1] + total)
        n_roots, n_nodes = len(roots), starts[-2]
        if cuts[-1] < len(nodes):
            raise ValueError(
                f"exception node {nodes[-1]} is out of range: the code has {n_nodes} nodes"
            )

        # Each non-root row's node and its slot among that node's points.
        counts_all = np.full(n_nodes, len(prefix), dtype=np.intp)
        counts_all[nodes] = counts
        owner = np.repeat(np.arange(n_nodes), counts_all)
        slot = np.arange(len(owner)) - (np.cumsum(counts_all) - counts_all)[owner]
        slot = slot.astype(np.min_scalar_type(int(counts_all.max())))
        parents = np.r_[np.full(n_roots, -1, dtype=np.intp), owner[: n_nodes - n_roots]]
        ancestors = np.empty((len(owner) - n_nodes + n_roots, p.t_bar), dtype=np.intp)
        ancestors[:, 0] = owner[n_nodes - n_roots :]
        del owner
        for h in range(1, p.t_bar):
            ancestors[:, h] = parents[ancestors[:, h - 1]]
        listed = None
        if len(nodes):  # each exception node's first row in points
            listed = np.full(n_nodes, -1, dtype=np.intp)
            listed[nodes] = np.cumsum(counts) - counts

        # Level i's points are the rows of level i + 1: centers, written a
        # block at a time into their slice, or at last the codewords.
        centers = np.empty((n_nodes, p.n))
        centers[:n_roots] = roots
        step = max(1, _DECIDE_CELLS // p.n)
        for i in range(p.t_bar):
            first, end = starts[i + 1], starts[i + 2]
            owner = parents[first:end] if end <= n_nodes else ancestors[:, 0]
            grown = p.level_radius(p.t_bar - i) * prefix
            rows = LevelRows(centers, owner, slot[first - n_roots : end - n_roots], grown,
                             listed if cuts[i] < cuts[i + 1] else None, points)
            # The codewords are finite when their listed points are and no
            # center plus a prefix point can leave float range; else the blocks
            # find the first that is not.
            room = np.finfo(np.float64).max / 2 - np.abs(grown).max(initial=0.0)
            if end > n_nodes and max(-centers.min(), centers.max()) <= room and np.isfinite(
                    points[counts[: cuts[i]].sum() :]).all():
                break
            for s in range(0, len(rows), step):
                block = rows[s : s + step]
                if end <= n_nodes:
                    centers[first + s : first + s + len(block)] = block
                bad = ~np.isfinite(block).all(axis=1)
                if bad.any():  # an exception's point, or a center plus the prefix past float range
                    raise ValueError(f"node {owner[s + bad.argmax()]} has a non-finite coordinate")
        derived = dict(
            centers=centers, prefix=prefix, counts=counts_all, roots=centers[:n_roots],
            ancestors=ancestors, heights=np.repeat(np.arange(p.t_bar, 0, -1), np.diff(starts[:-1])),
        )
        for value in (*derived.values(), nodes, counts, points):
            value.flags.writeable = False
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "codewords", rows)
        object.__setattr__(self, "exceptions", (nodes, counts, points))
        object.__setattr__(self, "degraded", bool((counts_all < p.m_per_level).any()))


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
    on the codeword table past _TABLE_CAP bytes raises ValueError, checked
    before anything is allocated or drawn for it.
    """
    radius = params.pack_radius
    if radius <= 0:
        raise ValueError(
            f"power budget too small for galaxy extent: sqrt(nP) = "
            f"{math.sqrt(params.n * params.power):.6g} <= extent = {params.extent:.6g}"
        )
    n = params.n
    leaves = spherical.max_points(n, params.theta, params.m_per_level) ** params.t_bar
    admitted = _TABLE_CAP // (leaves * n * 8)  # the roots whose subtrees fit under the cap
    if admitted < 1:
        raise _refusal(1, leaves, n)
    rng = np.random.default_rng(derive_seed(params.master_seed, "centers"))
    spacing = params.spacing
    centers = np.empty((min(params.max_roots, admitted, _INITIAL_ROOTS), n))
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
        if count == admitted:
            raise _refusal(count + 1, leaves, n)
        if count == len(centers):
            centers, sq = np.concatenate([centers, centers]), np.concatenate([sq, sq])
        centers[count], sq[count] = cand, cand_sq
        count += 1
        rejections = 0
    return centers[:count], False


def _refusal(root: int, leaves: int, n: int) -> ValueError:
    return ValueError(
        f"refusing root {root}: N = {root * leaves} codewords of "
        f"n = {n} coordinates would pass the {_TABLE_CAP}-byte table cap"
    )


def build_code(params: GalaxyParams) -> GalaxyCode:
    """Pack root centers and list the nodes whose points the prefix does not give.

    The greedy's witness-prefix run is the same at every node, so it runs
    once.  When it stops, every node's points are its center plus the run's
    directions scaled to its level's radius: the code has no exception node,
    and GalaxyCode grows it from the roots alone.  Only when it falls
    short does each node resume it (_exception_nodes).
    """
    roots, saturated = pack_centers(params)
    run = spherical.greedy_prefix(params.n, params.theta, params.m_per_level, params.max_attempts)
    if run.stopped:
        return GalaxyCode(params, roots, ([], [], np.empty((0, params.n))), saturated)
    return GalaxyCode(params, roots, _exception_nodes(params, roots, run), saturated)


def _exception_nodes(params: GalaxyParams, roots: np.ndarray, run) -> tuple:
    """GalaxyCode's exceptions of a build whose prefix run falls short.

    Each node resumes the run, level by level, on its own stream
    derive_seed(master_seed, "node", root, *child indices).  A node whose
    draws take a point past the prefix is an exception node; any other
    holds the prefix's points bit for bit, so it is not listed.  Of the
    codewords only the exception nodes' points are kept.
    """
    nodes, counts, points = [], [], [np.empty((0, params.n))]
    level, paths, first = roots, [(q,) for q in range(len(roots))], 0
    for height in range(params.t_bar, 0, -1):
        r, grown = params.level_radius(height), []
        for i, (center, path) in enumerate(zip(level, paths)):
            g = center + r * spherical.greedy_tail(run, derive_seed(params.master_seed, "node",
                                                                   *path))
            if len(g) != len(run.accepted):
                nodes.append(first + i)
                counts.append(len(g))
                points.append(g)
            if height > 1:
                grown.append(g)
        first += len(level)
        if height > 1:
            paths = [(*path, i) for path, g in zip(paths, grown) for i in range(len(g))]
            level = np.concatenate(grown)
    return nodes, counts, np.concatenate(points)
