"""Hierarchical codebook construction and its structural/rate formulas.

A codebook is a saturated greedy packing of root centers inside the power
ball, each root carrying a depth-t tree of nested spherical codes: a node
at height h holds a code of radius k^(h-1) * r around its own center, the
points of which are the centers of the height-(h-1) children (codewords at
height 1).  The code's codeword table records, for every codeword, the rows
of its ancestor centers, the chain the hierarchical decoder tests against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spherical
from .geometry import as_coords
from .seeding import derive_seed

__all__ = [
    "GalaxyParams",
    "GalaxyNode",
    "GalaxyCode",
    "theta_of_k",
    "depth_bar",
    "separation_margins",
    "pack_centers",
    "build_galaxy",
    "build_code",
    "iter_nodes",
    "radial_bounds",
    "pair_distance_lower_bound",
    "center_count_bounds",
    "rate_lower_bound",
    "asymptotic_rate",
]

_CEIL_GUARD = 1e-9  # absorbs float noise at exact integer depth ratios


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
        if self.power <= 0:
            raise ValueError(f"power must be > 0, got {self.power}")
        if not 0 <= self.b < 0.25:
            raise ValueError(f"b must lie in [0, 1/4), got {self.b}")
        if self.k < 7:
            raise ValueError(f"k must be >= 7, got {self.k}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.theta is None:
            object.__setattr__(self, "theta", theta_of_k(self.k))
        if not (0 < self.theta <= math.pi):
            raise ValueError(f"theta must lie in (0, pi], got {self.theta}")
        if self.t_bar is None:
            object.__setattr__(self, "t_bar", depth_bar(self.n, self.b, self.k))
        if self.t_bar < 1:
            raise ValueError(f"t_bar must be >= 1, got {self.t_bar}")
        if self.m_per_level is None:
            csw = spherical.csw_lower_bound(self.n, self.theta)  # may be inf
            object.__setattr__(self, "m_per_level", max(1, math.floor(min(csw, self._M_CAP))))
        if self.m_per_level < 1:
            raise ValueError(f"m_per_level must be >= 1, got {self.m_per_level}")
        if self.r_min_coeff is not None and self.r_min_coeff <= 0:
            raise ValueError(f"r_min_coeff must be > 0, got {self.r_min_coeff}")
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


@dataclass
class GalaxyNode:
    """One tree node: a spherical code of radius k^(height-1)*r around code.center.

    The code's points are the centers of the children, one child per point,
    except at height 1, where they are codewords.
    """

    height: int  # 1 = leaf level (code points are codewords)
    code: spherical.SphericalCode
    children: list = field(default_factory=list)


@dataclass(frozen=True)
class GalaxyCode:
    """A codebook: root nodes, one per packed center, and how the packing ended.

    A root's index is its position in trees.  roots (the root centers),
    degraded (some node holds fewer than m_per_level points) and the
    codeword table of flatten_codewords (codewords, centers, ancestors,
    index_paths; read-only arrays) are derived from the trees.
    """

    params: GalaxyParams
    trees: list
    packing_saturated: bool
    roots: list = field(init=False)
    codewords: np.ndarray = field(init=False)
    centers: np.ndarray = field(init=False)
    ancestors: np.ndarray = field(init=False)
    index_paths: np.ndarray = field(init=False)
    degraded: bool = field(init=False)

    def __post_init__(self):
        table = ("codewords", "centers", "ancestors", "index_paths")
        for name, value in zip(table, flatten_codewords(self.trees)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "roots", [root.code.center for root in self.trees])
        object.__setattr__(
            self, "degraded", any(is_degraded(root, self.params) for root in self.trees)
        )

    def __len__(self) -> int:
        return len(self.codewords)


def pack_centers(params: GalaxyParams) -> tuple[list, bool]:
    """Greedy packing of root centers in the shrunken power ball.

    Draws uniform points in the ball of radius pack_radius, accepts one iff
    it keeps the pairwise spacing, and stops after saturation_probes
    consecutive rejections (reported as saturated=True) or at max_roots
    (saturated=False: the cap, not the geometry, ended the packing).
    """
    radius = params.pack_radius
    if radius <= 0:
        raise ValueError(
            f"power budget too small for galaxy extent: sqrt(nP) = "
            f"{math.sqrt(params.n * params.power):.6g} <= extent = {params.extent:.6g}"
        )
    rng = np.random.default_rng(derive_seed(params.master_seed, "centers"))
    spacing = params.spacing
    centers: list[np.ndarray] = []
    rejections = 0
    while len(centers) < params.max_roots:
        v = rng.standard_normal(params.n)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        u = rng.random()
        cand = v * (radius * u ** (1.0 / params.n) / norm)
        if centers and np.min(np.linalg.norm(np.asarray(centers) - cand, axis=1)) < spacing:
            rejections += 1
            if rejections >= params.saturation_probes:
                return centers, True
            continue
        centers.append(cand)
        rejections = 0
    return centers, False


def build_galaxy(center, params: GalaxyParams, root_index: int = 0) -> GalaxyNode:
    """Recursively build the nested spherical codes under one root center."""
    center = as_coords(center)
    if center.size != params.n:
        raise ValueError(f"center has dimension {center.size}, expected {params.n}")

    def build_node(node_center: np.ndarray, height: int, path: tuple) -> GalaxyNode:
        code = spherical.generate(
            n=params.n,
            center=node_center,
            r=params.r * params.k ** (height - 1),
            theta=params.theta,
            target_m=params.m_per_level,
            max_attempts=params.max_attempts,
            seed=derive_seed(params.master_seed, "node", root_index, *path),
        )
        node = GalaxyNode(height=height, code=code)
        if height > 1:
            node.children = [
                build_node(p, height - 1, path + (i,)) for i, p in enumerate(code.points)
            ]
        return node

    return build_node(center, params.t_bar, ())


def iter_nodes(node: GalaxyNode):
    """Pre-order walk of a subtree: the node, then each child's subtree in order."""
    yield node
    for child in node.children:
        yield from iter_nodes(child)


def is_degraded(root: GalaxyNode, params: GalaxyParams) -> bool:
    """Whether some node of the tree holds fewer than m_per_level points."""
    return any(len(node.code) < params.m_per_level for node in iter_nodes(root))


def flatten_codewords(trees: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The codeword table of a list of trees, built in one depth-first walk.

    Returns codewords (N, n), the height-1 points in walk order; centers
    (C, n), every node's center in pre-order; ancestors (N, t_bar), where
    ancestors[j, h-1] is the row of centers holding codeword j's height-h
    ancestor, so the last column is the root; and index_paths
    (N, t_bar + 1), the root index followed by the child indices from the
    root down to the codeword.  No trees give 0-row arrays.
    """
    points, centers, ancestors, index_paths = [], [], [], []

    def walk(node: GalaxyNode, above: tuple, path: tuple):
        above = (len(centers),) + above  # ancestor rows accumulate from the leaf upward
        centers.append(node.code.center)
        if node.height == 1:
            points.extend(node.code.points)
            ancestors.extend([above] * len(node.code))
            index_paths.extend(path + (j,) for j in range(len(node.code)))
            return
        for i, child in enumerate(node.children):
            walk(child, above, path + (i,))

    for root_index, root in enumerate(trees):
        walk(root, (), (root_index,))
    return (
        np.array(points, dtype=np.float64),
        np.array(centers, dtype=np.float64),
        np.array(ancestors, dtype=np.intp),
        np.array(index_paths, dtype=np.intp),
    )


def build_code(params: GalaxyParams) -> GalaxyCode:
    """Pack root centers and grow one galaxy per root."""
    roots, saturated = pack_centers(params)
    trees = [build_galaxy(c, params, root_index=i) for i, c in enumerate(roots)]
    return GalaxyCode(params=params, trees=trees, packing_saturated=saturated)
