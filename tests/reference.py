"""Scalar and approximate laws that only the tests use.

The package runs the exact shell law, the batched decoder, codewords
grown on demand, a greedy that runs its witness prefix once per build and
stops at the obtuse-angle ceiling, a level-by-level codebook build,
verification batched by shape and one block-batched Monte Carlo kernel;
these are the simpler per-vector forms, the materialized codeword table
(codeword_table, which every test reading the whole table goes through),
the breadth-first codeword walk
over the level-order nodes, the plain greedy loop with its own witness
prefix (a node's points and saturation flag), the list-based center
packing and per-node recursive build (sorted into level order), the
per-node verification loop and all-pairs scan, the per-codeword and
per-pair decoder loops and the central-limit approximations the tests
compare it against, and a random stream that fails on any draw.  Codes
that tests make from edited arrays go through from_arrays, which lists
every node as an exception.
"""

import math
from dataclasses import dataclass

import numpy as np

from galaxyid import experiments
from galaxyid.channel import DecoderParams, unit_directions
from galaxyid.experiments import StructureReport
from galaxyid.galaxy import (
    GalaxyCode,
    GalaxyParams,
    pair_distance_lower_bound,
    radial_bounds,
    separation_margins,
)
from galaxyid.gaussian import _chi_square_tails, shell_prob_miss, std_normal_cdf
from galaxyid.seeding import derive_seed
from galaxyid.spherical import (
    _DOT_TOL,
    _obtuse_ceiling,
    _simplex_directions,
    as_coords,
    greedy_prefix,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def from_arrays(params, centers, counts, codewords, packing_saturated) -> GalaxyCode:
    """The code of level-order arrays, such as a test's edited copy of a
    code's: every node is listed as an exception, so no edit is lost.  The
    roots are the first R = C + N - sum(counts) centers, and the points the
    remaining centers, then the codewords."""
    centers, codewords = np.asarray(centers), np.asarray(codewords)
    n_roots = len(centers) + len(codewords) - int(np.sum(counts))
    points = np.concatenate([centers[n_roots:], codewords])
    exceptions = (np.arange(len(centers)), np.asarray(counts), points)
    return GalaxyCode(params, centers[:n_roots], exceptions, packing_saturated)


def codeword_table(code) -> np.ndarray:
    """The (N, n) codeword table, materialized node by node: a height-1 node's
    listed points if it is an exception node, else its center plus the witness
    prefix scaled to the leaf radius."""
    p = code.params
    grown = p.level_radius(1) * greedy_prefix(p.n, p.theta, p.m_per_level,
                                               p.max_attempts).accepted
    nodes, counts, points = code.exceptions
    listed = dict(zip(nodes.tolist(), np.split(points, np.cumsum(counts)[:-1])))
    return np.concatenate([listed[v] if v in listed else code.centers[v] + grown
                           for v in np.flatnonzero(code.heights == 1).tolist()])


def node_points(code, node):
    """The points of the node at level-order index `node`: the next rows of
    the level below it, in the centers followed by the codewords."""
    start = len(code.roots) + int(code.counts[:node].sum())
    rows = np.arange(start, start + code.counts[node])
    if rows[-1] < len(code.centers):
        return code.centers[rows]
    return codeword_table(code)[rows - len(code.centers)]


def assert_same_code(a, b):
    """Assert two codes hold the same arrays bit for bit, and the same params
    and flags; their exception lists may differ."""
    for name in ("centers", "counts", "codewords", "heights", "parents", "roots", "ancestors"):
        x, y = (codeword_table(a), codeword_table(b)) if name == "codewords" else (
            getattr(a, name), getattr(b, name))
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name
    assert (a.params, a.packing_saturated, a.degraded) == (b.params, b.packing_saturated,
                                                           b.degraded)


def std_normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def chi_square_cdf(n: int, x: float) -> float:
    """Chi-square CDF with n degrees of freedom: regularized gamma P(n/2, x/2)."""
    return _chi_square_tails(n, x)[0]


def shell_prob_same(spec: DecoderParams) -> float:
    """Probability that noise around the transmitted point lands in its own shell.

    The chi-square law P(n - n eps/sigma^2 <= chi2(n) <= n + n eps/sigma^2).
    """
    return 1.0 - shell_prob_miss(spec)


def separation_condition(k: int, theta: float) -> bool:
    """Slab-separation criterion (sin(theta/2) - 1/(k-1))^2 > 2/(k-1)."""
    return separation_margins(k, theta)["strict_holds"]


def shell_prob_same_normal_approx(spec: DecoderParams) -> float:
    """Central-limit approximation of shell_prob_same:
    1 - 2 Phi(-sqrt(n) eps / (sqrt(2) sigma^2)).

    At desk-scale n it differs from the exact chi-square law by more than
    the approximate tail itself.
    """
    n, sigma, eps = spec.n, spec.sigma, spec.eps_n
    a = math.sqrt(n) * eps / (math.sqrt(2.0) * sigma * sigma)
    return 1.0 - 2.0 * std_normal_cdf(-a)


def mills_bound(spec: DecoderParams) -> float:
    """Gaussian tail bound dominating the shell miss probability.

    (2 sigma^2 / (sqrt(n pi) eps)) * exp(-n eps^2 / (4 sigma^4)); always at
    least Phi(-sqrt(n) eps / (sqrt(2) sigma^2)), with slack factor 2 on top
    of the plain phi(x)/x bound.
    """
    n, sigma, eps = spec.n, spec.sigma, spec.eps_n
    if eps == 0:
        raise ValueError("eps_n must be > 0 for the tail bound")
    return (2 * sigma**2 / (math.sqrt(n * math.pi) * eps)) * math.exp(
        -n * eps * eps / (4 * sigma**4)
    )


def transmit(u, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """One channel use: y = u + sigma * z with z drawn from the given stream."""
    u = as_coords(u)
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return u + sigma * rng.standard_normal(u.size)


def slab_separation_margin(u1, u2, o_bar) -> float:
    """Along-line distance between u1 and the projection of u2 onto line o_bar-u1.

    Equals (||u1-o||^2 + ||u1-u2||^2 - ||u2-o||^2) / (2 ||u1-o||).  When
    this is at least 2 sigma log2 n, the slab of u1 rejects transmissions
    of u2 except with probability 2 Phi(-log2 n).
    """
    u1 = as_coords(u1)
    u2 = as_coords(u2)
    o = as_coords(o_bar)
    a2 = float(np.dot(u1 - o, u1 - o))
    d2 = float(np.dot(u1 - u2, u1 - u2))
    b2 = float(np.dot(u2 - o, u2 - o))
    a = math.sqrt(a2)
    if a == 0.0:
        raise ValueError("degenerate line: u1 coincides with the ancestor center")
    return (a2 + d2 - b2) / (2.0 * a)


@dataclass
class Codeword:
    """A leaf point together with the ancestor-center chain the decoder tests.

    path[i] is the center at height i+1 above the codeword; path[-1] is the
    root.  index_path holds the child indices from the root down to the leaf.
    """

    u: np.ndarray
    path: list
    root_index: int
    index_path: tuple


def walk_codewords(code) -> list:
    """The code's codewords, one object each, from a breadth-first walk over
    its level-order node counts, centers and codewords: a queue of nodes,
    each adding its children at the back."""
    counts, centers, codewords = code.counts.tolist(), code.centers, codeword_table(code)
    n_roots = len(counts) + len(codewords) - sum(counts)
    queue = [(code.params.t_bar, [], q, ()) for q in range(n_roots)]
    out = []
    for row, (height, above, root_index, path) in enumerate(queue):  # the queue grows
        chain = [centers[row]] + above
        for i in range(counts[row]):
            if height > 1:
                queue.append((height - 1, chain, root_index, path + (i,)))
            else:
                out.append(Codeword(u=codewords[len(out)], path=chain,
                                    root_index=root_index, index_path=path + (i,)))
    return out


def index_paths(code) -> np.ndarray:
    """(N, t_bar + 1) table of each codeword's root index, then the child
    indices down to it, from walk_codewords."""
    return np.asarray([(c.root_index, *c.index_path) for c in walk_codewords(code)],
                      dtype=np.intp)


def meet_depth(row1, row2):
    """Smallest height at which two codewords share an ancestor, from their
    index_paths rows (root index, then the child indices down to the leaf).

    Returns None when the codewords lie under different roots; raises for
    identical codewords.  Siblings under one height-1 center meet at 1.
    """
    root1, *path1 = (int(x) for x in row1)
    root2, *path2 = (int(x) for x in row2)
    if root1 != root2:
        return None
    if path1 == path2:
        raise ValueError("meet depth is undefined for a codeword with itself")
    lcp = 0
    for a, b in zip(path1, path2):
        if a != b:
            break
        lcp += 1
    return len(path1) - lcp


def reference_violations(code, tol=1e-6):
    """cond2 and cross-galaxy violations from an i < j loop over every pair."""
    p = code.params
    u, paths = codeword_table(code), index_paths(code)
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


def root_of(code, row):
    """The root index of node row: the row its parent chain ends at."""
    while code.parents[row] >= 0:
        row = code.parents[row]
    return int(row)


def stack_galaxies(code, offset):
    """The code with every root's codewords moved onto root 0's, root q's
    shifted by q * offset along the first axis; node centers stay.  Each moved
    node's measured radius then spans the distance between two roots, so
    verification can clear few node pairs."""
    u = codeword_table(code)
    roots = index_paths(code)[:, 0]
    for q in range(1, roots.max() + 1):
        moved = roots == q
        u[moved] += u[0] - u[np.flatnonzero(moved)[0]]
        u[moved, 0] += q * offset
    return from_arrays(code.params, code.centers, code.counts, u, code.packing_saturated)


def witness_candidates(n, theta):
    """The witness prefix as a list of vectors: the simplex at obtuse theta,
    then e_1, -e_1, e_2, -e_2, ..."""
    cos_t = math.cos(theta)
    basis = []
    for i in range(n):
        e = np.zeros(n, dtype=np.float64)
        e[i] = 1.0
        basis.extend((e, -e))
    if cos_t >= -_DOT_TOL:
        return basis
    m = min(n + 1, _obtuse_ceiling(n, cos_t))
    if m < 2:
        return basis
    return list(_simplex_directions(n, m)) + basis


def generate_reference(n, center, r, theta, target_m, max_attempts, seed):
    """A node's code on S(center, r) as (points, saturated), by the plain
    greedy loop without the obtuse-angle ceiling: it draws until target_m
    points or max_attempts consecutive rejections, the latter flagged
    saturated."""
    rng = np.random.default_rng(seed)
    cos_t = math.cos(theta)
    center = as_coords(center)
    accepted = []
    prefix = witness_candidates(n, theta)
    prefix_pos = 0
    rejections = 0
    saturated = False

    while len(accepted) < target_m:
        if prefix_pos < len(prefix):
            cand = prefix[prefix_pos]
            prefix_pos += 1
        else:
            v = rng.standard_normal(n)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                continue
            cand = v / norm
        if accepted and np.max(np.asarray(accepted) @ cand) > cos_t + _DOT_TOL:
            rejections += 1
            if rejections >= max_attempts:
                saturated = True
                break
            continue
        accepted.append(cand)
        rejections = 0

    dirs = np.asarray(accepted, dtype=np.float64)
    return center + r * dirs, saturated


def pack_centers_reference(params: GalaxyParams) -> tuple[list, bool]:
    """galaxy.pack_centers as a list of accepted centers, with no table cap."""
    rng = np.random.default_rng(derive_seed(params.master_seed, "centers"))
    centers = []
    rejections = 0
    while len(centers) < params.max_roots:
        v = rng.standard_normal(params.n)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        u = rng.random()
        cand = v * (params.pack_radius * u ** (1.0 / params.n) / norm)
        if centers and np.min(np.linalg.norm(np.asarray(centers) - cand, axis=1)) < params.spacing:
            rejections += 1
            if rejections >= params.saturation_probes:
                return centers, True
            continue
        centers.append(cand)
        rejections = 0
    return centers, False


def build_code_reference(params: GalaxyParams) -> GalaxyCode:
    """galaxy.build_code as a recursion over nodes, each running the whole
    greedy loop itself, up to the obtuse ceiling.  The recursion lists the
    nodes in pre-order; a stable sort by descending height puts them in
    level order."""
    stop_m = min(params.m_per_level, _obtuse_ceiling(params.n, math.cos(params.theta)))
    roots, saturated = pack_centers_reference(params)
    centers, counts, heights, leaves = [], [], [], []

    def grow(node_center, height, path):
        points, _ = generate_reference(
            params.n, node_center, params.r * params.k ** (height - 1), params.theta,
            stop_m, params.max_attempts, derive_seed(params.master_seed, "node", *path),
        )
        centers.append(node_center)
        counts.append(len(points))
        heights.append(height)
        if height == 1:
            leaves.append(points)
            return
        for i, point in enumerate(points):
            grow(point, height - 1, path + (i,))

    for root_index, center in enumerate(roots):
        grow(center, params.t_bar, (root_index,))
    order = sorted(range(len(heights)), key=lambda row: -heights[row])
    return from_arrays(params, np.array(centers)[order], np.array(counts)[order],
                       np.concatenate(leaves), saturated)


def _rounding_band(n):
    """Relative rounding band 16 (n + 4) eps of float64 sums of n squares."""
    return 16 * (n + 4) * np.finfo(np.float64).eps


def _min_angle(points, center):
    """Smallest angle at center between two points: the largest-dot pair of unit
    offsets as 2 atan2(||a - b||, ||a + b||), 0 when a point is on the center."""
    offs = points - center
    norms = np.linalg.norm(offs, axis=1, keepdims=True)
    if not norms.all():
        return 0.0
    offs = offs / norms
    gram = offs @ offs.T
    i, j = np.triu_indices(len(points), k=1)
    pair = np.argmax(gram[i, j])
    a, b = offs[i[pair]], offs[j[pair]]
    return 2.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b))


def _close_pairs_reference(code, limit, rows=128):
    """(i, j, class) of every codeword pair i < j closer than limit[class], from
    a scan of all pairs in row blocks; the class is 0 across roots, else the meet
    height.  Gram distances decide, except in their rounding band, where the
    norm of the difference does."""
    u, anc, t_bar = codeword_table(code), code.ancestors, code.params.t_bar
    sq = np.einsum("ij,ij->i", u, u)
    found = []
    for i0 in range(0, len(u), rows):
        i = np.arange(i0, min(i0 + rows, len(u)))
        shared = (anc[i, None, :] == anc[None, :, :]).sum(axis=2)
        cls = np.where(shared > 0, t_bar + 1 - shared, 0)
        t = limit[cls]
        d2 = -2.0 * (u[i] @ u.T) + (sq[i, None] + sq[None, :])
        close = (d2 < t * t) & (t > 0)
        band = (sq[i, None] + sq[None, :] + t * t) * _rounding_band(u.shape[1])
        band = np.abs(d2 - t * t) <= band
        for x, y in zip(*np.nonzero(band & (t > 0))):
            close[x, y] = float(np.linalg.norm(u[i[x]] - u[y])) < t[x, y]
        found += [(int(i[x]), int(y), int(cls[x, y])) for x, y in zip(*np.nonzero(close))
                  if y > i[x]]
    return found


def verify_structure_reference(code, tol=1e-6):
    """experiments.verify_structure with a loop over the nodes for their radii
    and angles, and a scan of every codeword pair for the distance bounds."""
    p, u = code.params, codeword_table(code)
    report = StructureReport(separation=separation_margins(p.k, p.theta))
    for t in range(1, p.t_bar + 1):
        lo, hi = radial_bounds(p.r, p.k, t)
        dist = np.linalg.norm(u - code.centers[code.ancestors[:, t - 1]], axis=1)
        for i in np.nonzero((dist < lo - tol) | (dist > hi + tol))[0]:
            report.cond1_violations.append({"kind": "codeword-radial", "codeword": int(i),
                                            "height": t, "measured": float(dist[i]),
                                            "bound": (lo, hi)})
    # A node's points: its children's centers, or its codewords at height 1.
    points, leaf_rows = [], iter(np.cumsum(np.r_[0, code.counts[code.heights == 1]]).tolist())
    start = next(leaf_rows)
    for row, height in enumerate(code.heights.tolist()):
        if height > 1:
            points.append(code.centers[np.flatnonzero(code.parents == row)])
        else:
            end = next(leaf_rows)
            points.append(u[start:end])
            start = end
    for row, height in enumerate(code.heights.tolist()):
        radius, root = p.r * p.k ** (height - 1), root_of(code, row)
        d = np.linalg.norm(points[row] - code.centers[row], axis=1)
        for i in np.nonzero(np.abs(d - radius) > 1e-9 * radius)[0]:
            report.cond1_violations.append(
                {"kind": "node-radius", "root": root, "height": height, "point": int(i),
                 "measured": float(d[i]), "bound": (radius, radius)})
        if len(points[row]) >= 2:
            ang = _min_angle(points[row], code.centers[row])
            if ang < p.theta - experiments.ANGLE_TOL:
                report.angle_violations.append(
                    {"root": root, "height": height, "measured": float(ang),
                     "bound": p.theta})
    bound_at = [p.n ** (p.b + 0.25) / 2.0] + [
        pair_distance_lower_bound(p.r, p.k, p.theta, t) for t in range(1, p.t_bar + 1)]
    for i, j, meet in _close_pairs_reference(code, np.asarray(bound_at) - tol):
        found = {"pair": (i, j), "measured": float(np.linalg.norm(u[i] - u[j])),
                 "bound": float(bound_at[meet])}
        if meet:
            report.cond2_violations.append({**found, "meet": meet})
        else:
            report.cross_galaxy_violations.append(found)
    power_cap = math.sqrt(p.n * p.power)
    norms = np.linalg.norm(u, axis=1)
    for i in np.nonzero(norms > power_cap + tol)[0]:
        report.power_violations.append(
            {"codeword": int(i), "measured": float(norms[i]), "bound": power_cap})
    return report


class NoDraws:
    """A generator stream that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from a random stream ({name})")


def _grouped(indices: np.ndarray):
    """Yield (value, row positions) groups of an integer assignment vector."""
    order = np.argsort(indices, kind="stable")
    values, starts, counts = np.unique(indices[order], return_index=True, return_counts=True)
    for v, s, c in zip(values, starts, counts):
        yield int(v), order[s : s + c]


def _decide_one(deltas, directions, params):
    """channel.decide for rows that all test one codeword's (t_bar, n) chain."""
    sq = np.einsum("ij,ij->i", deltas, deltas)
    lo, hi = params.shell_bounds
    shell = (lo <= sq) & (sq <= hi)
    slabs = np.abs(deltas @ directions.T) <= params.slab_halfwidth
    return shell, slabs, shell & slabs.all(axis=1)


def unit_plan(trials):
    """Each work unit's (first trial, trial count): UNIT_SIZE trials, the last
    unit the rest."""
    size = experiments.UNIT_SIZE
    return [(s, min(size, trials - s)) for s in range(0, trials, size)]


def type1_hits(code, params, trials, master_seed):
    """estimate_type1's hits from one decoder call per codeword and unit."""
    directions = unit_directions(codeword_table(code), code.centers[code.ancestors])
    hits = 0
    for unit_index, (start, size) in enumerate(unit_plan(trials)):
        rng = np.random.default_rng(derive_seed(master_seed, "type1", unit_index))
        noise = rng.standard_normal((size, params.n))
        assignment = (start + np.arange(size)) % len(directions)
        for j, rows in _grouped(assignment):
            _, _, accept = _decide_one(params.sigma * noise[rows], directions[j], params)
            hits += int(rows.size - accept.sum())
    return hits


def type2_counts(code, strategy, params, trials, master_seed):
    """estimate_type2's (hits, shell hits, decisive slab hits) from one
    decoder call per pair and unit."""
    pair_targets, senders = experiments.select_pairs(code, strategy, master_seed).T
    u = codeword_table(code)
    targets, target_rows = np.unique(pair_targets, return_inverse=True)
    directions = unit_directions(u[targets], code.centers[code.ancestors[targets]])
    offsets = u[senders] - u[pair_targets]
    meet_rows = experiments._meet_rows(code, pair_targets, senders)
    decision = shell_ct = slab_ct = 0
    for unit_index, (start, size) in enumerate(unit_plan(trials)):
        rng = np.random.default_rng(derive_seed(master_seed, "type2", unit_index))
        noise = rng.standard_normal((size, params.n))
        assignment = (start + np.arange(size)) % len(offsets)
        for p, rows in _grouped(assignment):
            shell, slabs, accept = _decide_one(
                offsets[p] + params.sigma * noise[rows], directions[target_rows[p]], params
            )
            decision += int(accept.sum())
            shell_ct += int(shell.sum())
            if meet_rows[p] >= 0:
                slab_ct += int(slabs[:, meet_rows[p]].sum())
    return decision, shell_ct, slab_ct
