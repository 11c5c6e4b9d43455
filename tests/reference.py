"""Scalar and approximate laws that only the tests use.

The package runs the exact shell law, the batched decoder, an array
codeword table, a spherical-code generator that stops at the obtuse-angle
ceiling and one block-batched Monte Carlo kernel; these are the simpler
per-vector forms, the per-codeword node walk, the plain greedy loop, the
per-codeword and per-pair decoder loops and the central-limit
approximations the tests compare it against, and a random stream that
fails on any draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from galaxyid import experiments
from galaxyid.channel import DecoderParams, unit_directions
from galaxyid.galaxy import GalaxyCode, pair_distance_lower_bound, separation_margins
from galaxyid.gaussian import _chi_square_tails, shell_prob_miss, std_normal_cdf
from galaxyid.seeding import derive_seed
from galaxyid.spherical import _DOT_TOL, SphericalCode, _witness_candidates, as_coords

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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
    """The code's codewords, one object each, from a recursive walk over its
    pre-order node counts, centers and codewords."""
    counts, centers, codewords = code.counts.tolist(), code.centers, code.codewords
    out = []
    row = 0  # next node, in pre-order

    def walk(height, above, root_index, path):
        nonlocal row
        center, count = centers[row], counts[row]
        row += 1
        if height > 1:
            for i in range(count):
                walk(height - 1, [center] + above, root_index, path + (i,))
            return
        for j in range(count):
            out.append(Codeword(u=codewords[len(out)], path=[center] + above,
                                root_index=root_index, index_path=path + (j,)))

    root_index = 0
    while row < len(counts):
        walk(code.params.t_bar, [], root_index, ())
        root_index += 1
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
    u, paths = code.codewords, index_paths(code)
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


def stack_galaxies(code, offset):
    """The code with every root's codewords moved onto root 0's, root q's
    shifted by q * offset along the first axis; node centers stay.  Each moved
    node's measured radius then spans the distance between two roots, so
    verification can clear few node pairs."""
    u = code.codewords.copy()
    roots = index_paths(code)[:, 0]
    for q in range(1, roots.max() + 1):
        moved = roots == q
        u[moved] += u[0] - u[np.flatnonzero(moved)[0]]
        u[moved, 0] += q * offset
    return GalaxyCode(code.params, code.centers, code.counts, u, code.packing_saturated)


def generate_reference(n, center, r, theta, target_m, max_attempts, seed):
    """spherical.generate without its obtuse-angle ceiling: the greedy loop
    draws until target_m points or max_attempts consecutive rejections,
    the latter flagged saturated."""
    rng = np.random.default_rng(seed)
    cos_t = math.cos(theta)
    center = as_coords(center)
    accepted = []
    prefix = _witness_candidates(n, theta)
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
    return SphericalCode(center=center, radius=float(r), points=center + r * dirs,
                         saturated=saturated)


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


def type1_hits(code, params, trials, master_seed):
    """estimate_type1's hits from one decoder call per codeword and unit."""
    directions = unit_directions(code.codewords, code.centers[code.ancestors])
    hits = 0
    for unit_index, (start, size) in enumerate(experiments._unit_plan(trials)):
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
    u = code.codewords
    targets, target_rows = np.unique(pair_targets, return_inverse=True)
    directions = unit_directions(u[targets], code.centers[code.ancestors[targets]])
    offsets = u[senders] - u[pair_targets]
    meet_rows = experiments._meet_rows(code, pair_targets, senders)
    decision = shell_ct = slab_ct = 0
    for unit_index, (start, size) in enumerate(experiments._unit_plan(trials)):
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
