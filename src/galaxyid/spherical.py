"""Minimum-angle codes on spheres.

A theta-spherical code is a finite set of points on a sphere S(center, r)
such that any two distinct points subtend an angle >= theta at the center.
Optimal packings are not attempted: every downstream distance guarantee
only needs the minimum-angle property, which the greedy construction
certifies by an exhaustive O(m^2) check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_coords",
    "GreedyRun",
    "max_points",
    "greedy_prefix",
    "greedy_tail",
    "min_pairwise_angle",
    "csw_lower_bound",
]

# Slack on the dot-product acceptance test; keeps exact witness
# configurations (dot == cos theta) acceptable under rounding.
_DOT_TOL = 1e-12


def as_coords(x) -> np.ndarray:
    """Convert an array-like to a finite 1-D float64 array, validating it."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a 1-D coordinate tuple, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def _simplex_directions(n: int, m: int) -> np.ndarray:
    """Unit vertices of a regular (m-1)-simplex embedded in R^n, m <= n+1.

    Pairwise inner products are -1/(m-1).  For m <= n the vertices are the
    centered basis vectors of R^m; for m = n+1 those span only the
    sum-zero hyperplane, so they are written in an orthonormal basis of it.
    """
    e = np.eye(m, dtype=np.float64)
    v = e - e.mean(axis=0)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if m > n:
        q, _ = np.linalg.qr(v.T)
        v = v @ q[:, : m - 1]
    out = np.zeros((m, n), dtype=np.float64)
    out[:, : v.shape[1]] = v
    return out


def _witness_candidates(n: int, theta: float):
    """Deterministic candidate prefix that realizes known-feasible configurations.

    Uniform proposals alone have probability zero of hitting the tight
    configurations (the antipodal pair at theta = pi, the orthoplex at
    theta = pi/2, the regular simplex for obtuse theta), so those are
    offered first, one vector at a time: the greedy usually stops after a
    few of the 2n signed basis vectors, so none is made before it is asked
    for.  For obtuse theta the simplex must come before the signed basis
    (e_1, -e_1, e_2, ...): an accepted antipodal pair blocks every further
    point.
    """
    cos_t = math.cos(theta)
    if cos_t < -_DOT_TOL:
        m = min(n + 1, _obtuse_ceiling(n, cos_t))
        if m >= 2:
            yield from _simplex_directions(n, m)
    for i in range(n):
        e = np.zeros(n, dtype=np.float64)
        e[i] = 1.0
        yield e
        yield -e


def _obtuse_ceiling(n: int, cos_t: float) -> float:
    """Most points the acceptance test can ever admit at an obtuse angle, else inf.

    Accepted directions have computed pairwise dots <= cos theta + _DOT_TOL;
    their exact dots, and squared norms less one, stay within a rounding
    band b = 4 (n + 4) eps of that.  For exact dots <= c' < 0 and squared
    norms <= 1 + b, m vectors satisfy 0 <= ||sum v||^2 <= m(1 + b) + m(m-1)c',
    so m <= (1 - 1/c')(1 + b) (Rankin), and at most n+1 vectors of R^n have
    pairwise negative dots.  The band can only round the ceiling up, which
    stops later, never earlier.
    """
    band = 4 * (n + 4) * np.finfo(np.float64).eps
    c = cos_t + _DOT_TOL + band
    if c >= 0.0:
        return math.inf
    return min(n + 1, math.floor((1.0 - 1.0 / c) * (1.0 + band)))


def max_points(n: int, theta: float, target_m: int) -> int:
    """Most points a greedy code can hold: target_m, or the obtuse ceiling when lower."""
    return min(target_m, _obtuse_ceiling(n, math.cos(theta)))


@dataclass(frozen=True)
class GreedyRun:
    """The greedy's state after the witness prefix, the same for every node of a build.

    accepted holds the unit directions taken so far (one per row),
    rejections the consecutive rejections since the last of them, and
    stopped whether the run already ended (at stop_m points or after
    max_attempts rejections); if not, each node resumes it with its own draws.
    """

    cos_t: float
    stop_m: int
    max_attempts: int
    accepted: np.ndarray
    rejections: int
    stopped: bool


def _greedy(
    accepted: list, rejections: int, candidates, cos_t: float, stop_m: int, max_attempts: int
) -> tuple[int, bool]:
    """The acceptance loop: take candidates while fewer than stop_m are accepted.

    A candidate is accepted iff its dot with every accepted direction is at
    most cos theta (+ _DOT_TOL), which resets the rejection count.  Appends
    to accepted; returns the rejection count and whether the run stopped,
    at stop_m points or at max_attempts consecutive rejections, rather than
    running out of candidates.
    """
    while len(accepted) < stop_m:
        cand = next(candidates, None)
        if cand is None:
            return rejections, False
        if accepted and np.max(np.asarray(accepted) @ cand) > cos_t + _DOT_TOL:
            rejections += 1
            if rejections >= max_attempts:
                return rejections, True
            continue
        accepted.append(cand)
        rejections = 0
    return rejections, True


def _uniform_directions(rng: np.random.Generator, n: int):
    """Normalized i.i.d. standard normal draws, skipping a zero vector."""
    while True:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm != 0.0:
            yield v / norm


def greedy_prefix(n: int, theta: float, target_m: int, max_attempts: int) -> GreedyRun:
    """Run the greedy over the witness prefix alone; it draws nothing.

    A node's theta-code directions are greedy_tail of this run: the witness
    prefix, then uniform directions, each accepted iff its angle to every
    accepted one is >= theta.  The greedy stops at max_points (target_m, or
    the obtuse ceiling when lower, where no candidate could be accepted) or
    after max_attempts consecutive rejections.
    """
    if not (0 < theta <= math.pi):
        raise ValueError(f"theta must lie in (0, pi], got {theta}")
    if target_m < 1:
        raise ValueError(f"target_m must be >= 1, got {target_m}")
    cos_t, stop_m = math.cos(theta), max_points(n, theta, target_m)
    accepted: list[np.ndarray] = []
    rejections, stopped = _greedy(
        accepted, 0, _witness_candidates(n, theta), cos_t, stop_m, max_attempts
    )
    dirs = np.array(accepted, dtype=np.float64).reshape(-1, n)
    dirs.flags.writeable = False  # every node shares it
    return GreedyRun(cos_t, stop_m, max_attempts, dirs, rejections, stopped)


def greedy_tail(run: GreedyRun, seed: int) -> np.ndarray:
    """A node's directions: the prefix run, resumed on default_rng(seed) unless it stopped."""
    if run.stopped:
        return run.accepted
    accepted = list(run.accepted)
    rng = np.random.default_rng(seed)
    draws = _uniform_directions(rng, run.accepted.shape[1])
    _greedy(accepted, run.rejections, draws, run.cos_t, run.stop_m, run.max_attempts)
    return np.asarray(accepted, dtype=np.float64)


def min_pairwise_angle(points: np.ndarray, center: np.ndarray) -> float:
    """Exact minimum over all pairs of the (m, n) points of the angle subtended at center.

    The pair of unit offsets a, b with the largest dot product is measured as
    2 atan2(||a - b||, ||a + b||), which keeps the digits that the arccosine
    of the dot loses near 0 and pi.  A point on the center has no direction,
    so the minimum is then 0.
    """
    m = len(points)
    if m < 2:
        raise ValueError("need at least two points for a pairwise angle")
    offs = points - center
    norms = np.linalg.norm(offs, axis=1, keepdims=True)
    if not norms.all():  # some offset is zero
        return 0.0
    offs = offs / norms
    gram = offs @ offs.T
    i, j = np.triu_indices(m, k=1)
    pair = np.argmax(gram[i, j])
    a, b = offs[i[pair]], offs[j[pair]]
    return 2.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b))


def csw_lower_bound(n: int, theta: float) -> float:
    """Simplified lower bound sin(theta)^(-n) on the maximum code size M(n, theta).

    This is the form the rate bounds use downstream.  A bound beyond float
    range is math.inf.
    """
    if not (0 < theta < math.pi):
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    try:
        return math.sin(theta) ** (-n)
    except OverflowError:
        return math.inf

