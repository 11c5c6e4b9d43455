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
    "SphericalCode",
    "generate",
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


@dataclass
class SphericalCode:
    """Points on S(center, radius) with pairwise subtended angle >= theta."""

    center: np.ndarray
    radius: float
    points: np.ndarray  # shape (m, n), rows on the sphere
    saturated: bool = False

    def __len__(self) -> int:
        return self.points.shape[0]


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


def _witness_candidates(n: int, theta: float) -> list[np.ndarray]:
    """Deterministic candidate prefix that realizes known-feasible configurations.

    Uniform proposals alone have probability zero of hitting the tight
    configurations (the antipodal pair at theta = pi, the orthoplex at
    theta = pi/2, the regular simplex for obtuse theta), so those are
    offered first.  For obtuse theta the simplex must come before the
    signed basis: an accepted antipodal pair blocks every further point.
    """
    cos_t = math.cos(theta)
    basis: list[np.ndarray] = []
    for i in range(n):
        e = np.zeros(n, dtype=np.float64)
        e[i] = 1.0
        basis.extend((e, -e))
    if cos_t >= -_DOT_TOL:
        return basis
    m = min(n + 1, _obtuse_ceiling(n, cos_t))
    if m < 2:
        return basis
    return [d for d in _simplex_directions(n, m)] + basis


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


def generate(
    n: int,
    center,
    r: float,
    theta: float,
    target_m: int,
    max_attempts: int,
    seed: int,
) -> SphericalCode:
    """Greedily build a theta-spherical code of up to target_m points.

    Candidates are the deterministic witness prefix followed by uniform
    directions (normalized i.i.d. standard normal draws); a candidate is
    accepted iff it keeps the minimum subtended angle >= theta against
    everything accepted so far.  Generation stops at the first of:

    * target_m points;
    * for obtuse theta, the ceiling on how many points the acceptance test
      can admit at all (at most n+1, and at most 1 - 1/cos theta), when it
      lies below target_m: no further candidate could be accepted, so the
      result is flagged saturated without drawing;
    * max_attempts consecutive rejections, also flagged saturated.

    Fully deterministic given the seed.
    """
    if not (0 < theta <= math.pi):
        raise ValueError(f"theta must lie in (0, pi], got {theta}")
    if target_m < 1:
        raise ValueError(f"target_m must be >= 1, got {target_m}")
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    center = as_coords(center)
    if center.size != n:
        raise ValueError(f"center has dimension {center.size}, expected {n}")

    rng = np.random.default_rng(seed)
    cos_t = math.cos(theta)
    stop_m = min(target_m, _obtuse_ceiling(n, cos_t))
    accepted: list[np.ndarray] = []
    prefix = _witness_candidates(n, theta)
    prefix_pos = 0
    rejections = 0

    while len(accepted) < stop_m:
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
                break
            continue
        accepted.append(cand)
        rejections = 0

    dirs = np.asarray(accepted, dtype=np.float64)
    return SphericalCode(
        center=center,
        radius=float(r),
        points=center + r * dirs,
        saturated=len(accepted) < target_m,
    )


def min_pairwise_angle(code: SphericalCode) -> float:
    """Exact minimum over all point pairs of the angle subtended at the center.

    The pair of unit offsets a, b with the largest dot product is measured as
    2 atan2(||a - b||, ||a + b||), which keeps the digits that the arccosine
    of the dot loses near 0 and pi.  A point on the center has no direction,
    so the minimum is then 0.
    """
    m = len(code)
    if m < 2:
        raise ValueError("need at least two points for a pairwise angle")
    offs = code.points - code.center
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

