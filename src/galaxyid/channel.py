"""AWGN channel and the hierarchical shell/slab decoder.

The channel adds i.i.d. N(0, sigma^2) noise per coordinate.  The decoder
for a codeword u accepts an output y iff y lies in the noise shell around
u (squared distance within n(sigma^2 +/- eps_n)) and, for every ancestor
center o in u's chain, the projection of y onto the line o-u lands within
sigma log2(n) of u.  decide() is the one implementation of that rule:
identify() and the Monte Carlo estimators all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galaxy import GalaxyParams
from .gaussian import default_eps
from .spherical import as_coords

__all__ = [
    "DecoderParams",
    "unit_directions",
    "in_shell",
    "decide",
    "identify",
]


@dataclass(frozen=True)
class DecoderParams:
    """Shell and slab thresholds; defaults are eps_n = log2(n)/sqrt(n) and
    slab half-width sigma log2(n)."""

    n: int
    sigma: float
    eps_n: float | None = None
    slab_halfwidth: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.eps_n is None:
            object.__setattr__(self, "eps_n", default_eps(self.n))
        if not 0 < self.eps_n < math.inf:
            raise ValueError(f"eps_n must be finite and > 0, got {self.eps_n}")
        if self.n * (self.sigma * self.sigma + self.eps_n) == math.inf:
            raise ValueError(f"sigma must give a finite shell n (sigma^2 + eps_n), got {self.sigma}")
        if self.slab_halfwidth is None:
            object.__setattr__(self, "slab_halfwidth", self.sigma * math.log2(self.n))
        if not 0 <= self.slab_halfwidth < math.inf:
            raise ValueError(f"slab_halfwidth must be finite and >= 0, got {self.slab_halfwidth}")

    @classmethod
    def from_galaxy(cls, params: GalaxyParams) -> "DecoderParams":
        return cls(n=params.n, sigma=params.sigma)

    @property
    def shell_bounds(self) -> tuple[float, float]:
        """Squared-norm window [max(0, n(sigma^2 - eps)), n(sigma^2 + eps)]."""
        lo = self.n * (self.sigma**2 - self.eps_n)
        hi = self.n * (self.sigma**2 + self.eps_n)
        return max(0.0, lo), hi


def unit_directions(u: np.ndarray, chains: np.ndarray) -> np.ndarray:
    """(N, t_bar, n) unit vectors (u - o) / ||u - o|| along each codeword's chain.

    u is (N, n) codewords and chains (N, t_bar, n) their ancestor centers:
    row j, level i belongs to u[j] and its height-(i+1) ancestor.  Raises
    when an ancestor coincides with its codeword (no line is defined).
    """
    dirs = u[:, None, :] - chains
    norms = np.linalg.norm(dirs, axis=2, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("degenerate center chain: ancestor coincides with codeword")
    return dirs / norms


def in_shell(deltas: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Shell mask for rows y - u: the squared norm lies in the shell window,
    the event on which the chi-square noise statistic concentrates."""
    sq = np.einsum("ij,ij->i", deltas, deltas)
    lo, hi = params.shell_bounds
    return (lo <= sq) & (sq <= hi)


def decide(
    deltas: np.ndarray, cells: tuple[np.ndarray, np.ndarray], params: DecoderParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shell mask (in_shell), per-level slab masks and decision mask for rows y - u.

    `cells` are (coords, values), each (rows, t_bar, K): the nonzero
    coordinates of row r's unit directions (u - o)/||u - o|| along its own
    codeword's chain and their values, a shorter list padded with
    coordinate 0 and value 0.0.  The projection of y onto the line o-u lies
    |<y - u, (u - o)/||u - o||>| from u, so each slab test is one K-term
    inner product per level.
    """
    coords, values = cells
    rows, n = deltas.shape
    shell = in_shell(deltas, params)
    at = np.take(deltas, coords + (np.arange(rows) * n)[:, None, None])
    slabs = np.abs(np.einsum("rlk,rlk->rl", at, values)) <= params.slab_halfwidth
    return shell, slabs, shell & slabs.all(axis=1)


def identify(y, u, chain, params: DecoderParams) -> bool:
    """Full decision for one output against codeword u and its finite
    (t_bar, n) ancestor chain, by a decoder of u's width n: decide() on a
    batch of one row, its cells every coordinate."""
    y = as_coords(y)
    u = as_coords(u)
    chain = np.asarray(chain, dtype=np.float64)
    if chain.ndim != 2 or not len(chain):
        raise ValueError("codeword carries no center chain")
    if y.size != u.size or chain.shape[1] != u.size:
        raise ValueError(f"dimension mismatch: {y.size} and {chain.shape} vs {u.size}")
    if params.n != u.size:
        raise ValueError(f"decoder n = {params.n} does not match the codeword's n = {u.size}")
    if not np.isfinite(chain).all():
        raise ValueError("center chain coordinates must be finite")
    directions = unit_directions(u[None, :], chain[None])
    cells = np.broadcast_to(np.arange(u.size), directions.shape), directions
    _, _, accept = decide((y - u)[None, :], cells, params)
    return bool(accept[0])
