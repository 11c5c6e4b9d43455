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
from .geometry import as_coords

__all__ = [
    "DecoderParams",
    "unit_directions",
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
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.eps_n is None:
            object.__setattr__(self, "eps_n", default_eps(self.n))
        if self.eps_n <= 0:
            raise ValueError(f"eps_n must be > 0, got {self.eps_n}")
        if self.slab_halfwidth is None:
            object.__setattr__(self, "slab_halfwidth", self.sigma * math.log2(self.n))
        if self.slab_halfwidth < 0:
            raise ValueError(f"slab_halfwidth must be >= 0, got {self.slab_halfwidth}")

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


def decide(
    deltas: np.ndarray, directions: np.ndarray, params: DecoderParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shell mask, per-level slab masks and decision mask for rows y - u.

    `directions` is a (rows, t_bar, n) block of unit_directions slices: row
    r is tested against the chain of its own codeword.  The shell window is
    on the squared norm, the event on which the chi-square noise statistic
    concentrates.  The projection of y onto the line o-u lies
    |<y - u, (u - o)/||u - o||>| from u, so each slab test is one inner
    product per level.
    """
    sq = np.einsum("ij,ij->i", deltas, deltas)
    lo, hi = params.shell_bounds
    shell = (lo <= sq) & (sq <= hi)
    slabs = np.abs(np.einsum("ri,rli->rl", deltas, directions)) <= params.slab_halfwidth
    return shell, slabs, shell & slabs.all(axis=1)


def identify(y, u, chain, params: DecoderParams) -> bool:
    """Full decision for one output against codeword u and its (t_bar, n)
    ancestor chain: decide() on a batch of one row."""
    chain = np.asarray(chain, dtype=np.float64)
    if chain.ndim != 2 or not len(chain):
        raise ValueError("codeword carries no center chain")
    y = as_coords(y)
    u = as_coords(u)
    if y.size != u.size:
        raise ValueError(f"dimension mismatch: {y.size} vs {u.size}")
    _, _, accept = decide((y - u)[None, :], unit_directions(u[None, :], chain[None]), params)
    return bool(accept[0])
