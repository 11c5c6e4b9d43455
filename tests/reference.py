"""Scalar and approximate laws that only the tests use.

The package runs the exact shell law and the batched decoder; these are
the simpler per-vector forms and the central-limit approximations the
tests compare it against.
"""

import math

import numpy as np

from galaxyid.galaxy import Codeword
from galaxyid.geometry import as_coords
from galaxyid.gaussian import ShellSpec, std_normal_cdf

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def std_normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def shell_prob_same_normal_approx(spec: ShellSpec) -> float:
    """Central-limit approximation of shell_prob_same:
    1 - 2 Phi(-sqrt(n) eps / (sqrt(2) sigma^2)).

    At desk-scale n it differs from the exact chi-square law by more than
    the approximate tail itself.
    """
    n, sigma, eps = spec.n, spec.sigma, spec.eps_n
    a = math.sqrt(n) * eps / (math.sqrt(2.0) * sigma * sigma)
    return 1.0 - 2.0 * std_normal_cdf(-a)


def mills_bound(spec: ShellSpec) -> float:
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


def meet_depth(c1: Codeword, c2: Codeword):
    """Smallest height at which the two codewords share an ancestor.

    Returns None when the codewords lie under different roots; raises for
    identical codewords.  Siblings under one height-1 center meet at 1.
    """
    if c1.root_index != c2.root_index:
        return None
    if c1.index_path == c2.index_path:
        raise ValueError("meet depth is undefined for a codeword with itself")
    t_bar = len(c1.index_path)
    lcp = 0
    for a, b in zip(c1.index_path, c2.index_path):
        if a != b:
            break
        lcp += 1
    return t_bar - lcp
