"""Closed-form probability laws used by the shell/slab decoder analysis.

Normal tails are evaluated through erfc so that values far out in the tail
keep full relative accuracy (a naive 1 - CDF cancels catastrophically).
The shell law is exact: the chi-square CDF, through the regularized
incomplete gamma function computed here in double precision.  The
cross-shell law is still the central-limit approximation.

Convention: code parameters spelled "log n" (the shell half-width eps_n,
slab width, tree depth) use the binary logarithm; the analytic tail
formulas keep their natural-exponential form exactly as they stand.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # channel imports default_eps from here
    from .channel import DecoderParams

__all__ = [
    "default_eps",
    "std_normal_cdf",
    "projection_tail",
    "shell_prob_miss",
    "shell_prob_cross",
]

_SQRT2 = math.sqrt(2.0)
_EPS = 2.0**-52
_TINY = 1e-300  # keeps the Lentz recurrences off an exact zero
_STIRLING_MIN_A = 16.0  # the 5-term Stirling series is exact to ~1e-16 from here


def default_eps(n: int) -> float:
    """Default shell half-width parameter, log2(n) / sqrt(n)."""
    return math.log2(n) / math.sqrt(n)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; keeps relative accuracy deep in the tail."""
    return 0.5 * math.erfc(-x / _SQRT2)


def projection_tail(x: float) -> float:
    """P(|N(0,1)| >= x) = 2 Phi(-x): tail of the norm of a Gaussian projection.

    The projection of an i.i.d. standard normal vector onto any fixed
    direction is a scalar standard normal, so the norm of the projection
    follows |N(0,1)|.
    """
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return math.erfc(x / _SQRT2)


def _log_gamma_prefactor(a: float, z: float) -> float:
    """log(z^a e^-z / Gamma(a)) for z > 0.

    Near the mode the direct form cancels large terms, so for large a it is
    written as log(a / 2 pi) / 2 - stirlerr(a) + a (log1p(d) - d) with
    d = (z - a) / a, where stirlerr(a) = log Gamma(a + 1) - (a + 1/2) log a
    + a - log(2 pi) / 2 comes from its asymptotic series.
    """
    if a >= _STIRLING_MIN_A and 0.5 * a <= z <= 2.0 * a:
        a2 = a * a
        stirlerr = 1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * a2)) / a2) / a2) / a2
        stirlerr /= a
        d = (z - a) / a
        return 0.5 * math.log(a / (2.0 * math.pi)) - stirlerr + a * (math.log1p(d) - d)
    return a * math.log(z) - z - math.lgamma(a)


def _chi_square_tails(n: int, x: float) -> tuple[float, float]:
    """Chi-square CDF and upper tail at x with n degrees of freedom: the
    regularized incomplete gamma functions P(a, z), Q(a, z) at (n/2, x/2).

    The power series gives P for z < a + 1, else the Lentz continued
    fraction gives Q (Numerical Recipes 6.2); the complement exceeds 0.08
    there, so both tails keep full relative accuracy.  Each loop stops once
    a step changes its result by less than one ulp.  The series needs about
    7 sqrt(a) terms at most and the fraction fewer, so each loop is cut at
    100 + 10 sqrt(a) steps and raises if it gets there.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"degrees of freedom must be a positive integer, got {n}")
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    a, z = n / 2.0, x / 2.0
    if z == 0:
        return 0.0, 1.0
    if math.isinf(z):
        return 1.0, 0.0
    log_prefactor = _log_gamma_prefactor(a, z)
    steps = 100 + int(10 * math.sqrt(a))
    if z < a + 1:
        term = total = 1.0 / a
        denom = a
        for _ in range(steps):
            denom += 1.0
            term *= z / denom
            total += term
            if term < total * _EPS:
                p = math.exp(log_prefactor + math.log(total))
                return p, 1.0 - p
    else:
        b = z + 1.0 - a
        c = 1.0 / _TINY
        d = h = 1.0 / b
        for i in range(1, steps + 1):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                log_q = log_prefactor + math.log(h)
                return -math.expm1(log_q), math.exp(log_q)
    raise ArithmeticError(f"P({a}, {z}) did not converge in {steps} steps")


def _shell(params: DecoderParams) -> tuple[int, float, float]:
    """(n, sigma, eps_n) of the decoding shell; the laws need sigma > 0."""
    if params.sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {params.sigma}")
    return params.n, params.sigma, params.eps_n


def shell_prob_miss(params: DecoderParams) -> float:
    """Probability that noise around the transmitted point leaves its own shell:
    the chi-square tails below n - n eps/sigma^2 and above n + n eps/sigma^2,
    each computed directly, so no cancellation against 1 limits its accuracy.
    A sigma^2 that underflows to 0 takes the sigma -> 0 limit, 0.
    """
    n, sigma, eps = _shell(params)
    var = sigma * sigma
    shift = n * eps / var if var else math.inf
    return _chi_square_tails(n, max(0.0, n - shift))[0] + _chi_square_tails(n, n + shift)[1]


def shell_prob_cross(params: DecoderParams, d: float) -> float:
    """Normal approximation of landing in the shell of a codeword at distance d.

    Phi((n eps - d^2) / (sigma sqrt(2 n sigma^2 + 4 d^2))).  A denominator
    that underflows to 0 takes the sigma -> 0 limit: 1 inside the shell's
    radius, 0 outside it, 1/2 on it.
    """
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    n, sigma, eps = _shell(params)
    gap, scale = n * eps - d * d, sigma * math.sqrt(2 * n * sigma**2 + 4 * d * d)
    return std_normal_cdf(gap / scale if scale else math.copysign(math.inf, gap) if gap else 0.0)
