import math

import numpy as np
import pytest

from galaxyid.channel import DecoderParams
from galaxyid.gaussian import (
    default_eps,
    projection_tail,
    shell_prob_cross,
    shell_prob_miss,
    std_normal_cdf,
)
from reference import (
    chi_square_cdf,
    mills_bound,
    shell_prob_same,
    shell_prob_same_normal_approx,
    std_normal_pdf,
)

# Frozen oracle values (erfc / regularized-incomplete-gamma evaluations).
PHI_M2 = 0.02275013194817921
PHI_M4_69793 = 1.3140573321186397e-06  # at the rounded argument -4.69793
PHI_SHELL_ARG_100 = 1.314148895807338e-06  # at -sqrt(100) eps_100 / sqrt(2)
SHELL_EXACT_100 = 0.9999656992454046
SHELL_APPROX_100 = 0.9999973717022084
MILLS_100 = 2.7384552433249617e-06
CROSS_100_AT_D = 1.3651828899514554e-17


def spec100() -> DecoderParams:
    return DecoderParams(n=100, sigma=1.0)


def test_pdf_examples():
    assert std_normal_pdf(0.0) == pytest.approx(0.3989423, abs=1e-7)
    assert std_normal_pdf(40.0) == 0.0
    for z in (0.3, 1.7, 5.0):
        assert std_normal_pdf(z) == std_normal_pdf(-z)


def test_cdf_examples():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(-2.0) == pytest.approx(PHI_M2, abs=1e-12)
    assert std_normal_cdf(-4.69793) == pytest.approx(PHI_M4_69793, rel=1e-10)


def test_cdf_symmetry_and_monotonicity():
    xs = np.linspace(-8, 8, 161)
    for x in xs:
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)
    vals = [std_normal_cdf(x) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_projection_tail():
    assert projection_tail(0.0) == 1.0
    assert projection_tail(2.0) == pytest.approx(0.0455003, abs=1e-7)
    assert projection_tail(math.log2(100)) == pytest.approx(3.0558e-11, rel=1e-4)
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="x must be >= 0"):
            projection_tail(bad)
    xs = np.linspace(0, 10, 101)
    vals = [projection_tail(x) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_chi_square_cdf():
    assert chi_square_cdf(2, 2 * math.log(2)) == pytest.approx(0.5, abs=1e-12)
    assert chi_square_cdf(100, float("inf")) == 1.0
    assert chi_square_cdf(7, 0.0) == 0.0
    assert chi_square_cdf(100, 166.43856189774723) == pytest.approx(0.99996570, abs=1e-8)
    with pytest.raises(ValueError):
        chi_square_cdf(0, 1.0)
    with pytest.raises(ValueError):
        chi_square_cdf(3, -1.0)
    with pytest.raises(ValueError):
        chi_square_cdf(3, float("nan"))


def test_chi_square_cdf_matches_mpmath():
    # Every grid point whose true value is a normal float, to 1e-12 relative:
    # the tails, the bulk and the mode, where the prefactor cancels most.
    # Then the shell miss, both tails summed, where it is far below 1e-13.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def law(n, lo, hi):  # P(lo <= chi2_n <= hi)
        return mpmath.gammainc(mpmath.mpf(n) / 2, mpmath.mpf(lo) / 2, mpmath.mpf(hi) / 2,
                               regularized=True)

    worst = (0.0, None)
    for n in [*range(1, 301), 512, 1000, 1024, 2048, 4096, 8192]:
        factors = (0.3, 0.5, 0.7, 0.9, 0.99, 1, 1.01, 1.1, 1.5, 2, 3)
        for x in (1e-3, 0.01, 0.5, 1, 3, *(n * f for f in factors), n + 100):
            true = law(n, 0, x)
            if true < 1e-300:
                continue
            err = float(abs(chi_square_cdf(n, x) - true) / true)
            worst = max(worst, (err, (n, x)))
    for n, sigma in ((64, 1.0), (256, 0.7), (4096, 1.0)):
        spec = DecoderParams(n=n, sigma=sigma)
        shift = n * spec.eps_n / sigma**2
        true = law(n, 0, max(0.0, n - shift)) + law(n, n + shift, mpmath.inf)
        err = float(abs(shell_prob_miss(spec) - true) / true)
        worst = max(worst, (err, (n, sigma)))
    assert worst[0] <= 1e-12, worst


def test_chi_square_wilson_hilferty_crosscheck():
    # Independent cube-root normal approximation of the chi-square upper tail.
    n, x = 100, 166.43856189774723
    wh_tail = 1.0 - std_normal_cdf(
        ((x / n) ** (1 / 3) - (1 - 2 / (9 * n))) / math.sqrt(2 / (9 * n))
    )
    exact_tail = 1.0 - chi_square_cdf(n, x)
    assert exact_tail == pytest.approx(3.43e-5, rel=0.01)
    assert wh_tail == pytest.approx(exact_tail, rel=0.05)


def test_decoder_params_defaults_and_shell_law_validation():
    spec = spec100()
    assert spec.eps_n == pytest.approx(0.6643856189774724)
    assert default_eps(100) == spec.eps_n
    with pytest.raises(ValueError):
        DecoderParams(n=0, sigma=1.0)
    with pytest.raises(ValueError):
        DecoderParams(n=10, sigma=-1.0)
    with pytest.raises(ValueError):
        DecoderParams(n=10, sigma=1.0, eps_n=-0.1)
    # the decoder accepts sigma = 0; the shell laws do not
    noiseless = DecoderParams(n=10, sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        shell_prob_miss(noiseless)
    with pytest.raises(ValueError, match="sigma"):
        shell_prob_cross(noiseless, 1.0)


def test_shell_prob_same_values():
    spec = spec100()
    assert shell_prob_same_normal_approx(spec) == pytest.approx(SHELL_APPROX_100, rel=1e-10)
    assert shell_prob_same(spec) == pytest.approx(SHELL_EXACT_100, rel=1e-9)
    with pytest.raises(TypeError):  # the exact law is the only one; no method option
        shell_prob_same(spec, "nonsense")


def test_shell_prob_same_small_eps_limit():
    for eps in (1e-3, 1e-5, 1e-7):
        spec = DecoderParams(n=100, sigma=1.0, eps_n=eps)
        assert shell_prob_same_normal_approx(spec) <= 0.51
        assert shell_prob_same(spec) <= shell_prob_same_normal_approx(spec) + 0.01
    tiny = DecoderParams(n=100, sigma=1.0, eps_n=1e-12)
    assert shell_prob_same(tiny) == pytest.approx(0.0, abs=1e-9)


def test_shell_prob_same_exact_monotone_in_eps():
    vals = [
        shell_prob_same(DecoderParams(n=50, sigma=1.0, eps_n=e))
        for e in np.linspace(0.01, 2.0, 40)
    ]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_shell_prob_cross_values():
    spec = spec100()
    # numerator vanishes when d^2 = n eps
    d_mid = math.sqrt(100 * spec.eps_n)
    assert shell_prob_cross(spec, d_mid) == pytest.approx(0.5, abs=1e-12)
    d = 100**0.25 * math.log2(100)
    assert shell_prob_cross(spec, d) == pytest.approx(CROSS_100_AT_D, rel=1e-8)
    # d = 0 reduces to the one-sided same-shell tail
    assert shell_prob_cross(spec, 0.0) == pytest.approx(0.9999986858511042, rel=1e-12)
    with pytest.raises(ValueError):
        shell_prob_cross(spec, -1.0)


def test_mills_bound_value_and_dominance():
    spec = spec100()
    assert mills_bound(spec) == pytest.approx(MILLS_100, rel=1e-10)
    a = math.sqrt(100) * spec.eps_n / (math.sqrt(2) * spec.sigma**2)
    assert a == pytest.approx(4.69793, abs=1e-3)
    assert std_normal_cdf(-a) == pytest.approx(PHI_SHELL_ARG_100, rel=1e-10)
    assert mills_bound(spec) > std_normal_cdf(-a)


def test_mills_dominance_grid():
    # strict dominance for every n in {16,...,4096} (powers of two), sigma in {0.5,1,2}
    for j in range(4, 13):
        n = 2**j
        for sigma in (0.5, 1.0, 2.0):
            spec = DecoderParams(n=n, sigma=sigma)
            tail = std_normal_cdf(-math.sqrt(n) * spec.eps_n / (math.sqrt(2) * sigma**2))
            assert mills_bound(spec) > tail


def test_mills_bound_vanishes():
    vals = [mills_bound(DecoderParams(n=2**j, sigma=1.0)) for j in range(4, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-15


def test_empirical_projection_law():
    # moderate-size version of the projection-norm tail check (n=50)
    rng = np.random.default_rng(7)
    direction = rng.standard_normal(50)
    direction /= np.linalg.norm(direction)
    hits = 0
    trials = 200_000
    for _ in range(4):
        z = rng.standard_normal((trials // 4, 50))
        hits += int(np.sum(np.abs(z @ direction) >= 2.0))
    assert abs(hits / trials - 2 * PHI_M2) < 0.003
