import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galaxyid.channel import DecoderParams, decide, identify, unit_directions
from galaxyid.gaussian import projection_tail
from reference import _decide_one, slab_separation_margin, transmit


def params100():
    return DecoderParams(n=100, sigma=1.0)


def test_decoder_params_defaults():
    p = params100()
    assert p.eps_n == pytest.approx(math.log2(100) / 10)
    assert p.slab_halfwidth == pytest.approx(math.log2(100))
    lo, hi = p.shell_bounds
    assert lo == pytest.approx(100 * (1 - p.eps_n))
    assert hi == pytest.approx(100 * (1 + p.eps_n))


@pytest.mark.parametrize("field", ["sigma", "eps_n", "slab_halfwidth"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_decoder_params_reject_nonfinite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DecoderParams(**{"n": 16, "sigma": 1.0, field: value})


def test_shell_lower_bound_clamps():
    p = DecoderParams(n=4, sigma=0.5)  # eps_n = 1 > sigma^2
    lo, hi = p.shell_bounds
    assert lo == 0.0
    assert hi == pytest.approx(4 * (0.25 + 1.0))


def test_transmit():
    u = np.arange(5.0)
    rng = np.random.default_rng(0)
    y0 = transmit(u, 0.0, rng)
    np.testing.assert_array_equal(y0, u)
    y1 = transmit(u, 1.0, np.random.default_rng(5))
    y2 = transmit(u, 1.0, np.random.default_rng(5))
    np.testing.assert_array_equal(y1, y2)
    with pytest.raises(ValueError):
        transmit(u, -1.0, rng)


def test_transmit_noise_scale():
    rng = np.random.default_rng(3)
    u = np.zeros(100)
    total = 0.0
    trials = 2000
    for _ in range(trials):
        y = transmit(u, 1.0, rng)
        total += float(np.dot(y, y)) / 100
    mean = total / trials
    se = math.sqrt(2 / 100) / math.sqrt(trials)
    assert abs(mean - 1.0) <= 3 * se


def dense_cells(directions):
    """decide()'s cells of dense (rows, t, n) directions: every coordinate."""
    return np.broadcast_to(np.arange(directions.shape[-1]), directions.shape), directions


def _shell(y, u, p):
    """decide()'s shell mask for one output (the shell ignores the directions)."""
    cells = dense_cells(np.eye(u.size)[None, :1])
    return bool(decide((np.asarray(y) - u)[None, :], cells, p)[0][0])


def _line_codeword(u, *path):
    """(u, chain): a codeword and its ancestor centers, height 1 first."""
    return np.asarray(u, dtype=float), np.asarray(path, dtype=float)


def reference_decision(y, c, p):
    """The README rule, one ancestor at a time, written without decide().

    Shell: ||y - u||^2 in [max(0, n(sigma^2 - eps_n)), n(sigma^2 + eps_n)].
    Slab at ancestor o: the foot of the perpendicular from y onto the line
    o-u is p = o + t (u - o); accepted when ||u - p|| <= slab_halfwidth.
    Returns (statistic, threshold, accepted) triples, shell bounds first.
    """
    u, chain = c
    d = y - u
    sq = float(d @ d)
    lo = max(0.0, p.n * (p.sigma**2 - p.eps_n))
    hi = p.n * (p.sigma**2 + p.eps_n)
    tests = [(sq, lo, lo <= sq), (sq, hi, sq <= hi)]
    for o in chain:
        line = u - o
        t = float((y - o) @ line) / float(line @ line)
        dist = float(np.linalg.norm(u - (o + t * line)))
        tests.append((dist, p.slab_halfwidth, dist <= p.slab_halfwidth))
    return tests


def _near_threshold(tests) -> bool:
    return any(abs(stat - thr) <= 1e-9 * max(1.0, abs(thr)) for stat, thr, _ in tests)


@st.composite
def decoder_cases(draw):
    """A decoder, a few codewords with t_bar ancestors each, and outputs near them."""
    n = draw(st.integers(2, 16))
    t_bar = draw(st.integers(1, 3))
    sigma = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    if sigma == 0.0 or draw(st.booleans()):
        # explicit thresholds, scaled so both outcomes of every test occur
        eps_n = draw(st.floats(0.05, 2.0))
        halfwidth = draw(st.floats(0.0, 3.0)) * max(sigma, 1.0)
        dec = DecoderParams(n=n, sigma=sigma, eps_n=eps_n, slab_halfwidth=halfwidth)
    else:
        dec = DecoderParams(n=n, sigma=sigma)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise_scale = max(sigma, 1.0) * draw(st.floats(0.3, 1.7))
    cws, ys = [], []
    for _ in range(draw(st.integers(1, 3))):
        u = rng.standard_normal(n) * 10.0
        path = [u + rng.standard_normal(n) * 5.0 for _ in range(t_bar)]
        cws.append(_line_codeword(u, *path))
        ys.append(u + rng.standard_normal((4, n)) * noise_scale)
    return dec, cws, ys


@settings(max_examples=300, deadline=None)
@given(decoder_cases())
def test_identify_equals_plain_conjunction(case):
    dec, cws, ys = case
    for c, rows in zip(cws, ys):
        for y in rows:
            tests = reference_decision(y, c, dec)
            assume(not _near_threshold(tests))
            assert identify(y, *c, dec) == all(ok for _, _, ok in tests)


@settings(max_examples=300, deadline=None)
@given(decoder_cases())
def test_decide_matches_reference_decoder(case):
    dec, cws, ys = case
    u, chains = (np.asarray(part) for part in zip(*cws))
    directions = unit_directions(u, chains)
    assert directions.shape == (len(cws), len(cws[0][1]), dec.n)
    for j, (c, rows) in enumerate(zip(cws, ys)):
        expected = [reference_decision(y, c, dec) for y in rows]
        assume(not any(_near_threshold(tests) for tests in expected))
        block = np.broadcast_to(directions[j], (len(rows),) + directions[j].shape)
        shell, slabs, accept = decide(rows - u[j], dense_cells(block), dec)
        for r, tests in enumerate(expected):
            oks = [ok for _, _, ok in tests]
            assert shell[r] == (oks[0] and oks[1])
            assert slabs[r].tolist() == oks[2:]
            assert accept[r] == all(oks)


def sparse_cells(directions):
    """decide()'s cells of (rows, t, n) directions: each direction's nonzero
    coordinates in order, padded with coordinate 0 and value 0.0 to the
    longest list (at least one cell)."""
    k = max(1, int((directions != 0).sum(axis=-1).max()))
    coords = np.zeros(directions.shape[:-1] + (k,), dtype=np.intp)
    values = np.zeros(coords.shape)
    for at in np.ndindex(directions.shape[:-1]):
        nonzero = np.flatnonzero(directions[at])
        coords[at][: len(nonzero)], values[at][: len(nonzero)] = nonzero, directions[at][nonzero]
    return coords, values


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 6),
    t=st.integers(1, 4),
    n=st.integers(1, 12),
    keep=st.floats(0.0, 1.0),
    width=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_decide_on_cells_matches_dense_reference(rows, t, n, keep, width, seed):
    """decide() on the nonzero cells of random directions, with random zero
    masks, against tests/reference.py's dense decoder row by row, wherever
    no projection lies within 1e-12 of its scale from the half-width."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((rows, t, n)) * (rng.random((rows, t, n)) < keep)
    deltas = rng.standard_normal((rows, n)) * math.sqrt(rng.uniform(0.5, 2.0))
    dec = DecoderParams(n=n, sigma=1.0, eps_n=0.5, slab_halfwidth=width)
    scale = np.einsum("ri,rli->rl", np.abs(deltas), np.abs(directions))
    near = np.abs(np.abs(np.einsum("ri,rli->rl", deltas, directions)) - width)
    assume(not (near <= 1e-12 * np.maximum(scale, width)).any())
    shell, slabs, accept = decide(deltas, sparse_cells(directions), dec)
    for r in range(rows):
        expected = _decide_one(deltas[r : r + 1], directions[r], dec)
        assert (shell[r], slabs[r].tolist(), accept[r]) == \
            (expected[0][0], expected[1][0].tolist(), expected[2][0])


def test_in_shell():
    p = params100()
    u = np.zeros(100)
    # y = u: squared distance 0 sits below the lower edge when eps < sigma^2
    assert not _shell(u, u, p)
    y = np.zeros(100)
    y[0] = 10.0  # squared distance exactly n sigma^2
    assert _shell(y, u, p)
    y[0] = math.sqrt(100 * (1 + p.eps_n)) + 1e-6
    assert not _shell(y, u, p)


def test_in_slab():
    p = params100()
    u = np.zeros(100)
    u[0] = 5.0
    direction = unit_directions(u[None], np.zeros((1, 1, 100)))[0]
    # one row per case: y = u, orthogonal displacement of any size (invisible
    # to the slab), along-line displacement beyond the half-width (rejected)
    ys = np.tile(u, (3, 1))
    ys[1, 1] = 1e6
    ys[2, 0] += 2 * p.slab_halfwidth
    _, slabs, _ = decide(ys - u, dense_cells(np.broadcast_to(direction, (3, 1, 100))), p)
    assert slabs[:, 0].tolist() == [True, True, False]
    with pytest.raises(ValueError, match="degenerate"):
        unit_directions(u[None], u[None, None])


def _toy_codeword(n=100):
    u = np.zeros(n)
    u[0] = 30.0
    o1 = np.zeros(n)
    o1[0] = 20.0
    return _line_codeword(u, o1, np.zeros(n))


def test_identify_cases():
    p = params100()
    u, chain = _toy_codeword()
    # shell-exact output, orthogonal to both slab lines
    y = u.copy()
    y[1] = 10.0
    assert _shell(y, u, p)
    assert identify(y, u, chain, p)
    # y = u fails via the shell alone
    assert not identify(u, u, chain, p)
    # far along the first slab line, shell kept satisfied: rejected via slab
    y2 = u.copy()
    y2[0] += math.sqrt(100.0)
    assert _shell(y2, u, p)
    assert not identify(y2, u, chain, p)


def test_shell_depends_only_on_distance():
    # metamorphic: random rotations about u leave the shell decision unchanged
    p = DecoderParams(n=16, sigma=1.0)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(16)
    for _ in range(20):
        z = rng.standard_normal(16)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        assert _shell(u + z, u, p) == _shell(u + q @ z, u, p)


def test_identify_rejects_bad_input():
    p = params100()
    u, chain = _toy_codeword()
    y = u.copy()
    y[1] = 10.0
    with pytest.raises(ValueError, match="center chain"):
        identify(y, *_line_codeword(u), p)
    with pytest.raises(ValueError, match="dimension mismatch"):
        identify(y[:50], u, chain, p)
    y[2] = math.nan
    with pytest.raises(ValueError, match="finite"):
        identify(y, u, chain, p)
    with pytest.raises(ValueError, match="degenerate"):
        identify(u, *_line_codeword(u, chain[0], u), p)


@pytest.mark.parametrize("chain", [np.zeros((1, 1)), np.zeros((2, 3)), np.zeros((1, 5)),
                                   np.zeros((2, 2, 4)), np.full((1, 4), math.nan),
                                   np.array([[0.0, math.inf, 0.0, 0.0]])])
def test_identify_refuses_a_chain_of_the_wrong_shape_or_not_finite(chain):
    """The chain must be a finite (t, n) array with n = u.size: a (1, 1)
    chain is not broadcast, and a nan or inf one is not silently decided."""
    u = np.eye(4)[0]
    with pytest.raises(ValueError, match="center chain|dimension mismatch"):
        identify(u + np.eye(4)[1], u, chain, DecoderParams(n=4, sigma=1.0))


def test_identify_refuses_a_decoder_of_another_width():
    """Another width's shell and slab thresholds would decide u's output:
    y = u + 31 e_2 is rejected at n = 4 but would pass the n = 1000 shell."""
    u, chain = 3 * np.eye(4)[0], np.zeros((1, 4))
    y = u + 31 * np.eye(4)[1]
    assert not identify(y, u, chain, DecoderParams(n=4, sigma=1.0))
    with pytest.raises(ValueError, match="decoder n = 1000 does not match the codeword's n = 4"):
        identify(y, u, chain, DecoderParams(n=1000, sigma=1.0))


def test_empirical_slab_acceptance():
    # own-transmission slab acceptance matches 1 - 2 Phi(-log2 n) at n = 16
    n = 16
    p = DecoderParams(n=n, sigma=1.0)
    u = np.zeros(n)
    u[0] = 4.0
    o = np.zeros(n)
    direction = np.zeros(n)
    direction[0] = 1.0
    rng = np.random.default_rng(21)
    trials = 1_000_000
    hits = 0
    for _ in range(10):
        z = rng.standard_normal((trials // 10, n))
        along = np.abs(z @ direction)
        hits += int(np.sum(along <= p.slab_halfwidth))
    p_hat = hits / trials
    expected = 1.0 - projection_tail(math.log2(n))
    width = 3 * math.sqrt(expected * (1 - expected) / trials)
    assert abs(p_hat - expected) <= 3 * width


def test_slab_separation_margin():
    # isoceles geometry: both codewords at distance r from the meet center
    n = 100
    r = 10.0
    o = np.zeros(n)
    u1 = np.zeros(n)
    u1[0] = r
    u2 = np.zeros(n)
    u2[1] = r
    d2 = 2 * r * r
    expected = d2 / (2 * r)  # (r^2 + d^2 - r^2) / (2 r)
    assert slab_separation_margin(u1, u2, o) == pytest.approx(expected)
    with pytest.raises(ValueError):
        slab_separation_margin(o, u2, o)


def test_degenerate_sigma_zero_type2():
    # sigma = 0: y = u2 exactly; with d^2 above the shell window the target
    # codeword's decision set never accepts
    n = 16
    dec = DecoderParams(n=n, sigma=0.0, eps_n=1.0, slab_halfwidth=4.0)
    u1 = np.zeros(n)
    u1[0] = 6.0
    o = np.zeros(n)
    u2 = np.zeros(n)
    u2[0] = 6.0
    u2[1] = 10.0  # d^2 = 100 > n * eps_n = 16
    y = transmit(u2, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(y, u2)
    assert not _shell(y, u1, dec)
    assert not identify(y, u1, o[None], dec)
