import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galaxyid import spherical
from galaxyid.galaxy import theta_of_k
from galaxyid.spherical import (
    _obtuse_ceiling,
    _simplex_directions,
    as_coords,
    csw_lower_bound,
    greedy_prefix,
    greedy_tail,
    min_pairwise_angle,
)
from reference import NoDraws, generate_reference, witness_candidates

DESIGN_THETAS = [theta_of_k(k) for k in (7, 8, 9)]  # obtuse: cos = -3/5, -1/3, -1/7


def unit_sphere(n, theta, m, seed=0, attempts=10_000):
    """A node's greedy directions: its points on the unit sphere about the origin."""
    return greedy_tail(greedy_prefix(n, theta, m, attempts), seed)


def test_antipodal_constraint_caps_at_two():
    dirs = unit_sphere(2, math.pi, 4)
    assert len(dirs) == 2  # fewer than the 4 asked for: saturated
    assert min_pairwise_angle(dirs, np.zeros(2)) == pytest.approx(math.pi)


def test_square_in_the_plane():
    dirs = unit_sphere(2, math.pi / 2, 4)
    assert len(dirs) == 4
    assert min_pairwise_angle(dirs, np.zeros(2)) >= math.pi / 2 - 1e-9


def test_acute_angle_code():
    theta = math.pi / 3
    dirs = unit_sphere(8, theta, 16)
    assert min_pairwise_angle(dirs, np.zeros(8)) >= theta - 1e-9
    assert len(dirs) <= 16


def test_radius_invariant():
    # A node's points are its center plus radius times these directions.
    center = np.full(6, 2.5)
    points = center + 7.25 * unit_sphere(6, math.pi / 4, 10, seed=3)
    dists = np.linalg.norm(points - center, axis=1)
    assert np.max(np.abs(dists - 7.25) / 7.25) <= 1e-9


def test_generation_deterministic():
    # target beyond the witness prefix so the seeded stream contributes
    a = unit_sphere(8, math.pi / 3, 24, seed=42)
    b = unit_sphere(8, math.pi / 3, 24, seed=42)
    assert len(a) > 16
    assert np.array_equal(a, b)
    c = unit_sphere(8, math.pi / 3, 24, seed=43)
    assert not np.array_equal(a, c)


def test_feasibility_floor_witnesses():
    # orthoplex at theta = pi/2: 2n points, dimensions up to 16
    for n in (2, 4, 8, 16):
        dirs = unit_sphere(n, math.pi / 2, 2 * n, seed=1, attempts=100_000)
        assert len(dirs) == 2 * n
        assert min_pairwise_angle(dirs, np.zeros(n)) >= math.pi / 2 - 1e-9
    # antipodal pair at theta = pi
    for n in (2, 5, 16):
        assert len(unit_sphere(n, math.pi, 2, seed=1, attempts=100_000)) == 2


def test_simplex_witness_for_design_angle():
    # cos(theta_of_k(8)) = -1/3: at most 4 points, and exactly 4 are reachable
    theta = theta_of_k(8)
    dirs = unit_sphere(10, theta, 4, seed=5)
    assert len(dirs) == 4
    assert min_pairwise_angle(dirs, np.zeros(10)) >= theta - 1e-9
    assert len(unit_sphere(10, theta, 5, seed=5, attempts=3000)) == 4


@pytest.mark.parametrize(
    "n, theta, target_m, ceiling",
    [
        (64, theta_of_k(8), 16, 4),  # the wide-build node
        (16, theta_of_k(7), 16, 2),
        (5, math.pi, 4, 2),
        (3, theta_of_k(8), 16, 4),  # n + 1 = 4
        (6, theta_of_k(9), 16, 7),  # n + 1 = 7 < 1 - 1/cos theta = 8
    ],
    ids=["k8-n64", "k7-n16", "pi-n5", "k8-n3", "k9-n6"],
)
def test_obtuse_ceiling_stops_without_drawing(n, theta, target_m, ceiling):
    with mock.patch.object(spherical.np.random, "default_rng", lambda seed: NoDraws()):
        dirs = unit_sphere(n, theta, target_m, attempts=10**9)
    witness = np.asarray(witness_candidates(n, theta)[:ceiling])
    assert np.array_equal(dirs, witness)  # ceiling < target_m points: saturated


@pytest.mark.parametrize("n", [2, 3, 6, 17])
def test_witness_prefix_matches_the_reference_list(n):
    for theta in (*DESIGN_THETAS, theta_of_k(16), math.pi / 2, math.pi):
        prefix = spherical._witness_candidates(n, theta)
        assert prefix.tobytes() == np.asarray(witness_candidates(n, theta)).tobytes()


def _simplex_fits(n, m, cos_t):
    """Whether the acceptance test admits the m-point witness simplex, vertex by vertex."""
    dirs = _simplex_directions(n, m)
    return all(np.max(dirs[:i] @ dirs[i]) <= cos_t + spherical._DOT_TOL for i in range(1, m))


def _near_simplex_cosines():
    """cos theta 1 to 3 float steps and 1e-10 either side of each simplex dot -1/(m-1)."""
    cosines = []
    for m in range(3, 10):
        dot = -1.0 / (m - 1)
        cosines += [dot - 1e-10, dot + 1e-10]
        for side in (-math.inf, math.inf):
            near = dot
            for _ in range(3):
                near = float(np.nextafter(near, side))
                cosines.append(near)
    return cosines


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
def test_capped_node_takes_the_ceiling_from_the_witness_prefix(n):
    # At every obtuse theta of the grid the ceiling is the largest witness
    # simplex the acceptance test admits, and a node whose target lies above
    # it takes that simplex without a draw.  (Within the ceiling's rounding
    # band, about 4 (n + 4) eps, below cos theta = -1/(m-1) - _DOT_TOL the
    # ceiling rounds up to m, and such a node draws instead.)
    grid = [*np.linspace(math.pi / 2, math.pi, 401)[1:], *DESIGN_THETAS,
            *map(math.acos, _near_simplex_cosines())]
    with mock.patch.object(spherical.np.random, "default_rng", lambda seed: NoDraws()):
        for theta in grid:
            cos_t = math.cos(theta)
            fits = 2  # the antipodal pair fits at every obtuse theta
            while fits <= n and _simplex_fits(n, fits + 1, cos_t):
                fits += 1
            assert _obtuse_ceiling(n, cos_t) == fits, (n, cos_t)
            dirs = unit_sphere(n, theta, fits + 1, attempts=10**9)
            assert np.array_equal(dirs, witness_candidates(n, theta)[:fits])


@st.composite
def generate_args(draw):
    n = draw(st.integers(2, 12))
    theta = draw(st.one_of(
        st.sampled_from(DESIGN_THETAS),
        st.floats(math.pi / 2, math.pi, exclude_min=True),
        st.just(math.pi),
    ))
    return dict(
        n=n,
        center=np.linspace(-1.0, 1.0, n),
        r=1.5,
        theta=theta,
        target_m=draw(st.integers(1, 2 * n + 2)),
        max_attempts=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=200, deadline=None)
@given(args=generate_args())
def test_generate_matches_greedy_reference(args):
    # Stopping at the ceiling must leave exactly the points and flag the
    # plain loop ends with after max_attempts futile rejections.
    n, target_m = args["n"], args["target_m"]
    dirs = greedy_tail(greedy_prefix(n, args["theta"], target_m, args["max_attempts"]),
                       args["seed"])
    points = args["center"] + args["r"] * dirs
    ref_points, ref_saturated = generate_reference(**args)
    assert points.shape == ref_points.shape
    assert points.tobytes() == ref_points.tobytes()
    assert ref_saturated == (len(dirs) < target_m)


def test_every_generated_code_certifies():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        theta = float(rng.uniform(0.3, 2.5))
        m = int(rng.integers(2, 12))
        dirs = unit_sphere(n, theta, m, seed=int(rng.integers(1 << 30)), attempts=2000)
        if len(dirs) >= 2:
            assert min_pairwise_angle(dirs, np.zeros(n)) >= theta - 1e-9


def test_generate_validation():
    for theta in (0.0, 3.5, math.nan):
        with pytest.raises(ValueError, match="theta must lie in"):
            greedy_prefix(4, theta, 4, 100)
    with pytest.raises(ValueError, match="target_m must be >= 1"):
        greedy_prefix(4, 1.0, 0, 100)
    with pytest.raises(ValueError):
        min_pairwise_angle(unit_sphere(4, math.pi, 1), np.zeros(4))


def test_csw_lower_bound_values():
    assert csw_lower_bound(10, math.pi / 3) == pytest.approx(1024 / 243, rel=1e-12)
    assert csw_lower_bound(1, math.pi / 3) == pytest.approx(1.1547005, abs=1e-6)
    assert csw_lower_bound(7, math.pi / 2 - 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert csw_lower_bound(8192, theta_of_k(16)) == math.inf  # beyond float range
    with pytest.raises(ValueError):
        csw_lower_bound(4, 0.0)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 4), (6, 7), (3, 3), (10, 4)])
def test_simplex_directions_fit_any_dimension(n, m):
    # m = n + 1 vertices need all n coordinates of R^n
    v = _simplex_directions(n, m)
    assert v.shape == (m, n)
    gram = v @ v.T
    np.testing.assert_allclose(np.diag(gram), 1.0, rtol=1e-12)
    off = gram[~np.eye(m, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / (m - 1), rtol=1e-12)


def test_min_pairwise_angle_examples():
    assert min_pairwise_angle(unit_sphere(3, math.pi, 2), np.zeros(3)) == pytest.approx(math.pi)
    assert min_pairwise_angle(unit_sphere(2, math.pi / 2, 4), np.zeros(2)) == \
        pytest.approx(math.pi / 2)


def test_min_pairwise_angle_point_on_center():
    # No direction, so no angle: 0, deliberately and without a warning.
    points = np.array([[1.0, 2.0], [2.0, 2.0], [1.0, 3.0]])
    assert min_pairwise_angle(points, points[0].copy()) == 0.0


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        as_coords([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_coords([1.0, float("inf")])
    with pytest.raises(ValueError):
        as_coords([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_coords([])
    out = as_coords([3, 4])
    assert out.dtype == np.float64
    assert out.tolist() == [3.0, 4.0]
