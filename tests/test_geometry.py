import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netwake.geometry import BoundaryMode, expected_degree, pair_distances, sample_points

from conftest import distance

TORUS = BoundaryMode.TORUS
PLANAR = BoundaryMode.PLANAR


class TestSamplePoints:
    def test_bounds_and_count(self, rng):
        pts = sample_points(10_000, 1000.0, rng)
        assert pts.shape == (10_000, 2)
        assert np.all(pts >= 0) and np.all(pts < 1000.0)

    def test_single_point_unit_region(self, rng):
        pts = sample_points(1, 1.0, rng)
        assert pts.shape == (1, 2)
        assert 0 <= pts[0, 0] < 1 and 0 <= pts[0, 1] < 1

    def test_mean_matches_uniform_law(self):
        # Independent oracle: E[x] = L/2, SE = (L/sqrt(12))/sqrt(n).
        n, side = 100_000, 1000.0
        pts = sample_points(n, side, np.random.default_rng(3))
        se = side / math.sqrt(12) / math.sqrt(n)
        assert abs(pts[:, 0].mean() - side / 2) < 3 * se

    def test_deterministic_given_seed(self):
        a = sample_points(50, 10.0, np.random.default_rng(9))
        b = sample_points(50, 10.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n,side", [(0, 1.0), (-2, 1.0), (5, 0.0), (5, -1.0),
                                        (5, math.inf), (5, math.nan)])
    def test_invalid_parameters(self, n, side, rng):
        with pytest.raises(ValueError):
            sample_points(n, side, rng)


class TestDistance:
    def test_torus_wraps(self):
        assert distance((0, 0), (999, 0), 1000.0, TORUS) == pytest.approx(1.0)

    def test_planar_does_not_wrap(self):
        assert distance((0, 0), (999, 0), 1000.0, PLANAR) == pytest.approx(999.0)

    def test_torus_diagonal(self):
        # Hand evaluation: per-axis wrap gives (500, 500) -> 500*sqrt(2).
        assert distance((0, 0), (500, 500), 1000.0, TORUS) == pytest.approx(500 * math.sqrt(2))

    def test_zero_iff_equal(self):
        assert distance((3, 4), (3, 4), 10.0, TORUS) == 0.0
        assert distance((3, 4), (3.1, 4), 10.0, TORUS) > 0.0

    def test_pair_distances_matches_scalar(self, rng):
        a = rng.random((40, 2)) * 50
        b = rng.random((40, 2)) * 50
        for mode in (TORUS, PLANAR):
            vec = pair_distances(a, b, 50.0, mode)
            for i in range(40):
                assert vec[i] == pytest.approx(distance(a[i], b[i], 50.0, mode))


coords = st.floats(min_value=0.0, max_value=99.999, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
def test_torus_metric_properties(ax, ay, bx, by, cx, cy):
    side = 100.0
    a, b, c = (ax, ay), (bx, by), (cx, cy)
    dab = distance(a, b, side, TORUS)
    assert dab >= 0
    assert dab == pytest.approx(distance(b, a, side, TORUS))
    assert dab <= distance(a, b, side, PLANAR) + 1e-12
    assert dab <= side * math.sqrt(2) / 2 + 1e-9
    assert distance(a, b, side, PLANAR) <= side * math.sqrt(2) + 1e-9
    # Triangle inequality with a float-noise allowance.
    assert dab <= distance(a, c, side, TORUS) + distance(c, b, side, TORUS) + 1e-9


class TestDegreeRangeRelation:
    def test_reference_density_and_range(self):
        # 0.01 * pi * 12.5**2 = 4.9087...
        assert expected_degree(0.01, 12.5) == pytest.approx(4.909, abs=5e-4)

    def test_zero_range(self):
        assert expected_degree(0.01, 0.0) == 0.0

    def test_hand_value(self):
        assert expected_degree(0.01, 16.0) == pytest.approx(8.042, abs=5e-4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            expected_degree(0.01, -1.0)
        with pytest.raises(ValueError):
            expected_degree(0.0, 5.0)

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(min_value=1e-4, max_value=10.0),
        r1=st.floats(min_value=0.01, max_value=100.0),
        bump=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_strictly_increasing(self, rho, r1, bump):
        assert expected_degree(rho, r1 + bump) > expected_degree(rho, r1)
        assert expected_degree(rho + bump, r1) > expected_degree(rho, r1)
