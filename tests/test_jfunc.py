import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipk

from pplv.jfunc import (
    INF,
    TOL_J,
    angular_integral,
    check_exponent,
    conjugate,
    threshold_p,
    threshold_q,
)

Q_GRID = [1.0 + 0.25 * i for i in range(197)]  # 1, 1.25, ..., 50


class TestConjugate:
    def test_self_conjugate(self):
        assert conjugate(2.0) == 2.0

    def test_one_maps_to_inf(self):
        assert conjugate(1.0) == INF

    def test_inf_maps_to_one(self):
        assert conjugate(INF) == 1.0

    def test_four(self):
        assert conjugate(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            conjugate(0.99)

    @pytest.mark.parametrize("p", [0.99, -INF, math.nan])
    def test_check_exponent_rejects(self, p):
        for check in (check_exponent, conjugate, angular_integral):
            with pytest.raises(ValueError, match="exponent must lie in"):
                check(p)

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == pytest.approx(p, rel=1e-9)


class TestAngularIntegral:
    def test_q1_is_two_pi(self):
        assert angular_integral(1.0) == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_q_inf_is_eight(self):
        assert angular_integral(INF) == 8.0

    def test_large_finite_q_short_circuits(self):
        assert angular_integral(2e6) == 8.0

    def test_q2_matches_elliptic_integral(self):
        # cos^4 + sin^4 = 1 - sin(2t)^2/2 reduces the integral to 4*K(m=1/2)
        assert angular_integral(2.0) == pytest.approx(4.0 * ellipk(0.5), abs=1e-8)

    def test_q100_near_limit(self):
        assert abs(angular_integral(100.0) - 8.0) < 0.05

    def test_strictly_increasing_on_grid(self):
        vals = [angular_integral(q) for q in Q_GRID]
        for lo, hi in zip(vals, vals[1:]):
            assert hi - lo > 0.0
        assert vals[-1] < 8.0

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_symmetry_reduction_matches_full_integral(self, q):
        full, _ = quad(
            lambda t: (abs(math.cos(t)) ** (2 * q) + abs(math.sin(t)) ** (2 * q)) ** (-1.0 / q),
            0.0, 2.0 * math.pi, limit=400, epsabs=1e-12)
        assert angular_integral(q) == pytest.approx(full, abs=1e-8)


class TestThresholds:
    def test_threshold_q_endpoints(self):
        assert threshold_q(1.0) == pytest.approx(math.pi, abs=1e-10)
        assert threshold_q(INF) == 2.0

    def test_threshold_p_endpoints(self):
        assert threshold_p(1.0) == pytest.approx(2.0, abs=1e-10)
        assert threshold_p(INF) == pytest.approx(math.pi, abs=1e-10)

    def test_threshold_p2_value(self):
        # 4*K(1/2) / 2**1.5
        assert threshold_p(2.0) == pytest.approx(2.6220575542921198, abs=1e-8)

    def test_threshold_q_strictly_decreasing(self):
        grid = Q_GRID + [INF]
        vals = [threshold_q(q) for q in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert lo - hi > 10.0 * TOL_J

    def test_threshold_p_strictly_increasing(self):
        # mirror of the q grid: conjugates of (1, 50] plus both endpoints
        grid = [1.0] + [conjugate(q) for q in reversed(Q_GRID[1:])] + [INF]
        vals = [threshold_p(p) for p in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi - lo > 10.0 * TOL_J

    def test_threshold_p_range_bounds(self):
        ps = [1.0, 1.01, 1.5, 2.0, 5.0, 20.0, 400.0, INF]
        for p in ps:
            v = threshold_p(p)
            assert 2.0 - TOL_J <= v <= math.pi + TOL_J
