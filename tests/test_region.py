import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import figure_region
from oracles import grid_refine_max, grid_supxy, region_mask

from pplv.coeffs import PeriodicCoefficient, SystemSpec
from pplv.constant_case import equilibrium
from pplv.jfunc import INF
from pplv.region import (
    RegionBounds,
    RegionSpec,
    boundary_points,
    boundary_residual,
    compute_uv,
    cp_contains,
    cp_slack,
    envelope,
    region_spec,
    sup_linear,
    sup_xy,
)

C = PeriodicCoefficient.constant


def const_spec(a, b, c, d, e, f, T=1.0):
    return SystemSpec(T=T, a=C(a), b=C(b), c=C(c), d=C(d), e=C(e), f=C(f))


class TestComputeUV:
    def test_demo_constants(self, eq30_spec):
        bounds = compute_uv(eq30_spec)
        assert bounds.U == pytest.approx(2.0102, abs=1e-12)
        assert bounds.V == pytest.approx(2.0203 / 2.0 + (0.9898 / 2.0) * 2.0102, abs=1e-12)

    def test_classical_set(self, classical_spec):
        bounds = compute_uv(classical_spec)
        assert bounds.U == pytest.approx(1.0, abs=1e-12)
        assert bounds.V == pytest.approx(0.5, abs=1e-12)

    def test_unit_coefficients(self):
        bounds = compute_uv(const_spec(1, 1, 1, 1, 1, 1))
        assert bounds.U == pytest.approx(1.0)
        assert bounds.V == pytest.approx(2.0)


class TestMembership:
    def test_box_corner_inside(self, eq30_spec):
        reg = region_spec(eq30_spec, INF)
        assert cp_contains(reg, reg.bounds.U, reg.bounds.V)

    def test_box_corner_outside(self, eq30_spec):
        reg = region_spec(eq30_spec, INF)
        assert not cp_contains(reg, reg.bounds.U + 0.01, reg.bounds.V)

    def test_singleton_point_inside_at_p1(self, eq30, eq30_spec):
        x1, y1 = equilibrium(eq30)
        reg = region_spec(eq30_spec, 1.0)
        assert cp_contains(reg, x1, y1)

    def test_nonpositive_coordinates_excluded(self, eq30_spec):
        reg = region_spec(eq30_spec, 2.0)
        assert not cp_contains(reg, 0.0, 1.0)
        assert not cp_contains(reg, 1.0, -0.5)

    def test_boundary_tolerance(self):
        reg = figure_region(1.0)
        # (0.5, 1.5) sits on b_min*x + c_min*y = abar with zero slack
        assert cp_slack(reg, 0.5, 1.5) == pytest.approx(0.0, abs=1e-12)
        assert cp_contains(reg, 0.5, 1.5)


class TestSupXY:
    def test_box_corner_exact(self, eq30_spec):
        reg = region_spec(eq30_spec, INF)
        res = sup_xy(reg)
        assert res.value == reg.bounds.U * reg.bounds.V
        assert res.argmax == (reg.bounds.U, reg.bounds.V)
        assert not res.empty

    def test_constant_singleton_at_p1(self, eq30, eq30_spec):
        x1, y1 = equilibrium(eq30)
        res = sup_xy(region_spec(eq30_spec, 1.0))
        assert not res.empty
        assert res.degenerate
        assert res.value == pytest.approx(x1 * y1, abs=1e-9)

    def test_p2_between_singleton_and_box(self, eq30, eq30_spec):
        x1, y1 = equilibrium(eq30)
        bounds = compute_uv(eq30_spec)
        res = sup_xy(region_spec(eq30_spec, 2.0))
        assert x1 * y1 - 1e-9 <= res.value <= bounds.U * bounds.V + 1e-9

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_matches_grid_refinement_oracle(self, eq30_spec, p):
        reg = region_spec(eq30_spec, p)
        res = sup_xy(reg)
        xmax, ymax = envelope(reg)
        ref, _ = grid_supxy(reg, xmax, ymax)
        assert ref is not None
        assert abs(res.value - ref) <= 1e-4 * ref

    def test_argmax_is_member(self, eq30_spec):
        for p in (1.5, 2.0, 4.0, 10.0):
            reg = region_spec(eq30_spec, p)
            res = sup_xy(reg)
            assert cp_contains(reg, res.argmax[0], res.argmax[1], tol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0, 10.0, 100.0])
    def test_figure_parameters_nonempty_and_bounded(self, p):
        reg = figure_region(p)
        res = sup_xy(reg)
        assert not res.empty
        xmax, ymax = envelope(reg)
        assert 0 < res.value <= xmax * ymax
        assert res.argmax[0] <= xmax + 1e-9
        assert res.argmax[1] <= ymax + 1e-9

    def test_empty_region_flagged(self):
        res = sup_xy(region_spec(const_spec(-1, 1, 1, -1, 1, 1), 2.0))
        assert res.empty
        assert res.value == 0.0


class TestSupLinear:
    def test_demo_singleton(self, eq30, eq30_spec):
        x1, y1 = equilibrium(eq30)
        reg1 = region_spec(eq30_spec, 1.0)
        res = sup_linear(reg1, 1.0, 2.0)
        assert res.value == pytest.approx(1.0 * x1 + 2.0 * y1, abs=1e-9)

    def test_interval_region_linear_solve(self):
        # b_L = b_M etc. so the p = 1 region is the segment point (1, 2)
        spec = const_spec(3, 1, 1, 1, 1, 1)
        reg1 = region_spec(spec, 1.0)
        res = sup_linear(reg1, 1.0, 1.0)
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.argmax[0] == pytest.approx(1.0, abs=1e-6)
        assert res.argmax[1] == pytest.approx(2.0, abs=1e-6)

    def test_empty_region(self):
        reg1 = region_spec(const_spec(-1, 1, 1, -1, 1, 1), 1.0)
        res = sup_linear(reg1, 1.0, 1.0)
        assert res.empty

    def test_matches_grid_oracle_on_spread_region(self):
        reg = figure_region(2.0)
        res = sup_linear(reg, 2.0, 2.0)
        xmax, ymax = envelope(reg)
        ref, _ = grid_refine_max(reg, lambda x, y: 2.0 * x + 2.0 * y, xmax, ymax)
        assert abs(res.value - ref) <= 1e-4 * abs(ref)


class TestBoundaryPoints:
    def test_demo_p2_counts_and_residuals(self, eq30_spec):
        reg = region_spec(eq30_spec, 2.0)
        pts, empty = boundary_points(reg, 100)
        assert not empty
        assert len(pts) == 400
        labels = {lab for lab, _, _ in pts}
        assert labels == {"a_lower", "a_upper", "d_lower", "d_upper"}
        for lab, x, y in pts:
            assert boundary_residual(reg, lab, x, y) <= 1e-9

    def test_residuals_against_raw_forms(self, eq30_spec):
        reg = region_spec(eq30_spec, 2.0)
        pts, _ = boundary_points(reg, 50)
        U, V, p = reg.bounds.U, reg.bounds.V, reg.p
        for lab, x, y in pts:
            if lab == "a_lower":
                val = reg.b_min * U ** (1 - p) * x ** p + reg.c_min * V ** (1 - p) * y ** p
                assert val == pytest.approx(reg.abar, abs=1e-9)
            elif lab == "d_upper":
                val = -reg.e_min * U ** (1 - p) * x ** p + reg.f_max * y
                assert val == pytest.approx(reg.dbar, abs=1e-9)

    def test_box_corner_present_at_p_inf(self, eq30_spec):
        reg = region_spec(eq30_spec, INF)
        pts, _ = boundary_points(reg, 11)
        corner = (reg.bounds.U, reg.bounds.V)
        hits = [pt for _, x, y in pts for pt in [(x, y)] if pt == corner]
        assert len(hits) >= 2  # end of one edge, start of the other

    def test_figure_parameters_form_bounded_curves(self):
        reg = figure_region(1.0)
        pts, empty = boundary_points(reg, 64)
        assert not empty
        xs = [x for _, x, _ in pts]
        ys = [y for _, y, _ in pts]
        assert max(xs) <= envelope(reg)[0] + 1e-12
        assert min(xs) >= 0 and min(ys) >= 0
        for lab, x, y in pts:
            assert boundary_residual(reg, lab, x, y) <= 1e-9

    def test_clipped_curves_keep_full_count(self, classical_spec):
        # negative mean of d clips two curves at y = 0; each still carries
        # n samples on its admissible range
        reg = region_spec(classical_spec, 2.0)
        pts, _ = boundary_points(reg, 40)
        counts = {}
        for lab, x, y in pts:
            counts[lab] = counts.get(lab, 0) + 1
            assert y >= 0.0
            assert boundary_residual(reg, lab, x, y) <= 1e-9
        assert counts == {"a_lower": 40, "a_upper": 40, "d_lower": 40, "d_upper": 40}

    def test_needs_two_samples(self, eq30_spec):
        with pytest.raises(ValueError):
            boundary_points(region_spec(eq30_spec, 2.0), 1)


class TestOracleAgreement:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 10.0])
    def test_figure_region_supxy_vs_oracle(self, p):
        reg = figure_region(p)
        res = sup_xy(reg)
        xmax, ymax = envelope(reg)
        ref, _ = grid_supxy(reg, xmax, ymax)
        assert abs(res.value - ref) <= 1e-4 * ref

    def test_envelope_encloses_feasible_points(self):
        reg = figure_region(2.0)
        xmax, ymax = envelope(reg)
        xs = np.linspace(1e-6, xmax * 1.3, 400)
        ys = np.linspace(1e-6, ymax * 1.3, 400)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        mask = region_mask(reg, X, Y)
        assert mask.any()
        assert X[mask].max() <= xmax + 1e-9
        assert Y[mask].max() <= ymax + 1e-9


SPREAD = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


@st.composite
def regions(draw):
    """Freestanding regions: p in [1, 20], spreads >= 0, dbar of either sign."""
    p = draw(st.one_of(st.just(1.0), st.floats(1.0, 20.0)))
    mins = [draw(st.floats(0.2, 3.0)) for _ in range(4)]
    mins[2] = draw(st.one_of(st.just(0.0), st.just(mins[2])))  # e may vanish
    spreads = [draw(SPREAD) for _ in range(4)]
    (b_min, c_min, e_min, f_min), (b_max, c_max, e_max, f_max) = (
        mins, [m + s for m, s in zip(mins, spreads)])
    return RegionSpec(p=p, abar=draw(st.floats(0.05, 3.0)), dbar=draw(st.floats(-2.0, 2.0)),
                      b_min=b_min, b_max=b_max, c_min=c_min, c_max=c_max,
                      e_min=e_min, e_max=e_max, f_min=f_min, f_max=f_max,
                      bounds=RegionBounds(U=draw(st.floats(0.5, 4.0)), V=draw(st.floats(0.5, 4.0))))


class TestSupremumProperty:
    @given(regions())
    @settings(max_examples=40, deadline=None)
    def test_suprema_match_grid_oracle(self, reg):
        # A coarse oracle grid only bounds the supremum from below: its best
        # sample can lie far inside a flat maximum or a small region (see the
        # exact cases below).  The bound from above is that the argmax is a
        # member and the value is the objective there.
        xmax, ymax = envelope(reg)
        for res, objective in (
            (sup_xy(reg), lambda x, y: x * y),
            (sup_linear(reg, reg.b_max, reg.f_max), lambda x, y: reg.b_max * x + reg.f_max * y),
        ):
            ref, _ = grid_refine_max(reg, objective, xmax, ymax, n=300)
            if ref is None:
                continue
            assert not res.empty
            assert res.value >= ref - 1e-12 * abs(ref)
            assert res.value == pytest.approx(objective(*res.argmax), rel=1e-12)
            assert cp_contains(reg, res.argmax[0], res.argmax[1], tol=1e-9)

    def test_flat_maximum_on_unit_disk(self):
        # x^2 + y^2 <= 1 bounds the slices from above near the diagonal
        reg = RegionSpec(p=2.0, abar=1.0, dbar=0.0, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.0,
                         e_min=1.0, e_max=1.0, f_min=1.0, f_max=1.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        assert sup_linear(reg, 1.0, 1.0).value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert sup_xy(reg).value == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("dbar, empty", [(0.5, False), (-0.5, True)])
    def test_prey_free_predator_bound(self, dbar, empty):
        # e = 0: constraint (3) reads f*y**2 <= dbar for every x
        reg = RegionSpec(p=2.0, abar=1.0, dbar=dbar, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.0,
                         e_min=0.0, e_max=0.0, f_min=1.0, f_max=1.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        res = sup_xy(reg)
        assert res.empty is empty
        if not empty:
            assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_segment_searched_along_its_length(self):
        # b, c constant: constraints (1) and (2) coincide on x + y = 1, cut
        # to 1/2 <= x <= 2/3 by y <= x and y >= x/2
        reg = RegionSpec(p=1.0, abar=1.0, dbar=0.0, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.0,
                         e_min=1.0, e_max=1.0, f_min=1.0, f_max=2.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        res = sup_xy(reg)
        assert res.degenerate
        assert res.value == pytest.approx(0.25, rel=1e-12)

    def test_small_triangle_corner(self):
        # the two top lines meet at (5/7, 1/28), the corner of a small triangle
        reg = RegionSpec(p=1.0, abar=2.0, dbar=-0.5, b_min=2.75, b_max=2.75, c_min=1.0, c_max=2.0,
                         e_min=0.75, e_max=0.75, f_min=1.0, f_max=2.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        res = sup_xy(reg)
        assert res.value == pytest.approx(5.0 / 196.0, rel=1e-12)
        assert res.argmax == pytest.approx((5.0 / 7.0, 1.0 / 28.0), rel=1e-9)
