import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import const_spec, figure_region
from oracles import boundary_points_loop, envelope, grid_refine_max, grid_supxy, region_mask

from pplv.constant_case import equilibrium
from pplv.jfunc import INF
from pplv.region import (
    RegionBounds,
    RegionSpec,
    _curves,
    _x_ceiling,
    boundary_points,
    boundary_residual,
    compute_uv,
    cp_slack,
    region_spec,
    sup_linear,
    sup_xy,
)

# p = 2 with every coefficient and U, V equal to 1: x^2 + y^2 <= 1 bounds the
# slices from above near the diagonal
UNIT_DISK = RegionSpec(p=2.0, abar=1.0, dbar=0.0, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.0,
                       e_min=1.0, e_max=1.0, f_min=1.0, f_max=1.0,
                       bounds=RegionBounds(U=1.0, V=1.0))


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
        reg = region_spec(eq30_spec).at(INF)
        assert cp_slack(reg, reg.bounds.U, reg.bounds.V) >= -1e-12

    def test_box_corner_outside(self, eq30_spec):
        reg = region_spec(eq30_spec).at(INF)
        assert cp_slack(reg, reg.bounds.U + 0.01, reg.bounds.V) < -1e-12

    def test_singleton_point_inside_at_p1(self, eq30_spec):
        x1, y1 = equilibrium(eq30_spec)
        reg = region_spec(eq30_spec)
        assert x1 > 0 and y1 > 0 and cp_slack(reg, x1, y1) >= -1e-12

    def test_nonpositive_coordinates_excluded(self, eq30_spec):
        # a negative coordinate has no slack; on the axis x = 0 constraint
        # (2) needs c_max*y >= abar, which y = 1 violates
        reg = region_spec(eq30_spec).at(2.0)
        assert cp_slack(reg, 0.0, 1.0) < -1e-12
        assert cp_slack(reg, 1.0, -0.5) == -math.inf

    def test_overflowing_power_is_outside(self):
        # a = b = f = 1, c = d = e = 1e-3 at p = 200: V = 0.002, and at the
        # a_upper sample (0, 1000) (y/V)**200 overflows in constraints (1)
        # and (3); Python's float power raised OverflowError there
        reg = region_spec(const_spec(1.0, 1.0, 1e-3, 1e-3, 1e-3, 1.0)).at(200.0)
        assert cp_slack(reg, 0.0, 1000.0) == -math.inf
        slacks = [cp_slack(reg, x, y) for _, x, y in boundary_points(reg, 256)]
        assert len(slacks) == 1024
        assert all(math.isfinite(s) or s == -math.inf for s in slacks)

    def test_boundary_tolerance(self):
        reg = figure_region(1.0)
        # (0.5, 1.5) sits on b_min*x + c_min*y = abar with zero slack
        assert cp_slack(reg, 0.5, 1.5) == pytest.approx(0.0, abs=1e-12)


class TestSupXY:
    def test_box_corner_exact(self, eq30_spec):
        reg = region_spec(eq30_spec).at(INF)
        res = sup_xy(reg)
        assert res.value == reg.bounds.U * reg.bounds.V
        assert res.argmax == (reg.bounds.U, reg.bounds.V)
        assert not res.empty

    def test_constant_singleton_at_p1(self, eq30_spec):
        x1, y1 = equilibrium(eq30_spec)
        res = sup_xy(region_spec(eq30_spec))
        assert not res.empty
        assert res.degenerate
        assert res.value == pytest.approx(x1 * y1, abs=1e-9)

    def test_p2_between_singleton_and_box(self, eq30_spec):
        x1, y1 = equilibrium(eq30_spec)
        bounds = compute_uv(eq30_spec)
        res = sup_xy(region_spec(eq30_spec).at(2.0))
        assert x1 * y1 - 1e-9 <= res.value <= bounds.U * bounds.V + 1e-9

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_matches_grid_refinement_oracle(self, eq30_spec, p):
        reg = region_spec(eq30_spec).at(p)
        res = sup_xy(reg)
        xmax, ymax = envelope(reg)
        ref, _ = grid_supxy(reg, xmax, ymax)
        assert ref is not None
        assert abs(res.value - ref) <= 1e-4 * ref

    def test_argmax_is_member(self, eq30_spec):
        for p in (1.5, 2.0, 4.0, 10.0):
            reg = region_spec(eq30_spec).at(p)
            res = sup_xy(reg)
            assert min(res.argmax) > 0 and cp_slack(reg, *res.argmax) >= -1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0, 10.0, 100.0])
    def test_figure_parameters_nonempty_and_bounded(self, p):
        reg = figure_region(p)
        res = sup_xy(reg)
        assert not res.empty
        xmax, ymax = envelope(reg)
        assert 0 < res.value <= xmax * ymax
        assert res.argmax[0] <= xmax + 1e-9
        assert res.argmax[1] <= ymax + 1e-9

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 10.0])
    def test_huge_growth_ends(self, p):
        # abar = 1e308: the old bisection midpoint (inside + end) / 2
        # overflowed to inf and never met its tolerance
        res = sup_xy(region_spec(const_spec(1e308, 1, 0.0051, 2.0203, 0.9898, 2)).at(p))
        assert not res.empty
        assert res.value == math.inf

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_overflowing_x_range_is_unbounded(self, p):
        reg = region_spec(const_spec(1e308, 1e-5, 0.0051, 2.0203, 0.9898, 2)).at(p)
        assert reg.bounds.U == math.inf
        res = sup_xy(reg)
        assert not res.empty
        assert res.value == math.inf
        assert all(math.isnan(v) for v in res.argmax)

    def test_point_on_the_y_axis(self):
        # every coefficient 1 at p = 1: the gap -2x is widest at x = 0, an
        # end that the golden search never evaluates; it stopped 2.6e-14
        # inside and gave sup xy = 2.6e-14 at (2.6e-14, 1)
        reg = region_spec(const_spec(1, 1, 1, 1, 1, 1))
        res = sup_xy(reg)
        assert not res.empty and res.degenerate
        assert res.value == 0.0
        assert res.argmax == (0.0, 1.0)
        lin = sup_linear(reg)
        assert (lin.value, lin.argmax) == (1.0, (0.0, 1.0))

    @pytest.mark.parametrize("dbar, point", [
        # lo_d(0) = 1 + 1e-12 lies above top_a(0) = 1: the slice at x = 0
        # is 1e-12 short of closing, on the y axis
        (1.0 + 1e-12, (0.0, 1.0000000000005)),
        # top_d(1) = -1e-12 lies below y = 0, where top_a meets it: the
        # slice at x = 1 is 1e-12 short of closing, on the x axis
        (-1.0 - 1e-12, (1.0, 0.0)),
    ])
    def test_touching_point_on_an_axis(self, dbar, point):
        # the quadrant is closed for a touching point as for any region;
        # the open rule made the second region empty
        reg = RegionSpec(p=1.0, abar=1.0, dbar=dbar, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.0,
                         e_min=1.0, e_max=1.0, f_min=1.0, f_max=1.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        res, lin = sup_xy(reg), sup_linear(reg)
        assert not res.empty and res.degenerate
        assert res.argmax == lin.argmax == pytest.approx(point, rel=1e-15, abs=0)
        assert res.value == 0.0
        assert lin.value == point[0] + point[1]

    @pytest.mark.parametrize("s", [1e-4, 1.0, 1e4])
    def test_band_is_in_units_of_y(self, s):
        # the touching point (0, 1) of the first region above with y
        # measured in units of 1/s: the flags must not change with the unit,
        # as they did while the band was 1e-9*(1 + |abar| + |dbar|), for
        # which the gap -1e-8 at s = 1e4 read empty
        reg = RegionSpec(p=1.0, abar=1.0, dbar=1.0 + 1e-12, b_min=1.0, b_max=1.0,
                         c_min=1.0 / s, c_max=1.0 / s, e_min=1.0, e_max=1.0,
                         f_min=1.0 / s, f_max=1.0 / s, bounds=RegionBounds(U=1.0, V=2.0 * s))
        for res in (sup_xy(reg), sup_linear(reg)):
            assert not res.empty and res.degenerate
            assert res.argmax[0] == 0.0
            assert res.argmax[1] == pytest.approx(s * (1.0 + 5e-13), rel=1e-12)

    def test_supremum_at_a_corner_is_exact(self):
        # the p = 1 region of analyze_trig/1/0 of the benchmark generator:
        # sup xy lies at the corner where top_a meets lo_d; a search along
        # the top that nears the corner from inside only gives the lower
        # bound 0.005329883133938582, 2.2e-11 below it
        reg = RegionSpec(p=1.0, abar=1.707722829, dbar=1.287000884,
                         b_min=1.6246568502727807, b_max=2.320348565727219,
                         c_min=1.0446977540824651, c_max=1.3344674959175347,
                         e_min=0.5685410871186968, e_max=0.9020991288813033,
                         f_min=0.535815779392935, f_max=0.7909201486070649,
                         bounds=RegionBounds(U=1.1203534545201643, V=5.188619162058358))
        res = sup_xy(reg)
        assert res.value >= 0.005329883133938582
        x = ((reg.abar / reg.c_min - reg.dbar / reg.f_max)
             / (reg.e_min / reg.f_max + reg.b_min / reg.c_min))
        y = (reg.dbar + reg.e_min * x) / reg.f_max
        assert res.argmax == pytest.approx((x, y), rel=1e-13)
        assert res.value == pytest.approx(x * y, rel=1e-13)

    def test_empty_region_flagged(self):
        res = sup_xy(region_spec(const_spec(-1, 1, 1, -1, 1, 1)).at(2.0))
        assert res.empty
        assert res.value == 0.0


class TestSupLinear:
    def test_demo_singleton(self, eq30_spec):
        x1, y1 = equilibrium(eq30_spec)
        reg1 = region_spec(eq30_spec)
        res = sup_linear(reg1)
        assert res.value == pytest.approx(1.0 * x1 + 2.0 * y1, abs=1e-9)

    def test_interval_region_linear_solve(self):
        # b_L = b_M etc. so the p = 1 region is the segment point (1, 2)
        spec = const_spec(3, 1, 1, 1, 1, 1)
        reg1 = region_spec(spec)
        res = sup_linear(reg1)
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.argmax[0] == pytest.approx(1.0, abs=1e-6)
        assert res.argmax[1] == pytest.approx(2.0, abs=1e-6)

    def test_empty_region(self):
        reg1 = region_spec(const_spec(-1, 1, 1, -1, 1, 1))
        res = sup_linear(reg1)
        assert res.empty

    def test_matches_grid_oracle_on_spread_region(self):
        reg = figure_region(2.0)
        res = sup_linear(reg)
        xmax, ymax = envelope(reg)
        ref, _ = grid_refine_max(reg, lambda x, y: 2.0 * x + 2.0 * y, xmax, ymax)
        assert abs(res.value - ref) <= 1e-4 * abs(ref)


class TestBoundaryPoints:
    def test_demo_p2_counts_and_residuals(self, eq30_spec):
        reg = region_spec(eq30_spec).at(2.0)
        pts = boundary_points(reg, 100)
        assert not sup_xy(reg).empty
        assert len(pts) == 400
        labels = {lab for lab, _, _ in pts}
        assert labels == {"a_lower", "a_upper", "d_lower", "d_upper"}
        for lab, x, y in pts:
            assert boundary_residual(reg, lab, x, y) <= 1e-9

    def test_residuals_against_raw_forms(self, eq30_spec):
        reg = region_spec(eq30_spec).at(2.0)
        pts = boundary_points(reg, 50)
        U, V, p = reg.bounds.U, reg.bounds.V, reg.p
        for lab, x, y in pts:
            if lab == "a_lower":
                val = reg.b_min * U ** (1 - p) * x ** p + reg.c_min * V ** (1 - p) * y ** p
                assert val == pytest.approx(reg.abar, abs=1e-9)
            elif lab == "d_upper":
                val = -reg.e_min * U ** (1 - p) * x ** p + reg.f_max * y
                assert val == pytest.approx(reg.dbar, abs=1e-9)

    def test_box_corner_present_at_p_inf(self, eq30_spec):
        reg = region_spec(eq30_spec).at(INF)
        pts = boundary_points(reg, 11)
        corner = (reg.bounds.U, reg.bounds.V)
        hits = [pt for _, x, y in pts for pt in [(x, y)] if pt == corner]
        assert len(hits) >= 2  # end of one edge, start of the other

    def test_figure_parameters_form_bounded_curves(self):
        reg = figure_region(1.0)
        pts = boundary_points(reg, 64)
        assert not sup_xy(reg).empty
        xs = [x for _, x, _ in pts]
        ys = [y for _, y, _ in pts]
        assert max(xs) <= envelope(reg)[0] + 1e-12
        assert min(xs) >= 0 and min(ys) >= 0
        for lab, x, y in pts:
            assert boundary_residual(reg, lab, x, y) <= 1e-9

    def test_clipped_curves_keep_full_count(self, classical_spec):
        # negative mean of d clips two curves at y = 0; each still carries
        # n samples on its admissible range
        reg = region_spec(classical_spec).at(2.0)
        pts = boundary_points(reg, 40)
        counts = {}
        for lab, x, y in pts:
            counts[lab] = counts.get(lab, 0) + 1
            assert y >= 0.0
            assert boundary_residual(reg, lab, x, y) <= 1e-9
        assert counts == {"a_lower": 40, "a_upper": 40, "d_lower": 40, "d_upper": 40}

    def test_needs_two_samples(self, eq30_spec):
        with pytest.raises(ValueError):
            boundary_points(region_spec(eq30_spec).at(2.0), 1)


class TestOracleAgreement:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 10.0])
    def test_figure_region_supxy_vs_oracle(self, p):
        reg = figure_region(p)
        res = sup_xy(reg)
        xmax, ymax = envelope(reg)
        ref, _ = grid_supxy(reg, xmax, ymax)
        assert abs(res.value - ref) <= 1e-4 * ref

    def test_oracle_follows_flat_maximum(self):
        # the best first sample lies far along the circle from the maximum
        xmax, ymax = envelope(UNIT_DISK)
        ref, _ = grid_refine_max(UNIT_DISK, lambda x, y: x + y, xmax, ymax, n=300)
        assert ref == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_oracle_reaches_thin_corner(self):
        # p = 1 triangle (3/4, 0), (5/7, 1/28), (~0.7128, ~0.0355), far thinner
        # than the first grid; x*y peaks at the corner (5/7, 1/28)
        reg = RegionSpec(p=1.0, abar=0.75, dbar=-0.5, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.05,
                         e_min=0.5, e_max=1.0, f_min=6.0, f_max=6.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        xmax, ymax = envelope(reg)
        ref, _ = grid_refine_max(reg, lambda x, y: x * y, xmax, ymax, n=300)
        assert ref == pytest.approx(5.0 / 7.0 / 28.0, rel=1e-6)

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

    @pytest.mark.parametrize("U, V", [(-1.0, 1.0), (0.0, 1.0), (1.0, -1.0), (1.0, 0.0)])
    def test_envelope_of_nonpositive_bounds_is_empty(self, U, V):
        # for p > 1 the constraints take powers of x/U and y/V, which are not
        # real for U or V <= 0: the region is empty, not an error
        reg = RegionSpec(p=2.0, abar=1.0, dbar=0.5, b_min=1.0, b_max=2.0,
                         c_min=1.0, c_max=2.0, e_min=1.0, e_max=2.0,
                         f_min=1.0, f_max=2.0, bounds=RegionBounds(U, V))
        assert envelope(reg) == (0.0, 0.0)
        assert sup_xy(reg).empty


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


def _largest_term(region, label, x, y):
    """Largest modulus among the terms of the labeled curve's defining
    equality at the samples (x, y); only that curve's powers are taken."""
    p, U, V = region.p, region.bounds.U, region.bounds.V
    if p == INF:
        return np.broadcast_to(U if label == "x_equals_U" else V, x.shape)

    def power(z, scale):
        return z if p == 1.0 else scale * (z / scale) ** p

    terms = {"a_lower": lambda: (region.abar, region.b_min * power(x, U), region.c_min * power(y, V)),
             "a_upper": lambda: (region.abar, region.b_max * x, region.c_max * y),
             "d_lower": lambda: (region.dbar, region.e_max * x, region.f_min * power(y, V)),
             "d_upper": lambda: (region.dbar, region.e_min * power(x, U), region.f_max * y)}[label]()
    return np.max(np.abs(np.broadcast_arrays(*terms)), axis=0)


@st.composite
def constant_regions(draw):
    """Regions of constant systems at finite p: coefficient magnitudes
    log-uniform in [1e-3, 1e3], d of either sign."""
    a, b, c, d, e, f = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(6))
    d = draw(st.sampled_from([d, -d]))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0, 200.0]))
    return region_spec(const_spec(a, b, c, d, e, f)).at(p)


def _residual_bound(reg):
    """Relative bound on a sample's residual.  A sample is a rounded x and
    y, and the equality raises one of them to the power p, which multiplies
    their relative error by p."""
    return 4.0 * (1.0 if reg.p == INF else reg.p + 1.0) * np.finfo(float).eps


def _assert_matches_per_sample_loop(reg):
    """boundary_points warns of nothing, clamps y at 0, keeps the labels and
    x values of the per-sample loop, and each sample lies on its curve."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pts = boundary_points(reg, 256)
    assert all(y >= 0.0 for _, _, y in pts)
    assert [(lab, x) for lab, x, _ in pts] == [
        (lab, x) for lab, x, _ in boundary_points_loop(reg, 256)]
    # y is compared by residual: where a curve meets y = 0, the root
    # y = V*base**(1/p) turns one ulp of its base into many of y
    bound = _residual_bound(reg)
    for label in {lab for lab, _, _ in pts}:
        x = np.array([x for lab, x, _ in pts if lab == label])
        y = np.array([y for lab, _, y in pts if lab == label])
        residual = boundary_residual(reg, label, x, y)
        assert np.all(residual <= bound * _largest_term(reg, label, x, y))


class TestBoundaryPointsProperty:
    @given(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6), st.booleans(),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0, 200.0, INF]))
    # a = b = f = 1, c = d = e = 1e-3 at p = 200: V = 0.002 and the a_upper
    # sample at x = 0 has y = 1000, so (y/V)**200 overflows in constraint (1),
    # which the residual of that sample does not take
    @example([0.0, 0.0, -3.0, -3.0, -3.0, 0.0], False, 200.0)
    # every coefficient 1 and dbar = -1 at p = 1: d_upper runs from x = 1 to
    # xmax = 1, a range of zero width beside three of width 1
    @example([0.0] * 6, True, 1.0)
    @settings(max_examples=150, deadline=None)
    def test_constant_systems_match_per_sample_loop(self, exponents, dbar_negative, p):
        # coefficient magnitudes log-uniform in [1e-3, 1e3]
        a, b, c, d, e, f = (10.0 ** k for k in exponents)
        _assert_matches_per_sample_loop(
            region_spec(const_spec(a, b, c, -d if dbar_negative else d, e, f)).at(p))

    @given(regions().filter(lambda reg: abs(reg.dbar) >= 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_spread_regions_match_per_sample_loop(self, reg):
        # Coefficient spreads tell the min and max of each coefficient apart,
        # and e may vanish.  At x = 0 the d curves take dbar**(1/p), whose
        # error from the rounded 1/p grows with |log dbar|, so |dbar| keeps
        # the systems' scale.
        _assert_matches_per_sample_loop(reg)

    @pytest.mark.parametrize("e_min, e_max, dbar, labels", [
        (0.0, 0.0, 0.5, ["a_lower", "a_upper", "d_lower", "d_upper"]),
        (0.0, 0.0, -0.5, ["a_lower", "a_upper"]),
        (0.0, 1.0, -0.5, ["a_lower", "a_upper", "d_lower"]),
    ])
    def test_prey_free_curves_lie_at_nonnegative_y(self, e_min, e_max, dbar, labels):
        # e = 0: a d curve is the constant y = dbar/f_max (lower) or
        # (dbar/f_min)**(1/p) (upper), so it is sampled over all x when
        # dbar >= 0 and lies below y = 0 everywhere when dbar < 0
        reg = RegionSpec(p=2.0, abar=1.0, dbar=dbar, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.0,
                         e_min=e_min, e_max=e_max, f_min=1.0, f_max=1.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        assert sorted({lab for lab, _, _ in boundary_points(reg, 256)}) == labels
        _assert_matches_per_sample_loop(reg)


    @given(st.one_of(regions(), constant_regions()))
    # const_study/1/31 of the benchmark generator: at p = 10 the root of a
    # one-ulp remainder put the last a_lower sample at y = 0.0306, V = 1.184
    @example(region_spec(const_spec(1.805916483, 0.799057708, 1.40746311, 0.809728004,
                                    0.940453761, 2.478435077, T=0.366010467)).at(10.0))
    @settings(max_examples=100, deadline=None)
    def test_a_lower_ends_at_x_ceiling_on_the_axis(self, reg):
        # constraint (1) at y = 0 defines _x_ceiling
        pts = [(x, y) for lab, x, y in boundary_points(reg, 256) if lab == "a_lower"]
        assume(pts)
        assert pts[-1] == (_x_ceiling(reg), 0.0)
        x, y = np.array([pts[-1][0]]), np.array([0.0])
        assert boundary_residual(reg, "a_lower", x, y) <= (
            _residual_bound(reg) * _largest_term(reg, "a_lower", x, y))


class TestCurvesOnArrays:
    @given(regions())
    @settings(max_examples=100, deadline=None)
    def test_array_matches_scalar(self, reg):
        """_curves on an ndarray of x gives what it gives on each float x.

        numpy's vectorised pow may round a few ulp apart from libm's, and a
        top curve is a root V*(base/(coef*V))**(1/p), which turns a few ulp of
        a base near 0 into many of the top.  So the tops are compared through
        their bases sign(top)*|top/V|**p, within a few ulp of the largest term
        of each base, and their signs agree wherever the base is farther than
        that from 0.  The lower curves hold no root and are compared directly.
        """
        xs = np.linspace(0.0, _x_ceiling(reg), 64)
        arrays = np.array(_curves(reg, xs))
        scalars = np.array([_curves(reg, x) for x in xs.tolist()]).T
        assert arrays.shape == scalars.shape == (4, 64)
        if reg.p == 1.0:
            # no power is taken: the same operations on the same doubles
            assert np.array_equal(arrays, scalars)
            return
        p, U, V = reg.p, reg.bounds.U, reg.bounds.V
        ulps = 8.0 * p * np.finfo(float).eps
        powx = U * (xs / U) ** p
        top_a_terms = np.maximum(reg.abar, reg.b_min * powx) / (reg.c_min * V)
        top_d_terms = np.maximum(abs(reg.dbar), reg.e_max * xs) / (reg.f_min * V)
        lo_d_terms = np.maximum(abs(reg.dbar), reg.e_min * powx) / reg.f_max
        assert np.array_equal(arrays[1], scalars[1])
        assert np.all(np.abs(arrays[3] - scalars[3]) <= ulps * lo_d_terms)
        for index, terms in ((0, top_a_terms), (2, top_d_terms)):
            a, s = arrays[index], scalars[index]
            base_a, base_s = np.sign(a) * np.abs(a / V) ** p, np.sign(s) * np.abs(s / V) ** p
            assert np.all(np.abs(base_a - base_s) <= ulps * terms)
            clear = np.abs(base_s) > ulps * terms
            assert np.array_equal(np.signbit(a[clear]), np.signbit(s[clear]))


class TestSupremumProperty:
    @given(regions())
    # a thin p = 1 region under top_d = dbar: at x_c, where top_a meets it,
    # y read from top_a loses ~2.5e-9 to cancellation in abar - b_min*x
    @example(RegionSpec(p=1.0, abar=2.0, dbar=5.960464477539063e-08, b_min=1.0, b_max=2.0,
                        c_min=2.959209119489652, c_max=2.959209119489652, e_min=0.0, e_max=0.0,
                        f_min=1.0, f_max=2.0, bounds=RegionBounds(U=1.0, V=1.0)))
    @settings(max_examples=40, deadline=None)
    def test_suprema_match_grid_oracle(self, reg):
        # A coarse oracle grid only bounds the supremum from below: its best
        # sample can lie far inside a flat maximum or a small region (see the
        # exact cases below).  The bound from above is that the argmax is a
        # member and the value is the objective there.
        xmax, ymax = envelope(reg)
        for res, objective in (
            (sup_xy(reg), lambda x, y: x * y),
            (sup_linear(reg), lambda x, y: reg.b_max * x + reg.f_max * y),
        ):
            ref, _ = grid_refine_max(reg, objective, xmax, ymax, n=300)
            if ref is None:
                continue
            assert not res.empty
            assert res.value >= ref - 1e-12 * abs(ref)
            assert res.value == pytest.approx(objective(*res.argmax), rel=1e-12)
            assert min(res.argmax) > 0 and cp_slack(reg, *res.argmax) >= -1e-9

    def test_flat_maximum_on_unit_disk(self):
        reg = UNIT_DISK
        assert sup_linear(reg).value == pytest.approx(math.sqrt(2.0), rel=1e-12)
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

    def test_undefined_top_is_no_touching_point(self):
        # e = 0 and dbar = -1e-20: top_d is undefined for every x and reads
        # -1e-10.  At the right end x = 10/9 the lower curve (2) is 3e-10, so
        # the widest slice is 4e-10 short of closing: within the touching
        # band, with a positive midpoint, yet constraint (3) holds nowhere
        x_hi = (1.0 / 0.81) ** 0.5
        reg = RegionSpec(p=2.0, abar=1.0, dbar=-1e-20, b_min=0.81, b_max=(1.0 - 3e-10) / x_hi,
                         c_min=1.0, c_max=1.0, e_min=0.0, e_max=0.0, f_min=1.0, f_max=1.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        assert _curves(reg, x_hi)[2] == pytest.approx(-1e-10, rel=1e-12)
        assert sup_xy(reg).empty and sup_linear(reg).empty

    def test_segment_searched_along_its_length(self):
        # b, c constant: constraints (1) and (2) coincide on x + y = 1, cut
        # to 1/2 <= x <= 2/3 by y <= x and y >= x/2
        reg = RegionSpec(p=1.0, abar=1.0, dbar=0.0, b_min=1.0, b_max=1.0, c_min=1.0, c_max=1.0,
                         e_min=1.0, e_max=1.0, f_min=1.0, f_max=2.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        res = sup_xy(reg)
        assert res.degenerate
        assert res.value == pytest.approx(0.25, rel=1e-12)

    def test_narrow_segment_keeps_relative_accuracy(self):
        # e = 0 pins y = dbar; x runs up to (abar - dbar)/b_min = 1/24.  An
        # x tolerance of 1e-13 absolute left x*y 1.6e-12 short of its value.
        dbar = 1.4529129263320746e-135
        reg = RegionSpec(p=1.0, abar=0.125, dbar=dbar, b_min=3.0, b_max=4.0, c_min=1.0,
                         c_max=1.0, e_min=0.0, e_max=0.0, f_min=1.0, f_max=1.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        assert sup_xy(reg).value == pytest.approx((0.125 - dbar) / 3.0 * dbar, rel=1e-13, abs=0)

    def test_small_triangle_corner(self):
        # the two top lines meet at (5/7, 1/28), the corner of a small triangle
        reg = RegionSpec(p=1.0, abar=2.0, dbar=-0.5, b_min=2.75, b_max=2.75, c_min=1.0, c_max=2.0,
                         e_min=0.75, e_max=0.75, f_min=1.0, f_max=2.0,
                         bounds=RegionBounds(U=1.0, V=1.0))
        res = sup_xy(reg)
        assert res.value == pytest.approx(5.0 / 196.0, rel=1e-12)
        assert res.argmax == pytest.approx((5.0 / 7.0, 1.0 / 28.0), rel=1e-9)
