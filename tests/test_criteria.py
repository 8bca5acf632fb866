import dataclasses
import functools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_cases import SUBNORMAL
from conftest import count_calls, const_spec
from oracles import envelope

import pplv.coeffs
import pplv.criteria
import pplv.existence
import pplv.jfunc
import pplv.logistic
import pplv.region
from pplv.cli import parse_config
from pplv.coeffs import PeriodicCoefficient, SystemSpec, stats
from pplv.constant_case import equilibrium, linear_term
from pplv.criteria import (
    GLOBALLY_STABLE_VIA_18_19,
    INCONCLUSIVE,
    NO_COEXISTENCE,
    UNIQUE_ASYMPTOTICALLY_STABLE,
    condition18,
    condition19,
    intertwined_test,
    scan_p,
    unified_lp_test,
    weak_intertwined_test,
)
from pplv.jfunc import INF, conjugate, threshold_p
from pplv.logistic import periodic_logistic
from pplv.region import RegionSpec, compute_uv, region_spec, sup_linear, sup_xy

C = PeriodicCoefficient.constant


class TestConditions1819:
    def test_18_demo(self, eq30_spec):
        res = condition18(eq30_spec)
        assert res.passed
        # the binding side is the lower one: -0.9898 < 2.0203/2.0102
        ratio = 2.0203 / 2.0102
        assert min(ratio - (-0.9898), 2.0 / 0.0051 - ratio) == pytest.approx(
            res.margin, abs=1e-9)

    def test_18_fails_without_positive_mean(self):
        res = condition18(const_spec(-1, 1, 1, -1, 1, 1))
        assert not res.passed
        assert any("not positive" in d for d in res.diagnostics)

    def test_19_demo(self, eq30_spec):
        res = condition19(eq30_spec)
        assert res.passed
        assert res.lhs == pytest.approx(0.0051 / 2.0, abs=1e-12)
        assert res.rhs == pytest.approx(1.0 / 0.9898, abs=1e-12)

    def test_19_strict_at_equality(self):
        res = condition19(const_spec(1, 1, 1, 1, 1, 1))
        assert not res.passed
        assert res.margin == 0.0
        assert "borderline" in res.diagnostics


def unified_reference(sys: SimpleNamespace, p: float) -> float:
    # raw arithmetic for positive constants, given as plain numbers
    T = sys.T
    q = INF if p == 1.0 else (1.0 if math.isinf(p) else p / (p - 1.0))
    normp = lambda g, pp: abs(g) * T ** (1.0 / pp) if not math.isinf(pp) else abs(g)
    alpha_p = normp(sys.a, p) / sys.b
    beta_p = normp(sys.d, p) / sys.f + (sys.e / sys.f) * alpha_p
    alpha_1 = normp(sys.a, 1.0) / sys.b
    beta_1 = normp(sys.d, 1.0) / sys.f + (sys.e / sys.f) * alpha_1
    tq = T ** (1.0 / q)
    return tq * math.sqrt(sys.c * sys.e * alpha_p * beta_p) \
        + 0.5 * (sys.b * alpha_1 + sys.f * beta_1)


class TestUnified:
    def test_demo_p_inf_fails(self, eq30, eq30_spec):
        res = unified_lp_test(eq30_spec, INF)
        assert not res.passed
        assert res.rhs == pytest.approx(math.pi, abs=1e-10)
        assert res.lhs == pytest.approx(unified_reference(eq30, INF), abs=1e-9)
        assert res.lhs == pytest.approx(3.1527360378286602, abs=1e-9)

    def test_demo_short_period_passes(self, eq30):
        sys01 = SimpleNamespace(**{**vars(eq30), "T": 0.1})
        res = unified_lp_test(const_spec(**vars(sys01)), INF)
        assert res.passed
        assert res.lhs == pytest.approx(unified_reference(sys01, INF), abs=1e-9)
        assert res.lhs == pytest.approx(0.315, abs=1e-3)

    def test_degenerate_coupling_dominated_by_linear_term(self, eq30):
        spec = const_spec(**{**vars(eq30), "c": 1e-9})
        res = unified_lp_test(spec, INF)
        alpha_1 = 2.0102
        beta_1 = 2.0203 / 2.0 + (0.9898 / 2.0) * 2.0102
        linear = 0.5 * (1.0 * alpha_1 + 2.0 * beta_1)
        assert res.lhs - linear == pytest.approx(0.0, abs=1e-4)
        assert res.lhs - linear > 0.0  # sqrt term present but tiny


class TestIntertwined:
    def test_demo_p_inf(self, eq30, eq30_spec):
        res = intertwined_test(eq30_spec, INF)
        x1, y1 = equilibrium(eq30_spec)
        bounds = compute_uv(eq30_spec)
        ref = 1.0 * (math.sqrt(eq30.c * eq30.e * bounds.U * bounds.V)
                     + 0.5 * (eq30.b * x1 + eq30.f * y1))
        assert not res.passed
        assert res.lhs == pytest.approx(ref, abs=1e-6)
        assert res.rhs == pytest.approx(math.pi, abs=1e-10)
        assert -res.margin == pytest.approx(ref - math.pi, abs=1e-6)

    def test_demo_p1(self, eq30, eq30_spec):
        res = intertwined_test(eq30_spec, 1.0)
        x1, y1 = equilibrium(eq30_spec)
        ref = math.sqrt(eq30.c * eq30.e * x1 * y1) + linear_term(eq30_spec)
        assert not res.passed
        assert res.rhs == 2.0
        assert res.lhs == pytest.approx(ref, abs=1e-6)

    def test_demo_short_period_passes(self, eq30_spec_t01):
        res = intertwined_test(eq30_spec_t01, INF)
        assert res.passed
        assert res.lhs == pytest.approx(0.31425883108894374, abs=1e-6)

    def test_vacuous_flag_without_coexistence(self):
        spec = const_spec(2.0102, 1.0, 0.0051, -10.0, 0.9898, 2.0)
        res = intertwined_test(spec, 2.0)
        assert any("vacuous" in d for d in res.diagnostics)

    def test_empty_region_is_vacuous_pass(self):
        spec = const_spec(-1, 1, 1, -1, 1, 1)
        res = intertwined_test(spec, 2.0)
        assert res.passed
        assert any("empty region" in d for d in res.diagnostics)


class TestWeakIntertwined:
    def test_p_inf_equals_box_formula(self, eq30, eq30_spec):
        res = weak_intertwined_test(eq30_spec, INF)
        bounds = compute_uv(eq30_spec)
        U, V = bounds.U, bounds.V
        ref = math.sqrt(eq30.c * eq30.e * U * V) + 0.5 * (eq30.b * U + eq30.f * V)
        assert res.lhs == pytest.approx(ref, abs=1e-12)
        assert not res.passed

    def test_weak_dominates_intertwined_at_p_inf(self, eq30_spec, classical_spec,
                                                 perturbed_spec):
        for spec in (eq30_spec, classical_spec, perturbed_spec):
            weak = weak_intertwined_test(spec, INF)
            tight = intertwined_test(spec, INF)
            assert weak.lhs >= tight.lhs - 1e-12

    def test_unified_equals_weak_at_p_inf_for_constants(self, eq30_spec):
        uni = unified_lp_test(eq30_spec, INF)
        weak = weak_intertwined_test(eq30_spec, INF)
        assert uni.lhs == pytest.approx(weak.lhs, abs=1e-12)

    def test_unified_equals_weak_randomized_positive_constants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, d = rng.uniform(0.1, 3.0, size=2)
            b, c, e, f = rng.uniform(0.1, 3.0, size=4)
            T = rng.uniform(0.2, 2.0)
            spec = const_spec(a, b, c, d, e, f, T=T)
            uni = unified_lp_test(spec, INF)
            weak = weak_intertwined_test(spec, INF)
            assert uni.lhs == pytest.approx(weak.lhs, rel=1e-12)


class TestEndpointConsistency:
    def test_intertwined_p1_equals_direct_evaluation(self, eq30_spec):
        res = intertwined_test(eq30_spec, 1.0)
        reg1 = region_spec(eq30_spec)
        b_max = stats(eq30_spec.b, 1.0).maximum
        f_max = stats(eq30_spec.f, 1.0).maximum
        c_max = stats(eq30_spec.c, 1.0).maximum
        e_max = stats(eq30_spec.e, 1.0).maximum
        # sup_linear maximizes b_max*x + f_max*y with the region's own maxima
        assert (reg1.b_max, reg1.f_max) == (b_max, f_max)
        direct = 1.0 * (math.sqrt(c_max * e_max * sup_xy(reg1).value)
                        + 0.5 * sup_linear(reg1).value)
        assert res.lhs == pytest.approx(direct, abs=1e-12)
        assert res.rhs == 2.0

    def test_weak_p_inf_equals_box_formula_perturbed(self, perturbed_spec):
        res = weak_intertwined_test(perturbed_spec, INF)
        bounds = compute_uv(perturbed_spec)
        c_max = stats(perturbed_spec.c, 1.0).maximum
        e_max = stats(perturbed_spec.e, 1.0).maximum
        b_max = stats(perturbed_spec.b, 1.0).maximum
        f_max = stats(perturbed_spec.f, 1.0).maximum
        ref = math.sqrt(c_max * e_max * bounds.U * bounds.V) \
            + 0.5 * (b_max * bounds.U + f_max * bounds.V)
        assert res.lhs == pytest.approx(ref, abs=1e-12)


class TestScaling:
    def test_lhs_scales_linearly_with_period(self, eq30_spec):
        base = intertwined_test(eq30_spec, INF)
        for s in (0.5, 0.1):
            scaled = dataclasses.replace(eq30_spec, T=s * eq30_spec.T)
            res = intertwined_test(scaled, INF)
            assert res.lhs == pytest.approx(s * base.lhs, rel=1e-9)
            assert res.rhs == base.rhs

    def test_pass_monotone_in_scale(self, eq30_spec):
        passed = []
        for s in (1.0, 0.5, 0.1):
            scaled = dataclasses.replace(eq30_spec, T=s)
            passed.append(intertwined_test(scaled, INF).passed)
        assert passed == [False, True, True]
        assert sorted(passed) == passed  # once passing, stays passing as T shrinks


class TestScanP:
    def test_demo_conclusion_is_global_stability(self, eq30_spec):
        report = scan_p(eq30_spec, [1.0, 2.0, INF])
        assert report.conclusion == GLOBALLY_STABLE_VIA_18_19
        assert [(r.name, r.passed) for r in report.results[:2]] == [
            ("condition18", True), ("condition19", True)]
        inter = [r for r in report.results if r.name == "intertwined"]
        assert len(inter) == 3
        assert all(not r.passed for r in inter)

    def test_short_period_gives_unique_stable(self, eq30_spec_t01):
        # knock out condition 19 so the exponent tests decide:
        # (b/e)_L = 0.8/0.9898 < 1 is still > (c/f)_M = 0.00255 -- instead
        # verify priority explicitly below; here conclusion via any-lp-pass
        report = scan_p(eq30_spec_t01, [INF])
        assert report.conclusion == GLOBALLY_STABLE_VIA_18_19
        assert report.best_p == INF

    def test_lp_pass_without_1819(self):
        # constants engineered so (19) fails but the short period passes lp
        spec = const_spec(1.0, 1.0, 1.0, 0.5, 1.0, 1.0, T=0.05)
        r19 = condition19(spec)
        assert not r19.passed
        report = scan_p(spec, [INF])
        assert report.conclusion == UNIQUE_ASYMPTOTICALLY_STABLE
        assert report.best_p == INF

    def test_no_coexistence_conclusion(self):
        spec = const_spec(2.0102, 1.0, 0.0051, -10.0, 0.9898, 2.0)
        report = scan_p(spec, [1.0, 2.0])
        assert report.conclusion == NO_COEXISTENCE

    def test_inconclusive(self):
        # coexistence exists, (19) fails, and T is too long for any lp pass
        spec = const_spec(1.0, 1.0, 1.0, 0.5, 1.0, 1.0, T=5.0)
        report = scan_p(spec, [1.0, 2.0, INF])
        assert report.conclusion == INCONCLUSIVE
        assert report.best_p is None

    def test_empty_grid_rejected(self, eq30_spec):
        with pytest.raises(ValueError):
            scan_p(eq30_spec, [])


def test_huge_conjugate_exponent_flagged(eq30_spec):
    # p barely above 1 conjugates to q > 1e6; the threshold is evaluated
    # there like anywhere else, so nothing is flagged
    p = 1.0 + 1e-7
    res = unified_lp_test(eq30_spec, p)
    assert conjugate(p) > 1e6
    assert res.rhs == threshold_p(p)
    assert res.diagnostics == ()


TRIG = PeriodicCoefficient.trig

# Integrating |coef|**p unscaled made ||a||_p underflow to 0 here for
# p >= 1500, which turned the failing unified test into a pass and the
# verdict into unique_asymptotically_stable.
LARGE_P_FLIP = SystemSpec(T=2.0, a=TRIG(0.5, [(1, 0.0, 0.05)]), b=C(0.3), c=C(0.3),
                          d=TRIG(0.5, [(1, 0.05, 0.0)]), e=C(1.0), f=C(1.0))

# Seeded trig system whose coefficients exceed 1: ||d||_p overflowed to inf.
LARGE_P_OVERFLOW = SystemSpec(
    T=0.110731877,
    a=TRIG(1.707722829, [(1, -0.176935739, 0.113960732)]),
    b=TRIG(1.972502708, [(3, 0.065950893, 0.341536558)]),
    c=TRIG(1.189582625, [(3, -0.060217006, 0.131778367)]),
    d=TRIG(1.287000884, [(3, -0.44546238, 0.500729287)]),
    e=TRIG(0.735320108, [(4, 0.055839981, -0.157153232)]),
    f=TRIG(0.663367964, [(2, -0.060017453, -0.112549834)]))


class TestLargeP:
    @pytest.mark.parametrize("p", [1000.0, 2000.0, 1e4, INF])
    def test_verdict_does_not_flip(self, p):
        report = scan_p(LARGE_P_FLIP, [p])
        assert report.conclusion == INCONCLUSIVE
        unified = next(r for r in report.results if r.name == "unified_lp")
        assert unified.margin == pytest.approx(-1.81, abs=0.01)

    def test_no_overflow_above_one(self):
        res = unified_lp_test(LARGE_P_OVERFLOW, 2000.0)
        assert math.isfinite(res.lhs) and math.isfinite(res.margin)
        assert res.lhs == pytest.approx(unified_lp_test(LARGE_P_OVERFLOW, INF).lhs, rel=1e-2)


def _harmonics(draw, amplitude):
    ks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    weights = [draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))) for _ in ks]
    scale = amplitude / max(sum(abs(c) + abs(s) for c, s in weights), 1e-12)
    return [(k, c * scale, s * scale) for k, (c, s) in zip(ks, weights)]


@st.composite
def trig_systems(draw):
    """Random 1-3-harmonic trig systems; b, c, e, f stay above 0.2*c0."""
    def positive():
        c0 = draw(st.floats(0.5, 2.0))
        return TRIG(c0, _harmonics(draw, draw(st.floats(0.0, 0.8)) * c0))
    T = math.exp(draw(st.floats(math.log(0.1), math.log(3.0))))
    # The p-region reaches the p = inf box at the rate |log(abar/U)|/p, which
    # is ~7e-4 at p = 1e6 for abar = 1e-290; means of a within 1e-6 of zero
    # are covered by TestTinyMean instead.
    abar = draw(st.floats(-1.0, -1e-6) | st.floats(1e-6, 3.0))
    a = TRIG(abar, _harmonics(draw, draw(st.floats(0.0, 3.0))))
    d = TRIG(draw(st.floats(-1.5, 1.5)), _harmonics(draw, draw(st.floats(0.0, 2.0))))
    return SystemSpec(T=T, a=a, b=positive(), c=positive(), d=d, e=positive(), f=positive())


class TestExponentContinuity:
    """Margins are finite and continuous in p, up to p = inf.

    Near p = 1 each power U*(x/U)**p = x*(x/U)**(p - 1) moves by about
    (p - 1)*x*|log(x/U)|, so the region and both its suprema move by
    ~1e-9*|log(x/U)| times their size.  The unified lhs and the linear
    supremum L of the other two follow that directly: a move within 1e-7
    times max(1, |lhs|).  The x*y supremum S enters the intertwined lhs
    T*(sqrt(ce*S) + L/2) through a root, whose slope is unbounded where S
    vanishes: where the p = 1 region is a point on the y axis, S grows
    from 0 to about (p - 1)*ln(2)/2 (every coefficient 1), and the lhs by
    ~sqrt(0.35*(p - 1)) = 1.9e-5.  S moves by at most 1e-7 times
    max(1, xmax*ymax), the size of the region's envelope, which bounds the
    move of a = ce*S by some d.  For |D| <= d, sqrt(a + D) - sqrt(a) is at
    most sqrt(d), and at most d/sqrt(a), so at most d/sqrt(max(a, d)); the
    intertwined margins may move by T times that besides.

    At large p the margins move by ~log(p)/p times the lhs (||f||_p
    approaches max|f| at that rate), so that tolerance is relative to
    max(1, |lhs|).
    """

    @given(trig_systems())
    # T * mean(d) = 1.8e-324 rounds to 0 (a math domain error in the
    # predator-only logistic state)
    @example(parse_config(SUBNORMAL))
    # every coefficient 1: the p = 1 region is the point (0, 1), and the
    # intertwined margins move by 1.9e-5 at p = 1 + 1e-9
    @example(SystemSpec(T=1.0, **dict.fromkeys("abcdef", TRIG(1.0, [(1, 0.0, 0.0)]))))
    @settings(max_examples=40, deadline=None)
    def test_margins_finite_and_continuous(self, spec):
        grid = [1.0, 1.0 + 1e-9, 2.0, 1e3, 1e6, INF]
        report = scan_p(spec, grid)
        res = {(r.name, r.p): r for r in report.results}
        assert all(math.isfinite(r.margin) and math.isfinite(r.lhs) for r in report.results)
        region1 = region_spec(spec)
        nonempty = not (sup_xy(region1.at(1e6)).empty or sup_xy(region1.at(INF)).empty)
        ce = region1.c_max * region1.e_max
        d = ce * 1e-7 * max(1.0, math.prod(envelope(region1)))
        a = ce * sup_xy(region1).value
        root_move = spec.T * d / math.sqrt(max(a, d))
        for name in ("unified_lp", "intertwined", "weak_intertwined"):
            at1, near1 = res[name, 1.0], res[name, 1.0 + 1e-9]
            tol = 1e-7 * max(1.0, abs(at1.lhs)) + (0.0 if name == "unified_lp" else root_move)
            assert near1.margin == pytest.approx(at1.margin, abs=tol)
            if name == "unified_lp" or nonempty:
                big, inf = res[name, 1e6], res[name, INF]
                assert big.margin == pytest.approx(inf.margin, abs=1e-4 * max(1.0, abs(inf.lhs)))


def test_intertwined_at_a_point_region_on_the_y_axis():
    # every coefficient 1: the p = 1 region is the point (0, 1), so
    # sup xy = 0, the linear supremum is 1 and the lhs is T * (0 + 1/2)
    report = scan_p(const_spec(1, 1, 1, 1, 1, 1), (1.0,))
    lhs = {res.name: res.lhs for res in report.results}
    assert lhs["intertwined"] == lhs["weak_intertwined"] == 0.5


class TestTinyMean:
    """mean(a) many orders below the amplitude of a.

    The logistic state took A(T) from the antiderivative, whose sin(2*pi)
    rounds to ~1e-16: for T * mean(a) below that, the sign flipped and the
    state came out negative (ValueError).
    """

    @pytest.mark.parametrize("abar", [2e-290, 1e-17, 1e-6])
    def test_scan_is_finite(self, abar):
        spec = SystemSpec(T=1.0, a=TRIG(abar, [(1, 1.0, 0.0)]), b=C(1.0), c=C(1.0),
                          d=C(0.0), e=C(1.0), f=C(1.0))
        report = scan_p(spec, [1.0, 2.0, 1e6, INF])
        assert np.min(periodic_logistic(spec.a, spec.b, spec.T).values) > 0
        assert all(math.isfinite(r.margin) for r in report.results)
        # the p-region approaches the box at the rate |log(abar/U)| / p
        big = next(r for r in report.results if r.name == "intertwined" and r.p == 1e6)
        inf = next(r for r in report.results if r.name == "intertwined" and r.p == INF)
        assert abs(big.lhs - inf.lhs) <= 2.0 * abs(math.log(abar)) / 1e6 * inf.lhs


GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, INF)


@pytest.fixture(scope="module")
def two_harmonic_spec():
    """All-trig system with two harmonics and a coexistence state."""
    return SystemSpec(T=1.5, a=TRIG(1.5, [(1, 0.4, 0.1), (2, 0.0, 0.3)]),
                      b=TRIG(1.0, [(1, 0.2, 0.0)]), c=TRIG(0.6, [(2, 0.0, 0.1)]),
                      d=TRIG(0.4, [(1, 0.1, 0.2), (2, 0.15, 0.0)]),
                      e=TRIG(0.8, [(1, 0.0, 0.2)]), f=TRIG(1.2, [(2, 0.3, 0.1)]))


def evaluations_per_lp_norm(monkeypatch) -> list[int]:
    """Count the PeriodicCoefficient.evaluate calls made inside each
    lp_norm call; one entry per lp_norm call, in call order."""
    per_call: list[int] = []
    running: list[int] = []  # the index of the lp_norm call in progress
    evaluate, lp_norm = PeriodicCoefficient.evaluate, pplv.coeffs.lp_norm

    def counting_evaluate(self, T, t):
        if running:
            per_call[running[-1]] += 1
        return evaluate(self, T, t)

    def counting_lp_norm(coef, T, ps):
        running.append(len(per_call))
        per_call.append(0)
        try:
            return lp_norm(coef, T, ps)
        finally:
            running.pop()

    monkeypatch.setattr(PeriodicCoefficient, "evaluate", counting_evaluate)
    for mod in (pplv.coeffs, pplv.criteria):
        monkeypatch.setattr(mod, "lp_norm", counting_lp_norm)
    return per_call


def region_work(monkeypatch) -> tuple[Counter, Counter]:
    """Count, by exponent, the slice searches (computations of the cached
    ``RegionSpec._slices``) and the ``region._curves`` evaluations."""
    searches: Counter = Counter()
    curves: Counter = Counter()
    slices, evaluate = RegionSpec._slices.func, pplv.region._curves

    def counting_slices(region):
        searches[region.p] += 1
        return slices(region)

    def counting_curves(region, x):
        curves[region.p] += 1
        return evaluate(region, x)

    prop = functools.cached_property(counting_slices)
    prop.__set_name__(RegionSpec, "_slices")
    monkeypatch.setattr(RegionSpec, "_slices", prop)
    monkeypatch.setattr(pplv.region, "_curves", counting_curves)
    return searches, curves


def companion_stacks(monkeypatch) -> list[int]:
    """Count the stacked eigenvalue solves: one entry per np.linalg.eigvals
    call, the number of companion matrices it solved."""
    stacks: list[int] = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(a):
        stacks.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    return stacks


def test_scan_p_computes_each_per_system_quantity_once(monkeypatch, two_harmonic_spec):
    # a new system, whose ratio pairs and bounds are not solved yet
    spec = dataclasses.replace(two_harmonic_spec)
    stacks = companion_stacks(monkeypatch)
    searches, curves = region_work(monkeypatch)
    counts = count_calls(monkeypatch, {
        "classify_boundary": pplv.existence.classify_boundary,
        "periodic_logistic": pplv.logistic.periodic_logistic,
        "region_spec": pplv.region.region_spec,
        "sup_xy": pplv.region.sup_xy,
        "threshold_p": pplv.jfunc.threshold_p,
    })
    evaluations = evaluations_per_lp_norm(monkeypatch)
    report = scan_p(spec, GRID)
    assert report.classification.coexistence_exists
    assert counts["classify_boundary"] == 1
    # one lp_norm call each for a and d, which finds the zeros of the
    # coefficient and of its derivative once for the whole grid
    grid_counts = list(evaluations)
    assert len(grid_counts) == 2
    # the extrema of b, c, e and f were found when the system was built, and
    # no ratio solves its denominator's again.  9 companion problems: 2 per
    # lp_norm call (the zeros of the coefficient and of its derivative), 3
    # for U, V and 2 for conditions 18/19, where f/c reads the times of c/f
    # and e/b those of b/e.  Each call stacks the problems of one size:
    # U, V and each lp_norm call take one, 18/19 two (sizes 4 and 2)
    assert sum(stacks) == 9
    assert len(stacks) == 5
    assert counts["periodic_logistic"] <= 2
    assert counts["region_spec"] == 1
    assert counts["sup_xy"] == len(GRID)
    assert counts["threshold_p"] == len(GRID)
    # one search of each region, shared by both suprema
    assert searches == Counter(GRID)
    # each finite-p region's slices and both suprema take a few scalar roots
    # and closed forms, not a search along x
    assert set(curves) == {p for p in GRID if p != INF}
    assert max(curves.values()) <= 30
    # each lp_norm call evaluates its coefficient once for the extrema, once
    # at the quadrature midpoints and the first 5 levels together, and once
    # per further level for every exponent at once: no more often than its
    # slowest exponent alone, and at most 5 times
    for coef, grid_count in zip((two_harmonic_spec.a, two_harmonic_spec.d), grid_counts):
        del evaluations[:]
        for p in GRID:
            pplv.coeffs.lp_norm(coef, two_harmonic_spec.T, (p,))
        assert grid_count <= max(evaluations)
        assert grid_count <= 2 + len(pplv.coeffs._TS_RULES) - pplv.coeffs._TS_FIRST_LEVELS == 5


@pytest.mark.parametrize("name", ["two_harmonic_spec", "eq30_spec", "classical_spec",
                                  "saddle_spec", "eq30_spec_t01"])
def test_public_tests_equal_scan_results(request, name):
    spec = request.getfixturevalue(name)
    report = scan_p(spec, GRID)
    by_key = {(res.name, res.p): res for res in report.results}
    for p in GRID:
        assert unified_lp_test(spec, p) == by_key["unified_lp", p]
        assert intertwined_test(spec, p) == by_key["intertwined", p]
        assert weak_intertwined_test(spec, p) == by_key["weak_intertwined", p]


def test_region_at_changes_only_p(two_harmonic_spec):
    region1 = region_spec(two_harmonic_spec)
    assert region1.p == 1.0
    assert region1.at(1.0) is region1
    for p in GRID:
        assert region1.at(p).p == p
        assert dataclasses.replace(region1.at(p), p=1.0) == region1
    with pytest.raises(ValueError):
        region1.at(0.5)
    with pytest.raises(ValueError):
        region1.at(math.nan)
