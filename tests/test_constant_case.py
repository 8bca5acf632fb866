import dataclasses
import math

import numpy as np
import pytest

from conftest import const_spec
from oracles import region_mask

from pplv.constant_case import (
    DISCREPANCY_NOTE,
    P_LARGE_DEFAULT,
    SignRow,
    SignScan,
    check25,
    demo_constants,
    equilibrium,
    linear_term,
    sign_scan,
)
from pplv.criteria import intertwined_test
from pplv.existence import classify_boundary
from pplv.jfunc import threshold_p
from pplv.region import boundary_residual, compute_uv, cp_slack, region_spec, sup_xy

# frozen 50-digit reference values for the demo constants
X1_REF = 2.0000002543580029441
Y1_REF = 1.9999501258817756571
K_REF = 2.9999502530607771291
H1_REF = 198.07933244511908136
H2_REF = 800.27408402759837327
G1_REF = 3.2932764156378433054
G2_REF = -744.79810314713788771
# h(200) raises its base to the 200th power, so the rounding of the decimal
# constants to doubles moves it by ~1e-12: this reference is the 50-digit
# value at the doubles nearest 2.0102, 1, 0.0051, 2.0203, 0.9898 and 2
H200_REF = 6.8415310210949471873e113


def _row(spec, p: float) -> SignRow:
    return sign_scan(spec, (p,)).rows[0]


class TestEquilibrium:
    def test_demo_against_linear_solve(self, eq30, eq30_spec):
        x1, y1 = equilibrium(eq30_spec)
        mat = np.array([[eq30.b, eq30.c], [-eq30.e, eq30.f]])
        ref = np.linalg.solve(mat, [eq30.a, eq30.d])
        assert x1 == pytest.approx(ref[0], rel=1e-14)
        assert y1 == pytest.approx(ref[1], rel=1e-14)
        assert x1 == pytest.approx(X1_REF, rel=1e-14)
        assert y1 == pytest.approx(Y1_REF, rel=1e-14)

    def test_simple_integers(self):
        assert equilibrium(const_spec(3, 1, 1, 1, 1, 1)) == pytest.approx((1.0, 2.0))

    def test_classical(self):
        assert equilibrium(const_spec(1, 1, 1, -0.5, 1, 1)) == pytest.approx((0.75, 0.25))

    def test_linear_term_never_rounded(self, eq30_spec):
        k = linear_term(eq30_spec)
        assert k == pytest.approx(K_REF, rel=1e-14)
        assert k != 3.0  # rounding k to 3 flips the sign of G(1)


class TestHOfP:
    def test_demo_p1(self, eq30_spec):
        _, h, ok, _, _ = _row(eq30_spec, 1.0)
        assert h == pytest.approx(H1_REF, rel=1e-10)
        assert ok is False  # threshold(1) = 2 < k

    def test_demo_p2(self, eq30_spec):
        _, h, ok, _, _ = _row(eq30_spec, 2.0)
        assert h == pytest.approx(H2_REF, rel=1e-7)
        assert ok is False

    def test_demo_p200(self, eq30_spec):
        # one ulp of threshold(200) moves h(200) by ~1.3e-12 relative, so this
        # holds only near the correctly rounded threshold
        _, h, ok, _, _ = _row(eq30_spec, 200.0)
        assert h == pytest.approx(H200_REF, rel=1e-12)
        assert ok is True

    def test_zero_base_when_threshold_matches_k(self):
        k = linear_term(const_spec(3, 1, 1, 1, 1, 1))  # = 2.5
        t_match = threshold_p(2.0) / k * (1.0 - 1e-12)
        tuned = const_spec(3, 1, 1, 1, 1, 1, T=t_match)
        _, h, ok, _, _ = _row(tuned, 2.0)
        assert ok is True
        assert h < 1e-20

    def test_infinite_p_rejected(self, eq30_spec):
        with pytest.raises(ValueError):
            _row(eq30_spec, math.inf)

    def test_beyond_double_range_is_inf(self, eq30_spec_t01):
        _, h, ok, g, _ = _row(eq30_spec_t01, 200.0)
        assert h == math.inf and ok is True
        assert g == -math.inf


class TestGOfP:
    def test_demo_g1_sign_and_value(self, eq30, eq30_spec):
        g1 = _row(eq30_spec, 1.0).g
        assert g1 > 0
        assert g1 == pytest.approx(G1_REF, rel=1e-8)
        # tiny relative margin against terms of magnitude ~1.6e5
        assert abs(g1) / ((eq30.a / eq30.c) ** 2) == pytest.approx(2.12e-5, rel=0.01)

    def test_demo_g2(self, eq30_spec):
        g2 = _row(eq30_spec, 2.0).g
        assert g2 < 0
        assert g2 == pytest.approx(G2_REF, rel=1e-6)
        assert g2 == pytest.approx(-744.8, rel=0.01)

    def test_demo_g200_positive(self, eq30_spec):
        assert _row(eq30_spec, 200.0).g > 0

    def test_engineered_negative_g1(self):
        # valid squaring (sign_ok) with a dominating h term
        sysc = const_spec(0.1, 1, 1, 0.1, 1, 1, T=0.1)
        _, h, ok, g, _ = _row(sysc, 1.0)
        assert ok is True
        assert g < 0


class TestDiscriminant:
    def test_sign_follows_g(self, eq30_spec):
        assert _row(eq30_spec, 1.0).delta > 0
        assert _row(eq30_spec, 2.0).delta < 0

    def test_positive_single_term_when_h_zero(self):
        t_match = threshold_p(2.0) / linear_term(const_spec(3, 1, 1, 1, 1, 1)) * (1.0 - 1e-12)
        tuned = const_spec(3, 1, 1, 1, 1, 1, T=t_match)
        assert _row(tuned, 2.0).delta > 0


class TestCheck25:
    def test_demo_pattern_holds_at_pstar_2(self, eq30_spec):
        pat = check25(eq30_spec, 2.0)
        assert (pat.g1_positive, pat.gstar_negative, pat.glarge_positive) \
            == (True, True, True)
        assert pat.limit_positive_by_ratio
        assert pat.scan.rows[0].sign_ok is False and pat.scan.rows[1].sign_ok is False
        assert any("sign_ok false" in d for d in pat.diagnostics)

    def test_simple_integers_runs_consistently(self):
        sysc = const_spec(3, 1, 1, 1, 1, 1)
        pat = check25(sysc, 2.0)
        assert pat.g1_positive == (_row(sysc, 1.0).g > 0)
        assert pat.gstar_negative == (_row(sysc, 2.0).g < 0)

    def test_negative_g1_flagged(self):
        sysc = const_spec(0.1, 1, 1, 0.1, 1, 1, T=0.1)
        pat = check25(sysc, 2.0)
        assert not pat.g1_positive

    @pytest.mark.parametrize("T", [1.0, 0.1])
    def test_g_values_are_g_of_p(self, eq30_spec, T):
        sysc = dataclasses.replace(eq30_spec, T=T)
        pat = check25(sysc, 2.0)
        assert tuple(row.g for row in pat.scan.rows) == (
            _row(sysc, 1.0).g, _row(sysc, 2.0).g, _row(sysc, P_LARGE_DEFAULT).g)

    def test_rows_are_the_sign_scan_rows(self, eq30_spec):
        rows = check25(eq30_spec, 2.0).scan.rows
        assert rows == sign_scan(eq30_spec, (1.0, 2.0, P_LARGE_DEFAULT)).rows
        assert all(row.g == row[3] for row in rows)

    def test_pstar_bounds(self, eq30_spec):
        with pytest.raises(ValueError):
            check25(eq30_spec, 1.0)


class TestRegionCoincidence:
    def test_equilibrium_is_the_p1_singleton(self, eq30_spec):
        x1, y1 = equilibrium(eq30_spec)
        reg1 = region_spec(eq30_spec)
        assert x1 > 0 and y1 > 0 and cp_slack(reg1, x1, y1) >= -1e-12
        res = sup_xy(reg1)
        assert res.value == pytest.approx(x1 * y1, abs=1e-9)

    def test_substitution_points_lie_on_first_boundary(self, eq30, eq30_spec):
        # y^p = c^{-1} V^{p-1} (a - b U^{1-p} x^p) parametrizes the first curve
        p = 2.0
        reg = region_spec(eq30_spec).at(p)
        bounds = compute_uv(eq30_spec)
        U, V = bounds.U, bounds.V
        xs = np.linspace(0.1, U * 0.999, 50)
        ypow = V ** (p - 1) / eq30.c * (eq30.a - eq30.b * U ** (1 - p) * xs ** p)
        ys = np.maximum(ypow, 0.0) ** (1.0 / p)
        for x, y in zip(xs, ys):
            assert boundary_residual(reg, "a_lower", float(x), float(y)) <= 1e-9


def _quadratic_max(spec, p: float, n: int = 20001):
    # maximum of the reduced quadratic over region-feasible curve points
    _, h, ok, _, _ = _row(spec, p)
    a, b, c = spec.a.mean, spec.b.mean, spec.c.mean
    bounds = compute_uv(spec)
    U, V = bounds.U, bounds.V
    wtop = a * U ** (p - 1) / b
    if wtop <= 0:
        return None, ok
    ws = np.linspace(0.0, wtop, n)[1:]
    xs = ws ** (1.0 / p)
    ypow = V ** (p - 1) / c * (a - b * U ** (1.0 - p) * ws)
    ys = np.maximum(ypow, 0.0) ** (1.0 / p)
    reg = region_spec(spec).at(p)
    mask = region_mask(reg, xs, ys)
    if not mask.any():
        return None, ok
    q = -(b / c) * (V / U) ** (p - 1) * ws ** 2 + (a / c) * V ** (p - 1) * ws - h
    return float(np.max(q[mask])), ok


class TestGuardedEquivalence:
    def test_quadratic_reduction_matches_direct_test(self):
        rng = np.random.default_rng(12345)
        checked = 0
        for _ in range(120):
            a, d = rng.uniform(0.05, 3.0, size=2)
            b, c, e, f = rng.uniform(0.05, 3.0, size=4)
            T = rng.uniform(0.2, 2.0)
            spec = const_spec(a, b, c, d, e, f, T=T)
            bounds = compute_uv(spec)
            if not classify_boundary(spec).coexistence_exists:
                continue
            for p in (1.5, 2.0, 4.0):
                mq, ok = _quadratic_max(spec, p)
                if not ok or mq is None:
                    continue  # squaring direction not preserved: not asserted
                res = intertwined_test(spec, p)
                qscale = abs((a / c) * bounds.V ** (p - 1)
                             * (a * bounds.U ** (p - 1) / b)) + abs(_row(spec, p).h)
                if abs(res.margin) < 1e-6 or abs(mq) < 1e-6 * qscale:
                    continue
                assert (res.margin >= 0) == (mq <= 0)
                checked += 1
        assert checked > 50


class TestSignScan:
    def test_rows_and_k(self, eq30_spec):
        scan = sign_scan(eq30_spec, [1.0, 2.0, 200.0])
        assert isinstance(scan, SignScan)
        assert scan.k == pytest.approx(K_REF, rel=1e-14)
        assert eq30_spec.bounds == compute_uv(eq30_spec)
        ps = [row[0] for row in scan.rows]
        assert ps == [1.0, 2.0, 200.0]
        signs = [row[3] > 0 for row in scan.rows]
        assert signs == [True, False, True]
        assert [row[2] for row in scan.rows] == [False, False, True]

    def test_demo_constants_factory(self, eq30_spec):
        assert demo_constants() == eq30_spec

    def test_discrepancy_note_mentions_sign_flag(self):
        assert "sign_ok" in DISCREPANCY_NOTE
        assert "authoritative" in DISCREPANCY_NOTE


class TestSystemsWithHarmonics:
    @pytest.mark.parametrize("fn", [check25, lambda spec, p: sign_scan(spec, [p])],
                             ids=["check25", "sign_scan"])
    def test_harmonics_rejected(self, perturbed_spec, fn):
        with pytest.raises(ValueError, match="coefficient a is not constant"):
            fn(perturbed_spec, 2.0)

    def test_equilibrium_of_the_averaged_system(self, perturbed_spec, eq30_spec):
        # perturbed_spec adds a zero-mean harmonic to the demo constants
        assert equilibrium(perturbed_spec) == equilibrium(eq30_spec)
        assert linear_term(perturbed_spec) == linear_term(eq30_spec)
