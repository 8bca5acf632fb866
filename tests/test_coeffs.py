import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import root_times_one_at_a_time, sampled_extrema

from pplv.coeffs import (
    PeriodicCoefficient,
    SystemSpec,
    _root_times,
    lp_norm,
    ratio_extrema,
    stats,
)

C = PeriodicCoefficient.constant
TRIG = PeriodicCoefficient.trig
TOL_QUAD = 1e-10
# Library and oracle evaluate the same expression at nearby times, so the
# oracle may come out ahead by rounding only.
ROUNDING = 1e-13


def ratio(num, den, T):
    """ratio_extrema of ``num``/``den`` read from the system with a = num,
    b = den and every other coefficient 1."""
    one = C(1.0)
    return ratio_extrema(SystemSpec(T=T, a=num, b=den, c=one, d=one, e=one, f=one), "a", "b")


HARMONICS = st.lists(
    st.tuples(st.integers(1, 5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    min_size=1, max_size=3, unique_by=lambda h: h[0])


def positive_trig(margin, harmonics):
    """A trig coefficient at least ``margin`` everywhere."""
    return TRIG(margin + sum(abs(ck) + abs(sk) for _, ck, sk in harmonics), harmonics)


@st.composite
def sign_changing_trig(draw):
    """A trig coefficient with up to 3 harmonics whose mean lies strictly
    between the extrema of its harmonic part, so that it changes sign."""
    part = TRIG(0.0, draw(HARMONICS))
    ext = stats(part, 1.0)
    assume(ext.maximum - ext.minimum > 0.1)
    return TRIG(-(ext.minimum + draw(st.floats(0.05, 0.95)) * (ext.maximum - ext.minimum)),
                part.harmonics)


def assert_matches_sampling(got, sampled):
    """sampled max <= got max <= sampled max + 1e-9, mirrored for the min."""
    (lo, hi), (s_lo, s_hi) = got, sampled
    assert s_hi - ROUNDING * (1.0 + abs(s_hi)) <= hi <= s_hi + 1e-9
    assert s_lo - 1e-9 <= lo <= s_lo + ROUNDING * (1.0 + abs(s_lo))


class TestEvaluate:
    def test_constant(self):
        assert C(2.0102).evaluate(1.0, 0.3) == 2.0102

    def test_trig_quarter_period(self):
        coef = TRIG(1.0, [(1, 0.0, 0.5)])
        assert coef.evaluate(1.0, 0.25) == pytest.approx(1.5, abs=1e-14)

    def test_trig_at_zero(self):
        coef = TRIG(1.0, [(1, 0.0, 0.5)])
        assert coef.evaluate(1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_vectorized_matches_scalar(self):
        coef = TRIG(0.3, [(1, 0.2, -0.1), (3, 0.05, 0.0)])
        ts = np.linspace(0.0, 2.0, 17)
        vec = coef.evaluate(2.0, ts)
        for t, v in zip(ts, vec):
            assert coef.evaluate(2.0, float(t)) == pytest.approx(v, abs=0)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_exact_periodicity(self, t):
        coef = TRIG(1.2, [(1, 0.4, -0.3), (2, 0.0, 0.1)])
        T = 1.75
        a = coef.evaluate(T, t)
        b = coef.evaluate(T, t + T)
        assert a == pytest.approx(b, abs=1e-9)

    def test_antiderivative_matches_numeric(self):
        coef = TRIG(0.7, [(1, 0.3, -0.2), (4, 0.0, 0.05)])
        T = 2.5
        ts = np.linspace(0.1, 2.4, 7)
        from scipy.integrate import quad
        for t in ts:
            num, _ = quad(lambda s: coef.evaluate(T, s), 0.0, t, epsabs=1e-12)
            assert coef.antiderivative(T, float(t)) == pytest.approx(num, abs=1e-10)


class TestValidation:
    @pytest.mark.parametrize("v", [0.0, -1.5, 2.0102, 1e-300])
    def test_constant_is_degree_zero_trig(self, v):
        assert C(v) == TRIG(v)
        assert C(v).harmonics == ()

    def test_duplicate_harmonic_rejected(self):
        with pytest.raises(ValueError):
            TRIG(1.0, [(1, 0.1, 0.0), (1, 0.0, 0.2)])

    def test_nonpositive_harmonic_index_rejected(self):
        with pytest.raises(ValueError):
            TRIG(1.0, [(0, 0.1, 0.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            C(math.inf)

    def test_system_requires_positive_coefficients(self):
        with pytest.raises(ValueError):
            SystemSpec(T=1.0, a=C(1.0), b=C(1.0), c=C(-0.1),
                       d=C(1.0), e=C(1.0), f=C(1.0))

    def test_system_requires_positive_period(self):
        with pytest.raises(ValueError):
            SystemSpec(T=0.0, a=C(1.0), b=C(1.0), c=C(1.0),
                       d=C(1.0), e=C(1.0), f=C(1.0))

    @pytest.mark.parametrize("T", [0.1, 1.0, 3.0, 7.3])
    def test_trig_touching_zero_rejected_in_system(self, T):
        with pytest.raises(ValueError):
            SystemSpec(T=T, a=C(1.0), b=TRIG(1.0, [(1, 1.0, 0.0)]), c=C(1.0),
                       d=C(1.0), e=C(1.0), f=C(1.0))

    def test_trig_dipping_negative_rejected_in_system(self):
        with pytest.raises(ValueError):
            SystemSpec(T=1.0, a=C(1.0), b=TRIG(1.0, [(1, 0.0, 1.5)]), c=C(1.0),
                       d=C(1.0), e=C(1.0), f=C(1.0))


class TestStats:
    def test_constant(self):
        coef = C(2.0)
        s = stats(coef, 1.0)
        assert (s.minimum, s.maximum, coef.mean) == (2.0, 2.0, 2.0)

    def test_offset_sine(self):
        coef = TRIG(1.0, [(1, 0.0, 0.5)])
        s = stats(coef, 1.0)
        assert s.minimum == pytest.approx(0.5, abs=1e-10)
        assert s.maximum == pytest.approx(1.5, abs=1e-10)
        assert coef.mean == 1.0

    def test_offset_cosine(self):
        coef = TRIG(2.0, [(1, 1.0, 0.0)])
        s = stats(coef, 1.0)
        assert s.minimum == pytest.approx(1.0, abs=1e-10)
        assert s.maximum == pytest.approx(3.0, abs=1e-10)
        assert coef.mean == 2.0

    def test_extrema_bracket_dense_samples(self):
        coef = TRIG(0.4, [(1, 0.3, -0.8), (2, -0.2, 0.15), (5, 0.05, 0.02)])
        T = 3.0
        s = stats(coef, T)
        ts = np.linspace(0.0, T, 20001)
        vals = coef.evaluate(T, ts)
        assert s.minimum - 1e-10 <= vals.min()
        assert vals.max() <= s.maximum + 1e-10

    @pytest.mark.parametrize("T", [0.1, 1.0, 7.3])
    def test_extremum_at_zero_is_exact(self, T):
        # sum of cos(k*omega*t), k = 1..5, peaks at t = 0 with value 5
        coef = TRIG(0.0, [(k, 1.0, 0.0) for k in range(1, 6)])
        assert stats(coef, T).maximum == 5.0
        assert ratio(coef, C(2.0), T)[1] == 2.5

    def test_flat_maximum_off_the_circle(self):
        # 4 cos(th - 1) - cos(2 (th - 1)) = 3 - (th - 1)**4 / 2 + ...: the
        # derivative has a triple zero at th = 1, which rounding splits off
        # the unit circle.
        coef = TRIG(0.0, [(1, 4.0 * math.cos(1.0), 4.0 * math.sin(1.0)),
                          (2, -math.cos(2.0), -math.sin(2.0))])
        s = stats(coef, 1.0)
        assert s.maximum == pytest.approx(3.0, abs=1e-14)
        assert s.minimum == pytest.approx(-5.0, abs=1e-14)
        assert ratio(coef, C(2.0), 1.0) == pytest.approx((-2.5, 1.5), abs=1e-14)

    def test_all_zero_harmonics(self):
        coef = TRIG(1.5, [(1, 0.0, 0.0), (4, 0.0, 0.0)])
        s = stats(coef, 2.0)
        assert (s.minimum, s.maximum, coef.mean) == (1.5, 1.5, 1.5)
        assert ratio(TRIG(3.0, [(2, 0.0, 0.0)]), coef, 2.0) == (2.0, 2.0)
        assert lp_norm(coef, 2.0, (2.0,)) == pytest.approx((1.5 * math.sqrt(2.0),), rel=1e-12)


class TestExtremaAgainstSampling:
    @given(st.floats(-2.0, 2.0), HARMONICS, st.floats(0.1, 2.0), HARMONICS,
           st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_stats_and_ratio(self, c0, hs, margin, hd, T):
        num = TRIG(c0, hs)
        den = positive_trig(margin, hd)
        s = stats(num, T)
        assert_matches_sampling((s.minimum, s.maximum),
                                sampled_extrema(lambda t: num.evaluate(T, t), T))
        assert_matches_sampling(
            ratio(num, den, T),
            sampled_extrema(lambda t: num.evaluate(T, t) / den.evaluate(T, t), T))

    def test_trig_over_constant_and_reverse(self):
        T = 3.0
        trig = TRIG(2.4, [(1, 0.3, -0.8), (2, -0.2, 0.15), (5, 0.05, 0.02)])
        s = stats(trig, T)
        assert_matches_sampling((s.minimum, s.maximum),
                                sampled_extrema(lambda t: trig.evaluate(T, t), T))
        assert ratio(trig, C(2.0), T) == pytest.approx(
            (s.minimum / 2.0, s.maximum / 2.0), abs=1e-15)
        assert ratio(C(1.5), trig, T) == pytest.approx(
            (1.5 / s.maximum, 1.5 / s.minimum), abs=1e-15)


class TestLpAverage:
    """The p-average ((1/T) * integral of coef**p) ** (1/p), read as
    lp_norm / T**(1/p)."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 7.0, math.inf])
    def test_constant_is_fixed_point(self, p):
        (norm,) = lp_norm(C(3.25), 2.0, (p,))
        assert norm / 2.0 ** (1.0 / p) == pytest.approx(3.25, abs=1e-12)

    def test_offset_sine_p2_closed_form(self):
        # mean of (1 + 0.5 sin)^2 over one period is 1 + 0.5^2/2 = 1.125
        coef = TRIG(1.0, [(1, 0.0, 0.5)])
        assert lp_norm(coef, 1.0, (2.0,)) == pytest.approx((math.sqrt(1.125),), abs=1e-10)

    def test_offset_sine_p_inf(self):
        coef = TRIG(1.0, [(1, 0.0, 0.5)])
        assert lp_norm(coef, 1.0, (math.inf,)) == pytest.approx((1.5,), abs=1e-10)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            lp_norm(C(1.0), 1.0, (0.5,))
        with pytest.raises(ValueError):
            lp_norm(TRIG(1.0, [(1, 0.0, 0.5)]), 1.0, (2.0, 0.5))

    def test_p1_equals_mean(self):
        coef = TRIG(1.3, [(1, 0.4, -0.2), (3, 0.1, 0.1)])
        (norm,) = lp_norm(coef, 2.0, (1.0,))
        assert norm / 2.0 == pytest.approx(coef.mean, abs=TOL_QUAD)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_p(self, seed):
        rng = np.random.default_rng(seed)
        c0 = rng.uniform(1.0, 2.0)
        amps = rng.uniform(-0.3, 0.3, size=2)
        coef = TRIG(c0, [(1, amps[0], 0.0), (2, 0.0, amps[1])])
        T = rng.uniform(0.5, 3.0)
        ps = [1.0, 1.5, 2.0, 4.0, 10.0, math.inf]
        vals = [norm / T ** (1.0 / p) for p, norm in zip(ps, lp_norm(coef, T, ps))]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + TOL_QUAD


class TestLpNorm:
    def test_constant(self):
        assert lp_norm(C(-2.0), 3.0, (2.0,)) == pytest.approx((2.0 * math.sqrt(3.0),), rel=1e-12)

    def test_sign_changing_against_quad(self):
        from scipy.integrate import quad
        from scipy.optimize import brentq
        coef = TRIG(0.2, [(1, 0.0, 1.0)])  # dips negative
        T = 1.0
        fn = lambda t: coef.evaluate(T, t)
        kinks = [brentq(fn, 0.4, 0.7), brentq(fn, 0.9, 1.0)]
        ps = (1.0, 2.0, 3.5)
        for p, norm in zip(ps, lp_norm(coef, T, ps)):
            ref, _ = quad(lambda t: abs(coef.evaluate(T, t)) ** p, 0.0, T,
                          epsabs=1e-13, limit=200, points=kinks)
            assert norm == pytest.approx(ref ** (1.0 / p), abs=1e-9)

    def test_inf_norm_is_abs_max(self):
        coef = TRIG(-1.0, [(1, 0.0, 0.4)])
        assert lp_norm(coef, 1.0, (math.inf,)) == pytest.approx((1.4,), abs=1e-10)

    def test_norm_consistent_with_average(self):
        # mean of (2 + 0.5 cos)^3 over one period is 2^3 + 3 * 2 * 0.5^2 / 2 = 8.75
        coef = TRIG(2.0, [(1, 0.5, 0.0)])
        T = 2.0
        p = 3.0
        assert lp_norm(coef, T, (p,)) == pytest.approx(((T * 8.75) ** (1.0 / p),), rel=1e-10)


    @pytest.mark.parametrize("coef", [TRIG(0.2, [(1, 0.0, 1.0), (2, 0.3, -0.1)]), C(-1.7)],
                             ids=["sign-changing-trig", "constant"])
    def test_grid_equals_one_call_per_exponent(self, coef):
        # M, the cuts and the quadrature nodes are shared across the grid;
        # each norm is unchanged
        ps = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 1e16, math.inf)
        assert lp_norm(coef, 0.8, ps) == tuple(lp_norm(coef, 0.8, (p,))[0] for p in ps)

    @given(coef=sign_changing_trig(),
           T=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
           ps=st.lists(st.sampled_from((1.0, 1.5, 2.0, 3.0, 10.0, 1e3, 2000.0, 1e15, 1e16,
                                        math.inf)) | st.floats(1.0, 50.0),
                       min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_grid_equals_one_call_per_exponent_property(self, coef, T, ps):
        # fast- and slow-converging exponents share the nodes but stop at
        # their own levels; the first exponent comes again at the end
        ps = (*ps, ps[0])
        assert lp_norm(coef, T, ps) == tuple(lp_norm(coef, T, (p,))[0] for p in ps)


class TestLpNormLargeP:
    @staticmethod
    def exact_norm(c0, amp, T, p):
        # (c0 + amp*sin)**p over a period, by the binomial expansion: only
        # even powers of sin survive, with mean C(2m, m)/4**m.
        import mpmath as mp
        mp.mp.dps = 40
        c0, amp = mp.mpf(c0), mp.mpf(amp)
        total = sum(mp.binomial(p, 2 * m) * c0 ** (p - 2 * m) * amp ** (2 * m)
                    * mp.binomial(2 * m, m) / mp.mpf(4) ** m for m in range(p // 2 + 1))
        return float((T * total) ** (mp.mpf(1) / p))

    @pytest.mark.parametrize("c0, amp", [(0.5, 0.05), (1.5, 0.5)])
    @pytest.mark.parametrize("p", [2, 1000, 3000])
    def test_matches_binomial_expansion(self, c0, amp, p):
        # max |coef| < 1 underflowed to 0 and > 1 overflowed to inf unscaled
        T = 2.0
        (got,) = lp_norm(TRIG(c0, [(1, 0.0, amp)]), T, (float(p),))
        assert got == pytest.approx(self.exact_norm(c0, amp, T, p), rel=1e-12)

    @pytest.mark.parametrize("coef", [TRIG(0.5, [(1, 0.0, 0.05)]),
                                      TRIG(1.5, [(1, 0.0, 0.5)]),
                                      TRIG(0.2, [(1, 0.3, 1.0), (3, -0.4, 0.2)])])
    def test_tends_to_sup_norm(self, coef):
        T = 0.7
        ps = (10.0, 1e3, 1e4, 1e6, 1e9, 1e15, 1e16, 1e300)
        *norms, sup = lp_norm(coef, T, ps + (math.inf,))
        prev = 0.0
        for p, norm in zip(ps, norms):
            assert math.isfinite(norm)
            # ||f||_p / T**(1/p) is non-decreasing in p and bounded by the sup
            avg = norm / T ** (1.0 / p)
            assert prev <= avg * (1 + 1e-13) and avg <= sup * (1 + 1e-13)
            prev = avg
        assert norms[ps.index(1e6)] == pytest.approx(sup, rel=2e-5)

    def test_peak_between_zeros_resolved(self):
        # a narrow maximum inside a sign-changing coefficient
        coef = TRIG(0.2, [(1, 0.0, 1.0)])
        p = 1e5
        (norm,) = lp_norm(coef, 1.0, (p,))
        assert norm == pytest.approx(1.2, rel=1e-4) and norm < 1.2

    def test_zero_coefficient(self):
        assert lp_norm(TRIG(0.0, [(2, 0.0, 0.0)]), 1.0, (3.0,)) == (0.0,)


class TestRatioExtrema:
    def test_constants(self):
        assert ratio(C(2.0102), C(1.0), 1.0) == pytest.approx((2.0102, 2.0102))

    def test_sine_over_one(self):
        lo, hi = ratio(TRIG(1.0, [(1, 0.0, 0.5)]), C(1.0), 1.0)
        assert lo == pytest.approx(0.5, abs=1e-10)
        assert hi == pytest.approx(1.5, abs=1e-10)

    def test_reciprocal_of_offset_cosine(self):
        lo, hi = ratio(C(1.0), TRIG(2.0, [(1, 1.0, 0.0)]), 1.0)
        assert lo == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_zero_denominator(self):
        # b = 0.5 + sin reaches 0: the system refuses it, so no ratio is asked
        with pytest.raises(ValueError, match="coefficient b must be strictly positive"):
            ratio(C(1.0), TRIG(0.5, [(1, 0.0, 1.0)]), 1.0)

    @pytest.mark.parametrize("num, den", [("b", "a"), ("b", "d"), ("a", "T"), ("T", "b")])
    def test_names_outside_the_system_raise(self, eq30_spec, num, den):
        # a and d may change sign, so they are no denominator
        with pytest.raises(ValueError, match="no ratio"):
            ratio_extrema(eq30_spec, num, den)

    @pytest.mark.parametrize("pair", ["aT", "Tb", "abc", "a"])
    def test_ratio_times_of_names_outside_the_system_raise(self, eq30_spec, pair):
        with pytest.raises(ValueError, match="no ratio"):
            eq30_spec.ratio_times("ab", pair)

    @given(HARMONICS, st.floats(0.1, 2.0), HARMONICS, st.floats(0.1, 2.0),
           st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_pair_shares_its_critical_times(self, hc, mc, hf, mf, T):
        # f/c is read at the critical times of c/f, solved once per system
        # whichever is asked first
        one = C(1.0)
        spec = SystemSpec(T=T, a=one, b=one, c=positive_trig(mc, hc), d=one, e=one,
                          f=positive_trig(mf, hf))
        again = SystemSpec(T=T, a=one, b=one, c=spec.c, d=one, e=one, f=spec.f)
        lo = ratio_extrema(spec, "f", "c")[0]
        hi = ratio_extrema(spec, "c", "f")[1]
        assert abs(lo - 1.0 / hi) <= 4.0 * math.ulp(lo)
        assert ratio_extrema(again, "c", "f")[1] == hi
        assert ratio_extrema(again, "f", "c")[0] == lo


# Laurent series c_{-n}, ..., c_n with n up to 4, some all zero or of length
# 1, with entries across magnitudes so that the end trimming acts
LAURENT_ENTRY = st.floats(-2.0, 2.0) | st.sampled_from((0.0, 1e-9, -3e-12, 1e-300))
LAURENT = st.integers(0, 4).flatmap(lambda n: st.one_of(
    st.just(np.zeros(2 * n + 1, dtype=complex)),
    st.lists(st.builds(complex, LAURENT_ENTRY, LAURENT_ENTRY), min_size=2 * n + 1,
             max_size=2 * n + 1).map(lambda c: np.array(c, dtype=complex))))


class TestRootTimes:
    @given(st.lists(LAURENT, min_size=1, max_size=8), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_stacked_solve_equals_numpy_roots(self, series, T):
        # companions of one size are solved in one stacked call, each built
        # as numpy.roots builds it: the times are bitwise those of one call
        # per series
        got = _root_times(series, T)
        assert len(got) == len(series)
        for times, laurent in zip(got, series):
            expected = root_times_one_at_a_time(laurent, T)
            assert times.shape == expected.shape
            assert np.array_equal(times, expected)

    def test_empty_batch(self):
        assert _root_times([], 1.0) == []
