import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import pplv
from pplv.coeffs import PeriodicCoefficient, SystemSpec
from pplv.constant_case import ConstantSystem, equilibrium
from pplv.criteria import intertwined_test
from pplv.jfunc import INF
from pplv.logistic import periodic_logistic
from pplv.simulate import (
    ASYMPTOTICALLY_STABLE,
    UNSTABLE,
    NoConvergence,
    NonPositive,
    PeriodicOrbit2D,
    StepFailure,
    find_coexistence,
    find_coexistence_multistart,
    floquet,
    integrate,
    liouville_determinant,
    orbit_averages,
    poincare_map,
    verify_predictions,
)

C = PeriodicCoefficient.constant
TRIG = PeriodicCoefficient.trig


def const_spec(a, b, c, d, e, f, T=1.0):
    return SystemSpec(T=T, a=C(a), b=C(b), c=C(c), d=C(d), e=C(e), f=C(f))


def constant_orbit(u, v, T=1.0, n=64):
    ts = np.linspace(0.0, T, n + 1)
    return PeriodicOrbit2D(T=T, ts=ts, us=np.full(n + 1, u), vs=np.full(n + 1, v),
                           periodicity_residual=0.0, newton_residual=0.0)


def sampled_orbit(u, v, T, n):
    """Orbit of the periodic functions ``u``, ``v`` sampled on the n-cell grid."""
    ts = np.linspace(0.0, T, n + 1)
    return PeriodicOrbit2D(T=T, ts=ts, us=u(ts), vs=v(ts),
                           periodicity_residual=0.0, newton_residual=0.0)


class TestIntegrate:
    def test_demo_equilibrium_attracts(self, eq30, eq30_spec):
        eq = np.array(equilibrium(eq30))
        ts = np.linspace(0.0, 5.0, 51)
        sol = integrate(eq30_spec, (2.0, 2.0), 0.0, 5.0, t_eval=ts)
        dist = np.max(np.abs(sol.y - eq[:, None]), axis=0)
        assert dist.max() < 1e-4          # never leaves the small neighborhood
        assert dist[-1] < 1e-6            # contracts onto the equilibrium

    def test_decoupled_limit_approaches_logistic_attractor(self):
        spec = const_spec(1.0, 1.0, 1e-12, -0.5, 1e-12, 1.0)
        sol = integrate(spec, (0.5, 0.3), 0.0, 30.0)
        assert sol.y[0, -1] == pytest.approx(1.0, abs=1e-6)  # a/b
        assert sol.y[1, -1] < 1e-4  # predator dies out

    def test_boundary_initial_state_rejected(self, eq30_spec):
        theta = periodic_logistic(eq30_spec.a, eq30_spec.b, eq30_spec.T)
        with pytest.raises(NonPositive):
            integrate(eq30_spec, (theta.values[0], 0.0), 0.0, 1.0)

    def test_bad_time_span_rejected(self, eq30_spec):
        with pytest.raises(ValueError):
            integrate(eq30_spec, (1.0, 1.0), 1.0, 0.5)


class TestPoincareMap:
    def test_fixed_point_returns_itself(self, eq30, eq30_spec):
        eq = np.array(equilibrium(eq30))
        out = poincare_map(eq30_spec, eq)
        assert np.max(np.abs(out - eq)) < 1e-9

    def test_generic_point_moves(self, eq30_spec):
        out = poincare_map(eq30_spec, (1.0, 1.0))
        assert np.max(np.abs(out - np.array([1.0, 1.0]))) > 1e-3

    def test_translation_invariance_for_constants(self, eq30_spec):
        # constant coefficients make the field autonomous, so the period map
        # equals the flow started at any other time
        start = (1.7, 2.2)
        direct = poincare_map(eq30_spec, start)
        shifted = integrate(eq30_spec, start, 0.3, 0.3 + eq30_spec.T)
        assert np.allclose(direct, shifted.y[:, -1], atol=1e-8)


class TestFindCoexistence:
    def test_demo_orbit_is_equilibrium(self, eq30, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        eq = equilibrium(eq30)
        assert np.max(np.abs(orbit.us - eq[0])) < 1e-8
        assert np.max(np.abs(orbit.vs - eq[1])) < 1e-8
        assert orbit.newton_residual <= 1e-10

    def test_classical_orbit(self, classical_spec):
        orbit = find_coexistence(classical_spec, (0.7, 0.3))
        assert np.max(np.abs(orbit.us - 0.75)) < 1e-8
        assert np.max(np.abs(orbit.vs - 0.25)) < 1e-8

    def test_no_coexistence_fails(self, eq30):
        spec = const_spec(eq30.a, eq30.b, eq30.c, -10.0, eq30.e, eq30.f)
        with pytest.raises((NoConvergence, NonPositive, StepFailure)):
            find_coexistence(spec, (1.0, 1.0))

    def test_semitrivial_convergence_rejected(self, saddle_spec):
        # seeds deep in the prey-extinction basin slide onto the boundary
        with pytest.raises((NonPositive, NoConvergence, StepFailure)):
            find_coexistence(saddle_spec, (1e-6, 0.4))

    def test_uniformly_tiny_component_rejected(self, classical_spec):
        # the prey-only state is a fixed point of the period map; Newton
        # started on it converges with v uniformly at roundoff level and
        # must not be reported as a coexistence orbit
        with pytest.raises(NonPositive):
            find_coexistence(classical_spec, (1.0, 1e-13))

    def test_fixed_point_consistency(self, eq30_spec, classical_spec, perturbed_spec):
        for spec, guess in ((eq30_spec, (2.0, 2.0)), (classical_spec, (0.7, 0.3)),
                            (perturbed_spec, (2.0, 2.0))):
            orbit = find_coexistence(spec, guess)
            residual = np.max(np.abs(poincare_map(spec, orbit.start) - orbit.start))
            assert residual <= 1e-9


class TestFloquet:
    def test_demo_matches_matrix_exponential(self, eq30, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        u, v = equilibrium(eq30)
        jac = np.array([[-eq30.b * u, -eq30.c * u],
                        [eq30.e * v, -eq30.f * v]])
        assert np.trace(jac) == pytest.approx(-6.0, abs=0.01)
        assert np.linalg.det(jac) == pytest.approx(8.02, abs=0.01)
        flo = floquet(eq30_spec, orbit)
        ref = expm(jac * eq30_spec.T)
        assert np.max(np.abs(flo.monodromy - ref)) < 1e-8
        assert flo.classification == ASYMPTOTICALLY_STABLE
        mods = sorted(abs(m) for m in flo.multipliers)
        ref_mods = sorted(abs(m) for m in np.linalg.eigvals(ref))
        assert mods == pytest.approx(ref_mods, abs=1e-8)

    def test_strongly_contracting_monodromy_resolved(self, eq30):
        # At T = 6.5 the multipliers are ~2e-6 and ~6e-12, below an
        # absolute tolerance of 1e-12 on the fundamental matrix.
        T = 6.5
        spec = ConstantSystem(T=T, a=eq30.a, b=eq30.b, c=eq30.c,
                              d=eq30.d, e=eq30.e, f=eq30.f).to_system_spec()
        u, v = equilibrium(eq30)
        jac = np.array([[-eq30.b * u, -eq30.c * u],
                        [eq30.e * v, -eq30.f * v]])
        ref = expm(jac * T)
        flo = floquet(spec, constant_orbit(u, v, T=T))
        mults = sorted(flo.multipliers, key=abs)
        ref_mults = sorted(np.linalg.eigvals(ref), key=abs)
        for m, r in zip(mults, ref_mults):
            assert abs(m - r) <= 1e-7 * abs(r)
        det = np.linalg.det(flo.monodromy)
        assert abs(det - np.linalg.det(ref)) <= 1e-7 * abs(np.linalg.det(ref))

    def test_near_diagonal_decoupled_multipliers(self):
        spec = const_spec(1.0, 1.0, 1e-9, 1.0, 1e-9, 1.0)
        sysc = ConstantSystem(T=1.0, a=1.0, b=1.0, c=1e-9, d=1.0, e=1e-9, f=1.0)
        u, v = equilibrium(sysc)
        orbit = find_coexistence(spec, (u, v))
        flo = floquet(spec, orbit)
        mods = sorted(abs(m) for m in flo.multipliers)
        expected = sorted((math.exp(-1.0 * u * 1.0), math.exp(-1.0 * v * 1.0)))
        assert mods == pytest.approx(expected, abs=1e-8)

    def test_engineered_saddle_is_unstable(self, saddle_spec):
        orbit = find_coexistence(saddle_spec, (0.05, 0.49))
        assert orbit.us.min() > 0.04  # genuinely interior orbit
        flo = floquet(saddle_spec, orbit)
        assert flo.classification == UNSTABLE
        dominant = max(abs(m) for m in flo.multipliers)
        assert dominant > 1.5

    def test_liouville_formula(self, eq30_spec, classical_spec, perturbed_spec):
        for spec, guess in ((eq30_spec, (2.0, 2.0)), (classical_spec, (0.7, 0.3)),
                            (perturbed_spec, (2.0, 2.0))):
            orbit = find_coexistence(spec, guess)
            flo = floquet(spec, orbit)
            det = np.linalg.det(flo.monodromy)
            ref = liouville_determinant(spec, orbit)
            assert abs(det - ref) <= 1e-6 * abs(ref)


class TestOrbitAverages:
    def test_constant_orbit_fixed_point(self):
        orbit = constant_orbit(2.0, 2.0)
        for p in (1.0, 2.0, 10.0, INF):
            assert orbit_averages(orbit, p) == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_demo_orbit_p2(self, eq30, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        eq = equilibrium(eq30)
        up, vp = orbit_averages(orbit, 2.0)
        assert up == pytest.approx(eq[0], abs=1e-9)
        assert vp == pytest.approx(eq[1], abs=1e-9)

    def test_monotone_in_p_on_varying_orbit(self, saddle_spec):
        orbit = find_coexistence(saddle_spec, (0.05, 0.49))
        ps = [1.0, 1.5, 2.0, 4.0, 10.0, INF]
        us = [orbit_averages(orbit, p)[0] for p in ps]
        vs = [orbit_averages(orbit, p)[1] for p in ps]
        for seq in (us, vs):
            for lo, hi in zip(seq, seq[1:]):
                assert lo <= hi + 1e-10

    @pytest.mark.parametrize("p", [2.0, 10.0])
    def test_trig_orbit_exact_mean(self, p):
        # u = 2 + 0.5 cos(wt), v = 1 + 0.3 sin(wt): mean(cos^k) = C(k, k/2) / 2^k
        # for even k; the trapezoid rule on 32 samples is exact for u^p, v^p
        T = 1.7
        w = 2.0 * math.pi / T
        orbit = sampled_orbit(lambda t: 2.0 + 0.5 * np.cos(w * t),
                              lambda t: 1.0 + 0.3 * np.sin(w * t), T, 32)

        def exact(c0, c1):
            k = int(p)
            mean = sum(math.comb(k, j) * c0 ** (k - j) * c1 ** j * math.comb(j, j // 2) / 2 ** j
                       for j in range(0, k + 1, 2))
            return mean ** (1.0 / p)

        up, vp = orbit_averages(orbit, p)
        assert up == pytest.approx(exact(2.0, 0.5), abs=1e-12)
        assert vp == pytest.approx(exact(1.0, 0.3), abs=1e-12)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            orbit_averages(constant_orbit(1.0, 1.0), 0.5)


class TestVerifyPredictions:
    def test_demo_orbit(self, eq30, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        report = verify_predictions(eq30_spec, orbit)
        assert report.all_ok
        assert report.u_max == pytest.approx(equilibrium(eq30)[0], abs=1e-8)
        assert report.bounds.U == pytest.approx(2.0102)
        assert report.u_slack > 0 and report.v_slack > 0

    def test_classical_orbit(self, classical_spec):
        orbit = find_coexistence(classical_spec, (0.7, 0.3))
        report = verify_predictions(classical_spec, orbit)
        assert report.all_ok
        assert report.u_max == pytest.approx(0.75, abs=1e-8)
        assert report.v_max == pytest.approx(0.25, abs=1e-8)
        assert report.bounds.U == pytest.approx(1.0)
        assert report.bounds.V == pytest.approx(0.5)

    def test_perturbed_orbit(self, perturbed_spec):
        orbit = find_coexistence(perturbed_spec, (2.0, 2.0))
        report = verify_predictions(perturbed_spec, orbit)
        assert report.all_ok
        # genuinely non-constant orbit
        assert orbit.us.max() - orbit.us.min() > 1e-4

    def test_membership_holds_even_on_unstable_orbit(self, saddle_spec):
        orbit = find_coexistence(saddle_spec, (0.05, 0.49))
        report = verify_predictions(saddle_spec, orbit)
        assert report.all_ok


class TestMultistart:
    def test_demo_unique_orbit(self, eq30_spec):
        orbits = find_coexistence_multistart(eq30_spec, n_starts=20, seed=0)
        assert len(orbits) == 1
        again = find_coexistence_multistart(eq30_spec, n_starts=20, seed=0)
        assert np.allclose(orbits[0].start, again[0].start, atol=0)

    def test_stability_consistency_with_criteria(self, eq30_spec_t01):
        # a passing criterion must come with a Floquet-stable orbit
        assert intertwined_test(eq30_spec_t01, INF).passed
        orbits = find_coexistence_multistart(eq30_spec_t01, n_starts=10, seed=0)
        assert len(orbits) == 1
        flo = floquet(eq30_spec_t01, orbits[0])
        assert flo.classification == ASYMPTOTICALLY_STABLE


class TestComponentMax:
    def test_peak_between_samples(self):
        # u peaks at t0, a point of the 8x finer grid between two samples;
        # v = 1 + 0.1 cos(n w t / 2) alternates on the samples, so its whole
        # weight sits in the Nyquist term
        T, n = 2.0, 16
        w = 2.0 * math.pi / T
        t0 = (5 + 3 / 8) * T / n
        orbit = sampled_orbit(lambda t: 2.0 + 0.5 * np.cos(w * (t - t0)),
                              lambda t: 1.0 + 0.1 * np.cos(0.5 * n * w * t), T, n)
        u_max, v_max = orbit.component_max()
        assert u_max == pytest.approx(2.5, abs=1e-12)
        assert v_max == pytest.approx(1.1, abs=1e-12)


class TestOrbitValidation:
    @pytest.mark.parametrize("ts", [
        np.array([0.0, 0.1, 0.5, 0.6, 1.0]),
        np.linspace(0.0, 0.5, 5),
    ])
    def test_uniform_grid_required(self, ts):
        with pytest.raises(ValueError, match="grid"):
            PeriodicOrbit2D(T=1.0, ts=ts, us=np.ones(5), vs=np.ones(5),
                            periodicity_residual=0.0, newton_residual=0.0)

    def test_positive_samples_required(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            PeriodicOrbit2D(T=1.0, ts=ts, us=np.array([1, 1, -1, 1, 1.0]),
                            vs=np.ones(5), periodicity_residual=0.0,
                            newton_residual=0.0)

    def test_periodicity_residual_bounded(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            PeriodicOrbit2D(T=1.0, ts=ts, us=np.ones(5), vs=np.ones(5),
                            periodicity_residual=1e-3, newton_residual=0.0)


def test_import_skips_scipy_interpolate():
    src = str(Path(pplv.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import pplv; "
         "print('scipy.interpolate' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
