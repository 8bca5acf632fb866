import math
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cli_cases import DEEP_DIP, THREE_ORBITS, TINY_CV
from conftest import const_spec

import pplv
from pplv import simulate
from pplv.cli import parse_config
from pplv.coeffs import PeriodicCoefficient, SystemSpec
from pplv.constant_case import equilibrium
from pplv.criteria import GLOBALLY_STABLE_VIA_18_19, INCONCLUSIVE, intertwined_test, scan_p
from pplv.jfunc import INF
from pplv.logistic import GridTooLarge, periodic_logistic
from pplv.region import compute_uv
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
    liouville_determinant,
    orbit_averages,
    poincare_map,
    verify_predictions,
)

C = PeriodicCoefficient.constant
TRIG = PeriodicCoefficient.trig


def constant_orbit(u, v, T=1.0, n=64):
    ts = np.linspace(0.0, T, n + 1)
    return PeriodicOrbit2D(T=T, ts=ts, us=np.full(n + 1, u), vs=np.full(n + 1, v),
                           periodicity_residual=0.0, newton_residual=0.0,
                           monodromy=np.eye(2))


def start(orbit):
    """The orbit's state at t = 0."""
    return np.array([orbit.us[0], orbit.vs[0]])


def sampled_orbit(u, v, T, n):
    """Orbit of the periodic functions ``u``, ``v`` sampled on the n-cell grid."""
    ts = np.linspace(0.0, T, n + 1)
    return PeriodicOrbit2D(T=T, ts=ts, us=u(ts), vs=v(ts),
                           periodicity_residual=0.0, newton_residual=0.0,
                           monodromy=np.eye(2))


class TestPoincareMap:
    def test_demo_equilibrium_attracts(self, eq30_spec):
        eq = np.array(equilibrium(eq30_spec))
        state, dist = np.array([2.0, 2.0]), []
        for _ in range(5):
            state = poincare_map(eq30_spec, state)
            dist.append(np.max(np.abs(state - eq)))
        assert max(dist) < 1e-4           # never leaves the small neighborhood
        assert dist[-1] < 1e-6            # contracts onto the equilibrium

    def test_decoupled_limit_approaches_logistic_attractor(self):
        spec = const_spec(1.0, 1.0, 1e-12, -0.5, 1e-12, 1.0, T=30.0)
        u, v = poincare_map(spec, (0.5, 0.3))
        assert u == pytest.approx(1.0, abs=1e-6)  # a/b
        assert v < 1e-4  # predator dies out

    def test_boundary_initial_state_rejected(self, eq30_spec):
        theta = periodic_logistic(eq30_spec.a, eq30_spec.b, eq30_spec.T)
        with pytest.raises(NonPositive):
            poincare_map(eq30_spec, (theta.values[0], 0.0))

    def test_fixed_point_returns_itself(self, eq30_spec):
        eq = np.array(equilibrium(eq30_spec))
        out = poincare_map(eq30_spec, eq)
        assert np.max(np.abs(out - eq)) < 1e-9

    def test_generic_point_moves(self, eq30_spec):
        out = poincare_map(eq30_spec, (1.0, 1.0))
        assert np.max(np.abs(out - np.array([1.0, 1.0]))) > 1e-3


class TestFindCoexistence:
    def test_demo_orbit_is_equilibrium(self, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        eq = equilibrium(eq30_spec)
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

    def test_semitrivial_seed_reaches_interior_orbit(self, saddle_spec):
        # a seed deep in the prey-extinction basin: in log coordinates the
        # boundary u = 0 is infinitely far, and Newton reaches the saddle
        orbit = find_coexistence(saddle_spec, (1e-6, 0.4))
        assert np.max(np.abs(start(orbit) - (0.04870, 0.48906))) < 1e-5
        assert orbit.us.min() > 0.04

    def test_seed_beside_prey_only_state_reaches_interior_orbit(self, classical_spec):
        # the prey-only state (1, 0) is a fixed point of the period map in
        # (u, v), but in log coordinates it lies at log v = -inf: the seed
        # moves by 0.5 in log v over the period, so Newton goes on to the
        # interior orbit instead of reporting a boundary state
        orbit = find_coexistence(classical_spec, (1.0, 1e-13))
        assert np.max(np.abs(orbit.us - 0.75)) < 1e-8
        assert np.max(np.abs(orbit.vs - 0.25)) < 1e-8
        assert orbit.vs.min() > 0.2

    def test_fixed_point_consistency(self, eq30_spec, classical_spec, perturbed_spec):
        for spec, guess in ((eq30_spec, (2.0, 2.0)), (classical_spec, (0.7, 0.3)),
                            (perturbed_spec, (2.0, 2.0))):
            orbit = find_coexistence(spec, guess)
            residual = np.max(np.abs(poincare_map(spec, start(orbit)) - start(orbit)))
            assert residual <= 1e-9


class TestFloquet:
    def test_demo_matches_matrix_exponential(self, eq30, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        u, v = equilibrium(eq30_spec)
        jac = np.array([[-eq30.b * u, -eq30.c * u],
                        [eq30.e * v, -eq30.f * v]])
        assert np.trace(jac) == pytest.approx(-6.0, abs=0.01)
        assert np.linalg.det(jac) == pytest.approx(8.02, abs=0.01)
        flo = floquet(orbit)
        ref = expm(jac * eq30_spec.T)
        assert np.max(np.abs(orbit.monodromy - ref)) < 1e-8
        assert flo.classification == ASYMPTOTICALLY_STABLE
        mods = sorted(abs(m) for m in flo.multipliers)
        ref_mods = sorted(abs(m) for m in np.linalg.eigvals(ref))
        assert mods == pytest.approx(ref_mods, abs=1e-8)

    def test_strongly_contracting_monodromy_resolved(self, eq30):
        # At T = 6.5 the multipliers are ~2e-6 and ~6e-12, below an
        # absolute tolerance of 1e-12 on the fundamental matrix.
        T = 6.5
        spec = const_spec(**{**vars(eq30), "T": T})
        u, v = equilibrium(spec)
        jac = np.array([[-eq30.b * u, -eq30.c * u],
                        [eq30.e * v, -eq30.f * v]])
        ref = expm(jac * T)
        orbit = find_coexistence(spec, (u, v))
        flo = floquet(orbit)
        mults = sorted(flo.multipliers, key=abs)
        ref_mults = sorted(np.linalg.eigvals(ref), key=abs)
        for m, r in zip(mults, ref_mults):
            assert abs(m - r) <= 1e-7 * abs(r)
        det = np.linalg.det(orbit.monodromy)
        assert abs(det - np.linalg.det(ref)) <= 1e-7 * abs(np.linalg.det(ref))

    def test_near_diagonal_decoupled_multipliers(self):
        spec = const_spec(1.0, 1.0, 1e-9, 1.0, 1e-9, 1.0)
        u, v = equilibrium(spec)
        orbit = find_coexistence(spec, (u, v))
        flo = floquet(orbit)
        mods = sorted(abs(m) for m in flo.multipliers)
        expected = sorted((math.exp(-1.0 * u * 1.0), math.exp(-1.0 * v * 1.0)))
        assert mods == pytest.approx(expected, abs=1e-8)

    def test_engineered_saddle_is_unstable(self, saddle_spec):
        orbit = find_coexistence(saddle_spec, (0.05, 0.49))
        assert orbit.us.min() > 0.04  # genuinely interior orbit
        flo = floquet(orbit)
        assert flo.classification == UNSTABLE
        dominant = max(abs(m) for m in flo.multipliers)
        assert dominant > 1.5

    def test_liouville_formula(self, eq30_spec, classical_spec, perturbed_spec):
        for spec, guess in ((eq30_spec, (2.0, 2.0)), (classical_spec, (0.7, 0.3)),
                            (perturbed_spec, (2.0, 2.0))):
            orbit = find_coexistence(spec, guess)
            det = np.linalg.det(orbit.monodromy)
            ref = liouville_determinant(spec, orbit)
            assert abs(det - ref) <= 1e-6 * abs(ref)


class TestOrbitAverages:
    def test_constant_orbit_fixed_point(self):
        orbit = constant_orbit(2.0, 2.0)
        for p in (1.0, 2.0, 10.0, INF):
            assert orbit_averages(orbit, p) == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_demo_orbit_p2(self, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        eq = equilibrium(eq30_spec)
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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 10.0, 1000.0, INF])
    def test_tiny_component_does_not_underflow(self, p):
        # (1e-300)^1.5 rounds to 0; scaled by the largest sample it does not
        assert orbit_averages(constant_orbit(2.0, 1e-300), p) == (2.0, 1e-300)


class TestVerifyPredictions:
    def test_demo_orbit(self, eq30_spec):
        orbit = find_coexistence(eq30_spec, (2.0, 2.0))
        report = verify_predictions(eq30_spec, orbit)
        assert report.all_ok
        assert report.u_max == pytest.approx(equilibrium(eq30_spec)[0], abs=1e-8)
        assert eq30_spec.bounds.U == pytest.approx(2.0102)
        assert report.u_max < eq30_spec.bounds.U and report.v_max < eq30_spec.bounds.V

    def test_classical_orbit(self, classical_spec):
        orbit = find_coexistence(classical_spec, (0.7, 0.3))
        report = verify_predictions(classical_spec, orbit)
        assert report.all_ok
        assert report.u_max == pytest.approx(0.75, abs=1e-8)
        assert report.v_max == pytest.approx(0.25, abs=1e-8)
        assert classical_spec.bounds.U == pytest.approx(1.0)
        assert classical_spec.bounds.V == pytest.approx(0.5)

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
        orbits = find_coexistence_multistart(eq30_spec)
        assert len(orbits) == 1
        again = find_coexistence_multistart(eq30_spec)
        assert np.allclose(start(orbits[0]), start(again[0]), atol=0)

    def test_stability_consistency_with_criteria(self, eq30_spec_t01, monkeypatch):
        # a passing criterion must come with a Floquet-stable orbit
        assert intertwined_test(eq30_spec_t01, INF).passed
        monkeypatch.setattr(simulate, "MULTISTART_STARTS", 10)
        orbits = find_coexistence_multistart(eq30_spec_t01)
        assert len(orbits) == 1
        flo = floquet(orbits[0])
        assert flo.classification == ASYMPTOTICALLY_STABLE


class TestBatchedNewton:
    def test_saddle_multistart_finds_unstable_orbit(self, saddle_spec):
        orbits = find_coexistence_multistart(saddle_spec)
        assert len(orbits) == 1
        orbit = orbits[0]
        assert orbit.us.min() > 0.04
        flo = floquet(orbit)
        assert flo.classification == UNSTABLE
        assert verify_predictions(saddle_spec, orbit).all_ok
        det = np.linalg.det(orbit.monodromy)
        ref = liouville_determinant(saddle_spec, orbit)
        assert abs(det - ref) <= 1e-6 * abs(ref)
        alone = find_coexistence(saddle_spec, start(orbit))
        assert np.max(np.abs(start(alone) - start(orbit))) <= 1e-9

    def test_one_batched_solve_per_iteration(self, perturbed_spec, monkeypatch):
        calls = []
        real = simulate.solve_ivp

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "solve_ivp", counting)
        orbits = find_coexistence_multistart(perturbed_spec)
        assert len(orbits) == 1
        # one batched solve per Newton iteration, one sampling solve per orbit
        assert len(calls) <= simulate.NEWTON_MAX_ITER + len(orbits)
        # the averaged equilibrium and all 20 random starts in the first solve
        assert calls[0] == 6 * 21

    @pytest.mark.parametrize("name", ["perturbed_spec", "saddle_spec"])
    def test_one_solve_per_orbit_after_newton(self, name, request, monkeypatch):
        spec = request.getfixturevalue(name)
        solves, iterations = [], []
        real_solve = simulate.solve_ivp

        def counting_solve(*args, **kwargs):
            solves.append(len(args[2]))
            # a Newton iteration reads its solve at t = T only
            if len(kwargs["t_eval"]) == 1:
                iterations.append(len(args[2]))
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(simulate, "solve_ivp", counting_solve)
        orbits = find_coexistence_multistart(spec)
        assert orbits
        searched = len(solves)
        for orbit in orbits:
            floquet(orbit)
        # floquet reads the monodromy of the sampling solve
        assert len(solves) == searched
        assert len(solves) <= len(iterations) + len(orbits)

    def test_batch_invariance(self, perturbed_spec):
        orbits = find_coexistence_multistart(perturbed_spec)
        for orbit in orbits:
            alone = find_coexistence(perturbed_spec, start(orbit))
            assert np.max(np.abs(start(alone) - start(orbit))) <= 1e-9

    def test_failed_start_does_not_stop_the_batch(self, perturbed_spec, monkeypatch):
        # the solve fails whenever the start (7, 7) is in it
        real = simulate.solve_ivp
        bad = math.log(7.0)

        def failing(fun, span, y0, **kwargs):
            if len(y0) % 6 == 0 and np.any(y0[:len(y0) // 6] == bad):
                return SimpleNamespace(success=False, message="step size too small")
            return real(fun, span, y0, **kwargs)

        real_newton = simulate._newton

        def two_starts(spec, guesses):
            return real_newton(spec, [np.array([2.0, 2.0]), np.array([7.0, 7.0])])

        monkeypatch.setattr(simulate, "solve_ivp", failing)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_newton", two_starts)
            orbits = find_coexistence_multistart(perturbed_spec)
        assert len(orbits) == 1
        with pytest.raises(StepFailure):
            find_coexistence(perturbed_spec, (7.0, 7.0))

    # on eq30_spec the first start, the averaged equilibrium, is the fixed
    # point, so its first, loose solve already reads a residual below NEWTON_TOL
    @pytest.mark.parametrize("name", ["eq30_spec", "perturbed_spec", "saddle_spec"])
    def test_loose_first_and_accepted_at_full_tolerance(self, name, request, monkeypatch):
        spec = request.getfixturevalue(name)
        solves, outcomes = [], []
        real_solve, real_newton = simulate.solve_ivp, simulate._newton

        def recording(field, span, y0, **kwargs):
            # a Newton iteration reads its solve at t = T only
            if len(kwargs["t_eval"]) == 1:
                solves.append((kwargs["rtol"], y0.reshape(2, 3, -1)[:, 0].copy()))
            return real_solve(field, span, y0, **kwargs)

        def keeping(*args):
            result = real_newton(*args)
            outcomes.extend(result)
            return result

        monkeypatch.setattr(simulate, "solve_ivp", recording)
        monkeypatch.setattr(simulate, "_newton", keeping)
        assert find_coexistence_multistart(spec)
        loose = simulate._NEWTON_LOOSE.rtol
        assert loose == 1e-6
        assert solves[0][0] == loose
        assert {rtol for rtol, _ in solves} == {loose, simulate.TOL_ODE}
        converged = [outcome[0] for outcome in outcomes if not isinstance(outcome, Exception)]
        assert converged
        for z in converged:
            # the solve that accepted z is the last one started from it
            last = [rtol for rtol, zs in solves if np.any(np.all(zs == z[:, None], axis=0))][-1]
            assert last == simulate.TOL_ODE

    @pytest.mark.parametrize("failing_rtols, retired", [((1e-6,), False), ((1e-6, 1e-10), True)])
    def test_loose_failure_solved_again_at_full_tolerance(self, perturbed_spec, monkeypatch,
                                                          failing_rtols, retired):
        # the solve fails whenever the start (7, 7) is in it at one of failing_rtols
        bad = math.log(7.0)
        alone = []
        real = simulate.solve_ivp

        def failing(field, span, y0, **kwargs):
            starts = y0.reshape(2, 3, -1)[:, 0]
            failed = kwargs["rtol"] in failing_rtols and np.any(starts == bad)
            if starts.shape[1] == 1 and np.all(starts == bad):
                alone.append((kwargs["rtol"], not failed))
            if failed:
                return SimpleNamespace(success=False, message="step size too small")
            return real(field, span, y0, **kwargs)

        monkeypatch.setattr(simulate, "solve_ivp", failing)
        guesses = [np.array([2.0, 2.0]), np.array([7.0, 7.0])]
        outcomes = simulate._newton(perturbed_spec, guesses)
        assert not isinstance(outcomes[0], Exception)
        assert isinstance(outcomes[1], StepFailure) == retired
        # the batched loose solve failed and was repeated start by start; the
        # start's own loose failure sent it to a full solve in the same iteration
        assert alone == [(1e-6, False), (simulate.TOL_ODE, not retired)]


class TestInSearchDeduplication:
    @pytest.mark.parametrize("name", ["perturbed_spec", "saddle_spec"])
    def test_no_solve_reaches_an_accepted_orbit(self, name, request, monkeypatch):
        spec = request.getfixturevalue(name)
        solves, outcomes = [], []
        real_flow, real_newton = simulate._log_flow, simulate._newton

        def recording(spec, z, ts, *args, **kwargs):
            # a Newton solve reads t = T only
            if len(ts) == 1:
                solves.append(z.copy())
            return real_flow(spec, z, ts, *args, **kwargs)

        def keeping(*args):
            result = real_newton(*args)
            outcomes.extend(result)
            return result

        monkeypatch.setattr(simulate, "_log_flow", recording)
        monkeypatch.setattr(simulate, "_newton", keeping)
        assert find_coexistence_multistart(spec)
        accepted = [outcome[0] for outcome in outcomes if not isinstance(outcome, Exception)]
        assert accepted
        for z in accepted:
            # the solve that accepted z is the last one started from it
            last = max(k for k, zs in enumerate(solves) if np.any(np.all(zs == z[:, None], axis=0)))
            for zs in solves[last + 1:]:
                assert np.all(np.max(np.abs(zs - z[:, None]), axis=0) >= simulate._SAME_ORBIT)

    def test_perturbed_demo_retires_duplicates(self, perturbed_spec, monkeypatch):
        solves, outcomes = [], []
        real_solve, real_newton = simulate.solve_ivp, simulate._newton

        def counting(*args, **kwargs):
            if len(kwargs["t_eval"]) == 1:
                solves.append(len(args[2]))
            return real_solve(*args, **kwargs)

        def keeping(*args):
            result = real_newton(*args)
            outcomes.extend(result)
            return result

        monkeypatch.setattr(simulate, "solve_ivp", counting)
        monkeypatch.setattr(simulate, "_newton", keeping)
        assert len(find_coexistence_multistart(perturbed_spec)) == 1
        # starts on the found orbit are retired, not solved to the end again
        assert len(solves) <= 5
        duplicates = [outcome for outcome in outcomes if isinstance(outcome, simulate.Duplicate)]
        assert duplicates
        # each names the guess that represents its orbit
        assert all(isinstance(outcomes[d.index], tuple) for d in duplicates)


class TestStackedNewtonStep:
    @staticmethod
    def second_solve(spec, guesses, monkeypatch, singular):
        """The log starts of the first two Newton solves; with ``singular``,
        the first solve reads Phi(T) = I + ones at the second start, so its
        Phi(T) - I is singular.  Also returns that solve's end states."""
        starts, ends = [], []
        real_flow = simulate._log_flow

        class Stop(Exception):
            pass

        def flow(spec, z, ts, tol):
            starts.append(z.copy())
            if len(starts) == 2:
                raise Stop
            states, failures = real_flow(spec, z, ts, tol)
            if singular:
                states[:, 1:, 1, -1] = np.eye(2) + 1.0
            ends.append(states[..., -1].copy())
            return states, failures

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_log_flow", flow)
            with pytest.raises(Stop):
                simulate._newton(spec, guesses)
        return starts[0], starts[1], ends[0]

    def test_singular_start_takes_the_least_squares_step(self, perturbed_spec, monkeypatch):
        guesses = [np.array([1.5, 2.5]), np.array([2.5, 1.5]), np.array([3.0, 3.0])]
        z0, z1, end = self.second_solve(perturbed_spec, guesses, monkeypatch, singular=True)
        plain = self.second_solve(perturbed_spec, guesses, monkeypatch, singular=False)
        np.testing.assert_array_equal(plain[0], z0)
        # the singular start moves by the clamped minimum-norm step of ones dz = -f
        f = end[:, 0, 1] - z0[:, 1]
        dz = np.linalg.lstsq(np.ones((2, 2)), -f, rcond=None)[0]
        step = np.max(np.abs(dz))
        if step > simulate._MAX_LOG_STEP:
            dz *= simulate._MAX_LOG_STEP / step
        assert dz[0] != 0.0 and dz[0] == pytest.approx(dz[1], rel=1e-12)
        np.testing.assert_array_equal(z1[:, 1], z0[:, 1] + dz)
        # the others move as in the same batch without it, bit for bit
        np.testing.assert_array_equal(z1[:, [0, 2]], plain[1][:, [0, 2]])
        assert not np.array_equal(z1[:, [0, 2]], z0[:, [0, 2]])


class TestBoxRetirement:
    def test_far_guess_retired_before_solving(self, saddle_spec, monkeypatch):
        # log v = 49 lies far above log V = 9.85; without the box Newton
        # spends all its iterations out there before giving up
        calls = []
        real = simulate.solve_ivp

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "solve_ivp", counting)
        with pytest.raises(NoConvergence, match="a-priori box"):
            find_coexistence(saddle_spec, (1.0, math.e ** 49))
        assert len(calls) <= 1

    @pytest.mark.parametrize("excess, retired", [(0.9, False), (1.1, True)])
    def test_margin_is_two_full_steps(self, saddle_spec, monkeypatch, excess, retired):
        monkeypatch.setattr(simulate, "NEWTON_MAX_ITER", 1)
        bounds = compute_uv(saddle_spec)
        guess = np.array([1.0, bounds.V * math.exp(excess * 2.0 * simulate._MAX_LOG_STEP)])
        outcome = simulate._newton(saddle_spec, [guess])[0]
        assert isinstance(outcome, NoConvergence)
        assert ("a-priori box" in str(outcome)) == retired

    def test_saddle_kept_by_random_starts(self):
        # a forced saddle system whose random starts all climb more than one
        # step above log V on their way to the orbit
        spec = SystemSpec(T=6.76333085, a=TRIG(1.093558895, [(1, 0.0, 0.94142464)]),
                          b=C(0.009119026), c=C(1.047122093), d=C(-1.055792509),
                          e=C(1.072105693), f=C(0.010953599))
        orbits = find_coexistence_multistart(spec)
        assert len(orbits) == 1
        assert floquet(orbits[0]).classification == UNSTABLE

    def test_log_floor_follows_a_box_below_one(self, monkeypatch):
        # v ~ 3e-300 (log v ~ -690): a floor of 50 below 0 retired every
        # start; 50 below log V keeps them
        spec = parse_config(TINY_CV)
        orbits = find_coexistence_multistart(spec)
        assert len(orbits) == 1
        assert start(orbits[0]) == pytest.approx((2.0, 3e-300), rel=1e-9)
        monkeypatch.setattr(simulate, "NEWTON_MAX_ITER", 1)
        outcome = simulate._newton(spec, [np.array([2.0, 1e-300])])[0]
        assert "no fixed point after 1 iterations" in str(outcome)

    def test_log_floor_never_rises_above_minus_50(self):
        # U = V = 1e20 (log 46) and an orbit at (1e-3, 1e-3): a floor of
        # 50 below log U (-4) would retire the equilibrium start and every
        # random start descending to it
        spec = const_spec(1.0, 1e-20, 1e3, 0.0, 1.0, 1.0)
        orbits = find_coexistence_multistart(spec)
        assert len(orbits) == 1
        assert start(orbits[0]) == pytest.approx((1e-3, 1e-3), rel=1e-9)

    def test_log_ceiling_stays_absolute(self):
        # log U ~ 690: the field near the box overflows the solver's
        # first-step estimate, so iterates above log 50 are still retired
        # and the search ends without a ZeroDivisionError
        spec = const_spec(1e300, 1.0, 1.0, 1.0, 1.0, 1.0, T=1e-300)
        assert isinstance(find_coexistence_multistart(spec), list)

    def test_no_box_retires_every_start_unsolved(self, monkeypatch):
        # a = -1 makes U <= 0: no orbit has max u < U, so nothing is solved
        spec = const_spec(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert spec.bounds.U <= 0

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ivp called without an a-priori box")

        monkeypatch.setattr(simulate, "solve_ivp", no_solve)
        guesses = [np.array([1.0, 1.0]), np.array([0.5, 2.0]), np.array([-1.0, 1.0])]
        outcomes = simulate._newton(spec, guesses)
        assert len(outcomes) == len(guesses)
        for outcome in outcomes:
            assert isinstance(outcome, NoConvergence)
            assert "no a-priori box" in str(outcome)
            assert f"U = {spec.bounds.U}, V = {spec.bounds.V}" in str(outcome)
        assert find_coexistence_multistart(spec) == []

    @pytest.mark.parametrize("a, d", [(1e10, 1.0), (1.0, -1e10)])
    def test_stiff_system_refused_before_any_solve(self, monkeypatch, a, d):
        # T * max|a| or T * max|d| = 1e10 is more than logistic.MAX_GRID
        spec = const_spec(a, 1.0, 1.0, d, 1.0, 1.0)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ivp called on a stiff system")

        monkeypatch.setattr(simulate, "solve_ivp", no_solve)
        began = time.perf_counter()
        with pytest.raises(GridTooLarge, match="too stiff to integrate"):
            find_coexistence_multistart(spec)
        assert time.perf_counter() - began < 2.0


class TestForcedRegressionSystems:
    """Strongly forced systems where the period map's fixed points are hard
    to find: verdict and orbits must agree."""

    def test_deep_dip_orbit_found(self):
        # certified by conditions 18/19; v dips to e^-15.4 while u reaches
        # e^3.47, yet the orbit is no boundary state
        spec = parse_config(DEEP_DIP)
        assert scan_p(spec, (1.0, 2.0, INF)).conclusion == GLOBALLY_STABLE_VIA_18_19
        orbits = find_coexistence_multistart(spec)
        assert len(orbits) == 1
        assert floquet(orbits[0]).classification == ASYMPTOTICALLY_STABLE
        assert verify_predictions(spec, orbits[0]).all_ok
        assert orbits[0].vs.min() < 1e-8 * orbits[0].us.max()

    def test_three_orbits(self):
        # fixed-point indices +1, -1 and +1, summing to 1; no test certifies
        # uniqueness, as none may
        spec = parse_config(THREE_ORBITS)
        assert scan_p(spec, (1.0, 2.0, INF)).conclusion == INCONCLUSIVE
        orbits = find_coexistence_multistart(spec)
        assert [floquet(o).classification for o in orbits] == \
            [UNSTABLE, UNSTABLE, ASYMPTOTICALLY_STABLE]


DEMO = {"a": 2.0102, "b": 1.0, "c": 0.0051, "d": 2.0203, "e": 0.9898, "f": 2.0}


@st.composite
def perturbed_demo_systems(draw, t_max=2.0):
    """The demo constants with one or two harmonics of up to 10% on a and d,
    at a period in [0.5, t_max]."""
    n = draw(st.integers(1, 2))
    coefs = {name: C(value) for name, value in DEMO.items()}
    for name in "ad":
        ks = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n, unique=True))
        amp = st.floats(-0.1, 0.1).map(lambda x: x * DEMO[name])
        coefs[name] = TRIG(DEMO[name], [(k, draw(amp), draw(amp)) for k in ks])
    return SystemSpec(T=draw(st.floats(0.5, t_max)), **coefs)


class TestOrbitInvariants:
    @given(perturbed_demo_systems())
    @settings(max_examples=20, deadline=None)
    def test_multistart_orbits_check_out(self, spec):
        orbits = find_coexistence_multistart(spec)
        assert orbits
        for orbit in orbits:
            det = np.linalg.det(orbit.monodromy)
            ref = liouville_determinant(spec, orbit)
            assert abs(det - ref) <= 1e-6 * abs(ref)
            assert np.max(np.abs(poincare_map(spec, start(orbit)) - start(orbit))) <= 1e-9
            assert verify_predictions(spec, orbit).all_ok


def saddle_systems():
    """The forced, weakly damped family around ``saddle_spec``, at a period
    in [0.5, 7]."""
    x = st.floats(0.9, 1.1)
    damping = st.floats(0.008, 0.012)
    return st.builds(
        lambda T, a0, a1, b, c, d, e, f: SystemSpec(
            T=T, a=TRIG(a0, [(1, 0.0, a1)]), b=C(b), c=C(c), d=C(-d), e=C(e), f=C(f)),
        st.floats(0.5, 7.0), x, st.floats(0.8, 0.95), damping, x, x, x, damping)


class TestInexactNewton:
    @given(st.one_of(perturbed_demo_systems(7.0), saddle_systems()))
    @settings(max_examples=20, deadline=None)
    def test_same_orbits_as_an_all_full_tolerance_search(self, spec):
        scheduled = find_coexistence_multistart(spec)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_LOOSE_RESIDUAL", math.inf)
            full = find_coexistence_multistart(spec)
        assert len(scheduled) == len(full)
        assert [floquet(o).classification for o in scheduled] == \
            [floquet(o).classification for o in full]
        for a, b in zip(scheduled, full):
            np.testing.assert_allclose(start(a), start(b), rtol=1e-9, atol=0)


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
                            periodicity_residual=0.0, newton_residual=0.0,
                            monodromy=np.eye(2))

    def test_positive_samples_required(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            PeriodicOrbit2D(T=1.0, ts=ts, us=np.array([1, 1, -1, 1, 1.0]),
                            vs=np.ones(5), periodicity_residual=0.0,
                            newton_residual=0.0, monodromy=np.eye(2))

    def test_periodicity_residual_bounded(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            PeriodicOrbit2D(T=1.0, ts=ts, us=np.ones(5), vs=np.ones(5),
                            periodicity_residual=1e-3, newton_residual=0.0,
                            monodromy=np.eye(2))


def test_import_skips_scipy_interpolate():
    src = str(Path(pplv.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import pplv; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
