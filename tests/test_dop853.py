"""The in-package DOP853 solver against SciPy's, which serves as its oracle."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as ref

from pplv import _dop853, simulate
from pplv.coeffs import PeriodicCoefficient, SystemSpec
from pplv.constant_case import equilibrium
from pplv.simulate import StepFailure, find_coexistence_multistart, poincare_map

C = PeriodicCoefficient.constant
TRIG = PeriodicCoefficient.trig
RTOL = 1e-10


def test_tableau_matches_scipy():
    assert (_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED, _dop853.INTERPOLATOR_POWER) == \
        (ref.N_STAGES, ref.N_STAGES_EXTENDED, ref.INTERPOLATOR_POWER)
    for name in ("A", "B", "C", "D", "E3", "E5"):
        np.testing.assert_array_equal(getattr(_dop853, name), getattr(ref, name), err_msg=name)


class _Autonomous(_dop853.Field):
    """y' = fun(y): the coefficients are the times, which fun ignores."""

    def __init__(self, fun):
        self.fun = fun

    def at(self, times):
        return times

    def into(self, t, y, out):
        out[:] = self.fun(y)


def _as_function(field):
    """The field as a plain f(t, y), for SciPy."""
    def fun(t, y):
        out = np.empty_like(y)
        field.into(field.at(np.array([t]))[0], field.view(y), field.view(out))
        return out
    return fun


def _log_problem(spec, starts):
    """The log flow of ``starts`` with its variational matrices, as
    :func:`simulate._log_flow` sets it up for the sampling solve."""
    z = np.log(np.asarray(starts, dtype=float).T)
    n = z.shape[1]
    y0 = np.concatenate((z[:, None, :], np.repeat(np.eye(2)[:, :, None], n, axis=2)), axis=1)
    return simulate._LogField(spec, n), y0.ravel(), simulate._SAMPLING.atol(n)


@pytest.fixture(params=["saddle_spec", "perturbed_spec"])
def log_problem(request):
    spec = request.getfixturevalue(request.param)
    starts = [(0.05, 0.5), (1.0, 2.0), (3.0, 0.1)]
    return (spec, *_log_problem(spec, starts))


class TestAgainstScipy:
    def test_accepted_steps_match(self, log_problem):
        # read at SciPy's step times, the solve runs no dense stage, and so
        # takes SciPy's evaluations, only if it steps to exactly those times
        spec, field, y0, atol = log_problem
        theirs = scipy_solve_ivp(_as_function(field), (0.0, spec.T), y0, method="DOP853",
                                 rtol=RTOL, atol=atol)
        ours = _dop853.solve_ivp(field, (0.0, spec.T), y0, rtol=RTOL, atol=atol, t_eval=theirs.t)
        assert ours.success and theirs.success
        assert len(theirs.t) > 10
        np.testing.assert_array_equal(ours.t, theirs.t)
        np.testing.assert_array_equal(ours.y, theirs.y)
        assert ours.nfev == theirs.nfev

    @pytest.mark.parametrize("samples", [1, 513])
    def test_outputs_match(self, log_problem, samples):
        spec, field, y0, atol = log_problem
        ts = np.linspace(0.0, spec.T, samples) if samples > 1 else np.array([spec.T])
        ours = _dop853.solve_ivp(field, (0.0, spec.T), y0, rtol=RTOL, atol=atol, t_eval=ts)
        theirs = scipy_solve_ivp(_as_function(field), (0.0, spec.T), y0, method="DOP853",
                                 rtol=RTOL, atol=atol, t_eval=ts)
        assert ours.success and theirs.success
        assert ours.y.shape == theirs.y.shape == (len(y0), samples)
        np.testing.assert_allclose(ours.y, theirs.y, rtol=1e-9, atol=1e-15)
        # the 3 dense stages run for steps with an output time strictly
        # inside; SciPy also runs them when a step's output times are only
        # its end points (t = 0 counts in the first step)
        steps = scipy_solve_ivp(_as_function(field), (0.0, spec.T), y0, method="DOP853",
                                rtol=RTOL, atol=atol).t
        skipped = 0
        for i, (lo, hi) in enumerate(zip(steps[:-1], steps[1:])):
            inside = np.any((ts > lo) & (ts < hi))
            ends = np.any(ts == hi) or (i == 0 and np.any(ts == lo))
            skipped += ends and not inside
        assert skipped >= 1
        assert ours.nfev == theirs.nfev - 3 * skipped

    def test_first_step_matches(self, log_problem):
        # the sampling solve starts with the step picked at atol 1e-12 on Phi;
        # given that first step, SciPy takes the same steps, and ours takes
        # one evaluation more, for its estimate of that step
        spec, field, y0, atol = log_problem
        f0 = _as_function(field)(0.0, y0)
        step_atol = simulate._NEWTON_FULL.atol(field.n)
        h0 = _dop853._initial_step(field, 0.0, y0, f0, spec.T, RTOL, step_atol)
        assert h0 > 1e3 * _dop853._initial_step(field, 0.0, y0, f0, spec.T, RTOL, atol)
        theirs = scipy_solve_ivp(_as_function(field), (0.0, spec.T), y0, method="DOP853",
                                 rtol=RTOL, atol=atol, first_step=h0)
        ours = _dop853.solve_ivp(field, (0.0, spec.T), y0, rtol=RTOL, atol=atol, t_eval=theirs.t,
                                 first_step_atol=step_atol)
        assert ours.success and theirs.success
        assert theirs.t[1] == h0
        np.testing.assert_array_equal(ours.t, theirs.t)
        np.testing.assert_array_equal(ours.y, theirs.y)
        assert ours.nfev == theirs.nfev + 1

    def test_blow_up_fails(self):
        # y' = y**2, y(0) = 1 blows up at t = 1
        field = _Autonomous(lambda y: y ** 2)
        theirs = scipy_solve_ivp(_as_function(field), (0.0, 2.0), [1.0], method="DOP853",
                                 rtol=RTOL, atol=1e-12)
        ours = _dop853.solve_ivp(field, (0.0, 2.0), [1.0], rtol=RTOL, atol=1e-12,
                                 t_eval=theirs.t)
        assert not ours.success and not theirs.success
        assert ours.message == theirs.message == _dop853.TOO_SMALL_STEP
        assert ours.t[-1] == theirs.t[-1]
        assert ours.nfev == theirs.nfev


def test_an_output_does_not_depend_on_its_neighbours(log_problem):
    # the interpolants are evaluated in one pass after the solve: an output
    # reads the same whichever other output times share its step
    spec, field, y0, atol = log_problem
    ts = np.linspace(0.0, spec.T, 513)
    every = _dop853.solve_ivp(field, (0.0, spec.T), y0, rtol=RTOL, atol=atol, t_eval=ts)
    even = _dop853.solve_ivp(field, (0.0, spec.T), y0, rtol=RTOL, atol=atol, t_eval=ts[::2])
    assert every.success and even.success
    np.testing.assert_array_equal(even.t, every.t[::2])
    np.testing.assert_array_equal(even.y, every.y[:, ::2])


def test_blow_up_is_a_step_failure(monkeypatch):
    # the log field with A = [[1, 0], [0, 0]] and r = 0: xi' = u, so
    # u' = u**2 blows up at t = 1 from u(0) = 1, and v stays put
    class BlowUp(simulate._LogField):
        def __init__(self, spec, n):
            super().__init__(spec, n)
            self.table[:] = 0.0
            self.table[0, 0] = 1.0

    monkeypatch.setattr(simulate, "_LogField", BlowUp)
    spec = SystemSpec(T=2.0, a=C(0.0), b=C(1.0), c=C(1.0), d=C(0.0), e=C(1.0), f=C(1.0))
    with pytest.raises(StepFailure, match="step size"):
        poincare_map(spec, (1.0, 1.0))


def test_nan_field_fails_instead_of_looping():
    # SciPy's step loop never ends on a NaN step size
    sol = _dop853.solve_ivp(_Autonomous(lambda y: np.full_like(y, np.nan)), (0.0, 1.0), [1.0],
                            rtol=RTOL, atol=1e-12, t_eval=[1.0])
    assert not sol.success
    assert sol.message == _dop853.TOO_SMALL_STEP


DEMO = {"a": 2.0102, "b": 1.0, "c": 0.0051, "d": 2.0203, "e": 0.9898, "f": 2.0}
SHORT_PERIOD_SYSTEMS = {
    "demo": {},
    "perturbed_demo": {"a": TRIG(DEMO["a"], [(1, 0.0, 0.01)])},
    "two_harmonic": {"a": TRIG(DEMO["a"], [(1, 0.3, 0.5), (2, 0.0, 0.4)]),
                     "d": TRIG(DEMO["d"], [(1, 0.2, 0.0)])},
}


@pytest.mark.parametrize("T", [1e-3, 1e-6, 1e-10])
@pytest.mark.parametrize("name", list(SHORT_PERIOD_SYSTEMS))
def test_short_period_demo_has_one_orbit(name, T):
    # analyze certifies one globally stable orbit at every T.  Near the
    # equilibrium P(z) - z is about T times the log field, so only a test
    # scaled by T tells a fixed point from a slow point
    coefs = {key: C(value) for key, value in DEMO.items()} | SHORT_PERIOD_SYSTEMS[name]
    spec = SystemSpec(T=T, **coefs)
    orbits = find_coexistence_multistart(spec)
    assert len(orbits) == 1
    if name == "demo":
        start = (orbits[0].us[0], orbits[0].vs[0])
        np.testing.assert_allclose(start, equilibrium(spec), rtol=0, atol=1e-9)
