import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from pplv import logistic
from pplv.coeffs import PeriodicCoefficient
from pplv.logistic import (
    MAX_GRID,
    START_GRID,
    GridTooLarge,
    NoPositiveSolution,
    PeriodicOrbit1D,
    periodic_logistic,
    weighted_average,
)

C = PeriodicCoefficient.constant
TRIG = PeriodicCoefficient.trig


def test_constant_equilibrium_unit():
    orbit = periodic_logistic(C(1.0), C(1.0), 1.0)
    assert np.max(np.abs(orbit.values - 1.0)) < 1e-12


def test_constant_equilibrium_ratio():
    orbit = periodic_logistic(C(2.0102), C(1.0), 1.0)
    assert np.max(np.abs(orbit.values - 2.0102)) < 1e-12


def test_mean_forced_by_unit_damping():
    # dividing the equation by the solution and integrating over a period
    # forces avg(damping * orbit) = mean growth; with damping = 1 the orbit
    # average is the growth mean
    orbit = periodic_logistic(TRIG(1.0, [(1, 0.0, 0.5)]), C(1.0), 1.0)
    assert weighted_average(C(1.0), orbit) == pytest.approx(1.0, abs=1e-10)


def test_no_positive_solution_for_nonpositive_mean():
    with pytest.raises(NoPositiveSolution):
        periodic_logistic(C(-0.5), C(1.0), 1.0)
    with pytest.raises(NoPositiveSolution):
        periodic_logistic(TRIG(0.0, [(1, 0.0, 1.0)]), C(1.0), 1.0)


def test_positivity_and_periodicity():
    orbit = periodic_logistic(TRIG(0.8, [(1, 0.5, -0.3), (2, 0.0, 0.2)]),
                              TRIG(1.0, [(1, 0.0, 0.4)]), 2.0)
    assert np.min(orbit.values) > 0
    assert abs(orbit.values[0] - orbit.values[-1]) <= 1e-9 * np.max(orbit.values)


def _cells(orbit):
    return len(orbit.ts) - 1


def _old_grid(growth, T):
    # the fixed-floor rule the sized grid must never exceed without a harmonic
    # that needs it: max(2048, ceil(T * max|growth|))
    bound = abs(growth.mean) + sum(math.hypot(ck, sk) for _, ck, sk in growth.harmonics)
    return max(2048, math.ceil(T * bound))


@pytest.mark.parametrize("seed, coarse", [
    *(pytest.param(seed, False, id=f"{seed}") for seed in range(10)),
    *(pytest.param(seed, True, id=f"{seed}-n64") for seed in range(10)),
])
def test_logistic_identity_randomized(seed, coarse, monkeypatch):
    # avg(damping * orbit) must equal the growth mean, on the grid the state
    # sizes itself and on the 64-cell start grid with no doubling
    if coarse:
        monkeypatch.setattr(logistic, "_DOUBLING_CAP", START_GRID)
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(0.2, 2.0)
    growth = TRIG(c0, [(1, rng.uniform(-1, 1) * c0, rng.uniform(-1, 1) * c0),
                       (2, 0.3 * rng.uniform(-1, 1) * c0, 0.0)])
    b0 = rng.uniform(0.5, 2.0)
    damping = TRIG(b0, [(1, rng.uniform(-0.4, 0.4) * b0, rng.uniform(-0.4, 0.4) * b0)])
    T = rng.uniform(0.4, 3.0)
    orbit = periodic_logistic(growth, damping, T)
    if coarse:
        assert _cells(orbit) == START_GRID
    assert _cells(orbit) <= _old_grid(growth, T)
    assert weighted_average(damping, orbit) == pytest.approx(growth.mean, abs=1e-13)


_HARMONICS = st.lists(
    st.tuples(st.integers(1, 64), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    max_size=4, unique_by=lambda h: h[0])


@settings(max_examples=60, deadline=None)
@given(c0=st.floats(0.1, 2.0), growth_hs=_HARMONICS, b0=st.floats(0.5, 2.0),
       damping_hs=_HARMONICS, log_T=st.floats(math.log(1e-3), math.log(1e2)))
def test_logistic_identity_property(c0, growth_hs, b0, damping_hs, log_T):
    # harmonics up to 64 in both coefficients, growth possibly changing sign,
    # damping kept above b0 / 2; T log-uniform over five decades
    growth = TRIG(c0, [(k, c0 * ck, c0 * sk) for k, ck, sk in growth_hs])
    scale = 0.5 * b0 / max(1.0, sum(math.hypot(ck, sk) for _, ck, sk in damping_hs))
    damping = TRIG(b0, [(k, scale * ck, scale * sk) for k, ck, sk in damping_hs])
    T = math.exp(log_T)
    orbit = periodic_logistic(growth, damping, T)
    top = max((k for k, _, _ in growth_hs + damping_hs), default=0)
    assert _cells(orbit) <= max(_old_grid(growth, T), 8 * top)
    assert weighted_average(damping, orbit) == pytest.approx(c0, rel=1e-12, abs=0)


@pytest.mark.parametrize("damping, weight", [
    (TRIG(1.0, [(2047, 0.0, 0.5)]), TRIG(1.0, [(2047, 0.0, 0.5)])),
    (C(1.0), TRIG(1.0, [(2047, 0.5, 0.0)])),
], ids=["damping2047", "weight2047"])
def test_high_harmonic_does_not_alias(damping, weight):
    # on 2048 cells harmonic 2047 sampled as harmonic 1: avg(damping * theta)
    # read 0.99691 and avg(weight * theta) 0.98061; both are exactly 1
    # (mean growth, and mean theta when damping = 1)
    orbit = periodic_logistic(TRIG(1.0, [(1, 0.0, 0.5)]), damping, 1.0)
    assert weighted_average(weight, orbit) == pytest.approx(1.0, abs=1e-12)


def test_weighted_average_against_direct_integration():
    # a weight other than the damping, with a harmonic above the growth's and
    # the damping's; the reference state comes from shooting with solve_ivp and
    # its weighted integral from the same solve
    growth = TRIG(0.9, [(1, 0.5, -0.4), (3, 0.0, 0.3)])
    damping = TRIG(1.2, [(2, 0.3, 0.2)])
    weight = TRIG(0.7, [(1, -0.2, 0.1), (5, 0.4, 0.0)])
    T = 1.7

    def rhs(t, y):
        u = y[0]
        return [u * (growth.evaluate(T, t) - damping.evaluate(T, t) * u),
                weight.evaluate(T, t) * u]

    def period_map(u0):
        sol = solve_ivp(rhs, (0.0, T), [u0, 0.0], method="DOP853", rtol=1e-13, atol=1e-14)
        assert sol.success
        return sol.y[:, -1]

    u0 = brentq(lambda u: period_map(u)[0] - u, 0.05, 5.0, xtol=1e-15)
    reference = period_map(u0)[1] / T
    orbit = periodic_logistic(growth, damping, T)
    assert weighted_average(weight, orbit) == pytest.approx(reference, rel=1e-10)


def test_against_direct_integration():
    growth = TRIG(1.1, [(1, 0.6, -0.2)])
    damping = TRIG(1.5, [(1, 0.0, 0.5)])
    T = 1.3
    orbit = periodic_logistic(growth, damping, T)

    def rhs(t, y):
        return [y[0] * (growth.evaluate(T, t) - damping.evaluate(T, t) * y[0])]

    sol = solve_ivp(rhs, (0.0, T), [orbit.values[0]], t_eval=orbit.ts,
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    assert np.max(np.abs(sol.y[0] - orbit.values)) < 1e-8 * np.max(orbit.values)


def test_weighted_average_examples():
    unit = periodic_logistic(C(1.0), C(1.0), 1.0)
    assert weighted_average(C(1.0), unit) == pytest.approx(1.0, abs=1e-12)
    big = periodic_logistic(C(2.0102), C(1.0), 1.0)
    assert weighted_average(C(0.9898), big) == pytest.approx(0.9898 * 2.0102, abs=1e-10)
    assert weighted_average(C(0.0), big) == 0.0


@pytest.mark.parametrize("ts", [
    np.array([0.0, 0.2, 0.5, 1.0]),   # not uniform
    np.linspace(0.0, 2.0, 5),         # uniform, but not over [0, T]
    np.linspace(0.1, 1.1, 5),         # shifted start
    np.array([0.0]),                  # no cell
])
def test_orbit_rejects_nonuniform_grid(ts):
    with pytest.raises(ValueError, match="grid"):
        PeriodicOrbit1D(T=1.0, ts=ts, values=np.ones_like(ts))


@pytest.mark.parametrize("growth, T", [
    (C(1e-311), 1.0), (TRIG(1e-311, [(1, 0.0, 0.0)]), 1.0), (TRIG(2e-290, [(1, 1.0, 0.0)]), 1.0),
    (TRIG(1e-17, [(2, 0.0, 0.5)]), 1.0), (C(5e-324), 0.3),
], ids=[f"growth{i}" for i in range(5)])
def test_tiny_mean_growth(growth, T):
    # A(T) rounded to the sign of sin(2*pi) ~ -2.4e-16 and 1/expm1(T*lam)
    # overflowed: both made the state non-positive; T * lam = 1.5e-324
    # rounds to 0, whose log s was a math domain error
    orbit = periodic_logistic(growth, C(1.0), T)
    assert np.min(orbit.values) > 0
    # u' = u*(a - u) has mean(a) = mean(theta) when b = 1
    assert weighted_average(C(1.0), orbit) == pytest.approx(growth.mean, rel=1e-6, abs=0)


@pytest.mark.parametrize("T", [400.0, 1e4, 1e5])
def test_constant_state_beyond_exp_range(T):
    # T * mean(growth) = 800, 2e4 and 2e5: exp(A) and expm1(T * mean)
    # overflow, and a fixed 2048 cells would let A rise by up to 98 over one
    # Gauss panel; the grid grows so that it rises by at most 1, and the
    # constant state needs no more
    orbit = periodic_logistic(C(2.0), C(1.0), T)
    assert _cells(orbit) == math.ceil(2.0 * T)
    assert np.max(np.abs(orbit.values - 2.0)) <= 1e-10 * 2.0


@pytest.mark.parametrize("growth, T", [(C(2.0), 1e300), (C(1e308), 1.0),
                                       (C(2.0), MAX_GRID / 2.0 + 1.0),
                                       (TRIG(2.0, [(MAX_GRID // 8 + 1, 0.1, 0.0)]), 1.0)])
def test_grid_beyond_cap_rejected(growth, T):
    # the last asks for 8 cells per period of its harmonic
    with pytest.raises(GridTooLarge):
        periodic_logistic(growth, C(1.0), T)


def test_trig_growth_beyond_exp_range():
    # T * mean(growth) = 1000 with growth changing sign for part of the period
    growth = TRIG(2.5, [(1, 0.0, 3.0)])
    orbit = periodic_logistic(growth, C(1.0), 400.0)
    assert np.min(orbit.values) > 0
    assert weighted_average(C(1.0), orbit) == pytest.approx(2.5, rel=1e-12)


def test_damping_integral_below_normal_range():
    # T = 1e-300 and damping 1e-100: each Gauss panel's integral of the damping
    # underflows to 0 in double, which read as non-positive damping
    orbit = periodic_logistic(C(0.5), C(1e-100), 1e-300)
    assert np.max(np.abs(orbit.values - 5e99)) <= 1e-10 * 5e99
    assert weighted_average(C(1e-100), orbit) == pytest.approx(0.5, rel=1e-10)


def test_sign_changing_damping_rejected():
    with pytest.raises(ValueError, match="damping"):
        periodic_logistic(C(1.0), TRIG(0.1, [(1, 1.0, 0.0)]), 1.0)
