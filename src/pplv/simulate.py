"""Direct numerical verification of the planar system.

Integrates the system with an embedded adaptive Runge-Kutta 4(5) pair,
locates coexistence states as fixed points of the period map by Newton
iteration with a finite-difference Jacobian, computes Floquet multipliers
from the monodromy matrix of the variational equation, and checks the
a-priori component bounds and region membership on every found orbit.
Orbit means use the trapezoid rule on the uniform sample grid; orbit
suprema come from the trigonometric interpolant of the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .coeffs import SystemSpec
from .jfunc import INF
from .logistic import check_uniform_grid, periodic_mean
from .region import RegionBounds, compute_uv, cp_slack, region_spec

TOL_ODE = 1e-10
TOL_FLOQUET = 1e-8
TOL_PERIODIC_2D = 1e-9
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
FD_STEP = 1e-7
_BOUNDARY_FRACTION = 1e-8
# Oversampling factor of the trigonometric interpolant behind component_max.
_MAX_REFINE = 8

ASYMPTOTICALLY_STABLE = "asymptotically_stable"
LINEARLY_STABLE_NONSTRICT = "linearly_stable_nonstrict"
UNSTABLE = "unstable"


class StepFailure(RuntimeError):
    """The adaptive integrator could not complete the requested span."""


class NoConvergence(RuntimeError):
    """Newton iteration on the period map did not converge."""


class NonPositive(RuntimeError):
    """An iterate or trajectory left the open positive quadrant."""


@dataclass(frozen=True)
class PeriodicOrbit2D:
    """A T-periodic coexistence orbit (both components positive) sampled
    on a closed uniform grid."""

    T: float
    ts: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    periodicity_residual: float
    newton_residual: float

    def __post_init__(self) -> None:
        check_uniform_grid(self.T, self.ts)
        if np.any(self.us <= 0) or np.any(self.vs <= 0):
            raise ValueError("coexistence orbit samples must be strictly positive")
        scale = max(1.0, float(np.max(self.us)), float(np.max(self.vs)))
        if self.periodicity_residual > TOL_PERIODIC_2D * scale:
            raise ValueError(
                f"periodicity residual {self.periodicity_residual:.3e} too large")

    @property
    def start(self) -> np.ndarray:
        return np.array([self.us[0], self.vs[0]])

    def component_max(self) -> tuple[float, float]:
        """Componentwise suprema over the period.

        The maxima of the trigonometric interpolant of the samples, read on
        a grid ``_MAX_REFINE`` times finer by zero-padding the spectrum.
        """
        n = len(self.ts) - 1
        spectrum = np.fft.rfft(np.stack((self.us[:-1], self.vs[:-1])), axis=1)
        if n % 2 == 0:
            # the Nyquist term splits evenly between frequencies +n/2 and -n/2
            spectrum[:, n // 2] *= 0.5
        m = _MAX_REFINE * n
        fine = np.fft.irfft(spectrum, m, axis=1) * (m / n)
        return float(np.max(fine[0])), float(np.max(fine[1]))


@dataclass(frozen=True)
class FloquetData:
    """Monodromy matrix, its eigenvalues, and the stability classification."""

    monodromy: np.ndarray
    multipliers: tuple[complex, complex]
    classification: str


def _rhs(spec: SystemSpec):
    T = spec.T
    a, b, c, d, e, f = spec.a, spec.b, spec.c, spec.d, spec.e, spec.f

    def rhs(t, y):
        u, v = y
        at = a.evaluate(T, t)
        bt = b.evaluate(T, t)
        ct = c.evaluate(T, t)
        dt = d.evaluate(T, t)
        et = e.evaluate(T, t)
        ft = f.evaluate(T, t)
        return (u * (at - bt * u - ct * v), v * (dt + et * u - ft * v))

    return rhs


def integrate(spec: SystemSpec, state0: Sequence[float], t0: float, t1: float,
              t_eval: Optional[np.ndarray] = None, rtol: float = TOL_ODE):
    """Adaptive RK45 solution of the system from ``state0`` over [t0, t1]."""
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    state0 = np.asarray(state0, dtype=float)
    if np.any(state0 <= 0):
        raise NonPositive(f"initial state {state0} is not in the open quadrant")
    sol = solve_ivp(_rhs(spec), (t0, t1), state0, method="RK45",
                    rtol=rtol, atol=1e-12, t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise StepFailure(sol.message)
    return sol


def poincare_map(spec: SystemSpec, state0: Sequence[float]) -> np.ndarray:
    """Solution value at t = T starting from ``state0`` at t = 0."""
    sol = integrate(spec, state0, 0.0, spec.T)
    return sol.y[:, -1].copy()


def find_coexistence(spec: SystemSpec, guess: Sequence[float],
                     n_samples: int = 512) -> PeriodicOrbit2D:
    """Newton iteration on the period map around ``guess``.

    The Jacobian of the map is approximated by forward differences with
    step 1e-7 * (1 + |component|); convergence requires the fixed-point
    residual to fall below 1e-10 in the sup norm.
    """
    x = np.asarray(guess, dtype=float).copy()
    eye = np.eye(2)
    residual = math.inf
    for _ in range(NEWTON_MAX_ITER):
        if np.any(x <= 0) or not np.all(np.isfinite(x)):
            raise NonPositive(f"Newton iterate {x} left the open quadrant")
        px = poincare_map(spec, x)
        fvec = px - x
        residual = float(np.max(np.abs(fvec)))
        if residual <= NEWTON_TOL:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            h = FD_STEP * (1.0 + abs(x[j]))
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (poincare_map(spec, xp) - px) / h
        amat = jac - eye
        try:
            dx = np.linalg.solve(amat, -fvec)
        except np.linalg.LinAlgError:
            # near-singular map Jacobian: fall back to a damped least-squares step
            dx = np.linalg.lstsq(amat, -fvec, rcond=None)[0]
        x = x + dx
    else:
        raise NoConvergence(
            f"no fixed point after {NEWTON_MAX_ITER} iterations (residual {residual:.3e})")

    ts = np.linspace(0.0, spec.T, n_samples + 1)
    sol = integrate(spec, x, 0.0, spec.T, t_eval=ts)
    us, vs = sol.y[0], sol.y[1]
    if np.any(us <= 0) or np.any(vs <= 0):
        raise NonPositive("converged orbit is not strictly positive")
    # Newton happily converges onto the one-species boundary states, whose
    # vanishing component shows up as roundoff-level positive values; those
    # are not coexistence states.
    scale = max(float(np.max(us)), float(np.max(vs)))
    if np.min(us) <= _BOUNDARY_FRACTION * scale \
            or np.min(vs) <= _BOUNDARY_FRACTION * scale:
        raise NonPositive("converged to a boundary (one-species) state")
    per_res = float(max(abs(us[-1] - us[0]), abs(vs[-1] - vs[0])))
    return PeriodicOrbit2D(T=spec.T, ts=ts, us=us, vs=vs,
                           periodicity_residual=per_res, newton_residual=residual)


def _jacobian(spec: SystemSpec, t: float, u: float, v: float) -> np.ndarray:
    T = spec.T
    at = spec.a.evaluate(T, t)
    bt = spec.b.evaluate(T, t)
    ct = spec.c.evaluate(T, t)
    dt = spec.d.evaluate(T, t)
    et = spec.e.evaluate(T, t)
    ft = spec.f.evaluate(T, t)
    return np.array([
        [at - 2.0 * bt * u - ct * v, -ct * u],
        [et * v, dt + et * u - 2.0 * ft * v],
    ])


def floquet(spec: SystemSpec, orbit: PeriodicOrbit2D) -> FloquetData:
    """Monodromy matrix and multipliers of the variational equation.

    The orbit and the 2x2 fundamental matrix are integrated together from
    the orbit start with identity initial matrix; the classification uses
    a strict band of width 1e-8 around the unit circle.
    """
    rhs = _rhs(spec)

    def aug(t, z):
        u, v = z[0], z[1]
        du, dv = rhs(t, (u, v))
        amat = _jacobian(spec, t, u, v)
        dx = amat @ z[2:].reshape(2, 2)
        return np.concatenate(([du, dv], dx.ravel()))

    z0 = np.concatenate((orbit.start, np.eye(2).ravel()))
    sol = solve_ivp(aug, (0.0, spec.T), z0, method="RK45", rtol=TOL_ODE, atol=1e-12)
    if not sol.success:
        raise StepFailure(sol.message)
    monodromy = sol.y[2:, -1].reshape(2, 2)
    mults = np.linalg.eigvals(monodromy)
    moduli = np.abs(mults)
    if np.all(moduli < 1.0 - TOL_FLOQUET):
        cls = ASYMPTOTICALLY_STABLE
    elif np.any(moduli > 1.0 + TOL_FLOQUET):
        cls = UNSTABLE
    else:
        cls = LINEARLY_STABLE_NONSTRICT
    return FloquetData(monodromy=monodromy,
                       multipliers=(complex(mults[0]), complex(mults[1])),
                       classification=cls)


def liouville_determinant(spec: SystemSpec, orbit: PeriodicOrbit2D) -> float:
    """exp of the integrated Jacobian trace along the orbit.

    Equals det(monodromy) exactly in exact arithmetic; the comparison is a
    cross-check on the variational integration.
    """
    ts, u, v = orbit.ts, orbit.us, orbit.vs
    T = spec.T
    trace = (spec.a.evaluate(T, ts) - 2.0 * spec.b.evaluate(T, ts) * u
             - spec.c.evaluate(T, ts) * v
             + spec.d.evaluate(T, ts) + spec.e.evaluate(T, ts) * u
             - 2.0 * spec.f.evaluate(T, ts) * v)
    return math.exp(T * periodic_mean(trace))


def orbit_averages(orbit: PeriodicOrbit2D, p: float) -> tuple[float, float]:
    """The p-averages of the two orbit components (suprema for p = inf)."""
    if not p >= 1.0:
        raise ValueError(f"exponent p must lie in [1, inf], got {p!r}")
    if math.isinf(p):
        return orbit.component_max()
    return (periodic_mean(orbit.us ** p) ** (1.0 / p),
            periodic_mean(orbit.vs ** p) ** (1.0 / p))


@dataclass(frozen=True)
class MembershipCheck:
    p: float
    u_avg: float
    v_avg: float
    slack: float
    ok: bool


@dataclass(frozen=True)
class PredictionReport:
    """Empirical check of the component bounds and region membership."""

    bounds: RegionBounds
    u_max: float
    v_max: float
    u_slack: float
    v_slack: float
    bounds_ok: bool
    memberships: tuple[MembershipCheck, ...]

    @property
    def all_ok(self) -> bool:
        return self.bounds_ok and all(m.ok for m in self.memberships)


DEFAULT_MEMBERSHIP_PS = (1.0, 1.5, 2.0, 4.0, 10.0, INF)
_SLACK_TOL = 1e-6


def verify_predictions(spec: SystemSpec, orbit: PeriodicOrbit2D,
                       ps: Sequence[float] = DEFAULT_MEMBERSHIP_PS) -> PredictionReport:
    """Check max u <= U, max v <= V and p-average membership for each p."""
    bounds = compute_uv(spec)
    u_max, v_max = orbit.component_max()
    u_slack = bounds.U - u_max
    v_slack = bounds.V - v_max
    memberships = []
    for p in ps:
        reg = region_spec(spec, p)
        u_avg, v_avg = orbit_averages(orbit, p)
        slack = cp_slack(reg, u_avg, v_avg)
        ok = (u_avg > 0 and v_avg > 0 and slack >= -_SLACK_TOL)
        memberships.append(MembershipCheck(p=p, u_avg=u_avg, v_avg=v_avg,
                                           slack=slack, ok=ok))
    return PredictionReport(
        bounds=bounds,
        u_max=u_max, v_max=v_max,
        u_slack=u_slack, v_slack=v_slack,
        bounds_ok=(u_slack >= -_SLACK_TOL and v_slack >= -_SLACK_TOL),
        memberships=tuple(memberships),
    )


def find_coexistence_multistart(spec: SystemSpec, n_starts: int = 20, seed: int = 0,
                                extra_guesses: Sequence[Sequence[float]] = ()
                                ) -> list[PeriodicOrbit2D]:
    """Newton searches from deterministic random seeds in the bound box.

    Starting points are drawn uniformly from (0, U] x (0, V]; failed or
    escaping searches are dropped; distinct orbits are deduplicated by
    their starting points (distance below 1e-6) and ordered
    lexicographically for schedule independence.
    """
    bounds = compute_uv(spec)
    if bounds.U <= 0 or bounds.V <= 0:
        return []
    rng = np.random.default_rng(seed)
    guesses = [np.asarray(g, dtype=float) for g in extra_guesses]
    for _ in range(n_starts):
        guesses.append(np.array([bounds.U * (1.0 - rng.random()),
                                 bounds.V * (1.0 - rng.random())]))
    orbits: list[PeriodicOrbit2D] = []
    for g in guesses:
        try:
            orbit = find_coexistence(spec, g)
        except (NoConvergence, NonPositive, StepFailure):
            continue
        if any(np.max(np.abs(orbit.start - o.start)) < 1e-6 for o in orbits):
            continue
        orbits.append(orbit)
    orbits.sort(key=lambda o: (o.us[0], o.vs[0]))
    return orbits
