"""Direct numerical verification of the planar system.

Integrates the system with the adaptive Dormand-Prince 8(5,3) pair
(DOP853: Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, Springer 1993) of :mod:`pplv._dop853`, so it needs numpy
only; scipy serves the tests as an oracle.  It locates coexistence
states as fixed points of the period map, computes Floquet multipliers
from the monodromy matrix of the variational equation, and checks the
a-priori component bounds and region membership on every found orbit.
Orbit means use the trapezoid rule on the uniform sample grid; orbit
suprema come from the trigonometric interpolant of the samples.

All integration is one flow: the system in log coordinates
(xi, eta) = (log u, log v), where the open quadrant is all of the plane,
with the fundamental matrix Phi of its variational equation.  Period-map
Newton reads it at t = T at one of two tolerance levels:

- loose, rtol 1e-6 and absolute tolerance 1e-8 on the state and on Phi,
  on the first iteration and while the smallest residual of the live
  starts in the previous iteration is above 1e-3;
- full, rtol 1e-10 and absolute tolerance 1e-12 on the state and on Phi,
  otherwise.

The residual of a start z is its log displacement max |z(T) - z(0)|.  A
start is accepted, or retired for a failed solve, only on a full solve,
and accepted when its residual, T times the mean log field, is at most
1e-10 * T; no one-species state, at log 0 = -inf, can pass.  Each
converged orbit is solved once more, at rtol 1e-10 with 1e-20 on Phi,
for its samples (positive by construction) and its monodromy.

The fixed-point search is shooting Newton (Seydel, *Practical Bifurcation
and Stability Analysis*, Springer 2010), made inexact (Dembo, Eisenstat &
Steihaug, *SIAM J. Numer. Anal.* 19, 1982): far from a fixed point the map
need only be as accurate as a fraction of the residual.  Its Jacobian is
the exact monodromy of the log-variational equation, integrated alongside
the map, and every live start advances in the same vectorized
integration.  Every coexistence orbit lies in the a-priori box u <= U,
v <= V, so a start that leaves it by more than two steps is retired, and
a system without a box (U or V not positive) has no orbit to search for.
Starts within 1e-6 of each other in (log u, log v) lie on one orbit, and
the search applies that rule in every iteration: a start that reaches an
accepted fixed point is retired as its duplicate, so no orbit is solved
to the end twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._dop853 import Field, solve_ivp
from .coeffs import SystemSpec
from .constant_case import SingularSystem, equilibrium
from .jfunc import INF, check_exponent
from .logistic import check_uniform_grid, periodic_mean
from .region import cp_slack, region_spec

TOL_ODE = 1e-10
TOL_FLOQUET = 1e-8
TOL_PERIODIC_2D = 1e-9
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# Newton solves at the loose level (see _NEWTON_LOOSE) while the smallest
# log residual of the live starts is above _LOOSE_RESIDUAL, unscaled by T
# as the loose error is; the first iteration is loose too.
_LOOSE_RESIDUAL = 1e-3
_ORBIT_SAMPLES = 512
# Random starts of the multistart search, and the seed they are drawn with.
MULTISTART_STARTS = 20
MULTISTART_SEED = 0
# Newton steps are clamped to this sup norm in log coordinates.  An iterate
# with a log coordinate above _LOG_LIMIT is retired before the exponential
# in the right-hand side can overflow, and one more than _LOG_LIMIT below
# min(0, log U) or min(0, log V) (below 0 without a box) as diverging; the
# floor follows a box below 1 so that a component near 1e-300 is still
# searched, and never rises above -_LOG_LIMIT.  Every
# coexistence orbit satisfies u <= U and v <= V, so an iterate more than
# _BOX_MARGIN above log U or log V is retired too.  On forced saddle
# systems, searches from starts inside the box climb up to ~2.6 steps
# above it before they turn back to the orbit: a one-step margin retired
# 96% of them and lost the orbit on some systems, two steps keep at least
# 6 of 20 random starts.
_MAX_LOG_STEP = 2.0
_LOG_LIMIT = 50.0
_BOX_MARGIN = 2.0 * _MAX_LOG_STEP
# Two log states within this sup distance of each other lie on one orbit.
_SAME_ORBIT = 1e-6
# Absolute tolerances of the log-coordinate solve: _ATOL_LOG on (log u,
# log v), and on the log-variational matrix Phi too while Newton searches.
# Multipliers of strongly contracting orbits reach ~1e-12 and below, so the
# sampling solve, which gives the monodromy, takes _ATOL_MONODROMY on Phi;
# Newton, whose Jacobian only steers, took 15-45% more evaluations with it.
_ATOL_LOG = 1e-12
_ATOL_MONODROMY = 1e-20


class _Tolerance(NamedTuple):
    """rtol of a :func:`_log_flow` solve, and its atol on (log u, log v)
    and on Phi."""

    rtol: float
    atol_log: float
    atol_phi: float

    def atol(self, n: int) -> np.ndarray:
        """The atol of each component of a raveled (2, 3, n) state."""
        atol = np.full((2, 3, n), self.atol_phi)
        atol[:, 0] = self.atol_log
        return atol.ravel()


# The loose level is the full one's absolute tolerances times 1e4, at rtol
# 1e-6; at rtol 1e-4 the saddle family overflowed in numpy.
_NEWTON_LOOSE = _Tolerance(1e-6, 1e-8, 1e-8)
_NEWTON_FULL = _Tolerance(TOL_ODE, _ATOL_LOG, _ATOL_LOG)
_SAMPLING = _Tolerance(TOL_ODE, _ATOL_LOG, _ATOL_MONODROMY)
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


class Duplicate(RuntimeError):
    """A Newton start reached the fixed point accepted from guess ``index``."""

    def __init__(self, index: int) -> None:
        super().__init__(f"Newton iterate reached the orbit of guess {index}")
        self.index = index


@dataclass(frozen=True)
class PeriodicOrbit2D:
    """A T-periodic coexistence orbit (both components positive) sampled
    on a closed uniform grid, and its monodromy matrix
    X = d(u, v)(T) / d(u, v)(0).

    Both come from one solve in log coordinates, the one Newton uses (see
    :func:`_log_flow`), with absolute tolerances 1e-12 on (log u, log v)
    and 1e-20 on the log-variational matrix Phi, and
    X = diag(u(T), v(T)) Phi(T) diag(1/u(0), 1/v(0)).  ``newton_residual``
    is the accepting solve's max |log u(T) - log u(0)|, |log v(T) - log v(0)|.
    """

    T: float
    ts: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    periodicity_residual: float
    newton_residual: float
    monodromy: np.ndarray

    def __post_init__(self) -> None:
        check_uniform_grid(self.T, self.ts)
        if np.any(self.us <= 0) or np.any(self.vs <= 0):
            raise ValueError("coexistence orbit samples must be strictly positive")
        scale = max(1.0, float(np.max(self.us)), float(np.max(self.vs)))
        if self.periodicity_residual > TOL_PERIODIC_2D * scale:
            raise ValueError(
                f"periodicity residual {self.periodicity_residual:.3e} too large")

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
    """Eigenvalues of an orbit's monodromy matrix and the stability
    classification."""

    multipliers: tuple[complex, complex]
    classification: str


class _LogField(Field):
    """The log-coordinate field of ``n`` starts and their log-variational
    matrices, as a :class:`Field` of the DOP853 solver.

    In (xi, eta) = (log u, log v) the system reads (xi, eta)' = A (u, v) + r
    with A = [[-b, -c], [e, -f]] and r = (a, d).  The six entries of A and
    r are built once into one table, a row per entry and columns 1,
    cos(k*w*t), sin(k*w*t) over the harmonics k in use, so their values at
    all stage times of a step come from one product: ``at`` returns one
    (2, 3) block [A | r] per time.  The state is (2, 3, n): [j, 0] holds
    the log of component j and [j, 1:] row j of Phi, over the starts.
    ``view`` gives a state buffer as its (2, 1, n) logs, its (2, 2, n) Phi
    rows and its (2, 3n) whole, once per buffer and solve, so ``into``
    forms the field with one BLAS product [A | r] w into the (2, 3n) view
    of its output and makes no view of its own.
    """

    def __init__(self, spec: SystemSpec, n: int) -> None:
        rows = ((spec.b, -1.0), (spec.c, -1.0), (spec.a, 1.0),
                (spec.e, 1.0), (spec.f, -1.0), (spec.d, 1.0))
        ks = sorted({k for coef, _ in rows for k, _, _ in coef.harmonics})
        col = {k: i for i, k in enumerate(ks)}
        self.table = np.zeros((6, 1 + 2 * len(ks)))
        for row, (coef, sign) in enumerate(rows):
            self.table[row, 0] = sign * coef.mean
            for k, ck, sk in coef.harmonics:
                self.table[row, 1 + col[k]] = sign * ck
                self.table[row, 1 + len(ks) + col[k]] = sign * sk
        self.wk = (2.0 * math.pi / spec.T) * np.array(ks, dtype=float)
        self.n = n
        # w stacks (u, v) and diag(u, v) Phi over a row of ones under the
        # states and zeros under Phi, so [A | r] w is the log field
        # A (u, v) + r and the log-variational derivative A diag(u, v) Phi
        self.w = np.zeros((3, 3 * n))
        self.w[2, :n] = 1.0
        uv_phi = self.w[:2].reshape(2, 3, n)
        self.uv, self.uv_phi = uv_phi[:, :1], uv_phi[:, 1:]

    def at(self, times: np.ndarray) -> np.ndarray:
        nk = len(self.wk)
        basis = np.empty((len(times), 1 + 2 * nk, 1))
        basis[:, 0] = 1.0
        phase = np.multiply.outer(times, self.wk)
        np.cos(phase, out=basis[:, 1:1 + nk, 0])
        np.sin(phase, out=basis[:, 1 + nk:, 0])
        # a stack of matrix-vector products, one per time: each sums in the
        # same order as a product at that time alone
        return np.matmul(self.table, basis).reshape(len(times), 2, 3)

    def view(self, buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = buffer.reshape(2, 3, self.n)
        return rows[:, :1], rows[:, 1:], buffer.reshape(2, 3 * self.n)

    def into(self, coefs: np.ndarray, y: tuple, out: tuple) -> None:
        logs, phi, _ = y
        np.exp(logs, out=self.uv)
        np.multiply(phi, self.uv, out=self.uv_phi)
        np.dot(coefs, self.w, out=out[2])


def _log_flow(spec: SystemSpec, z: np.ndarray, ts: Sequence[float], tol: _Tolerance):
    """The flow in log coordinates and its log-variational matrix for n starts.

    ``z`` is (2, n): xi = log u and eta = log v per start at t = 0.  Along
    each trajectory the fundamental matrix Phi of the log-variational
    equation, Phi' = [[-b*u, -c*v], [e*u, -f*v]] Phi with Phi(0) = I, is
    integrated too, and all 6n components go through one DOP853 solve up to
    ``ts[-1]`` at the tolerances ``tol``, from the first step the solver
    picks with ``tol.atol_log`` on Phi too (see :func:`_sample_orbit`), at
    no evaluation beyond its own.
    Returns the (2, 3, n, len(ts)) states at the output times ``ts``, whose
    [j, 0] holds the log of component j and [j, 1:] row j of Phi, and per
    start None or the message of a failed integration.  A failed solve of
    several starts is repeated start by start, so one failing start does
    not take the others down.
    """
    n = z.shape[1]
    field = _LogField(spec, n)
    y0 = np.concatenate((z[:, None, :], np.repeat(np.eye(2)[:, :, None], n, axis=2)),
                        axis=1).ravel()
    # a trial step that overflows exp has a NaN error norm and is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(field, (0.0, ts[-1]), y0, rtol=tol.rtol, atol=tol.atol(n),
                        t_eval=ts, first_step_atol=tol.atol_log)
    if sol.success:
        return sol.y.reshape(2, 3, n, len(ts)), [None] * n
    if n == 1:
        return np.full((2, 3, 1, len(ts)), np.nan), [sol.message]
    parts = [_log_flow(spec, z[:, j:j + 1], ts, tol) for j in range(n)]
    return (np.concatenate([states for states, _ in parts], axis=2),
            [msg for _, msgs in parts for msg in msgs])


def poincare_map(spec: SystemSpec, state0: Sequence[float]) -> np.ndarray:
    """Solution value at t = T starting from ``state0`` at t = 0."""
    state0 = np.asarray(state0, dtype=float)
    if np.any(state0 <= 0):
        raise NonPositive(f"initial state {state0} is not in the open quadrant")
    states, failures = _log_flow(spec, np.log(state0)[:, None], [spec.T], _NEWTON_FULL)
    if failures[0] is not None:
        raise StepFailure(failures[0])
    return np.exp(states[:, 0, 0, -1])


def _newton(spec: SystemSpec, guesses: Sequence[np.ndarray]) -> list:
    """Newton iteration on the period map from every guess at once.

    Each iteration advances all live starts to t = T in one
    :func:`_log_flow` solve, and :func:`_newton_steps` takes the steps of
    all of them at once: per start, dz solving (Phi(T) - I) dz =
    -(P(z) - z), clamped to sup norm ``_MAX_LOG_STEP``.  The solve is
    inexact Newton's: it takes the loose tolerances ``_NEWTON_LOOSE`` (rtol
    1e-6, atol 1e-8) while the smallest residual of the live starts in the
    previous iteration is above ``_LOOSE_RESIDUAL`` = 1e-3, and so on the
    first iteration, and the full ``_NEWTON_FULL`` (rtol 1e-10, atol 1e-12)
    otherwise.  The residual of a start is its log displacement
    r = max |P(z) - z|, the one the switch reads; the start converges when
    r <= ``NEWTON_TOL`` * T on a full solve.  A start whose loose solve fails is
    solved again at full tolerance in the same iteration, and is retired
    for a StepFailure only if that fails too.  Before its next solve, a
    start is retired when a log coordinate is above ``_LOG_LIMIT``, more
    than ``_LOG_LIMIT`` below min(0, log U) or min(0, log V), or more than
    ``_BOX_MARGIN`` above log U or log V, (U, V) = ``spec.bounds``.  Every
    orbit has max u < U and max v < V, so without a box (U or V not
    positive) every start is retired unsolved, as a NoConvergence.  The
    retirement tests, the residuals and the acceptance test run on all
    live starts as arrays.

    Converged starts within ``_SAME_ORBIT`` (sup norm in log coordinates)
    of each other are one orbit, represented by the start accepted first:
    earliest iteration first, then guess order.  A start that converges
    within that distance of an accepted one, or whose iterate comes within
    it before its next solve, is retired as a Duplicate of the
    representative's guess.  Returns, per guess, either (z, r) with z the
    accepted (log u, log v), or the NonPositive, NoConvergence, StepFailure
    or Duplicate that retired it.
    """
    bounds = spec.bounds
    if not (bounds.U > 0 and bounds.V > 0):
        return [NoConvergence(f"no a-priori box: U = {bounds.U}, V = {bounds.V}") for _ in guesses]
    outcomes: list = [None] * len(guesses)
    z = np.zeros((2, len(guesses)))
    live = []
    for j, g in enumerate(guesses):
        if np.all(g > 0) and np.all(np.isfinite(g)):
            z[:, j] = np.log(g)
            live.append(j)
        else:
            outcomes[j] = NonPositive(f"Newton iterate {g} left the open quadrant")
    residual = np.full(len(guesses), math.inf)
    log_box = np.log([bounds.U, bounds.V])
    floor = np.minimum(log_box, 0.0) - _LOG_LIMIT
    ceiling = log_box + _BOX_MARGIN
    accepted: list[int] = []

    def joined(zs: np.ndarray) -> list:
        """Per column of ``zs``, the Duplicate of the first accepted start
        within ``_SAME_ORBIT`` of it, or None."""
        if not accepted:
            return [None] * zs.shape[1]
        fixed = np.stack([outcomes[k][0] for k in accepted], axis=1)
        near = np.max(np.abs(zs[:, :, None] - fixed[:, None, :]), axis=0) < _SAME_ORBIT
        return [Duplicate(accepted[k]) if hit else None
                for k, hit in zip(near.argmax(axis=1), near.any(axis=1))]

    for _ in range(NEWTON_MAX_ITER):
        # drop the starts accepted or retired by the last solve
        live = [j for j in live if outcomes[j] is None]
        zs = z[:, live]
        diverged = ~np.all((floor[:, None] <= zs) & (zs <= _LOG_LIMIT), axis=0)
        escaped = np.any(zs > ceiling[:, None], axis=0)
        for i, duplicate in enumerate(joined(zs)):
            j = live[i]
            if duplicate is not None:
                outcomes[j] = duplicate
            elif diverged[i]:
                outcomes[j] = NoConvergence(
                    f"Newton iterate diverged (log state {z[:, j]})")
            elif escaped[i]:
                outcomes[j] = NoConvergence(
                    f"Newton iterate left the a-priori box (log state {z[:, j]}, "
                    f"log (U, V) = {log_box})")
        live = [j for j in live if outcomes[j] is None]
        if not live:
            break
        loose = residual[live].min() > _LOOSE_RESIDUAL
        states, failures = _log_flow(spec, z[:, live], [spec.T],
                                     _NEWTON_LOOSE if loose else _NEWTON_FULL)
        full = np.full(len(live), not loose)
        redo = [i for i, msg in enumerate(failures) if msg is not None] if loose else []
        if redo:
            states[:, :, redo], again = _log_flow(
                spec, z[:, [live[i] for i in redo]], [spec.T], _NEWTON_FULL)
            for i, msg in zip(redo, again):
                failures[i] = msg
            full[redo] = True
        solved = np.array([msg is None for msg in failures])
        end = states[..., -1]
        fvec = end[:, 0] - z[:, live]
        r = np.max(np.abs(fvec), axis=0)
        residual[np.array(live)[solved]] = r[solved]
        converged = solved & full & (r <= NEWTON_TOL * spec.T)
        for i in np.flatnonzero(~solved):
            outcomes[live[i]] = StepFailure(failures[i])
        # in guess order, so the first of them on an orbit represents it
        for i in np.flatnonzero(converged):
            j = live[i]
            outcomes[j] = joined(z[:, j:j + 1])[0]
            if outcomes[j] is None:
                outcomes[j] = (z[:, j].copy(), float(r[i]))
                accepted.append(j)
        stepping = np.flatnonzero(solved & ~converged)
        z[:, np.array(live)[stepping]] += _newton_steps(end[:, 1:, stepping], fvec[:, stepping])
    for j, outcome in enumerate(outcomes):
        if outcome is None:
            outcomes[j] = NoConvergence(
                f"no fixed point after {NEWTON_MAX_ITER} iterations "
                f"(residual {residual[j]:.3e})")
    return outcomes


def _newton_steps(phi: np.ndarray, fvec: np.ndarray) -> np.ndarray:
    """The Newton steps dz of (Phi - I) dz = -fvec, one column per start
    (``phi`` is (2, 2, n), ``fvec`` (2, n)), each clamped to sup norm
    ``_MAX_LOG_STEP``.

    All n systems go through one stacked solve; only when that raises, for
    a singular Phi - I, are they solved one by one, with a least-squares
    step for each singular one."""
    amat = np.moveaxis(phi, 2, 0) - np.eye(2)
    rhs = -fvec.T
    try:
        dz = np.linalg.solve(amat, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        dz = np.array([_newton_step(a, b) for a, b in zip(amat, rhs)])
    step = np.max(np.abs(dz), axis=1)
    far = step > _MAX_LOG_STEP
    dz[far] *= (_MAX_LOG_STEP / step[far])[:, None]
    return dz.T


def _newton_step(amat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(amat, rhs)
    except np.linalg.LinAlgError:
        # singular monodromy - I: fall back to a least-squares step
        return np.linalg.lstsq(amat, rhs, rcond=None)[0]


def _sample_orbit(spec: SystemSpec, z: np.ndarray, residual: float) -> PeriodicOrbit2D:
    """The orbit through the converged log start ``z`` and its monodromy,
    from one :func:`_log_flow` solve.

    Phi starts at I, so its tiny atol would make the solver's own first
    step ~1e-10 (its error scale is atol where Phi is 0); the solve starts
    with the step picked with the state's atol, Newton's full one, on Phi."""
    ts = np.linspace(0.0, spec.T, _ORBIT_SAMPLES + 1)
    states, failures = _log_flow(spec, z[:, None], ts, _SAMPLING)
    if failures[0] is not None:
        raise StepFailure(failures[0])
    uv = np.exp(states[:, 0, 0])
    us, vs = uv
    per_res = float(max(abs(us[-1] - us[0]), abs(vs[-1] - vs[0])))
    # X = diag(u(T), v(T)) Phi(T) diag(1/u(0), 1/v(0))
    return PeriodicOrbit2D(T=spec.T, ts=ts, us=us, vs=vs,
                           periodicity_residual=per_res, newton_residual=residual,
                           monodromy=uv[:, -1:] * states[:, 1:, 0, -1] / uv[:, 0])


def find_coexistence(spec: SystemSpec, guess: Sequence[float]) -> PeriodicOrbit2D:
    """Newton iteration on the period map around ``guess``.

    The one-guess call of the batched log-coordinate Newton (see the
    module docstring), retired once it leaves the a-priori box from
    ``spec.bounds``, or unsolved without one; convergence requires the log
    displacement over the period, max |P(z) - z| in (log u, log v), to fall
    to 1e-10 * T.  Raises NonPositive, NoConvergence or StepFailure.
    """
    outcome = _newton(spec, [np.asarray(guess, dtype=float)])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return _sample_orbit(spec, *outcome)


def floquet(orbit: PeriodicOrbit2D) -> FloquetData:
    """Multipliers and stability class of the orbit's monodromy matrix.

    No integration: the monodromy was computed with the orbit samples.  The
    classification uses a strict band of width 1e-8 around the unit circle.
    """
    mults = np.linalg.eigvals(orbit.monodromy)
    moduli = np.abs(mults)
    if np.all(moduli < 1.0 - TOL_FLOQUET):
        cls = ASYMPTOTICALLY_STABLE
    elif np.any(moduli > 1.0 + TOL_FLOQUET):
        cls = UNSTABLE
    else:
        cls = LINEARLY_STABLE_NONSTRICT
    return FloquetData(multipliers=(complex(mults[0]), complex(mults[1])),
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
    """The p-averages of the two orbit components (suprema for p = inf).

    Each is m * mean((x / m)^p)^(1/p) with m the largest sample, so a
    component of 1e-300 does not underflow at p > 1."""
    check_exponent(p)
    if math.isinf(p):
        return orbit.component_max()
    return _p_average(orbit.us, p), _p_average(orbit.vs, p)


def _p_average(xs: np.ndarray, p: float) -> float:
    m = float(np.max(xs))
    return m * periodic_mean((xs / m) ** p) ** (1.0 / p)


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

    u_max: float
    v_max: float
    bounds_ok: bool
    memberships: tuple[MembershipCheck, ...]

    @property
    def all_ok(self) -> bool:
        return self.bounds_ok and all(m.ok for m in self.memberships)


DEFAULT_MEMBERSHIP_PS = (1.0, 1.5, 2.0, 4.0, 10.0, INF)
_SLACK_TOL = 1e-6


def verify_predictions(spec: SystemSpec, orbit: PeriodicOrbit2D) -> PredictionReport:
    """Check max u <= U, max v <= V and p-average membership for each p of
    ``DEFAULT_MEMBERSHIP_PS``."""
    region1 = region_spec(spec)
    bounds = spec.bounds
    u_max, v_max = orbit.component_max()
    memberships = []
    for p in DEFAULT_MEMBERSHIP_PS:
        u_avg, v_avg = orbit_averages(orbit, p)
        slack = cp_slack(region1.at(p), u_avg, v_avg)
        ok = (u_avg > 0 and v_avg > 0 and slack >= -_SLACK_TOL)
        memberships.append(MembershipCheck(p=p, u_avg=u_avg, v_avg=v_avg,
                                           slack=slack, ok=ok))
    return PredictionReport(
        u_max=u_max, v_max=v_max,
        bounds_ok=(bounds.U - u_max >= -_SLACK_TOL and bounds.V - v_max >= -_SLACK_TOL),
        memberships=tuple(memberships),
    )


def find_coexistence_multistart(spec: SystemSpec) -> list[PeriodicOrbit2D]:
    """Newton search from the averaged equilibrium and random seeds.

    The equilibrium of the averaged system, unless that is singular, and
    ``MULTISTART_STARTS`` points drawn uniformly from (0, U] x (0, V] with
    seed ``MULTISTART_SEED`` advance together in one batched Newton, which
    keeps one start per orbit (see :func:`_newton`); failed, escaping and
    duplicate searches (a non-positive start fails unsolved, every start
    without a box) are dropped.  Each distinct orbit is sampled once, and
    the orbits are ordered lexicographically for schedule independence.
    """
    bounds = spec.bounds
    try:
        guesses = [np.array(equilibrium(spec))]
    except SingularSystem:
        guesses = []
    rng = np.random.default_rng(MULTISTART_SEED)
    guesses += [np.array([bounds.U * (1.0 - rng.random()), bounds.V * (1.0 - rng.random())])
                for _ in range(MULTISTART_STARTS)]
    orbits: list[PeriodicOrbit2D] = []
    for outcome in _newton(spec, guesses):
        if isinstance(outcome, Exception):
            continue
        z, residual = outcome
        try:
            orbits.append(_sample_orbit(spec, z, residual))
        except StepFailure:
            continue
    orbits.sort(key=lambda o: (o.us[0], o.vs[0]))
    return orbits
