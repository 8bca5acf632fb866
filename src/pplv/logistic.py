"""Positive T-periodic solutions of the scalar periodic logistic equation.

For u' = u*(growth(t) - damping(t)*u) with mean(growth) > 0 and damping
strictly positive there is exactly one positive T-periodic solution.  The
substitution w = 1/u turns the equation into the linear problem
w' = -growth*w + damping, whose unique periodic solution is written down
by quadrature; no shooting or Newton iteration is involved.

Orbits are sampled on the closed uniform grid ``linspace(0, T, n + 1)``.
Periodic means over such a grid use the trapezoid rule, which for smooth
periodic integrands converges exponentially in ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import PeriodicCoefficient, _GAUSS_NODES, _GAUSS_WEIGHTS

TOL_PERIODIC = 1e-9
DEFAULT_GRID = 2048
# Cells the grid may grow to so that A changes by at most 1 per cell.  At the
# cap one state takes ~0.6 s and ~350 MB (2-core x86 VM, numpy 2).
MAX_GRID = 2 ** 20
_TINY = float(np.finfo(float).tiny)


def check_uniform_grid(T: float, ts: np.ndarray) -> None:
    """Raise ValueError unless ``ts`` is ``linspace(0, T, n + 1)`` for some n >= 1."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 2:
        raise ValueError("orbit grid needs at least two sample times")
    gap = float(np.max(np.abs(ts - np.linspace(0.0, T, len(ts)))))
    if not gap <= 1e-12 * T:
        raise ValueError(
            f"orbit grid is not uniform on [0, {T!r}] (off by {gap:.3e})")


def periodic_mean(samples: np.ndarray) -> float:
    """Mean over one period of a function sampled on a closed uniform grid.

    The trapezoid rule: the last sample repeats the first, so the rule is
    the plain mean of the others.
    """
    return float(np.mean(samples[:-1]))


class NoPositiveSolution(ValueError):
    """No positive periodic solution exists (mean growth is not positive)."""


class GridTooLarge(ValueError):
    """T * max|growth| asks for more than ``MAX_GRID`` grid cells."""


@dataclass(frozen=True)
class PeriodicOrbit1D:
    """A positive T-periodic scalar orbit sampled on a closed uniform grid."""

    T: float
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        check_uniform_grid(self.T, self.ts)
        if np.any(self.values <= 0):
            raise ValueError("periodic orbit values must be strictly positive")
        gap = abs(self.values[0] - self.values[-1])
        if gap > TOL_PERIODIC * float(np.max(self.values)):
            raise ValueError(f"orbit endpoints differ by {gap:.3e}; not periodic")


def periodic_logistic(growth: PeriodicCoefficient, damping: PeriodicCoefficient,
                      T: float) -> PeriodicOrbit1D:
    """The unique positive T-periodic solution of u' = u*(growth - damping*u).

    Exists iff the mean of ``growth`` is positive.  Built from the linear
    substitution w = 1/u: with A(t) the running integral of growth,

        w(t) = exp(-A(t)) * (w0 + integral_0^t damping * exp(A)),
        w0   = integral_0^T damping * exp(A) / (exp(A(T)) - 1).

    The solution is formed in log space and A(T) is taken as T * mean(growth)
    exactly, so T * mean(growth) may be any positive double: neither
    exp(A) nor exp(A(T)) - 1 has to be representable.  A(t) is exact (trig
    antiderivatives); the damping integral uses 8-node Gauss panels on a
    uniform grid, each taken in logs, so it may lie below the double range,
    and accumulated by log-sum-exp.  The grid has ``DEFAULT_GRID`` cells, or
    ceil(T * max|growth|) when that is more, so that A changes by at most
    1 over a cell; max|growth| is taken as its bound |mean| plus the
    harmonic amplitudes.  More than ``MAX_GRID`` cells raise
    :class:`GridTooLarge`.
    """
    lam = growth.mean
    if lam <= 0:
        raise NoPositiveSolution(
            f"mean growth {lam:.6g} <= 0: no positive periodic solution")

    max_growth = abs(lam) + sum(math.hypot(ck, sk) for _, ck, sk in growth.harmonics)
    cells = T * max_growth
    if not cells <= MAX_GRID:
        raise GridTooLarge(f"T * max|growth| = {cells:.3e} needs more than the "
                           f"{MAX_GRID} grid cells allowed for the periodic logistic state")
    n = max(DEFAULT_GRID, math.ceil(cells))
    ts = np.linspace(0.0, T, n + 1)
    A = np.asarray(growth.antiderivative(T, ts), dtype=float)
    # A(T) = T * lam exactly; the harmonics' sin(2*pi*k) rounds to ~1e-16,
    # which would flip the sign of a tiny T * lam
    a0 = T * lam

    # log of each Gauss panel's integral of damping * exp(A), scaled by the larger
    # cell-end value of A (A exceeds it inside the cell by at most max|growth| * h)
    half = 0.5 * T / n
    nodes = 0.5 * (ts[:-1] + ts[1:])[:, None] + half * _GAUSS_NODES
    flat = nodes.ravel()
    An = np.asarray(growth.antiderivative(T, flat), dtype=float).reshape(nodes.shape)
    peak = np.maximum(A[:-1], A[1:])
    weighted = (damping.evaluate(T, flat).reshape(nodes.shape)
                * np.exp(An - peak[:, None])) @ _GAUSS_WEIGHTS
    if not np.all(weighted > 0):
        raise ValueError("damping must be strictly positive over the period")
    panel = half * weighted
    if np.all(panel >= _TINY):
        log_panel = peak + np.log(panel)
    else:
        # the product lost bits below the normal range; log(half) from T
        # alone, since half itself may be subnormal
        log_panel = peak + (math.log(T) - math.log(2.0 * n)) + np.log(weighted)

    # theta = exp(A) / (B(T) / s + B) with B(t) = integral_0^t damping * exp(A) and
    # s = exp(a0) - 1, formed in logs: neither exp(A) nor s need be representable
    top = float(np.max(log_panel))
    log_bt = top + math.log(float(np.sum(np.exp(log_panel - top))))
    # below the normal range T * lam loses bits (and may round to 0), while
    # s = T * lam there to double precision
    log_s = (a0 + math.log(-math.expm1(-a0)) if a0 >= _TINY
             else math.log(T) + math.log(lam))
    log_w = np.logaddexp.accumulate(np.concatenate(([log_bt - log_s], log_panel)))
    theta = np.exp(A - log_w)
    # where theta lies below the double range (growth negative over a long
    # stretch) exp rounds it to 0; store the smallest normal double instead
    theta[theta == 0.0] = _TINY
    return PeriodicOrbit1D(T=T, ts=ts, values=theta)


def weighted_average(weight: PeriodicCoefficient, orbit: PeriodicOrbit1D) -> float:
    """(1/T) * integral over one period of weight(t) * orbit(t)."""
    return periodic_mean(weight.evaluate(orbit.T, orbit.ts) * orbit.values)
