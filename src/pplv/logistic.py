"""Positive T-periodic solutions of the scalar periodic logistic equation.

For u' = u*(growth(t) - damping(t)*u) with mean(growth) > 0 and damping
strictly positive there is exactly one positive T-periodic solution.  The
substitution w = 1/u turns the equation into the linear problem
w' = -growth*w + damping, whose unique periodic solution is written down
by quadrature; no shooting or Newton iteration is involved.

Orbits are sampled on the closed uniform grid ``linspace(0, T, n + 1)``.
Periodic means over such a grid use the trapezoid rule, which for smooth
periodic integrands converges exponentially in ``n`` (Trefethen & Weideman,
SIAM Review 56, 2014), so each logistic state sizes its grid from its own
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import PeriodicCoefficient

TOL_PERIODIC = 1e-9
# The first grid tried.  On 1069 (growth, damping) pairs of the benchmark
# workloads (one to three harmonics, T in [0.1, 7]) 64 cells resolved 55% of
# the states, 128 cells 97% and 256 all; fewer cells would save little, as
# a state's cost at this size is mostly fixed overhead.
START_GRID = 64
# The state counts as resolved once every mode of the top half of its
# discrete spectrum is at most this fraction of the mean mode: about five
# units of rounding, so the modes beyond the grid that fold onto the kept
# ones move the averages by no more than rounding does.
SPECTRAL_TOL = 1e-15
# The grid doubles up to this many cells (or the start size, when more).  A
# state not resolved there spans many orders of magnitude, and its rounding
# noise lies above SPECTRAL_TOL on any grid.
_DOUBLING_CAP = 2048
# Cells the grid may grow to so that A changes by at most 1 per cell.  At the
# cap one state takes ~0.6 s and ~350 MB (2-core x86 VM, numpy 2).
MAX_GRID = 2 ** 20
_TINY = float(np.finfo(float).tiny)
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)  # per cell, on [-1, 1]


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
    """T * max|growth| or 8 * top harmonic asks for more than ``MAX_GRID`` cells."""


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


def growth_cells(growth: PeriodicCoefficient, T: float) -> float:
    """T * max|growth|, with max|growth| bounded by |mean| plus the harmonic
    amplitudes: the number of cells over which the running integral of
    growth changes by at most 1 per cell."""
    return T * (abs(growth.mean) + sum(math.hypot(ck, sk) for _, ck, sk in growth.harmonics))


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
    and accumulated by log-sum-exp.

    The grid is sized from the system.  It starts at the largest of
    ``START_GRID``, 8 cells per period of the top harmonic of growth and
    damping, and ceil(T * max|growth|), so that A changes by at most 1 over
    a cell; max|growth| is taken as its bound |mean| plus the harmonic
    amplitudes.  It doubles while the state is not resolved (a mode of the
    top half of its discrete spectrum above ``SPECTRAL_TOL`` of the mean),
    up to 2048 cells or the start size when that is more.  More than
    ``MAX_GRID`` cells raise :class:`GridTooLarge`.
    """
    lam = growth.mean
    if lam <= 0:
        raise NoPositiveSolution(
            f"mean growth {lam:.6g} <= 0: no positive periodic solution")

    k_max = max((k for coeff in (growth, damping) for k, _, _ in coeff.harmonics), default=0)
    # with 8 cells per period the top harmonic sits at an eighth of the grid,
    # so the modes it makes in the state up to 4 * k_max fall in the tested
    # top half of the spectrum instead of folding onto low modes unseen
    cells = max(growth_cells(growth, T), 8.0 * k_max)
    if not cells <= MAX_GRID:
        raise GridTooLarge(f"the periodic logistic state needs {cells:.3e} grid cells "
                           f"(T * max|growth| or 8 per top harmonic), more than {MAX_GRID}")
    n = max(START_GRID, math.ceil(cells))
    cap = max(_DOUBLING_CAP, n)
    while True:
        ts, theta = _logistic_on_grid(growth, damping, T, n)
        if n == cap or _resolved(theta):
            return PeriodicOrbit1D(T=T, ts=ts, values=theta)
        n = min(2 * n, cap)


def _resolved(values: np.ndarray) -> bool:
    """Whether the top half of the samples' discrete spectrum is at most
    ``SPECTRAL_TOL`` of its mean mode."""
    modes = np.abs(np.fft.rfft(values[:-1]))
    return bool(np.max(modes[len(modes) // 2:]) <= SPECTRAL_TOL * modes[0])


def _logistic_on_grid(growth: PeriodicCoefficient, damping: PeriodicCoefficient,
                      T: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid of n cells and the state of :func:`periodic_logistic` on it."""
    lam = growth.mean
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
    return ts, theta


def weighted_average(weight: PeriodicCoefficient, orbit: PeriodicOrbit1D) -> float:
    """(1/T) * integral over one period of weight(t) * orbit(t).

    Read from the two spectra (Parseval): the weight's exact trig
    coefficients against the orbit's discrete Fourier coefficients.  A
    harmonic of the weight at or beyond half the grid meets modes of a
    resolved orbit that are below its rounding, and drops out; sampling the
    product instead would fold it onto a low mode (k = n - 1 onto k = 1).
    """
    n = len(orbit.ts) - 1
    modes = np.fft.rfft(orbit.values[:-1]) / n
    total = weight.mean * modes[0].real
    for k, ck, sk in weight.harmonics:
        if 2 * k < n:
            total += ck * modes[k].real - sk * modes[k].imag
    return float(total)
