"""Periodic coefficient functions and their basic measurements.

A system is driven by six T-periodic coefficients.  Two coefficient kinds
are supported: constants and finite trigonometric polynomials

    c0 + sum_k  cos_k * cos(2*pi*k*t/T) + sin_k * sin(2*pi*k*t/T),

which are exactly T-periodic, have exact means (c0) and exact
antiderivatives, and are cheap to evaluate densely.

Extrema and zeros are exact up to rounding.  With z = exp(2*pi*i*t/T) a
trig polynomial of degree n is z**-n times an ordinary polynomial of
degree 2n, so its real zeros are the unit-circle roots of that polynomial
(Boyd, *Solving Transcendental Equations*, SIAM 2014).  The derivative of
a trig polynomial, and the numerator n'd - nd' of the derivative of a
ratio n/d, are again trig polynomials: extrema are found by evaluating at
the angles of their roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

TOL_EXTREMUM = 1e-10
TOL_QUAD = 1e-10

_TWO_PI = 2.0 * math.pi
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


class NegativeIntegrand(ValueError):
    """The p-th power average was requested for a sign-changing function."""


class ZeroDenominator(ValueError):
    """A ratio was requested against a denominator that is not strictly positive."""


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class PeriodicCoefficient:
    """One T-periodic coefficient, either a constant or a trig polynomial.

    The period itself is not stored here; all evaluations take it as an
    argument so the same coefficient object can be reused at any period.
    """

    kind: str
    value: float = 0.0
    c0: float = 0.0
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "trigonometric"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "constant":
            _require_finite("value", self.value)
        else:
            _require_finite("c0", self.c0)
            seen: set[int] = set()
            for k, ck, sk in self.harmonics:
                if int(k) != k or k < 1:
                    raise ValueError(f"harmonic index must be a positive integer, got {k!r}")
                if k in seen:
                    raise ValueError(f"duplicate harmonic index {k}")
                seen.add(int(k))
                _require_finite("cos coefficient", ck)
                _require_finite("sin coefficient", sk)

    @classmethod
    def constant(cls, value: float) -> "PeriodicCoefficient":
        return cls(kind="constant", value=float(value))

    @classmethod
    def trig(
        cls, c0: float, harmonics: Iterable[tuple[int, float, float]] = ()
    ) -> "PeriodicCoefficient":
        hs = tuple((int(k), float(ck), float(sk)) for k, ck, sk in harmonics)
        return cls(kind="trigonometric", c0=float(c0), harmonics=hs)

    @property
    def mean(self) -> float:
        """Exact average over one period."""
        return self.value if self.kind == "constant" else self.c0

    def evaluate(self, T: float, t):
        """Value at time(s) ``t``; accepts scalars or arrays, T-periodic."""
        if self.kind == "constant":
            if np.isscalar(t):
                return self.value
            return np.full(np.shape(t), self.value, dtype=float)
        t = np.asarray(t, dtype=float)
        omega = _TWO_PI / T
        out = np.full(t.shape, self.c0, dtype=float)
        for k, ck, sk in self.harmonics:
            phase = omega * k * t
            out += ck * np.cos(phase) + sk * np.sin(phase)
        return float(out) if out.ndim == 0 else out

    def antiderivative(self, T: float, t):
        """Exact integral from 0 to ``t``."""
        if self.kind == "constant":
            return self.value * np.asarray(t, dtype=float) if not np.isscalar(t) else self.value * t
        t = np.asarray(t, dtype=float)
        omega = _TWO_PI / T
        out = self.c0 * t
        for k, ck, sk in self.harmonics:
            wk = omega * k
            phase = wk * t
            out = out + (ck / wk) * np.sin(phase) + (sk / wk) * (1.0 - np.cos(phase))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CoeffStats:
    """Minimum, maximum and exact mean of one coefficient over a period."""

    minimum: float
    maximum: float
    mean: float


@dataclass(frozen=True)
class SystemSpec:
    """Period T plus the six coefficients of the planar predator-prey system

        u' = u * (a - b*u - c*v),    v' = v * (d + e*u - f*v).

    b, c, e and f must be strictly positive over the whole period.
    """

    T: float
    a: PeriodicCoefficient
    b: PeriodicCoefficient
    c: PeriodicCoefficient
    d: PeriodicCoefficient
    e: PeriodicCoefficient
    f: PeriodicCoefficient

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"period T must be a positive finite real, got {self.T!r}")
        for name in ("b", "c", "e", "f"):
            coef = getattr(self, name)
            if stats(coef, self.T).minimum <= 0:
                raise ValueError(f"coefficient {name} must be strictly positive on [0, T]")


def _laurent(coef: PeriodicCoefficient, n: int) -> np.ndarray:
    # Coefficients c_{-n}, ..., c_n of coef as sum_k c_k z**k, z = exp(i*omega*t):
    # c_{+-k} = (cos_k -+ i*sin_k) / 2.
    out = np.zeros(2 * n + 1, dtype=complex)
    out[n] = coef.mean
    for k, ck, sk in coef.harmonics:
        out[n + k] = 0.5 * (ck - 1j * sk)
        out[n - k] = 0.5 * (ck + 1j * sk)
    return out


def _degree(coef: PeriodicCoefficient) -> int:
    return max((k for k, _, _ in coef.harmonics), default=0)


def _derivative(laurent: np.ndarray) -> np.ndarray:
    # d/d(omega*t) multiplies c_k by i*k.
    n = len(laurent) // 2
    return laurent * (1j * np.arange(-n, n + 1))


def _root_times(laurent: np.ndarray, T: float) -> np.ndarray:
    """Times in [0, T) at the angles of every root of z**n * sum_k c_k z**k.

    Roots off the unit circle are kept: an extra candidate costs one
    evaluation, and a zero that rounding has pushed off a (near-)double
    root still sits at the right angle.

    The coefficients are scaled to a largest modulus of 1, and end
    coefficients below sqrt(eps) of it are dropped.  Such a term adds a
    root near 0 and one near infinity.  Kept, it makes the companion matrix
    place the roots on the circle up to 1e-5 off; left out, it moves them
    by about sqrt(eps) at most, which changes the value at an extremum only
    at second order.  Real and imaginary parts are scaled apart because
    numpy's complex division overflows on a subnormal divisor.
    """
    mags = np.abs(laurent)
    top = mags.max(initial=0.0)
    keep = np.flatnonzero(mags > _SQRT_EPS * top)
    if keep.size == 0:
        return np.empty(0)
    poly = laurent[keep[0]:keep[-1] + 1][::-1]
    roots = np.roots(poly.real / top + 1j * (poly.imag / top))
    return np.mod(np.angle(roots) * (T / _TWO_PI), T)


def stats(coef: PeriodicCoefficient, T: float) -> CoeffStats:
    """Extrema and exact mean over one period.

    The extrema are the coefficient's values at the zeros of its derivative
    (and at t = 0), exact up to rounding and well within ``TOL_EXTREMUM``.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if coef.kind == "constant":
        v = coef.value
        return CoeffStats(v, v, v)
    ts = np.append(_root_times(_derivative(_laurent(coef, _degree(coef))), T), 0.0)
    vals = coef.evaluate(T, ts)
    return CoeffStats(float(vals.min()), float(vals.max()), coef.c0)


def _composite_gauss(fn: Callable, a: float, b: float, panels: int) -> float:
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return float(np.sum(half[:, None] * _GAUSS_WEIGHTS[None, :] * vals))


def gauss_integral(fn: Callable, a: float, b: float, tol: float = TOL_QUAD,
                   panels: int = 64, max_doublings: int = 6) -> float:
    """Composite 8-node Gauss-Legendre with panel doubling until the
    doubling correction falls below ``tol`` (absolute)."""
    if b <= a:
        return 0.0
    prev = _composite_gauss(fn, a, b, panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = _composite_gauss(fn, a, b, panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    return prev


def _check_p(p: float) -> None:
    if not (p >= 1.0):
        raise ValueError(f"exponent p must lie in [1, inf], got {p!r}")


def lp_average(coef: PeriodicCoefficient, T: float, p: float, tol: float = TOL_QUAD) -> float:
    """The p-average ((1/T) * integral of coef**p) ** (1/p); max for p = inf.

    The coefficient must be non-negative on [0, T]; values inside the
    extremum tolerance band are clipped to zero before powering.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    _check_p(p)
    s = stats(coef, T)
    if s.minimum < -TOL_EXTREMUM:
        raise NegativeIntegrand(
            f"coefficient attains {s.minimum:.3e} < 0 on [0, T]; "
            "p-averages are defined for non-negative functions"
        )
    if math.isinf(p):
        return s.maximum
    if coef.kind == "constant":
        return max(coef.value, 0.0)
    fn = lambda t: np.maximum(coef.evaluate(T, t), 0.0) ** p
    integral = gauss_integral(fn, 0.0, T, tol=tol)
    return (integral / T) ** (1.0 / p)


def lp_norm(coef: PeriodicCoefficient, T: float, p: float, tol: float = TOL_QUAD) -> float:
    """L^p norm over one period, (integral of |coef|**p) ** (1/p).

    Unlike :func:`lp_average` this is total: the integrand is |coef|, so
    sign-changing coefficients are allowed.  The integral is split at the
    zeros of the coefficient to keep the panels smooth.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    _check_p(p)
    if math.isinf(p):
        s = stats(coef, T)
        return max(abs(s.minimum), abs(s.maximum))
    if coef.kind == "constant":
        return abs(coef.value) * T ** (1.0 / p)
    cuts = [0.0, *np.sort(_root_times(_laurent(coef, _degree(coef)), T)), T]
    piece = lambda t: np.abs(coef.evaluate(T, t)) ** p
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 0:
            continue
        total += gauss_integral(piece, a, b, tol=tol, panels=max(8, int(64 * (b - a) / T)))
    return total ** (1.0 / p)


def ratio_extrema(num: PeriodicCoefficient, den: PeriodicCoefficient, T: float) -> tuple[float, float]:
    """(min, max) of num(t)/den(t) over [0, T].

    The extrema are the ratio's values at the zeros of n'd - nd' (and at
    t = 0), exact up to rounding and well within ``TOL_EXTREMUM``.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if stats(den, T).minimum <= 0:
        raise ZeroDenominator("denominator must be strictly positive on [0, T]")
    if num.kind == "constant" and den.kind == "constant":
        r = num.value / den.value
        return r, r
    n = max(_degree(num), _degree(den))
    cn, cd = _laurent(num, n), _laurent(den, n)
    crit = np.convolve(_derivative(cn), cd) - np.convolve(cn, _derivative(cd))
    ts = np.append(_root_times(crit, T), 0.0)
    vals = num.evaluate(T, ts) / den.evaluate(T, ts)
    return float(vals.min()), float(vals.max())
