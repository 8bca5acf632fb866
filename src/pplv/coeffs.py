"""Periodic coefficient functions and their basic measurements.

A system is driven by six T-periodic coefficients, each a finite
trigonometric polynomial

    c0 + sum_k  cos_k * cos(2*pi*k*t/T) + sin_k * sin(2*pi*k*t/T),

which is exactly T-periodic, has an exact mean (c0) and an exact
antiderivative, and is cheap to evaluate densely.  A constant is the
polynomial of degree 0; ``stats``, ``ratio_extrema`` and ``lp_norm``
answer it in closed form without root finding or quadrature.

Extrema and zeros are exact up to rounding.  With z = exp(2*pi*i*t/T) a
trig polynomial of degree n is z**-n times an ordinary polynomial of
degree 2n, so its real zeros are the unit-circle roots of that polynomial
(Boyd, *Solving Transcendental Equations*, SIAM 2014).  The derivative of
a trig polynomial, and the numerator n'd - nd' of the derivative of a
ratio n/d, are again trig polynomials: extrema are found by evaluating at
the angles of their roots.

A :class:`SystemSpec` computes the quantities every criterion reads once
and keeps them: the extrema of b, c, e and f (``extrema``) and the
a-priori component bounds U, V (``bounds``, from :func:`compute_uv`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .jfunc import check_exponent

TOL_QUAD = 1e-10

_TWO_PI = 2.0 * math.pi
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
# Tanh-sinh nodes beyond u = 3.2 lie within 4e-17 (relative) of the ends.
_TS_UMAX = 3.2
# Above this exponent an L^p norm equals its upper bound max|coef| * T**(1/p)
# to about 1e-13 relative, and the scaled integrand would round badly.
_LARGE_P = 1e15
_COEFFICIENTS = ("a", "b", "c", "d", "e", "f")


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class PeriodicCoefficient:
    """One T-periodic coefficient: a trig polynomial, a constant when it has
    no harmonics.

    The period itself is not stored here; all evaluations take it as an
    argument so the same coefficient object can be reused at any period.
    """

    c0: float = 0.0
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
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
        return cls(c0=float(value))

    @classmethod
    def trig(
        cls, c0: float, harmonics: Iterable[tuple[int, float, float]] = ()
    ) -> "PeriodicCoefficient":
        hs = tuple((int(k), float(ck), float(sk)) for k, ck, sk in harmonics)
        return cls(c0=float(c0), harmonics=hs)

    @property
    def mean(self) -> float:
        """Exact average over one period."""
        return self.c0

    def evaluate(self, T: float, t):
        """Value at time(s) ``t``; accepts scalars or arrays, T-periodic."""
        t = np.asarray(t, dtype=float)
        omega = _TWO_PI / T
        out = np.full(t.shape, self.c0, dtype=float)
        for k, ck, sk in self.harmonics:
            phase = omega * k * t
            out += ck * np.cos(phase) + sk * np.sin(phase)
        return float(out) if out.ndim == 0 else out

    def antiderivative(self, T: float, t):
        """Exact integral from 0 to ``t``."""
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
    """Minimum and maximum of one coefficient over a period; the exact mean
    is :attr:`PeriodicCoefficient.mean`."""

    minimum: float
    maximum: float


@dataclass(frozen=True)
class RegionBounds:
    """A-priori supremum bounds for the two components of any coexistence
    state: U = max(a/b), V = max(d/f) + max(e/f) * U."""

    U: float
    V: float


@dataclass(frozen=True)
class SystemSpec:
    """Period T plus the six coefficients of the planar predator-prey system

        u' = u * (a - b*u - c*v),    v' = v * (d + e*u - f*v).

    b, c, e and f must be strictly positive over the whole period, so they
    are the denominators :func:`ratio_extrema` takes.  Their extrema and the
    component bounds are computed at most once per system.
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
        for name, ext in self.extrema.items():
            if ext.minimum <= 0:
                raise ValueError(f"coefficient {name} must be strictly positive on [0, T]")

    @functools.cached_property
    def extrema(self) -> dict[str, CoeffStats]:
        """Minimum and maximum of b, c, e and f, keyed by name."""
        return {name: stats(getattr(self, name), self.T) for name in "bcef"}

    @functools.cached_property
    def bounds(self) -> RegionBounds:
        """The component bounds U, V (see :func:`compute_uv`)."""
        return compute_uv(self)


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


def _critical_points(coef: PeriodicCoefficient, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Times of the zeros of the derivative of ``coef``, then t = 0, and the
    values of ``coef`` there; the extrema of ``coef`` are among these values."""
    ts = np.append(_root_times(_derivative(_laurent(coef, _degree(coef))), T), 0.0)
    return ts, coef.evaluate(T, ts)


def stats(coef: PeriodicCoefficient, T: float) -> CoeffStats:
    """Minimum and maximum over one period.

    The extrema are the coefficient's values at the zeros of its derivative
    (and at t = 0), exact up to rounding.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if not coef.harmonics:
        return CoeffStats(coef.c0, coef.c0)
    _, vals = _critical_points(coef, T)
    return CoeffStats(float(vals.min()), float(vals.max()))


def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes that step h = 2**-level adds to the tanh-sinh rule on [-1, 1].

    Returns each node's distance from the nearer end, 1 - tanh(s) with
    s = pi/2*sinh(u) at u = k*h (odd k past level 0), computed without
    cancellation, and its weight pi/2*cosh(u)/cosh(s)**2; the node at -u
    has the same distance from the other end and the same weight.
    """
    h = 2.0 ** -level
    dist, weight = [], []
    for k in range(1, int(_TS_UMAX / h) + 1, 1 if level == 0 else 2):
        eu = math.exp(k * h)
        q = math.exp(-0.5 * math.pi * (eu - 1.0 / eu))  # exp(-2*s)
        dist.append(2.0 * q / (1.0 + q))
        weight.append(math.pi * (eu + 1.0 / eu) * q / (1.0 + q) ** 2)
    return np.array(dist), np.array(weight)


_TS_RULES = tuple(_tanh_sinh_level(level) for level in range(8))


def _tanh_sinh(fn: Callable, a: np.ndarray, b: np.ndarray, ps: Sequence[float],
               tol: float) -> dict[float, float]:
    """Sum of the integrals of ``fn**p`` over the pieces [a_i, b_i], for
    each exponent p in ``ps``, keyed by p.

    Tanh-sinh quadrature (Takahasi & Mori 1974) halves its step until two
    successive sums agree within ``tol`` (absolute).  Its nodes cluster
    doubly exponentially at both ends of each piece, so an endpoint
    singularity or a narrow peak at an end is resolved without grading.
    The nodes and ``fn`` on them do not depend on p: each level calls
    ``fn`` once, every exponent still running raises those values to its
    own power, and each stops at its own level, with the sums it would
    have had alone.
    """
    half = 0.5 * (b - a)
    mid = fn(a + half)
    totals = {p: 0.5 * math.pi * float(np.sum(half * mid ** p)) for p in ps}
    prev: dict[float, float] = {}
    cur: dict[float, float] = {}
    live = list(totals)
    for level, (dist, weight) in enumerate(_TS_RULES):
        offset = half[:, None] * dist[None, :]
        vals = fn(np.concatenate(((a[:, None] + offset).ravel(), (b[:, None] - offset).ravel())))
        n = offset.size
        left, right = vals[:n], vals[n:]
        hw = (half[:, None] * weight[None, :]).ravel()
        for p in live:
            totals[p] += float(np.sum(hw * (left ** p + right ** p)))
            cur[p] = totals[p] * 2.0 ** -level
        live = [p for p in live if level == 0 or abs(cur[p] - prev[p]) > tol]
        if not live:
            break
        prev = dict(cur)
    return cur


def lp_norm(coef: PeriodicCoefficient, T: float, ps: Sequence[float]) -> tuple[float, ...]:
    """L^p norms over one period, (integral of |coef|**p) ** (1/p), one per
    exponent in ``ps``.

    The integrand is |coef|, so sign-changing coefficients are allowed.
    With M = max |coef|, taken at the zeros of the derivative as in
    :func:`stats`, each norm is computed as
    M * (integral of (|coef|/M)**p) ** (1/p): the integrand lies in
    [0, 1], so it neither overflows nor underflows to zero at large p.
    The period is cut at the zeros of the coefficient and of its
    derivative, so each piece runs between a zero and an extremum of
    |coef|: the |t - t0|**p singularity at a zero and the peak of width
    ~T/sqrt(p) at a maximum both sit at an end, where tanh-sinh
    quadrature resolves them.  ``TOL_QUAD`` bounds the scaled integral.
    M, the cuts, the quadrature nodes and |coef|/M on them do not depend
    on p: one quadrature serves the whole grid, and each exponent stops
    at its own level, so each norm equals that of a call with p alone.
    Above p = 1e15 the bound M * T**(1/p) is returned.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    for p in ps:
        check_exponent(p)
    if not coef.harmonics:
        return tuple(abs(coef.c0) * T ** (1.0 / p) for p in ps)
    ts, vals = _critical_points(coef, T)
    peak = float(np.abs(vals).max())
    quad = [p for p in ps if peak != 0.0 and p <= _LARGE_P]
    integrals = {}
    if quad:
        cuts = np.sort(np.concatenate(([0.0, T], ts[:-1], _root_times(_laurent(coef, _degree(coef)), T))))
        integrals = _tanh_sinh(lambda t: np.abs(coef.evaluate(T, t)) / peak,
                               cuts[:-1], cuts[1:], quad, TOL_QUAD)
    norms = []
    for p in ps:
        if math.isinf(p) or peak == 0.0:
            norms.append(peak)
        elif p > _LARGE_P:
            norms.append(peak * T ** (1.0 / p))
        else:
            norms.append(peak * integrals[p] ** (1.0 / p))
    return tuple(norms)


def ratio_extrema(spec: SystemSpec, num: str, den: str) -> tuple[float, float]:
    """(min, max) over one period of num(t)/den(t), two coefficients of
    ``spec`` named by letter.

    The denominator is one of b, c, e and f, which the system holds strictly
    positive; any other name raises ValueError.  The extrema are the ratio's
    values at the zeros of n'd - nd' (and at t = 0), exact up to rounding.
    """
    if num not in _COEFFICIENTS or den not in spec.extrema:
        raise ValueError(f"no ratio {num!r}/{den!r}: the numerator is one of a to f, "
                         "the denominator one of b, c, e, f")
    T, numer, denom = spec.T, getattr(spec, num), getattr(spec, den)
    if not (numer.harmonics or denom.harmonics):
        r = numer.c0 / denom.c0
        return r, r
    n = max(_degree(numer), _degree(denom))
    cn, cd = _laurent(numer, n), _laurent(denom, n)
    crit = np.convolve(_derivative(cn), cd) - np.convolve(cn, _derivative(cd))
    ts = np.append(_root_times(crit, T), 0.0)
    vals = numer.evaluate(T, ts) / denom.evaluate(T, ts)
    return float(vals.min()), float(vals.max())


def compute_uv(spec: SystemSpec) -> RegionBounds:
    """Component bounds from ratio extrema of the coefficients; read them
    as ``spec.bounds``, which computes them once."""
    U = ratio_extrema(spec, "a", "b")[1]
    V = ratio_extrema(spec, "d", "f")[1] + ratio_extrema(spec, "e", "f")[1] * U
    return RegionBounds(U=U, V=V)
