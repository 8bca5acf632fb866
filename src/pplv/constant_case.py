"""Closed-form machinery for systems with constant coefficients.

With constant coefficients the p = 1 region collapses to the single point
(x1, y1) solving  b*x1 + c*y1 = a,  -e*x1 + f*y1 = d,  which is also the
coexistence equilibrium when positive.  The region-coupled test then
reduces to a scalar quadratic in w = x**p whose discriminant sign G(p)
can be scanned over p.  The reduction squares the inequality

    sqrt(c*e*x*y) <= threshold(p)/T - k,      k = (b*x1 + f*y1)/2,

so it is direction-preserving only when the right-hand side is
non-negative; every consumer receives that flag (``sign_ok``) alongside
the value.  When sign_ok is false the G-sign classification and the
direct region-based test are NOT equivalent and the direct margins are
authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jfunc
from .coeffs import PeriodicCoefficient, SystemSpec

P_LARGE_DEFAULT = 200.0

DISCREPANCY_NOTE = (
    "note: sign_ok=false at one or more exponents; there the squared "
    "reduction behind G(p) does not preserve the inequality direction and "
    "a negative G(p) does not certify the direct test; the direct "
    "region-based margins are authoritative."
)


class SingularSystem(ValueError):
    """b*f + c*e vanished; the equilibrium system is singular."""


@dataclass(frozen=True)
class ConstantSystem:
    """Constant-coefficient system; b, c, e, f strictly positive."""

    T: float
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self) -> None:
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("T must be a positive finite real")
        for name in "bcef":
            if not getattr(self, name) > 0:
                raise ValueError(f"coefficient {name} must be strictly positive")

    def to_system_spec(self) -> SystemSpec:
        const = PeriodicCoefficient.constant
        return SystemSpec(T=self.T, a=const(self.a), b=const(self.b), c=const(self.c),
                          d=const(self.d), e=const(self.e), f=const(self.f))

    @property
    def U(self) -> float:
        return self.a / self.b

    @property
    def V(self) -> float:
        return self.d / self.f + (self.e / self.f) * self.U


def equilibrium(sys: ConstantSystem) -> tuple[float, float]:
    """((a*f - c*d)/(b*f + c*e), (a*e + b*d)/(b*f + c*e)).

    This is the unique point of the p = 1 region and, when componentwise
    positive, the coexistence equilibrium.
    """
    det = sys.b * sys.f + sys.c * sys.e
    if det == 0.0:
        raise SingularSystem("b*f + c*e = 0")
    x1 = (sys.a * sys.f - sys.c * sys.d) / det
    y1 = (sys.a * sys.e + sys.b * sys.d) / det
    return x1, y1


def linear_term(sys: ConstantSystem) -> float:
    """k = (b*x1 + f*y1) / 2, the constant part of the test left-hand side.

    Carried at full precision: rounding it visibly (e.g. to 3.0 for the
    bundled demo constants) flips the sign of G(1).
    """
    x1, y1 = equilibrium(sys)
    return 0.5 * (sys.b * x1 + sys.f * y1)


def _h(sys: ConstantSystem, p: float) -> tuple[np.longdouble, bool]:
    # h(p) in extended precision, where it stays finite far beyond the
    # double range (the demo constants at T = 0.1 give h(200) ~ 1e1040).
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must be finite and >= 1")
    ld = np.longdouble
    rhs = ld(jfunc.threshold_p(p)) / ld(sys.T) - ld(linear_term(sys))
    return (rhs * rhs / (ld(sys.c) * ld(sys.e))) ** ld(p), bool(rhs >= 0)


def h_of_p(sys: ConstantSystem, p: float) -> tuple[float, bool]:
    """h(p) = [ (threshold(p)/T - k)**2 / (c*e) ] ** p and the sign flag.

    ``sign_ok`` records whether threshold(p)/T - k >= 0, i.e. whether the
    squaring step that produced h preserved the inequality direction.  The
    value itself is total (the formula uses an even power); it is ``inf``
    where h exceeds the double range.
    """
    h, sign_ok = _h(sys, p)
    return float(h), sign_ok


def _g(sys: ConstantSystem, p: float, h: np.longdouble) -> float:
    ld = np.longdouble
    a, b, c = ld(sys.a), ld(sys.b), ld(sys.c)
    U, V = ld(sys.U), ld(sys.V)
    term1 = (a / c) ** 2 * V ** (ld(p) - 1)
    term2 = 4 * (b / c) * h / U ** (ld(p) - 1)
    return float(term1 - term2)


def g_of_p(sys: ConstantSystem, p: float) -> float:
    """G(p) = (a/c)**2 * V**(p-1) - 4*(b/c) * h(p) / U**(p-1).

    The two terms can exceed the difference by many orders of magnitude
    (the demo constants give terms near 1.6e5 whose difference is about
    +3.3 at p = 1), so the combination is accumulated in extended
    precision before rounding once to double.
    """
    return _g(sys, p, _h(sys, p)[0])


def _discriminant(sys: ConstantSystem, p: float, g: float) -> float:
    return float(np.longdouble(sys.V) ** (np.longdouble(p) - 1) * np.longdouble(g))


def discriminant(sys: ConstantSystem, p: float) -> float:
    """V**(p-1) * G(p); shares the sign of G(p) since V > 0 where defined."""
    return _discriminant(sys, p, g_of_p(sys, p))


@dataclass(frozen=True)
class SignPattern:
    """Outcome of the three-point sign scan of G."""

    g1_positive: bool
    gstar_negative: bool
    glarge_positive: bool
    g1: float
    gstar: float
    glarge: float
    sign_ok_1: bool
    sign_ok_star: bool
    limit_positive_by_ratio: bool
    diagnostics: tuple[str, ...]


def check25(sys: ConstantSystem, p_star: float, p_large: float = P_LARGE_DEFAULT) -> SignPattern:
    """Evaluate (G(1) > 0, G(p_star) < 0, G(p_large) > 0) from one sign scan.

    The large-p probe is cross-checked against the asymptotic dominance
    criterion V > r**2 / U with r = |threshold(inf)/T - k| / sqrt(c*e),
    which decides the limit sign without overflow.
    """
    if not (1.0 < p_star < math.inf):
        raise ValueError("p_star must lie in (1, inf)")
    scan = sign_scan(sys, (1.0, p_star, p_large))
    (_, _, ok1, g1, _), (_, _, okstar, gstar, _), (_, _, _, glarge, _) = scan.rows
    r = abs(math.pi / sys.T - scan.k) / math.sqrt(sys.c * sys.e)
    ratio_ok = sys.V > r * r / sys.U
    diags = []
    if not ok1:
        diags.append("sign_ok false at p=1")
    if not okstar:
        diags.append(f"sign_ok false at p={p_star:g}")
    if (glarge > 0) != ratio_ok:
        diags.append("large-p sample disagrees with the asymptotic ratio check")
    return SignPattern(
        g1_positive=g1 > 0,
        gstar_negative=gstar < 0,
        glarge_positive=glarge > 0,
        g1=g1, gstar=gstar, glarge=glarge,
        sign_ok_1=ok1, sign_ok_star=okstar,
        limit_positive_by_ratio=ratio_ok,
        diagnostics=tuple(diags),
    )


@dataclass(frozen=True)
class SignScan:
    """Tabulated G-scan: one row per exponent, plus the shared constant k."""

    k: float
    rows: tuple[tuple[float, float, bool, float, float], ...]  # (p, h, sign_ok, G, delta)


def sign_scan(sys: ConstantSystem, ps) -> SignScan:
    """h, sign_ok, G and the discriminant at each exponent; h once per row."""
    rows = []
    for p in ps:
        h, ok = _h(sys, p)
        g = _g(sys, p, h)
        rows.append((float(p), float(h), ok, g, _discriminant(sys, p, g)))
    return SignScan(k=linear_term(sys), rows=tuple(rows))


def demo_constants() -> ConstantSystem:
    """Bundled constants for which the sign scan certifies stability at
    p* = 2 while both endpoint tests (p = 1 and p = inf) fail."""
    return ConstantSystem(T=1.0, a=2.0102, b=1.0, c=0.0051, d=2.0203, e=0.9898, f=2.0)
