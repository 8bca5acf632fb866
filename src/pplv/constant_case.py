"""Closed-form machinery for systems with constant coefficients.

A constant system is a :class:`SystemSpec` whose coefficients have no
harmonics.  With constant coefficients the p = 1 region collapses to the
single point (x1, y1) solving  b*x1 + c*y1 = a,  -e*x1 + f*y1 = d,  which
is also the coexistence equilibrium when positive.  The region-coupled
test then reduces to a scalar quadratic in w = x**p whose discriminant
sign G(p) can be scanned over p.  The reduction squares the inequality

    sqrt(c*e*x*y) <= threshold(p)/T - k,      k = (b*x1 + f*y1)/2,

so it is direction-preserving only when the right-hand side is
non-negative; each row of :func:`sign_scan` carries that flag
(``sign_ok``) beside its h, G and delta.  When sign_ok is false the
G-sign classification and the direct region-based test are NOT
equivalent and the direct margins are authoritative.

:func:`equilibrium` and :func:`linear_term` read the coefficient means,
so for a periodic system they give the equilibrium of the averaged
system.  :func:`sign_scan` and :func:`check25` need constant coefficients
and raise ``ValueError`` on a coefficient with harmonics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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


def equilibrium(spec: SystemSpec) -> tuple[float, float]:
    """((a*f - c*d)/(b*f + c*e), (a*e + b*d)/(b*f + c*e)) of the means.

    For constant coefficients this is the unique point of the p = 1 region
    and, when componentwise positive, the coexistence equilibrium.
    """
    a, b, c, d, e, f = (getattr(spec, name).mean for name in "abcdef")
    det = b * f + c * e
    if det == 0.0:
        raise SingularSystem("b*f + c*e = 0")
    x1 = (a * f - c * d) / det
    y1 = (a * e + b * d) / det
    return x1, y1


def linear_term(spec: SystemSpec) -> float:
    """k = (b*x1 + f*y1) / 2, the constant part of the test left-hand side.

    Carried at full precision: rounding it visibly (e.g. to 3.0 for the
    bundled demo constants) flips the sign of G(1).
    """
    x1, y1 = equilibrium(spec)
    return 0.5 * (spec.b.mean * x1 + spec.f.mean * y1)


class SignRow(NamedTuple):
    """One exponent of a G-scan; ``sign_ok`` is threshold(p)/T - k >= 0."""

    p: float
    h: float
    sign_ok: bool
    g: float
    delta: float


@dataclass(frozen=True)
class SignScan:
    """Tabulated G-scan: one row per exponent, plus the shared constant k
    and the exponents whose h or G left the extended range (``overflow``).
    The component bounds are the system's own ``spec.bounds``."""

    k: float
    rows: tuple[SignRow, ...]
    overflow: tuple[float, ...] = ()


def sign_scan(spec: SystemSpec, ps) -> SignScan:
    """h(p), sign_ok, G(p) and the discriminant delta(p) at each exponent:

        h(p)     = [ (threshold(p)/T - k)**2 / (c*e) ] ** p,
        G(p)     = (a/c)**2 * V**(p-1) - 4*(b/c) * h(p) / U**(p-1),
        delta(p) = V**(p-1) * G(p), which shares the sign of G(p).

    k is computed once per scan; U and V are ``spec.bounds``.  h is
    evaluated in extended precision, where it stays finite far beyond the
    double range (the demo constants at T = 0.1 give h(200) ~ 1e1040), and
    G, whose two terms can exceed their difference by many orders of
    magnitude (the demo constants give terms near 1.6e5 whose difference
    is about +3.3 at p = 1), is accumulated there before rounding once to
    double.  A row
    whose terms overflow even there, or turn NaN, lists its exponent in
    ``overflow``; a value that only rounds to inf in double is not listed.
    """
    for name in "abcdef":
        if getattr(spec, name).harmonics:
            raise ValueError(f"coefficient {name} is not constant")
    k = linear_term(spec)
    ld = np.longdouble
    a, b, c, e = (ld(getattr(spec, name).c0) for name in "abce")
    U, V = ld(spec.bounds.U), ld(spec.bounds.V)
    rows, overflow = [], []
    for p in ps:
        if not (math.isfinite(p) and p >= 1.0):
            raise ValueError("p must be finite and >= 1")
        errors = []
        with np.errstate(over="call", divide="call", invalid="call",
                         call=lambda kind, _: errors.append(kind)):
            rhs = ld(jfunc.threshold_p(p)) / ld(spec.T) - ld(k)
            h = (rhs * rhs / (c * e)) ** ld(p)
            g = float((a / c) ** 2 * V ** (ld(p) - 1) - 4 * (b / c) * h / U ** (ld(p) - 1))
            delta = float(V ** (ld(p) - 1) * ld(g))
        if errors:
            overflow.append(float(p))
        rows.append(SignRow(float(p), float(h), bool(rhs >= 0), g, delta))
    return SignScan(k=k, rows=tuple(rows), overflow=tuple(overflow))


@dataclass(frozen=True)
class SignPattern:
    """Outcome of the three-point sign scan of G; the G values and sign
    flags are the rows of ``scan``.  ``limit_positive_by_ratio`` is None
    when the ratio check was skipped (U <= 0)."""

    g1_positive: bool
    gstar_negative: bool
    glarge_positive: bool
    limit_positive_by_ratio: Optional[bool]
    diagnostics: tuple[str, ...]
    scan: SignScan


def check25(spec: SystemSpec, p_star: float) -> SignPattern:
    """Evaluate (G(1) > 0, G(p_star) < 0, G(P_LARGE_DEFAULT) > 0) from one sign scan.

    The large-p probe is cross-checked against the asymptotic dominance
    criterion V > r**2 / U with r = |threshold(inf)/T - k| / sqrt(c*e),
    which decides the limit sign without overflow.  With U <= 0 no
    coexistence state exists and the check has no meaning: it is skipped
    with a note.
    """
    if not (1.0 < p_star < math.inf):
        raise ValueError("p_star must lie in (1, inf)")
    scan = sign_scan(spec, (1.0, p_star, P_LARGE_DEFAULT))
    one, star, large = scan.rows
    U, V = spec.bounds.U, spec.bounds.V
    diags = []
    if not one.sign_ok:
        diags.append("sign_ok false at p=1")
    if not star.sign_ok:
        diags.append(f"sign_ok false at p={jfunc.p_token(p_star)}")
    ratio_ok = None
    if U > 0:
        r = abs(math.pi / spec.T - scan.k) / math.sqrt(spec.c.c0 * spec.e.c0)
        ratio_ok = V > r * r / U
        if (large.g > 0) != ratio_ok:
            diags.append("large-p sample disagrees with the asymptotic ratio check")
    else:
        diags.append("U <= 0, so no coexistence state exists; the large-p ratio check is skipped")
    for p in scan.overflow:
        diags.append(f"h or G overflows extended precision at p={jfunc.p_token(p)}; its sign is not determined")
    return SignPattern(
        g1_positive=one.g > 0,
        gstar_negative=star.g < 0,
        glarge_positive=large.g > 0,
        limit_positive_by_ratio=ratio_ok,
        diagnostics=tuple(diags),
        scan=scan,
    )


def demo_constants() -> SystemSpec:
    """Bundled constants that show the paper's sign pattern G(1) > 0,
    G(2) < 0, G(200) > 0.

    The pattern certifies nothing here: sign_ok is false at p = 1 and 2, so
    the negative G(2) does not carry over to the direct intertwined test,
    which fails at p = 1, 2 and inf (margins -1.142, -0.520, -0.000996).
    Conditions 18/19 alone give the verdict globally_stable_via_18_19.
    """
    const = PeriodicCoefficient.constant
    return SystemSpec(T=1.0, a=const(2.0102), b=const(1.0), c=const(0.0051),
                      d=const(2.0203), e=const(0.9898), f=const(2.0))
