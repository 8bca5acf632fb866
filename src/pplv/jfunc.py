"""The angular integral and the threshold functions on its right-hand side.

Every stability test in this package compares a system-dependent left-hand
side against a threshold that depends only on the exponent p (through its
conjugate q).  The threshold is built from the angular integral

    angular_integral(q) = integral over [0, 2*pi] of
                          (|cos t|**(2q) + |sin t|**(2q)) ** (-1/q) dt,

which equals 2*pi at q = 1 and tends to 8 as q -> inf.
"""

from __future__ import annotations

import math

INF = math.inf

TOL_J = 1e-9
_SIMPSON_MAX_DEPTH = 30
_LARGE_Q_CUTOFF = 1e6


def check_exponent(p: float) -> None:
    """Raise ValueError unless p lies in [1, inf]; NaN is rejected."""
    if not p >= 1.0:  # inf compares true, NaN false
        raise ValueError(f"exponent must lie in [1, inf], got {p!r}")


def conjugate(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1; conjugate(1) = inf and vice versa."""
    check_exponent(p)
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _integrand(theta: float, q: float) -> float:
    # Factored as m**-2 * (1 + r**(2q))**(-1/q) with m = max(|cos|, |sin|)
    # and r = min/max, so r**(2q) underflows harmlessly instead of the sum
    # collapsing at large q.  On [0, pi/4] we have m = cos, r = tan.
    c = math.cos(theta)
    r = math.tan(theta)
    return (1.0 + r ** (2.0 * q)) ** (-1.0 / q) / (c * c)


def _adaptive_simpson(f, a: float, b: float, fa: float, fm: float, fb: float,
                      whole: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth >= _SIMPSON_MAX_DEPTH or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1))


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, 0)


def angular_integral(q: float, tol: float = TOL_J) -> float:
    """The angular integral over [0, 2*pi]; exactly 8 at q = inf.

    By the 8-fold symmetry of the integrand only [0, pi/4] is integrated,
    which keeps the |.| kinks at multiples of pi/2 out of the panels.
    Finite q above 1e6 is indistinguishable from the limit at the working
    tolerance and short-circuits to 8.
    """
    check_exponent(q)
    if math.isinf(q) or q > _LARGE_Q_CUTOFF:
        return 8.0
    return 8.0 * adaptive_simpson(lambda t: _integrand(t, q), 0.0, 0.25 * math.pi, tol / 8.0)


def threshold_q(q: float) -> float:
    """angular_integral(q) / 2**(2 - 1/q); strictly decreasing in q."""
    if math.isinf(q):
        return 2.0
    return angular_integral(q) / 2.0 ** (2.0 - 1.0 / q)


def threshold_p(p: float) -> float:
    """Right-hand side of every stability test, as a function of p.

    Equals threshold_q at the conjugate exponent: 2 at p = 1, pi at p = inf,
    strictly increasing in between.
    """
    return threshold_q(conjugate(p))
