"""The angular integral and the threshold functions on its right-hand side.

Every stability test in this package compares a system-dependent left-hand
side against a threshold that depends only on the exponent p (through its
conjugate q).  The threshold is built from the angular integral

    J(q) = integral over [0, 2*pi] of
           (|cos t|**(2q) + |sin t|**(2q)) ** (-1/q) dt.

By the 8-fold symmetry of the integrand, r = tan t on [0, pi/4] gives
J(q) = 8 * integral_0^1 (1 + r**(2q)) ** (-1/q) dr, and s = r**(2q) turns
that into Euler's integral (DLMF 15.6.1):

    J(q) = 8 * 2F1(1/q, 1/(2q); 1 + 1/(2q); -1),

which equals 2*pi at q = 1 and exactly 8 at q = inf, where 1/q = 0.
"""

from __future__ import annotations

import math

from scipy.special import hyp2f1

INF = math.inf


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


def angular_integral(q: float) -> float:
    """J(q) = 8 * 2F1(1/q, 1/(2q); 1 + 1/(2q); -1); exactly 8 at q = inf."""
    check_exponent(q)
    k = 1.0 / q
    return float(8.0 * hyp2f1(k, 0.5 * k, 1.0 + 0.5 * k, -1.0))


def threshold_q(q: float) -> float:
    """angular_integral(q) / 2**(2 - 1/q); strictly decreasing in q."""
    return angular_integral(q) / 2.0 ** (2.0 - 1.0 / q)


def threshold_p(p: float) -> float:
    """Right-hand side of every stability test, as a function of p.

    Equals threshold_q at the conjugate exponent: 2 at p = 1, pi at p = inf,
    strictly increasing in between.
    """
    return threshold_q(conjugate(p))
