"""The angular integral and the threshold functions on its right-hand side.

Every stability test in this package compares a system-dependent left-hand
side against a threshold that depends only on the exponent p (through its
conjugate q).  The threshold is built from the angular integral

    J(q) = integral over [0, 2*pi] of
           (|cos t|**(2q) + |sin t|**(2q)) ** (-1/q) dt.

By the 8-fold symmetry of the integrand, r = tan t on [0, pi/4] gives
J(q) = 8 * integral_0^1 (1 + r**(2q)) ** (-1/q) dr, and s = r**(2q) turns
that into Euler's integral (DLMF 15.6.1), J(q) = 8 * 2F1(k, k/2; 1 + k/2; -1)
with k = 1/q.  The Pfaff transformation (DLMF 15.8.1) moves the argument
from -1 to 1/2:

    J(q) = 8 * 2**(-k) * 2F1(k, 1; 1 + k/2; 1/2)
         = 8 * 2**(-k) * sum over n >= 0 of (k)_n / (1 + k/2)_n / 2**n.

Successive terms have the ratio (k + n) / (2 + k + 2n) < 1/2 for k in
[0, 1], so the series converges to double precision in at most ~55 terms,
which are added with ``math.fsum``.  J(1) = 2*pi, and at q = inf (k = 0)
every term after the first vanishes, so J(inf) is exactly 8.

The module also holds the exponent checks and ``p_token``, the one text
form of an exponent in every output.
"""

from __future__ import annotations

import math

INF = math.inf

# The series stops after the first term below this; the terms after it sum
# to less than it (ratio < 1/2), and the series itself is at least 1.
_TAIL = 1e-17


def check_exponent(p: float) -> None:
    """Raise ValueError unless p lies in [1, inf]; NaN is rejected."""
    if not p >= 1.0:  # inf compares true, NaN false
        raise ValueError(f"exponent must lie in [1, inf], got {p!r}")


def p_token(p: float) -> str:
    """``inf``, an integer below 1e16, or else the shortest text that reads
    back as ``p`` (``1e+300``): distinct exponents never share a token."""
    if math.isinf(p):
        return "inf"
    if p < 1e16 and p == int(p):
        return str(int(p))
    return repr(p)


def conjugate(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1; conjugate(1) = inf and vice versa."""
    check_exponent(p)
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def angular_integral(q: float) -> float:
    """J(q) = 8 * 2**(-1/q) * 2F1(1/q, 1; 1 + 1/(2q); 1/2); exactly 8 at q = inf."""
    check_exponent(q)
    k = 1.0 / q
    term, terms, n = 1.0, [1.0], 0
    while term >= _TAIL:
        term *= (k + n) / (2.0 + k + 2.0 * n)
        terms.append(term)
        n += 1
    return 8.0 * 2.0 ** -k * math.fsum(terms)


def threshold_q(q: float) -> float:
    """angular_integral(q) / 2**(2 - 1/q); strictly decreasing in q."""
    return angular_integral(q) / 2.0 ** (2.0 - 1.0 / q)


def threshold_p(p: float) -> float:
    """Right-hand side of every stability test, as a function of p.

    Equals threshold_q at the conjugate exponent: 2 at p = 1, pi at p = inf,
    strictly increasing in between.
    """
    return threshold_q(conjugate(p))
