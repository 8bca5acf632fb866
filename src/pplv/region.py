"""The admissible-average region and its boundary maximizers.

For each exponent p the p-averages of any coexistence state are confined
to a bounded planar region built from coefficient extrema and the a-priori
component bounds (U, V).  For finite p the region is cut out of the open
quadrant by four inequalities; for p = inf it degenerates to the box
(0, U] x (0, V].  The stability tests need the suprema of x*y and of
linear functionals over these regions.  For finite p the region is convex,
so each supremum is a one-dimensional unimodal search along the top of its
y-slices (see :func:`_sup_over_region`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import SystemSpec, ratio_extrema, stats
from .jfunc import INF, check_exponent

MEMBERSHIP_TOL = 1e-12
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class RegionBounds:
    """A-priori supremum bounds for the two components of any coexistence
    state: U = max(a/b), V = max(d/f) + max(e/f) * U."""

    U: float
    V: float


@dataclass(frozen=True)
class RegionSpec:
    """Everything that defines the admissible region for one exponent p.

    Holds the coefficient means (abar, dbar), the extrema of the four
    positive coefficients, and the component bounds.  Constructed from a
    SystemSpec via :func:`region_spec`, or directly for freestanding
    parameter studies.
    """

    p: float
    abar: float
    dbar: float
    b_min: float
    b_max: float
    c_min: float
    c_max: float
    e_min: float
    e_max: float
    f_min: float
    f_max: float
    bounds: RegionBounds

    def __post_init__(self) -> None:
        check_exponent(self.p)
        for lo, hi, name in (
            (self.b_min, self.b_max, "b"),
            (self.c_min, self.c_max, "c"),
            (self.e_min, self.e_max, "e"),
            (self.f_min, self.f_max, "f"),
        ):
            if lo > hi:
                raise ValueError(f"{name}: min {lo} exceeds max {hi}")


@dataclass(frozen=True)
class SupResult:
    """Supremum of a functional over the region.

    ``empty`` is a flagged state, not an error: an empty region means no
    coexistence state can exist.  ``degenerate`` marks regions that have
    collapsed to (numerically) zero width: a single point or a segment.
    """

    value: float
    argmax: tuple[float, float]
    empty: bool
    degenerate: bool = False


def compute_uv(spec: SystemSpec) -> RegionBounds:
    """Component bounds from ratio extrema of the coefficients."""
    U = ratio_extrema(spec.a, spec.b, spec.T)[1]
    V = ratio_extrema(spec.d, spec.f, spec.T)[1] + ratio_extrema(spec.e, spec.f, spec.T)[1] * U
    return RegionBounds(U=U, V=V)


def region_spec(spec: SystemSpec, p: float) -> RegionSpec:
    """Build the region data for one exponent from a full system."""
    sb = stats(spec.b, spec.T)
    sc = stats(spec.c, spec.T)
    se = stats(spec.e, spec.T)
    sf = stats(spec.f, spec.T)
    return RegionSpec(
        p=p,
        abar=spec.a.mean,
        dbar=spec.d.mean,
        b_min=sb.minimum, b_max=sb.maximum,
        c_min=sc.minimum, c_max=sc.maximum,
        e_min=se.minimum, e_max=se.maximum,
        f_min=sf.minimum, f_max=sf.maximum,
        bounds=compute_uv(spec),
    )


# ---------------------------------------------------------------------------
# Boundary curves.
#
# For finite p the four constraints, written with the overflow-safe ratio
# powers b_min*U*(x/U)**p etc., are (x, y > 0):
#
#   (1) b_min*U*(x/U)**p + c_min*V*(y/V)**p <= abar      (y <= top_a)
#   (2) abar <= b_max*x + c_max*y                        (y >= lo_a)
#   (3) -e_max*x + f_min*V*(y/V)**p <= dbar              (y <= top_d)
#   (4) dbar <= -e_min*U*(x/U)**p + f_max*y              (y >= lo_d)
#
# At p = 1 the U, V factors cancel and the raw linear forms are used, which
# keeps the p = 1 region meaningful even when U or V is non-positive.
# ---------------------------------------------------------------------------


def _curves(region: RegionSpec, x: float) -> tuple[float, float, float, float]:
    """(top_a, top_d, lo_a, lo_d) at x; -inf marks an undefined top curve.

    Python's float power raises OverflowError where numpy returns inf, so
    callers keep x within [0, _x_ceiling(region)].
    """
    p = region.p
    lo_a = (region.abar - region.b_max * x) / region.c_max
    base = region.dbar + region.e_max * x
    if p == 1.0:
        top_a = (region.abar - region.b_min * x) / region.c_min
        return top_a, base / region.f_min, lo_a, (region.dbar + region.e_min * x) / region.f_max
    U, V = region.bounds.U, region.bounds.V
    powx = U * (x / U) ** p
    rem = region.abar - region.b_min * powx
    top_a = V * (rem / (region.c_min * V)) ** (1.0 / p) if rem >= 0 else -math.inf
    top_d = V * (base / (region.f_min * V)) ** (1.0 / p) if base >= 0 else -math.inf
    return top_a, top_d, lo_a, (region.dbar + region.e_min * powx) / region.f_max


def _slice(region: RegionSpec, x: float) -> tuple[float, float]:
    """Admissible y-interval (ylo, yhi) of the slice at x; empty if ylo > yhi."""
    top_a, top_d, lo_a, lo_d = _curves(region, x)
    return max(lo_a, lo_d, 0.0), min(top_a, top_d)


def _x_ceiling(region: RegionSpec) -> float:
    """Largest x admitted by constraint (1) at y = 0 (the x envelope)."""
    if region.abar <= 0:
        return 0.0
    if region.p == 1.0:
        return region.abar / region.b_min
    U = region.bounds.U
    return U * (region.abar / (region.b_min * U)) ** (1.0 / region.p)


def envelope(region: RegionSpec) -> tuple[float, float]:
    """Analytic (xmax, ymax) bounds enclosing the whole region.

    The first upper curve decreases and the second increases in x, so the
    y envelope is the smaller of their maxima over [0, xmax].
    """
    if region.p == INF:
        return region.bounds.U, region.bounds.V
    xmax = _x_ceiling(region)
    if xmax <= 0:
        return 0.0, 0.0
    top_a_start = _curves(region, 0.0)[0]
    top_d_end = _curves(region, xmax)[1]
    return xmax, max(min(top_a_start, top_d_end), 0.0)


def cp_slack(region: RegionSpec, x: float, y: float) -> float:
    """Minimal slack of the defining inequalities at (x, y).

    Positive inside, negative outside; positivity of x and y themselves is
    not part of the slack and is checked by :func:`cp_contains`.
    """
    p = region.p
    U, V = region.bounds.U, region.bounds.V
    if p == INF:
        return min(U - x, V - y)
    if x < 0 or y < 0:
        return -math.inf
    if p == 1.0:
        lhs1 = region.b_min * x + region.c_min * y
        lhs3 = -region.e_max * x + region.f_min * y
        rhs4 = -region.e_min * x + region.f_max * y
    else:
        if U <= 0 or V <= 0:
            return -math.inf
        px = U * (x / U) ** p
        py = V * (y / V) ** p
        lhs1 = region.b_min * px + region.c_min * py
        lhs3 = -region.e_max * x + region.f_min * py
        rhs4 = -region.e_min * px + region.f_max * y
    return min(
        region.abar - lhs1,
        region.b_max * x + region.c_max * y - region.abar,
        region.dbar - lhs3,
        rhs4 - region.dbar,
    )


def cp_contains(region: RegionSpec, x: float, y: float, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership test; boundary points within ``tol`` count as inside."""
    if not (x > 0 and y > 0):
        return False
    return cp_slack(region, x, y) >= -tol


def _golden_max_f(fn: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    h = b - a
    if h <= tol:
        m = 0.5 * (a + b)
        return m, fn(m)
    c = a + invphi2 * h
    d = a + invphi * h
    fc, fd = fn(c), fn(d)
    n = max(1, int(math.ceil(math.log(tol / h) / math.log(invphi))))
    for _ in range(n):
        if fc > fd:
            b, d, fd = d, c, fc
            h *= invphi
            c = a + invphi2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h *= invphi
            d = a + invphi * h
            fd = fn(d)
    return (c, fc) if fc > fd else (d, fd)


def _feasible_end(gap: Callable[[float], float], inside: float, end: float, tol: float) -> float:
    """Last x from ``inside`` (gap >= 0) towards ``end`` with gap >= 0.

    The gap is concave, so it is monotone between the two and bisection
    finds the crossing.
    """
    if gap(end) >= 0.0:
        return end
    while abs(end - inside) > tol:
        mid = 0.5 * (inside + end)
        if gap(mid) >= 0.0:
            inside = mid
        else:
            end = mid
    return inside


def _sup_over_region(region: RegionSpec, objective: Callable[[float, float], float]) -> SupResult:
    """Maximize an objective that is increasing in y over the region.

    For p >= 1 each of the four constraints is a convex function bounded by
    a constant, so the region is convex and its slice gap yhi(x) - ylo(x)
    is concave in x.  Golden-section search finds the widest slice: below
    -BOUNDARY_TOL (scaled) the region is empty, within BOUNDARY_TOL of zero
    it is degenerate, and a slightly negative widest slice is taken as the
    point where the region touches.  Otherwise bisection on the two
    monotone sides of the gap finds the x-interval where the gap is >= 0.
    The maximum of each slice lies on its top, y = yhi(x), which is concave
    and non-negative on that interval, so x*yhi(x) is log-concave and a
    linear objective with positive y coefficient is concave.  Either is
    unimodal, and one more golden-section search along the top curve finds
    the supremum; it approaches an end of the interval from inside, so the
    argmax stays in the open quadrant.
    """
    if region.p == INF:
        U, V = region.bounds.U, region.bounds.V
        if U <= 0 or V <= 0:
            return SupResult(0.0, (math.nan, math.nan), empty=True)
        return SupResult(float(objective(U, V)), (U, V), empty=False)

    empty = SupResult(0.0, (math.nan, math.nan), empty=True)
    if region.abar <= 0:
        return empty
    if region.p != 1.0 and (region.bounds.U <= 0 or region.bounds.V <= 0):
        return empty

    # top_d is undefined left of -dbar/e_max once p > 1 (everywhere if
    # dbar < 0 = e_max, where the gap is -inf and the region empty)
    x_lo = max(0.0, -region.dbar / region.e_max) if region.p != 1.0 and region.e_max > 0 else 0.0
    x_hi = _x_ceiling(region)
    if x_lo > x_hi:
        return empty
    tol = 1e-13 * max(x_hi, 1.0)
    scale = 1.0 + abs(region.abar) + abs(region.dbar)

    def gap(x: float) -> float:
        ylo, yhi = _slice(region, x)
        return yhi - ylo

    x_g, gap_max = _golden_max_f(gap, x_lo, x_hi, tol)
    if gap_max < -BOUNDARY_TOL * scale:
        return empty
    degenerate = gap_max <= BOUNDARY_TOL * scale
    if gap_max < 0.0:
        # touching within tolerance: the region is the point of widest slice
        ylo, yhi = _slice(region, x_g)
        y_g = 0.5 * (ylo + yhi)
        if y_g <= 0 or x_g <= 0:
            return empty
        return SupResult(float(objective(x_g, y_g)), (x_g, y_g), empty=False, degenerate=True)

    # a degenerate region can still be a segment where two constraints
    # coincide, so it is searched like any other
    xa = _feasible_end(gap, x_g, x_lo, tol)
    xb = _feasible_end(gap, x_g, x_hi, tol)
    x_best, v_best = _golden_max_f(lambda x: objective(x, _slice(region, x)[1]), xa, xb, tol)
    return SupResult(float(v_best), (x_best, _slice(region, x_best)[1]), empty=False,
                     degenerate=degenerate)


def sup_xy(region: RegionSpec) -> SupResult:
    """sup { x*y : (x, y) in the region }; U*V at the corner for p = inf."""
    return _sup_over_region(region, lambda x, y: x * y)


def sup_linear(region: RegionSpec, coef_x: float, coef_y: float) -> SupResult:
    """sup { coef_x*x + coef_y*y } over the region (coef_y must be > 0)."""
    if coef_y <= 0:
        raise ValueError("linear objective must be increasing in y")
    return _sup_over_region(region, lambda x, y: coef_x * x + coef_y * y)


def boundary_residual(region: RegionSpec, label: str, x: float, y: float) -> float:
    """|defining equality| of the labeled boundary curve at (x, y)."""
    p = region.p
    U, V = region.bounds.U, region.bounds.V
    if label == "x_equals_U":
        return abs(x - U)
    if label == "y_equals_V":
        return abs(y - V)
    if p == 1.0:
        px, py = x, y
    else:
        px = U * (x / U) ** p
        py = V * (y / V) ** p
    if label == "a_lower":
        return abs(region.b_min * px + region.c_min * py - region.abar)
    if label == "a_upper":
        return abs(region.b_max * x + region.c_max * y - region.abar)
    if label == "d_lower":
        return abs(-region.e_max * x + region.f_min * py - region.dbar)
    if label == "d_upper":
        return abs(-region.e_min * px + region.f_max * y - region.dbar)
    raise ValueError(f"unknown boundary label {label!r}")


def boundary_points(region: RegionSpec, n: int) -> tuple[list[tuple[str, float, float]], bool]:
    """``n`` samples per labeled boundary curve, plus the emptiness flag.

    Finite p yields four curves (the defining equalities); p = inf yields
    the two box edges through the corner (U, V).  Every returned point
    satisfies its defining equality to machine accuracy and has y >= 0.
    """
    if n < 2:
        raise ValueError("need at least two samples per curve")
    empty = sup_xy(region).empty
    pts: list[tuple[str, float, float]] = []
    p = region.p
    U, V = region.bounds.U, region.bounds.V

    if p == INF:
        if U > 0 and V > 0:
            for yv in np.linspace(0.0, V, n):
                pts.append(("x_equals_U", U, float(yv)))
            for xv in np.linspace(0.0, U, n):
                pts.append(("y_equals_V", float(xv), V))
        return pts, empty

    if region.abar <= 0 or (p != 1.0 and (U <= 0 or V <= 0)):
        return pts, empty
    xmax = _x_ceiling(region)

    # Each curve is sampled on the part of [0, xmax] where it lies at y >= 0;
    # the index picks it out of _curves: top_a, top_d, lo_a, lo_d.
    if region.dbar >= 0 or region.e_min <= 0:
        x_first = 0.0
    elif p == 1.0:
        x_first = -region.dbar / region.e_min
    else:
        x_first = U * (-region.dbar / (region.e_min * U)) ** (1.0 / p)
    for label, index, x_start, x_end in (
        ("a_lower", 0, 0.0, xmax),
        ("a_upper", 2, 0.0, min(xmax, region.abar / region.b_max)),
        ("d_lower", 1, max(0.0, -region.dbar / region.e_max), xmax),
        ("d_upper", 3, x_first, xmax),
    ):
        if x_start <= x_end:
            for xv in np.linspace(x_start, x_end, n):
                yv = _curves(region, float(xv))[index]
                pts.append((label, float(xv), max(yv, 0.0)))
    return pts, empty
