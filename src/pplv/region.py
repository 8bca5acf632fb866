"""The admissible-average region and its boundary maximizers.

For each exponent p the p-averages of any coexistence state are confined
to a bounded planar region built from coefficient extrema and the a-priori
component bounds (U, V).  For finite p the region is cut out of the open
quadrant by four inequalities; for p = inf it degenerates to the box
(0, U] x (0, V].  The stability tests need the suprema of x*y and of
linear functionals over these regions, which are computed by closed-form
slicing in y plus golden-section refinement in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import SystemSpec, ratio_extrema, stats
from .jfunc import INF, is_valid_exponent

MEMBERSHIP_TOL = 1e-12
BOUNDARY_TOL = 1e-9
_NX = 2049
_GOLDEN_ROUNDS = 3


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
        if not is_valid_exponent(self.p):
            raise ValueError(f"exponent must lie in [1, inf], got {self.p!r}")
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
    collapsed to (numerically) a single point.
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
# Constraint slices.
#
# For finite p the four constraints, written with the overflow-safe ratio
# powers b_min*U*(x/U)**p etc., are (x, y > 0):
#
#   (1) b_min*U*(x/U)**p + c_min*V*(y/V)**p <= abar      (upper bound on y)
#   (2) abar <= b_max*x + c_max*y                        (lower bound on y)
#   (3) -e_max*x + f_min*V*(y/V)**p <= dbar              (upper bound on y)
#   (4) dbar <= -e_min*U*(x/U)**p + f_max*y              (lower bound on y)
#
# At p = 1 the U, V factors cancel and the raw linear forms are used, which
# keeps the p = 1 region meaningful even when U or V is non-positive.
# ---------------------------------------------------------------------------


def _powx(region: RegionSpec, x):
    # U * (x/U)**p, the stable form of U**(1-p) * x**p
    U = region.bounds.U
    return U * (np.asarray(x, dtype=float) / U) ** region.p


def _slice_bounds(region: RegionSpec, x):
    """Admissible y-interval [ylo, yhi] for each x (vectorized).

    Entries with yhi = -inf mark slices that are infeasible outright.
    """
    p = region.p
    x = np.asarray(x, dtype=float)
    U, V = region.bounds.U, region.bounds.V
    if p == 1.0:
        top_a = (region.abar - region.b_min * x) / region.c_min
        base3 = region.dbar + region.e_max * x
        top_d = base3 / region.f_min
        lo_a = (region.abar - region.b_max * x) / region.c_max
        lo_d = (region.dbar + region.e_min * x) / region.f_max
    else:
        powx_min = region.b_min * _powx(region, x)
        rem = region.abar - powx_min
        with np.errstate(invalid="ignore"):
            top_a = np.where(rem >= 0, V * (np.maximum(rem, 0.0) / (region.c_min * V)) ** (1.0 / p), -np.inf)
        base3 = region.dbar + region.e_max * x
        with np.errstate(invalid="ignore"):
            top_d = np.where(base3 >= 0, V * (np.maximum(base3, 0.0) / (region.f_min * V)) ** (1.0 / p), -np.inf)
        lo_a = (region.abar - region.b_max * x) / region.c_max
        lo_d = (region.dbar + region.e_min * _powx(region, x)) / region.f_max
    yhi = np.minimum(top_a, top_d)
    ylo = np.maximum(np.maximum(lo_a, lo_d), 0.0)
    return ylo, yhi


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
    top_a_start, _ = _slice_top_curves(region, 0.0)
    _, top_d_end = _slice_top_curves(region, xmax)
    return xmax, max(min(top_a_start, top_d_end), 0.0)


def _slice_top_curves(region: RegionSpec, x: float) -> tuple[float, float]:
    # (top_a(x), top_d(x)) individually, -inf marking an undefined branch
    p = region.p
    V = region.bounds.V
    if p == 1.0:
        top_a = (region.abar - region.b_min * x) / region.c_min
        top_d = (region.dbar + region.e_max * x) / region.f_min
        return top_a, top_d
    rem = region.abar - region.b_min * _powx(region, x)
    top_a = V * (max(rem, 0.0) / (region.c_min * V)) ** (1.0 / p) if rem >= 0 else -math.inf
    base = region.dbar + region.e_max * x
    top_d = V * (max(base, 0.0) / (region.f_min * V)) ** (1.0 / p) if base >= 0 else -math.inf
    return float(top_a), float(top_d)


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


def _sup_over_region(region: RegionSpec, objective: Callable) -> SupResult:
    """Maximize an objective that is increasing in y over the region.

    ``objective(x, y)`` must be vectorized.  The maximum over each x-slice
    is attained at the top of the admissible y-interval, so the search is
    one-dimensional: a dense scan over x followed by golden refinement.
    Regions that have collapsed to a point (every slice marginally empty)
    are recovered from the slice-gap maximizer.
    """
    if region.p == INF:
        U, V = region.bounds.U, region.bounds.V
        if U <= 0 or V <= 0:
            return SupResult(0.0, (math.nan, math.nan), empty=True)
        return SupResult(float(objective(U, V)), (U, V), empty=False)

    if region.abar <= 0:
        return SupResult(0.0, (math.nan, math.nan), empty=True)
    if region.p != 1.0 and (region.bounds.U <= 0 or region.bounds.V <= 0):
        return SupResult(0.0, (math.nan, math.nan), empty=True)

    xmax = _x_ceiling(region)
    xs = np.linspace(xmax / _NX * 1e-6, xmax, _NX)
    ylo, yhi = _slice_bounds(region, xs)
    gap = yhi - ylo
    feasible = (gap >= 0.0) & (yhi > 0.0)
    scale = 1.0 + abs(region.abar) + abs(region.dbar)

    def top_at(x: float) -> tuple[float, float, float]:
        lo, hi = _slice_bounds(region, np.asarray([x]))
        return float(lo[0]), float(hi[0]), float(hi[0] - lo[0])

    if np.any(feasible):
        vals = np.where(feasible, objective(xs, np.maximum(yhi, 0.0)), -np.inf)
        i = int(np.argmax(vals))

        def masked(x: float) -> float:
            lo, hi, g = top_at(x)
            if g < 0.0 or hi <= 0.0:
                return -math.inf
            return float(objective(x, hi))

        lo_x = xs[max(i - 1, 0)]
        hi_x = xs[min(i + 1, _NX - 1)]
        best_x, best_v = xs[i], float(vals[i])
        span = hi_x - lo_x
        for _ in range(_GOLDEN_ROUNDS):
            cand_x, cand_v = _golden_max_f(masked, lo_x, hi_x, tol=1e-13 * max(xmax, 1.0))
            if cand_v > best_v:
                best_x, best_v = cand_x, cand_v
            span *= 0.2
            lo_x = max(best_x - span, xs[0])
            hi_x = min(best_x + span, xmax)
        # feasibility edges of the best slice can carry the true maximum
        for edge in (xs[max(i - 1, 0)], xs[min(i + 1, _NX - 1)], xmax):
            v = masked(edge)
            if v > best_v:
                best_x, best_v = edge, v
        _, y_best, _ = top_at(best_x)
        return SupResult(best_v, (best_x, y_best), empty=False)

    # No feasible slice on the grid: the region is either empty or has
    # collapsed to a point where the slice gap just touches zero.
    finite = np.isfinite(gap)
    if not np.any(finite):
        return SupResult(0.0, (math.nan, math.nan), empty=True)
    gap_masked = np.where(finite, gap, -np.inf)
    i = int(np.argmax(gap_masked))

    def gap_at(x: float) -> float:
        return top_at(x)[2]

    x_star, gap_star = _golden_max_f(
        gap_at, xs[max(i - 1, 0)], xs[min(i + 1, _NX - 1)], tol=1e-13 * max(xmax, 1.0))
    if gap_star < -1e-9 * scale:
        return SupResult(0.0, (math.nan, math.nan), empty=True)
    lo, hi, _ = top_at(x_star)
    y_star = 0.5 * (lo + hi)
    if y_star <= 0 or x_star <= 0:
        return SupResult(0.0, (math.nan, math.nan), empty=True)
    return SupResult(float(objective(x_star, y_star)), (x_star, y_star),
                     empty=False, degenerate=True)


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

    # curve a_lower: b_min*U*(x/U)^p + c_min*V*(y/V)^p = abar
    for xv in np.linspace(0.0, xmax, n):
        if p == 1.0:
            yv = (region.abar - region.b_min * xv) / region.c_min
        else:
            rem = region.abar - region.b_min * _powx(region, xv)
            yv = V * (max(rem, 0.0) / (region.c_min * V)) ** (1.0 / p)
        pts.append(("a_lower", float(xv), max(float(yv), 0.0)))

    # curve a_upper: b_max*x + c_max*y = abar (clipped to y >= 0)
    x_end = min(xmax, region.abar / region.b_max)
    for xv in np.linspace(0.0, x_end, n):
        yv = (region.abar - region.b_max * xv) / region.c_max
        pts.append(("a_upper", float(xv), max(float(yv), 0.0)))

    # curve d_lower: -e_max*x + f_min*V*(y/V)^p = dbar
    x_start = max(0.0, -region.dbar / region.e_max)
    if x_start <= xmax:
        for xv in np.linspace(x_start, xmax, n):
            base = region.dbar + region.e_max * xv
            if p == 1.0:
                yv = base / region.f_min
            else:
                yv = V * (max(base, 0.0) / (region.f_min * V)) ** (1.0 / p)
            pts.append(("d_lower", float(xv), max(float(yv), 0.0)))

    # curve d_upper: -e_min*U*(x/U)^p + f_max*y = dbar, clipped to y >= 0
    if region.dbar >= 0 or region.e_min <= 0:
        x_first = 0.0
    elif p == 1.0:
        x_first = -region.dbar / region.e_min
    else:
        x_first = U * (-region.dbar / (region.e_min * U)) ** (1.0 / p)
    if x_first <= xmax:
        for xv in np.linspace(x_first, xmax, n):
            if p == 1.0:
                yv = (region.dbar + region.e_min * xv) / region.f_max
            else:
                yv = (region.dbar + region.e_min * _powx(region, xv)) / region.f_max
            pts.append(("d_upper", float(xv), max(float(yv), 0.0)))

    return pts, empty
