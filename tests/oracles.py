"""Independent reference computations used by the tests.

These deliberately avoid the library's own slicing/refinement code paths:
constraints are written in the raw textbook form and maxima are found by
masked grid scans with window refinement.  Coefficient extrema, which the
library takes from polynomial roots, are found here by dense sampling.
"""

import math

import numpy as np

from pplv.jfunc import INF
from pplv.region import _CURVE_INDEX, RegionSpec, _curves, _x_ceiling


def envelope(region: RegionSpec) -> tuple[float, float]:
    """Analytic (xmax, ymax) bounds enclosing the whole region, from the
    library's boundary curves: only the window of the grid scans below,
    never a reference value.

    The first upper curve decreases and the second increases in x, so the
    y envelope is the smaller of their maxima over [0, xmax].
    """
    if region.p == INF:
        return region.bounds.U, region.bounds.V
    if region.p != 1.0 and (region.bounds.U <= 0 or region.bounds.V <= 0):
        return 0.0, 0.0
    xmax = _x_ceiling(region)
    if xmax <= 0:
        return 0.0, 0.0
    top_a_start = _curves(region, 0.0)[0]
    top_d_end = _curves(region, xmax)[2]
    return xmax, max(min(top_a_start, top_d_end), 0.0)


def boundary_points_loop(region: RegionSpec, n: int) -> list[tuple[str, float, float]]:
    """The per-sample reference for ``pplv.region.boundary_points``: the same
    curves, x ranges and clamping, the last ``a_lower`` sample at y = 0, and
    one scalar ``_curves`` call (Python's libm ``pow``) per sample."""
    pts: list[tuple[str, float, float]] = []
    p = region.p
    U, V = region.bounds.U, region.bounds.V

    if p == INF:
        if U > 0 and V > 0:
            for yv in np.linspace(0.0, V, n):
                pts.append(("x_equals_U", U, float(yv)))
            for xv in np.linspace(0.0, U, n):
                pts.append(("y_equals_V", float(xv), V))
        return pts

    if region.abar <= 0 or (p != 1.0 and (U <= 0 or V <= 0)):
        return pts
    xmax = _x_ceiling(region)

    # at e = 0 and dbar < 0 a d curve lies below y = 0 everywhere (None)
    dbar = region.dbar
    if dbar >= 0:
        d_lower_start = d_upper_start = 0.0
    else:
        d_lower_start = -dbar / region.e_max if region.e_max > 0 else None
        if region.e_min <= 0:
            d_upper_start = None
        elif p == 1.0:
            d_upper_start = -dbar / region.e_min
        else:
            eu = region.e_min * U
            d_upper_start = U * (-dbar / eu if eu else -dbar / region.e_min / U) ** (1.0 / p)
    for label, x_start, x_end in (
        ("a_lower", 0.0, xmax),
        ("a_upper", 0.0, min(xmax, region.abar / region.b_max)),
        ("d_lower", d_lower_start, xmax),
        ("d_upper", d_upper_start, xmax),
    ):
        if x_start is not None and x_start <= x_end:
            index = _CURVE_INDEX[label]
            xs = np.linspace(x_start, x_end, n).tolist()
            ys = [max(_curves(region, xv)[index], 0.0) for xv in xs]
            if label == "a_lower":
                ys[-1] = 0.0  # constraint (1) at y = 0 defines xmax
            pts += [(label, xv, yv) for xv, yv in zip(xs, ys) if math.isfinite(yv)]
    return pts


def region_mask(region: RegionSpec, X, Y):
    """Feasibility of grid points, using the raw power form of the constraints."""
    p = region.p
    U, V = region.bounds.U, region.bounds.V
    if math.isinf(p):
        return (X > 0) & (Y > 0) & (X <= U) & (Y <= V)
    if p == 1.0:
        pu, pv = X, Y
    else:
        pu = U ** (1.0 - p) * X ** p
        pv = V ** (1.0 - p) * Y ** p
    c1 = region.b_min * pu + region.c_min * pv <= region.abar
    c2 = region.abar <= region.b_max * X + region.c_max * Y
    c3 = -region.e_max * X + region.f_min * pv <= region.dbar
    c4 = region.dbar <= -region.e_min * pu + region.f_max * Y
    return c1 & c2 & c3 & c4 & (X > 0) & (Y > 0)


def grid_refine_max(region: RegionSpec, objective, xmax: float, ymax: float,
                    n: int = 2000, rounds: int = 3):
    """Masked grid maximum with window refinement around the best cell.

    Each round shrinks the window to +-2 cells around the best sample.
    Whenever a scan finds a better sample, the window re-centres on it,
    doubling if the sample lay in its outer quarter, and scans again until
    the best sample stops moving; so the window can follow a flat maximum
    along a curved boundary or into a thin corner.
    Returns (value, (x, y)) or (None, None) when no feasible point is seen.
    """
    x_lo, x_hi, y_lo, y_hi = 0.0, xmax, 0.0, ymax
    best = None
    arg = None
    for _ in range(rounds + 1):
        while True:
            xs = np.linspace(x_lo, x_hi, n)
            ys = np.linspace(y_lo, y_hi, n)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            vals = np.where(region_mask(region, X, Y), objective(X, Y), -np.inf)
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            if not vals[i, j] > (-np.inf if best is None else best):
                break
            best = float(vals[i, j])
            arg = (float(X[i, j]), float(Y[i, j]))
            hx, hy = 0.5 * (x_hi - x_lo), 0.5 * (y_hi - y_lo)
            c = 0.5 * (n - 1)
            if max(abs(i - c), abs(j - c)) > 0.5 * c:
                hx, hy = 2 * hx, 2 * hy
            x_lo, x_hi = max(0.0, arg[0] - hx), min(xmax, arg[0] + hx)
            y_lo, y_hi = max(0.0, arg[1] - hy), min(ymax, arg[1] + hy)
        if best is None:
            break
        dx = (x_hi - x_lo) / (n - 1)
        dy = (y_hi - y_lo) / (n - 1)
        x_lo = max(0.0, arg[0] - 2 * dx)
        x_hi = min(xmax, arg[0] + 2 * dx)
        y_lo = max(0.0, arg[1] - 2 * dy)
        y_hi = min(ymax, arg[1] + 2 * dy)
    return best, arg


def grid_supxy(region: RegionSpec, xmax: float, ymax: float, n: int = 2000, rounds: int = 3):
    return grid_refine_max(region, lambda x, y: x * y, xmax, ymax, n=n, rounds=rounds)


def sampled_extrema(fn, T: float, n: int = 4096, rounds: int = 3, m: int = 65):
    """(min, max) of a vectorized T-periodic function by dense sampling.

    ``n`` samples over one period, then ``rounds`` re-samplings with ``m``
    points of a window around every sampled local extremum.  Every value
    returned is a sample, so the result never lies outside the true range.
    """
    ts = np.linspace(0.0, T, n, endpoint=False)
    out = []
    for sign in (1.0, -1.0):
        vals = sign * fn(ts)
        best = float(vals.max())
        peaks = ts[(vals > np.roll(vals, 1)) & (vals >= np.roll(vals, -1))]
        for t0 in peaks:
            lo, hi = t0 - T / n, t0 + T / n
            for _ in range(rounds):
                xs = np.linspace(lo, hi, m)
                v = sign * fn(xs)
                j = int(np.argmax(v))
                best = max(best, float(v[j]))
                step = (hi - lo) / (m - 1)
                lo, hi = xs[j] - step, xs[j] + step
        out.append(sign * best)
    return out[1], out[0]
