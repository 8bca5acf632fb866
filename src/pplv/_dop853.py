"""The explicit Runge-Kutta pair DOP853 in numpy.

Order 8 with an embedded 5th/3rd-order error estimate and a 7th-order
dense output (Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, 2nd ed., Springer 1993, sec. II.10, and their Fortran code
``dop853.f``).  The decimal expansions of the tableau are transcribed
from SciPy's ``scipy/integrate/_ivp/dop853_coefficients.py`` (BSD 3-clause
licence, Copyright (c) the SciPy Developers).  The initial step, the error
norm, the step-size control and the failure on too small a step follow
SciPy's ``DOP853`` class, so a solve takes the same steps as
``scipy.integrate.solve_ivp(..., method="DOP853")``.

Four things differ from SciPy:

- the right-hand side is a :class:`Field`, whose time-dependent
  coefficients are evaluated for all 16 stage times of a step at once;
- the dense stages run only for output times strictly inside a step, so a
  solve that reads its end point alone takes 3 evaluations fewer than
  SciPy's;
- such a step keeps the rows of its interpolant, and one Horner pass
  after the last step evaluates every output inside a step, with the
  same arithmetic per output as an evaluation step by step;
- the caller may give the first-step estimate an absolute tolerance of
  its own, so a solve whose atol would make that step tiny needs no
  separate estimate, and no second evaluation at the initial point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

# The nonzero entries of A, row by row: {row: {column: value}}.
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
         6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1,
         8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1,
         10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3,
         12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
         5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2,
         7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4,
         11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4,
         13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
         5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878,
         7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1,
         12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149,
         14: -9.15095847217987001081870187138},
}

# The nonzero entries of the interpolation matrix D; the first 3 rows of
# the dense output come from the step itself.
_D_ROWS = {
    0: {0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3},
}


def _dense_matrix(shape: tuple[int, int], rows: dict) -> np.ndarray:
    out = np.zeros(shape)
    for i, entries in rows.items():
        for j, value in entries.items():
            out[i, j] = value
    return out


A = _dense_matrix((N_STAGES_EXTENDED, N_STAGES_EXTENDED), _A_ROWS)
D = _dense_matrix((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED), _D_ROWS)
B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# the error estimate is of order 7, so a step scales as error**(-1/8)
_ERROR_EXPONENT = -1.0 / 8.0
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_REACHED_END = "The solver successfully reached the end of the integration interval."

# Stage s (1 <= s < 16) combines the stages before it with these weights.
_STAGE_WEIGHTS = [A[s, :s] for s in range(N_STAGES_EXTENDED)]


class Field:
    """A right-hand side f(t, y) split into its time-dependent coefficients
    and the work on y.

    ``at(times)`` returns the coefficients at each of ``times``, one item
    per time, and ``into(coefs, y, out)`` writes f(t, y) into ``out`` given
    the item for t.  ``into`` takes y and ``out`` in the form ``view``
    gives a state buffer, which the solver makes once per buffer; by
    default that is the buffer itself.  The solver asks for the
    coefficients of all stages of a step at once.
    """

    def at(self, times: np.ndarray):
        raise NotImplementedError

    def view(self, buffer: np.ndarray):
        return buffer

    def into(self, coefs, y, out) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Solution:
    """``y`` has one column per output time reached, ``t``; on failure, the
    columns reached before it."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / x.size ** 0.5


def _initial_step(field: Field, t0: float, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  rtol: float, atol: np.ndarray) -> float:
    """The first step size, from one more evaluation of the field
    (Hairer, Norsett & Wanner, sec. II.4)."""
    interval = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = np.empty_like(y0)
    field.into(field.at(np.array([t0 + h0]))[0], field.view(y0 + h0 * f0), field.view(f1))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def _per_component(atol, n: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(atol, dtype=float), (n,))


def solve_ivp(field: Field, t_span, y0, *, rtol: float, atol, t_eval,
              first_step_atol=None) -> Solution:
    """Integrate y' = f(t, y) forward from ``t_span[0]`` to ``t_span[1]`` >=
    ``t_span[0]``, with f given by ``field``.

    ``atol`` is a scalar or one value per component.  The solver picks its
    first step, at the cost of one more evaluation, with the absolute
    tolerance ``first_step_atol`` in place of ``atol`` when that is given.
    Returns the solution at the strictly increasing output times ``t_eval``
    within ``t_span``.  The interpolant of each step with an output time
    strictly inside it is kept, and all those outputs are evaluated in one
    pass after the last step.
    """
    t0, t_bound = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    n = y.size
    atol = _per_component(atol, n)
    K = np.empty((N_STAGES_EXTENDED, n))
    y_new = np.empty(n)
    stage_y = np.empty(n)
    # the field's views of the stage buffers, and the transposed leading
    # blocks of the stage matrix, made once
    rows = [field.view(row) for row in K]
    y_view, y_new_view, stage_view = field.view(y), field.view(y_new), field.view(stage_y)
    leading = [K[:s].T for s in range(N_STAGES_EXTENDED)]
    field.into(field.at(np.array([t0]))[0], y_view, rows[0])
    nfev = 1

    t_eval = np.asarray(t_eval, dtype=float)
    ys = np.empty((n, t_eval.size))
    done = int(t_eval.searchsorted(t0, side="right"))
    ys[:, :done] = y[:, None]
    # per output time strictly inside a step, the index of that step in
    # ``dense``, which holds (t, h, interpolant rows) of each such step
    owner = np.full(t_eval.size, -1)
    dense = []

    h_abs = 0.0
    if t_bound > t0:
        step_atol = atol if first_step_atol is None else _per_component(first_step_atol, n)
        h_abs = _initial_step(field, t0, y, K[0], t_bound, rtol, step_atol)
        nfev += 1

    dy = np.empty(n)
    err5 = np.empty(n)
    err3 = np.empty(n)

    def run_stages(stages, coefs, y: np.ndarray, h: float) -> None:
        for s in stages:
            np.dot(leading[s], _STAGE_WEIGHTS[s], out=dy)
            np.multiply(dy, h, out=dy)
            np.add(y, dy, out=stage_y)
            field.into(coefs[s], stage_view, rows[s])

    t = t0
    success, message = True, _REACHED_END
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # also ends the solve on a NaN step, where SciPy's loop would not end
            if not h_abs >= min_step:
                success, message = False, TOO_SMALL_STEP
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            coefs = field.at(t + C * h)
            run_stages(range(1, N_STAGES), coefs, y, h)
            np.dot(leading[N_STAGES], B, out=dy)
            np.multiply(dy, h, out=dy)
            np.add(y, dy, out=y_new)
            field.into(coefs[N_STAGES], y_new_view, rows[N_STAGES])
            nfev += N_STAGES

            # the 5th-order error, damped by the 3rd-order one
            np.maximum(np.abs(y), np.abs(y_new), out=dy)
            np.multiply(dy, rtol, out=dy)
            np.add(atol, dy, out=dy)
            np.dot(leading[N_STAGES + 1], E5, out=err5)
            np.divide(err5, dy, out=err5)
            np.dot(leading[N_STAGES + 1], E3, out=err3)
            np.divide(err3, dy, out=err3)
            # squares of the 2-norms, rounded as SciPy's norm(err) ** 2
            e5 = math.sqrt(err5.dot(err5)) ** 2
            e3 = math.sqrt(err3.dot(err3)) ** 2
            if e5 == 0.0 and e3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if not success:
            break

        end = int(t_eval.searchsorted(t_new, side="right"))
        inside = end - 1 if end > done and t_eval[end - 1] == t_new else end
        if inside > done:
            # the three extra stages of the interpolant need this step's stages
            run_stages(range(N_STAGES + 1, N_STAGES_EXTENDED), coefs, y, h)
            nfev += N_STAGES_EXTENDED - N_STAGES - 1
            owner[done:inside] = len(dense)
            dense.append((t, h, _interpolant(K, y, y_new, h)))
        ys[:, inside:end] = y_new[:, None]
        done = end
        t = t_new
        y, y_new = y_new, y
        y_view, y_new_view = y_new_view, y_view
        K[0] = K[N_STAGES]

    if dense:
        _interpolate(dense, owner, t_eval, ys)
    return Solution(t_eval[:done], ys[:, :done], nfev, success, message)


def _interpolant(K: np.ndarray, y_old: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """The rows of the 7th-order interpolant over a step of length h from
    ``y_old`` to ``y``, highest power last, and ``y_old`` as a last row."""
    F = np.empty((INTERPOLATOR_POWER + 1, y.size))
    delta = np.subtract(y, y_old, out=F[0])
    F[1] = h * K[0] - delta
    F[2] = 2 * delta - h * (K[N_STAGES] + K[0])
    F[3:INTERPOLATOR_POWER] = h * np.dot(D, K)
    F[INTERPOLATOR_POWER] = y_old
    return F


def _interpolate(dense: list, owner: np.ndarray, t_eval: np.ndarray, ys: np.ndarray) -> None:
    """Write into ``ys`` every output time with an owning step, from the
    interpolant of that step at its fraction of the step, by one Horner
    pass over all of them."""
    inner = np.flatnonzero(owner >= 0)
    step = owner[inner]
    ts, hs, F = (np.array(part) for part in zip(*dense))
    x = ((t_eval[inner] - ts[step]) / hs[step])[:, None]
    out = np.zeros((len(inner), ys.shape[0]))
    for i in range(INTERPOLATOR_POWER):
        out += F[step, INTERPOLATOR_POWER - 1 - i]
        out *= x if i % 2 == 0 else 1 - x
    out += F[step, INTERPOLATOR_POWER]
    ys[:, inner] = out.T
