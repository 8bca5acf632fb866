"""Regression cases of the ``pplv`` command line, one table for every runner.

Each :class:`Case` is one run: its config text, its arguments, and what the
run must give.  :func:`check` judges a run of a case.  Run as a script,
``python tests/cli_cases.py`` runs every case through the ``pplv`` console
script on PATH, each in its own temporary directory and with its own
timeout, and exits 1 if any case fails.  ``tests/test_cli.py`` runs the same
table in-process through ``pplv.cli.main``, and the tier-1 tests that need
one of these systems read its config from here, so each system is written
once.

To add a regression case, append a :class:`Case` to ``CASES``.
"""

from __future__ import annotations

import io
import re
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional

from pplv.cli import EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_NO_COEXISTENCE, EXIT_STABLE, main


def _num(x: float) -> str:
    """The shortest text that reads back as x, with no trailing '.0'."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def config(T, a, b, c, d, e, f) -> str:
    """Config text of the system with period T and coefficients a, ..., f.

    A coefficient is a number (a constant) or a tuple (c0, (k, cos_k, sin_k),
    ...) of a trig polynomial.  Every number reads back exactly.
    """
    lines = ["[system]", f"T = {_num(T)}"]
    for name, coef in zip("abcdef", (a, b, c, d, e, f)):
        lines.append(f"[{name}]")
        if isinstance(coef, tuple):
            c0, *harmonics = coef
            lines += ["kind = trig", f"c0 = {_num(c0)}"]
            lines += [f"harmonic = {k}, {_num(ck)}, {_num(sk)}" for k, ck, sk in harmonics]
        else:
            lines += ["kind = const", f"value = {_num(coef)}"]
    return "\n".join(lines) + "\n"


_DEMO = dict(T=1, a=2.0102, b=1, c=0.0051, d=2.0203, e=0.9898, f=2)


def _demo(**changes) -> str:
    return config(**{**_DEMO, **changes})


# the bundled demonstration constants
DEMO = _demo()
# the demo constants with a 1% sinusoidal modulation of the prey growth
PERTURBED = _demo(a=(_DEMO["a"], (1, 0, 0.01)))
# a = 0.3 + sin + 0.5 cos(2 .) changes sign
SIGN_A = config(1, (0.3, (1, 0, 1), (2, 0.5, 0)), 1, 0.5, -0.2, 1, 1)
# a constant system that only an interior exponent certifies
INTERIOR = config(0.53044, 1.48869, 0.08683, 0.07412, 0.74638, 0.44884, 0.33023)
# a const section with a harmonic line
CONST_HARMONIC = DEMO.replace("value = 2.0102\n", "value = 2.0102\nharmonic = 1, 0, 0.9\n")
# b = 0.5 + 0.5 sin reaches 0
B_ZERO = _demo(b=(0.5, (1, 0, 0.5)))
# the forced saddle: strongly forced, weakly damped, with one unstable orbit
SADDLE = config(6.5, (1, (1, 0, 0.9)), 0.01, 1, -1, 1, 0.01)
# T * mean(d) rounds to 0
SUBNORMAL = config(0.36787944117144233, -1, 1, 1, 5e-324, 1, 1)
HUGE_A = _demo(a=1e308)
BIG_A = _demo(a=1e8)
# T * max|growth| asks for more logistic grid cells than allowed
HUGE_T = _demo(T=1e300)
# b*f + c*e rounds to 0; c_max*e_max underflows to 0 while U*V overflows
TINY_BCEF = _demo(b=1e-200, c=1e-200, e=1e-200, f=1e-200)
# a = 1e308 over b = 1e-5 makes U = V = inf
HUGE_UV = _demo(a=1e308, b=1e-5)
# c * V rounds to 0 in the region curves; the orbit's v is near 3e-300
TINY_CV = config(1, 2, 1, 1e-300, 1, 1, 1e300)
# c = f = 1e-4 measure y in units of 1e-4
UNIT_Y = config(1, 1, 1, 1e-4, 1.000000000001, 1, 1e-4)
# each logistic panel underflows, yet the damping is positive
TINY_T = config(1e-300, 0.5, 1e-100, 1, 1, 1, 1)
# h(200) overflows long double
TINY_CE = config(1, 2, 1, 1e-15, 1, 1e-15, 1)
# a = 0 makes U = max(a/b) = 0
ZERO_U = config(1, 0, 1, 1e-15, 1, 1e-15, 1)
# e with harmonic 63 over a state resolved on 64 cells
E63 = config(1, (1, (1, 0, 0.5)), 1, 0.5, -0.5, (1, (63, 0.5, 0)), 1)
# certified by conditions 18/19, with v dipping to e^-15 of max u
DEEP_DIP = config(21.477609497, (1.290499477, (1, 0, 2.780158153)), 0.125401361, 0.118970744,
                  (-1.424179287, (2, 0.012161109, 0)), 0.334609734, 0.325334057)
# three orbits, with fixed-point indices +1, -1 and +1
THREE_ORBITS = config(21.167603286, (0.852671711, (1, 0, 0.818768602)), 0.177992758,
                      0.426808073, (-0.802938916, (1, -0.664397414, 0)), 1.181789959, 0.024613658)
# trial steps of this forced system overflow exp in the log field
OVERFLOW_STEPS = config(23.95208121, (1.505490583, (1, 0, 1.058485341)), 0.054979081,
                        1.07076543, (-1.051103853, (1, 0.406644413, 0)), 2.568602992, 0.00848041)
# coexistence with T * max|d| = 1e10: too stiff for the period map, and
# mean(d) < 0, so no periodic logistic state of d refuses it first
STIFF_D = config(1, 1, 1e-10, 1, -1e10, 2, 1)
# a constant system (b, e scaled by 1e200 and c, f by 1e-200 from one with
# all four near 1): f_max * U underflows to 0 in the region's slice search
SCALED = config(1.497397704, 1.136043502, 1.153159674e+200, 2.75384595e-201, 1.759602375,
                4.27670419e+199, 7.24646328e-201)

# stderr rules
EMPTY = "empty"  # nothing at all
ERROR = "error"  # one line, the "error: " line
CLEAN = "clean"  # no Traceback and no RuntimeWarning


@dataclass(frozen=True)
class Case:
    """One ``pplv`` run and what it must give.

    ``argv`` follows ``pplv``; the runners add ``--config`` (when ``config``
    is given) and ``--out``.  A regex in ``patterns`` or ``counts`` is
    searched for in each stdout line; the empty regex counts every line.
    ``extra`` judges what no line match can, from the stdout and the output
    directory, and returns its failures.
    """

    name: str
    argv: str
    config: Optional[str] = None
    exit: int | tuple[int, ...] = EXIT_STABLE
    first: Optional[str] = None  # the first stdout line
    lines: tuple[str, ...] = ()  # stdout lines, each printed exactly
    patterns: tuple[str, ...] = ()  # regexes, each found in some stdout line
    counts: Mapping[str, int] = field(default_factory=dict)  # regex -> stdout lines with it
    stderr: Optional[str] = None  # EMPTY, ERROR or CLEAN
    csv: Mapping[str, int] = field(default_factory=dict)  # file in --out -> its line count
    csv_lines: Mapping[str, Mapping[int, str]] = field(default_factory=dict)  # -> {index: regex}
    extra: Optional[Callable[[str, Path], list[str]]] = None
    seconds: float = 60.0  # wall-time bound


def _region_csvs(stdout: str, outdir: Path) -> list[str]:
    """Each region CSV holds the header and the points its stdout line counts."""
    failures = []
    for n, path in re.findall(r"^p = \S+: (\d+) boundary points -> (\S+) ", stdout, re.M):
        got = len(_file_lines(Path(path)))
        if got != int(n) + 1:
            failures.append(f"{path} has {got} lines, expected {int(n) + 1}")
    return failures


def _e63_margin(stdout: str, outdir: Path) -> list[str]:
    """avg(e * theta) = mean(theta) = 1, so the first margin is 0.5; sampling e
    on the state's 64 cells folded harmonic 63 onto 1 and gave 0.48061."""
    m = re.search(r"^coexistence states exist: True \(margins ([^,]+),", stdout, re.M)
    if m and abs(float(m[1]) - 0.5) <= 1e-12:
        return []
    return [f"first coexistence margin {m and m[1]} is not within 1e-12 of 0.5"]


def _three_orbit_classes(stdout: str, outdir: Path) -> list[str]:
    classes = re.findall(r" -> ([a-z_]+)$", stdout, re.M)
    expected = ["unstable", "unstable", "asymptotically_stable"]
    return [] if classes == expected else [f"classes {classes}, expected {expected}"]


_ONE_CONCLUSION = {"^conclusion: ": 1}
_ONE_ORBIT = "1 distinct orbit(s) found"
_SCALED_P = "1,1.5,2,3,5,10,inf"

CASES = (
    Case("example1-builtin", "--command example1",
         lines=("sign pattern (G(1) > 0, G(2) < 0, G(200) > 0): (True, True, True)",)),
    # one orbit of 513 samples, plus the header
    Case("perturbed-simulate-csv", "--command simulate --csv", PERTURBED,
         csv={"orbit_0.csv": 514}),
    # the header, conditions 18/19, and 3 tests at each of 3 exponents
    Case("perturbed-analyze-csv", "--command analyze --csv", PERTURBED,
         csv={"results.csv": 12}),
    # one lp_norm quadrature serves every exponent; the header, conditions
    # 18/19, and 3 tests at each of 4 exponents
    Case("sign_a-analyze-csv", "--command analyze --p 1,2,1000,inf --csv", SIGN_A,
         exit=(EXIT_STABLE, EXIT_INCONCLUSIVE, EXIT_NO_COEXISTENCE), counts=_ONE_CONCLUSION,
         stderr=CLEAN, csv={"results.csv": 15}),
    # condition 19 fails, and the direct test fails at p = 1 and p = inf but
    # passes at p = 2
    Case("interior-analyze", "--command analyze --p 1,1.5,2,3,inf", INTERIOR,
         lines=("best exponent: p = 2",)),
    Case("perturbed-region", "--command region", PERTURBED,
         counts={" boundary points -> ": 3}, extra=_region_csvs),
    # an input error, not the constant alone
    Case("const_harmonic-analyze", "--command analyze", CONST_HARMONIC, exit=EXIT_ERROR,
         stderr=ERROR),
    # the system is refused
    Case("b_zero-analyze", "--command analyze", B_ZERO, exit=EXIT_ERROR, stderr=ERROR),
    # the loose Newton solves keep the orbit and its class, and warn about nothing
    Case("saddle-simulate", "--command simulate", SADDLE, exit=EXIT_INCONCLUSIVE,
         first=_ONE_ORBIT, patterns=("-> unstable$",), stderr=EMPTY),
    # header plus 88 exponents, from 2 at p = 1 to pi at p = inf
    Case("jfunc-table", "--command jfunc", csv={"jfunc.csv": 89},
         csv_lines={"jfunc.csv": {1: "1,2", -1: r"inf,3\.14159265358979.*"}}),
    Case("jfunc-p-nan", "--command jfunc --p nan", exit=EXIT_ERROR, stderr=ERROR),
    # still a report, with no coexistence
    Case("subnormal-analyze", "--command analyze", SUBNORMAL, exit=EXIT_NO_COEXISTENCE),
    # the region search overflows but ends
    Case("huge_a-region", "--command region", HUGE_A, stderr=CLEAN),
    # every boundary sample is written, none dropped by an absolute residual
    Case("big_a-region", "--command region", BIG_A,
         patterns=("^p = 1: 1024 boundary points", "^p = 2: 1024 boundary points")),
    Case("huge_T-analyze", "--command analyze", HUGE_T, exit=EXIT_ERROR, stderr=ERROR),
    Case("tiny_bcef-example1", "--command example1", TINY_BCEF, exit=EXIT_ERROR, stderr=ERROR),
    # the grid error, with no report before it
    Case("huge_a-example1", "--command example1", HUGE_A, exit=EXIT_ERROR, counts={"": 0}),
    # one error line, with no overflow warning
    Case("huge_uv-region", "--command region", HUGE_UV, exit=EXIT_ERROR, stderr=ERROR),
    Case("tiny_cV-analyze", "--command analyze", TINY_CV,
         lines=("conclusion: globally_stable_via_18_19",), stderr=CLEAN),
    # Newton's log floor is 50 below log V, and the p-averages of v scale by
    # its largest sample instead of underflowing
    Case("tiny_cV-simulate", "--command simulate", TINY_CV, first=_ONE_ORBIT,
         patterns=("-> asymptotically_stable",), stderr=CLEAN),
    # the region maximisers take powers 1/(p-1) and p/(p-1): exponents next
    # to 1 and far beyond the benchmark's p <= 10 end in a report
    *(Case(f"{name}-analyze-p", "--command analyze --p 1,1.0000001,2,1000,1e6,inf", text,
           exit=(EXIT_STABLE, EXIT_INCONCLUSIVE, EXIT_NO_COEXISTENCE), counts=_ONE_CONCLUSION,
           stderr=CLEAN)
      for name, text in (("demo", DEMO), ("tiny_cV", TINY_CV))),
    # the region band is in units of y too, so the p = 1 region still touches
    # the y axis
    Case("unit_y-region", "--command region", UNIT_Y,
         patterns=(r"^p = 1: .* \(sup xy = 0\)$",), counts={r"\(empty\)": 0}, stderr=CLEAN),
    Case("unit_y-analyze", "--command analyze", UNIT_Y, exit=EXIT_NO_COEXISTENCE,
         counts=_ONE_CONCLUSION, stderr=CLEAN),
    # the predator-only state is stable: lam = 0.5 <= avg(c * theta_mu) = 1
    Case("tiny_T-analyze", "--command analyze", TINY_T, exit=EXIT_NO_COEXISTENCE,
         lines=("conclusion: no_coexistence",), stderr=CLEAN),
    # flagged in a note, not a warning
    Case("tiny_ce-example1", "--command example1", TINY_CE,
         lines=("  note: h or G overflows extended precision at p=200; its sign is not "
                "determined",), stderr=CLEAN),
    # example1 skips the large-p ratio check
    Case("zero_u-example1", "--command example1", ZERO_U, exit=EXIT_NO_COEXISTENCE,
         lines=("  note: U <= 0, so no coexistence state exists; the large-p ratio check is "
                "skipped",), stderr=CLEAN),
    # exponents that agree to 6 digits still get distinct tokens, so neither
    # CSV overwrites the other
    Case("perturbed-region-near_1", "--command region --p 1,1.0000000001", PERTURBED,
         counts={"^p = 1: ": 1, "^p = 1.0000000001: ": 1},
         csv={"region_p1.csv": 1025, "region_p1.0000000001.csv": 1025}),
    Case("e63-analyze", "--command analyze", E63, extra=_e63_margin),
    # the orbit is found and is asymptotically stable
    Case("deep_dip-simulate", "--command simulate", DEEP_DIP, first=_ONE_ORBIT,
         patterns=("-> asymptotically_stable",), stderr=EMPTY),
    # the stacked Newton step keeps all three and retires the starts that
    # reach one already accepted; no test certifies uniqueness
    Case("three_orbits-simulate", "--command simulate", THREE_ORBITS, exit=EXIT_INCONCLUSIVE,
         first="3 distinct orbit(s) found", stderr=EMPTY, extra=_three_orbit_classes),
    # the demo constants at T = 1e-6: Newton's test scales with T, so one orbit
    Case("short_T-simulate", "--command simulate", _demo(T=1e-6), first=_ONE_ORBIT,
         stderr=EMPTY),
    # the overflowing trial steps are rejected without a warning
    Case("overflow_steps-simulate", "--command simulate", OVERFLOW_STEPS, first=_ONE_ORBIT,
         stderr=EMPTY),
    # the orbit search refuses the system before any solve
    Case("stiff_d-simulate", "--command simulate", STIFF_D, exit=EXIT_ERROR, stderr=ERROR,
         seconds=10.0),
    # the margins of conditions 18/19 are those of the unscaled system
    Case("scaled-analyze", f"--command analyze --p {_SCALED_P}", SCALED,
         lines=("  condition18        p=-     lhs=1.5488864395617132       "
                "rhs=2.6313974752291425       margin=1.0825110356674292       pass",
                "  condition19        p=-     lhs=0.38002620638408868      "
                "rhs=2.696374644513349        margin=2.3163484381292605       pass",
                "conclusion: globally_stable_via_18_19"), stderr=CLEAN),
    Case("scaled-scan", f"--command scan --p {_SCALED_P}", SCALED, stderr=CLEAN),
    Case("scaled-example1", "--command example1", SCALED, stderr=CLEAN),
    # V overflows
    Case("scaled-region", "--command region", SCALED, exit=EXIT_ERROR, stderr=ERROR),
)


def _file_lines(path: Path) -> list[str]:
    """The lines of a file, none if it is missing."""
    return path.read_text().splitlines() if path.exists() else []


def _stderr_failures(rule: Optional[str], stderr: str) -> list[str]:
    if rule == EMPTY and stderr:
        return ["stderr is not empty"]
    if rule == ERROR and not (len(stderr.splitlines()) == 1 and stderr.startswith("error: ")):
        return ["stderr is not one 'error: ' line"]
    if rule == CLEAN and ("Traceback" in stderr or "RuntimeWarning" in stderr):
        return ["stderr holds a Traceback or RuntimeWarning"]
    return []


def check(case: Case, code: Optional[int], stdout: str, stderr: str, outdir: Path) -> list[str]:
    """What in one run of ``case`` differs from its expectations: [] when the
    run passes.  ``code`` None means the run did not end within
    ``case.seconds``."""
    if code is None:
        return [f"did not end within {case.seconds} s"]
    failures = []
    codes = case.exit if isinstance(case.exit, tuple) else (case.exit,)
    if code not in codes:
        failures.append(f"exit {code}, expected {' or '.join(map(str, codes))}")
    out = stdout.splitlines()
    if case.first is not None and out[:1] != [case.first]:
        failures.append(f"first line is not {case.first!r}")
    failures += [f"no line {line!r}" for line in case.lines if line not in out]
    failures += [f"no line matches {pattern!r}" for pattern in case.patterns
                 if not any(re.search(pattern, line) for line in out)]
    for pattern, n in case.counts.items():
        got = sum(1 for line in out if re.search(pattern, line))
        if got != n:
            failures.append(f"{got} lines match {pattern!r}, expected {n}")
    failures += _stderr_failures(case.stderr, stderr)
    for name, n in case.csv.items():
        got = len(_file_lines(outdir / name))
        if got != n:
            failures.append(f"{name} has {got} lines, expected {n}")
    for name, rows in case.csv_lines.items():
        text = _file_lines(outdir / name)
        for index, pattern in rows.items():
            if not -len(text) <= index < len(text) or not re.fullmatch(pattern, text[index]):
                failures.append(f"line {index} of {name} does not match {pattern!r}")
    if case.extra is not None:
        failures += case.extra(stdout, outdir)
    return failures


def _argv(case: Case, workdir: Path) -> list[str]:
    """The arguments of ``case``, with its config written to ``workdir`` and
    its output directory ``workdir / "out"``."""
    argv = case.argv.split()
    if case.config is not None:
        path = workdir / "sys.cfg"
        path.write_text(case.config)
        argv += ["--config", str(path)]
    return argv + ["--out", str(workdir / "out")]


def run_in_process(case: Case, workdir: Path) -> tuple[Optional[int], str, str]:
    """(exit code, stdout, stderr) of ``case`` run through ``pplv.cli.main``
    in this process.  As from the console script, a RuntimeWarning is
    written to stderr, not raised, and an exception ends the run with its
    traceback and exit 1.  A run longer than ``case.seconds`` has code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(_argv(case, workdir))
        except Exception:
            traceback.print_exc()
            code = EXIT_ERROR
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    if time.perf_counter() - start > case.seconds:
        code = None
    return code, out.getvalue(), err.getvalue()


def run_script(pplv: str, case: Case, workdir: Path) -> tuple[Optional[int], str, str]:
    """(exit code, stdout, stderr) of ``case`` run through the console script
    ``pplv``; code None when it is stopped after ``case.seconds``."""
    try:
        run = subprocess.run([pplv, *_argv(case, workdir)], capture_output=True, text=True,
                             timeout=case.seconds, cwd=workdir)
    except subprocess.TimeoutExpired:
        return None, "", ""
    return run.returncode, run.stdout, run.stderr


def _main() -> int:
    pplv = shutil.which("pplv")
    if pplv is None:
        print("error: no pplv console script on PATH", file=sys.stderr)
        return 1
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            code, stdout, stderr = run_script(pplv, case, Path(tmp))
            failures = check(case, code, stdout, stderr, Path(tmp) / "out")
        print(f"{'FAIL' if failures else 'ok'} {case.name} ({time.perf_counter() - start:.2f} s)")
        if failures:
            failed += 1
            print("".join(f"  {line}\n" for line in failures)
                  + f"  exit {code}\n  stdout:\n{stdout}  stderr:\n{stderr}", end="")
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
