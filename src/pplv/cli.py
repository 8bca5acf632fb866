"""Command-line interface: config parsing, reports and CSV artifacts.

The system config is a line-oriented text format with one section per
coefficient::

    [system]
    T = 1
    [a]
    kind = const
    value = 2.0102
    [b]
    kind = trig
    c0 = 1
    harmonic = 1, 0, 0.5    # k, cos coefficient, sin coefficient

All numeric output is printed with 17 significant digits so that every
reported margin is auditable and round-trips exactly.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import constant_case, criteria, jfunc, simulate
from .coeffs import PeriodicCoefficient, SystemSpec
from .existence import classify_boundary
from .jfunc import p_token
from .logistic import GridTooLarge
from .region import boundary_points, region_spec, sup_xy

EXIT_STABLE = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_COEXISTENCE = 3

_KIND_KEYS = {"const": {"kind", "value"}, "trig": {"kind", "c0", "harmonic"}}
_SECTION_KEYS = {"system": {"T"},
                 **{name: _KIND_KEYS["const"] | _KIND_KEYS["trig"] for name in "abcdef"}}


class ParseError(ValueError):
    """Malformed config text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(ValueError):
    """Structurally valid config that violates a system invariant."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_float(token: str, line: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", line, col) from None
    if math.isnan(value):
        raise ParseError("NaN is not a valid value", line, col)
    return value


def parse_config(text: str) -> SystemSpec:
    """Parse config text into a validated system.

    Raises :class:`ParseError` with line/column for malformed text and
    :class:`ValidationError` when a named invariant is violated (period
    positivity, strict positivity of b, c, e, f, harmonic uniqueness, only
    keys of the section's kind).
    """
    sections: dict[str, dict] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(line))
            name = stripped[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ParseError(f"unknown section [{name}]", lineno, indent)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno, indent)
            sections[name] = {}
            current = name
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", lineno, indent)
        if current is None:
            raise ParseError("key outside of any section", lineno, indent)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        vcol = line.index("=") + 2
        if key not in _SECTION_KEYS[current]:
            raise ParseError(f"unknown key {key!r} in section [{current}]", lineno, indent)
        if key == "harmonic":
            parts = [s.strip() for s in value.split(",")]
            if len(parts) != 3:
                raise ParseError("harmonic needs 'k, cos, sin'", lineno, vcol)
            kf = _parse_float(parts[0], lineno, vcol)
            if not 1 <= kf < math.inf or kf != int(kf):
                raise ParseError("harmonic index must be a positive integer", lineno, vcol)
            sections[current].setdefault("harmonic", []).append(
                (int(kf), _parse_float(parts[1], lineno, vcol), _parse_float(parts[2], lineno, vcol)))
            continue
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r}", lineno, indent)
        if key == "kind":
            if value not in ("const", "trig"):
                raise ParseError(f"kind must be 'const' or 'trig', got {value!r}", lineno, vcol)
            sections[current][key] = value
        else:
            sections[current][key] = _parse_float(value, lineno, vcol)

    missing = [s for s in ("system", "a", "b", "c", "d", "e", "f") if s not in sections]
    if missing:
        raise ValidationError(f"missing sections: {', '.join(missing)}")
    if "T" not in sections["system"]:
        raise ValidationError("missing key 'T' in [system]")
    T = sections["system"]["T"]

    coeffs = {}
    for name in "abcdef":
        sec = sections[name]
        kind = sec.get("kind")
        if kind is None:
            raise ValidationError(f"section [{name}] is missing 'kind'")
        stray = next((key for key in sec if key not in _KIND_KEYS[kind]), None)
        if stray is not None:
            raise ValidationError(f"section [{name}]: key {stray!r} does not belong to kind {kind!r}")
        if kind == "const":
            if "value" not in sec:
                raise ValidationError(f"section [{name}]: const coefficient needs 'value'")
            build, args = PeriodicCoefficient.constant, (sec["value"],)
        else:
            if "c0" not in sec:
                raise ValidationError(f"section [{name}]: trig coefficient needs 'c0'")
            build, args = PeriodicCoefficient.trig, (sec["c0"], sec.get("harmonic", ()))
        try:
            coeffs[name] = build(*args)
        except ValueError as exc:
            raise ValidationError(f"section [{name}]: {exc}") from None

    try:
        return SystemSpec(T=T, **coeffs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


DEFAULT_P_LIST = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: which command, on which system, with which p.

    ``p_list`` is None when the user did not pass --p; each command then
    applies its own default grid.
    """

    command: str
    system_file: Optional[Path]
    p_list: Optional[tuple[float, ...]]
    output_dir: Path
    emit_csv: bool

    def exponents(self, default: Sequence[float] = DEFAULT_P_LIST) -> tuple[float, ...]:
        return tuple(default) if self.p_list is None else self.p_list


def parse_p_list(text: str) -> tuple[float, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise ValidationError(f"bad exponent {token!r} in p list") from None
        if not value >= 1.0:
            raise ValidationError(f"exponents must be >= 1, got {token}")
        out.append(value)
    if not out:
        raise ValidationError("p list is empty")
    return tuple(out)


def _load_spec(cfg: RunConfig) -> SystemSpec:
    if cfg.system_file is None:
        raise ValidationError(f"command {cfg.command!r} requires --config")
    try:
        text = cfg.system_file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{cfg.system_file}: not UTF-8 text ({exc})") from None
    return parse_config(text)


def _write_csv(path: Path, header: str, row: str, rows: Iterable[tuple]) -> None:
    """Write the ``header`` line, then ``row % values`` for each tuple of
    raw values in ``rows``, to ``path`` as one block in one ``write`` call.

    ``row`` is a ``%`` template such as ``"%s,%.17g,%.17g"``; ``%.17g`` gives
    the text of :func:`_fmt`.  No field the CLI writes needs CSV quoting:
    labels, exponent tokens, test names, ``%.17g`` numbers and ``;``-joined
    diagnostics hold no comma, quote or line break.
    """
    line = row + "\n"
    text = header + "\n" + "".join([line % values for values in rows])
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(text)


def _conclusion_exit(conclusion: str) -> int:
    if conclusion == criteria.NO_COEXISTENCE:
        return EXIT_NO_COEXISTENCE
    if conclusion in (criteria.GLOBALLY_STABLE_VIA_18_19,
                      criteria.UNIQUE_ASYMPTOTICALLY_STABLE):
        return EXIT_STABLE
    return EXIT_INCONCLUSIVE


def _result_lines(res: criteria.TestResult) -> str:
    p = "-" if res.p is None else p_token(res.p)
    flags = f"  [{'; '.join(res.diagnostics)}]" if res.diagnostics else ""
    status = "pass" if res.passed else "FAIL"
    return (f"  {res.name:<18} p={p:<5} lhs={_fmt(res.lhs):<24} "
            f"rhs={_fmt(res.rhs):<24} margin={_fmt(res.margin):<24} {status}{flags}")


def _print_report(report: criteria.StabilityReport, out) -> None:
    cls = report.classification
    print(f"mean(a) = {_fmt(cls.lam)}   mean(d) = {_fmt(cls.mu)}", file=out)
    print(f"trivial state stable: {cls.trivial_stable}", file=out)
    if cls.prey_only_stable is not None:
        print(f"prey-only state stable: {cls.prey_only_stable}", file=out)
    if cls.predator_only_stable is not None:
        print(f"predator-only state stable: {cls.predator_only_stable}", file=out)
    print(f"coexistence states exist: {cls.coexistence_exists} "
          f"(margins {_fmt(cls.margins[0])}, {_fmt(cls.margins[1])})", file=out)
    for note in cls.diagnostics:
        print(f"  note: {note}", file=out)
    print("criteria:", file=out)
    for res in report.results:
        print(_result_lines(res), file=out)
    if report.best_p is not None:
        print(f"best exponent: p = {p_token(report.best_p)}", file=out)
    print(f"conclusion: {report.conclusion}", file=out)


def _result_row(res: criteria.TestResult) -> str:
    """name,p,lhs,rhs,margin,passed of one result: a row of ``scan`` and of ``results.csv``."""
    p = "-" if res.p is None else p_token(res.p)
    return "%s,%s,%.17g,%.17g,%.17g,%d" % (res.name, p, res.lhs, res.rhs, res.margin, res.passed)


def _write_results_csv(cfg: RunConfig, report: criteria.StabilityReport) -> None:
    rows = [(_result_row(res), ";".join(res.diagnostics)) for res in report.results]
    _write_csv(cfg.output_dir / "results.csv", "name,p,lhs,rhs,margin,passed,diagnostics",
               "%s,%s", rows)


def cmd_analyze(cfg: RunConfig, out) -> int:
    spec = _load_spec(cfg)
    report = criteria.scan_p(spec, cfg.exponents())
    _print_report(report, out)
    if cfg.emit_csv:
        _write_results_csv(cfg, report)
    return _conclusion_exit(report.conclusion)


def cmd_scan(cfg: RunConfig, out) -> int:
    spec = _load_spec(cfg)
    report = criteria.scan_p(spec, cfg.exponents())
    print("name,p,lhs,rhs,margin,passed", file=out)
    for res in report.results:
        print(_result_row(res), file=out)
    print(f"conclusion: {report.conclusion}", file=out)
    if cfg.emit_csv:
        _write_results_csv(cfg, report)
    return _conclusion_exit(report.conclusion)


def cmd_region(cfg: RunConfig, out) -> int:
    spec = _load_spec(cfg)
    bounds = spec.bounds
    if not (math.isfinite(bounds.U) and math.isfinite(bounds.V)):
        # the boundary curves and suprema would be built from overflowed numbers
        raise ValidationError(
            f"component bounds overflow: U = {_fmt(bounds.U)}, V = {_fmt(bounds.V)}")
    print(f"U = {_fmt(bounds.U)}   V = {_fmt(bounds.V)}", file=out)
    region1 = region_spec(spec)
    for p in cfg.exponents():
        reg = region1.at(p)
        sup = sup_xy(reg)
        rows = boundary_points(reg, 256)
        path = cfg.output_dir / f"region_p{p_token(p)}.csv"
        _write_csv(path, "curve_label,x,y", "%s,%.17g,%.17g", rows)
        status = "empty" if sup.empty else f"sup xy = {_fmt(sup.value)}"
        print(f"p = {p_token(p)}: {len(rows)} boundary points -> {path} ({status})", file=out)
    return EXIT_STABLE


DEFAULT_JFUNC_GRID = tuple([1.0 + 0.25 * i for i in range(37)]  # 1 .. 10
                           + [10.5 + 0.5 * i for i in range(20)]  # 10.5 .. 20
                           + [21.0 + i for i in range(30)]  # 21 .. 50
                           + [jfunc.INF])


def cmd_jfunc(cfg: RunConfig, out) -> int:
    ps = cfg.exponents(default=DEFAULT_JFUNC_GRID)
    values = [jfunc.threshold_p(p) for p in ps]
    path = cfg.output_dir / "jfunc.csv"
    _write_csv(path, "p,scriptF", "%s,%.17g", [(p_token(p), v) for p, v in zip(ps, values)])
    print(f"{len(values)} threshold values -> {path}", file=out)
    print(f"threshold range: [{_fmt(min(values))}, {_fmt(max(values))}]", file=out)
    return EXIT_STABLE


def cmd_simulate(cfg: RunConfig, out) -> int:
    spec = _load_spec(cfg)
    cls = classify_boundary(spec)
    if not cls.coexistence_exists:
        print("no coexistence state exists for this system", file=out)
        print(f"margins: {_fmt(cls.margins[0])}, {_fmt(cls.margins[1])}", file=out)
        return EXIT_NO_COEXISTENCE

    orbits = simulate.find_coexistence_multistart(spec)
    if not orbits:
        print("Newton could not locate a coexistence orbit from any start", file=out)
        return EXIT_INCONCLUSIVE

    print(f"{len(orbits)} distinct orbit(s) found", file=out)
    all_stable = True
    all_verified = True
    for i, orbit in enumerate(orbits):
        flo = simulate.floquet(orbit)
        report = simulate.verify_predictions(spec, orbit)
        mods = [abs(m) for m in flo.multipliers]
        mono = orbit.monodromy
        det = mono[0, 0] * mono[1, 1] - mono[0, 1] * mono[1, 0]
        liou = simulate.liouville_determinant(spec, orbit)
        print(f"orbit {i}: start = ({_fmt(orbit.us[0])}, {_fmt(orbit.vs[0])})", file=out)
        print(f"  newton residual = {_fmt(orbit.newton_residual)}   "
              f"periodicity residual = {_fmt(orbit.periodicity_residual)}", file=out)
        print(f"  multipliers: |m1| = {_fmt(mods[0])}, |m2| = {_fmt(mods[1])} "
              f"-> {flo.classification}", file=out)
        print(f"  det(monodromy) = {_fmt(det)}   trace-integral check = {_fmt(liou)}", file=out)
        print(f"  component bounds: max u = {_fmt(report.u_max)} <= U = {_fmt(spec.bounds.U)}: "
              f"{report.bounds_ok}", file=out)
        print(f"                    max v = {_fmt(report.v_max)} <= V = {_fmt(spec.bounds.V)}", file=out)
        for m in report.memberships:
            print(f"  region membership p = {p_token(m.p):<4}: averages = "
                  f"({_fmt(m.u_avg)}, {_fmt(m.v_avg)}), slack = {_fmt(m.slack)}, ok = {m.ok}",
                  file=out)
        if flo.classification != simulate.ASYMPTOTICALLY_STABLE:
            all_stable = False
        if not report.all_ok:
            all_verified = False
        if cfg.emit_csv:
            _write_csv(cfg.output_dir / f"orbit_{i}.csv", "t,u,v", "%.17g,%.17g,%.17g",
                       zip(orbit.ts.tolist(), orbit.us.tolist(), orbit.vs.tolist()))
    return EXIT_STABLE if (all_stable and all_verified) else EXIT_INCONCLUSIVE


def cmd_example1(cfg: RunConfig, out) -> int:
    if cfg.system_file is None:
        spec = constant_case.demo_constants()
    else:
        spec = _load_spec(cfg)
        if any(getattr(spec, name).harmonics for name in "abcdef"):
            raise ValidationError("example1 requires constant coefficients")

    # everything is computed before the first line is printed, so a run
    # that ends in an error prints nothing
    p_star = next((p for p in cfg.exponents() if 1.0 < p < jfunc.INF), 2.0)
    report = criteria.scan_p(spec, [1.0, p_star, jfunc.INF])
    pattern = constant_case.check25(spec, p_star)
    x1, y1 = constant_case.equilibrium(spec)
    a, b, c, d, e, f = (_fmt(getattr(spec, name).mean) for name in "abcdef")
    print(f"constants: a={a} b={b} c={c} d={d} e={e} f={f} T={_fmt(spec.T)}", file=out)
    print(f"equilibrium / singleton 1-region point: ({_fmt(x1)}, {_fmt(y1)})", file=out)
    print(f"k = (b*x1 + f*y1)/2 = {_fmt(pattern.scan.k)}", file=out)

    print("p        h(p)                      sign_ok   G(p)                      delta(p)", file=out)
    for p, h, ok, g, delta in pattern.scan.rows:
        print(f"{p_token(p):<8} {_fmt(h):<25} {str(ok):<9} {_fmt(g):<25} {_fmt(delta)}", file=out)
    p_last = p_token(pattern.scan.rows[-1][0])
    print(f"sign pattern (G(1) > 0, G({p_token(p_star)}) < 0, G({p_last}) > 0): "
          f"({pattern.g1_positive}, {pattern.gstar_negative}, {pattern.glarge_positive})", file=out)
    ratio_ok = pattern.limit_positive_by_ratio
    print(f"large-p dominance check (V > r^2/U): {'skipped' if ratio_ok is None else ratio_ok}", file=out)
    for note in pattern.diagnostics:
        print(f"  note: {note}", file=out)

    print("direct region-coupled tests:", file=out)
    for res in report.results:
        if res.name == "intertwined":
            print(_result_lines(res), file=out)
    res_weak = next(res for res in report.results
                    if res.name == "weak_intertwined" and res.p == jfunc.INF)
    print(_result_lines(res_weak), file=out)
    if not all(row.sign_ok for row in pattern.scan.rows[:2]):
        print(constant_case.DISCREPANCY_NOTE, file=out)

    print(f"conclusion: {report.conclusion}", file=out)
    if cfg.emit_csv:
        rows = [(p_token(p), h, ok, g, delta) for p, h, ok, g, delta in pattern.scan.rows]
        _write_csv(cfg.output_dir / "example1.csv", "p,h,sign_ok,G,delta",
                   "%s,%.17g,%d,%.17g,%.17g", rows)
    return _conclusion_exit(report.conclusion)


# in the order of the --command choices in the usage text
_DISPATCH = {
    "analyze": cmd_analyze,
    "region": cmd_region,
    "jfunc": cmd_jfunc,
    "scan": cmd_scan,
    "simulate": cmd_simulate,
    "example1": cmd_example1,
}


def run_command(cfg: RunConfig, out=None) -> int:
    """Dispatch one command; returns the process exit code."""
    if out is None:
        out = sys.stdout
    return _DISPATCH[cfg.command](cfg, out)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors exit EXIT_ERROR: its own status 2 is
    EXIT_INCONCLUSIVE here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _ArgumentParser(
        prog="pplv",
        description="Stability analysis of T-periodic planar predator-prey systems")
    parser.add_argument("--config", type=Path, default=None,
                        help="system config file")
    parser.add_argument("--command", required=True, choices=_DISPATCH)
    parser.add_argument("--p", type=str, default=None,
                        help="comma list of exponents, 'inf' allowed")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory for CSV artifacts")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV artifacts for report-style commands")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            system_file=args.config,
            p_list=None if args.p is None else parse_p_list(args.p),
            output_dir=args.out,
            emit_csv=args.csv,
        )
        return run_command(cfg)
    except (ParseError, ValidationError, GridTooLarge, OSError, constant_case.SingularSystem,
            simulate.NoConvergence, simulate.NonPositive, simulate.StepFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
