import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_spec, count_calls, format_config

import pplv.cli
import pplv.coeffs
import pplv.region
import pplv.simulate
from pplv import constant_case, criteria, jfunc
from pplv.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_NO_COEXISTENCE,
    EXIT_STABLE,
    ParseError,
    RunConfig,
    ValidationError,
    _fmt,
    main,
    parse_config,
    parse_p_list,
    run_command,
)
from pplv.coeffs import PeriodicCoefficient, SystemSpec
from pplv.jfunc import INF, p_token
from pplv.region import boundary_points, boundary_residual, region_spec

EQ30_CFG = """\
[system]
T = 1
[a]
kind = const
value = 2.0102
[b]
kind = const
value = 1
[c]
kind = const
value = 0.0051
[d]
kind = const
value = 2.0203
[e]
kind = const
value = 0.9898
[f]
kind = const
value = 2
"""

# the demo constants with a 1% sinusoidal modulation of the prey growth
PERTURBED_CFG = EQ30_CFG.replace("[a]\nkind = const\nvalue = 2.0102",
                                 "[a]\nkind = trig\nc0 = 2.0102\nharmonic = 1, 0, 0.01")

# the perturbed demo with harmonics in b and f as well, so that their extrema
# and the ratios over them are root solves
TRIG_BF_CFG = PERTURBED_CFG.replace(
    "[b]\nkind = const\nvalue = 1\n", "[b]\nkind = trig\nc0 = 1\nharmonic = 1, 0.02, 0.01\n").replace(
    "[f]\nkind = const\nvalue = 2\n", "[f]\nkind = trig\nc0 = 2\nharmonic = 2, 0.01, 0.03\n")

# mean(d) = -10: no coexistence state, so every exponent test carries diagnostics
NO_COEXISTENCE_CFG = EQ30_CFG.replace("[d]\nkind = const\nvalue = 2.0203",
                                      "[d]\nkind = const\nvalue = -10")

# a = 1e308 over b = 1e-5 makes U = V = inf
HUGE_UV_CFG = EQ30_CFG.replace("value = 2.0102", "value = 1e308").replace(
    "[b]\nkind = const\nvalue = 1\n", "[b]\nkind = const\nvalue = 1e-5\n")

# b*f + c*e rounds to 0; c_max*e_max underflows to 0 while U*V overflows
TINY_BCEF_CFG = re.sub(r"^value = (1|0\.0051|0\.9898|2)$", "value = 1e-200", EQ30_CFG,
                       flags=re.MULTILINE)


EXAMPLE1_DEMO = [
    "constants: a=2.0102000000000002 b=1 c=0.0051000000000000004 d=2.0203000000000002 "
    "e=0.98980000000000001 f=2 T=1",
    "equilibrium / singleton 1-region point: (2.0000002543580031, 1.9999501258817758)",
    "k = (b*x1 + f*y1)/2 = 2.9999502530607773",
    "p        h(p)                      sign_ok   G(p)                      delta(p)",
    "1        198.07933244511915        False     3.2932764156070675        3.2932764156070675",
    "2        800.27408402760159        False     -744.7981031483082        -1493.3186923201897",
    "200      6.8415310210949472e+113   True      2.0512194582870349e+65    2.7082332808767563e+125",
    "sign pattern (G(1) > 0, G(2) < 0, G(200) > 0): (True, True, True)",
    "large-p dominance check (V > r^2/U): True",
    "  note: sign_ok false at p=1",
    "  note: sign_ok false at p=2",
    "direct region-coupled tests:",
    "  intertwined        p=1     lhs=3.1420467661806337       rhs=2                        "
    "margin=-1.1420467661806337      FAIL",
    "  intertwined        p=2     lhs=3.142361834158037        rhs=2.6220575542921196       "
    "margin=-0.52030427986591743     FAIL",
    "  intertwined        p=inf   lhs=3.1425883108894377       rhs=3.1415926535897931       "
    "margin=-0.00099565729964457006  FAIL",
    "  weak_intertwined   p=inf   lhs=3.1527360378286606       rhs=3.1415926535897922       "
    "margin=-0.011143384238868403    FAIL",
    "note: sign_ok=false at one or more exponents; there the squared reduction behind G(p) "
    "does not preserve the inequality direction and a negative G(p) does not certify the "
    "direct test; the direct region-based margins are authoritative.",
    "conclusion: globally_stable_via_18_19",
]

_NUMBER = re.compile(r"-?\d+\.\d+(?:e[+-]\d+)?")


def _tokens_match(line: str, expected: str, rel: float = 1e-12) -> bool:
    """Equal text, with every decimal number equal within ``rel``."""
    if _NUMBER.sub("#", line) != _NUMBER.sub("#", expected):
        return False
    return all(float(a) == pytest.approx(float(b), rel=rel, abs=0)
               for a, b in zip(_NUMBER.findall(line), _NUMBER.findall(expected)))


_CRITERION_LINE = re.compile(r"^  (\S+) +p=(\S+) +lhs=(\S+) +rhs=(\S+) +margin=(\S+) +"
                             r"(pass|FAIL)(?:  \[(.*)\])?$")


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def capture_orbits(monkeypatch) -> list:
    """Record the orbits that the simulate command reports."""
    found = []
    real = pplv.simulate.find_coexistence_multistart

    def recording(spec):
        orbits = real(spec)
        found.extend(orbits)
        return orbits

    monkeypatch.setattr(pplv.simulate, "find_coexistence_multistart", recording)
    return found


def write_cfg(tmp_path: Path, text: str = EQ30_CFG, name: str = "sys.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def run_console(tmp_path: Path, command: str, config: str) -> subprocess.CompletedProcess:
    """Run ``command`` on ``config`` as the console script does, with output in
    ``tmp_path / "o"``: there overflow RuntimeWarnings are printed, not raised.
    A run over 10 s fails."""
    src = str(Path(pplv.cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from pplv.cli import main; "
         "sys.exit(main(sys.argv[2:]))", src,
         "--command", command, "--config", str(write_cfg(tmp_path, config)),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=10.0)


def make_cfg(command, system_file=None, p_list=(1.0, 2.0, INF),
             output_dir=None, emit_csv=False):
    return RunConfig(command=command, system_file=system_file,
                     p_list=None if p_list is None else tuple(p_list),
                     output_dir=output_dir, emit_csv=emit_csv)


class TestParseConfig:
    def test_demo_constants(self):
        spec = parse_config(EQ30_CFG)
        assert spec.T == 1.0
        assert spec.a.mean == 2.0102
        assert spec.f.mean == 2.0
        assert spec.a.harmonics == spec.f.harmonics == ()

    def test_trig_coefficient(self):
        text = EQ30_CFG.replace(
            "[a]\nkind = const\nvalue = 2.0102",
            "[a]\nkind = trig\nc0 = 2.0102\nharmonic = 1, 0, 0.01")
        spec = parse_config(text)
        assert spec.a.mean == 2.0102
        assert spec.a.harmonics == ((1, 0.0, 0.01),)

    def test_negative_c_rejected(self):
        text = EQ30_CFG.replace("[c]\nkind = const\nvalue = 0.0051",
                                "[c]\nkind = const\nvalue = -0.1")
        with pytest.raises(ValidationError, match="strictly positive"):
            parse_config(text)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_config("[system]\nT == 1\n")
        assert err.value.line == 2

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_config("[g]\nkind = const\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="expected a number"):
            parse_config("[system]\nT = abc\n")

    def test_bad_kind(self):
        with pytest.raises(ParseError, match="kind must be"):
            parse_config("[a]\nkind = quadratic\n")

    def test_missing_sections(self):
        with pytest.raises(ValidationError, match="missing sections"):
            parse_config("[system]\nT = 1\n")

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + EQ30_CFG.replace("value = 2.0102",
                                                 "value = 2.0102  # prey growth")
        spec = parse_config(text)
        assert spec.a.mean == 2.0102


class TestRoundTrip:
    def test_constants_exact(self):
        spec = parse_config(EQ30_CFG)
        assert parse_config(format_config(spec)) == spec

    def test_trig_exact_17_digits(self):
        coef = PeriodicCoefficient.trig(
            0.12345678901234567, [(1, -0.9876543210987654, 1e-17), (3, 0.0, 2.5)])
        spec = SystemSpec(T=0.7300000000000001, a=coef,
                          b=PeriodicCoefficient.constant(1.0),
                          c=PeriodicCoefficient.constant(math.pi),
                          d=PeriodicCoefficient.constant(-0.1),
                          e=PeriodicCoefficient.constant(2.718281828459045),
                          f=PeriodicCoefficient.constant(3.0))
        assert parse_config(format_config(spec)) == spec

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_trig_systems(self, data):
        amp = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

        def coef(positive):
            ks = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
            hs = [(k, data.draw(amp), data.draw(amp)) for k in ks]
            if positive:  # c0 above the harmonics' total amplitude keeps it positive
                c0 = sum(abs(ck) + abs(sk) for _, ck, sk in hs) + data.draw(
                    st.floats(min_value=0.01, max_value=5.0))
            else:
                c0 = data.draw(st.floats(min_value=-5.0, max_value=5.0))
            return PeriodicCoefficient.trig(c0, hs)

        spec = SystemSpec(T=data.draw(st.floats(min_value=1e-3, max_value=1e3)),
                          **{name: coef(name in "bcef") for name in "abcdef"})
        assert parse_config(format_config(spec)) == spec


class TestParsePList:
    def test_tokens(self):
        assert parse_p_list("1, 2.5 ,inf") == (1.0, 2.5, INF)
        assert parse_p_list("infinity,Inf") == (INF, INF)

    def test_below_one_rejected(self):
        with pytest.raises(ValidationError):
            parse_p_list("0.5")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_p_list(" , ")


class TestCommands:
    def test_analyze_demo_exit_stable(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = io.StringIO()
        code = run_command(make_cfg("analyze", cfg_path, output_dir=tmp_path / "o"), out)
        assert code == EXIT_STABLE
        text = out.getvalue()
        assert "globally_stable_via_18_19" in text
        assert "condition18" in text and "intertwined" in text

    def test_analyze_no_coexistence_exit_3(self, tmp_path):
        cfg_path = write_cfg(tmp_path, NO_COEXISTENCE_CFG)
        out = io.StringIO()
        code = run_command(make_cfg("analyze", cfg_path, output_dir=tmp_path / "o"), out)
        assert code == EXIT_NO_COEXISTENCE
        assert "no_coexistence" in out.getvalue()

    def test_analyze_inconclusive_exit_2(self, tmp_path):
        text = EQ30_CFG.replace("[a]\nkind = const\nvalue = 2.0102",
                                "[a]\nkind = const\nvalue = 1")
        text = text.replace("[c]\nkind = const\nvalue = 0.0051",
                            "[c]\nkind = const\nvalue = 1")
        text = text.replace("[e]\nkind = const\nvalue = 0.9898",
                            "[e]\nkind = const\nvalue = 1")
        text = text.replace("[f]\nkind = const\nvalue = 2",
                            "[f]\nkind = const\nvalue = 1")
        text = text.replace("[d]\nkind = const\nvalue = 2.0203",
                            "[d]\nkind = const\nvalue = 0.5")
        text = text.replace("T = 1", "T = 5")
        cfg_path = write_cfg(tmp_path, text)
        out = io.StringIO()
        code = run_command(make_cfg("analyze", cfg_path, output_dir=tmp_path / "o"), out)
        assert code == EXIT_INCONCLUSIVE

    def test_region_csv_schema_and_residuals(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        outdir = tmp_path / "artifacts"
        out = io.StringIO()
        code = run_command(make_cfg("region", cfg_path, p_list=(2.0, INF),
                                    output_dir=outdir), out)
        assert code == EXIT_STABLE
        spec = parse_config(EQ30_CFG)
        for p, fname in ((2.0, "region_p2.csv"), (INF, "region_pinf.csv")):
            path = outdir / fname
            assert path.exists()
            with path.open() as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["curve_label", "x", "y"]
            reg = region_spec(spec).at(p)
            for label, xs, ys in rows[1:]:
                assert boundary_residual(reg, label, float(xs), float(ys)) <= 1e-9

    @pytest.mark.parametrize("config", [EQ30_CFG, NO_COEXISTENCE_CFG], ids=["demo", "no-coexistence"])
    def test_analyze_results_csv_matches_stdout(self, tmp_path, config):
        outdir = tmp_path / "o"
        out = io.StringIO()
        run_command(make_cfg("analyze", write_cfg(tmp_path, config), output_dir=outdir,
                             emit_csv=True), out)
        lines = [m.groups() for m in map(_CRITERION_LINE.match, out.getvalue().splitlines()) if m]
        rows = read_csv(outdir / "results.csv")
        assert rows[0] == ["name", "p", "lhs", "rhs", "margin", "passed", "diagnostics"]
        assert len(lines) == 11 and len(rows) == 1 + len(lines)
        for row, (name, p, lhs, rhs, margin, status, flags) in zip(rows[1:], lines):
            diagnostics = "" if flags is None else flags.replace("; ", ";")
            assert row == [name, p, lhs, rhs, margin, "1" if status == "pass" else "0", diagnostics]

    def test_simulate_orbit_csv(self, tmp_path, monkeypatch):
        orbits = capture_orbits(monkeypatch)
        outdir = tmp_path / "o"
        code = run_command(make_cfg("simulate", write_cfg(tmp_path, PERTURBED_CFG),
                                    output_dir=outdir, emit_csv=True), io.StringIO())
        assert code == EXIT_STABLE
        assert len(orbits) == 1
        rows = read_csv(outdir / "orbit_0.csv")
        assert rows[0] == ["t", "u", "v"]
        assert len(rows) == 1 + 513
        assert [float(t) for t, _, _ in rows[1:]] == np.linspace(0.0, 1.0, 513).tolist()
        assert [u for _, u, _ in rows[1:]] == [_fmt(u) for u in orbits[0].us]
        assert [v for _, _, v in rows[1:]] == [_fmt(v) for v in orbits[0].vs]

    @pytest.mark.parametrize("command", ["analyze", "scan", "region", "jfunc", "simulate",
                                         "example1"])
    def test_csv_files_match_csv_writer(self, tmp_path, monkeypatch, command):
        # each file holds the fields the command computed, and is byte for
        # byte what csv.writer writes for them: no field needs quoting
        orbits = capture_orbits(monkeypatch)
        outdir = tmp_path / "o"
        run_command(make_cfg(command, write_cfg(tmp_path), output_dir=outdir, emit_csv=True),
                    io.StringIO())
        spec = parse_config(EQ30_CFG)
        ps = (1.0, 2.0, INF)
        if command in ("analyze", "scan"):
            expected = {"results.csv": [["name", "p", "lhs", "rhs", "margin", "passed",
                                         "diagnostics"]] + [
                [res.name, "-" if res.p is None else p_token(res.p), _fmt(res.lhs),
                 _fmt(res.rhs), _fmt(res.margin), str(int(res.passed)), ";".join(res.diagnostics)]
                for res in criteria.scan_p(spec, ps).results]}
        elif command == "region":
            expected = {f"region_p{p_token(p)}.csv": [["curve_label", "x", "y"]] + [
                [label, _fmt(x), _fmt(y)] for label, x, y in boundary_points(
                    region_spec(spec).at(p), 256)] for p in ps}
        elif command == "jfunc":
            expected = {"jfunc.csv": [["p", "scriptF"]] + [
                [p_token(p), _fmt(jfunc.threshold_p(p))] for p in ps]}
        elif command == "simulate":
            assert len(orbits) == 1
            expected = {"orbit_0.csv": [["t", "u", "v"]] + [
                [_fmt(t), _fmt(u), _fmt(v)] for t, u, v in zip(orbits[0].ts, orbits[0].us,
                                                               orbits[0].vs)]}
        else:
            expected = {"example1.csv": [["p", "h", "sign_ok", "G", "delta"]] + [
                [p_token(p), _fmt(h), str(int(ok)), _fmt(g), _fmt(delta)]
                for p, h, ok, g, delta in constant_case.check25(spec, 2.0).scan.rows]}
        assert sorted(f.name for f in outdir.iterdir()) == sorted(expected)
        for name, fields in expected.items():
            reference = io.StringIO()
            csv.writer(reference, lineterminator="\n").writerows(fields)
            assert (outdir / name).read_bytes().decode() == reference.getvalue()
            assert read_csv(outdir / name) == fields

    def test_region_writes_every_sample_at_large_a(self, tmp_path):
        # a = 1e8: an absolute 1e-9 residual check once dropped 18 of these
        # points at p = 1 and 238 at p = 2
        config = EQ30_CFG.replace("value = 2.0102", "value = 1e8")
        outdir = tmp_path / "artifacts"
        out = io.StringIO()
        run_command(make_cfg("region", write_cfg(tmp_path, config), p_list=(1.0, 2.0),
                             output_dir=outdir), out)
        assert "p = 1: 1024 boundary points" in out.getvalue()
        assert "p = 2: 1024 boundary points" in out.getvalue()
        spec = parse_config(config)
        for p, fname in ((1.0, "region_p1.csv"), (2.0, "region_p2.csv")):
            with (outdir / fname).open() as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == 1024
            reg = region_spec(spec).at(p)
            scale = reg.abar + abs(reg.dbar)
            for label, xs, ys in rows:
                assert boundary_residual(reg, label, float(xs), float(ys)) <= 1e-12 * scale

    def test_region_at_huge_a_writes_finite_values_without_warnings(self, tmp_path):
        # boundary_residual itself overflows at this scale, so only
        # finiteness is checked
        run = run_console(tmp_path, "region", EQ30_CFG.replace("value = 2.0102", "value = 1e308"))
        assert run.returncode == EXIT_STABLE
        assert "RuntimeWarning" not in run.stderr
        paths = sorted((tmp_path / "o").glob("region_p*.csv"))
        assert len(paths) == 3
        for path in paths:
            with path.open() as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows
            assert all(math.isfinite(float(v)) for _, *xy in rows for v in xy)

    def test_region_corner_present_at_inf(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        outdir = tmp_path / "artifacts"
        run_command(make_cfg("region", cfg_path, p_list=(INF,), output_dir=outdir),
                    io.StringIO())
        with (outdir / "region_pinf.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        pts = {(x, y) for _, x, y in rows}
        corner = ("2.0102000000000002", "2.0049979800000002")
        assert corner in pts

    def test_region_one_sup_xy_per_exponent(self, tmp_path, monkeypatch):
        calls = []
        real = pplv.region.sup_xy

        def counting(region):
            calls.append(region.p)
            return real(region)

        monkeypatch.setattr(pplv.region, "sup_xy", counting)
        monkeypatch.setattr(pplv.cli, "sup_xy", counting)
        run_command(make_cfg("region", write_cfg(tmp_path), p_list=(1.0, 2.0, INF),
                             output_dir=tmp_path / "artifacts"), io.StringIO())
        assert calls == [1.0, 2.0, INF]

    def test_jfunc_table_bounds(self, tmp_path):
        outdir = tmp_path / "artifacts"
        out = io.StringIO()
        code = run_command(make_cfg("jfunc", None, p_list=None,
                                    output_dir=outdir), out)
        assert code == EXIT_STABLE
        with (outdir / "jfunc.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "scriptF"]
        ps = [r[0] for r in rows[1:]]
        assert "inf" in ps
        vals = [float(r[1]) for r in rows[1:]]
        assert all(2.0 - 1e-9 <= v <= math.pi + 1e-9 for v in vals)
        assert len(vals) > 40  # default dense grid

    def test_jfunc_explicit_p_list(self, tmp_path):
        outdir = tmp_path / "explicit"
        run_command(make_cfg("jfunc", None, p_list=(1.0, 2.0, INF),
                             output_dir=outdir), io.StringIO())
        with (outdir / "jfunc.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == ["1", "2", "inf"]

    def test_scan_compact_output(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = io.StringIO()
        code = run_command(make_cfg("scan", cfg_path, p_list=(2.0,),
                                    output_dir=tmp_path / "o"), out)
        assert code == EXIT_STABLE
        lines = out.getvalue().splitlines()
        assert lines[0] == "name,p,lhs,rhs,margin,passed"
        assert any(line.startswith("intertwined,2,") for line in lines)

    def test_simulate_demo(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = io.StringIO()
        code = run_command(make_cfg("simulate", cfg_path,
                                    output_dir=tmp_path / "o"), out)
        assert code == EXIT_STABLE
        text = out.getvalue()
        assert "asymptotically_stable" in text
        assert "region membership p = inf" in text

    def test_simulate_saddle_found_unstable(self, tmp_path, saddle_spec):
        cfg_path = write_cfg(tmp_path, format_config(saddle_spec))
        out = io.StringIO()
        code = run_command(make_cfg("simulate", cfg_path,
                                    output_dir=tmp_path / "o"), out)
        assert code == EXIT_INCONCLUSIVE
        lines = out.getvalue().splitlines()
        assert lines[0] == "1 distinct orbit(s) found"
        assert any(line.endswith("-> unstable") for line in lines)

    def test_simulate_no_coexistence_exit_3(self, tmp_path):
        cfg_path = write_cfg(tmp_path, NO_COEXISTENCE_CFG)
        code = run_command(make_cfg("simulate", cfg_path,
                                    output_dir=tmp_path / "o"), io.StringIO())
        assert code == EXIT_NO_COEXISTENCE

    def test_example1_report(self, tmp_path):
        out = io.StringIO()
        code = run_command(make_cfg("example1", None, output_dir=tmp_path / "o",
                                    emit_csv=True), out)
        assert code == EXIT_STABLE  # conditions 18+19 hold for the demo constants
        text = out.getvalue()
        assert "(True, True, True)" in text
        assert "sign_ok false at p=1" in text
        assert "sign_ok=false" in text and "authoritative" in text
        with (tmp_path / "o" / "example1.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "h", "sign_ok", "G", "delta"]
        gs = {r[0]: float(r[3]) for r in rows[1:]}
        assert gs["1"] > 0 and gs["2"] < 0 and gs["200"] > 0

    def test_example1_short_period(self, tmp_path):
        # At T = 0.1, h(200) ~ 1e1040 lies beyond the double range.
        cfg_path = write_cfg(tmp_path, EQ30_CFG.replace("T = 1\n", "T = 0.1\n"))
        out = io.StringIO()
        code = run_command(make_cfg("example1", cfg_path, output_dir=tmp_path / "o"), out)
        text = out.getvalue()
        assert code == EXIT_STABLE
        assert "conclusion: globally_stable_via_18_19" in text
        row200 = next(ln.split() for ln in text.splitlines() if ln.startswith("200 "))
        assert row200[1:4] == ["inf", "True", "-inf"]

    def test_example1_demo_lines(self, tmp_path):
        # The direct tests are read from the one scan_p report; the lines are
        # those the four separate intertwined calls printed.
        out = io.StringIO()
        code = run_command(make_cfg("example1", None, output_dir=tmp_path / "o"), out)
        assert code == EXIT_STABLE
        got = out.getvalue().splitlines()
        assert len(got) == len(EXAMPLE1_DEMO)
        for line, expected in zip(got, EXAMPLE1_DEMO):
            assert _tokens_match(line, expected), (line, expected)

    def test_example1_makes_one_sign_scan(self, tmp_path, monkeypatch):
        calls = []
        real = constant_case.sign_scan

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(constant_case, "sign_scan", counting)
        code = run_command(make_cfg("example1", None, output_dir=tmp_path / "o"), io.StringIO())
        assert code == EXIT_STABLE
        assert len(calls) == 1

    def test_missing_config_is_error(self, tmp_path):
        with pytest.raises(ValidationError):
            run_command(make_cfg("analyze", None, output_dir=tmp_path), io.StringIO())


class TestDeterminism:
    def test_example1_byte_identical(self, tmp_path):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            run_command(make_cfg("example1", None, output_dir=tmp_path / "o"), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_region_csv_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        blobs = []
        for sub in ("o1", "o2"):
            outdir = tmp_path / sub
            run_command(make_cfg("region", cfg_path, p_list=(2.0,),
                                 output_dir=outdir), io.StringIO())
            blobs.append((outdir / "region_p2.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestMain:
    def test_main_example1(self, tmp_path, capsys):
        code = main(["--command", "example1", "--out", str(tmp_path / "o")])
        assert code == EXIT_STABLE
        assert "sign pattern" in capsys.readouterr().out

    def test_main_bad_p(self, tmp_path, capsys):
        code = main(["--command", "jfunc", "--p", "0.2",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("p, config", [
        ("nan", None),
        ("nan", EQ30_CFG),
        (None, EQ30_CFG.replace("value = 2.0102", "value = inf")),
        (None, EQ30_CFG.replace("value = 2.0102", "value = 1e400")),
        (None, EQ30_CFG.replace("kind = const\nvalue = 2.0102",
                                "kind = trig\nc0 = 2\nharmonic = inf, 0, 0.1")),
        (None, EQ30_CFG.replace("kind = const\nvalue = 2.0102",
                                "kind = trig\nc0 = 2\nharmonic = 1e400, 0, 0.1")),
        (None, b"[system]\nT = 1 \xff\n"),
    ], ids=["jfunc-p-nan", "analyze-p-nan", "const-inf", "const-1e400",
            "harmonic-inf", "harmonic-1e400", "not-utf8"])
    def test_bad_input_is_an_error_not_a_traceback(self, tmp_path, capsys, p, config):
        argv = ["--out", str(tmp_path / "o")]
        if config is None:
            argv += ["--command", "jfunc"]
        else:
            path = tmp_path / "sys.cfg"
            if isinstance(config, bytes):
                path.write_bytes(config)
            else:
                path.write_text(config)
            argv += ["--command", "analyze", "--config", str(path)]
        if p is not None:
            argv += ["--p", p]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("config", [
        EQ30_CFG.replace("value = 2.0102", "value = 1e308"),
        HUGE_UV_CFG,
        EQ30_CFG.replace("T = 1\n", "T = 1e300\n"),
        TINY_BCEF_CFG,
    ], ids=["a-1e308", "a-1e308-b-1e-5", "T-1e300", "bcef-1e-200"])
    @pytest.mark.parametrize("command", ["region", "analyze", "simulate", "example1"])
    def test_extreme_input_ends_in_report_or_error(self, tmp_path, command, config):
        # a = 1e308 once hung the region search, and with b = 1e-5 it makes U
        # inf; T * max|growth| of 1e300 or more asks for a logistic grid far
        # beyond any array; b = c = e = f = 1e-200 makes the equilibrium
        # singular and an lhs 0 * inf.  A run that ends in an error prints no
        # report before it, and no lhs or margin is NaN.
        run = run_console(tmp_path, command, config)
        assert "Traceback" not in run.stderr
        errors = [ln for ln in run.stderr.splitlines() if ln.startswith("error:")]
        if run.returncode == EXIT_ERROR:
            assert len(errors) == 1
            assert run.stdout == ""
        else:
            assert run.returncode in (EXIT_STABLE, EXIT_INCONCLUSIVE, EXIT_NO_COEXISTENCE)
            assert not errors
        if command == "analyze":
            assert not [ln for ln in run.stdout.splitlines() if "nan" in ln]

    def test_region_with_overflowing_bounds_is_an_error(self, tmp_path):
        # a = 1e308 over b = 1e-5 makes U = V = inf: region stops before it
        # prints, samples a curve or writes a CSV
        run = run_console(tmp_path, "region", HUGE_UV_CFG)
        assert run.returncode == EXIT_ERROR
        assert len([ln for ln in run.stderr.splitlines() if ln.startswith("error:")]) == 1
        assert run.stdout == ""
        assert "RuntimeWarning" not in run.stderr
        assert not list((tmp_path / "o").glob("region_p*.csv"))

    @pytest.mark.parametrize("values", [
        dict(T=1.0, a=2.0, b=1.0, c=1e-300, d=1.0, e=1.0, f=1e300),
        dict(T=1e-300, a=0.5, b=1e-100, c=1.0, d=1.0, e=1.0, f=1.0),
        dict(T=1.0, a=2.0, b=1.0, c=1e-15, d=1.0, e=1e-15, f=1.0),
        dict(T=1.0, a=0.0, b=1.0, c=1e-15, d=1.0, e=1e-15, f=1.0),
    ], ids=["cV-underflows", "damping-integral-underflows", "h-overflows-long-double",
            "U-is-zero"])
    @pytest.mark.parametrize("command", ["analyze", "scan", "region", "example1", "simulate"])
    def test_extreme_constants_in_process(self, tmp_path, capsys, command, values):
        # In process, so a RuntimeWarning is an error here.  c_min * V rounded
        # to 0 and divided the region curves by zero; T * b / 4096 rounded to 0
        # and read as non-positive damping; h(200) overflowed long double and
        # warned; U = max(a/b) = 0 divided the large-p ratio check by zero.
        # Each run ends in a report or in one error line.
        cfg_path = write_cfg(tmp_path, format_config(const_spec(**values)))
        code = main(["--command", command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == EXIT_ERROR:
            assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        else:
            assert code in (EXIT_STABLE, EXIT_INCONCLUSIVE, EXIT_NO_COEXISTENCE)

    @pytest.mark.parametrize("values, command, code, line", [
        (dict(T=1.0, a=2.0, b=1.0, c=1e-300, d=1.0, e=1.0, f=1e300), "analyze", EXIT_STABLE,
         "conclusion: globally_stable_via_18_19"),
        # the predator-only state is stable: lam = 0.5 <= avg(c * theta_mu) = 1
        (dict(T=1e-300, a=0.5, b=1e-100, c=1.0, d=1.0, e=1.0, f=1.0), "analyze",
         EXIT_NO_COEXISTENCE, "conclusion: no_coexistence"),
        (dict(T=1.0, a=2.0, b=1.0, c=1e-15, d=1.0, e=1e-15, f=1.0), "example1", EXIT_STABLE,
         "  note: h or G overflows extended precision at p=200; its sign is not determined"),
        (dict(T=1.0, a=0.0, b=1.0, c=1e-15, d=1.0, e=1e-15, f=1.0), "example1",
         EXIT_NO_COEXISTENCE,
         "  note: U <= 0, so no coexistence state exists; the large-p ratio check is skipped"),
        # v ~ 3e-300: Newton's log floor is 50 below log V, and the
        # p-averages of v do not underflow
        (dict(T=1.0, a=2.0, b=1.0, c=1e-300, d=1.0, e=1.0, f=1e300), "simulate", EXIT_STABLE,
         "1 distinct orbit(s) found"),
    ], ids=["cV-underflows", "damping-integral-underflows", "h-overflows-long-double",
            "U-is-zero", "cV-underflows-simulate"])
    def test_extreme_constants_verdicts(self, tmp_path, capsys, values, command, code, line):
        cfg_path = write_cfg(tmp_path, format_config(const_spec(**values)))
        assert main(["--command", command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == code
        assert line in capsys.readouterr().out.splitlines()

    def test_region_flags_do_not_depend_on_the_unit_of_y(self, tmp_path, capsys):
        # c = f = 1/s measures y in units of 1/s: the p = 1 region touches
        # the y axis at every s, so the p = 1 intertwined line is the same;
        # at s = 1e4 the old absolute band called the region empty (lhs 0)
        lines = []
        for s in (1.0, 1e4):
            cfg_path = write_cfg(tmp_path, format_config(
                const_spec(1.0, 1.0, 1.0 / s, 1.000000000001, 1.0, 1.0 / s)), name=f"s{s:g}.cfg")
            assert main(["--command", "analyze", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == EXIT_NO_COEXISTENCE
            out = capsys.readouterr().out.splitlines()
            lines.append([line for line in out if re.match(r"  intertwined +p=1 ", line)])
        assert len(lines[0]) == 1
        assert lines[0] == lines[1]
        assert "lhs=0.50000000000025002 " in lines[0][0]

    def test_simulate_overflowing_trial_steps_warn_nothing(self, tmp_path, capsys):
        # trial steps of this strongly forced system overflow exp in the log
        # field; the step control rejects them, so in process (where a
        # RuntimeWarning is an error) the run ends in its orbit and stderr
        # stays empty
        trig = PeriodicCoefficient.trig
        spec = SystemSpec(T=23.95208121, a=trig(1.505490583, [(1, 0.0, 1.058485341)]),
                          b=PeriodicCoefficient.constant(0.054979081),
                          c=PeriodicCoefficient.constant(1.07076543),
                          d=trig(-1.051103853, [(1, 0.406644413, 0.0)]),
                          e=PeriodicCoefficient.constant(2.568602992),
                          f=PeriodicCoefficient.constant(0.00848041))
        cfg_path = write_cfg(tmp_path, format_config(spec))
        code = main(["--command", "simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == EXIT_STABLE
        assert captured.out.splitlines()[0] == "1 distinct orbit(s) found"

    @pytest.mark.parametrize("command", ["analyze", "region", "example1", "simulate"])
    def test_each_command_computes_the_bounds_once(self, tmp_path, capsys, monkeypatch,
                                                   command):
        # the system keeps the extrema of b, c, e, f and the bounds U, V, and
        # ratio_extrema takes its denominator's sign from the system: four
        # stats calls in all.  On the second system, which example1 does not
        # take (it needs constants), they are root solves.
        counts = count_calls(monkeypatch, {"compute_uv": pplv.region.compute_uv,
                                           "stats": pplv.coeffs.stats})
        for text in (EQ30_CFG,) if command == "example1" else (EQ30_CFG, TRIG_BF_CFG):
            counts.clear()
            code = main(["--command", command, "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(tmp_path / "o")])
            assert code == EXIT_STABLE
            assert counts == {"compute_uv": 1, "stats": 4}

    @pytest.mark.parametrize("p, tokens", [
        ("1,1.0000000001", ["1", "1.0000000001"]),
        ("2,1e300", ["2", "1e+300"]),
    ], ids=["near-1", "1e300"])
    def test_region_exponent_tokens_are_distinct(self, tmp_path, capsys, p, tokens):
        # with 6 significant digits both near-1 exponents printed as p = 1 and
        # the second CSV overwrote the first; 1e300 printed all 301 digits
        # and its file name was too long
        outdir = tmp_path / "o"
        code = main(["--command", "region", "--config", str(write_cfg(tmp_path)),
                     "--p", p, "--out", str(outdir)])
        assert code == EXIT_STABLE
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [ln.split(":")[0] for ln in lines] == [f"p = {t}" for t in tokens]
        assert sorted(f.name for f in outdir.iterdir()) == sorted(
            f"region_p{t}.csv" for t in tokens)

    def test_example1_notes_keep_exponents_distinct(self, tmp_path, capsys):
        # the notes used 6 significant digits, so p* = 1.0000000001 printed
        # "sign_ok false at p=1" a second time
        code = main(["--command", "example1", "--p", "1.0000000001",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_STABLE
        notes = [ln for ln in capsys.readouterr().out.splitlines() if "sign_ok false" in ln]
        assert notes == ["  note: sign_ok false at p=1",
                         "  note: sign_ok false at p=1.0000000001"]

    @pytest.mark.parametrize("section, key", [
        ("kind = const\nvalue = 2.0102\nharmonic = 1, 0, 0.9", "harmonic"),
        ("kind = const\nvalue = 2.0102\nc0 = 2.0102", "c0"),
        ("kind = trig\nc0 = 2.0102\nvalue = 2.0102", "value"),
    ], ids=["const-harmonic", "const-c0", "trig-value"])
    def test_key_of_the_other_kind_is_an_error(self, tmp_path, capsys, section, key):
        # such a key used to be dropped silently
        path = write_cfg(tmp_path, EQ30_CFG.replace("kind = const\nvalue = 2.0102", section))
        code = main(["--command", "analyze", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert "[a]" in errors[0] and repr(key) in errors[0]

    @pytest.mark.parametrize("argv", [
        ["--command", "bogus"],
        ["--command", "jfunc", "--p", "-inf"],  # argparse reads -inf as an option
    ], ids=["unknown-command", "p-minus-inf"])
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse's own status 2 would read as EXIT_INCONCLUSIVE
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--command" in capsys.readouterr().out

    def test_criteria_commands_do_not_load_scipy(self, tmp_path):
        # no command loads scipy, simulate included: it integrates in-package
        script = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from pplv.cli import main
argv = ["--config", sys.argv[2], "--out", sys.argv[3]]
def run(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--command", command] + argv)
    return code, out.getvalue()
codes = {c: run(c)[0] for c in ("analyze", "scan", "region", "jfunc", "example1")}
sim_code, sim_out = run("simulate")
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"codes": codes, "loaded": loaded, "sim_code": sim_code,
                  "sim_first": sim_out.splitlines()[0]}))
"""
        src = str(Path(pplv.cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", script, src, str(write_cfg(tmp_path)),
                              str(tmp_path / "o")],
                             capture_output=True, text=True, timeout=60.0)
        assert run.returncode == 0, run.stderr
        got = json.loads(run.stdout)
        assert got["codes"] == {"analyze": EXIT_STABLE, "scan": EXIT_STABLE,
                                "region": EXIT_STABLE, "jfunc": EXIT_STABLE,
                                "example1": EXIT_STABLE}
        assert got["loaded"] == []
        assert got["sim_code"] == EXIT_STABLE
        assert got["sim_first"] == "1 distinct orbit(s) found"

    def test_main_missing_config(self, tmp_path, capsys):
        code = main(["--command", "analyze", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_main_analyze_long_period(self, tmp_path, capsys):
        # T * mean(a) = 800 overflowed exp in the periodic logistic states
        C = PeriodicCoefficient.constant
        text = format_config(SystemSpec(T=400.0, a=C(2.0), b=C(1.0), c=C(1.0),
                                        d=C(0.5), e=C(1.0), f=C(1.0)))
        cfg_path = write_cfg(tmp_path, text)
        code = main(["--command", "analyze", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INCONCLUSIVE
        out = capsys.readouterr().out
        assert "coexistence states exist: True" in out
        assert "conclusion: inconclusive" in out

    def test_main_analyze(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        code = main(["--command", "analyze", "--config", str(cfg_path),
                     "--p", "2,inf", "--out", str(tmp_path / "o")])
        assert code == EXIT_STABLE
