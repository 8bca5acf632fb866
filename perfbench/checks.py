"""Output checks for one benchmark case.

Each command's stdout is parsed back into numbers and checked for
internal consistency (exit code against conclusion, pass flag against
margin, margin against rhs - lhs, thresholds against the fixed table,
Floquet data against the trace-integral check, orbit bounds and region
memberships).  Cases that appear in reference.json are also compared with
the outputs recorded when the benchmark was defined.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

# A margin this close to zero may carry either pass flag, at any commit.
MARGIN_BORDERLINE = 1e-9
# Margins and other reported numbers may drift this much (relative to the
# size of the compared quantities) from the reference.
REL_TOL = 1e-7
# log det(monodromy) against the integral of the Jacobian trace, relative
# to the size of that integral (det is exp(-40) on strongly damped orbits).
DET_TOL = 1e-6
FLOQUET_BAND = 1e-8

STABLE = ("globally_stable_via_18_19", "unique_asymptotically_stable")
EXIT_BY_CONCLUSION = {"globally_stable_via_18_19": 0, "unique_asymptotically_stable": 0,
                      "inconclusive": 2, "no_coexistence": 3}
STRICT_TESTS = ("condition18", "condition19")

# Failures present when the benchmark was defined.  They count in
# failed_ratio but are not unexpected failures; fixing them is progress.
KNOWN_DEFECTS = frozenset({("example1", "OverflowError")})

_NUM = r"([-+0-9.eE]+|inf|-inf|nan)"
_TEST_RE = re.compile(
    rf"^  (\w+)\s+p=(\S+)\s+lhs={_NUM}\s+rhs={_NUM}\s+margin={_NUM}\s+(pass|FAIL)(?:\s+\[(.*)\])?$")


class CheckFailure(AssertionError):
    """An output contradicts itself, the threshold table or the reference."""


@dataclass
class Outcome:
    """What one command printed and returned, or the exception it raised."""

    command: str
    exit_code: int | None
    stdout: str
    raised: str | None = None


@dataclass
class Verdict:
    """Summary of one case: its failure kind (None when fine) and findings."""

    failure: str | None = None
    orbits_found: int = 0
    notes: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _close(x: float, ref: float, scale: float, tol: float = REL_TOL) -> bool:
    if math.isinf(x) or math.isinf(ref):
        return x == ref
    return abs(x - ref) <= tol * max(1.0, abs(scale))


def parse_tests(stdout: str) -> list[dict]:
    out = []
    for line in stdout.splitlines():
        m = _TEST_RE.match(line)
        if m:
            name, p, lhs, rhs, margin, status, diags = m.groups()
            out.append({"name": name, "p": p, "lhs": float(lhs), "rhs": float(rhs),
                        "margin": float(margin), "passed": status == "pass",
                        "diagnostics": diags or ""})
    return out


def _conclusion(stdout: str) -> str:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("conclusion: ")]
    _require(len(lines) == 1, "expected exactly one conclusion line")
    conclusion = lines[0].split(": ", 1)[1]
    _require(conclusion in EXIT_BY_CONCLUSION, f"unknown conclusion {conclusion!r}")
    return conclusion


def _check_tests(tests: list[dict], thresholds: dict[str, float]) -> None:
    for t in tests:
        label = f"{t['name']} p={t['p']}"
        scale = max(abs(t["lhs"]), abs(t["rhs"]))
        _require(_close(t["margin"], t["rhs"] - t["lhs"], scale, 1e-12),
                 f"{label}: margin is not rhs - lhs")
        if abs(t["margin"]) > MARGIN_BORDERLINE:
            expect = t["margin"] > 0 if t["name"] in STRICT_TESTS else t["margin"] >= 0
            _require(t["passed"] == expect, f"{label}: pass flag contradicts margin")
        if t["p"] != "-":
            _require(t["p"] in thresholds, f"{label}: exponent outside the threshold table")
            _require(_close(t["rhs"], thresholds[t["p"]], 1.0, 1e-9),
                     f"{label}: rhs differs from threshold({t['p']})")


def _compare_tests(tests: list[dict], ref: list, label: str) -> None:
    # ref rows: [name, p, lhs, rhs, margin, passed]
    _require(len(tests) == len(ref), f"{label}: {len(tests)} test lines, reference has {len(ref)}")
    for t, (name, p, lhs, rhs, margin, passed) in zip(tests, ref):
        where = f"{label} {name} p={p}"
        _require((t["name"], t["p"]) == (name, p), f"{where}: test order differs from reference")
        scale = max(abs(lhs), abs(rhs))
        _require(_close(t["margin"], margin, scale), f"{where}: margin {t['margin']!r} != reference {margin!r}")
        if abs(margin) > MARGIN_BORDERLINE:
            _require(t["passed"] == passed, f"{where}: pass flag differs from reference")


def _verdict_report(out: Outcome, thresholds: dict[str, float]) -> dict:
    tests = parse_tests(out.stdout)
    _require(tests, f"{out.command}: no test lines")
    _check_tests(tests, thresholds)
    conclusion = _conclusion(out.stdout)
    _require(out.exit_code == EXIT_BY_CONCLUSION[conclusion],
             f"{out.command}: exit code {out.exit_code} for conclusion {conclusion}")
    return {"conclusion": conclusion, "tests": tests}


def _analyze_record(out: Outcome, thresholds: dict[str, float]) -> dict:
    rep = _verdict_report(out, thresholds)
    tests, conclusion = rep["tests"], rep["conclusion"]
    m = re.search(r"^coexistence states exist: (True|False) \(margins (\S+), (\S+)\)$",
                  out.stdout, re.M)
    _require(m is not None, "analyze: missing coexistence line")
    coexist = m.group(1) == "True"
    passed = {(t["name"], t["p"]): t["passed"] for t in tests}
    if not coexist:
        expect = "no_coexistence"
    elif passed[("condition18", "-")] and passed[("condition19", "-")]:
        expect = "globally_stable_via_18_19"
    elif any(t["passed"] for t in tests if t["p"] != "-"):
        expect = "unique_asymptotically_stable"
    else:
        expect = "inconclusive"
    _require(conclusion == expect, f"analyze: conclusion {conclusion} but the flags give {expect}")
    return {"conclusion": conclusion, "coexistence": coexist,
            "margins": [float(m.group(2)), float(m.group(3))], "tests": tests}


_REGION_RE = re.compile(r"^p = (\S+): (\d+) boundary points -> (.*) \((empty|sup xy = (\S+))\)$")


def _region_record(out: Outcome) -> dict:
    _require(out.exit_code == 0, f"region: exit code {out.exit_code}")
    m = re.match(r"^U = (\S+)   V = (\S+)$", out.stdout.splitlines()[0])
    _require(m is not None, "region: missing U/V line")
    sups = {}
    for line in out.stdout.splitlines()[1:]:
        r = _REGION_RE.match(line)
        _require(r is not None, f"region: unexpected line {line!r}")
        p, n, path, _, sup = r.groups()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["curve_label", "x", "y"], f"region p={p}: bad CSV header")
        _require(len(rows) - 1 == int(n), f"region p={p}: CSV has {len(rows) - 1} rows, stdout says {n}")
        for label, x, y in rows[1:]:
            _require(float(y) >= 0.0 and math.isfinite(float(x)), f"region p={p}: bad point {label}")
        sups[p] = None if sup is None else float(sup)
    return {"U": float(m.group(1)), "V": float(m.group(2)), "sup_xy": sups}


_ORBIT_START = re.compile(r"^orbit \d+: start = ")
_MULT_RE = re.compile(r"multipliers: \|m1\| = (\S+), \|m2\| = (\S+) -> (\w+)")
_DET_RE = re.compile(r"det\(monodromy\) = (\S+)   trace-integral check = (\S+)")


def _simulate_record(out: Outcome) -> dict:
    text = out.stdout
    if text.startswith("no coexistence state exists"):
        raise CheckFailure("simulate: no coexistence state reported for a system built to have one")
    if text.startswith("Newton could not locate"):
        _require(out.exit_code == 2, f"simulate: exit code {out.exit_code} without an orbit")
        return {"orbits": []}
    m = re.match(r"^(\d+) distinct orbit\(s\) found$", text.splitlines()[0])
    _require(m is not None, "simulate: unexpected first line")
    blocks = []
    for line in text.splitlines()[1:]:
        if _ORBIT_START.match(line):
            blocks.append([])
        _require(bool(blocks), "simulate: text before the first orbit")
        blocks[-1].append(line)
    _require(len(blocks) == int(m.group(1)), "simulate: orbit count differs from the header")
    orbits = []
    for i, block in enumerate(blocks):
        body = "\n".join(block)
        mult = _MULT_RE.search(body)
        det = _DET_RE.search(body)
        _require(mult is not None and det is not None, f"simulate orbit {i}: missing Floquet lines")
        m1, m2, cls = float(mult.group(1)), float(mult.group(2)), mult.group(3)
        if max(m1, m2) < 1.0 - FLOQUET_BAND:
            expect = "asymptotically_stable"
        elif max(m1, m2) > 1.0 + FLOQUET_BAND:
            expect = "unstable"
        else:
            expect = "linearly_stable_nonstrict"
        _require(cls == expect, f"simulate orbit {i}: classification {cls} for moduli {m1}, {m2}")
        d, liou = float(det.group(1)), float(det.group(2))
        _require(d > 0 and liou > 0 and abs(math.log(d) - math.log(liou))
                 <= DET_TOL * max(1.0, abs(math.log(liou))),
                 f"simulate orbit {i}: det(monodromy) {d} != trace-integral check {liou}")
        _require(re.search(r"component bounds: .*: True$", body, re.M) is not None,
                 f"simulate orbit {i}: component bounds not shown true")
        oks = re.findall(r"^  region membership .*, ok = (True|False)$", body, re.M)
        _require(bool(oks) and all(ok == "True" for ok in oks),
                 f"simulate orbit {i}: a region membership is not true")
        orbits.append({"moduli": [m1, m2], "classification": cls})
    stable = all(o["classification"] == "asymptotically_stable" for o in orbits)
    _require(out.exit_code == (0 if stable else 2), f"simulate: exit code {out.exit_code}")
    return {"orbits": orbits}


def record(outcomes: list[Outcome], thresholds: dict[str, float]) -> dict:
    """Parse and self-check every outcome; the result is what the reference stores."""
    rec = {}
    for out in outcomes:
        if out.raised is not None:
            rec[out.command] = {"raised": out.raised}
            continue
        if out.exit_code == 1:
            rec[out.command] = {"exit1": True}
            continue
        if out.command == "analyze":
            rec[out.command] = _analyze_record(out, thresholds)
        elif out.command == "region":
            rec[out.command] = _region_record(out)
        elif out.command == "example1":
            rec[out.command] = _verdict_report(out, thresholds)
        elif out.command == "simulate":
            rec[out.command] = _simulate_record(out)
        else:
            raise CheckFailure(f"no check for command {out.command!r}")
    return rec


def _rows(tests: list[dict]) -> list:
    return [[t["name"], t["p"], t["lhs"], t["rhs"], t["margin"], t["passed"]] for t in tests]


def reference_entry(rec: dict) -> dict:
    """The compact form of a record that reference.json keeps."""
    entry = {}
    for command, r in rec.items():
        if "raised" in r or "exit1" in r or command == "region":
            entry[command] = r
        elif command == "simulate":
            entry[command] = {"orbits": len(r["orbits"])}
        else:
            e = {"conclusion": r["conclusion"], "tests": _rows(r["tests"])}
            if "coexistence" in r:
                e["coexistence"] = r["coexistence"]
                e["margins"] = r["margins"]
            entry[command] = e
    return entry


def compare(rec: dict, ref: dict) -> None:
    """Check a record against its reference entry (see reference_entry)."""
    for command, r in ref.items():
        if command == "analyze_verdict":
            continue
        got = rec.get(command)
        _require(got is not None, f"{command}: did not run")
        if "raised" in r or "exit1" in r:
            # The reference failed: failing the same way is the known state,
            # finishing is accepted when the output passed its own checks.
            if "raised" in got or "exit1" in got:
                _require(got == r, f"{command}: failed with {got}, reference {r}")
            continue
        _require("raised" not in got and "exit1" not in got, f"{command}: failed, reference did not")
        if command == "region":
            for key in ("U", "V"):
                _require(_close(got[key], r[key], r[key]), f"region: {key} differs from reference")
            _require(sorted(got["sup_xy"]) == sorted(r["sup_xy"]), "region: exponents differ")
            for p, s in r["sup_xy"].items():
                g = got["sup_xy"][p]
                _require((g is None) == (s is None) and (s is None or _close(g, s, s)),
                         f"region p={p}: sup xy differs from reference")
        elif command == "simulate":
            continue
        else:
            _compare_tests(got["tests"], r["tests"], command)
            if "margins" in r:
                for g, m in zip(got["margins"], r["margins"]):
                    _require(_close(g, m, m), f"{command}: coexistence margin differs from reference")
                if all(abs(m) > MARGIN_BORDERLINE for m in r["margins"]):
                    _require(got["coexistence"] == r["coexistence"],
                             f"{command}: coexistence flag differs from reference")
            borderline = any(abs(row[4]) <= MARGIN_BORDERLINE for row in r["tests"])
            if not borderline:
                _require(got["conclusion"] == r["conclusion"],
                         f"{command}: conclusion {got['conclusion']}, reference {r['conclusion']}")
    verdict = ref.get("analyze_verdict")
    sim = rec.get("simulate")
    if verdict in STABLE and sim is not None and "orbits" in sim:
        # A unique, stable verdict never comes with a second orbit or an
        # orbit whose multipliers leave the unit disc.
        _require(len(sim["orbits"]) <= 1, f"simulate: {len(sim['orbits'])} orbits under verdict {verdict}")
        _require(all(o["classification"] != "unstable" for o in sim["orbits"]),
                 f"simulate: unstable orbit under verdict {verdict}")


def judge(outcomes: list[Outcome], thresholds: dict[str, float], ref: dict | None) -> Verdict:
    """Classify a case: fine (None), "known_defect", or an unexpected failure
    ("raised", "exit1" or "check")."""
    v = Verdict()
    failures = []
    for out in outcomes:
        if out.raised is not None:
            known = (out.command, out.raised) in KNOWN_DEFECTS
            failures.append("known_defect" if known else "raised")
            v.notes.append(f"{out.command} raised {out.raised}")
        elif out.exit_code == 1:
            failures.append("exit1")
            v.notes.append(f"{out.command} exited 1")
    try:
        v.record = record(outcomes, thresholds)
        if ref is not None:
            compare(v.record, ref)
    except (CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
        failures.append("check")
        v.notes.append(f"check failed: {exc}")
    unexpected = [f for f in failures if f != "known_defect"]
    v.failure = unexpected[0] if unexpected else (failures[0] if failures else None)
    v.orbits_found = len(v.record.get("simulate", {}).get("orbits", ()))
    return v
