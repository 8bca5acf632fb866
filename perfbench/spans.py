"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public pplv functions from the outside: each listed
function is replaced by a wrapper in every pplv module namespace that
holds it (the layers import each other with ``from .coeffs import
stats``), so calls between layers are seen too.  Spans stay in memory
and are written as JSON at the end of the run.  The two hottest entry
points, ``PeriodicCoefficient.evaluate`` and ``solve_ivp`` inside
``pplv.simulate``, only count.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer (pplv module) -> traced public functions.
TRACED = {
    "cli": ("parse_config", "run_command"),
    "coeffs": ("stats", "ratio_extrema", "lp_norm"),
    "logistic": ("periodic_logistic", "weighted_average"),
    "existence": ("classify_boundary",),
    "jfunc": ("threshold_p",),
    "region": ("region_spec", "compute_uv", "sup_xy", "sup_linear", "boundary_points"),
    "criteria": ("scan_p", "unified_lp_test", "intertwined_test", "weak_intertwined_test"),
    "constant_case": ("sign_scan", "check25"),
    "simulate": ("find_coexistence_multistart", "find_coexistence", "poincare_map",
                 "floquet", "verify_predictions"),
}
FIND_FAILURES = ("NoConvergence", "NonPositive", "StepFailure")


class Recorder:
    """Spans (name, start_ns, end_ns, parent index, case id, error) and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.case, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pplv" and not mod_name.startswith("pplv."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import pplv.coeffs
        import pplv.simulate

        for layer, names in TRACED.items():
            module = sys.modules[f"pplv.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                self._rebind(original, self._wrap(f"{layer}.{fname}", original))

        counts = self.counts
        cls = pplv.coeffs.PeriodicCoefficient
        evaluate = cls.evaluate

        def counted_evaluate(coef, T, t):
            counts["coeffs.evaluate.calls"] += 1
            counts["coeffs.evaluate.points"] += 1 if isinstance(t, float) else getattr(t, "size", 1)
            return evaluate(coef, T, t)

        self._undo.append((cls, "evaluate", evaluate))
        cls.evaluate = counted_evaluate

        solve_ivp = pplv.simulate.solve_ivp

        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            counts["simulate.ode.nfev"] += int(sol.nfev)
            return sol

        self._rebind(solve_ivp, counted_solve_ivp)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def layer_metrics(self, n_cases: int) -> dict[str, float]:
        """Per-case means of calls and self time for every traced function,
        self time per layer, and the work counters and ratios."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _case, _err in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        layer_ns: Counter = Counter()
        errors: Counter = Counter()
        for i, (name, t0, t1, _parent, _case, err) in enumerate(self.spans):
            own = (t1 - t0) - child_ns[i]
            calls[name] += 1
            self_ns[name] += own
            layer_ns[name.split(".", 1)[0]] += own
            if err is not None:
                errors[(name, err)] += 1
        per = 1.0 / max(n_cases, 1)
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            out[f"{layer}.self_ms"] = layer_ns[layer] * 1e-6 * per
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = calls[key] * per
                out[f"{key}.self_ms"] = self_ns[key] * 1e-6 * per
        for key in ("coeffs.evaluate.calls", "coeffs.evaluate.points", "simulate.ode.nfev"):
            out[key] = self.counts[key] * per
        starts = calls["simulate.find_coexistence"]
        for exc in FIND_FAILURES:
            out[f"simulate.find_coexistence.fail.{exc}"] = errors[("simulate.find_coexistence", exc)] * per
        ok = starts - sum(n for (name, _), n in errors.items() if name == "simulate.find_coexistence")
        out["simulate.find_coexistence.ok"] = ok * per
        out["simulate.start_ok_ratio"] = ok / starts if starts else 0.0
        return out

    def dump(self, path) -> None:
        """Write spans and counters as JSON."""
        fields = ("name", "start_ns", "end_ns", "parent", "case", "error")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import times (ms) from ``python -X importtime`` output."""
    cumulative: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line.split(":", 1)[1].split("|")]
        if not parts[0].isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
    return {
        # ``pplv`` is imported inside ``pplv.cli``, so the larger is the total.
        "import.pplv_ms": max(cumulative.get("pplv", 0.0), cumulative.get("pplv.cli", 0.0)),
        "import.scipy_interpolate_ms": cumulative.get("scipy.interpolate", 0.0),
    }
