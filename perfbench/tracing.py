"""Spans around calls into drplane's public functions.

Spans are kept in memory and written out when the run ends.  Each records
its name, start, end, parent span and job id, plus work counts taken from
the call's result after the span has closed.  Patching happens at run time
in the benchmark process (or in a traced CLI child, see child.py); nothing
under src/ changes.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from fractions import Fraction

# drplane's modules, which are the benchmark's layers (errors holds only
# exception types)
MODULES = ("scalars", "geometry", "dynamics", "cycling", "closedform", "altproj", "problems", "cli")

# (module, public function, how to count the work in its result)
WRAPPED = (
    ("dynamics", "iterate", "steps"),
    ("dynamics", "check_step_gap", None),
    ("dynamics", "trace_rows", "rows"),
    ("dynamics", "run_report", "records"),
    ("cycling", "detect_cycle", "states"),
    ("cycling", "rationality_predicate", None),
    ("cycling", "cycle_relation", None),
    ("cycling", "coefficient_limits", None),
    ("closedform", "compute_betas", None),
    ("closedform", "verify_closed_form", "checked"),
    ("closedform", "closed_form_point", "one"),
    ("geometry", "dr_step", None),
    ("altproj", "ap_iterate", "ap_steps"),
    ("altproj", "ap_rows", "rows"),
    ("altproj", "ap_report", "records"),
    ("problems", "load_problem", None),
)


def bits_of(value) -> int:
    """Largest numerator/denominator bit length of an exact scalar."""
    if isinstance(value, float):
        return 0
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        return max(f.numerator.bit_length(), f.denominator.bit_length())
    return max(bits_of(value.a), bits_of(value.b))


def _work(kind, result) -> dict:
    if kind == "steps":
        last = result.trace[-1]
        coords = [last.inner] + ([] if last.x is None else list(last.x))
        return {"steps": len(result.trace) - 1, "bits": max(bits_of(c) for c in coords)}
    if kind == "states":
        if result.status == "cycle":
            return {"states": result.preperiod + result.period + 1,
                    "bits": max(bits_of(c) for c in result.states[-1])}
        return {"states": result.horizon}
    if kind == "checked":
        return {"points": result.checked}
    if kind == "one":
        return {"points": 1}
    if kind == "ap_steps":
        return {"steps": len(result) - 1}
    if kind == "rows":
        return {"rows": len(result)}
    if kind == "records":
        return {"rows": len(result["records"])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.job = None
        self._patched: list[tuple] = []

    def begin(self, name: str, job) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"id": sid, "name": name, "job": job, "parent": parent,
                           "start": time.perf_counter(), "end": None})
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, kind):
        tracer = self
        generator = kind == "rows"

        def traced(*args, **kwargs):
            if tracer.job is None:  # oracle and set-up calls are not traced
                return fn(*args, **kwargs)
            sid = tracer.begin(name, tracer.job)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
            finally:
                span = tracer.spans[sid]
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            span.update(_work(kind, result))
            if kind == "steps":
                span["backend"] = args[0].backend
            return iter(result) if generator else result

        traced.__wrapped__ = fn
        return traced

    def install(self, dp) -> None:
        """Wrap every WRAPPED function, wherever a drplane module bound it."""
        modules = [dp.pkg] + [getattr(dp, m) for m in vars(dp) if m != "pkg"]
        for mod_name, fn_name, kind in WRAPPED:
            fn = getattr(getattr(dp, mod_name), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", fn, kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def totals(spans: list[dict], name: str, key: str, self_time: bool, selfs: dict):
    """(seconds, work) summed over spans named ``name``."""
    secs = work = 0
    for s in spans:
        if s["name"] == name:
            secs += selfs[s["id"]] if self_time else s["end"] - s["start"]
            work += s.get(key, 0)
    return secs, work
