"""Spans around satkit's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span, and rebinds every reference to it
held by a satkit module (``cli`` imports some functions by name). Spans
nest: a span's self time is its duration minus the time of the spans it
encloses. Aggregates stay in memory until the worker writes them out.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("scenario", "precoding", "detection", "predistortion",
                  "cognitive", "cli")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)    # span name -> summed self time
        self.calls = Counter()              # span name -> number of spans
        self.counts = Counter()             # counter name -> exact count
        self.case = ""                      # label of the workload case running
        self._open = []                     # child time of each open span

    def span(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.self_s[name] += duration - self._open.pop()
            self.calls[name] += 1
            if self._open:
                self._open[-1] += duration

    def _wrap(self, qualname: str, fn):
        label, count = LABELS.get(qualname), COUNTS.get(qualname)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (label or count):
                return self.span(qualname, fn, *args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments
            name = f"{qualname}.{label(self, params)}" if label else qualname
            result = self.span(name, fn, *args, **kwargs)
            if count:
                key, n = count(params, result)
                self.counts[key] += n
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of ``package``'s traced modules."""
        replaced = {}
        for mod_name in TRACED_MODULES:
            module = getattr(package, mod_name)
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    replaced[id(obj)] = self._wrap(f"{mod_name}.{name}", obj)
        lsap = package.cognitive.linear_sum_assignment
        replaced[id(lsap)] = self._counted_lsap(lsap)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package.__name__ or mod_name.startswith(package.__name__ + "."):
                for name, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, name, replaced[id(obj)])

    def _counted_lsap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[f"cognitive.lsap_solves.{self.case}"] += 1
            return fn(*args, **kwargs)

        return counted


def _case(tracer, params):
    return tracer.case


# span names split by a label: the case (K or instance) or the detector kind
LABELS = {
    "scenario.build_channel": _case,
    "precoding.mmse_multicast": _case,
    "precoding.sinr_all": _case,
    "cognitive.interference_table": _case,
    "cognitive.assign_hungarian": _case,
    "detection.pd_curve": lambda tracer, params: params["detector"].kind,
}

# exact counters: (name, increment) from a call's arguments and result
COUNTS = {
    "detection.calibrate_threshold":
        lambda params, result: ("detection.trials", params["n_mc"]),
    "detection.pd_curve":
        lambda params, result: ("detection.trials",
                                params["n_mc"] * len(params["isnr_grid_db"])),
    "predistortion.fit_spd":
        lambda params, result: ("predistortion.fit_spd.iters", len(result[1])),
}
