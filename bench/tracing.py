"""Layer tracing from outside the program: wrap the public functions of sfwm.

Every public function defined in the traced modules is replaced, in every
``sfwm`` module namespace that binds it, by a wrapper that records a span
(name, start, end, parent span) and a few counters computed from the call's
arguments and result.  Modules such as ``analysis`` and ``cli`` import
functions by name, so patching only the defining module would miss their
calls.  Spans stay in memory; :meth:`Tracer.summary` turns them into self
times and counts once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

TRACED_MODULES = ("physics", "biphoton", "analysis", "detector", "config", "cli")


def _nodes(q, m) -> int:
    # A call without a quadrature (a closed-form average) has one term per delta.
    return 1 if q is None else int(q.nodes(m).size)


# Counters computed per call: name -> fn(bound arguments, result) -> {measure: n}.
_COUNTERS = {
    "biphoton.averaged_susceptibilities": lambda a, r: {
        "points": a["grid"].count * _nodes(a["q"], a["m"])
    },
    "physics.eit_transmission": lambda a, r: {
        "points": int(np.size(a["delta"])) * _nodes(a["q"], a["m"])
    },
    "biphoton.wavepacket": lambda a, r: {"terms": a["a"].grid.count * int(np.size(a["tau_ns"]))},
    "detector.generate_timetags": lambda a, r: {"events": len(r[0]) + len(r[1])},
    "detector.write_timetags": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "detector.read_timetags": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "detector.build_histogram": lambda a, r: {"pairings": int(r.counts.sum())},
}

# Calls of the first layer made while the second is on the stack.
_NESTED = {("physics.eit_transmission", "analysis.fit_eit"): "model_evals"}


class Tracer:
    """Spans and counters of one pass; install before timing, summarize after."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[tuple[str, int]] = []  # (name, index reserved in spans)

    def _bump(self, name: str, measure: str, n: int = 1) -> None:
        per = self.counts.setdefault(name, {})
        per[measure] = per.get(measure, 0) + n

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        counter = _COUNTERS.get(name)
        nested = [(outer, measure) for (inner, outer), measure in _NESTED.items() if inner == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)  # reserved so children can name their parent
            parent = self._stack[-1][1] if self._stack else -1
            for outer, measure in nested:
                if any(frame == outer for frame, _ in self._stack):
                    self._bump(outer, measure)
            self._stack.append((name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._bump(name, "raised")
                self._bump(name, "raised." + type(exc).__name__)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
                self._bump(name, "calls")
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for measure, n in counter(bound.arguments, result).items():
                    self._bump(name, measure, n)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the traced modules in every namespace."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(module, attr, wrappers[id(obj)])

    def summary(self) -> dict:
        """Self time and counters per layer, plus the sum of all self times."""
        self_s: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] -= end - start
        layers = {name: dict(per) for name, per in self.counts.items()}
        for name, value in self_s.items():
            layers.setdefault(name, {})["self_s"] = value
        return {
            "layers": layers,
            "self_sum_s": sum(self_s.values()),
            "spans": len(self.spans),
        }
