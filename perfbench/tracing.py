"""Per-layer tracing from outside the program.

`Tracer.install` wraps the functions and methods named in LAYERS and puts
each wrapper in every `far2` module namespace that holds the original, so
calls between modules are traced too; `uninstall` restores the originals.
A wrapper records one span per call (layer, start, end, parent span) in
memory. A layer's self time is its span's duration minus the time its
child spans cover. The solver code itself is not changed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method) -> layer name
LAYERS = {
    ("far2.secular", "ShiftedFactorization.__init__"): "secular.fact",
    ("far2.secular", "ShiftedFactorization.solve"): "secular.backsolve",
    ("far2.secular", "solve_secular_full_secant"): "secular.secant",
    ("far2.secular", "solve_secular_reduced"): "secular.reduced",
    ("far2.secular", "_spectral_fallback"): "secular.fallback",
    ("far2.krylov", "poly_expand"): "krylov.expand",
    ("far2.krylov", "rational_expand"): "krylov.expand",
    ("far2.krylov", "orth_augment"): "krylov.augment",
    ("far2.model", "ModelContext.__init__"): "model.context",
    ("far2.model", "model_curvature_min"): "model.curvature",
    ("far2.second_order", "min_eig"): "second_order.min_eig",
    ("far2.second_order", "gershgorin_interval"): "second_order.gershgorin",
    ("far2.problems", "ObjectiveProblem.eval"): "problems.eval",
    ("far2.driver", "subspace_minimize"): "driver.subspace",
    ("far2.driver", "regularized_newton_step"): "driver.newton",
    ("far2.driver", "_minimize"): "driver.loop",
}

# ObjectiveProblem.eval(x, order=2) spans are named by derivative order
EVAL_BY_ORDER = ("problems.eval_f", "problems.eval_g", "problems.eval_H")


class Tracer:
    """Spans in memory, plus per-layer call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []    # [span id, ns covered by children]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.self_ns[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, self._layer_id(name), t0, t1, parent))

    def _wrap(self, layer: str, fn):
        tracer = self
        if layer == "problems.eval":
            def wrapper(problem, x, order=2):
                return tracer.span(EVAL_BY_ORDER[order], fn, problem, x, order)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(layer, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "far2" or name.startswith("far2.")]
        for (modname, attr), layer in LAYERS.items():
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(layer, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._set(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def write(self, path: str) -> None:
        """All spans as columns: id, layer index, start/end ns, parent id."""
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        payload = {"layers": self.names,
                   "calls": dict(self.calls),
                   "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                   "spans": dict(zip(("id", "layer", "start_ns", "end_ns",
                                      "parent"), map(list, cols)))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def calibrate_overhead_s(n: int = 20000) -> float:
    """Seconds one traced call adds, measured on an empty function."""
    def noop():
        return None
    tracer = Tracer()
    wrapped = tracer._wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n
