"""Span tracing and eigensolve/expm counting, installed from outside the program.

``Tracer.install`` wraps every public module-level function of the traced
eclim modules (plus the two ``CpDifference`` methods the see-saw spends its
time in) and patches each binding of it: from-imports copy references, so
``apps.eco_norm`` or ``channels.dual_scan`` would otherwise bypass the
wrapper.  ``numpy.linalg.eigh``/``eigvalsh`` and the ``expm``/``expm_multiply``
bindings of the traced modules are wrapped as counters.  ``uninstall``
restores every original.

An eigensolve is unattributed when it is made inside an op but not inside
the span of the traced function that made it: either no span is open, or
the innermost traced function on the Python call stack is not the innermost
open span, which happens when that function was reached through a binding
the tracer did not patch.

Spans are kept in memory as (name, start, end, parent, op id) and written
out by the caller.  A span's self time is its duration minus its direct
children's; eigensolve counts are inclusive of children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("cli", "jsonio", "apps", "norms", "opcore", "lindblad", "gaussian")
# golden_section is the dual solver's own loop: its time belongs to dual_scan.
NOT_TRACED = {"opcore.golden_section"}
TRACED_METHODS = (("norms", "CpDifference", "dual_apply_bipartite"),
                  ("norms", "CpDifference", "apply_bipartite_pure"))
EIG_FUNCTIONS = ("eigh", "eigvalsh")
COUNTED_BINDINGS = ("expm", "expm_multiply")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "eigensolves", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.eigensolves = 0
        self.extra = {}


def _seesaw_stats(stat: Stat, estimate):
    """Iterations and useful restarts, read from ``EcdEstimate.history``."""
    tol = 1e-8 * (1.0 + abs(estimate.value))
    extra = stat.extra
    extra["iterations"] = extra.get("iterations", 0) + sum(len(h) for h in estimate.history)
    extra["restarts"] = extra.get("restarts", 0) + estimate.restarts_used
    extra["useful_restarts"] = extra.get("useful_restarts", 0) + sum(
        1 for h in estimate.history if h and max(h) >= estimate.value - tol)


ON_RETURN = {"norms.ecd_norm_seesaw": _seesaw_stats}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id]
        self.stats = {}
        self.counts = {}
        self.eigensolves = 0
        self.eig_work_d3 = 0
        self.unattributed_eigensolves = 0
        self.op_id = None
        self._stack = []  # (span index, child time, eigensolves at entry)
        self._patches = []
        self._codes = {}  # code object of each wrapped original -> span name

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append([idx, 0.0, self.eigensolves])

    def _exit(self, name, result=None):
        end = time.perf_counter()
        idx, child_s, eig0 = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        if self._stack:
            self._stack[-1][1] += dur
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total_s += dur
        stat.self_s += dur - child_s
        stat.eigensolves += self.eigensolves - eig0
        hook = ON_RETURN.get(name)
        if hook is not None and result is not None:
            hook(stat, result)

    @contextlib.contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    @contextlib.contextmanager
    def op(self, op_id):
        """Mark one op; calls outside an op pass through unrecorded."""
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = None
            self._stack.clear()

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(name, result)
        return wrapper

    # -- counters ---------------------------------------------------------

    def _eig_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.op_id is not None:
                shape = np.shape(a)
                batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
                tracer.eigensolves += batch
                tracer.eig_work_d3 += batch * int(shape[-1]) ** 3
                if not tracer._attributed(sys._getframe(1)):
                    tracer.unattributed_eigensolves += batch
            return fn(a, *args, **kwargs)
        return wrapper

    def _attributed(self, frame) -> bool:
        """Whether the innermost traced function on the stack has the open span."""
        if not self._stack:
            return False
        top = self.spans[self._stack[-1][0]][0]
        while frame is not None:
            name = self._codes.get(frame.f_code)
            if name is not None:
                return name == top
            frame = frame.f_back
        return top.startswith("op.")  # only the benchmark's own span is open

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("eclim.cli")  # loads every traced module
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "eclim" or n.startswith("eclim."))]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"eclim.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_TRACED):
                    wrappers[id(obj)] = (obj, self._span_wrapper(name, obj))
                    self._codes[obj.__code__] = name
            for attr in COUNTED_BINDINGS:
                if attr in vars(mod):
                    self._set(mod, attr, self._count_wrapper(f"{short}.{attr}",
                                                             getattr(mod, attr)))
        # Every binding of a wrapped function, wherever it was imported to.
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"eclim.{short}"], cls_name)
            method = getattr(cls, attr)
            self._codes[method.__code__] = f"{short}.{attr}"
            self._set(cls, attr, self._span_wrapper(f"{short}.{attr}", method))
        for attr in EIG_FUNCTIONS:
            self._set(np.linalg, attr, self._eig_wrapper(getattr(np.linalg, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._codes.clear()

    # -- results ----------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name) or Stat()

    def module_self_s(self, short) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(short + "."))

    def span_records(self, t0: float) -> list:
        return [[n, round(s - t0, 9), round(e - t0, 9), p, o] for n, s, e, p, o in self.spans]
