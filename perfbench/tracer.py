"""Span tracing of layerflow from outside the package.

`Tracer.install` wraps every public function of the traced modules and
rebinds each reference to it in every loaded `layerflow` module, so a
call goes through the wrapper under whatever name its caller looks it up
(`layerflow.timeloop.euler_rhs`, `layerflow.euler.velocities`, ...).
Each call records one span `[name, start, end, parent]` in memory; the
spans are written out once, when the run ends.

Two calls get extra recording:
- the right-hand-side closure returned by `make_rhs` is wrapped as the
  span `timeloop.rhs`, which counts RHS evaluations;
- every `stable_dt` result is kept next to the advective step
  `cfl * dx / max wave speed` computed from the same arguments.  That
  side computation is a `trace.hook` span, so its time is charged to no
  layer.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# layer name -> module; the layer name prefixes every span name
TRACED_MODULES = {
    "gridops": "layerflow.gridops",
    "geometry": "layerflow.geometry",
    "state": "layerflow.state",
    "euler": "layerflow.euler",
    "kinematics": "layerflow.kinematics",
    "rheology": "layerflow.rheology",
    "energy": "layerflow.energy",
    "scenario": "layerflow.scenario",
    "timeloop": "layerflow.timeloop",
    "output": "layerflow.output",
}

PHASE_PREFIX = "bench."


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []
        self.dt_pairs: list[tuple[float, float]] = []  # (stable_dt, advective dt)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def phase(self, name):
        """A root span around one phase of the run (setup, solve, write)."""
        rec = [PHASE_PREFIX + name, time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap_make_rhs(self, fn):
        def make_rhs(scn):
            state0, rhs, ctx = fn(scn)
            return state0, self.wrap("timeloop.rhs", rhs), ctx
        return self.wrap("timeloop.make_rhs", functools.wraps(fn)(make_rhs))

    def _wrap_stable_dt(self, fn):
        advective = self.wrap("trace.hook", _advective_dt)

        def stable_dt(H, u, geom, ctx):
            dt = fn(H, u, geom, ctx)
            self.dt_pairs.append((dt, advective(H, u, ctx)))
            return dt
        return self.wrap("timeloop.stable_dt", functools.wraps(fn)(stable_dt))

    def install(self):
        """Route every call into the traced modules through a span."""
        special = {"timeloop.make_rhs": self._wrap_make_rhs,
                   "timeloop.stable_dt": self._wrap_stable_dt}
        wrapped = {}
        for layer, modname in TRACED_MODULES.items():
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                span = f"{layer}.{name}"
                make = special.get(span)
                wrapped[obj] = make(obj) if make else self.wrap(span, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "layerflow" and not modname.startswith("layerflow."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def write(self, path, run_id):
        """Write the spans once, one tab-separated line each."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\trun_id\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{run_id}\n")

    def layer_totals(self):
        """{phase: {span name: [calls, self seconds]}} over all spans.

        A span's self time is its duration minus the durations of its
        direct children; calls are single-threaded, so children never
        overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        phase = [""] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                phase[i] = phase[parent]
            else:
                phase[i] = name[len(PHASE_PREFIX):]
        out: dict[str, dict[str, list]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            if parent < 0:
                continue
            agg = out.setdefault(phase[i], {}).setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += end - start - child[i]
        return out


def _advective_dt(H, u, ctx):
    wet = H > ctx.h_dry
    if not np.any(wet):
        return float("nan")
    speed = float((np.abs(u[:, wet]).max(axis=0) + np.sqrt(ctx.g * H[wet])).max())
    return ctx.controls.cfl * ctx.dx / speed if speed > 0.0 else float("inf")
