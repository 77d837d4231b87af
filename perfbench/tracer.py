"""Per-module call tracing for the benchmark's traced run.

``Tracer.install`` wraps every public module-level function of the
measured modules.  The package imports with ``from .x import f``, so one
function object is bound under several module attributes
(``spaces.canonicalize`` is also ``solver.canonicalize``); every binding
is replaced, and each call is attributed to the module that defines the
function.

Each call becomes a span: name, start, end, parent span and job id.
Spans are kept in memory and written out by ``write_spans``.  The
``solve`` command polishes seeds on a thread pool; a span that starts
on a worker thread with nothing open on that thread takes as its
parent the innermost span open on the main thread, which is the
``find_critical_points`` call that owns the pool.

Aggregates per function and per module:

* ``calls``: number of spans;
* ``busy``: summed duration of the outermost spans (a call nested in a
  span of the same function or module is not counted twice);
* ``self``: summed span duration minus the part of it covered by child
  spans.

Busy and self time are summed over threads, so with the thread pool
they can add up to more than the wall time of a pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array
from pathlib import Path

PACKAGE = "coulomb_eq"
MODULES = ("cli", "solver", "potentials", "spaces", "morse", "bifurcation",
           "inverse")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Frame:
    __slots__ = ("span", "start", "child", "foreign")

    def __init__(self, span: int, start: float) -> None:
        self.span = span
        self.start = start
        self.child = 0.0
        self.foreign: list[tuple[float, float]] = []


class _ThreadState:
    """Open spans, aggregates and span records of one thread."""

    def __init__(self, n_names: int, n_modules: int) -> None:
        self.stack: list[_Frame] = []
        self.calls = [0] * n_names
        self.busy = [0.0] * n_names
        self.self_time = [0.0] * n_names
        self.name_depth = [0] * n_names
        self.mod_calls = [0] * n_modules
        self.mod_busy = [0.0] * n_modules
        self.mod_self = [0.0] * n_modules
        self.mod_depth = [0] * n_modules
        self.rec_span = array("q")
        self.rec_name = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.rec_parent = array("q")
        self.rec_job = array("i")
        self.rec_thread = array("Q")


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_module: list[int] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._main_state: _ThreadState | None = None
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of a public function."""
        originals: dict[int, object] = {}
        for mod_index, short in enumerate(MODULES):
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                self.names.append(f"{short}.{attr}")
                self.name_module.append(mod_index)
                originals[id(value)] = self._wrap(value, len(self.names) - 1)
        self._main_state = self._new_state()
        self._local.state = self._main_state
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(len(self.names), len(MODULES))
        with self._states_lock:
            self._states.append(state)
        return state

    def _wrap(self, fn, name: int):
        tracer = self
        local = self._local
        module = self.name_module[name]
        clock = time.perf_counter
        next_id = self._ids.__next__

        def traced(*args, **kwargs):
            state = getattr(local, "state", None)
            if state is None:
                state = local.state = tracer._new_state()
            stack = state.stack
            outer_name = state.name_depth[name] == 0
            outer_module = state.mod_depth[module] == 0
            state.name_depth[name] += 1
            state.mod_depth[module] += 1
            frame = _Frame(next_id(), clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.name_depth[name] -= 1
                state.mod_depth[module] -= 1
                duration = end - frame.start
                covered = frame.child
                if frame.foreign:
                    covered += _union_length(frame.foreign)
                own = duration - covered
                if stack:
                    parent = stack[-1]
                    parent.child += duration
                    parent_id = parent.span
                else:
                    parent_id = -1
                    main = tracer._main_state
                    if state is not main and main is not None and main.stack:
                        # worker-thread root: owned by the main thread's
                        # innermost open span (the call running the pool)
                        owner = main.stack[-1]
                        owner.foreign.append((frame.start, end))
                        parent_id = owner.span
                state.calls[name] += 1
                state.self_time[name] += own
                state.mod_calls[module] += 1
                state.mod_self[module] += own
                if outer_name:
                    state.busy[name] += duration
                if outer_module:
                    state.mod_busy[module] += duration
                state.rec_span.append(frame.span)
                state.rec_name.append(name)
                state.rec_start.append(frame.start)
                state.rec_end.append(end)
                state.rec_parent.append(parent_id)
                state.rec_job.append(tracer.job)
                state.rec_thread.append(threading.get_ident())

        return functools.update_wrapper(traced, fn)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """``{"<module>.<function>" or "<module>": {calls, busy, self}}``."""
        out: dict[str, dict[str, float]] = {}
        for short in MODULES:
            out[short] = {"calls": 0, "busy": 0.0, "self": 0.0}
        for name in self.names:
            out[name] = {"calls": 0, "busy": 0.0, "self": 0.0}
        for state in self._states:
            for i, name in enumerate(self.names):
                agg = out[name]
                agg["calls"] += state.calls[i]
                agg["busy"] += state.busy[i]
                agg["self"] += state.self_time[i]
            for m, short in enumerate(MODULES):
                agg = out[short]
                agg["calls"] += state.mod_calls[m]
                agg["busy"] += state.mod_busy[m]
                agg["self"] += state.mod_self[m]
        return out

    def span_count(self) -> int:
        return sum(len(state.rec_span) for state in self._states)

    def write_spans(self, path: Path) -> None:
        """Write every span as a compressed NumPy archive (one row each)."""
        import numpy as np

        def cat(field: str, dtype) -> np.ndarray:
            parts = [np.frombuffer(getattr(s, field), dtype=dtype)
                     for s in self._states if len(getattr(s, field))]
            return np.concatenate(parts) if parts else np.empty(0, dtype)

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), span=cat("rec_span", np.int64),
            name=cat("rec_name", np.int32), start=cat("rec_start", np.float64),
            end=cat("rec_end", np.float64), parent=cat("rec_parent", np.int64),
            job=cat("rec_job", np.int32), thread=cat("rec_thread", np.uint64))
