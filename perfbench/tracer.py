"""Out-of-process-boundary tracer for the semnav benchmark.

Wraps module-level public functions of the ``semnav`` package from outside:
every module of the package that holds a reference to a target function gets
the wrapper instead (``geometric_planner`` imports ``sdf_query`` by name, so
patching ``map_builder`` alone would miss the planner's calls). Nothing inside
the package changes.

Two kinds of targets:

* span targets record one span per call: id, operation id, name, parent span,
  start and end;
* hot targets (primitives called hundreds of thousands of times per query)
  record only an aggregated call count and time per parent span.

Exactly one operation is in flight at a time (a closed loop with one client).
``solve_all`` and ``replan`` run ``plan`` on pool threads, so a thread whose
own span stack is empty parents its spans to the innermost open span of the
thread that began the operation; a purely thread-local parent stack would
lose them. Calls made while no operation is open pass straight through.

A target missing from the package (removed by a later refactor) is reported
as missing instead of raising, so its metrics read ``null``.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass

_now = time.perf_counter


@dataclass
class Span:
    sid: int
    op: str
    name: str
    parent: int | None
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class _ThreadState:
    """What one thread recorded; the tracer keeps every thread's instance."""

    def __init__(self):
        self.stack: list[int] = []
        self.hot_depth = 0
        # (parent span id, name) -> [calls, seconds]
        self.hot: dict[tuple[int | None, str], list] = {}
        # parent span id -> seconds spent in outermost hot calls
        self.hot_top: dict[int | None, float] = {}


class Tracer:
    """Spans and hot-call aggregates for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._root_stack: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # ----- operations
    def begin(self, op: str) -> None:
        self.op = op
        self._root_stack = self._thread_state().stack

    def end(self) -> None:
        self.op = None
        self._root_stack = []

    def _thread_state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _parent(self, st: _ThreadState) -> int | None:
        if st.stack:
            return st.stack[-1]
        return self._root_stack[-1] if self._root_stack else None

    # ----- wrappers
    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            st = self._thread_state()
            parent = self._parent(st)
            sid = next(self._ids)
            st.stack.append(sid)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                st.stack.pop()
                self.spans.append(Span(sid, op, name, parent, t0, t1))
        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            st = self._thread_state()
            parent = self._parent(st)
            st.hot_depth += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                st.hot_depth -= 1
                key = (parent, name)
                acc = st.hot.get(key)
                if acc is None:
                    st.hot[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
                if st.hot_depth == 0:
                    st.hot_top[parent] = st.hot_top.get(parent, 0.0) + dt
        traced.__wrapped__ = fn
        return traced

    # ----- patching
    def install(self, spans: list[str], hot: list[str]) -> None:
        """Wrap ``module.function`` targets (names relative to ``semnav``)."""
        for target in spans:
            self._patch(target, self._span_wrapper)
        for target in hot:
            self._patch(target, self._hot_wrapper)

    def _patch(self, target: str, make) -> None:
        mod_name, _, fn_name = target.rpartition(".")
        try:
            module = importlib.import_module(f"semnav.{mod_name}")
        except ImportError:
            self.missing.add(target)
            return
        original = getattr(module, fn_name, None)
        if not callable(original):
            self.missing.add(target)
            return
        wrapper = make(target, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "semnav" or name.startswith("semnav.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ----- results
    def reset(self) -> None:
        """Drop everything recorded so far; wrappers stay installed."""
        self.spans = []
        for st in self._states:
            st.hot.clear()
            st.hot_top.clear()

    def hot_totals(self) -> dict[str, list]:
        """name -> [calls, seconds] over all parents and threads."""
        out: dict[str, list] = {}
        for st in self._states:
            for (_, name), (calls, secs) in st.hot.items():
                acc = out.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += secs
        return out

    def hot_by_parent(self):
        """((parent span id, name), [calls, seconds]) per thread and parent."""
        for st in self._states:
            yield from st.hot.items()

    def self_times(self) -> dict[str, float]:
        """name -> total self seconds: span duration minus child spans and
        minus outermost hot calls made directly under it."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        hot_top: dict[int, float] = {}
        for st in self._states:
            for parent, secs in st.hot_top.items():
                if parent is not None:
                    hot_top[parent] = hot_top.get(parent, 0.0) + secs
        out: dict[str, float] = {}
        for s in self.spans:
            own = s.duration - child.get(s.sid, 0.0) - hot_top.get(s.sid, 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def span_totals(self) -> dict[str, list]:
        """name -> [calls, seconds] over all spans."""
        out: dict[str, list] = {}
        for s in self.spans:
            acc = out.setdefault(s.name, [0, 0.0])
            acc[0] += 1
            acc[1] += s.duration
        return out
