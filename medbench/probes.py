"""Layer probes for the traced run: per-thread self time per layer.

:class:`Probes` wraps the public entry points of each layer of the
mediator stack (module functions and class methods, patched in place
for the duration of one traced op and restored afterwards) and
attributes wall time to layers.  A probe's *self time* is its
duration minus the durations of the probes nested inside it **on the
same thread**: medpar workers and per-attempt watcher threads open
their own stacks, so overlapping worker time is never subtracted from
the span that fanned it out (naive subtraction drives the fan-out
step's self time negative).  On the op's own thread the self times of
all layers add up to the op's wall time; worker-thread self time is
reported in the same layers and, separately, as ``trace.worker_ms``.

Nothing here touches ``src/``: the probes only rebind names.
"""

from __future__ import annotations

import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

from repro.cache.answers import AnswerCache
from repro.core.mediator import Mediator
from repro.core.planner import RetrieveAnchoredStep
from repro.datalog import engine as datalog_engine
from repro.domainmap import execute as dm_execute
from repro.domainmap import graphops
from repro.flogic.engine import FLogicEngine
from repro.parallel.executor import ParallelExecutor, SingleFlight
from repro.parallel.synthetic import SlowWrapper
from repro.resilience.guard import SourceGuard
from repro.sources.wrapper import Wrapper
from repro.xmlio import messages

#: the layer the op's own frame (mediator and planner glue) counts as
ROOT_LAYER = "core.self"


class _Frame:
    __slots__ = ("layer", "start", "children")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.children = 0.0


class Recorder:
    """Accumulates per-layer self time, call counts and windows."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        #: inclusive wall time of transparent windows (plan.build ...)
        self.windows = defaultdict(float)
        self.counts = defaultdict(float)
        self.min_self_s = float("inf")
        self.op_thread = None
        self.op_thread_self_s = 0.0
        self.worker_self_s = 0.0
        self.threads_peak = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, layer):
        frame = _Frame(layer, perf_counter())
        self._stack().append(frame)
        return frame

    def pop(self, frame):
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        self_s = duration - frame.children
        if stack:
            stack[-1].children += duration
        with self._lock:
            self.self_s[frame.layer] += self_s
            self.calls[frame.layer] += 1
            self.min_self_s = min(self.min_self_s, self_s)
            if threading.get_ident() == self.op_thread:
                self.op_thread_self_s += self_s
            else:
                self.worker_self_s += self_s
        return duration

    def add(self, name, value):
        with self._lock:
            self.counts[name] += value

    def add_window(self, name, seconds):
        with self._lock:
            self.windows[name] += seconds

    def sample_threads(self):
        count = threading.active_count()
        with self._lock:
            self.threads_peak = max(self.threads_peak, count)

    def begin_op(self):
        self.op_thread = threading.get_ident()
        return self.push(ROOT_LAYER)

    def end_op(self, frame):
        duration = self.pop(frame)
        self.sample_threads()
        return duration


def _layer(recorder, layer, fn):
    def probe(*args, **kwargs):
        frame = recorder.push(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.pop(frame)

    return probe


def _window(recorder, name, fn):
    def probe(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add_window(name, perf_counter() - start)

    return probe


def _public_functions(module):
    return [
        fn
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
    ]


class Probes:
    """Installs and removes the layer probes around one traced op.

    The patch list is computed once (scanning every ``repro.*`` module
    for the names bound to each probed function); :meth:`install` and
    :meth:`uninstall` only rebind.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        #: (owner, attribute, probe, original)
        self._patches = []
        self._plan()

    def install(self):
        for owner, attr, probe, _original in self._patches:
            setattr(owner, attr, probe)

    def uninstall(self):
        for owner, attr, _probe, original in reversed(self._patches):
            setattr(owner, attr, original)

    # -- the patch plan ------------------------------------------------

    def _rebind(self, original, replacement):
        """Rebind every ``repro.*`` module name bound to `original`
        (``from x import f`` copies the reference into each importer)."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, replacement, value))

    def _method(self, cls, attr, wrap):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, wrap(original), original))

    def _plan(self):
        rec = self.recorder
        layer = lambda name: lambda fn: _layer(rec, name, fn)  # noqa: E731

        # repro.datalog
        self._rebind(
            datalog_engine.evaluate,
            _layer(rec, "datalog", datalog_engine.evaluate),
        )
        # repro.flogic
        self._method(FLogicEngine, "ask", layer("flogic.ask"))
        for attr in ("evaluate", "tell_rules"):
            self._method(FLogicEngine, attr, layer("flogic"))
        # repro.domainmap
        for fn in _public_functions(graphops):
            self._rebind(fn, _layer(rec, "dm", fn))
        self._rebind(
            dm_execute.compile_domain_map,
            _layer(rec, "dm.compile", dm_execute.compile_domain_map),
        )
        # repro.core
        from repro.core import aggregate, planner, registration

        self._method(Mediator, "assembled_rules", layer("core.assemble"))
        self._rebind(
            aggregate.aggregate_over_dm,
            _layer(rec, "core.aggregate", aggregate.aggregate_over_dm),
        )
        self._rebind(planner.plan, _window(rec, "plan.build", planner.plan))
        self._method(
            RetrieveAnchoredStep,
            "run",
            lambda fn: _window(rec, "plan.retrieve", fn),
        )
        self._method(Mediator, "register", layer("register"))
        self._method(Mediator, "deregister", layer("deregister"))
        self._method(Mediator, "_source_query", self._count_attempts)
        # repro.sources
        self._method(Wrapper, "query", layer("source"))
        self._method(SlowWrapper, "query", layer("source"))
        # repro.xmlio
        for fn in (
            messages.query_to_xml,
            messages.query_from_xml,
            messages.rows_to_xml,
            messages.rows_from_xml,
            messages.handle_request,
        ):
            self._rebind(fn, _layer(rec, "xml.codec", fn))
        for fn in (
            registration.build_registration,
            registration.parse_registration,
        ):
            self._rebind(fn, _layer(rec, "xml.register", fn))
        # repro.cache
        from repro.cache import fingerprint, invalidation

        for attr in ("lookup", "store_answer"):
            self._method(AnswerCache, attr, layer("cache.lookup"))
        self._rebind(
            fingerprint.query_fingerprint,
            _layer(rec, "cache.lookup", fingerprint.query_fingerprint),
        )
        for attr in ("invalidate", "invalidate_source", "flush"):
            self._method(AnswerCache, attr, layer("cache.invalidate"))
        self._rebind(
            invalidation.affected_concepts,
            _layer(rec, "cache.invalidate", invalidation.affected_concepts),
        )
        # repro.resilience
        self._method(SourceGuard, "call", self._guard_call)
        # repro.parallel
        self._method(ParallelExecutor, "map_ordered", self._map_ordered)
        self._method(ParallelExecutor, "call", self._timed_call)
        self._method(SingleFlight, "run", layer("fanout"))

    # -- probes that also count ----------------------------------------

    def _count_attempts(self, fn):
        rec = self.recorder

        def probe(mediator, wrapper, source_query):
            rec.add("source.calls", 1)
            rows = fn(mediator, wrapper, source_query)
            rec.add("source.rows", len(rows))
            return rows

        return probe

    def _guard_call(self, fn):
        rec = self.recorder

        def probe(*args, **kwargs):
            frame = rec.push("guard")
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec.add("guard.failures", 1)
                raise
            finally:
                rec.pop(frame)

        return probe

    def _map_ordered(self, fn):
        rec = self.recorder

        def probe(executor, items, task_fn, kind="fanout"):
            items = list(items)
            submitted = perf_counter()

            def task(item):
                start = perf_counter()
                rec.sample_threads()
                try:
                    return task_fn(item)
                finally:
                    end = perf_counter()
                    rec.add("fanout.tasks", 1)
                    rec.add("fanout.queue_wait_s", start - submitted)
                    rec.add("fanout.task_wall_s", end - start)

            rec.sample_threads()
            frame = rec.push("fanout")
            try:
                return fn(executor, items, task, kind=kind)
            finally:
                rec.add("fanout.map_wall_s", rec.pop(frame))

        return probe

    def _timed_call(self, fn):
        rec = self.recorder

        def probe(executor, call_fn, timeout=None):
            def attempt():
                # runs on the per-attempt watcher thread while it lives
                rec.sample_threads()
                return call_fn()

            frame = rec.push("fanout")
            try:
                return fn(executor, attempt, timeout=timeout)
            finally:
                rec.pop(frame)

        return probe
