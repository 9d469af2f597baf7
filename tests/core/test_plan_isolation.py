"""Per-plan state stays with the plan under concurrency.

A guarded call hands its outcome to its own caller, and each plan
keeps its own outcomes and deadline.  These tests run other clients'
calls on other threads while a call or a plan is in flight, and check
that nothing of theirs leaks in: stale rows never reach the answer
cache, a plan's degraded-answer report lists only its own sources, and
overlapping plans each get their full deadline budget.
"""

import threading
import time
from collections import defaultdict

from repro.cache import AnswerCache
from repro.core import Mediator
from repro.neuro import build_senselab
from repro.parallel import build_fanout_deployment
from repro.resilience import (
    FaultInjectingWrapper,
    FaultSchedule,
    ResiliencePolicy,
    SourceGuard,
    VirtualClock,
)
from repro.sources import SourceQuery

from ..cache.conftest import build_cells_wrapper, build_dm


def stale_policy():
    return ResiliencePolicy(
        max_retries=0,
        serve_stale=True,
        breaker_threshold=None,
        sleep=lambda seconds: None,
    )


class Background:
    """Runs `fn` over and over on another thread until stopped."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            self.fn()
            self.calls += 1

    def __enter__(self):
        self._thread.start()
        while self.calls == 0 and self._thread.is_alive():
            time.sleep(0.0005)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(5.0)
        assert not self._thread.is_alive()
        return False


class LingeringGuard(SourceGuard):
    """A guard that lingers briefly after each call returns — the
    window in which another thread's call completes."""

    def call(self, *args, **kwargs):
        rows = super().call(*args, **kwargs)
        time.sleep(0.0005)
        return rows


class TestStaleRowsStayOutOfTheCache:
    def test_stale_served_rows_are_never_cached_under_concurrency(self):
        # CELLS answers once, then fails permanently: every later call
        # is served stale while another thread's calls succeed
        schedule = FaultSchedule().kill("CELLS", after=1)
        guard = LingeringGuard(stale_policy())
        mediator = Mediator(
            build_dm(), name="m", resilience=guard, cache=AnswerCache()
        )
        mediator.register(
            FaultInjectingWrapper(build_cells_wrapper(), schedule),
            eager=False,
        )
        query = SourceQuery("m")
        fresh = mediator.source_query("CELLS", query)
        (entry,) = mediator.cache.entries()
        fingerprint = entry.key
        cached_stale = 0
        with Background(
            lambda: guard.call("OTHER", "x", lambda: [])
        ) as other_client:
            for _ in range(200):
                mediator.cache.flush(reason="test")
                assert mediator.source_query("CELLS", query) == fresh
                if mediator.cache.lookup(fingerprint) is not None:
                    cached_stale += 1
        assert other_client.calls > 0
        assert cached_stale == 0


def fanout_with_unselected_lab():
    """The fan-out deployment plus OTHERLAB, a second
    neurotransmission source no plan selects, which dies after its
    first call and is then served stale."""
    mediator, query = build_fanout_deployment(sources=2, delay=0.0)
    mediator.resilience = SourceGuard(stale_policy())
    other = build_senselab()
    other.name = "OTHERLAB"
    schedule = FaultSchedule().kill("OTHERLAB", after=1)
    mediator.register(
        FaultInjectingWrapper(other, schedule),
        eager=False,
        via_xml=False,
    )
    return mediator, query


class TestPlanReportIsItsOwn:
    def test_other_clients_stale_calls_stay_out_of_the_report(self):
        mediator, query = fanout_with_unselected_lab()
        other_query = SourceQuery(
            "neurotransmission", query.seed_selections
        )
        mediator.source_query("OTHERLAB", other_query)  # its last good

        def stale_call():
            mediator.source_query("OTHERLAB", other_query)

        with Background(stale_call) as other_client:
            for _ in range(5):
                result = mediator.correlate(query)
                assert not result.degraded
                report = result.degraded_answer()
                assert not report.degraded
                sources = [entry.source for entry in report.sources]
                assert sources[0] == "SENSELAB"
                assert all(
                    source.startswith("SLOW") for source in sources[1:]
                )
        assert other_client.calls > 0


class OverlapGuard(SourceGuard):
    """Notes the deadline of every call per thread, and holds plan A
    inside its retrieval step until released."""

    def __init__(self, policy):
        super().__init__(policy)
        self.deadlines = defaultdict(set)
        self.a_retrieving = threading.Event()
        self.release_a = threading.Event()

    def call(self, source, *args, deadline=None, **kwargs):
        thread = threading.current_thread().name
        self.deadlines[thread].add(deadline)
        if thread == "plan-a" and source.startswith("SLOW"):
            self.a_retrieving.set()
            self.release_a.wait(5.0)
        return super().call(source, *args, deadline=deadline, **kwargs)


class TestPlanDeadlineIsItsOwn:
    def test_overlapping_plans_each_get_their_full_budget(self):
        mediator, query = build_fanout_deployment(sources=2, delay=0.0)
        clock = VirtualClock()
        guard = OverlapGuard(
            ResiliencePolicy(
                clock=clock.now, sleep=clock.sleep, plan_deadline=10.0
            )
        )
        mediator.resilience = guard
        results = []
        plan_a = threading.Thread(
            target=lambda: results.append(mediator.correlate(query)),
            name="plan-a",
        )
        plan_a.start()
        assert guard.a_retrieving.wait(5.0)
        clock.advance(4.0)
        try:
            results.append(mediator.correlate(query))  # B, while A runs
        finally:
            guard.release_a.set()
            plan_a.join(5.0)
        assert not plan_a.is_alive()
        assert len(results) == 2
        assert not any(result.degraded for result in results)
        assert guard.deadlines["plan-a"] == {10.0}
        assert guard.deadlines[threading.current_thread().name] == {14.0}
