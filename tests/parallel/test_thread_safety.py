"""Lock-hammer regression tests for state shared across medpar workers.

Each test drives one previously thread-naive structure from many
threads at once and asserts no update is lost.  Before the locks
landed these raced (lost counter increments, corrupted LRU order,
duplicate fault indices); with GIL scheduling the races are
probabilistic, so the hammers use enough iterations to have failed
reliably on the unlocked code.
"""

import sys
import threading

from repro.cache.answers import AnswerCache, CacheEntry
from repro.domainmap import lub, part_tree, role_containers
from repro.flogic.engine import FLogicEngine
from repro.neuro import build_anatom, build_scenario, section5_query
from repro.cache.store import DictStore, LRUStore
from repro.obs.metrics import Metrics
from repro.resilience import ResiliencePolicy, SourceGuard, VirtualClock
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjectingWrapper, FaultSchedule

THREADS = 8
ROUNDS = 400


def hammer(fn):
    """Run `fn(thread_index)` from THREADS threads simultaneously."""
    barrier = threading.Barrier(THREADS)

    def run(index):
        barrier.wait()
        fn(index)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive(), "hammer thread hung"


class TestMetricsHammer:
    def test_no_lost_counter_increments(self):
        metrics = Metrics()
        hammer(
            lambda i: [
                metrics.count("hits", source="S%d" % (i % 2))
                for _ in range(ROUNDS)
            ]
        )
        assert metrics.counter_total("hits") == THREADS * ROUNDS


class TestBreakerHammer:
    def test_no_lost_failure_counts(self):
        breaker = CircuitBreaker(threshold=THREADS * ROUNDS + 1, cooldown=30.0)
        hammer(
            lambda i: [breaker.record_failure(now=0.0) for _ in range(ROUNDS)]
        )
        assert breaker.failures == THREADS * ROUNDS
        assert breaker.state(0.0) == "closed"  # threshold not reached


class TestLRUStoreHammer:
    def test_bounded_and_consistent_under_concurrent_puts(self):
        store = LRUStore(max_entries=64, max_rows=1_000_000)
        def put_many(i):
            for j in range(ROUNDS):
                key = ("k", i, j)
                store.put(
                    key, CacheEntry(key, "S%d" % i, "c", rows=({"r": j},))
                )
                store.get(("k", i, max(0, j - 1)))
        hammer(put_many)
        assert len(store) == 64
        # the recency order and the row accounting survived the races
        entries = list(store.items())
        assert len(entries) == 64
        assert store.row_count == sum(
            len(entry.rows) for _key, entry in entries
        )


class TestAnswerCacheHammer:
    def test_stats_and_entries_consistent(self):
        cache = AnswerCache(store=DictStore())  # unbounded: no eviction
        def store_and_lookup(i):
            for j in range(ROUNDS):
                key = ("k", i, j)
                cache.store_answer(key, "S%d" % i, "c", rows=[{"r": j}])
                assert cache.lookup(key) is not None
                cache.lookup(("missing", i, j))
        hammer(store_and_lookup)
        assert cache.entry_count == THREADS * ROUNDS
        assert cache.stats.hits == THREADS * ROUNDS
        assert cache.stats.misses == THREADS * ROUNDS


class TestFaultWrapperHammer:
    class _Inner:
        name = "S"

        def query(self, source_query):
            return [source_query]

    def test_call_indices_are_not_lost(self):
        wrapper = FaultInjectingWrapper(self._Inner(), FaultSchedule())
        hammer(lambda i: [wrapper.query("q") for _ in range(ROUNDS)])
        assert wrapper.calls == THREADS * ROUNDS


class TestVirtualClockHammer:
    def test_sleep_accounting_is_exact(self):
        clock = VirtualClock()
        hammer(lambda i: [clock.sleep(0.5) for _ in range(ROUNDS)])
        assert clock.slept == THREADS * ROUNDS * 0.5
        assert clock.now() == THREADS * ROUNDS * 0.5


class TestJitterRngHammer:
    def test_one_stream_per_source_class_pair(self):
        guard = SourceGuard(ResiliencePolicy(seed=42))
        rngs = [None] * THREADS
        def fetch(i):
            rngs[i] = guard._jitter_rng("S", "c")
        hammer(fetch)
        assert all(rng is rngs[0] for rng in rngs), (
            "concurrent first touches must converge on one RNG stream"
        )


class TestSharedKnowledgeBaseHammer:
    """Threads correlating on one mediator race through the revision's
    first (fresh) evaluation, the base saturation and the delta path."""

    @staticmethod
    def _answers(result):
        return repr(
            [(group, d.rows) for group, d in result.answers]
        ).encode()

    def test_identical_answers_and_an_untouched_base(self):
        mediator = build_scenario(eager=False).mediator
        reference = build_scenario(eager=False).mediator
        expected = self._answers(reference.correlate(section5_query()))
        seen = [[] for _ in range(THREADS)]

        def correlate(i):
            for _ in range(4):
                seen[i].append(
                    self._answers(mediator.correlate(section5_query()))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            hammer(correlate)
        finally:
            sys.setswitchinterval(interval)
        assert all(answers == [expected] * 4 for answers in seen)
        # the cached base still holds exactly the schema program's model
        base = mediator._revision.bases[False].result.store
        engine = FLogicEngine()
        engine.tell_rules(mediator.assembled_rules(include_data=False))
        assert base.same_facts(engine.evaluate().store)


class TestClosureIndexHammer:
    """After each DM write, threads race through the first reads of the
    new revision: the closure index is built concurrently and published
    by one attribute assignment, so every reader must see whole maps."""

    @staticmethod
    def _reads(dm):
        return (
            lub(dm, ["Purkinje_Cell", "Purkinje_Dendrite"], order="has"),
            part_tree(dm, "Cerebellum"),
            role_containers(dm, "Spine", "has"),
        )

    def test_first_reads_after_a_write_equal_the_serial_ones(self):
        dm = build_anatom()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for index in range(10):
                dm.isa("Extra_Spine_%d" % index, "Spine")
                expected = self._reads(dm.copy())
                seen = [None] * THREADS

                def read(i):
                    seen[i] = self._reads(dm)

                hammer(read)
                assert seen == [expected] * THREADS
        finally:
            sys.setswitchinterval(interval)
