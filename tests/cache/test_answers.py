"""AnswerCache semantics: stats, selective invalidation, the
full-flush escape hatch, and the entry/materialization asymmetry
(entries are per-source rows, so class overlap alone never kills
them; materializations are view results, so it does)."""

from repro.cache import (
    AnswerCache,
    CacheEntry,
    DictStore,
    LRUStore,
    Materialization,
)


def cache_with(*entries, **kwargs):
    cache = AnswerCache(**kwargs)
    for key, concepts in entries:
        cache.store_answer(key, "S", "c", [{"v": 1}], concepts=concepts)
    return cache


class TestLookupAndStats:
    def test_miss_then_hit(self):
        cache = AnswerCache()
        assert cache.lookup("k") is None
        cache.store_answer("k", "S", "c", [{"v": 1}], concepts=["A"])
        entry = cache.lookup("k")
        assert isinstance(entry, CacheEntry)
        assert entry.rows == ({"v": 1},)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1

    def test_entry_and_row_counts(self):
        cache = AnswerCache()
        cache.store_answer("k1", "S", "c", [{"v": 1}, {"v": 2}])
        cache.store_answer("k2", "T", "d", [{"v": 3}])
        assert cache.entry_count == 2
        assert cache.row_count == 3

    def test_evictions_counted(self):
        cache = AnswerCache(store=LRUStore(max_entries=1))
        cache.store_answer("k1", "S", "c", [])
        cache.store_answer("k2", "S", "c", [])
        assert cache.stats.evictions == 1
        assert cache.entry_count == 1

    def test_stats_dict_shape(self):
        cache = AnswerCache()
        cache.add_materialization(Materialization("v", [], concepts=["A"]))
        stats = cache.stats_dict()
        assert stats["entries"] == 0
        assert stats["materialized_views"] == ["v"]
        for field in (
            "hits",
            "misses",
            "puts",
            "evictions",
            "invalidated_entries",
            "invalidated_materializations",
            "materializations",
            "flushes",
        ):
            assert field in stats


class TestEntryInvalidation:
    def test_concept_overlap_kills_entry(self):
        cache = cache_with(("k1", ["Neuron"]), ("k2", ["Glia"]))
        entries, _mats = cache.invalidate(concepts=["Neuron"], reason="t")
        assert entries == 1
        assert cache.lookup("k1") is None
        assert cache.lookup("k2") is not None
        assert cache.stats.invalidated_entries == 1

    def test_class_overlap_alone_spares_entries(self):
        # an entry is one source's rows for one class; a *new* source
        # exporting the same class cannot change those rows
        cache = cache_with(("k", ["Neuron"]))
        entries, _mats = cache.invalidate(classes=["c"], reason="t")
        assert entries == 0
        assert cache.lookup("k") is not None

    def test_unanchored_entry_survives_concept_invalidation(self):
        cache = cache_with(("k", []))
        entries, _mats = cache.invalidate(concepts=["Neuron"], reason="t")
        assert entries == 0

    def test_invalidate_source_drops_only_that_source(self):
        cache = AnswerCache()
        cache.store_answer("k1", "S", "c", [], concepts=["A"])
        cache.store_answer("k2", "T", "c", [], concepts=["A"])
        dropped = cache.invalidate_source("S")
        assert dropped == 1
        assert cache.lookup("k1") is None
        assert cache.lookup("k2") is not None


class TestMaterializationInvalidation:
    def test_concept_overlap_kills_materialization(self):
        cache = AnswerCache()
        cache.add_materialization(
            Materialization("v", [], concepts=["Neuron"], classes=["c"])
        )
        _entries, mats = cache.invalidate(concepts=["Neuron"], reason="t")
        assert mats == 1
        assert cache.materializations == {}

    def test_class_overlap_kills_materialization(self):
        # view answers *do* depend on every exporter of their classes
        cache = AnswerCache()
        cache.add_materialization(
            Materialization("v", [], concepts=["Neuron"], classes=["c"])
        )
        _entries, mats = cache.invalidate(classes=["c"], reason="t")
        assert mats == 1

    def test_disjoint_change_spares_materialization(self):
        cache = AnswerCache()
        cache.add_materialization(
            Materialization("v", [], concepts=["Neuron"], classes=["c"])
        )
        _entries, mats = cache.invalidate(
            concepts=["Glia"], classes=["d"], reason="t"
        )
        assert mats == 0
        assert "v" in cache.materializations

    def test_uncacheable_materialization_dies_on_any_change(self):
        cache = AnswerCache()
        cache.add_materialization(Materialization("v", [], concepts=[]))
        assert cache.materializations["v"].uncacheable
        _entries, mats = cache.invalidate(concepts=["Whatever"], reason="t")
        assert mats == 1

    def test_callback_fired_on_drop(self):
        fired = []
        cache = AnswerCache()
        cache.on_materializations_changed = lambda: fired.append(True)
        cache.add_materialization(
            Materialization("v", [], concepts=["Neuron"])
        )
        assert fired == [True]
        cache.invalidate(concepts=["Neuron"], reason="t")
        assert fired == [True, True]


class TestFullFlush:
    def test_explicit_flush(self):
        cache = cache_with(("k", ["A"]))
        cache.add_materialization(Materialization("v", []))
        cache.flush(reason="test")
        assert cache.entry_count == 0
        assert cache.materializations == {}
        assert cache.stats.flushes == 1

    def test_store_can_be_shared(self):
        store = DictStore()
        cache = AnswerCache(store=store)
        cache.store_answer("k", "S", "c", [])
        assert store.get("k") is not None
