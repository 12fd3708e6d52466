"""Tests for the content-addressed artifact cache layer."""

import hashlib
import pickle

import pytest

from repro.benchgen import build_circuit
from repro.charlib import characterize_library, default_library, write_liberty
from repro.core import (
    ArtifactCache,
    DesignContext,
    cache_key,
    config_digest,
    default_cache,
    run_scenarios,
    set_default_cache,
    using_cache,
)
from repro.core.artifacts import _HEADER_LEN, _decode_entry, _encode_entry
from repro.mapping.cost import p_a_d, p_d_a
from repro.pdk import cryo5_technology
from repro.resilience.errors import CacheCorruptionError
from repro.sta.timing import SignoffConfig


@pytest.fixture(scope="module")
def library():
    return default_library(10.0)


class TestDigests:
    def test_plain_values_stable(self):
        assert config_digest((1, "a", 2.5)) == config_digest((1, "a", 2.5))
        assert config_digest((1, "a")) != config_digest((1, "b"))

    def test_type_tagged(self):
        # 1 and 1.0 and "1" must not collide.
        assert config_digest(1) != config_digest(1.0)
        assert config_digest(1) != config_digest("1")

    def test_dict_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_dataclass_digest(self):
        assert config_digest(SignoffConfig()) == config_digest(SignoffConfig())
        assert config_digest(SignoffConfig()) != config_digest(
            SignoffConfig(input_slew=2e-11)
        )
        assert config_digest(p_a_d()) != config_digest(p_d_a())

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            config_digest(object())


class TestStructuralHash:
    def test_stable_and_content_addressed(self):
        a = build_circuit("ctrl", "small")
        b = build_circuit("ctrl", "small")
        assert a.structural_hash() == b.structural_hash()

    def test_mutation_changes_hash(self):
        aig = build_circuit("ctrl", "small")
        before = aig.structural_hash()
        aig.add_po(aig.add_and(2, 4), "extra")
        assert aig.structural_hash() != before

    def test_distinct_circuits_distinct_hashes(self):
        assert (
            build_circuit("ctrl", "small").structural_hash()
            != build_circuit("dec", "small").structural_hash()
        )


class TestLibraryFingerprint:
    def test_memoized_and_stable(self, library):
        assert library.fingerprint() == library.fingerprint()

    def test_distinct_corners_distinct_fingerprints(self):
        assert default_library(10.0).fingerprint() != default_library(300.0).fingerprint()


class TestArtifactCacheMemory:
    def test_get_or_compute_hits(self):
        cache = ArtifactCache()
        calls = []
        key = cache_key("test", 1, "x")
        first = cache.get_or_compute(key, lambda: calls.append(1) or {"v": 42})
        second = cache.get_or_compute(key, lambda: calls.append(1) or {"v": 43})
        assert first is second
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_bound(self):
        cache = ArtifactCache(max_memory_entries=4)
        for i in range(10):
            cache.put(f"k:{i}", i)
        assert cache.stats()["memory_entries"] == 4
        assert cache.get("k:0") is None
        assert cache.get("k:9") == 9

    def test_key_lock_released_when_compute_raises(self):
        cache = ArtifactCache()

        def fail():
            raise RuntimeError("compute failed")

        for i in range(3):
            with pytest.raises(RuntimeError):
                cache.get_or_compute(f"k:{i}", fail)
        assert cache._key_locks == {}
        # A retry after the failure still computes and caches.
        assert cache.get_or_compute("k:0", lambda: 7) == 7
        assert cache.get_or_compute("k:0", fail) == 7
        assert cache._key_locks == {}

    def test_concurrent_callers_compute_once(self):
        import sys
        import threading
        import time

        cache = ArtifactCache()
        calls, results = [], []

        def compute():
            calls.append(1)
            time.sleep(0.01)
            return "v"

        barrier = threading.Barrier(8)

        def caller():
            barrier.wait(timeout=10)
            results.append(cache.get_or_compute("k:1", compute))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == ["v"] * 8
        assert len(calls) == 1
        assert cache._key_locks == {}

    def test_default_cache_swap(self):
        original = default_cache()
        fresh = ArtifactCache()
        with using_cache(fresh):
            assert default_cache() is fresh
        assert default_cache() is original
        set_default_cache(original)


class TestDiskBackend:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:1", {"a": [1, 2, 3]})
        # A second cache over the same directory simulates a restart.
        rehydrated = ArtifactCache(cache_dir=tmp_path)
        assert rehydrated.get("k:1") == {"a": [1, 2, 3]}
        assert rehydrated.stats()["disk_hits"] == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:1", 123)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert fresh.get("k:1") is None

    def test_corrupt_entry_quarantined_and_counted(self, tmp_path):
        from repro import obs

        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:1", 123)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"garbage")
        fresh = ArtifactCache(cache_dir=tmp_path)
        with obs.Tracer() as tracer:
            assert fresh.get("k:1") is None
        assert tracer.counters["cache.corrupt"] == 1
        assert fresh.stats()["corrupt"] == 1
        # The bad file is renamed aside, not re-read forever.
        assert list(tmp_path.glob("*.pkl")) == []
        assert len(list(tmp_path.glob("*.corrupt"))) == 1
        # The next get_or_compute recomputes and repopulates disk.
        assert fresh.get_or_compute("k:1", lambda: 456) == 456
        assert len(list(tmp_path.glob("*.pkl"))) == 1

    def test_truncated_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:1", list(range(1000)))
        for path in tmp_path.glob("*.pkl"):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert fresh.get("k:1") is None
        assert fresh.stats()["corrupt"] == 1

    def test_bitflip_fails_checksum(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:1", {"x": 1})
        for path in tmp_path.glob("*.pkl"):
            data = bytearray(path.read_bytes())
            data[-1] ^= 0xFF
            path.write_bytes(bytes(data))
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert fresh.get("k:1") is None

    def test_injected_disk_corruption_recovers(self, tmp_path):
        """The cache.disk fault site truncates a write; a rehydrating
        cache must treat it as a miss and recompute."""
        from repro.resilience import FaultPlan, FaultSpec, injecting

        cache = ArtifactCache(cache_dir=tmp_path)
        with injecting(FaultPlan([FaultSpec("cache.disk", first_n=1)])):
            cache.put("k:1", [1, 2, 3])
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert fresh.get("k:1") is None
        assert fresh.get_or_compute("k:1", lambda: [1, 2, 3]) == [1, 2, 3]

    def test_clear_disk_removes_quarantined_files(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:1", 1)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"bad")
        ArtifactCache(cache_dir=tmp_path).get("k:1")
        assert list(tmp_path.glob("*.corrupt"))
        cache.clear(disk=True)
        assert list(tmp_path.glob("*")) == []


class TestFraming:
    """The disk entry format: ``b"RPRAC2\\0" | sha256(payload) | payload``."""

    def test_wrong_magic_rejected(self):
        frame = _encode_entry("x")
        with pytest.raises(CacheCorruptionError):
            _decode_entry(b"X" + frame[1:])

    def test_truncation_detected(self):
        frame = _encode_entry([1, 2, 3])
        for cut in (0, 3, _HEADER_LEN - 1, _HEADER_LEN, len(frame) - 1):
            with pytest.raises(CacheCorruptionError):
                _decode_entry(frame[:cut])

    def test_digest_checked_before_unpickling(self, monkeypatch):
        loads = []
        monkeypatch.setattr(pickle, "loads", lambda data: loads.append(data))
        frame = _encode_entry({"x": 1})
        for at in (len(frame) - 1, _HEADER_LEN - 1):  # a payload byte, a digest byte
            bad = bytearray(frame)
            bad[at] ^= 0x01
            with pytest.raises(CacheCorruptionError, match="checksum"):
                _decode_entry(bytes(bad))
        assert loads == []
        _decode_entry(frame)  # the spy is live: a good frame reaches it
        assert len(loads) == 1

    @pytest.mark.no_chaos  # an injected cache.disk fault would change the written bytes
    def test_disk_layout_is_pinned(self, tmp_path):
        key, value = "lib:pinned", {"cells": ["inv", "nand2"], "t": 10.0}
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        entry = b"RPRAC2\0" + hashlib.sha256(payload).digest() + payload
        name = hashlib.sha256(key.encode()).hexdigest()[:40] + ".pkl"
        (tmp_path / "read").mkdir()
        (tmp_path / "read" / name).write_bytes(entry)
        reader = ArtifactCache(cache_dir=tmp_path / "read")
        assert reader.get(key) == value
        assert reader.stats()["disk_hits"] == 1
        ArtifactCache(cache_dir=tmp_path / "write").put(key, value)
        assert [p.name for p in (tmp_path / "write").iterdir()] == [name]
        assert (tmp_path / "write" / name).read_bytes() == entry


class TestCacheVeto:
    def test_cache_if_false_skips_store(self):
        from repro import obs

        cache = ArtifactCache()
        calls = []

        def compute():
            calls.append(1)
            return "degraded-result"

        with obs.Tracer() as tracer:
            first = cache.get_or_compute("k:1", compute, cache_if=lambda v: False)
            second = cache.get_or_compute("k:1", compute, cache_if=lambda v: False)
        assert first == second == "degraded-result"
        assert len(calls) == 2  # vetoed -> recomputed
        assert tracer.counters["cache.uncacheable"] == 2
        assert tracer.counters["cache.uncacheable.k"] == 2

    def test_cache_if_true_stores_normally(self):
        cache = ArtifactCache()
        calls = []

        def compute():
            calls.append(1)
            return "healthy"

        cache.get_or_compute("k:1", compute, cache_if=lambda v: True)
        cache.get_or_compute("k:1", compute, cache_if=lambda v: True)
        assert len(calls) == 1

    def test_memory_only_put_skips_disk(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("k:1", 1, persist=False)
        assert list(tmp_path.glob("*.pkl")) == []

    @pytest.mark.no_chaos  # injected disk corruption / degraded vetoes break the round trip
    def test_library_round_trips_losslessly(self, tmp_path):
        """A characterized library survives the disk tier byte-for-byte."""
        tech = cryo5_technology()
        from repro.pdk.catalog import standard_cell_catalog

        cells = standard_cell_catalog()[:12]
        disk = ArtifactCache(cache_dir=tmp_path)
        original = characterize_library(tech, 10.0, cells=cells, cache=disk)
        # Fresh cache over the same directory: must load, not recompute.
        rehydrated_cache = ArtifactCache(cache_dir=tmp_path)
        loaded = characterize_library(tech, 10.0, cells=cells, cache=rehydrated_cache)
        assert loaded is not original
        assert loaded.fingerprint() == original.fingerprint()
        assert write_liberty(loaded) == write_liberty(original)
        assert rehydrated_cache.stats()["disk_hits"] == 1


class TestCacheKeyScheme:
    def test_same_inputs_same_flow_result(self, library):
        aig = build_circuit("ctrl", "small")
        cache = ArtifactCache()
        ctx = DesignContext.from_library(library, cache=cache)
        first = run_scenarios(aig, context=ctx, vectors=64)
        warm = cache.stats()
        second = run_scenarios(aig, context=ctx, vectors=64)
        assert cache.stats()["misses"] == warm["misses"]  # no recompute
        assert cache.stats()["hits"] > warm["hits"]
        for scenario in first:
            assert first[scenario].to_dict() == second[scenario].to_dict()

    def test_mutated_aig_distinct_key(self, library):
        cache = ArtifactCache()
        ctx = DesignContext.from_library(library, cache=cache)
        aig = build_circuit("ctrl", "small")
        run_scenarios(aig, context=ctx, vectors=64)
        misses = cache.stats()["misses"]
        mutated = build_circuit("ctrl", "small")
        mutated.add_po(mutated.add_and(2, 4), "extra")
        run_scenarios(mutated, context=ctx, vectors=64)
        assert cache.stats()["misses"] > misses

    def test_distinct_temperature_shares_stage12_not_map(self):
        cache = ArtifactCache()
        aig = build_circuit("ctrl", "small")
        cold = DesignContext.from_library(default_library(10.0), cache=cache)
        warm = DesignContext.from_library(default_library(300.0), cache=cache)
        run_scenarios(aig, context=cold, vectors=64)
        stats_after_cold = cache.stats()
        run_scenarios(aig, context=warm, vectors=64)
        # Stages 1-2 are technology-independent -> pure hits; mapping
        # must recompute against the 300 K library -> new misses.
        assert cache.stats()["misses"] > stats_after_cold["misses"]
        assert cache.stats()["hits"] > stats_after_cold["hits"]

    def test_distinct_policy_distinct_map_key(self, library):
        from repro.core import CryoSynthesisFlow

        cache = ArtifactCache()
        ctx = DesignContext.from_library(library, cache=cache)
        aig = build_circuit("ctrl", "small")
        # Both share stage 2's "primary" power mode but not the policy.
        CryoSynthesisFlow(scenario="p_a_d", context=ctx).run(aig)
        misses = cache.stats()["misses"]
        CryoSynthesisFlow(scenario="p_d_a", context=ctx).run(aig)
        assert cache.stats()["misses"] == misses + 1  # only the map stage

    @pytest.mark.no_chaos  # injected faults degrade the library, changing its fingerprint
    def test_journaled_keys_are_pinned(self, library, tmp_path):
        from repro.resilience import RunJournal, load_records

        aig = build_circuit("ctrl", "small")
        ctx = DesignContext.from_library(library, cache=ArtifactCache())
        with RunJournal.create(tmp_path / "run.journal") as journal:
            run_scenarios(aig, context=ctx, vectors=64, journal=journal)
        records, _ = load_records(tmp_path / "run.journal")
        assert records[0]["kind"] == "run_start"
        got = [(r["kind"], r.get("name") or r.get("scenario"), r["key"]) for r in records[1:]]
        c2rs = ("stage", "c2rs", "stage1.c2rs:61bcbd3e85e77b90afdba5b464c10269")
        assert got == [
            c2rs,
            ("stage", "power_restructure", "stage2.power:1e3a089deae9e6d594e4767b179b9d04"),
            ("stage", "map", "map:dfa85fcca8fb90ab18806abaf6bfb6c9"),
            c2rs,
            ("stage", "power_restructure", "stage2.power:564858bc0d3bae6ab1fa2f4626917241"),
            ("stage", "map", "map:1c2a7b075aff545fe8aa644b47ade8f3"),
            c2rs,
            ("stage", "power_restructure", "stage2.power:564858bc0d3bae6ab1fa2f4626917241"),
            ("stage", "map", "map:9436a94d994e3b53956a265ab89d7f9c"),
            ("scenario", "baseline", "scenario.result:f2be09dd17dd34da00f6ea022e6be246"),
            ("scenario", "p_a_d", "scenario.result:9861877cdb12b8c9c9bb98fae2c7595f"),
            ("scenario", "p_d_a", "scenario.result:93f7c6ff29d8ee6b7df0af96b98764bd"),
        ]


class TestViewSharing:
    def test_view_built_once_per_context(self, library):
        cache = ArtifactCache()
        ctx = DesignContext.from_library(library, cache=cache)
        assert ctx.view is ctx.view

    def test_view_shared_across_scenarios(self, library):
        from repro.core import CryoSynthesisFlow

        cache = ArtifactCache()
        ctx = DesignContext.from_library(library, cache=cache)
        flows = [
            CryoSynthesisFlow(scenario=s, context=ctx)
            for s in ("baseline", "p_a_d", "p_d_a")
        ]
        views = {id(flow.context.view) for flow in flows}
        assert len(views) == 1


class TestDiskBounds:
    """LRU size cap and quarantine cap on the disk tier (ISSUE 4)."""

    def _age(self, tmp_path, pattern, ages):
        """Assign deterministic mtimes: larger age = older file."""
        import os
        import time

        now = time.time()
        for path, age in zip(sorted(tmp_path.glob(pattern)), ages):
            os.utime(path, (now - age, now - age))

    def test_lru_eviction_over_size_cap(self, tmp_path):
        from repro import obs

        payload = bytes(200_000)  # ~0.2 MB pickled
        cache = ArtifactCache(cache_dir=tmp_path, max_disk_mb=0.5)
        with obs.Tracer() as tracer:
            cache.put("k:1", payload)
            self._age(tmp_path, "*.pkl", [100.0])
            cache.put("k:2", payload)
            cache.put("k:3", payload)  # pushes total over 0.5 MB
        remaining = len(list(tmp_path.glob("*.pkl")))
        assert remaining == 2
        assert cache.stats()["evicted"] == 1
        assert tracer.counters["cache.evict"] == 1
        # The evicted entry degrades to a clean miss in a fresh cache.
        fresh = ArtifactCache(cache_dir=tmp_path, max_disk_mb=0.5)
        assert fresh.get("k:1") is None
        assert fresh.get("k:3") is not None

    def test_just_written_entry_is_never_evicted(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path, max_disk_mb=0.01)
        cache.put("k:big", bytes(100_000))  # alone exceeds the cap
        fresh = ArtifactCache(cache_dir=tmp_path, max_disk_mb=0.01)
        assert fresh.get("k:big") is not None

    def test_disk_hit_refreshes_recency(self, tmp_path):
        payload = bytes(200_000)
        cache = ArtifactCache(cache_dir=tmp_path, max_disk_mb=0.5)
        cache.put("k:old", payload)
        cache.put("k:older", payload)
        self._age(tmp_path, "*.pkl", [50.0, 100.0])
        # Touch k:old from a fresh instance (memory tier empty, so the
        # read goes to disk and refreshes its mtime).
        fresh = ArtifactCache(cache_dir=tmp_path, max_disk_mb=0.5)
        assert fresh.get("k:old") is not None
        fresh.put("k:new", payload)  # forces one eviction
        survivors = ArtifactCache(cache_dir=tmp_path, max_disk_mb=0.5)
        assert survivors.get("k:old") is not None
        assert survivors.get("k:new") is not None

    def test_corrupt_quarantine_cap(self, tmp_path):
        from repro import obs

        cache = ArtifactCache(cache_dir=tmp_path, max_corrupt_entries=2)
        for i in range(5):
            cache.put(f"k:{i}", i)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"garbage")
        fresh = ArtifactCache(cache_dir=tmp_path, max_corrupt_entries=2)
        with obs.Tracer() as tracer:
            for i in range(5):
                assert fresh.get(f"k:{i}") is None
        assert len(list(tmp_path.glob("*.corrupt"))) == 2
        assert tracer.counters["cache.corrupt_evicted"] == 3
        assert fresh.stats()["corrupt_evicted"] == 3

    @pytest.mark.parametrize(
        "raw_mb, raw_corrupt, max_mb, max_corrupt",
        [
            ("12.5", "3", 12.5, 3),
            ("nan", "nan", None, 16),
            ("inf", "inf", None, 16),
            ("-5", "-5", None, 16),
        ],
        ids=["valid", "nan", "inf", "negative"],
    )
    def test_env_knobs(self, tmp_path, monkeypatch, raw_mb, raw_corrupt, max_mb, max_corrupt):
        # Invalid sizes mean "unset": they must neither crash the cache
        # (the default one is built at import) nor evict every entry.
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", raw_mb)
        monkeypatch.setenv("REPRO_CACHE_MAX_CORRUPT", raw_corrupt)
        cache = ArtifactCache(cache_dir=tmp_path)
        assert cache.max_disk_mb == max_mb
        assert cache.max_corrupt_entries == max_corrupt
        for i in range(3):
            cache.put(f"k:{i}", i)
        assert len(list(tmp_path.glob("*.pkl"))) == 3
