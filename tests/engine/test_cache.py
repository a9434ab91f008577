"""Tests for the content-addressed trace cache and its key construction."""

from __future__ import annotations

import dataclasses
import enum
import io
import struct
import zipfile

import numpy as np
import pytest

from repro.core.collector import TraceCollector
from repro.engine import ExecutionEngine, TraceCache, Uncacheable, cache_key, stable_token
from repro.engine.cache import CACHE_DIR_ENV_VAR, default_cache_dir
from repro.sim.machine import MachineConfig
from repro.workload.browser import CHROME, FIREFOX, LINUX
from repro.workload.website import profile_for


@dataclasses.dataclass
class _Point:
    x: int
    y: float


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


class TestStableToken:
    def test_primitives_distinct(self):
        # 1, 1.0 and True collide under hash(); the token keeps them apart.
        assert len({stable_token(v) for v in (1, 1.0, True, "1", None)}) == 5

    def test_ndarray_content_addressed(self):
        a = stable_token(np.arange(5))
        b = stable_token(np.arange(5))
        c = stable_token(np.arange(6))
        assert a == b != c

    def test_dataclass_fields(self):
        assert stable_token(_Point(1, 2.0)) == stable_token(_Point(1, 2.0))
        assert stable_token(_Point(1, 2.0)) != stable_token(_Point(2, 2.0))

    def test_enum_and_containers(self):
        assert "RED" in stable_token(_Color.RED)
        assert stable_token({"b": 2, "a": 1}) == stable_token({"a": 1, "b": 2})
        assert stable_token([1, 2]) != stable_token([2, 1])

    def test_opt_in_via_cache_token(self):
        class Weird:
            def cache_token(self) -> str:
                return "w1"

        assert "w1" in stable_token(Weird())

    def test_unknown_object_raises(self):
        with pytest.raises(Uncacheable):
            stable_token(object())

    def test_mixed_key_dict_raises_uncacheable(self):
        # sorted() cannot order str and int keys; the raw TypeError must
        # surface as Uncacheable so cache users bypass instead of crash.
        with pytest.raises(Uncacheable):
            stable_token({"a": 1, 1: "a"})

    def test_mixed_key_dict_nested_in_dataclass(self):
        @dataclasses.dataclass
        class Holder:
            table: dict

        with pytest.raises(Uncacheable):
            stable_token(Holder({"a": 1, 2: "b"}))


class TestCacheKey:
    def test_stable_across_calls(self):
        components = {"seed": 1, "site": "nytimes"}
        assert cache_key(components) == cache_key(dict(components))

    def test_any_component_changes_key(self):
        base = {"seed": 1, "period_ns": 5_000_000, "trace_index": 0}
        reference = cache_key(base)
        for field_name, changed in (
            ("seed", 2),
            ("period_ns", 10_000_000),
            ("trace_index", 1),
        ):
            assert cache_key({**base, field_name: changed}) != reference


@pytest.fixture
def cache(tmp_path) -> TraceCache:
    return TraceCache(tmp_path / "cache")


@pytest.fixture
def collector(cache) -> TraceCollector:
    return TraceCollector(
        MachineConfig(os=LINUX), CHROME,
        period_ns=10_000_000, seed=5, cache=cache,
    )


class TestTraceCacheRoundTrip:
    def test_get_missing_is_miss(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.stats.misses == 1

    def test_put_then_get(self, cache, collector):
        site = profile_for("nytimes.com")
        trace = collector._collect_uncached(site, 0, None)
        key = collector._cache_key(site, 0, None)
        cache.put(key, trace)
        loaded = cache.get(key)
        np.testing.assert_array_equal(loaded.counters, trace.counters)
        np.testing.assert_array_equal(loaded.observed_starts, trace.observed_starts)
        assert loaded.label == trace.label
        assert loaded.attacker == trace.attacker
        assert loaded.spec == trace.spec
        assert cache.stats.hits == 1 and cache.stats.puts == 1

    def test_second_dataset_collection_skips_simulation(self, cache, monkeypatch):
        sites = [profile_for("nytimes.com"), profile_for("amazon.com")]

        def collect():
            return TraceCollector(
                MachineConfig(os=LINUX), CHROME,
                period_ns=10_000_000, seed=5, cache=cache,
            ).collect(sites, traces_per_site=2).stacked()

        x_cold, y_cold = collect()
        assert cache.stats.puts == 4

        calls = {"n": 0}
        original = TraceCollector._simulate

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TraceCollector, "_simulate", counting)
        x_warm, y_warm = collect()
        assert calls["n"] == 0, "warm run must not simulate anything"
        np.testing.assert_array_equal(x_cold, x_warm)
        assert y_cold == y_warm

    def test_label_override_applied_after_cache(self, cache):
        site = profile_for("nytimes.com")

        def collect():
            return TraceCollector(
                MachineConfig(os=LINUX), CHROME,
                period_ns=10_000_000, seed=5, cache=cache,
            ).collect([site], traces_per_site=2, labels=["other"]).stacked()

        _, y_cold = collect()
        _, y_warm = collect()
        assert y_cold == y_warm == ["other", "other"]


def _first_member_data_offset(archive: bytes) -> int:
    """Offset of the first zip member's (deflated) data."""
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        start = zf.infolist()[0].header_offset
    name_len, extra_len = struct.unpack_from("<HH", archive, start + 26)
    return start + 30 + name_len + extra_len


def _half(raw: bytes) -> bytes:
    return raw[: len(raw) // 2]


def _empty(raw: bytes) -> bytes:
    return b""


def _zip_magic_then_garbage(raw: bytes) -> bytes:
    return b"PK\x03\x04" + b"\xa5" * 200


def _one_flipped_byte(raw: bytes) -> bytes:
    flipped = bytearray(raw)
    flipped[_first_member_data_offset(raw)] ^= 0xFF
    return bytes(flipped)


class TestTornEntries:
    """An entry that no longer loads is a miss, never an exception."""

    @pytest.mark.parametrize(
        "corrupt",
        [_half, _empty, _zip_magic_then_garbage, _one_flipped_byte],
        ids=["half-truncated", "empty", "zip-magic-then-garbage", "flipped-byte"],
    )
    def test_corrupt_entry_is_a_miss(self, cache, collector, corrupt):
        site = profile_for("nytimes.com")
        key = collector._cache_key(site, 0, None)
        cache.put(key, collector._collect_uncached(site, 0, None))
        entry = cache._entry_path(key)
        entry.write_bytes(corrupt(entry.read_bytes()))
        assert cache.get(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_collector_resimulates_and_rewrites(self, cache, collector):
        site = profile_for("nytimes.com")
        (stored,) = collector.collect(site)
        entry = cache._entry_path(collector._cache_key(site, 0, None))
        entry.write_bytes(_half(entry.read_bytes()))
        (again,) = collector.collect(site)
        for trace in (again, cache.get(collector._cache_key(site, 0, None))):
            assert trace.counters.tobytes() == stored.counters.tobytes()
            assert trace.observed_starts.tobytes() == stored.observed_starts.tobytes()
        assert cache.stats.puts == 2 and cache.stats.misses == 2


class TestCacheInvalidation:
    @pytest.mark.parametrize(
        "variant",
        ["seed", "period", "browser", "attacker", "site", "trace_index"],
    )
    def test_key_component_changes_invalidate(self, variant, cache):
        from repro.core.attacker import SweepCountingAttacker

        base = dict(
            machine=MachineConfig(os=LINUX), browser=CHROME,
            period_ns=10_000_000, seed=5, cache=cache,
        )
        reference = TraceCollector(**base)
        site, index = profile_for("nytimes.com"), 0
        key = reference._cache_key(site, index, None)
        if variant == "seed":
            other = TraceCollector(**{**base, "seed": 6})
        elif variant == "period":
            other = TraceCollector(**{**base, "period_ns": 5_000_000})
        elif variant == "browser":
            other = TraceCollector(**{**base, "browser": FIREFOX})
        elif variant == "attacker":
            other = TraceCollector(**base, attacker=SweepCountingAttacker())
        else:
            other = reference
        if variant == "site":
            changed = other._cache_key(profile_for("amazon.com"), index, None)
        elif variant == "trace_index":
            changed = other._cache_key(site, 1, None)
        else:
            changed = other._cache_key(site, index, None)
        assert changed != key

    def test_uncacheable_noise_bypasses(self, collector):
        from repro.core.collector import NoiseHooks

        class Opaque:
            def inject(self, machine, horizon_ns, rng):
                return []

        noise = NoiseHooks(interrupt_injector=Opaque())
        assert collector._cache_key(profile_for("nytimes.com"), 0, noise) is None
        # Collection still works, just without caching.
        trace = collector.collect(profile_for("nytimes.com"), noise=noise)[0]
        assert len(trace.counters) > 0
        assert collector.cache.stats.puts == 0

    def test_mixed_key_dict_component_bypasses(self, collector):
        """A mixed-type-key dict anywhere in a component must mean
        "uncacheable", not a TypeError escaping into the collector."""
        from repro.core.collector import NoiseHooks

        @dataclasses.dataclass
        class MixedKeyInjector:
            table: dict

            def inject(self, machine, horizon_ns, rng):
                return []

        noise = NoiseHooks(interrupt_injector=MixedKeyInjector({1: "a", "b": 2}))
        assert collector._cache_key(profile_for("nytimes.com"), 0, noise) is None


class TestCacheMaintenance:
    def test_eviction_respects_cap(self, tmp_path, collector):
        site = profile_for("nytimes.com")
        trace = collector._collect_uncached(site, 0, None)
        small = TraceCache(tmp_path / "small", max_bytes=1)
        small.put("a" * 64, trace)
        small.put("b" * 64, trace)
        # The cap forces the older entry out, but never the entry that
        # was just written — its caller is about to rely on it.
        assert small.stats.evictions == 1
        assert small.info()["entries"] == 1
        assert small.get("b" * 64) is not None

    def test_just_written_entry_survives_tiny_cap(self, tmp_path, collector):
        site = profile_for("nytimes.com")
        trace = collector._collect_uncached(site, 0, None)
        small = TraceCache(tmp_path / "small", max_bytes=1)
        small.put("a" * 64, trace)
        assert small.stats.evictions == 0
        assert small.get("a" * 64) is not None

    def test_info_and_clear(self, cache, collector):
        site = profile_for("nytimes.com")
        trace = collector._collect_uncached(site, 0, None)
        cache.put("b" * 64, trace)
        info = cache.info()
        assert info["entries"] == 1 and info["size_bytes"] > 0
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    @staticmethod
    def _plant_in_flight_temp(cache: TraceCache):
        """Another writer's ``put`` between its write and its rename."""
        temp = cache.path / "ab" / ".tmp-inflight.npz"
        temp.parent.mkdir(parents=True, exist_ok=True)
        temp.write_bytes(b"\0" * 5000)
        return temp

    def test_info_ignores_in_flight_temp_file(self, cache):
        self._plant_in_flight_temp(cache)
        info = cache.info()
        assert info["entries"] == 0 and info["size_bytes"] == 0

    def test_clear_leaves_in_flight_temp_file(self, cache):
        temp = self._plant_in_flight_temp(cache)
        assert cache.clear() == 0
        assert temp.exists()

    def test_eviction_leaves_in_flight_temp_file(self, tmp_path, collector):
        trace = collector._collect_uncached(profile_for("nytimes.com"), 0, None)
        small = TraceCache(tmp_path / "small", max_bytes=1)
        temp = self._plant_in_flight_temp(small)
        small.put("a" * 64, trace)
        small.put("b" * 64, trace)
        assert temp.exists()
        assert small.stats.evictions == 1
        assert small._size_bytes == small._entry_path("b" * 64).stat().st_size

    def test_entry_vanishing_mid_scan_is_skipped(self, cache, collector, monkeypatch):
        """Another handle evicts an entry between listing and stat."""
        trace = collector._collect_uncached(profile_for("nytimes.com"), 0, None)
        cache.put("a" * 64, trace)
        live = cache._entry_path("a" * 64)
        gone = cache._entry_path("c" * 64)
        monkeypatch.setattr(cache, "_entries", lambda: [live, gone])
        cache._size_bytes = None
        assert cache._scan_size() == live.stat().st_size
        assert cache.info()["entries"] == 1
        cache.max_bytes = 1
        cache._evict_to_cap()
        assert not live.exists() and cache._size_bytes == 0

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestCacheAccounting:
    """Regression tests for the tracked-size bookkeeping in ``put``."""

    def _trace(self, collector):
        return collector._collect_uncached(profile_for("nytimes.com"), 0, None)

    def _disk_size(self, cache: TraceCache) -> int:
        return sum(p.stat().st_size for p in sorted(cache.path.glob("*/*.npz")))

    def test_cold_handle_put_does_not_double_count(self, tmp_path, collector):
        """First put on an unscanned handle: the directory scan already
        sees the freshly renamed entry, so adding `written` on top
        double-counted it and triggered premature eviction."""
        trace = self._trace(collector)
        warm = TraceCache(tmp_path / "acct")
        warm.put("a" * 64, trace)
        warm.put("b" * 64, trace)
        cold = TraceCache(tmp_path / "acct")  # same dir, unscanned size
        cold.put("c" * 64, trace)
        assert cold._size_bytes == self._disk_size(cold)
        assert cold._size_bytes == cold.info()["size_bytes"]

    def test_repeated_puts_track_disk_size(self, tmp_path, collector):
        trace = self._trace(collector)
        cache = TraceCache(tmp_path / "acct")
        for key in ("a" * 64, "b" * 64, "c" * 64):
            cache.put(key, trace)
            assert cache._size_bytes == self._disk_size(cache)

    def test_overwriting_put_does_not_double_count(self, tmp_path, collector):
        trace = self._trace(collector)
        cache = TraceCache(tmp_path / "acct")
        cache.put("a" * 64, trace)
        cache.put("a" * 64, trace)  # replaces, must not count twice
        assert cache._size_bytes == self._disk_size(cache)


class TestLRUEviction:
    """Eviction is least-recently-*used*: hits keep entries alive."""

    def test_hot_entry_survives_eviction(self, tmp_path, collector):
        trace = collector._collect_uncached(profile_for("nytimes.com"), 0, None)
        probe = TraceCache(tmp_path / "probe")
        probe.put("0" * 64, trace)
        entry_size = probe.info()["size_bytes"]

        cache = TraceCache(tmp_path / "lru", max_bytes=int(entry_size * 2.5))
        cache.put("a" * 64, trace)  # oldest by write order...
        cache.put("b" * 64, trace)
        for _ in range(3):  # ...but hottest by use
            assert cache.get("a" * 64) is not None
        cache.put("c" * 64, trace)  # over cap: one entry must go
        assert cache.stats.evictions == 1
        assert cache.get("a" * 64) is not None, "hot entry was evicted"
        assert cache.get("c" * 64) is not None, "just-written entry was evicted"
        assert cache.get("b" * 64) is None, "cold entry should have been evicted"

    def test_hit_refreshes_mtime(self, tmp_path, collector):
        import os as _os

        trace = collector._collect_uncached(profile_for("nytimes.com"), 0, None)
        cache = TraceCache(tmp_path / "touch")
        cache.put("a" * 64, trace)
        entry = cache._entry_path("a" * 64)
        _os.utime(entry, (1, 1))  # pretend it is ancient
        assert cache.get("a" * 64) is not None
        assert entry.stat().st_mtime > 1


class TestEngineCacheIntegration:
    def test_parallel_run_populates_and_reuses_cache(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        site = profile_for("weather.com")

        def collect():
            collector = TraceCollector(
                MachineConfig(os=LINUX), CHROME,
                period_ns=10_000_000, seed=9,
                engine=ExecutionEngine(jobs=2, cache=cache),
            )
            return list(collector.collect(site, 3))

        cold = collect()
        assert cache.stats.puts == 3 and cache.stats.hits == 0
        warm = collect()
        assert cache.stats.hits == 3
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a.counters, b.counters)
