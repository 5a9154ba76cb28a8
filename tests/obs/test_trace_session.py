"""Tests for the cycle-level trace session core.

Covers the ring buffer's eviction ordering, sampling determinism
under a fixed seed, object attribution (request context vs address
map), the interval time-series bookkeeping, and the metrics bridge.
"""

import pytest

from repro.arch.address_space import DeviceMemory
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    UNATTRIBUTED,
    ObjectMap,
    TraceConfig,
    TraceSession,
)


def _alloc(memory: DeviceMemory, name: str, nbytes: int):
    # float32 elements; nbytes must be a multiple of 4.
    return memory.alloc(name, nbytes // 4)


class TestTraceConfig:
    def test_defaults_valid(self):
        cfg = TraceConfig()
        assert cfg.max_events > 0
        assert cfg.interval_cycles > 0

    @pytest.mark.parametrize("kwargs", [
        {"max_events": 0},
        {"interval_cycles": 0},
        {"sample_rate": -0.1},
        {"sample_rate": 1.5},
        {"categories": frozenset({"nonsense"})},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TraceConfig(**kwargs)


class TestRingBuffer:
    def test_eviction_keeps_newest_in_order(self):
        session = TraceSession(TraceConfig(max_events=4))
        for i in range(10):
            session.emit("kernel", f"ev{i}", ts=i, dur=1, pid=1, tid=0)
        assert session.emitted == 10
        assert session.dropped == 6
        assert [e.name for e in session.events] == \
            ["ev6", "ev7", "ev8", "ev9"]
        assert [e.ts for e in session.events] == [6, 7, 8, 9]

    def test_no_drops_below_capacity(self):
        session = TraceSession(TraceConfig(max_events=16))
        for i in range(16):
            session.emit("kernel", "e", ts=i, dur=0, pid=1, tid=0)
        assert session.dropped == 0
        assert len(session.events) == 16

    def test_category_filter_skips_without_counting(self):
        session = TraceSession(
            TraceConfig(categories=frozenset({"dram"}))
        )
        session.emit("cache", "skip", ts=0, dur=1, pid=1, tid=0)
        session.emit("dram", "keep", ts=0, dur=1, pid=1, tid=0)
        assert session.emitted == 1
        assert [e.name for e in session.events] == ["keep"]


class TestSampling:
    def test_rate_one_always_keeps(self):
        session = TraceSession(TraceConfig(sample_rate=1.0))
        assert all(session.sampled() for _ in range(100))

    def test_rate_zero_never_keeps(self):
        session = TraceSession(TraceConfig(sample_rate=0.0))
        assert not any(session.sampled() for _ in range(100))

    def test_fixed_seed_is_deterministic(self):
        flips_a = [
            TraceSession(TraceConfig(sample_rate=0.5, seed=7)).sampled()
            for _ in range(1)
        ]
        a = TraceSession(TraceConfig(sample_rate=0.5, seed=7))
        b = TraceSession(TraceConfig(sample_rate=0.5, seed=7))
        assert [a.sampled() for _ in range(200)] == \
            [b.sampled() for _ in range(200)]
        c = TraceSession(TraceConfig(sample_rate=0.5, seed=8))
        assert [a.sampled() for _ in range(200)] != \
            [c.sampled() for _ in range(200)]
        assert flips_a  # seed consumed exactly per flip

    def test_fractional_rate_thins(self):
        session = TraceSession(TraceConfig(sample_rate=0.25, seed=3))
        kept = sum(session.sampled() for _ in range(2000))
        assert 350 < kept < 650


class TestRecorder:
    def test_one_call_keeps_every_record_in_order(self):
        session = TraceSession(TraceConfig())
        sid = session.site("noc", "req[0]", 500, 0)
        session.recorder("noc")((sid, 1, 2, "A", None,
                                 sid, 3, 4, "B", None))
        assert [(e.ts, e.dur, e.obj) for e in session.events] == \
            [(1, 2, "A"), (3, 4, "B")]
        assert session.emitted == 2

    def test_filtered_category_keeps_nothing(self):
        session = TraceSession(
            TraceConfig(sample_rate=0.5, categories=frozenset({"dram"})))
        for sampled in (True, False):
            session.recorder("noc", sampled)((0, 1, 2, "A", None))
        assert session.emitted == 0

    def test_unsampled_recorder_ignores_the_rate(self):
        session = TraceSession(TraceConfig(sample_rate=0.0))
        sid = session.site("warp", "stall:mshr_full", 100, 0)
        record = session.recorder("warp", sampled=False)
        for ts in range(10):
            record((sid, ts, 1, None, None))
        assert session.emitted == 10

    def test_filtering_never_shifts_the_sampling_coin(self):
        kept = TraceSession(TraceConfig(sample_rate=0.5, seed=3))
        filtered = TraceSession(TraceConfig(
            sample_rate=0.5, seed=3, categories=frozenset({"dram"})))
        sid = kept.site("noc", "req[0]", 500, 0)
        for session in (kept, filtered):
            record = session.recorder("noc")
            for ts in range(50):
                record((sid, ts, 1, None, None))
        assert 0 < kept.emitted < 50 and filtered.emitted == 0
        assert [kept.sampled() for _ in range(100)] == \
            [filtered.sampled() for _ in range(100)]


class TestObjectMap:
    def test_resolves_objects_and_gaps(self, memory):
        a = _alloc(memory, "A", 4096)
        b = _alloc(memory, "B", 256)
        omap = ObjectMap.from_memory(memory)
        assert len(omap) == 2
        assert omap.resolve(a.base_addr) == "A"
        assert omap.resolve(a.base_addr + 4095) == "A"
        assert omap.resolve(b.base_addr) == "B"
        assert omap.resolve(b.base_addr + 10**9) is None
        assert omap.resolve(-1) is None

    def test_session_attribution_precedence(self, memory):
        a = _alloc(memory, "A", 1024)
        session = TraceSession()
        # No map, no context -> unattributed.
        assert session.attribute(a.base_addr) == UNATTRIBUTED
        session.set_object_map(memory)
        assert session.attribute(a.base_addr) == "A"
        # Request context beats the map (replica traffic resolves to
        # the owning object even at replica addresses).
        session.ctx_obj = "B"
        assert session.attribute(a.base_addr) == "B"
        session.ctx_obj = None
        assert session.attribute(a.base_addr) == "A"


class TestIntervalSeries:
    def test_read_bytes_bucket_resets_per_sample(self):
        session = TraceSession()
        session.account_read_bytes("A", 128)
        session.account_read_bytes("A", 128)
        session.account_read_bytes("B", 128)
        session.add_sample(1024, ipc=1.5)
        session.account_read_bytes("B", 256)
        session.add_sample(2048, ipc=0.5)
        assert session.samples[0]["object_read_bytes"] == \
            {"A": 256, "B": 128}
        assert session.samples[1]["object_read_bytes"] == {"B": 256}
        # Whole-run totals are cumulative, not reset.
        assert session.obj("A").read_bytes == 256
        assert session.obj("B").read_bytes == 384

    def test_samples_keep_cycle_and_series(self):
        session = TraceSession()
        session.add_sample(512, ipc=2.0, mshr_occupancy=3)
        (sample,) = session.samples
        assert sample["cycle"] == 512
        assert sample["ipc"] == 2.0
        assert sample["mshr_occupancy"] == 3


class TestOutputs:
    def test_object_summary_sorted_and_complete(self):
        session = TraceSession()
        session.obj("zeta").loads = 5
        session.obj("alpha").dram_reads = 2
        summary = session.object_summary()
        assert list(summary) == ["alpha", "zeta"]
        assert summary["zeta"]["loads"] == 5
        assert summary["alpha"]["dram_reads"] == 2
        assert summary["alpha"]["loads"] == 0

    def test_publish_metrics(self):
        session = TraceSession()
        session.emit("kernel", "k", ts=0, dur=5, pid=1, tid=0)
        session.obj("A").loads = 7
        session.obj("A").read_bytes = 512
        session.add_sample(1024, ipc=1.25, mshr_occupancy=2,
                           row_hit_rate=0.5, dram_requests=4)
        metrics = MetricsRegistry()
        session.publish_metrics(metrics)
        snap = metrics.snapshot()
        assert snap["counters"]["trace.events.emitted"] == 1
        assert snap["counters"]["trace.samples"] == 1
        assert snap["counters"]["trace.object.A.loads"] == 7
        assert snap["counters"]["trace.object.A.read_bytes"] == 512
        assert "trace.interval.ipc" in snap["histograms"]
