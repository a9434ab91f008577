"""Tests for quantized and jittered timers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import MS
from repro.timers.base import PreciseTimer
from repro.timers.quantized import (
    _TABLE_FIRST_CHUNK,
    _TABLE_MAX_BUCKETS,
    JitteredTimer,
    QuantizedTimer,
    _jitter_bit,
    _jitter_bits,
)


class TestPreciseTimer:
    def test_identity(self):
        timer = PreciseTimer()
        assert timer.read(12345.6) == 12345.6

    def test_first_crossing(self):
        assert PreciseTimer().first_crossing(100.0, 50.0) == 150.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            PreciseTimer().first_crossing(0.0, -1.0)


class TestQuantizedTimer:
    def test_floor_quantization(self):
        timer = QuantizedTimer(delta_ns=100.0)
        assert timer.read(0.0) == 0.0
        assert timer.read(99.9) == 0.0
        assert timer.read(100.0) == 100.0
        assert timer.read(250.0) == 200.0

    def test_monotone(self):
        timer = QuantizedTimer(delta_ns=100.0)
        times = np.linspace(0, 10_000, 500)
        reads = [timer.read(t) for t in times]
        assert all(b >= a for a, b in zip(reads, reads[1:]))

    def test_first_crossing_exact(self):
        timer = QuantizedTimer(delta_ns=100.0)
        t = timer.first_crossing(50.0, 300.0)
        assert timer.read(t) - timer.read(50.0) >= 300.0

    def test_first_crossing_minimal(self):
        """No earlier instant already satisfies the crossing."""
        timer = QuantizedTimer(delta_ns=100.0)
        t0 = 50.0
        t = timer.first_crossing(t0, 300.0)
        before = t - 1.0
        assert timer.read(before) - timer.read(t0) < 300.0

    def test_crossing_with_coarse_resolution(self):
        """Tor-style: Δ = 100 ms >> P = 5 ms forces 100 ms periods."""
        timer = QuantizedTimer(delta_ns=100 * MS)
        t = timer.first_crossing(0.0, 5 * MS)
        assert t == 100 * MS

    def test_zero_elapsed(self):
        timer = QuantizedTimer(delta_ns=100.0)
        assert timer.first_crossing(42.0, 0.0) == 42.0

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            QuantizedTimer(delta_ns=0.0)

    @given(
        st.floats(min_value=0, max_value=1e9),
        st.floats(min_value=1, max_value=1e7),
        st.floats(min_value=1, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_crossing_property(self, t0, elapsed, delta):
        timer = QuantizedTimer(delta_ns=delta)
        t = timer.first_crossing(t0, elapsed)
        assert t >= t0
        assert timer.read(t) - timer.read(t0) >= elapsed - 1e-6


class TestJitteredTimer:
    def test_deviation_bounded_by_2_delta(self):
        """Chrome's guarantee: |T_secure - T_real| < 2Δ."""
        timer = JitteredTimer(delta_ns=100.0, seed=7)
        for t in np.linspace(0, 100_000, 2_000):
            assert abs(timer.read(float(t)) - t) < 200.0

    def test_monotone(self):
        timer = JitteredTimer(delta_ns=100.0, seed=3)
        times = np.linspace(0, 50_000, 5_000)
        reads = [timer.read(float(t)) for t in times]
        assert all(b >= a for a, b in zip(reads, reads[1:]))

    def test_jitter_actually_present(self):
        timer = JitteredTimer(delta_ns=100.0, seed=1)
        quantized = QuantizedTimer(delta_ns=100.0)
        diffs = {
            timer.read(float(t)) - quantized.read(float(t))
            for t in np.arange(0, 20_000, 100.0)
        }
        assert diffs == {0.0, 100.0}

    def test_deterministic_per_seed(self):
        a = JitteredTimer(delta_ns=100.0, seed=5)
        b = JitteredTimer(delta_ns=100.0, seed=5)
        assert a.read(12_345.0) == b.read(12_345.0)

    def test_seeds_differ(self):
        values_a = [JitteredTimer(100.0, seed=1).read(t) for t in np.arange(0, 5e4, 100)]
        values_b = [JitteredTimer(100.0, seed=2).read(t) for t in np.arange(0, 5e4, 100)]
        assert values_a != values_b

    @given(
        st.floats(min_value=0, max_value=1e8),
        st.floats(min_value=1, max_value=1e6),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_crossing_property(self, t0, elapsed, seed):
        timer = JitteredTimer(delta_ns=100.0, seed=seed)
        t = timer.first_crossing(t0, elapsed)
        assert t >= t0
        assert timer.read(t) - timer.read(t0) >= elapsed - 1e-6

    def test_crossing_minimal_against_bruteforce(self):
        """first_crossing matches a brute-force scan of bucket boundaries."""
        timer = JitteredTimer(delta_ns=100.0, seed=11)
        for t0 in (0.0, 55.0, 123.0, 999.0):
            target = 500.0
            t_fast = timer.first_crossing(t0, target)
            t_brute = None
            base = timer.read(t0)
            for k in range(1, 20):
                boundary = (int(t0 // 100.0) + k) * 100.0
                if timer.read(boundary) - base >= target:
                    t_brute = boundary
                    break
            assert t_fast == pytest.approx(max(t_brute, t0))


def _hashed_read(t: float, delta: float, seed: int) -> float:
    bucket = math.floor(t / delta)
    return bucket * delta + _jitter_bit(bucket, seed) * delta


class TestJitterTable:
    """ε comes from a per-timer byte table equal to the per-bucket hash."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**40, 2**64 + 5, -3])
    def test_vector_port_matches_scalar_hash(self, seed):
        for start, stop in ((0, 5_000), (2**33 - 300, 2**33 + 300)):
            expected = [_jitter_bit(bucket, seed) for bucket in range(start, stop)]
            assert _jitter_bits(start, stop, seed).tolist() == expected

    def test_table_grows_in_doubling_chunks(self):
        timer = JitteredTimer(delta_ns=100.0, seed=9)
        sizes = []
        for t in np.arange(0.0, 100.0 * 40_000, 100.0 * 997):
            assert timer.read(float(t)) == _hashed_read(float(t), 100.0, 9)
            sizes.append(len(timer._table))
        assert sorted(set(sizes)) == [_TABLE_FIRST_CHUNK << k for k in range(5)]

    def test_negative_and_far_buckets_are_hashed(self):
        timer = JitteredTimer(delta_ns=100.0, seed=9)
        far = _TABLE_MAX_BUCKETS * 100.0
        # A positive read first, so a negative bucket could wrap into the table.
        instants = [1.0] + [-100.0 * k - 50.0 for k in range(_TABLE_FIRST_CHUNK)]
        instants += [far - 1.0, far + 1.0, 3.0 * far]
        for t in instants:
            assert timer.read(t) == _hashed_read(t, 100.0, 9)
        assert len(timer._table) == _TABLE_MAX_BUCKETS
