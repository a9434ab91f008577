"""Tests for quantized and jittered timers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import MS
from repro.timers import quantized
from repro.timers.base import BrowserTimer, PreciseTimer
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


def _floor_read(t: float, delta: float) -> float:
    """Floor quantization, ``floor(t / Δ) · Δ``, written out."""
    return math.floor(t / delta) * delta


def _floor_crossing(t0: float, elapsed: float, delta: float) -> float:
    """The first bucket boundary ``ceil(elapsed / Δ)`` buckets on, one
    bucket later where floating-point rounding floors it short."""
    if elapsed == 0:
        return float(t0)
    bucket0 = math.floor(t0 / delta)
    buckets = math.ceil(elapsed / delta)
    crossing = (bucket0 + buckets) * delta
    if _floor_read(crossing, delta) - _floor_read(t0, delta) < elapsed:
        crossing = (bucket0 + buckets + 1) * delta
    return crossing


class _FloorTimer(BrowserTimer):
    """The floor formula as a timer, walked by the base boundary loop."""

    def __init__(self, delta_ns: float):
        self.delta_ns = float(delta_ns)

    def read(self, t_real_ns: float) -> float:
        return _floor_read(t_real_ns, self.delta_ns)

    def first_crossing(self, t0_real_ns: float, elapsed_ns: float) -> float:
        return _floor_crossing(t0_real_ns, elapsed_ns, self.delta_ns)


#: Firefox's and Safari's Δ, Tor's, and one that is not a whole number
#: of nanoseconds.
_FLOOR_DELTAS_NS = (1 * MS, 100 * MS, 33_333.3)
_FLOOR_PERIODS_NS = (5 * MS, 100 * MS, 500 * MS)
_FLOOR_SEEDS = range(5)
_FLOOR_HORIZON_NS = 8_000 * MS


def _disjoint_gaps(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, disjoint gaps of 1 µs to 300 ms (log-uniform), the first
    covering 0, so crossings land inside gaps at every Δ."""
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0.0, _FLOOR_HORIZON_NS, 400))
    starts[0] = -50.0
    lengths = np.exp(rng.uniform(np.log(1e3), np.log(300 * MS), len(starts)))
    ends = np.minimum(starts + lengths, np.append(starts[1:], np.inf))
    return starts, ends


@pytest.mark.parametrize("period_ns", _FLOOR_PERIODS_NS)
@pytest.mark.parametrize("delta_ns", _FLOOR_DELTAS_NS)
class TestQuantizedIsFloorFormula:
    """A quantized timer is the ε table's timer with ε ≡ 0: its reads,
    crossings and fused boundary pass are the floor formula's."""

    def test_read_and_crossing(self, delta_ns, period_ns):
        timer = QuantizedTimer(delta_ns)
        delta_ns = float(delta_ns)
        for seed in _FLOOR_SEEDS:
            rng = np.random.default_rng([seed, int(delta_ns), int(period_ns)])
            t0s = rng.uniform(-1_000 * MS, 20_000 * MS, 500)
            edges = rng.integers(0, 20_000 * MS / delta_ns, 100) * delta_ns
            for t0 in [*t0s.tolist(), *edges.tolist(), *np.nextafter(edges, 0).tolist()]:
                assert timer.read(t0) == _floor_read(t0, delta_ns)
                assert timer.first_crossing(t0, period_ns) == _floor_crossing(
                    t0, period_ns, delta_ns
                )

    def test_fused_walk(self, delta_ns, period_ns):
        for seed in _FLOOR_SEEDS:
            starts, ends = _disjoint_gaps(seed)
            timer = QuantizedTimer(delta_ns)
            fused = timer.period_boundaries(starts, ends, _FLOOR_HORIZON_NS, period_ns)
            loop = BrowserTimer.period_boundaries(
                timer, starts, ends, _FLOOR_HORIZON_NS, period_ns
            )
            floor = BrowserTimer.period_boundaries(
                _FloorTimer(delta_ns), starts, ends, _FLOOR_HORIZON_NS, period_ns
            )
            _assert_same_walk(fused, loop)
            _assert_same_walk(fused, floor)
            # Some crossing landed in a gap and the walk resumed at its end.
            assert np.isin(fused[1], ends).any()


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


def _gaps(horizon: float, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` sorted, disjoint gaps of 1-200 µs, the first one covering 0."""
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0.0, horizon, n))
    starts[0] = -50.0
    ends = np.minimum(starts + rng.uniform(1e3, 2e5, n), np.append(starts[1:], np.inf))
    return starts, ends


def _both_walks(delta_ns, gap_starts, gap_ends, horizon, period):
    """The fused and the base-loop boundary passes of two equal jittered
    timers, and the fused one's timer."""
    fused = JitteredTimer(delta_ns, seed=4)
    loop = JitteredTimer(delta_ns, seed=4)
    return (
        fused.period_boundaries(gap_starts, gap_ends, horizon, period),
        BrowserTimer.period_boundaries(loop, gap_starts, gap_ends, horizon, period),
        fused,
    )


def _assert_same_walk(fused, loop):
    for got, want in zip(fused, loop):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestFusedBoundaryPass:
    """The jittered timer's one-loop boundary pass equals the base loop
    on the edges the ``collect.walk`` oracle does not reach."""

    def test_gap_ending_past_the_horizon(self, monkeypatch):
        """The walk's last crossing lands in a gap that ends 50 ms after
        the horizon; the table is filled once and covers every read."""
        fills = []

        def counting(start, stop, seed):
            fills.append((start, stop))
            return _jitter_bits(start, stop, seed)

        horizon = 1_000 * MS
        starts, ends = _gaps(horizon - 2 * MS, 200, seed=1)
        starts = np.append(starts, horizon - 1 * MS)
        ends = np.append(ends, horizon + 50 * MS)
        timer = JitteredTimer(0.1 * MS, seed=4)
        monkeypatch.setattr(quantized, "_jitter_bits", counting)
        fused = timer.period_boundaries(starts, ends, horizon, 5 * MS)
        assert fills == [(0, len(timer._table))]
        monkeypatch.undo()
        loop = BrowserTimer.period_boundaries(
            JitteredTimer(0.1 * MS, seed=4), starts, ends, horizon, 5 * MS
        )
        _assert_same_walk(fused, loop)
        assert fused[1][-1] == horizon + 50 * MS

    def test_horizon_beyond_the_table(self):
        horizon = (_TABLE_MAX_BUCKETS + 1_000) * 100.0
        starts, ends = _gaps(horizon, 300, seed=2)
        fused, loop, timer = _both_walks(100.0, starts, ends, horizon, 5 * MS)
        _assert_same_walk(fused, loop)
        assert len(timer._table) == _TABLE_MAX_BUCKETS

    @pytest.mark.parametrize("delta_ns", [2.5 * MS, 5 * MS, 7 * MS])
    def test_period_at_or_below_the_resolution(self, delta_ns):
        horizon = 3_000 * MS
        starts, ends = _gaps(horizon, 500, seed=3)
        fused, loop, _ = _both_walks(delta_ns, starts, ends, horizon, 5 * MS)
        _assert_same_walk(fused, loop)
        assert len(fused[0]) > 100

    def test_reads_past_a_walk_filled_table_still_cap_it(self):
        """The walk fills the table to no power of two; later reads keep
        doubling it, but never past the cap."""
        timer = JitteredTimer(delta_ns=100.0, seed=9)
        timer.period_boundaries(np.empty(0), np.empty(0), 1_000_003.0, 5_000.0)
        assert len(timer._table) not in {_TABLE_FIRST_CHUNK << k for k in range(10)}
        t = (_TABLE_MAX_BUCKETS - 1) * 100.0 + 50.0
        assert timer.read(t) == _hashed_read(t, 100.0, 9)
        assert len(timer._table) == _TABLE_MAX_BUCKETS
