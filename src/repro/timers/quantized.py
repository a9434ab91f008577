"""Resolution-reduced timers: plain quantization and Chrome-style jitter.

Quantization (paper §6.1):  ``T_secure = floor(T_real / Δ) · Δ``.
Tor Browser uses Δ = 100 ms, Firefox and Safari Δ = 1 ms.

Chrome additionally adds deterministic jitter:
``T_secure = floor(T_real / Δ) · Δ + ε`` with ``ε ∈ {0, Δ}`` computed
from a hash of the quantization bucket so the output stays monotonic.
Chrome's Δ is 0.1 ms.

Both are one timer that reads ε from a per-timer table:
:class:`QuantizedTimer` fills it with zeros and :class:`JitteredTimer`
with the hash, so every quantized browser timer walks the same fused
boundary loop.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.timers import base as timers_base
from repro.timers.base import BrowserTimer

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Multipliers of the jitter hash (SplitMix64-style mixing).
_BUCKET_MIX = 0x9E3779B97F4A7C15
_SEED_MIX = 0xBF58476D1CE4E5B9
_FINAL_MIX = 0x94D049BB133111EB
#: Buckets in a timer's first ε-table chunk; each later chunk doubles
#: the table.
_TABLE_FIRST_CHUNK = 1 << 12
#: The table stops growing here (2 MiB, 210 s at Δ = 0.1 ms); buckets
#: past it, and negative buckets, get ε per call.
_TABLE_MAX_BUCKETS = _TABLE_FIRST_CHUNK << 9


def _jitter_bit(bucket: int, seed: int) -> int:
    """Deterministic pseudo-random bit for one quantization bucket."""
    x = (bucket * _BUCKET_MIX + seed * _SEED_MIX) & _MASK64
    x ^= x >> 31
    x = (x * _FINAL_MIX) & _MASK64
    x ^= x >> 29
    return x & 1


def _jitter_bits(start: int, stop: int, seed: int) -> np.ndarray:
    """:func:`_jitter_bit` of every bucket in ``[start, stop)``, ``0 <= start``.

    Every operand is an ``np.uint64``, so products wrap modulo 2**64 like
    the masked Python arithmetic: NumPy promotes uint64 mixed with int64
    to float64, and before NumPy 2 also a uint64 scalar mixed with a
    Python integer.
    """
    x = np.arange(start, stop, dtype=np.uint64)
    x *= np.uint64(_BUCKET_MIX)
    x += np.uint64((seed * _SEED_MIX) & _MASK64)
    x ^= x >> np.uint64(31)
    x *= np.uint64(_FINAL_MIX)
    x ^= x >> np.uint64(29)
    return (x & np.uint64(1)).astype(np.uint8)


class QuantizedTimer(BrowserTimer):
    """Quantized timer: ``read(t) = bucket(t) · Δ + ε(bucket(t)) · Δ``.

    ε is a pure function of the bucket, so each timer keeps a byte table
    of it for buckets ``0 .. n - 1``, filled in bulk by
    :meth:`_epsilon_bits` and doubled whenever a read lands past its
    end; :meth:`_epsilon_bit` serves the buckets the table does not
    cover.  The attacker walk's boundary pass (:meth:`period_boundaries`)
    reads that table inline.  Here ε ≡ 0, which is plain floor
    quantization; :class:`JitteredTimer` fills the table from a hash.

    >>> timer = QuantizedTimer(delta_ns=100.0)
    >>> timer.read(250.0)
    200.0
    >>> timer.read(299.9)
    200.0
    >>> timer.first_crossing(250.0, 150.0)  # needs two bucket boundaries
    400.0
    >>> timer.first_crossing(250.0, 0.0)
    250.0
    """

    def __init__(self, delta_ns: float):
        if delta_ns <= 0:
            raise ValueError(f"resolution must be positive, got {delta_ns}")
        self.delta_ns = float(delta_ns)
        self._table = bytearray()

    def _epsilon_bits(self, start: int, stop: int) -> bytes:
        """ε of every bucket in ``[start, stop)``, ``0 <= start``, a byte each."""
        return bytes(stop - start)

    def _epsilon_bit(self, bucket: int) -> int:
        """ε of a bucket the table does not cover (negative or past its cap)."""
        return 0

    def _epsilon_ns(self, bucket: int) -> float:
        if not 0 <= bucket < _TABLE_MAX_BUCKETS:
            return self._epsilon_bit(bucket) * self.delta_ns
        table = self._table
        while len(table) <= bucket:
            # One doubling at a time: small chunks fill faster than one
            # large one.
            size = len(table)
            table += self._epsilon_bits(
                size, min(2 * size or _TABLE_FIRST_CHUNK, _TABLE_MAX_BUCKETS)
            )
        return table[bucket] * self.delta_ns

    def read(self, t_real_ns: float) -> float:
        bucket = math.floor(t_real_ns / self.delta_ns)
        return bucket * self.delta_ns + self._epsilon_ns(bucket)

    def first_crossing(self, t0_real_ns: float, elapsed_ns: float) -> float:
        if elapsed_ns < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed_ns}")
        if elapsed_ns == 0:
            return float(t0_real_ns)
        bucket0 = math.floor(t0_real_ns / self.delta_ns)
        # The crossing bucket is within one of the jitter-free answer:
        # observed diff = k·Δ + ε(b0+k) − ε(b0), and ε terms shift the
        # requirement by at most ±Δ each.
        k_base = math.ceil(elapsed_ns / self.delta_ns)
        base = self.read(t0_real_ns)
        for k in range(max(k_base - 1, 1), k_base + 4):
            crossing = (bucket0 + k) * self.delta_ns
            # Evaluate through read() so floating-point bucket rounding
            # is consistent with what the attacker actually observes.
            if self.read(crossing) - base >= elapsed_ns:
                return max(crossing, float(t0_real_ns))
        raise AssertionError("quantized crossing must occur within k_base + 3 buckets")

    def period_boundaries(
        self, gap_starts, gap_ends, horizon_ns: float, period_ns: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`BrowserTimer.period_boundaries` as one loop over the ε table.

        The table first grows, in one fill, to every bucket the walk can
        read: a period starts before the horizon, and its crossing lies at
        most ``ceil(P / Δ) + 3`` buckets later.  Each period then does
        inline what ``read`` and ``first_crossing`` do, in their
        arithmetic, and resumes through the same bisection, with no
        method call.  Beyond the table, and for a period that is not
        positive or a horizon that is not finite, the base loop runs.

        >>> gap_starts = np.array([1_020.0, 2_990.0])
        >>> gap_ends = np.array([1_180.0, 3_400.0])
        >>> fused = JitteredTimer(delta_ns=100.0, seed=7).period_boundaries(
        ...     gap_starts, gap_ends, 4_000.0, 450.0)
        >>> loop = BrowserTimer.period_boundaries(
        ...     JitteredTimer(delta_ns=100.0, seed=7), gap_starts, gap_ends, 4_000.0, 450.0)
        >>> all(np.array_equal(a, b) for a, b in zip(fused, loop))
        True
        >>> [float(t) for t in fused[1]]
        [500.0, 1180.0, 1500.0, 2000.0, 2600.0, 3400.0, 4000.0]
        """
        delta = self.delta_ns
        if not (period_ns > 0 and math.isfinite(horizon_ns)):
            return super().period_boundaries(gap_starts, gap_ends, horizon_ns, period_ns)
        k_base = math.ceil(period_ns / delta)
        # A start bucket is at most floor(horizon / Δ); a candidate
        # crossing is at most k_base + 3 buckets on, and floors into at
        # most the bucket after that.
        last_bucket = max(math.floor(horizon_ns / delta), 0) + k_base + 4
        if last_bucket >= _TABLE_MAX_BUCKETS:
            return super().period_boundaries(gap_starts, gap_ends, horizon_ns, period_ns)
        table = self._table
        if len(table) <= last_bucket:
            table += self._epsilon_bits(len(table), last_bucket + 1)
        candidates = range(max(k_base - 1, 1), k_base + 4)
        # ε · Δ by table value: 0 · Δ is 0.0 and 1 · Δ is Δ, exactly.
        epsilon = (0.0, delta)
        gap_starts = memoryview(gap_starts)
        gap_ends = memoryview(gap_ends)
        n_gaps = len(gap_ends)
        floor = math.floor
        begins: list[float] = []
        ends: list[float] = []
        observed: list[float] = []
        self.reset()
        i = bisect_right(gap_ends, 0.0)
        t = gap_ends[i] if i < n_gaps and gap_starts[i] <= 0.0 else 0.0
        for _ in range(timers_base._MAX_PERIODS):
            if t >= horizon_ns:
                break
            # read(t), which is also first_crossing's base value.
            bucket = floor(t / delta)
            value = bucket * delta + epsilon[table[bucket]]
            observed.append(value)
            # first_crossing(t, period_ns): the first candidate bucket
            # whose read has advanced by the period.
            for k in candidates:
                crossing = (bucket + k) * delta
                b = floor(crossing / delta)
                if b * delta + epsilon[table[b]] - value >= period_ns:
                    break
            else:
                raise AssertionError("quantized crossing must occur within k_base + 3 buckets")
            if crossing < t:
                crossing = t
            # Resume at the next instant the attacker executes.  Crossings
            # only move forward, so the search starts at the last index.
            i = bisect_right(gap_ends, crossing, i)
            t_end = gap_ends[i] if i < n_gaps and gap_starts[i] <= crossing else crossing
            if t_end <= t:  # the base loop's degenerate-timer fallback
                stalled = t + period_ns
                i = bisect_right(gap_ends, stalled, i)
                t_end = gap_ends[i] if i < n_gaps and gap_starts[i] <= stalled else stalled
            begins.append(t)
            ends.append(t_end)
            t = t_end
        else:
            raise RuntimeError(
                f"trace exceeded {timers_base._MAX_PERIODS} periods; timer never advances"
            )
        return np.array(begins), np.array(ends), np.array(observed)


class JitteredTimer(QuantizedTimer):
    """Chrome-style quantized timer with hash-derived jitter.

    ``read(t) = bucket(t) · Δ + ε(bucket(t)) · Δ`` with ε ∈ {0, 1} a pure
    function of (bucket, seed): :func:`_jitter_bits` fills the ε table
    and :func:`_jitter_bit` serves the buckets it does not cover.  The
    deviation from real time is guaranteed to be < 2Δ, and the output is
    non-decreasing because consecutive buckets differ by Δ while ε can
    change by at most Δ.

    >>> timer = JitteredTimer(delta_ns=100.0, seed=1)
    >>> all(timer.read(t) - t < 2 * 100.0 for t in range(0, 2000, 7))
    True
    >>> reads = [timer.read(float(t)) for t in range(0, 2000, 7)]
    >>> reads == sorted(reads)  # jitter never breaks monotonicity
    True
    >>> crossing = timer.first_crossing(0.0, 500.0)
    >>> timer.read(crossing) - timer.read(0.0) >= 500.0
    True
    """

    def __init__(self, delta_ns: float, seed: int = 0):
        super().__init__(delta_ns)
        self.seed = int(seed)

    def _epsilon_bits(self, start: int, stop: int) -> bytes:
        return _jitter_bits(start, stop, self.seed).tobytes()

    def _epsilon_bit(self, bucket: int) -> int:
        return _jitter_bit(bucket, self.seed)
