"""Resolution-reduced timers: plain quantization and Chrome-style jitter.

Quantization (paper §6.1):  ``T_secure = floor(T_real / Δ) · Δ``.
Tor Browser uses Δ = 100 ms, Firefox and Safari Δ = 1 ms.

Chrome additionally adds deterministic jitter:
``T_secure = floor(T_real / Δ) · Δ + ε`` with ``ε ∈ {0, Δ}`` computed
from a hash of the quantization bucket so the output stays monotonic.
Chrome's Δ is 0.1 ms.
"""

from __future__ import annotations

import math

import numpy as np

from repro.timers.base import BrowserTimer

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Multipliers of the jitter hash (SplitMix64-style mixing).
_BUCKET_MIX = 0x9E3779B97F4A7C15
_SEED_MIX = 0xBF58476D1CE4E5B9
_FINAL_MIX = 0x94D049BB133111EB
#: Buckets in a jittered timer's first ε-table chunk; each later chunk
#: doubles the table.
_TABLE_FIRST_CHUNK = 1 << 12
#: The table stops growing here (2 MiB, 210 s at Δ = 0.1 ms); buckets
#: past it, and negative buckets, are hashed per call.
_TABLE_MAX_BUCKETS = _TABLE_FIRST_CHUNK << 9


class QuantizedTimer(BrowserTimer):
    """Floor-quantized timer with resolution ``delta_ns``.

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

    def read(self, t_real_ns: float) -> float:
        return math.floor(t_real_ns / self.delta_ns) * self.delta_ns

    def first_crossing(self, t0_real_ns: float, elapsed_ns: float) -> float:
        if elapsed_ns < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed_ns}")
        if elapsed_ns == 0:
            return float(t0_real_ns)
        bucket0 = math.floor(t0_real_ns / self.delta_ns)
        # Observed time advances only on bucket boundaries; we need the
        # bucket whose value is >= read(t0) + elapsed.
        buckets_needed = math.ceil(elapsed_ns / self.delta_ns)
        crossing = (bucket0 + buckets_needed) * self.delta_ns
        # Floating-point guard: bucket boundaries computed by
        # multiplication can floor into the previous bucket.
        if self.read(crossing) - self.read(t0_real_ns) < elapsed_ns:
            crossing = (bucket0 + buckets_needed + 1) * self.delta_ns
        return crossing


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


class JitteredTimer(BrowserTimer):
    """Chrome-style quantized timer with hash-derived jitter.

    ``read(t) = bucket(t) · Δ + ε(bucket(t)) · Δ`` with ε ∈ {0, 1}.  The
    deviation from real time is guaranteed to be < 2Δ, and the output is
    non-decreasing because consecutive buckets differ by Δ while ε can
    change by at most Δ.

    ε is a pure function of (bucket, seed), so each timer keeps a byte
    table of it for buckets ``0 .. n - 1``, filled in bulk and doubled
    whenever a read lands past its end; :func:`_jitter_bit` serves the
    buckets the table does not cover.

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
        if delta_ns <= 0:
            raise ValueError(f"resolution must be positive, got {delta_ns}")
        self.delta_ns = float(delta_ns)
        self.seed = int(seed)
        self._table = bytearray()

    def _epsilon_ns(self, bucket: int) -> float:
        if not 0 <= bucket < _TABLE_MAX_BUCKETS:
            return _jitter_bit(bucket, self.seed) * self.delta_ns
        table = self._table
        while len(table) <= bucket:
            # One doubling at a time: small chunks fill faster than one
            # large one.
            size = len(table)
            table += _jitter_bits(size, 2 * size or _TABLE_FIRST_CHUNK, self.seed).tobytes()
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
        raise AssertionError("jittered crossing must occur within k_base + 3 buckets")
