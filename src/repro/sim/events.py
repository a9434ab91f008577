"""Simulation time units.

All simulation time is kept in integer nanoseconds; these are the unit
constants and the seconds conversion the simulator and experiments use.
"""

from __future__ import annotations

#: Nanoseconds per microsecond / millisecond / second.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


def seconds_to_ns(t_s: float) -> int:
    """Convert seconds to integer nanoseconds (rounded)."""
    return int(round(t_s * SEC))
