"""Countermeasures: interrupt noise and cache-sweep noise.

The timer defenses of Table 4 (Tor's 100 ms quantizer and the paper's
randomized timer) are timer specs: ``repro.timers.spec.TOR_TIMER`` and
``RANDOMIZED_DEFENSE_TIMER``.
"""

from repro.defenses.cache_noise import CacheSweepNoise
from repro.defenses.interrupt_noise import (
    PAGE_LOAD_OVERHEAD,
    SpuriousInterruptInjector,
    interrupt_noise_hooks,
)

__all__ = [
    "CacheSweepNoise", "PAGE_LOAD_OVERHEAD",
    "SpuriousInterruptInjector", "interrupt_noise_hooks",
]
