"""Browser and operating-system models.

The paper evaluates four browsers (Chrome 92, Firefox 91, Safari 14, Tor
Browser 10) across three OSes (Ubuntu 20.04, Windows 10, macOS Big Sur).
For the attack, a browser contributes its degraded timer, its page-load
speed (Tor is markedly slower — hence the paper's 50-second Tor traces),
and event-loop measurement noise on the service worker running the
attacker.  An OS contributes its scheduler-tick rate, interrupt-handler
cost factor, default IRQ routing behaviour and background interrupt
activity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.events import seconds_to_ns
from repro.timers.spec import (
    CHROME_TIMER,
    FIREFOX_TIMER,
    SAFARI_TIMER,
    TOR_TIMER,
    TimerSpec,
)


@dataclass(frozen=True)
class Browser:
    """A web browser as seen by the in-browser attacker."""

    name: str
    timer: TimerSpec
    #: Multiplier on website activity times (Tor's slow page loads).
    load_stretch: float = 1.0
    #: Trace length used when attacking this browser.
    trace_seconds: float = 15.0
    #: Std-dev of per-period multiplicative measurement noise from the
    #: browser's event loop and service-worker scheduling.
    measurement_noise: float = 0.004

    def __post_init__(self) -> None:
        if self.load_stretch <= 0:
            raise ValueError(f"load_stretch must be positive, got {self.load_stretch}")
        if self.trace_seconds <= 0:
            raise ValueError(f"trace_seconds must be positive, got {self.trace_seconds}")
        if self.measurement_noise < 0:
            raise ValueError("measurement_noise cannot be negative")

    @property
    def horizon_ns(self) -> int:
        return seconds_to_ns(self.trace_seconds)


CHROME = Browser(name="Chrome 92", timer=CHROME_TIMER, measurement_noise=0.004)
FIREFOX = Browser(name="Firefox 91", timer=FIREFOX_TIMER, measurement_noise=0.006)
SAFARI = Browser(name="Safari 14", timer=SAFARI_TIMER, measurement_noise=0.004)
TOR_BROWSER = Browser(
    name="Tor Browser 10",
    timer=TOR_TIMER,
    load_stretch=2.8,
    trace_seconds=50.0,
    measurement_noise=0.010,
)

BROWSERS = {b.name: b for b in (CHROME, FIREFOX, SAFARI, TOR_BROWSER)}


@dataclass(frozen=True)
class OperatingSystem:
    """OS-level parameters that shape the interrupt channel."""

    name: str
    #: Scheduler tick frequency per core (Hz).
    tick_hz: float = 250.0
    #: Multiplier on all handler latencies (heavier kernel paths).
    handler_cost_factor: float = 1.0
    #: Rate of unrelated background device interrupts, per second system-wide.
    background_irq_hz: float = 220.0
    #: Probability a softirq runs on the core that took the device IRQ.
    softirq_follow_probability: float = 0.6
    #: Scale on scheduler-contention events when the attacker is unpinned.
    contention_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.tick_hz <= 0:
            raise ValueError(f"tick_hz must be positive, got {self.tick_hz}")
        if self.handler_cost_factor <= 0:
            raise ValueError("handler_cost_factor must be positive")
        if self.background_irq_hz < 0:
            raise ValueError("background_irq_hz cannot be negative")


LINUX = OperatingSystem(name="Linux", tick_hz=250.0, handler_cost_factor=1.0)
WINDOWS = OperatingSystem(
    name="Windows",
    tick_hz=100.0,
    handler_cost_factor=1.22,
    background_irq_hz=420.0,
    contention_scale=1.4,
)
MACOS = OperatingSystem(
    name="macOS",
    tick_hz=125.0,
    handler_cost_factor=0.95,
    background_irq_hz=260.0,
    contention_scale=1.1,
)

OPERATING_SYSTEMS = {os.name: os for os in (LINUX, WINDOWS, MACOS)}
