"""Tests for browser and OS models."""

import pytest

from repro.sim.events import MS
from repro.timers.spec import TimerKind
from repro.workload.browser import (
    BROWSERS,
    CHROME,
    FIREFOX,
    LINUX,
    MACOS,
    OPERATING_SYSTEMS,
    SAFARI,
    TOR_BROWSER,
    WINDOWS,
    Browser,
    OperatingSystem,
)


class TestBrowserTimers:
    def test_chrome_timer_is_jittered_01ms(self):
        assert CHROME.timer.kind is TimerKind.JITTERED
        assert CHROME.timer.resolution_ns == pytest.approx(0.1 * MS)

    def test_firefox_timer_is_1ms(self):
        assert FIREFOX.timer.resolution_ns == pytest.approx(1 * MS)
        # Modeled as a clamp (see timers.spec): Chrome-style ε-jitter at
        # Δ = 1 ms would contradict the paper's Firefox accuracy.
        assert FIREFOX.timer.kind is TimerKind.QUANTIZED

    def test_safari_timer_is_quantized_1ms(self):
        assert SAFARI.timer.kind is TimerKind.QUANTIZED
        assert SAFARI.timer.resolution_ns == pytest.approx(1 * MS)

    def test_tor_timer_is_quantized_100ms(self):
        assert TOR_BROWSER.timer.kind is TimerKind.QUANTIZED
        assert TOR_BROWSER.timer.resolution_ns == pytest.approx(100 * MS)


class TestBrowserTraces:
    def test_tor_uses_50s_traces(self):
        """The paper collects 50 s traces for Tor, 15 s elsewhere."""
        assert TOR_BROWSER.trace_seconds == 50.0
        assert CHROME.trace_seconds == 15.0

    def test_tor_loads_slowly(self):
        assert TOR_BROWSER.load_stretch > 2.0
        assert CHROME.load_stretch == 1.0

    def test_horizon_ns(self):
        assert CHROME.horizon_ns == 15_000_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            Browser(name="x", timer=CHROME.timer, load_stretch=0)
        with pytest.raises(ValueError):
            Browser(name="x", timer=CHROME.timer, trace_seconds=-1)
        with pytest.raises(ValueError):
            Browser(name="x", timer=CHROME.timer, measurement_noise=-0.1)

    def test_registry(self):
        assert set(BROWSERS) == {
            "Chrome 92", "Firefox 91", "Safari 14", "Tor Browser 10",
        }


class TestOperatingSystems:
    def test_registry(self):
        assert set(OPERATING_SYSTEMS) == {"Linux", "Windows", "macOS"}

    def test_windows_handlers_cost_more(self):
        assert WINDOWS.handler_cost_factor > LINUX.handler_cost_factor

    def test_linux_tick_rate(self):
        assert LINUX.tick_hz == 250.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatingSystem(name="bad", tick_hz=0)
        with pytest.raises(ValueError):
            OperatingSystem(name="bad", handler_cost_factor=0)
        with pytest.raises(ValueError):
            OperatingSystem(name="bad", background_irq_hz=-1)

    def test_softirq_follow_probability_valid(self):
        for os_spec in OPERATING_SYSTEMS.values():
            assert 0 <= os_spec.softirq_follow_probability <= 1
