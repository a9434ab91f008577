"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import Scale
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.workload.browser import LINUX
from repro.workload.website import profile_for


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def perturbed_synthesizer(monkeypatch):
    """Nudge one arrival of the optimized synthesizer by 1 ns.

    The reference synthesizer overrides ``_poisson_times_batch`` and is
    unmoved, so the ``sim.synthesize`` oracle must fail on
    ``cores[0].arrivals``.  The patch lives in this process only, so a
    CLI test that uses it passes ``--jobs 1``.
    """
    batch = InterruptSynthesizer._poisson_times_batch

    def nudged(self, bursts, rates_hz, rng):
        times, owners = batch(self, bursts, rates_hz, rng)
        if len(times):
            times = times.copy()
            times[0] += 1.0
        return times, owners

    monkeypatch.setattr(InterruptSynthesizer, "_poisson_times_batch", nudged)


@pytest.fixture(scope="session")
def machine_config() -> MachineConfig:
    return MachineConfig(os=LINUX)


@pytest.fixture(scope="session")
def nytimes_run(machine_config):
    """One cached 8-second simulated load of nytimes.com."""
    synthesizer = InterruptSynthesizer(machine_config)
    generator = np.random.default_rng(7)
    site = profile_for("nytimes.com")
    timeline = site.generate_load(generator, 8_000_000_000)
    return synthesizer.synthesize(timeline, style=site.style, rng=generator)


#: A very small scale for experiment smoke tests.
TINY = Scale(
    name="tiny",
    n_sites=4,
    traces_per_site=4,
    trace_seconds=2.0,
    period_ms=10.0,
    n_folds=2,
    backend="feature",
    open_world_sites=10,
)


@pytest.fixture(scope="session")
def tiny_scale() -> Scale:
    return TINY


@pytest.fixture
def fail_rename(monkeypatch):
    """``fail_rename(name)`` makes every rename onto a file called
    ``name`` raise ``OSError``; renames onto other files go through."""
    replace = os.replace

    def arm(name: str) -> None:
        def failing(src, dst, *args, **kwargs):
            if Path(dst).name == name:
                raise OSError(f"injected: cannot rename onto {name}")
            return replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", failing)

    return arm


def temp_files(directory) -> list[str]:
    """Names of the ``.``-prefixed files an atomic write leaves behind."""
    return sorted(p.name for p in Path(directory).iterdir() if p.name.startswith("."))
