"""Synthetic website activity profiles.

Each website is a deterministic *signature*: a set of burst templates
(network fetches, render phases, JS compute, memory growth, disk and
input activity) drawn once from a site-seeded RNG.  Loading the site
replays the signature with per-load jitter — shifted burst times, scaled
intensities, occasionally dropped or extra bursts — which yields the
property the fingerprinting classifier exploits: traces of the same site
resemble each other and traces of different sites do not (paper §3.2).

Three sites the paper uses as running examples (nytimes.com, amazon.com,
weather.com) carry hand-written signatures matching their published
descriptions: nytimes performs most activity in its first ~4 s, amazon
front-loads its first 2 s with spikes near 5 s and 10 s, and weather.com
routinely triggers rescheduling interrupts (Fig 3, Fig 5, §5.2).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.sim.events import MS, seconds_to_ns
from repro.workload.phases import ActivityBurst, ActivityTimeline, BurstKind

#: Per-load jitter applied when replaying a signature.
LOAD_START_JITTER_NS = 180 * MS
LOAD_DURATION_SIGMA = 0.08
LOAD_INTENSITY_SIGMA = 0.12
BURST_DROP_PROBABILITY = 0.03
#: Per-load *global* activity multiplier (network speed, CDN caching,
#: ad rotation): scales every burst of one load together, so absolute
#: trace levels carry little site information — only temporal shape does.
SESSION_GAIN_SIGMA = 0.42


@dataclass(frozen=True)
class BurstTemplate:
    """One burst of a site signature, before per-load jitter.

    ``ripple_hz``/``duty`` are part of the site's identity: a page's
    packet-train rhythm and render cadence are reproducible across
    loads, giving the fine-grained attacker sub-100 ms structure to
    fingerprint (see :class:`~repro.workload.phases.ActivityBurst`).
    """

    kind: BurstKind
    start_s: float
    duration_s: float
    intensity: float
    source: str
    ripple_hz: float = 0.0
    duty: float = 1.0


@dataclass(frozen=True)
class SiteStyle:
    """Site-level biases on how activity maps to interrupts.

    ``resched_weight`` scales COMPUTE-burst rescheduling/TLB traffic (the
    weather.com behaviour); ``net_coalescing`` scales how many packets
    each NET_RX softirq batches (higher = fewer, longer softirqs).
    """

    resched_weight: float = 1.0
    net_coalescing: float = 1.0
    memory_weight: float = 1.0


class WebsiteProfile:
    """A website with a stable activity signature."""

    def __init__(
        self,
        name: str,
        seed: Optional[int] = None,
        templates: Optional[Sequence[BurstTemplate]] = None,
        style: Optional[SiteStyle] = None,
    ):
        if not name:
            raise ValueError("website needs a non-empty name")
        self.name = name
        self.seed = zlib.crc32(name.encode()) if seed is None else int(seed)
        if templates is not None:
            self.templates = list(templates)
            self.style = style or SiteStyle()
        else:
            self.templates, self.style = _generate_signature(self.name, self.seed)
        if not self.templates:
            raise ValueError(f"site {name!r} has an empty signature")

    def __repr__(self) -> str:
        return f"WebsiteProfile({self.name!r}, bursts={len(self.templates)})"

    def cache_token(self) -> str:
        """Canonical identity for the trace cache.

        The full signature (templates + style) is tokenized, not just the
        name, so hand-editing a marquee profile invalidates its cached
        traces.
        """
        from repro.engine.cache import stable_token

        return stable_token(
            {
                "name": self.name,
                "seed": self.seed,
                "templates": self.templates,
                "style": self.style,
            }
        )

    def generate_load(
        self,
        rng: np.random.Generator,
        horizon_ns: int,
        time_stretch: float = 1.0,
    ) -> ActivityTimeline:
        """Replay the signature once, with per-load jitter.

        ``time_stretch`` > 1 slows the load down (Tor Browser, or the
        spurious-interrupt defense's +15.7 % page-load overhead).
        """
        if time_stretch <= 0:
            raise ValueError(f"time_stretch must be positive, got {time_stretch}")
        with obs.span("workload.generate_load", site=self.name):
            bursts: list[ActivityBurst] = []
            session_gain = rng.lognormal(0.0, SESSION_GAIN_SIGMA)
            for i, template in enumerate(self.templates):
                if i > 0 and rng.random() < BURST_DROP_PROBABILITY:
                    continue
                start = (
                    seconds_to_ns(template.start_s) * time_stretch
                    + rng.normal(0.0, LOAD_START_JITTER_NS)
                )
                duration = (
                    seconds_to_ns(template.duration_s)
                    * time_stretch
                    * rng.lognormal(0.0, LOAD_DURATION_SIGMA)
                )
                intensity = float(
                    np.clip(
                        template.intensity
                        * session_gain
                        * rng.lognormal(0.0, LOAD_INTENSITY_SIGMA),
                        0.05,
                        1.0,
                    )
                )
                start = float(np.clip(start, 0.0, horizon_ns - 1.0))
                duration = float(np.clip(duration, 10 * MS, horizon_ns - start))
                bursts.append(
                    ActivityBurst(
                        start_ns=start,
                        duration_ns=duration,
                        kind=template.kind,
                        intensity=intensity,
                        source=template.source,
                        ripple_hz=template.ripple_hz,
                        duty=template.duty,
                    )
                )
            # Sporadic background activity unrelated to the signature.
            for _ in range(rng.integers(0, 3)):
                bursts.append(
                    ActivityBurst(
                        start_ns=float(rng.uniform(0, horizon_ns * 0.9)),
                        duration_ns=float(rng.uniform(30 * MS, 150 * MS)),
                        kind=BurstKind.DISK,
                        intensity=float(rng.uniform(0.05, 0.25)),
                        source="background",
                    )
                )
            return ActivityTimeline(bursts, horizon_ns)


def _ripple(rng: np.random.Generator) -> tuple[float, float]:
    """Site-specific micro-structure: pulse frequency and duty cycle."""
    return float(rng.uniform(8.0, 38.0)), float(rng.uniform(0.3, 0.8))


def _burst_start_s(rng: np.random.Generator) -> float:
    """Draw a burst start time, front-loaded like real page loads.

    Nearly every site does most of its work in its first few seconds
    (fetch, parse, render); late activity (lazy loads, ads, trackers)
    is the exception.  A gamma draw puts ~80 % of bursts before 4 s with
    a tail reaching ~11 s, which keeps coarse-timescale load profiles
    similar across sites — the fingerprint lives in fine structure.
    """
    return float(np.clip(rng.gamma(shape=1.6, scale=1.3), 0.1, 11.0))


def _generate_signature(name: str, seed: int) -> tuple[list[BurstTemplate], SiteStyle]:
    """Draw a stable signature for a procedurally generated site."""
    rng = np.random.default_rng(seed)
    templates: list[BurstTemplate] = []
    # Initial fetch: every site starts with a network burst at t≈0.
    ripple_hz, duty = _ripple(rng)
    templates.append(
        BurstTemplate(
            kind=BurstKind.NETWORK,
            start_s=float(rng.uniform(0.0, 0.15)),
            duration_s=float(rng.uniform(0.4, 1.4)),
            intensity=float(rng.uniform(0.55, 1.0)),
            source=f"{name}/nic",
            ripple_hz=ripple_hz,
            duty=duty,
        )
    )
    for _ in range(int(rng.integers(2, 8))):
        templates.append(
            BurstTemplate(
                kind=BurstKind.NETWORK,
                start_s=_burst_start_s(rng),
                duration_s=float(rng.uniform(0.15, 1.1)),
                intensity=float(rng.uniform(0.15, 1.0)),
                source=f"{name}/nic",
                ripple_hz=ripple_hz,
                duty=duty,
            )
        )
    # Rendering tends to trail network activity.
    for template in [t for t in templates if t.kind is BurstKind.NETWORK]:
        if rng.random() < 0.8:
            render_hz, render_duty = _ripple(rng)
            templates.append(
                BurstTemplate(
                    kind=BurstKind.RENDER,
                    start_s=template.start_s + float(rng.uniform(0.1, 0.45)),
                    duration_s=template.duration_s * float(rng.uniform(0.6, 1.5)),
                    intensity=float(rng.uniform(0.25, 1.0)),
                    source=f"{name}/gpu",
                    ripple_hz=render_hz,
                    duty=render_duty,
                )
            )
    for _ in range(int(rng.integers(1, 5))):
        compute_hz, compute_duty = _ripple(rng)
        templates.append(
            BurstTemplate(
                kind=BurstKind.COMPUTE,
                start_s=_burst_start_s(rng),
                duration_s=float(rng.uniform(0.2, 1.6)),
                intensity=float(rng.uniform(0.3, 1.0)),
                source=f"{name}/js",
                ripple_hz=compute_hz,
                duty=compute_duty,
            )
        )
    for _ in range(int(rng.integers(1, 4))):
        templates.append(
            BurstTemplate(
                kind=BurstKind.MEMORY,
                start_s=_burst_start_s(rng),
                duration_s=float(rng.uniform(0.5, 2.5)),
                intensity=float(rng.uniform(0.3, 1.0)),
                source=f"{name}/heap",
            )
        )
    for _ in range(int(rng.integers(0, 3))):
        templates.append(
            BurstTemplate(
                kind=BurstKind.DISK,
                start_s=_burst_start_s(rng),
                duration_s=float(rng.uniform(0.1, 0.5)),
                intensity=float(rng.uniform(0.1, 0.6)),
                source=f"{name}/sata",
            )
        )
    style = SiteStyle(
        resched_weight=float(rng.uniform(0.4, 2.2)),
        net_coalescing=float(rng.uniform(0.6, 1.6)),
        memory_weight=float(rng.uniform(0.5, 1.5)),
    )
    return templates, style


#: Hand-chosen micro-structure for the marquee sites, by burst kind.
_MARQUEE_RIPPLES = {
    "nytimes.com": {BurstKind.NETWORK: (22.0, 0.55), BurstKind.RENDER: (30.0, 0.6),
                    BurstKind.COMPUTE: (14.0, 0.5)},
    "amazon.com": {BurstKind.NETWORK: (33.0, 0.45), BurstKind.RENDER: (20.0, 0.65),
                   BurstKind.COMPUTE: (25.0, 0.6)},
    "weather.com": {BurstKind.NETWORK: (12.0, 0.7), BurstKind.RENDER: (36.0, 0.4),
                    BurstKind.COMPUTE: (18.0, 0.35)},
}


def _marquee(name: str, entries: list[tuple[BurstKind, float, float, float, str]],
             style: SiteStyle) -> WebsiteProfile:
    ripples = _MARQUEE_RIPPLES[name]
    templates = []
    for kind, start, dur, inten, src in entries:
        ripple_hz, duty = ripples.get(kind, (0.0, 1.0))
        templates.append(
            BurstTemplate(kind=kind, start_s=start, duration_s=dur, intensity=inten,
                          source=f"{name}/{src}", ripple_hz=ripple_hz, duty=duty)
        )
    return WebsiteProfile(name, templates=templates, style=style)


def nytimes_profile() -> WebsiteProfile:
    """nytimes.com: most interrupt activity in the first ~4 s (Fig 5)."""
    return _marquee(
        "nytimes.com",
        [
            (BurstKind.NETWORK, 0.05, 1.6, 0.95, "nic"),
            (BurstKind.RENDER, 0.30, 1.8, 0.90, "gpu"),
            (BurstKind.COMPUTE, 0.50, 1.6, 0.85, "js"),
            (BurstKind.NETWORK, 1.80, 1.2, 0.70, "nic"),
            (BurstKind.MEMORY, 0.60, 2.4, 0.80, "heap"),
            (BurstKind.RENDER, 2.40, 1.2, 0.55, "gpu"),
            (BurstKind.NETWORK, 6.50, 0.5, 0.18, "nic"),
            (BurstKind.NETWORK, 11.0, 0.4, 0.12, "nic"),
        ],
        SiteStyle(resched_weight=0.9, net_coalescing=1.1, memory_weight=1.2),
    )


def amazon_profile() -> WebsiteProfile:
    """amazon.com: heavy first 2 s with spikes near 5 s and 10 s (Fig 3)."""
    return _marquee(
        "amazon.com",
        [
            (BurstKind.NETWORK, 0.05, 1.1, 1.00, "nic"),
            (BurstKind.RENDER, 0.25, 1.4, 0.95, "gpu"),
            (BurstKind.COMPUTE, 0.40, 1.3, 0.90, "js"),
            (BurstKind.MEMORY, 0.50, 1.6, 0.85, "heap"),
            (BurstKind.NETWORK, 4.90, 0.6, 0.75, "nic"),
            (BurstKind.RENDER, 5.10, 0.5, 0.60, "gpu"),
            (BurstKind.NETWORK, 9.90, 0.6, 0.70, "nic"),
            (BurstKind.RENDER, 10.1, 0.5, 0.55, "gpu"),
        ],
        SiteStyle(resched_weight=0.8, net_coalescing=1.0, memory_weight=1.0),
    )


def weather_profile() -> WebsiteProfile:
    """weather.com: routinely triggers rescheduling interrupts (§5.2)."""
    return _marquee(
        "weather.com",
        [
            (BurstKind.NETWORK, 0.05, 0.9, 0.85, "nic"),
            (BurstKind.RENDER, 0.30, 1.1, 0.75, "gpu"),
            (BurstKind.COMPUTE, 0.60, 2.2, 0.95, "js"),
            (BurstKind.COMPUTE, 3.50, 1.8, 0.85, "js"),
            (BurstKind.MEMORY, 0.80, 2.0, 0.70, "heap"),
            (BurstKind.COMPUTE, 7.00, 1.5, 0.75, "js"),
            (BurstKind.NETWORK, 7.20, 0.5, 0.45, "nic"),
        ],
        SiteStyle(resched_weight=2.4, net_coalescing=0.9, memory_weight=0.9),
    )


#: Sites with hand-written signatures used by the paper's example figures.
MARQUEE_PROFILES = {
    "nytimes.com": nytimes_profile,
    "amazon.com": amazon_profile,
    "weather.com": weather_profile,
}


def profile_for(name: str) -> WebsiteProfile:
    """Profile for a site name: marquee signature if one exists."""
    factory = MARQUEE_PROFILES.get(name)
    return factory() if factory else WebsiteProfile(name)
