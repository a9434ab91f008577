"""Interrupt-timing histograms (Fig 5 and Fig 6 building blocks)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.sim.events import MS, US
from repro.sim.interrupts import InterruptType
from repro.sim.machine import MachineRun
from repro.tracing.attribution import AttributionReport
from repro.tracing.ebpf import KprobeTracer

#: Fig 6's interrupt types, in the paper's plotting order.
FIG6_TYPES: tuple[InterruptType, ...] = (
    InterruptType.SOFTIRQ_NET_RX,
    InterruptType.TIMER,
    InterruptType.IRQ_WORK,
    InterruptType.NETWORK_RX,
)


@dataclass
class GapLengthHistogram:
    """Distribution of observed gap lengths for one interrupt type."""

    itype: InterruptType
    bin_edges_ns: np.ndarray
    counts: np.ndarray
    samples: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def mode_ns(self) -> float:
        """Center of the most populated bin (Fig 6's visible spikes)."""
        if not self.counts.sum():
            return float("nan")
        peak = int(np.argmax(self.counts))
        return float((self.bin_edges_ns[peak] + self.bin_edges_ns[peak + 1]) / 2)

    def min_ns(self) -> float:
        return float(self.samples.min()) if len(self.samples) else float("nan")


def type_coincidence(
    reports: Sequence[AttributionReport],
    subject: InterruptType,
    companion: InterruptType,
) -> float:
    """Fraction of ``subject``-involving gaps that also contain ``companion``.

    Quantifies Fig 6's piggybacking observation: IRQ work "cannot happen
    on its own, and thus is typically run while processing a timer
    interrupt" — so most IRQ-work gaps also contain a timer record.
    """
    hits = total = 0
    for report in reports:
        with_subject = report.has_type(subject)
        total += int(with_subject.sum())
        hits += int((with_subject & report.has_type(companion)).sum())
    return hits / total if total else float("nan")


def gap_length_histograms(
    reports: Sequence[AttributionReport],
    types: Sequence[InterruptType] = FIG6_TYPES,
    bin_width_ns: float = 0.25 * US,
    max_ns: float = 12 * US,
) -> Dict[InterruptType, GapLengthHistogram]:
    """Per-type distributions of attacker-observed gap lengths (Fig 6).

    ``reports`` hold the traced cores of the paper's "50 page loads
    spanning 10 websites"
    (:func:`~repro.tracing.attribution.attribute_every_core`).  Gap lengths —
    not handler times — are histogrammed, so piggybacking types (IRQ
    work, softirqs) inherit their host timer tick's latency in the plot,
    exactly as the paper describes.
    """
    if bin_width_ns <= 0 or max_ns <= bin_width_ns:
        raise ValueError("invalid histogram binning")
    edges = np.arange(0, max_ns + bin_width_ns, bin_width_ns)
    result: Dict[InterruptType, GapLengthHistogram] = {}
    for itype in types:
        samples = np.concatenate(
            [np.empty(0)] + [report.gap_lengths_for_type(itype) for report in reports]
        )
        counts, _ = np.histogram(samples, bins=edges)
        result[itype] = GapLengthHistogram(
            itype=itype, bin_edges_ns=edges, counts=counts, samples=samples
        )
    return result


def interrupt_time_series(
    runs: Sequence[MachineRun],
    core: Optional[int] = None,
    window_ns: float = 100 * MS,
    types: Optional[Sequence[InterruptType]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Average fraction of time in interrupt handlers per window (Fig 5).

    Averages the per-window handler-time share over ``runs`` (the
    paper's "averaged over 100 runs").  Returns ``(window_starts_ns,
    mean_fraction)``.
    """
    if not runs:
        raise ValueError("need at least one run")
    fractions = []
    times = None
    for run in runs:
        tracer = KprobeTracer(run, core=core)
        t, frac = tracer.handler_time_fraction(window_ns, types=types)
        fractions.append(frac)
        times = t if times is None else times
    min_len = min(len(f) for f in fractions)
    stacked = np.stack([f[:min_len] for f in fractions])
    return times[:min_len], stacked.mean(axis=0)
