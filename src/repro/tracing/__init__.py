"""eBPF-style kernel instrumentation and gap attribution."""

from repro.tracing.attribution import (
    DEFAULT_GAP_THRESHOLD_NS,
    AttributionReport,
    attribute_every_core,
    attribute_gaps,
)
from repro.tracing.ebpf import KprobeTracer, TracerConfig
from repro.tracing.histograms import (
    FIG6_TYPES,
    GapLengthHistogram,
    gap_length_histograms,
    interrupt_time_series,
    type_coincidence,
)

__all__ = [
    "DEFAULT_GAP_THRESHOLD_NS", "AttributionReport", "attribute_every_core",
    "attribute_gaps", "KprobeTracer", "TracerConfig", "FIG6_TYPES",
    "GapLengthHistogram", "gap_length_histograms", "interrupt_time_series",
    "type_coincidence",
]
