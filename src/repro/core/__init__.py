"""The paper's contribution: attacks, trace collection, leakage analysis."""

from repro.core.analysis import ClockPollingAttacker, LeakageAnalysis, ObservedGap, analyze_run
from repro.core.attacker import Attacker, LoopCountingAttacker, SweepCountingAttacker
from repro.core.collector import NoiseHooks, TraceBatch, TraceCollector
from repro.core.dataset import TraceDataset
from repro.core.keystroke import (
    KeystrokeAttacker,
    KeystrokeRecovery,
    TypingModel,
    run_keystroke_attack,
)
from repro.core.pipeline import FingerprintingPipeline, OpenWorldResult
from repro.core.trace import Trace, TraceSpec, average_traces, stack_dataset, trace_correlation

__all__ = [
    "ClockPollingAttacker", "LeakageAnalysis", "ObservedGap", "analyze_run",
    "Attacker", "LoopCountingAttacker", "SweepCountingAttacker", "NoiseHooks",
    "TraceBatch", "TraceCollector", "TraceDataset", "KeystrokeAttacker",
    "KeystrokeRecovery", "TypingModel", "run_keystroke_attack",
    "FingerprintingPipeline", "OpenWorldResult", "Trace", "TraceSpec",
    "average_traces", "stack_dataset", "trace_correlation",
]
