"""The paper's contribution: attacks, trace collection, leakage analysis."""

from repro.core.analysis import ClockPollingAttacker, LeakageAnalysis, analyze_run
from repro.core.attacker import Attacker, LoopCountingAttacker, SweepCountingAttacker
from repro.core.collector import NoiseHooks, TraceBatch, TraceCollector
from repro.core.keystroke import (
    KeystrokeAttacker,
    KeystrokeRecovery,
    TypingModel,
    run_keystroke_attack,
)
from repro.core.pipeline import FingerprintingPipeline, OpenWorldResult
from repro.core.trace import Trace, TraceSpec, average_traces, stack_dataset

__all__ = [
    "ClockPollingAttacker", "LeakageAnalysis", "analyze_run",
    "Attacker", "LoopCountingAttacker", "SweepCountingAttacker", "NoiseHooks",
    "TraceBatch", "TraceCollector", "KeystrokeAttacker",
    "KeystrokeRecovery", "TypingModel", "run_keystroke_attack",
    "FingerprintingPipeline", "OpenWorldResult", "Trace", "TraceSpec",
    "average_traces", "stack_dataset",
]
