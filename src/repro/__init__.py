"""biggerfish: a full reproduction of "There's Always a Bigger Fish: A
Clarifying Analysis of a Machine-Learning-Assisted Side-Channel Attack"
(Cook, Drean, Behrens, Yan — ISCA 2022).

The package simulates the complete experimental stack of the paper — a
multi-core machine with a faithful interrupt system, website workloads,
browser timers, the loop-counting and sweep-counting attackers, an
eBPF-style kernel tracer, a numpy CNN+LSTM classifier — and regenerates
every table and figure of the evaluation.

Quick start::

    from repro import FingerprintingPipeline, MachineConfig, CHROME, SMOKE

    pipeline = FingerprintingPipeline(MachineConfig(), CHROME, scale=SMOKE)
    result = pipeline.run_closed_world()
    print(result.top1.as_percent())
"""

from repro.config import DEFAULT, PAPER, SCALES, SMOKE, Scale
from repro.engine import (
    CacheStats,
    ExecutionEngine,
    RunContext,
    RunManifest,
    TraceCache,
)
from repro.core import (
    FingerprintingPipeline,
    LoopCountingAttacker,
    NoiseHooks,
    SweepCountingAttacker,
    Trace,
    TraceBatch,
    TraceCollector,
    TraceSpec,
    analyze_run,
)
from repro.sim import InterruptSynthesizer, InterruptType, MachineConfig, MachineRun
from repro.workload import (
    CHROME,
    FIREFOX,
    LINUX,
    MACOS,
    SAFARI,
    TOR_BROWSER,
    WINDOWS,
    WebsiteProfile,
    closed_world,
    profile_for,
)

# 1.1.0: batched (vectorized) interrupt synthesis changed the RNG draw
# order, so traces differ from 1.0.x; the version participates in trace
# cache keys, which invalidates stale cached traces automatically.
# 1.2.0: the repro.verify differential-oracle harness now certifies the
# 1.1.0 draw order against a retained scalar reference; traces are
# unchanged, the bump marks the certified surface.
# 1.3.0: the repro.data sharded dataset store lands; traces are
# unchanged, but the version is recorded in every store manifest as
# build provenance, so the bump marks the new on-disk surface.
# 1.4.0: each core draws from its own RNG stream, seeded by one word of
# the caller's stream, and a collected trace draws only the attacker's
# core; every trace differs from 1.3.0.  Dataset stores refuse to mix
# shards of different versions.
__version__ = "1.4.0"

__all__ = [
    "CacheStats", "ExecutionEngine", "RunContext", "RunManifest", "TraceCache",
    "DEFAULT", "PAPER", "SCALES", "SMOKE", "Scale", "FingerprintingPipeline",
    "LoopCountingAttacker", "NoiseHooks", "SweepCountingAttacker", "Trace",
    "TraceBatch", "TraceCollector", "TraceSpec", "analyze_run",
    "InterruptSynthesizer",
    "InterruptType", "MachineConfig", "MachineRun", "CHROME", "FIREFOX",
    "LINUX", "MACOS", "SAFARI", "TOR_BROWSER", "WINDOWS", "WebsiteProfile",
    "closed_world", "profile_for", "__version__",
]
