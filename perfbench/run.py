"""Run one workload of the repository benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload table1-cell --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs untraced passes for half the seconds, then wraps the
library's public entry points (``workloads.TRACED_CALLS``) for the other
half and reports the per-layer metrics instead.  Human-readable lines
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when nothing could be measured, for
instance outside a checkout that holds ``src/repro``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layertrace import LayerTracer, call_counts, count_totals, self_seconds

ROOT = Path(__file__).resolve().parent.parent
#: Trace caches, stores and artifacts of a run live here and are removed
#: when it ends, so a run reads and writes only inside its checkout.
WORK_ROOT = ROOT / ".perfbench-work"
#: BLAS threads, fixed for every run and below the two cores of the
#: shared machine the bounds in BENCHMARK.json were set on.
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
}

#: Per-layer metrics (``--trace 1``) and their units, per traced pass.
#: Every workload reports all of them; a layer that does no work on a
#: workload reads 0 there.
PER_LAYER = {
    "workload.generate_load.calls": "count",
    "workload.generate_load.self_s": "s",
    "sim.synthesize.calls": "count",
    "sim.synthesize.self_s": "s",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "core.collector.walk_self_s": "s",
    "core.collector.periods": "count",
    "core.collector.host_us_per_period": "us",
    "engine.cache.puts": "count",
    "engine.cache.put_s": "s",
    "engine.cache.bytes_written": "B",
    "engine.cache.gets": "count",
    "engine.cache.hits": "count",
    "engine.cache.get_s": "s",
    "engine.cache.hit_ratio": "share",
    "ml.features.transform_s": "s",
    "ml.linear.fit_s": "s",
    "ml.feature.predict_s": "s",
    "data.stream_s": "s",
    "data.rows_read": "count",
    "ml.conv1d.forward_s": "s",
    "ml.conv1d.backward_s": "s",
    "ml.lstm.forward_s": "s",
    "ml.lstm.backward_s": "s",
    "ml.layers.other_s": "s",
    "ml.optim.step_s": "s",
    "ml.train_batch.calls": "count",
    "ml.validate_s": "s",
    "ml.network.predict_s": "s",
    "serve.requests": "count",
    "serve.ok": "count",
    "serve.failed.overloaded": "count",
    "serve.failed.deadline": "count",
    "serve.failed.model_error": "count",
    "serve.failed.bad_input": "count",
    "serve.failed.shutdown": "count",
    "serve.failed.no_result": "count",
    "serve.batches": "count",
    "serve.batch_size.mean": "count",
    "serve.compute_s": "s",
    "serve.busy_share": "share",
    "serve.queue_ms.p50": "ms",
    "serve.queue_ms.p99": "ms",
    "loadgen.sent": "count",
    "loadgen.late_ms.max": "ms",
    "loadgen.late_ms.p99": "ms",
    "unattributed_s": "s",
    "unattributed_share": "share",
    "trace_overhead_share": "share",
}

#: Per-layer self times: metric -> span name.  ``ml.layers.other_s`` is
#: the part of ``Sequential.train_batch`` outside Conv1D, LSTM and Adam:
#: the other layers and the loss.
SELF_TIMES = {
    "workload.generate_load.self_s": "workload.generate_load",
    "sim.synthesize.self_s": "sim.synthesize",
    "core.collector.walk_self_s": "core.collector.collect",
    "engine.cache.put_s": "engine.cache.put",
    "engine.cache.get_s": "engine.cache.get",
    "ml.features.transform_s": "ml.features.transform",
    "ml.linear.fit_s": "ml.linear.fit",
    "ml.feature.predict_s": "ml.feature.predict",
    "data.stream_s": "data.stream",
    "ml.conv1d.forward_s": "ml.conv1d.forward",
    "ml.conv1d.backward_s": "ml.conv1d.backward",
    "ml.lstm.forward_s": "ml.lstm.forward",
    "ml.lstm.backward_s": "ml.lstm.backward",
    "ml.layers.other_s": "ml.train_batch",
    "ml.optim.step_s": "ml.optim.step",
    "ml.validate_s": "ml.validate",
    "ml.network.predict_s": "ml.network.predict",
}
#: Per-layer call counts: metric -> span name.
CALLS = {
    "workload.generate_load.calls": "workload.generate_load",
    "sim.synthesize.calls": "sim.synthesize",
    "engine.cache.puts": "engine.cache.put",
    "engine.cache.gets": "engine.cache.get",
    "ml.train_batch.calls": "ml.train_batch",
}


class StartError(Exception):
    """The run cannot start here; nothing is measured."""


def prepare_environment() -> List[str]:
    """Unset every ``BIGGERFISH_*`` variable and fix the BLAS threads.

    Runs before NumPy is first imported, which reads the thread count
    once.  Returns the names it unset.
    """
    cleared = sorted(name for name in os.environ if name.startswith("BIGGERFISH_"))
    for name in cleared:
        del os.environ[name]
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(BLAS_THREADS)
    return cleared


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process and all its threads on one usable CPU.

    The serving workloads hand every request between a submitting, a
    serving and a completing thread.  Left free to spread over the
    cores, those threads run together on one core in some runs and
    apart in others, and burst throughput flips between two levels
    from run to run.  Returns the CPU, or None where pinning is not
    available.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_library(src: Path):
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    package = src / "repro" / "__init__.py"
    if not package.is_file():
        raise StartError(f"{package} not found; run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise StartError(f"repro was imported from {repro.__file__}, not from {src}")
    return repro


@dataclass
class Measurement:
    """Everything one run measured."""

    setups: List[float] = field(default_factory=list)
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def timed_setup(workload, seed, workdir, m: Measurement):
    started = time.perf_counter()
    state = workload.setup(seed, workdir)
    m.setups.append(time.perf_counter() - started)
    return state


def run_passes(workload, seed, deadline, workdir, m: Measurement, *, min_passes, tracer=None):
    """Set up and run passes until ``deadline`` and ``min_passes`` are both met.

    Each pass sets up ``workload.setup_repeats`` times and uses the last,
    so the set-ups whose median is ``setup_s`` are spread over the run.
    """
    records = []
    while len(records) < min_passes or time.perf_counter() < deadline:
        for _ in range(workload.setup_repeats - 1):
            workload.teardown(timed_setup(workload, seed, workdir, m))
        state = timed_setup(workload, seed, workdir, m)
        try:
            if tracer is None:
                record = workload.run_pass(state, deadline)
            else:
                with tracer:
                    record = workload.run_pass(state, deadline)
            m.checks.extend(workload.check(state, record))
        finally:
            workload.teardown(state)
        records.append(record)
    return records


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Measurement:
    from workloads import TRACED_CALLS

    m = Measurement()
    started = time.perf_counter()
    if trace:
        m.untraced = run_passes(workload, seed, started + seconds / 2, workdir, m, min_passes=1)
        tracer = LayerTracer(TRACED_CALLS)
        m.traced = run_passes(
            workload, seed, started + seconds, workdir, m, min_passes=1, tracer=tracer
        )
        m.spans = tracer.spans
    else:
        m.untraced = run_passes(
            workload, seed, started + seconds, workdir, m, min_passes=workload.min_passes
        )
    return m


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, m: Measurement) -> Tuple[Dict[str, float], List[str]]:
    metrics, lines = workload.summarize(m.untraced)
    metrics["setup_s"] = statistics.median(m.setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes = {
        "setup_s": f"median of {len(m.setups)} set-ups",
        "peak_rss_mb": "peak resident set of the run",
        "throughput_per_s": "this workload's bulk rate, named above",
        "latency_ms": "this workload's answer latency, named above",
    }
    for name, unit in END_TO_END.items():
        lines.append(f"{name} = {metrics[name]:.6g} {unit}  ({notes[name]})")
    return metrics, lines


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload, m: Measurement) -> Dict[str, float]:
    passes = len(m.traced)
    wall = sum(record.wall_s for record in m.traced)
    self_s = self_seconds(m.spans)
    calls = call_counts(m.spans)
    counts = count_totals(m.spans)
    values = {metric: self_s.get(span, 0.0) / passes for metric, span in SELF_TIMES.items()}
    values.update({metric: calls.get(span, 0) / passes for metric, span in CALLS.items()})
    events = counts.get("sim.events", 0.0)
    walked = counts.get("collect.periods", 0.0) - counts.get("cache.hit_periods", 0.0)
    hits = counts.get("engine.cache.hits", 0.0)
    unattributed = wall - sum(self_s.values())
    untraced_work = statistics.median(record.work_s for record in m.untraced)
    traced_work = statistics.median(record.work_s for record in m.traced)
    values.update(
        {
            "sim.events": events / passes,
            "sim.host_ns_per_event": _ratio(1e9 * self_s.get("sim.synthesize", 0.0), events),
            "core.collector.periods": walked / passes,
            "core.collector.host_us_per_period": _ratio(
                1e6 * self_s.get("core.collector.collect", 0.0), walked
            ),
            "engine.cache.hits": hits / passes,
            "engine.cache.hit_ratio": _ratio(hits, calls.get("engine.cache.get", 0)),
            "data.rows_read": counts.get("data.rows_read", 0.0) / passes,
            "unattributed_s": unattributed / passes,
            "unattributed_share": _ratio(unattributed, wall),
            "trace_overhead_share": traced_work / untraced_work - 1.0,
        }
    )
    values.update(workload.layer_metrics(m.traced, m.spans))
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER: {unknown}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def check_lines(checks) -> List[str]:
    """One line per check name, over every pass."""
    by_name: Dict[str, list] = {}
    for check in checks:
        by_name.setdefault(check.name, []).append(check)
    lines = []
    for name, group in by_name.items():
        failing = [check for check in group if not check.ok]
        shown = failing[0] if failing else group[-1]
        status = "FAILED" if failing else "ok"
        passed = len(group) - len(failing)
        lines.append(f"check {status}: {name} ({passed}/{len(group)} passes; {shown.detail})")
    return lines


def environment(repro, numpy, cleared: List[str], cpu: Optional[int]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "blas_threads": BLAS_THREADS,
        "biggerfish_env_set": sorted(n for n in os.environ if n.startswith("BIGGERFISH_")),
        "biggerfish_env_cleared": cleared,
        "trace_cache": "fresh empty directory under .perfbench-work per pass; "
        "~/.cache/biggerfish is never used",
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Run one workload of the repository benchmark."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def main(argv: Optional[List[str]] = None, catalog: Optional[dict] = None) -> int:
    """Run one workload; ``catalog`` replaces the workload table (tests pass tiny ones)."""
    args = parse_args(argv)
    cleared = prepare_environment()
    cpu = pin_to_one_cpu()
    try:
        repro = import_library(ROOT / "src")
    except StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy
    import workloads

    catalog = catalog if catalog is not None else workloads.default_workloads()
    workload = catalog.get(args.workload)
    if workload is None:
        known = ", ".join(catalog)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # stays while another run still uses it
    if args.trace:
        values = layer_metrics(workload, m)
        units = PER_LAYER
        lines = [f"{name} = {value:.6g} {units[name]}" for name, value in values.items()]
    else:
        values, lines = end_to_end(workload, m)
        units = END_TO_END
    correct = all(check.ok for check in m.checks)
    result = {
        "correct": correct,
        "attempted": sum(record.attempted for record in m.untraced + m.traced),
        "failed": sum(check.failed for check in m.checks),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(repro, numpy, cleared, cpu), sort_keys=True))
    for text in lines + check_lines(m.checks):
        print(text)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
