"""Built-in differential oracles.

Every optimized path the repo has accumulated is paired here with its
reference semantics over seeded :class:`~repro.verify.oracle.Case`
inputs:

====================== ========== =================================================
oracle                 mode       certifies
====================== ========== =================================================
``sim.synthesize``     bit        vectorized interrupt synthesis with cores
                                  assembled on first access == retained scalar
                                  reference with eager assembly
                                  (``sim/interrupts_ref.py``)
``engine.parallel``    bit        2-worker engine collection == serial collection
``engine.trace_cache`` bit        a cache round-trip returns the stored trace
``serve.batched``      bit        micro-batched server probs == direct
                                  ``predict_proba`` over the same vectors
``ml.artifact``        bit        save→load→predict == in-memory predict
``sim.gap_timeline``   invariant  serialization identity, trusted-vs-validated
                                  gap construction, stolen-time query algebra
``timers.crossing``    invariant  monotone reads + first_crossing contract for
                                  quantized / jittered / randomized timers
``timers.jitter``      bit        jittered timer reading ε from its table ==
                                  hashing ε on every read, across table growth
                                  and fallback edges
``data.roundtrip``     bit        sharded store build -> streaming read-back ==
                                  the same collection held in memory
``collect.walk``       bit        two-phase period walk == retained per-period
                                  loop (``core/walk_ref.py``) for every timer
                                  kind, both attackers, noise off and on; plus
                                  unfloored ``count_many`` == per-period ``count``
``ml.network``         bit        paper CNN+LSTM trained a few Adam steps with the
                                  shipped conv/pool/ReLU kernels and Adam ==
                                  the retained ones (``ml/layers_ref.py``), plus
                                  layer probes on ties, NaN, ±inf and strides
====================== ========== =================================================

All callables derive every RNG stream from the case alone, so a failing
``(oracle, case)`` pair reproduces from its one-line repro command.
"""

from __future__ import annotations

import dataclasses
import itertools
import tempfile
from typing import List, Optional

import numpy as np

from repro.core.attacker import LoopCountingAttacker, SweepCountingAttacker
from repro.core.collector import NoiseHooks, TraceCollector
from repro.core.walk_ref import ReferenceTraceCollector
from repro.engine.cache import TraceCache, cache_key
from repro.engine.engine import ExecutionEngine
from repro.ml.artifact import load_artifact
from repro.ml.layers import Conv1D, MaxPool1D, ReLU
from repro.ml.layers_ref import ReferenceAdam, as_reference
from repro.ml.models import FeatureFingerprinter, build_paper_network
from repro.ml.optim import Adam
from repro.sim.events import MS, SEC
from repro.sim.frequency import FrequencyConfig
from repro.sim.interrupts_ref import ReferenceInterruptSynthesizer
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.sim.timeline import GapTimeline
from repro.timers.quantized import (
    _TABLE_FIRST_CHUNK,
    _TABLE_MAX_BUCKETS,
    JitteredTimer,
    _jitter_bit,
)
from repro.timers.spec import (
    CHROME_TIMER,
    FIREFOX_TIMER,
    NATIVE_TIMER,
    RANDOMIZED_DEFENSE_TIMER,
    TOR_TIMER,
)
from repro.verify.oracle import Case, Oracle, register
from repro.workload.browser import CHROME
from repro.workload.catalog import closed_world

#: Fixed shape of the synthetic serving/ml dataset (kept small: every
#: case retrains a model from scratch).
_ML_CLASSES = 4
_ML_DIM = 64
_ML_TRAIN_PER_CLASS = 6
_ML_EPOCHS = 12


def _horizon_ns(case: Case) -> int:
    return int(case.horizon_ms * MS)


def _case_sites(case: Case):
    return closed_world(case.sites)


def _case_browser(case: Case):
    return dataclasses.replace(CHROME, trace_seconds=case.horizon_ms / 1000.0)


# ----------------------------------------------------------------------
# sim.synthesize — vectorized synthesizer vs retained scalar reference
# ----------------------------------------------------------------------


def _core_struct(core) -> dict:
    return {
        "arrivals": core.arrivals,
        "durations": core.handler_durations,
        "type_codes": core.type_codes,
        "cause_codes": core.cause_codes,
        "cause_names": list(core.cause_names),
        "starts": core.starts,
        "ends": core.ends,
        "record_gap_index": core.record_gap_index,
        "gap_starts": core.gaps.gap_starts,
        "gap_ends": core.gaps.gap_ends,
    }


def _run_struct(run) -> dict:
    return {
        "cores": [_core_struct(core) for core in run.cores],
        "frequency_boundaries": run.frequency.boundaries_ns,
        "frequency_ghz": run.frequency.ghz,
        "occupancy_times": run.occupancy_times,
        "occupancy_victim": run.occupancy_victim,
        "occupancy_ambient": run.occupancy_ambient,
    }


def _synthesize_with(case: Case, synthesizer_cls) -> List[dict]:
    config = MachineConfig()
    horizon = _horizon_ns(case)
    runs = []
    for site in _case_sites(case):
        timeline = site.generate_load(
            np.random.default_rng(case.seed * 7_919 + site.seed), horizon
        )
        run = synthesizer_cls(config).synthesize(
            timeline,
            style=site.style,
            rng=np.random.default_rng(case.seed * 1_000_003 + site.seed),
        )
        runs.append(_run_struct(run))
    return runs


def _synthesize_reference(case: Case) -> List[dict]:
    return _synthesize_with(case, ReferenceInterruptSynthesizer)


def _synthesize_optimized(case: Case) -> List[dict]:
    return _synthesize_with(case, InterruptSynthesizer)


# ----------------------------------------------------------------------
# engine.parallel — parallel engine collection vs serial collection
# ----------------------------------------------------------------------


def _trace_struct(trace) -> dict:
    return {
        "observed_starts": trace.observed_starts,
        "counters": trace.counters,
        "label": trace.label,
        "attacker": trace.attacker,
        "horizon_ns": float(trace.spec.horizon_ns),
        "period_ns": float(trace.spec.period_ns),
    }


def _collect_traces(case: Case, jobs: int) -> List[dict]:
    engine = ExecutionEngine(jobs=jobs) if jobs > 1 else None
    collector = TraceCollector(
        MachineConfig(),
        _case_browser(case),
        seed=case.seed,
        engine=engine,
        cache=None,
    )
    batch = collector.collect(_case_sites(case), case.traces)
    return [_trace_struct(trace) for trace in batch]


def _collect_serial(case: Case) -> List[dict]:
    return _collect_traces(case, jobs=1)


def _collect_parallel(case: Case) -> List[dict]:
    return _collect_traces(case, jobs=2)


# ----------------------------------------------------------------------
# engine.trace_cache — cache hit vs the trace that was stored
# ----------------------------------------------------------------------


def _collect_one_trace(case: Case):
    collector = TraceCollector(
        MachineConfig(), _case_browser(case), seed=case.seed, cache=None
    )
    return collector.collect(_case_sites(case)[:1], 1)[0]


def _cache_reference(case: Case) -> dict:
    return _trace_struct(_collect_one_trace(case))


def _cache_optimized(case: Case) -> dict:
    trace = _collect_one_trace(case)
    with tempfile.TemporaryDirectory(prefix="biggerfish-verify-") as tmp:
        cache = TraceCache(tmp, max_bytes=1 << 30)
        key = cache_key({"verify": "trace_cache", "case": case.as_dict()})
        cache.put(key, trace)
        loaded = cache.get(key)
    if loaded is None:
        raise RuntimeError("trace cache lost a freshly-written entry")
    return _trace_struct(loaded)


# ----------------------------------------------------------------------
# serve.batched / ml.artifact — model paths
# ----------------------------------------------------------------------


def _ml_dataset(case: Case):
    """Seeded synthetic (train, eval) matrices with class structure."""
    rng = np.random.default_rng(case.seed * 104_729 + 17)
    profiles = rng.normal(0.0, 0.3, size=(_ML_CLASSES, _ML_DIM))
    x_train = np.concatenate(
        [
            1.0 + profiles[c] + rng.normal(0.0, 0.05, size=(_ML_TRAIN_PER_CLASS, _ML_DIM))
            for c in range(_ML_CLASSES)
        ]
    )
    y_train = np.repeat(np.arange(_ML_CLASSES), _ML_TRAIN_PER_CLASS)
    n_eval = max(2 * case.traces, 4)
    eval_classes = rng.integers(0, _ML_CLASSES, size=n_eval)
    x_eval = 1.0 + profiles[eval_classes] + rng.normal(
        0.0, 0.05, size=(n_eval, _ML_DIM)
    )
    return x_train, y_train, x_eval


def _ml_model(case: Case):
    x_train, y_train, _ = _ml_dataset(case)
    model = FeatureFingerprinter(seed=case.seed & 0x7FFFFFFF, epochs=_ML_EPOCHS)
    return model.fit(x_train, y_train, _ML_CLASSES)


def _serve_direct(case: Case) -> dict:
    _, _, x_eval = _ml_dataset(case)
    model = _ml_model(case)
    return {"probs": model.predict_proba(x_eval)}


def _serve_batched(case: Case) -> dict:
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import FingerprintServer

    _, _, x_eval = _ml_dataset(case)
    model = _ml_model(case)
    classes = [f"site{i}.example" for i in range(_ML_CLASSES)]
    with tempfile.TemporaryDirectory(prefix="biggerfish-verify-") as tmp:
        artifact = f"{tmp}/model"
        model.save(artifact, classes=classes, provenance={"verify": case.as_dict()})
        registry = ModelRegistry()
        registry.add("default", artifact)
        # One batch for everything: batched == direct bit-identity holds
        # per predict_proba call, so the oracle forces a single call.
        with FingerprintServer(
            registry, max_batch=len(x_eval), max_wait_ms=100.0
        ) as server:
            results = server.predict_many(list(x_eval))
    failed = [r for r in results if not r.ok]
    if failed:
        raise RuntimeError(f"serve oracle request failed: {failed[0].error}")
    return {"probs": np.stack([r.probs for r in results])}


def _artifact_memory(case: Case) -> dict:
    _, _, x_eval = _ml_dataset(case)
    return {"probs": _ml_model(case).predict_proba(x_eval)}


def _artifact_roundtrip(case: Case) -> dict:
    _, _, x_eval = _ml_dataset(case)
    model = _ml_model(case)
    classes = [f"site{i}.example" for i in range(_ML_CLASSES)]
    with tempfile.TemporaryDirectory(prefix="biggerfish-verify-") as tmp:
        artifact = f"{tmp}/model"
        model.save(artifact, classes=classes, provenance={"verify": case.as_dict()})
        loaded = load_artifact(artifact)
        probs = loaded.predict_proba(x_eval)
    return {"probs": probs}


# ----------------------------------------------------------------------
# sim.gap_timeline — merge/query invariants
# ----------------------------------------------------------------------


def _check_gap_timeline(case: Case) -> Optional[str]:
    site = _case_sites(case)[0]
    horizon = _horizon_ns(case)
    timeline = site.generate_load(
        np.random.default_rng(case.seed * 7_919 + site.seed), horizon
    )
    run = InterruptSynthesizer(MachineConfig()).synthesize(
        timeline,
        style=site.style,
        rng=np.random.default_rng(case.seed * 1_000_003 + site.seed),
    )
    core = run.attacker_timeline
    if len(core) == 0:
        return "attacker core timeline is empty; nothing to verify"

    # 1. Serialization identity: the vectorized cumsum form must match a
    #    scalar recurrence (allclose — the float op order differs).
    starts_ref = np.empty(len(core))
    ends_ref = np.empty(len(core))
    prev_end = -np.inf
    for i in range(len(core)):
        start = max(core.arrivals[i], prev_end)
        prev_end = start + core.handler_durations[i]
        starts_ref[i] = start
        ends_ref[i] = prev_end
    if not np.allclose(core.starts, starts_ref, rtol=1e-9, atol=1e-3):
        worst = int(np.argmax(np.abs(core.starts - starts_ref)))
        return (
            f"serialize_handlers diverges from scalar recurrence at record "
            f"{worst}: {core.starts[worst]} vs {starts_ref[worst]}"
        )
    if not np.allclose(core.ends, ends_ref, rtol=1e-9, atol=1e-3):
        return "serialize_handlers end times diverge from scalar recurrence"

    # 2. Trusted construction == validated construction.
    gaps = core.gaps
    validated = GapTimeline(gaps.gap_starts, gaps.gap_ends)  # raises if malformed
    if not np.array_equal(validated._cum_before, gaps._cum_before):
        return "trusted GapTimeline prefix sums differ from validated construction"

    # 3. stolen_before: nondecreasing, bounded, and equal to a brute-force
    #    overlap sum on a deterministic probe grid.
    grid = np.linspace(0.0, float(horizon), 257)
    stolen = gaps.stolen_before(grid)
    if np.any(np.diff(stolen) < -1e-6):
        return "stolen_before is not monotone nondecreasing"
    brute = np.array(
        [
            float(
                np.sum(
                    np.clip(
                        np.minimum(gaps.gap_ends, t) - gaps.gap_starts, 0.0, None
                    )
                )
            )
            for t in grid
        ]
    )
    if not np.allclose(stolen, brute, rtol=1e-9, atol=1e-3):
        worst = int(np.argmax(np.abs(stolen - brute)))
        return (
            f"stolen_before({grid[worst]:.0f}) = {stolen[worst]} but brute-force "
            f"overlap sum is {brute[worst]}"
        )
    if stolen[-1] > gaps.total_stolen_ns + 1e-3:
        return "stolen_before(horizon) exceeds total_stolen_ns"

    # 4. Interval algebra: executed + stolen partitions every window.
    probe_rng = np.random.default_rng(case.seed + 5)
    for _ in range(16):
        t0, t1 = np.sort(probe_rng.uniform(0.0, float(horizon), 2))
        executed = gaps.executed_between(t0, t1)
        stolen_between = gaps.stolen_between(t0, t1)
        if not np.isclose(executed + stolen_between, t1 - t0, rtol=1e-9, atol=1e-3):
            return (
                f"executed_between + stolen_between != window length on "
                f"[{t0:.0f}, {t1:.0f})"
            )
        if stolen_between < -1e-6 or stolen_between > (t1 - t0) + 1e-6:
            return f"stolen_between out of [0, window] on [{t0:.0f}, {t1:.0f})"

    # 5. Gap lookup consistency on every gap midpoint.
    for idx in range(len(gaps)):
        mid = 0.5 * (gaps.gap_starts[idx] + gaps.gap_ends[idx])
        if gaps.gap_ends[idx] > gaps.gap_starts[idx]:
            if gaps.gap_index_at(mid) != idx:
                return f"gap_index_at(midpoint of gap {idx}) != {idx}"
            if gaps.next_execution_time(mid) != gaps.gap_ends[idx]:
                return f"next_execution_time inside gap {idx} is not its end"

    # 6. Record/gap partition: every record maps into exactly one gap.
    sizes = [len(core.records_in_gap(g)) for g in range(len(gaps))]
    if sum(sizes) != len(core):
        return "records_in_gap does not partition the record set"
    if np.any(np.diff(core.record_gap_index) < 0):
        return "record_gap_index is not nondecreasing"
    return None


# ----------------------------------------------------------------------
# timers.crossing — monotonicity + crossing contract
# ----------------------------------------------------------------------

_TIMER_SPECS = (
    ("jittered", CHROME_TIMER),
    ("quantized", FIREFOX_TIMER),
    ("randomized", RANDOMIZED_DEFENSE_TIMER),
)
_CROSSING_ELAPSED_NS = 5.0 * MS
_SCAN_STEP_NS = 0.05 * MS
_SCAN_LIMIT_NS = 500.0 * MS


def _check_one_timer(kind: str, spec, seed: int) -> Optional[str]:
    timer = spec.build(seed=seed)
    timer.reset()
    # Monotone reads over an increasing grid.
    last = -np.inf
    for t in np.linspace(0.0, 50.0 * MS, 201):
        value = timer.read(float(t))
        if value < last:
            return f"{kind}: read() decreased at t={t:.0f}ns"
        last = value
    # Crossing contract from t0 = 0.
    timer = spec.build(seed=seed)
    timer.reset()
    start_value = timer.read(0.0)
    crossing = timer.first_crossing(0.0, _CROSSING_ELAPSED_NS)
    if crossing < 0.0:
        return f"{kind}: first_crossing returned {crossing} < t0"
    # Read-after-crossing: intermediate queries must stay legal and the
    # walked state consistent with a timer that never peeked ahead.
    fresh = spec.build(seed=seed)
    fresh.reset()
    fresh.read(0.0)
    for t in (crossing / 2, crossing, crossing + 7.0 * MS):
        try:
            walked_value = timer.read(t)
        except ValueError as exc:
            return f"{kind}: read({t:.0f}) after first_crossing raised {exc}"
        if walked_value != fresh.read(t):
            return (
                f"{kind}: state walked by first_crossing diverges from a "
                f"fresh timer at t={t:.0f}ns"
            )
    # The crossing satisfies the elapsed contract...
    check = spec.build(seed=seed)
    check.reset()
    if check.read(crossing) - start_value < _CROSSING_ELAPSED_NS:
        return (
            f"{kind}: observed elapsed at crossing "
            f"{check.read(crossing) - start_value:.0f}ns < requested "
            f"{_CROSSING_ELAPSED_NS:.0f}ns"
        )
    # ...and is minimal up to the scan step: a brute-force walk on an
    # independent instance must not cross earlier.
    probe = spec.build(seed=seed)
    probe.reset()
    base = probe.read(0.0)
    scan = None
    for t in np.arange(0.0, _SCAN_LIMIT_NS, _SCAN_STEP_NS):
        if probe.read(float(t)) - base >= _CROSSING_ELAPSED_NS:
            scan = float(t)
            break
    if scan is None:
        return f"{kind}: brute-force scan never observed the crossing"
    if scan + 1e-6 < crossing:
        return (
            f"{kind}: first_crossing={crossing:.0f}ns but a scan observed the "
            f"crossing at {scan:.0f}ns"
        )
    if scan - crossing > _SCAN_STEP_NS + 1e-6:
        return (
            f"{kind}: first_crossing={crossing:.0f}ns is earlier than any "
            f"observable crossing (scan found {scan:.0f}ns)"
        )
    return None


def _check_timers(case: Case) -> Optional[str]:
    for kind, spec in _TIMER_SPECS:
        failure = _check_one_timer(kind, spec, seed=case.seed)
        if failure:
            return failure
    return None


# ----------------------------------------------------------------------
# timers.jitter — ε table vs hashing every read
# ----------------------------------------------------------------------

#: Chrome's Δ, 1 ms, and a Δ that is not a whole number of nanoseconds.
_JITTER_DELTAS_NS = (0.1 * MS, 1.0 * MS, 33_333.3)
_JITTER_SPAN_NS = (-1.0 * SEC, 20.0 * SEC)
_JITTER_INSTANTS = 64


class _HashedJitteredTimer(JitteredTimer):
    """The jittered timer with ε hashed on every read: the table's reference.

    Only ``_epsilon_ns`` fills the table, so this timer never has one.
    """

    def _epsilon_ns(self, bucket: int) -> float:
        return _jitter_bit(bucket, self.seed) * self.delta_ns


def _jitter_probes(case: Case, delta_ns: float) -> List[float]:
    """Seeded instants in the span, then ±1 ns around every bucket where
    the table starts, doubles or stops (the last edge falls back to the
    hash)."""
    rng = np.random.default_rng([case.seed, int(delta_ns)])
    probes = rng.uniform(*_JITTER_SPAN_NS, _JITTER_INSTANTS).tolist()
    edge = _TABLE_FIRST_CHUNK
    edges = [0]
    while edge <= _TABLE_MAX_BUCKETS:
        edges.append(edge)
        edge *= 2
    for bucket in edges:
        probes += [bucket * delta_ns - 1.0, bucket * delta_ns + 1.0]
    return probes


def _jitter_reads(case: Case, timer_cls) -> dict:
    seeds = (case.seed, int(np.random.default_rng(case.seed).integers(2**40)), 2**40)
    reads = {}
    for delta_ns in _JITTER_DELTAS_NS:
        probes = _jitter_probes(case, delta_ns)
        for seed in seeds:
            timer = timer_cls(delta_ns, seed=seed)
            reads[f"delta={delta_ns:g} seed={seed}"] = {
                "read": np.array([timer.read(t) for t in probes]),
                "first_crossing": np.array(
                    [timer.first_crossing(t, _CROSSING_ELAPSED_NS) for t in probes]
                ),
            }
    return reads


def _jitter_reference(case: Case) -> dict:
    return _jitter_reads(case, _HashedJitteredTimer)


def _jitter_optimized(case: Case) -> dict:
    return _jitter_reads(case, JitteredTimer)


# ----------------------------------------------------------------------
# data.roundtrip — sharded store build + streaming read vs memory
# ----------------------------------------------------------------------


def _data_config(case: Case):
    from repro.data.manifest import DatasetConfig

    return DatasetConfig(
        n_sites=case.sites,
        traces_per_site=case.traces,
        trace_seconds=case.horizon_ms / 1000.0,
        seed=case.seed,
    )


def _data_memory(case: Case) -> dict:
    """The collection the store should hold, straight from the collector."""
    from repro.data.writer import collector_for, config_sites

    config = _data_config(case)
    collector = collector_for(config)
    x, labels = collector.collect(
        config_sites(config), config.traces_per_site
    ).stacked()
    return {"x": x, "labels": list(labels)}


def _data_streamed(case: Case) -> dict:
    """Build a maximally-sharded store, stream it back, restore row order.

    ``shard_sites=1`` forces one shard per site so the round trip crosses
    as many shard boundaries as the case allows; reading goes through the
    seeded streaming iterator (odd batch size, so partial batches are
    exercised) and the permutation is inverted afterwards — certifying
    the writer, the mmap reader, the batch gather and the global row
    order in one comparison.
    """
    from repro.data.reader import ShardedDataset
    from repro.data.writer import build_dataset

    config = _data_config(case)
    with tempfile.TemporaryDirectory(prefix="biggerfish-verify-") as tmp:
        store_dir = f"{tmp}/store"
        build_dataset(store_dir, config, shard_sites=1)
        store = ShardedDataset(store_dir)
        x = np.empty((store.n_rows, store.trace_length))
        labels = np.empty(store.n_rows, dtype=store.labels.dtype)
        order = store.stream_order(case.seed)
        cursor = 0
        for batch_x, batch_labels in store.stream_batches(3, seed=case.seed):
            rows = order[cursor : cursor + len(batch_x)]
            x[rows] = batch_x
            labels[rows] = batch_labels
            cursor += len(batch_x)
    if cursor != store.n_rows:
        raise RuntimeError(f"streamed {cursor} of {store.n_rows} rows")
    return {"x": x, "labels": [str(label) for label in labels]}


# ----------------------------------------------------------------------
# collect.walk — two-phase period walk vs the retained per-period loop
# ----------------------------------------------------------------------

#: Precise, quantized 1 ms, quantized 100 ms, jittered, randomized.
_WALK_TIMERS = (
    NATIVE_TIMER,
    FIREFOX_TIMER,
    TOR_TIMER,
    CHROME_TIMER,
    RANDOMIZED_DEFENSE_TIMER,
)
_WALK_ATTACKERS = (LoopCountingAttacker(), SweepCountingAttacker())
_WALK_NOISE = (0.0, CHROME.measurement_noise)
#: One fixed frequency at which NumPy's array ``**`` and Python's scalar
#: ``**`` disagree on the sweep attacker's frequency factor.
_PINNED_MACHINE = MachineConfig(
    frequency=FrequencyConfig(scaling_enabled=False, pinned_ghz=2.0)
)


def _walk_runs(case: Case, machine: MachineConfig):
    """``(trace seed, run)`` for every site and trace index of the case."""
    collector = TraceCollector(machine, _case_browser(case), seed=case.seed)
    for site in _case_sites(case):
        for k in range(case.traces):
            seed = (case.seed * 1_000_003 + site.seed * 7_919 + k) & 0x7FFFFFFF
            run = collector._simulate(site, np.random.default_rng(seed), NoiseHooks())
            yield seed, run


def _walks(case: Case, collector_cls) -> List[dict]:
    """Walk each run under every timer x attacker x noise combination."""
    browser = _case_browser(case)
    configs = list(itertools.product(_WALK_TIMERS, _WALK_ATTACKERS, _WALK_NOISE))
    walks = []
    for seed, run in _walk_runs(case, MachineConfig()):
        for i, (timer, attacker, noise) in enumerate(configs):
            collector = collector_cls(
                MachineConfig(),
                dataclasses.replace(browser, measurement_noise=noise),
                attacker=attacker,
                timer=timer,
                seed=case.seed,
            )
            rng = np.random.default_rng([seed, i])
            trace = collector._walk_periods(run, timer.build(seed=seed), rng, "walk")
            walks.append(
                {
                    "observed_starts": trace.observed_starts,
                    "counters": trace.counters,
                    "rng_state": rng.bit_generator.state,
                }
            )
    return walks


def _count_probes(case: Case):
    """Period-grid ``(seed, run, begins, exec_ns)`` on the pinned machine."""
    horizon = float(_horizon_ns(case))
    period = 5.0 * MS
    for seed, run in _walk_runs(case, _PINNED_MACHINE):
        gaps = run.attacker_timeline.gaps
        begins = np.arange(0.0, horizon, period)
        exec_ns = np.array(
            [gaps.executed_between(t, min(t + period, horizon)) for t in begins]
        )
        yield seed, run, begins, exec_ns


def _walk_reference(case: Case) -> dict:
    counts = []
    for seed, run, begins, exec_ns in _count_probes(case):
        for attacker in _WALK_ATTACKERS:
            rng = np.random.default_rng(seed)
            counts.append(
                np.array(
                    [
                        attacker.count(e, t, run, rng)
                        for e, t in zip(exec_ns.tolist(), begins.tolist())
                    ]
                )
            )
    return {"walks": _walks(case, ReferenceTraceCollector), "counts": counts}


def _walk_optimized(case: Case) -> dict:
    counts = []
    for seed, run, begins, exec_ns in _count_probes(case):
        for attacker in _WALK_ATTACKERS:
            scales = attacker.draw_scales
            draws = np.random.default_rng(seed).normal(
                0.0, scales, size=(len(begins), len(scales))
            )
            counts.append(attacker.count_many(exec_ns, begins, run, draws))
    return {"walks": _walks(case, TraceCollector), "counts": counts}


# ----------------------------------------------------------------------
# ml.network — the network's layer kernels vs the retained reference
# ----------------------------------------------------------------------

#: Small widths keep a case cheap; no kernel branches on width.
_NET_FILTERS = 6
_NET_UNITS = 5
_NET_STEPS = 3
#: The shortest input the paper network takes: the first conv (kernel 8,
#: stride 3) must leave one block for the first pool (4).
_NET_MIN_LENGTH = 17
#: Pool-probe values: -0.0/+0.0 ties, ties of equal numbers, infinities.
_POOL_VALUES = (-0.0, 0.0, 1.0, -1.0, 2.0, np.inf, -np.inf)
#: Conv probes: strides below, at and above a kernel of 3, on one input
#: channel and on several.
_CONV_KERNEL = 3
_CONV_STRIDES = (2, 3, 4)
_CONV_CHANNELS = (1, 3)


def _network_shape(case: Case):
    """``(classes, rows per step, input length)``: one class more than the
    case's sites, one row more than its traces, and one sample per
    millisecond of horizon past the shortest input, so the shrinker's
    floor case is still a valid network."""
    return case.sites + 1, case.traces + 1, _NET_MIN_LENGTH + int(case.horizon_ms)


def _kernels(layer, reference: bool):
    """``layer`` as shipped, or switched in place to the reference kernels."""
    return as_reference(layer) if reference else layer


def _copies(arrays) -> dict:
    return {f"{index}.{name}": array.copy() for (index, name), array in arrays.items()}


def _outputs(network, x, training: bool) -> list:
    """Every layer's output, in order, for one forward pass."""
    outputs = []
    for layer in network.layers:
        x = layer.forward(x, training=training)
        outputs.append(x.copy())
    return outputs


def _train_step(network, optimizer, x, labels) -> dict:
    """``Sequential.train_batch`` one layer at a time, recording every
    output, input gradient, parameter gradient and updated parameter."""
    activations = _outputs(network, x, training=True)
    loss = network.loss.forward(activations[-1], labels)
    grad = network.loss.backward()
    input_grads = []
    for layer in reversed(network.layers):
        grad = layer.backward(grad)
        input_grads.insert(0, grad.copy())
    optimizer.step(network.parameters(), network.gradients())
    return {
        "loss": loss,
        "activations": activations,
        "input_grads": input_grads,
        "grads": _copies(network.gradients()),
        "params": _copies(network.parameters()),
    }


def _train_network(case: Case, reference: bool) -> dict:
    classes, rows, length = _network_shape(case)
    network = build_paper_network(
        length,
        classes,
        np.random.default_rng([case.seed, 0x1157]),
        conv_filters=_NET_FILTERS,
        lstm_units=_NET_UNITS,
    )
    for layer in network.layers:
        _kernels(layer, reference)
    optimizer = ReferenceAdam() if reference else Adam()
    rng = np.random.default_rng([case.seed, 0xDA7A])
    steps = [
        _train_step(
            network,
            optimizer,
            rng.normal(size=(rows, length, 1)),
            rng.integers(0, classes, size=rows),
        )
        for _ in range(_NET_STEPS)
    ]
    x_eval = rng.normal(size=(rows, length, 1))
    return {
        "steps": steps,
        "activations": _outputs(network, x_eval, training=False),
        "probs": network.predict_proba(x_eval),
    }


def _pool_probes(case: Case, reference: bool) -> dict:
    """Pools of 1 to 4 on blocks of ties and infinities, with and without
    NaN, and on a ReLU's output; every input has a cropped remainder."""
    rng = np.random.default_rng([case.seed, 0x9001])
    probes = {}
    for pool in (1, 2, 3, 4):
        length = 5 * pool + pool - 1
        special = rng.choice(_POOL_VALUES, size=(2, length, 3))
        with_nan = np.where(rng.random(special.shape) < 0.2, np.nan, special)
        rectified = _kernels(ReLU(), reference).forward(rng.normal(size=(2, length, 3)))
        inputs = {"special": special, "nan": with_nan, "relu": rectified}
        for name, x in inputs.items():
            layer = _kernels(MaxPool1D(pool), reference)
            out = layer.forward(x)
            grad = np.where(rng.random(out.shape) < 0.2, -0.0, rng.normal(size=out.shape))
            probes[f"pool={pool} {name}"] = {"out": out, "dx": layer.backward(grad)}
    return probes


def _conv_probes(case: Case, reference: bool) -> dict:
    """Convolutions with strides below, at and above the kernel, on one
    input channel and on several."""
    rng = np.random.default_rng([case.seed, 0xC0117])
    probes = {}
    for channels, stride in itertools.product(_CONV_CHANNELS, _CONV_STRIDES):
        layer = _kernels(Conv1D(channels, 4, _CONV_KERNEL, stride, rng), reference)
        out = layer.forward(rng.normal(size=(2, 17, channels)))
        dx = layer.backward(rng.normal(size=out.shape))
        probes[f"channels={channels} stride={stride}"] = {
            "out": out, "dx": dx, "dW": layer.dW, "db": layer.db,
        }
    return probes


def _network_with(case: Case, reference: bool) -> dict:
    return {
        "network": _train_network(case, reference),
        "pool": _pool_probes(case, reference),
        "conv": _conv_probes(case, reference),
    }


def _network_reference(case: Case) -> dict:
    return _network_with(case, reference=True)


def _network_optimized(case: Case) -> dict:
    return _network_with(case, reference=False)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------

register(
    Oracle(
        name="sim.synthesize",
        description=(
            "vectorized InterruptSynthesizer, cores assembled on first access, "
            "vs the retained scalar reference with eager assembly "
            "(sim/interrupts_ref.py), every core array bit-identical"
        ),
        mode="bit",
        reference=_synthesize_reference,
        optimized=_synthesize_optimized,
    )
)

register(
    Oracle(
        name="engine.parallel",
        description=(
            "TraceCollector.collect through a 2-worker ExecutionEngine vs "
            "the same collection run serially"
        ),
        mode="bit",
        reference=_collect_serial,
        optimized=_collect_parallel,
    )
)

register(
    Oracle(
        name="engine.trace_cache",
        description="a TraceCache put/get round-trip vs the trace it stored",
        mode="bit",
        reference=_cache_reference,
        optimized=_cache_optimized,
    )
)

register(
    Oracle(
        name="serve.batched",
        description=(
            "FingerprintServer micro-batched probabilities vs direct "
            "predict_proba over the same vectors in one call"
        ),
        mode="bit",
        reference=_serve_direct,
        optimized=_serve_batched,
    )
)

register(
    Oracle(
        name="ml.artifact",
        description="model save -> load -> predict vs in-memory predict",
        mode="bit",
        reference=_artifact_memory,
        optimized=_artifact_roundtrip,
    )
)

register(
    Oracle(
        name="sim.gap_timeline",
        description=(
            "GapTimeline construction and stolen-time query algebra on a "
            "synthesized attacker core"
        ),
        mode="invariant",
        check=_check_gap_timeline,
    )
)

register(
    Oracle(
        name="data.roundtrip",
        description=(
            "sharded store build -> seeded streaming read-back vs the same "
            "collection held in memory, rows and labels bit-identical"
        ),
        mode="bit",
        reference=_data_memory,
        optimized=_data_streamed,
    )
)

register(
    Oracle(
        name="collect.walk",
        description=(
            "two-phase TraceCollector period walk vs the retained per-period "
            "loop (core/walk_ref.py): observed starts, counters and RNG state "
            "for 5 timers x 2 attackers x noise off/on, plus unfloored "
            "count_many vs count at a pinned 2.0 GHz"
        ),
        mode="bit",
        reference=_walk_reference,
        optimized=_walk_optimized,
    )
)

register(
    Oracle(
        name="timers.crossing",
        description=(
            "monotone reads and the first_crossing contract for the "
            "jittered, quantized and randomized timers"
        ),
        mode="invariant",
        check=_check_timers,
    )
)

register(
    Oracle(
        name="timers.jitter",
        description=(
            "JitteredTimer reading ε from its byte table vs hashing ε on every "
            "read: read(t) and first_crossing(t, 5 ms) at seeded instants in "
            "[-1 s, 20 s] and ±1 ns around each table growth edge, for three "
            "resolutions and seeds up to 2**40"
        ),
        mode="bit",
        reference=_jitter_reference,
        optimized=_jitter_optimized,
    )
)

register(
    Oracle(
        name="ml.network",
        description=(
            "the paper CNN+LSTM at small widths trained a few Adam steps with "
            "the shipped Conv1D, MaxPool1D, ReLU and Adam vs the retained ones "
            "(ml/layers_ref.py): every loss, activation, input and parameter "
            "gradient, parameter and final predict_proba; plus pool probes on "
            "ties, NaN and ±inf and conv probes at strides below, at and above "
            "the kernel"
        ),
        mode="bit",
        reference=_network_reference,
        optimized=_network_optimized,
    )
)
