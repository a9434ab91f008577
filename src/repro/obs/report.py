"""The ``biggerfish report <run-dir>`` breakdown renderer.

Reads the artifacts a run leaves in its save directory and renders a
terminal breakdown.  Each fact comes from the one place it is recorded:

* ``run_manifest.json`` — per-stage wall clock, task counts and task
  spread, fault counts and per-task errors, cache hit statistics;
* ``profile.jsonl`` (a ``--profile`` run) — per-span-name totals (wall
  / self / CPU / calls / peak RSS), the run's unattributed time, the
  top-N slowest individual spans and the metrics instrumented code
  counted.  A span's self time is its wall minus what its child spans
  cover; the unattributed row is the self time of the run's top-level
  spans, the part of the run's wall no nested span explains.

``biggerfish run`` writes the manifest beside every ``profile.jsonl``;
a directory holding only the profile shows its spans and no stages.
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Sequence

from repro.engine.manifest import MANIFEST_FILENAME, MANIFEST_SCHEMA
from repro.jsondoc import read_json
from repro.obs.export import PROFILE_FILENAME, Profile, read_profile, summarize

#: Slowest-span rows printed by default.
DEFAULT_TOP_N = 10


def _format_rows(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table (kept local so obs stays dependency-light)."""
    columns = [list(col) for col in zip(header, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]

    def render(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    lines = [render(header), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:.3f}s"


def _fmt_rss(kb: int) -> str:
    return f"{kb / 1024:.1f}MB" if kb else "-"


def load_run(run_dir: pathlib.Path) -> tuple[Optional[Profile], Optional[dict]]:
    """Load ``(profile, manifest)`` from a run directory; either may be None.

    A manifest that is present but unreadable, not valid JSON, not an
    object or of another schema raises :class:`ValueError` naming its
    path; a malformed ``profile.jsonl`` line raises one naming the file
    and line.
    """
    profile = None
    manifest = None
    profile_path = run_dir / PROFILE_FILENAME
    manifest_path = run_dir / MANIFEST_FILENAME
    if profile_path.exists():
        profile = read_profile(profile_path)
    if manifest_path.exists():
        manifest = read_json(
            manifest_path,
            noun="run manifest",
            version_key="schema",
            version=MANIFEST_SCHEMA,
        )
    return profile, manifest


def format_report(
    run_dir: pathlib.Path,
    profile: Optional[Profile],
    manifest: Optional[dict],
    top_n: int = DEFAULT_TOP_N,
) -> str:
    """Render the full breakdown for one run directory."""
    lines: List[str] = [f"run: {run_dir}"]
    if manifest is not None:
        status = manifest.get("status", "ok")
        lines.append(
            f"scale={manifest.get('scale')} seed={manifest.get('seed')} "
            f"jobs={manifest.get('jobs')} status={status}"
        )
        if manifest.get("error"):
            error = manifest["error"]
            lines.append(
                f"failed in {error.get('experiment', '?')}: "
                f"{error.get('type', '?')}: {error.get('message', '')}"
            )
    summary = summarize(profile, top_n=top_n) if profile is not None else None

    lines.append("")
    lines.extend(_stage_section(manifest))
    faults_lines = _faults_section(manifest)
    if faults_lines:
        lines.append("")
        lines.extend(faults_lines)
    if summary is not None:
        lines.append("")
        lines.extend(_span_section(summary))
        lines.append("")
        lines.extend(_top_spans_section(summary, top_n))
        metrics_lines = _metrics_section(summary)
        if metrics_lines:
            lines.append("")
            lines.extend(metrics_lines)
    elif manifest is None:
        lines.append("no profile.jsonl or run_manifest.json found")
    lines.extend(_cache_section(manifest))
    return "\n".join(lines)


def _stage_section(manifest: Optional[dict]) -> List[str]:
    """Per-stage wall clock and task spread, as the manifest records them."""
    rows: List[List[str]] = []
    if manifest is not None:
        for experiment_id, record in manifest.get("experiments", {}).items():
            for stage, timing in record.get("stages", {}).items():
                spread = timing.get("task_seconds")
                rows.append(
                    [
                        experiment_id,
                        stage,
                        _fmt_seconds(timing.get("seconds", 0.0)),
                        str(timing.get("tasks", 0)),
                        _fmt_seconds(spread["min"]) if spread else "-",
                        _fmt_seconds(spread["mean"]) if spread else "-",
                        _fmt_seconds(spread["max"]) if spread else "-",
                    ]
                )
    if not rows:
        return ["(no stage timings recorded)"]
    header = ["experiment", "stage", "wall", "tasks", "task min", "mean", "max"]
    return ["per-stage breakdown:", _format_rows(header, rows)]


def _faults_section(manifest: Optional[dict]) -> List[str]:
    """Retry/timeout totals and per-task error records, when any."""
    if manifest is None:
        return []
    faults = manifest.get("faults")
    lines: List[str] = []
    if faults:
        lines.append(
            "fault tolerance: "
            f"{faults.get('retries', 0)} retried attempt(s), "
            f"{faults.get('timeouts', 0)} timeout(s), "
            f"{faults.get('tasks_lost', 0)} task(s) lost to dead workers, "
            f"{faults.get('pool_respawns', 0)} pool respawn(s)"
        )
    rows: List[List[str]] = []
    for experiment_id, record in manifest.get("experiments", {}).items():
        for stage, timing in record.get("stages", {}).items():
            for error in timing.get("task_errors", []):
                rows.append(
                    [
                        experiment_id,
                        stage,
                        str(error.get("index", "?")),
                        str(error.get("attempt", "?")),
                        error.get("kind", "?"),
                        f"{error.get('error_type', '?')}: {error.get('message', '')}"[:80],
                    ]
                )
    if rows:
        header = ["experiment", "stage", "task", "attempt", "kind", "error"]
        lines.extend(["task errors:", _format_rows(header, rows)])
    return lines


def _span_section(summary: dict) -> List[str]:
    rows = [
        [
            name,
            str(record["count"]),
            _fmt_seconds(record["wall_s"]),
            _fmt_seconds(record["self_s"]),
            _fmt_seconds(record["cpu_s"]),
            _fmt_rss(record["max_rss_kb"]),
        ]
        for name, record in sorted(
            summary["spans"].items(), key=lambda kv: -kv[1]["wall_s"]
        )
    ]
    wall, unattributed = summary["wall_s"], summary["unattributed_s"]
    share = f"{unattributed / wall:.1%}" if wall else "-"
    rows.append(["(unattributed)", "-", "-", _fmt_seconds(unattributed), "-", "-"])
    header = ["span", "count", "wall", "self", "cpu", "peak rss"]
    return [
        f"spans ({summary['events']} events from {summary['processes']} "
        f"process(es), peak rss {_fmt_rss(summary['peak_rss_kb'])}):",
        _format_rows(header, rows),
        f"run wall {_fmt_seconds(wall)} (top-level spans of the first "
        f"process), {share} of it in no nested span",
    ]


def _top_spans_section(summary: dict, top_n: int) -> List[str]:
    rows = []
    for record in summary["top_spans"][:top_n]:
        attrs = ", ".join(f"{k}={v}" for k, v in record["attrs"].items())
        rows.append(
            [record["name"], _fmt_seconds(record["wall_s"]), str(record["pid"]), attrs]
        )
    if not rows:
        return ["(no spans recorded)"]
    header = ["slowest spans", "wall", "pid", "attrs"]
    return [_format_rows(header, rows)]


def _metrics_section(summary: dict) -> List[str]:
    metrics = summary.get("metrics") or {}
    rows: List[List[str]] = []
    for name, value in metrics.get("counters", {}).items():
        rows.append([name, "counter", str(value)])
    for name, value in metrics.get("gauges", {}).items():
        rows.append([name, "gauge", f"{value:g}"])
    for name, hist in metrics.get("histograms", {}).items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        rows.append([name, "histogram", f"n={hist['count']} mean={mean:.4g}"])
    if not rows:
        return []
    return ["metrics:", _format_rows(["metric", "kind", "value"], rows)]


def _cache_section(manifest: Optional[dict]) -> List[str]:
    cache = (manifest or {}).get("cache")
    if cache is None:
        return []
    total = cache.get("hits", 0) + cache.get("misses", 0)
    rate = f" ({cache['hits'] / total:.1%} hit rate)" if total else ""
    return [
        "",
        f"cache: {cache.get('hits', 0)} hit(s), {cache.get('misses', 0)} "
        f"miss(es), {cache.get('puts', 0)} put(s), "
        f"{cache.get('evictions', 0)} eviction(s){rate}",
    ]


def report_command(run_dir: str, top_n: int = DEFAULT_TOP_N) -> tuple[int, str]:
    """Entry point for the CLI: returns ``(exit_code, rendered_text)``."""
    path = pathlib.Path(run_dir)
    if not path.is_dir():
        return 2, f"biggerfish report: not a directory: {run_dir}"
    try:
        profile, manifest = load_run(path)
    except ValueError as exc:
        return 2, f"biggerfish report: {exc}"
    if profile is None and manifest is None:
        return (
            2,
            f"biggerfish report: no {PROFILE_FILENAME} or {MANIFEST_FILENAME} "
            f"in {run_dir} (did you run with --profile --save-dir?)",
        )
    return 0, format_report(path, profile, manifest, top_n=top_n)
