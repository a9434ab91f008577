"""Profile exporters: spool merging, JSONL log, SVG timeline, summary.

A profiled run leaves a spool directory of per-process files,
``obs-<pid>-<random>.jsonl``: one line per completed span and, whenever
they changed, a line of the process's running metric totals.  This
module merges them into a :class:`Profile`, which then renders three
ways:

* ``profile.jsonl`` — the merged event log (spans in start order, one
  trailing merged-metrics line), the durable artifact next to
  ``run_manifest.json``;
* an SVG timeline — one lane block per process, spans drawn as
  depth-stacked rectangles via the existing :mod:`repro.viz.svg`
  primitives (a flame view of where the run's wall clock went);
* a summary dict — per-span-name totals, the slowest spans, peak RSS
  and the merged metrics — folded into the run manifest under
  ``"profile"``.

The profile holds what only profiling sees: spans and the metrics
instrumented code counts in its own process.  Stage timings, cache
counts and fault counts live once, in the manifest blocks the engine
and cache fill (``experiments``, ``cache``, ``faults``).

Everything here is timestamp-deterministic: the same run produces the
same events modulo clock readings, and merging sorts on recorded fields
only.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import merge_totals

#: Merged event-log file name written inside ``--save-dir``.
PROFILE_FILENAME = "profile.jsonl"
#: SVG timeline file name written inside ``--save-dir``.
TIMELINE_FILENAME = "profile_timeline.svg"


@dataclass
class Profile:
    """Merged view of one run's spans and metrics."""

    spans: List[dict] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def pids(self) -> List[int]:
        """Participating process ids, parent first (earliest span wins)."""
        seen: Dict[int, float] = {}
        for event in self.spans:
            pid = event["pid"]
            if pid not in seen or event["t_start"] < seen[pid]:
                seen[pid] = event["t_start"]
        return [pid for pid, _ in sorted(seen.items(), key=lambda kv: kv[1])]

    def t_origin(self) -> float:
        """Wall-clock origin: the earliest span start."""
        return min((e["t_start"] for e in self.spans), default=0.0)


def merge_spool(spool_dir: os.PathLike) -> Profile:
    """Merge every per-process spool file into one :class:`Profile`."""
    return _load(sorted(pathlib.Path(spool_dir).glob("obs-*.jsonl")))


#: The Python types each JSON type the checks name parses to.
_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "array": list, "object": dict}
#: JSON type of each span field that summarize and render_timeline read.
_SPAN_FIELDS = {
    "name": "string",
    "pid": "integer",
    "span_id": "integer",
    "depth": "integer",
    "t_start": "number",
    "wall_s": "number",
    "cpu_s": "number",
    "rss_peak_kb": "number",
    "attrs": "object",
}
#: JSON type of the values in each section of a metrics line.
_METRIC_SECTIONS = {"counters": "number", "gauges": "number", "histograms": "object"}
#: JSON type of each histogram field that merging and the report read.
_HISTOGRAM_FIELDS = {"buckets": "array", "counts": "array", "sum": "number", "count": "integer"}


def _require(value, json_type: str, what: str) -> None:
    if not isinstance(value, _JSON_TYPES[json_type]) or isinstance(value, bool):
        raise ValueError(f"{what} is not a JSON {json_type}")


def _require_fields(obj: dict, fields: dict, what: str) -> None:
    for key, json_type in fields.items():
        _require(obj.get(key), json_type, f"{what} {key!r}")


def _check(event, where: str) -> str:
    """The line's type; ValueError naming ``where`` for a line the readers would trip over."""
    _require(event, "object", f"{where}: the line")
    kind = event.get("type")
    if kind == "span":
        _require_fields({"attrs": {}, **event}, _SPAN_FIELDS, f"{where}: span field")
    elif kind == "metrics":
        for key, json_type in _METRIC_SECTIONS.items():
            section = event.get(key, {})
            _require(section, "object", f"{where}: metrics field {key!r}")
            for name, value in section.items():
                what = f"{where}: metric {name!r}"
                _require(value, json_type, what)
                if key == "histograms":
                    _require_fields(value, _HISTOGRAM_FIELDS, f"{what} field")
                    for cell in value["buckets"] + value["counts"]:
                        _require(cell, "number", f"{what} cell")
    else:
        raise ValueError(f"{where}: unknown line type {kind!r}")
    return kind


def _load(paths: Iterable[pathlib.Path]) -> Profile:
    """Every span of ``paths`` in start order and the sum of each file's last
    metrics line: the one reader of spool files and ``profile.jsonl``."""
    spans: List[dict] = []
    last_lines: List[dict] = []
    for path in paths:
        last = None
        try:
            lines = pathlib.Path(path).read_bytes().splitlines()
        except OSError as error:
            raise ValueError(f"{path}: cannot read ({error})") from error
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            where = f"{path}:{number}"
            try:
                event = json.loads(line)
            except ValueError as error:
                raise ValueError(f"{where}: {error}") from error
            if _check(event, where) == "span":
                spans.append(event)
            else:
                last = event
        if last is not None:
            last_lines.append(last)
    spans.sort(key=lambda e: (e["t_start"], e["pid"], e["span_id"]))
    return Profile(spans=spans, metrics=merge_totals(last_lines))


# ----------------------------------------------------------------------
# profile.jsonl


def write_profile(profile: Profile, path: os.PathLike) -> pathlib.Path:
    """Write the merged event log: spans, then one metrics line."""
    path = pathlib.Path(path)
    with open(path, "w") as handle:
        for event in profile.spans:
            handle.write(json.dumps(event) + "\n")
        handle.write(
            json.dumps({"type": "metrics", "merged": True, **profile.metrics}) + "\n"
        )
    return path


def read_profile(path: os.PathLike) -> Profile:
    """Load a ``profile.jsonl``; a malformed line raises ValueError naming its file and line."""
    return _load([pathlib.Path(path)])


# ----------------------------------------------------------------------
# summary (run_manifest.json's "profile" block)


def summarize(profile: Profile, top_n: int = 5) -> dict:
    """Condense a profile into the manifest's ``"profile"`` block.

    ``spans`` aggregates by span name (count / wall / CPU / max peak
    RSS); ``top_spans`` lists the slowest individual spans.  Stage
    timings, cache and fault counts are not repeated here: the engine
    and cache record them once, in the manifest's ``experiments``,
    ``cache`` and ``faults`` blocks.
    """
    by_name: Dict[str, dict] = {}
    peak_rss = 0
    for event in profile.spans:
        entry = by_name.setdefault(
            event["name"],
            {"count": 0, "wall_s": 0.0, "cpu_s": 0.0, "max_rss_kb": 0},
        )
        entry["count"] += 1
        entry["wall_s"] = round(entry["wall_s"] + event["wall_s"], 6)
        entry["cpu_s"] = round(entry["cpu_s"] + event["cpu_s"], 6)
        entry["max_rss_kb"] = max(entry["max_rss_kb"], event["rss_peak_kb"])
        peak_rss = max(peak_rss, event["rss_peak_kb"])
    slowest = sorted(profile.spans, key=lambda e: -e["wall_s"])[:top_n]
    return {
        "processes": len(profile.pids),
        "events": len(profile.spans),
        "peak_rss_kb": peak_rss,
        "spans": dict(sorted(by_name.items())),
        "top_spans": [
            {
                "name": e["name"],
                "wall_s": e["wall_s"],
                "pid": e["pid"],
                "attrs": e.get("attrs", {}),
            }
            for e in slowest
        ],
        "metrics": profile.metrics,
    }


# ----------------------------------------------------------------------
# SVG timeline


def render_timeline(profile: Profile, title: str = "run timeline") -> Optional[str]:
    """Flame-style timeline SVG, one lane block per process.

    Spans become rectangles — x spans the wall-clock interval, y encodes
    (process, nesting depth) — drawn with the same
    :class:`repro.viz.svg.Plot` primitives the paper figures use.
    Returns None for an empty profile.
    """
    from repro.viz.svg import Axis, Plot

    if not profile.spans:
        return None
    origin = profile.t_origin()
    duration = max(
        (e["t_start"] - origin + e["wall_s"] for e in profile.spans), default=1.0
    )
    duration = max(duration, 1e-6)
    pids = profile.pids
    depth_of = {
        pid: max(e["depth"] for e in profile.spans if e["pid"] == pid) for pid in pids
    }
    # Lane layout: each process gets (max depth + 1) rows plus a divider.
    base: Dict[int, int] = {}
    rows = 0
    for pid in pids:
        base[pid] = rows
        rows += depth_of[pid] + 2
    rows = max(rows - 1, 1)
    height = max(140, 40 + 16 * rows)
    plot = Plot(
        x=Axis(0.0, duration, "seconds since run start"),
        y=Axis(0.0, float(rows)),
        width=900,
        height=height,
        title=title,
    )
    colors = _color_legend(profile)
    for event in profile.spans:
        x0 = event["t_start"] - origin
        x1 = x0 + max(event["wall_s"], duration / 2000.0)  # keep slivers visible
        row = base[event["pid"]] + event["depth"]
        y0 = rows - row - 0.9
        plot.area(
            [x0, x1],
            [y0, y0],
            [y0 + 0.8, y0 + 0.8],
            color=colors[event["name"]],
            opacity=0.85,
        )
    for name, color in sorted(colors.items()):
        plot.line([0.0, 1e-9 * duration], [0.0, 0.0], color=color, label=name)
    for pid in pids:
        row = base[pid]
        plot.text(duration * 0.002, rows - row - 0.05, f"pid {pid}", size=9)
    return plot.render()


def _color_legend(profile: Profile) -> Dict[str, str]:
    """Stable span-name -> palette color assignment (order of first use)."""
    from repro.viz.svg import PALETTE

    colors: Dict[str, str] = {}
    for event in profile.spans:
        name = event["name"]
        if name not in colors:
            colors[name] = PALETTE[len(colors) % len(PALETTE)]
    return colors


def export_run(
    spool_dir: os.PathLike, save_dir: Optional[os.PathLike], top_n: int = 5
) -> tuple[Profile, dict]:
    """Merge a spool and (optionally) write the run's profile artifacts.

    Returns ``(profile, summary)``; with a ``save_dir`` it also writes
    ``profile.jsonl`` and ``profile_timeline.svg`` there.
    """
    profile = merge_spool(spool_dir)
    summary = summarize(profile, top_n=top_n)
    if save_dir is not None:
        save_dir = pathlib.Path(save_dir)
        save_dir.mkdir(parents=True, exist_ok=True)
        write_profile(profile, save_dir / PROFILE_FILENAME)
        svg = render_timeline(profile)
        if svg is not None:
            (save_dir / TIMELINE_FILENAME).write_text(svg)
    return profile, summary
