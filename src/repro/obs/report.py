"""Render telemetry back to humans: the ``repro-divide report`` engine.

Takes the files a run leaves behind — ``*.manifest.json`` (see
:mod:`repro.obs.manifest`) and ``*.jsonl`` event streams (see
:mod:`repro.obs.writer`) — and renders:

* the **span tree**, same-name siblings aggregated (count, total wall,
  mean wall, total CPU),
* the **top-N slowest** individual spans,
* the **metric tables** (counters, gauges, histograms),
* the **cache hit rate** (from ``runner.cache.hits`` / ``.misses``),
* the **event summary** of a JSONL stream, including the ERROR count and
  a ``malformed events: N`` line (bad JSONL lines are skipped and
  counted, not fatal — a crashed worker's torn final write should not
  take the post-mortem report down with it),
* the **profile summary** (top self-time functions) when a manifest was
  produced by a ``--profile`` run.

Everything returns strings; the CLI just prints them.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.obs.manifest import RunManifest
from repro.obs.spans import SpanRecord
from repro.obs.writer import read_events_stats


def _format_table(headers, rows, title=""):
    # Imported lazily: repro.viz pulls in repro.demand, whose modules
    # import repro.obs — a module-level import here would be circular.
    from repro.viz.tables import format_table

    return format_table(headers, rows, title=title)


__all__ = [
    "load_report_inputs",
    "format_failures",
    "format_span_tree",
    "format_top_spans",
    "format_metrics",
    "format_event_summary",
    "format_profile",
    "format_report",
    "cache_hit_rate",
]


def format_failures(extra: Dict[str, object]) -> List[str]:
    """Failure-record lines from a sweep manifest's ``extra`` section.

    Sweep manifests carry ``tasks_failed`` and a ``failures`` list
    (index, params, attempts, and the captured error record); other
    manifests render no lines at all.
    """
    if "tasks_failed" not in extra and not extra.get("failures"):
        return []
    failures = extra.get("failures") or []
    lines = [f"failures recorded: {len(failures)}"]
    for failure in failures:
        if not isinstance(failure, dict):
            continue
        error = failure.get("error") or {}
        lines.append(
            f"  task {failure.get('index', '?')} "
            f"{failure.get('params', {})} "
            f"(attempts {failure.get('attempts', '?')}): "
            f"{error.get('type', '?')}: {error.get('message', '')}"
        )
    return lines


def load_report_inputs(
    path: Union[str, Path],
) -> Tuple[
    List[Tuple[Path, RunManifest]], List[Tuple[Path, List[Dict], int]]
]:
    """Resolve a report target into (manifests, event streams).

    ``path`` may be one manifest file, one ``.jsonl`` file, or a
    directory (scanned for ``*.manifest.json`` and ``*.jsonl``).
    Each stream entry is ``(path, events, malformed)`` — JSONL lines
    that fail to parse are skipped and counted, never fatal.
    """
    target = Path(path)
    if not target.exists():
        raise ReproError(f"no such telemetry path: {target}")
    manifests: List[Tuple[Path, RunManifest]] = []
    streams: List[Tuple[Path, List[Dict], int]] = []
    if target.is_dir():
        candidates = sorted(target.glob("*.manifest.json")) + sorted(
            target.glob("*.jsonl")
        )
        if not candidates:
            raise ReproError(
                f"{target}: no *.manifest.json or *.jsonl files to report on"
            )
    else:
        candidates = [target]
    for candidate in candidates:
        if candidate.suffix == ".jsonl":
            events, malformed = read_events_stats(candidate)
            streams.append((candidate, events, malformed))
        else:
            manifests.append((candidate, RunManifest.load(candidate)))
    return manifests, streams


# -- span rendering ----------------------------------------------------------


def _children_by_parent(
    spans: Sequence[SpanRecord],
) -> Dict[Optional[int], List[SpanRecord]]:
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def format_span_tree(spans: Sequence[Dict], max_depth: int = 8) -> str:
    """The span forest as an indented tree, same-name siblings aggregated.

    Each line: ``name xCount  total wall  (mean wall)  cpu``. Repeated
    siblings (e.g. one ``sim.step`` per simulation step) collapse into
    one aggregated line, which is what makes a 4.66M-location run's
    tree fit on a screen.
    """
    records = [SpanRecord.from_dict(payload) for payload in spans]
    if not records:
        return "span tree: (empty)"
    children = _children_by_parent(records)
    lines = [f"span tree ({len(records)} spans):"]

    def render(parents: Sequence[Optional[int]], depth: int) -> None:
        if depth > max_depth:
            return
        # Aggregate same-name children across every parent in the group,
        # so e.g. the sim.visibility spans of all sim.step instances
        # collapse into one line.
        group: "OrderedDict[str, List[SpanRecord]]" = OrderedDict()
        for parent in parents:
            for span in children.get(parent, []):
                group.setdefault(span.name, []).append(span)
        for name, members in group.items():
            wall = sum(s.wall_s for s in members)
            cpu = sum(s.cpu_s for s in members)
            count = len(members)
            mean = wall / count
            lines.append(
                "  " * (depth + 1)
                + f"{name} x{count}  {wall * 1e3:.1f}ms"
                + (f" (mean {mean * 1e3:.2f}ms)" if count > 1 else "")
                + f"  cpu {cpu * 1e3:.1f}ms"
            )
            render([member.index for member in members], depth + 1)

    render([None], 0)
    return "\n".join(lines)


def format_top_spans(spans: Sequence[Dict], top: int = 10) -> str:
    """The ``top`` slowest individual spans by wall time."""
    records = [SpanRecord.from_dict(payload) for payload in spans]
    if not records:
        return "top spans: (none)"
    slowest = sorted(records, key=lambda s: s.wall_s, reverse=True)[:top]
    rows = [
        [
            span.name,
            f"{span.wall_s * 1e3:.2f}",
            f"{span.cpu_s * 1e3:.2f}",
            f"{span.start_s:.3f}",
        ]
        for span in slowest
    ]
    return _format_table(
        ["span", "wall_ms", "cpu_ms", "start_s"],
        rows,
        title=f"top {len(slowest)} slowest stages",
    )


# -- metrics rendering -------------------------------------------------------


def cache_hit_rate(metrics: Dict[str, Dict]) -> Optional[float]:
    """Hit rate from ``runner.cache.hits``/``.misses`` (None without them)."""
    counters = metrics.get("counters", {})
    hits = counters.get("runner.cache.hits")
    misses = counters.get("runner.cache.misses")
    if hits is None and misses is None:
        return None
    hits = hits or 0
    misses = misses or 0
    total = hits + misses
    return hits / total if total else 0.0


def format_metrics(metrics: Dict[str, Dict]) -> str:
    """Counters, gauges, and histograms as aligned tables."""
    sections = []
    counters = metrics.get("counters", {})
    if counters:
        sections.append(
            _format_table(
                ["counter", "value"],
                [[name, _format_number(value)] for name, value in sorted(counters.items())],
                title="counters",
            )
        )
    gauges = metrics.get("gauges", {})
    if gauges:
        sections.append(
            _format_table(
                ["gauge", "value"],
                [[name, _format_number(value)] for name, value in sorted(gauges.items())],
                title="gauges",
            )
        )
    histograms = metrics.get("histograms", {})
    if histograms:
        rows = []
        for name, stats in sorted(histograms.items()):
            rows.append(
                [
                    name,
                    stats.get("count", 0),
                    _format_number(stats.get("total")),
                    _format_number(stats.get("min")),
                    _format_number(stats.get("p50")),
                    _format_number(stats.get("p95")),
                    _format_number(stats.get("max")),
                ]
            )
        sections.append(
            _format_table(
                ["histogram", "count", "total", "min", "p50", "p95", "max"],
                rows,
                title="histograms",
            )
        )
    if not sections:
        return "metrics: (none recorded)"
    return "\n\n".join(sections)


def _format_number(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value))


# -- event streams -----------------------------------------------------------


def format_event_summary(events: Sequence[Dict], malformed: int = 0) -> str:
    """Event counts by type, log counts by level, and the ERROR total.

    ``malformed`` is the count of skipped unparseable JSONL lines (from
    :func:`repro.obs.writer.read_events_stats`); it is always rendered
    so a truncated stream is visible even when everything else parses.
    """
    by_type: Dict[str, int] = {}
    by_level: Dict[str, int] = {}
    for event in events:
        by_type[str(event.get("type", "?"))] = (
            by_type.get(str(event.get("type", "?")), 0) + 1
        )
        if event.get("type") == "log":
            level = str(event.get("level", "?"))
            by_level[level] = by_level.get(level, 0) + 1
    lines = [f"events: {len(events)} total"]
    for event_type, count in sorted(by_type.items()):
        lines.append(f"  {event_type}: {count}")
    if by_level:
        lines.append(
            "log levels: "
            + ", ".join(f"{lvl}={n}" for lvl, n in sorted(by_level.items()))
        )
    lines.append(f"error events: {by_level.get('ERROR', 0)}")
    lines.append(f"malformed events: {int(malformed)}")
    return "\n".join(lines)


# -- profiles ----------------------------------------------------------------


def format_profile(profile: Dict) -> str:
    """Sampling-profiler digest from a manifest's ``extra['profile']``.

    Renders the sampling rate, sample/stack counts, and the top
    self-time (leaf-frame) functions — enough to spot the hot kernel
    without opening the folded-stack file, whose path is echoed for
    flamegraph tooling.
    """
    if not profile:
        return "profile: (none)"
    samples = int(profile.get("samples", 0))
    lines = [
        "profile: {hz:g} Hz, {samples} samples, {stacks} unique stacks"
        .format(
            hz=float(profile.get("hz", 0.0)),
            samples=samples,
            stacks=int(profile.get("stacks", 0)),
        )
    ]
    if profile.get("path"):
        lines[0] += f" -> {profile['path']}"
    top = profile.get("top_self") or []
    if top and samples:
        rows = [
            [str(label), str(int(count)), f"{int(count) / samples:.1%}"]
            for label, count in top
        ]
        lines.append(
            _format_table(
                ["function", "self samples", "self %"],
                rows,
                title="top self-time",
            )
        )
    return "\n\n".join(lines)


# -- the full report ---------------------------------------------------------


def format_report(path: Union[str, Path], top: int = 10) -> str:
    """Everything ``repro-divide report`` prints for one target path."""
    manifests, streams = load_report_inputs(path)
    sections: List[str] = []
    for manifest_path, manifest in manifests:
        header = [f"=== manifest {manifest_path} ==="]
        header.append(
            f"command: {manifest.command or '?'}"
            + (f" (argv: {' '.join(manifest.argv)})" if manifest.argv else "")
        )
        header.append(f"commit: {manifest.commit}")
        if manifest.engine:
            header.append(f"engine: {manifest.engine}")
        if manifest.params_hash:
            header.append(f"params hash: {manifest.params_hash}")
        if manifest.dataset_fingerprint:
            header.append(
                f"dataset fingerprint: {manifest.dataset_fingerprint}"
            )
        rate = cache_hit_rate(manifest.metrics)
        if rate is not None:
            header.append(f"cache hit rate: {rate:.1%}")
        header.extend(format_failures(manifest.extra))
        header.append(f"span records: {len(manifest.spans)}")
        sections.append("\n".join(header))
        sections.append(format_span_tree(manifest.spans))
        if manifest.spans:
            sections.append(format_top_spans(manifest.spans, top=top))
        sections.append(format_metrics(manifest.metrics))
        profile = manifest.extra.get("profile")
        if isinstance(profile, dict):
            sections.append(format_profile(profile))
    for stream_path, events, malformed in streams:
        sections.append(f"=== events {stream_path} ===")
        sections.append(format_event_summary(events, malformed=malformed))
    return "\n\n".join(sections)
