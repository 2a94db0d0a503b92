"""Structured telemetry: spans, metrics, JSONL events, run manifests.

The observability layer of the reproduction. Dependency-free (stdlib
only), process-local, and cheap enough to leave on in the hot paths —
disabled instrumentation is a single attribute check
(``REPRO_TELEMETRY=0`` or :func:`configure`).

Four pieces, one per module:

* :mod:`repro.obs.spans` — nested :class:`Span <repro.obs.spans.SpanRecord>`
  timing with monotonic wall/CPU clocks (``with obs.span("sim.step"): ...``);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms with snapshot/diff/merge (safe across
  ``ProcessPoolExecutor`` workers);
* :mod:`repro.obs.writer` — the JSONL :class:`TelemetryWriter` event
  sink and the stdlib-``logging`` bridge (``--log-level``/``--log-json``);
* :mod:`repro.obs.manifest` / :mod:`repro.obs.report` — the
  :class:`RunManifest` written next to every sweep/timeline output, and the
  ``repro-divide report`` renderer.

The module-level :func:`tracer` and :func:`registry` are the process
globals all instrumented code records into; :func:`reset` clears both
(each CLI command starts fresh, and so should tests).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.live import LiveMonitor, RollingHistogram, WorkerStreamer
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    collect_manifest,
    git_sha,
    manifest_path_for,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.promtext import (
    MetricsServer,
    render_prometheus,
    sanitize_metric_name,
    start_metrics_server,
)
from repro.obs.report import format_report
from repro.obs.spans import NULL_SPAN, SpanRecord, Timer, Tracer
from repro.obs.writer import (
    TelemetryWriter,
    get_logger,
    read_events,
    read_events_stats,
    setup_logging,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveMonitor",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_SPAN",
    "RollingHistogram",
    "RunManifest",
    "SamplingProfiler",
    "SpanRecord",
    "TelemetryWriter",
    "Timer",
    "Tracer",
    "WorkerStreamer",
    "collect_manifest",
    "configure",
    "enabled",
    "format_report",
    "get_logger",
    "git_sha",
    "manifest_path_for",
    "read_events",
    "read_events_stats",
    "registry",
    "render_prometheus",
    "reset",
    "sanitize_metric_name",
    "setup_logging",
    "span",
    "start_metrics_server",
    "tracer",
]

#: Environment variable gating telemetry ("0"/"false"/"off" disable it).
TELEMETRY_ENV = "REPRO_TELEMETRY"


def _env_enabled() -> bool:
    value = os.environ.get(TELEMETRY_ENV, "1").strip().lower()
    return value not in ("0", "false", "off", "no")


_TRACER = Tracer(enabled=_env_enabled())
_REGISTRY = MetricsRegistry(enabled=_env_enabled())


def tracer() -> Tracer:
    """The process-global span tracer."""
    return _TRACER


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def span(name: str, **attrs: object):
    """Open a span on the global tracer (no-op when disabled)."""
    return _TRACER.span(name, **attrs)


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _TRACER.enabled


def configure(enabled: Optional[bool] = None) -> None:
    """Enable or disable telemetry process-wide (None leaves it alone)."""
    if enabled is not None:
        _TRACER.enabled = bool(enabled)
        _REGISTRY.enabled = bool(enabled)


def reset() -> None:
    """Clear all recorded spans and metrics (keeps the enabled state)."""
    _TRACER.reset()
    _REGISTRY.reset()
