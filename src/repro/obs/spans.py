"""Nested timing spans with monotonic wall and CPU clocks.

A :class:`Tracer` records a forest of :class:`SpanRecord` entries, one
per ``with tracer.span("name"):`` block. Spans nest: a span opened while
another is active becomes its child, so a finished run renders as a call
tree (see :mod:`repro.obs.report`). Wall time comes from
``time.perf_counter`` and CPU time from ``time.process_time`` — both
monotonic, neither affected by system clock changes.

The process-global tracer (:func:`tracer` / :func:`span`) is what the
instrumented hot paths use::

    from repro.obs import span

    with span("sim.step", time_s=time_s):
        csr, lats = index.query(time_s)

When telemetry is disabled (:func:`repro.obs.configure` or the
``REPRO_TELEMETRY=0`` environment variable) ``span()`` returns a shared
no-op context manager — a single attribute check and no allocation, so
disabled instrumentation costs nothing measurable.

:class:`Timer` is the standalone form: the same two clocks without a
tracer, for code that wants numbers rather than records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["SpanRecord", "Timer", "Tracer", "NullSpan", "NULL_SPAN"]


@dataclass
class SpanRecord:
    """One finished (or still-open) span in a tracer's forest."""

    index: int
    name: str
    parent: Optional[int]
    start_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (used by manifests and the JSONL sink)."""
        record: Dict[str, object] = {
            "index": self.index,
            "name": self.name,
            "parent": self.parent,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_dict(cls, payload: Dict) -> "SpanRecord":
        """Inverse of :meth:`as_dict`."""
        return cls(
            index=int(payload["index"]),
            name=str(payload["name"]),
            parent=(
                None if payload.get("parent") is None else int(payload["parent"])
            ),
            start_s=float(payload.get("start_s", 0.0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            cpu_s=float(payload.get("cpu_s", 0.0)),
            attrs=dict(payload.get("attrs", {})),
        )


class Timer:
    """Standalone wall/CPU stopwatch: ``with Timer() as t: ...; t.wall_s``."""

    __slots__ = ("wall_s", "cpu_s", "_wall0", "_cpu0")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Timer":
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        return False


class NullSpan:
    """The shared no-op span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: object) -> "NullSpan":
        """Discard attributes (disabled path)."""
        return self


#: Singleton no-op span; ``tracer.span(...) is NULL_SPAN`` when disabled.
NULL_SPAN = NullSpan()


class _ActiveSpan:
    """Context manager that opens a :class:`SpanRecord` on entry."""

    __slots__ = ("_tracer", "_name", "_attrs", "_record", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._record: Optional[SpanRecord] = None

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        record = SpanRecord(
            index=len(tracer.records),
            name=self._name,
            parent=tracer._stack[-1] if tracer._stack else None,
            start_s=time.perf_counter() - tracer.epoch,
            attrs=self._attrs,
        )
        tracer.records.append(record)
        tracer._stack.append(record.index)
        self._record = record
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def set(self, **attrs: object) -> "_ActiveSpan":
        """Attach attributes to the span (e.g. row counts learned late)."""
        if self._record is not None:
            self._record.attrs.update(attrs)
        else:
            self._attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        record.wall_s = time.perf_counter() - self._wall0
        record.cpu_s = time.process_time() - self._cpu0
        if exc_type is not None:
            record.attrs["error"] = exc_type.__name__
        stack = self._tracer._stack
        if stack and stack[-1] == record.index:
            stack.pop()
        return False


class Tracer:
    """A process-local recorder of nested spans.

    ``records`` accumulates in start order; ``parent`` indices encode
    the tree. ``reset()`` clears everything (tests, or between CLI
    commands); ``mark()``/``records_since()`` give a cheap way to
    capture just the spans of one operation.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[SpanRecord] = []
        self._stack: List[int] = []
        self.epoch = time.perf_counter()

    def span(self, name: str, **attrs: object):
        """A context manager recording one span (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def mark(self) -> int:
        """Position marker for :meth:`records_since`."""
        return len(self.records)

    def records_since(self, mark: int) -> List[SpanRecord]:
        """Spans recorded since :meth:`mark` was taken."""
        return self.records[mark:]

    def reset(self) -> None:
        """Drop all records and any open-span state."""
        self.records.clear()
        self._stack.clear()
        self.epoch = time.perf_counter()

    def as_dicts(self) -> List[Dict[str, object]]:
        """All records in JSON-ready form."""
        return [record.as_dict() for record in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.records)} spans)"
