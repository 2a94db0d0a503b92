"""A dependency-free sampling profiler emitting folded-stack output.

A daemon thread wakes at a fixed rate (default 50 Hz), grabs
``sys._current_frames()``, walks the main thread's stack, and counts
each distinct stack as a ``module.function;module.function;...`` folded
line — the flamegraph-collapsed format that ``flamegraph.pl`` and
speedscope ingest directly::

    from repro.obs.profile import SamplingProfiler

    with SamplingProfiler(hz=50) as profiler:
        run_simulation(...)
    profiler.write("profile.folded.txt")
    # flamegraph.pl profile.folded.txt > profile.svg

Sampling costs one stack walk per tick regardless of what the target is
doing, so overhead stays bounded (<3% budget at 50 Hz; see
docs/PERFORMANCE.md for the last measurement). The profiler
never touches the profiled code: no tracing hooks, no
``sys.setprofile``, just periodic frame inspection, which also means
native (numpy) kernels show up attributed to the Python frame that
called them.

Exposed on the CLI as ``--profile[=HZ]`` for ``simulate``, ``timeline``
and ``sweep``; the folded output lands next to the run's manifest and
its top self-time functions are summarized by ``repro-divide report``.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["SamplingProfiler", "DEFAULT_HZ", "MAX_STACK_DEPTH"]

#: Default sampling rate (samples per second).
DEFAULT_HZ = 50.0

#: Deepest stack recorded per sample; frames below the cut are dropped.
MAX_STACK_DEPTH = 128


def _frame_label(frame) -> str:
    """``module.function`` for one frame (module falls back to ``?``)."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_name}"


class SamplingProfiler:
    """Samples the main thread's stack at ``hz`` into folded-stack counts.

    Usable as a context manager or via explicit :meth:`start` /
    :meth:`stop`. Counts accumulate across start/stop cycles;
    :meth:`folded` renders them, :meth:`write` saves them, and
    :meth:`summary` returns the JSON-ready digest embedded in run
    manifests.

    Only the *main* thread is sampled (``threads="all"`` widens that to
    every thread except the sampler itself): the simulation, sweep
    parent loop, and CLI all do their work on the main thread, and
    excluding the sampler avoids profiling the profiler.
    """

    def __init__(self, hz: float = DEFAULT_HZ, threads: str = "main"):
        if not hz > 0:
            raise ReproError(f"profiler rate must be positive, got {hz}")
        if threads not in ("main", "all"):
            raise ReproError(
                f"threads must be 'main' or 'all', got {threads!r}"
            )
        self.hz = float(hz)
        self.interval_s = 1.0 / self.hz
        self.threads = threads
        self.counts: Dict[str, int] = {}
        self.samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self.elapsed_s = 0.0

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampling thread is currently alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start sampling (idempotent while running)."""
        if self.running:
            return
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and fold the elapsed wall time into the totals."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(1.0, self.interval_s * 10))
        self._thread = None
        if self._started_at is not None:
            self.elapsed_s += time.perf_counter() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling ------------------------------------------------------------

    def _target_threads(self) -> List[int]:
        if self.threads == "main":
            ident = threading.main_thread().ident
            return [ident] if ident is not None else []
        me = threading.get_ident()
        return [ident for ident in sys._current_frames() if ident != me]

    def _sample_once(self) -> None:
        frames = sys._current_frames()
        targets = self._target_threads()
        took = False
        for ident in targets:
            frame = frames.get(ident)
            if frame is None:
                continue
            stack: List[str] = []
            while frame is not None and len(stack) < MAX_STACK_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
            if not stack:
                continue
            key = ";".join(reversed(stack))
            with self._lock:
                self.counts[key] = self.counts.get(key, 0) + 1
            took = True
        if took:
            self.samples += 1

    def _loop(self) -> None:
        next_tick = time.perf_counter()
        while not self._stop.is_set():
            try:
                self._sample_once()
            except Exception:  # pragma: no cover - sampling must not crash
                pass
            next_tick += self.interval_s
            delay = next_tick - time.perf_counter()
            if delay <= 0:
                next_tick = time.perf_counter()  # fell behind; don't burst
                continue
            self._stop.wait(delay)

    # -- output --------------------------------------------------------------

    def folded(self) -> str:
        """The counts in flamegraph-collapsed format, one stack per line."""
        with self._lock:
            items = sorted(self.counts.items())
        return "".join(f"{stack} {count}\n" for stack, count in items)

    def write(self, path) -> Path:
        """Write :meth:`folded` output to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.folded(), encoding="utf-8")
        return path

    def top_self(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` frames with the most *self* samples (leaf frames)."""
        totals: Dict[str, int] = {}
        with self._lock:
            items = list(self.counts.items())
        for stack, count in items:
            leaf = stack.rsplit(";", 1)[-1]
            totals[leaf] = totals.get(leaf, 0) + count
        return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def summary(self, top: int = 10) -> Dict[str, object]:
        """JSON-ready digest (hz, samples, stacks, elapsed, top self-time)."""
        return {
            "hz": self.hz,
            "samples": self.samples,
            "stacks": len(self.counts),
            "elapsed_s": self.elapsed_s,
            "top_self": [list(pair) for pair in self.top_self(top)],
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"SamplingProfiler(hz={self.hz:g}, {state}, "
            f"samples={self.samples})"
        )
