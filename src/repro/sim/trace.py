"""Per-step simulation traces: record, persist, and summarize runs.

:func:`record_trace` wraps a simulation run and captures one row per
(step, cell): coverage, allocated capacity, serving satellite. Traces
write to CSV for external analysis — and, since the structured
telemetry subsystem landed, to JSONL through
:class:`~repro.obs.TelemetryWriter` (:func:`write_trace_jsonl` /
:func:`read_trace_jsonl`), so a trace can ride in the same event
stream as logs and spans. Both formats reload into numpy arrays and
agree on every derived statistic (``coverage_timeline`` etc.).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation

_HEADERS = ["step", "time_s", "cell_index", "covered", "allocated_mbps", "serving_satellite"]


@dataclass
class SimulationTrace:
    """A recorded run: arrays indexed [step, cell]."""

    times_s: np.ndarray
    covered: np.ndarray
    allocated_mbps: np.ndarray
    serving_satellite: np.ndarray

    def __post_init__(self) -> None:
        shapes = {
            self.covered.shape,
            self.allocated_mbps.shape,
            self.serving_satellite.shape,
        }
        if len(shapes) != 1:
            raise SimulationError("trace arrays disagree on shape")
        if self.covered.shape[0] != self.times_s.shape[0]:
            raise SimulationError("trace step count mismatch")

    @property
    def steps(self) -> int:
        return int(self.times_s.shape[0])

    @property
    def cells(self) -> int:
        return int(self.covered.shape[1])

    def coverage_timeline(self) -> np.ndarray:
        """Fraction of cells covered at each step."""
        return self.covered.mean(axis=1)

    def worst_cell(self) -> int:
        """Index of the least-covered cell."""
        return int(np.argmin(self.covered.mean(axis=0)))

    def handovers_per_cell(self) -> np.ndarray:
        """Serving-satellite changes per cell over the run."""
        if self.steps < 2:
            return np.zeros(self.cells, dtype=np.int64)
        current = self.serving_satellite[1:]
        previous = self.serving_satellite[:-1]
        changed = (current != previous) & (current >= 0) & (previous >= 0)
        return changed.sum(axis=0).astype(np.int64)

    def reconnections_per_cell(self) -> np.ndarray:
        """Post-gap reacquisitions of a different satellite per cell.

        Same event definition as
        :func:`~repro.sim.metrics.serving_transition_events` (and
        asserted against :class:`CoverageMetrics` by the parity tests):
        a cell uncovered at step ``k - 1`` that is covered at step
        ``k`` by a satellite other than the one serving it before the
        gap.
        """
        from repro.sim.metrics import serving_transition_events

        counts = np.zeros(self.cells, dtype=np.int64)
        last_covered = np.full(self.cells, -1, dtype=np.int64)
        previous: np.ndarray = None
        for step in range(self.steps):
            serving = self.serving_satellite[step]
            _, reconnection = serving_transition_events(
                previous, last_covered, serving
            )
            counts += reconnection.astype(np.int64)
            last_covered = np.where(serving >= 0, serving, last_covered)
            previous = serving
        return counts


def record_trace(
    simulation: ConstellationSimulation, clock: SimulationClock
) -> SimulationTrace:
    """Run ``simulation`` over ``clock``, capturing the full trace."""
    simulation.visibility_index.configure_window(step_hint_s=clock.step_s)
    times: List[float] = []
    covered: List[np.ndarray] = []
    allocated: List[np.ndarray] = []
    serving: List[np.ndarray] = []
    for time_s in clock.times():
        outcome, _, _ = simulation.step(time_s)
        times.append(time_s)
        covered.append(outcome.covered.copy())
        allocated.append(outcome.allocated_mbps.copy())
        serving.append(outcome.serving_satellite.copy())
    return SimulationTrace(
        times_s=np.array(times),
        covered=np.stack(covered),
        allocated_mbps=np.stack(allocated),
        serving_satellite=np.stack(serving),
    )


def write_trace_csv(trace: SimulationTrace, path: Union[str, Path]) -> Path:
    """Persist a trace as one CSV row per (step, cell)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADERS)
        for step in range(trace.steps):
            for cell in range(trace.cells):
                writer.writerow(
                    [
                        step,
                        f"{trace.times_s[step]:.1f}",
                        cell,
                        int(trace.covered[step, cell]),
                        f"{trace.allocated_mbps[step, cell]:.1f}",
                        int(trace.serving_satellite[step, cell]),
                    ]
                )
    return target


def write_trace_jsonl(
    trace: SimulationTrace,
    path: Union[str, Path],
    writer: "obs.TelemetryWriter" = None,
) -> Path:
    """Persist a trace as JSONL events through :class:`TelemetryWriter`.

    One ``trace.run`` header event plus one ``trace.step`` event per
    step (full-precision floats, unlike the CSV's fixed decimals).
    Pass an open ``writer`` to append the trace into an existing event
    stream; ``path`` is ignored then.
    """
    own_writer = writer is None
    if own_writer:
        writer = obs.TelemetryWriter(path)
    try:
        writer.emit(
            {
                "type": "trace.run",
                "steps": trace.steps,
                "cells": trace.cells,
            }
        )
        for step in range(trace.steps):
            writer.emit(
                {
                    "type": "trace.step",
                    "step": step,
                    "time_s": float(trace.times_s[step]),
                    "covered": trace.covered[step].astype(int).tolist(),
                    "allocated_mbps": trace.allocated_mbps[step].tolist(),
                    "serving_satellite": trace.serving_satellite[
                        step
                    ].tolist(),
                }
            )
    finally:
        if own_writer:
            writer.close()
    return writer.path


def read_trace_jsonl(path: Union[str, Path]) -> SimulationTrace:
    """Reload a trace written by :func:`write_trace_jsonl`.

    Ignores interleaved non-trace events, so a combined telemetry
    stream (logs + spans + trace) reads back fine.
    """
    events = obs.read_events(path)
    steps = [e for e in events if e.get("type") == "trace.step"]
    if not steps:
        raise SimulationError(f"no trace.step events in {path}")
    steps.sort(key=lambda e: int(e["step"]))
    return SimulationTrace(
        times_s=np.array([float(e["time_s"]) for e in steps]),
        covered=np.array(
            [e["covered"] for e in steps], dtype=bool
        ),
        allocated_mbps=np.array(
            [e["allocated_mbps"] for e in steps], dtype=float
        ),
        serving_satellite=np.array(
            [e["serving_satellite"] for e in steps], dtype=int
        ),
    )


def read_trace_csv(path: Union[str, Path]) -> SimulationTrace:
    """Reload a trace written by :func:`write_trace_csv`."""
    file_path = Path(path)
    if not file_path.exists():
        raise SimulationError(f"no such trace: {file_path}")
    rows: Dict[int, Dict[int, tuple]] = {}
    times: Dict[int, float] = {}
    with file_path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != _HEADERS:
            raise SimulationError(
                f"{file_path}: unexpected headers {reader.fieldnames}"
            )
        for row in reader:
            step = int(row["step"])
            cell = int(row["cell_index"])
            times[step] = float(row["time_s"])
            rows.setdefault(step, {})[cell] = (
                bool(int(row["covered"])),
                float(row["allocated_mbps"]),
                int(row["serving_satellite"]),
            )
    if not rows:
        raise SimulationError(f"empty trace: {file_path}")
    steps = sorted(rows)
    cells = sorted(rows[steps[0]])
    covered = np.zeros((len(steps), len(cells)), dtype=bool)
    allocated = np.zeros((len(steps), len(cells)))
    serving = np.full((len(steps), len(cells)), -1, dtype=int)
    for i, step in enumerate(steps):
        if sorted(rows[step]) != cells:
            raise SimulationError(f"step {step}: ragged trace")
        for j, cell in enumerate(cells):
            covered[i, j], allocated[i, j], serving[i, j] = rows[step][cell]
    return SimulationTrace(
        times_s=np.array([times[s] for s in steps]),
        covered=covered,
        allocated_mbps=allocated,
        serving_satellite=serving,
    )
