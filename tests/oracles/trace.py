"""Per-step simulation traces: a recorder for the parity tests.

:func:`record_trace` runs a simulation over a clock through
:meth:`~repro.sim.simulation.ConstellationSimulation.step` and keeps
every step's per-cell outcome as ``[step, cell]`` arrays.
:class:`SimulationTrace` recomputes handovers and reconnections from the
recorded serving matrix, independently of the step-by-step accumulators
of :class:`~repro.sim.metrics.CoverageMetrics`; ``tests/sim/test_parity.py``
asserts the two agree. The per-step output the library gives users is
the timeline JSONL of :mod:`repro.timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import SimulationClock
from repro.sim.metrics import serving_transition_events
from repro.sim.simulation import ConstellationSimulation


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
