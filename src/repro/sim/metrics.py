"""Metric accumulators for constellation simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError


def serving_transition_events(
    previous_serving: Optional[np.ndarray],
    last_covered_serving: np.ndarray,
    serving_satellite: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell (handover, reconnection) masks for one serving transition.

    A **handover** is a change of serving satellite between two
    consecutive covered steps. A **reconnection** is a cell that was
    uncovered on the previous step reacquiring a *different* satellite
    than the one that served it before the coverage gap — the event
    whose ~15 s outage the churn model penalizes. A cell acquiring
    coverage for the first time (no satellite ever served it) is
    neither.

    The same masks drive :class:`CoverageMetrics` and the timeline
    churn model, so the two never disagree on what counts as an event;
    the trace recorder in ``tests/oracles/trace.py`` recounts them from
    a whole run's serving matrix, and ``tests/sim/test_parity.py``
    asserts it agrees with :class:`CoverageMetrics`.
    """
    if previous_serving is None:
        no_events = np.zeros(serving_satellite.shape[0], dtype=bool)
        return no_events, no_events
    covered_now = serving_satellite >= 0
    covered_before = previous_serving >= 0
    handover = (
        covered_now
        & covered_before
        & (serving_satellite != previous_serving)
    )
    reconnection = (
        covered_now
        & ~covered_before
        & (last_covered_serving >= 0)
        & (serving_satellite != last_covered_serving)
    )
    return handover, reconnection


@dataclass
class CoverageMetrics:
    """Per-cell coverage and capacity accumulated over simulation steps."""

    cell_count: int
    steps: int = 0
    covered_steps: Optional[np.ndarray] = None
    allocated_sum_mbps: Optional[np.ndarray] = None
    in_view_sum: Optional[np.ndarray] = None
    satellite_latitude_samples: List[np.ndarray] = field(default_factory=list)
    peak_beams_used: int = 0
    handover_counts: Optional[np.ndarray] = None
    reconnection_counts: Optional[np.ndarray] = None
    _previous_serving: Optional[np.ndarray] = None
    _last_covered_serving: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.cell_count <= 0:
            raise SimulationError(f"cell count must be positive: {self.cell_count!r}")
        if self.covered_steps is None:
            self.covered_steps = np.zeros(self.cell_count, dtype=np.int64)
        if self.allocated_sum_mbps is None:
            self.allocated_sum_mbps = np.zeros(self.cell_count)
        if self.in_view_sum is None:
            self.in_view_sum = np.zeros(self.cell_count, dtype=np.int64)
        if self.handover_counts is None:
            self.handover_counts = np.zeros(self.cell_count, dtype=np.int64)
        if self.reconnection_counts is None:
            self.reconnection_counts = np.zeros(self.cell_count, dtype=np.int64)
        if self._last_covered_serving is None:
            self._last_covered_serving = np.full(
                self.cell_count, -1, dtype=np.int64
            )

    def record_step(
        self,
        covered: np.ndarray,
        allocated_mbps: np.ndarray,
        in_view_counts: np.ndarray,
        satellite_latitudes: np.ndarray,
        beams_used: Optional[np.ndarray] = None,
        serving_satellite: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one simulation step into the accumulators.

        Every input is validated *before* any accumulator mutates, so a
        misaligned call raises with the metrics exactly as they were —
        no torn state between the handover tracker and the coverage
        sums.
        """
        for name, array in (
            ("covered", covered),
            ("allocated", allocated_mbps),
            ("in_view", in_view_counts),
        ):
            if array.shape[0] != self.cell_count:
                raise SimulationError(f"{name} array misaligned with cells")
        if serving_satellite is not None:
            if serving_satellite.shape[0] != self.cell_count:
                raise SimulationError("serving array misaligned with cells")
        if beams_used is not None and beams_used.size > 0:
            self.peak_beams_used = max(
                self.peak_beams_used, int(beams_used.max())
            )
        if serving_satellite is not None:
            handover, reconnection = serving_transition_events(
                self._previous_serving,
                self._last_covered_serving,
                serving_satellite,
            )
            self.handover_counts += handover.astype(np.int64)
            self.reconnection_counts += reconnection.astype(np.int64)
            self._last_covered_serving = np.where(
                serving_satellite >= 0,
                serving_satellite,
                self._last_covered_serving,
            )
            self._previous_serving = serving_satellite.copy()
        self.steps += 1
        self.covered_steps += covered.astype(np.int64)
        self.allocated_sum_mbps += allocated_mbps
        self.in_view_sum += in_view_counts.astype(np.int64)
        self.satellite_latitude_samples.append(
            np.asarray(satellite_latitudes, dtype=float)
        )

    # -- summaries ----------------------------------------------------------

    def coverage_fraction(self) -> np.ndarray:
        """Per-cell fraction of steps with at least one beam."""
        self._require_steps()
        return self.covered_steps / self.steps

    def mean_allocated_mbps(self) -> np.ndarray:
        """Per-cell mean allocated capacity."""
        self._require_steps()
        return self.allocated_sum_mbps / self.steps

    def mean_satellites_in_view(self) -> np.ndarray:
        """Per-cell mean number of visible satellites."""
        self._require_steps()
        return self.in_view_sum / self.steps

    def mean_handovers_per_step(self) -> float:
        """Average serving-satellite changes per cell per step."""
        self._require_steps()
        if self.steps < 2:
            return 0.0
        return float(self.handover_counts.mean()) / (self.steps - 1)

    def mean_reconnections_per_step(self) -> float:
        """Average post-gap reacquisitions of a new satellite per cell per step."""
        self._require_steps()
        if self.steps < 2:
            return 0.0
        return float(self.reconnection_counts.mean()) / (self.steps - 1)

    def all_latitude_samples(self) -> np.ndarray:
        """All satellite latitude samples across steps, concatenated."""
        if not self.satellite_latitude_samples:
            raise SimulationError("no latitude samples recorded")
        return np.concatenate(self.satellite_latitude_samples)

    def _require_steps(self) -> None:
        if self.steps == 0:
            raise SimulationError("no steps recorded")


@dataclass(frozen=True)
class SimulationReport:
    """Summary of a finished simulation run."""

    steps: int
    cells: int
    satellites: int
    min_coverage_fraction: float
    mean_coverage_fraction: float
    mean_satellites_in_view: float
    demand_satisfaction: float
    peak_beams_used: int
    mean_handovers_per_step: float = 0.0
    mean_reconnections_per_step: float = 0.0

    def text(self) -> str:
        return (
            f"{self.steps} steps x {self.cells} cells x "
            f"{self.satellites} satellites: coverage min "
            f"{self.min_coverage_fraction:.3f} / mean "
            f"{self.mean_coverage_fraction:.3f}; "
            f"{self.mean_satellites_in_view:.1f} sats in view on average; "
            f"{self.demand_satisfaction:.1%} of provisioned demand served; "
            f"peak beams on one satellite: {self.peak_beams_used}; "
            f"handovers/cell/step: {self.mean_handovers_per_step:.2f}; "
            f"reconnections/cell/step: "
            f"{self.mean_reconnections_per_step:.2f}"
        )
