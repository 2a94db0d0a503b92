"""The timeline workload: diurnal demand + churn over the simulator step.

:func:`run_timeline` drives :meth:`ConstellationSimulation.step` with
sub-minute steps (through the cached-candidate windowed visibility
index — ``window="auto"`` sizes candidate windows from the clock's
step), passing per-county diurnal multiples of the provisioned demand
as each step's demand override and charging handover-churn outage
windows against the allocated capacity. It accumulates per-cell QoE
timelines the static pipeline cannot express: unserved-hours-per-day
and reconnection-outage minutes.

**Static-identity differential.** With the flat profile and churn
disabled, every per-step demand override is bitwise equal to the
static ``demands_mbps`` (``base * 1.0`` is exact) and every derate
factor is exactly ``1.0``, so the timeline's
:class:`~repro.sim.metrics.SimulationReport` must equal the static
pipeline's field-for-field. :func:`run_timeline` verifies this
exactly when the configuration is eligible
(:attr:`TimelineConfig.identity_eligible`) and records the verdict in
:attr:`TimelineResult.flat_identical`; the tests and the
``timeline-smoke`` CI job assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.demand.dataset import DemandDataset
from repro.errors import SimulationError
from repro.orbits.shells import Shell
from repro.sim.assignment import STRATEGIES
from repro.sim.engine import SimulationClock
from repro.sim.metrics import CoverageMetrics, SimulationReport
from repro.sim.simulation import ConstellationSimulation
from repro.timeline.churn import ChurnState, HandoverChurnModel
from repro.timeline.diurnal import DiurnalProfile

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class TimelineConfig:
    """Shape of one timeline run."""

    duration_s: float
    step_s: float
    profile: DiurnalProfile = field(default_factory=DiurnalProfile.flat)
    churn: HandoverChurnModel = field(
        default_factory=HandoverChurnModel.disabled
    )
    oversubscription: float = 20.0
    strategy: str = "greedy"
    visibility_window: Union[int, str] = "auto"
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {', '.join(STRATEGIES)}"
            )
        # Clock construction validates duration/step/start (finite,
        # positive, step <= duration) so a bad config fails here, not
        # mid-run.
        self.clock()

    def clock(self) -> SimulationClock:
        return SimulationClock(
            duration_s=self.duration_s,
            step_s=self.step_s,
            start_s=self.start_s,
        )

    @property
    def identity_eligible(self) -> bool:
        """True when the run must reproduce the static pipeline."""
        return self.profile.is_flat and self.churn.is_disabled


@dataclass
class TimelineResult:
    """Per-step and per-cell outputs of one timeline run."""

    config: TimelineConfig
    times_s: np.ndarray
    demand_mbps: np.ndarray
    allocated_mbps: np.ndarray
    effective_mbps: np.ndarray
    covered_fraction: np.ndarray
    served_location_fraction: np.ndarray
    handovers_per_step: np.ndarray
    reconnections_per_step: np.ndarray
    unserved_seconds: np.ndarray
    outage_seconds: np.ndarray
    handover_counts: np.ndarray
    reconnection_counts: np.ndarray
    location_counts: np.ndarray
    report: SimulationReport
    flat_identical: Optional[bool]

    @property
    def steps(self) -> int:
        return int(self.times_s.shape[0])

    @property
    def cells(self) -> int:
        return int(self.unserved_seconds.shape[0])

    @property
    def days(self) -> float:
        return float(self.config.duration_s) / SECONDS_PER_DAY

    def unserved_hours_per_day(self) -> np.ndarray:
        """Per-cell hours per day with unmet demand.

        A cell-step counts as unserved when its diurnal-scaled demand
        (before the per-cell capacity clamp) is positive and the
        assignment's allocation falls short of it — a *capacity*
        shortfall, whether from beam contention or from busy-hour
        demand exceeding the per-cell beam cap; transient churn
        outages are the separate :meth:`outage_minutes` metric. Each
        unserved step
        contributes ``step_s`` seconds, and the total is normalized by
        the run's length in days, so a cell unserved around the
        nightly busy hour in every simulated day scores the same
        whether the run covered one day or seven.
        """
        return self.unserved_seconds / 3600.0 / self.days

    def outage_minutes(self) -> np.ndarray:
        """Per-cell reconnection/handover outage minutes over the run."""
        return self.outage_seconds / 60.0

    def hourly_served_fraction(self) -> Tuple[np.ndarray, np.ndarray]:
        """(UTC hour labels, mean served-location fraction per hour).

        Buckets the per-step served-location fraction by UTC hour of
        day — the rows of a Fig-2-over-time grid. Hours the run never
        touched are NaN.
        """
        hours = np.mod(self.times_s / 3600.0, 24.0).astype(int)
        labels = np.arange(24)
        values = np.full(24, np.nan)
        for hour in labels:
            mask = hours == hour
            if mask.any():
                values[hour] = float(
                    self.served_location_fraction[mask].mean()
                )
        return labels, values


def _phase_longitudes(dataset: DemandDataset) -> np.ndarray:
    """Per-cell diurnal phase longitude: the county seat's longitude.

    Every cell in a county shares its seat's local clock, so a
    county's demand curve moves as one — matching how the paper
    aggregates unserved locations per county.
    """
    columns = dataset.to_columns()
    county = dataset.county_columns()
    position = np.searchsorted(county["county_id"], columns["county_id"])
    return county["seat_lon"][position]


def run_timeline(
    dataset: DemandDataset,
    shells: Sequence[Shell],
    config: TimelineConfig,
) -> TimelineResult:
    """Run the timeline workload and accumulate its QoE timelines."""
    simulation = ConstellationSimulation(
        shells,
        dataset,
        oversubscription=config.oversubscription,
        strategy=STRATEGIES[config.strategy](),
        visibility_window=config.visibility_window,
    )
    clock = config.clock()
    counts = dataset.counts().astype(float)
    # Unclamped provisioned demand: the diurnal multiplier scales this
    # *before* the per-cell capacity clamp, so the busy hour can push a
    # cell into the clamp that the static model leaves below it. Same
    # expression as ConstellationSimulation's, so a 1.0 multiplier
    # reproduces simulation.demands_mbps bitwise.
    base_mbps = counts * 100.0 / config.oversubscription
    cap_mbps = simulation.beam_plan.cell_capacity_mbps
    phase_lon = _phase_longitudes(dataset)
    total_locations = float(counts.sum())

    cell_count = dataset.n_cells
    metrics = CoverageMetrics(cell_count=cell_count)
    churn = ChurnState(cell_count, config.churn)
    unserved_seconds = np.zeros(cell_count)

    times: List[float] = []
    demand_series: List[float] = []
    allocated_series: List[float] = []
    effective_series: List[float] = []
    covered_series: List[float] = []
    served_series: List[float] = []
    handover_series: List[int] = []
    reconnection_series: List[int] = []

    registry = obs.registry()
    step_counter = registry.counter("timeline.steps")
    handover_counter = registry.counter("timeline.handovers")
    reconnection_counter = registry.counter("timeline.reconnections")
    outage_counter = registry.counter("timeline.outage_s")
    unserved_counter = registry.counter("timeline.unserved_cell_steps")

    simulation.visibility_index.configure_window(step_hint_s=clock.step_s)
    with obs.span(
        "timeline.run",
        cells=cell_count,
        satellites=simulation.satellite_count,
        steps=clock.step_count,
        profile=config.profile.name,
        strategy=config.strategy,
    ):
        for time_s in clock.times():
            multiplier = config.profile.cell_multipliers(time_s, phase_lon)
            scaled_mbps = base_mbps * multiplier
            demands = np.minimum(scaled_mbps, cap_mbps)
            outcome, in_view, sat_lats = simulation.step(time_s, demands)
            handovers_before = int(churn.handover_counts.sum())
            reconnections_before = int(churn.reconnection_counts.sum())
            outage_before = float(churn.outage_seconds.sum())
            effective = churn.apply_step(
                time_s,
                clock.step_s,
                outcome.serving_satellite,
                outcome.allocated_mbps,
            )
            metrics.record_step(
                covered=outcome.covered,
                allocated_mbps=effective,
                in_view_counts=in_view,
                satellite_latitudes=sat_lats,
                beams_used=outcome.beams_used,
                serving_satellite=outcome.serving_satellite,
            )
            # Capacity shortfall, not churn: a cell-step is unserved
            # when the allocation falls short of the *unclamped*
            # diurnal demand — either beam contention starved the cell
            # or its busy-hour demand exceeds the per-cell beam cap.
            # Transient churn outages are accounted separately
            # (outage_seconds), so a 1 s handover blip in a 30-minute
            # step does not void the whole step.
            unserved = (scaled_mbps > 0.0) & (
                outcome.allocated_mbps < scaled_mbps
            )
            unserved_seconds += np.where(unserved, clock.step_s, 0.0)
            served_locations = float(counts[~unserved].sum())

            step_handovers = (
                int(churn.handover_counts.sum()) - handovers_before
            )
            step_reconnections = (
                int(churn.reconnection_counts.sum()) - reconnections_before
            )
            step_counter.inc()
            handover_counter.inc(step_handovers)
            reconnection_counter.inc(step_reconnections)
            outage_counter.inc(
                float(churn.outage_seconds.sum()) - outage_before
            )
            unserved_counter.inc(int(unserved.sum()))

            times.append(time_s)
            demand_series.append(float(demands.sum()))
            allocated_series.append(float(outcome.allocated_mbps.sum()))
            effective_series.append(float(effective.sum()))
            covered_series.append(float(outcome.covered.mean()))
            served_series.append(
                served_locations / total_locations
                if total_locations > 0
                else 1.0
            )
            handover_series.append(step_handovers)
            reconnection_series.append(step_reconnections)

    report = simulation.report(metrics)
    flat_identical: Optional[bool] = None
    if config.identity_eligible:
        flat_identical = _matches_static(
            dataset, shells, config, clock, report
        )
        registry.gauge("timeline.flat_identical").set(
            1.0 if flat_identical else 0.0
        )

    return TimelineResult(
        config=config,
        times_s=np.array(times),
        demand_mbps=np.array(demand_series),
        allocated_mbps=np.array(allocated_series),
        effective_mbps=np.array(effective_series),
        covered_fraction=np.array(covered_series),
        served_location_fraction=np.array(served_series),
        handovers_per_step=np.array(handover_series, dtype=np.int64),
        reconnections_per_step=np.array(
            reconnection_series, dtype=np.int64
        ),
        unserved_seconds=unserved_seconds,
        outage_seconds=churn.outage_seconds.copy(),
        handover_counts=churn.handover_counts.copy(),
        reconnection_counts=churn.reconnection_counts.copy(),
        location_counts=counts,
        report=report,
        flat_identical=flat_identical,
    )


def _matches_static(
    dataset: DemandDataset,
    shells: Sequence[Shell],
    config: TimelineConfig,
    clock: SimulationClock,
    timeline_report: SimulationReport,
) -> bool:
    """Compare the timeline's report against a fresh static run.

    Field-for-field dataclass equality — floats compared exactly, not
    approximately, because an eligible timeline run feeds the metric
    accumulators bit-identical inputs.
    """
    static = ConstellationSimulation(
        shells,
        dataset,
        oversubscription=config.oversubscription,
        strategy=STRATEGIES[config.strategy](),
        visibility_window=config.visibility_window,
    )
    static_report = static.report(static.run(clock))
    return static_report == timeline_report


def write_timeline_jsonl(
    result: TimelineResult,
    path: Union[str, Path],
    writer: "obs.TelemetryWriter" = None,
) -> Path:
    """Persist a timeline as JSONL events through :class:`TelemetryWriter`.

    One ``timeline.run`` header, one ``timeline.step`` event per step,
    and a final ``timeline.cells`` event carrying the per-cell QoE
    arrays. Pass an open ``writer`` to append into an existing event
    stream; ``path`` is ignored then.
    """
    own_writer = writer is None
    if own_writer:
        writer = obs.TelemetryWriter(path)
    try:
        writer.emit(
            {
                "type": "timeline.run",
                "steps": result.steps,
                "cells": result.cells,
                "step_s": float(result.config.step_s),
                "duration_s": float(result.config.duration_s),
                "profile": result.config.profile.name,
                "strategy": result.config.strategy,
                "oversubscription": float(result.config.oversubscription),
                "flat_identical": result.flat_identical,
            }
        )
        for step in range(result.steps):
            writer.emit(
                {
                    "type": "timeline.step",
                    "step": step,
                    "time_s": float(result.times_s[step]),
                    "demand_mbps": float(result.demand_mbps[step]),
                    "allocated_mbps": float(result.allocated_mbps[step]),
                    "effective_mbps": float(result.effective_mbps[step]),
                    "covered_fraction": float(
                        result.covered_fraction[step]
                    ),
                    "served_location_fraction": float(
                        result.served_location_fraction[step]
                    ),
                    "handovers": int(result.handovers_per_step[step]),
                    "reconnections": int(
                        result.reconnections_per_step[step]
                    ),
                }
            )
        writer.emit(
            {
                "type": "timeline.cells",
                "unserved_hours_per_day": result.unserved_hours_per_day().tolist(),
                "outage_minutes": result.outage_minutes().tolist(),
                "handover_counts": result.handover_counts.tolist(),
                "reconnection_counts": result.reconnection_counts.tolist(),
            }
        )
    finally:
        if own_writer:
            writer.close()
    return writer.path


def read_timeline_jsonl(path: Union[str, Path]) -> Dict[str, object]:
    """Reload a timeline written by :func:`write_timeline_jsonl`.

    Returns ``{"run": header dict, "steps": column arrays,
    "cells": per-cell arrays}``; ignores interleaved non-timeline
    events so a combined telemetry stream reads back fine.
    """
    events = obs.read_events(path)
    runs = [e for e in events if e.get("type") == "timeline.run"]
    steps = [e for e in events if e.get("type") == "timeline.step"]
    cells = [e for e in events if e.get("type") == "timeline.cells"]
    if not runs or not steps or not cells:
        raise SimulationError(f"no complete timeline in {path}")
    steps.sort(key=lambda e: int(e["step"]))
    step_columns = {
        "time_s": np.array([float(e["time_s"]) for e in steps]),
        "demand_mbps": np.array(
            [float(e["demand_mbps"]) for e in steps]
        ),
        "allocated_mbps": np.array(
            [float(e["allocated_mbps"]) for e in steps]
        ),
        "effective_mbps": np.array(
            [float(e["effective_mbps"]) for e in steps]
        ),
        "covered_fraction": np.array(
            [float(e["covered_fraction"]) for e in steps]
        ),
        "served_location_fraction": np.array(
            [float(e["served_location_fraction"]) for e in steps]
        ),
        "handovers": np.array(
            [int(e["handovers"]) for e in steps], dtype=np.int64
        ),
        "reconnections": np.array(
            [int(e["reconnections"]) for e in steps], dtype=np.int64
        ),
    }
    cell_columns = {
        "unserved_hours_per_day": np.array(
            cells[-1]["unserved_hours_per_day"], dtype=float
        ),
        "outage_minutes": np.array(
            cells[-1]["outage_minutes"], dtype=float
        ),
        "handover_counts": np.array(
            cells[-1]["handover_counts"], dtype=np.int64
        ),
        "reconnection_counts": np.array(
            cells[-1]["reconnection_counts"], dtype=np.int64
        ),
    }
    return {"run": runs[-1], "steps": step_columns, "cells": cell_columns}
