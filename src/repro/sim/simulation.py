"""The constellation simulation loop.

Per step: propagate every shell, find the satellites visible from each
demand cell (a KD-tree over ECEF positions, since "within central angle
psi" is "within chord distance 2R sin(psi/2)" on the sphere), hand the
visibility relation to a beam-assignment strategy, and accumulate metrics.

Two engines produce each step's visibility relation:

* ``engine="fast"`` (default) — a precomputed
  :class:`~repro.sim.visibility_index.VisibilityIndex` that builds its
  KD-tree once and propagates satellites by rotating cached epoch
  geometry, handing strategies a CSR array relation.
* ``engine="reference"`` — the original per-step KD-tree rebuild over
  Python lists, retained for differential testing.

Both engines produce identical results; ``tests/sim/test_parity.py``
asserts it report for report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.spatial import cKDTree

from repro import obs
from repro.demand.dataset import DemandDataset
from repro.errors import SimulationError
from repro.orbits.kepler import ecef_to_latlon, eci_to_ecef
from repro.orbits.shells import Shell
from repro.orbits.gateways import GATEWAY_MIN_ELEVATION_DEG, GatewaySite
from repro.orbits.visibility import (
    STARLINK_MIN_ELEVATION_DEG,
    coverage_central_angle_rad,
    slant_range_km,
)
from repro.orbits.walker import WalkerDelta
from repro.sim.assignment import BeamAssignmentStrategy, GreedyDemandFirst
from repro.sim.engine import SimulationClock
from repro.sim.impairments import (
    Impairment,
    apply_impairments,
    apply_impairments_csr,
)
from repro.sim.metrics import CoverageMetrics, SimulationReport
from repro.sim.visibility_index import VisibilityIndex
from repro.spectrum.beams import BeamPlan, starlink_beam_plan
from repro.units import EARTH_RADIUS_KM


class ConstellationSimulation:
    """Propagate shells over a demand dataset and assign beams each step."""

    def __init__(
        self,
        shells: Sequence[Shell],
        dataset: DemandDataset,
        oversubscription: float = 20.0,
        beam_plan: Optional[BeamPlan] = None,
        strategy: Optional[BeamAssignmentStrategy] = None,
        min_elevation_deg: float = STARLINK_MIN_ELEVATION_DEG,
        gateways: Optional[Sequence["GatewaySite"]] = None,
        impairments: Optional[Sequence["Impairment"]] = None,
        impairment_seed: int = 0,
        engine: str = "fast",
        visibility_window: Union[int, str] = "auto",
    ):
        """Set up the simulation.

        When ``gateways`` is given, the simulation runs in **bent-pipe
        mode**: a satellite may only serve cells while it simultaneously
        sees a gateway (10-degree gateway mask). Without it, satellites
        are assumed to have inter-satellite links and serve freely.

        ``impairments`` (see :mod:`repro.sim.impairments`) inject
        satellite outages and weather derating into every step.

        ``engine`` selects the visibility machinery: ``"fast"`` (the
        vectorized :class:`VisibilityIndex` path) or ``"reference"``
        (the original per-step KD-tree rebuild).

        ``visibility_window`` is forwarded to the fast path's
        :class:`VisibilityIndex`: ``"auto"`` (default) lets the index
        choose between per-step rebuilds and cached-candidate windows
        from the step size, an int pins the window length. All modes
        produce bit-identical relations.
        """
        if not shells:
            raise SimulationError("simulation needs at least one shell")
        if oversubscription <= 0.0:
            raise SimulationError(
                f"oversubscription must be positive: {oversubscription!r}"
            )
        if engine not in ("fast", "reference"):
            raise SimulationError(f"unknown simulation engine: {engine!r}")
        self.engine = engine
        self.shells = list(shells)
        self.dataset = dataset
        self.beam_plan = beam_plan or starlink_beam_plan()
        self.strategy = strategy or GreedyDemandFirst()
        self.min_elevation_deg = min_elevation_deg
        self.walkers = [WalkerDelta.from_shell(s) for s in self.shells]
        self.satellite_count = sum(w.total for w in self.walkers)

        counts = dataset.counts().astype(float)
        self.demands_mbps = np.minimum(
            counts * 100.0 / oversubscription,
            self.beam_plan.cell_capacity_mbps,
        )
        self._cell_ecef = self._cells_to_ecef(dataset)
        # Visibility radius per shell: the slant range from a ground point
        # to a satellite sitting exactly at the coverage-cone edge. A
        # satellite is visible iff its straight-line (chord) distance from
        # the ground point is at most this.
        self._chord_radii = [
            slant_range_km(
                s.altitude_km,
                coverage_central_angle_rad(s.altitude_km, min_elevation_deg),
            )
            for s in self.shells
        ]
        self.impairments = list(impairments) if impairments else []
        self._impairment_rng = np.random.default_rng(impairment_seed)
        # Cell centers are only needed by impairments; materializing
        # them here would force every lazy columnar cell, so the
        # _cell_positions property builds the list on first use.
        self._cell_positions_cache: Optional[list] = None
        self.visibility_window = visibility_window
        self.gateways = list(gateways) if gateways else []
        if self.gateways:
            gw_lat = np.radians(
                np.array([g.position.lat_deg for g in self.gateways])
            )
            gw_lon = np.radians(
                np.array([g.position.lon_deg for g in self.gateways])
            )
            self._gateway_ecef = EARTH_RADIUS_KM * np.stack(
                [
                    np.cos(gw_lat) * np.cos(gw_lon),
                    np.cos(gw_lat) * np.sin(gw_lon),
                    np.sin(gw_lat),
                ],
                axis=-1,
            )
            self._gateway_radii = [
                slant_range_km(
                    s.altitude_km,
                    coverage_central_angle_rad(
                        s.altitude_km, GATEWAY_MIN_ELEVATION_DEG
                    ),
                )
                for s in self.shells
            ]
        self._index: Optional[VisibilityIndex] = None

    @property
    def visibility_index(self) -> VisibilityIndex:
        """The precomputed fast-path visibility index (built lazily)."""
        if self._index is None:
            self._index = VisibilityIndex(
                self.walkers,
                self._cell_ecef,
                self._chord_radii,
                gateway_ecef=self._gateway_ecef if self.gateways else None,
                gateway_radii_km=self._gateway_radii if self.gateways else None,
                window=self.visibility_window,
            )
        return self._index

    @property
    def _cell_positions(self) -> list:
        """Per-cell centers, materialized on first use (impairments only)."""
        if self._cell_positions_cache is None:
            self._cell_positions_cache = [
                cell.center for cell in self.dataset.cells
            ]
        return self._cell_positions_cache

    @staticmethod
    def _cells_to_ecef(dataset: DemandDataset) -> np.ndarray:
        lat = np.radians(dataset.latitudes())
        lon = np.radians(dataset.to_columns()["center_lon"])
        return EARTH_RADIUS_KM * np.stack(
            [
                np.cos(lat) * np.cos(lon),
                np.cos(lat) * np.sin(lon),
                np.sin(lat),
            ],
            axis=-1,
        )

    def visibility(self, time_s: float):
        """(visible sat-index lists per cell, all sat latitudes) at a time.

        Served by the fast index unless ``engine="reference"``; both
        produce the same per-cell arrays.
        """
        if self.engine == "fast":
            csr, sat_lats = self.visibility_index.query(time_s)
            return csr.to_lists(), sat_lats
        return self._visibility(time_s)

    def _visibility(self, time_s: float):
        """Reference visibility: per-step KD-tree rebuild (original code).

        Kept verbatim as the baseline the fast
        :class:`VisibilityIndex` is differentially tested against.
        """
        visible_per_cell: List[List[int]] = [[] for _ in range(self.dataset.n_cells)]
        all_lats: List[np.ndarray] = []
        offset = 0
        for shell_index, (walker, chord) in enumerate(
            zip(self.walkers, self._chord_radii)
        ):
            ecef = eci_to_ecef(walker.positions_eci(time_s), time_s)
            lat, _, _ = ecef_to_latlon(ecef)
            all_lats.append(lat)
            tree = cKDTree(ecef)
            eligible = None
            if self.gateways:
                # Bent-pipe mode: only satellites currently seeing a
                # gateway may carry user traffic.
                gw_hits = tree.query_ball_point(
                    self._gateway_ecef, r=self._gateway_radii[shell_index]
                )
                eligible = set()
                for hit in gw_hits:
                    eligible.update(hit)
            # Chord between a ground point and a satellite at the coverage
            # edge: use the exact slant distance at the central-angle limit.
            hits = tree.query_ball_point(self._cell_ecef, r=chord)
            for cell_index, sat_indices in enumerate(hits):
                visible_per_cell[cell_index].extend(
                    offset + s
                    for s in sat_indices
                    if eligible is None or s in eligible
                )
            offset += walker.total
        visible = [np.array(v, dtype=int) for v in visible_per_cell]
        return visible, np.concatenate(all_lats)

    def run(self, clock: SimulationClock) -> CoverageMetrics:
        """Run the simulation, returning the raw metric accumulators."""
        metrics = CoverageMetrics(cell_count=self.dataset.n_cells)
        registry = obs.registry()
        registry.gauge("sim.cells").set(self.dataset.n_cells)
        registry.gauge("sim.satellites").set(self.satellite_count)
        steps = registry.counter("sim.steps")
        nnz = registry.counter("sim.csr.nnz")
        covered_cells = registry.counter("sim.covered.cells")
        allocated_total = registry.counter("sim.allocated.total_mbps")
        if self.engine == "fast":
            # Give the index the clock's step so window="auto" can size
            # candidate windows before the first two queries land.
            self.visibility_index.configure_window(step_hint_s=clock.step_s)
        with obs.span(
            "sim.run",
            engine=self.engine,
            cells=self.dataset.n_cells,
            satellites=self.satellite_count,
        ):
            for time_s in clock.times():
                outcome, in_view, sat_lats = self.step(time_s)
                if int(outcome.beams_used.max(initial=0)) > self.beam_plan.beams_per_satellite:
                    raise SimulationError("strategy oversubscribed a satellite's beams")
                # Correctness counters: engine-independent by construction
                # (both engines hand back identical outcomes), asserted by
                # tests/obs/test_instrumentation.py.
                steps.inc()
                nnz.inc(int(in_view.sum()))
                covered_cells.inc(int(outcome.covered.sum()))
                allocated_total.inc(float(outcome.allocated_mbps.sum()))
                metrics.record_step(
                    covered=outcome.covered,
                    allocated_mbps=outcome.allocated_mbps,
                    in_view_counts=in_view,
                    satellite_latitudes=sat_lats,
                    beams_used=outcome.beams_used,
                    serving_satellite=outcome.serving_satellite,
                )
        return metrics

    def step(
        self, time_s: float, demands_mbps: Optional[np.ndarray] = None
    ):
        """One simulation step: ``(outcome, in_view_counts, sat_lats)``.

        ``demands_mbps`` overrides the static provisioned demand for
        this step only — the hook time-varying workloads
        (:mod:`repro.timeline`) use to apply diurnal multipliers without
        mutating the simulation. ``None`` (the default, and what
        :meth:`run` passes) keeps the static :attr:`demands_mbps`.
        """
        if (
            demands_mbps is not None
            and demands_mbps.shape[0] != self.dataset.n_cells
        ):
            raise SimulationError("demand override misaligned with cells")
        if self.engine == "fast":
            return self._step_fast(time_s, demands_mbps)
        return self._step_reference(time_s, demands_mbps)

    def _step_fast(
        self, time_s: float, demands_override: Optional[np.ndarray] = None
    ):
        """One step on the CSR fast path."""
        with obs.span("sim.step", engine="fast", time_s=time_s):
            with obs.span("sim.visibility") as vis_span:
                csr, sat_lats = self.visibility_index.query(time_s)
                stats = self.visibility_index.last_query_stats
                if stats:
                    # sim.visibility.mode / .window_steps span attributes
                    # plus the candidate-reuse counters.
                    vis_span.set(
                        mode=stats["mode"],
                        window_steps=stats["window_steps"],
                    )
                    registry = obs.registry()
                    registry.counter("sim.visibility.candidates").inc(
                        stats["candidates"]
                    )
                    if stats["window_rebuilt"]:
                        registry.counter("sim.visibility.window_rebuilds").inc()
                    registry.gauge("sim.visibility.refine_ratio").set(
                        stats["refine_ratio"]
                    )
            demands = (
                demands_override
                if demands_override is not None
                else self.demands_mbps
            )
            if self.impairments:
                with obs.span("sim.impairments"):
                    csr, demands = apply_impairments_csr(
                        self.impairments,
                        csr,
                        demands,
                        self._cell_positions,
                        self._impairment_rng,
                    )
            with obs.span("sim.assignment"):
                outcome = self.strategy.assign_csr(csr, demands, self.beam_plan)
            return outcome, csr.counts(), sat_lats

    def _step_reference(
        self, time_s: float, demands_override: Optional[np.ndarray] = None
    ):
        """One step on the original list-of-arrays path."""
        with obs.span("sim.step", engine="reference", time_s=time_s):
            with obs.span("sim.visibility"):
                visible, sat_lats = self._visibility(time_s)
            demands = (
                demands_override
                if demands_override is not None
                else self.demands_mbps
            )
            if self.impairments:
                with obs.span("sim.impairments"):
                    visible, demands = apply_impairments(
                        self.impairments,
                        visible,
                        demands,
                        self._cell_positions,
                        self.satellite_count,
                        self._impairment_rng,
                    )
            with obs.span("sim.assignment"):
                outcome = self.strategy.assign(
                    visible, demands, self.satellite_count, self.beam_plan
                )
            in_view = np.array([v.size for v in visible], dtype=np.int64)
            return outcome, in_view, sat_lats

    def report(self, metrics: CoverageMetrics) -> SimulationReport:
        """Summarize a finished run."""
        coverage = metrics.coverage_fraction()
        allocated = metrics.mean_allocated_mbps()
        total_demand = float(self.demands_mbps.sum())
        satisfaction = (
            float(np.minimum(allocated, self.demands_mbps).sum()) / total_demand
            if total_demand > 0
            else 1.0
        )
        peak_beams = metrics.peak_beams_used
        return SimulationReport(
            mean_handovers_per_step=metrics.mean_handovers_per_step(),
            mean_reconnections_per_step=metrics.mean_reconnections_per_step(),
            steps=metrics.steps,
            cells=self.dataset.n_cells,
            satellites=self.satellite_count,
            min_coverage_fraction=float(coverage.min()),
            mean_coverage_fraction=float(coverage.mean()),
            mean_satellites_in_view=float(metrics.mean_satellites_in_view().mean()),
            demand_satisfaction=satisfaction,
            peak_beams_used=peak_beams,
        )
