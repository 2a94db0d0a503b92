"""Reference simulator step: a fresh KD-tree per shell, every step.

This is the original step of
:class:`~repro.sim.simulation.ConstellationSimulation`, before the
precomputed :class:`~repro.sim.visibility_index.VisibilityIndex` and the
CSR relation: each step propagates every shell, builds a KD-tree over
the satellites, ball-queries every cell centre, and hands per-cell lists
of satellite ids to a list-based strategy (the ``Reference*`` loops of
``tests/oracles/assignment.py``). Impairments filter those lists cell by
cell, and a rain fade scales the demand vector one cell at a time.

The oracle reads the simulation's geometry and configuration (walkers,
cell ECEF positions, chord radii, gateways, impairments, demands, beam
plan) and shares none of its per-step machinery, so the differential
tests check the index, the CSR satellite filter and the assignment
kernels together against it.

Do not optimize this module — its slowness is the point.
"""

from __future__ import annotations

from typing import List

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import SimulationError
from repro.geo.coords import haversine_km
from repro.orbits.kepler import ecef_to_latlon, eci_to_ecef
from repro.sim.engine import SimulationClock
from repro.sim.impairments import RainFade
from repro.sim.metrics import CoverageMetrics


def reference_visibility(sim, time_s: float):
    """(visible sat-index arrays per cell, all sat latitudes) at a time."""
    visible_per_cell: List[List[int]] = [[] for _ in range(sim.dataset.n_cells)]
    all_lats: List[np.ndarray] = []
    offset = 0
    for shell_index, (walker, chord) in enumerate(
        zip(sim.walkers, sim._chord_radii)
    ):
        ecef = eci_to_ecef(walker.positions_eci(time_s), time_s)
        lat, _, _ = ecef_to_latlon(ecef)
        all_lats.append(lat)
        tree = cKDTree(ecef)
        eligible = None
        if sim.gateways:
            # Bent-pipe mode: only satellites currently seeing a
            # gateway may carry user traffic.
            gw_hits = tree.query_ball_point(
                sim._gateway_ecef, r=sim._gateway_radii[shell_index]
            )
            eligible = set()
            for hit in gw_hits:
                eligible.update(hit)
        # Chord between a ground point and a satellite at the coverage
        # edge: use the exact slant distance at the central-angle limit.
        hits = tree.query_ball_point(sim._cell_ecef, r=chord)
        for cell_index, sat_indices in enumerate(hits):
            visible_per_cell[cell_index].extend(
                offset + s
                for s in sat_indices
                if eligible is None or s in eligible
            )
        offset += walker.total
    visible = [np.array(v, dtype=int) for v in visible_per_cell]
    return visible, np.concatenate(all_lats)


def reference_impairments(sim, visible, demands_mbps: np.ndarray):
    """The simulation's impairments over one step's per-cell lists.

    Returns (filtered visibility lists, scaled demand vector). Draws
    from ``sim._impairment_rng`` as the simulation does, so compare a
    reference run against a separate simulation built the same way.
    A :class:`~repro.sim.impairments.RainFade` scales cell by cell, from
    each cell's centre and the scalar great-circle distance; the other
    impairments leave demand unchanged.
    """
    keep = np.ones(sim.satellite_count, dtype=bool)
    for impairment in sim.impairments:
        mask = impairment.filter_satellites(
            sim.satellite_count, sim._impairment_rng
        )
        if mask is not None:
            keep &= mask
    if not keep.all():
        visible = [sats[keep[sats]] for sats in visible]
    demands = demands_mbps
    for impairment in sim.impairments:
        if not isinstance(impairment, RainFade):
            continue
        scaled = demands.copy()
        for index, cell in enumerate(sim.dataset.cells):
            distance = haversine_km(cell.center, impairment.center)
            if distance <= impairment.radius_km:
                scaled[index] = demands[index] / impairment.efficiency_factor
        demands = scaled
    return visible, demands


def reference_step(sim, time_s: float, strategy, demands_mbps=None):
    """One step on the list-of-arrays path: ``(outcome, in_view, lats)``."""
    visible, sat_lats = reference_visibility(sim, time_s)
    demands = demands_mbps if demands_mbps is not None else sim.demands_mbps
    if sim.impairments:
        visible, demands = reference_impairments(sim, visible, demands)
    outcome = strategy.assign(visible, demands, sim.satellite_count, sim.beam_plan)
    in_view = np.array([v.size for v in visible], dtype=np.int64)
    return outcome, in_view, sat_lats


def reference_run(sim, clock: SimulationClock, strategy) -> CoverageMetrics:
    """Run ``sim``'s configuration over ``clock`` on the reference step."""
    metrics = CoverageMetrics(cell_count=sim.dataset.n_cells)
    for time_s in clock.times():
        outcome, in_view, sat_lats = reference_step(sim, time_s, strategy)
        if int(outcome.beams_used.max(initial=0)) > sim.beam_plan.beams_per_satellite:
            raise SimulationError("strategy oversubscribed a satellite's beams")
        metrics.record_step(
            covered=outcome.covered,
            allocated_mbps=outcome.allocated_mbps,
            in_view_counts=in_view,
            satellite_latitudes=sat_lats,
            beams_used=outcome.beams_used,
            serving_satellite=outcome.serving_satellite,
        )
    return metrics
