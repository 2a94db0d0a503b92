"""Time-stepped LEO constellation simulator.

The paper's model is analytical; this package is the library's dynamical
cross-check. It propagates Walker shells, assigns spot beams to demand
cells each step, and measures what the analytical model predicts:

* the latitude distribution of satellites (vs ``e(phi)`` from
  :mod:`repro.orbits.density`),
* continuous coverage (every demand cell sees a satellite at every step),
* achieved per-cell capacity vs the servability model of
  :mod:`repro.core.oversubscription`.

Per-step output for users is the timeline JSONL of :mod:`repro.timeline`.
The reference step, the list-based strategy loops and the trace recorder
the parity tests compare against live in ``tests/oracles/``.
"""

from repro.sim.assignment import (
    AssignmentOutcome,
    BeamAssignmentStrategy,
    GreedyDemandFirst,
    ProportionalFair,
    StickyGreedy,
)
from repro.sim.engine import SimulationClock
from repro.sim.impairments import Impairment, RainFade, SatelliteOutages
from repro.sim.metrics import CoverageMetrics, SimulationReport
from repro.sim.simulation import ConstellationSimulation
from repro.sim.visibility_index import CSRVisibility, VisibilityIndex

__all__ = [
    "CSRVisibility",
    "VisibilityIndex",
    "AssignmentOutcome",
    "BeamAssignmentStrategy",
    "GreedyDemandFirst",
    "ProportionalFair",
    "StickyGreedy",
    "SimulationClock",
    "Impairment",
    "RainFade",
    "SatelliteOutages",
    "CoverageMetrics",
    "SimulationReport",
    "ConstellationSimulation",
]
