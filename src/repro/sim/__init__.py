"""Time-stepped LEO constellation simulator.

The paper's model is analytical; this package is the library's dynamical
cross-check. It propagates Walker shells, assigns spot beams to demand
cells each step, and measures what the analytical model predicts:

* the latitude distribution of satellites (vs ``e(phi)`` from
  :mod:`repro.orbits.density`),
* continuous coverage (every demand cell sees a satellite at every step),
* achieved per-cell capacity vs the servability model of
  :mod:`repro.core.oversubscription`.
"""

from repro.sim.assignment import (
    AssignmentOutcome,
    BeamAssignmentStrategy,
    GreedyDemandFirst,
    ProportionalFair,
    StickyGreedy,
)
from repro.sim.beamgroups import SpreadAssignment, build_beam_groups
from repro.sim.engine import SimulationClock
from repro.sim.impairments import Impairment, RainFade, SatelliteOutages
from repro.sim.metrics import CoverageMetrics, SimulationReport
from repro.sim.simulation import ConstellationSimulation
from repro.sim.trace import (
    SimulationTrace,
    read_trace_csv,
    read_trace_jsonl,
    record_trace,
    write_trace_csv,
    write_trace_jsonl,
)
from repro.sim.visibility_index import CSRVisibility, VisibilityIndex

__all__ = [
    "CSRVisibility",
    "VisibilityIndex",
    "AssignmentOutcome",
    "BeamAssignmentStrategy",
    "GreedyDemandFirst",
    "ProportionalFair",
    "StickyGreedy",
    "SpreadAssignment",
    "build_beam_groups",
    "SimulationClock",
    "Impairment",
    "RainFade",
    "SatelliteOutages",
    "CoverageMetrics",
    "SimulationReport",
    "ConstellationSimulation",
    "SimulationTrace",
    "read_trace_csv",
    "read_trace_jsonl",
    "record_trace",
    "write_trace_csv",
    "write_trace_jsonl",
]
