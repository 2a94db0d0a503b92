"""Validation: the dynamical simulator vs the analytical model.

Not a paper figure — the library's own consistency experiment. It checks
the two analytical ingredients Table 2 rests on against a propagated
Walker constellation:

1. the latitude enhancement e(phi) matches the empirical satellite
   distribution, and
2. a dense-enough constellation achieves continuous coverage of a demand
   region, as the servability model assumes.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import StarlinkDivideModel
from repro.experiments.registry import ExperimentResult
from repro.orbits.density import ShellMixDensity
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import ProportionalFair
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation
from repro.viz.tables import format_table

#: Appalachia region around the peak-demand cell.
VALIDATION_BBOX = (36.0, 39.5, -89.6, -80.0)


def run(model: StarlinkDivideModel) -> ExperimentResult:
    """Run the simulator cross-check on a regional subset."""
    region = model.dataset.subset_bbox(*VALIDATION_BBOX, description="validation region")
    shells = list(GEN1_SHELLS[:2])
    simulation = ConstellationSimulation(
        shells, region, oversubscription=20.0, strategy=ProportionalFair()
    )
    # Sample just over half an orbital period at 30 s; plenty of latitude
    # samples, fast enough for a test run.
    metrics = simulation.run(SimulationClock(duration_s=3000.0, step_s=30.0))
    report = simulation.report(metrics)

    density = ShellMixDensity(shells)
    edges = np.linspace(-50.0, 50.0, 21)
    centers, empirical = density.empirical_latitude_histogram(
        metrics.all_latitude_samples(), edges
    )
    rows = []
    errors = []
    for lat, emp in zip(centers, empirical):
        theory = density.enhancement(float(lat))
        error = abs(emp - theory) / theory
        errors.append(error)
        rows.append((f"{lat:+.1f}", f"{emp:.3f}", f"{theory:.3f}", f"{error:.1%}"))
    table = format_table(
        ("latitude", "simulated e", "analytical e", "error"),
        rows,
        title="Satellite latitude density: simulation vs theory",
    )
    worst = max(errors)
    summary = (
        f"{report.text()}\n"
        f"worst density error across latitude bins: {worst:.1%}"
    )
    return ExperimentResult(
        experiment_id="val",
        title="Validation: simulator vs analytical model",
        text=f"{table}\n\n{summary}",
        csv_headers=("latitude", "simulated_enhancement", "analytical_enhancement"),
        csv_rows=[row[:3] for row in rows],
        metrics={
            "min_coverage_fraction": report.min_coverage_fraction,
            "demand_satisfaction": report.demand_satisfaction,
            "worst_density_error": worst,
        },
    )
