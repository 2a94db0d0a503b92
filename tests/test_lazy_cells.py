"""Generated maps stay columnar through every pipeline layer.

``generate_national_map`` returns a dataset backed by arrays; its
per-cell :class:`~repro.demand.bsl.ServiceCell` list is built only when
something reads ``dataset.cells``, which costs ~1.5 s and ~60 MB at
national res 6. Each test here makes that property raise and then drives
one layer of the pipeline, so a layer that slips back to the object view
fails with a traceback pointing at it.
"""

from __future__ import annotations

import pytest

from repro.core.bentpipe import BentPipeAnalysis
from repro.core.model import StarlinkDivideModel
from repro.demand.dataset import DemandDataset
from repro.demand.locations import bin_table, explode_cells_table
from repro.demand.regions import andes_highlands
from repro.demand.synthetic import SyntheticMapConfig, generate_national_map
from repro.geo.coords import LatLon
from repro.orbits.shells import GEN1_SHELLS
from repro.serve import build_index
from repro.sim.engine import SimulationClock
from repro.sim.impairments import RainFade, SatelliteOutages
from repro.sim.simulation import ConstellationSimulation
from repro.timeline import (
    HandoverChurnModel,
    TimelineConfig,
    get_profile,
    run_timeline,
)


@pytest.fixture()
def dataset(monkeypatch):
    """A generated map (1,864 cells) whose cell list must not be built."""
    generated = generate_national_map(
        SyntheticMapConfig.for_region(andes_highlands())
    )

    def materialized(self):
        raise AssertionError("dataset.cells was materialized")

    monkeypatch.setattr(DemandDataset, "cells", property(materialized))
    return generated


def test_subset_bbox(dataset):
    subset = dataset.subset_bbox(-36.0, -30.0, -75.0, -68.0)
    assert 0 < subset.n_cells < dataset.n_cells


def test_findings_figures_and_tables(dataset):
    model = StarlinkDivideModel(dataset)
    model.findings()
    model.figure1_distribution()
    model.figure1_cdf()
    model.table1()
    model.figure2_grid()
    model.table2()
    model.figure3_curves()
    model.figure4_curves()


def test_explode_bin_and_index_build(dataset):
    table = explode_cells_table(dataset, seed=0)
    bin_table(table, dataset.grid_resolution)
    build_index(table, dataset)


def test_simulation_run(dataset):
    simulation = ConstellationSimulation(
        list(GEN1_SHELLS), dataset, oversubscription=20.0
    )
    metrics = simulation.run(SimulationClock(duration_s=120.0, step_s=60.0))
    simulation.report(metrics)


def test_impaired_simulation_step(dataset):
    simulation = ConstellationSimulation(
        list(GEN1_SHELLS),
        dataset,
        impairments=[
            SatelliteOutages(outage_fraction=0.1, seed=1),
            RainFade(LatLon(-33.0, -71.0), radius_km=300.0, efficiency_factor=0.5),
        ],
    )
    simulation.step(0.0)


def test_bent_pipe_coverage_summary(dataset):
    BentPipeAnalysis(dataset).coverage_summary()


def test_timeline_run(dataset):
    config = TimelineConfig(
        duration_s=10.0,
        step_s=5.0,
        profile=get_profile("residential"),
        churn=HandoverChurnModel(),
        strategy="fair",
        start_s=2 * 3600.0,
    )
    run_timeline(dataset, GEN1_SHELLS, config)
