"""Cross-layer instrumentation tests: the simulator, the locations
pipeline, and the disabled no-op path, all against the global telemetry.
"""

import numpy as np
import pytest

from repro import obs
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation
from repro.sim.assignment import GreedyDemandFirst

from tests.oracles.assignment import ReferenceGreedyDemandFirst

CLOCK = dict(duration_s=120.0, step_s=60.0)

#: The counters the two engines must agree on exactly — the telemetry
#: restatement of "fast and reference produce identical outcomes".
CORRECTNESS_COUNTERS = (
    "sim.steps",
    "sim.csr.nnz",
    "sim.covered.cells",
    "sim.allocated.total_mbps",
)


def _run_engine(engine: str, dataset):
    strategy = (
        GreedyDemandFirst() if engine == "fast" else ReferenceGreedyDemandFirst()
    )
    simulation = ConstellationSimulation(
        GEN1_SHELLS[:1], dataset, strategy=strategy, engine=engine
    )
    obs.reset()
    simulation.run(SimulationClock(**CLOCK))
    counters = dict(obs.registry().counter_items())
    span_names = [record.name for record in obs.tracer().records]
    return counters, span_names


class TestSimulationInstrumentation:
    def test_fast_and_reference_agree_on_correctness_counters(
        self, regional_dataset
    ):
        fast_counters, fast_spans = _run_engine("fast", regional_dataset)
        ref_counters, ref_spans = _run_engine("reference", regional_dataset)
        for name in CORRECTNESS_COUNTERS:
            assert fast_counters[name] == ref_counters[name], name
        assert fast_counters["sim.steps"] == 2
        for spans in (fast_spans, ref_spans):
            assert "sim.run" in spans
            assert "sim.step" in spans
            assert "sim.visibility" in spans
            assert "sim.assignment" in spans

    def test_run_span_carries_engine_and_gauges(self, regional_dataset):
        # _run_engine resets before running, so records are this run's.
        _run_engine("fast", regional_dataset)
        run_span = next(
            r for r in obs.tracer().records if r.name == "sim.run"
        )
        assert run_span.attrs["engine"] == "fast"
        assert obs.registry().gauge("sim.cells").value == len(
            regional_dataset.cells
        )
        assert obs.registry().gauge("sim.satellites").value == 1584

    def test_impairments_get_their_own_span(self, regional_dataset):
        from repro.sim.impairments import SatelliteOutages

        simulation = ConstellationSimulation(
            GEN1_SHELLS[:1],
            regional_dataset,
            impairments=[SatelliteOutages(outage_fraction=0.05, seed=1)],
        )
        obs.reset()
        simulation.run(SimulationClock(**CLOCK))
        assert "sim.impairments" in [
            r.name for r in obs.tracer().records
        ]

    def test_disabled_telemetry_records_nothing(self, regional_dataset):
        """The committed no-op assertion: with telemetry off, a full run
        allocates zero span records and leaves every counter untouched —
        the disabled path is a single attribute check."""
        simulation = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset
        )
        obs.reset()
        obs.configure(enabled=False)
        simulation.run(SimulationClock(**CLOCK))
        assert len(obs.tracer()) == 0
        assert all(
            value == 0 for _, value in obs.registry().counter_items()
        )


class TestLocationsInstrumentation:
    def test_explode_and_bin_spans_and_counters(self, regional_dataset):
        from repro.demand.locations import bin_table, explode_cells_table

        obs.reset()
        table = explode_cells_table(regional_dataset, seed=0)
        bins = bin_table(table, regional_dataset.grid_resolution)
        counters = dict(obs.registry().counter_items())
        assert counters["locations.explode.rows"] == len(table)
        assert counters["locations.explode.cells"] == len(
            regional_dataset.cells
        )
        assert counters["locations.bin.rows"] == len(table)
        assert counters["locations.bin.cells_out"] == len(bins)
        by_name = {r.name: r for r in obs.tracer().records}
        assert by_name["locations.explode"].attrs["rows"] == len(table)
        assert by_name["locations.bin"].attrs["cells_out"] == len(bins)

    def test_csv_io_spans(self, regional_dataset, tmp_path):
        from repro.demand.locations import (
            explode_cells_table,
            read_table_csv,
            write_table_csv,
        )

        table = explode_cells_table(regional_dataset, seed=0)
        obs.reset()
        path = write_table_csv(table, tmp_path / "locations.csv")
        loaded = read_table_csv(path)
        assert len(loaded) == len(table)
        counters = dict(obs.registry().counter_items())
        assert counters["locations.csv.rows_written"] == len(table)
        assert counters["locations.csv.rows_read"] == len(table)
        names = [r.name for r in obs.tracer().records]
        assert "locations.csv.write" in names
        assert "locations.csv.read" in names

