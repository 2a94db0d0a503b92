"""Microbenchmarks of the substrates: grid, orbits, simulator step, data."""

import numpy as np

from repro.demand.regions import QUICK_BBOX
from repro.demand.synthetic import SyntheticMapConfig, generate_national_map
from repro.geo.coords import LatLon
from repro.geo.hexgrid import HexGrid
from repro.orbits.shells import GEN1_SHELLS
from repro.orbits.walker import WalkerDelta
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation


def bench_hexgrid_point_to_cell(benchmark):
    """Throughput of lat/lon -> cell assignment (10k points)."""
    grid = HexGrid(5)
    rng = np.random.default_rng(0)
    points = [
        LatLon(float(lat), float(lon))
        for lat, lon in zip(
            rng.uniform(25, 49, 10_000), rng.uniform(-124, -67, 10_000)
        )
    ]
    cells = benchmark(lambda: [grid.cell_for(p) for p in points])
    assert len(set(cells)) > 5000


def bench_walker_propagation(benchmark):
    """Propagating the 1584-satellite Gen1 shell 1 to one epoch."""
    walker = WalkerDelta.from_shell(GEN1_SHELLS[0])
    positions = benchmark(lambda: walker.positions_eci(1234.5))
    assert positions.shape == (1584, 3)


def bench_simulation_step(benchmark, national_model):
    """One full simulation step (propagate + visibility + assignment)."""
    region = national_model.dataset.subset_bbox(*QUICK_BBOX, "bench region")
    sim = ConstellationSimulation(GEN1_SHELLS[:1], region, oversubscription=20.0)
    clock = SimulationClock(duration_s=60.0, step_s=60.0)
    metrics = benchmark.pedantic(
        lambda: sim.run(clock), rounds=5, iterations=1
    )
    assert metrics.steps == 1


def bench_synthetic_map_generation(benchmark):
    """Generating a quarter-scale calibrated synthetic map."""
    config = SyntheticMapConfig(seed=123, total_locations=1_000_000)
    dataset = benchmark.pedantic(
        lambda: generate_national_map(config), rounds=1, iterations=1
    )
    assert dataset.total_locations == 1_000_000


def bench_isl_graph_build(benchmark):
    """Building the 1584-node +Grid ISL graph with live distances."""
    from repro.orbits.isl import isl_graph

    walker = WalkerDelta.from_shell(GEN1_SHELLS[0])
    graph = benchmark(lambda: isl_graph(walker, 500.0))
    assert graph.number_of_edges() == 2 * 1584


def bench_latency_survey(benchmark, national_model):
    """A 100-cell latency survey through shell 1."""
    from repro.core.latency import LatencyAnalysis

    analysis = LatencyAnalysis(national_model.dataset, GEN1_SHELLS[0])
    summary = benchmark.pedantic(
        lambda: analysis.summary(max_cells=100), rounds=2, iterations=1
    )
    assert summary["meets_fcc_low_latency"]
