"""Location-pipeline benches: columnar fast path at BDC scale.

Benchmarks the stages the columnar path accelerates — explode (per-cell
counts to 4.66 M location rows), bin (rows back to per-cell counts), and
the chunked CSV / NPZ I/O — at the paper's national scale, plus a
regional fast-vs-reference differential that asserts output identity and
records the speedup. ``repro-divide bench-locations`` runs the same
measurements from the CLI and writes ``BENCH_locations.json``.
"""

import pytest

from repro.demand.bench import run_locations_bench
from repro.demand.locations import (
    LocationTable,
    bin_table,
    explode_cells,
    explode_cells_table,
    read_table_csv,
    write_table_csv,
)
from repro.demand.regions import QUICK_BBOX

SEED = 0


@pytest.fixture(scope="module")
def national_dataset(national_model):
    return national_model.dataset


@pytest.fixture(scope="module")
def national_table(national_dataset):
    return explode_cells_table(national_dataset, seed=SEED)


@pytest.fixture(scope="module")
def quick_dataset(national_dataset):
    return national_dataset.subset_bbox(*QUICK_BBOX, "bench quick region")


def bench_explode_fast(benchmark, national_dataset):
    """Columnar explode of the full 4.66 M-location national map."""
    table = benchmark.pedantic(
        lambda: explode_cells_table(national_dataset, seed=SEED),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["rows"] = len(table)


def bench_explode_reference_regional(benchmark, quick_dataset):
    """Record-at-a-time explode on the regional subset (the reference is
    too slow to repeat at national scale)."""
    records = benchmark.pedantic(
        lambda: explode_cells(quick_dataset, seed=SEED),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["rows"] = len(records)


def bench_bin_fast(benchmark, national_dataset, national_table):
    """Columnar bin of the national table back into per-cell counts."""
    bins = benchmark.pedantic(
        lambda: bin_table(national_table, national_dataset.grid_resolution),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["cells"] = len(bins)


def bench_csv_roundtrip_fast(benchmark, quick_dataset, tmp_path_factory):
    """Chunked CSV write+read of the regional table."""
    table = explode_cells_table(quick_dataset, seed=SEED)
    path = tmp_path_factory.mktemp("bench_locations") / "table.csv"

    def run():
        write_table_csv(table, path)
        return read_table_csv(path)

    loaded = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(loaded) == len(table)


def bench_npz_roundtrip(benchmark, national_table, tmp_path_factory):
    """NPZ write+read of the full national table."""
    path = tmp_path_factory.mktemp("bench_locations") / "table.npz"

    def run():
        national_table.to_npz(path)
        return LocationTable.from_npz(path)

    loaded = benchmark.pedantic(run, rounds=2, iterations=1)
    assert loaded.equals(national_table)


def bench_pipeline_differential(benchmark, quick_dataset):
    """Full fast-vs-reference regional bench; asserts identity and records
    the headline speedup."""
    results = benchmark.pedantic(
        lambda: run_locations_bench(quick=False, dataset=quick_dataset),
        rounds=1,
        iterations=1,
    )
    assert results["all_identical"]
    benchmark.extra_info["headline_speedup"] = results["headline_speedup"]
    assert results["headline_speedup"] > 1.0
