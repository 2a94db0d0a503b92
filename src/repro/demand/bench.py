"""Location-pipeline benchmark: columnar fast path vs scalar reference.

Measures the BDC-scale location layer at a configurable scale (default:
the calibrated 4.66 M-location national dataset):

* **explode** — :func:`~repro.demand.locations.explode_cells_table` vs
  the record-at-a-time :func:`~repro.demand.locations.explode_cells`,
* **bin** — :func:`~repro.demand.locations.bin_table` vs
  :func:`~repro.demand.locations.bin_locations`,
* **CSV I/O** — the chunked column writer/reader vs the record I/O, on a
  bounded row slice so the I/O stage doesn't dominate the run,
* **NPZ** — columnar persistence round-trip (fast path only; the scalar
  reference has no binary format).

Every stage also checks that the two paths produce identical output
(tables equal column-for-column, bins equal, CSV bytes equal), so the
benchmark doubles as an end-to-end differential test.
``run_locations_bench`` returns a JSON-serializable dict (written to
``BENCH_locations.json`` by ``repro-divide bench-locations``) so every
commit can extend a machine-readable performance trajectory.
"""

from __future__ import annotations

import platform
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.demand.locations import (
    LocationTable,
    bin_locations,
    bin_table,
    explode_cells,
    explode_cells_table,
    read_locations_csv,
    read_table_csv,
    write_locations_csv,
    write_table_csv,
)
from repro.demand.regions import QUICK_BBOX
from repro.sim.bench import BenchTimings, _best_of, _git_commit

#: Rows benched through the CSV/NPZ stages at full scale. I/O cost is
#: linear in rows; a bounded slice keeps the bench wall time dominated by
#: the explode/bin stages the fast path is actually about.
IO_ROW_CAP = 500_000


def _table_slice(table: LocationTable, stop: int) -> LocationTable:
    return LocationTable(
        location_id=table.location_id[:stop],
        lat_deg=table.lat_deg[:stop],
        lon_deg=table.lon_deg[:stop],
        cell_key=table.cell_key[:stop],
        county_id=table.county_id[:stop],
        technology=table.technology[:stop],
        max_download_mbps=table.max_download_mbps[:stop],
        max_upload_mbps=table.max_upload_mbps[:stop],
    )


def run_locations_bench(
    quick: bool = False,
    repeat: int = 1,
    seed: int = 0,
    dataset=None,
) -> Dict:
    """Run the full location-pipeline benchmark; returns the results dict.

    ``quick`` shrinks the scenario to a regional cell subset for CI smoke
    runs; the default measures the acceptance configuration (the national
    4.66 M-location map). Every timing is best-of-``repeat``.
    """
    if dataset is None:
        from repro.demand.synthetic import generate_national_map

        dataset = generate_national_map()
    if quick:
        dataset = dataset.subset_bbox(*QUICK_BBOX, "bench quick region")
    resolution = dataset.grid_resolution

    results: Dict[str, object] = {}

    def fast_explode() -> None:
        results["table"] = explode_cells_table(dataset, seed=seed)

    def reference_explode() -> None:
        results["records"] = explode_cells(dataset, seed=seed)

    with obs.span("bench.locations.explode"):
        explode = BenchTimings.measure(repeat, fast_explode, reference_explode)
    table: LocationTable = results["table"]
    records = results["records"]
    explode_identical = table.equals(LocationTable.from_records(records))

    def fast_bin() -> None:
        results["fast_bins"] = bin_table(table, resolution)

    def reference_bin() -> None:
        results["reference_bins"] = bin_locations(records, resolution)

    with obs.span("bench.locations.bin"):
        binning = BenchTimings.measure(repeat, fast_bin, reference_bin)
    bin_identical = results["fast_bins"] == results["reference_bins"]

    io_rows = min(len(table), IO_ROW_CAP)
    io_table = _table_slice(table, io_rows)
    io_records = records[:io_rows]
    with obs.span("bench.locations.io", rows=io_rows), \
            tempfile.TemporaryDirectory() as tmp:
        fast_csv = Path(tmp) / "fast.csv"
        reference_csv = Path(tmp) / "reference.csv"
        csv_write = BenchTimings.measure(
            repeat,
            lambda: write_table_csv(io_table, fast_csv),
            lambda: write_locations_csv(io_records, reference_csv),
        )
        csv_bytes_identical = (
            fast_csv.read_bytes() == reference_csv.read_bytes()
        )

        def fast_read() -> None:
            results["fast_loaded"] = read_table_csv(fast_csv)

        def reference_read() -> None:
            results["reference_loaded"] = read_locations_csv(reference_csv)

        csv_read = BenchTimings.measure(repeat, fast_read, reference_read)
        csv_read_identical = results["fast_loaded"].equals(
            LocationTable.from_records(results["reference_loaded"])
        )

        npz_target = Path(tmp) / "table.npz"
        npz_write_s = _best_of(repeat, lambda: io_table.to_npz(npz_target))

        def npz_read() -> None:
            results["npz_loaded"] = LocationTable.from_npz(npz_target)

        npz_read_s = _best_of(repeat, npz_read)
        npz_identical = results["npz_loaded"].equals(io_table)

    all_identical = (
        explode_identical
        and bin_identical
        and csv_bytes_identical
        and csv_read_identical
        and npz_identical
    )

    import numpy

    return {
        "schema": "repro-bench-locations/1",
        "commit": _git_commit(),
        "config": {
            "quick": quick,
            "seed": seed,
            "repeat": repeat,
            "cells": len(dataset.cells),
            "locations": dataset.total_locations,
            "grid_resolution": resolution,
            "io_rows": io_rows,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "explode": {**explode.as_dict(), "identical": explode_identical},
        "bin": {
            **binning.as_dict(),
            "identical": bin_identical,
            "cells_out": len(results["fast_bins"]),
        },
        "csv_write": {
            **csv_write.as_dict(),
            "bytes_identical": csv_bytes_identical,
        },
        "csv_read": {**csv_read.as_dict(), "identical": csv_read_identical},
        "npz": {
            "write_s": npz_write_s,
            "read_s": npz_read_s,
            "round_trip_identical": npz_identical,
        },
        "headline_speedup": (explode.reference_s + binning.reference_s)
        / (explode.fast_s + binning.fast_s),
        "all_identical": all_identical,
    }


def format_locations_bench_summary(results: Dict) -> str:
    """Human-readable one-screen summary of a locations bench dict."""
    config = results["config"]
    lines = [
        "locations bench: {locations} locations x {cells} cells "
        "(io rows: {io_rows}{quick})".format(
            locations=config["locations"],
            cells=config["cells"],
            io_rows=config["io_rows"],
            quick=", quick" if config["quick"] else "",
        )
    ]
    for stage in ("explode", "bin", "csv_write", "csv_read"):
        lines.append(
            "  {stage}: {fast_s:.3f}s fast vs {reference_s:.3f}s reference "
            "({speedup:.1f}x)".format(stage=stage, **results[stage])
        )
    lines.append(
        "  npz: {write_s:.3f}s write, {read_s:.3f}s read".format(
            **results["npz"]
        )
    )
    lines.append(
        "  headline explode+bin speedup: %.1fx (all outputs identical: %s)"
        % (results["headline_speedup"], results["all_identical"])
    )
    return "\n".join(lines)
