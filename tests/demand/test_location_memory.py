"""The national explode and bin stream: peak memory stays near the output.

``tracemalloc`` sees NumPy's array allocations, so the traced peak above
the start of a call is what the call allocates at its worst moment. On
the national map (4.66 M locations, a ~258 MB table) explode may hold
the table it returns plus one chunk's working set, and bin no more than
a few chunks' temporaries and its answer. Whole-table passes need
hundreds of MB more for either.
"""

from __future__ import annotations

import tracemalloc

from repro.demand.locations import (
    _TABLE_COLUMNS,
    bin_table,
    explode_cells_table,
)

MB = 2**20


def _traced_peak(call):
    """``(result, peak bytes allocated above the start of the call)``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_explode_peak_is_the_table_plus_a_chunk(national_dataset):
    table, peak = _traced_peak(
        lambda: explode_cells_table(national_dataset, seed=0)
    )
    table_bytes = sum(getattr(table, name).nbytes for name in _TABLE_COLUMNS)
    assert len(table) == national_dataset.total_locations
    assert peak <= table_bytes + 32 * MB, (peak, table_bytes)


def test_bin_peak_does_not_grow_with_the_table(national_dataset):
    table = explode_cells_table(national_dataset, seed=0)
    bins, peak = _traced_peak(
        lambda: bin_table(table, national_dataset.grid_resolution)
    )
    assert len(bins) == national_dataset.n_cells
    assert peak <= 48 * MB, peak
