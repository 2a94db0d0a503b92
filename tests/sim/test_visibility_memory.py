"""The cached visibility window keeps ~4 bytes per candidate.

``tracemalloc`` sees NumPy's array allocations, so what it still counts
after a query's answer is dropped is what the index kept. A K=5 window
over the national map (20,824 cells, Gen1) caches ~0.8 M candidate
pairs: their cell-major satellite ids and one offset per cell are all a
window needs, since the refine derives cell coordinates and chord radii
per step. Caching gathered coordinates and radii per candidate instead
costs 40 bytes each, ~30 MiB here.
"""

from __future__ import annotations

import tracemalloc

from repro.orbits.shells import GEN1_SHELLS
from repro.sim.simulation import ConstellationSimulation


def test_window_cache_bytes_per_candidate(national_dataset):
    index = ConstellationSimulation(
        GEN1_SHELLS, national_dataset, visibility_window=5
    ).visibility_index
    index.configure_window(step_hint_s=5.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        csr, lats = index.query(7200.0)
        del csr, lats
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    stats = index.last_query_stats
    assert stats["window_rebuilt"] and stats["window_steps"] == 5
    candidates = stats["candidates"]
    assert candidates == 797_259
    budget = 5 * candidates + 16 * national_dataset.n_cells
    assert retained <= budget, (retained, budget)
