"""Differential proofs for the fused demand kernels.

The batched-RNG explode (:mod:`repro.demand.fused`) and the run-length
bin aggregation must be **bit-identical** to the per-group reference
loop (``tests/oracles/explode.py``) on arbitrary datasets — including
when a chunk is forced down the generator-rewind path, and across chunk
boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.demand import fused, locations
from repro.demand.dataset import DemandDataset
from repro.demand.bsl import County, ServiceCell
from repro.demand.fused import (
    key_runs,
    merge_runs,
    runlength_unique_counts,
)
from repro.demand.locations import (
    _TABLE_COLUMNS as _COLUMNS,
    LocationTable,
    bin_table,
    explode_cells_table,
)
from repro.geo.coords import LatLon
from repro.geo.hexgrid import CellId, HexGrid

from tests.oracles.explode import (
    bin_locations,
    explode_cells,
    reference_explode_table,
    table_from_records,
    table_to_records,
)


def _dataset_from_counts(counts):
    grid = HexGrid(5)
    cells = []
    counties = {}
    for index, (unserved, underserved) in enumerate(counts):
        cell = CellId(5, 3 * index - 4, -index)
        counties[index] = County(
            county_id=index,
            name=f"Toy {index}",
            seat=LatLon(37.0, -90.0),
            median_household_income_usd=60000.0,
        )
        cells.append(
            ServiceCell(
                cell=cell,
                center=grid.center(cell),
                county_id=index,
                unserved_locations=unserved,
                underserved_locations=underserved,
            )
        )
    return DemandDataset(
        cells=cells, counties=counties, grid_resolution=5, description="toy"
    )


count_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=80),
    ),
    min_size=1,
    max_size=8,
)


class TestFusedExplodeDifferential:
    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_loop(self, counts, seed):
        dataset = _dataset_from_counts(counts)
        fused_table = explode_cells_table(dataset, seed=seed)
        assert fused_table.equals(reference_explode_table(dataset, seed))

    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_matches_scalar_records(self, counts, seed):
        dataset = _dataset_from_counts(counts)
        fused_table = explode_cells_table(dataset, seed=seed)
        reference = table_from_records(
            explode_cells(dataset, seed=seed)
        )
        assert fused_table.equals(reference)

    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_forced_rewind_matches(self, counts, seed):
        """The snapshot/rewind path replays the reference stream exactly."""
        dataset = _dataset_from_counts(counts)
        expected = reference_explode_table(dataset, seed)
        fused._FORCE_REWIND = True
        try:
            assert explode_cells_table(dataset, seed=seed).equals(expected)
        finally:
            fused._FORCE_REWIND = False

    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_tiny_chunks_match(self, counts, seed):
        """Chunk boundaries never leak into the output (1 group/chunk)."""
        dataset = _dataset_from_counts(counts)
        expected = reference_explode_table(dataset, seed)
        chunk_draws = fused._CHUNK_DRAWS
        fused._CHUNK_DRAWS = 1
        try:
            assert explode_cells_table(dataset, seed=seed).equals(expected)
        finally:
            fused._CHUNK_DRAWS = chunk_draws

    def test_zero_count_groups_consume_no_draws(self):
        # Interleaved zero groups must not shift any later cell's stream.
        sparse = _dataset_from_counts([(5, 0), (0, 0), (0, 7), (3, 3)])
        assert explode_cells_table(sparse, seed=11).equals(
            reference_explode_table(sparse, 11)
        )

    def test_empty_dataset_rows(self):
        table = explode_cells_table(_dataset_from_counts([(0, 0)]), seed=1)
        assert len(table) == 0


class TestFusedBinDifferential:
    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_bin_matches_scalar(self, counts, seed):
        dataset = _dataset_from_counts(counts)
        table = explode_cells_table(dataset, seed=seed)
        assert bin_table(table, 5) == bin_locations(
            explode_cells(dataset, seed=seed), 5
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=9), max_size=60),
        st.lists(st.booleans(), max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_runlength_counts_match_unique(self, key_values, flags):
        n = min(len(key_values), len(flags))
        keys = np.asarray(key_values[:n], dtype=np.uint64)
        unserved = np.asarray(flags[:n], dtype=bool)
        unique_keys, uns, und = runlength_unique_counts(keys, unserved)
        expected_keys, inverse = np.unique(keys, return_inverse=True)
        assert np.array_equal(unique_keys, expected_keys)
        assert np.array_equal(
            uns, np.bincount(inverse[unserved], minlength=len(expected_keys))
        )
        assert np.array_equal(
            und, np.bincount(inverse[~unserved], minlength=len(expected_keys))
        )

    def test_runlength_empty(self):
        keys, uns, und = runlength_unique_counts(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=bool)
        )
        assert len(keys) == len(uns) == len(und) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=9), max_size=60),
        st.lists(st.booleans(), max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_merged_chunk_runs_match_one_chunk(self, key_values, flags, cuts):
        """Cutting the rows anywhere, runs included, changes no count."""
        n = min(len(key_values), len(flags))
        keys = np.asarray(key_values[:n], dtype=np.uint64)
        unserved = np.asarray(flags[:n], dtype=bool)
        edges = [0, *sorted(min(cut, n) for cut in cuts), n]
        runs = [
            key_runs(keys[a:b], unserved[a:b])
            for a, b in zip(edges, edges[1:])
        ]
        expected = runlength_unique_counts(keys, unserved)
        for got, want in zip(merge_runs(runs), expected):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype


def _bin_in_chunks(table, resolution, chunk_rows):
    """``bin_table`` with its row chunk shrunk to ``chunk_rows``."""
    saved = locations._BIN_CHUNK_ROWS
    locations._BIN_CHUNK_ROWS = chunk_rows
    try:
        return bin_table(table, resolution)
    finally:
        locations._BIN_CHUNK_ROWS = saved


def _with_served_rows(table, served):
    """``table`` with the rows flagged in ``served`` raised to 100/20."""
    mask = np.zeros(len(table), dtype=bool)
    flags = np.asarray(served[: len(table)], dtype=bool)
    mask[: len(flags)] = flags
    columns = {name: getattr(table, name) for name in _COLUMNS}
    columns["max_download_mbps"] = np.where(
        mask, 100.0, table.max_download_mbps
    )
    columns["max_upload_mbps"] = np.where(mask, 20.0, table.max_upload_mbps)
    return LocationTable(**columns)


class TestBinChunkEdges:
    """Chunk edges never leak into bin counts (1-3 rows per chunk)."""

    @given(
        count_pairs,
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=3),
        st.lists(st.booleans(), max_size=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_tiny_chunks_match_scalar(self, counts, seed, chunk_rows, served):
        dataset = _dataset_from_counts(counts)
        table = _with_served_rows(explode_cells_table(dataset, seed), served)
        for resolution in (5, 4):
            expected = bin_locations(table_to_records(table), resolution)
            assert _bin_in_chunks(table, resolution, chunk_rows) == expected
            assert bin_table(table, resolution) == expected

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_run_split_across_edges_and_all_served_chunk(self, chunk_rows):
        # Two 7-row cells (runs every chunk size cuts); rows 6-8 meet
        # 100/20, so with 3-row chunks one chunk keeps nothing at all.
        table = explode_cells_table(_dataset_from_counts([(4, 3), (2, 5)]), 3)
        table = _with_served_rows(table, [False] * 6 + [True] * 3)
        served = table.is_served()
        assert served[6:9].all() and served.sum() == 3
        expected = bin_locations(table_to_records(table), 5)
        assert sum(u + d for u, d in expected.values()) == len(table) - 3
        assert _bin_in_chunks(table, 5, chunk_rows) == expected

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_empty_table(self, chunk_rows):
        table = explode_cells_table(_dataset_from_counts([(0, 0)]), seed=2)
        assert _bin_in_chunks(table, 5, chunk_rows) == {}
