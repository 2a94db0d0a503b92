"""ServeIndex construction: shard geometry, integrity checks, refreshes."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.demand.locations import LocationTable, explode_cells_table
from repro.errors import ServeError
from repro.serve import QueryEngine, ScenarioParams, ShardStore, build_index

from tests.conftest import build_toy_dataset
from tests.oracles.shards import reference_cut_shards

_COLUMNS = (
    "location_id",
    "lat_deg",
    "lon_deg",
    "cell_key",
    "county_id",
    "technology",
    "max_download_mbps",
    "max_upload_mbps",
)


def _mutate(table, **overrides):
    columns = {name: getattr(table, name).copy() for name in _COLUMNS}
    columns.update(overrides)
    return LocationTable(**columns)


def _subset(table, mask):
    return LocationTable(
        **{name: getattr(table, name)[mask] for name in _COLUMNS}
    )


def _append_row(table, cell_key, location_id):
    """Copy row 0 with a new id into ``cell_key``."""
    columns = {}
    for name in _COLUMNS:
        column = getattr(table, name)
        columns[name] = np.concatenate([column, column[:1]])
    columns["location_id"][-1] = location_id
    columns["cell_key"][-1] = cell_key
    return LocationTable(**columns)


class TestShardGeometry:
    def test_shards_tile_the_table(self, toy_serve_index):
        store = toy_serve_index.store
        shards = store.shards
        assert len(shards) > 1, "toy config must exercise multi-shard paths"
        assert shards[0].row_start == 0 and shards[0].cell_start == 0
        assert shards[-1].row_stop == len(store)
        assert shards[-1].cell_stop == store.n_cells
        for previous, shard in zip(shards, shards[1:]):
            assert shard.index == previous.index + 1
            assert shard.row_start == previous.row_stop
            assert shard.cell_start == previous.cell_stop
        for shard in shards:
            assert shard.n_rows > 0 and shard.n_cells > 0
            # Cell-boundary alignment: the shard's row range is exactly
            # the concatenation of its cells' row ranges.
            assert shard.row_start == store.cell_starts[shard.cell_start]
            assert shard.row_stop == store.cell_starts[shard.cell_stop]

    def test_rows_sorted_by_cell_then_id(self, toy_serve_index):
        store = toy_serve_index.store
        boundaries = np.flatnonzero(np.diff(store.cell_key) != 0) + 1
        assert (np.diff(store.cell_key.astype(np.int64)) >= 0).all()
        within = np.ones(len(store), dtype=bool)
        within[0] = False
        within[boundaries] = False
        assert (np.diff(store.location_id)[within[1:]] > 0).all()
        rows = np.arange(len(store))
        rank_in_cell = rows - store.cell_starts[store.cells_for_rows(rows)]
        assert (rank_in_cell[~within] == 0).sum() == store.n_cells

    def test_store_rejects_bad_inputs(self, toy_serve_table):
        with pytest.raises(ServeError, match="target shard rows"):
            ShardStore.from_table(toy_serve_table, target_shard_rows=0)
        ids = toy_serve_table.location_id.copy()
        ids[1] = ids[0]
        with pytest.raises(ServeError, match="duplicate location ids"):
            ShardStore.from_table(_mutate(toy_serve_table, location_id=ids))
        # Duplicates far apart and in different cells, with the rows as
        # exploded, as whole cell runs in another order, and shuffled.
        n = len(toy_serve_table)
        keys = toy_serve_table.cell_key
        run_starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        runs = np.split(np.arange(n), run_starts)
        for rows in (
            np.arange(n),
            np.concatenate(runs[::-1]),
            np.random.default_rng(5).permutation(n),
        ):
            table = _subset(toy_serve_table, rows)
            ids = np.arange(n, dtype=np.int64)
            ShardStore.from_table(_mutate(table, location_id=ids))
            other_cell = np.flatnonzero(table.cell_key != table.cell_key[0])
            ids[other_cell[-1]] = ids[0]
            with pytest.raises(ServeError, match="duplicate location ids"):
                ShardStore.from_table(_mutate(table, location_id=ids))

    def test_unknown_location_id(self, toy_serve_index):
        with pytest.raises(ServeError, match="unknown location id"):
            toy_serve_index.store.rows_for_location_ids([10**15])

    @pytest.mark.parametrize("reverse", [False, True], ids=["rows", "sorted"])
    def test_zero_based_ids(self, toy_serve_table, reverse):
        # Ids 0..n-1: as the exploded rows, or numbered backwards so the
        # store sorts rows away from id order.
        n = len(toy_serve_table)
        ids = np.arange(n, dtype=np.int64)
        if reverse:
            ids = ids[::-1].copy()
        store = ShardStore.from_table(
            _mutate(toy_serve_table, location_id=ids)
        )
        wanted = [n - 1, 0, 7, 7, n // 2]
        rows = store.rows_for_location_ids(wanted)
        assert store.location_id[rows].tolist() == wanted
        for request, unknown in (
            ([3, n, -1], n),
            ([-1, n], -1),
            ([n + 9], n + 9),
        ):
            with pytest.raises(
                ServeError, match=rf"unknown location id {unknown}$"
            ):
                store.rows_for_location_ids(request)

    def test_gapped_ids(self, toy_serve_table):
        # 0..8, then 10..n: id 9 is missing and id n is known.
        n = len(toy_serve_table)
        ids = np.arange(n, dtype=np.int64)
        ids[9:] += 1
        store = ShardStore.from_table(
            _mutate(toy_serve_table, location_id=ids)
        )
        rows = store.rows_for_location_ids([n, 0, 10, 8])
        assert rows.tolist() == [n - 1, 0, 9, 8]
        with pytest.raises(ServeError, match="unknown location id 9$"):
            store.rows_for_location_ids([0, 9, n + 1])


def _cell_starts(sizes):
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


class TestShardCut:
    """The binary-search cut equals the per-cell reference loop."""

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=60), max_size=40),
        target=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, sizes, target):
        cell_starts = _cell_starts(sizes)
        assert ShardStore._cut_shards(
            cell_starts, target
        ) == reference_cut_shards(cell_starts, target)

    def test_zero_cells(self):
        cell_starts = _cell_starts([])
        assert ShardStore._cut_shards(cell_starts, 5) == ()
        assert reference_cut_shards(cell_starts, 5) == ()

    def test_cell_larger_than_target(self):
        cell_starts = _cell_starts([3, 50, 2, 4, 1])
        shards = ShardStore._cut_shards(cell_starts, 10)
        assert shards == reference_cut_shards(cell_starts, 10)
        assert [(s.cell_start, s.cell_stop) for s in shards] == [(0, 2), (2, 5)]
        assert [(s.row_start, s.row_stop) for s in shards] == [(0, 53), (53, 60)]

    def test_target_one_is_a_shard_per_cell(self):
        cell_starts = _cell_starts([4, 1, 7])
        shards = ShardStore._cut_shards(cell_starts, 1)
        assert shards == reference_cut_shards(cell_starts, 1)
        assert [s.n_cells for s in shards] == [1, 1, 1]

    def test_target_beyond_int64_is_one_shard(self):
        cell_starts = _cell_starts([4, 1, 7])
        shards = ShardStore._cut_shards(cell_starts, 2**70)
        assert shards == reference_cut_shards(cell_starts, 2**70)
        assert [(s.cell_start, s.cell_stop) for s in shards] == [(0, 3)]


class TestBuildIntegrity:
    def test_demand_without_rows(self, toy_serve_dataset, toy_serve_table):
        occupied = next(
            c for c in toy_serve_dataset.cells if c.total_locations > 0
        )
        stripped = _subset(
            toy_serve_table, toy_serve_table.cell_key != occupied.cell.key
        )
        with pytest.raises(ServeError, match="has demand but no table rows"):
            build_index(stripped, toy_serve_dataset)

    def test_orphan_table_cell(self, toy_serve_dataset, toy_serve_table):
        bogus_key = int(toy_serve_table.cell_key.max()) + 1
        grown = _append_row(
            toy_serve_table,
            bogus_key,
            int(toy_serve_table.location_id.max()) + 1,
        )
        with pytest.raises(ServeError, match="not in dataset"):
            build_index(grown, toy_serve_dataset)

    def test_count_mismatch(self, toy_serve_dataset, toy_serve_table):
        grown = _append_row(
            toy_serve_table,
            int(toy_serve_table.cell_key[0]),
            int(toy_serve_table.location_id.max()) + 1,
        )
        with pytest.raises(ServeError, match="dataset says"):
            build_index(grown, toy_serve_dataset)

    def test_county_join_disagrees(self, toy_serve_dataset, toy_serve_table):
        counties = toy_serve_table.county_id.copy()
        counties[0] += 1
        with pytest.raises(ServeError, match="county join disagrees"):
            build_index(
                _mutate(toy_serve_table, county_id=counties),
                toy_serve_dataset,
            )

    def test_no_plans(self, toy_serve_dataset, toy_serve_table):
        with pytest.raises(ServeError, match="no plans"):
            build_index(toy_serve_table, toy_serve_dataset, plans=[])

    def test_fingerprint_recorded(self, toy_serve_dataset, toy_serve_index):
        assert (
            toy_serve_index.dataset_fingerprint
            == toy_serve_dataset.fingerprint()
        )


class TestRefresh:
    def test_with_params_equals_fresh_build(
        self, toy_serve_dataset, toy_serve_table, toy_serve_index
    ):
        params = ScenarioParams(
            oversubscription=7.0, beamspread=2.0, income_share=0.01
        )
        refreshed = toy_serve_index.with_params(params)
        fresh = build_index(
            toy_serve_table,
            toy_serve_dataset,
            params,
            target_shard_rows=2000,
        )
        assert refreshed.epoch == toy_serve_index.epoch + 1
        assert fresh.epoch == 0
        assert refreshed.params == fresh.params
        assert refreshed.per_cell_cap == fresh.per_cell_cap
        assert np.array_equal(refreshed.served_count, fresh.served_count)
        assert np.array_equal(refreshed.fully_served, fresh.fully_served)
        assert np.array_equal(refreshed.affordable, fresh.affordable)
        # The static layer is shared between epochs, not rebuilt.
        assert refreshed.store is toy_serve_index.store
        assert refreshed.cell_counts is toy_serve_index.cell_counts
        # The old snapshot is untouched.
        assert toy_serve_index.epoch == 0
        assert toy_serve_index.params == ScenarioParams()


class TestScenarioParams:
    @pytest.mark.parametrize(
        "overrides",
        (
            {"income_share": float("nan")},
            {"beamspread": float("inf")},
            {"oversubscription": float("-inf")},
            {"oversubscription": float("nan")},
            {"oversubscription": 0.0},
            {"beamspread": 0.5},
            {"income_share": -0.1},
        ),
    )
    def test_rejects_values_that_name_no_scenario(self, toy_engine, overrides):
        with pytest.raises(ServeError):
            ScenarioParams(**overrides)
        # The engine keeps serving the epoch it had.
        assert toy_engine.epoch == 0
        assert toy_engine.index.params == ScenarioParams()

    def test_non_finite_error_names_the_field(self):
        with pytest.raises(ServeError, match="income_share must be finite"):
            ScenarioParams(income_share=float("nan"))
        with pytest.raises(ServeError, match="beamspread must be finite"):
            ScenarioParams(beamspread=float("inf"))


class TestEmptyTable:
    def test_empty_index_builds_and_answers(self):
        dataset = build_toy_dataset([0, 0])
        table = explode_cells_table(dataset, seed=0)
        assert len(table) == 0
        engine = QueryEngine(build_index(table, dataset))
        stats = engine.stats()
        assert stats["locations"] == 0
        assert stats["cells"] == 0
        assert stats["locations_served"] == 0
        answer = engine.cell_answer(dataset.cells[0].cell.token)
        assert answer["in_dataset"] is False
        with pytest.raises(ServeError, match="unknown location id"):
            engine.point_by_id([0])
