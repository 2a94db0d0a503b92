"""A table already in (cell key, location id) order is adopted, not copied.

Exploded tables, and their NPZ mapped back read-only, arrive sorted:
ids ascend and every cell is one run in ascending key order. The store
then keeps read-only views of the table's columns and answers every op
exactly as it does over copies sorted from a shuffled table. Tables out
of that order still go through the sort and get copies.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from repro.demand.locations import LocationTable
from repro.errors import GeometryError, ServeError
from repro.serve import QueryEngine, build_index, shards
from repro.serve.shards import ShardStore

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
_STORE_COLUMNS = (
    "location_id",
    "cell_key",
    "county_id",
    "lat_deg",
    "lon_deg",
)


def _rows(table, rows, **overrides):
    columns = {name: getattr(table, name)[rows] for name in _COLUMNS}
    columns.update(overrides)
    return LocationTable(**columns)


def _assert_adopted(store, table):
    for name in _STORE_COLUMNS:
        column = getattr(store, name)
        assert np.shares_memory(column, getattr(table, name)), name
        assert not column.flags.writeable, name
    with pytest.raises(ValueError):
        store.lat_deg[0] = 0.0


def _assert_copied(store, table):
    for name in _STORE_COLUMNS:
        column = getattr(store, name)
        assert not np.shares_memory(column, getattr(table, name)), name


def _answers(engine, dataset, table):
    """Every query op's answer, for ids, cells and counties in the data."""
    ids = np.sort(table.location_id)
    return {
        "stats": engine.stats(),
        "points": engine.point_by_id(ids),
        "shuffled_points": engine.point_by_id(ids[::-1]),
        "cells": [engine.cell_answer(c.cell.token) for c in dataset.cells],
        "counties": [engine.county_answer(c) for c in dataset.counties],
        "latlon": [
            engine.point_by_latlon(float(lat), float(lon))
            for lat, lon in zip(table.lat_deg[::97], table.lon_deg[::97])
        ],
        "tiles": json.loads(engine.tiles_geojson()),
    }


class TestAdoption:
    def test_exploded_table_is_adopted(self, toy_serve_table):
        store = ShardStore.from_table(toy_serve_table)
        _assert_adopted(store, toy_serve_table)
        # The ids are 0..n-1, so the id lookup is the row order itself.
        n = len(toy_serve_table)
        assert toy_serve_table.location_id.tolist() == list(range(n))
        ids = toy_serve_table.location_id[[0, 5, n - 1]]
        assert store.rows_for_location_ids(ids).tolist() == ids.tolist()
        with pytest.raises(ServeError, match=rf"unknown location id {n + 7}$"):
            store.rows_for_location_ids([4, n + 7, -2])
        with pytest.raises(ServeError, match="unknown location id -1$"):
            store.rows_for_location_ids([-1])

    def test_gapped_ids_are_adopted(self, toy_serve_table):
        # Even ids from 0 ascend, so the table is adopted, but id 2k is
        # row k: the lookup searches.
        n = len(toy_serve_table)
        ids = 2 * np.arange(n, dtype=np.int64)
        table = _rows(toy_serve_table, slice(None), location_id=ids)
        store = ShardStore.from_table(table)
        _assert_adopted(store, table)
        rows = store.rows_for_location_ids([2 * (n - 1), 0, 10])
        assert rows.tolist() == [n - 1, 0, 5]
        with pytest.raises(ServeError, match="unknown location id 1$"):
            store.rows_for_location_ids([0, 1, n])

    def test_mapped_npz_is_adopted(self, toy_serve_table, tmp_path):
        path = toy_serve_table.to_npz(tmp_path / "table")
        with LocationTable.from_npz(path, mmap_mode="r") as mapped:
            store = ShardStore.from_table(mapped)
            _assert_adopted(store, mapped)
            assert isinstance(mapped.lat_deg.base, np.memmap)

    def test_adopted_answers_equal_the_copying_path(
        self, toy_serve_table, toy_serve_dataset, tmp_path
    ):
        def answers(table):
            # Small shards, so the multi-shard paths run on toy data.
            index = build_index(
                table, toy_serve_dataset, target_shard_rows=2000
            )
            return index.store, _answers(
                QueryEngine(index), toy_serve_dataset, toy_serve_table
            )

        perm = np.random.default_rng(7).permutation(len(toy_serve_table))
        shuffled = _rows(toy_serve_table, perm)
        store, expected = answers(shuffled)
        _assert_copied(store, shuffled)

        store, adopted = answers(toy_serve_table)
        _assert_adopted(store, toy_serve_table)
        assert adopted == expected

        path = toy_serve_table.to_npz(tmp_path / "table")
        with LocationTable.from_npz(path, mmap_mode="r") as mapped:
            store, mapped_answers = answers(mapped)
            _assert_adopted(store, mapped)
            assert mapped_answers == expected


class TestOtherTablesCopy:
    def test_shuffled_rows(self, toy_serve_table):
        perm = np.random.default_rng(3).permutation(len(toy_serve_table))
        table = _rows(toy_serve_table, perm)
        _assert_copied(ShardStore.from_table(table), table)

    def test_split_key_run(self, toy_serve_table):
        # Move the second cell's first row (of 5) to the end: that cell
        # is now two runs; ids still ascend (the row gets the largest).
        n = len(toy_serve_table)
        rows = np.append(np.delete(np.arange(n), 1), 1)
        ids = np.arange(n, dtype=np.int64)
        table = _rows(toy_serve_table, rows, location_id=ids)
        store = ShardStore.from_table(table)
        _assert_copied(store, table)
        assert (np.diff(store.cell_key.astype(np.int64)) >= 0).all()

    def test_non_ascending_ids(self, toy_serve_table):
        # Rows 1 and 2 share a cell (the toy's second cell has 5 rows).
        ids = toy_serve_table.location_id.copy()
        ids[[1, 2]] = ids[[2, 1]]
        table = _rows(toy_serve_table, slice(None), location_id=ids)
        store = ShardStore.from_table(table)
        _assert_copied(store, table)
        assert store.location_id[1:3].tolist() == [1, 2]
        rows = store.rows_for_location_ids(ids)
        assert np.array_equal(store.location_id[rows], ids)

    def test_keys_in_descending_run_order(self, toy_serve_table):
        # Whole cell runs, last cell first, ids renumbered to ascend:
        # grouped (the sort's fast path) but not in key order.
        keys = toy_serve_table.cell_key
        starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        runs = np.split(np.arange(len(toy_serve_table)), starts)
        rows = np.concatenate(runs[::-1])
        ids = np.arange(len(rows), dtype=np.int64)
        table = _rows(toy_serve_table, rows, location_id=ids)
        _assert_copied(ShardStore.from_table(table), table)


@pytest.mark.parametrize("slice_rows", [1, 2, 3])
def test_order_check_looks_across_slice_edges(
    toy_serve_table, monkeypatch, slice_rows
):
    """Every neighbouring pair is compared, wherever the slices end."""
    monkeypatch.setattr(shards, "_ORDER_CHECK_ROWS", slice_rows)
    _assert_adopted(ShardStore.from_table(toy_serve_table), toy_serve_table)
    n = len(toy_serve_table)
    for i in range(1, 12):
        # One equal-id pair, or one pair of cells out of order, at i.
        ids = toy_serve_table.location_id.copy()
        ids[i] = ids[i - 1]
        table = _rows(toy_serve_table, slice(None), location_id=ids)
        with pytest.raises(ServeError, match="duplicate location ids"):
            ShardStore.from_table(table)
        rows = np.arange(n)
        rows[[i - 1, i]] = rows[[i, i - 1]]
        keys = toy_serve_table.cell_key[rows]
        table = _rows(toy_serve_table, rows, location_id=np.arange(n))
        if keys[i - 1] != keys[i]:
            _assert_copied(ShardStore.from_table(table), table)


@pytest.mark.parametrize("lon", [math.nan, math.inf])
def test_point_by_latlon_refuses_non_finite_longitude(toy_engine, lon):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="longitude not finite"):
            toy_engine.point_by_latlon(0.0, lon)
