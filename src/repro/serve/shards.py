"""Cell-key-range sharding of a columnar location table.

The serving layer never scans the raw :class:`LocationTable`. At index
build time the table is sorted once by (cell key, location id) and cut
into contiguous shards aligned to cell boundaries — a cell's rows never
straddle two shards, so a scenario change can recompute one shard's
per-cell outcomes without touching its neighbours. A table already in
that order (every exploded table) is adopted without a sort or a copy.

Row order within a cell (ascending location id) is load-bearing: a
location is served iff its rank within its cell is below the scenario's
per-cell cap, which makes the per-location answers sum exactly to the
batch pipeline's ``min(count, cap)`` per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.demand.locations import LocationTable
from repro.errors import ServeError

if TYPE_CHECKING:
    from repro.serve.tiles import TileLayout

#: Default shard granularity, in rows. Small enough that recomputing one
#: shard is cheap, large enough that per-shard overhead stays negligible
#: at the 4.66 M-location national scale (~18 shards).
DEFAULT_SHARD_ROWS = 262_144

#: Rows per slice of the O(n) order check: its comparison temporaries
#: stay ~128 KB, and a table out of order is refused at its first slice.
_ORDER_CHECK_ROWS = 131_072

#: The table columns a store keeps, sorted or adopted.
_STORE_COLUMNS = (
    "location_id",
    "cell_key",
    "county_id",
    "lat_deg",
    "lon_deg",
)


def _ascending(values: np.ndarray, strict: bool) -> bool:
    """Whether ``values`` ascend (strictly, or allowing ties), by slices."""
    compare = np.greater if strict else np.greater_equal
    for start in range(1, len(values), _ORDER_CHECK_ROWS):
        stop = min(start + _ORDER_CHECK_ROWS, len(values))
        if not compare(values[start:stop], values[start - 1 : stop - 1]).all():
            return False
    return True


def _read_only_view(column: np.ndarray) -> np.ndarray:
    """A view of ``column`` that refuses writes (the column stays as is)."""
    view = column.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Shard:
    """One contiguous (row range, cell range) slice of the sorted table."""

    index: int
    row_start: int
    row_stop: int
    cell_start: int
    cell_stop: int

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def n_cells(self) -> int:
        return self.cell_stop - self.cell_start


class ShardStore:
    """The sorted columnar table plus its cell directory and shard cuts.

    Static with respect to scenario parameters: built once per dataset,
    shared by every :class:`~repro.serve.index.ServeIndex` epoch.
    """

    def __init__(
        self,
        location_id: np.ndarray,
        cell_key: np.ndarray,
        county_id: np.ndarray,
        lat_deg: np.ndarray,
        lon_deg: np.ndarray,
        unique_keys: np.ndarray,
        cell_starts: np.ndarray,
        shards: Tuple[Shard, ...],
        id_order: Optional[np.ndarray],
        ids_sorted: np.ndarray,
    ):
        self.location_id = location_id
        self.cell_key = cell_key
        self.county_id = county_id
        self.lat_deg = lat_deg
        self.lon_deg = lon_deg
        self.unique_keys = unique_keys
        self.cell_starts = cell_starts
        self.shards = shards
        #: Row of each id in ``ids_sorted`` order; None when the rows
        #: already are in id order (an adopted table).
        self._id_order = id_order
        self._ids_sorted = ids_sorted
        #: Whether the ids are exactly 0..n-1, so an id is its own
        #: position in ``ids_sorted``. They strictly ascend, so the ends
        #: prove it.
        n = len(ids_sorted)
        self._ids_are_positions = n > 0 and (
            int(ids_sorted[0]) == 0 and int(ids_sorted[-1]) == n - 1
        )
        self._cell_tokens = None
        #: :class:`~repro.serve.tiles.TileLayout` per tile resolution,
        #: built by the first ``tiles`` query at that resolution.
        self.tile_layouts: Dict[int, "TileLayout"] = {}

    @property
    def cell_tokens(self):
        """Per-cell hex tokens, formatted once and shared by every query."""
        if self._cell_tokens is None:
            self._cell_tokens = [
                f"{int(key):015x}" for key in self.unique_keys
            ]
        return self._cell_tokens

    @classmethod
    def from_table(
        cls,
        table: LocationTable,
        target_shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> "ShardStore":
        """Sort, index, and shard a location table.

        A table already in (cell key, location id) order with unique ids
        — every exploded table, and its NPZ mapped back with
        ``from_npz(..., mmap_mode="r")`` — is adopted: the store's five
        columns are read-only views of the table's (of the file's pages,
        for a mapped table), nothing is sorted or gathered, and a
        location id's row is its position in ``location_id``. The check
        is one O(n) pass over the ids and keys.

        An adopted store lives on the table's memory. Do not write to
        the table's columns afterwards, and do not query the store, or
        any index built over it, after :meth:`LocationTable.close`: the
        mapping is gone then. Any other table is sorted into copies the
        store owns.
        """
        if target_shard_rows <= 0:
            raise ServeError(
                f"target shard rows must be positive: {target_shard_rows!r}"
            )
        with obs.span("serve.shards.build", rows=len(table)) as span:
            adopted = _ascending(table.location_id, strict=True) and (
                _ascending(table.cell_key, strict=False)
            )
            if adopted:
                # Keys ascend, so each cell is one run in key order, and
                # ids ascend within it: the sort is the identity.
                location_id, cell_key, county_id, lat_deg, lon_deg = (
                    _read_only_view(getattr(table, name))
                    for name in _STORE_COLUMNS
                )
                id_order = None
                ids_sorted = location_id
            else:
                order, id_order = cls._sort_orders(table)
                location_id, cell_key, county_id, lat_deg, lon_deg = (
                    np.ascontiguousarray(getattr(table, name)[order])
                    for name in _STORE_COLUMNS
                )
                # Ids in ascending order: a duplicate shows up as an
                # equal neighbour, so one O(n) pass finds it.
                ids_sorted = location_id[id_order]
                if not _ascending(ids_sorted, strict=True):
                    raise ServeError("duplicate location ids in table")
            n = len(location_id)
            # Rows are sorted by cell key, so each cell is one run; the
            # cell directory is the run boundaries.
            first_rows = np.flatnonzero(
                np.concatenate(([n > 0], cell_key[1:] != cell_key[:-1]))
            )
            unique_keys = cell_key[first_rows]
            cell_starts = np.append(first_rows, n).astype(np.int64)
            shards = cls._cut_shards(cell_starts, target_shard_rows)
            span.set(
                cells=len(unique_keys), shards=len(shards), adopted=adopted
            )
            return cls(
                location_id=location_id,
                cell_key=cell_key,
                county_id=county_id,
                lat_deg=lat_deg,
                lon_deg=lon_deg,
                unique_keys=unique_keys,
                cell_starts=cell_starts,
                shards=shards,
                id_order=id_order,
                ids_sorted=ids_sorted,
            )

    @staticmethod
    def _sort_orders(table: LocationTable) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_order, id_order)`` for the (cell_key, location_id) sort.

        The general path is a full-table ``np.lexsort`` plus an
        ``argsort`` of the gathered ids. Exploded tables don't need
        either: their rows arrive in contiguous runs of equal cell key —
        each key in exactly one run — with globally ascending location
        ids, so sorting the ~150 k *run* keys and gathering whole runs
        produces the identical permutation, and the id order is its
        inverse (ascending original ids mean
        ``argsort(location_id[order]) == argsort(order)``). Both facts
        are checked cheaply before taking the fused path, so arbitrary
        tables (CSV imports, shuffled rows, duplicate-key runs) fall
        back to the lexsort.
        """
        n = len(table)
        keys = table.cell_key
        ids = table.location_id
        if n and (ids[1:] > ids[:-1]).all():
            run_starts = np.flatnonzero(
                np.concatenate([np.ones(1, dtype=bool), keys[1:] != keys[:-1]])
            )
            run_keys = keys[run_starts]
            run_order = np.argsort(run_keys, kind="stable")
            sorted_run_keys = run_keys[run_order]
            # Each key in exactly one run iff the sorted run keys ascend.
            if (sorted_run_keys[1:] > sorted_run_keys[:-1]).all():
                obs.registry().counter("serve.shards.grouped_fast_path").inc()
                run_lens = np.diff(
                    np.concatenate([run_starts, np.array([n])])
                )
                picked_lens = run_lens[run_order]
                # Row order: each selected run's rows, in original order.
                out_starts = np.cumsum(picked_lens) - picked_lens
                order = (
                    np.arange(n, dtype=np.int64)
                    - np.repeat(out_starts, picked_lens)
                    + np.repeat(run_starts[run_order], picked_lens)
                )
                id_order = np.empty(n, dtype=np.int64)
                id_order[order] = np.arange(n, dtype=np.int64)
                return order, id_order
        order = np.lexsort((ids, keys))
        return order, np.argsort(ids[order], kind="stable")

    @staticmethod
    def _cut_shards(
        cell_starts: np.ndarray, target_shard_rows: int
    ) -> Tuple[Shard, ...]:
        """Cut cell-boundary-aligned shards of roughly ``target`` rows.

        A shard opened at cell ``start`` closes at the first cell whose
        end reaches ``cell_starts[start] + target`` (or at the last
        cell): one binary search per shard.
        """
        n_cells = len(cell_starts) - 1
        # Past every cell end, so a huge target closes at the last cell
        # without overflowing int64 in the search.
        beyond = int(cell_starts[-1]) + 1
        shards = []
        cell_start = 0
        while cell_start < n_cells:
            reach = min(
                int(cell_starts[cell_start]) + target_shard_rows, beyond
            )
            cell_stop = min(int(np.searchsorted(cell_starts, reach)), n_cells)
            shards.append(
                Shard(
                    index=len(shards),
                    row_start=int(cell_starts[cell_start]),
                    row_stop=int(cell_starts[cell_stop]),
                    cell_start=cell_start,
                    cell_stop=cell_stop,
                )
            )
            cell_start = cell_stop
        return tuple(shards)

    def __len__(self) -> int:
        return len(self.location_id)

    @property
    def n_cells(self) -> int:
        return len(self.unique_keys)

    def rows_for_location_ids(self, location_ids) -> np.ndarray:
        """Sorted-table row index of each requested location id.

        Ids that are exactly 0..n-1 (every exploded table's) are their
        own positions, so only a bounds check runs; other ids are found
        by binary search. An unknown id raises :class:`ServeError`
        naming the first one in request order.
        """
        ids = np.asarray(location_ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        if len(self) == 0:
            raise ServeError(f"unknown location id {int(ids[0])}")
        if self._ids_are_positions:
            positions = ids
            found = (ids >= 0) & (ids < len(self))
        else:
            positions = np.clip(
                np.searchsorted(self._ids_sorted, ids), 0, len(self) - 1
            )
            found = self._ids_sorted[positions] == ids
        if not found.all():
            raise ServeError(f"unknown location id {int(ids[~found][0])}")
        if self._id_order is None:
            return positions
        return self._id_order[positions]

    def cells_for_rows(self, rows) -> np.ndarray:
        """Index into :attr:`unique_keys` of each sorted-table row.

        A row's cell is the last cell starting at or before it, so no
        per-row column is kept; its rank within the cell is
        ``rows - cell_starts[cells]``.
        """
        return np.searchsorted(self.cell_starts, rows, side="right") - 1

    def cell_index_for_keys(self, keys) -> np.ndarray:
        """Index into :attr:`unique_keys` per key, or -1 where absent."""
        keys = np.asarray(keys, dtype=np.uint64)
        positions = np.searchsorted(self.unique_keys, keys)
        clipped = np.minimum(positions, max(self.n_cells - 1, 0))
        if self.n_cells == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        present = self.unique_keys[clipped] == keys
        return np.where(present, clipped, -1).astype(np.int64)
