"""Fused demand kernels: batched-RNG explode and run-length aggregation.

:func:`repro.demand.locations.explode_cells_table` used to loop over
every (cell, service class) group, paying two ``Generator.uniform``
calls and one ``Generator.random`` call per group — at H3 resolution 6
that is ~290 k tiny RNG dispatches plus as many slice writes. The fused
kernel here (:func:`fused_explode_columns`) draws the raw uniform
doubles for *thousands of groups at once* and replays the reference
rejection sampler with pure array arithmetic:

* ``Generator.uniform(low, high, n)`` consumes exactly ``n`` raw
  doubles and equals ``low + (high - low) * Generator.random(n)``
  bit-for-bit, and consecutive ``random`` calls consume the same
  PCG64 stream as one batched call — so one ``rng.random(total)``
  per chunk reproduces every group's draws exactly;
* the reference sampler's first rejection round draws ``2c + 8``
  candidates per axis for ``c`` points and succeeds with probability
  ≈ 1 − 1e-6 per group; the fused kernel assumes one round, selects
  each group's first ``c`` in-hexagon candidates with a segmented
  cumulative-sum rank, and on any shortfall rewinds the generator
  (``bit_generator.state`` is snapshotted per chunk) and replays just
  that chunk through the scalar reference loop;
* offer draws are two 3-entry ``searchsorted`` passes (one per service
  class) over the same raw doubles ``Generator.choice`` would consume.

The explode streams: each chunk's planar positions live in chunk-local
x/y buffers and are unprojected into the table's ``lat_deg``/``lon_deg``
as soon as the chunk is drawn, so no full-length x/y column exists and a
chunk's working set stays a few MB.

The result is **bit-identical** to the per-group reference loop
(``tests/oracles/explode.py``) — same positions, same offers, same
column order — proven by the differential tests in
``tests/demand/test_fused.py``.

:func:`key_runs` and :func:`merge_runs` are the aggregation kernel
behind the chunked ``bin_table``: exploded tables arrive grouped by
cell, so compressing each chunk's runs of equal keys first shrinks the
``np.unique`` sort from one entry per *location* (4.66 M) to one per
*run* (~the cell count). Runs are merged like any repeated key, so a
run cut by a chunk edge, or keys in arbitrary order, stay correct.
:func:`runlength_unique_counts` is the two composed over one array.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro import obs
from repro.demand.dataset import DemandDataset
from repro.geo.hexgrid import HexGrid
from repro.geo.projection import EqualAreaProjection

__all__ = [
    "fused_explode_columns",
    "key_runs",
    "merge_runs",
    "runlength_unique_counts",
]

#: Raw doubles drawn per chunk (~50 k rows). Small enough that the
#: draws, the candidate arrays and the chunk's x/y buffers stay near the
#: cache, large enough to amortize RNG dispatch over thousands of groups.
_CHUNK_DRAWS = 250_000

#: Test hook: force every chunk down the rewind/replay path, proving the
#: generator snapshot/restore reproduces the reference stream exactly.
_FORCE_REWIND = False


def _group_layout(
    dataset: DemandDataset,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, cell_index, service_class) per nonzero explode group.

    Groups appear in the reference iteration order: for each dataset
    cell, its unserved group then its underserved group, zero-count
    groups skipped (they consume no RNG draws).
    """
    columns = dataset.to_columns()
    n_cells = len(columns["cell_key"])
    pair_counts = np.stack(
        [columns["unserved"], columns["underserved"]], axis=1
    ).ravel()
    pair_cell = np.repeat(np.arange(n_cells, dtype=np.int64), 2)
    pair_class = np.tile(np.array([0, 1], dtype=np.int8), n_cells)
    live = pair_counts > 0
    return (
        pair_counts[live].astype(np.int64),
        pair_cell[live],
        pair_class[live],
    )


def fused_explode_columns(dataset: DemandDataset, seed: int, span):
    """Batched-RNG explode: the reference stream, thousands of groups at once.

    Returns a :class:`~repro.demand.locations.LocationTable` bit-identical
    to the per-group reference loop (``tests/oracles/explode.py``).
    """
    from repro.demand.locations import (
        _ROOT3,
        _UNDERSERVED_COLUMNS,
        _UNSERVED_COLUMNS,
        LocationTable,
    )

    rng = np.random.default_rng(seed)
    grid = HexGrid(dataset.grid_resolution)
    projection = EqualAreaProjection()
    size_km = grid.hex_size_km
    apothem = size_km * _ROOT3 / 2.0

    columns = dataset.to_columns()
    cell_keys = columns["cell_key"]
    county_col = columns["county_id"]
    # Centers are re-derived from the grid, as the reference does — a
    # dataset's stored centers need not sit on the canonical grid.
    center_lat, center_lon = grid.centers_many(cell_keys)
    center_x, center_y = projection.forward_many(center_lat, center_lon)

    g_counts, g_cell, g_class = _group_layout(dataset)
    total = int(g_counts.sum())
    span.set(rows=total)
    registry = obs.registry()
    registry.counter("locations.explode.rows").inc(total)
    registry.counter("locations.explode.cells").inc(len(cell_keys))

    lat = np.empty(total)
    lon = np.empty(total)
    keys = np.empty(total, dtype=np.uint64)
    counties = np.empty(total, dtype=np.int64)
    technology = np.empty(total, dtype=np.int16)
    downlink = np.empty(total)
    uplink = np.empty(total)
    offers = (_UNSERVED_COLUMNS, _UNDERSERVED_COLUMNS)

    # Doubles one group consumes when its first rejection round fills it:
    # xs (2c + 8), ys (2c + 8), offer draws (c).
    g_draws = 5 * g_counts + 16
    row_starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(g_counts)]
    )
    draw_ends = np.cumsum(g_draws)

    n_groups = len(g_counts)
    g0 = 0
    consumed = 0
    while g0 < n_groups:
        # Largest group range whose assumed draw total fits the chunk
        # budget (always at least one group).
        g1 = int(
            np.searchsorted(draw_ends, consumed + _CHUNK_DRAWS, side="right")
        )
        g1 = max(g1, g0 + 1)
        consumed = int(draw_ends[g1 - 1])
        rows = slice(int(row_starts[g0]), int(row_starts[g1]))
        # The chunk's planar positions go to chunk-local buffers and are
        # unprojected right away; the other columns are written in place.
        x = np.empty(rows.stop - rows.start)
        y = np.empty(rows.stop - rows.start)
        out = (x, y) + tuple(
            column[rows]
            for column in (keys, counties, technology, downlink, uplink)
        )
        _explode_chunk(
            rng,
            slice(g0, g1),
            g_counts,
            g_cell,
            g_class,
            cell_keys,
            county_col,
            center_x,
            center_y,
            size_km,
            apothem,
            offers,
            out,
        )
        lat[rows], lon[rows] = projection.inverse_many(x, y)
        g0 = g1

    return LocationTable(
        location_id=np.arange(total, dtype=np.int64),
        lat_deg=lat,
        lon_deg=lon,
        cell_key=keys,
        county_id=counties,
        technology=technology,
        max_download_mbps=downlink,
        max_upload_mbps=uplink,
    )


def _explode_chunk(
    rng,
    group_slice,
    g_counts,
    g_cell,
    g_class,
    cell_keys,
    county_col,
    center_x,
    center_y,
    size_km,
    apothem,
    offers,
    out,
) -> None:
    """Explode groups ``[g0, g1)`` from one batched draw, or rewind.

    ``out`` holds the chunk's rows only: its x/y buffers and views of
    the table's key, county and offer columns.
    """
    from repro.demand.locations import _ROOT3

    g0, g1 = group_slice.start, group_slice.stop
    c = g_counts[group_slice]
    m = 2 * c + 8  # candidates per axis per group, round one
    state = rng.bit_generator.state
    draw_starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(5 * c + 16)]
    )
    draws = rng.random(int(draw_starts[-1]))

    # Gather each group's xs candidates (then ys at a +m offset) into one
    # flat array: gidx maps candidate -> group, "within" is the
    # candidate's index inside its group.
    n_candidates = int(m.sum())
    gidx = np.repeat(np.arange(g1 - g0), m)
    m_starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(m)])
    within = np.arange(n_candidates) - np.repeat(m_starts[:-1], m)
    xs_idx = draw_starts[gidx] + within
    # uniform(low, high, n) == low + (high - low) * random(n), bitwise.
    xs = -size_km + (size_km - -size_km) * draws[xs_idx]
    ys = -apothem + (apothem - -apothem) * draws[xs_idx + m[gidx]]
    abs_ys = np.abs(ys)
    inside = (abs_ys <= apothem) & (abs_ys <= _ROOT3 * (size_km - np.abs(xs)))

    filled = np.add.reduceat(inside, m_starts[:-1])
    if _FORCE_REWIND or np.any(filled < c):
        # A group needs a second rejection round (≈1e-6 per group):
        # rewind the generator and replay this chunk scalar-by-scalar.
        rng.bit_generator.state = state
        obs.registry().counter("locations.explode.chunk_rewinds").inc()
        _explode_chunk_reference(
            rng,
            group_slice,
            g_counts,
            g_cell,
            g_class,
            cell_keys,
            county_col,
            center_x,
            center_y,
            size_km,
            offers,
            out,
        )
        return

    # First-c selection per group: rank candidates by a segmented
    # cumulative sum of the inside mask (1-based among accepted).
    cum_inside = np.cumsum(inside)
    before_group = np.concatenate(
        [np.zeros(1, dtype=np.int64), cum_inside[m_starts[1:-1] - 1]]
    )
    rank = cum_inside - np.repeat(before_group, m)
    take = inside & (rank <= np.repeat(c, m))

    x_out, y_out, keys_out, county_out, tech_out, dl_out, ul_out = out
    cells = g_cell[group_slice]
    x_out[:] = xs[take] + np.repeat(center_x[cells], c)
    y_out[:] = ys[take] + np.repeat(center_y[cells], c)
    keys_out[:] = np.repeat(cell_keys[cells], c)
    county_out[:] = np.repeat(county_col[cells], c)

    # Offer draws: the c doubles after each group's candidate block,
    # searched through the per-class cdf exactly as Generator.choice does.
    total_c = int(c.sum())
    c_starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(c)])
    u_idx = np.repeat(draw_starts[:-1] + 2 * m, c) + (
        np.arange(total_c) - np.repeat(c_starts[:-1], c)
    )
    u = draws[u_idx]
    unserved_cols, underserved_cols = offers
    pick_u = unserved_cols[3].searchsorted(u, side="right")
    pick_d = underserved_cols[3].searchsorted(u, side="right")
    is_unserved = np.repeat(g_class[group_slice], c) == 0
    tech_out[:] = np.where(
        is_unserved, unserved_cols[0][pick_u], underserved_cols[0][pick_d]
    )
    dl_out[:] = np.where(
        is_unserved, unserved_cols[1][pick_u], underserved_cols[1][pick_d]
    )
    ul_out[:] = np.where(
        is_unserved, unserved_cols[2][pick_u], underserved_cols[2][pick_d]
    )


def _explode_chunk_reference(
    rng,
    group_slice,
    g_counts,
    g_cell,
    g_class,
    cell_keys,
    county_col,
    center_x,
    center_y,
    size_km,
    offers,
    out,
) -> None:
    """Scalar replay of one chunk — the reference per-group loop."""
    from repro.demand.locations import _uniform_hexagon_points

    x_out, y_out, keys_out, county_out, tech_out, dl_out, ul_out = out
    offset = 0
    for g in range(group_slice.start, group_slice.stop):
        count = int(g_counts[g])
        cell = int(g_cell[g])
        tech_col, dl_col, ul_col, cdf = offers[int(g_class[g])]
        points = _uniform_hexagon_points(
            rng, count, center_x[cell], center_y[cell], size_km
        )
        choices = cdf.searchsorted(rng.random(count), side="right")
        rows = slice(offset, offset + count)
        x_out[rows] = points[:, 0]
        y_out[rows] = points[:, 1]
        keys_out[rows] = cell_keys[cell]
        county_out[rows] = county_col[cell]
        tech_out[rows] = tech_col[choices]
        dl_out[rows] = dl_col[choices]
        ul_out[rows] = ul_col[choices]
        offset += count


def key_runs(
    keys: np.ndarray, unserved: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(run_keys, run_total, run_unserved)`` for runs of equal ``keys``.

    One entry per maximal run of equal neighbouring keys: its key, its
    row count, and how many of its rows are flagged ``unserved``. Runs
    of one chunk; :func:`merge_runs` combines any number of them.
    """
    if len(keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return keys[:0], empty, empty
    run_starts = np.flatnonzero(
        np.concatenate([np.ones(1, dtype=bool), keys[1:] != keys[:-1]])
    )
    run_total = np.diff(
        np.concatenate([run_starts, np.array([len(keys)])])
    )
    run_unserved = np.add.reduceat(unserved.astype(np.int64), run_starts)
    return keys[run_starts], run_total, run_unserved


def merge_runs(
    runs: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unique_keys, unserved_counts, underserved_counts)`` over runs.

    ``runs`` are :func:`key_runs` answers, one per chunk. A key may occur
    in many runs (a run cut by a chunk edge, or keys out of order); its
    counts are summed, so the answer equals a ``np.unique``/``bincount``
    aggregation of the chunks' rows concatenated.
    """
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.uint64), empty, empty
    run_keys, run_total, run_unserved = (
        np.concatenate(part) for part in zip(*runs)
    )
    unique_keys, inverse = np.unique(run_keys, return_inverse=True)
    unserved_counts = np.zeros(len(unique_keys), dtype=np.int64)
    underserved_counts = np.zeros(len(unique_keys), dtype=np.int64)
    np.add.at(unserved_counts, inverse, run_unserved)
    np.add.at(underserved_counts, inverse, run_total - run_unserved)
    return unique_keys, unserved_counts, underserved_counts


def runlength_unique_counts(
    keys: np.ndarray, unserved: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unique_keys, unserved_counts, underserved_counts)`` for ``keys``.

    Equivalent to a full-array ``np.unique``/``bincount`` aggregation:
    the runs of ``keys`` as one chunk, merged.
    """
    return merge_runs([key_runs(keys, unserved)])
