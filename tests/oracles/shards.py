"""Reference shard cut: one step per cell.

The loop :meth:`ShardStore._cut_shards` replaced. It walks every cell,
growing the open shard until its rows reach the target (or the cells
run out), then closes it at that cell's end. O(cells) Python steps, but
each one is easy to check by eye.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.serve.shards import Shard


def reference_cut_shards(
    cell_starts: np.ndarray, target_shard_rows: int
) -> Tuple[Shard, ...]:
    """Cell-boundary-aligned shards of roughly ``target`` rows."""
    n_cells = len(cell_starts) - 1
    shards = []
    cell_start = 0
    for cell_stop in range(1, n_cells + 1):
        rows = cell_starts[cell_stop] - cell_starts[cell_start]
        if rows >= target_shard_rows or cell_stop == n_cells:
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
