"""Interactive "can I get served?" query layer over the batch pipeline.

The batch pipeline (:mod:`repro.core`) answers the paper's questions by
recomputing aggregates over the full demand dataset. This package answers
the same questions *per location* at interactive latency: a memory-mapped
:class:`~repro.demand.locations.LocationTable` is sharded by packed
cell-key range (:mod:`repro.serve.shards`), per-cell scenario outcomes are
precomputed into an immutable epoch-stamped snapshot
(:mod:`repro.serve.index`), and an asyncio query engine
(:mod:`repro.serve.engine`) swaps snapshots atomically so concurrent
readers never observe a half-updated index.

Every answer is byte-equal to the batch pipeline — the differential suite
in ``tests/serve`` proves it against ``tests/oracles/serve.py``, a
deliberately independent record-at-a-time implementation.
"""

from repro.serve.engine import QueryEngine
from repro.serve.index import ServeIndex, build_index
from repro.serve.scenario import ScenarioParams, serve_plans
from repro.serve.server import ServeClient, ServeServer
from repro.serve.shards import Shard, ShardStore
from repro.serve.tiles import tile_aggregates, tiles_to_geojson, tiles_to_json

__all__ = [
    "QueryEngine",
    "ScenarioParams",
    "ServeClient",
    "ServeIndex",
    "ServeServer",
    "Shard",
    "ShardStore",
    "build_index",
    "serve_plans",
    "tile_aggregates",
    "tiles_to_geojson",
    "tiles_to_json",
]
