"""Layer spans recorded from the benchmark's side of the public API.

The benchmark times each layer by wrapping the public callables behind
it (module functions, methods, one classmethod and one coroutine method)
for the length of a traced run; no file under ``src/`` changes. A span
records its name, start, end, parent span and run id. Spans stay in
memory and are written out when the run ends. A layer's self time is
its spans' duration minus the part covered by their child spans.

Wrappers check :attr:`Tracer.enabled` first, so a run can alternate
traced and untraced passes (or, in the serve child, phases) without
re-installing them; the untraced passes give the overhead baseline.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# -- counts read off return values and arguments --------------------------------


def _dataset_cells(args, kwargs, result) -> Dict[str, float]:
    return {"cells": len(result.counts())}


def _table_rows(args, kwargs, result) -> Dict[str, float]:
    return {"rows": len(result)}


def _bin_rows(args, kwargs, result) -> Dict[str, float]:
    table = args[0] if args else kwargs["table"]
    return {"rows": len(table)}


def _query_stats(args, kwargs, result) -> Dict[str, float]:
    stats = args[0].last_query_stats
    fresh = stats["mode"] == "rebuild" or bool(stats["window_rebuilt"])
    return {
        "candidates": stats["candidates"],
        "kept": stats["kept"],
        "fresh_queries": 1 if fresh else 0,
    }


def _assignment(args, kwargs, result) -> Dict[str, float]:
    return {
        "beams": int(result.beams_used.sum()),
        "covered": int(result.covered.sum()),
    }


#: (module, attribute path, span name, counts) per wrapped callable.
Target = Tuple[str, str, str, Optional[Callable]]

MAPGEN: Sequence[Target] = (
    ("repro.demand.synthetic", "generate_national_map", "mapgen", _dataset_cells),
    ("repro.core.model", "generate_national_map", "mapgen", _dataset_cells),
)
LOCATIONS: Sequence[Target] = (
    ("repro.demand.locations", "explode_cells_table", "explode", _table_rows),
    ("repro.demand.locations", "bin_table", "bin", _bin_rows),
)
FINDINGS: Sequence[Target] = tuple(
    ("repro.core.model", f"StarlinkDivideModel.{method}", span, None)
    for method, span in (
        ("findings", "findings_call"),
        ("figure1_distribution", "fig1"),
        ("figure1_cdf", "fig1"),
        ("table1", "tab1"),
        ("figure2_grid", "fig2"),
        ("table2", "tab2"),
        ("figure3_curves", "fig3"),
        ("figure4_curves", "fig4"),
    )
)
SIMULATION: Sequence[Target] = (
    ("repro.sim.visibility_index", "VisibilityIndex.__init__", "visibility_index_build", None),
    ("repro.sim.visibility_index", "VisibilityIndex.query", "visibility", _query_stats),
    ("repro.sim.visibility_index", "VisibilityIndex.satellite_ecef", "propagate", None),
    ("repro.sim.visibility_index", "group_pairs", "group_pairs", None),
    ("repro.sim.assignment", "GreedyDemandFirst.assign_csr", "greedy", _assignment),
    ("repro.sim.assignment", "ProportionalFair.assign_csr", "fair", _assignment),
    ("repro.sim.metrics", "CoverageMetrics.record_step", "record_step", None),
    ("repro.sim.simulation", "ConstellationSimulation.step", "step", None),
)
TIMELINE: Sequence[Target] = (
    ("repro.timeline.diurnal", "DiurnalProfile.cell_multipliers", "diurnal", None),
    ("repro.timeline.churn", "ChurnState.apply_step", "churn", None),
)
SERVE: Sequence[Target] = (
    ("repro.serve", "build_index", "index_build", None),
    ("repro.serve.index", "build_index", "index_build", None),
    ("repro.serve.shards", "ShardStore.from_table", "shard_sort", None),
    ("repro.serve.engine", "QueryEngine.point_by_id", "engine_point", None),
    ("repro.serve.engine", "QueryEngine.tiles_geojson", "engine_tiles", None),
    ("repro.serve.engine", "QueryEngine.update_params", "update_params", None),
)

BATCH_TARGETS = (*MAPGEN, *LOCATIONS, *FINDINGS, *SIMULATION, *TIMELINE)
SERVE_TARGETS = (*MAPGEN, *LOCATIONS, *SERVE)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.run_id = "setup"
        #: [name, start, end, parent index (-1 for a root), run id, counts]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run_id, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        record = self.spans[index]
        record[1] = start
        record[2] = end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code (pass roots)."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def _wrap(self, fn: Callable, name: str, counts: Optional[Callable]):
        tracer = self

        if inspect.iscoroutinefunction(fn):
            # A coroutine interleaves with other tasks on the loop, so it
            # is recorded as a root span and never becomes a parent.
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.spans.append(
                        [name, start, time.perf_counter(), -1, tracer.run_id, None]
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, start, time.perf_counter())
            if counts is not None:
                tracer.spans[index][5] = counts(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        for module_name, path, name, counts in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, counts))
            else:
                replacement = self._wrap(original, name, counts)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def read_spans(path: Path) -> List[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class LayerTimes:
    """Per-name totals, self times, durations and summed counts of runs."""

    def __init__(self, spans: Sequence[list], run_ids: Iterable[str]):
        runs = {run_ids} if isinstance(run_ids, str) else set(run_ids)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        child_time: Dict[int, float] = defaultdict(float)
        for record in spans:
            name, start, end, parent, run, _ = record
            if run in runs and parent >= 0:
                child_time[parent] += end - start
        for index, record in enumerate(spans):
            name, start, end, parent, run, counts = record
            if run not in runs:
                continue
            duration = end - start
            self.total[name] += duration
            self.self_time[name] += duration - child_time[index]
            self.durations[name].append(duration)
            for key, value in (counts or {}).items():
                self.counts[f"{name}.{key}"] += value


# -- the per-layer metrics every workload reports --------------------------------
#
# A workload that bypasses a layer reports a share or count of 0 for it,
# so every traced run prints the same names.

#: Set-up layers; each share is the time inside its calls (inclusive,
#: so ``shard_sort`` is also part of ``index_build``) over the set-up.
SETUP_LAYERS = ("mapgen", "explode", "index_build", "shard_sort")

#: Op spans and the share metric their self time feeds. Pass roots, the
#: program code between wrapped calls and, on national-serve, everything
#: in a ``tiles`` round trip outside the engine go to ``other_share``.
SHARE_OF = {
    **{span: "core_share" for _, _, span, _ in FINDINGS},
    "explode": "explode_share",
    "bin": "bin_share",
    "visibility_index_build": "visibility_index_build_share",
    "visibility": "visibility_query_share",
    "propagate": "propagate_share",
    "group_pairs": "group_pairs_share",
    "greedy": "greedy_share",
    "fair": "fair_share",
    "record_step": "record_step_share",
    "step": "step_self_share",
    "diurnal": "diurnal_share",
    "churn": "churn_share",
    "engine_tiles": "engine_tiles_share",
}
OP_SHARES = sorted({*SHARE_OF.values(), "other_share"})


def setup_layers(setup: LayerTimes, setup_s: float) -> Dict[str, float]:
    """Map generation time and rate, and each set-up layer's share."""
    mapgen_s = setup.total["mapgen"]
    return {
        "mapgen_s": mapgen_s,
        "mapgen_cells_per_s": setup.counts["mapgen.cells"] / mapgen_s,
        **{f"setup_{name}_share": setup.total[name] / setup_s for name in SETUP_LAYERS},
    }


def op_shares(self_time: Dict[str, float], op_s: float) -> Dict[str, float]:
    """Each layer's self time over the traced op; the shares sum to one."""
    shares = dict.fromkeys(OP_SHARES, 0.0)
    for span, seconds in self_time.items():
        if span in SHARE_OF:
            shares[SHARE_OF[span]] += seconds / op_s
    shares["other_share"] = 1.0 - sum(shares.values())
    return shares
