"""Sweep-dispatch benchmark: shared-memory handoff vs model rebuild.

Measures what a parallel sweep pays *around* its tasks, producing the
JSON recorded as ``BENCH_sweep.json`` (``repro-divide bench-sweep``):

* **handoff** — attaching a published shared-memory model
  (:meth:`~repro.runner.shm.ModelShare.build_model`) vs rebuilding it
  from scratch the way a spawn worker without the segment would
  (``handoff_speedup`` is the acceptance number: attach must be ≥ 5×
  cheaper than rebuild);
* **dispatch** — the same sweep run serially, over a fork pool, and
  over a spawn pool: total wall, per-task dispatch overhead (wall
  beyond the worker-measured task execution time), and whether each
  parallel mode's metrics are **byte-equal** to the serial run's
  (``fork_equals_serial`` / ``spawn_equals_serial``).

The speedup and identity numbers are hardware-independent, which is
what the CI perf gate (:mod:`repro.perfgate`) compares; absolute wall
times ride along for the human trajectory.
"""

from __future__ import annotations

import platform
from typing import Dict, Optional

from repro import obs
from repro.demand.regions import QUICK_BBOX
from repro.runner.grid import ParameterGrid
from repro.runner.shm import ModelShare
from repro.runner.sweep import SweepRunner
from repro.runner.tasks import build_default_model
from repro.sim.bench import _git_commit, _timed_samples

#: Grid each dispatch mode executes (8 tasks, the Fig 2 quantities).
BENCH_GRID = {"beamspread": (1, 2), "oversubscription": (10, 15, 20, 25)}

#: Sweep function the bench dispatches.
BENCH_SWEEP_ID = "served"


def _bench_model(
    quick: bool = False,
    seed: Optional[int] = None,
    grid_resolution: Optional[int] = None,
):
    """The benchmark's model; module-level so worker pickles resolve it."""
    model = build_default_model(seed, grid_resolution)
    if quick:
        from repro.core.model import StarlinkDivideModel

        dataset = model.dataset.subset_bbox(*QUICK_BBOX, "bench quick region")
        model = StarlinkDivideModel(dataset)
    return model


def _measure_handoff(model, builder, repeat: int) -> Dict[str, object]:
    """Attach-from-shared-memory vs full rebuild, min-of-``repeat``."""
    with ModelShare.publish(model) as share:

        def attach() -> None:
            attached = ModelShare.build_model(share.handle)
            attached._shm_block.close()

        attach_samples = _timed_samples(repeat, attach)
    # What a worker without the segment pays: the full builder.
    rebuild_samples = _timed_samples(repeat, builder)
    attach_s = min(attach_samples)
    rebuild_s = min(rebuild_samples)
    return {
        "attach_s": attach_s,
        "attach_samples": attach_samples,
        "rebuild_s": rebuild_s,
        "rebuild_samples": rebuild_samples,
        "handoff_speedup": (
            rebuild_s / attach_s if attach_s > 0 else float("inf")
        ),
    }


def _measure_mode(
    model,
    builder,
    n_workers: int,
    start_method: Optional[str],
) -> Dict[str, object]:
    """One dispatch mode: run the bench grid, return wall + overhead."""
    runner = SweepRunner(
        BENCH_SWEEP_ID,
        ParameterGrid(BENCH_GRID),
        n_workers=n_workers,
        cache=None,
        model_builder=builder,
        start_method=start_method,
    )
    report = runner.run(model=model)
    task_wall_s = sum(r.wall_s for r in report.results)
    n_tasks = len(report.results)
    # Wall the sweep spent beyond executing tasks (worker clocks),
    # amortized over the concurrency the pool actually had.
    overhead_s = report.total_wall_s - task_wall_s / max(1, n_workers)
    return {
        "n_workers": n_workers,
        "start_method": start_method,
        "tasks": n_tasks,
        "wall_s": report.total_wall_s,
        "task_wall_s": task_wall_s,
        "per_task_dispatch_overhead_s": max(0.0, overhead_s) / n_tasks,
        "metrics": [r.metrics for r in report.results],
    }


def run_sweep_bench(
    quick: bool = False,
    repeat: int = 1,
    seed: Optional[int] = None,
    grid_resolution: Optional[int] = None,
    n_workers: int = 2,
) -> Dict:
    """Run the dispatch benchmark; returns the JSON-ready results dict."""
    import functools

    with obs.span("bench.sweep", quick=quick):
        model = _bench_model(quick, seed, grid_resolution)
        builder = functools.partial(
            _bench_model, quick, seed, grid_resolution
        )

        with obs.span("bench.sweep.handoff"):
            handoff = _measure_handoff(model, builder, repeat)

        modes = {}
        with obs.span("bench.sweep.dispatch"):
            modes["serial"] = _measure_mode(model, builder, 1, None)
            modes["fork"] = _measure_mode(model, builder, n_workers, "fork")
            modes["spawn"] = _measure_mode(model, builder, n_workers, "spawn")

        serial_metrics = modes["serial"]["metrics"]
        identity = {
            f"{mode}_equals_serial": modes[mode]["metrics"] == serial_metrics
            for mode in ("fork", "spawn")
        }
        for mode in modes.values():
            del mode["metrics"]

        import numpy

        return {
            "schema": "repro-bench-sweep/1",
            "commit": _git_commit(),
            "config": {
                "quick": quick,
                "seed": seed,
                "grid_resolution": grid_resolution,
                "repeat": repeat,
                "n_workers": n_workers,
                "sweep": BENCH_SWEEP_ID,
                "grid": {k: list(v) for k, v in BENCH_GRID.items()},
                "cells": model.dataset.n_cells,
                "locations": model.dataset.total_locations,
            },
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "handoff": handoff,
            "dispatch": modes,
            **identity,
            "all_modes_identical": all(identity.values()),
        }


def format_sweep_bench_summary(results: Dict) -> str:
    """Human-readable one-screen summary of a sweep bench dict."""
    config = results["config"]
    handoff = results["handoff"]
    lines = [
        "sweep bench: {cells} cells, {tasks} tasks x {n_workers} workers"
        "{quick}".format(
            cells=config["cells"],
            tasks=results["dispatch"]["serial"]["tasks"],
            n_workers=config["n_workers"],
            quick=" (quick)" if config["quick"] else "",
        ),
        "  model handoff: {attach_s:.4f}s attach vs {rebuild_s:.3f}s "
        "rebuild ({handoff_speedup:.0f}x)".format(**handoff),
    ]
    for mode in ("serial", "fork", "spawn"):
        stats = results["dispatch"][mode]
        lines.append(
            "  {mode}: {wall_s:.3f}s wall, "
            "{per_task_dispatch_overhead_s:.4f}s dispatch overhead/task"
            .format(mode=mode, **stats)
        )
    lines.append(
        "  parallel metrics identical to serial: %s"
        % results["all_modes_identical"]
    )
    return "\n".join(lines)
