"""Sweep functions and worker-process plumbing.

A *sweep function* maps ``(model, params, seed)`` to a flat dict of
JSON-scalar metrics. The built-ins cover the paper's parameter sweeps:

``served``
    Servability at one (oversubscription, beamspread) point — the Fig 2
    / F1 quantities.
``sizing``
    Constellation sizes for one beamspread — the Table 2 quantities.
``tail``
    Final-step cost at one (oversubscription, beamspread) — the Fig 3 /
    F3 quantities.
``experiment``
    Any registered experiment id (``params["experiment"]``), returning
    its headline metrics.
``timeline``
    One diurnal + churn timeline scenario (profile, oversubscription,
    step, outage durations) over a bbox subset — the knob set a
    multi-day scenario fan sweeps (see :mod:`repro.timeline`).

``served`` and ``sizing`` also honour the ablation parameters
``spectral_efficiency`` (b/Hz) and ``max_beams_per_cell``, rebuilding
the capacity model per task — this is how the ablation tests in
``tests/experiments`` drive the runner.

Everything here must stay importable at module top level: worker
processes resolve sweep functions by id and model builders by pickle,
so neither can be a closure.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.core.capacity import SatelliteCapacityModel
from repro.core.model import StarlinkDivideModel
from repro.core.oversubscription import OversubscriptionAnalysis
from repro.core.sizing import ConstellationSizer, DeploymentScenario
from repro.core.tail import DiminishingReturnsAnalysis
from repro.errors import RunnerError
from repro.runner.grid import canonical_params
from repro.spectrum.beams import BeamPlan, starlink_beam_plan

#: Signature of a sweep function.
SweepFunction = Callable[[StarlinkDivideModel, Mapping, int], Dict[str, float]]


def task_seed(sweep_id: str, params: Mapping[str, object]) -> int:
    """Deterministic 32-bit seed for one task, stable across processes."""
    blob = f"{sweep_id}\n{canonical_params(params)}"
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _capacity_for(
    model: StarlinkDivideModel, params: Mapping
) -> SatelliteCapacityModel:
    """The model's capacity, or a rebuilt one if ablation params are set."""
    efficiency = params.get("spectral_efficiency")
    max_beams = params.get("max_beams_per_cell")
    if efficiency is None and max_beams is None:
        return model.capacity
    plan = starlink_beam_plan(float(efficiency)) if efficiency else None
    if max_beams is not None:
        base = plan or model.capacity.beam_plan
        plan = BeamPlan(
            beams_per_satellite=base.beams_per_satellite,
            max_beams_per_cell=int(max_beams),
            ut_spectrum_mhz=base.ut_spectrum_mhz,
            spectral_efficiency_bps_hz=base.spectral_efficiency_bps_hz,
        )
    return SatelliteCapacityModel(plan)


def sweep_served(
    model: StarlinkDivideModel, params: Mapping, seed: int
) -> Dict[str, float]:
    """Servability at one (oversubscription, beamspread) grid point."""
    ratio = float(params.get("oversubscription", 20.0))
    spread = float(params.get("beamspread", 1.0))
    capacity = _capacity_for(model, params)
    analysis = (
        model.oversubscription
        if capacity is model.capacity
        else OversubscriptionAnalysis(model.dataset, capacity)
    )
    stats = analysis.stats(ratio, spread)
    peak = model.dataset.max_cell().total_locations
    return {
        "per_cell_cap": int(analysis.cell_location_cap(ratio, spread)),
        "cells_fully_served": int(stats.cells_fully_served),
        "cell_service_fraction": float(stats.cell_service_fraction),
        "locations_served": int(stats.locations_served),
        "locations_unserved": int(stats.locations_unserved),
        "location_service_fraction": float(stats.location_service_fraction),
        "required_oversubscription": float(
            capacity.required_oversubscription(peak)
        ),
    }


def sweep_sizing(
    model: StarlinkDivideModel, params: Mapping, seed: int
) -> Dict[str, float]:
    """Constellation sizes at one beamspread (the Table 2 row)."""
    spread = float(params.get("beamspread", 1.0))
    ratio = float(params.get("oversubscription", 20.0))
    capacity = _capacity_for(model, params)
    sizer = (
        model.sizer
        if capacity is model.capacity
        else ConstellationSizer(model.dataset, capacity)
    )
    full = sizer.size_scenario(DeploymentScenario.FULL_SERVICE, spread)
    capped = sizer.size_scenario(
        DeploymentScenario.MAX_ACCEPTABLE_OVERSUBSCRIPTION, spread, ratio
    )
    return {
        "constellation_full": int(full.constellation_size),
        "constellation_capped": int(capped.constellation_size),
        "binding_beams_full": int(full.binding_cell_beams),
        "binding_beams_capped": int(capped.binding_cell_beams),
        "required_oversubscription": float(full.oversubscription),
    }


def sweep_tail(
    model: StarlinkDivideModel, params: Mapping, seed: int
) -> Dict[str, float]:
    """Final-step cost at one (oversubscription, beamspread) point."""
    ratio = float(params.get("oversubscription", 20.0))
    spread = float(params.get("beamspread", 1.0))
    capacity = _capacity_for(model, params)
    tail = (
        model.tail
        if capacity is model.capacity
        else DiminishingReturnsAnalysis(
            model.dataset, ConstellationSizer(model.dataset, capacity)
        )
    )
    cost = tail.final_step_cost(ratio, spread)
    return {key: int(value) for key, value in cost.items()}


def sweep_experiment(
    model: StarlinkDivideModel, params: Mapping, seed: int
) -> Dict[str, float]:
    """Headline metrics of one registered experiment id."""
    from repro.experiments.registry import run_experiment_metrics

    experiment_id = params.get("experiment")
    if not experiment_id:
        raise RunnerError(
            "the 'experiment' sweep needs an 'experiment' grid axis"
        )
    return run_experiment_metrics(str(experiment_id), model)


def sweep_timeline(
    model: StarlinkDivideModel, params: Mapping, seed: int
) -> Dict[str, float]:
    """Timeline QoE at one (profile, oversubscription, step) grid point.

    Runs the :mod:`repro.timeline` workload over the parameterized
    bbox subset and flattens its per-cell QoE timelines into scalar
    metrics, so multi-day scenario fans ride the existing sweep
    runner (caching, parallel workers, telemetry merge) unchanged.
    """
    from repro.demand.regions import QUICK_BBOX
    from repro.orbits.shells import GEN1_SHELLS
    from repro.timeline import (
        HandoverChurnModel,
        TimelineConfig,
        get_profile,
        run_timeline,
    )

    bbox = params.get("bbox", QUICK_BBOX)
    dataset = model.dataset.subset_bbox(*bbox, "timeline sweep region")
    config = TimelineConfig(
        duration_s=float(params.get("duration_s", 3600.0)),
        step_s=float(params.get("step_s", 30.0)),
        profile=get_profile(str(params.get("profile", "residential"))),
        churn=HandoverChurnModel(
            reconnect_outage_s=float(params.get("reconnect_outage_s", 15.0)),
            handover_outage_s=float(params.get("handover_outage_s", 1.0)),
        ),
        oversubscription=float(params.get("oversubscription", 20.0)),
        strategy=str(params.get("strategy", "greedy")),
    )
    result = run_timeline(dataset, list(GEN1_SHELLS[:2]), config)
    unserved = result.unserved_hours_per_day()
    return {
        "cells": int(result.cells),
        "steps": int(result.steps),
        "flat_identical": (
            -1.0
            if result.flat_identical is None
            else float(result.flat_identical)
        ),
        "unserved_hours_per_day_mean": float(unserved.mean()),
        "unserved_hours_per_day_max": float(unserved.max()),
        "outage_minutes_mean": float(result.outage_minutes().mean()),
        "handovers_total": int(result.handover_counts.sum()),
        "reconnections_total": int(result.reconnection_counts.sum()),
        "served_fraction_min": float(result.served_location_fraction.min()),
        "served_fraction_mean": float(
            result.served_location_fraction.mean()
        ),
        "covered_fraction_mean": float(result.covered_fraction.mean()),
    }


def run_sweep_task(
    model: StarlinkDivideModel, sweep_id: str, params: Mapping
) -> Dict[str, float]:
    """Execute one sweep task with its telemetry, in any process.

    The single instrumented entry point both the serial fallback and
    the pool workers funnel through, so the counters it maintains
    (``runner.tasks.completed``, ``runner.task.metrics``) and the
    ``runner.task.wall_s`` histogram accumulate identically in every
    execution mode.
    """
    function = get_sweep_function(sweep_id)
    registry = obs.registry()
    started = time.perf_counter()
    with obs.span("runner.task", sweep=sweep_id):
        metrics = function(model, params, task_seed(sweep_id, params))
    registry.histogram("runner.task.wall_s").observe(
        time.perf_counter() - started
    )
    registry.counter("runner.tasks.completed").inc()
    registry.counter("runner.task.metrics").inc(len(metrics))
    return metrics


#: Sweep function registry, keyed by the id the CLI exposes.
SWEEP_FUNCTIONS: Dict[str, SweepFunction] = {
    "served": sweep_served,
    "sizing": sweep_sizing,
    "tail": sweep_tail,
    "experiment": sweep_experiment,
    "timeline": sweep_timeline,
}


def all_sweep_ids() -> List[str]:
    """Registered sweep function ids."""
    return list(SWEEP_FUNCTIONS)


def get_sweep_function(sweep_id: str) -> SweepFunction:
    """Resolve a sweep id, raising :class:`RunnerError` if unknown."""
    if sweep_id not in SWEEP_FUNCTIONS:
        raise RunnerError(
            f"unknown sweep {sweep_id!r}; known: {sorted(SWEEP_FUNCTIONS)}"
        )
    return SWEEP_FUNCTIONS[sweep_id]


def build_default_model(
    seed: Optional[int] = None, grid_resolution: Optional[int] = None
) -> StarlinkDivideModel:
    """Default model builder: the calibrated national map at ``seed``.

    ``grid_resolution`` rescales the calibration to another H3
    resolution (see :meth:`SyntheticMapConfig.at_resolution`); the
    default is the paper's resolution 5.
    """
    from repro.demand.synthetic import SyntheticMapConfig

    if grid_resolution is not None:
        config = SyntheticMapConfig.at_resolution(
            grid_resolution, seed=seed if seed is not None else 20250706
        )
    elif seed is not None:
        config = SyntheticMapConfig(seed=seed)
    else:
        config = None
    return StarlinkDivideModel.default(config)


# -- worker-process state ---------------------------------------------------
#
# Each worker acquires one model and reuses it for every task it executes.
# Acquisition order in ``_worker_init``:
#
# 1. an inherited ``_WORKER_MODEL`` (the parent seeded the global before a
#    fork-mode pool when no shared-memory segment was available);
# 2. a :class:`~repro.runner.shm.ModelShareHandle` — attach the parent's
#    shared-memory columns and rebuild in milliseconds (the normal path,
#    fork and spawn alike);
# 3. the picklable ``builder`` — full model rebuild, the last resort
#    (shared memory unavailable, or the segment vanished).

_WORKER_MODEL: Optional[StarlinkDivideModel] = None

#: The worker's live-telemetry streamer (None when streaming is off).
_WORKER_STREAMER = None


def _worker_init(
    builder: Callable[[], StarlinkDivideModel],
    share_handle=None,
    live_spec=None,
) -> None:
    global _WORKER_MODEL
    _init_worker_streamer(live_spec)
    if _WORKER_MODEL is not None:
        return
    if share_handle is not None:
        from repro.runner.shm import ModelShare

        try:
            _WORKER_MODEL = ModelShare.build_model(share_handle)
            return
        except Exception:  # segment gone or unmappable: rebuild instead
            obs.registry().counter("runner.shm.attach_failures").inc()
    _WORKER_MODEL = builder()


def _init_worker_streamer(live_spec) -> None:
    """Start this worker's live streamer from a ``(queue, interval)`` spec.

    Best-effort: live telemetry must never be able to fail worker
    startup (a dead manager proxy just means no streaming).
    """
    global _WORKER_STREAMER
    if live_spec is None or _WORKER_STREAMER is not None:
        return
    try:
        from repro.obs.live import WorkerStreamer

        channel, interval_s = live_spec
        _WORKER_STREAMER = WorkerStreamer(channel, interval_s=interval_s)
        _WORKER_STREAMER.start()
    except Exception:  # pragma: no cover - streaming is optional
        _WORKER_STREAMER = None


def _worker_run_sweep(
    sweep_id: str, params: Dict, index: int = 0, attempt: int = 1
) -> Tuple[Dict[str, float], Dict[str, Dict], float]:
    """Execute one sweep task against the worker's model.

    Returns ``(metrics, telemetry_delta, wall_s)``: the delta is the
    worker registry's snapshot diff around the task, which the parent
    merges into its own registry — so a parallel sweep's merged
    counters equal the serial run's (see
    tests/runner/test_obs_merge.py) — and ``wall_s`` is the
    worker-measured execution wall time. The parent uses the worker's
    clock rather than its own submit-to-complete delta, which would
    fold queue wait into the per-task timing and inflate p50/p95 once
    tasks outnumber workers.

    ``index`` and ``attempt`` identify the task for deterministic
    fault injection (:mod:`repro.runner.faults`).
    """
    from repro.runner import faults as _faults

    if _WORKER_MODEL is None:  # pragma: no cover - initializer always ran
        raise RunnerError("worker has no model; pool initializer did not run")
    streamer = _WORKER_STREAMER
    if streamer is not None:
        # Before fault injection, so an injected hang is already "a
        # running task" to the parent watchdog — that is exactly the
        # stall it exists to catch.
        streamer.task_started(index, attempt)
    status = "ok"
    try:
        _faults.maybe_inject(index, attempt, in_worker=True)
        registry = obs.registry()
        before = registry.snapshot()
        started = time.perf_counter()
        metrics = run_sweep_task(_WORKER_MODEL, sweep_id, params)
        wall_s = time.perf_counter() - started
        delta = obs.MetricsRegistry.diff(before, registry.snapshot())
        return metrics, delta, wall_s
    except BaseException:
        status = "error"
        raise
    finally:
        if streamer is not None:
            streamer.task_finished(index, attempt, status=status)


def _worker_run_experiment(experiment_id: str):
    """Execute one registered experiment against the worker's model."""
    from repro.experiments.registry import run_experiment

    if _WORKER_MODEL is None:  # pragma: no cover - initializer always ran
        raise RunnerError("worker has no model; pool initializer did not run")
    return run_experiment(experiment_id, _WORKER_MODEL)
