"""Simulation performance benchmark: fast path vs retained reference.

Measures three layers at a configurable scale (default: Gen1 shells over
the calibrated national dataset, the paper's headline configuration):

* **visibility-only** — :class:`VisibilityIndex.query` vs the original
  per-step KD-tree rebuild,
* **assignment-only** — the vectorized CSR kernels vs the
  :mod:`repro.sim.slow_reference` loops on one step's real relation,
* **end-to-end** — full :meth:`ConstellationSimulation.run` on both
  engines, asserting the two :class:`SimulationReport` results are
  identical field-for-field,
* **per-phase** — visibility / impairments / assignment wall time per
  engine, summed from the ``sim.*`` :mod:`repro.obs` spans of
  instrumented runs, so a regression report names the phase that
  slowed down instead of one end-to-end number,
* **windowed visibility** — the cached-candidate window engine vs the
  per-step rebuild at a sub-minute step (where windows are designed to
  win), with a bit-identity flag over every step,
* **timeline** — the :mod:`repro.timeline` workload at a sub-minute
  step (per-step budget for the diurnal/churn regime), with the
  flat-profile static-identity flag.

``run_simulation_bench`` returns a JSON-serializable dict (written to
``BENCH_simulation.json`` by ``repro-divide bench``) so every commit can
extend a machine-readable performance trajectory.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.demand.regions import QUICK_BBOX
from repro.errors import SimulationError
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import GreedyDemandFirst, ProportionalFair
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation
from repro.sim.slow_reference import (
    ReferenceGreedyDemandFirst,
    ReferenceProportionalFair,
)
from repro.sim.visibility_index import VisibilityIndex

#: strategy id -> (fast class, reference class)
BENCH_STRATEGIES = {
    "greedy": (GreedyDemandFirst, ReferenceGreedyDemandFirst),
    "fair": (ProportionalFair, ReferenceProportionalFair),
}


@dataclass(frozen=True)
class BenchTimings:
    """Best-of-``repeat`` wall times for one benchmarked operation.

    ``fast_s``/``reference_s`` are the min across repeats (the least
    noise-inflated estimate); the per-repeat samples are kept so the
    recorded JSON shows the spread a single number would hide.
    """

    fast_s: float
    reference_s: float
    fast_samples: Tuple[float, ...] = ()
    reference_samples: Tuple[float, ...] = ()

    @classmethod
    def measure(
        cls,
        repeat: int,
        fast: Callable[[], None],
        reference: Callable[[], None],
    ) -> "BenchTimings":
        """Time both sides ``repeat`` times; keep min and all samples."""
        fast_samples = _timed_samples(repeat, fast)
        reference_samples = _timed_samples(repeat, reference)
        return cls(
            fast_s=min(fast_samples),
            reference_s=min(reference_samples),
            fast_samples=tuple(fast_samples),
            reference_samples=tuple(reference_samples),
        )

    @property
    def speedup(self) -> float:
        return self.reference_s / self.fast_s if self.fast_s > 0 else float("inf")

    def as_dict(self) -> Dict[str, float]:
        result = {
            "fast_s": self.fast_s,
            "reference_s": self.reference_s,
            "speedup": self.speedup,
        }
        if self.fast_samples:
            result["fast_samples"] = list(self.fast_samples)
        if self.reference_samples:
            result["reference_samples"] = list(self.reference_samples)
        return result


def _timed_samples(repeat: int, fn: Callable[[], None]) -> List[float]:
    """Wall time of each of ``max(1, repeat)`` runs of ``fn``."""
    samples = []
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _best_of(repeat: int, fn: Callable[[], None]) -> float:
    return min(_timed_samples(repeat, fn))


def bench_visibility(
    simulation: ConstellationSimulation,
    times_s: List[float],
    repeat: int = 1,
) -> BenchTimings:
    """Time the fast index vs the per-step rebuild over ``times_s``."""
    index = simulation.visibility_index  # build outside the timed region

    def fast() -> None:
        for time_s in times_s:
            index.query(time_s)

    def reference() -> None:
        for time_s in times_s:
            simulation._visibility(time_s)

    return BenchTimings.measure(repeat, fast, reference)


def bench_assignment(
    simulation: ConstellationSimulation,
    strategy_id: str,
    time_s: float = 0.0,
    repeat: int = 1,
) -> BenchTimings:
    """Time one strategy's fast kernel vs its reference loop at ``time_s``."""
    fast_cls, reference_cls = BENCH_STRATEGIES[strategy_id]
    csr, _ = simulation.visibility_index.query(time_s)
    lists = csr.to_lists()
    demands = simulation.demands_mbps
    plan = simulation.beam_plan

    def fast() -> None:
        fast_cls().assign_csr(csr, demands, plan)

    def reference() -> None:
        reference_cls().assign(lists, demands, simulation.satellite_count, plan)

    return BenchTimings.measure(repeat, fast, reference)


def bench_end_to_end(
    shells,
    dataset,
    strategy_id: str,
    clock: SimulationClock,
    repeat: int = 1,
    visibility_window="auto",
) -> Tuple[BenchTimings, bool]:
    """Time full runs on both engines; also report whether the two
    :class:`SimulationReport` results are identical."""
    fast_cls, reference_cls = BENCH_STRATEGIES[strategy_id]

    def build(engine: str) -> ConstellationSimulation:
        strategy = fast_cls() if engine == "fast" else reference_cls()
        return ConstellationSimulation(
            shells,
            dataset,
            strategy=strategy,
            engine=engine,
            visibility_window=visibility_window,
        )

    reports = {}

    def run(engine: str) -> None:
        simulation = build(engine)
        metrics = simulation.run(clock)
        reports[engine] = simulation.report(metrics)

    timings = BenchTimings.measure(
        repeat, lambda: run("fast"), lambda: run("reference")
    )
    return timings, reports["fast"] == reports["reference"]


#: Span names summed into the per-phase breakdown (without the "sim."
#: prefix they carry in the trace).
PHASE_NAMES = ("visibility", "impairments", "assignment")


def bench_step_phases(
    shells, dataset, clock: SimulationClock, repeat: int = 1
) -> Dict[str, Dict]:
    """Per-phase step wall time for each (strategy, engine) pair.

    Runs each full simulation ``repeat`` times with the tracer on and
    sums the per-step ``sim.visibility`` / ``sim.impairments`` /
    ``sim.assignment`` span walls (min across repeats per phase).
    Phases no configuration exercises (impairments, here) are omitted
    rather than reported as 0x speedups.
    """
    results: Dict[str, Dict] = {}
    was_enabled = obs.enabled()
    try:
        obs.configure(enabled=True)
        tracer = obs.tracer()
        for strategy_id, (fast_cls, reference_cls) in BENCH_STRATEGIES.items():
            per_engine = {}
            for engine in ("fast", "reference"):
                strategy_cls = fast_cls if engine == "fast" else reference_cls
                samples: Dict[str, List[float]] = {
                    name: [] for name in PHASE_NAMES
                }
                for _ in range(max(1, repeat)):
                    simulation = ConstellationSimulation(
                        shells, dataset, strategy=strategy_cls(), engine=engine
                    )
                    mark = tracer.mark()
                    simulation.run(clock)
                    sums = {name: 0.0 for name in PHASE_NAMES}
                    for record in tracer.records_since(mark):
                        if record.name.startswith("sim."):
                            phase = record.name[4:]
                            if phase in sums:
                                sums[phase] += record.wall_s
                    for name in PHASE_NAMES:
                        samples[name].append(sums[name])
                per_engine[engine] = {
                    name: min(values) for name, values in samples.items()
                }
            breakdown = {}
            for name in PHASE_NAMES:
                fast_s = per_engine["fast"][name]
                reference_s = per_engine["reference"][name]
                if fast_s == 0.0 and reference_s == 0.0:
                    continue  # phase not exercised by this configuration
                breakdown[name] = {
                    "fast_s": fast_s,
                    "reference_s": reference_s,
                    "speedup": (
                        reference_s / fast_s if fast_s > 0 else float("inf")
                    ),
                }
            results[strategy_id] = breakdown
    finally:
        obs.configure(enabled=was_enabled)
    return results


def bench_windowed_visibility(
    simulation: ConstellationSimulation,
    steps: int = 8,
    step_s: float = 15.0,
    window: int = 4,
    repeat: int = 1,
) -> Dict:
    """Cached-candidate windows vs per-step rebuilds at a small step.

    Windows only pay off when the per-step satellite displacement is
    small against the chord radius (sub-minute steps — the handover/
    diurnal regime), so this is measured at ``step_s`` and reported
    alongside a bit-identity flag across every step; the identity is
    gated, the speedup is informational.
    """
    import numpy as np

    def build(window_setting) -> VisibilityIndex:
        return VisibilityIndex(
            simulation.walkers,
            simulation._cell_ecef,
            simulation._chord_radii,
            window=window_setting,
            step_hint_s=step_s,
        )

    times_s = [index * step_s for index in range(steps)]
    cached_index = build(window)
    rebuild_index = build(1)
    identical = True
    candidates = 0
    kept = 0
    for time_s in times_s:
        cached_csr, cached_lats = cached_index.query(time_s)
        rebuild_csr, rebuild_lats = rebuild_index.query(time_s)
        identical = identical and (
            np.array_equal(cached_csr.indptr, rebuild_csr.indptr)
            and np.array_equal(cached_csr.indices, rebuild_csr.indices)
            and np.array_equal(cached_lats, rebuild_lats)
        )
        candidates += int(cached_index.last_query_stats["candidates"])
        kept += int(cached_index.last_query_stats["kept"])

    def cached_run() -> None:
        cached_index.configure_window()  # drop the window: full cycle
        for time_s in times_s:
            cached_index.query(time_s)

    def rebuild_run() -> None:
        for time_s in times_s:
            rebuild_index.query(time_s)

    timings = BenchTimings.measure(repeat, cached_run, rebuild_run)
    return {
        "window": window,
        "step_s": step_s,
        "steps": steps,
        "cached_s": timings.fast_s,
        "rebuild_s": timings.reference_s,
        "speedup": timings.speedup,
        "identical": identical,
        "candidates": candidates,
        "refine_ratio": kept / candidates if candidates else 1.0,
    }


def bench_timeline(
    shells, dataset, steps: int = 4, step_s: float = 15.0, repeat: int = 1
) -> Dict:
    """The timeline workload at a sub-minute step, plus its identity flag.

    Times :func:`~repro.timeline.run_timeline` with a flat profile and
    churn disabled (verification off, so the number is the workload
    alone), then runs the flat-profile differential once: the
    timeline's report must be byte-identical to the static pipeline's.
    The identity is gated by ``repro-divide perfgate``; the wall time
    and steps/s are the recorded per-step budget at timeline steps.
    """
    from repro.timeline import TimelineConfig, run_timeline

    timed_config = TimelineConfig(
        duration_s=steps * step_s, step_s=step_s, verify_identity=False
    )
    wall_s = _best_of(
        repeat, lambda: run_timeline(dataset, shells, timed_config)
    )
    verified = run_timeline(
        dataset,
        shells,
        TimelineConfig(duration_s=steps * step_s, step_s=step_s),
    )
    return {
        "steps": steps,
        "step_s": step_s,
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s if wall_s > 0 else float("inf"),
        "flat_identical": bool(verified.flat_identical),
    }


# The manifest layer owns commit discovery now; keep the old name for
# the locations bench and any external callers.
_git_commit = obs.git_sha


def measure_telemetry_overhead(
    shells, dataset, clock: SimulationClock, repeat: int = 1
) -> Dict[str, float]:
    """Cost of leaving telemetry on: one fast greedy end-to-end run,
    best-of-``repeat``, with the global tracer/registry enabled vs
    disabled. ``overhead_fraction`` is the acceptance number (the budget
    is < 3%; disabled instrumentation is a single attribute check)."""

    def run() -> None:
        simulation = ConstellationSimulation(shells, dataset, engine="fast")
        simulation.run(clock)

    was_enabled = obs.enabled()
    try:
        obs.configure(enabled=True)
        enabled_s = _best_of(repeat, run)
        obs.configure(enabled=False)
        disabled_s = _best_of(repeat, run)
    finally:
        obs.configure(enabled=was_enabled)
    overhead = (
        (enabled_s - disabled_s) / disabled_s if disabled_s > 0 else 0.0
    )
    return {
        "enabled_s": enabled_s,
        "disabled_s": disabled_s,
        "overhead_fraction": overhead,
    }


def measure_profiler_overhead(
    shells, dataset, clock: SimulationClock, repeat: int = 1, hz: float = 50.0
) -> Dict[str, float]:
    """Cost of leaving the sampling profiler on at ``hz``.

    Same shape as :func:`measure_telemetry_overhead`: one fast greedy
    end-to-end run, best-of-``repeat``, with and without a
    :class:`~repro.obs.profile.SamplingProfiler` attached.
    ``overhead_fraction`` is the acceptance number — the budget is < 3%
    at the default 50 Hz on the full-scale scenario (sampling is one
    stack walk per tick, independent of the workload). Quick runs are
    ms-scale, so their fraction is noise-dominated; CI asserts only a
    generous ceiling.
    """
    from repro.obs.profile import SamplingProfiler

    def run() -> None:
        simulation = ConstellationSimulation(shells, dataset, engine="fast")
        simulation.run(clock)

    baseline_s = _best_of(repeat, run)
    profiler = SamplingProfiler(hz=hz)
    profiler.start()
    try:
        profiled_s = _best_of(repeat, run)
    finally:
        profiler.stop()
    overhead = (
        (profiled_s - baseline_s) / baseline_s if baseline_s > 0 else 0.0
    )
    return {
        "hz": hz,
        "baseline_s": baseline_s,
        "profiled_s": profiled_s,
        "overhead_fraction": overhead,
        "samples": profiler.samples,
        "budget_fraction": 0.03,
    }


def run_simulation_bench(
    quick: bool = False,
    steps: Optional[int] = None,
    step_s: float = 60.0,
    repeat: int = 1,
    dataset=None,
    visibility_window="auto",
) -> Dict:
    """Run the full benchmark suite; returns the JSON-ready results dict.

    ``quick`` shrinks the scenario (one shell, a regional cell subset,
    fewer steps) for CI smoke runs; the default measures the acceptance
    configuration (all Gen1 shells x national dataset).
    """
    if dataset is None:
        from repro.demand.synthetic import generate_national_map

        dataset = generate_national_map()
    if quick:
        dataset = dataset.subset_bbox(*QUICK_BBOX, "bench quick region")
        shells = list(GEN1_SHELLS[:1])
        step_count = steps if steps is not None else 2
    else:
        shells = list(GEN1_SHELLS)
        step_count = steps if steps is not None else 5
    if step_count < 1:
        raise SimulationError(f"bench needs at least one step: {step_count}")
    clock = SimulationClock(duration_s=step_count * step_s, step_s=step_s)
    times = list(clock.times())

    probe = ConstellationSimulation(
        shells, dataset, engine="fast", visibility_window=visibility_window
    )
    with obs.span("bench.index_build"):
        build_start = time.perf_counter()
        probe.visibility_index  # force the one-time index build
        index_build_s = time.perf_counter() - build_start

    with obs.span("bench.visibility", steps=len(times)):
        visibility = bench_visibility(probe, times, repeat=repeat)
    with obs.span("bench.assignment"):
        assignment = {
            strategy_id: bench_assignment(probe, strategy_id, repeat=repeat)
            for strategy_id in BENCH_STRATEGIES
        }
    with obs.span("bench.windowed_visibility"):
        windowed = bench_windowed_visibility(probe, repeat=repeat)
    end_to_end = {}
    reports_identical = {}
    with obs.span("bench.end_to_end"):
        for strategy_id in BENCH_STRATEGIES:
            timings, identical = bench_end_to_end(
                shells,
                dataset,
                strategy_id,
                clock,
                repeat=repeat,
                visibility_window=visibility_window,
            )
            end_to_end[strategy_id] = timings
            reports_identical[strategy_id] = identical
    with obs.span("bench.phases"):
        phases = bench_step_phases(shells, dataset, clock, repeat=repeat)
    with obs.span("bench.telemetry_overhead"):
        telemetry = measure_telemetry_overhead(
            shells, dataset, clock, repeat=repeat
        )
    with obs.span("bench.profiler_overhead"):
        profiler_overhead = measure_profiler_overhead(
            shells, dataset, clock, repeat=repeat
        )
    with obs.span("bench.timeline"):
        timeline = bench_timeline(
            shells, dataset, steps=step_count, repeat=repeat
        )

    import numpy
    import scipy

    return {
        "schema": "repro-bench-simulation/1",
        "commit": _git_commit(),
        "config": {
            "quick": quick,
            "cells": len(dataset.cells),
            "satellites": probe.satellite_count,
            "shells": [shell.name for shell in shells],
            "steps": step_count,
            "step_s": step_s,
            "repeat": repeat,
            "visibility_window": visibility_window,
            "strategies": sorted(BENCH_STRATEGIES),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "visibility": {
            **visibility.as_dict(),
            "index_build_s": index_build_s,
            "steps_per_s_fast": step_count / visibility.fast_s,
            "steps_per_s_reference": step_count / visibility.reference_s,
            "windowed": windowed,
        },
        "assignment": {
            strategy_id: timings.as_dict()
            for strategy_id, timings in assignment.items()
        },
        "end_to_end": {
            strategy_id: {
                **timings.as_dict(),
                "reports_identical": reports_identical[strategy_id],
            }
            for strategy_id, timings in end_to_end.items()
        },
        "phases": phases,
        "telemetry": telemetry,
        "profiler": profiler_overhead,
        "timeline": timeline,
        "headline_speedup": end_to_end["greedy"].speedup,
        "all_reports_identical": (
            all(reports_identical.values())
            and windowed["identical"]
            and timeline["flat_identical"]
        ),
    }


def write_bench_json(results: Dict, path) -> Path:
    """Write benchmark results as pretty-printed JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return target


def format_bench_summary(results: Dict) -> str:
    """Human-readable one-screen summary of a benchmark results dict."""
    config = results["config"]
    lines = [
        "simulation bench: {cells} cells x {satellites} satellites "
        "({steps} steps{quick})".format(
            cells=config["cells"],
            satellites=config["satellites"],
            steps=config["steps"],
            quick=", quick" if config["quick"] else "",
        ),
        "  visibility: {fast_s:.3f}s fast vs {reference_s:.3f}s reference "
        "({speedup:.1f}x)".format(**results["visibility"]),
    ]
    for strategy_id, timings in sorted(results["assignment"].items()):
        lines.append(
            "  assignment[{id}]: {fast_s:.3f}s fast vs {reference_s:.3f}s "
            "reference ({speedup:.1f}x)".format(id=strategy_id, **timings)
        )
    windowed = results.get("visibility", {}).get("windowed")
    if windowed:
        lines.append(
            "  visibility[window={window} @ {step_s:.0f}s]: {cached_s:.3f}s "
            "cached vs {rebuild_s:.3f}s rebuild ({speedup:.1f}x, identical: "
            "{identical})".format(**windowed)
        )
    timeline = results.get("timeline")
    if timeline:
        lines.append(
            "  timeline[flat @ {step_s:.0f}s]: {wall_s:.3f}s "
            "({steps_per_s:.1f} steps/s, flat identical: "
            "{flat_identical})".format(**timeline)
        )
    for strategy_id, timings in sorted(results["end_to_end"].items()):
        lines.append(
            "  end-to-end[{id}]: {fast_s:.3f}s fast vs {reference_s:.3f}s "
            "reference ({speedup:.1f}x, reports identical: "
            "{reports_identical})".format(id=strategy_id, **timings)
        )
    for strategy_id, breakdown in sorted(results.get("phases", {}).items()):
        parts = [
            "{name} {speedup:.1f}x".format(name=name, **phase)
            for name, phase in sorted(breakdown.items())
        ]
        if parts:
            lines.append(
                "  phases[%s]: %s" % (strategy_id, ", ".join(parts))
            )
    if "telemetry" in results:
        lines.append(
            "  telemetry overhead: {overhead_fraction:.1%} "
            "({enabled_s:.3f}s on vs {disabled_s:.3f}s off)".format(
                **results["telemetry"]
            )
        )
    if "profiler" in results:
        lines.append(
            "  profiler overhead at {hz:g} Hz: {overhead_fraction:.1%} "
            "({profiled_s:.3f}s on vs {baseline_s:.3f}s off, "
            "{samples} samples)".format(**results["profiler"])
        )
    lines.append(
        "  headline end-to-end speedup: %.1fx" % results["headline_speedup"]
    )
    return "\n".join(lines)
