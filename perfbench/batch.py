"""Batch workloads of the benchmark: national-static and national-timeline.

``run.py`` starts this script as a child process, so set-up is timed from
process launch until the national res-6 model is built::

    python3 perfbench/batch.py national-static --seconds 16 [--trace]
    python3 perfbench/batch.py national-timeline --setup-only

The child prints ``ready <CLOCK_MONOTONIC seconds>`` once the model is
built, then (unless ``--setup-only``) runs one discarded warm-up pass and
measured passes until ``--seconds`` have gone by (at least
``MIN_PASSES``), and prints one JSON line with its results. A pass is
timed in parts (national-static: findings, explode, bin, simulation;
national-timeline: one part); the op is the sum of each part's best
untraced time, because the machine's slow spells last seconds and a
shorter part is more likely to have one clean sample. Every pass is checked; a failed check counts as a failed
operation.

With ``--trace`` the layer wrappers of :mod:`tracing` are installed and
measured passes alternate traced/untraced, so the run reports per-layer
shares of the fastest traced pass and the tracing overhead against the
untraced op.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import sys
import time
import traceback
from typing import Dict, List, Optional

import common
import tracing

#: Measured passes a run makes even when passes outlast ``--seconds``: a
#: national-static pass takes ~7 s, and every part's best needs more than
#: two samples to see past the machine's contended spells.
MIN_PASSES = 3
#: national-static simulation: 5 steps of 60 s, greedy, 20:1.
SIM_STEPS = 5
SIM_STEP_S = 60.0
OVERSUBSCRIPTION = 20.0
#: national-timeline: 5 steps of 5 s from 02:00 UTC (one K=5 window).
TIMELINE_STEPS = 5
TIMELINE_STEP_S = 5.0
TIMELINE_START_S = 2 * 3600.0


def build_model(map_seed: int):
    """The national res-6 map wrapped in the paper's analysis facade."""
    from repro.core.model import StarlinkDivideModel
    from repro.demand import synthetic

    config = synthetic.SyntheticMapConfig.at_resolution(
        common.RESOLUTION, seed=map_seed
    )
    return StarlinkDivideModel(synthetic.generate_national_map(config))


class Checks:
    """Counts operations and the checks they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _digest(value) -> str:
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


class StaticWorkload:
    """F1-F4 + figures + tables, explode + bin, and a 5-step greedy run."""

    steps = SIM_STEPS

    def __init__(self, model, explode_seed: int, tracer: tracing.Tracer):
        from repro.demand import locations
        from repro.orbits.shells import GEN1_SHELLS
        from repro.sim.assignment import GreedyDemandFirst
        from repro.sim.engine import SimulationClock
        from repro.sim.simulation import ConstellationSimulation

        self.model = model
        self.dataset = model.dataset
        self.explode_seed = explode_seed
        self.tracer = tracer
        self._locations = locations
        self._simulation = lambda: ConstellationSimulation(
            list(GEN1_SHELLS),
            self.dataset,
            oversubscription=OVERSUBSCRIPTION,
            strategy=GreedyDemandFirst(),
        )
        self._clock = SimulationClock(
            duration_s=SIM_STEPS * SIM_STEP_S, step_s=SIM_STEP_S
        )
        columns = self.dataset.to_columns()
        self._expected_bins = {
            int(key): (int(unserved), int(underserved))
            for key, unserved, underserved in zip(
                columns["cell_key"].tolist(),
                columns["unserved"].tolist(),
                columns["underserved"].tolist(),
            )
            if unserved + underserved > 0
        }
        self._findings_digest: Optional[str] = None
        self._report = None
        self.handovers = 0
        self.reconnections = 0

    def _findings(self) -> Dict[str, object]:
        model = self.model
        return {
            "findings": model.findings(),
            "fig1": model.figure1_distribution(),
            "fig1_cdf": model.figure1_cdf(),
            "tab1": model.table1(),
            "fig2": model.figure2_grid(),
            "tab2": model.table2(),
            "fig3": model.figure3_curves(),
            "fig4": model.figure4_curves(),
        }

    def run_pass(self, label: str, checks: Checks) -> Dict[str, float]:
        tracer = self.tracer
        tracer.run_id = f"{label}/findings"
        start = time.perf_counter()
        with tracer.span("findings_pass"):
            outputs = self._findings()
        findings_s = time.perf_counter() - start
        digest = _digest(outputs)
        if self._findings_digest is None:
            self._findings_digest = digest
        checks.operation(
            digest == self._findings_digest, f"{label}: findings changed"
        )

        tracer.run_id = f"{label}/explode"
        start = time.perf_counter()
        with tracer.span("explode_pass"):
            table = self._locations.explode_cells_table(
                self.dataset, seed=self.explode_seed
            )
        explode_s = time.perf_counter() - start
        tracer.run_id = f"{label}/bin"
        start = time.perf_counter()
        with tracer.span("bin_pass"):
            bins = self._locations.bin_table(table, common.RESOLUTION)
        bin_s = time.perf_counter() - start
        rows_ok = len(table) == self.dataset.total_locations
        bins_ok = {
            cell.key: counts for cell, counts in bins.items()
        } == self._expected_bins
        checks.operation(
            rows_ok and bins_ok,
            f"{label}: rows {len(table)} vs {self.dataset.total_locations},"
            f" bins equal dataset counts: {bins_ok}",
        )
        del table, bins

        simulation = self._simulation()
        tracer.run_id = f"{label}/sim"
        start = time.perf_counter()
        with tracer.span("sim_run"):
            metrics = simulation.run(self._clock)
        sim_s = time.perf_counter() - start
        report = simulation.report(metrics)
        if self._report is None:
            self._report = report
        limit = metrics.steps * simulation.demands_mbps
        allocated_ok = bool(
            (metrics.allocated_sum_mbps <= limit * (1 + 1e-12) + 1e-9).all()
        )
        checks.operation(
            report == self._report and allocated_ok and metrics.steps == SIM_STEPS,
            f"{label}: simulation report changed or allocated > demand",
        )
        self.handovers = int(metrics.handover_counts.sum())
        self.reconnections = int(metrics.reconnection_counts.sum())
        return {
            "findings_s": findings_s,
            "explode_s": explode_s,
            "bin_s": bin_s,
            "sim_s": sim_s,
        }


class TimelineWorkload:
    """A fresh 5-step busy-hour ``run_timeline`` per pass."""

    steps = TIMELINE_STEPS

    def __init__(self, model, tracer: tracing.Tracer):
        from repro.orbits.shells import GEN1_SHELLS
        from repro.timeline import (
            DiurnalProfile,
            HandoverChurnModel,
            TimelineConfig,
            run_timeline,
        )

        self.dataset = model.dataset
        self.tracer = tracer
        self._shells = list(GEN1_SHELLS)
        self._run_timeline = run_timeline
        self._config = TimelineConfig(
            duration_s=TIMELINE_STEPS * TIMELINE_STEP_S,
            step_s=TIMELINE_STEP_S,
            profile=DiurnalProfile.residential(),
            churn=HandoverChurnModel(),
            oversubscription=OVERSUBSCRIPTION,
            strategy="fair",
            start_s=TIMELINE_START_S,
        )
        self._first = None
        self.handovers = 0
        self.reconnections = 0

    def run_pass(self, label: str, checks: Checks) -> Dict[str, float]:
        import numpy as np

        self.tracer.run_id = f"{label}/timeline"
        start = time.perf_counter()
        with self.tracer.span("timeline_pass"):
            result = self._run_timeline(self.dataset, self._shells, self._config)
        wall_s = time.perf_counter() - start
        hours = result.unserved_hours_per_day()
        if self._first is None:
            self._first = (result.report, hours)
        report, first_hours = self._first
        ok = (
            result.steps == TIMELINE_STEPS
            and result.report == report
            and hours.tobytes() == first_hours.tobytes()
            and bool(((hours >= 0.0) & (hours <= 24.0)).all())
            and bool(
                (
                    result.effective_mbps
                    <= result.allocated_mbps * (1 + 1e-12) + 1e-9
                ).all()
            )
        )
        checks.operation(
            ok, f"{label}: timeline report/unserved hours changed or out of range"
        )
        self.handovers = int(np.sum(result.handover_counts))
        self.reconnections = int(np.sum(result.reconnection_counts))
        return {"timeline_s": wall_s}


def layer_metrics(workload, run_ids: List[str]) -> Dict[str, object]:
    """Per-layer metrics of one traced op (set-up aside).

    ``run_ids`` name the traced parts that make up the op. Returns the
    op's layer shares and work counts, plus ``self_s``: each span's self
    seconds in the op, for the ``info`` line.
    """
    op = tracing.LayerTimes(workload.tracer.spans, run_ids)
    traced_op_s = sum(op.self_time.values())
    steps = workload.steps
    kept = op.counts["visibility.kept"]
    candidates = op.counts["visibility.candidates"]
    beams = op.counts["greedy.beams"] + op.counts["fair.beams"]
    covered = op.counts["greedy.covered"] + op.counts["fair.covered"]
    return {
        "traced_op_s": traced_op_s,
        **tracing.op_shares(op.self_time, traced_op_s),
        "visibility_pairs_per_step": kept / steps,
        "visibility_candidates_per_step": candidates / steps,
        "visibility_refine_ratio": kept / candidates,
        "visibility_window_rebuilds": op.counts["visibility.fresh_queries"],
        "beams_granted_per_step": beams / steps,
        "cells_covered_per_step": covered / steps,
        "handovers": workload.handovers,
        "reconnections": workload.reconnections,
        "tiles_bytes": 0,
        "self_s": dict(op.self_time),
    }


def measure(workload, seconds: float, trace: bool, checks: Checks):
    """Warm-up pass, then measured passes.

    Returns the best untraced time of each part, the traced passes as
    ``(parts, label)`` and the number of passes made.
    """
    workload.tracer.enabled = False
    run_pass = workload.run_pass
    try:
        run_pass("warmup", checks)
    except Exception:  # a broken pass is a failed operation, not a crash
        traceback.print_exc()
        checks.operation(False, "warmup: raised")
        return {}, [], 1
    untraced: List[Dict[str, float]] = []
    traced: List[tuple] = []
    loop_start = time.perf_counter()
    last_s = 0.0
    while (
        len(untraced) + len(traced) < MIN_PASSES
        or time.perf_counter() - loop_start + last_s <= seconds
    ):
        index = len(untraced) + len(traced)
        label = f"pass-{index}"
        workload.tracer.enabled = trace and index % 2 == 0
        started = time.perf_counter()
        try:
            values = run_pass(label, checks)
        except Exception:
            traceback.print_exc()
            checks.operation(False, f"{label}: raised")
            break
        finally:
            workload.tracer.enabled = False
        last_s = time.perf_counter() - started
        if trace and index % 2 == 0:
            traced.append((values, label))
        else:
            untraced.append(values)
    names = untraced[0] if untraced else {}
    best = {name: min(values[name] for values in untraced) for name in names}
    return best, traced, 1 + len(untraced) + len(traced)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=common.WORKLOADS[:2])
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--map-seed", type=int, default=common.DEFAULT_MAP_SEED)
    parser.add_argument(
        "--explode-seed", type=int, default=common.DEFAULT_EXPLODE_SEED
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    common.use_source_tree()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(tracing.BATCH_TARGETS)
        tracer.enabled = True
    model = build_model(args.map_seed)
    tracer.enabled = False
    print(f"ready {time.monotonic():.6f}", flush=True)
    if args.setup_only:
        return 0

    checks = Checks()
    if args.workload == "national-static":
        workload = StaticWorkload(model, args.explode_seed, tracer)
    else:
        workload = TimelineWorkload(model, tracer)
    best, traced, passes = measure(workload, args.seconds, args.trace, checks)

    result: Dict[str, object] = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "errors": checks.errors,
        "passes": passes,
        "peak_rss_mb": common.peak_rss_mb(),
        "best": best,
        "op_s": sum(best.values()),
    }
    if args.trace and traced and best:
        # The traced op is each part's fastest traced run, like the
        # untraced op, so the layers' self times add up to it. A part
        # ``<name>_s`` of pass ``<label>`` ran under run id ``<label>/<name>``.
        run_ids = [
            f"{min(traced, key=lambda entry: entry[0][part])[1]}/{part[:-2]}"
            for part in best
        ]
        layers = layer_metrics(workload, run_ids)
        layers["untraced_op_s"] = result["op_s"]
        layers["tracing_overhead_s"] = layers["traced_op_s"] - result["op_s"]
        result["layers"] = layers
        result["setup_spans"] = [
            record for record in tracer.spans if record[4] == "setup"
        ]
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
