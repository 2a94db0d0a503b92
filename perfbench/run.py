"""National res-6 benchmark: batch pipeline, busy-hour timeline, served queries.

Run from the root of a checkout::

    python3 perfbench/run.py --workload national-static --seed 1 --seconds 16 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``national-static`` -- F1-F4 / Figs 1-4 / Tables 1-2, explode + bin of
  the 4.66 M locations, and a 5-step 60 s greedy simulation (``batch.py``);
* ``national-timeline`` -- a fresh 5-step 5 s busy-hour ``run_timeline``
  per pass, residential profile, default churn, proportional fair
  (``batch.py``);
* ``national-serve`` -- open-loop ``point_id`` load, alone and beside
  national ``tiles`` + ``set_params`` swaps, against a ``serve`` child
  (``serve_load.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``tracing.py``) with its tracing overhead. Every
workload prints every metric ``BENCHMARK.json`` lists for the mode:
``setup_s``, ``peak_rss_mb`` and ``op_s``, the workload's own operation
(a batch pass, a timeline pass, a ``tiles`` round trip under load). The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records seeds, the
machine and the samples behind each metric. ``--seed`` is the load seed: it picks national-serve's id
batches and sampled ``cell`` checks; the batch workloads' inputs are
fixed by the map and explode seeds, which default to the calibrated
20250706 map and seed 0. Any failed check makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

import common
import tracing

#: Set-up samples of a batch run: ``SETUP_SAMPLES - 1`` set-up-only
#: children, then the worker itself.
SETUP_SAMPLES = 2
#: A run must end within 180 s; children get what is left of this.
RUN_DEADLINE_S = 170.0


def _ready_time(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("ready "):
            return float(line.split()[1])
    raise common.BenchError("batch child never reported ready")


def _batch_command(args, *extra: str) -> List[str]:
    return [
        sys.executable,
        str(common.BENCH_DIR / "batch.py"),
        args.workload,
        "--map-seed", str(args.map_seed),
        "--explode-seed", str(args.explode_seed),
        *extra,
    ]


def _run_child(command: List[str], deadline: float) -> Tuple[str, float]:
    """Run a batch child by ``deadline``: (its stdout, when it was spawned)."""
    spawned = time.monotonic()
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=common.child_env(),
        cwd=common.ROOT,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise common.BenchError(f"{command[2]} child missed its deadline")
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    if process.returncode != 0:
        raise common.BenchError(f"batch child exited {process.returncode}")
    return stdout, spawned


def run_batch(args, deadline: float) -> Dict[str, object]:
    """national-static / national-timeline through ``batch.py`` children."""
    setup: List[float] = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            stdout, spawned = _run_child(_batch_command(args, "--setup-only"), deadline)
            setup.append(_ready_time(stdout) - spawned)
    extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    stdout, spawned = _run_child(_batch_command(args, *extra), deadline)
    setup.append(_ready_time(stdout) - spawned)
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_samples"] = setup
    if not args.trace:
        result["values"] = {
            "setup_s": common.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "op_s": result["op_s"],
        }
        return result
    if "layers" not in result:
        raise common.BenchError(f"no traced pass completed: {result['errors']}")
    layers = result.pop("layers")
    result["layer_self_s"] = layers.pop("self_s")
    # Set-up spans are recorded first, so their parent indices hold.
    setup_spans = tracing.LayerTimes(result.pop("setup_spans"), "setup")
    result["values"] = {**layers, **tracing.setup_layers(setup_spans, setup[-1])}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="load seed")
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--map-seed", type=int, default=common.DEFAULT_MAP_SEED)
    parser.add_argument(
        "--explode-seed", type=int, default=common.DEFAULT_EXPLODE_SEED
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks reap the children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        common.use_source_tree()
        if args.workload == "national-serve":
            import serve_load

            common.OUT_DIR.mkdir(parents=True, exist_ok=True)
            work_dir = tempfile.mkdtemp(prefix="serve-", dir=common.OUT_DIR)
            try:
                result = serve_load.run(args, Path(work_dir), deadline)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
        else:
            result = run_batch(args, deadline)
    except common.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": common.fingerprint(
            load_seed=args.seed,
            map_seed=args.map_seed,
            explode_seed=args.explode_seed,
        ),
        **{
            key: value
            for key, value in result.items()
            if key not in ("attempted", "failed", "values")
        },
    }
    print("info " + json.dumps(info, sort_keys=True, default=str))
    correct = result["failed"] == 0 and result["attempted"] > 0
    try:
        metrics = common.result_metrics(result["values"], bool(args.trace))
    except common.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    common.emit(
        {
            "correct": correct,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
