"""Command-line entry point: ``python -m repro`` / ``repro-divide``.

Subcommands::

    repro-divide list                 # available experiments
    repro-divide summary              # dataset + findings overview
    repro-divide run fig1 [...]       # run experiments, print renderings
    repro-divide run all --parallel 4 # run everything over 4 processes
    repro-divide sweep served \\
        --grid "beamspread=1,2,5;oversubscription=10,15,20,25" \\
        --parallel 4 --cache-dir cache/ --out sweep.csv
    repro-divide export-data out/     # write the synthetic dataset CSVs
    repro-divide serve --port 7321    # interactive query service (JSON lines)
    repro-divide report sweep.manifest.json  # render run telemetry

Global flags: ``--log-level`` picks the console verbosity,
``--log-json PATH`` tees every log record (plus the final span forest
and metric snapshot) into a JSONL telemetry stream, and ``--quiet``
silences everything below ERROR. Tables, summaries, and findings stay
on stdout; diagnostics ("wrote ...", progress, errors) go through the
``repro`` logger on stderr. Sweeps and timelines additionally write a
:class:`~repro.obs.RunManifest` next to their ``--out`` file. A library
error (:class:`~repro.errors.ReproError`) from any command is logged as
one ``<command> failed: <message>`` line and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core.model import StarlinkDivideModel
from repro.demand.loader import write_dataset
from repro.demand.synthetic import SyntheticMapConfig
from repro.errors import ReproError
from repro.experiments import (
    all_experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.obs.writer import LOG_LEVELS
from repro.viz.export import write_series_csv

_log = obs.get_logger("cli")


def _build_model(
    seed: Optional[int], grid_resolution: Optional[int] = None
) -> StarlinkDivideModel:
    if grid_resolution is not None:
        config = SyntheticMapConfig.at_resolution(
            grid_resolution, seed=seed if seed is not None else 20250706
        )
    elif seed is not None:
        config = SyntheticMapConfig(seed=seed)
    else:
        config = None
    return StarlinkDivideModel.default(config)


def _write_manifest(
    args: argparse.Namespace,
    command: str,
    out_path,
    params_hash: Optional[str] = None,
    dataset_fingerprint: Optional[str] = None,
    extra: Optional[dict] = None,
) -> Path:
    """Write the RunManifest next to ``out_path`` and log where."""
    manifest = obs.collect_manifest(
        command=command,
        argv=getattr(args, "_argv", []),
        params_hash=params_hash,
        dataset_fingerprint=dataset_fingerprint,
        events_path=args.log_json,
        extra=extra,
    )
    path = manifest.write(obs.manifest_path_for(out_path))
    _log.info("wrote manifest %s", path)
    return path


def _start_profiler(args: argparse.Namespace):
    """Start the sampling profiler when ``--profile`` was given, else None."""
    hz = getattr(args, "profile", None)
    if hz is None:
        return None
    from repro.obs.profile import SamplingProfiler

    profiler = SamplingProfiler(hz=hz)
    profiler.start()
    _log.info("sampling profiler on at %g Hz", profiler.hz)
    return profiler


def _profile_out_path(args: argparse.Namespace) -> Path:
    """Where the folded-stack profile lands (next to --out when present)."""
    if getattr(args, "profile_out", None):
        return Path(args.profile_out)
    out = getattr(args, "out", None)
    if out:
        out = Path(out)
        return out.with_name(out.stem + ".profile.txt")
    return Path("profile.folded.txt")


def _finish_profiler(args: argparse.Namespace, profiler) -> Optional[dict]:
    """Stop, write the folded stacks, and return the manifest digest."""
    if profiler is None:
        return None
    profiler.stop()
    path = profiler.write(_profile_out_path(args))
    _log.info(
        "wrote %s (%d samples at %g Hz; flamegraph.pl or speedscope "
        "render it)",
        path,
        profiler.samples,
        profiler.hz,
    )
    return {"path": str(path), **profiler.summary()}


def _cmd_list(_: argparse.Namespace) -> int:
    for experiment_id in all_experiment_ids():
        print(experiment_id)
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    model = _build_model(args.seed, args.grid_resolution)
    print(model.dataset.summary())
    print()
    print(model.findings().text())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = all_experiment_ids() if "all" in args.experiments else args.experiments
    if args.parallel < 1:
        _log.error("--parallel must be >= 1, got %d", args.parallel)
        return 2
    model = _build_model(args.seed, args.grid_resolution)
    for experiment_id, result in _run_experiments(
        ids, model, args.seed, args.parallel, args.grid_resolution
    ):
        print(f"=== {result.title} ===")
        print(result.text)
        print()
        if args.out:
            path = Path(args.out) / f"{experiment_id}.csv"
            write_series_csv(path, result.csv_headers, result.csv_rows)
            _log.info("wrote %s", path)
    return 0


def _run_experiments(ids, model, seed, n_workers, grid_resolution=None):
    """Yield (id, result) in request order, fanning out when asked."""
    import concurrent.futures
    import functools

    from repro.runner import tasks as runner_tasks

    # Validate every id up front so a typo fails before any fan-out.
    for experiment_id in ids:
        get_experiment(experiment_id)
    if n_workers == 1 or len(ids) <= 1:
        for experiment_id in ids:
            yield experiment_id, run_experiment(experiment_id, model)
        return
    builder = functools.partial(
        runner_tasks.build_default_model, seed, grid_resolution
    )
    # Forked workers inherit the parent's model; spawn rebuilds from
    # the seed via the initializer.
    runner_tasks._WORKER_MODEL = model
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(n_workers, len(ids)),
            initializer=runner_tasks._worker_init,
            initargs=(builder,),
        ) as pool:
            futures = [
                pool.submit(runner_tasks._worker_run_experiment, experiment_id)
                for experiment_id in ids
            ]
            for experiment_id, future in zip(ids, futures):
                yield experiment_id, future.result()
    finally:
        runner_tasks._WORKER_MODEL = None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner import (
        FailurePolicy,
        ParameterGrid,
        ResultCache,
        SweepRunner,
    )
    from repro.runner.tasks import build_default_model
    from repro.viz.tables import format_table

    metrics_server = None
    profiler = _start_profiler(args)
    try:
        grid = ParameterGrid.from_spec(args.grid)
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        policy = FailurePolicy(
            on_error=args.on_error.replace("-", "_"),
            max_retries=args.retries,
            task_timeout_s=args.task_timeout,
        )
        import functools

        runner = SweepRunner(
            args.function,
            grid,
            n_workers=args.parallel,
            cache=cache,
            model_builder=functools.partial(
                build_default_model, args.seed, args.grid_resolution
            ),
            policy=policy,
            start_method=args.start_method,
            use_shared_memory=not args.no_shared_memory,
            live=args.live,
            live_interval_s=args.live_interval,
            live_stall_beats=args.stall_beats,
        )
        if args.metrics_port is not None:
            metrics_server = _start_sweep_metrics(args.metrics_port, runner)
        report = runner.run(model=_build_model(args.seed, args.grid_resolution))
    finally:
        if metrics_server is not None:
            metrics_server.close()
        profile_digest = _finish_profiler(args, profiler)
    headers, rows = report.table()
    print(
        format_table(
            headers, rows, title=f"sweep {args.function}: {len(rows)} tasks"
        )
    )
    print()
    print(report.summary())
    if report.n_failed:
        _log.warning(
            "%d of %d tasks failed; failed tasks are not cached and a "
            "rerun re-executes only them",
            report.n_failed,
            len(report.results),
        )
    if args.out:
        path = write_series_csv(args.out, headers, rows)
        _log.info("wrote %s", path)
        _write_manifest(
            args,
            command="sweep",
            out_path=path,
            params_hash=hashlib.sha256(
                f"{args.function}\n{args.grid}".encode("utf-8")
            ).hexdigest()[:16],
            dataset_fingerprint=report.dataset_fingerprint,
            extra={
                "summary": report.summary(),
                "tasks": len(report.results),
                "cache_hits": report.cache_hits,
                "n_workers": report.n_workers,
                "on_error": policy.on_error,
                "tasks_failed": report.n_failed,
                "failures": [
                    {
                        "index": r.index,
                        "params": r.params,
                        "attempts": r.attempts,
                        "error": r.error,
                    }
                    for r in report.failures
                ],
                **(
                    {
                        "live": {
                            "interval_s": runner.live_monitor.interval_s,
                            "stall_beats": runner.live_monitor.stall_beats,
                            "workers_seen": (
                                runner.live_monitor.workers_seen()
                            ),
                            "messages": runner.live_monitor.messages,
                            "stalls": runner.live_monitor.stall_events,
                        }
                    }
                    if runner.live_monitor is not None
                    else {}
                ),
                **({"profile": profile_digest} if profile_digest else {}),
            },
        )
    return 0


def _start_sweep_metrics(port: int, runner):
    """A ``/metrics`` endpoint over the sweep's in-flight aggregate.

    While the live monitor is up, scrapes see the authoritative
    registry *plus* every worker's streamed in-flight delta; otherwise
    (serial runs, ``--live`` off) they see the plain registry.
    """
    from repro.obs.promtext import start_metrics_server

    def snapshot_fn():
        monitor = runner.live_monitor
        if monitor is not None:
            return monitor.live_snapshot()
        return obs.registry().snapshot()

    server = start_metrics_server(port, snapshot_fn=snapshot_fn)
    _log.info("metrics exposed on http://127.0.0.1:%d/metrics", server.port)
    return server


def _cmd_export_geojson(args: argparse.Namespace) -> int:
    from repro.orbits.gateways import DEFAULT_CONUS_GATEWAYS
    from repro.viz.geojson import (
        cells_to_geojson,
        counties_to_geojson,
        gateways_to_geojson,
        write_geojson,
    )

    model = _build_model(args.seed, args.grid_resolution)
    out = Path(args.directory)
    written = [
        write_geojson(
            cells_to_geojson(model.dataset, max_cells=args.max_cells),
            out / "cells.geojson",
        ),
        write_geojson(
            counties_to_geojson(model.dataset), out / "counties.geojson"
        ),
        write_geojson(
            gateways_to_geojson(DEFAULT_CONUS_GATEWAYS),
            out / "gateways.geojson",
        ),
    ]
    for path in written:
        _log.info("wrote %s", path)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.orbits.shells import GEN1_SHELLS, current_deployment
    from repro.sim.assignment import (
        GreedyDemandFirst,
        ProportionalFair,
        StickyGreedy,
    )
    from repro.sim.engine import SimulationClock
    from repro.sim.simulation import ConstellationSimulation

    strategies = {
        "greedy": GreedyDemandFirst,
        "fair": ProportionalFair,
        "sticky": StickyGreedy,
    }
    model = _build_model(args.seed, args.grid_resolution)
    region = model.dataset.subset_bbox(
        args.lat_min, args.lat_max, args.lon_min, args.lon_max, "CLI region"
    )
    shells = (
        current_deployment() if args.shells == "current" else list(GEN1_SHELLS[:2])
    )
    simulation = ConstellationSimulation(
        shells,
        region,
        oversubscription=args.oversubscription,
        strategy=strategies[args.strategy](),
        visibility_window=args.visibility_window,
    )
    clock = SimulationClock(duration_s=args.duration, step_s=args.step)
    _log.info("%s", region.summary())
    profiler = _start_profiler(args)
    try:
        metrics = simulation.run(clock)
    finally:
        _finish_profiler(args, profiler)
    print(simulation.report(metrics).text())
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.orbits.shells import GEN1_SHELLS, current_deployment
    from repro.timeline import (
        HandoverChurnModel,
        TimelineConfig,
        get_profile,
        run_timeline,
        write_timeline_jsonl,
    )

    model = _build_model(args.seed, args.grid_resolution)
    region = model.dataset.subset_bbox(
        args.lat_min, args.lat_max, args.lon_min, args.lon_max, "CLI region"
    )
    shells = (
        current_deployment() if args.shells == "current" else list(GEN1_SHELLS[:2])
    )
    config = TimelineConfig(
        duration_s=args.duration_h * 3600.0,
        step_s=args.step,
        profile=get_profile(args.diurnal),
        churn=HandoverChurnModel(
            reconnect_outage_s=args.reconnect_outage,
            handover_outage_s=args.handover_outage,
        ),
        oversubscription=args.oversubscription,
        strategy=args.strategy,
        visibility_window=args.visibility_window,
    )
    _log.info("%s", region.summary())
    profiler = _start_profiler(args)
    try:
        result = run_timeline(region, shells, config)
    finally:
        _finish_profiler(args, profiler)
    print(result.report.text())
    unserved = result.unserved_hours_per_day()
    print(
        f"profile {config.profile.name}: unserved hours/day mean "
        f"{float(unserved.mean()):.2f} / max {float(unserved.max()):.2f}; "
        f"outage minutes mean {float(result.outage_minutes().mean()):.2f}; "
        f"{int(result.reconnection_counts.sum())} reconnections"
    )
    if result.flat_identical is not None:
        print(
            "flat-profile differential: "
            + (
                "byte-identical to static pipeline"
                if result.flat_identical
                else "MISMATCH vs static pipeline"
            )
        )
    if args.out:
        path = write_timeline_jsonl(result, args.out)
        _log.info("wrote %s", path)
        _write_manifest(
            args,
            command="timeline",
            out_path=path,
            dataset_fingerprint=region.fingerprint(),
            extra={
                "profile": config.profile.name,
                "steps": result.steps,
                "cells": result.cells,
                "flat_identical": result.flat_identical,
                "unserved_hours_per_day_mean": float(unserved.mean()),
            },
        )
    if result.flat_identical is False:
        _log.error("flat timeline diverged from the static pipeline")
        return 1
    return 0


def _parse_visibility_window(text: str):
    """argparse type for --visibility-window: "auto" or a step count."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or an integer: {text!r}"
        )


def _serve_table_and_dataset(args: argparse.Namespace):
    """The (table, dataset) pair ``serve`` runs on."""
    from repro.demand.locations import LocationTable, explode_cells_table
    from repro.demand.regions import QUICK_BBOX

    model = _build_model(args.seed, args.grid_resolution)
    dataset = model.dataset
    if args.quick:
        dataset = dataset.subset_bbox(*QUICK_BBOX, "serve quick region")
    if args.table:
        table = LocationTable.from_npz(args.table, mmap_mode="r")
        _log.info("memory-mapped %d locations from %s", len(table), args.table)
    else:
        table = explode_cells_table(dataset, seed=args.explode_seed)
    return table, dataset


def _serve_params(args: argparse.Namespace):
    from repro.serve import ScenarioParams

    return ScenarioParams(
        oversubscription=args.oversubscription,
        beamspread=args.beamspread,
        income_share=args.income_share,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import QueryEngine, ServeServer, build_index

    metrics_server = None
    try:
        table, dataset = _serve_table_and_dataset(args)
        # Close the (possibly memory-mapped) table on every exit path,
        # releasing the NPZ file handles a --table service holds open.
        with table:
            index = build_index(table, dataset, _serve_params(args))
            engine = QueryEngine(index)
            server = ServeServer(engine, host=args.host, port=args.port)
            _log.info(
                "index ready: %d locations, %d cells, %d shards, scenario %s",
                len(index),
                index.n_cells,
                len(index.store.shards),
                index.scenario_id,
            )
            if args.metrics_port is not None:
                from repro.obs.promtext import start_metrics_server

                metrics_server = start_metrics_server(
                    args.metrics_port, host=args.host
                )
                _log.info(
                    "metrics exposed on http://%s:%d/metrics",
                    args.host,
                    metrics_server.port,
                )
            asyncio.run(server.serve_forever())
    except KeyboardInterrupt:
        _log.info("serve interrupted")
    finally:
        if metrics_server is not None:
            metrics_server.close()
    return 0


def _cmd_export_data(args: argparse.Namespace) -> int:
    model = _build_model(args.seed, args.grid_resolution)
    out = Path(args.directory)
    cells = out / "cells.csv"
    counties = out / "counties.csv"
    write_dataset(model.dataset, cells, counties)
    _log.info("wrote %s and %s", cells, counties)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(obs.format_report(args.path, top=args.top))
    return 0


def _port(text: str) -> int:
    """argparse type for a TCP port: an integer in [0, 65535]."""
    try:
        port = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 65535] (0 picks a free port), got {port}"
        )
    return port


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    """``--profile [HZ]`` / ``--profile-out`` for simulate, timeline, sweep."""
    from repro.obs.profile import DEFAULT_HZ

    p.add_argument(
        "--profile",
        nargs="?",
        const=DEFAULT_HZ,
        default=None,
        type=float,
        metavar="HZ",
        help=(
            "sample the main thread's stack at HZ (default: "
            f"{DEFAULT_HZ:g}) into a folded-stack file next to --out "
            "(flamegraph.pl / speedscope readable)"
        ),
    )
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="folded-stack output path (default: derived from --out)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-divide",
        description=(
            "Reproduce the HotNets '25 Starlink digital-divide analysis"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="synthetic map seed"
    )
    parser.add_argument(
        "--grid-resolution",
        type=int,
        default=None,
        metavar="RES",
        help=(
            "H3 grid resolution for the synthetic map (default: 5, the "
            "paper's Starlink cell size); calibration anchors rescale by "
            "cell area, the national total is unchanged"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="console diagnostics verbosity (default: info)",
    )
    parser.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help=(
            "tee log records, the span forest, and the final metric "
            "snapshot into this JSONL telemetry file"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="silence diagnostics below ERROR (tables still print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(
        func=_cmd_list
    )
    sub.add_parser(
        "summary", help="dataset summary and findings F1-F4"
    ).set_defaults(func=_cmd_summary)

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments", nargs="+", help="experiment ids, or 'all'"
    )
    run_parser.add_argument(
        "--out", default=None, help="directory for CSV export"
    )
    run_parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="fan experiments over N worker processes (default: serial)",
    )
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a parameter sweep (parallel, cached)",
        description=(
            "Fan a parameter grid over worker processes with a "
            "content-addressed on-disk result cache; repeated sweeps "
            "are near-free. Grid syntax: name=v1,v2[;name=...]"
        ),
    )
    sweep_parser.add_argument(
        "function",
        choices=("served", "sizing", "tail", "experiment", "timeline"),
        help="sweep function (see repro.runner)",
    )
    sweep_parser.add_argument(
        "--grid",
        required=True,
        help='parameter grid, e.g. "beamspread=1,2,5;oversubscription=10,20"',
    )
    sweep_parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker process count (default: serial)",
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    sweep_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every task; do not read or write the cache",
    )
    sweep_parser.add_argument(
        "--on-error",
        choices=("fail-fast", "continue", "retry"),
        default="fail-fast",
        help=(
            "what a task failure costs: abort the sweep (default), "
            "record the failure and continue, or retry with backoff "
            "before recording it"
        ),
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts per task under --on-error retry (default: 2)",
    )
    sweep_parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-task attempt timeout for parallel sweeps; a hung "
            "worker is abandoned and its pool rebuilt"
        ),
    )
    sweep_parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help=(
            "multiprocessing start method for worker pools (default: "
            "platform default); workers attach the parent's shared-memory "
            "model either way"
        ),
    )
    sweep_parser.add_argument(
        "--no-shared-memory",
        action="store_true",
        help="disable the shared-memory model handoff to workers",
    )
    sweep_parser.add_argument(
        "--live",
        action="store_true",
        help=(
            "stream in-flight worker metrics and heartbeats to the "
            "parent; a stall watchdog flags silent tasks before the "
            "task timeout"
        ),
    )
    sweep_parser.add_argument(
        "--live-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="worker flush/heartbeat interval under --live (default: 0.2)",
    )
    sweep_parser.add_argument(
        "--stall-beats",
        type=int,
        default=5,
        metavar="N",
        help=(
            "silent intervals before a task is flagged stalled "
            "(default: 5, i.e. 1s at the default interval)"
        ),
    )
    sweep_parser.add_argument(
        "--metrics-port",
        type=_port,
        default=None,
        metavar="PORT",
        help=(
            "serve Prometheus text on http://127.0.0.1:PORT/metrics "
            "for the duration of the sweep (0 picks a free port); "
            "includes in-flight worker deltas under --live"
        ),
    )
    _add_profile_args(sweep_parser)
    sweep_parser.add_argument(
        "--out", default=None, help="CSV file for the sweep table"
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    export_parser = sub.add_parser(
        "export-data", help="write the synthetic dataset as CSV"
    )
    export_parser.add_argument("directory")
    export_parser.set_defaults(func=_cmd_export_data)

    geojson_parser = sub.add_parser(
        "export-geojson", help="write cells/counties/gateways as GeoJSON"
    )
    geojson_parser.add_argument("directory")
    geojson_parser.add_argument(
        "--max-cells", type=int, default=5000, help="densest N cells to export"
    )
    geojson_parser.set_defaults(func=_cmd_export_geojson)

    sim_parser = sub.add_parser(
        "simulate", help="run the constellation simulator on a region"
    )
    sim_parser.add_argument("--lat-min", type=float, default=36.0)
    sim_parser.add_argument("--lat-max", type=float, default=39.5)
    sim_parser.add_argument("--lon-min", type=float, default=-89.6)
    sim_parser.add_argument("--lon-max", type=float, default=-80.0)
    sim_parser.add_argument("--duration", type=float, default=1800.0)
    sim_parser.add_argument("--step", type=float, default=60.0)
    sim_parser.add_argument("--oversubscription", type=float, default=20.0)
    sim_parser.add_argument(
        "--strategy", choices=("greedy", "fair", "sticky"), default="fair"
    )
    sim_parser.add_argument(
        "--shells", choices=("gen1-53", "current"), default="gen1-53"
    )
    sim_parser.add_argument(
        "--visibility-window",
        type=_parse_visibility_window,
        default="auto",
        help=(
            "visibility caching: 'auto' picks per-step rebuild vs "
            "cached-candidate windows from the step size; an integer "
            "pins the window length (1 = always rebuild)"
        ),
    )
    _add_profile_args(sim_parser)
    sim_parser.set_defaults(func=_cmd_simulate)

    timeline_parser = sub.add_parser(
        "timeline",
        help="run a diurnal + churn timeline workload on a region",
        description=(
            "Drive the simulator with sub-minute steps, per-county "
            "diurnal demand multipliers, and handover-churn "
            "reconnection outages; report unserved hours/day and "
            "outage minutes per cell. A flat profile with outages "
            "zeroed reproduces the static pipeline byte-identically "
            "(verified automatically, non-zero exit on mismatch)."
        ),
    )
    timeline_parser.add_argument("--lat-min", type=float, default=37.0)
    timeline_parser.add_argument("--lat-max", type=float, default=38.5)
    timeline_parser.add_argument("--lon-min", type=float, default=-83.5)
    timeline_parser.add_argument("--lon-max", type=float, default=-81.0)
    timeline_parser.add_argument(
        "--duration-h",
        type=float,
        default=24.0,
        help="simulated duration in hours (default: one day)",
    )
    timeline_parser.add_argument(
        "--step", type=float, default=30.0, help="step seconds (default: 30)"
    )
    timeline_parser.add_argument(
        "--diurnal",
        choices=("flat", "residential", "business"),
        default="residential",
        help="diurnal demand profile (flat reproduces the static model)",
    )
    timeline_parser.add_argument(
        "--oversubscription", type=float, default=20.0
    )
    timeline_parser.add_argument(
        "--strategy", choices=("greedy", "fair", "sticky"), default="greedy"
    )
    timeline_parser.add_argument(
        "--shells", choices=("gen1-53", "current"), default="gen1-53"
    )
    timeline_parser.add_argument(
        "--reconnect-outage",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="outage charged per post-gap reacquisition (default: 15)",
    )
    timeline_parser.add_argument(
        "--handover-outage",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="outage charged per planned handover (default: 1)",
    )
    timeline_parser.add_argument(
        "--visibility-window",
        type=_parse_visibility_window,
        default="auto",
        help=(
            "visibility caching: 'auto' sizes cached-candidate windows "
            "from the step; an integer pins the window length"
        ),
    )
    _add_profile_args(timeline_parser)
    timeline_parser.add_argument(
        "--out", default=None, help="timeline JSONL output path"
    )
    timeline_parser.set_defaults(func=_cmd_timeline)

    serve_parser = sub.add_parser(
        "serve",
        help="run the interactive query service over a serving index",
        description=(
            "Build the precomputed per-cell serving index and answer "
            "point/cell/county/tile queries over a JSON-lines TCP "
            "socket. See docs/SERVING.md for the query API."
        ),
    )
    serve_parser.add_argument(
        "--table",
        default=None,
        metavar="NPZ",
        help=(
            "memory-map an existing LocationTable NPZ instead of "
            "exploding the dataset (must match the dataset's cells)"
        ),
    )
    serve_parser.add_argument(
        "--quick",
        action="store_true",
        help="small scenario for CI smoke runs (regional cell subset)",
    )
    serve_parser.add_argument(
        "--explode-seed",
        type=int,
        default=0,
        help="seed for the location explode draws",
    )
    serve_parser.add_argument("--oversubscription", type=float, default=20.0)
    serve_parser.add_argument("--beamspread", type=float, default=1.0)
    serve_parser.add_argument(
        "--income-share",
        type=float,
        default=0.02,
        help="affordability income share (default: the A4AI 2%%)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=_port, default=7321, help="TCP port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--metrics-port",
        type=_port,
        default=None,
        metavar="PORT",
        help=(
            "serve Prometheus text on http://HOST:PORT/metrics beside "
            "the query service (0 picks a free port)"
        ),
    )
    serve_parser.set_defaults(func=_cmd_serve)

    report_parser = sub.add_parser(
        "report",
        help="render run telemetry: span trees, metrics, cache hit rates",
        description=(
            "Inspect the telemetry a run left behind. PATH may be one "
            "*.manifest.json, one *.jsonl event stream, or a directory "
            "holding either."
        ),
    )
    report_parser.add_argument(
        "path", help="manifest file, JSONL event stream, or directory"
    )
    report_parser.add_argument(
        "--top", type=int, default=10, help="slowest stages to list"
    )
    report_parser.set_defaults(func=_cmd_report)
    return parser


def _flush_telemetry(writer: "obs.TelemetryWriter") -> None:
    """Append the span forest and final metric snapshot to the stream."""
    for record in obs.tracer().as_dicts():
        writer.emit({"type": "span", **record})
    writer.emit({"type": "metrics", "metrics": obs.registry().snapshot()})


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    writer = obs.TelemetryWriter(args.log_json) if args.log_json else None
    obs.setup_logging(
        level="error" if args.quiet else args.log_level, writer=writer
    )
    obs.reset()
    try:
        try:
            code = args.func(args)
        except ReproError as exc:
            _log.error("%s failed: %s", args.command, exc)
            code = 2
        if writer is not None:
            _flush_telemetry(writer)
        return code
    finally:
        if writer is not None:
            writer.close()


if __name__ == "__main__":
    sys.exit(main())
