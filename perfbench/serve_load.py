"""national-serve: the benchmark's own open-loop client against ``serve``.

``repro-divide --grid-resolution 6 serve --port 0`` runs in a child
process started through ``launcher.py``. This process is its only
client: one thread, one asyncio loop, two connections.

* Phase A: 128-id ``point_id`` batches go out on connection A on a fixed
  schedule (``RATE_PER_S``, about a quarter of what one connection can
  carry), pipelined: the sender never waits for answers, a reader task
  matches them in FIFO order. Latency runs from each batch's due time,
  so a stall also charges the batches queued behind it; how late the
  sender itself ran is reported apart.
* Phase B: the same schedule while connection B sends a national
  ``tiles`` request followed by a ``set_params`` swap every
  ``SIDE_CADENCE_S``, alternating between two scenarios.

Passes alternate A, B, A, B after a discarded warm-up. The workload's
op (``op_s``) is a national ``tiles`` round trip under point load: the
fastest of the B passes' round trips. Point latency is reported, not
gated: every pass's p50/p90/p99/max of latency, round trip and generator
lateness go to the ``info`` line (traced runs also print the engine and
protocol split of a point batch). When there are two CPUs the server
and this client are pinned one to each.

The load seed fixes the id batches before the server starts. Every
response is checked: ``ok``, one epoch whose scenario id matches the
swap that created it, epochs never going backwards on a connection and
rising by one per swap, ids echoed in order, per-cell fields agreeing
with the batch pipeline's counts, and a sample of ``cell`` answers equal
to ``OversubscriptionAnalysis.outcome_arrays`` for the live scenario.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
import tracing

HOST = "127.0.0.1"
BATCH_IDS = 128
RATE_PER_S = 200.0
SIDE_CADENCE_S = 0.5
#: Batches per measured pass. A phase-B pass needs a p99 with ten
#: samples beyond it; a phase-A pass reports a median.
PASS_BATCHES = {"A": 400, "B": 1000}
PAIR_S = (PASS_BATCHES["A"] + PASS_BATCHES["B"]) / RATE_PER_S
WARMUP_BATCHES = 200
WARMUP_S = WARMUP_BATCHES / RATE_PER_S
#: Above the ~449 KB national tiles answer (asyncio's default is 64 KiB).
READ_LIMIT = 16 << 20
#: Scenarios phase B alternates between (the server starts at 20:1, s=1).
SCENARIOS = (
    {"oversubscription": 15.0, "beamspread": 2.0},
    {"oversubscription": 20.0, "beamspread": 1.0},
)
INITIAL_SCENARIO = {"oversubscription": 20.0, "beamspread": 1.0}
CELL_SAMPLE = 64
SETUP_SAMPLES = 2
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
#: Server and client on separate CPUs when there are at least two.
_CPUS = sorted(os.sched_getaffinity(0))
PIN_CPUS = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else None
_PORT_LINE = re.compile(rb"serving on [0-9.]+:(\d+)")
_FEATURE = b'"type": "Feature"'


class Reference:
    """The batch pipeline's answers for the same national map."""

    def __init__(self, map_seed: int):
        from repro.core.capacity import SatelliteCapacityModel
        from repro.core.oversubscription import OversubscriptionAnalysis
        from repro.demand import synthetic
        from repro.serve import ScenarioParams

        dataset = synthetic.generate_national_map(
            synthetic.SyntheticMapConfig.at_resolution(
                common.RESOLUTION, seed=map_seed
            )
        )
        columns = dataset.to_columns()
        self.total_locations = dataset.total_locations
        counts = (columns["unserved"] + columns["underserved"]).tolist()
        tokens = [f"{int(key):015x}" for key in columns["cell_key"].tolist()]
        self.counts_by_token = dict(zip(tokens, counts))
        self.tokens = tokens
        self.county = columns["county_id"].tolist()
        self.counts = counts
        analysis = OversubscriptionAnalysis(dataset, SatelliteCapacityModel())
        self.outcomes: Dict[str, Dict[str, list]] = {}
        self.caps: Dict[str, int] = {}
        for scenario in (INITIAL_SCENARIO, *SCENARIOS):
            scenario_id = ScenarioParams(**scenario).scenario_id
            arrays = analysis.outcome_arrays(
                scenario["oversubscription"], scenario["beamspread"]
            )
            self.outcomes[scenario_id] = {
                key: value.tolist() for key, value in arrays.items()
            }
            self.caps[scenario_id] = analysis.cell_location_cap(
                scenario["oversubscription"], scenario["beamspread"]
            )
        self.scenario_ids = [
            ScenarioParams(**scenario).scenario_id for scenario in SCENARIOS
        ]
        self.initial_scenario_id = ScenarioParams(**INITIAL_SCENARIO).scenario_id


class Server:
    """One ``serve`` child: spawn, wait for its port, peak RSS, stop."""

    def __init__(
        self, work_dir: Path, name: str, args, trace: bool, deadline: float
    ):
        self.log_path = work_dir / f"{name}.log"
        self.trace_path = work_dir / f"{name}.spans.jsonl" if trace else None
        command = [sys.executable, str(common.BENCH_DIR / "launcher.py")]
        if self.trace_path is not None:
            command += ["--trace-out", str(self.trace_path)]
        command += [
            "--grid-resolution", str(common.RESOLUTION),
            "--seed", str(args.map_seed),
            "serve", "--port", "0",
            "--explode-seed", str(args.explode_seed),
        ]
        self._log = open(self.log_path, "wb")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            env=common.child_env(),
            cwd=common.ROOT,
        )
        if PIN_CPUS:
            os.sched_setaffinity(self.process.pid, {PIN_CPUS[1]})
        self.deadline = min(self.spawned + READY_TIMEOUT_S, deadline)
        self.peak_rss_mb: Optional[float] = None

    def wait_port(self) -> int:
        deadline = self.deadline
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        tail = self.log_path.read_bytes()[-2000:].decode(errors="replace")
        raise common.BenchError(f"server never became ready:\n{tail}")

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> None:
        """Read peak RSS, then SIGINT (SIGKILL after a deadline) and reap."""
        try:
            if self.process.poll() is None:
                try:
                    self.peak_rss_mb = common.peak_rss_mb(self.process.pid)
                except (OSError, common.BenchError):
                    pass
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self._log.close()


class Connection:
    """One JSON-lines connection with a read limit above the tiles answer."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(HOST, port, limit=READ_LIMIT), timeout=10.0
        )
        return cls(reader, writer)

    async def call(self, payload: Dict) -> Tuple[bytes, float]:
        """One request/response round trip: (response line, seconds)."""
        started = time.monotonic()
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        if not line.endswith(b"\n"):
            raise common.BenchError("server closed the connection")
        return line, time.monotonic() - started

    async def close(self) -> None:
        self.writer.close()
        try:
            await asyncio.wait_for(self.writer.wait_closed(), timeout=5.0)
        except (ConnectionError, asyncio.TimeoutError):
            pass


async def _run_all(coroutines, timeout: float) -> None:
    """Run tasks together; the first error or the deadline ends them all."""
    tasks = [asyncio.ensure_future(coroutine) for coroutine in coroutines]
    done, pending = await asyncio.wait(
        tasks, timeout=timeout, return_when=asyncio.FIRST_EXCEPTION
    )
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    for task in done:
        if task.exception() is not None:
            raise task.exception()
    if pending:
        raise common.BenchError(f"phase missed its {timeout:.0f} s deadline")


class Client:
    """Open-loop point load plus the tiles/set_params side load."""

    def __init__(self, reference: Reference, load_seed: int, batches: int):
        import numpy as np

        rng = np.random.default_rng(load_seed)
        ids = rng.integers(0, reference.total_locations, size=(batches, BATCH_IDS))
        self.ids = ids.tolist()
        self.payloads = [
            json.dumps({"op": "point_id", "location_ids": row}).encode() + b"\n"
            for row in self.ids
        ]
        self.sample = rng.choice(
            [i for i, count in enumerate(reference.counts) if count > 0],
            size=CELL_SAMPLE,
            replace=False,
        ).tolist()
        self.reference = reference
        self.next_batch = 0
        self.epoch = 0
        self.scenario_by_epoch: Dict[int, str] = {}
        self.swaps = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.features: Optional[int] = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    async def start(self, b: Connection) -> None:
        """Initial epoch and scenario from ``stats``; the tiles feature count."""
        line, _ = await b.call({"op": "stats"})
        stats = json.loads(line)
        self.check(
            stats.get("ok") is True
            and stats["locations"] == self.reference.total_locations
            and stats["scenario_id"] == self.reference.initial_scenario_id,
            f"stats: {line[:200]!r}",
        )
        self.epoch = stats["epoch"]
        self.scenario_by_epoch[self.epoch] = stats["scenario_id"]
        line, _ = await b.call({"op": "tiles"})
        collection = json.loads(line)
        self.features = len(collection["collection"]["features"])
        self.check(
            collection.get("ok") is True and self.features > 0,
            "tiles: no features",
        )

    async def phase(
        self, a: Connection, b: Connection, count: int, mixed: bool
    ) -> Dict[str, list]:
        """One open-loop pass of ``count`` batches; its samples in seconds."""
        seconds = count / RATE_PER_S
        first = self.next_batch
        self.next_batch += count
        base = time.monotonic() + 0.02
        pending: deque = deque()
        received: List[tuple] = []
        tiles: List[Tuple[float, int]] = []

        async def sender() -> None:
            for offset in range(count):
                due = base + offset / RATE_PER_S
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                pending.append((due, time.monotonic(), first + offset))
                a.writer.write(self.payloads[(first + offset) % len(self.payloads)])
                await a.writer.drain()

        async def reader() -> None:
            for _ in range(count):
                line = await a.reader.readline()
                arrived = time.monotonic()
                if not line.endswith(b"\n"):
                    raise common.BenchError("server closed connection A")
                due, sent, batch = pending.popleft()
                received.append((due, sent, arrived, batch, line))

        async def side() -> None:
            tick = base
            while mixed and tick < base + seconds:
                delay = tick - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                tick += SIDE_CADENCE_S
                line, elapsed = await b.call({"op": "tiles"})
                tiles.append((elapsed, len(line)))
                match = re.match(rb'\{"ok": true, "epoch": (\d+), ', line)
                self.check(
                    match is not None
                    and int(match.group(1)) == self.epoch
                    and line.count(_FEATURE) == self.features,
                    f"tiles at epoch {self.epoch}: {line[:80]!r}",
                )
                scenario = SCENARIOS[self.swaps % len(SCENARIOS)]
                line, _ = await b.call({"op": "set_params", **scenario})
                answer = json.loads(line)
                expected_id = self.reference.scenario_ids[self.swaps % len(SCENARIOS)]
                self.check(
                    answer.get("ok") is True
                    and answer["epoch"] == self.epoch + 1
                    and answer["scenario_id"] == expected_id,
                    f"set_params after epoch {self.epoch}: {line[:200]!r}",
                )
                self.swaps += 1
                self.epoch = answer.get("epoch", self.epoch + 1)
                self.scenario_by_epoch[self.epoch] = answer.get("scenario_id")

        # No collector pauses in this process while the phase is timed.
        gc.collect()
        gc.disable()
        try:
            await _run_all([sender(), reader(), side()], timeout=seconds + 30.0)
        finally:
            gc.enable()
        self._check_points(received)
        return {
            "latency": [arrived - due for due, _, arrived, _, _ in received],
            "round_trip": [arrived - sent for _, sent, arrived, _, _ in received],
            "late": [sent - due for due, sent, _, _, _ in received],
            "tiles_s": [elapsed for elapsed, _ in tiles],
            "tiles_bytes": [size for _, size in tiles],
        }

    def _check_points(self, received: List[tuple]) -> None:
        reference = self.reference
        last_epoch = -1
        for _, _, _, batch, line in received:
            answer = json.loads(line)
            ids = self.ids[batch % len(self.ids)]
            epoch = answer.get("epoch", -1)
            scenario_id = answer.get("scenario_id")
            ok = (
                answer.get("ok") is True
                and epoch >= last_epoch
                and self.scenario_by_epoch.get(epoch) == scenario_id
                and answer["location_id"] == ids
                and answer["per_cell_cap"] == reference.caps.get(scenario_id)
            )
            if ok:
                cap = answer["per_cell_cap"]
                counts = reference.counts_by_token
                ok = all(
                    served == (rank < cap) and counts.get(cell) == located
                    for served, rank, cell, located in zip(
                        answer["served"],
                        answer["rank_in_cell"],
                        answer["cell"],
                        answer["cell_locations"],
                        strict=True,
                    )
                )
            last_epoch = max(last_epoch, epoch)
            self.check(ok, f"point_id batch {batch}: {line[:160]!r}")

    async def check_cells(self, b: Connection) -> None:
        """Sampled ``cell`` answers against the batch outcome arrays."""
        reference = self.reference
        scenario_id = self.scenario_by_epoch[self.epoch]
        outcome = reference.outcomes[scenario_id]
        for index in self.sample:
            token = reference.tokens[index]
            line, _ = await b.call({"op": "cell", "token": token})
            answer = json.loads(line)
            self.check(
                answer.get("ok") is True
                and answer["epoch"] == self.epoch
                and answer["scenario_id"] == scenario_id
                and answer["in_dataset"] is True
                and answer["county_id"] == reference.county[index]
                and answer["locations"] == outcome["counts"][index]
                and answer["served_locations"] == outcome["served_locations"][index]
                and answer["per_cell_cap"] == outcome["per_cell_cap"][index]
                and answer["fully_served"] == outcome["fully_served"][index]
                and answer["required_oversubscription"]
                == outcome["required_oversubscription"][index],
                f"cell {token}: {line[:200]!r}",
            )


def _summary_ms(values: List[float]) -> Dict[str, float]:
    """Sample count plus min/p50/p90/p99/max of a latency list, in ms."""
    return {
        "n": len(values),
        "min": round(1e3 * min(values), 4),
        **{
            f"p{q}": round(1e3 * common.percentile(values, q), 4)
            for q in (50, 90, 99)
        },
        "max": round(1e3 * max(values), 4),
    }


def _measure_setup(server: Server) -> Tuple[float, int]:
    """(spawn-to-first-``ping`` seconds, port) of a server."""
    port = server.wait_port()

    async def ping() -> float:
        connection = await Connection.open(port)
        try:
            line, _ = await asyncio.wait_for(connection.call({"op": "ping"}), 30.0)
            if not json.loads(line).get("ok"):
                raise common.BenchError(f"ping failed: {line[:200]!r}")
            return time.monotonic() - server.spawned
        finally:
            await connection.close()

    return asyncio.run(ping()), port


async def _drive(
    client: Client, port: int, kinds: List[str], server: Server
) -> List[Tuple[str, Dict[str, list]]]:
    """Warm-up, then one pass per entry of ``kinds``: (kind, samples) each.

    ``A`` is a phase-A pass and ``B`` a phase-B pass; a trailing ``*``
    marks a pass the server traces (the first one switches spans on).
    """
    a = await Connection.open(port)
    b = await Connection.open(port)
    passes: List[Tuple[str, Dict[str, list]]] = []
    traced = False
    try:
        await asyncio.wait_for(client.start(b), 60.0)
        await client.phase(a, b, WARMUP_BATCHES, mixed=True)
        for kind in kinds:
            if kind.endswith("*") and not traced:
                server.signal(signal.SIGUSR2)
                await asyncio.wait_for(b.call({"op": "ping"}), 30.0)
                traced = True
            samples = await client.phase(
                a, b, PASS_BATCHES[kind[0]], mixed=kind[0] == "B"
            )
            passes.append((kind, samples))
        await asyncio.wait_for(client.check_cells(b), 60.0)
    finally:
        await a.close()
        await b.close()
    return passes


def _best(passes, kind: str, key: str, q: float) -> float:
    """Best (lowest) per-pass percentile of one sample list, in ms."""
    return 1e3 * min(
        common.percentile(samples[key], q)
        for name, samples in passes
        if name == kind
    )


def _pooled(passes, kind: str, key: str) -> List[float]:
    return [
        value for name, samples in passes if name == kind for value in samples[key]
    ]


def _best_tiles_s(passes, kind: str) -> float:
    """The op: the fastest ``tiles`` round trip of the ``kind`` passes.

    The best of ~20 round trips of ~0.1 s, because this machine's
    contended spells last a fraction of a second and pass medians
    swing with them; the medians go to the ``info`` line.
    """
    return min(_pooled(passes, kind, "tiles_s"))


def run(args, work_dir: Path, deadline: float) -> Dict[str, object]:
    """The national-serve workload; returns the same shape as a batch run."""
    if args.trace:
        kinds = ["A", "B", "A*", "B*"]
    else:
        # Alternate A and B passes, at least two of each, so every
        # metric is a best of two passes.
        pairs = max(2, round((args.seconds - WARMUP_S) / PAIR_S))
        kinds = ["A", "B"] * pairs
    if PIN_CPUS:
        os.sched_setaffinity(0, {PIN_CPUS[0]})
    setup: List[float] = []
    server = Server(work_dir, "server-0", args, args.trace, deadline)
    try:
        # The reference map is built on the other CPU while the server
        # starts; the set-up samples of the later servers run alone.
        reference = Reference(args.map_seed)
        batches = WARMUP_BATCHES + sum(PASS_BATCHES[kind[0]] for kind in kinds)
        client = Client(reference, args.seed, batches)
        gc.freeze()
        elapsed, port = _measure_setup(server)
        setup.append(elapsed)
        if args.trace:
            server.signal(signal.SIGUSR1)  # passes start untraced
        passes = asyncio.run(_drive(client, port, kinds, server))
    finally:
        server.stop()
    client.check(server.process.returncode == 0, "server exit status")
    if not args.trace:
        for index in range(1, SETUP_SAMPLES):
            extra = Server(work_dir, f"server-{index}", args, False, deadline)
            try:
                setup.append(_measure_setup(extra)[0])
            finally:
                extra.stop()

    result: Dict[str, object] = {
        "attempted": client.attempted,
        "failed": client.failed,
        "errors": client.errors,
        "setup_samples": setup,
        "swaps": client.swaps,
        "passes_ms": [
            {
                "kind": kind,
                **{
                    key: _summary_ms(samples[key])
                    for key in ("latency", "round_trip", "late", "tiles_s")
                    if samples[key]
                },
            }
            for kind, samples in passes
        ],
    }
    if server.peak_rss_mb is None:
        raise common.BenchError("server ended before its peak RSS was read")
    if not args.trace:
        result["values"] = {
            "setup_s": common.median(setup),
            "peak_rss_mb": server.peak_rss_mb,
            "op_s": _best_tiles_s(passes, "B"),
        }
        return result

    spans = tracing.read_spans(server.trace_path)
    boot = tracing.LayerTimes(spans, "setup")
    live = tracing.LayerTimes(spans, "traced")
    traced_op_s = _best_tiles_s(passes, "B*")
    untraced_op_s = _best_tiles_s(passes, "B")
    # The fastest engine call over the fastest round trip, so the share
    # is never above one.
    engine_tiles_s = min(live.durations["engine_tiles"])
    engine_point_s = common.median(live.durations["engine_point"])
    round_trip_s = common.median(_pooled(passes, "A*", "round_trip"))
    traced_p50 = _best(passes, "A*", "latency", 50)
    untraced_p50 = _best(passes, "A", "latency", 50)
    late = [value for _, samples in passes for value in samples["late"]]
    result["point_ms"] = {
        "engine_point_ms": 1e3 * engine_point_s,
        "protocol_point_ms": 1e3 * (round_trip_s - engine_point_s),
        "update_params_ms": 1e3 * common.median(live.durations["update_params"]),
        "generator_late_p99_ms": 1e3 * common.percentile(late, 99),
        "mixed_point_p99_ms": _best(passes, "B*", "latency", 99),
        "traced_point_p50_ms": traced_p50,
        "untraced_point_p50_ms": untraced_p50,
        "tracing_overhead_point_p50_ms": traced_p50 - untraced_p50,
    }
    result["layer_self_s"] = {"engine_tiles": engine_tiles_s}
    result["values"] = {
        **tracing.setup_layers(boot, setup[0]),
        "traced_op_s": traced_op_s,
        "untraced_op_s": untraced_op_s,
        "tracing_overhead_s": traced_op_s - untraced_op_s,
        **tracing.op_shares({"engine_tiles": engine_tiles_s}, traced_op_s),
        "visibility_pairs_per_step": 0,
        "visibility_candidates_per_step": 0,
        "visibility_refine_ratio": 0,
        "visibility_window_rebuilds": 0,
        "beams_granted_per_step": 0,
        "cells_covered_per_step": 0,
        "handovers": 0,
        "reconnections": 0,
        "tiles_bytes": common.median(_pooled(passes, "B*", "tiles_bytes")),
    }
    return result
