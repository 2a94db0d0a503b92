"""JSON-lines TCP front end for the query engine (stdlib asyncio only).

One request per line, one response per line. Requests are JSON objects
with an ``op`` field; responses echo ``ok`` plus the engine's answer (and
the answer's ``epoch``/``scenario_id``, so clients can detect snapshot
swaps). Errors come back as ``{"ok": false, "error": ...}`` — a bad
request never kills the connection. Server and client read lines of up
to :data:`MAX_LINE_BYTES`; a longer request line is discarded and
answered with an error. Ids and resolutions must be JSON integers and
coordinates and scenario parameters finite JSON numbers: anything else
(a float id, a bool, a string, NaN) is refused, never coerced.

Ops:

``ping``                  liveness check
``stats``                 service-level summary
``point_id``              ``{"location_ids": [...]}`` — batch point query
``point_latlon``          ``{"lat": .., "lon": ..}``
``cell``                  ``{"token": "..."}``
``county``                ``{"county_id": ..}``
``tiles``                 ``{"resolution": ..}`` (optional, in [0, grid))
``set_params``            scenario change; responds after the epoch swap
``metrics``               cumulative + rolling metrics snapshots

Every request is timed into ``serve.request.latency_s``, from its
line as read to its encoded response line — both the cumulative
histogram and a rolling window, so the ``metrics`` op (and the
``--metrics-port`` Prometheus endpoint) expose a last-minute p99
alongside the since-start totals. The ``tiles`` answer arrives from the
engine already encoded and is spliced into the response line.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from typing import Dict, List, Optional, Union

from repro import obs
from repro.errors import ReproError, ServeError
from repro.serve.engine import QueryEngine
from repro.serve.scenario import ScenarioParams
from repro.serve.tiles import DEFAULT_TILE_RESOLUTION

#: Longest request or response line either side reads, in bytes. The
#: national ``tiles`` answer is ~450 KB; asyncio's default is 64 KiB.
MAX_LINE_BYTES = 16 * 1024 * 1024


class ServeServer:
    """An asyncio TCP server wrapping one :class:`QueryEngine`."""

    def __init__(
        self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 0
    ):
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        registry = obs.registry()
        self._request_latency = registry.histogram("serve.request.latency_s")
        self._rolling_latency = registry.rolling("serve.request.latency_s")

    async def start(self) -> "ServeServer":
        """Bind and start accepting connections (port 0 picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.get_logger("serve").info(
            "serving on %s:%d epoch=%d",
            self.host,
            self.port,
            self.engine.epoch,
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs.registry().counter("serve.connections").inc()
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                started = time.perf_counter()
                response = await self._dispatch_line(line)
                elapsed = time.perf_counter() - started
                self._request_latency.observe(elapsed)
                self._rolling_latency.observe(elapsed)
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # No wait_closed here: the handler task may be cancelled by
            # stop() mid-await, which asyncio.streams reports noisily.
            writer.close()

    async def _dispatch_line(self, line: Optional[bytes]) -> bytes:
        """The encoded response line to one request line."""
        try:
            if line is None:
                raise ServeError(
                    f"request line exceeds {MAX_LINE_BYTES} bytes"
                )
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServeError("request must be a JSON object")
            answer = await self._dispatch(request)
        except ReproError as exc:
            obs.registry().counter("serve.errors").inc()
            response = {"ok": False, "error": str(exc)}
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            obs.registry().counter("serve.errors").inc()
            response = {"ok": False, "error": f"bad request: {exc}"}
        else:
            if isinstance(answer, str):
                # A JSON object already encoded: open it after "ok".
                return ('{"ok": true, ' + answer[1:] + "\n").encode()
            response = {"ok": True, **answer}
        return (json.dumps(response) + "\n").encode()

    async def _dispatch(self, request: Dict) -> Union[Dict, str]:
        """The answer to one request: a dict, or its JSON object text."""
        op = request.get("op")
        engine = self.engine
        if op == "ping":
            return {"pong": True, "epoch": engine.epoch}
        if op == "stats":
            return engine.stats()
        if op == "point_id":
            location_ids = request["location_ids"]
            if not isinstance(location_ids, list) or not all(
                type(location_id) is int for location_id in location_ids
            ):
                raise ValueError("location_ids must be a list of integers")
            return engine.point_by_id(location_ids)
        if op == "point_latlon":
            return engine.point_by_latlon(
                _number(request["lat"], "lat"), _number(request["lon"], "lon")
            )
        if op == "cell":
            return engine.cell_answer(str(request["token"]))
        if op == "county":
            return engine.county_answer(
                _integer(request["county_id"], "county_id")
            )
        if op == "tiles":
            return engine.tiles_geojson(
                _integer(
                    request.get("resolution", DEFAULT_TILE_RESOLUTION),
                    "resolution",
                )
            )
        if op == "metrics":
            registry = obs.registry()
            return {
                "epoch": engine.epoch,
                "metrics": registry.snapshot(),
                "rolling": registry.rolling_snapshot(),
            }
        if op == "set_params":
            current = engine.index.params
            params = ScenarioParams(
                **{
                    field: _number(
                        request.get(field, getattr(current, field)), field
                    )
                    for field in (
                        "oversubscription",
                        "beamspread",
                        "income_share",
                    )
                }
            )
            return await engine.update_params(params)
        raise ServeError(f"unknown op: {op!r}")


def _integer(value, field: str) -> int:
    """``value`` if it is a JSON integer; floats and bools are refused."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer: {value!r}")
    return value


def _number(value, field: str) -> float:
    """``value`` as a float if it is a finite JSON number, not a bool."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{field} must be a finite number: {value!r}")
    return float(value)


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line (``b""`` at EOF), or None if it was too long.

    A line over :data:`MAX_LINE_BYTES` is read through its newline and
    dropped, so the next request on the connection starts clean.
    """
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # EOF, maybe after an unterminated line
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        return None if oversized else line


class ServeClient:
    """Minimal asyncio JSON-lines client (tests and the load generator)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def request(self, payload: Dict) -> Dict:
        """One round trip; raises :class:`ServeError` on ``ok: false``."""
        if self._reader is None or self._writer is None:
            raise ServeError("client is not connected")
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServeError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServeError(response.get("error", "unknown server error"))
        return response

    async def point_by_id(self, location_ids: List[int]) -> Dict:
        return await self.request(
            {"op": "point_id", "location_ids": list(location_ids)}
        )
