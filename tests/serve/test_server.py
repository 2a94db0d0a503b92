"""JSON-lines protocol round trips and error handling for ServeServer."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.errors import ServeError
from repro.serve import QueryEngine, ScenarioParams, ServeClient, ServeServer
from repro.serve.server import MAX_LINE_BYTES


def _roundtrip(engine, interact):
    """Start a server on an ephemeral port, run ``interact(client)``."""

    async def scenario():
        server = await ServeServer(engine).start()
        try:
            async with ServeClient("127.0.0.1", server.port) as client:
                return await interact(client)
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestOps:
    def test_ping_and_stats(self, toy_engine):
        async def interact(client):
            pong = await client.request({"op": "ping"})
            stats = await client.request({"op": "stats"})
            return pong, stats

        pong, stats = _roundtrip(toy_engine, interact)
        assert pong == {"ok": True, "pong": True, "epoch": 0}
        local = toy_engine.stats()
        assert stats == {"ok": True, **local}
        assert stats["locations"] == len(toy_engine.index)
        assert stats["shards"] == len(toy_engine.index.store.shards)

    def test_point_ops_match_engine(self, toy_engine, toy_serve_table):
        ids = [int(i) for i in toy_serve_table.location_id[:5]]
        lat = float(toy_serve_table.lat_deg[0])
        lon = float(toy_serve_table.lon_deg[0])

        async def interact(client):
            batch = await client.point_by_id(ids)
            latlon = await client.request(
                {"op": "point_latlon", "lat": lat, "lon": lon}
            )
            return batch, latlon

        batch, latlon = _roundtrip(toy_engine, interact)
        assert batch == {"ok": True, **toy_engine.point_by_id(ids)}
        assert latlon == {
            "ok": True,
            **toy_engine.point_by_latlon(lat, lon),
        }
        assert latlon["in_dataset"] is True

    def test_cell_county_tiles(self, toy_engine, toy_serve_dataset):
        token = toy_serve_dataset.cells[0].cell.token
        county_id = next(iter(toy_serve_dataset.counties))

        async def interact(client):
            cell = await client.request({"op": "cell", "token": token})
            county = await client.request(
                {"op": "county", "county_id": county_id}
            )
            tiles = await client.request({"op": "tiles"})
            return cell, county, tiles

        cell, county, tiles = _roundtrip(toy_engine, interact)
        assert cell == {"ok": True, **toy_engine.cell_answer(token)}
        assert county == {"ok": True, **toy_engine.county_answer(county_id)}
        assert tiles == {"ok": True, **json.loads(toy_engine.tiles_geojson())}
        assert list(tiles) == ["ok", "epoch", "scenario_id", "collection"]
        assert tiles["epoch"] == 0
        assert tiles["scenario_id"] == toy_engine.index.scenario_id

    def test_tiles_line_is_what_json_dumps_writes(self, toy_engine):
        # The pre-encoded answer is spliced after "ok", not re-encoded:
        # the bytes on the wire are still json.dumps of the answer.
        async def interact(client):
            lines = []
            for request in (
                {"op": "tiles"},
                {"op": "set_params", "oversubscription": 15.0},
                {"op": "tiles", "resolution": 1},
            ):
                client._writer.write(json.dumps(request).encode() + b"\n")
                await client._writer.drain()
                lines.append(await client._reader.readline())
            return lines[0], lines[2]

        for line in _roundtrip(toy_engine, interact):
            assert line.startswith(b'{"ok": true, "epoch": ')
            assert line == json.dumps(json.loads(line)).encode() + b"\n"
            assert json.loads(line)["collection"]["features"]

    def test_tiles_echo_the_snapshot_that_built_them(self, toy_engine):
        async def interact(client):
            await client.request({"op": "tiles"})
            swap = await client.request(
                {
                    "op": "set_params",
                    "oversubscription": 15.0,
                    "beamspread": 2.0,
                }
            )
            tiles = await client.request({"op": "tiles", "resolution": 2})
            return swap, tiles

        swap, tiles = _roundtrip(toy_engine, interact)
        assert (tiles["epoch"], tiles["scenario_id"]) == (
            swap["epoch"],
            swap["scenario_id"],
        )
        for feature in tiles["collection"]["features"]:
            properties = feature["properties"]
            assert properties["epoch"] == tiles["epoch"]
            assert properties["scenario_id"] == tiles["scenario_id"]
        # One layout per resolution asked for, shared by both epochs.
        assert sorted(toy_engine.index.store.tile_layouts) == [2, 3]

    def test_set_params_defaults_missing_fields(self, toy_engine):
        before = toy_engine.index.params

        async def interact(client):
            return await client.request(
                {"op": "set_params", "oversubscription": 5.0}
            )

        swap = _roundtrip(toy_engine, interact)
        after = toy_engine.index.params
        assert swap["epoch"] == 1
        assert swap["scenario_id"] == after.scenario_id
        assert after.oversubscription == 5.0
        assert after.beamspread == before.beamspread
        assert after.income_share == before.income_share

    def test_metrics_op_reports_cumulative_and_rolling(self, toy_engine):
        async def interact(client):
            await client.point_by_id(
                [int(toy_engine.index.store.location_id[0])]
            )
            return await client.request({"op": "metrics"})

        answer = _roundtrip(toy_engine, interact)
        assert answer["epoch"] == 0
        counters = answer["metrics"]["counters"]
        assert counters["serve.queries"] >= 1
        # The point_id request itself was timed before `metrics` ran.
        latency = answer["metrics"]["histograms"]["serve.request.latency_s"]
        assert latency["count"] >= 1
        rolling = answer["rolling"]["serve.request.latency_s"]
        assert rolling["count"] >= 1
        assert rolling["window_s"] == 60.0
        assert rolling["p99"] is not None

    def test_port_zero_picks_ephemeral_port(self, toy_engine):
        async def scenario():
            server = ServeServer(toy_engine)
            assert server.port == 0
            await server.start()
            port = server.port
            await server.stop()
            return port

        assert asyncio.run(scenario()) > 0


class TestErrors:
    def test_errors_keep_the_connection_usable(self, toy_engine):
        async def interact(client):
            failures = []
            for request in (
                {"op": "no_such_op"},
                {"op": "point_id", "location_ids": [10**12]},
                {"op": "point_latlon", "lat": "not-a-number", "lon": 0},
                {"op": "county"},
                {"op": "set_params", "oversubscription": -1.0},
            ):
                with pytest.raises(ServeError) as excinfo:
                    await client.request(request)
                failures.append(str(excinfo.value))
            pong = await client.request({"op": "ping"})
            return failures, pong

        failures, pong = _roundtrip(toy_engine, interact)
        assert pong["pong"] is True
        assert "unknown op" in failures[0]
        assert "unknown location id" in failures[1]
        assert "bad request" in failures[2]
        assert "bad request" in failures[3]
        assert "oversubscription" in failures[4]
        # Failed set_params must not have touched the snapshot.
        assert toy_engine.epoch == 0

    def test_numbers_that_are_not_integers_are_refused(self, toy_engine):
        # int() would truncate each float to another id or resolution,
        # and an integer past int64 raises OverflowError in NumPy.
        huge = 2**70
        lines = [
            b'{"op": "point_id", "location_ids": [1e400]}',
            b'{"op": "point_id", "location_ids": [%d]}' % huge,
            b'{"op": "point_id", "location_ids": [2.5]}',
            b'{"op": "point_id", "location_ids": [1, true]}',
            b'{"op": "point_id", "location_ids": 7}',
            b'{"op": "tiles", "resolution": 1e400}',
            b'{"op": "tiles", "resolution": %d}' % huge,
            b'{"op": "tiles", "resolution": 2.9}',
            b'{"op": "tiles", "resolution": true}',
            b'{"op": "tiles", "resolution": 5}',
            b'{"op": "tiles", "resolution": -1}',
            b'{"op": "county", "county_id": 1e400}',
            b'{"op": "county", "county_id": 2.0}',
            b'{"op": "county", "county_id": false}',
        ]
        errors = obs.registry().counter("serve.errors")

        async def interact(client):
            await client.request({"op": "tiles", "resolution": 0})
            await client.request({"op": "tiles"})
            answers = []
            for line in lines:
                client._writer.write(line + b"\n")
                await client._writer.drain()
                answers.append(json.loads(await client._reader.readline()))
            counted = errors.value
            county = await client.request({"op": "county", "county_id": huge})
            pong = await client.request({"op": "ping"})
            return answers, counted, county, pong

        before = errors.value
        answers, counted, county, pong = _roundtrip(toy_engine, interact)
        for line, answer in zip(lines, answers):
            assert answer["ok"] is False, line
        assert counted == before + len(lines)
        assert county["in_dataset"] is False
        assert pong["pong"] is True
        # Only the valid resolutions built a layout.
        assert sorted(toy_engine.index.store.tile_layouts) == [0, 3]

    def test_non_finite_scenario_is_refused(self, toy_engine):
        # json.loads reads these literals as NaN and +-inf.
        lines = [
            b'{"op": "set_params", "income_share": NaN}',
            b'{"op": "set_params", "beamspread": Infinity}',
            b'{"op": "set_params", "oversubscription": -Infinity}',
            b'{"op": "set_params", "oversubscription": 1e400}',
        ]
        errors = obs.registry().counter("serve.errors")

        async def interact(client):
            answers = []
            for line in lines:
                client._writer.write(line + b"\n")
                await client._writer.drain()
                answers.append(json.loads(await client._reader.readline()))
            counted = errors.value
            pong = await client.request({"op": "ping"})
            return answers, counted, pong

        before = errors.value
        answers, counted, pong = _roundtrip(toy_engine, interact)
        for answer in answers:
            assert answer["ok"] is False
            assert "finite" in answer["error"]
        assert counted == before + len(lines)
        assert pong == {"ok": True, "pong": True, "epoch": 0}
        assert toy_engine.index.params == ScenarioParams()

    def test_numbers_must_be_numbers(self, toy_engine):
        # float() would turn each of these into a number.
        lines = [
            b'{"op": "set_params", "beamspread": true}',
            b'{"op": "set_params", "oversubscription": "15"}',
            b'{"op": "set_params", "income_share": "nan"}',
            b'{"op": "point_latlon", "lat": NaN, "lon": -90.0}',
            b'{"op": "point_latlon", "lat": 37.0, "lon": Infinity}',
            b'{"op": "point_latlon", "lat": 37.0, "lon": false}',
            b'{"op": "point_latlon", "lat": 37.0, "lon": 1e999}',
        ]
        errors = obs.registry().counter("serve.errors")

        async def interact(client):
            answers = []
            for line in lines:
                client._writer.write(line + b"\n")
                await client._writer.drain()
                answers.append(json.loads(await client._reader.readline()))
            counted = errors.value
            point = await client.request(
                {"op": "point_latlon", "lat": 37, "lon": -90}
            )
            return answers, counted, point

        before = errors.value
        answers, counted, point = _roundtrip(toy_engine, interact)
        for line, answer in zip(lines, answers):
            assert answer["ok"] is False, line
            assert answer["error"].startswith("bad request"), answer
        assert counted == before + len(lines)
        assert toy_engine.epoch == 0
        # Integers are numbers: lat 37, lon -90 is a valid point.
        assert point["ok"] is True

    def test_malformed_json_line(self, toy_engine):
        async def interact(client):
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            error = json.loads(await client._reader.readline())
            pong = await client.request({"op": "ping"})
            return error, pong

        error, pong = _roundtrip(toy_engine, interact)
        assert error["ok"] is False
        assert "bad request" in error["error"]
        assert pong["pong"] is True

    def test_non_object_request(self, toy_engine):
        async def interact(client):
            client._writer.write(b"[1, 2, 3]\n")
            await client._writer.drain()
            return json.loads(await client._reader.readline())

        error = _roundtrip(toy_engine, interact)
        assert error == {
            "ok": False,
            "error": "request must be a JSON object",
        }

    def test_oversized_line_keeps_the_connection(self, toy_engine):
        # A point_id batch on a line longer than the limit: the server
        # drops it, answers with an error, and serves the next request.
        line = (
            b'{"op": "point_id", "location_ids": ['
            + b"1, " * (MAX_LINE_BYTES // 3)
            + b"1]}\n"
        )
        assert len(line) > MAX_LINE_BYTES
        errors = obs.registry().counter("serve.errors")

        async def interact(client):
            client._writer.write(line)
            await client._writer.drain()
            error = json.loads(await client._reader.readline())
            counted = errors.value
            pong = await client.request({"op": "ping"})
            return error, counted, pong

        before = errors.value
        error, counted, pong = _roundtrip(toy_engine, interact)
        assert error == {
            "ok": False,
            "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
        }
        assert counted == before + 1
        assert pong["pong"] is True

    def test_lines_past_asyncio_default_limit(self, toy_engine):
        # Every location in one batch: a ~100 KB request and a
        # response of several hundred KB, both over asyncio's 64 KiB.
        ids = [int(i) for i in toy_engine.index.store.location_id]

        async def interact(client):
            return await client.point_by_id(ids)

        answer = _roundtrip(toy_engine, interact)
        assert len(json.dumps(ids)) > 64 * 1024
        assert len(json.dumps(answer)) > 64 * 1024
        assert answer == {"ok": True, **toy_engine.point_by_id(ids)}

    def test_client_request_after_close(self, toy_engine):
        async def interact(client):
            await client.close()
            with pytest.raises(ServeError, match="not connected"):
                await client.request({"op": "ping"})

        _roundtrip(toy_engine, interact)
