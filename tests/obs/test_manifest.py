"""Tests for RunManifest: schema, round-trip, and collection."""

import json

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    collect_manifest,
    git_sha,
    manifest_path_for,
)


class TestManifestPath:
    def test_manifest_lives_next_to_the_output(self, tmp_path):
        out = tmp_path / "results" / "sweep.csv"
        assert manifest_path_for(out) == tmp_path / "results" / "sweep.manifest.json"

    def test_json_output_keeps_stem(self):
        assert manifest_path_for("BENCH_simulation.json").name == (
            "BENCH_simulation.manifest.json"
        )


class TestRoundTrip:
    def test_write_load_round_trip(self, tmp_path):
        manifest = RunManifest(
            command="sweep",
            argv=["sweep", "served", "--grid", "beamspread=1"],
            created_unix=123.0,
            commit="abc123",
            params_hash="deadbeef",
            dataset_fingerprint="fp",
            spans=[{"index": 0, "name": "runner.sweep", "parent": None,
                    "start_s": 0.0, "wall_s": 1.0, "cpu_s": 0.9}],
            metrics={"counters": {"sim.steps": 5}},
            events_path="telemetry.jsonl",
            extra={"tasks": 12},
        )
        path = manifest.write(tmp_path / "sweep.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded == manifest
        assert json.loads(path.read_text())["schema"] == MANIFEST_SCHEMA

    def test_load_ignores_keys_of_older_manifests(self, tmp_path):
        """A manifest written while runs still recorded an ``engine``
        loads; the key is dropped."""
        payload = RunManifest(command="timeline", commit="abc123").as_dict()
        payload["engine"] = "fast"
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(payload))
        loaded = RunManifest.load(path)
        assert loaded == RunManifest(command="timeline", commit="abc123")
        assert "engine" not in loaded.as_dict()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.manifest.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ReproError):
            RunManifest.load(path)

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(ReproError):
            RunManifest.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            RunManifest.load(bad)


class TestCollect:
    def test_collect_captures_global_spans_and_metrics(self):
        with obs.span("sim.run", cells=3):
            obs.registry().counter("sim.steps").inc(3)
        manifest = collect_manifest(command="simulate", argv=["simulate"])
        assert manifest.command == "simulate"
        assert [s["name"] for s in manifest.spans] == ["sim.run"]
        assert manifest.metrics["counters"]["sim.steps"] == 3
        assert manifest.created_unix > 0
        assert manifest.commit  # "unknown" outside a checkout, never empty

    def test_git_sha_returns_nonempty_string(self):
        sha = git_sha()
        assert isinstance(sha, str) and sha
