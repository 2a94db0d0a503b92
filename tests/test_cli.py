"""Tests for the command-line interface.

CLI tests run against a small synthetic map via --seed to keep them fast;
the default national map takes a couple of seconds to generate per process.
"""

import pytest

from repro.cli import build_parser, main


def _exit_code(argv) -> int:
    """``main``'s return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "tab2" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestBadValues:
    """Bad values exit 2 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--step", "0"], "simulate failed: step"),
            (["simulate", "--duration", "inf"], "simulate failed: duration"),
            (["timeline", "--duration-h", "nan"], "timeline failed: duration"),
            (
                ["simulate", "--visibility-window", "0"],
                "simulate failed: visibility window",
            ),
            (["serve", "--port", "70000"], "argument --port: must be in"),
            (
                ["serve", "--metrics-port", "-5"],
                "argument --metrics-port: must be in",
            ),
            (
                [
                    "sweep", "served", "--grid", "beamspread=1",
                    "--metrics-port", "70000",
                ],
                "argument --metrics-port: must be in",
            ),
        ],
    )
    def test_exits_2_with_one_error_line(self, argv, message, capsys):
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [
            line
            for line in err.splitlines()
            if " failed: " in line or ": error: " in line
        ]
        assert len(errors) == 1, err
        assert message in errors[0]


class TestRun:
    def test_run_tab1_prints_table(self, capsys):
        assert main(["run", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "3850 MHz" in out
        assert "~35:1" in out

    def test_run_with_csv_export(self, tmp_path, capsys):
        assert main(["run", "tab2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "tab2.csv").exists()
        # Diagnostics go through the logging bridge on stderr now;
        # stdout stays reserved for the experiment renderings.
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        assert "wrote" not in captured.out

    def test_unknown_experiment_raises(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "run failed: unknown experiment 'nope'" in capsys.readouterr().err


class TestRunParallel:
    def test_parallel_matches_serial_output(self, capsys):
        assert main(["run", "tab2", "fig1"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "tab2", "fig1", "--parallel", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_parallel_rejects_nonpositive_worker_count(self, capsys):
        assert main(["run", "tab2", "--parallel", "0"]) == 2
        assert "--parallel" in capsys.readouterr().err

    def test_parallel_unknown_experiment_fails_before_fanout(self, capsys):
        assert main(["run", "tab2", "nope", "--parallel", "2"]) == 2
        captured = capsys.readouterr()
        assert "run failed: unknown experiment 'nope'" in captured.err
        assert "===" not in captured.out


GRID_12 = "beamspread=1,2,5;oversubscription=10,15,20,25"


class TestSweep:
    def test_serial_parallel_and_cache_warm_are_byte_identical(
        self, tmp_path, capsys
    ):
        """The acceptance criterion: a 12-point grid, three ways."""
        out = {}
        for name, extra in (
            ("serial", ["--cache-dir", str(tmp_path / "c1")]),
            ("parallel", ["--parallel", "4", "--cache-dir", str(tmp_path / "c2")]),
            ("warm", ["--cache-dir", str(tmp_path / "c1")]),
        ):
            csv = tmp_path / f"{name}.csv"
            assert (
                main(
                    ["sweep", "served", "--grid", GRID_12, "--out", str(csv)]
                    + extra
                )
                == 0
            )
            out[name] = capsys.readouterr().out
            assert csv.exists()
        assert (
            (tmp_path / "serial.csv").read_bytes()
            == (tmp_path / "parallel.csv").read_bytes()
            == (tmp_path / "warm.csv").read_bytes()
        )
        assert "cache hits 0/12 (0.0%)" in out["serial"]
        assert "cache hits 0/12 (0.0%)" in out["parallel"]
        assert "cache hits 12/12 (100.0%)" in out["warm"]

    def test_creates_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "nested" / "cache"
        assert (
            main(
                [
                    "sweep", "sizing",
                    "--grid", "beamspread=1,2",
                    "--cache-dir", str(cache_dir),
                ]
            )
            == 0
        )
        assert cache_dir.is_dir()
        assert list(cache_dir.glob("*.json"))
        assert "constellation_full" in capsys.readouterr().out

    def test_no_cache_leaves_no_files(self, tmp_path, capsys):
        cache_dir = tmp_path / "unused"
        assert (
            main(
                [
                    "sweep", "served",
                    "--grid", "beamspread=1",
                    "--no-cache",
                    "--cache-dir", str(cache_dir),
                ]
            )
            == 0
        )
        assert not cache_dir.exists()
        assert "cache hits 0/1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid", ["bogus", "a=", "=1,2", "a=1;a=2", ""]
    )
    def test_malformed_grid_exits_2(self, grid, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep", "served",
                    "--grid", grid,
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 2
        )
        assert "sweep failed" in capsys.readouterr().err

    def test_unknown_sweep_function_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "frobnicate", "--grid", "a=1"])

    def test_grid_is_required(self):
        with pytest.raises(SystemExit):
            main(["sweep", "served"])


class TestSummary:
    def test_summary_prints_findings(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "F4" in out
        assert "4,660,000" in out


class TestExportData:
    def test_export_writes_csvs(self, tmp_path, capsys):
        assert main(["export-data", str(tmp_path)]) == 0
        assert (tmp_path / "cells.csv").exists()
        assert (tmp_path / "counties.csv").exists()


class TestSimulate:
    def test_simulate_prints_report(self, capsys):
        assert main(
            [
                "simulate",
                "--lat-min", "37", "--lat-max", "38",
                "--lon-min", "-83", "--lon-max", "-82",
                "--duration", "120", "--step", "60",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "handovers" in out

    def test_simulate_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--strategy", "nope"])


class TestTimeline:
    REGION = [
        "--lat-min", "37", "--lat-max", "38",
        "--lon-min", "-83", "--lon-max", "-82",
    ]

    def test_flat_run_verifies_identity_and_writes_jsonl(
        self, tmp_path, capsys
    ):
        out = tmp_path / "timeline.jsonl"
        assert main(
            [
                "timeline", *self.REGION,
                "--duration-h", "0.25", "--step", "60",
                "--diurnal", "flat",
                "--reconnect-outage", "0", "--handover-outage", "0",
                "--out", str(out),
            ]
        ) == 0
        printed = capsys.readouterr().out
        assert "byte-identical" in printed

        from repro.timeline import read_timeline_jsonl

        back = read_timeline_jsonl(out)
        assert back["run"]["flat_identical"] is True
        assert back["run"]["steps"] == 15
        assert (tmp_path / "timeline.manifest.json").exists()

    def test_residential_run_reports_qoe(self, capsys):
        assert main(
            [
                "timeline", *self.REGION,
                "--duration-h", "0.5", "--step", "120",
                "--diurnal", "residential",
            ]
        ) == 0
        printed = capsys.readouterr().out
        assert "unserved hours/day" in printed
        assert "outage minutes" in printed


class TestExportGeojson:
    def test_writes_three_collections(self, tmp_path, capsys):
        assert main(
            ["export-geojson", str(tmp_path), "--max-cells", "50"]
        ) == 0
        import json

        cells = json.loads((tmp_path / "cells.geojson").read_text())
        assert len(cells["features"]) == 50
        assert (tmp_path / "counties.geojson").exists()
        assert (tmp_path / "gateways.geojson").exists()


class TestTelemetryFlags:
    def test_quiet_silences_diagnostics(self, tmp_path, capsys):
        assert main(
            ["--quiet", "run", "tab2", "--out", str(tmp_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "wrote" not in captured.err
        assert "3,500" in captured.out or "constellation" in captured.out.lower()

    def test_log_json_writes_events_spans_and_metrics(self, tmp_path):
        from repro.obs import read_events

        events_path = tmp_path / "telemetry.jsonl"
        assert main(
            [
                "--log-json", str(events_path),
                "sweep", "served",
                "--grid", "beamspread=1",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "sweep.csv"),
            ]
        ) == 0
        events = read_events(events_path)
        types = {event["type"] for event in events}
        assert "log" in types
        assert "span" in types
        assert "metrics" in types
        span_names = {
            e["name"] for e in events if e["type"] == "span"
        }
        assert "runner.sweep" in span_names
        assert "runner.task" in span_names

    def test_sweep_out_writes_manifest(self, tmp_path):
        from repro.obs import RunManifest, manifest_path_for

        csv = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "served",
                "--grid", "beamspread=1,2",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(csv),
            ]
        ) == 0
        manifest = RunManifest.load(manifest_path_for(csv))
        assert manifest.command == "sweep"
        assert manifest.params_hash
        assert manifest.dataset_fingerprint
        assert manifest.extra["tasks"] == 2
        assert any(
            span["name"] == "runner.sweep" for span in manifest.spans
        )
        counters = manifest.metrics["counters"]
        assert counters["runner.tasks.completed"] == 2


class TestReportCommand:
    def test_report_renders_sweep_manifest(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "served",
                "--grid", "beamspread=1,2",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(csv),
            ]
        ) == 0
        capsys.readouterr()
        from repro.obs import manifest_path_for

        assert main(["report", str(manifest_path_for(csv))]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "runner.sweep" in out
        assert "runner.task" in out
        assert "counters" in out
        assert "cache hit rate" in out

    def test_report_on_directory_includes_event_streams(
        self, tmp_path, capsys
    ):
        events_path = tmp_path / "telemetry.jsonl"
        assert main(
            [
                "--log-json", str(events_path),
                "sweep", "served",
                "--grid", "beamspread=1",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "sweep.csv"),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "=== manifest" in out
        assert "=== events" in out
        assert "error events: 0" in out

    def test_report_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "report failed" in capsys.readouterr().err
