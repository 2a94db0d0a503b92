"""End-to-end tests: every experiment reproduces its paper artifact.

These are the acceptance tests of DESIGN.md section 6 — shape and headline
numbers per table/figure — plus the design-choice ablations and substrate
sanity checks the experiments rest on.
"""

import numpy as np
import pytest

from repro.experiments import all_experiment_ids, run_experiment


@pytest.fixture(scope="module")
def results(national_model):
    return {
        experiment_id: run_experiment(experiment_id, national_model)
        for experiment_id in all_experiment_ids()
    }


class TestStructure:
    def test_every_result_has_text_and_csv(self, results):
        for experiment_id, result in results.items():
            assert result.text, experiment_id
            assert result.csv_headers, experiment_id
            assert result.csv_rows, experiment_id
            for row in result.csv_rows:
                assert len(row) == len(result.csv_headers), experiment_id

    def test_metrics_are_numeric(self, results):
        for experiment_id, result in results.items():
            for key, value in result.metrics.items():
                assert isinstance(value, (int, float)), (experiment_id, key)


class TestFigure1:
    def test_percentiles(self, results):
        metrics = results["fig1"].metrics
        assert metrics["p90"] == pytest.approx(552, abs=3)
        assert metrics["p99"] == pytest.approx(1437, rel=0.01)
        assert metrics["max"] == 5998

    def test_annotations_in_text(self, results):
        assert "90th percentile" in results["fig1"].text
        assert "5998" in results["fig1"].text


class TestTable1:
    def test_exact_values(self, results):
        metrics = results["tab1"].metrics
        assert metrics["ut_spectrum_mhz"] == pytest.approx(3850.0)
        assert metrics["cell_capacity_mbps"] == pytest.approx(17325.0)
        assert round(metrics["max_oversubscription"]) == 35

    def test_band_table_rendered(self, results):
        assert "3850/8850 MHz" in results["tab1"].text


class TestFigure2:
    def test_fraction_range_matches_colorbar(self, results):
        metrics = results["fig2"].metrics
        assert metrics["min_fraction"] == pytest.approx(0.36, abs=0.02)
        assert metrics["max_fraction"] >= 0.99

    def test_csv_covers_full_grid(self, results):
        assert len(results["fig2"].csv_rows) == 13 * 26


class TestTable2:
    def test_within_2pct_of_paper(self, results):
        assert results["tab2"].metrics["worst_relative_error"] < 0.02

    def test_headline_sizes(self, results):
        metrics = results["tab2"].metrics
        assert metrics["size_full_s1"] == pytest.approx(79287, rel=0.02)
        assert metrics["size_full_s2"] > 40000


class TestFigure3:
    def test_floor_matches_paper_annotation(self, results):
        # Paper Fig 3 annotation (3): 5103 locations unservable at 20:1.
        assert results["fig3"].metrics["floor_unservable"] == pytest.approx(
            5103, abs=60
        )

    def test_final_step_cost_bracket(self, results):
        metrics = results["fig3"].metrics
        assert metrics["final_step_satellites_s15"] < 1000 < (
            metrics["final_step_satellites_s1"]
        )


class TestFigure4:
    def test_f4_counts(self, results):
        metrics = results["fig4"].metrics
        assert metrics["unaffordable_starlink_at_2pct"] == pytest.approx(
            3.47e6, rel=0.01
        )
        assert metrics["unaffordable_lifeline_at_2pct"] == pytest.approx(
            3.0e6, rel=0.01
        )

    def test_zero_crossing_ratio(self, results):
        metrics = results["fig4"].metrics
        ratio = metrics["lifeline_zero_crossing"] / metrics["starlink_zero_crossing"]
        assert ratio == pytest.approx(110.75 / 120.0, abs=0.03)


class TestValidation:
    def test_simulator_agrees_with_theory(self, results):
        metrics = results["val"].metrics
        assert metrics["worst_density_error"] < 0.05
        assert metrics["min_coverage_fraction"] > 0.85
        assert metrics["demand_satisfaction"] > 0.9


class TestServing:
    def test_service_equals_batch_in_every_scenario(self, results):
        from repro.experiments.serving import SCENARIOS

        result = results["serve"]
        assert result.metrics["all_equal"] == 1.0
        assert len(result.csv_rows) == len(SCENARIOS)
        assert [row[-1] for row in result.csv_rows] == ["yes"] * len(SCENARIOS)


class TestAblations:
    """How the headline results move when one model ingredient moves.

    Each case sweeps one design choice DESIGN.md calls out; the capacity
    ablations run through :class:`repro.runner.SweepRunner`, the grid
    machinery behind ``repro-divide sweep``.
    """

    def test_spectral_efficiency_lowers_oversubscription_and_floor(
        self, national_model
    ):
        from repro.runner import ParameterGrid, SweepRunner

        grid = ParameterGrid(
            {
                "spectral_efficiency": (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0),
                "oversubscription": (20,),
            }
        )
        report = SweepRunner("served", grid).run(model=national_model)
        oversubs = [
            r.metrics["required_oversubscription"] for r in report.results
        ]
        floors = [r.metrics["locations_unserved"] for r in report.results]
        assert oversubs == sorted(oversubs, reverse=True)
        assert floors == sorted(floors, reverse=True)

    def test_more_beams_per_cell_needs_more_satellites(self, national_model):
        from repro.runner import ParameterGrid, SweepRunner

        grid = ParameterGrid(
            {"max_beams_per_cell": (2, 3, 4, 6, 8), "beamspread": (2,)}
        )
        report = SweepRunner("sizing", grid).run(model=national_model)
        sizes = [r.metrics["constellation_capped"] for r in report.results]
        assert sizes == sorted(sizes)

    def test_pure_53_degree_shells_need_the_fewest_satellites(
        self, national_model
    ):
        from repro.core.sizing import ConstellationSizer, DeploymentScenario
        from repro.orbits.density import ShellMixDensity
        from repro.orbits.shells import GEN1_SHELLS, current_deployment

        mixes = {
            "53-degree shells": [GEN1_SHELLS[0], GEN1_SHELLS[1]],
            "all Gen1": list(GEN1_SHELLS),
            "current ~8000": current_deployment(),
        }
        sizes = {
            name: ConstellationSizer(
                national_model.dataset, density=ShellMixDensity(shells)
            )
            .size_scenario(DeploymentScenario.FULL_SERVICE, 2)
            .constellation_size
            for name, shells in mixes.items()
        }
        assert sizes["53-degree shells"] <= min(sizes.values()) * 1.001

    def test_finer_cells_scale_the_constellation_by_area(
        self, national_model
    ):
        from repro.core.sizing import ConstellationSizer, DeploymentScenario
        from repro.geo.hexgrid import H3_MEAN_HEX_AREA_KM2

        sizes = [
            ConstellationSizer(
                national_model.dataset,
                cell_area_km2=H3_MEAN_HEX_AREA_KM2[resolution],
            )
            .size_scenario(DeploymentScenario.FULL_SERVICE, 2)
            .constellation_size
            for resolution in (4, 5, 6)
        ]
        assert sizes == sorted(sizes)
        assert sizes[1] / sizes[0] == pytest.approx(7.0, rel=0.01)

    def test_deeper_subsidy_prices_out_fewer(self, national_model):
        analysis = national_model.affordability
        counts = [
            analysis.unaffordable_locations(max(0.0, 120.0 - subsidy))
            for subsidy in (0.0, 9.25, 30.0, 50.0, 70.0, 90.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_more_reuse_resources_lower_the_peak_floor(self, national_model):
        from repro.spectrum.interference import InterferenceModel

        peak = national_model.dataset.max_cell().total_locations
        budgets = []
        for polarizations, rings in ((1, 2), (1, 1), (2, 1), (2, 0)):
            model = InterferenceModel(
                polarizations=polarizations, exclusion_rings=rings
            )
            budgets.append(
                (
                    model.orthogonal_resources,
                    model.min_oversubscription_possible(peak),
                )
            )
        for (resources_a, floor_a), (resources_b, floor_b) in zip(
            budgets, budgets[1:]
        ):
            if resources_b > resources_a:
                assert floor_b <= floor_a


class TestSubstrates:
    """Sanity checks on the substrates the experiments stand on."""

    def test_conus_points_spread_over_many_cells(self):
        from repro.geo.coords import LatLon
        from repro.geo.hexgrid import HexGrid

        grid = HexGrid(5)
        rng = np.random.default_rng(0)
        cells = {
            grid.cell_for(LatLon(float(lat), float(lon)))
            for lat, lon in zip(
                rng.uniform(25, 49, 10_000), rng.uniform(-124, -67, 10_000)
            )
        }
        assert len(cells) > 5000

    def test_walker_positions_cover_the_shell(self):
        from repro.orbits.shells import GEN1_SHELLS
        from repro.orbits.walker import WalkerDelta

        walker = WalkerDelta.from_shell(GEN1_SHELLS[0])
        assert walker.positions_eci(1234.5).shape == (1584, 3)

    def test_quarter_scale_map_keeps_its_total(self):
        from repro.demand.synthetic import (
            SyntheticMapConfig,
            generate_national_map,
        )

        config = SyntheticMapConfig(seed=123, total_locations=1_000_000)
        assert generate_national_map(config).total_locations == 1_000_000

    def test_national_latency_survey_meets_the_fcc_bar(self, national_model):
        from repro.core.latency import LatencyAnalysis
        from repro.orbits.shells import GEN1_SHELLS

        analysis = LatencyAnalysis(national_model.dataset, GEN1_SHELLS[0])
        assert analysis.summary(max_cells=100)["meets_fcc_low_latency"]
