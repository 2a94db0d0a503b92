"""Metric-level tests for the extension experiments."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def uplink(national_model):
    return run_experiment("uplink", national_model)


@pytest.fixture(scope="module")
def gateways(national_model):
    return run_experiment("gw", national_model)


@pytest.fixture(scope="module")
def latency(national_model):
    return run_experiment("latency", national_model)


@pytest.fixture(scope="module")
def tco(national_model):
    return run_experiment("tco", national_model)


@pytest.fixture(scope="module")
def equity(national_model):
    return run_experiment("equity", national_model)


@pytest.fixture(scope="module")
def uncertainty(national_model):
    return run_experiment("uncertainty", national_model)


@pytest.fixture(scope="module")
def defection(national_model):
    return run_experiment("defection", national_model)


class TestUplinkExtension:
    def test_uplink_oversubscription_about_96(self, uplink):
        assert uplink.metrics["uplink_required_oversubscription"] == (
            pytest.approx(96.0, abs=1.0)
        )

    def test_uplink_capacity_1250(self, uplink):
        assert uplink.metrics["uplink_cell_capacity_mbps"] == pytest.approx(1250.0)

    def test_uplink_worse_than_downlink(self, uplink):
        assert uplink.metrics["uplink_service_fraction_at_20"] < 0.99
        assert uplink.metrics["uplink_unservable_at_20"] > 100_000


class TestGatewayExtension:
    def test_full_bent_pipe_coverage_at_550(self, gateways):
        assert gateways.metrics["location_fraction"] == 1.0
        assert gateways.metrics["cell_fraction"] == 1.0

    def test_reach_about_2600_km(self, gateways):
        assert gateways.metrics["reach_km"] == pytest.approx(2605, abs=40)

    def test_one_gateway_suffices(self, gateways):
        assert gateways.metrics["minimum_gateways"] == 1


class TestLatencyExtension:
    def test_leo_rtt_single_digit_ms(self, latency):
        assert latency.metrics["rtt_ms_p50"] < 15.0
        assert latency.metrics["rtt_ms_max"] < 100.0

    def test_geo_is_50x_worse(self, latency):
        assert latency.metrics["geo_rtt_ms"] / latency.metrics["rtt_ms_p50"] > 30.0

    def test_all_sampled_cells_bent_pipe(self, latency):
        assert latency.metrics["bent_pipe_fraction"] == 1.0


class TestTcoExtension:
    def test_capex_hundreds_of_billions_at_s1(self, tco):
        assert 100.0 < tco.metrics["capex_s1_busd"] < 400.0

    def test_final_step_beats_remote_fiber(self, tco):
        assert tco.metrics["final_step_capex_per_location_s1"] > (
            tco.metrics["remote_fiber_per_location"]
        )


class TestEquityExtension:
    def test_ten_deciles(self, equity):
        assert equity.metrics["deciles"] == 10

    def test_concentration_positive(self, equity):
        assert equity.metrics["concentration_index"] > 0.0


class TestGrowthExtension:
    def test_binding_time_plausible(self, national_model):
        result = run_experiment("growth", national_model)
        assert 3.0 < result.metrics["years_until_peak_binds"] < 15.0
        assert result.metrics["final_cells_over_cap"] >= 1


class TestRobustnessExtension:
    def test_findings_hold_across_map_seeds(self, national_model):
        result = run_experiment("robust", national_model)
        assert result.metrics["size_spread"] < 0.05
        assert result.metrics["share_spread"] < 0.02


class TestUncertaintyExtension:
    def test_band_contains_point(self, uncertainty):
        assert uncertainty.metrics["s2_p5"] < uncertainty.metrics["s2_point"] < (
            uncertainty.metrics["s2_p95"]
        )

    def test_f2_survives_low_inputs(self, uncertainty):
        # F2's ">40,000 at beamspread 2" stays above 30,000 even with
        # every input at its 5th percentile.
        assert uncertainty.metrics["s2_p5"] > 30000


class TestDefectionExtension:
    def test_floor_doubles_below_25pct(self, defection):
        assert defection.metrics["doubling_defection"] < 0.25

    def test_defection_raises_the_floor(self, defection):
        assert defection.metrics["floor_at_20pct"] > (
            defection.metrics["baseline_floor"]
        )


class TestBaselinesExtension:
    def test_leo_and_fiber_same_order_of_magnitude(self, national_model):
        result = run_experiment("baselines", national_model)
        ratio = result.metrics["fiber_capex_usd"] / result.metrics["leo_capex_usd"]
        assert 0.2 < ratio < 5.0

    def test_geo_fleet_tiny(self, national_model):
        result = run_experiment("baselines", national_model)
        assert result.metrics["geo_satellites"] < 100
