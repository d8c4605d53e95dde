import json

import numpy as np
import pytest

from ridepool.baselines import greedy_matching, solution_for
from ridepool.metrics import (
    METRIC_NAMES,
    CostFactors,
    build_outcomes,
    compute_report,
    vehicle_km,
    write_report_csv,
    write_report_json,
)
from ridepool.shareability import Objective, build_shareability_graph, make_trip

from conftest import scenario_instance, trip_on


@pytest.fixture
def identical_pair(line_net):
    trips = [
        make_trip(line_net, 0, 0, line_net.nodes[0], line_net.nodes[2], 0.0),
        make_trip(line_net, 1, 1, line_net.nodes[0], line_net.nodes[2], 0.0),
    ]
    return build_shareability_graph(line_net, trips, Objective.DISTANCE)


class TestHandCases:
    def test_all_solo(self, identical_pair):
        solution = solution_for(identical_pair, [(0,), (1,)])
        report = compute_report(solution, build_outcomes(solution, identical_pair.trips))
        assert report.occupancy_rate == 1.0
        assert report.carpooling_rate == 0.0
        assert report.avg_delay_min == 0.0
        assert report.avg_detour_m == 0.0
        assert report.detour_ratio == 0.0
        assert report.discount_ratio == 0.0

    def test_two_identical_trips_pooled(self, identical_pair):
        solution = solution_for(identical_pair, [(0, 1)])
        report = compute_report(solution, build_outcomes(solution, identical_pair.trips))
        assert report.occupancy_rate == 2.0
        assert report.carpooling_rate == 1.0
        assert report.avg_detour_m == 0.0
        assert report.avg_delay_min == 0.0
        assert report.discount_ratio == 0.5

    def test_emission_and_fuel_scale_with_factors(self, identical_pair):
        solution = solution_for(identical_pair, [(0, 1)])
        factors = CostFactors(emission_g_per_km=100.0, fuel_l_per_km=0.1, fare_per_km=1.0)
        report = compute_report(solution, build_outcomes(solution, identical_pair.trips, factors), factors)
        assert report.emissions_g == pytest.approx(2.0 * 100.0)  # 2000 m route
        assert report.fuel_l == pytest.approx(2.0 * 0.1)


class TestVehicleKm:
    def test_single_solo_trip(self, line_net):
        t = trip_on(line_net, 0, 0, 2)
        graph = build_shareability_graph(line_net, [t])
        solution = solution_for(graph, [(0,)])
        assert vehicle_km(solution) == 2000.0

    def test_pooled_pair_route(self, line_net):
        trips = [trip_on(line_net, 0, 0, 2), trip_on(line_net, 1, 1, 3)]
        graph = build_shareability_graph(line_net, trips, Objective.DISTANCE)
        solution = solution_for(graph, [(0, 1)])
        assert vehicle_km(solution) == 3000.0

    def test_mixed_scenario_hand_sum(self, line_net):
        trips = [trip_on(line_net, 0, 0, 2), trip_on(line_net, 1, 1, 3), trip_on(line_net, 2, 3, 0)]
        graph = build_shareability_graph(line_net, trips, Objective.DISTANCE)
        solution = solution_for(graph, [(0, 1), (2,)])
        # pooled pair: 3000 (P0 P1 D0 D1); solo trip 2: 3000
        assert vehicle_km(solution) == 3000.0 + 3000.0


class TestCoverageAndInvariance:
    def test_missing_outcome_rejected(self, identical_pair):
        solution = solution_for(identical_pair, [(0, 1)])
        outcomes = build_outcomes(solution, identical_pair.trips)[:1]
        with pytest.raises(ValueError, match="missing"):
            compute_report(solution, outcomes)

    def test_outcome_order_invariance(self):
        _, _, graph = scenario_instance(seed=14, n_trips=10)
        solution = greedy_matching(graph)
        outcomes = build_outcomes(solution, graph.trips)
        base = compute_report(solution, outcomes)
        for perm_seed in range(3):
            rng = np.random.default_rng(perm_seed)
            shuffled = list(outcomes)
            rng.shuffle(shuffled)
            assert compute_report(solution, shuffled) == base

    def test_occupancy_bounds_on_scenarios(self):
        for seed in range(8):
            _, _, graph = scenario_instance(seed=seed, n_trips=12)
            solution = greedy_matching(graph)
            report = compute_report(solution, build_outcomes(solution, graph.trips))
            assert 1.0 - 1e-9 <= report.occupancy_rate <= 2.0 + 1e-9
            assert 0.0 <= report.carpooling_rate <= 1.0

    def test_pooling_never_raises_vehicle_km_under_distance_objective(self):
        for seed in range(8):
            _, _, graph = scenario_instance(seed=seed, n_trips=12)
            pooled = greedy_matching(graph)
            solo = solution_for(graph, [(t,) for t in graph.trips])
            assert vehicle_km(pooled) <= vehicle_km(solo) + 1e-9

    def test_solo_outcome_invariant(self):
        _, _, graph = scenario_instance(seed=3, n_trips=8)
        solution = solution_for(graph, [(t,) for t in graph.trips])
        for outcome in build_outcomes(solution, graph.trips):
            assert not outcome.shared
            assert outcome.actual_in_vehicle_distance == outcome.solo_distance
            assert outcome.fare_paid == outcome.fare_solo


class TestReportIO:
    def test_csv_round_trip(self, identical_pair, tmp_path):
        solution = solution_for(identical_pair, [(0, 1)])
        report = compute_report(solution, build_outcomes(solution, identical_pair.trips))
        path = tmp_path / "metrics.csv"
        write_report_csv(report, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        loaded = {name: float(value) for name, value in rows}
        assert list(loaded) == list(METRIC_NAMES)
        for name in METRIC_NAMES:
            assert loaded[name] == pytest.approx(getattr(report, name), rel=1e-8)

    def test_json_round_trip(self, identical_pair, tmp_path):
        solution = solution_for(identical_pair, [(0, 1)])
        report = compute_report(solution, build_outcomes(solution, identical_pair.trips))
        path = tmp_path / "report.json"
        write_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded == report.as_dict()

    def test_negative_factors_rejected(self):
        with pytest.raises(ValueError):
            CostFactors(emission_g_per_km=-1.0)
