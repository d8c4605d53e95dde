"""Top-level acceptance gate.

Each test covers one numbered criterion at its stated tolerance and prints a
PASS line on success (run with `pytest -s` to see them inline).
"""

import itertools
import math
import time

import numpy as np

from ridepool import pipeline
from ridepool.baselines import brute_force_optimal, check_partition, greedy_matching, solution_for
from ridepool.embedding import EmbeddingConfig, propagate
from ridepool.geo import great_circle_distance
from ridepool.metrics import (
    METRIC_NAMES,
    build_outcomes,
    compute_report,
)
from ridepool.policy import (
    PPOConfig,
    RewardSpec,
    init_policy_params,
    match_all,
    rollout,
    train,
)
from ridepool.scenario import DemandConfig, NetworkConfig, ScenarioConfig, load_config
from ridepool.shareability import (
    Objective,
    best_shared_route,
    build_shareability_graph,
    edge_weight,
)
from ridepool.tolerance import ToleranceProfile, sensitivity_sweep

from conftest import features_for, random_weighted_graph, scenario_instance
from test_embedding import propagate_oracle
from test_policy import gradient_check
from test_shareability import pair_route_oracle


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_greedy_within_half_of_optimal():
    started = time.time()
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_trips = int(rng.integers(2, 11))
        graph = random_weighted_graph(rng, n_trips=n_trips, edge_prob=float(rng.uniform(0.1, 0.9)))
        greedy = greedy_matching(graph)
        optimal = brute_force_optimal(graph)
        assert greedy.objective_value >= 0.5 * optimal.objective_value
        check_partition(graph, greedy.groups, capacity=2)
        check_partition(graph, optimal.groups, capacity=2)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 10.0
    report(1, f"greedy >= 0.5 x optimal on {checked} random graphs in {elapsed:.2f}s")


# the pinned 8-trip training instance: seed 5 on a 4x4/800 m grid
POLICY_INSTANCE_SEED = 5


def test_criterion_02_policy_reaches_90pct_of_optimal():
    started = time.time()
    net, trips, graph = scenario_instance(seed=POLICY_INSTANCE_SEED, n_trips=8)
    features = features_for(trips)
    spec = RewardSpec()
    params, _ = train(
        graph, features, spec, capacity=2, cfg=PPOConfig(seed=0), n_updates=200, hidden=32
    )
    solution = match_all(graph, features, params, spec, capacity=2)
    optimal = brute_force_optimal(graph, capacity=2)
    ratio = solution.objective_value / optimal.objective_value
    assert ratio >= 0.9

    # learning signal: paired rollouts against the uniform-random policy
    uniform = init_policy_params(len(next(iter(features.values()))), hidden=32, seed=0)
    trained_mean = np.mean(
        [sum(rollout(graph, features, params, spec, seed=[77, i]).episode_returns()) for i in range(100)]
    )
    uniform_mean = np.mean(
        [sum(rollout(graph, features, uniform, spec, seed=[77, i]).episode_returns()) for i in range(100)]
    )
    assert trained_mean >= uniform_mean
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(
        2,
        f"trained policy at {ratio:.1%} of optimum (trained {trained_mean:.0f} vs uniform "
        f"{uniform_mean:.0f} mean reward) in {elapsed:.1f}s",
    )


def test_criterion_03_gradients_match_finite_differences():
    worst = max(gradient_check(draw_seed) for draw_seed in range(20))
    assert worst < 1e-4
    report(3, f"backprop vs central differences, worst relative error {worst:.2e} over 20 draws")


def test_criterion_04_propagation_matches_elementwise_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 11))
        prev = rng.normal(size=(n, d))
        lap = rng.normal(size=(n, n))
        w1 = rng.normal(size=(d, d))
        w2 = rng.normal(size=(d, d))
        activation = ("relu", "sigmoid", "linear")[int(rng.integers(3))]
        out = propagate(prev, lap, w1, w2, activation)
        expected = propagate_oracle(prev, lap, w1, w2, activation)
        worst = max(worst, float(np.abs(out - expected).max()))
        assert worst < 1e-9
    # zero-Laplacian identity is exact
    prev = rng.normal(size=(5, 4))
    out = propagate(prev, np.zeros((5, 5)), np.eye(4), rng.normal(size=(4, 4)), "linear")
    assert (out == prev).all()
    report(4, f"50 random instances within {worst:.2e} of the element-wise oracle; identity exact")


def test_criterion_05_edge_weight_formulas_exact():
    checked = 0
    seed = 0
    while checked < 100:
        net, trips, _ = scenario_instance(seed=1000 + seed, n_trips=6)
        seed += 1
        for a, b in itertools.combinations(trips, 2):
            shared = best_shared_route(net, a, b)
            oracle_distance, oracle_time = pair_route_oracle(net, a, b)
            assert shared.total_distance == oracle_distance
            w_dist = edge_weight(shared, a, b, Objective.DISTANCE)
            w_time = edge_weight(shared, a, b, Objective.TIME)
            assert w_dist == a.solo_route.distance + b.solo_route.distance - oracle_distance
            assert w_time == a.solo_route.time + b.solo_route.time - oracle_time
            assert edge_weight(shared, a, b, Objective.VEHICLE) == 2.0
            checked += 1
            if checked == 100:
                break
    report(5, f"{checked} seeded pairs match the brute-forced savings formulas exactly")


def test_criterion_06_metrics_hand_cases_exact():
    from ridepool.geo import build_grid_network
    from ridepool.shareability import make_trip

    net = build_grid_network(1, 4, 1000.0, 10.0)
    trips = [
        make_trip(net, 0, 0, net.nodes[0], net.nodes[2], 0.0),
        make_trip(net, 1, 1, net.nodes[0], net.nodes[2], 0.0),
    ]
    graph = build_shareability_graph(net, trips, Objective.DISTANCE)

    pooled = solution_for(graph, [(0, 1)])
    rep = compute_report(pooled, build_outcomes(pooled, graph.trips))
    assert rep.occupancy_rate == 2.0
    assert rep.carpooling_rate == 1.0
    assert rep.avg_detour_m == 0.0
    assert rep.avg_delay_min == 0.0
    assert rep.discount_ratio == 0.5

    solo = solution_for(graph, [(0,), (1,)])
    rep_solo = compute_report(solo, build_outcomes(solo, graph.trips))
    assert rep_solo.occupancy_rate == 1.0
    assert rep_solo.carpooling_rate == 0.0
    assert rep_solo.avg_delay_min == 0.0
    assert rep_solo.avg_detour_m == 0.0
    assert rep_solo.detour_ratio == 0.0
    assert rep_solo.discount_ratio == 0.0
    report(6, "identical-pair and all-solo hand cases reproduce exactly")


def test_criterion_07_constraint_gates_exhaustive():
    radius = 3000.0
    gap = 600.0
    for seed in range(50):
        net, trips, graph = scenario_instance(
            seed=2000 + seed, n_trips=14, rows=7, cols=7, spacing=900.0, departure_span=1500.0
        )
        edges = set(graph.edges)
        for a, b in itertools.combinations(trips, 2):
            key = (a.trip_id, b.trip_id)
            origin_gap = great_circle_distance(a.origin_point, b.origin_point)
            dest_gap = great_circle_distance(a.dest_point, b.dest_point)
            depart_gap = abs(a.desired_departure - b.desired_departure)
            if origin_gap > radius or dest_gap > radius or depart_gap > gap:
                assert key not in edges
    report(7, "no radius- or gap-violating pair appears as an edge across 50 scenarios")


def test_criterion_08_tolerance_sweep_trend():
    started = time.time()
    cfg = ScenarioConfig(
        network=NetworkConfig(rows=8, cols=8, spacing_m=600.0),
        demand=DemandConfig(
            n_trips=100, n_users=60, hotspots=4, hotspot_spread_m=700.0, departure_window_s=1200.0
        ),
        tolerance=ToleranceProfile(tau0=900.0, kappa=2.0),
        train_updates=0,
    )
    s_values = [0.0, 0.25, 0.5, 0.75, 1.0]
    cells = sensitivity_sweep(cfg, s_values, [Objective.DISTANCE], runs_per_cell=20, seed=42)
    rates = [cell.stats["carpooling_rate"][0] for cell in cells]
    violations = sum(1 for lo, hi in zip(rates, rates[1:]) if hi > lo + 1e-12)
    elapsed = time.time() - started
    assert violations <= 1
    assert elapsed < 300.0
    report(
        8,
        f"mean carpooling rate {['%.3f' % r for r in rates]} non-increasing in s "
        f"({violations} violations) over 20 scenarios in {elapsed:.1f}s",
    )


def test_criterion_09_objective_pattern_report(capsys):
    """Informational: emit the indicator table for the three objectives and
    record where the pattern matches the published O_vehicle behavior."""
    cfg = ScenarioConfig(
        network=NetworkConfig(rows=10, cols=10, spacing_m=500.0),
        demand=DemandConfig(
            n_trips=200, n_users=120, hotspots=5, hotspot_spread_m=700.0, departure_window_s=1800.0
        ),
        embedding=EmbeddingConfig(dim=8, layers=2),
        train_updates=10,
        policy_hidden=32,
        seed=2024,
    )
    reports = pipeline.objective_report(cfg)
    table = pipeline.format_objective_report(reports)
    vehicle = reports[Objective.VEHICLE]
    others = [reports[Objective.DISTANCE], reports[Objective.TIME]]
    highest_carpool = vehicle.carpooling_rate >= max(r.carpooling_rate for r in others)
    lowest_detour = vehicle.avg_detour_m <= min(r.avg_detour_m for r in others)
    notes = [
        f"vehicle objective has the highest carpooling rate: {highest_carpool}",
        f"vehicle objective has the lowest average detour: {lowest_detour}",
        "divergences are recorded, not failed (synthetic demand differs from the published data)",
    ]
    with capsys.disabled():
        print("\n=== objective pattern report (informational) ===")
        print(table)
        for note in notes:
            print("-", note)
    assert set(reports) == {Objective.DISTANCE, Objective.TIME, Objective.VEHICLE}
    for rep in reports.values():
        for name in METRIC_NAMES:
            assert math.isfinite(getattr(rep, name))
    report(9, f"report emitted; carpool-peak={highest_carpool}, detour-lowest={lowest_detour}")


def test_criterion_10_full_pipeline_byte_determinism(tmp_path):
    cfg = load_config(
        text="""
[network]
rows = 6
cols = 6
spacing_m = 600

[demand]
n_trips = 30
n_users = 18
hotspots = 3

[run]
seed = 11
train_updates = 3

[embedding]
dim = 6
layers = 2

[ppo]
hidden = 16

[sweep]
s_values = 0, 0.5, 1.0
objectives = distance
runs_per_cell = 2
"""
    )
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    pipeline.run_pipeline(cfg, str(out1), pipeline.STAGES)
    pipeline.run_pipeline(cfg, str(out2), pipeline.STAGES)
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report(10, f"two `all` runs produced byte-identical artifacts: {', '.join(names1)}")
