"""Self-tests of the benchmark: the quality reference, tracing and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import rep  # noqa: E402
from instrument import Capture, Patcher, Tracer  # noqa: E402
from quality import evaluate_capture, pair_optimum  # noqa: E402
from ridepool import baselines, pipeline, policy, shareability  # noqa: E402
from ridepool.scenario import generate_scenario, load_config  # noqa: E402
from ridepool.shareability import Objective, build_shareability_graph  # noqa: E402

SMALL = """\
[network]
rows = 6
cols = 6

[demand]
n_trips = {trips}
n_users = 8
hotspots = 3
hotspot_spread_m = 400
departure_window_s = 900

[run]
capacity = {capacity}
seed = {seed}
train_updates = 1

[ppo]
rollouts_per_update = 2
epochs_per_update = 1

[tolerance]
enabled = true

[sweep]
s_values = 0, 1
objectives = distance, vehicle
runs_per_cell = 1
"""


def small_config(tmp_path, trips=12, capacity=2, seed=3):
    path = tmp_path / "config.ini"
    path.write_text(SMALL.format(trips=trips, capacity=capacity, seed=seed))
    return str(path)


@pytest.mark.parametrize("objective", list(Objective))
def test_pair_optimum_matches_brute_force(objective):
    graphs_with_edges = 0
    for seed in range(12):
        cfg = load_config(text=SMALL.format(trips=12, capacity=2, seed=seed))
        net, trips = generate_scenario(cfg)
        graph = build_shareability_graph(net, trips, objective, cfg.constraints)
        graphs_with_edges += bool(graph.edges)
        exact = baselines.brute_force_optimal(graph, capacity=2).objective_value
        assert pair_optimum(graph) == pytest.approx(exact, abs=1e-9)
    assert graphs_with_edges >= 8


def run_rep(tmp_path, workload, config, mode, tag, *extra):
    result = tmp_path / f"{tag}.json"
    args = ["--workload", workload, "--config", config, "--out", str(tmp_path / tag), "--result", str(result)]
    assert rep.main(args + ["--mode", mode, *extra]) == 0
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload,capacity", [("file-pipeline", 2), ("group-c4", 4), ("sweep", 2)])
def test_tracing_leaves_artifacts_byte_identical(tmp_path, workload, capacity):
    config = small_config(tmp_path, capacity=capacity)
    plain = run_rep(tmp_path, workload, config, "plain", "plain")
    traced = run_rep(
        tmp_path, workload, config, "trace", "traced", "--trace-file", str(tmp_path / "trace.jsonl")
    )
    assert plain["digest"] == traced["digest"]
    assert traced["problems"] == []
    layers = traced["layers"]
    assert layers["geo.snap_calls"] > 0 and layers["policy.rollouts"] > 0
    assert 0.0 < layers["trace.purpose_share"] <= 1.0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == layers["trace.spans"] + 1
    assert "summary" in json.loads(lines[-1])


def test_wrappers_are_removed_after_a_run():
    originals = (pipeline.build_shareability_graph, policy.match_all, shareability.RoadNetwork.distance_time)
    stages = dict(pipeline._STAGE_FUNCS)
    patch = Patcher()
    Tracer().install(patch)
    Capture().install(patch)
    assert pipeline.build_shareability_graph is not originals[0]
    patch.restore()
    assert (pipeline.build_shareability_graph, policy.match_all, shareability.RoadNetwork.distance_time) == originals
    assert pipeline._STAGE_FUNCS == stages


def test_self_time_and_coverage():
    tracer = Tracer()
    tracer.spans = [
        [0, None, "outer", 0.0, 10.0],
        [1, 0, "inner", 1.0, 3.0],
        [2, 0, "inner", 2.5, 6.0],  # overlaps the first inner span in time
        [3, None, "other", 12.0, 13.0],
    ]
    totals = tracer.totals()
    assert totals["outer"] == [1, 10.0, 10.0 - 2.0 - 3.5]
    assert totals["inner"] == [2, 5.5, 5.5]
    assert tracer.covered_s({"inner"}) == pytest.approx(5.0)
    assert tracer.covered_s({"inner", "other"}) == pytest.approx(6.0)


def test_check_accepts_the_optimum_and_flags_a_missing_report():
    cfg = load_config(text=SMALL.format(trips=12, capacity=2, seed=1))
    net, trips = generate_scenario(cfg)
    graph = build_shareability_graph(net, trips, Objective.DISTANCE, cfg.constraints)
    best = baselines.brute_force_optimal(graph, capacity=2)
    assert best.objective_value > 0.0
    capture = Capture()
    capture.matchings.append((graph, best, 2))
    quality, problems = evaluate_capture(capture, capacity=2)
    assert quality["value_vs_pair_opt"] == pytest.approx(1.0)
    assert problems == ["the run produced no indicator report"]


def test_check_flags_a_pair_value_above_the_optimum():
    # a matcher that pools a pair the gates rejected can beat the edge optimum
    cfg = load_config(text=SMALL.format(trips=12, capacity=2, seed=1))
    net, trips = generate_scenario(cfg)
    graph = build_shareability_graph(
        net, trips, Objective.DISTANCE, shareability.PairingConstraints(radius_m=1.0)
    )
    assert not graph.edges
    pair = next(p for p in itertools.combinations(sorted(graph.trips), 2) if graph.group_value(p) > 0.0)
    groups = baselines.canonical_groups([pair] + [(t,) for t in graph.trips if t not in pair])
    solution = baselines.MatchingSolution(groups=groups, objective_value=graph.group_value(pair))
    capture = Capture()
    capture.matchings.append((graph, solution, 2))
    _, problems = evaluate_capture(capture, capacity=2)
    assert any("exceeds the optimum" in p for p in problems)
