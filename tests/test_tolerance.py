import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridepool.baselines import check_partition, greedy_matching
from ridepool.metrics import METRIC_NAMES
from ridepool.scenario import DemandConfig, NetworkConfig, ScenarioConfig
from ridepool.shareability import Objective
from ridepool.tolerance import (
    SweepCell,
    ToleranceProfile,
    filter_with_draws,
    rejection_cost,
    sensitivity_sweep,
    tolerance,
    write_sweep,
)

from conftest import read_sweep, scenario_instance


class TestToleranceFunction:
    def test_zero_delay_is_certain(self):
        assert tolerance(0.0, ToleranceProfile(s=0.3)) == 1.0

    def test_closed_form_at_tau0(self):
        assert tolerance(900.0, ToleranceProfile(tau0=900.0, s=0.0)) == pytest.approx(
            math.exp(-1.0), abs=1e-9
        )

    def test_closed_form_with_sensitivity(self):
        profile = ToleranceProfile(tau0=900.0, kappa=2.0, s=0.5)
        assert tolerance(900.0, profile) == pytest.approx(math.exp(-2.0), abs=1e-9)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            tolerance(-1.0, ToleranceProfile())

    def test_off_sentinel_accepts_everything(self):
        off = ToleranceProfile.off()
        assert tolerance(0.0, off) == 1.0
        assert tolerance(1e9, off) == 1.0

    @given(
        d1=st.floats(0.0, 1e5),
        d2=st.floats(0.0, 1e5),
        s1=st.floats(0.0, 1.0),
        s2=st.floats(0.0, 1.0),
    )
    def test_monotone_in_delay_and_sensitivity(self, d1, d2, s1, s2):
        lo_d, hi_d = sorted((d1, d2))
        lo_s, hi_s = sorted((s1, s2))
        profile = ToleranceProfile(tau0=600.0, kappa=1.5, s=lo_s)
        assert tolerance(hi_d, profile) <= tolerance(lo_d, profile)
        assert tolerance(lo_d, profile.with_sensitivity(hi_s)) <= tolerance(lo_d, profile)
        assert 0.0 < tolerance(hi_d, profile) <= 1.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ToleranceProfile(tau0=0.0)
        with pytest.raises(ValueError):
            ToleranceProfile(kappa=-0.1)
        with pytest.raises(ValueError):
            ToleranceProfile(s=1.5)

    def test_rejection_cost_sums_complements(self):
        profile = ToleranceProfile(tau0=900.0, s=0.0)
        expected = (1.0 - math.exp(-1.0)) + (1.0 - math.exp(-2.0))
        assert rejection_cost([900.0, 1800.0], profile) == pytest.approx(expected, abs=1e-12)


class TestFilter:
    def test_off_profile_keeps_everything(self):
        _, _, graph = scenario_instance(seed=5, n_trips=10, departure_span=600.0)
        solution = greedy_matching(graph)
        rng = np.random.default_rng(0)
        draws = {tid: rng.random() for tid in sorted(graph.trips)}
        filtered = filter_with_draws(solution, graph, ToleranceProfile.off(), draws)
        assert filtered.groups == solution.groups

    def test_draw_keyed_filter_monotone_in_s(self):
        _, _, graph = scenario_instance(seed=5, n_trips=12, departure_span=900.0)
        solution = greedy_matching(graph)
        draws = {tid: float(np.random.default_rng([1, tid]).random()) for tid in graph.trips}
        profile = ToleranceProfile(tau0=300.0, kappa=3.0)
        pooled_counts = []
        for s in (0.0, 0.5, 1.0):
            filtered = filter_with_draws(solution, graph, profile.with_sensitivity(s), draws)
            check_partition(graph, filtered.groups, capacity=2)
            pooled_counts.append(sum(1 for g in filtered.groups if len(g) > 1))
        assert pooled_counts[0] >= pooled_counts[1] >= pooled_counts[2]

    def test_dissolved_groups_become_singletons(self):
        _, _, graph = scenario_instance(seed=5, n_trips=10, departure_span=900.0)
        solution = greedy_matching(graph)
        # draws of 1.0 reject every pooled rider with positive delay scaling
        draws = {tid: 1.0 for tid in graph.trips}
        filtered = filter_with_draws(solution, graph, ToleranceProfile(tau0=1.0, s=1.0), draws)
        assert all(len(g) == 1 for g in filtered.groups)
        assert filtered.objective_value == 0.0


def small_sweep_config(**overrides):
    base = dict(
        network=NetworkConfig(rows=5, cols=5, spacing_m=700.0),
        demand=DemandConfig(
            n_trips=24, n_users=14, hotspots=3, hotspot_spread_m=600.0, departure_window_s=900.0
        ),
        train_updates=0,
        tolerance=ToleranceProfile(tau0=400.0, kappa=3.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestSweep:
    def test_cell_count_and_file_round_trip(self, tmp_path):
        cfg = small_sweep_config()
        s_values = [0.0, 0.5, 1.0]
        objectives = [Objective.DISTANCE, Objective.VEHICLE]
        cells = sensitivity_sweep(cfg, s_values, objectives, runs_per_cell=2, seed=3)
        assert len(cells) == len(s_values) * len(objectives)
        path = tmp_path / "sweep.txt"
        write_sweep(cells, path)
        rows = read_sweep(path)
        assert len(rows) == len(cells) * 8
        by_key = {(r[0], r[1], r[2]): r[3] for r in rows}
        for cell in cells:
            for name, (mean, _) in cell.stats.items():
                assert by_key[(cell.objective.value, cell.s, name)] == pytest.approx(mean, rel=1e-8)

    def test_s_values_written_losslessly(self, tmp_path):
        s_values = [0.0, 0.123456789, 0.1234561, 0.1234562, 1.0]
        stats = {name: (1.0, 0.0) for name in METRIC_NAMES}
        path = tmp_path / "sweep.txt"
        write_sweep([SweepCell(Objective.DISTANCE, s, stats) for s in s_values], path)
        rows = read_sweep(path)
        assert [r[1] for r in rows[:: len(METRIC_NAMES)]] == s_values
        assert len(set(rows)) == len(rows)
        assert [line.split()[2] for line in path.read_text().splitlines()[:: len(METRIC_NAMES)]] == [
            "0",
            "0.123456789",
            "0.1234561",
            "0.1234562",
            "1",
        ]

    def test_sensitivity_zero_with_off_profile_matches_unfiltered_pipeline(self):
        from ridepool import pipeline

        cfg = small_sweep_config(tolerance=ToleranceProfile.off())
        cells = sensitivity_sweep(cfg, [0.0], [Objective.DISTANCE], runs_per_cell=1, seed=3)
        # reproduce the run the sweep performed, without any filtering
        run_cfg_seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
        from dataclasses import replace

        run_cfg = replace(cfg, seed=run_cfg_seed, objective=Objective.DISTANCE)
        net, trips = pipeline.generate_scenario(run_cfg)
        features = pipeline.embed_trips(trips, run_cfg)
        graph = pipeline.build_shareability_graph(net, trips, run_cfg.objective, run_cfg.constraints)
        solution = pipeline.match_scenario(graph, features, run_cfg)
        from ridepool import metrics as metrics_mod

        report = metrics_mod.compute_report(
            solution, metrics_mod.build_outcomes(solution, graph.trips, cfg.factors), cfg.factors
        )
        cell = cells[0]
        for name in metrics_mod.METRIC_NAMES:
            assert cell.stats[name][0] == pytest.approx(getattr(report, name), rel=1e-12)

    def test_penalty_retrains_each_cell_under_its_sensitivity(self):
        # with a social penalty the policy behind cell (objective, s) is trained
        # and decoded under the profile at s; rebuild each cell from the policy API
        from dataclasses import replace

        from ridepool import metrics as metrics_mod
        from ridepool import pipeline
        from ridepool.policy import RewardSpec, match_all, train
        from ridepool.shareability import build_shareability_graph

        cfg = small_sweep_config(train_updates=2, social_penalty_weight=1000.0, capacity=3)
        cells = sensitivity_sweep(cfg, [0.0, 1.0], [Objective.DISTANCE], runs_per_cell=1, seed=1)
        run_cfg = replace(cfg, seed=int(np.random.SeedSequence([1, 0]).generate_state(1)[0]))
        net, trips = pipeline.generate_scenario(run_cfg)
        features = pipeline.embed_trips(trips, run_cfg)
        draws = {t.trip_id: float(np.random.default_rng([1, 0, t.trip_id]).random()) for t in trips}
        decoded = []
        for cell in cells:
            profile = cfg.tolerance.with_sensitivity(cell.s)
            spec = RewardSpec(cfg.social_penalty_weight, profile)
            graph = build_shareability_graph(net, trips, Objective.DISTANCE, cfg.constraints)
            params, _ = train(graph, features, spec, 3, cfg.ppo, cfg.train_updates, cfg.policy_hidden)
            solution = match_all(graph, features, params, spec, capacity=3)
            decoded.append(solution.groups)
            filtered = filter_with_draws(solution, graph, profile, draws)
            report = metrics_mod.compute_report(
                filtered, metrics_mod.build_outcomes(filtered, graph.trips, cfg.factors), cfg.factors
            )
            for name in METRIC_NAMES:
                assert cell.stats[name][0] == pytest.approx(getattr(report, name), rel=1e-12), (cell.s, name)
        assert decoded[0] != decoded[1]  # s reaches the decode, so the cells can tell a missed retrain

    def test_penalty_sweep_builds_one_graph_per_objective(self, monkeypatch):
        # the graph depends on the objective only, so retraining per s reuses
        # it; the routed pairs depend on neither, so each run routes them once
        from ridepool import shareability
        from ridepool import tolerance as tolerance_mod

        route_groups, weigh_pairs = shareability._route_groups, tolerance_mod.weigh_pairs
        routed, weighed = [], []

        def counted_route_groups(net, groups):
            routed.append([len(group) for group in groups])
            return route_groups(net, groups)

        def counted_weigh_pairs(routing, objective):
            weighed.append((routing, objective))
            return weigh_pairs(routing, objective)

        monkeypatch.setattr(shareability, "_route_groups", counted_route_groups)
        monkeypatch.setattr(tolerance_mod, "weigh_pairs", counted_weigh_pairs)
        cfg = small_sweep_config(social_penalty_weight=1000.0)
        sensitivity_sweep(cfg, [0.0, 0.5, 1.0], [Objective.DISTANCE, Objective.VEHICLE], runs_per_cell=2, seed=3)
        # one routing call per run, of pairs only: capacity 2 grows no larger group
        assert len(routed) == 2 and {size for sizes in routed for size in sizes} == {2}
        assert [objective for _, objective in weighed] == [Objective.DISTANCE, Objective.VEHICLE] * 2
        (first, _), (second, _), (third, _), (fourth, _) = weighed
        assert first is second and third is fourth and first is not third

    def test_sweep_grows_each_origin_tree_once(self, monkeypatch):
        # the runs differ only in their seed, so they share one network and its trees
        from ridepool.geo import RoadNetwork

        grow_trees = RoadNetwork._grow_trees
        grown = []

        def counted_grow_trees(net, sources):
            grown.extend((net, int(source)) for source in sources)
            return grow_trees(net, sources)

        monkeypatch.setattr(RoadNetwork, "_grow_trees", counted_grow_trees)
        cfg = small_sweep_config(capacity=3)
        sensitivity_sweep(cfg, [0.0, 1.0], list(Objective), runs_per_cell=3, seed=5)
        assert len({id(net) for net, _ in grown}) == 1
        sources = [source for _, source in grown]
        assert len(sources) == len(set(sources)) > 0

    def test_shared_network_and_routing_change_no_cell(self):
        # the reference draws each run on a fresh network and builds each
        # objective's graph from scratch; the sweep shares one network across
        # runs and one pair routing across a run's objectives
        from dataclasses import replace

        from ridepool import metrics as metrics_mod
        from ridepool import pipeline
        from ridepool.shareability import build_shareability_graph

        # at 3 m/s an edge takes 233.33... s, an inexact float, so a pair can
        # save no distance but a rounding error of time: the time objective
        # keeps it and the others drop it (asserted below); at seed 4 such a
        # pair is matched, so a time graph built on the distance graph's
        # kept pairs changes the time cells
        network = NetworkConfig(rows=5, cols=5, spacing_m=700.0, speed_mps=3.0)
        cfg = small_sweep_config(network=network, capacity=3, train_updates=1)
        s_values, objectives, seed, runs = [0.0, 1.0], list(Objective), 4, 2
        cells = sensitivity_sweep(cfg, s_values, objectives, runs_per_cell=runs, seed=seed)

        samples = {(obj, s): {name: [] for name in METRIC_NAMES} for obj in objectives for s in s_values}
        time_only = 0
        for run in range(runs):
            run_cfg = replace(cfg, seed=int(np.random.SeedSequence([seed, run]).generate_state(1)[0]))
            net, trips = pipeline.generate_scenario(run_cfg)
            features = pipeline.embed_trips(trips, run_cfg)
            draws = {t.trip_id: float(np.random.default_rng([seed, run, t.trip_id]).random()) for t in trips}
            for obj in objectives:
                graph = build_shareability_graph(net, trips, obj, run_cfg.constraints)
                if obj is Objective.TIME:
                    distance_graph = build_shareability_graph(net, trips, Objective.DISTANCE, run_cfg.constraints)
                    time_only += len(set(graph.edges) - set(distance_graph.edges))
                solution = pipeline.match_scenario(graph, features, run_cfg)
                for s in s_values:
                    filtered = filter_with_draws(solution, graph, cfg.tolerance.with_sensitivity(s), draws)
                    outcomes = metrics_mod.build_outcomes(filtered, graph.trips, cfg.factors)
                    report = metrics_mod.compute_report(filtered, outcomes, cfg.factors)
                    for name in METRIC_NAMES:
                        samples[(obj, s)][name].append(getattr(report, name))
        expected = [
            SweepCell(obj, s, {name: (float(np.mean(v)), float(np.std(v))) for name, v in samples[(obj, s)].items()})
            for obj in objectives
            for s in s_values
        ]
        assert time_only > 0
        assert cells == expected

    def test_carpooling_rate_non_increasing_in_s(self):
        cfg = small_sweep_config()
        cells = sensitivity_sweep(cfg, [0.0, 1.0], [Objective.DISTANCE], runs_per_cell=4, seed=11)
        rate = {cell.s: cell.stats["carpooling_rate"][0] for cell in cells}
        assert rate[1.0] <= rate[0.0]

    def test_bad_arguments_rejected(self):
        cfg = small_sweep_config()
        with pytest.raises(ValueError):
            sensitivity_sweep(cfg, [0.0, 2.0], [Objective.DISTANCE], 1, seed=0)
        with pytest.raises(ValueError):
            sensitivity_sweep(cfg, [0.0], [Objective.DISTANCE], 0, seed=0)
