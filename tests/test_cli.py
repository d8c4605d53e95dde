import collections
import configparser
import json
import math
import os
import re
import subprocess
import sys

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridepool import embedding, pipeline, policy
from ridepool.cli import main
from ridepool.geo import RoadNetwork, read_network
from ridepool.metrics import METRIC_NAMES
from ridepool.scenario import (
    _SCHEMA,
    ConfigError,
    DemandConfig,
    NetworkConfig,
    ScenarioConfig,
    config_to_ini,
    generate_scenario,
    load_config,
    with_overrides,
)
from ridepool.shareability import Objective, read_graph, read_trips

from conftest import read_sweep

SMALL_CONFIG = """
[network]
rows = 5
cols = 5
spacing_m = 600

[demand]
n_trips = 20
n_users = 12
hotspots = 3
hotspot_spread_m = 500
departure_window_s = 900

[run]
seed = 7
train_updates = 3

[embedding]
dim = 6
layers = 2

[ppo]
hidden = 16

[sweep]
s_values = 0, 1.0
objectives = distance
runs_per_cell = 1
"""


@pytest.fixture
def small_cfg():
    return load_config(text=SMALL_CONFIG)


class TestScenarioGeneration:
    def test_config_with_zero_trips_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "zero.ini"
        cfg_path.write_text("[demand]\nn_trips = 0\n")
        out = tmp_path / "run"
        assert run_cli(["all", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "config error: demand.n_trips must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_identical(self, small_cfg):
        _, t1 = generate_scenario(small_cfg)
        _, t2 = generate_scenario(small_cfg)
        assert [(t.trip_id, t.user_id, t.origin, t.dest, t.desired_departure) for t in t1] == [
            (t.trip_id, t.user_id, t.origin, t.dest, t.desired_departure) for t in t2
        ]

    def test_different_seed_differs(self, small_cfg):
        from dataclasses import replace

        _, t1 = generate_scenario(small_cfg)
        _, t2 = generate_scenario(replace(small_cfg, seed=small_cfg.seed + 1))
        assert [(t.origin, t.dest) for t in t1] != [(t.origin, t.dest) for t in t2]

    def test_zero_spread_puts_origins_on_hotspots(self):
        cfg = ScenarioConfig(
            network=NetworkConfig(rows=4, cols=4, spacing_m=800.0),
            demand=DemandConfig(n_trips=12, n_users=6, hotspots=3, hotspot_spread_m=0.0),
            seed=5,
        )
        net, trips = generate_scenario(cfg)
        hotspot_nodes = {t.origin for t in trips} | {t.dest for t in trips}
        assert len(hotspot_nodes) <= 3
        for t in trips:
            node = net.nodes[t.origin]
            assert t.origin_point == node

    def test_trip_endpoints_distinct(self, small_cfg):
        _, trips = generate_scenario(small_cfg)
        assert all(t.origin != t.dest for t in trips)

    def test_each_drawn_point_is_snapped_once(self, small_cfg, monkeypatch):
        snapped = collections.Counter()
        snap = RoadNetwork.snap_to_node

        def counted(net, point):
            snapped[point] += 1
            return snap(net, point)

        monkeypatch.setattr(RoadNetwork, "snap_to_node", counted)
        _, trips = generate_scenario(small_cfg)
        assert {p for t in trips for p in (t.origin_point, t.dest_point)} <= set(snapped)
        assert max(snapped.values()) == 1


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = ScenarioConfig()
        assert cfg.objective is Objective.DISTANCE
        assert cfg.constraints.radius_m == 3000.0
        assert cfg.constraints.max_departure_gap_s == 600.0

    def test_unknown_key_names_field(self):
        with pytest.raises(ConfigError, match="demand.n_tripz"):
            load_config(text="[demand]\nn_tripz = 5\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="weather"):
            load_config(text="[weather]\nrain = yes\n")

    def test_invalid_value_names_field(self):
        with pytest.raises(ConfigError, match="demand.n_trips"):
            load_config(text="[demand]\nn_trips = many\n")

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="network.spacing_m"):
            load_config(text="[network]\nspacing_m = -5\n")

    def test_seed_flows_into_embedding_and_ppo(self):
        cfg = load_config(text="[run]\nseed = 99\n")
        assert cfg.embedding.init_seed == 99
        assert cfg.ppo.seed == 99

    def test_overrides(self, small_cfg):
        cfg = with_overrides(small_cfg, seed=123, objective="vehicle")
        assert cfg.seed == 123
        assert cfg.embedding.init_seed == 123
        assert cfg.ppo.seed == 123
        assert cfg.objective is Objective.VEHICLE

    def test_objective_parse_error(self):
        with pytest.raises(ConfigError, match="objective"):
            load_config(text="[run]\nobjective = fastest\n")

    def test_bool_accepts_configparser_spellings(self):
        for raw, value in configparser.ConfigParser.BOOLEAN_STATES.items():
            for spelling in (raw, raw.upper(), raw.capitalize()):
                cfg = load_config(text=f"[tolerance]\nenabled = {spelling}\n")
                assert cfg.tolerance_enabled is value

    def test_bad_bool_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="tolerance.enabled"):
            load_config(text="[tolerance]\nenabled = maybe\n")
        path = tmp_path / "run.ini"
        path.write_text("[tolerance]\nenabled = maybe\n")
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, raw",
        [
            ("constraints", "radius_m", "nan"),
            ("constraints", "max_departure_gap_s", "nan"),
            ("demand", "departure_window_s", "inf"),
            ("demand", "hotspot_spread_m", "inf"),
            ("network", "spacing_m", "inf"),
            ("tolerance", "kappa", "inf"),
            ("tolerance", "tau0_s", "nan"),
            ("sweep", "s_values", "0, nan"),
        ],
    )
    def test_non_finite_value_names_field(self, section, key, raw, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {section}.{key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[ppo]\nrollouts_per_update = 0\n", "ppo: rollouts_per_update"),
            ("[ppo]\nrollouts_per_update = -3\n", "ppo: rollouts_per_update"),
            ("[ppo]\nepochs_per_update = 0\n", "ppo: epochs_per_update"),
            ("[ppo]\nepochs_per_update = -1\n", "ppo: epochs_per_update"),
            ("[ppo]\nlearning_rate = 0\n", "ppo: learning_rate"),
            ("[ppo]\nlearning_rate = -1\n", "ppo: learning_rate"),
            ("[network]\nanchor_lat = 95\n", "network.anchor_lat"),
            ("[network]\nanchor_lat = -90.5\n", "network.anchor_lat"),
            ("[network]\nanchor_lat = 89.99\nrows = 40\n", "network.anchor_lat"),
            ("[network]\nanchor_lon = -181\n", "network.anchor_lon"),
            ("[network]\nanchor_lon = 179.99\n", "network.anchor_lon"),
            ("[network]\nanchor_lat = 89.99\nrows = 1\n", "network.anchor_lon"),  # columns widen near the pole
            ("[run]\nseed = -3\n", "run.seed must be >= 0, got -3"),
        ],
    )
    def test_out_of_range_value_names_field(self, text, field, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[demand]\nn_trips = 12\nn_users = 6\n" + text)
        assert run_cli(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_names_field(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[demand]\nn_trips = 12\nn_users = 6\n")
        assert run_cli(["all", "--config", str(path), "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert "config error: run.seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[network]\nanchor_lon = 179.95\n",  # 9 steps of 500 m east end just inside 180
            "[network]\nanchor_lat = -90\nanchor_lon = 180\ncols = 1\n",
            "[network]\nanchor_lat = 89.95\ncols = 1\n",
        ],
    )
    def test_grid_inside_the_range_is_accepted(self, text):
        assert load_config(text=text).network.rows == 10

    def test_inf_means_no_limit(self):
        cfg = load_config(text="[constraints]\nradius_m = inf\nmax_departure_gap_s = inf\n[tolerance]\ntau0_s = inf\n")
        assert (cfg.constraints.radius_m, cfg.constraints.max_departure_gap_s, cfg.tolerance.tau0) == (math.inf,) * 3
        assert load_config(text=config_to_ini(cfg)) == cfg

    def test_missing_section_header_names_line(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^<string>:1: no \[section\] header before 'rows = 5'$"):
            load_config(text="rows = 5\n")
        path = tmp_path / "run.ini"
        path.write_text("rows = 5\n")
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}:1: no [section] header" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_key_names_line(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^<string>:3: duplicate key run.seed$"):
            load_config(text="[run]\nseed = 1\nseed = 2\n")
        path = tmp_path / "run.ini"
        path.write_text("[network]\nrows = 5\n\n[run]\nseed = 1\nseed = 2\n")
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}:6: duplicate key run.seed" in capsys.readouterr().err

    def test_repeated_section_and_bad_line_name_line(self):
        with pytest.raises(ConfigError, match=r"^<string>:3: duplicate section \[run\]$"):
            load_config(text="[run]\nseed = 1\n[run]\n")
        with pytest.raises(ConfigError, match=r"^<string>:2: cannot parse line 'seed\\n'$"):
            load_config(text="[run]\nseed\n")
        with pytest.raises(ConfigError, match=r"^run.seed: '%' must be followed"):
            load_config(text="[run]\nseed = 5%\n")

    def test_schema_names_every_leaf_field_once(self):
        default = ScenarioConfig()
        leaves = []
        for f in fields(default):
            value = getattr(default, f.name)
            if is_dataclass(value):
                leaves.extend(f"{f.name}.{sub.name}" for sub in fields(value))
            else:
                leaves.append(f.name)
        derived_from_seed = {"embedding.init_seed", "ppo.seed"}
        assert sorted(path for _, _, path, _ in _SCHEMA) == sorted(set(leaves) - derived_from_seed)
        assert len({(section, key) for section, key, _, _ in _SCHEMA}) == len(_SCHEMA)

    def test_round_trip_defaults(self):
        cfg = ScenarioConfig()
        assert load_config(text=config_to_ini(cfg)) == cfg

    @given(
        s_values=st.lists(st.floats(0.0, 1.0), max_size=6),
        objectives=st.lists(st.sampled_from(list(Objective)), max_size=3),
        objective=st.sampled_from(list(Objective)),
        seed=st.integers(0, 2**63),
        capacity=st.integers(2, 4),
        enabled=st.booleans(),
        spacing_m=st.floats(1.0, 1e4),
    )
    def test_round_trip_drawn(self, s_values, objectives, objective, seed, capacity, enabled, spacing_m):
        default = ScenarioConfig()
        cfg = replace(
            default,
            network=replace(default.network, spacing_m=spacing_m),
            objective=objective,
            capacity=capacity,
            tolerance_enabled=enabled,
            sweep_s_values=tuple(s_values),
            sweep_objectives=tuple(objectives),
        )
        cfg = with_overrides(cfg, seed=seed)
        assert load_config(text=config_to_ini(cfg)) == cfg


def run_cli(args):
    return main(list(args))


class TestPipeline:
    def test_all_on_fifty_trips_produces_parseable_artifacts(self, tmp_path):
        cfg = load_config(
            text=SMALL_CONFIG.replace("n_trips = 20", "n_trips = 50").replace(
                "n_users = 12", "n_users = 30"
            )
        )
        out = tmp_path / "run"
        pipeline.run_pipeline(cfg, str(out), pipeline.STAGES)
        net = read_network(out / pipeline.NETWORK_FILE)
        trips = read_trips(out / pipeline.TRIPS_FILE, net)
        assert len(trips) == 50
        small_cfg = cfg
        graph = read_graph(out / pipeline.GRAPH_FILE, net, trips, small_cfg.objective)
        assert len(graph.trips) == len(trips)
        from ridepool.embedding import read_features
        from ridepool.policy import read_policy

        features = read_features(out / pipeline.FEATURES_FILE)
        assert {t.user_id for t in trips} <= set(features)
        read_policy(out / pipeline.POLICY_FILE)
        groups = pipeline.read_matching(out / pipeline.MATCHING_FILE, graph, small_cfg.capacity)
        assert sorted(t for g in groups for t in g) == sorted(graph.trips)
        rows = [line.split(",") for line in (out / pipeline.REPORT_CSV_FILE).read_text().splitlines()]
        assert [name for name, _ in rows] == list(METRIC_NAMES)
        assert all(math.isfinite(float(value)) for _, value in rows)
        assert set(json.loads((out / pipeline.REPORT_JSON_FILE).read_text())) == set(METRIC_NAMES)
        rows = read_sweep(out / pipeline.SWEEP_FILE)
        assert len(rows) == 2 * 1 * 8  # two s values, one objective, eight metrics
        manifest = (out / pipeline.MANIFEST_FILE).read_text()
        assert "seed = 7" in manifest

    def test_evaluate_without_match_names_missing_file(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        pipeline.run_pipeline(small_cfg, str(out), ("gen", "graph"))
        code = run_cli(["evaluate", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert pipeline.MATCHING_FILE in err

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[demand]\nn_trips = -3\n")
        assert run_cli(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        missing = tmp_path / "nope.ini"
        assert run_cli(["gen", "--config", str(missing), "--out", str(tmp_path / "x")]) == 1

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only bad input exits 2; a bug inside a stage keeps its traceback
        def broken(cfg, out_dir, artifacts):
            raise TypeError("bug")

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "gen", broken)
        with pytest.raises(TypeError, match="bug"):
            run_cli(["gen", "--out", str(tmp_path / "out")])

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert run_cli(["gen", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {tmp_path}: Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[run]\nseed = \xff\n")
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_gen_and_graph(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "run"
        assert run_cli(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert run_cli(["graph", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / pipeline.GRAPH_FILE).exists()

    def test_objective_override_changes_graph(self, small_cfg, tmp_path):
        out_d = tmp_path / "dist"
        out_v = tmp_path / "veh"
        pipeline.run_pipeline(small_cfg, str(out_d), ("gen", "graph"))
        cfg_v = with_overrides(small_cfg, objective="vehicle")
        pipeline.run_pipeline(cfg_v, str(out_v), ("gen", "graph"))
        dist_lines = (out_d / pipeline.GRAPH_FILE).read_text().splitlines()
        veh_lines = (out_v / pipeline.GRAPH_FILE).read_text().splitlines()
        assert any(line.split()[3] == "2.000000" for line in veh_lines)
        assert len(dist_lines) >= len(veh_lines)  # vehicle keeps distance-saving pairs only

    def test_full_run_determinism(self, small_cfg, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        pipeline.run_pipeline(small_cfg, str(out1), pipeline.STAGES)
        pipeline.run_pipeline(small_cfg, str(out2), pipeline.STAGES)
        files1 = sorted(os.listdir(out1))
        assert files1 == sorted(os.listdir(out2))
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_tolerance_enabled_filters_matching(self, tmp_path):
        text = SMALL_CONFIG + "\n[tolerance]\nenabled = true\ntau0_s = 60\nkappa = 3\ns = 1.0\n"
        cfg = load_config(text=text)
        out = tmp_path / "run"
        pipeline.run_pipeline(cfg, str(out), ("gen", "graph", "embed", "train", "match"))
        trip_ids = range(cfg.demand.n_trips)
        groups = pipeline.read_matching(
            out / pipeline.MATCHING_FILE, pipeline.RunArtifacts(cfg, str(out)).graph, cfg.capacity
        )
        assert sorted(t for g in groups for t in g) == list(trip_ids)

    def test_module_entrypoint_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "ridepool", "gen", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / pipeline.NETWORK_FILE).exists()


CAPACITY3_TOLERANCE_CONFIG = SMALL_CONFIG.replace("[run]\n", "[run]\ncapacity = 3\n") + (
    "\n[tolerance]\nenabled = true\ntau0_s = 900\n"
)


class TestMalformedArtifacts:
    @pytest.mark.parametrize(
        "name, lineno, edit, command",
        [
            (pipeline.TRIPS_FILE, 3, lambda f: " ".join(f[:2] + ["x1"] + f[3:]), "graph"),
            (pipeline.POLICY_FILE, 1, lambda f: " ".join(f[:-1]), "match"),
            (pipeline.GRAPH_FILE, 2, lambda f: " ".join(f[:2] + ["99"] + f[3:]), "match"),
            (pipeline.TRIPS_FILE, 4, lambda f: " ".join(f[:7] + ["nan"]), "graph"),
            (pipeline.TRIPS_FILE, 5, lambda f: " ".join(f[:7] + ["inf"]), "graph"),
            (pipeline.FEATURES_FILE, 2, lambda f: " ".join(f[:2] + ["nan"] + f[3:]), "train"),
            (pipeline.FEATURES_FILE, 3, lambda f: " ".join(f[:-1] + ["inf"]), "match"),
        ],
        ids=[
            "trip-user-id",
            "truncated-policy",
            "graph-unknown-trip",
            "nan-departure",
            "inf-departure",
            "nan-feature",
            "inf-feature",
        ],
    )
    def test_bad_record_exits_2_naming_file_and_line(self, name, lineno, edit, command, tmp_path, capsys):
        cfg_path, out = self.trained_run(tmp_path)
        lines = (out / name).read_text().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1].split())
        (out / name).write_text("\n".join(lines) + "\n")
        assert run_cli([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"{name}:{lineno}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, extra, command",
        [
            (pipeline.TRIPS_FILE, lambda f: f, "graph"),
            (pipeline.GRAPH_FILE, lambda f: f, "match"),
            (pipeline.GRAPH_FILE, lambda f: [f[0], f[2], f[1]] + f[3:], "match"),
            (pipeline.POLICY_FILE, lambda f: f, "match"),
            (pipeline.POLICY_FILE, lambda f: ["P", "foo", "0", "1.0"], "match"),
            (pipeline.NETWORK_FILE, lambda f: f[:2] + ["5.0", "5.0"], "graph"),
        ],
        ids=[
            "repeated-trip",
            "repeated-edge",
            "repeated-edge-reversed",
            "repeated-array",
            "unknown-array",
            "repeated-node",
        ],
    )
    def test_extra_record_exits_2_naming_file_and_line(self, name, extra, command, tmp_path, capsys):
        # `extra` turns the file's first record into the record appended at its end
        cfg_path, out = self.trained_run(tmp_path)
        lines = (out / name).read_text().splitlines()
        lines.append(" ".join(extra(lines[0].split())))
        (out / name).write_text("\n".join(lines) + "\n")
        assert run_cli([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"{name}:{len(lines)}: " in capsys.readouterr().err

    def test_nan_edge_length_exits_2_naming_the_edge(self, tmp_path, capsys):
        cfg_path, out = self.trained_run(tmp_path)
        path = out / pipeline.NETWORK_FILE
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("E "))
        tag, u, v, _, time = lines[at].split()
        lines[at] = f"{tag} {u} {v} nan {time}"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["graph", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"edge ({u}, {v}) has length nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda u, v, length, time: f"E {u} 9999 {length} {time}", "unknown id 9999"),
            (lambda u, v, length, time: f"E {u} {v} nan {time}", "edge ({u}, {v}) has length nan"),
            (lambda u, v, length, time: f"E {u} {v} {length} 0", "edge ({u}, {v}) has travel time 0.0"),
        ],
        ids=["unknown-node", "nan-length", "zero-time"],
    )
    def test_bad_edge_exits_2_naming_file_and_line(self, edit, message, tmp_path, capsys):
        cfg_path, out = self.trained_run(tmp_path)
        path = out / pipeline.NETWORK_FILE
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("E "))
        _, u, v, length, time = lines[at].split()
        lines[at] = edit(u, v, length, time)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["graph", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{pipeline.NETWORK_FILE}:{at + 1}: " in err
        assert message.format(u=u, v=v) in err

    def test_features_missing_a_user_names_the_file(self, tmp_path, capsys):
        cfg_path, out = self.trained_run(tmp_path)
        path = out / pipeline.FEATURES_FILE
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        assert run_cli(["match", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: {path}: no row for users [" in capsys.readouterr().err

    def test_policy_too_short_for_its_hidden_layer_names_the_line(self, tmp_path, capsys):
        cfg_path, out = self.trained_run(tmp_path)
        path = out / pipeline.POLICY_FILE
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("P w_logit "))
        tag, name, ndim, size, *values = lines[at].split()
        lines[at] = " ".join([tag, name, ndim, str(int(size) - 1)] + values[:-1])
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["match", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{pipeline.POLICY_FILE}:{at + 1}: " in err
        assert f"array 'w_logit' has hidden width {int(size) - 1}, but 'w_hidden' has {size}" in err

    def test_policy_for_other_features_names_the_file(self, tmp_path, capsys):
        # features re-embedded at another width after training
        cfg_path, out = self.trained_run(tmp_path)
        wide = tmp_path / "wide.ini"
        wide.write_text(SMALL_CONFIG.replace("dim = 6", "dim = 8"))
        assert run_cli(["embed", "--config", str(wide), "--out", str(out)]) == 0
        assert run_cli(["match", "--config", str(cfg_path), "--out", str(out)]) == 2
        width = len((out / pipeline.FEATURES_FILE).read_text().split("\n", 1)[0].split()) - 2
        trained = (out / pipeline.POLICY_FILE).read_text().split()[3]  # w_hidden's first dimension
        expected = f"input width {trained} does not fit features of width {width} (expected {2 * width + 2})"
        assert f"error: {out / pipeline.POLICY_FILE}: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: lines + lines[:1],
                "{name}:{last}: bad matching record: trip {first[0]} is already in a group",
            ),
            (
                lambda lines: lines[:-1] + ["M 0 999 0 0"],
                "{name}:{last}: matching record names an unknown id 999",
            ),
            (
                lambda lines: ["M 0 0,1,2 0 0"],
                "{name}:1: bad matching record: group (0, 1, 2) exceeds capacity 2",
            ),
            (lambda lines: lines[1:], "{path}: no group for trips {first}"),
        ],
        ids=["repeated-line", "unknown-trip", "oversize-group", "missing-line"],
    )
    def test_bad_matching_names_file_or_line(self, edit, message, tmp_path, capsys):
        cfg_path, out = self.trained_run(tmp_path)
        assert run_cli(["match", "--config", str(cfg_path), "--out", str(out)]) == 0
        path = out / pipeline.MATCHING_FILE
        lines = path.read_text().splitlines()
        first = sorted(int(t) for t in lines[0].split()[2].split(","))
        lines = edit(lines)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 2
        expected = message.format(name=pipeline.MATCHING_FILE, path=path, last=len(lines), first=first)
        assert expected in capsys.readouterr().err

    @staticmethod
    def trained_run(tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "run"
        pipeline.run_pipeline(load_config(cfg_path), str(out), ("gen", "graph", "embed", "train"))
        return cfg_path, out


class TestUnroutableRecords:
    """A network of two components, {0, 1} and {2, 3}: a record that needs a
    route between them exits 2 naming its file and line."""

    NETWORK = "N 0 0.0 0.0\nN 1 0.0 0.01\nN 2 0.05 0.0\nN 3 0.05 0.01\nE 0 1 1000.0 100.0\nE 2 3 1000.0 100.0\n"
    POINTS = {0: "0.0 0.0", 1: "0.0 0.01", 2: "0.05 0.0", 3: "0.05 0.01"}

    def write_run(self, tmp_path, trips, graph=None):
        out = tmp_path / "run"
        out.mkdir()
        (out / pipeline.NETWORK_FILE).write_text(self.NETWORK)
        (out / pipeline.TRIPS_FILE).write_text(
            "".join(f"T {tid} {tid} {self.POINTS[o]} {self.POINTS[d]} 0.000\n" for tid, o, d in trips)
        )
        if graph is not None:
            (out / pipeline.GRAPH_FILE).write_text("".join(f"G {a} {b} 1.000000 0.0 0.0\n" for a, b in graph))
        return out

    def test_trip_without_a_solo_route_names_its_line(self, tmp_path, capsys):
        out = self.write_run(tmp_path, [(0, 0, 1), (1, 2, 3), (2, 0, 3)])
        assert run_cli(["graph", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{pipeline.TRIPS_FILE}:3: " in err
        assert "no route from node 0 to node 3" in err

    def test_graph_pair_with_an_unreachable_leg_names_its_line(self, tmp_path, capsys):
        out = self.write_run(tmp_path, [(0, 0, 1), (1, 2, 3), (2, 1, 0)], graph=[(0, 2), (1, 0)])
        # a comment and a blank line before the bad record are lines too
        path = out / pipeline.GRAPH_FILE
        routable, bad = path.read_text().splitlines(keepends=True)
        path.write_text(routable + "# pairs\n\n" + bad)
        assert run_cli(["train", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{pipeline.GRAPH_FILE}:4: " in err
        assert "no route from node 0 to node 2" in err

    def test_matching_group_with_an_unreachable_leg_names_its_line(self, tmp_path, capsys):
        out = self.write_run(tmp_path, [(0, 0, 1), (1, 2, 3), (2, 1, 0)], graph=[])
        # a comment and a blank line before the bad record are lines too
        (out / pipeline.MATCHING_FILE).write_text("M 0 2 1000.000000 100.000000\n# groups\n\nM 1 0,1 0.0 0.0\n")
        assert run_cli(["evaluate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{pipeline.MATCHING_FILE}:4: matching record cannot be routed: " in err
        assert "no route from node 0 to node 2" in err

    @pytest.mark.parametrize(
        "record, totals",
        [("M 1 1 5.0 100.0", "5.0 100.0"), ("M 1 1 1000.0 7.0", "1000.0 7.0")],
        ids=["distance", "time"],
    )
    def test_matching_totals_that_disagree_with_the_route_name_the_line(self, record, totals, tmp_path, capsys):
        # group (0, 2) drives 0 -> 1 -> 0: 2 000 m in 200 s; trip 1 alone 1 000 m in 100 s
        out = self.write_run(tmp_path, [(0, 0, 1), (1, 2, 3), (2, 1, 0)], graph=[(0, 2)])
        path = out / pipeline.MATCHING_FILE
        path.write_text("M 0 0,2 2000.000000 200.000000\n# groups\n\nM 1 1 1000 100.0\n")
        assert run_cli(["evaluate", "--out", str(out)]) == 0  # the same numbers, spelled otherwise
        path.write_text(f"M 0 0,2 2000.000000 200.000000\n# groups\n\n{record}\n")
        assert run_cli(["evaluate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            f"{pipeline.MATCHING_FILE}:4: bad matching record: group (1,) has distance and time {totals}, "
            "but its route's are 1000.000000 100.000000"
        ) in err


class TestVanishingEdge:
    """From node 0 every other node lies 1e20 m away, and a 1 m edge adds
    nothing to that distance: which node settles first would set the times."""

    NETWORK = (
        "N 0 0.0 0.0\nN 1 0.0 0.01\nN 2 0.0 0.02\nN 5 0.0 0.05\n"
        "E 0 5 100000000000000000000.000000 1.000000\nE 5 1 1.000000 10.000000\n"
        "E 5 2 1.000000 20.000000\nE 2 1 1.000000 300.000000\n"
    )

    def test_graph_exits_2_naming_the_edge(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / pipeline.NETWORK_FILE).write_text(self.NETWORK)
        (out / pipeline.TRIPS_FILE).write_text("T 0 0 0.0 0.0 0.0 0.01 0.000\nT 1 1 0.0 0.01 0.0 0.02 0.000\n")
        assert run_cli(["graph", "--out", str(out)]) == 2
        expected = "error: edge (1, 2) of length 1.0 adds nothing to the 1e+20 m path to node 1 from node 0"
        assert expected in capsys.readouterr().err


def read_dir(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


class TestRunArtifacts:
    @pytest.mark.parametrize(
        "text", [SMALL_CONFIG, CAPACITY3_TOLERANCE_CONFIG], ids=["capacity2", "capacity3-tolerance"]
    )
    def test_all_matches_separate_stage_calls_and_stale_directory(self, text, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text)
        common = ["--config", str(cfg_path), "--out"]
        assert run_cli(["all", *common, str(tmp_path / "all")]) == 0
        for stage in pipeline.STAGES:
            assert run_cli([stage, *common, str(tmp_path / "stages")]) == 0
        assert run_cli(["all", "--seed", "8", *common, str(tmp_path / "stale")]) == 0
        other_seed = read_dir(tmp_path / "stale")
        assert run_cli(["all", *common, str(tmp_path / "stale")]) == 0
        expected = read_dir(tmp_path / "all")
        assert read_dir(tmp_path / "stages") == expected
        assert read_dir(tmp_path / "stale") == expected
        assert other_seed[pipeline.TRIPS_FILE] != expected[pipeline.TRIPS_FILE]

    def test_one_run_parses_each_artifact_once(self, small_cfg, tmp_path, monkeypatch):
        calls = collections.Counter()

        def counted(module, name):
            original = getattr(module, name)

            def reader(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, reader)

        for name in ("read_network", "read_trips", "read_graph"):
            counted(pipeline, name)
        counted(embedding, "read_features")
        dijkstra_runs = count_dijkstra_runs(monkeypatch)
        pipeline.run_pipeline(small_cfg, str(tmp_path / "run"), pipeline.STAGES)
        # `graph` hands later stages the graph that graph.txt reads back to
        assert calls == {"read_network": 1, "read_trips": 1, "read_features": 1}
        # every network of the run, the sweep's in-memory ones included
        assert dijkstra_runs and max(dijkstra_runs.values()) == 1

    def test_a_run_that_starts_at_train_parses_the_graph_once(self, small_cfg, tmp_path, monkeypatch):
        out = str(tmp_path / "run")
        pipeline.run_pipeline(small_cfg, out, ("gen", "graph", "embed"))
        reads, read_graph = [], pipeline.read_graph

        def counted(path, *args):
            reads.append(str(path))
            return read_graph(path, *args)

        monkeypatch.setattr(pipeline, "read_graph", counted)
        pipeline.run_pipeline(small_cfg, out, ("train", "match", "evaluate"))
        assert reads == [os.path.join(out, pipeline.GRAPH_FILE)]

    def test_train_hands_its_parameters_to_match(self, small_cfg, tmp_path, monkeypatch):
        reads = count_policy_reads(monkeypatch)
        pipeline.run_pipeline(small_cfg, str(tmp_path / "run"), pipeline.STAGES)
        assert reads == []

    @pytest.mark.parametrize("separate", [False, True], ids=["run_pipeline", "cli"])
    def test_match_only_call_reads_the_checkpoint(self, separate, tmp_path, monkeypatch):
        cfg_path, out = TestMalformedArtifacts.trained_run(tmp_path)
        path = out / pipeline.POLICY_FILE

        def match():
            reads = count_policy_reads(monkeypatch)
            if separate:
                assert run_cli(["match", "--config", str(cfg_path), "--out", str(out)]) == 0
            else:
                pipeline.run_pipeline(load_config(cfg_path), str(out), ["match"])
            monkeypatch.undo()
            assert reads == [str(path)]
            return pipeline.read_matching(
                out / pipeline.MATCHING_FILE, pipeline.RunArtifacts(load_config(cfg_path), str(out)).graph, 2
            )

        assert max(len(g) for g in match()) == 2
        # a checkpoint whose stop logit outweighs every candidate: nobody pools
        policy.write_policy(replace(policy.read_policy(path), stop_logit=np.array(1e6)), path)
        assert max(len(g) for g in match()) == 1

    def test_match_only_call_names_a_checkpoint_of_another_width(self, tmp_path):
        cfg_path, out = TestMalformedArtifacts.trained_run(tmp_path)
        wide = load_config(text=SMALL_CONFIG.replace("dim = 6", "dim = 8"))
        path = re.escape(str(out / pipeline.POLICY_FILE))
        with pytest.raises(ValueError, match=rf"^{path}: input width \d+ does not fit features of width"):
            pipeline.run_pipeline(wide, str(out), ["embed", "match"])

    def test_gen_runs_no_dijkstra(self, small_cfg, tmp_path, monkeypatch):
        dijkstra_runs = count_dijkstra_runs(monkeypatch)
        pipeline.run_pipeline(small_cfg, str(tmp_path / "run"), ["gen"])
        assert not dijkstra_runs
        run = tmp_path / "run"
        assert len(read_trips(run / pipeline.TRIPS_FILE, read_network(run / pipeline.NETWORK_FILE))) == 20


def count_policy_reads(monkeypatch):
    """The path of every checkpoint parse, in call order."""
    reads, read_policy = [], policy.read_policy

    def counted(path):
        reads.append(str(path))
        return read_policy(path)

    monkeypatch.setattr(policy, "read_policy", counted)
    return reads


def count_dijkstra_runs(monkeypatch):
    """Counter of shortest-path trees grown per (network, origin), over every
    network; a tree is grown whole and kept.  The networks are kept alive so
    their ids stay unique."""
    runs, networks = collections.Counter(), []
    grow_trees = RoadNetwork._grow_trees

    def counted_grow_trees(net, sources):
        networks.append(net)
        runs.update((id(net), source) for source in sources.tolist())
        return grow_trees(net, sources)

    monkeypatch.setattr(RoadNetwork, "_grow_trees", counted_grow_trees)
    return runs


class TestObjectiveReport:
    def test_three_objective_report_shape(self, small_cfg):
        reports = pipeline.objective_report(small_cfg)
        assert set(reports) == {Objective.DISTANCE, Objective.TIME, Objective.VEHICLE}
        table = pipeline.format_objective_report(reports)
        for name in METRIC_NAMES:
            assert name in table
