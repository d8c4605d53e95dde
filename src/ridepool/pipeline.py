"""End-to-end pipeline stages behind the CLI.

Each stage reads the flat-file artifacts of earlier stages and writes its
own, so `gen -> graph -> embed -> train -> match -> evaluate` is fully
file-driven; `sweep` runs in memory.  All stages rewrite the run manifest
(config echo + version + seed) and are byte-deterministic for a fixed config.

One `run_pipeline` call parses each input artifact at most once: its
`RunArtifacts` parses `network.txt`, `trips.txt`, `graph.txt`, `features.txt`
and `policy.txt` the first time a stage asks and hands the same objects to
every later stage, so one `RoadNetwork` (and its shortest-path trees) serves
the whole call and each origin's tree is grown once, whole, with the other
new origins of the same bulk query.
A call that builds the graph parses no `graph.txt`, and a call that trains
parses no checkpoint: `stage_graph` hands later stages the graph that
`graph.txt` reads back to, and `stage_train` hands `match` its parameters, the
very floats that `policy.txt` reads back to.
`gen` snaps the drawn demand but routes nothing: `trips.txt` holds no route.
Every artifact is written by one stage that precedes all of its readers in
`STAGES`, so a parse is never stale.  Separate stage calls (`ridepool graph`,
then `ridepool embed`, ...) each parse their inputs anew.
"""

import functools
import os

import numpy as np

from . import __version__
from . import baselines
from . import embedding as embedding_mod
from . import metrics as metrics_mod
from . import policy as policy_mod
from . import tolerance as tolerance_mod
from .geo import read_network, read_records, write_network
from .scenario import ScenarioConfig, config_to_ini, draw_demand, generate_scenario, grid_network, validate_config
from .shareability import (
    Objective,
    build_shareability_graph,
    read_graph,
    read_trips,
    route_pairs,
    weigh_pairs,
    write_graph,
    write_trips,
)

NETWORK_FILE = "network.txt"
TRIPS_FILE = "trips.txt"
GRAPH_FILE = "graph.txt"
FEATURES_FILE = "features.txt"
POLICY_FILE = "policy.txt"
MATCHING_FILE = "matching.txt"
REPORT_CSV_FILE = "metrics.csv"
REPORT_JSON_FILE = "report.json"
SWEEP_FILE = "sweep.txt"
MANIFEST_FILE = "manifest.txt"

STAGES = ("gen", "graph", "embed", "train", "match", "evaluate", "sweep")


def _artifact(out_dir, name, producer):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing artifact {path}; run `ridepool {producer}` first")
    return path


def write_manifest(cfg: ScenarioConfig, out_dir):
    with open(os.path.join(out_dir, MANIFEST_FILE), "w") as fh:
        fh.write(f"# ridepool {__version__} run manifest\n")
        fh.write(f"# seed = {cfg.seed}\n\n")
        fh.write(config_to_ini(cfg))


def embed_trips(trips, cfg: ScenarioConfig):
    """User features over a grid sized to cover every trip endpoint."""
    points = [p for t in trips for p in (t.origin_point, t.dest_point)]
    grid = embedding_mod.grid_covering(points, cfg.grid_cell_deg)
    return embedding_mod.compute_user_features(trips, grid, cfg.embedding)


def reward_spec(cfg: ScenarioConfig) -> policy_mod.RewardSpec:
    return policy_mod.RewardSpec(cfg.social_penalty_weight, cfg.active_tolerance())


def train_scenario(graph, features, cfg: ScenarioConfig):
    spec = reward_spec(cfg)
    params, history = policy_mod.train(
        graph,
        features,
        spec,
        capacity=cfg.capacity,
        cfg=cfg.ppo,
        n_updates=cfg.train_updates,
        hidden=cfg.policy_hidden,
    )
    return params, history


def match_scenario(graph, features, cfg: ScenarioConfig):
    """Train per config on `graph` and greedy-decode a matching of it."""
    params, _ = train_scenario(graph, features, cfg)
    return policy_mod.match_all(graph, features, params, reward_spec(cfg), capacity=cfg.capacity)


def write_matching(solution, path):
    """`M <group_id> <trip_id,...> <total_distance_m> <total_time_s>`."""
    with open(path, "w") as fh:
        for gid, group in enumerate(solution.groups):
            route = solution.routes[group]
            ids = ",".join(str(t) for t in group)
            fh.write(f"M {gid} {ids} {route.total_distance:.6f} {route.total_time:.6f}\n")


def read_matching(path, graph, capacity):
    """The groups of `write_matching`: each trip of `graph` once, in groups of
    at most `capacity`, each routed on `graph` as it is read, its totals
    those of its route as `%.6f` writes them.  A bad or unroutable group, or
    one whose totals disagree, names its line; trips left out, the file."""
    grouped = set()

    def parse(fields):
        group = tuple(int(t) for t in fields[2].split(","))
        if len(group) > capacity:
            raise ValueError(f"group {group} exceeds capacity {capacity}")
        for tid in group:
            if tid not in graph.trips:
                raise KeyError(tid)
            if tid in grouped:
                raise ValueError(f"trip {tid} is already in a group")
            grouped.add(tid)
        route = graph.group_route(group)
        expected = (f"{route.total_distance:.6f}", f"{route.total_time:.6f}")
        if [float(v) for v in fields[3:5]] != [float(v) for v in expected]:
            raise ValueError(
                f"group {group} has distance and time {fields[3]} {fields[4]}, but its route's are {' '.join(expected)}"
            )
        return group

    groups = read_records(path, "matching", {"M": 5}, parse)
    missing = sorted(set(graph.trips) - grouped)
    if missing:
        raise ValueError(f"{path}: no group for trips {missing}")
    return groups


class RunArtifacts:
    """The parsed input artifacts of one `run_pipeline` call.

    Each is parsed from `out_dir` the first time a stage asks for it and kept
    for the rest of the call; nothing outlives the call.  A stage that writes
    `graph.txt` or `policy.txt` sets `graph` or `policy` to what that file
    reads back to, so neither is parsed in a call that wrote it.  Stages share
    these objects, so they read them and never modify them.
    """

    def __init__(self, cfg: ScenarioConfig, out_dir):
        self.cfg = cfg
        self.out_dir = out_dir

    @functools.cached_property
    def net(self):
        return read_network(_artifact(self.out_dir, NETWORK_FILE, "gen"))

    @functools.cached_property
    def trips(self):
        return read_trips(_artifact(self.out_dir, TRIPS_FILE, "gen"), self.net)

    @functools.cached_property
    def graph(self):
        return read_graph(_artifact(self.out_dir, GRAPH_FILE, "graph"), self.net, self.trips, self.cfg.objective)

    @functools.cached_property
    def features(self):
        path = _artifact(self.out_dir, FEATURES_FILE, "embed")
        features = embedding_mod.read_features(path)
        missing = sorted({t.user_id for t in self.trips} - set(features))
        if missing:
            raise ValueError(f"{path}: no row for users {missing}")
        return features

    @functools.cached_property
    def policy(self):
        path = _artifact(self.out_dir, POLICY_FILE, "train")
        params = policy_mod.read_policy(path)
        width = len(next(iter(self.features.values())))
        if params.w_hidden.shape[0] != policy_mod.input_width(width):
            raise ValueError(
                f"{path}: input width {params.w_hidden.shape[0]} does not fit features of width {width}"
                f" (expected {policy_mod.input_width(width)})"
            )
        return params


def stage_gen(cfg: ScenarioConfig, out_dir, artifacts: RunArtifacts):
    net = grid_network(cfg)
    draws = draw_demand(cfg, net)  # trips.txt holds no route, so none is computed
    write_network(net, os.path.join(out_dir, NETWORK_FILE))
    write_trips(draws, os.path.join(out_dir, TRIPS_FILE))


def stage_graph(cfg: ScenarioConfig, out_dir, artifacts: RunArtifacts):
    graph = build_shareability_graph(artifacts.net, artifacts.trips, cfg.objective, cfg.constraints)
    artifacts.graph = write_graph(graph, os.path.join(out_dir, GRAPH_FILE))  # what `read_graph` would rebuild


def stage_embed(cfg: ScenarioConfig, out_dir, artifacts: RunArtifacts):
    features = embed_trips(artifacts.trips, cfg)
    embedding_mod.write_features(features, os.path.join(out_dir, FEATURES_FILE))


def stage_train(cfg: ScenarioConfig, out_dir, artifacts: RunArtifacts):
    params, _ = train_scenario(artifacts.graph, artifacts.features, cfg)
    policy_mod.write_policy(params, os.path.join(out_dir, POLICY_FILE))
    artifacts.policy = params  # its `.17g` records read back to exactly these floats


def stage_match(cfg: ScenarioConfig, out_dir, artifacts: RunArtifacts):
    graph, features = artifacts.graph, artifacts.features
    solution = policy_mod.match_all(graph, features, artifacts.policy, reward_spec(cfg), capacity=cfg.capacity)
    if cfg.tolerance_enabled:
        rng = np.random.default_rng([cfg.seed, 7001])  # separate stream from demand/training
        draws = {tid: rng.random() for tid in sorted(graph.trips)}
        solution = tolerance_mod.filter_with_draws(solution, graph, cfg.active_tolerance(), draws)
    write_matching(solution, os.path.join(out_dir, MATCHING_FILE))


def stage_evaluate(cfg: ScenarioConfig, out_dir, artifacts: RunArtifacts):
    artifacts.trips  # a missing trips file is named before a missing matching, and that before a missing graph
    groups = read_matching(_artifact(out_dir, MATCHING_FILE, "match"), artifacts.graph, cfg.capacity)
    graph = artifacts.graph
    solution = baselines.solution_for(graph, groups)
    outcomes = metrics_mod.build_outcomes(solution, graph.trips, cfg.factors)
    report = metrics_mod.compute_report(solution, outcomes, cfg.factors)
    metrics_mod.write_report_csv(report, os.path.join(out_dir, REPORT_CSV_FILE))
    metrics_mod.write_report_json(report, os.path.join(out_dir, REPORT_JSON_FILE))
    return report


def stage_sweep(cfg: ScenarioConfig, out_dir, artifacts: RunArtifacts):
    cells = tolerance_mod.sensitivity_sweep(
        cfg,
        s_values=cfg.sweep_s_values,
        objectives=cfg.sweep_objectives,
        runs_per_cell=cfg.sweep_runs_per_cell,
        seed=cfg.seed,
    )
    tolerance_mod.write_sweep(cells, os.path.join(out_dir, SWEEP_FILE))
    return cells


_STAGE_FUNCS = {
    "gen": stage_gen,
    "graph": stage_graph,
    "embed": stage_embed,
    "train": stage_train,
    "match": stage_match,
    "evaluate": stage_evaluate,
    "sweep": stage_sweep,
}


def run_pipeline(cfg: ScenarioConfig, out_dir, stages):
    """Run the named stages in pipeline order, writing the manifest once and
    parsing each input artifact at most once."""
    validate_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(cfg, out_dir)
    order = [s for s in STAGES if s in stages]
    if not order:
        raise ValueError(f"no valid stages in {stages}")
    artifacts = RunArtifacts(cfg, out_dir)
    for name in order:
        _STAGE_FUNCS[name](cfg, out_dir, artifacts)


def objective_report(cfg: ScenarioConfig, objectives=None):
    """One evaluation per objective on a common scenario, for side-by-side
    comparison of the indicator patterns."""
    objectives = objectives or [Objective.DISTANCE, Objective.TIME, Objective.VEHICLE]
    net, trips = generate_scenario(cfg)
    features = embed_trips(trips, cfg)
    routing = route_pairs(net, trips, cfg.constraints)
    reports = {}
    for objective in objectives:
        graph = weigh_pairs(routing, objective)
        solution = match_scenario(graph, features, cfg)
        outcomes = metrics_mod.build_outcomes(solution, graph.trips, cfg.factors)
        reports[objective] = metrics_mod.compute_report(solution, outcomes, cfg.factors)
    return reports


def format_objective_report(reports) -> str:
    """Indicator x objective table in plain text."""
    objectives = list(reports)
    header = "indicator".ljust(18) + "".join(o.value.rjust(14) for o in objectives)
    lines = [header]
    for name in metrics_mod.METRIC_NAMES:
        row = name.ljust(18) + "".join(f"{getattr(reports[o], name):14.4f}" for o in objectives)
        lines.append(row)
    return "\n".join(lines)
