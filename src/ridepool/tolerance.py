"""Rider tolerance to pooling delay under social-distancing sensitivity.

The acceptance probability decays exponentially in delay, amplified by the
sensitivity `s`:

    T(delay) = exp(-(delay / tau0) * (1 + kappa * s))

so T(0) = 1, and raising either delay or s lowers acceptance.  A profile with
tau0 = inf accepts everything and serves as the "tolerance off" baseline.
"""

import math

from dataclasses import dataclass, replace

import numpy as np

from . import metrics as metrics_mod
from .baselines import MatchingSolution, solution_for
from .shareability import route_pairs, weigh_pairs


@dataclass(frozen=True)
class ToleranceProfile:
    tau0: float = 900.0
    kappa: float = 2.0
    s: float = 0.0

    def __post_init__(self):
        if not self.tau0 > 0.0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {self.s}")

    @classmethod
    def off(cls):
        """Sentinel that accepts every delay with probability 1."""
        return cls(tau0=math.inf, kappa=0.0, s=0.0)

    def with_sensitivity(self, s):
        return replace(self, s=s)


def tolerance(delay, profile: ToleranceProfile) -> float:
    """Probability that a rider accepts `delay` seconds of extra time."""
    if delay < 0.0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    return math.exp(-(delay / profile.tau0) * (1.0 + profile.kappa * profile.s))


def rejection_cost(delays, profile: ToleranceProfile) -> float:
    """Expected number of rejecting riders: sum of (1 - T(delay_i))."""
    return sum(1.0 - tolerance(d, profile) for d in delays)


def filter_with_draws(solution, graph, profile: ToleranceProfile, draws) -> MatchingSolution:
    """Dissolve pooled groups whose riders reject their delays.

    `draws` maps trip_id -> a fixed uniform(0,1) value, so acceptance is
    monotone in the acceptance probability: common draws across sensitivity
    levels make the carpooling trend in s noise-free.  A group survives only
    if every rider's draw falls below their tolerance.  Delays are read from
    `graph`, the graph `solution` was matched on.
    """
    groups = []
    for group in solution.groups:
        route = graph.group_route(group)
        if len(group) == 1 or all(
            draws[tid] < tolerance(max(0.0, route.per_rider_delay[tid]), profile) for tid in group
        ):
            groups.append(group)
        else:
            groups.extend((tid,) for tid in group)
    return solution_for(graph, groups)


@dataclass(frozen=True)
class SweepCell:
    """Mean/stddev of every report metric for one (objective, s) setting."""

    objective: "Objective"
    s: float
    stats: dict  # metric name -> (mean, stddev)


def sensitivity_sweep(scenario, s_values, objectives, runs_per_cell, seed) -> list:
    """Matching quality across social-distance sensitivity levels.

    For each run a fresh seeded demand is drawn, matched once per objective,
    then filtered at every s with common per-trip draws; each (objective, s)
    cell reports the mean and stddev of all metrics over runs.  The runs
    differ only in their seed, so they share one `grid_network` and its
    shortest-path trees.  Each run routes its pairs once (`route_pairs`),
    and each (run, objective) builds one graph from that routing
    (`weigh_pairs`); when the reward's social penalty weight is positive
    the policy is retrained on it per cell because s then feeds back into
    training.
    """
    from . import pipeline  # pipeline imports this module
    from .scenario import grid_network, routed_demand  # so does scenario

    s_values = list(s_values)
    objectives = list(objectives)
    if not all(0.0 <= s <= 1.0 for s in s_values):
        raise ValueError("s_values must lie in [0, 1]")
    if runs_per_cell < 1:
        raise ValueError("runs_per_cell must be >= 1")

    net = grid_network(scenario)
    samples = {(obj, s): {name: [] for name in metrics_mod.METRIC_NAMES} for obj in objectives for s in s_values}
    for run in range(runs_per_cell):
        run_cfg = replace(scenario, seed=int(np.random.SeedSequence([seed, run]).generate_state(1)[0]))
        trips = routed_demand(run_cfg, net)
        features = pipeline.embed_trips(trips, run_cfg)
        draws = {
            t.trip_id: float(np.random.default_rng([seed, run, t.trip_id]).random()) for t in trips
        }
        routing = graph = solution = None  # drops the last run's before this run's are built
        routing = route_pairs(net, trips, run_cfg.constraints)
        for obj in objectives:
            graph = solution = None  # drops the last objective's graph before the next is built
            graph = weigh_pairs(routing, obj)
            for s in s_values:
                profile = scenario.tolerance.with_sensitivity(s)
                if solution is None or scenario.social_penalty_weight > 0.0:
                    cell_cfg = replace(run_cfg, tolerance=profile, tolerance_enabled=True)
                    solution = pipeline.match_scenario(graph, features, cell_cfg)
                filtered = filter_with_draws(solution, graph, profile, draws)
                report = metrics_mod.compute_report(
                    filtered,
                    metrics_mod.build_outcomes(filtered, graph.trips, scenario.factors),
                    scenario.factors,
                )
                for name in metrics_mod.METRIC_NAMES:
                    samples[(obj, s)][name].append(getattr(report, name))

    cells = []
    for obj in objectives:
        for s in s_values:
            stats = {}
            for name in metrics_mod.METRIC_NAMES:
                values = np.array(samples[(obj, s)][name], dtype=np.float64)
                stats[name] = (float(values.mean()), float(values.std()))
            cells.append(SweepCell(objective=obj, s=s, stats=stats))
    return cells


def format_s(s):
    """Shortest `:g` spelling of a sensitivity when it reads back exactly,
    else the full repr."""
    short = f"{s:g}"
    return short if float(short) == s else repr(s)


def write_sweep(cells, path):
    """`S <objective> <s> <metric> <mean> <stddev>` rows, one per metric per cell."""
    with open(path, "w") as fh:
        for cell in cells:
            for name, (mean, std) in cell.stats.items():
                fh.write(f"S {cell.objective.value} {format_s(cell.s)} {name} {mean:.9g} {std:.9g}\n")
