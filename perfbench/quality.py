"""Output checks and matching-quality metrics for one captured run.

The capacity-2 optimum comes from ``networkx.max_weight_matching``; networkx
is imported only here, so the program itself stays numpy-only.
"""

import math

import networkx as nx

from ridepool import baselines, metrics

VALUE_TOLERANCE = 1e-9


def pair_optimum(graph) -> float:
    """Exact maximum-weight matching value over the graph's pair edges."""
    g = nx.Graph()
    g.add_nodes_from(graph.trips)
    for (a, b), edge in graph.edges.items():
        g.add_edge(a, b, weight=edge.weight)
    pairs = sorted(tuple(sorted(p)) for p in nx.max_weight_matching(g))
    return sum(graph.edges[p].weight for p in pairs)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def evaluate_capture(capture, capacity):
    """Check every captured matching and report; return (quality, problems).

    quality holds value_vs_pair_opt (mean over policy matchings), greedy_vs_opt,
    carpool_rate and vkm_saved_frac (means over indicator reports).
    """
    problems = []
    value_ratios, greedy_ratios = [], []
    if not capture.matchings:
        problems.append("the run produced no policy matching")
    if not capture.reports:
        problems.append("the run produced no indicator report")

    for index, (graph, solution, cap) in enumerate(capture.matchings):
        where = f"matching {index}"
        try:
            baselines.check_partition(graph, solution.groups, capacity=cap)
            for group in solution.groups:
                graph.group_route(group)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed check
            problems.append(f"{where}: {exc}")
            continue
        value = baselines.matching_value(graph, solution.groups)
        optimum = pair_optimum(graph)
        if cap == 2 and value > optimum + VALUE_TOLERANCE:
            problems.append(f"{where}: capacity-2 value {value!r} exceeds the optimum {optimum!r}")
        if optimum > 0.0:
            value_ratios.append(value / optimum)
            greedy_ratios.append(baselines.greedy_matching(graph).objective_value / optimum)

    carpool, vkm_saved = [], []
    for index, (solution, outcomes, report) in enumerate(capture.reports):
        where = f"report {index}"
        values = report.as_dict()
        bad = sorted(name for name, v in values.items() if not math.isfinite(v))
        if bad or len(values) != len(metrics.METRIC_NAMES):
            problems.append(f"{where}: indicators not finite: {bad}")
        trip_ids = [tid for group in solution.groups for tid in group]
        if sorted(trip_ids) != sorted(o.trip_id for o in outcomes) or len(set(trip_ids)) != len(trip_ids):
            problems.append(f"{where}: groups do not partition the trips")
        oversize = [g for g in solution.groups if len(g) > capacity]
        unrouted = [g for g in solution.groups if not solution.routes or g not in solution.routes]
        if oversize or unrouted:
            problems.append(f"{where}: groups over capacity {oversize[:3]} or unrouted {unrouted[:3]}")
            continue
        solo_m = sum(o.solo_distance for o in outcomes)
        carpool.append(report.carpooling_rate)
        vkm_saved.append(1.0 - metrics.vehicle_km(solution) / solo_m if solo_m > 0.0 else 0.0)

    quality = {
        "value_vs_pair_opt": _mean(value_ratios),
        "greedy_vs_opt": _mean(greedy_ratios),
        "carpool_rate": _mean(carpool),
        "vkm_saved_frac": _mean(vkm_saved),
    }
    return quality, problems
