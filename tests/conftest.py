import collections
import heapq
import math

import numpy as np
import pytest

from ridepool.geo import Route, build_grid_network, great_circle_distance, read_records
from ridepool.shareability import (
    Objective,
    ShareabilityEdge,
    ShareabilityGraph,
    SharedRoute,
    TripRequest,
    make_trip,
)


@pytest.fixture
def line_net():
    """1x4 line, 1000 m spacing, 10 m/s."""
    return build_grid_network(1, 4, 1000.0, 10.0)


@pytest.fixture
def grid3():
    """3x3 grid, 1000 m spacing, 10 m/s."""
    return build_grid_network(3, 3, 1000.0, 10.0)


def trip_on(net, trip_id, origin_node, dest_node, departure=0.0, user_id=None):
    """Trip whose request points sit exactly on network nodes."""
    return make_trip(
        net,
        trip_id,
        trip_id if user_id is None else user_id,
        net.nodes[origin_node],
        net.nodes[dest_node],
        departure,
    )


def snap_oracle(net, p):
    """Scalar scan over every node: nearest by haversine, ties to the lowest id."""
    return min(net.nodes, key=lambda nid: (great_circle_distance(p, net.nodes[nid]), nid))


def full_dijkstra(edges, directed, origin):
    """Distance and time by node id of one uninterrupted Dijkstra run from
    `origin`, for the nodes it reaches: nodes settle by (distance, id), and
    each node's neighbours are relaxed by (id, length, time), so a node's
    time comes from the first settled predecessor reaching its final
    distance, over the fastest of equal-length parallel edges."""
    near = collections.defaultdict(list)
    for u, v, length, time in edges:
        near[u].append((v, length, time))
        if not directed:
            near[v].append((u, length, time))
    dist, time, done = {origin: 0.0}, {origin: 0.0}, set()
    heap = [(0.0, origin)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, length, t in sorted(near[u]):
            if d + length < dist.get(v, math.inf):
                dist[v], time[v] = d + length, time[u] + t
                heapq.heappush(heap, (d + length, v))
    return dist, time


def stub_route(distance=1000.0, time=100.0):
    return Route(distance=distance, time=time)


def stub_trip(trip_id, user_id=None, departure=0.0, distance=1000.0):
    """Detached trip for graph-topology tests (no network behind it)."""
    from ridepool.geo import GeoPoint

    return TripRequest(
        trip_id=trip_id,
        user_id=trip_id if user_id is None else user_id,
        origin=0,
        dest=1,
        origin_point=GeoPoint(0.0, 0.0),
        dest_point=GeoPoint(0.01, 0.01),
        desired_departure=departure,
        solo_route=stub_route(distance=distance),
    )


def stub_shared(a, b, total_distance):
    return SharedRoute(
        ordering=(("P", a), ("P", b), ("D", a), ("D", b)),
        total_distance=total_distance,
        total_time=total_distance / 10.0,
        per_rider_delay={a: 0.0, b: 0.0},
        per_rider_detour={a: 0.0, b: 0.0},
    )


def weighted_graph(edge_weights, n_trips=None, objective=Objective.DISTANCE):
    """Synthetic shareability graph from {(a, b): weight} topology alone.

    There is no network to route on, so the graph's route cache is seeded
    with a stub route per edge, the route `group_route` returns for it."""
    ids = {t for pair in edge_weights for t in pair}
    n = max(ids) + 1 if ids else 0
    if n_trips is not None:
        n = max(n, n_trips)
    trips = [stub_trip(i) for i in range(n)]
    routes = {(a, b): stub_shared(a, b, 1000.0) for a, b in sorted(edge_weights)}
    edges = [
        ShareabilityEdge(a, b, float(edge_weights[(a, b)]), route.total_distance, route.total_time)
        for (a, b), route in routes.items()
    ]
    graph = ShareabilityGraph(net=None, trips=trips, edges=edges, objective=objective)
    graph._routes.update((tuple(sorted(pair)), route) for pair, route in routes.items())
    return graph


def random_weighted_graph(rng, n_trips=8, edge_prob=0.4, max_weight=100.0):
    edge_weights = {}
    for a in range(n_trips):
        for b in range(a + 1, n_trips):
            if rng.random() < edge_prob:
                edge_weights[(a, b)] = float(rng.uniform(0.1, max_weight))
    return weighted_graph(edge_weights, n_trips=n_trips)


def scenario_instance(seed, n_trips=8, rows=4, cols=4, spacing=800.0, user_mod=5,
                      departure_span=300.0, objective=Objective.DISTANCE):
    """Seeded routed instance: network, trips, and shareability graph."""
    from ridepool.shareability import build_shareability_graph

    net = build_grid_network(rows, cols, spacing, 10.0)
    rng = np.random.default_rng(seed)
    trips = []
    for tid in range(n_trips):
        while True:
            o, d = rng.integers(rows * cols, size=2)
            if o != d:
                break
        trips.append(
            make_trip(
                net,
                tid,
                tid % user_mod,
                net.nodes[int(o)],
                net.nodes[int(d)],
                float(rng.uniform(0.0, departure_span)),
            )
        )
    return net, trips, build_shareability_graph(net, trips, objective)


def features_for(trips, dim=4, layers=2, seed=0, cell=0.01):
    from ridepool.embedding import EmbeddingConfig, compute_user_features, grid_covering

    grid = grid_covering([p for t in trips for p in (t.origin_point, t.dest_point)], cell)
    return compute_user_features(trips, grid, EmbeddingConfig(dim=dim, layers=layers, init_seed=seed))


def read_sweep(path) -> list:
    """The rows of a `write_sweep` file: (objective, s, metric, mean, stddev)."""
    return read_records(path, "sweep", {"S": 6}, lambda f: (f[1], float(f[2]), f[3], float(f[4]), float(f[5])))
