"""Shareability graph over trip requests.

Trips are nodes.  Two trips are joined when they pass the social proximity
gate (origins and destinations each within a radius of one another) and the
departure-gap gate, and pooling them actually saves something.  Edge weights
depend on the build objective:

* ``vehicle``  - every kept edge weighs 2 (one pooled ride covers two trips);
* ``distance`` - meters saved: solo_a + solo_b - shared;
* ``time``     - seconds saved, same shape.

A pair and a group of 3 or 4 riders are routed by one rule: the shortest stop
order in which each pickup comes before its own dropoff and the vehicle never
runs empty between the first pickup and the last dropoff; ties go to the first
such order in lexicographic stop order (pickups by trip id, then dropoffs).
Groups of 3 and 4 are searched depth first (``_cheapest_order``).  The graph
build and ``read_graph`` route all their pairs in one bulk pass
(``_route_pairs``): every pair's eight legs are read at once and the first
shortest of its four allowed orders wins, the same route, bit for bit, that
the search gives one pair at a time (``best_shared_route``).
"""

import bisect
import logging
import math

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geo import (
    GeoPoint,
    NoRouteError,
    RoadNetwork,
    Route,
    great_circle_distance,
    great_circle_distances,
    read_records,
    with_slack,
)

log = logging.getLogger(__name__)

DEFAULT_RADIUS_M = 3000.0
DEFAULT_MAX_DEPARTURE_GAP_S = 600.0


class Objective(str, Enum):
    VEHICLE = "vehicle"
    DISTANCE = "distance"
    TIME = "time"

    @classmethod
    def from_string(cls, name):
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown objective {name!r}; expected one of distance, time, vehicle"
            ) from None


@dataclass(frozen=True)
class PairingConstraints:
    radius_m: float = DEFAULT_RADIUS_M
    max_departure_gap_s: float = DEFAULT_MAX_DEPARTURE_GAP_S

    def __post_init__(self):
        if self.radius_m <= 0.0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")
        if self.max_departure_gap_s < 0.0:
            raise ValueError(f"max_departure_gap_s must be >= 0, got {self.max_departure_gap_s}")


@dataclass(frozen=True)
class TripRequest:
    """One user's travel demand plus their cached solo route."""

    trip_id: int
    user_id: int
    origin: int
    dest: int
    origin_point: GeoPoint
    dest_point: GeoPoint
    desired_departure: float
    solo_route: Route

    def __post_init__(self):
        if self.origin == self.dest:
            raise ValueError(f"trip {self.trip_id}: both endpoints are node {self.origin}")
        if not math.isfinite(self.desired_departure):
            raise ValueError(f"trip {self.trip_id}: departure {self.desired_departure} is not finite")


def make_trip(net: RoadNetwork, trip_id, user_id, origin_point, dest_point, desired_departure):
    """Snap the request endpoints to the network and route the solo trip."""
    origin = net.snap_to_node(origin_point)
    dest = net.snap_to_node(dest_point)
    return TripRequest(
        trip_id=trip_id,
        user_id=user_id,
        origin=origin,
        dest=dest,
        origin_point=origin_point,
        dest_point=dest_point,
        desired_departure=float(desired_departure),
        solo_route=net.shortest_path(origin, dest),
    )


@dataclass(frozen=True)
class SharedRoute:
    """A vehicle route serving several riders' pickups and dropoffs.

    ``ordering`` holds ("P"|"D", trip_id) stops, for several riders in the
    shortest order with each pickup before its own dropoff and the vehicle
    never empty in between, ties to the first in lexicographic stop order.
    The vehicle leaves the first stop at the latest desired departure among
    its riders, so the earlier riders' wait shows up as delay.  Detour is
    in-vehicle distance minus the rider's solo distance; delay is door-to-door
    time (from their own desired departure) minus their solo time.
    """

    ordering: tuple
    total_distance: float
    total_time: float
    per_rider_delay: dict
    per_rider_detour: dict


@dataclass(frozen=True)
class ShareabilityEdge:
    trip_a: int
    trip_b: int
    weight: float
    shared: SharedRoute


def social_feasible(a: TripRequest, b: TripRequest, radius=DEFAULT_RADIUS_M) -> bool:
    """Both origin-origin and destination-destination within `radius` (inclusive)."""
    return (
        great_circle_distance(a.origin_point, b.origin_point) <= radius
        and great_circle_distance(a.dest_point, b.dest_point) <= radius
    )


def temporal_feasible(a: TripRequest, b: TripRequest, max_departure_gap=DEFAULT_MAX_DEPARTURE_GAP_S) -> bool:
    return abs(a.desired_departure - b.desired_departure) <= max_departure_gap


def _gated_pairs(trips, constraints: PairingConstraints):
    """The pairs of `trips` (sorted by id) that pass `social_feasible` and
    `temporal_feasible`, in ``itertools.combinations`` order.

    Pairs are shortlisted in bulk and each survivor is confirmed with the two
    scalar predicates.  In departure order, a binary search ends each trip's
    window at the last later departure within the gap plus a relative 1e-9
    and 1e-6 s of slack for rounding, so only the pairs in some window are
    ever held.  Of those, the pairs whose `great_circle_distances` between
    origins and between destinations are both within `with_slack` of the
    radius survive.
    """
    radius, gap = constraints.radius_m, constraints.max_departure_gap_s
    by_departure = sorted(range(len(trips)), key=lambda k: trips[k].desired_departure)
    departure = [trips[k].desired_departure for k in by_departure]
    ends = np.array(
        [bisect.bisect_right(departure, d + gap + 1e-9 * (abs(d) + gap) + 1e-6) for d in departure], dtype=np.intp
    )
    # position k in departure order pairs with positions k + 1 .. ends[k] - 1
    starts = np.arange(1, len(trips) + 1)
    counts = ends - starts
    by_departure = np.array(by_departure, dtype=np.intp)
    u = by_departure[np.repeat(starts - 1, counts)]
    v = by_departure[np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - starts, counts)]
    near = np.ones(len(u), dtype=bool)
    for end in ("origin_point", "dest_point"):
        lat = np.array([getattr(t, end).lat for t in trips])
        lon = np.array([getattr(t, end).lon for t in trips])
        cos_lat = np.cos(np.radians(lat))
        near &= great_circle_distances(lat[u], lon[u], cos_lat[u], lat[v], lon[v], cos_lat[v]) <= with_slack(radius)
    pairs = []
    for i, j in sorted((min(i, j), max(i, j)) for i, j in zip(u[near].tolist(), v[near].tolist())):
        a, b = trips[i], trips[j]
        if social_feasible(a, b, radius) and temporal_feasible(a, b, gap):
            pairs.append((a, b))
    return pairs


def _evaluate_order(trips_by_id, ordering, legs) -> SharedRoute:
    """Totals and per-rider delay/detour of a stop sequence, given the
    (distance, time) of each leg between consecutive stops, summed left to
    right from 0.0."""
    start = max(t.desired_departure for t in trips_by_id.values())
    cum_d = 0.0
    cum_t = 0.0
    at_pickup = {ordering[0][1]: 0.0}
    delay = {}
    detour = {}
    for (kind, tid), (d, t) in zip(ordering[1:], legs):
        cum_d += d
        cum_t += t
        if kind == "P":
            at_pickup[tid] = cum_d
        else:
            trip = trips_by_id[tid]
            detour[tid] = (cum_d - at_pickup[tid]) - trip.solo_route.distance
            delay[tid] = (start + cum_t) - trip.desired_departure - trip.solo_route.time
    return SharedRoute(
        ordering=tuple(ordering),
        total_distance=cum_d,
        total_time=cum_t,
        per_rider_delay=delay,
        per_rider_detour=detour,
    )


def best_shared_route(net: RoadNetwork, a: TripRequest, b: TripRequest) -> SharedRoute:
    """Shortest of the four orders that pick both riders up before either is
    dropped off (the ``_cheapest_order`` rule), whichever trip comes first."""
    return _cheapest_order(net, sorted((a, b), key=lambda t: t.trip_id))


# A pair's stops, a before b by trip id: 0 = P_a, 1 = P_b, 2 = D_a, 3 = D_b.
# Its four allowed orders in lexicographic stop order, and the eight legs they
# drive (the legs ``_cheapest_order`` routes for two riders).
_PAIR_ORDERS = ((0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2))
_PAIR_LEGS = ((0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 3), (3, 2))
_PAIR_ORDER_LEGS = tuple(tuple(_PAIR_LEGS.index(leg) for leg in zip(o, o[1:])) for o in _PAIR_ORDERS)


def _route_pairs(net: RoadNetwork, pairs):
    """The ``_cheapest_order`` routes of many pairs (a, b), a.trip_id <=
    b.trip_id, from their eight legs, read first and then summed in bulk.

    Returns `(errors, distance, time, routes)`: for each pair with a leg that
    has no route, in pair order, the NoRouteError ``best_shared_route`` raises
    for it (legs are read in the search's order); the winning order's total
    distance and time per pair, inf for a pair in `errors`; and `routes(ks)`,
    the ``SharedRoute`` of each pair index in `ks`, none of them in `errors`.
    The four orders' totals are the same left-to-right float sums the
    depth-first search forms, and ``np.argmin`` keeps the first minimum, its
    tie rule.
    """
    distance_time = net.distance_time
    dist, time, errors = [], [], {}
    for k, (a, b) in enumerate(pairs):
        stops = (a.origin, b.origin, a.dest, b.dest)
        for i, j in _PAIR_LEGS:
            try:
                d, t = distance_time(stops[i], stops[j])
            except NoRouteError as exc:
                errors.setdefault(k, exc)
                d = t = math.inf
            dist.append(d)
            time.append(t)
    leg_dist = np.array(dist, dtype=float).reshape(len(pairs), len(_PAIR_LEGS))
    leg_time = np.array(time, dtype=float).reshape(len(pairs), len(_PAIR_LEGS))
    total_dist = np.column_stack([(leg_dist[:, i] + leg_dist[:, j]) + leg_dist[:, k] for i, j, k in _PAIR_ORDER_LEGS])
    total_time = np.column_stack([(leg_time[:, i] + leg_time[:, j]) + leg_time[:, k] for i, j, k in _PAIR_ORDER_LEGS])
    best = np.argmin(total_dist, axis=1)
    rows = np.arange(len(pairs))
    routed = np.isfinite(leg_dist).all(axis=1)
    orders = best.tolist()

    def routes(ks):
        # legs are the floats `distance_time` returned, so no new float is made
        shared = []
        for k in ks:
            a, b = pairs[k]
            order = orders[k]
            stops = (("P", a.trip_id), ("P", b.trip_id), ("D", a.trip_id), ("D", b.trip_id))
            at = len(_PAIR_LEGS) * k
            shared.append(
                _evaluate_order(
                    {a.trip_id: a, b.trip_id: b},
                    tuple(stops[s] for s in _PAIR_ORDERS[order]),
                    [(dist[at + leg], time[at + leg]) for leg in _PAIR_ORDER_LEGS[order]],
                )
            )
        return shared

    return (
        errors,
        np.where(routed, total_dist[rows, best], math.inf),
        np.where(routed, total_time[rows, best], math.inf),
        routes,
    )


def _cheapest_order(net: RoadNetwork, trips) -> SharedRoute:
    """Route of 2..4 riders, sorted by trip id, in the shortest stop order in
    which each pickup comes before its own dropoff and the vehicle never runs
    empty between the first pickup and the last dropoff.

    Stop i < k is rider i's pickup and stop k + i its dropoff.  Orders are
    searched depth first over a stop-to-stop leg matrix in lexicographic
    index order (the order ``itertools.permutations`` yields), each total
    summed left to right from 0.0, the same float ``_evaluate_order`` gets.
    A prefix is dropped once its distance reaches the best total (legs are
    >= 0, so it cannot end strictly shorter) and only a strictly shorter
    total replaces the best, so ties go to the first order visited.  The
    winner's legs are read back from the matrix.
    """
    k = len(trips)
    n = 2 * k
    stops = [("P", t.trip_id) for t in trips] + [("D", t.trip_id) for t in trips]
    nodes = [t.origin for t in trips] + [t.dest for t in trips]
    # Route only the legs some allowed order drives: not i -> i, not D_i -> P_i
    # and, for a pair, no dropoff -> pickup (the vehicle would run empty).  So
    # this raises NoRouteError exactly when some allowed order cannot be driven.
    legs = [
        [
            (0.0, 0.0) if i == j or (j < k <= i and (k == 2 or i == j + k)) else net.distance_time(u, v)
            for j, v in enumerate(nodes)
        ]
        for i, u in enumerate(nodes)
    ]
    dist = [[d for d, _ in row] for row in legs]
    best_cost = math.inf
    best_order = None
    order = []
    placed = [False] * n

    def extend(row, cost, on_board):
        nonlocal best_cost, best_order
        if len(order) == n:
            best_cost, best_order = cost, tuple(order)
            return
        for stop in range(n):
            if placed[stop]:
                continue
            if stop >= k and (not placed[stop - k] or (on_board == 1 and len(order) < n - 1)):
                continue
            total = cost + row[stop]
            if total >= best_cost:
                continue
            placed[stop] = True
            order.append(stop)
            extend(dist[stop], total, on_board + (1 if stop < k else -1))
            order.pop()
            placed[stop] = False

    extend([0.0] * n, 0.0, 0)
    return _evaluate_order(
        {t.trip_id: t for t in trips},
        tuple(stops[i] for i in best_order),
        [legs[i][j] for i, j in zip(best_order, best_order[1:])],
    )


def route_for_group(net: RoadNetwork, trips) -> SharedRoute:
    """Best vehicle route for 1..4 riders: a singleton's solo route, else the
    ``_cheapest_order`` route of the riders sorted by trip id."""
    trips = sorted(trips, key=lambda t: t.trip_id)
    if len(trips) == 1:
        t = trips[0]
        return SharedRoute(
            ordering=(("P", t.trip_id), ("D", t.trip_id)),
            total_distance=t.solo_route.distance,
            total_time=t.solo_route.time,
            per_rider_delay={t.trip_id: 0.0},
            per_rider_detour={t.trip_id: 0.0},
        )
    if len(trips) > 4:
        raise ValueError(f"group routing supports at most 4 riders, got {len(trips)}")
    return _cheapest_order(net, trips)


def edge_weight(shared: SharedRoute, a: TripRequest, b: TripRequest, objective: Objective) -> float:
    if objective is Objective.VEHICLE:
        return 2.0
    if objective is Objective.DISTANCE:
        return a.solo_route.distance + b.solo_route.distance - shared.total_distance
    return a.solo_route.time + b.solo_route.time - shared.total_time


class ShareabilityGraph:
    """Trips plus the feasible, beneficial pairings between them."""

    def __init__(self, net: RoadNetwork, trips, edges, objective: Objective):
        self.net = net
        trips = list(trips)
        self.trips = {t.trip_id: t for t in sorted(trips, key=lambda t: t.trip_id)}
        if len(self.trips) != len(trips):
            raise ValueError("duplicate trip_id in graph")
        self.objective = objective
        self.edges = {}
        adjacency = {tid: [] for tid in self.trips}
        for e in edges:
            a, b = min(e.trip_a, e.trip_b), max(e.trip_a, e.trip_b)
            if a == b:
                raise ValueError(f"self edge on trip {a}")
            if a not in self.trips or b not in self.trips:
                raise ValueError(f"edge ({a}, {b}) references an unknown trip")
            self.edges[(a, b)] = e
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._adjacency = {tid: tuple(sorted(n)) for tid, n in adjacency.items()}
        self._group_routes = {}

    def neighbors(self, trip_id):
        return self._adjacency[trip_id]

    def edge(self, a, b):
        return self.edges.get((min(a, b), max(a, b)))

    def group_route(self, group) -> SharedRoute:
        key = tuple(sorted(group))
        route = self._group_routes.get(key)
        if route is None:
            if len(key) == 2 and key in self.edges:
                route = self.edges[key].shared
            else:
                route = route_for_group(self.net, [self.trips[t] for t in key])
            self._group_routes[key] = route
        return route

    def group_value(self, group) -> float:
        """Savings of pooling `group` under this graph's objective.

        Pairs joined by an edge are worth exactly that edge's weight; other
        groups are worth their solo totals, summed in trip id order, minus
        their shared route's.
        """
        key = tuple(sorted(group))
        if len(key) == 1:
            return 0.0
        if len(key) == 2 and key in self.edges:
            return self.edges[key].weight
        if self.objective is Objective.VEHICLE:
            return 2.0 * (len(key) - 1)
        route = self.group_route(key)
        trips = [self.trips[t] for t in key]
        if self.objective is Objective.DISTANCE:
            return sum(t.solo_route.distance for t in trips) - route.total_distance
        return sum(t.solo_route.time for t in trips) - route.total_time


def build_shareability_graph(
    net: RoadNetwork,
    trips,
    objective: Objective = Objective.DISTANCE,
    constraints: PairingConstraints = PairingConstraints(),
) -> ShareabilityGraph:
    """Evaluate every unordered trip pair through the feasibility gates.

    A pair becomes an edge only when it saves distance (vehicle objective) or
    has strictly positive savings weight (distance/time objectives); pairs
    that pool without saving anything are dropped in every objective.
    """
    trips = sorted(trips, key=lambda t: t.trip_id)
    if not trips:
        raise ValueError("cannot build a shareability graph without trips")
    pairs = _gated_pairs(trips, constraints)
    errors, distance, time, routes = _route_pairs(net, pairs)
    for k, exc in errors.items():
        log.warning("skipping pair (%s, %s): %s", pairs[k][0].trip_id, pairs[k][1].trip_id, exc)
    # -inf savings for the pairs in `errors`, so they are never kept
    if objective is Objective.TIME:
        saved = np.array([a.solo_route.time + b.solo_route.time for a, b in pairs], dtype=float) - time
    else:  # distance weights, and the vehicle objective's keep rule
        saved = np.array([a.solo_route.distance + b.solo_route.distance for a, b in pairs], dtype=float) - distance
    kept = np.flatnonzero(saved > 0.0).tolist()
    edges = [
        ShareabilityEdge(a.trip_id, b.trip_id, edge_weight(shared, a, b, objective), shared)
        for (a, b), shared in zip((pairs[k] for k in kept), routes(kept))
    ]
    return ShareabilityGraph(net, trips, edges, objective)


def write_trips(trips, path):
    """`T <trip_id> <user_id> <o_lat> <o_lon> <d_lat> <d_lon> <departure_s>`.

    No route is written, so `trips` may also be unrouted draws: anything with
    these fields."""
    with open(path, "w") as fh:
        for t in sorted(trips, key=lambda t: t.trip_id):
            fh.write(
                f"T {t.trip_id} {t.user_id} "
                f"{t.origin_point.lat:.10f} {t.origin_point.lon:.10f} "
                f"{t.dest_point.lat:.10f} {t.dest_point.lon:.10f} "
                f"{t.desired_departure:.3f}\n"
            )


def read_trips(path, net: RoadNetwork):
    """Parse trip records and re-snap/re-route them on `net`; a trip id may
    appear once."""
    seen = set()

    def parse(fields):
        trip_id = int(fields[1])
        if trip_id in seen:
            raise ValueError(f"a second record for trip {trip_id}")
        seen.add(trip_id)
        origin = GeoPoint(float(fields[3]), float(fields[4]))
        dest = GeoPoint(float(fields[5]), float(fields[6]))
        return make_trip(net, trip_id, int(fields[2]), origin, dest, float(fields[7]))

    return read_records(path, "trip", {"T": 8}, parse)


def write_graph(graph: ShareabilityGraph, path):
    """`G <trip_a> <trip_b> <weight> <shared_distance_m> <shared_time_s>`."""
    with open(path, "w") as fh:
        for (a, b), e in sorted(graph.edges.items()):
            fh.write(
                f"G {a} {b} {e.weight:.6f} {e.shared.total_distance:.6f} {e.shared.total_time:.6f}\n"
            )


def read_graph(path, net: RoadNetwork, trips, objective: Objective) -> ShareabilityGraph:
    """Rebuild a graph from exported edges.

    Shared routes are re-derived on the network in one bulk ``_route_pairs``
    call (the export keeps only the totals); the exported weight is kept as
    the edge weight.  A pair may appear once, in either order; a pair with no
    shared route raises NoRouteError naming its record's line.
    """
    by_id = {t.trip_id: t for t in trips}
    seen = set()
    # flat lists rather than a tuple per record: less stays alive while the
    # routes are built, which showed in peak memory
    ids, pairs, weights = [], [], []

    def parse(fields):
        a, b, weight = int(fields[1]), int(fields[2]), float(fields[3])
        pair = (min(a, b), max(a, b))
        if pair in seen:
            raise ValueError(f"a second record for the pair {a} {b}")
        seen.add(pair)
        ta, tb = by_id[a], by_id[b]
        pairs.append((ta, tb) if a <= b else (tb, ta))
        ids.append((a, b))
        weights.append(weight)

    read_records(path, "graph", {"G": 6}, parse)
    errors, _, _, routes = _route_pairs(net, pairs)
    if errors:
        k, exc = next(iter(errors.items()))  # the first record without a route
        lines = []
        read_records(path, "graph", {"G": 6}, lambda fields: None, lines)
        raise NoRouteError(f"{path}:{lines[k]}: graph record cannot be routed: {exc}") from exc
    edges = [ShareabilityEdge(a, b, w, route) for (a, b), w, route in zip(ids, weights, routes(range(len(pairs))))]
    return ShareabilityGraph(net, trips, edges, objective)
