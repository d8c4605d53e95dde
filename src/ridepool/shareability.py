"""Shareability graph over trip requests.

Trips are nodes.  Two trips are joined when they pass the social proximity
gate (origins and destinations each within a radius of one another) and the
departure-gap gate, and pooling them actually saves something.  The gate
compares the dot products of endpoint unit vectors with the cosine of the
radius in bulk; only pairs within ``geo.DOT_MARGIN`` of it are confirmed with
the scalar haversine.  Edge weights depend on the build objective:

* ``vehicle``  - every kept edge weighs 2 (one pooled ride covers two trips);
* ``distance`` - meters saved: solo_a + solo_b - shared;
* ``time``     - seconds saved, same shape.

Groups of 2, 3 and 4 riders are routed by one rule and one router
(``_route_groups``): the shortest stop order in which each pickup comes
before its own dropoff and the vehicle never runs empty between the first
pickup and the last dropoff; ties go to the first such order in
lexicographic stop order (pickups by trip id, then dropoffs).  The allowed
orders of k riders (4, 60 or 1 776) are listed once per process, the
distances of all groups' legs are read in one ``RoadNetwork.distances``
gather, every order's total is compared in bulk, and times are read, in one
``RoadNetwork.times`` call, for the winning orders' legs alone.  The graph
build routes its gated pairs in one call (`route_pairs`), before an
objective weighs them (`weigh_pairs`), so several objectives' graphs share
one routing; ``read_graph`` routes all its pairs in one call, ``read_trips``
snaps all its trips in one product and routes all its solo trips in one
call, and ``ShareabilityGraph.route_groups`` routes all the grown groups of
one policy decision.  The router returns one record per group (``_Routing``: the
winning order, its legs, their totals); an edge holds only the totals, and
the graph caches each record and builds the group's `SharedRoute` from it
the first time ``group_route`` reads it.
"""

import bisect
import copy
import functools
import logging
import math

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geo import (
    DOT_MARGIN,
    EARTH_RADIUS_M,
    GeoPoint,
    NoRouteError,
    RoadNetwork,
    Route,
    great_circle_distance,
    read_records,
    unit_vector,
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


class TripDraw(NamedTuple):
    """One trip snapped to the network but not routed: everything
    `write_trips` records, plus the snapped nodes; the fields of a
    `TripRequest` but its solo route, in its order."""

    trip_id: int
    user_id: int
    origin: int
    dest: int
    origin_point: GeoPoint
    dest_point: GeoPoint
    desired_departure: float


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


def solo_routes(net: RoadNetwork, trips):
    """The `Route` from each trip's (or `TripDraw`'s) origin node to its
    destination node, or None where there is none, all read in one
    ``distance_times`` call."""
    distance, time = net.distance_times([t.origin for t in trips], [t.dest for t in trips])
    return [Route(d, s) if d != math.inf else None for d, s in zip(distance.tolist(), time.tolist())]


@dataclass(frozen=True)
class SharedRoute:
    """A vehicle route serving several riders' pickups and dropoffs.

    ``ordering`` holds ("P"|"D", trip_id) stops, for several riders in the
    shortest order with each pickup before its own dropoff and the vehicle
    never empty in between, ties to the first in lexicographic stop order.
    The vehicle leaves the first stop at the latest desired departure among
    its riders, so the earlier riders' wait shows up as delay.  Detour is
    in-vehicle distance minus the rider's solo distance; delay is door-to-door
    time (from their own desired departure) minus their solo time.  A graph
    builds a group's route from its routing record when the route is read.
    """

    ordering: tuple
    total_distance: float
    total_time: float
    per_rider_delay: dict
    per_rider_detour: dict


class ShareabilityEdge(NamedTuple):
    """A kept pair with its weight and its shared route's totals; the route
    itself is `ShareabilityGraph.group_route`'s to build."""

    trip_a: int
    trip_b: int
    weight: float
    total_distance: float
    total_time: float


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

    In departure order, a binary search ends each trip's window at the last
    later departure within the gap plus a relative 1e-9 and 1e-6 s of slack
    for rounding, so only the pairs in some window are ever held; the gap
    itself is then checked in bulk, with the float operations of
    `temporal_feasible`.  The radius r is judged by the dots of the
    endpoints' `unit_vector`s against c = cos(r / R), with r / R capped at pi
    (so c is -1 for r >= pi R, `inf` included): a pair whose origin and
    destination dots both reach c + DOT_MARGIN is within the radius, and a
    pair with a dot below c - DOT_MARGIN is not (the `unit_vector` bound; c
    itself is rounded by a few 1e-16).  Only the pairs in the band between
    are confirmed with `social_feasible`.
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
    departures = np.array([t.desired_departure for t in trips])
    kept = np.abs(departures[u] - departures[v]) <= gap
    inside = kept.copy()
    cos_radius = math.cos(min(radius / EARTH_RADIUS_M, math.pi))
    for end in ("origin_point", "dest_point"):
        vectors = np.array([unit_vector(getattr(t, end)) for t in trips])
        dots = np.einsum("ij,ij->i", vectors[u], vectors[v])
        kept &= dots >= cos_radius - DOT_MARGIN
        inside &= dots >= cos_radius + DOT_MARGIN
    first, second = np.minimum(u, v)[kept], np.maximum(u, v)[kept]
    order = np.lexsort((second, first))
    return [
        (trips[i], trips[j])
        for i, j, sure in zip(first[order].tolist(), second[order].tolist(), inside[kept][order].tolist())
        if sure or social_feasible(trips[i], trips[j], radius)
    ]


def _evaluate_order(trips, order, legs) -> SharedRoute:
    """Totals and per-rider delay/detour of the stop sequence `order` of
    `trips` (stop i < k is trips[i]'s pickup and stop k + i its dropoff),
    given the (distance, time) of each leg between consecutive stops, summed
    left to right from 0.0."""
    k = len(trips)
    start = max(t.desired_departure for t in trips)
    cum_d = 0.0
    cum_t = 0.0
    at_pickup = {order[0]: 0.0}
    delay = {}
    detour = {}
    for stop, (d, t) in zip(order[1:], legs):
        cum_d += d
        cum_t += t
        if stop < k:
            at_pickup[stop] = cum_d
        else:
            trip = trips[stop - k]
            detour[trip.trip_id] = (cum_d - at_pickup[stop - k]) - trip.solo_route.distance
            delay[trip.trip_id] = (start + cum_t) - trip.desired_departure - trip.solo_route.time
    return SharedRoute(
        ordering=tuple(("P", trips[s].trip_id) if s < k else ("D", trips[s - k].trip_id) for s in order),
        total_distance=cum_d,
        total_time=cum_t,
        per_rider_delay=delay,
        per_rider_detour=detour,
    )


class _Routing(NamedTuple):
    """A group's ``_route_groups`` result: its totals, and its row of that
    call's arrays of winning stop orders, (groups, 2k), and of their legs'
    (distance, time) floats, (groups, 2k - 1, 2)."""

    total_distance: float
    total_time: float
    orders: np.ndarray
    legs: np.ndarray
    row: int

    def shared_route(self, trips) -> SharedRoute:
        """The route of the group, `trips` sorted by trip id."""
        return _evaluate_order(trips, self.orders[self.row].tolist(), self.legs[self.row].tolist())


def best_shared_route(net: RoadNetwork, a: TripRequest, b: TripRequest) -> SharedRoute:
    """Shortest of the four orders that pick both riders up before either is
    dropped off (the ``_route_groups`` rule), whichever trip comes first."""
    return route_for_group(net, (a, b))


@functools.cache
def _stop_orders(k):
    """The allowed stop orders of `k` riders and the legs they drive.

    Stop i < k is rider i's pickup and stop k + i its dropoff.  An order is
    allowed when each pickup comes before its own dropoff and the vehicle
    never runs empty before the last stop.  The orders are grown one stop at
    a time, each prefix by every stop allowed next, in increasing order, so
    they come out in lexicographic order (the order ``itertools.permutations``
    yields), without the permutations that break the rule: 4, 60 and 1 776
    orders for 2, 3 and 4 riders.  Returns `(orders, legs, order_legs)`: the
    (orders, 2k) array of orders, the (2, legs) from and to stops of the legs
    some order drives, in row-major order, and a (2k - 1, orders) array whose
    column o holds order o's legs, first leg first, as columns of `legs`.
    """
    n = 2 * k
    orders = np.zeros((1, 0), dtype=np.intp)
    placed = np.zeros((1, n), dtype=bool)
    for at in range(n):
        riding = placed[:, :k] & ~placed[:, k:]
        may_drop = riding & ((riding.sum(axis=1) > 1) | (at == n - 1))[:, None]
        prefix, stop = np.nonzero(np.concatenate([~placed[:, :k], may_drop], axis=1))
        orders = np.concatenate([orders[prefix], stop[:, None]], axis=1)
        placed = placed[prefix]
        placed[np.arange(len(stop)), stop] = True
    codes = orders[:, :-1] * n + orders[:, 1:]  # leg (i, j) as i * n + j
    driven = np.bincount(codes.ravel(), minlength=n * n) > 0
    index = np.cumsum(driven) - 1
    return orders, np.array(np.divmod(np.flatnonzero(driven), n)), np.ascontiguousarray(index[codes].T)


# order totals formed at once while the groups' orders are compared
_ROUTE_CHUNK = 1 << 13


def _route_groups(net: RoadNetwork, groups):
    """Routes of many groups of the same size, 2..4 riders each sorted by
    trip id, in the shortest allowed stop order (``_stop_orders``), ties to
    the first in lexicographic stop order.

    The distances of all groups' legs, only those some allowed order drives,
    are read in one ``RoadNetwork.distances`` gather, so a group has a
    NoRouteError exactly when some allowed order cannot be driven, and it
    names the group's first such leg in row-major stop order.  Each order's
    total is its legs summed left to right, the float ``_evaluate_order``
    forms, and ``np.argmin`` keeps the first minimum.  The totals are summed
    one leg at a time over an (orders, groups) block, a chunk of groups at a
    time, so that at most `_ROUTE_CHUNK` totals are formed at once.  Times
    are read, in one ``RoadNetwork.times`` call, only for the winning
    orders' legs.

    Returns `(errors, records)`: for each group with a leg that has no
    route, in group order, the NoRouteError of its first such leg; and each
    group's `_Routing`, None for a group in `errors`.  A record's legs are
    the floats the network returned, so the route ``_evaluate_order`` builds
    from it is, bit for bit, the one routing the group alone gives.
    """
    k = len(groups[0]) if groups else 2
    orders, legs, order_legs = _stop_orders(k)
    stops = np.array([[t.origin for t in g] + [t.dest for t in g] for g in groups], dtype=np.int64)
    stops = stops.reshape(len(groups), 2 * k)
    tails, heads = stops[:, legs[0]], stops[:, legs[1]]  # (groups, legs) each
    leg_dist = net.distances(tails.ravel(), heads.ravel()).reshape(tails.shape)
    group, leg = np.nonzero(leg_dist == math.inf)  # row-major
    errors = {}
    if len(group):
        group, first = np.unique(group, return_index=True)
        errors = {
            g: NoRouteError(f"no route from node {tails[g, i]} to node {heads[g, i]}")
            for g, i in zip(group.tolist(), leg[first].tolist())
        }
    best = np.empty(len(groups), dtype=np.intp)
    step = max(1, _ROUTE_CHUNK // len(orders))
    for lo in range(0, len(groups), step):
        # (legs, groups): a leg's lengths are one row, so each gather copies whole rows
        block = np.ascontiguousarray(leg_dist[lo : lo + step].T)
        total = np.take(block, order_legs[0], axis=0) + np.take(block, order_legs[1], axis=0)  # (orders, groups)
        for at in range(2, len(order_legs)):
            total += np.take(block, order_legs[at], axis=0)
        best[lo : lo + step] = np.argmin(total, axis=0)
    # the winning order's legs per group, (groups, 2k - 1): their distances as
    # read, their times read now, each summed left to right
    rows, won = np.arange(len(groups))[:, None], order_legs[:, best].T
    won_time = net.times(tails[rows, won].ravel(), heads[rows, won].ravel()).reshape(won.shape)
    won_legs = np.stack([leg_dist[rows, won], won_time], axis=2)  # (groups, 2k - 1, 2)
    totals = won_legs[:, 0] + won_legs[:, 1]
    for at in range(2, won.shape[1]):
        totals += won_legs[:, at]
    won_orders = orders[best]
    records = [
        None if g in errors else _Routing(distance, time, won_orders, won_legs, g)
        for g, (distance, time) in enumerate(totals.tolist())
    ]
    return errors, records


def route_for_group(net: RoadNetwork, trips) -> SharedRoute:
    """Best vehicle route for 1..4 riders: a singleton's solo route, else the
    ``_route_groups`` route of the riders sorted by trip id, or its NoRouteError."""
    trips = sorted(trips, key=lambda t: t.trip_id)
    if len(trips) == 1:
        tid, solo = trips[0].trip_id, trips[0].solo_route
        return SharedRoute((("P", tid), ("D", tid)), solo.distance, solo.time, {tid: 0.0}, {tid: 0.0})
    if len(trips) > 4:
        raise ValueError(f"group routing supports at most 4 riders, got {len(trips)}")
    errors, (record,) = _route_groups(net, [trips])
    if errors:
        raise errors[0]
    return record.shared_route(trips)


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
        # sorted trip ids -> the group's `_Routing`, or its `SharedRoute` once read
        self._routes = {}

    def neighbors(self, trip_id):
        return self._adjacency[trip_id]

    def edge(self, a, b):
        return self.edges.get((min(a, b), max(a, b)))

    def group_route(self, group) -> SharedRoute:
        """The route of `group`, built from its cached `_Routing` on the first
        read, or by `route_for_group` if none is cached; cached either way."""
        key = tuple(sorted(group))
        route = self._routes.get(key)
        if route is None:  # not routed yet
            route = self._routes[key] = route_for_group(self.net, [self.trips[t] for t in key])
        elif not isinstance(route, SharedRoute):  # routed, not read yet
            route = self._routes[key] = route.shared_route([self.trips[t] for t in key])
        return route

    def route_groups(self, groups) -> dict:
        """Route each of `groups`, all of 3 or all of 4 riders, as
        `group_route` does, those not yet cached in one ``_route_groups``
        call, and cache their records; a lone group not yet cached goes
        through `group_route` itself, one such call too.  Returns the
        NoRouteError of each group that has no route, keyed by its trip ids
        in ascending order; like `group_route`, it caches none of those."""
        new = [key for key in dict.fromkeys(tuple(sorted(group)) for group in groups) if key not in self._routes]
        if not new:
            return {}
        sizes = {len(key) for key in new}
        if sizes != {3} and sizes != {4}:
            raise ValueError(f"route_groups takes groups of one size, 3 or 4 riders, got sizes {sorted(sizes)}")
        if len(new) == 1:
            try:
                self.group_route(new[0])
            except NoRouteError as exc:
                return {new[0]: exc}
            return {}
        errors, records = _route_groups(self.net, [[self.trips[t] for t in key] for key in new])
        self._routes.update((key, record) for key, record in zip(new, records) if record is not None)
        return {new[i]: exc for i, exc in errors.items()}

    def group_value(self, group) -> float:
        """Savings of pooling `group` under this graph's objective.

        Pairs joined by an edge are worth exactly that edge's weight; other
        groups are worth their solo totals, summed in trip id order, minus
        their shared route's, read from a cached record without building it.
        """
        key = tuple(sorted(group))
        if len(key) == 1:
            return 0.0
        if len(key) == 2 and key in self.edges:
            return self.edges[key].weight
        if self.objective is Objective.VEHICLE:
            return 2.0 * (len(key) - 1)
        route = self._routes.get(key) or self.group_route(key)  # a record or a route: both hold the totals
        trips = [self.trips[t] for t in key]
        if self.objective is Objective.DISTANCE:
            return sum(t.solo_route.distance for t in trips) - route.total_distance
        return sum(t.solo_route.time for t in trips) - route.total_time


class PairRouting(NamedTuple):
    """Some trips' gated and routed pairs, which any objective's graph is weighed from."""

    net: RoadNetwork
    trips: list  # sorted by trip id
    pairs: list  # (trip a, trip b) per gated pair, a before b
    records: list  # each pair's `_Routing`, None for a pair with no route


def route_pairs(net: RoadNetwork, trips, constraints: PairingConstraints) -> PairRouting:
    """Gate every unordered pair of `trips` (`_gated_pairs`) and route the
    pairs that pass in one ``_route_groups`` call; a pair with no shared
    route is logged and skipped."""
    trips = sorted(trips, key=lambda t: t.trip_id)
    if not trips:
        raise ValueError("cannot build a shareability graph without trips")
    pairs = _gated_pairs(trips, constraints)
    errors, records = _route_groups(net, pairs)
    for k, exc in errors.items():
        log.warning("skipping pair (%s, %s): %s", pairs[k][0].trip_id, pairs[k][1].trip_id, exc)
    return PairRouting(net, trips, pairs, records)


def weigh_pairs(routing: PairRouting, objective: Objective) -> ShareabilityGraph:
    """The graph of `routing`'s trips under `objective`, holding its kept
    pairs' routing records.

    A pair becomes an edge only when it saves distance (vehicle objective) or
    has strictly positive savings weight (distance/time objectives); pairs
    that pool without saving anything are dropped in every objective.
    """
    saving = Objective.TIME if objective is Objective.TIME else Objective.DISTANCE  # vehicle edges: distance saved
    routed = zip(routing.pairs, routing.records)
    kept = [(a, b, r) for (a, b), r in routed if r is not None and edge_weight(r, a, b, saving) > 0.0]
    edges = [
        ShareabilityEdge(a.trip_id, b.trip_id, edge_weight(r, a, b, objective), r.total_distance, r.total_time)
        for a, b, r in kept
    ]
    graph = ShareabilityGraph(routing.net, routing.trips, edges, objective)
    graph._routes.update(((a.trip_id, b.trip_id), r) for a, b, r in kept)
    return graph


def build_shareability_graph(
    net: RoadNetwork,
    trips,
    objective: Objective = Objective.DISTANCE,
    constraints: PairingConstraints = PairingConstraints(),
) -> ShareabilityGraph:
    """The graph of `trips` under one objective: `route_pairs`, then `weigh_pairs`."""
    return weigh_pairs(route_pairs(net, trips, constraints), objective)


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
    """Parse every trip record, then snap all their endpoints on `net` in
    one ``RoadNetwork.snap_to_nodes`` call and route every solo trip in one
    ``distance_times`` call; a trip id may appear once.  A record that does
    not parse is named by its line; an empty network, by the first record's.
    Then the first record, in file order, that has no route (NoRouteError)
    or makes no valid `TripRequest` (ValueError) is named by its line."""
    seen = set()

    def parse(fields):
        trip_id = int(fields[1])
        if trip_id in seen:
            raise ValueError(f"a second record for trip {trip_id}")
        seen.add(trip_id)
        origin = GeoPoint(float(fields[3]), float(fields[4]))
        dest = GeoPoint(float(fields[5]), float(fields[6]))
        return trip_id, int(fields[2]), origin, dest, float(fields[7])

    lines = []
    records = read_records(path, "trip", {"T": 8}, parse, lines)
    try:
        nodes = net.snap_to_nodes([point for record in records for point in record[2:4]])
    except ValueError as exc:
        raise ValueError(f"{path}:{lines[0]}: bad trip record: {exc}") from exc
    draws = [
        TripDraw(trip_id, user_id, o, d, origin, dest, departure)
        for (trip_id, user_id, origin, dest, departure), o, d in zip(records, nodes[0::2], nodes[1::2])
    ]
    trips = []
    for draw, route, lineno in zip(draws, solo_routes(net, draws), lines):
        if route is None:
            raise NoRouteError(
                f"{path}:{lineno}: trip record cannot be routed: no route from node {draw.origin} to node {draw.dest}"
            )
        try:
            trips.append(TripRequest(*draw, solo_route=route))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad trip record: {exc}") from exc
    return trips


def write_graph(graph: ShareabilityGraph, path) -> ShareabilityGraph:
    """`G <trip_a> <trip_b> <weight> <shared_distance_m> <shared_time_s>`,
    one record per edge in (trip_a, trip_b) order.

    Returns the graph that `read_graph` rebuilds from the file: the same
    trips and network, the edges in file order, each weight the float its
    `%.6f` text reads back to, and each total, routing record and route the
    one `graph` holds (the one `read_graph` derives again).  It shares
    `graph`'s trips and adjacency, which the rounding leaves as they are.
    """
    edges = {}
    with open(path, "w") as fh:
        for (a, b), e in sorted(graph.edges.items()):
            weight = f"{e.weight:.6f}"
            fh.write(f"G {a} {b} {weight} {e.total_distance:.6f} {e.total_time:.6f}\n")
            edges[(a, b)] = ShareabilityEdge(a, b, float(weight), e.total_distance, e.total_time)
    handed = copy.copy(graph)
    handed.edges, handed._routes = edges, dict(graph._routes)
    return handed


def read_graph(path, net: RoadNetwork, trips, objective: Objective) -> ShareabilityGraph:
    """Rebuild a graph from exported edges.

    Every pair is routed again in one ``_route_groups`` call (the export
    keeps its totals only as text), so the edge totals and cached routing
    records are re-derived; the exported weight is kept as the edge weight.
    A pair may appear once, in either order; a pair with no shared route
    raises NoRouteError naming its record's line.
    """
    by_id = {t.trip_id: t for t in trips}
    seen = set()
    # flat lists rather than a tuple per record: less stays alive, which
    # showed in peak memory
    pairs, weights, lines = [], [], []

    def parse(fields):
        a, b, weight = int(fields[1]), int(fields[2]), float(fields[3])
        pair = (min(a, b), max(a, b))
        if pair in seen:
            raise ValueError(f"a second record for the pair {a} {b}")
        seen.add(pair)
        ta, tb = by_id[a], by_id[b]
        pairs.append((ta, tb) if a <= b else (tb, ta))
        weights.append(weight)

    read_records(path, "graph", {"G": 6}, parse, lines)
    errors, records = _route_groups(net, pairs)
    if errors:
        k, exc = next(iter(errors.items()))  # the first record without a route
        raise NoRouteError(f"{path}:{lines[k]}: graph record cannot be routed: {exc}") from exc
    edges = [
        ShareabilityEdge(a.trip_id, b.trip_id, w, r.total_distance, r.total_time)
        for (a, b), w, r in zip(pairs, weights, records)
    ]
    graph = ShareabilityGraph(net, trips, edges, objective)
    graph._routes.update(((a.trip_id, b.trip_id), r) for (a, b), r in zip(pairs, records))
    return graph
