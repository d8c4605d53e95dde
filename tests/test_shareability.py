import itertools
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridepool import geo, shareability
from ridepool.geo import (
    GeoPoint,
    METERS_PER_DEGREE,
    NoRouteError,
    RoadNetwork,
    Route,
    build_grid_network,
    great_circle_distance,
)
from ridepool.shareability import (
    Objective,
    PairingConstraints,
    ShareabilityEdge,
    ShareabilityGraph,
    SharedRoute,
    TripRequest,
    _ROUTE_CHUNK,
    _evaluate_order,
    _gated_pairs,
    _route_groups,
    _stop_orders,
    best_shared_route,
    build_shareability_graph,
    edge_weight,
    make_trip,
    read_graph,
    read_trips,
    route_for_group,
    social_feasible,
    temporal_feasible,
    write_graph,
    write_trips,
)
from ridepool.scenario import generate_scenario, load_config
from conftest import full_dijkstra, scenario_instance, snap_oracle, trip_on

_SHARED_LINE_NET = build_grid_network(1, 4, 1000.0, 10.0)


def pair_route_oracle(net, a, b):
    """Independent brute force over the four shared stop orders: the first
    strictly shortest, with the orders listed lexicographically (pickups by
    trip id, then dropoffs by trip id)."""
    a, b = sorted((a, b), key=lambda t: t.trip_id)
    stops = {
        ("P", a.trip_id): a.origin,
        ("D", a.trip_id): a.dest,
        ("P", b.trip_id): b.origin,
        ("D", b.trip_id): b.dest,
    }
    orders = [
        (("P", a.trip_id), ("P", b.trip_id), ("D", a.trip_id), ("D", b.trip_id)),
        (("P", a.trip_id), ("P", b.trip_id), ("D", b.trip_id), ("D", a.trip_id)),
        (("P", b.trip_id), ("P", a.trip_id), ("D", a.trip_id), ("D", b.trip_id)),
        (("P", b.trip_id), ("P", a.trip_id), ("D", b.trip_id), ("D", a.trip_id)),
    ]
    best = None
    for order in orders:
        total_d = 0.0
        total_t = 0.0
        for s1, s2 in zip(order, order[1:]):
            d, t = net.distance_time(stops[s1], stops[s2])
            total_d += d
            total_t += t
        if best is None or total_d < best[0]:
            best = (total_d, total_t)
    return best


def group_route_oracle(net, trips):
    """Independent brute force over every stop permutation: the first
    strictly shortest one with each pickup before its own dropoff and someone
    on board from the first stop to the last."""
    trips = sorted(trips, key=lambda t: t.trip_id)
    by_id = {t.trip_id: t for t in trips}
    start = max(t.desired_departure for t in trips)
    stops = [("P", t.trip_id) for t in trips] + [("D", t.trip_id) for t in trips]
    best = None
    for perm in itertools.permutations(stops):
        on_board = set()
        valid = True
        for i, (kind, tid) in enumerate(perm):
            if kind == "P":
                on_board.add(tid)
            elif tid not in on_board:
                valid = False
            else:
                on_board.remove(tid)
                valid = bool(on_board) or i == len(perm) - 1
            if not valid:
                break
        if not valid:
            continue
        nodes = [by_id[tid].origin if kind == "P" else by_id[tid].dest for kind, tid in perm]
        cum_d = cum_t = 0.0
        pickup_d = {perm[0][1]: 0.0}
        delay, detour = {}, {}
        for (kind, tid), u, v in zip(perm[1:], nodes, nodes[1:]):
            d, t = net.distance_time(u, v)
            cum_d += d
            cum_t += t
            trip = by_id[tid]
            if kind == "P":
                pickup_d[tid] = cum_d
            else:
                detour[tid] = (cum_d - pickup_d[tid]) - trip.solo_route.distance
                delay[tid] = (start + cum_t) - trip.desired_departure - trip.solo_route.time
        if best is None or cum_d < best.total_distance:
            best = SharedRoute(perm, cum_d, cum_t, delay, detour)
    return best


def search_route_oracle(net, trips):
    """Depth-first search for the route of 2..4 riders, sorted by trip id:
    the same rule as ``group_route_oracle``, by another algorithm.

    Stop i < k is rider i's pickup and stop k + i its dropoff.  Orders are
    searched over a stop-to-stop leg matrix in lexicographic index order,
    each total summed left to right from 0.0.  A prefix is dropped once its
    distance reaches the best total (legs are >= 0, so it cannot end
    strictly shorter) and only a strictly shorter total replaces the best,
    so ties go to the first order visited.  Only the legs some allowed order
    drives are routed, row by row, so the first NoRouteError is the first
    such leg's in row-major order.
    """
    k = len(trips)
    n = 2 * k
    nodes = [t.origin for t in trips] + [t.dest for t in trips]
    # not i -> i, not D_i -> P_i and, for a pair, no dropoff -> pickup (the
    # vehicle would run empty)
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
    return _evaluate_order(trips, best_order, [legs[i][j] for i, j in zip(best_order, best_order[1:])])


class _LegTable:
    """A network stand-in that answers ``distance_time``, ``distances`` and
    ``times`` from a table."""

    def __init__(self, legs):
        self.legs = legs

    def distance_time(self, origin, dest):
        return self.legs[origin, dest]

    def distances(self, origins, dests):
        return np.array([self.legs[o, d][0] for o, d in zip(origins, dests)])

    def times(self, origins, dests):
        return np.array([self.legs[o, d][1] for o, d in zip(origins, dests)])


def assert_same_group_route(net, trips):
    """route_for_group and both oracles agree exactly, NoRouteError included."""
    trips = sorted(trips, key=lambda t: t.trip_id)
    try:
        expected = group_route_oracle(net, trips)
    except NoRouteError:
        with pytest.raises(NoRouteError) as searched:
            search_route_oracle(net, trips)
        with pytest.raises(NoRouteError) as routed:
            route_for_group(net, trips)
        assert str(routed.value) == str(searched.value)
        return
    assert search_route_oracle(net, trips) == expected
    assert route_for_group(net, trips) == expected


def _allowed(order, k):
    """Each pickup before its own dropoff, someone on board until the last stop."""
    on_board = set()
    for at, stop in enumerate(order):
        if stop < k:
            on_board.add(stop)
        elif stop - k not in on_board or (len(on_board) == 1 and at < len(order) - 1):
            return False
        else:
            on_board.remove(stop - k)
    return True


# Corners and centre of a 3x3 lattice: shared endpoints and many equal-length orders.
_TIE_LATTICE = build_grid_network(3, 3, 1000.0, 10.0)
_TIE_NODES = (0, 2, 4, 6, 8)

# One-way line 0 -> 1 -> ... -> 5 plus drawn one-way chords; forward trips always
# have a solo route, while legs between riders may not exist.
_DIRECTED_LINE = tuple((i, i + 1, 1000.0, 100.0) for i in range(5))


def _directed_net(chords):
    nodes = {i: GeoPoint(0.0, 0.01 * i) for i in range(6)}
    return RoadNetwork(nodes, _DIRECTED_LINE + tuple(chords), directed=True)


@st.composite
def _rider_groups(draw, node_pairs):
    k = draw(st.integers(3, 4))
    ids = draw(st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True))
    return [(tid, *draw(node_pairs), draw(st.sampled_from((0.0, 60.0, 300.0)))) for tid in ids]


_lattice_pairs = st.tuples(st.sampled_from(_TIE_NODES), st.sampled_from(_TIE_NODES)).filter(
    lambda p: p[0] != p[1]
)
_forward_pairs = st.tuples(st.integers(0, 4), st.integers(1, 5)).filter(lambda p: p[0] < p[1])
_chords = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 5), st.sampled_from((500.0, 1000.0, 2000.0)), st.just(50.0)
    ).filter(lambda e: e[0] != e[1]),
    min_size=2,
    max_size=10,
)

# Six nodes 1.1 km apart with drawn edges in either direction: often
# disconnected, so some trips have no solo route and some pairs no shared one.
# Round lengths make ties; random lengths and times make sums that round, so
# totals summed in another order would show.
_island_edges = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.one_of(st.sampled_from((1000.0, 2000.0)), st.floats(1.0, 3000.0)),
        st.one_of(st.just(100.0), st.floats(1.0, 300.0)),
    ).filter(lambda e: e[0] != e[1]),
    max_size=8,
)
_any_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1])


class TestFeasibility:
    def test_identical_endpoints(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        b = trip_on(line_net, 1, 0, 2)
        assert social_feasible(a, b)

    def test_far_origins_rejected(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        far = make_trip(line_net, 1, 1, GeoPoint(0.05, 0.0), line_net.nodes[2], 0.0)
        d = great_circle_distance(a.origin_point, far.origin_point)
        assert d > 3000.0
        assert not social_feasible(a, far, 3000.0)

    def test_radius_boundary_is_inclusive(self, line_net):
        dlat = 3000.0 / METERS_PER_DEGREE
        a = make_trip(line_net, 0, 0, GeoPoint(0.0, 0.0), line_net.nodes[2], 0.0)
        b = make_trip(line_net, 1, 1, GeoPoint(dlat, 0.0), line_net.nodes[2], 0.0)
        d = great_circle_distance(a.origin_point, b.origin_point)
        assert d == pytest.approx(3000.0, abs=1e-6)
        assert social_feasible(a, b, radius=d)  # exactly at the radius
        assert not social_feasible(a, b, radius=d * (1.0 - 1e-12))

    def test_departure_gap(self, line_net):
        a = trip_on(line_net, 0, 0, 2, departure=0.0)
        assert temporal_feasible(a, trip_on(line_net, 1, 1, 3, departure=0.0))
        assert not temporal_feasible(a, trip_on(line_net, 2, 1, 3, departure=900.0), 600.0)
        assert temporal_feasible(a, trip_on(line_net, 3, 1, 3, departure=600.0), 600.0)

    @given(gap=st.floats(min_value=0.0, max_value=1e4), d1=st.floats(0, 1e4), d2=st.floats(0, 1e4))
    def test_temporal_symmetry(self, gap, d1, d2):
        net = _SHARED_LINE_NET
        a = trip_on(net, 0, 0, 2, departure=d1)
        b = trip_on(net, 1, 1, 3, departure=d2)
        assert temporal_feasible(a, b, gap) == temporal_feasible(b, a, gap)


# Points within a few km of one another, some on either side of the
# antimeridian; a pool of a few points makes identical endpoints common.
_GATE_POINTS = st.builds(
    GeoPoint,
    lat=st.floats(-0.03, 0.03),
    lon=st.one_of(st.floats(-0.03, 0.03), st.floats(179.97, 180.0), st.floats(-180.0, -179.97)),
)
_GATE_DEPARTURES = st.one_of(
    st.floats(0.0, 3600.0), st.floats(-1e7, 1e7), st.integers(0, 4).map(lambda k: 150.0 * k)
)


@st.composite
def _gate_case(draw):
    """Trips sorted by id plus constraints whose radius is exactly some pair's
    origin or destination distance and whose gap is exactly some pair's
    departure difference, so the inclusive boundaries are hit."""
    points = draw(st.lists(_GATE_POINTS, min_size=1, max_size=5))
    departures = draw(st.lists(_GATE_DEPARTURES, min_size=1, max_size=5))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=16, unique=True))
    trips = [
        TripRequest(
            trip_id=tid,
            user_id=tid,
            origin=0,
            dest=1,
            origin_point=draw(st.sampled_from(points)),
            dest_point=draw(st.sampled_from(points)),
            desired_departure=draw(st.sampled_from(departures)),
            solo_route=Route(1000.0, 100.0),
        )
        for tid in sorted(ids)
    ]
    a, b = draw(st.lists(st.sampled_from(trips), min_size=2, max_size=2, unique_by=lambda t: t.trip_id))
    end = draw(st.sampled_from(["origin_point", "dest_point"]))
    radius = great_circle_distance(getattr(a, end), getattr(b, end))
    if radius == 0.0 or draw(st.booleans()):
        radius = draw(st.floats(1.0, 20_000.0))
    gap = abs(a.desired_departure - b.desired_departure)
    if draw(st.booleans()):
        gap = draw(st.floats(0.0, 5000.0))
    return trips, PairingConstraints(radius, gap)


# the largest value `great_circle_distance` returns: 2 R asin(1), between antipodes
_HALF_GLOBE_M = great_circle_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))


class TestBulkGate:
    @settings(max_examples=400, deadline=None)
    @given(_gate_case())
    def test_same_pairs_in_combinations_order_as_scalar_predicates(self, case):
        trips, constraints = case
        expected = [
            (a.trip_id, b.trip_id)
            for a, b in itertools.combinations(trips, 2)
            if social_feasible(a, b, constraints.radius_m)
            and temporal_feasible(a, b, constraints.max_departure_gap_s)
        ]
        assert [(a.trip_id, b.trip_id) for a, b in _gated_pairs(trips, constraints)] == expected

    def test_boundary_pair_at_exact_radius_and_gap_is_kept(self):
        # origins 3 km apart across the antimeridian, identical destinations
        east, west = GeoPoint(0.01, 179.99), GeoPoint(0.01, -179.99)
        dest = GeoPoint(0.0, 179.9)
        a = TripRequest(4, 4, 0, 1, east, dest, 100.0, Route(1000.0, 100.0))
        b = TripRequest(9, 9, 0, 1, west, dest, 700.0, Route(1000.0, 100.0))
        exact = PairingConstraints(great_circle_distance(east, west), 600.0)
        assert [(x.trip_id, y.trip_id) for x, y in _gated_pairs([a, b], exact)] == [(4, 9)]
        assert _gated_pairs([a, b], PairingConstraints(exact.radius_m * (1.0 - 1e-12), 600.0)) == []
        assert _gated_pairs([a, b], PairingConstraints(exact.radius_m, 599.999)) == []

    @pytest.mark.parametrize(
        "radius",
        [
            math.inf,
            2.0 * _HALF_GLOBE_M,
            math.nextafter(_HALF_GLOBE_M, math.inf),
            _HALF_GLOBE_M,
            math.nextafter(_HALF_GLOBE_M, 0.0),
        ],
        ids=["inf", "whole-globe", "ulp-above-half-globe", "half-globe", "ulp-below-half-globe"],
    )
    def test_antipodal_endpoints_at_and_beyond_half_the_globe(self, radius):
        # cos(r / R) wraps past r = pi R and raises at r = inf; near-antipodal
        # dots lie within DOT_MARGIN of -1, so those pairs need the scalar check
        offsets = (0.0, 1e-9, 1e-6, 1e-4)
        points = [GeoPoint(0.0, 0.0), GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0), GeoPoint(-90.0 + 1e-7, 45.0)]
        points += [GeoPoint(d, 180.0 - d) for d in offsets] + [GeoPoint(-d, d - 180.0) for d in offsets[1:]]
        trips = [
            TripRequest(k, k, 0, 1, p, q, 0.0, Route(1000.0, 100.0))
            for k, (p, q) in enumerate(itertools.product(points, repeat=2))
        ]
        constraints = PairingConstraints(radius, 600.0)
        expected = [
            (a.trip_id, b.trip_id) for a, b in itertools.combinations(trips, 2) if social_feasible(a, b, radius)
        ]
        assert [(a.trip_id, b.trip_id) for a, b in _gated_pairs(trips, constraints)] == expected
        every_pair = len(trips) * (len(trips) - 1) // 2
        assert (len(expected) == every_pair) == (radius >= _HALF_GLOBE_M)


class TestBestSharedRoute:
    def test_identical_trips(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        b = trip_on(line_net, 1, 1, 2, user_id=1)
        b = make_trip(line_net, 1, 1, line_net.nodes[0], line_net.nodes[2], 0.0)
        shared = best_shared_route(line_net, a, b)
        assert shared.total_distance == a.solo_route.distance
        assert shared.per_rider_detour == {0: 0.0, 1: 0.0}
        assert shared.per_rider_delay == {0: 0.0, 1: 0.0}

    def test_line_overlap_example(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        b = trip_on(line_net, 1, 1, 3)
        shared = best_shared_route(line_net, a, b)
        assert shared.ordering == (("P", 0), ("P", 1), ("D", 0), ("D", 1))
        assert shared.total_distance == 3000.0
        oracle_d, oracle_t = pair_route_oracle(line_net, a, b)
        assert shared.total_distance == oracle_d
        assert shared.total_time == oracle_t

    def test_opposed_trips_still_minimized(self, line_net):
        a = trip_on(line_net, 0, 0, 3)
        b = trip_on(line_net, 1, 3, 0)
        shared = best_shared_route(line_net, a, b)
        oracle_d, _ = pair_route_oracle(line_net, a, b)
        assert shared.total_distance == oracle_d
        # every ordering backtracks: pooling saves nothing
        savings = a.solo_route.distance + b.solo_route.distance - shared.total_distance
        assert savings <= 0.0

    def test_vehicle_waits_for_later_departure(self, line_net):
        a = trip_on(line_net, 0, 0, 2, departure=0.0)
        b = trip_on(line_net, 1, 0, 2, departure=120.0)
        shared = best_shared_route(line_net, a, b)
        # vehicle leaves at 120; rider 0 absorbs the wait as delay
        assert shared.per_rider_delay[0] == 120.0
        assert shared.per_rider_delay[1] == 0.0

    def test_matches_oracle_on_seeded_instances(self):
        net, trips, _ = scenario_instance(seed=5, n_trips=20)
        for a, b in itertools.combinations(trips, 2):
            shared = best_shared_route(net, a, b)
            oracle_d, oracle_t = pair_route_oracle(net, a, b)
            assert shared.total_distance == oracle_d
            assert shared.total_time == oracle_t

    def test_same_route_in_either_argument_order(self):
        net, trips, _ = scenario_instance(seed=5, n_trips=20)
        for a, b in itertools.combinations(trips, 2):
            assert best_shared_route(net, a, b) == best_shared_route(net, b, a)

    def test_pair_needs_no_dropoff_to_pickup_leg(self):
        # pickups 0 <-> 1, dropoffs 3 <-> 4, one way from the pickups to the
        # dropoffs: every shared order can be driven, no dropoff -> pickup leg can
        net = _directed_net([(1, 0, 1000.0, 100.0), (4, 3, 1000.0, 100.0)])
        a, b = trip_on(net, 0, 0, 3), trip_on(net, 1, 1, 4)
        with pytest.raises(NoRouteError):
            net.distance_time(a.dest, b.origin)
        shared = best_shared_route(net, a, b)
        assert shared.ordering == (("P", 0), ("P", 1), ("D", 0), ("D", 1))
        assert shared.total_distance == 4000.0

    def test_delay_and_detour_nonnegative(self):
        net, trips, _ = scenario_instance(seed=11, n_trips=10, departure_span=900.0)
        for a, b in itertools.combinations(trips, 2):
            shared = best_shared_route(net, a, b)
            for tid in (a.trip_id, b.trip_id):
                assert shared.per_rider_delay[tid] >= -1e-9
                assert shared.per_rider_detour[tid] >= -1e-9


class TestStopOrders:
    @pytest.mark.parametrize("k, n_orders, n_legs", [(2, 4, 8), (3, 60, 27), (4, 1776, 52)])
    def test_tables_match_filtered_permutations(self, k, n_orders, n_legs):
        expected = [o for o in itertools.permutations(range(2 * k)) if _allowed(o, k)]
        orders, leg_stops, order_legs = _stop_orders(k)
        assert [tuple(o) for o in orders.tolist()] == expected
        assert len(orders) == n_orders
        legs = list(zip(*leg_stops.tolist()))
        assert legs == sorted({leg for o in expected for leg in zip(o, o[1:])})
        assert len(legs) == n_legs
        driven = [[legs[x] for x in column] for column in order_legs.T.tolist()]
        assert driven == [list(zip(o, o[1:])) for o in expected]


class TestGroupRouting:
    def test_three_riders_vs_exhaustive(self, line_net):
        trips = [trip_on(line_net, 0, 0, 2), trip_on(line_net, 1, 1, 3), trip_on(line_net, 2, 0, 3)]
        assert route_for_group(line_net, trips) == group_route_oracle(line_net, trips)

    def test_vehicle_never_runs_empty_between_riders(self):
        # dropping rider 0 first (P0 D0 P1 P2 D1 D2, 6 000 m) empties the
        # vehicle between riders, so the group rides together for 8 000 m
        trips = [trip_on(_TIE_LATTICE, 0, 0, 6), trip_on(_TIE_LATTICE, 1, 4, 2), trip_on(_TIE_LATTICE, 2, 4, 2)]
        route = route_for_group(_TIE_LATTICE, trips)
        assert route.ordering == (("P", 0), ("P", 1), ("P", 2), ("D", 0), ("D", 1), ("D", 2))
        assert route.total_distance == 8000.0
        assert route == group_route_oracle(_TIE_LATTICE, trips)

    def test_singleton_reduces_to_solo(self, line_net):
        t = trip_on(line_net, 0, 0, 3)
        route = route_for_group(line_net, [t])
        assert route.total_distance == t.solo_route.distance
        assert route.per_rider_delay == {0: 0.0}

    def test_too_many_riders_rejected(self, line_net):
        trips = [trip_on(line_net, i, 0, 3) for i in range(5)]
        with pytest.raises(ValueError):
            route_for_group(line_net, trips)

    @settings(max_examples=60, deadline=None)
    @given(_rider_groups(_lattice_pairs))
    def test_matches_brute_force_on_tie_heavy_lattice(self, riders):
        trips = [trip_on(_TIE_LATTICE, tid, o, d, departure=dep) for tid, o, d, dep in riders]
        assert_same_group_route(_TIE_LATTICE, trips)

    @settings(max_examples=60, deadline=None)
    @given(_rider_groups(_forward_pairs), _chords)
    def test_matches_brute_force_on_directed_network(self, riders, chords):
        net = _directed_net(chords)
        trips = [trip_on(net, tid, o, d, departure=dep) for tid, o, d, dep in riders]
        assert_same_group_route(net, trips)

    @settings(max_examples=80, deadline=None)
    @given(_rider_groups(_any_pairs), _island_edges, st.booleans())
    def test_matches_brute_force_on_disconnected_networks(self, riders, edges, directed):
        # solo routes are stubs, so riders need no route of their own
        net = RoadNetwork({i: GeoPoint(0.0, 0.01 * i) for i in range(6)}, edges, directed=directed)
        trips = [
            TripRequest(tid, tid, o, d, net.nodes[o], net.nodes[d], dep, Route(1500.0, 150.0))
            for tid, o, d, dep in riders
        ]
        assert_same_group_route(net, trips)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_matches_the_search_on_rounding_sensitive_legs(self, k, data):
        # legs drawn straight from a pool whose sums round (0.1 + 0.2, 1e16 +
        # 1.0), so that orders tie or part by one rounding: a total summed in
        # another order, or another tie rule, would pick another order
        pool = st.sampled_from((0.1, 0.2, 0.3, 0.6, 1.0, 2.0, 1e16))
        legs = {(u, v): (data.draw(pool), data.draw(pool)) for u in range(2 * k) for v in range(2 * k) if u != v}
        net = _LegTable(legs)
        here = GeoPoint(0.0, 0.0)
        trips = [TripRequest(r, r, r, k + r, here, here, 0.0, Route(1.0, 1.0)) for r in range(k)]
        assert route_for_group(net, trips) == search_route_oracle(net, trips)

    def test_more_groups_than_one_chunk(self):
        # random lengths on one-way roads between nodes 0-7, and node 8 cut
        # off: sums round, ties are rare and some groups have no route
        rng = random.Random(3)
        nodes = {i: GeoPoint(0.0, 0.01 * i) for i in range(9)}
        edges = [(u, v, rng.uniform(1.0, 2000.0), rng.uniform(1.0, 200.0)) for u in range(8) for v in range(8)]
        net = RoadNetwork(nodes, [e for e in edges if e[0] != e[1] and rng.random() < 0.4], directed=True)
        groups = []
        for g in range(3 * _ROUTE_CHUNK // len(_stop_orders(4)[0]) + 5):  # three chunks and then some
            trips = []
            for r in range(4):
                o, d = rng.sample(range(9), 2)
                trips.append(TripRequest(4 * g + r, r, o, d, nodes[o], nodes[d], 60.0 * r, Route(1500.0, 150.0)))
            groups.append(trips)
        errors, records = _route_groups(net, groups)
        for g, trips in enumerate(groups):
            try:
                expected = search_route_oracle(net, trips)
            except NoRouteError as exc:
                assert str(errors[g]) == str(exc)
                assert records[g] is None
                continue
            assert g not in errors
            assert (records[g].total_distance, records[g].total_time) == (expected.total_distance, expected.total_time)
            assert records[g].shared_route(trips) == expected
        assert 0 < len(errors) < len(groups)

    def test_fresh_group_routes_each_leg_once(self, monkeypatch):
        # one gather of the legs' distances; a pair: 4 x 4 stop pairs minus 4
        # self-legs and the 4 dropoff -> pickup legs, which would leave the
        # vehicle empty between the riders; four riders: 8 x 8 minus 8
        # self-legs and the 4 dropoff -> own pickup legs.  Then one read of
        # the times of the winning order's 3 or 7 legs.
        net = build_grid_network(4, 4, 1000.0, 10.0)
        pair = [trip_on(net, 0, 0, 15), trip_on(net, 1, 1, 14)]
        four = pair + [trip_on(net, 2, 4, 11), trip_on(net, 3, 5, 9)]
        expected = {2: group_route_oracle(net, pair), 4: group_route_oracle(net, four)}
        calls = []
        for name in ("distances", "times", "distance_times"):

            def counted(origins, dests, read=getattr(net, name), name=name):
                calls.append((name, len(origins), len(dests)))
                return read(origins, dests)

            monkeypatch.setattr(net, name, counted)
        for trips, legs in ((pair, 8), (four, 52)):
            calls.clear()
            assert route_for_group(net, trips) == expected[len(trips)]
            won = 2 * len(trips) - 1
            assert calls == [("distances", legs, legs), ("times", won, won)]

    def test_graph_routes_new_groups_in_one_call(self, monkeypatch):
        # a batch of new groups is one `_route_groups` call and a lone one a
        # `group_route`; the routes built from the cached records are
        # `route_for_group`'s, and the groups with no route are returned, not
        # cached
        nodes = {i: GeoPoint(0.0, 0.01 * i) for i in range(6)}
        net = RoadNetwork(nodes, [(0, 1, 1000.0, 100.0), (1, 2, 1000.0, 100.0), (3, 4, 1000.0, 100.0)])
        trips = [trip_on(net, 0, 0, 2), trip_on(net, 1, 1, 2), trip_on(net, 2, 3, 4), trip_on(net, 3, 0, 1)]
        trips.append(trip_on(net, 4, 1, 0))
        graph = ShareabilityGraph(net, trips, [], Objective.DISTANCE)
        calls = []

        def counted(net, groups):
            calls.append([tuple(t.trip_id for t in group) for group in groups])
            return _route_groups(net, groups)

        monkeypatch.setattr(shareability, "_route_groups", counted)
        errors = graph.route_groups([(3, 1, 0), (0, 1, 2), (0, 1, 3)])
        assert calls == [[(0, 1, 3), (0, 1, 2)]]  # in order of first appearance
        assert list(errors) == [(0, 1, 2)] and isinstance(errors[(0, 1, 2)], NoRouteError)
        assert list(graph._routes) == [(0, 1, 3)]
        assert graph.group_route((3, 0, 1)) == route_for_group(net, [trips[0], trips[1], trips[3]])
        calls.clear()
        assert graph.route_groups([(0, 1, 3)]) == {} and calls == []
        assert list(graph.route_groups([(0, 1, 3), (0, 2, 3)])) == [(0, 2, 3)]
        assert calls == [[(0, 2, 3)]]
        for sizes in ([(0, 1), (1, 3, 4)], [(0, 1, 3, 4, 2)]):
            with pytest.raises(ValueError):
                graph.route_groups(sizes)

    def test_no_route_raised_like_brute_force(self):
        nodes = {i: GeoPoint(0.0, 0.01 * i) for i in range(6)}
        net = RoadNetwork(nodes, [(0, 1, 1000.0, 100.0), (1, 2, 1000.0, 100.0), (3, 4, 1000.0, 100.0)])
        trips = [trip_on(net, 0, 0, 2), trip_on(net, 1, 1, 2), trip_on(net, 2, 3, 4)]
        with pytest.raises(NoRouteError):
            group_route_oracle(net, trips)
        with pytest.raises(NoRouteError):
            route_for_group(net, trips)


_EVERY_PAIR = PairingConstraints(radius_m=1e7, max_departure_gap_s=1e9)


@st.composite
def _pair_trips(draw, node_pairs):
    """2-7 riders with distinct ids and drawn endpoints and departures."""
    ids = draw(st.lists(st.integers(0, 99), min_size=2, max_size=7, unique=True))
    return [(tid, *draw(node_pairs), draw(st.sampled_from((0.0, 60.0, 300.0)))) for tid in ids]


def routable_trips(net, riders):
    """The riders whose solo trip has a route, as trips sorted by id."""
    trips = []
    for tid, o, d, dep in sorted(riders):
        try:
            trips.append(trip_on(net, tid, o, d, departure=dep))
        except NoRouteError:
            pass
    return trips


def assert_bulk_pairs_match_scalar(net, trips):
    """Every pair of `trips`: the bulk router skips it exactly where the
    depth-first search raises NoRouteError, and otherwise gives an equal
    SharedRoute whose totals are the four-order oracle's."""
    pairs = list(itertools.combinations(trips, 2))
    errors, records = _route_groups(net, pairs)
    for k, (a, b) in enumerate(pairs):
        try:
            expected = search_route_oracle(net, [a, b])
        except NoRouteError as exc:
            assert str(errors[k]) == str(exc)
            with pytest.raises(NoRouteError):
                pair_route_oracle(net, a, b)
            assert records[k] is None
            continue
        assert k not in errors
        assert records[k].shared_route([a, b]) == expected
        assert (records[k].total_distance, records[k].total_time) == (expected.total_distance, expected.total_time)
        assert (expected.total_distance, expected.total_time) == pair_route_oracle(net, a, b)


def scalar_build_edges(net, trips, objective, constraints):
    """The graph build with each gated pair routed through best_shared_route
    and the keep rule written out, in gate order."""
    edges = []
    for a, b in _gated_pairs(sorted(trips, key=lambda t: t.trip_id), constraints):
        try:
            shared = best_shared_route(net, a, b)
        except NoRouteError:
            continue
        weight = edge_weight(shared, a, b, objective)
        saved = a.solo_route.distance + b.solo_route.distance - shared.total_distance
        if (saved if objective is Objective.VEHICLE else weight) > 0.0:
            edges.append(ShareabilityEdge(a.trip_id, b.trip_id, weight, shared.total_distance, shared.total_time))
    return edges


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def assert_build_matches_scalar(net, trips, constraints):
    """Same edges in the same insertion order for every objective, and one
    warning per skipped pair naming the scalar search's NoRouteError."""
    skipped = []
    for a, b in _gated_pairs(trips, constraints):
        try:
            best_shared_route(net, a, b)
        except NoRouteError as exc:
            skipped.append(f"skipping pair ({a.trip_id}, {b.trip_id}): {exc}")
    logger = logging.getLogger("ridepool.shareability")
    for objective in Objective:
        handler = _Messages()
        logger.addHandler(handler)
        try:
            graph = build_shareability_graph(net, trips, objective, constraints)
        finally:
            logger.removeHandler(handler)
        assert list(graph.edges.values()) == scalar_build_edges(net, trips, objective, constraints)
        assert handler.messages == skipped


class TestBulkPairRouting:
    @settings(max_examples=60, deadline=None)
    @given(_pair_trips(_lattice_pairs))
    def test_matches_scalar_search_on_tie_heavy_lattice(self, riders):
        assert_bulk_pairs_match_scalar(_TIE_LATTICE, routable_trips(_TIE_LATTICE, riders))

    @settings(max_examples=60, deadline=None)
    @given(_pair_trips(_forward_pairs), _chords)
    def test_matches_scalar_search_on_directed_network(self, riders, chords):
        net = _directed_net(chords)
        assert_bulk_pairs_match_scalar(net, routable_trips(net, riders))

    @settings(max_examples=80, deadline=None)
    @given(_pair_trips(_any_pairs), _island_edges, st.booleans())
    def test_skips_exactly_the_unroutable_pairs_on_disconnected_networks(self, riders, edges, directed):
        net = RoadNetwork({i: GeoPoint(0.0, 0.01 * i) for i in range(6)}, edges, directed=directed)
        assert_bulk_pairs_match_scalar(net, routable_trips(net, riders))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scalar_search_on_random_lengths(self, seed):
        # random lengths and times, so that sums round and a total summed in
        # another order, or a different tie rule, would show
        rng = random.Random(seed)
        nodes = {i: GeoPoint(0.0, 0.01 * i) for i in range(12)}
        edges = [(u, v, rng.uniform(1.0, 2000.0), rng.uniform(1.0, 200.0)) for u in range(12) for v in range(12)]
        net = RoadNetwork(nodes, [e for e in edges if e[0] != e[1] and rng.random() < 0.3], directed=seed % 2 == 1)
        riders = [(tid, *rng.sample(range(12), 2), rng.choice((0.0, 90.0))) for tid in range(10)]
        trips = routable_trips(net, riders)
        assert len(trips) > 5
        assert_bulk_pairs_match_scalar(net, trips)

    def test_no_pairs(self, line_net):
        assert _route_groups(line_net, []) == ({}, [])

    @settings(max_examples=40, deadline=None)
    @given(_pair_trips(_any_pairs), _island_edges, st.booleans())
    def test_build_matches_scalar_build_on_disconnected_networks(self, riders, edges, directed):
        net = RoadNetwork({i: GeoPoint(0.0, 0.01 * i) for i in range(6)}, edges, directed=directed)
        trips = routable_trips(net, riders)
        if trips:
            assert_build_matches_scalar(net, trips, _EVERY_PAIR)

    @settings(max_examples=40, deadline=None)
    @given(_pair_trips(_lattice_pairs))
    def test_build_matches_scalar_build_on_tie_heavy_lattice(self, riders):
        assert_build_matches_scalar(_TIE_LATTICE, routable_trips(_TIE_LATTICE, riders), _EVERY_PAIR)

    @pytest.mark.parametrize("seed", [1, 5, 13])
    def test_build_matches_scalar_build_on_seeded_instances(self, seed):
        net, trips, _ = scenario_instance(seed=seed, n_trips=30, departure_span=900.0)
        assert_build_matches_scalar(net, trips, PairingConstraints())


class TestEdgeWeight:
    def test_identical_trips_distance_weight(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        b = make_trip(line_net, 1, 1, line_net.nodes[0], line_net.nodes[2], 0.0)
        shared = best_shared_route(line_net, a, b)
        assert edge_weight(shared, a, b, Objective.DISTANCE) == a.solo_route.distance

    def test_vehicle_weight_is_two(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        b = trip_on(line_net, 1, 1, 3)
        shared = best_shared_route(line_net, a, b)
        assert edge_weight(shared, a, b, Objective.VEHICLE) == 2.0

    def test_line_example_distance_weight(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        b = trip_on(line_net, 1, 1, 3)
        shared = best_shared_route(line_net, a, b)
        # solo 2000 + 2000, shared 3000
        assert edge_weight(shared, a, b, Objective.DISTANCE) == 1000.0

    def test_weight_symmetry(self):
        net, trips, _ = scenario_instance(seed=7, n_trips=10)
        for a, b in itertools.combinations(trips, 2):
            sab = best_shared_route(net, a, b)
            sba = best_shared_route(net, b, a)
            for obj in Objective:
                assert edge_weight(sab, a, b, obj) == edge_weight(sba, b, a, obj)


def graph_edges_oracle(net, trips, objective, constraints):
    """Independent pairwise scan with the same gates."""
    kept = set()
    for a, b in itertools.combinations(sorted(trips, key=lambda t: t.trip_id), 2):
        if great_circle_distance(a.origin_point, b.origin_point) > constraints.radius_m:
            continue
        if great_circle_distance(a.dest_point, b.dest_point) > constraints.radius_m:
            continue
        if abs(a.desired_departure - b.desired_departure) > constraints.max_departure_gap_s:
            continue
        shared_d, shared_t = pair_route_oracle(net, a, b)
        dist_saved = a.solo_route.distance + b.solo_route.distance - shared_d
        if objective is Objective.VEHICLE:
            keep = dist_saved > 0.0
        elif objective is Objective.DISTANCE:
            keep = dist_saved > 0.0
        else:
            keep = a.solo_route.time + b.solo_route.time - shared_t > 0.0
        if keep:
            kept.add((a.trip_id, b.trip_id))
    return kept


class TestGraphBuild:
    def test_single_trip(self, line_net):
        graph = build_shareability_graph(line_net, [trip_on(line_net, 0, 0, 2)])
        assert len(graph.trips) == 1
        assert not graph.edges

    def test_two_identical_trips(self, line_net):
        a = trip_on(line_net, 0, 0, 2)
        b = make_trip(line_net, 1, 1, line_net.nodes[0], line_net.nodes[2], 0.0)
        graph = build_shareability_graph(line_net, [a, b])
        assert set(graph.edges) == {(0, 1)}

    def test_empty_trip_set_rejected(self, line_net):
        with pytest.raises(ValueError):
            build_shareability_graph(line_net, [])

    @pytest.mark.parametrize("objective", list(Objective))
    def test_six_trip_seeded_scenario_matches_oracle(self, objective):
        net, trips, _ = scenario_instance(seed=13, n_trips=6)
        constraints = PairingConstraints()
        graph = build_shareability_graph(net, trips, objective, constraints)
        assert set(graph.edges) == graph_edges_oracle(net, trips, objective, constraints)

    def test_kept_weights_strictly_positive(self):
        for seed in range(6):
            for objective in (Objective.DISTANCE, Objective.TIME):
                _, _, graph = scenario_instance(seed=seed, n_trips=10, objective=objective)
                for edge in graph.edges.values():
                    assert edge.weight > 0.0

    def test_kept_edges_satisfy_subadditivity(self):
        # the positivity filter implies shared distance below the solo sum
        for seed in range(6):
            net, trips, graph = scenario_instance(seed=seed, n_trips=10)
            by_id = graph.trips
            for (a, b), edge in graph.edges.items():
                assert edge.total_distance < by_id[a].solo_route.distance + by_id[b].solo_route.distance

    def test_neighbors_are_symmetric(self):
        _, _, graph = scenario_instance(seed=3, n_trips=12)
        for (a, b) in graph.edges:
            assert b in graph.neighbors(a)
            assert a in graph.neighbors(b)


def assert_edges_hold_best_shared_routes(net, graph):
    """Each edge's totals are, bit for bit, those of `best_shared_route`,
    and so is the route `group_route` builds for it."""
    for (a, b), edge in graph.edges.items():
        expected = best_shared_route(net, graph.trips[a], graph.trips[b])
        assert edge.total_distance.hex() == expected.total_distance.hex()
        assert edge.total_time.hex() == expected.total_time.hex()
        assert graph.group_route((a, b)) == expected


_SNAP_GRID = build_grid_network(6, 6, 500.0, 10.0, anchor=GeoPoint(10.0, 20.0))


@st.composite
def _snap_points(draw):
    """Points at node positions, at the midpoints between neighbouring nodes
    (ties, which go to the lower id) and anywhere on the globe, mostly far
    off the grid."""
    nodes = _SNAP_GRID.nodes
    at_node = st.sampled_from(list(nodes.values()))
    midpoint = st.sampled_from(_SNAP_GRID.edges).map(
        lambda e: GeoPoint((nodes[e[0]].lat + nodes[e[1]].lat) / 2, (nodes[e[0]].lon + nodes[e[1]].lon) / 2)
    )
    anywhere = st.builds(GeoPoint, lat=st.floats(-89.0, 89.0), lon=st.floats(-179.0, 179.0))
    return draw(st.lists(st.one_of(at_node, midpoint, anywhere), min_size=1, max_size=40))


class TestTripAndGraphIO:
    @pytest.mark.parametrize("chunk", [geo._TREE_CHUNK, 100])
    @settings(max_examples=100, deadline=None)
    @given(points=_snap_points())
    def test_bulk_snapping_answers_like_snap_to_node(self, chunk, points, tmp_path_factory):
        # each point is one trip's origin and another's destination, the
        # other end a node it does not snap to; a chunk of 100 dots snaps two
        # points per product on the 36-node grid
        net, nodes = _SNAP_GRID, _SNAP_GRID.nodes
        records = []
        for k, p in enumerate(points):
            q = nodes[35] if net.snap_to_node(p) == 0 else nodes[0]
            for i, (a, b) in enumerate(((p, q), (q, p))):
                records.append(f"T {2 * k + i} 0 {a.lat!r} {a.lon!r} {b.lat!r} {b.lon!r} 0.0\n")
        path = tmp_path_factory.mktemp("snap") / "trips.txt"
        path.write_text("".join(records))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geo, "_TREE_CHUNK", chunk)
            trips = read_trips(path, net)
        assert [t.origin_point for t in trips[0::2]] == [t.dest_point for t in trips[1::2]] == points
        for t in trips:
            for point, node in ((t.origin_point, t.origin), (t.dest_point, t.dest)):
                assert node == net.snap_to_node(point) == snap_oracle(net, point)

    @pytest.mark.parametrize("head,line", [("", 1), ("# trips\n\n", 3)])
    def test_an_empty_network_is_named_at_the_first_record(self, head, line, tmp_path):
        path = tmp_path / "trips.txt"
        path.write_text(head + "T 0 0 0.0 0.0 0.0 0.01 0.000\nT 1 1 0.0 0.01 0.0 0.02 0.000\n")
        message = f"{path}:{line}: bad trip record: cannot snap onto an empty network"
        with pytest.raises(ValueError) as raised:
            read_trips(path, RoadNetwork({}, []))
        assert str(raised.value) == message

    def test_trips_round_trip(self, tmp_path):
        net, trips, _ = scenario_instance(seed=2, n_trips=8)
        path = tmp_path / "trips.txt"
        write_trips(trips, path)
        loaded = read_trips(path, net)
        assert len(loaded) == len(trips)
        for orig, back in zip(trips, loaded):
            assert back.trip_id == orig.trip_id
            assert back.user_id == orig.user_id
            assert back.origin == orig.origin
            assert back.dest == orig.dest
            assert back.desired_departure == pytest.approx(orig.desired_departure, abs=1e-3)
            assert back.solo_route.distance == orig.solo_route.distance

    def test_graph_round_trip(self, tmp_path):
        net, trips, graph = scenario_instance(seed=2, n_trips=8)
        path = tmp_path / "graph.txt"
        write_graph(graph, path)
        loaded = read_graph(path, net, trips, graph.objective)
        assert set(loaded.edges) == set(graph.edges)
        for key, edge in graph.edges.items():
            assert loaded.edges[key].weight == pytest.approx(edge.weight, abs=1e-6)
            assert loaded.edges[key].total_distance == edge.total_distance

    @pytest.mark.parametrize("capacity", [2, 3])
    @pytest.mark.parametrize("objective", list(Objective), ids=[o.value for o in Objective])
    def test_write_graph_returns_the_graph_its_file_reads_back_to(self, objective, capacity, tmp_path):
        net, trips, graph = scenario_instance(seed=5, n_trips=20, departure_span=600.0, objective=objective)
        path = tmp_path / "graph.txt"
        handed = write_graph(graph, path)
        loaded = read_graph(path, net, trips, objective)
        assert handed.net is loaded.net and handed.objective is loaded.objective
        assert handed.trips == loaded.trips
        assert len(handed.edges) > 10
        assert list(handed.edges) == list(loaded.edges)  # file order, the order `RowTable` numbers rows in
        for key, edge in handed.edges.items():
            assert edge.weight.hex() == loaded.edges[key].weight.hex()
        for built_handed_or_loaded in (graph, handed, loaded):
            assert_edges_hold_best_shared_routes(net, built_handed_or_loaded)
        for tid in handed.trips:
            assert handed.neighbors(tid) == loaded.neighbors(tid)
            groups = [(tid, *others) for others in itertools.combinations(handed.neighbors(tid), capacity - 1)]
            for group in groups[:5]:
                assert handed.group_value(group).hex() == loaded.group_value(group).hex()
                assert handed.group_route(group) == loaded.group_route(group)

    def test_graph_with_reversed_pairs_reads_the_same_routes(self, tmp_path):
        net, trips, graph = scenario_instance(seed=5, n_trips=20)
        path = tmp_path / "graph.txt"
        write_graph(graph, path)
        records = [line.split() for line in path.read_text().splitlines()]
        path.write_text("".join(" ".join([f[0], f[2], f[1]] + f[3:]) + "\n" for f in records))
        loaded = read_graph(path, net, trips, graph.objective)
        assert set(loaded.edges) == set(graph.edges)
        for built_or_loaded in (graph, loaded):
            assert_edges_hold_best_shared_routes(net, built_or_loaded)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "trips.txt"
        path.write_text("T 0 0 0.0\n")
        with pytest.raises(ValueError):
            read_trips(path, build_grid_network(2, 2, 1000.0, 10.0))


class TestRealisticSize:
    @pytest.mark.parametrize("objective", [o.value for o in Objective])
    def test_400_trip_graph_equals_scalar_build_byte_for_byte(self, objective, tmp_path):
        cfg = load_config(
            text=f"[network]\nrows = 20\ncols = 20\n[demand]\nn_trips = 400\n[run]\nobjective = {objective}\n"
        )
        net, trips = generate_scenario(cfg)
        bulk, scalar = tmp_path / "bulk.txt", tmp_path / "scalar.txt"
        write_graph(build_shareability_graph(net, trips, cfg.objective, cfg.constraints), bulk)
        edges = scalar_build_edges(net, trips, cfg.objective, cfg.constraints)
        write_graph(ShareabilityGraph(net, trips, edges, cfg.objective), scalar)
        assert len(edges) > 1000
        assert bulk.read_bytes() == scalar.read_bytes()

    def test_300_hotspot_trips_route_every_leg_like_full_dijkstra(self, monkeypatch):
        # every leg's distance from the one gather and every time read, of
        # the winning orders' legs, and both of each solo trip
        distances, times = [], []
        for name, kept in (("distances", [distances]), ("times", [times]), ("distance_times", [distances, times])):

            def recorded(net, origins, dests, read=getattr(RoadNetwork, name), kept=kept):
                answers = read(net, origins, dests)
                for queries, answer in zip(kept, np.atleast_2d(answers)):
                    queries.extend(zip(list(origins), list(dests), answer.tolist()))
                return answers

            monkeypatch.setattr(RoadNetwork, name, recorded)
        cfg = load_config(
            text="[network]\nrows = 20\ncols = 20\n[demand]\nn_trips = 300\nn_users = 300\n"
            "hotspots = 400\nhotspot_spread_m = 300\ndeparture_window_s = 3600\n"
        )
        net, trips = generate_scenario(cfg)
        build_shareability_graph(net, trips, cfg.objective, cfg.constraints)
        trees = {}
        for field, queries in enumerate((distances, times)):
            for origin, dest, answer in queries:
                if origin not in trees:
                    trees[origin] = full_dijkstra(net.edges, False, origin)
                assert answer == trees[origin][field][dest]
        assert len(distances) > 5000 and len(times) > 2000 and len(trees) > 300

    def test_300_hotspot_trips_snap_and_gate_like_the_scalar_scans(self, monkeypatch):
        # shaped like a file-driven benchmark run: demand around many hotspots on a 20x20 grid
        cfg = load_config(
            text="[network]\nrows = 20\ncols = 20\n[demand]\nn_trips = 300\nn_users = 300\n"
            "hotspots = 400\nhotspot_spread_m = 300\ndeparture_window_s = 3600\n"
        )
        net, trips = generate_scenario(cfg)
        for t in trips:
            for point, node in ((t.origin_point, t.origin), (t.dest_point, t.dest)):
                assert net.snap_to_node(point) == node == snap_oracle(net, point)
        radius, gap = cfg.constraints.radius_m, cfg.constraints.max_departure_gap_s
        expected = [
            (a.trip_id, b.trip_id)
            for a, b in itertools.combinations(trips, 2)
            if temporal_feasible(a, b, gap) and social_feasible(a, b, radius)
        ]
        calls = []
        monkeypatch.setattr(
            shareability, "great_circle_distance", lambda p, q: calls.append(1) or great_circle_distance(p, q)
        )
        assert [(a.trip_id, b.trip_id) for a, b in _gated_pairs(trips, cfg.constraints)] == expected
        # confirming every gated pair would take at least one call per pair
        assert len(expected) > 500
        assert len(calls) <= len(expected) // 20
