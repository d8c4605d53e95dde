import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridepool import geo
from ridepool.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    NoRouteError,
    RoadNetwork,
    build_grid_network,
    great_circle_distance,
    read_network,
    write_network,
)
from conftest import full_dijkstra, snap_oracle

coords = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-89.0, max_value=89.0),
    lon=st.floats(min_value=-179.0, max_value=179.0),
)


class TestGridConstruction:
    def test_2x2(self):
        net = build_grid_network(2, 2, 1000.0, 10.0)
        assert len(net.nodes) == 4
        assert len(net.edges) == 4
        assert all(length == 1000.0 and time == 100.0 for _, _, length, time in net.edges)

    def test_degenerate_1x1(self):
        net = build_grid_network(1, 1, 1000.0, 10.0)
        assert len(net.nodes) == 1
        assert len(net.edges) == 0

    @pytest.mark.parametrize("rows,cols", [(3, 3), (1, 4), (5, 2), (4, 4)])
    def test_edge_count_matches_enumeration(self, rows, cols):
        # independent count: one edge per adjacent lattice pair
        expected = sum(
            1
            for r in range(rows)
            for c in range(cols)
            for dr, dc in ((0, 1), (1, 0))
            if r + dr < rows and c + dc < cols
        )
        net = build_grid_network(rows, cols, 500.0, 10.0)
        assert len(net.edges) == expected
        assert expected == 2 * rows * cols - rows - cols

    @pytest.mark.parametrize("spacing,speed", [(0.0, 10.0), (-5.0, 10.0), (100.0, 0.0), (100.0, -1.0)])
    def test_bad_config_rejected(self, spacing, speed):
        with pytest.raises(ValueError):
            build_grid_network(2, 2, spacing, speed)

    def test_adjacent_nodes_spacing_matches_haversine(self):
        net = build_grid_network(3, 3, 1000.0, 10.0)
        d_ns = great_circle_distance(net.nodes[0], net.nodes[3])
        d_ew = great_circle_distance(net.nodes[0], net.nodes[1])
        assert d_ns == pytest.approx(1000.0, rel=1e-6)
        assert d_ew == pytest.approx(1000.0, rel=1e-6)


class TestGreatCircle:
    def test_identity(self):
        p = GeoPoint(12.34, 56.78)
        assert great_circle_distance(p, p) == 0.0

    def test_one_degree_on_equator(self):
        # closed form: R * pi / 180 per degree along the equator
        expected = EARTH_RADIUS_M * math.pi / 180.0
        d = great_circle_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert abs(d - expected) < 0.1
        assert abs(d - 111194.9) < 0.1

    @given(coords, coords)
    def test_symmetric_and_nonnegative(self, a, b):
        d = great_circle_distance(a, b)
        assert d >= 0.0
        assert d == great_circle_distance(b, a)

    def test_invalid_coordinates_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)


# Off the equator so the cos(latitude) factor matters; 0.0045 deg ~ one 500 m step.
_SNAP_NET = build_grid_network(5, 5, 500.0, 10.0, anchor=GeoPoint(48.0, 11.0))


class TestSnap:
    def test_exact_node(self, grid3):
        for nid, p in grid3.nodes.items():
            assert grid3.snap_to_node(p) == nid

    def test_tie_breaks_to_lowest_id(self):
        # nodes 3 and 7 share coordinates: any query ties, 3 must win
        shared = GeoPoint(0.01, 0.01)
        nodes = {3: shared, 7: shared, 1: GeoPoint(0.5, 0.5)}
        net = RoadNetwork(nodes, [])
        assert net.snap_to_node(GeoPoint(0.0, 0.0)) == 3

    def test_outside_bounding_box_snaps_to_corner(self, grid3):
        probe = GeoPoint(-0.05, -0.07)  # far south-west of the lattice
        best = min(
            grid3.nodes, key=lambda nid: (great_circle_distance(probe, grid3.nodes[nid]), nid)
        )
        assert grid3.snap_to_node(probe) == best == 0

    def test_empty_network_rejected(self):
        net = RoadNetwork({}, [])
        with pytest.raises(ValueError):
            net.snap_to_node(GeoPoint(0.0, 0.0))

    @settings(max_examples=300)
    @given(st.floats(47.99, 48.03), st.floats(10.99, 11.04))
    def test_matches_scalar_scan_near_the_lattice(self, lat, lon):
        p = GeoPoint(lat, lon)
        assert _SNAP_NET.snap_to_node(p) == snap_oracle(_SNAP_NET, p)

    @given(coords)
    def test_matches_scalar_scan_anywhere(self, p):
        assert _SNAP_NET.snap_to_node(p) == snap_oracle(_SNAP_NET, p)

    def test_matches_scalar_scan_at_midpoints(self):
        nodes = _SNAP_NET.nodes
        probes = [
            GeoPoint((nodes[u].lat + nodes[v].lat) / 2.0, (nodes[u].lon + nodes[v].lon) / 2.0)
            for u, v, _, _ in _SNAP_NET.edges
        ]
        cells = [(r * 5 + c, (r + 1) * 5 + c + 1) for r in range(4) for c in range(4)]
        probes += [
            GeoPoint((nodes[u].lat + nodes[v].lat) / 2.0, (nodes[u].lon + nodes[v].lon) / 2.0)
            for u, v in cells
        ]
        for p in probes:
            assert _SNAP_NET.snap_to_node(p) == snap_oracle(_SNAP_NET, p)

    def test_exact_four_way_tie_goes_to_lowest_id(self):
        # the origin is exactly equidistant from all four nodes
        nodes = {5: GeoPoint(0.01, 0.0), 9: GeoPoint(0.0, 0.01), 2: GeoPoint(-0.01, 0.0), 4: GeoPoint(0.0, -0.01)}
        net = RoadNetwork(nodes, [])
        origin = GeoPoint(0.0, 0.0)
        assert len({great_circle_distance(origin, q) for q in nodes.values()}) == 1
        assert net.snap_to_node(origin) == snap_oracle(net, origin) == 2


def enumerate_paths(net, origin, dest, seen=None):
    """All simple paths of an undirected network with their distance
    (test-only oracle, reading nothing but ``net.edges``)."""
    seen = seen or (origin,)
    if origin == dest:
        yield seen, 0.0
        return
    for u, v, length, _ in net.edges:
        for a, b in ((u, v), (v, u)):
            if a != origin or b in seen:
                continue
            for path, d in enumerate_paths(net, b, dest, seen + (b,)):
                yield path, d + length


class TestShortestPath:
    def test_identity(self, grid3):
        route = grid3.shortest_path(4, 4)
        assert route.distance == 0.0
        assert route.time == 0.0

    @pytest.mark.parametrize("origin,dest", [(0, 8), (2, 6), (1, 7)])
    def test_corner_to_corner_matches_enumeration(self, grid3, origin, dest):
        # every edge is 1000 m at 10 m/s: the route is the fewest hops, its
        # time a tenth of its length
        paths = list(enumerate_paths(grid3, origin, dest))
        route = grid3.shortest_path(origin, dest)
        assert route.distance == min(d for _, d in paths) == 1000.0 * min(len(p) - 1 for p, _ in paths)
        assert route.time == route.distance / 10.0

    def test_disconnected_raises(self):
        nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.01), 2: GeoPoint(0.0, 0.02)}
        net = RoadNetwork(nodes, [(0, 1, 1000.0, 100.0)])
        with pytest.raises(NoRouteError):
            net.shortest_path(0, 2)

    def test_undirected_symmetry(self, grid3):
        for a, b in itertools.combinations(range(9), 2):
            assert grid3.shortest_path(a, b).distance == grid3.shortest_path(b, a).distance

    @pytest.mark.parametrize("rows,cols", [(3, 3), (4, 4), (5, 5)])
    def test_triangle_inequality_exhaustive(self, rows, cols):
        net = build_grid_network(rows, cols, 700.0, 10.0)
        n = rows * cols
        dist = {
            (a, b): net.distance_time(a, b)[0] for a in range(n) for b in range(n)
        }
        for a, b, c in itertools.product(range(n), repeat=3):
            assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)] + 1e-9

    def test_time_accumulates_along_distance_optimal_path(self):
        # short-but-slow edge must win on distance, dragging its time along
        nodes = {i: GeoPoint(0.0, 0.001 * i) for i in range(3)}
        edges = [(0, 1, 100.0, 500.0), (0, 2, 500.0, 10.0), (2, 1, 500.0, 10.0)]
        net = RoadNetwork(nodes, edges)
        route = net.shortest_path(0, 1)
        assert route.distance == 100.0
        assert route.time == 500.0


def tie_network(edges, directed=False):
    """Nodes listed in descending id order, so a rule that follows insertion
    order instead of ids would show."""
    ids = sorted({n for u, v, _, _ in edges for n in (u, v)}, reverse=True)
    return RoadNetwork({nid: GeoPoint(0.0, 0.001 * nid) for nid in ids}, edges, directed=directed)


class TestDijkstraTies:
    """Equal-distance paths keep the time of the predecessor settled first,
    i.e. the lowest (distance, id); the networkx comparison above never ties."""

    def test_equal_distance_predecessors_tie_to_lowest_id(self):
        # 0 -> 7 -> 9 and 0 -> 3 -> 9 are both 200 m; 3 settles before 7,
        # so its path's time counts although 7's is shorter
        net = tie_network([(0, 7, 100.0, 1.0), (7, 9, 100.0, 1.0), (0, 3, 100.0, 40.0), (3, 9, 100.0, 40.0)])
        assert net.distance_time(0, 9) == (200.0, 80.0)

    def test_equal_distance_predecessors_tie_to_lowest_distance(self):
        # 0 -> 8 -> 9 (50 + 150 m) and 0 -> 2 -> 9 (100 + 100 m): 8 settles
        # first, at 50 m, although its id is higher and its time longer
        net = tie_network([(0, 2, 100.0, 1.0), (2, 9, 100.0, 1.0), (0, 8, 50.0, 30.0), (8, 9, 150.0, 70.0)])
        assert net.distance_time(0, 9) == (200.0, 100.0)

    @pytest.mark.parametrize("times", [(30.0, 20.0), (20.0, 30.0)])
    def test_parallel_edges_of_equal_length_take_the_lower_time(self, times):
        net = tie_network([(0, 1, 100.0, times[0]), (1, 0, 100.0, times[1])])
        assert net.distance_time(0, 1) == (100.0, 20.0)
        assert net.distance_time(1, 0) == (100.0, 20.0)

    def test_shorter_parallel_edge_wins_whatever_its_time(self):
        net = tie_network([(0, 1, 100.0, 5.0), (0, 1, 90.0, 50.0)])
        assert net.distance_time(0, 1) == (90.0, 50.0)

    def test_unknown_endpoints(self):
        net = tie_network([(0, 1, 100.0, 10.0)], directed=True)
        with pytest.raises(NoRouteError):
            net.distance_time(0, 5)
        with pytest.raises(NoRouteError):
            net.distance_time(1, 0)
        with pytest.raises(KeyError):
            net.distance_time(5, 0)
        with pytest.raises(KeyError):
            net.shortest_path(0, 5)
        assert isinstance(net.distance_time(0, 1)[0], float)


class TestVanishingEdge:
    def test_an_edge_that_adds_nothing_to_a_path_names_itself_and_the_origin(self):
        # from 0, a heap Dijkstra settles 1 before 2, both at 1e20 m, so 1
        # reads 11 s through 5; the (distance, id) rule behind the trees
        # would take 2 -> 1 and read 321 s
        nodes = {nid: GeoPoint(0.0, 0.001 * nid) for nid in (0, 1, 2, 5)}
        edges = [(0, 5, 1e20, 1.0), (5, 1, 1.0, 10.0), (5, 2, 1.0, 20.0), (2, 1, 1.0, 300.0)]
        net = RoadNetwork(nodes, edges, directed=True)
        dist, time = full_dijkstra(edges, True, 0)
        assert (dist[1], time[1], dist[2], time[2]) == (1e20, 11.0, 1e20, 21.0)
        message = r"^edge \(2, 1\) of length 1\.0 adds nothing to the 1e\+20 m path to node 2 from node 0$"
        for _ in range(2):  # nothing of the failed batch is kept
            with pytest.raises(ValueError, match=message):
                net.distance_times([5, 0], [1, 1])
        assert net.distance_time(5, 1) == (1.0, 10.0)


def random_network(seed, directed):
    """2-50 nodes with uniform random lengths and times and no parallel
    edges: a random tree from node 0 (so every node is reachable from it)
    plus up to 2n random extra edges."""
    rng = random.Random(seed)
    n = rng.randint(2, 50)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in pairs:
            pairs.add((u, v))
    edges = [(u, v, rng.uniform(1.0, 1000.0), rng.uniform(1.0, 100.0)) for u, v in sorted(pairs)]
    return RoadNetwork({i: GeoPoint(0.0, 0.001 * i) for i in range(n)}, edges, directed=directed)


class TestDijkstraAgainstNetworkx:
    def test_random_networks(self):
        # unlike a grid, random lengths make later relaxations undercut
        # earlier ones, so the heap holds stale entries that must be skipped
        nx = pytest.importorskip("networkx")
        compared = 0
        for seed in range(120):
            directed = seed % 2 == 1
            net = random_network(seed, directed)
            graph = nx.DiGraph() if directed else nx.Graph()
            graph.add_nodes_from(net.nodes)
            graph.add_edges_from((u, v, {"length": length, "time": t}) for u, v, length, t in net.edges)
            for origin in net.nodes:
                dist, paths = nx.single_source_dijkstra(graph, origin, weight="length")
                for dest in net.nodes:
                    if dest not in dist:
                        with pytest.raises(NoRouteError):
                            net.distance_time(origin, dest)
                        continue
                    time = 0.0
                    for u, v in zip(paths[dest], paths[dest][1:]):
                        time += graph[u][v]["time"]
                    assert net.distance_time(origin, dest) == (dist[dest], time), (seed, origin, dest)
                    compared += 1
        assert compared > 50_000


@st.composite
def _query_case(draw):
    """A small network, directed or not and often disconnected, with all-equal,
    few-valued or random lengths, plus a sequence of (origin, dest) queries
    (dest 999 is no node).  Ids have gaps and are listed in descending order,
    so an index mix-up would show."""
    ids = [3 * i + 1 for i in range(draw(st.integers(1, 9)))]
    lengths = draw(
        st.sampled_from([st.just(1000.0), st.sampled_from((500.0, 1000.0, 1500.0)), st.floats(1.0, 1000.0)])
    )
    edge = st.tuples(st.sampled_from(ids), st.sampled_from(ids), lengths, st.sampled_from((10.0, 20.0, 35.0)))
    edges = draw(st.lists(edge, max_size=3 * len(ids)))
    queries = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids + [999])), min_size=1, max_size=30))
    nodes = {nid: GeoPoint(0.0, 0.001 * nid) for nid in reversed(ids)}
    return nodes, edges, draw(st.booleans()), queries


class TestPartialTrees:
    """Trees are grown whole, for the origins asked and only once each."""

    @settings(max_examples=300, deadline=None)
    @given(_query_case())
    def test_any_query_order_answers_like_a_full_run(self, case):
        nodes, edges, directed, queries = case
        net = RoadNetwork(nodes, edges, directed=directed)
        for origin, dest in queries:
            dist, time = full_dijkstra(edges, directed, origin)
            if dest in dist:
                assert net.distance_time(origin, dest) == (dist[dest], time[dest])
            else:
                with pytest.raises(NoRouteError):
                    net.distance_time(origin, dest)

    @pytest.mark.parametrize("chunk", [geo._TREE_CHUNK, 1, 3])
    @settings(max_examples=150, deadline=None)
    @given(_query_case())
    def test_one_bulk_call_answers_like_a_full_run(self, chunk, case):
        # chunks of 1 and 3 (origin, arc) entries grow the trees one to three
        # origins at a time
        nodes, edges, directed, queries = case
        net = RoadNetwork(nodes, edges, directed=directed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geo, "_TREE_CHUNK", chunk)
            distance, time = net.distance_times(*zip(*queries))
        for (origin, dest), answer in zip(queries, zip(distance.tolist(), time.tolist())):
            dist, times = full_dijkstra(edges, directed, origin)
            assert answer == (dist.get(dest, math.inf), times.get(dest, math.inf))
        with pytest.raises(KeyError, match="unknown node 999"):
            net.distance_times([queries[0][0], 999], [queries[0][1]] * 2)
        with pytest.raises(ValueError, match="1 origins but 3 destinations"):
            net.distance_times([queries[0][0]], [queries[0][1]] * 3)

    def test_distance_times_grows_each_missing_origin_once(self, monkeypatch):
        net = build_grid_network(1, 10, 1000.0, 10.0)  # a line, 0 - 1 - ... - 9
        grown, grow_trees = [], net._grow_trees

        def counted(sources):
            grown.append(sources.tolist())
            return grow_trees(sources)

        monkeypatch.setattr(net, "_grow_trees", counted)
        assert net.distance_time(0, 2) == (2000.0, 200.0)
        distance, time = net.distance_times([9, 0, 5, 9, 5], [0, 9, 5, 0, 1])
        assert distance.tolist() == [9000.0, 9000.0, 0.0, 9000.0, 4000.0]
        assert time.tolist() == [900.0, 900.0, 0.0, 900.0, 400.0]
        assert net.distance_times([5, 0, 9], [0, 0, 0])[0].tolist() == [5000.0, 0.0, 9000.0]
        assert grown == [[0], [5, 9]]

    def test_trees_hold_unboxed_floats(self):
        # boxed lists cost about 64 B per (origin, node): a list slot and a
        # float object each for distance and time
        net = build_grid_network(20, 20, 500.0, 10.0)
        nodes = list(net.nodes)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            answers = [net.distance_time(origin, dest) for origin in nodes for dest in nodes]
            del answers
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 24 * len(nodes) ** 2
        distance, time = net.distance_time(0, 399)
        assert type(distance) is float and type(time) is float


def irregular_grid(seed, directed, hub):
    """A 20 x 20 grid of roads with random lengths and times rounded to 6
    decimals, as `read_network` reads them, and 80 equal-length parallel
    roads of another time; with `hub`, node 400 joined to all 400 others by
    longer roads.  Directed, each road runs both ways at lengths of its own,
    but one in ten runs one way only, and none runs into node 0."""
    rng = random.Random(seed)
    nodes = {r * 20 + c: GeoPoint(0.01 * r, 0.01 * c) for r in range(20) for c in range(20)}
    roads = [(n, n + 1, 100.0) for n in nodes if n % 20 < 19] + [(n, n + 20, 100.0) for n in nodes if n < 380]
    if hub:
        nodes[400] = GeoPoint(0.095, 0.095)
        roads += [(400, n, 1000.0) for n in range(400)]
    if directed:
        roads += [(v, u, least) for u, v, least in roads if rng.random() < 0.9]
        roads = [road for road in roads if road[1] != 0]

    def rounded(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    edges = [(u, v, rounded(least, 10 * least), rounded(10.0, 100.0)) for u, v, least in roads]
    edges += [(u, v, length, rounded(10.0, 100.0)) for u, v, length, _ in rng.sample(edges, 80)]
    rng.shuffle(edges)
    return nodes, edges


class TestIrregularNetworksAtSize:
    """Every (origin, node) answer on 400- and 401-node networks with random
    lengths and tied parallel roads, read in bulk in random splits and
    orders and one at a time, mixed on one network, equals a heap Dijkstra's
    bit for bit."""

    @pytest.mark.parametrize("hub", [False, True], ids=["grid", "hub"])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_every_answer_equals_full_dijkstra(self, directed, hub):
        nodes, edges = irregular_grid(7 + 2 * directed + hub, directed, hub)
        expected = {origin: full_dijkstra(edges, directed, origin) for origin in nodes}
        rng = random.Random(1)
        queries = [(origin, dest) for origin in nodes for dest in nodes]
        rng.shuffle(queries)
        cuts = [0] + sorted(rng.sample(range(1, len(queries)), 7)) + [len(queries)]
        net = RoadNetwork(nodes, edges, directed=directed)
        unreached = 0
        for part, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            batch = queries[lo:hi]
            if part % 2:  # one query at a time
                for origin, dest in batch:
                    dist, time = expected[origin]
                    if dest in dist:
                        assert net.distance_time(origin, dest) == (dist[dest], time[dest])
                    else:
                        unreached += 1
                        with pytest.raises(NoRouteError):
                            net.distance_time(origin, dest)
                continue
            distance, time = net.distance_times(*zip(*batch))
            for (origin, dest), answer in zip(batch, zip(distance.tolist(), time.tolist())):
                dist, times = expected[origin]
                assert answer == (dist.get(dest, math.inf), times.get(dest, math.inf))
        assert (unreached > 0) == directed

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_a_scalar_read_fills_its_whole_tree(self, directed, monkeypatch):
        # the hub network of the case above
        nodes, edges = irregular_grid(8 + 2 * directed, directed, True)
        net = RoadNetwork(nodes, edges, directed=directed)
        walked = []
        predecessors = net._predecessors
        monkeypatch.setattr(net, "_predecessors", lambda entries: walked.append(len(entries)) or predecessors(entries))
        rng = random.Random(2)
        ids = sorted(nodes)
        for origin in rng.sample(ids, 12):
            dist, time = full_dijkstra(edges, directed, origin)
            dest = rng.choice([node for node in sorted(dist) if node != origin])
            assert net.distance_time(origin, dest) == (dist[dest], time[dest])
            assert walked
            row = net._tree_row[net._index[origin]]
            # every reached node's time is known; nodes not reached read inf
            assert net._time[row, :-1].tolist() == [time.get(node, math.inf) for node in ids]
            walked.clear()
            for _ in range(3):
                dests = rng.sample(ids, rng.randrange(1, len(ids)))
                if rng.random() < 0.5:
                    answers = list(zip(*(a.tolist() for a in net.distance_times([origin] * len(dests), dests))))
                    assert answers == [(dist.get(d, math.inf), time.get(d, math.inf)) for d in dests]
                else:
                    assert net.times([origin] * len(dests), dests).tolist() == [time.get(d, math.inf) for d in dests]
                assert net.distance_time(origin, dest) == (dist[dest], time[dest])
            assert walked == []


class TestNetworkIO:
    def test_round_trip(self, grid3, tmp_path):
        path = tmp_path / "net.txt"
        write_network(grid3, path)
        loaded = read_network(path)
        assert set(loaded.nodes) == set(grid3.nodes)
        assert len(loaded.edges) == len(grid3.edges)
        for (u, v, length, time), (u2, v2, l2, t2) in zip(grid3.edges, loaded.edges):
            assert (u, v) == (u2, v2)
            assert length == pytest.approx(l2, abs=1e-6)
            assert time == pytest.approx(t2, abs=1e-6)
        assert loaded.shortest_path(0, 8).distance == grid3.shortest_path(0, 8).distance

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# comment\n\nN 0 0.0 0.0\nX what\n")
        with pytest.raises(ValueError, match="net.txt:4: unrecognized network record 'X what'"):
            read_network(path)

    def test_edge_before_its_node_names_the_line(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("N 0 0.0 0.0\nE 0 1 100.0 10.0\nN 1 0.0 0.01\n")
        with pytest.raises(ValueError, match="net.txt:2: network record names an unknown id 1"):
            read_network(path)

    def test_second_node_record_names_the_line(self, tmp_path):
        # the last record would otherwise move node 0 about 786 km while its edge stays 1 000 m long
        path = tmp_path / "net.txt"
        path.write_text("N 0 0.0 0.0\nN 1 0.0 0.01\nE 0 1 1000.0 100.0\nN 0 5.0 5.0\n")
        with pytest.raises(ValueError, match="net.txt:4: bad network record: a second record for node 0$"):
            read_network(path)

    def test_bad_edges_rejected(self):
        nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.01)}
        with pytest.raises(ValueError):
            RoadNetwork(nodes, [(0, 2, 100.0, 10.0)])
        with pytest.raises(ValueError):
            RoadNetwork(nodes, [(0, 1, -5.0, 10.0)])
        with pytest.raises(ValueError):
            RoadNetwork(nodes, [(0, 1, 100.0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["length", "time"])
    def test_non_finite_edges_rejected(self, field, bad):
        nodes = {0: GeoPoint(0.0, 0.0), 1: GeoPoint(0.0, 0.01)}
        edge = (0, 1, bad, 10.0) if field == "length" else (0, 1, 100.0, bad)
        with pytest.raises(ValueError, match=rf"edge \(0, 1\) has (travel )?{field} {bad}"):
            RoadNetwork(nodes, [edge])
