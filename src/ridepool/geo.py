"""Synthetic road networks, coordinate snapping, and shortest-path routing.

All distances downstream (solo routes, shared routes, savings weights) come
from this module.  Proximity is the scalar haversine `great_circle_distance`;
snapping and the pair gate decide it in bulk by dot products of
`unit_vector`s, and ask the haversine only where a dot lies within
`DOT_MARGIN` of deciding.  Networks are immutable after construction.  Nodes
are indexed in ascending id order, and one adjacency list by node index
serves every query.  Each origin keeps one resumable Dijkstra over that list (its
distance and time per node index as unboxed doubles, its heap and a settled
mark): a query continues it only until the asked node is settled, so a node
settled once is a lookup for every later query from the same origin on the
same network object, and no tree is grown further than some query needed.
"""

import heapq
import math

from array import array
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0


class NoRouteError(Exception):
    """No path exists between the requested nodes."""


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class Route:
    """A shortest path as its length (m) and the travel time (s) along it."""

    distance: float
    time: float


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in meters (Earth radius 6,371,000 m)."""
    phi_a = math.radians(a.lat)
    phi_b = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi_a) * math.cos(phi_b) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


# twice the bound `unit_vector` states between a rounded dot and the haversine
DOT_MARGIN = 1e-12


def unit_vector(p: GeoPoint) -> tuple:
    """`p` on the unit sphere as (x, y, z).

    The dot u · v of two of these is cos θ for the central angle θ, which
    falls as the haversine rises.  Rounded, u · v lies within DOT_MARGIN / 2
    of cos(d / R) on either side, for d their `great_circle_distance` and
    R = EARTH_RADIUS_M: the two differ by about 1e-15 at most, some 400
    times less.  So a node whose dot is more than DOT_MARGIN below another's
    is strictly farther by `great_circle_distance`, and a dot of at least
    cos(r / R) + DOT_MARGIN (below cos(r / R) - DOT_MARGIN) puts d within
    (beyond) a radius r < pi R.
    """
    phi, lam = math.radians(p.lat), math.radians(p.lon)
    cos_phi = math.cos(phi)
    return (cos_phi * math.cos(lam), cos_phi * math.sin(lam), math.sin(phi))


def _check_edge_cost(u, v, length, time):
    if not 0.0 < length < math.inf:
        raise ValueError(f"edge ({u}, {v}) has length {length}; expected a finite positive number")
    if not 0.0 < time < math.inf:
        raise ValueError(f"edge ({u}, {v}) has travel time {time}; expected a finite positive number")


class RoadNetwork:
    """Geographic graph with per-edge length (m) and travel time (s).

    Undirected by default.  Shortest paths minimize distance; travel time is
    accumulated along the distance-optimal path rather than optimized
    separately.
    """

    def __init__(self, nodes, edges, directed=False):
        self.nodes = dict(sorted(nodes.items()))
        self.edges = []
        self._node_ids = tuple(self.nodes)
        self._index = {nid: i for i, nid in enumerate(self._node_ids)}
        adjacency = [[] for _ in self._node_ids]
        for u, v, length, time in edges:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            _check_edge_cost(u, v, length, time)
            length, time = float(length), float(time)
            self.edges.append((u, v, length, time))
            i, j = self._index[u], self._index[v]
            adjacency[i].append((j, length, time))
            if not directed:
                adjacency[j].append((i, length, time))
        # per node index: (neighbour index, length, time), sorted, so parallel
        # edges are relaxed shortest first and, at equal length, fastest first
        self._adjacency = [tuple(sorted(near)) for near in adjacency]
        self._sssp = {}
        self._vectors = np.array([unit_vector(q) for q in self.nodes.values()])

    def snap_to_node(self, p: GeoPoint) -> int:
        """Nearest node by great-circle distance; ties go to the lowest id.

        One product of the node and point `unit_vector`s shortlists the nodes
        whose dot is within DOT_MARGIN of the largest, which holds every node
        nearest by `great_circle_distance`.  A lone survivor is the answer;
        several are re-ranked with `great_circle_distance` in ascending id
        order, so the answer is exactly that of a scalar scan over every node.
        """
        if not self.nodes:
            raise ValueError("cannot snap onto an empty network")
        dots = self._vectors @ unit_vector(p)
        near = np.flatnonzero(dots >= dots.max() - DOT_MARGIN)  # ascending id order
        if len(near) == 1:
            return self._node_ids[near[0]]
        best_id, best_d = None, math.inf
        for i in near:
            nid = self._node_ids[i]
            exact = great_circle_distance(p, self.nodes[nid])
            if exact < best_d:
                best_id, best_d = nid, exact
        return best_id

    def _new_tree(self, origin):
        """A fresh shortest-path tree from `origin`: distance and time by node
        index (inf where not reached yet), each an `array('d')` so that a tree
        costs 8 bytes per node for each rather than a boxed float and a list
        slot; the (distance, index) heap; and a settled mark per node index.
        Nothing is settled yet."""
        source = self._index.get(origin)
        if source is None:
            raise KeyError(f"unknown node {origin}")
        n = len(self._adjacency)
        dist = array("d", [math.inf]) * n
        time = array("d", [math.inf]) * n
        dist[source] = time[source] = 0.0
        tree = (dist, time, [(0.0, source)], bytearray(n))
        self._sssp[origin] = tree
        return tree

    def _settle(self, tree, target):
        """Continue `tree`'s Dijkstra until node index `target` is settled or
        the heap is empty (then `target` is unreachable).

        Heap entries are (distance, index) and index order is id order, so
        nodes settle by (distance, id), and a node's time comes from the first
        settled predecessor that reaches its final distance.  Pops happen in
        the order of one uninterrupted run, and a settled node's distance and
        time never change again, so every answer is that of the full tree.
        """
        dist, time, heap, settled = tree
        adjacency = self._adjacency
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if settled[u]:  # a stale entry; edge lengths > 0
                continue
            settled[u] = 1
            tu = time[u]
            for v, length, t in adjacency[u]:
                nd = d + length
                if nd < dist[v]:
                    dist[v] = nd
                    time[v] = tu + t
                    push(heap, (nd, v))
            if u == target:
                return

    def distance_time(self, origin, dest):
        """(distance_m, time_s) of the minimum-distance path; time is summed
        along that path, not minimized.  An unknown origin raises KeyError;
        an unknown or unreachable destination, NoRouteError."""
        tree = self._sssp.get(origin) or self._new_tree(origin)
        i = self._index.get(dest)
        if i is not None and not tree[3][i]:
            self._settle(tree, i)
        if i is None or tree[0][i] == math.inf:
            raise NoRouteError(f"no route from node {origin} to node {dest}")
        return tree[0][i], tree[1][i]

    def shortest_path(self, origin, dest) -> Route:
        """`distance_time` as a `Route`; origin == dest yields a zero-length
        route, and an unknown node raises KeyError."""
        if dest not in self.nodes:
            raise KeyError(f"unknown node {dest}")
        return Route(*self.distance_time(origin, dest))


def grid_steps(spacing, anchor_lat):
    """(north, east) degrees between neighbouring `build_grid_network` nodes."""
    return spacing / METERS_PER_DEGREE, spacing / (METERS_PER_DEGREE * math.cos(math.radians(anchor_lat)))


def build_grid_network(rows, cols, spacing, speed, anchor=GeoPoint(0.0, 0.0)) -> RoadNetwork:
    """Lattice of rows x cols nodes with 4-neighbor edges.

    Every edge is `spacing` meters long and takes spacing/speed seconds.
    Node id at (row r, col c) is r*cols + c; coordinates step north/east from
    the anchor so great-circle distances approximate the lattice spacing.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if speed <= 0.0:
        raise ValueError(f"speed must be positive, got {speed}")
    dlat, dlon = grid_steps(spacing, anchor.lat)
    nodes = {}
    for r in range(rows):
        for c in range(cols):
            nodes[r * cols + c] = GeoPoint(anchor.lat + r * dlat, anchor.lon + c * dlon)
    edge_time = spacing / speed
    edges = []
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c
            if c + 1 < cols:
                edges.append((nid, nid + 1, spacing, edge_time))
            if r + 1 < rows:
                edges.append((nid, nid + cols, spacing, edge_time))
    return RoadNetwork(nodes, edges)


def write_network(net: RoadNetwork, path):
    """Line format: `N <id> <lat> <lon>` and `E <from> <to> <length_m> <time_s>`,
    each node before the edges naming it."""
    with open(path, "w") as fh:
        for nid, p in net.nodes.items():
            fh.write(f"N {nid} {p.lat:.10f} {p.lon:.10f}\n")
        for u, v, length, time in net.edges:
            fh.write(f"E {u} {v} {length:.6f} {time:.6f}\n")


def read_records(path, kind, widths, parse, lines=None) -> list:
    """`parse(fields)` of each record of a flat-file artifact, in file order.

    Blank lines and `#` lines are skipped.  `widths` maps each record tag to
    its field count (tag included), or to None for a variable count.  Any
    other line, and a ValueError or KeyError from `parse`, raise a ValueError
    that starts with `<path>:<line>:`; a NoRouteError from `parse` is raised
    again with that prefix.  If `lines` is a list, each record's line number
    is appended to it.
    """
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if fields[0] not in widths or widths[fields[0]] not in (None, len(fields)):
                raise ValueError(f"{path}:{lineno}: unrecognized {kind} record {raw.strip()!r}")
            try:
                records.append(parse(fields))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {kind} record names an unknown id {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
            except NoRouteError as exc:
                raise NoRouteError(f"{path}:{lineno}: {kind} record cannot be routed: {exc}") from exc
            if lines is not None:
                lines.append(lineno)
    return records


def read_network(path) -> RoadNetwork:
    """The network written by `write_network`.  A node id may have one `N`
    record, and an `E` record must follow the `N` records of both its nodes; a
    bad node or edge is reported at its line."""
    nodes, edges = {}, []

    def parse(fields):
        if fields[0] == "N":
            nid = int(fields[1])
            if nid in nodes:
                raise ValueError(f"a second record for node {nid}")
            nodes[nid] = GeoPoint(float(fields[2]), float(fields[3]))
        else:
            u, v, length, time = int(fields[1]), int(fields[2]), float(fields[3]), float(fields[4])
            for node in (u, v):
                if node not in nodes:
                    raise KeyError(node)
            _check_edge_cost(u, v, length, time)
            edges.append((u, v, length, time))

    read_records(path, "network", {"N": 4, "E": 5}, parse)
    return RoadNetwork(nodes, edges)
