"""Synthetic road networks, coordinate snapping, and shortest-path routing.

All distances downstream (solo routes, shared routes, savings weights) come
from this module.  Networks are immutable after construction; shortest-path
queries are memoized per origin, so repeated pair evaluations are cheap.
"""

import heapq
import math

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
        adjacency = {nid: [] for nid in self.nodes}
        for u, v, length, time in edges:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            _check_edge_cost(u, v, length, time)
            length, time = float(length), float(time)
            self.edges.append((u, v, length, time))
            adjacency[u].append((v, length, time))
            if not directed:
                adjacency[v].append((u, length, time))
        self._adjacency = {nid: tuple(sorted(near)) for nid, near in adjacency.items()}
        self._sssp = {}
        self._node_ids = tuple(self.nodes)
        self._node_lat = np.array([q.lat for q in self.nodes.values()], dtype=float)
        self._node_lon = np.array([q.lon for q in self.nodes.values()], dtype=float)
        self._node_cos_lat = np.cos(np.radians(self._node_lat))

    def neighbors(self, node_id):
        return self._adjacency[node_id]

    def snap_to_node(self, p: GeoPoint) -> int:
        """Nearest node by great-circle distance; ties go to the lowest id.

        A numpy haversine over all nodes shortlists those within a relative
        1e-9 (plus 1e-6 m) of its minimum, far wider than its rounding
        differences from the scalar formula; the shortlist is then re-ranked
        with ``great_circle_distance`` in ascending id order, so the answer
        is exactly that of a scalar scan over every node.
        """
        if not self.nodes:
            raise ValueError("cannot snap onto an empty network")
        dphi = np.radians(self._node_lat - p.lat)
        dlam = np.radians(self._node_lon - p.lon)
        h = np.sin(dphi / 2.0) ** 2 + math.cos(math.radians(p.lat)) * self._node_cos_lat * np.sin(dlam / 2.0) ** 2
        d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        best_id, best_d = None, math.inf
        for i in np.flatnonzero(d <= d.min() * (1.0 + 1e-9) + 1e-6):  # ascending id order
            nid = self._node_ids[i]
            exact = great_circle_distance(p, self.nodes[nid])
            if exact < best_d:
                best_id, best_d = nid, exact
        return best_id

    def _single_source(self, origin):
        cached = self._sssp.get(origin)
        if cached is not None:
            return cached
        if origin not in self.nodes:
            raise KeyError(f"unknown node {origin}")
        dist = {origin: 0.0}
        time = {origin: 0.0}
        heap = [(0.0, origin)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:  # a stale entry; edge lengths > 0, so u is settled
                continue
            for v, length, t in self._adjacency[u]:
                nd = d + length
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    time[v] = time[u] + t
                    heapq.heappush(heap, (nd, v))
        result = (dist, time)
        self._sssp[origin] = result
        return result

    def distance_time(self, origin, dest):
        """(distance_m, time_s) of the minimum-distance path; time is summed
        along that path, not minimized."""
        dist, time = self._single_source(origin)
        if dest not in dist:
            raise NoRouteError(f"no route from node {origin} to node {dest}")
        return dist[dest], time[dest]

    def shortest_path(self, origin, dest) -> Route:
        """`distance_time` as a `Route`; origin == dest yields a zero-length
        route, and an unknown node raises KeyError."""
        if dest not in self.nodes:
            raise KeyError(f"unknown node {dest}")
        return Route(*self.distance_time(origin, dest))


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
    dlat = spacing / METERS_PER_DEGREE
    dlon = spacing / (METERS_PER_DEGREE * math.cos(math.radians(anchor.lat)))
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


def read_records(path, kind, widths, parse) -> list:
    """`parse(fields)` of each record of a flat-file artifact, in file order.

    Blank lines and `#` lines are skipped.  `widths` maps each record tag to
    its field count (tag included), or to None for a variable count.  Any
    other line, and a ValueError or KeyError from `parse`, raise a ValueError
    that starts with `<path>:<line>:`.
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
    return records


def read_network(path) -> RoadNetwork:
    """The network written by `write_network`.  An `E` record must follow the
    `N` records of both its nodes; a bad edge is reported at its line."""
    nodes, edges = {}, []

    def parse(fields):
        if fields[0] == "N":
            nodes[int(fields[1])] = GeoPoint(float(fields[2]), float(fields[3]))
        else:
            u, v, length, time = int(fields[1]), int(fields[2]), float(fields[3]), float(fields[4])
            for node in (u, v):
                if node not in nodes:
                    raise KeyError(node)
            _check_edge_cost(u, v, length, time)
            edges.append((u, v, length, time))

    read_records(path, "network", {"N": 4, "E": 5}, parse)
    return RoadNetwork(nodes, edges)
