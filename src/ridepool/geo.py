"""Synthetic road networks, coordinate snapping, and shortest-path routing.

All distances downstream (solo routes, shared routes, savings weights) come
from this module.  Proximity is the scalar haversine `great_circle_distance`;
snapping and the pair gate decide it in bulk by dot products of
`unit_vector`s, and ask the haversine only where a dot lies within
`DOT_MARGIN` of deciding.  Networks are immutable after construction.  Nodes
are indexed in ascending id order, and their arcs form one CSR table by node
index.  Routes are read from whole shortest-path trees, kept per origin as
one distance row and one time row of doubles: `RoadNetwork.distance_times`
grows, in numpy, the trees of all the origins a call asks for that have none
yet, a batch of origins at a time, so every later query from those origins
on the same network object is a lookup.  Only origins that some query asks
for get a tree; all pairs would not fit a large network.
"""

import functools
import itertools
import math

from dataclasses import dataclass
from typing import NamedTuple

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


# (origin, arc) entries relaxed at once while shortest-path trees are grown
_TREE_CHUNK = 1 << 16

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


class _Arcs(NamedTuple):
    """A network's arcs as a CSR table by source index, then (target, length,
    time), so parallel arcs come shortest first and, at equal length,
    fastest first; the arcs out of node index i are start[i] .. start[i + 1]
    - 1.  Per arc: its source and target node index, the step from one to
    the other, its length and time; per node index, with one inf entry more,
    the length of its shortest arc out."""

    start: np.ndarray
    count: np.ndarray
    source: np.ndarray
    target: np.ndarray
    step: np.ndarray
    length: np.ndarray
    time: np.ndarray
    shortest: np.ndarray


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
        self._ids = np.array(self._node_ids)
        for u, v, length, time in edges:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            _check_edge_cost(u, v, length, time)
            self.edges.append((u, v, float(length), float(time)))
        self._directed = directed
        # the trees grown so far: per node index (and -1, for no node) its row
        # in _dist and _time, or -1 while it has no tree; a row has an entry
        # per node index and one more, index n or -1, that no arc reaches:
        # there an unknown destination reads inf
        n = len(self._node_ids)
        self._tree_row = np.full(n + 1, -1, dtype=np.intp)
        self._dist = self._time = np.zeros((0, n + 1))
        self._vectors = np.array([unit_vector(q) for q in self.nodes.values()])

    @functools.cached_property
    def _arcs(self) -> _Arcs:
        """The arcs, built when the first tree is grown."""
        index, arcs = self._index, []
        for u, v, length, time in self.edges:
            arcs.append((index[u], index[v], length, time))
            if not self._directed:
                arcs.append((index[v], index[u], length, time))
        arcs.sort()
        table = np.fromiter(itertools.chain.from_iterable(arcs), float, 4 * len(arcs)).reshape(-1, 4)
        source, target = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)
        length, time = table[:, 2].copy(), table[:, 3].copy()
        start = np.searchsorted(source, np.arange(len(self._node_ids) + 1))
        shortest = np.full(len(self._node_ids) + 1, math.inf)
        np.minimum.at(shortest, source, length)
        return _Arcs(start, np.diff(start), source, target, target - source, length, time, shortest)

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

    def _grow_trees(self, sources):
        """Store the full shortest-path trees from node indices `sources`, none
        of which has one yet, growing `_TREE_CHUNK` (origin, arc) entries'
        worth of them at a time with `_trees`."""
        batch = max(1, _TREE_CHUNK // max(1, len(self._arcs.target)))
        grown = [self._trees(sources[lo : lo + batch]) for lo in range(0, len(sources), batch)]
        self._tree_row[sources] = len(self._dist) + np.arange(len(sources))
        self._dist = np.concatenate([self._dist] + [dist for dist, _ in grown])
        self._time = np.concatenate([self._time] + [time for _, time in grown])

    def _trees(self, sources):
        """(distance, time) by node index of the trees from node indices
        `sources`, one row each, each row ending in one entry that no arc
        reaches; inf where a node is not reached.

        Distances are the least fixpoint of D[v] = min over arcs (u, v) of
        D[u] + length, reached by frontier relaxation: the minimum over
        walks of their lengths summed left to right, which is what a heap
        Dijkstra finds, since its every distance is such a sum and no arc
        can lower it.  Each reached node's predecessor arc is, among the arcs
        with D[u] + length == D[v], the one of lowest D[u], then lowest arc
        rank (u, length, time): Dijkstra's, whose nodes settle by (distance,
        id) when every arc lengthens the path it extends, and the first
        settled predecessor to reach a node's distance gives it its time,
        over the fastest of equal-length parallel arcs.  An arc out of a
        reached node that adds nothing to its distance raises ValueError:
        the settle order, and so the times, would be another.  Times are
        summed down the predecessor tree, t[v] = t[u] + arc time, one level
        of hops from the root at a time.
        """
        n, inf, csr = len(self._node_ids) + 1, math.inf, self._arcs
        start, count, step, length = csr.start, csr.count, csr.step, csr.length
        end = start[1:]
        # entries are flat (row, node index) positions, row-major
        roots = np.arange(len(sources)) * n + sources
        dist = np.full(len(sources) * n, inf)
        dist[roots] = 0.0
        frontier, improved = roots, np.zeros(len(dist), dtype=bool)
        while frontier.size:
            # every arc out of the frontier: its tail and head entries
            nodes = frontier % n
            out = count[nodes]
            ends = out.cumsum()
            arcs = np.arange(ends[-1]) + (end[nodes] - ends).repeat(out)
            tails = frontier.repeat(out)
            heads = tails + step[arcs]
            reach = dist[tails] + length[arcs]
            better = reach < dist[heads]
            heads = heads[better]
            np.minimum.at(dist, heads, reach[better])
            improved[heads] = True
            (frontier,) = improved.nonzero()
            improved[frontier] = False
        table = dist.reshape(len(sources), n)
        reached = np.where(table < inf, table, np.nan)  # nan equals nothing
        # the shortest arc out of a node is the first to vanish
        vanished = np.flatnonzero(reached + csr.shortest == reached)
        if len(vanished):
            row, u = divmod(vanished[0], n)
            arc = start[u] + np.flatnonzero(length[start[u] : start[u + 1]] == csr.shortest[u])[0]
            raise ValueError(
                f"edge ({self._node_ids[u]}, {self._node_ids[csr.target[arc]]}) of length {length[arc]} "
                f"adds nothing to the {table[row, u]} m path to node {self._node_ids[u]} "
                f"from node {self._node_ids[sources[row]]}"
            )
        # each reached entry's predecessor arc (len(length) for the others)
        # and tail entry (itself for the others)
        tail_dist = reached[:, csr.source]
        tied = np.flatnonzero(tail_dist + length == reached[:, csr.target])
        arcs = tied % len(length)
        heads = tied // len(length) * n + csr.target[arcs]
        tail_dist = tail_dist.ravel()[tied]
        lowest = np.full(len(dist), inf)
        np.minimum.at(lowest, heads, tail_dist)
        first = tail_dist == lowest[heads]
        pred = np.full(len(dist), len(length), dtype=np.intp)
        np.minimum.at(pred, heads[first], arcs[first])
        heads = np.flatnonzero(pred < len(length))
        tail = np.arange(len(dist))
        tail[heads] -= step[pred[heads]]
        # hops from the root by pointer doubling: `hops` counts those up to
        # `up`, which ends at the root
        hops = (tail != np.arange(len(dist))).astype(np.intp)
        up = tail
        while (up[up] != up).any():
            hops += hops[up]
            up = up[up]
        levels = np.cumsum(np.bincount(hops))
        order = np.argsort(hops, kind="stable")[levels[0] :]  # hops 0: roots, unreached
        tail, arc_time = tail[order], csr.time[pred[order]]
        time = np.full(len(dist), inf)
        time[roots] = 0.0
        for lo, hi in zip(levels[:-1] - levels[0], levels[1:] - levels[0]):
            time[order[lo:hi]] = time[tail[lo:hi]] + arc_time[lo:hi]
        return table, time.reshape(len(sources), n)

    def _indices(self, ids):
        """The node index of each of `ids`, -1 for an id that is no node."""
        at = self._ids.searchsorted(ids)
        return np.where(self._ids.searchsorted(ids, side="right") > at, at, -1)

    def distance_times(self, origins, dests):
        """(distance_m, time_s) arrays of the minimum-distance paths from each
        of `origins` to the node id at the same place in `dests`, inf where
        there is none (an unknown destination included); an unknown origin
        raises KeyError.  Each origin's full tree is grown the first time
        it is asked for, for all new origins of a call at once, and kept."""
        if len(origins) != len(dests):
            raise ValueError(f"{len(origins)} origins but {len(dests)} destinations")
        sources, targets = self._indices(np.concatenate([origins, dests])).reshape(2, -1)
        rows = self._tree_row[sources]
        if (rows < 0).any():
            if (sources < 0).any():
                raise KeyError(f"unknown node {origins[np.flatnonzero(sources < 0)[0]]}")
            # each missing tree once, in index order
            self._grow_trees(np.flatnonzero(np.bincount(sources[rows < 0])))
            rows = self._tree_row[sources]
        return self._dist[rows, targets], self._time[rows, targets]

    def distance_time(self, origin, dest):
        """`distance_times` of one query, as floats; time is summed along the
        minimum-distance path, not minimized.  An unknown origin raises
        KeyError; an unknown or unreachable destination, NoRouteError."""
        source = self._index.get(origin)
        if source is None:
            raise KeyError(f"unknown node {origin}")
        if self._tree_row[source] < 0:
            self._grow_trees(np.array([source]))
        row, target = self._tree_row[source], self._index.get(dest)
        if target is None or self._dist[row, target] == math.inf:
            raise NoRouteError(f"no route from node {origin} to node {dest}")
        return float(self._dist[row, target]), float(self._time[row, target])

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
