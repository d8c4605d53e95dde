"""Synthetic road networks, coordinate snapping, and shortest-path routing.

All distances downstream (solo routes, shared routes, savings weights) come
from this module.  Proximity is the scalar haversine `great_circle_distance`;
snapping and the pair gate decide it in bulk by dot products of
`unit_vector`s, and ask the haversine only where a dot lies within
`DOT_MARGIN` of deciding.  Networks are immutable after construction.  Nodes
are indexed in ascending id order, and their arcs form one CSR table by node
index.  Routes are read from whole shortest-path trees, kept per origin as
one distance row and one time row of doubles: `RoadNetwork.distances` (and
`.times`, `.distance_times`) grows, in numpy, the trees of all the origins a
call asks for that have none yet, a batch of origins at a time, so every
later distance from those origins on the same network object is a lookup.
A tree is grown as its distances; `_fill_times` alone sums times, and keeps
them: those of the paths a bulk read asks for, or all of a tree's unknown
ones at once at a scalar read.  Only origins that some query asks for get a
tree; all pairs would not fit a large network.
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


# entries formed at once by the bulk array work: (origin, arc) entries while
# shortest-path trees are grown, arcs per step of a time walk, (node, point)
# dots while points are snapped
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


def _distinct(values):
    """``np.unique(values)``, without the 20 ms import of ``numpy.ma`` that
    its plain form makes on first use."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


class _Arcs(NamedTuple):
    """A network's arcs as a CSR table by source index, then (target, length,
    time), so parallel arcs come shortest first and, at equal length,
    fastest first; the arcs out of node index i are start[i] .. start[i + 1]
    - 1.  Per arc: its source and target node index, the step from one to
    the other, its length and time; per node index, with one inf entry more,
    the length of its shortest arc out.  The arcs again by target index,
    then arc order, into_count[i] of them into node index i from slot
    into_start[i] on; per slot, the arc's step, length and time."""

    start: np.ndarray
    count: np.ndarray
    source: np.ndarray
    target: np.ndarray
    step: np.ndarray
    length: np.ndarray
    time: np.ndarray
    shortest: np.ndarray
    into_start: np.ndarray
    into_count: np.ndarray
    into_step: np.ndarray
    into_length: np.ndarray
    into_time: np.ndarray


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
        # there an unknown destination reads inf.  A time not read yet is nan
        n = len(self._node_ids)
        self._tree_row = np.full(n + 1, -1, dtype=np.intp)
        self._dist, self._time = np.zeros((0, n + 1)), np.zeros((0, n + 1))
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
        into = np.argsort(target, kind="stable")
        into_start = np.searchsorted(target[into], np.arange(len(self._node_ids) + 1))
        step = target - source
        slots = (into_start, np.diff(into_start), step[into], length[into], time[into])
        return _Arcs(start, np.diff(start), source, target, step, length, time, shortest, *slots)

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
        return self._nearest(p, np.flatnonzero(dots >= dots.max() - DOT_MARGIN))

    def snap_to_nodes(self, points) -> list:
        """`snap_to_node` of each of `points`, by the same shortlist and
        re-rank, from one product of the point and node `unit_vector`s, a
        block of about `_TREE_CHUNK` dots at a time."""
        if not points:
            return []
        if not self.nodes:
            raise ValueError("cannot snap onto an empty network")
        vectors = np.array([unit_vector(p) for p in points])
        block, nodes = max(1, _TREE_CHUNK // len(self._node_ids)), []
        for lo in range(0, len(points), block):
            dots = vectors[lo : lo + block] @ self._vectors.T  # (points, nodes)
            rows, best = np.arange(len(dots)), dots.argmax(axis=1)
            top = dots[rows, best]
            # a point with a second node on its shortlist is re-ranked
            dots[rows, best] = -math.inf
            shared = np.flatnonzero(dots.max(axis=1) >= top - DOT_MARGIN).tolist()
            dots[rows, best] = top
            found = [self._node_ids[i] for i in best.tolist()]
            for j in shared:
                found[j] = self._nearest(points[lo + j], np.flatnonzero(dots[j] >= top[j] - DOT_MARGIN))
            nodes += found
        return nodes

    def _nearest(self, p, near):
        """The node nearest `p` by `great_circle_distance` among the node
        indices `near`, in ascending order; ties go to the lowest id."""
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
        worth of them at a time with `_trees`; their times are unknown but
        at the roots (0) and the nodes not reached (inf)."""
        batch = max(1, _TREE_CHUNK // max(1, len(self._arcs.target)))
        grown = np.concatenate([self._trees(sources[lo : lo + batch]) for lo in range(0, len(sources), batch)])
        time = np.where(grown < math.inf, math.nan, math.inf)
        time[np.arange(len(sources)), sources] = 0.0
        self._tree_row[sources] = len(self._dist) + np.arange(len(sources))
        self._dist = np.concatenate([self._dist, grown])
        self._time = np.concatenate([self._time, time])

    def _trees(self, sources):
        """The distances by node index of the trees from node indices
        `sources`, one row each, each row ending in one entry that no arc
        reaches; inf where a node is not reached.

        Distances are the least fixpoint of D[v] = min over arcs (u, v) of
        D[u] + length, reached by frontier relaxation: the minimum over
        walks of their lengths summed left to right, which is what a heap
        Dijkstra finds, since its every distance is such a sum and no arc
        can lower it.  Dijkstra's nodes settle by (distance, id) when every
        arc lengthens the path it extends, and a node's time comes from the
        first settled predecessor to reach its distance, over the fastest of
        equal-length parallel arcs: `_predecessors`' rule.  An arc out of a
        reached node that adds nothing to its distance raises ValueError:
        the settle order, and so the times, would be another.
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
        return table

    def _predecessors(self, entries):
        """(tail entry, arc time) of the predecessor arc of each of the flat
        tree `entries`, reached nodes but roots: among the arcs (u, v) into
        the entry's node v with D[u] + length == D[v] (it has one or more),
        the one of lowest D[u], then lowest arc index."""
        n, csr, dist = len(self._node_ids) + 1, self._arcs, self._dist.ravel()
        nodes = entries % n
        count = csr.into_count[nodes]
        ends = count.cumsum()
        firsts = ends - count
        slots = np.arange(ends[-1]) + (csr.into_start[nodes] - firsts).repeat(count)
        tails = entries.repeat(count) - csr.into_step[slots]
        tail_dist = dist[tails]
        tight = np.flatnonzero(tail_dist + csr.into_length[slots] == dist[entries].repeat(count))
        pick = tight
        if len(tight) > len(entries):
            # each entry's tight arcs, in slot order, start at `cuts`: take
            # the first, then each later one of lower tail distance
            cuts = tight.searchsorted(firsts)
            several, tail_dist, best = np.diff(cuts, append=len(tight)), tail_dist[tight], cuts.copy()
            for k in range(1, several.max()):
                has = np.flatnonzero(several > k)
                has = has[tail_dist[cuts[has] + k] < tail_dist[best[has]]]
                best[has] = cuts[has] + k
            pick = tight[best]
        return tails[pick], csr.into_time[slots[pick]]

    def _fill_times(self, entries):
        """Fill in the unknown times of the flat tree `entries`, all
        distinct, a block at a time, so that a step forms about
        `_TREE_CHUNK` arcs: walk up all paths a `_predecessors` step at a
        time to entries with a known time, then sum the arc times back down,
        t[v] = t[u] + arc time, one level of hops from a known time at a
        time (the hops counted by pointer doubling)."""
        n, time = len(self._node_ids) + 1, self._time.ravel()
        block = max(1, _TREE_CHUNK * n // max(1, len(self._arcs.into_step)))
        for lo in range(0, len(entries), block):
            walk, steps, walked = entries[lo : lo + block], [], 0
            walk = walk[np.isnan(time[walk])]
            while walk.size:
                time[walk] = -1.0 - np.arange(walked, walked + len(walk))  # walked: -1 - its place in the walk
                walked += len(walk)
                tail, arc_time = self._predecessors(walk)
                steps.append((walk, tail, arc_time))
                walk = _distinct(tail[np.isnan(time[tail])])
            if not steps:
                continue
            heads, tails, arc_time = map(np.concatenate, zip(*steps))
            # the place in the walk of each head's tail, or of the head itself
            # where the tail's time is known
            places = np.arange(walked)
            up = -1.0 - time[tails]
            up = np.where(up >= 0.0, up, places).astype(np.intp)
            hops = (up != places).astype(np.intp)
            while True:
                further = up[up]
                if (further == up).all():
                    break
                hops += hops[up]
                up = further
            order = np.argsort(hops.astype(np.min_scalar_type(hops.max())), kind="stable")  # radix sort
            heads, tails, arc_time = heads[order], tails[order], arc_time[order]
            start = 0
            for end in np.cumsum(np.bincount(hops)).tolist():
                time[heads[start:end]] = time[tails[start:end]] + arc_time[start:end]
                start = end

    def _indices(self, ids):
        """The node index of each of `ids`, -1 for an id that is no node."""
        if not self.nodes:
            return np.full(len(ids), -1)
        at = self._ids.searchsorted(ids).clip(max=len(self._ids) - 1)
        return np.where(self._ids[at] == ids, at, -1)

    def _entries(self, origins, dests):
        """The flat `_dist` and `_time` entry of each (origin, dest) query,
        growing the trees of all new origins first."""
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
        n = len(self._node_ids) + 1
        return rows * n + targets % n

    def _times_at(self, entries):
        """The times at the flat tree `entries`, unknown ones filled in first."""
        times = self._time.ravel()[entries]
        unknown = np.isnan(times)
        if unknown.any():
            self._fill_times(_distinct(entries[unknown]))
            times = self._time.ravel()[entries]
        return times

    def distances(self, origins, dests):
        """The distance_m array of the minimum-distance paths from each of
        `origins` to the node id at the same place in `dests`, inf where
        there is none (an unknown destination included); an unknown origin
        raises KeyError.  Each origin's full tree is grown the first time it
        is asked for, for all new origins of a call at once, and kept."""
        entries = self._entries(origins, dests)  # grows trees: `_dist` is read after
        return self._dist.ravel()[entries]

    def times(self, origins, dests):
        """The time_s array of the paths `distances` measures, summed along
        each, inf where there is none; a time is summed when first read."""
        return self._times_at(self._entries(origins, dests))

    def distance_times(self, origins, dests):
        """(`distances`, `times`) of the same queries, from one lookup."""
        entries = self._entries(origins, dests)
        return self._dist.ravel()[entries], self._times_at(entries)

    def distance_time(self, origin, dest):
        """`distance_times` of one query, as floats; time is summed along the
        minimum-distance path, not minimized; the first unknown time read
        from a tree fills all of its unknown ones in one `_fill_times` call.
        An unknown origin raises KeyError; an unknown or unreachable
        destination, NoRouteError."""
        source = self._index.get(origin)
        if source is None:
            raise KeyError(f"unknown node {origin}")
        if self._tree_row[source] < 0:
            self._grow_trees(np.array([source]))
        row, target = self._tree_row.item(source), self._index.get(dest)
        distance = math.inf if target is None else self._dist.item(row, target)
        if distance == math.inf:
            raise NoRouteError(f"no route from node {origin} to node {dest}")
        time = self._time.item(row, target)
        if time != time:  # nan: not known yet
            self._fill_times(row * self._time.shape[1] + np.flatnonzero(np.isnan(self._time[row])))
            time = self._time.item(row, target)
        return distance, time

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
