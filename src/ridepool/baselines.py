"""Ground-truth matchers: exhaustive optimum on small instances plus a greedy
baseline.  These exist to check the learned matcher, not to replace it.
"""

import itertools

from dataclasses import dataclass

from .shareability import ShareabilityGraph


@dataclass(frozen=True)
class MatchingSolution:
    """A partition of the trips into vehicle groups.

    objective_value sums in-group pair weights at capacity 2 and group
    marginal savings for larger groups.  `routes` maps each group tuple to its
    SharedRoute; `solution_for` fills it.
    """

    groups: tuple
    objective_value: float
    routes: dict = None


def canonical_groups(groups):
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def matching_value(graph: ShareabilityGraph, groups) -> float:
    return sum(graph.group_value(g) for g in sorted(groups))


def solution_for(graph: ShareabilityGraph, groups) -> MatchingSolution:
    """The partition `groups` in canonical order, each group routed and the
    whole valued on `graph`; every matcher builds its solution here."""
    groups = canonical_groups(groups)
    return MatchingSolution(groups, matching_value(graph, groups), {g: graph.group_route(g) for g in groups})


def check_partition(graph: ShareabilityGraph, groups, capacity=None):
    seen = set()
    for group in groups:
        if capacity is not None and len(group) > capacity:
            raise ValueError(f"group {group} exceeds capacity {capacity}")
        for tid in group:
            if tid in seen:
                raise ValueError(f"trip {tid} appears in more than one group")
            seen.add(tid)
    if seen != set(graph.trips):
        raise ValueError("groups do not cover every trip exactly once")


def brute_force_optimal(graph: ShareabilityGraph, capacity=2) -> MatchingSolution:
    """Exhaustive maximum-value matching; ties pick the lexicographically
    smallest canonical group list.

    Enumerates set partitions into groups of at most `capacity` trips where
    some member is adjacent to all the others (at capacity 2, a pair joined
    by an edge): trips <= 12 at capacity 2, trips <= 8 above.
    """
    ids = tuple(sorted(graph.trips))
    limit = 12 if capacity == 2 else 8
    if capacity < 2:
        raise ValueError(f"capacity must be >= 2, got {capacity}")
    if len(ids) > limit:
        raise ValueError(f"instance too large for exhaustive matching: {len(ids)} trips > {limit}")

    best = {"value": None, "groups": None}

    def consider(groups):
        value = matching_value(graph, groups)
        canon = canonical_groups(groups)
        if best["value"] is None or value > best["value"] or (
            value == best["value"] and canon < best["groups"]
        ):
            best["value"] = value
            best["groups"] = canon

    def star_ok(group):
        return any(all(o == c or o in graph.neighbors(c) for o in group) for c in group)

    def extensions(head, rest):
        """Groups containing `head` drawn from `rest`, sizes 1..capacity."""
        yield (head,)
        for size in range(1, capacity):
            for combo in itertools.combinations(rest, size):
                group = (head,) + combo
                if star_ok(group):
                    yield group

    def recurse(remaining, groups):
        if not remaining:
            consider(groups)
            return
        head, rest = remaining[0], remaining[1:]
        for group in extensions(head, rest):
            left = tuple(t for t in rest if t not in group)
            recurse(left, groups + [group])

    recurse(ids, [])
    return solution_for(graph, best["groups"])


def greedy_matching(graph: ShareabilityGraph) -> MatchingSolution:
    """Accept edges in weight order (ties by trip-id pair) while both ends are free."""
    matched = set()
    groups = []
    for (a, b), edge in sorted(graph.edges.items(), key=lambda kv: (-kv[1].weight, kv[0])):
        if a in matched or b in matched:
            continue
        matched.update((a, b))
        groups.append((a, b))
    for tid in sorted(graph.trips):
        if tid not in matched:
            groups.append((tid,))
    return solution_for(graph, groups)
