"""Wrappers the benchmark installs around ridepool's public functions.

Nothing here edits the program: each wrapper replaces a function where its
caller looks the name up (module globals, names imported into other modules,
``pipeline._STAGE_FUNCS`` entries, class attributes) and is removed again by
``Patcher.restore``.

``Tracer`` records spans (id, parent id, name, start, end) in memory plus
counters, and turns them into the per-layer metrics.  Functions called more
than a million times per run (``RoadNetwork.distance_time``,
``ShareabilityGraph.group_route``, ``policy.candidate_actions``) are counted,
not timed.  ``Capture`` keeps the matchings and reports a run produces so the
output check can inspect them after the run.
"""

import collections
import functools
import inspect
import json
import sys
import time

from ridepool import embedding, geo, metrics, pipeline, policy, scenario, shareability, tolerance


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self):
        self._saved = []

    def set(self, owner, key, value):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def function(self, module, name, make_wrapper):
        """Wrap ``module.name`` in every ridepool module that binds it."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "ridepool":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, wrapper)

    def method(self, cls, name, make_wrapper):
        self.set(cls, name, make_wrapper(cls.__dict__[name]))

    def restore(self):
        for owner, key, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._saved.clear()


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end]
        self._stack = []
        self.counts = collections.Counter()
        self.peaks = collections.Counter()
        self.first_query_s = 0.0
        self._origins = set()  # (id(network), origin) pairs already queried
        self._networks = {}  # keeps queried networks alive so ids stay unique
        self._group_depth = 0

    def _timed(self, name, fn, observe=None, name_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            record = [len(spans), stack[-1] if stack else None, span_name, time.perf_counter(), None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if observe:
                observe(args, kwargs, result)
            return result

        return wrapper

    def inside(self, name):
        return any(self.spans[sid][2] == name for sid in self._stack)

    def _note_origin(self, net, origin):
        key = (id(net), origin)
        if key in self._origins:
            return False
        self._origins.add(key)
        self._networks[id(net)] = net
        return True

    def install(self, patch: Patcher):
        timed = self._timed
        counts = self.counts

        for stage, fn in list(pipeline._STAGE_FUNCS.items()):
            patch.set(pipeline._STAGE_FUNCS, stage, timed(f"pipeline.stage.{stage}", fn))
        patch.function(scenario, "generate_scenario", lambda f: timed("scenario.generate_scenario", f))

        # geo
        patch.method(geo.RoadNetwork, "snap_to_node", lambda f: timed("geo.snap_to_node", f))

        def shortest_path_observe(args, kwargs, result):
            self._note_origin(args[0], args[1])

        patch.method(
            geo.RoadNetwork,
            "shortest_path",
            lambda f: timed("geo.shortest_path", f, observe=shortest_path_observe),
        )

        def wrap_distance_time(fn):
            def distance_time(net, origin, dest):
                counts["geo.distance_time"] += 1
                if self._group_depth:
                    counts["shareability.legs_routed"] += 1
                if not self._note_origin(net, origin):
                    return fn(net, origin, dest)
                start = time.perf_counter()
                try:
                    return fn(net, origin, dest)
                finally:
                    self.first_query_s += time.perf_counter() - start

            return distance_time

        patch.method(geo.RoadNetwork, "distance_time", wrap_distance_time)

        # shareability
        def build_observe(args, kwargs, result):
            n = len(args[1] if len(args) > 1 else kwargs["trips"])
            counts["shareability.pairs_examined"] += n * (n - 1) // 2
            counts["shareability.edges_kept"] += len(result.edges)

        patch.function(
            shareability,
            "build_shareability_graph",
            lambda f: timed("shareability.build", f, observe=build_observe),
        )

        def pair_observe(args, kwargs, result):
            if self.inside("shareability.build"):
                counts["shareability.pairs_routed"] += 1

        patch.function(
            shareability,
            "best_shared_route",
            lambda f: timed("shareability.best_shared_route", f, observe=pair_observe),
        )

        def wrap_route_for_group(fn):
            inner = timed(
                None, fn, name_of=lambda args, kwargs: f"shareability.route_for_group.k{len(args[1])}"
            )

            def route_for_group(net, trips):
                self._group_depth += 1
                try:
                    return inner(net, trips)
                finally:
                    self._group_depth -= 1

            return route_for_group

        patch.function(shareability, "route_for_group", wrap_route_for_group)

        def wrap_group_route(fn):
            def group_route(graph, group):
                counts["shareability.group_route"] += 1
                return fn(graph, group)

            return group_route

        patch.method(shareability.ShareabilityGraph, "group_route", wrap_group_route)
        patch.function(shareability, "read_trips", lambda f: timed("shareability.read_trips", f))
        patch.function(shareability, "read_graph", lambda f: timed("shareability.read_graph", f))

        # embedding
        def laplacian_observe(args, kwargs, result):
            self.peaks["embedding.nodes"] = max(self.peaks["embedding.nodes"], result.shape[0])
            self.peaks["embedding.laplacian_mb"] = max(self.peaks["embedding.laplacian_mb"], result.nbytes / 1e6)

        patch.function(
            embedding,
            "compute_user_features",
            lambda f: timed("embedding.compute_user_features", f),
        )
        patch.function(
            embedding,
            "build_laplacian",
            lambda f: timed("embedding.build_laplacian", f, observe=laplacian_observe),
        )
        patch.function(embedding, "propagate", lambda f: timed("embedding.propagate", f))

        # policy
        def rollout_observe(args, kwargs, result):
            for episode in result.episodes:
                for rec in episode:
                    counts["policy.decisions"] += 1
                    counts["policy.candidates"] += rec.select_inputs.shape[0] + 1

        patch.function(policy, "train", lambda f: timed("policy.train", f))
        patch.function(policy, "rollout", lambda f: timed("policy.rollout", f, observe=rollout_observe))
        patch.function(policy, "ppo_update", lambda f: timed("policy.ppo_update", f))
        patch.function(policy, "surrogate_objective", lambda f: timed("policy.surrogate_objective", f))
        patch.function(policy, "match_all", lambda f: timed("policy.match_all", f))

        def wrap_candidate_actions(fn):
            def candidate_actions(*args, **kwargs):
                counts["policy.candidate_actions"] += 1
                return fn(*args, **kwargs)

            return candidate_actions

        patch.function(policy, "candidate_actions", wrap_candidate_actions)

        # metrics
        patch.function(metrics, "build_outcomes", lambda f: timed("metrics.build_outcomes", f))
        patch.function(metrics, "compute_report", lambda f: timed("metrics.compute_report", f))

        # tolerance
        def filter_observe(args, kwargs, result):
            pooled_in = sum(1 for g in args[0].groups if len(g) > 1)
            pooled_out = sum(1 for g in result.groups if len(g) > 1)
            counts["tolerance.pooled_in"] += pooled_in
            counts["tolerance.dissolved"] += pooled_in - pooled_out

        patch.function(
            tolerance,
            "filter_with_draws",
            lambda f: timed("tolerance.filter_with_draws", f, observe=filter_observe),
        )
        patch.function(tolerance, "sensitivity_sweep", lambda f: timed("tolerance.sensitivity_sweep", f))

    # -- reporting ---------------------------------------------------------

    def totals(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        child_time = collections.Counter()
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[sid]
        return out

    def covered_s(self, names):
        """Length of the union of the intervals of spans with these names."""
        intervals = sorted((s[3], s[4]) for s in self.spans if s[2] in names)
        total, cur_start, cur_end = 0.0, None, None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def layer_metrics(self):
        totals = self.totals()
        counts, peaks = self.counts, self.peaks

        def calls(name):
            return totals[name][0] if name in totals else 0

        def secs(name):
            return totals[name][1] if name in totals else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        group_calls = {k: calls(f"shareability.route_for_group.k{k}") for k in (1, 2, 3, 4)}
        out = {
            "geo.snap_calls": calls("geo.snap_to_node"),
            "geo.snap_s": secs("geo.snap_to_node"),
            "geo.route_calls": calls("geo.shortest_path") + counts["geo.distance_time"],
            "geo.route_s": secs("geo.shortest_path") + self.first_query_s,
            "geo.sssp_origins": len(self._origins),
            "shareability.build_s": secs("shareability.build"),
            "shareability.pairs_examined": counts["shareability.pairs_examined"],
            "shareability.pairs_routed": counts["shareability.pairs_routed"],
            "shareability.edges_kept": counts["shareability.edges_kept"],
            "shareability.gate_pass_ratio": ratio(
                counts["shareability.pairs_routed"], counts["shareability.pairs_examined"]
            ),
            "shareability.edge_yield": ratio(counts["shareability.edges_kept"], counts["shareability.pairs_routed"]),
            "shareability.pair_route_calls": calls("shareability.best_shared_route"),
            "shareability.pair_route_s": secs("shareability.best_shared_route"),
            "shareability.reload_s": secs("shareability.read_trips") + secs("shareability.read_graph"),
            "shareability.group_route_calls.k3": group_calls[3],
            "shareability.group_route_calls.k4": group_calls[4],
            "shareability.group_route_s.k3": secs("shareability.route_for_group.k3"),
            "shareability.group_route_s.k4": secs("shareability.route_for_group.k4"),
            "shareability.legs_routed": counts["shareability.legs_routed"],
            "shareability.group_cache_hit_ratio": (
                1.0 - ratio(sum(group_calls.values()), counts["shareability.group_route"])
                if counts["shareability.group_route"]
                else 0.0
            ),
            "embedding.features_s": secs("embedding.compute_user_features"),
            "embedding.laplacian_s": secs("embedding.build_laplacian"),
            "embedding.propagate_s": secs("embedding.propagate"),
            "embedding.nodes": peaks["embedding.nodes"],
            "embedding.laplacian_mb": float(peaks["embedding.laplacian_mb"]),
            "policy.train_s": secs("policy.train"),
            "policy.rollout_s": secs("policy.rollout"),
            "policy.rollouts": calls("policy.rollout"),
            "policy.decisions": counts["policy.decisions"],
            "policy.candidates_mean": ratio(counts["policy.candidates"], counts["policy.decisions"]),
            "policy.update_s": secs("policy.ppo_update"),
            "policy.surrogate_s": secs("policy.surrogate_objective"),
            "policy.surrogate_calls": calls("policy.surrogate_objective"),
            "policy.match_s": secs("policy.match_all"),
            "policy.candidate_calls": counts["policy.candidate_actions"],
            "metrics.evaluate_s": secs("metrics.build_outcomes") + secs("metrics.compute_report"),
            "tolerance.filter_s": secs("tolerance.filter_with_draws"),
            "tolerance.filter_calls": calls("tolerance.filter_with_draws"),
            "tolerance.dissolved_frac": ratio(counts["tolerance.dissolved"], counts["tolerance.pooled_in"]),
            "tolerance.sweep_s": secs("tolerance.sensitivity_sweep"),
            "scenario.generate_s": secs("scenario.generate_scenario"),
        }
        for stage in pipeline.STAGES:
            if stage != "sweep":
                out[f"pipeline.stage_s.{stage}"] = secs(f"pipeline.stage.{stage}")
        return out

    def write(self, path, extra):
        """Spans as JSON lines, then one summary line with per-name totals."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
            summary = {
                name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(self.totals().items())
            }
            fh.write(json.dumps({"summary": summary, "counts": dict(self.counts), **extra}) + "\n")


class Capture:
    """Keeps every policy matching and every indicator report of a run."""

    def __init__(self):
        self.matchings = []  # (graph, solution, capacity)
        self.reports = []  # (solution, outcomes, report)

    def install(self, patch: Patcher):
        def wrap_match_all(fn):
            signature = inspect.signature(fn)

            def match_all(*args, **kwargs):
                solution = fn(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.matchings.append((bound.arguments["graph"], solution, bound.arguments["capacity"]))
                return solution

            return match_all

        def wrap_compute_report(fn):
            def compute_report(solution, outcomes, *args, **kwargs):
                report = fn(solution, outcomes, *args, **kwargs)
                self.reports.append((solution, list(outcomes), report))
                return report

            return compute_report

        patch.function(policy, "match_all", wrap_match_all)
        patch.function(metrics, "compute_report", wrap_compute_report)
