import collections
import copy
import functools
import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridepool import policy, shareability
from ridepool.baselines import brute_force_optimal, canonical_groups, check_partition, solution_for
from ridepool.policy import (
    MAX_CAPACITY,
    ROW_CHUNK,
    VALUE_LOSS_COEFF,
    WEIGHT_INPUT_SCALE,
    InfeasibleActionError,
    MatchState,
    PPOConfig,
    PolicyParams,
    RewardSpec,
    RowTable,
    StepRecord,
    candidate_actions,
    fill_returns,
    init_policy_params,
    initial_state,
    match_all,
    ppo_update,
    read_policy,
    rollout,
    step,
    surrogate_objective,
    train,
    write_policy,
    _cdf,
    _legal,
    _pack_steps,
    _run_policy,
    _sample,
    _score,
    _ScoredTable,
)
from ridepool.geo import NoRouteError, RoadNetwork
from ridepool.shareability import (
    Objective,
    ShareabilityGraph,
    SharedRoute,
    build_shareability_graph,
    route_for_group,
)
from ridepool.tolerance import ToleranceProfile, filter_with_draws

from conftest import features_for, scenario_instance, stub_trip, weighted_graph


def routed_setup(seed=3, n_trips=8, **kwargs):
    net, trips, graph = scenario_instance(seed=seed, n_trips=n_trips, **kwargs)
    features = features_for(trips)
    spec = RewardSpec()
    return net, trips, graph, features, spec


def zero_head_params(feature_dim, hidden=8, seed=0):
    params = init_policy_params(feature_dim, hidden=hidden, seed=seed)
    return params  # heads start at zero already


def flatten_params(params):
    return np.concatenate([np.asarray(params.arrays()[n]).ravel() for n in PolicyParams.ARRAY_NAMES])


def unflatten_params(vector, template):
    arrays = {}
    offset = 0
    for name in PolicyParams.ARRAY_NAMES:
        arr = template.arrays()[name]
        arrays[name] = vector[offset : offset + arr.size].reshape(arr.shape).copy()
        offset += arr.size
    return PolicyParams(**arrays)


class StackedRows:
    """A row table of explicit rows: row id i names `rows[i]`."""

    def __init__(self, rows):
        rows.flags.writeable = False
        self.rows = rows

    def inputs(self, row_ids):
        return self.rows[row_ids]


def on_one_table(blocks):
    """One row table stacked from decisions' row blocks (each its candidate
    rows, then its value row), and each block's row ids into it."""
    ends = np.cumsum([len(block) for block in blocks])
    return StackedRows(np.concatenate(blocks)), [np.arange(end - len(block), end) for block, end in zip(blocks, ends)]


def random_step_records(rng, params, n_steps):
    """Synthetic decisions with O(1) rewards; old log-probs from `params`."""
    input_dim = params.w_hidden.shape[0]
    blocks = [rng.normal(0.0, 1.0, size=(int(rng.integers(0, 4)) + 1, input_dim)) for _ in range(n_steps)]
    table, row_ids = on_one_table(blocks)
    records = []
    for ids in row_ids:
        k = len(ids) - 1
        _, logits, _, _ = score_one(params, table.inputs(ids[:-1]), np.zeros(input_dim))
        shifted = logits - logits.max()
        index = int(rng.integers(0, k + 1))
        records.append(
            StepRecord(
                table=table,
                row_ids=ids,
                action_index=index,
                log_prob=float(shifted[index] - math.log(np.exp(shifted).sum())),
                reward=float(rng.normal()),
                value=float(rng.normal()),
                return_=float(rng.normal()),
            )
        )
    return records


def score_one(params, select_inputs, value_input):
    """Oracle forward pass for one decision: hidden rows, logits (the select
    rows in row order, then Stop), value hidden row and state value."""
    hidden = np.tanh(select_inputs @ params.w_hidden + params.b_hidden)
    logits = np.append(hidden @ params.w_logit + float(params.b_logit), float(params.stop_logit))
    value_hidden = np.tanh(value_input @ params.w_hidden + params.b_hidden)
    value = float(value_hidden @ params.w_value + float(params.b_value))
    return hidden, logits, value_hidden, value


def value_input(rec):
    """(input_dim,): a record's value row."""
    return rec.table.inputs(rec.row_ids[-1:])[0]


def surrogate_objective_per_step(params: PolicyParams, steps, cfg: PPOConfig):
    """Oracle: the clipped surrogate and its gradient, one step at a time."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    total = 0.0
    eps = cfg.clip_epsilon
    for rec in steps:
        advantage = rec.return_ - rec.value
        inputs = rec.select_inputs
        k = inputs.shape[0]
        hidden, logits, value_hidden, value = score_one(params, inputs, value_input(rec))
        shifted = logits - logits.max()
        log_z = math.log(np.exp(shifted).sum())
        log_probs = shifted - log_z
        probs = np.exp(log_probs)
        idx = rec.action_index

        ratio = math.exp(log_probs[idx] - rec.log_prob)
        unclipped = ratio * advantage
        clipped = min(max(ratio, 1.0 - eps), 1.0 + eps) * advantage
        surrogate = min(unclipped, clipped)
        entropy = float(-(probs * log_probs).sum())
        value_error = value - rec.return_
        total += surrogate + cfg.entropy_coeff * entropy - VALUE_LOSS_COEFF * value_error**2

        # d(surrogate)/d(logits): flows only while the unclipped branch is active
        g_logits = np.zeros(k + 1)
        if unclipped <= clipped:
            one_hot = np.zeros(k + 1)
            one_hot[idx] = 1.0
            g_logits += ratio * advantage * (one_hot - probs)
        g_logits += cfg.entropy_coeff * (-probs * (log_probs + entropy))

        grads["stop_logit"] += g_logits[-1]
        g_select = g_logits[:-1]
        if k:
            grads["w_logit"] += hidden.T @ g_select
            grads["b_logit"] += g_select.sum()
            d_hidden = np.outer(g_select, params.w_logit)
            d_pre = d_hidden * (1.0 - hidden**2)
            grads["w_hidden"] += inputs.T @ d_pre
            grads["b_hidden"] += d_pre.sum(axis=0)

        d_value = -VALUE_LOSS_COEFF * 2.0 * value_error
        grads["w_value"] += d_value * value_hidden
        grads["b_value"] += d_value
        d_value_hidden = d_value * params.w_value
        d_value_pre = d_value_hidden * (1.0 - value_hidden**2)
        grads["w_hidden"] += np.outer(value_input(rec), d_value_pre)
        grads["b_hidden"] += d_value_pre

    n = len(steps)
    for name in grads:
        grads[name] /= n
    return total / n, grads


def assert_matches_per_step(params, steps, cfg):
    """rtol 1e-12; entries that cancel to near zero, where summation order
    alone moves the last bits, get an absolute floor of 1e-12 times the
    largest magnitude in the result."""
    total, grads = surrogate_objective(params, _pack_steps(steps), cfg)
    ref_total, ref_grads = surrogate_objective_per_step(params, steps, cfg)
    atol = 1e-12 * max([abs(ref_total)] + [np.abs(g).max() for g in ref_grads.values()])
    np.testing.assert_allclose(total, ref_total, rtol=1e-12, atol=atol)
    for name in PolicyParams.ARRAY_NAMES:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=atol, err_msg=name)


def select_inputs_rowwise(state, select_ids, features):
    """Oracle: the candidate block built one concatenated row at a time."""
    fill = len(state.selected) / MAX_CAPACITY
    context = features[state.graph.trips[state.focal].user_id]
    rows = []
    for v in select_ids:
        edge = state.graph.edge(state.focal, v)
        candidate_context = features[state.graph.trips[v].user_id]
        weight = edge.weight * WEIGHT_INPUT_SCALE
        rows.append(np.concatenate([context, candidate_context, [weight], [fill]]))
    return np.array(rows).reshape(len(rows), 2 * len(context) + 2)


def perturbed(params, rng, scale):
    theta = flatten_params(params)
    return unflatten_params(theta + rng.normal(0.0, scale, size=theta.size), params)


@functools.lru_cache(maxsize=None)
def setup_150():
    """A routed 150-trip instance dense enough for 3- and 4-rider groups."""
    _, trips, graph = scenario_instance(
        seed=11, n_trips=150, rows=6, cols=6, user_mod=60, departure_span=900.0
    )
    features = features_for(trips)
    params = randomized_params(np.random.default_rng(4), feature_dim=len(features[0]), hidden=8)
    return graph, features, RewardSpec(), params


@functools.lru_cache(maxsize=None)
def scored_150(capacity):
    """`setup_150`'s row table under its parameters, shared by its rollouts."""
    graph, features, _, params = setup_150()
    return _ScoredTable(RowTable(graph, features, capacity), params)


@functools.lru_cache(maxsize=None)
def rollout_150(capacity, seed=1):
    """Sampled pass over `setup_150` with its returns filled in."""
    graph, features, spec, params = setup_150()
    result = rollout(graph, features, params, spec, capacity=capacity, seed=seed, scored=scored_150(capacity))
    fill_returns(result.episodes, 1.0)
    return result


def randomized_params(rng, feature_dim=3, hidden=5):
    params = init_policy_params(feature_dim, hidden=hidden, seed=int(rng.integers(1 << 30)))
    params.w_logit[:] = rng.normal(0.0, 0.5, size=hidden)
    params.b_logit.fill(rng.normal(0.0, 0.5))
    params.stop_logit.fill(rng.normal(0.0, 0.5))
    params.w_value[:] = rng.normal(0.0, 0.5, size=hidden)
    params.b_value.fill(rng.normal(0.0, 0.5))
    return params


def worst_fd_error(params, records, cfg, h=1e-5):
    """Worst relative error between backprop and central differences of the
    surrogate at `params`, over every parameter."""
    theta = flatten_params(params)
    packed = _pack_steps(records)
    _, grads = surrogate_objective(params, packed, cfg)
    analytic = np.concatenate([np.asarray(grads[n]).ravel() for n in PolicyParams.ARRAY_NAMES])
    worst = 0.0
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        j_up, _ = surrogate_objective(unflatten_params(up, params), packed, cfg)
        j_down, _ = surrogate_objective(unflatten_params(down, params), packed, cfg)
        fd = (j_up - j_down) / (2.0 * h)
        worst = max(worst, abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-6))
    return worst


def gradient_check(draw_seed, h=1e-5):
    """Worst relative error between backprop and central differences on one
    random parameter/trajectory draw."""
    rng = np.random.default_rng(draw_seed)
    params = randomized_params(rng)
    records = random_step_records(rng, params, n_steps=4)
    # evaluate near (not at) the rollout parameters so ratios stray from 1
    theta = flatten_params(params) + rng.normal(0.0, 0.01, size=flatten_params(params).size)
    return worst_fd_error(unflatten_params(theta, params), records, PPOConfig(entropy_coeff=0.01), h)


def clip_branches(params, steps, eps):
    """Per step: (advantage > 0, unclipped branch active)."""
    branches = []
    for rec in steps:
        _, logits, _, _ = score_one(params, rec.select_inputs, value_input(rec))
        shifted = logits - logits.max()
        ratio = math.exp(shifted[rec.action_index] - math.log(np.exp(shifted).sum()) - rec.log_prob)
        advantage = rec.return_ - rec.value
        active = ratio * advantage <= min(max(ratio, 1.0 - eps), 1.0 + eps) * advantage
        branches.append((advantage > 0, active))
    return set(branches)


def drawn_steps(rng, params, n_rows, stop_only, offset, eps, visits=None):
    """Synthetic decisions whose ratios at `params` are placed so that step i
    is case (i + offset) % 4 of (advantage sign) x (clip branch).  The
    decisions read `n_rows` distinct rows of one table: each row at least
    once, some again, in the same or another decision, as a candidate row
    or as a value row.  With `visits`, each decision is taken by `visits`
    steps (step i takes decision i % decisions): the same rows and decision
    key, its own action, old log-prob and return."""
    table = StackedRows(rng.normal(0.0, 1.0, size=(n_rows, params.w_hidden.shape[0])))
    sizes = []
    while sum(sizes) < n_rows + n_rows // 4:
        sizes.append(1 if stop_only else int(rng.integers(1, 6)))
    slots = np.concatenate([rng.permutation(n_rows), rng.integers(0, n_rows, size=sum(sizes) - n_rows)])
    rng.shuffle(slots)
    decisions = []
    for d, ids in enumerate(np.split(slots, np.cumsum(sizes)[:-1])):
        _, logits, _, _ = score_one(params, table.inputs(ids[:-1]), table.inputs(ids[-1]))
        shifted = logits - logits.max()
        log_probs = shifted - math.log(np.exp(shifted).sum())
        decisions.append((ids, log_probs, None if visits is None else ("drawn", d)))
    records = []
    for i in range(len(decisions) * (visits or 1)):
        ids, log_probs, key = decisions[i % len(decisions)]
        index = int(rng.integers(0, len(ids)))
        positive, clipped = divmod((i + offset) % 4, 2)
        # the clipped branch is the min past 1 + eps for A > 0, below 1 - eps for A < 0
        if positive:
            ratio = rng.uniform(1.0 + eps, 2.0) if clipped else rng.uniform(0.3, 1.0 + eps)
        else:
            ratio = rng.uniform(0.3, 1.0 - eps) if clipped else rng.uniform(1.0 - eps, 2.0)
        advantage = rng.uniform(0.1, 3.0) * (1.0 if positive else -1.0)
        value = float(rng.normal())
        records.append(
            StepRecord(
                table=table,
                row_ids=ids,
                action_index=index,
                log_prob=float(log_probs[index] - math.log(ratio)),
                reward=0.0,
                value=value,
                return_=value + advantage,
                decision=key,
            )
        )
    return records


def packed_counts(steps):
    """(distinct rows, decisions, steps) that `_pack_steps` packs."""
    packed = _pack_steps(steps)
    return len(packed.row_ids), len(packed.sizes), len(packed.step_decision)


def value_row_rowwise(state, features):
    """Oracle: the value row, the focal context then zeros for the candidate
    and its weight, then the group fill."""
    fill = len(state.selected) / MAX_CAPACITY
    context = features[state.graph.trips[state.focal].user_id]
    return np.concatenate([context, np.zeros(len(context) + 1), [fill]])


def free_candidates(state, assigned):
    """Oracle: the Selects legal from `state` among the focal trip's
    neighbours not yet `assigned`, asked of `_legal` in one call."""
    return _legal(state, [v for v in state.graph.neighbors(state.focal) if v not in assigned])


class TestCandidateActions:
    def test_isolated_focal_only_stop(self):
        graph = weighted_graph({(1, 2): 5.0}, n_trips=4)
        state = initial_state(graph, focal=0)
        assert candidate_actions(state) == []

    def test_capacity_bound_only_stop(self):
        graph = weighted_graph({(0, 1): 5.0, (0, 2): 5.0})
        state = MatchState(focal=0, graph=graph, selected=(1,), capacity=2)
        assert candidate_actions(state) == []

    def test_two_free_neighbors(self):
        graph = weighted_graph({(0, 1): 5.0, (0, 2): 5.0})
        state = initial_state(graph, focal=0)
        assert candidate_actions(state) == [1, 2]

    def test_unroutable_neighbor_excluded_but_other_errors_raised(self, monkeypatch):
        graph = weighted_graph({(0, 1): 5.0, (0, 2): 5.0, (0, 3): 5.0})
        state = MatchState(focal=0, graph=graph, selected=(1,), capacity=3)

        def no_route_via_2(groups):
            return {tuple(sorted(group)): NoRouteError("no route") for group in groups if 2 in group}

        monkeypatch.setattr(graph, "route_groups", no_route_via_2)
        assert candidate_actions(state) == [3]

        for error in (KeyError, ValueError):

            def broken(groups):
                raise error(groups)

            monkeypatch.setattr(graph, "route_groups", broken)
            with pytest.raises(error):
                candidate_actions(state)


@functools.lru_cache(maxsize=None)
def dense_setup(seed):
    """Ten routed trips with enough edges for 3- and 4-rider groups."""
    _, _, graph, features, spec = routed_setup(seed=seed, n_trips=10)
    return graph, features, spec


def with_blocked_groups(graph, blocked):
    """Shallow copy of `graph` on which every group of three or more that
    contains a `blocked` trip has no route."""
    blocked_graph = copy.copy(graph)

    def route_groups(groups):
        keys = [tuple(sorted(group)) for group in groups]
        is_blocked = [len(key) > 2 and not blocked.isdisjoint(key) for key in keys]
        errors = graph.route_groups([key for key, no in zip(keys, is_blocked) if not no])
        errors.update((key, NoRouteError(f"blocked group {key}")) for key, no in zip(keys, is_blocked) if no)
        return errors

    blocked_graph.route_groups = route_groups
    return blocked_graph


def assert_step_raises_exactly_off_candidates(state, spec):
    candidates = candidate_actions(state)
    for v in sorted(state.graph.trips) + [max(state.graph.trips) + 1]:
        try:
            step(state, v, spec)
        except InfeasibleActionError:
            assert v not in candidates, v
        else:
            assert v in candidates, v


def all_records(result):
    return [rec for episode in result.episodes for rec in episode]


class TestLegality:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.sampled_from((5, 7)),
        capacity=st.integers(2, 4),
        focal_index=st.integers(0, 9),
        blocked=st.frozensets(st.integers(0, 9), max_size=3),
        picks=st.lists(st.integers(0, 9), max_size=3),
    )
    def test_step_raises_exactly_when_not_a_candidate(self, seed, capacity, focal_index, blocked, picks):
        graph, _, spec = dense_setup(seed)
        graph = with_blocked_groups(graph, blocked)
        focal = sorted(graph.trips)[focal_index]
        state = initial_state(graph, focal, capacity)
        assert_step_raises_exactly_off_candidates(state, spec)
        for pick in picks:
            selects = candidate_actions(state)
            if not selects:
                break
            state, _, _ = step(state, selects[pick % len(selects)], spec)
            assert_step_raises_exactly_off_candidates(state, spec)

    def test_every_focal_and_group_size(self):
        # deterministic sweep: each focal trip at capacity 4, co-riders added
        # lowest id first, checked at every group size along the way
        graph, _, spec = dense_setup(7)
        sizes = set()
        for focal in sorted(graph.trips):
            state = initial_state(graph, focal, capacity=4)
            while True:
                assert_step_raises_exactly_off_candidates(state, spec)
                sizes.add(len(state.selected))
                selects = candidate_actions(state)
                if not selects:
                    break
                state, _, _ = step(state, selects[0], spec)
        assert sizes == {0, 1, 2, 3}


def blocked_network_graph(graph, blocked):
    """`graph` with its groups routed on a directed copy of its network in
    which no arc leaves the destination node of a `blocked` trip, so a group
    of three or more with a stop at such a node mostly has no route.  The
    trips keep their solo routes, and its route cache is seeded with the
    edges' routing records (the blocked network cannot route every pair
    again), so every trip stays a candidate."""
    sinks = {graph.trips[t].dest for t in blocked}
    arcs = [(u, v, length, time) for a, b, length, time in graph.net.edges for u, v in ((a, b), (b, a)) if u not in sinks]
    net = RoadNetwork(graph.net.nodes, arcs, directed=True)
    blocked_graph = ShareabilityGraph(net, graph.trips.values(), graph.edges.values(), graph.objective)
    blocked_graph._routes.update((key, graph._routes[key]) for key in graph.edges)
    return blocked_graph


class TestBulkLegality:
    """`_legal` routes all of a decision's grown groups in one call.  Its
    answers, and every route it caches, must be those of routing each grown
    group alone with `route_for_group`, bit for bit."""

    @pytest.mark.parametrize("capacity", [3, 4])
    def test_matches_per_group_routing(self, capacity, monkeypatch):
        graph, features, spec, params = setup_150()
        blocked = blocked_network_graph(graph, {0, 75})
        asked = []
        original = policy._legal

        def recording(state, vs):
            legal = original(state, vs)
            asked.append((state, list(vs), legal))
            return legal

        with monkeypatch.context() as patch:
            patch.setattr(policy, "_legal", recording)
            match_all(blocked, features, params, spec, capacity)
            rollout(blocked, features, params, spec, capacity, seed=2)

        @functools.cache
        def oracle(key):
            try:
                return route_for_group(blocked.net, [graph.trips[t] for t in key])
            except NoRouteError:
                return None

        routes = []  # the oracle's route of each grown group `_legal` was asked to route
        for state, vs, legal in asked:
            group = (state.focal,) + state.selected
            expected = []
            for v in vs:
                if len(group) == capacity or v in group or not graph.edge(state.focal, v):
                    continue
                if len(group) > 1:
                    routes.append(oracle(tuple(sorted(group + (v,)))))
                    if routes[-1] is None:
                        continue
                expected.append(v)
            assert legal == expected, (group, vs)
        assert len(routes) > 100 and None in routes  # some grown groups have no route
        cached = [key for key in blocked._routes if len(key) > 2]
        assert {len(key) for key in cached} == set(range(3, capacity + 1))
        for key in cached:
            assert blocked.group_route(key) == oracle(key), key


class TestScore:
    def test_rescoring_reproduces_rollout_records(self):
        graph, features, spec = dense_setup(7)
        params = randomized_params(np.random.default_rng(3), feature_dim=len(features[0]), hidden=6)
        scored = _ScoredTable(RowTable(graph, features, 3), params)
        records = all_records(rollout(graph, features, params, spec, capacity=3, seed=2, scored=scored))
        assert any(rec.select_inputs.shape[0] > 1 for rec in records)
        for rec in records:
            # bit for bit what the table the rollout used scored for these rows
            table_logits = scored.logits[rec.row_ids]
            table_logits[-1] = params.stop_logit
            top = table_logits.max()
            exps = [math.exp(x - top) for x in table_logits]
            assert rec.value == scored.values[rec.row_ids[-1]]
            assert rec.log_prob == table_logits[rec.action_index] - top - math.log(sum(exps))
            # and, to rounding, what the network gives for the rows rebuilt
            _, logits, values = _score(params, np.vstack([rec.select_inputs, value_input(rec)]))
            logits[-1] = params.stop_logit
            _, oracle_logits, _, oracle_value = score_one(params, rec.select_inputs, value_input(rec))
            np.testing.assert_allclose(logits, oracle_logits, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(table_logits, oracle_logits, rtol=1e-12, atol=1e-12)
            assert values[-1] == pytest.approx(oracle_value, rel=1e-12, abs=1e-12)
            assert rec.value == pytest.approx(oracle_value, rel=1e-12, abs=1e-12)
            shifted = logits - logits.max()
            log_probs = shifted - math.log(np.exp(shifted).sum())
            assert abs(log_probs[rec.action_index] - rec.log_prob) <= 1e-12
        # the same forward pass over all records' value rows at once
        _, _, values = _score(params, np.array([value_input(rec) for rec in records]))
        np.testing.assert_allclose(values, [rec.value for rec in records], rtol=1e-12)

    def test_packed_steps_hold_each_step_in_order(self):
        # each distinct decision once, in order of first appearance: its
        # candidate rows, then its value row at the segment's Stop logit; the
        # segments tile the packed logits and read the distinct rows, and each
        # step, in step order within its decision, reads its decision's segment
        steps = all_records(rollout_150(3, seed=1)) + all_records(rollout_150(3, seed=2))
        order = list(dict.fromkeys(rec.decision for rec in steps))
        assert len(order) < len(steps)  # the two rollouts share decisions
        packed = _pack_steps(steps)
        assert packed.rows.tobytes() == steps[0].table.inputs(packed.row_ids).tobytes()
        first = {}
        for rec in steps:
            first.setdefault(rec.decision, rec)
        assert list(packed.row_ids) == sorted({i for rec in steps for i in rec.row_ids.tolist()})
        assert len(packed.row_ids) < sum(len(first[key].row_ids) for key in order)  # decisions share rows
        assert list(packed.starts[1:]) == list(packed.stops[:-1] + 1)
        assert (packed.starts[0], packed.stops[-1]) == (0, len(packed.segment_rows) - 1)
        for key, start, stop in zip(order, packed.starts, packed.stops, strict=True):
            assert list(packed.row_ids[packed.segment_rows[start : stop + 1]]) == list(first[key].row_ids)
        ordered = sorted(steps, key=lambda rec: order.index(rec.decision))  # stable: step order within a decision
        assert list(packed.visits) == [sum(rec.decision == key for rec in steps) for key in order]
        assert list(packed.step_decision) == [order.index(rec.decision) for rec in ordered]
        chosen = [packed.starts[d] + rec.action_index for d, rec in zip(packed.step_decision, ordered)]
        assert list(packed.chosen) == chosen
        assert list(packed.old_log_prob) == [rec.log_prob for rec in ordered]
        assert list(packed.returns) == [rec.return_ for rec in ordered]

    def test_steps_of_different_tables_rejected(self):
        params = randomized_params(np.random.default_rng(0))
        steps = random_step_records(np.random.default_rng(1), params, 2) + random_step_records(
            np.random.default_rng(2), params, 2
        )
        with pytest.raises(ValueError, match="different row tables"):
            _pack_steps(steps)

    def test_zero_heads_give_uniform_log_probs(self):
        graph, features, spec = dense_setup(5)
        params = zero_head_params(len(features[0]))
        records = all_records(rollout(graph, features, params, spec, capacity=4, seed=1))
        assert {rec.select_inputs.shape[0] for rec in records} > {0, 1}
        for rec in records:
            k = rec.select_inputs.shape[0]
            assert abs(rec.log_prob + math.log(k + 1)) <= 1e-12


def relabelled(graph, label):
    """`graph` with trip id t renamed `label(t)`."""
    trips = [stub_trip(label(tid)) for tid in graph.trips]
    edges = [edge._replace(trip_a=label(edge.trip_a), trip_b=label(edge.trip_b)) for edge in graph.edges.values()]
    return ShareabilityGraph(graph.net, trips, edges, graph.objective)


class TestRowTable:
    """One row id per distinct (focal trip, candidate, depth) input; rows
    gathered on demand and scored once per parameter set."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_linked=st.integers(1, 6),
        n_isolated=st.integers(0, 2),
        capacity=st.integers(2, 4),
        first_id=st.sampled_from((0, 7)),
        id_step=st.sampled_from((1, 3)),
    )
    def test_every_row_matches_the_row_wise_build(self, data, n_linked, n_isolated, capacity, first_id, id_step):
        # few distinct weights and contexts (zeros among them), so that many
        # rows coincide; isolated trips have no candidate, only a value row;
        # trip ids consecutive from 0 or 7, or spaced 3 apart
        pairs = [(a, b) for a in range(n_linked) for b in range(a + 1, n_linked)]
        linked = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        weights = st.sampled_from((5.0, 5.0 + 2**-40, 1234.5, 0.25))
        graph = weighted_graph({pair: data.draw(weights) for pair in linked}, n_trips=n_linked + n_isolated)
        graph = relabelled(graph, lambda tid: first_id + id_step * tid)
        contexts = st.sampled_from(((0.0, 0.0, 0.0), (1.0, -2.0, 0.5), (1.0, -2.0, 0.5 + 2**-50)))
        features = {tid: np.array(data.draw(contexts)) for tid in graph.trips}
        table = RowTable(graph, features, capacity)
        for part in (table.contexts, table.focal_context, table.other_context, table.weight):
            assert not part.flags.writeable
        reached = set()
        for focal in graph.trips:
            neighbors = graph.neighbors(focal)
            for depth in range(capacity - 1):
                state = replace(initial_state(graph, focal, capacity), selected=(None,) * depth)
                ids = table.decision_rows(focal, depth, neighbors)
                assert table.inputs(ids[:-1]).tobytes() == select_inputs_rowwise(state, neighbors, features).tobytes()
                assert table.inputs(ids[-1:]).tobytes() == value_row_rowwise(state, features).tobytes()
                for picked in (neighbors[::2], neighbors[1:]):
                    assert list(table.decision_rows(focal, depth, picked)[:-1]) == [
                        ids[neighbors.index(v)] for v in picked
                    ]
                reached.update(ids.tolist())
        # every row is some input's, and no two rows are equal byte for byte
        assert reached == set(range(len(table)))
        assert len({row.tobytes() for row in table.inputs(np.arange(len(table)))}) == len(table)

    def test_scored_table_is_the_whole_table_scored_at_once(self):
        graph, features, _, params = setup_150()
        params = params.copy()  # setup_150 is shared
        params.b_hidden[:] = np.random.default_rng(7).normal(0.0, 0.5, size=len(params.b_hidden))
        table = RowTable(graph, features, 4)
        assert len(table) > 3 * ROW_CHUNK and len(table) % ROW_CHUNK  # a last, partial chunk
        _, whole_logits, whole_values = _score(params, table.inputs(np.arange(len(table))))
        scored = _ScoredTable(table, params)
        np.testing.assert_allclose(scored.logits, whole_logits, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(scored.values, whole_values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_tied", (3, 6))
    def test_identical_rows_tie_to_the_lowest_trip_id(self, n_tied):
        # zero contexts and equal weights: every candidate of trip 0 has the
        # same row, so the same logit, and the decode takes the lowest id
        graph = weighted_graph({(0, v): 5.0 for v in range(1, n_tied + 1)}, n_trips=n_tied + 2)
        features = {tid: np.zeros(4) for tid in graph.trips}
        params = randomized_params(np.random.default_rng(2), feature_dim=4, hidden=64)
        params.stop_logit.fill(-50.0)
        table = RowTable(graph, features, 2)
        ids = table.decision_rows(0, 0, graph.neighbors(0))
        assert len(set(ids[:-1].tolist())) == 1
        entry = _ScoredTable(table, params).decision((0, (), graph.neighbors(0)))
        assert len(set(entry.log_probs[:-1])) == 1
        assert match_all(graph, features, params, RewardSpec()).groups[0] == (0, 1)


class TestStep:
    def test_stop_is_terminal_zero_reward(self):
        _, _, graph, _, spec = routed_setup()
        state = initial_state(graph, focal=0)
        next_state, reward, done = step(state, None, spec)
        assert done and reward == 0.0 and next_state is state

    def test_first_select_pays_edge_weight(self):
        _, _, graph, _, spec = routed_setup()
        (a, b), edge = next(iter(sorted(graph.edges.items())))
        state = initial_state(graph, focal=a)
        next_state, reward, done = step(state, b, spec)
        assert reward == edge.weight
        assert not done
        assert next_state.selected == (b,)

    def test_frame_invariance(self):
        # the graph and the focal trip ride through the transition untouched
        _, _, graph, _, spec = routed_setup()
        (a, b), _ = next(iter(sorted(graph.edges.items())))
        state = initial_state(graph, focal=a)
        next_state, _, _ = step(state, b, spec)
        assert next_state.graph is state.graph
        assert next_state.focal == state.focal

    def test_infeasible_action_rejected(self):
        _, _, graph, _, spec = routed_setup()
        isolated = [t for t in sorted(graph.trips) if not graph.neighbors(t)]
        focal = sorted(graph.trips)[0]
        non_neighbor = next(
            t for t in sorted(graph.trips) if t != focal and t not in graph.neighbors(focal)
        )
        state = initial_state(graph, focal=focal)
        with pytest.raises(InfeasibleActionError):
            step(state, non_neighbor, spec)

    def test_three_rider_marginal_matches_reroute(self):
        net, trips, graph = scenario_instance(seed=2, n_trips=6, rows=3, cols=3, spacing=1000.0)
        spec = RewardSpec()
        focal = next(
            t for t in sorted(graph.trips) if len(graph.neighbors(t)) >= 2
        )
        n1, n2 = graph.neighbors(focal)[:2]
        state = initial_state(graph, focal=focal, capacity=3)
        state, first_reward, _ = step(state, n1, spec)
        state2, reward, _ = step(state, n2, spec)
        by_id = graph.trips
        from ridepool.shareability import route_for_group

        def savings(ids):
            route = route_for_group(net, [by_id[i] for i in ids])
            return sum(by_id[i].solo_route.distance for i in sorted(ids)) - route.total_distance

        expected = savings((focal, n1, n2)) - savings((focal, n1))
        assert reward == pytest.approx(expected, abs=1e-9)

    def test_social_penalty_reduces_reward(self):
        from ridepool.tolerance import ToleranceProfile

        _, _, graph, _, _ = routed_setup(seed=6, n_trips=8, departure_span=500.0)
        pair = next(
            ((a, b), e)
            for (a, b), e in sorted(graph.edges.items())
            if max(graph.group_route((a, b)).per_rider_delay.values()) > 0.0
        )
        (a, b), edge = pair
        plain = RewardSpec()
        penalized = RewardSpec(
            social_penalty_weight=10.0,
            profile=ToleranceProfile(tau0=300.0, kappa=2.0, s=1.0),
        )
        state = initial_state(graph, focal=a)
        _, base_reward, _ = step(state, b, plain)
        _, cut_reward, _ = step(state, b, penalized)
        assert cut_reward < base_reward


class TestRollout:
    def test_no_edges_single_stop_episodes(self):
        graph = weighted_graph({}, n_trips=4)
        features = {i: np.zeros(3) for i in range(4)}
        params = zero_head_params(3)
        spec = RewardSpec()
        result = rollout(graph, features, params, spec, seed=0)
        assert result.groups == ((0,), (1,), (2,), (3,))
        for episode in result.episodes:
            assert len(episode) == 1
            assert episode[0].action_index == 0  # the lone Stop
            assert episode[0].reward == 0.0

    def test_same_seed_identical_trajectories(self):
        _, _, graph, features, spec = routed_setup()
        params = zero_head_params(len(next(iter(features.values()))))
        r1 = rollout(graph, features, params, spec, seed=5)
        r2 = rollout(graph, features, params, spec, seed=5)
        assert r1.groups == r2.groups
        for e1, e2 in zip(r1.episodes, r2.episodes):
            assert [s.action_index for s in e1] == [s.action_index for s in e2]
            assert [s.log_prob for s in e1] == [s.log_prob for s in e2]

    def test_complete_graph_partitions(self):
        graph = weighted_graph({(a, b): 5.0 for a in range(4) for b in range(a + 1, 4)})
        features = {i: np.zeros(3) for i in range(4)}
        params = zero_head_params(3)
        spec = RewardSpec()
        for seed in range(10):
            result = rollout(graph, features, params, spec, capacity=2, seed=seed)
            check_partition(graph, result.groups, capacity=2)

    @pytest.mark.parametrize("capacity", (2, 3, 4))
    def test_select_inputs_match_row_wise_build(self, capacity):
        # replay each episode of the rollout, and of three rollouts sharing one
        # decision cache, and rebuild every candidate block row by row
        graph, features, spec, params = setup_150()
        scored = _ScoredTable(RowTable(graph, features, capacity), params)
        shared = [rollout(graph, features, params, spec, capacity, seed, scored=scored) for seed in (1, 2, 3)]
        for result in [rollout_150(capacity)] + shared:
            episodes = iter(result.episodes)
            assigned = set()
            for focal in sorted(graph.trips):
                if focal in assigned:
                    continue
                state = initial_state(graph, focal, capacity)
                for rec in next(episodes):
                    select_ids = free_candidates(state, assigned)
                    expected = select_inputs_rowwise(state, select_ids, features)
                    assert rec.select_inputs.dtype == expected.dtype
                    assert rec.select_inputs.shape == expected.shape
                    assert rec.select_inputs.tobytes() == expected.tobytes()
                    if rec.action_index < len(select_ids):
                        state, _, _ = step(state, select_ids[rec.action_index], spec)
                assigned.update((focal,) + state.selected)
            assert next(episodes, None) is None
        assert len(scored.decisions) < sum(len(all_records(result)) for result in shared)  # some were reused


class TestSample:
    """`_sample` over `_cdf` is `Generator.choice(len(p), p=p)` done by hand."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.just(1.0), st.just(1.0 + 2**-52), st.floats(1e-9, 1e3)),
            min_size=1,
            max_size=9,
        ).filter(lambda w: sum(w) > 0.0),
        seed=st.integers(0, 2**63 - 1),
        n_draws=st.integers(1, 30),
    )
    def test_matches_generator_choice_draw_for_draw(self, weights, seed, n_draws):
        probs = np.array(weights) / sum(weights)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n_draws):
            assert _sample(_cdf(probs), ours.random()) == int(theirs.choice(len(probs), p=probs))
        assert ours.random() == theirs.random()  # both consumed the stream alike

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probabilities_raise(self, bad):
        with pytest.raises(ValueError, match="NaN or inf"):
            _cdf(np.array([0.25, bad, 0.75]))

    @pytest.mark.parametrize("capacity", (2, 3))
    def test_one_draw_call_gives_the_scalar_stream(self, capacity):
        # `rollout` draws its doubles in one call; a pick that draws one
        # scalar double per decision must take the same actions
        graph, features, spec, params = setup_150()
        drawn = rollout(graph, features, params, spec, capacity=capacity, seed=9)
        rng = np.random.default_rng(9)
        scored = _ScoredTable(RowTable(graph, features, capacity), params)
        scalar = _run_policy(graph, spec, capacity, lambda entry: _sample(entry.cdf, rng.random()), scored, {})
        records, expected = all_records(drawn), all_records(scalar)
        assert len(records) == len(expected) > len(graph.trips) // 2
        for rec, want in zip(records, expected):
            assert (rec.action_index, rec.log_prob) == (want.action_index, want.log_prob)
        assert drawn.groups == scalar.groups


class TestDecisionCache:
    """The rollouts of one update share the row table's scores and the
    decision cache; they must change no parameter, reward or record against
    fresh ones per rollout."""

    @pytest.mark.parametrize("capacity, penalty", [(2, 0.0), (3, 0.0), (4, 0.0), (3, 2000.0)])
    def test_shared_cache_changes_nothing(self, capacity, penalty, monkeypatch):
        graph, features, spec, _ = setup_150()
        if penalty:
            spec = RewardSpec(social_penalty_weight=penalty, profile=ToleranceProfile(tau0=600.0, s=0.5))
        cfg = PPOConfig(rollouts_per_update=3, epochs_per_update=2, seed=5)
        runs = []
        for share in (True, False):
            results = []
            original = policy.rollout

            def recording(*args, scored, **kwargs):
                unshared = _ScoredTable(scored.table, scored.params)  # no row scored, no decision met
                result = original(*args, scored=scored if share else unshared, **kwargs)
                results.append(result)
                return result

            with monkeypatch.context() as patch:
                patch.setattr(policy, "rollout", recording)
                params, history = train(graph, features, spec, capacity, cfg, n_updates=2, hidden=8)
            runs.append((params, history, [rec for result in results for rec in all_records(result)]))
        (params, history, records), (fresh_params, fresh_history, fresh_records) = runs

        for name in PolicyParams.ARRAY_NAMES:
            assert params.arrays()[name].tobytes() == fresh_params.arrays()[name].tobytes(), name
        assert history == fresh_history
        assert len(records) == len(fresh_records)
        for rec, fresh in zip(records, fresh_records):
            assert rec.select_inputs.shape == fresh.select_inputs.shape
            assert rec.select_inputs.tobytes() == fresh.select_inputs.tobytes()
            assert value_input(rec).tobytes() == value_input(fresh).tobytes()
            assert (rec.action_index, rec.log_prob, rec.reward, rec.value) == (
                fresh.action_index,
                fresh.log_prob,
                fresh.reward,
                fresh.value,
            )
            assert not rec.row_ids.flags.writeable
        # the shared cache was hit: some records of one update share their arrays
        assert len({id(rec.row_ids) for rec in records}) < len({id(rec.row_ids) for rec in fresh_records})


def fresh_copy(graph):
    """The same graph, built again, with no group of three or more routed
    yet (its pairs' routing records are the build's)."""
    return build_shareability_graph(graph.net, graph.trips.values(), graph.objective)


def routed_groups(monkeypatch, run):
    """`run()`'s result and, per ``_route_groups`` call made meanwhile, in
    call order, the trip ids of the groups it routed."""
    routed = []
    original = shareability._route_groups

    def recording(net, groups):
        routed.append(tuple(tuple(t.trip_id for t in group) for group in groups))
        return original(net, groups)

    with monkeypatch.context() as patch:
        patch.setattr(shareability, "_route_groups", recording)
        result = run()
    return result, routed


def replay_decode(graph, spec, capacity, choose):
    """Oracle: the focal pass with `free_candidates` and `step` asked
    at every visit; `choose(state, select_ids)` gives the action index."""
    assigned = set()
    groups = []
    for focal in sorted(graph.trips):
        if focal in assigned:
            continue
        state = initial_state(graph, focal, capacity)
        while len(state.selected) < capacity - 1:
            select_ids = free_candidates(state, assigned)
            index = choose(state, select_ids)
            if index == len(select_ids):
                break
            state, _, _ = step(state, select_ids[index], spec)
        groups.append(tuple(sorted((focal,) + state.selected)))
        assigned.update(groups[-1])
    return groups


class TestRoutesBuiltWhenRead:
    """The graph keeps each routed group's record and builds its
    `SharedRoute` (``_evaluate_order``) only when `group_route` returns it,
    once per group."""

    @pytest.mark.parametrize("capacity", [2, 3, 4])
    def test_one_route_built_per_group_read(self, capacity, monkeypatch):
        graph, features, _, params = setup_150()
        profile = ToleranceProfile(tau0=600.0, s=0.5)
        spec = RewardSpec(social_penalty_weight=2000.0, profile=profile)
        built, read = [], set()
        evaluate_order, group_route = shareability._evaluate_order, ShareabilityGraph.group_route

        def counted(trips, order, legs):
            built.append(tuple(t.trip_id for t in trips))
            return evaluate_order(trips, order, legs)

        def recorded(self, group):
            route = group_route(self, group)
            if len(group) > 1:
                read.add(tuple(sorted(group)))
            return route

        monkeypatch.setattr(shareability, "_evaluate_order", counted)
        monkeypatch.setattr(ShareabilityGraph, "group_route", recorded)
        graph = fresh_copy(graph)  # built here, so that a route the build makes is counted
        solution = match_all(graph, features, params, spec, capacity)
        rng = np.random.default_rng(7)
        draws = {tid: rng.random() for tid in sorted(graph.trips)}
        filtered = filter_with_draws(solution, graph, profile, draws)
        assert len(built) == len(read)
        assert sorted(built) == sorted(read)  # each group read is built once
        assert {len(group) for group in read} == set(range(2, capacity + 1))
        assert filtered.groups != solution.groups  # some groups dissolved
        # and some groups were routed, by the build or a legality call, but never read
        assert any(not isinstance(route, SharedRoute) for route in graph._routes.values())


class TestMoveMemo:
    """`train` keeps one move memo for the run: each group's legal Selects and
    their rewards are asked once.  It must route no group a replay that asks
    `_legal` about the free neighbours at every visit would not, and change
    no record."""

    def test_routes_exactly_the_groups_a_replay_routes(self, monkeypatch):
        graph, features, spec, params = setup_150()

        def argmax(state, select_ids):
            rows = select_inputs_rowwise(state, select_ids, features)
            _, logits, _, _ = score_one(params, rows, value_row_rowwise(state, features))
            return int(np.argmax(logits))

        fresh = fresh_copy(graph)
        solution, routed = routed_groups(monkeypatch, lambda: match_all(fresh, features, params, spec, capacity=4))
        fresh = fresh_copy(graph)
        replay, replayed = routed_groups(
            monkeypatch,
            lambda: solution_for(fresh, canonical_groups(replay_decode(fresh, spec, 4, argmax))),
        )
        assert solution.groups == replay.groups
        assert routed == replayed
        assert {len(group) for call in routed for group in call} == {3, 4}
        assert max(len(call) for call in routed) > 1  # a decision's groups share a call

        fresh = fresh_copy(graph)
        result, routed = routed_groups(monkeypatch, lambda: rollout(fresh, features, params, spec, 4, seed=1))
        actions = iter(rec.action_index for rec in all_records(result))
        fresh = fresh_copy(graph)
        groups, replayed = routed_groups(
            monkeypatch, lambda: replay_decode(fresh, spec, 4, lambda state, select_ids: next(actions))
        )
        assert result.groups == canonical_groups(groups)
        assert next(actions, None) is None
        assert routed == replayed
        assert {len(group) for call in routed for group in call} == {3, 4}

    @pytest.mark.parametrize("capacity, penalty", [(2, 0.0), (3, 0.0), (4, 0.0), (3, 2000.0)])
    def test_shared_memo_changes_no_record(self, capacity, penalty, monkeypatch):
        graph, features, spec, _ = setup_150()
        if penalty:
            spec = RewardSpec(social_penalty_weight=penalty, profile=ToleranceProfile(tau0=600.0, s=0.5))
        cfg = PPOConfig(rollouts_per_update=3, epochs_per_update=2, seed=5)
        runs = []
        for share in (True, False):
            results = []
            asked = []
            original_rollout, original_legal = policy.rollout, policy._legal

            def recording(*args, moves, **kwargs):
                result = original_rollout(*args, moves=moves if share else None, **kwargs)
                results.append(result)
                return result

            def legal(state, vs):
                asked.extend((state.focal, state.selected, v) for v in vs)
                return original_legal(state, vs)

            with monkeypatch.context() as patch:
                patch.setattr(policy, "rollout", recording)
                patch.setattr(policy, "_legal", legal)
                params, history = train(graph, features, spec, capacity, cfg, n_updates=3, hidden=8)
            runs.append((params, history, [rec for result in results for rec in all_records(result)], asked))
        (params, history, records, asked), (fresh_params, fresh_history, fresh_records, fresh_asked) = runs

        for name in PolicyParams.ARRAY_NAMES:
            assert params.arrays()[name].tobytes() == fresh_params.arrays()[name].tobytes(), name
        assert history == fresh_history
        assert len(records) == len(fresh_records)
        for rec, fresh in zip(records, fresh_records):
            assert rec.select_inputs.tobytes() == fresh.select_inputs.tobytes()
            assert value_input(rec).tobytes() == value_input(fresh).tobytes()
            assert (rec.action_index, rec.log_prob, rec.reward, rec.value, rec.return_, rec.decision) == (
                fresh.action_index,
                fresh.log_prob,
                fresh.reward,
                fresh.value,
                fresh.return_,
                fresh.decision,
            )
        # the shared memo was hit: each (group, trip) is asked at most twice
        # per run, once for its legality and once more by `step` if taken
        assert len(asked) < len(fresh_asked)
        assert max(collections.Counter(asked).values()) <= 2


class TestPPOUpdate:
    def test_zero_advantages_leave_params_unchanged(self):
        # rewards all zero and a zero-initialized value head make every
        # advantage and value error vanish; without entropy the gradient is 0
        graph = weighted_graph({}, n_trips=3)
        features = {i: np.zeros(3) for i in range(3)}
        params = zero_head_params(3)
        spec = RewardSpec()
        result = rollout(graph, features, params, spec, seed=0)
        cfg = PPOConfig(entropy_coeff=0.0)
        updated = ppo_update(params, result.episodes, cfg)
        for name, arr in params.arrays().items():
            assert (np.asarray(updated.arrays()[name]) == np.asarray(arr)).all()

    def test_update_determinism(self):
        _, _, graph, features, spec = routed_setup()
        params = zero_head_params(len(next(iter(features.values()))))
        episodes = rollout(graph, features, params, spec, seed=3).episodes
        cfg = PPOConfig()
        u1 = ppo_update(params, episodes, cfg)
        u2 = ppo_update(params, episodes, cfg)
        for name in PolicyParams.ARRAY_NAMES:
            assert (np.asarray(u1.arrays()[name]) == np.asarray(u2.arrays()[name])).all()

    def test_empty_trajectories_rejected(self):
        params = zero_head_params(3)
        with pytest.raises(ValueError):
            ppo_update(params, [], PPOConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PPOConfig(clip_epsilon=0.0)
        with pytest.raises(ValueError):
            PPOConfig(clip_epsilon=1.0)
        with pytest.raises(ValueError):
            PPOConfig(gamma=0.0)
        with pytest.raises(ValueError):
            PPOConfig(gamma=1.5)
        for name, bad in (
            ("learning_rate", 0.0),
            ("learning_rate", math.nan),
            ("epochs_per_update", 0),
            ("rollouts_per_update", 0),
        ):
            with pytest.raises(ValueError, match=name):
                PPOConfig(**{name: bad})

    def test_gradient_matches_finite_differences(self):
        worst = max(gradient_check(seed) for seed in (0, 1, 2))
        assert worst < 1e-4

    def test_returns_discounting(self):
        recs = [
            StepRecord(StackedRows(np.zeros((1, 3))), np.zeros(1, dtype=np.intp), 0, 0.0, reward, 0.0)
            for reward in (1.0, 2.0, 4.0)
        ]
        fill_returns([recs], gamma=0.5)
        assert [r.return_ for r in recs] == [1.0 + 0.5 * (2.0 + 0.5 * 4.0), 2.0 + 0.5 * 4.0, 4.0]


class TestBatchedSurrogate:
    """`surrogate_objective` scores each distinct row once and each distinct
    decision once; it must agree with the per-step oracle to rounding and
    stay finite-difference exact."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from((1, 2, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1)),
        stop_only=st.booleans(),
        offset=st.integers(0, 3),
        entropy_coeff=st.sampled_from((0.0, 0.01, 0.5)),
    )
    def test_matches_per_step_oracle(self, seed, n_rows, stop_only, offset, entropy_coeff):
        rng = np.random.default_rng(seed)
        params = randomized_params(rng)
        cfg = PPOConfig(entropy_coeff=entropy_coeff)
        steps = drawn_steps(rng, params, n_rows, stop_only, offset, cfg.clip_epsilon)
        assert packed_counts(steps) == (n_rows, len(steps), len(steps))
        cases = {((i + offset) % 4 >= 2, (i + offset) % 2 == 0) for i in range(len(steps))}
        assert clip_branches(params, steps, cfg.clip_epsilon) == cases
        assert_matches_per_step(params, steps, cfg)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from((1, 2, 5, ROW_CHUNK, ROW_CHUNK + 1)),
        visits=st.integers(2, 4),
        stop_only=st.booleans(),
        offset=st.integers(0, 3),
        entropy_coeff=st.sampled_from((0.0, 0.01, 0.5)),
    )
    def test_steps_sharing_a_decision_match_per_step_oracle(
        self, seed, n_rows, visits, stop_only, offset, entropy_coeff
    ):
        # steps that share a decision's rows but differ in action, old
        # log-prob and return; the decision is scored once, each step counts
        rng = np.random.default_rng(seed)
        params = randomized_params(rng)
        cfg = PPOConfig(entropy_coeff=entropy_coeff)
        steps = drawn_steps(rng, params, n_rows, stop_only, offset, cfg.clip_epsilon, visits)
        assert packed_counts(steps) == (n_rows, len(steps) // visits, len(steps))
        assert_matches_per_step(params, steps, cfg)

    @pytest.mark.parametrize("capacity", (2, 3, 4))
    def test_matches_per_step_oracle_on_rollout_records(self, capacity):
        _, _, _, params = setup_150()
        steps = all_records(rollout_150(capacity, seed=1)) + all_records(rollout_150(capacity, seed=2))
        n_rows, n_decisions, _ = packed_counts(steps)
        assert n_rows > ROW_CHUNK and n_decisions < len(steps)
        assert {rec.select_inputs.shape[0] for rec in steps} > {0, 1, 10}
        assert_matches_per_step(perturbed(params, np.random.default_rng(capacity), 0.05), steps, PPOConfig())

    def test_gradient_matches_finite_differences_on_rollout_records(self):
        # returns in km, not m: at |J| ~ 1e6 the differences' rounding, not
        # the gradient, would decide the relative error of small components
        _, _, _, params = setup_150()
        steps = [
            replace(rec, return_=rec.return_ * WEIGHT_INPUT_SCALE)
            for seed in (1, 2, 3)
            for rec in all_records(rollout_150(3, seed))
        ]
        n_rows, n_decisions, _ = packed_counts(steps)
        assert n_rows > 2 * ROW_CHUNK and n_decisions < len(steps)
        eval_params = perturbed(params, np.random.default_rng(8), 0.2)
        cfg = PPOConfig()
        assert len(clip_branches(eval_params, steps, cfg.clip_epsilon)) == 4
        assert worst_fd_error(eval_params, steps, cfg) < 1e-4


class TestMatchAll:
    def test_no_edges_all_singletons(self):
        graph = weighted_graph({}, n_trips=4)
        features = {i: np.zeros(3) for i in range(4)}
        params = zero_head_params(3)
        spec = RewardSpec()
        solution = match_all(graph, features, params, spec)
        assert solution.groups == ((0,), (1,), (2,), (3,))
        assert solution.objective_value == 0.0

    def test_partition_invariant(self):
        for seed in range(5):
            _, _, graph, features, spec = routed_setup(seed=seed, n_trips=10)
            params = zero_head_params(len(next(iter(features.values()))), seed=seed)
            solution = match_all(graph, features, params, spec)
            check_partition(graph, solution.groups, capacity=2)

    def test_two_identical_trips_pool_after_training(self, line_net):
        from ridepool.shareability import build_shareability_graph, make_trip

        trips = [
            make_trip(line_net, 0, 0, line_net.nodes[0], line_net.nodes[2], 0.0),
            make_trip(line_net, 1, 1, line_net.nodes[0], line_net.nodes[2], 0.0),
        ]
        graph = build_shareability_graph(line_net, trips, Objective.DISTANCE)
        features = features_for(trips)
        spec = RewardSpec()
        params, _ = train(graph, features, spec, cfg=PPOConfig(seed=1), n_updates=30, hidden=16)
        solution = match_all(graph, features, params, spec)
        assert solution.groups == ((0, 1),)
        assert solution.objective_value == brute_force_optimal(graph).objective_value

    def test_training_not_worse_than_uniform(self):
        _, _, graph, features, spec = routed_setup()
        cfg = PPOConfig(seed=0)
        params, _ = train(graph, features, spec, cfg=cfg, n_updates=40, hidden=16)
        uniform = zero_head_params(len(next(iter(features.values()))), hidden=16)
        trained_rewards = [
            sum(rollout(graph, features, params, spec, seed=[9, i]).episode_returns())
            for i in range(30)
        ]
        uniform_rewards = [
            sum(rollout(graph, features, uniform, spec, seed=[9, i]).episode_returns())
            for i in range(30)
        ]
        assert np.mean(trained_rewards) >= np.mean(uniform_rewards)


class TestCheckpointIO:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        params = randomized_params(rng, feature_dim=4, hidden=6)
        path = tmp_path / "policy.txt"
        write_policy(params, path)
        loaded = read_policy(path)
        for name in PolicyParams.ARRAY_NAMES:
            original = np.asarray(params.arrays()[name])
            assert loaded.arrays()[name].shape == original.shape
            assert (np.asarray(loaded.arrays()[name]) == original).all()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_bit_for_bit_at_the_float_extremes(self, tmp_path_factory, data):
        # signed zeros, subnormals, the largest finite floats and infinities
        special = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.finfo(float).max, -np.finfo(float).max)
        values = st.one_of(st.sampled_from(special), st.floats(allow_nan=False))
        sizes = {"input": policy.input_width(data.draw(st.integers(1, 3))), "hidden": data.draw(st.integers(1, 4))}
        arrays = {}
        for name, dims in PolicyParams.ARRAY_DIMS.items():
            shape = tuple(sizes[d] for d in dims)
            n = math.prod(shape)
            arrays[name] = np.array(data.draw(st.lists(values, min_size=n, max_size=n))).reshape(shape)
        params = PolicyParams(**arrays)
        path = tmp_path_factory.mktemp("policy") / "policy.txt"
        write_policy(params, path)
        loaded = read_policy(path)
        for name, original in params.arrays().items():
            assert loaded.arrays()[name].shape == original.shape
            assert loaded.arrays()[name].tobytes() == original.tobytes()

    def test_missing_array_rejected(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("P w_hidden 2 1 1 0.5\n")
        with pytest.raises(ValueError):
            read_policy(path)
