"""Sequential co-rider selection as an MDP, trained with clipped-surrogate
policy gradients.

Each focal trip runs an episode over the paper's state (context vector,
graph, selected co-riders; `MatchState` keeps all but the contexts, which
live in the run's `RowTable`): the policy scores every still-available
neighbor plus a Stop action, samples one, and is rewarded with the marginal
pooling savings of the pick under the graph's objective.  An action is the
picked trip's id, or None for Stop.  A two-layer perceptron scores input
rows: one tanh hidden layer, then a logit head and a value head on every row.
A decision reads one row per candidate, then its value row, which sits where
the Stop logit goes: the candidates' logits, a learned scalar Stop logit, and
the value row's value.  That network is evaluated in one place, `_score`,
over gathered input rows, by the rollout, the greedy decode and the update
alike; which Selects are legal is decided in one place, `_legal`, which
routes all of a decision's grown groups in one bulk call; discounted returns
are formed in one place, `fill_returns`.  Updates use the clipped
probability-ratio surrogate with exact hand-rolled backprop, which keeps the
gradients finite-difference checkable.

A row is a pure function of (focal trip, candidate, depth), depth being the
number of co-riders already selected, so each `train` or `match_all` call
builds one read-only `RowTable` that names every row the graph can ask for,
each distinct row once, and scores each row once per parameter set.  The
table stores no rows: it gathers them from the trips' contexts.  Every
cache is exact: a hit returns what a miss would have computed.
- Once per run, `train` keeps a move memo keyed by group (focal trip,
  selected co-riders): whether Select(v) is legal, asked of `_legal` only
  for trips not yet assigned, all of a visit's unknown ones in one call, and,
  once taken, its reward from `step`.  Neither depends on the parameters,
  so the memo lives for every update.
- Once per parameter set (one update's rollouts, or the greedy decode),
  `_ScoredTable` scores the whole table up front, ROW_CHUNK row ids at a
  time, and caches decisions by (focal trip, selected co-riders, candidate
  ids), which fixes their row ids: a decision gathers its rows' logits and
  its value row's value and forms its probabilities and sampling cdf on
  first sight; met again it costs one draw and a bisect.  The greedy
  decode starts both caches empty, so it routes exactly the groups a
  per-visit `_legal` over the free neighbours would, in the same order and
  the same calls: at most one routing call per decision.

The update is batched and scores each distinct row once per epoch: the
recorded steps carry row ids into the table and are grouped by decision key,
and the distinct rows the decisions read are gathered, once per update;
every epoch runs `_score` over those rows, ROW_CHUNK rows at a time, gathers
each decision's logits into one segmented vector, whose softmax,
log-softmax and entropy are `reduceat` segment reductions, reads each
step's ratio, clip branch, entropy and value error by index, and scatters
the steps' logit and value upstreams back onto the rows with `bincount`, so
each gradient, the shared layer's included, is one matmul or sum per chunk.
This is the per-step objective and gradient summed in a different order.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .baselines import MatchingSolution, canonical_groups, solution_for
from .geo import read_records
from .shareability import ShareabilityGraph
from .tolerance import ToleranceProfile, rejection_cost

MAX_CAPACITY = 4
WEIGHT_INPUT_SCALE = 1e-3  # meters/seconds -> O(1) inputs
VALUE_LOSS_COEFF = 0.5
ROW_CHUNK = 256  # rows per `_score` call and per backward matmul; bounds their temporaries


class InfeasibleActionError(Exception):
    """The requested action is not in the state's candidate set."""


@dataclass(frozen=True, eq=False)
class MatchState:
    """One focal trip's episode state: the graph, the co-riders selected so
    far and the group capacity.  The paper's context vector is not copied
    here: a decision reads it from the run's `RowTable`."""

    focal: int
    graph: ShareabilityGraph
    selected: tuple = ()
    capacity: int = 2


@dataclass(frozen=True)
class RewardSpec:
    """What a Select is paid beyond the marginal savings under the graph's
    objective: minus `social_penalty_weight` times the marginal expected
    number of riders who reject their delay under `profile`.  The profile is
    read only when the weight is positive."""

    social_penalty_weight: float = 0.0
    profile: ToleranceProfile = None

    def __post_init__(self):
        if self.social_penalty_weight < 0.0:
            raise ValueError(f"social_penalty_weight must be >= 0, got {self.social_penalty_weight}")
        if self.social_penalty_weight > 0.0 and self.profile is None:
            raise ValueError("a tolerance profile is required when social_penalty_weight > 0")


@dataclass
class PPOConfig:
    clip_epsilon: float = 0.2
    learning_rate: float = 3e-3
    gamma: float = 1.0
    epochs_per_update: int = 4
    rollouts_per_update: int = 8
    entropy_coeff: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must lie in (0, 1), got {self.clip_epsilon}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs_per_update < 1:
            raise ValueError(f"epochs_per_update must be >= 1, got {self.epochs_per_update}")
        if self.rollouts_per_update < 1:
            raise ValueError(f"rollouts_per_update must be >= 1, got {self.rollouts_per_update}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass
class PolicyParams:
    """Shared tanh hidden layer; per-candidate logit, stop logit, value head."""

    w_hidden: np.ndarray  # (input_dim, hidden)
    b_hidden: np.ndarray  # (hidden,)
    w_logit: np.ndarray  # (hidden,)
    b_logit: np.ndarray  # ()
    stop_logit: np.ndarray  # ()
    w_value: np.ndarray  # (hidden,)
    b_value: np.ndarray  # ()

    # each array's dimensions, named so that arrays sharing a width agree
    ARRAY_DIMS = {
        "w_hidden": ("input", "hidden"),
        "b_hidden": ("hidden",),
        "w_logit": ("hidden",),
        "b_logit": (),
        "stop_logit": (),
        "w_value": ("hidden",),
        "b_value": (),
    }
    ARRAY_NAMES = tuple(ARRAY_DIMS)

    def arrays(self):
        return {name: getattr(self, name) for name in self.ARRAY_NAMES}

    def copy(self):
        return PolicyParams(**{name: arr.copy() for name, arr in self.arrays().items()})


def input_width(feature_dim) -> int:
    """The network's input width for context vectors of `feature_dim`: the
    focal and candidate contexts, the scaled edge weight, the group fill."""
    return 2 * feature_dim + 2


def init_policy_params(feature_dim, hidden=64, seed=0) -> PolicyParams:
    """Seeded hidden layer, zeroed heads, so the initial policy is uniform."""
    sizes = {"input": input_width(feature_dim), "hidden": hidden}
    arrays = {name: np.zeros([sizes[dim] for dim in dims]) for name, dims in PolicyParams.ARRAY_DIMS.items()}
    arrays["w_hidden"] = np.random.default_rng(seed).uniform(-0.1, 0.1, size=arrays["w_hidden"].shape)
    return PolicyParams(**arrays)


def initial_state(graph, focal, capacity=2) -> MatchState:
    if not 2 <= capacity <= MAX_CAPACITY:
        raise ValueError(f"capacity must lie in [2, {MAX_CAPACITY}], got {capacity}")
    return MatchState(focal, graph, (), capacity)


def _legal(state: MatchState, vs) -> list:
    """The trips of `vs` whose Select is legal, in `vs` order: the group has
    room, v is joined to the focal trip by an edge and not yet in the group,
    and the grown group routes (a pair routes by its edge).  Which trips are
    still free is the caller's to know: it asks only about those.  Every
    grown group is routed in one `ShareabilityGraph.route_groups` call; a
    group routes unless that call names it in its errors."""
    if len(state.selected) >= state.capacity - 1:
        return []
    graph, focal, selected = state.graph, state.focal, state.selected
    vs = [v for v in vs if v != focal and v not in selected and graph.edge(focal, v) is not None]
    if not selected:
        return vs
    keys = [tuple(sorted((focal,) + selected + (v,))) for v in vs]
    errors = graph.route_groups(keys)
    return [v for v, key in zip(vs, keys) if key not in errors]


def candidate_actions(state: MatchState):
    """The focal trip's neighbours whose Select is legal, in ascending id,
    free or not.  Stop is always legal and is not listed.  `_run_policy`
    asks `_legal` about free trips only, through its move memo (`_Group`);
    this wrapper is kept for the benchmark's candidate-call counter."""
    return _legal(state, state.graph.neighbors(state.focal))


class RowTable:
    """Every input row the policy can be asked to score on one graph at one
    capacity, each distinct row once, read-only.

    A row is a pure function of (focal trip, candidate, depth): the focal
    trip's context, the candidate's context, their edge weight times
    WEIGHT_INPUT_SCALE, and the group fill depth / MAX_CAPACITY.  The value
    row of (focal trip, depth) has zeros for the candidate's context and
    weight.  Rows equal byte for byte share one row id, so equal inputs get
    equal scores (and `match_all`'s tie to the lowest trip id holds); row
    ids run depth by depth, in order of first appearance within a depth.

    No row is stored: `inputs` gathers a row from a context matrix (a row
    per trip, then a zero row that stands in for the value row's candidate)
    by its two context indices, and its weight and depth.  A column that
    depends on more of the state than (focal trip, candidate, depth) cannot
    live here; a decision would add it to its gathered rows before `_score`.
    """

    def __init__(self, graph: ShareabilityGraph, features, capacity):
        trip_ids = np.array(list(graph.trips), dtype=np.int64)  # ascending
        n, width = len(trip_ids), len(next(iter(features.values())))
        contexts = np.zeros((n + 1, width))
        contexts[:n] = [features[trip.user_id] for trip in graph.trips.values()]
        pairs = np.fromiter(chain.from_iterable(graph.edges), dtype=np.int64, count=2 * len(graph.edges))
        pairs = np.searchsorted(trip_ids, pairs).reshape(-1, 2)
        # the edges' weights, then the value rows' zero
        weights = np.zeros(len(graph.edges) + 1)
        weights[:-1] = [edge.weight for edge in graph.edges.values()]
        weights *= WEIGHT_INPUT_SCALE
        # stable sorts only (np.unique sorts stably when asked for indices):
        # each further sort kernel a fresh process touches costs start-up
        # time and resident memory
        weight_ids = np.unique(weights.view(np.int64), return_index=True, return_inverse=True)[2]
        focal = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
        other = np.concatenate([pairs[:, 1], pairs[:, 0], np.full(n, n)])  # n: the zero context
        weight = np.concatenate([weights[:-1], weights[:-1], np.full(n, weights[-1])])
        weight_id = np.concatenate([weight_ids[:-1], weight_ids[:-1], np.full(n, weight_ids[-1])])
        order = np.argsort(focal * (n + 1) + other, kind="stable")
        focal, other, weight, weight_id = focal[order], other[order], weight[order], weight_id[order]

        # a row's bytes are its parts' bytes, so depth-0 rows are compared as
        # byte ids of their contexts and weight; a depth adds a fixed offset
        context_ids = {}
        context_id = np.array([context_ids.setdefault(row.tobytes(), len(context_ids)) for row in contexts])
        key = (context_id[focal] * (n + 1) + context_id[other]) * len(weights) + weight_id
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        by_appearance = np.argsort(first, kind="stable")
        rank = np.empty_like(by_appearance)
        rank[by_appearance] = np.arange(len(first))
        keep = first[by_appearance]  # each row's first entry
        self._entry_row = rank[inverse]  # directed entry -> its row at depth 0

        self.contexts = contexts
        self.focal_context = focal[keep]
        self.other_context = other[keep]
        self.weight = weight[keep]
        for arr in (self.contexts, self.focal_context, self.other_context, self.weight):
            arr.flags.writeable = False
        self.per_depth = len(keep)
        self.depths = capacity - 1
        # a value entry's neighbour id is one past every trip id, so it sorts last
        self._value_key = int(trip_ids.max(initial=-1)) + 1
        self._neighbors = np.append(trip_ids, self._value_key)[other]
        counts = np.bincount(focal, minlength=n)
        ends = np.cumsum(counts)
        self._entries = dict(zip(trip_ids.tolist(), zip((ends - counts).tolist(), ends.tolist())))

    def __len__(self):
        """The number of row ids: the distinct rows of every depth."""
        return self.depths * self.per_depth

    def decision_rows(self, focal, depth, candidates: tuple) -> np.ndarray:
        """Row ids of a decision at `depth`: the candidates' (neighbours of
        the focal trip, in ascending id), then the focal trip's value row."""
        start, stop = self._entries[focal]
        entries = self._neighbors[start:stop].searchsorted(candidates + (self._value_key,))
        return self._entry_row[start + entries] + depth * self.per_depth

    def inputs(self, row_ids) -> np.ndarray:
        """(len(row_ids), input_dim): the rows `row_ids` name, gathered."""
        depth, row = np.divmod(row_ids, self.per_depth)
        width = self.contexts.shape[1]
        rows = np.empty((len(row), input_width(width)))
        rows[:, :width] = self.contexts[self.focal_context[row]]
        rows[:, width:-2] = self.contexts[self.other_context[row]]
        rows[:, -2] = self.weight[row]
        rows[:, -1] = depth / MAX_CAPACITY
        return rows


def _score(params: PolicyParams, rows: np.ndarray):
    """The network's forward pass over a stack of input rows.

    Returns the hidden layer, and each row's logit (from the logit head) and
    value (from the value head); a decision takes its candidate rows'
    logits, `params.stop_logit` in its value row's place, and its value
    row's value.
    """
    hidden = rows @ params.w_hidden
    hidden += params.b_hidden
    np.tanh(hidden, out=hidden)
    logits = hidden @ params.w_logit + float(params.b_logit)
    values = hidden @ params.w_value + float(params.b_value)
    return hidden, logits, values


def step(state: MatchState, action, spec: RewardSpec):
    """Apply one action, a trip id to Select or None to Stop.  Stop ends the
    episode with reward 0; Select(v) extends the group and pays its marginal
    savings under the graph's objective (minus the marginal expected-rejection
    penalty when `spec` sets one).  The graph carries over unchanged."""
    if action is None:
        return state, 0.0, True
    if not _legal(state, (action,)):
        raise InfeasibleActionError(f"trip {action} is not selectable from this state")
    prev_group = (state.focal,) + state.selected
    next_group = prev_group + (action,)
    reward = state.graph.group_value(next_group) - state.graph.group_value(prev_group)
    if spec.social_penalty_weight > 0.0:
        reward -= spec.social_penalty_weight * (
            _group_rejection_cost(state.graph, next_group, spec.profile)
            - _group_rejection_cost(state.graph, prev_group, spec.profile)
        )
    return MatchState(state.focal, state.graph, state.selected + (action,), state.capacity), reward, False


def _group_rejection_cost(graph, group, profile) -> float:
    if len(group) == 1:
        return 0.0
    route = graph.group_route(group)
    delays = [max(0.0, route.per_rider_delay[tid]) for tid in sorted(group)]
    return rejection_cost(delays, profile)


@dataclass
class StepRecord:
    """One visit of a decision: everything needed to re-evaluate it during
    updates.  Its inputs are rows of a row table; steps with the same
    `decision` key read the same rows (in a rollout, the very id array) and
    are scored once per update pass."""

    table: RowTable  # whose `inputs` gives the rows; one table for every record of a call
    row_ids: np.ndarray  # (k + 1,): the candidates' rows in sorted candidate order, then the value row
    action_index: int  # 0..k-1 = that select; k = stop
    log_prob: float
    reward: float
    value: float
    return_: float = 0.0
    decision: tuple = None  # (focal, selected, candidate ids); None: a decision of its own

    @property
    def select_inputs(self) -> np.ndarray:
        """(k, input_dim): the candidates' rows, in sorted candidate order."""
        return self.table.inputs(self.row_ids[:-1])


@dataclass
class RolloutResult:
    episodes: list  # one list[StepRecord] per focal trip
    groups: tuple  # the partition produced by this pass

    def episode_returns(self, gamma=1.0):
        """Discounted return of each episode (fills every record's return_)."""
        fill_returns(self.episodes, gamma)
        return [episode[0].return_ for episode in self.episodes]


def _run_policy(graph, spec, capacity, pick, scored, moves) -> RolloutResult:
    """Shared driver: focal trips in ascending id, assigned trips excluded.

    `moves` maps each focal trip to its `_Group` memo; it must only ever see
    one graph, capacity and reward spec.  `scored` is the graph's row table
    under one set of parameters (`_ScoredTable`); a decision met again reuses
    its entry.  `pick` chooses an action index from an entry."""
    assigned = set()
    episodes = []
    groups = []
    for focal in sorted(graph.trips):
        if focal in assigned:
            continue
        group = moves.get(focal)
        if group is None:
            group = moves[focal] = _Group(initial_state(graph, focal, capacity))
        neighbors = graph.neighbors(focal)
        records = []
        while len(group.state.selected) < capacity - 1:
            legal = group.legal
            try:
                select_ids = [v for v in neighbors if v not in assigned and legal[v]]
            except KeyError:  # a candidate not asked about yet: ask every such one at once
                group.learn([v for v in neighbors if v not in assigned and v not in legal])
                select_ids = [v for v in neighbors if v not in assigned and legal[v]]
            entry = scored.decision((focal, group.state.selected, tuple(select_ids)))
            index = pick(entry)
            log_prob = entry.log_probs[index]
            record = StepRecord(scored.table, entry.row_ids, index, log_prob, 0.0, entry.value, decision=entry.key)
            records.append(record)
            if index == len(select_ids):
                break
            record.reward, group = group.select(select_ids[index], spec)
        members = tuple(sorted((focal,) + group.state.selected))
        assigned.update(members)
        groups.append(members)
        episodes.append(records)
    return RolloutResult(episodes=episodes, groups=canonical_groups(groups))


class _Group:
    """What the Selects from one group (a focal trip and its selected
    co-riders) do, asked lazily and kept: whether Select(v) is legal
    (`_legal`) and, once taken, its reward and the grown group (`step`).

    `_run_policy` asks only about trips not yet assigned: for those the
    answer does not depend on which other trips are assigned, so it holds
    for every visit of the group in a run.
    A visit asks about all of its candidates not yet known in one `learn`,
    which routes their grown groups in one call."""

    __slots__ = ("state", "legal", "grown")

    def __init__(self, state: MatchState):
        self.state = state
        self.legal = {}  # trip id -> bool
        self.grown = {}  # trip id -> (reward, _Group)

    def learn(self, vs):
        """Ask `_legal` about the trips `vs` in one call and keep the answers."""
        self.legal.update(dict.fromkeys(vs, False))
        self.legal.update(dict.fromkeys(_legal(self.state, vs), True))

    def select(self, v, spec):
        move = self.grown.get(v)
        if move is None:
            state, reward, _ = step(self.state, v, spec)
            move = self.grown[v] = (reward, _Group(state))
        return move


class _Decision(NamedTuple):
    """One decision scored under one set of parameters, read-only."""

    key: tuple  # (focal, selected, candidate ids)
    row_ids: np.ndarray  # the candidates' rows, then the value row
    log_probs: list  # the candidates in row order, then Stop
    value: float
    cdf: list  # what `_sample` draws from


class _ScoredTable:
    """A row table under one set of parameters: every row's logit and value,
    scored on construction by `_score`, ROW_CHUNK row ids at a time, and
    the decisions met so far, keyed by (focal trip, selected co-riders,
    candidate ids)."""

    __slots__ = ("table", "params", "logits", "values", "decisions")

    def __init__(self, table: RowTable, params: PolicyParams):
        self.table = table
        self.params = params
        self.logits = np.empty(len(table))
        self.values = np.empty(len(table))
        for chunk in np.split(np.arange(len(table)), range(ROW_CHUNK, len(table), ROW_CHUNK)):
            _, self.logits[chunk], self.values[chunk] = _score(params, table.inputs(chunk))
        self.decisions = {}

    def decision(self, key) -> _Decision:
        """The decision `key`, formed on first sight.  Its softmax and cdf
        run on Python floats: a decision has few candidates, and numpy's
        cost per call would dominate."""
        entry = self.decisions.get(key)
        if entry is None:
            focal, selected, candidates = key
            row_ids = self.table.decision_rows(focal, len(selected), candidates)
            row_ids.flags.writeable = False
            logits = self.logits[row_ids].tolist()
            logits[-1] = float(self.params.stop_logit)
            top = max(logits)
            exps = [math.exp(x - top) for x in logits]
            total = sum(exps)
            log_total = math.log(total)
            log_probs = [x - top - log_total for x in logits]
            value = float(self.values[row_ids[-1]])
            entry = self.decisions[key] = _Decision(key, row_ids, log_probs, value, _cdf([e / total for e in exps]))
        return entry


def _cdf(probs) -> list:
    """The cumulative distribution `Generator.choice` draws from: the
    cumulative sum (left to right, as `np.cumsum` adds) divided by its last
    entry."""
    cdf = list(accumulate(probs))
    if not math.isfinite(cdf[-1]):
        raise ValueError(f"probabilities contain NaN or inf: {probs}")
    return [c / cdf[-1] for c in cdf]


def _sample(cdf, rng) -> int:
    """An index drawn from the distribution with cumulative `cdf` (see
    `_cdf`): the same draw from the same generator state as
    `rng.choice(len(probs), p=probs)`, without its checks and conversions."""
    return bisect_right(cdf, rng.random())


def rollout(graph, features, params, spec, capacity=2, seed=0, scored=None, moves=None) -> RolloutResult:
    """Sampled trajectories over all focal trips; deterministic per seed.

    `scored` and `moves` are the scored row table and the move memo of
    `_run_policy`; leaving either out gives a fresh one.  Rollouts under the
    same parameters (one update's, in `train`) may share a scored table, and
    rollouts on the same graph, capacity and spec (all of a `train` run's)
    may share a move memo; neither changes any record."""
    rng = np.random.default_rng(seed)
    scored = _ScoredTable(RowTable(graph, features, capacity), params) if scored is None else scored
    moves = {} if moves is None else moves
    return _run_policy(graph, spec, capacity, lambda entry: _sample(entry.cdf, rng), scored, moves)


def match_all(graph, features, params, spec, capacity=2) -> MatchingSolution:
    """Greedy decode (argmax action, ties to the lowest trip id) into a full
    matching solution with routed groups."""
    scored = _ScoredTable(RowTable(graph, features, capacity), params)
    result = _run_policy(graph, spec, capacity, lambda entry: int(np.argmax(entry.log_probs)), scored, {})
    return solution_for(graph, result.groups)


def surrogate_objective(params: PolicyParams, packed, cfg: PPOConfig):
    """Mean clipped-surrogate objective with entropy bonus and value penalty,
    plus its exact gradient.  Maximized by ppo_update; finite-difference
    checkable as one scalar function of the parameters.

    `packed` holds the steps as `_pack_steps` packs them, so each distinct
    row is scored once and each distinct decision's softmax formed once,
    not once per step that took it.  The softmax, log-softmax and entropy
    are segment reductions (`reduceat` over the segment starts), one per
    decision; each step reads its decision's by index, and the steps'
    upstream gradients are summed per decision and per row (`bincount`).
    The distinct rows' hidden layer is kept from the forward pass to the
    backward one."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    sizes, starts, stops, step_decision = packed.sizes, packed.starts, packed.stops, packed.step_decision
    chunks = [slice(start, start + ROW_CHUNK) for start in range(0, len(packed.row_ids), ROW_CHUNK)]
    hidden = np.empty((len(packed.row_ids), len(params.b_hidden)))
    row_logits = np.empty(len(packed.row_ids))
    row_values = np.empty(len(packed.row_ids))
    for chunk in chunks:
        hidden[chunk], row_logits[chunk], row_values[chunk] = _score(params, packed.rows[chunk])
    logits = row_logits[packed.segment_rows]
    logits[stops] = float(params.stop_logit)
    values = row_values[packed.segment_rows[stops]]

    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts), sizes)
    log_probs = shifted - np.repeat(np.log(np.add.reduceat(np.exp(shifted), starts)), sizes)
    probs = np.exp(log_probs)
    entropy = -np.add.reduceat(probs * log_probs, starts)
    ratio = np.exp(log_probs[packed.chosen] - packed.old_log_prob)
    unclipped = ratio * packed.advantage
    clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * packed.advantage
    value_error = values[step_decision] - packed.returns
    total = float(
        np.minimum(unclipped, clipped).sum()
        + cfg.entropy_coeff * (packed.visits * entropy).sum()
        - VALUE_LOSS_COEFF * (value_error**2).sum()
    )

    # d(surrogate)/d(logits): flows only while the unclipped branch is active
    gain = np.where(unclipped <= clipped, unclipped, 0.0)
    upstream = np.bincount(packed.chosen, weights=gain, minlength=len(logits))
    upstream -= probs * np.repeat(np.bincount(step_decision, weights=gain, minlength=len(sizes)), sizes)
    upstream += np.repeat(cfg.entropy_coeff * packed.visits, sizes) * (-probs * (log_probs + np.repeat(entropy, sizes)))
    grads["stop_logit"] += upstream[stops].sum()
    upstream[stops] = 0.0  # a value row's logit is the Stop logit, not the logit head's
    d_value = np.bincount(step_decision, weights=-VALUE_LOSS_COEFF * 2.0 * value_error, minlength=len(sizes))

    # per row: the upstreams of every segment position and value that read it
    row_logit_grad = np.bincount(packed.segment_rows, weights=upstream, minlength=len(packed.row_ids))
    row_value_grad = np.bincount(packed.segment_rows[stops], weights=d_value, minlength=len(packed.row_ids))
    grads["w_logit"] += hidden.T @ row_logit_grad
    grads["b_logit"] += row_logit_grad.sum()
    grads["w_value"] += hidden.T @ row_value_grad
    grads["b_value"] += row_value_grad.sum()

    # back through both heads into the shared layer; (1 - h^2) is written over h
    d_pre = np.subtract(1.0, np.square(hidden, out=hidden), out=hidden)
    for chunk in chunks:
        d_pre[chunk] *= row_logit_grad[chunk, None] * params.w_logit + row_value_grad[chunk, None] * params.w_value
        grads["w_hidden"] += packed.rows[chunk].T @ d_pre[chunk]
    grads["b_hidden"] += d_pre.sum(axis=0)
    n = len(step_decision)
    return total / n, {name: grad / n for name, grad in grads.items()}


@dataclass(frozen=True)
class _PackedSteps:
    """What the surrogate of a batch of steps needs beyond the parameters:
    the distinct table rows its decisions read; each distinct decision as
    one segment of the packed logits, its value row giving its Stop logit;
    and per step the decision it took and what it recorded."""

    row_ids: np.ndarray  # the distinct rows the decisions read, ascending
    rows: np.ndarray  # those rows, gathered from the row table
    segment_rows: np.ndarray  # per segment position: its row's index into row_ids
    sizes: np.ndarray  # segment length per decision: its candidate rows + its value row
    starts: np.ndarray  # first position of each segment
    stops: np.ndarray  # each segment's value row, which gives its Stop logit
    visits: np.ndarray  # steps per decision
    step_decision: np.ndarray  # per step: the index of its decision's segment
    chosen: np.ndarray  # per step: its taken logit
    old_log_prob: np.ndarray
    returns: np.ndarray
    advantage: np.ndarray  # return minus the rollout-time value


def _pack_steps(steps) -> _PackedSteps:
    """The steps grouped by decision key, in order of first appearance (a
    decision's rows are read from its first step), and the distinct rows
    they read.  Every step must read the same row table."""
    table = steps[0].table
    by_decision = {}
    for rec in steps:
        if rec.table is not table:
            raise ValueError("steps read different row tables")
        by_decision.setdefault(id(rec) if rec.decision is None else rec.decision, []).append(rec)
    decisions = list(by_decision.values())
    sizes = np.array([len(steps[0].row_ids) for steps in decisions])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    visits = np.array([len(steps) for steps in decisions])
    step_decision = np.repeat(np.arange(len(decisions)), visits)
    row_ids, segment_rows = np.unique(np.concatenate([steps[0].row_ids for steps in decisions]), return_inverse=True)
    action_index, old_log_prob, returns, old_value = np.array(
        [(rec.action_index, rec.log_prob, rec.return_, rec.value) for steps in decisions for rec in steps]
    ).T
    return _PackedSteps(
        row_ids=row_ids,
        rows=table.inputs(row_ids),
        segment_rows=segment_rows,
        sizes=sizes,
        starts=starts,
        stops=ends - 1,
        visits=visits,
        step_decision=step_decision,
        chosen=starts[step_decision] + action_index.astype(np.intp),
        old_log_prob=old_log_prob,
        returns=returns,
        advantage=returns - old_value,
    )


def fill_returns(episodes, gamma):
    """Discounted return per step, episode by episode; returns the flat list."""
    steps = []
    for episode in episodes:
        total = 0.0
        for rec in reversed(episode):
            total = rec.reward + gamma * total
            rec.return_ = total
        steps.extend(episode)
    return steps


def ppo_update(params: PolicyParams, episodes, cfg: PPOConfig) -> PolicyParams:
    """Full-batch gradient ascent on the clipped surrogate for
    epochs_per_update passes.  Advantages use the rollout-time value baseline;
    old log-probabilities stay fixed across passes, so the steps are packed
    once and every pass reuses them.  The episodes must read one row table,
    as one `train` update's rollouts do."""
    steps = fill_returns(episodes, cfg.gamma)
    if not steps:
        raise ValueError("cannot update from empty trajectories")
    params = params.copy()
    packed = _pack_steps(steps)
    for _ in range(cfg.epochs_per_update):
        _, grads = surrogate_objective(params, packed, cfg)
        for name, grad in grads.items():
            getattr(params, name)[...] += cfg.learning_rate * grad
    return params


def train(graph, features, spec, capacity=2, cfg=None, n_updates=100, hidden=64):
    """Rollout/update loop; returns the trained parameters and the mean
    episodic reward per update.  The run builds one row table; the rollouts
    of one update share it scored under that update's parameters (see
    `rollout`)."""
    cfg = cfg or PPOConfig()
    feature_dim = len(next(iter(features.values())))
    params = init_policy_params(feature_dim, hidden=hidden, seed=cfg.seed)
    table = RowTable(graph, features, capacity) if n_updates else None
    history = []
    moves = {}
    for update in range(n_updates):
        episodes = []
        scored = _ScoredTable(table, params)
        for r in range(cfg.rollouts_per_update):
            result = rollout(
                graph, features, params, spec, capacity, seed=[cfg.seed, update, r], scored=scored, moves=moves
            )
            episodes.extend(result.episodes)
        params = ppo_update(params, episodes, cfg)
        history.append(float(np.mean([episode[0].return_ for episode in episodes])))
    return params, history


def write_policy(params: PolicyParams, path):
    """One record per array: `P <name> <ndim> <dims...> <values...>`."""
    with open(path, "w") as fh:
        for name, arr in params.arrays().items():
            values = arr.ravel().tolist()  # Python floats format faster than numpy scalars
            record = f"P {name} {arr.ndim}" + " %d" * arr.ndim % arr.shape + " %.17g" * len(values) % tuple(values)
            fh.write(record + "\n")


def read_policy(path) -> PolicyParams:
    """The checkpoint written by `write_policy`.  A record whose shape does
    not fit its array, or the widths of the arrays read before it, is
    reported at its line."""
    arrays = {}
    widths = {}  # dimension name -> (size, array that set it)

    def parse(fields):
        _, name, ndim, *rest = fields
        dims = PolicyParams.ARRAY_DIMS.get(name)
        if dims is None:
            raise ValueError(f"unknown array {name!r}")
        if name in arrays:
            raise ValueError(f"a second record for array {name!r}")
        ndim = int(ndim)
        values = np.array([float(v) for v in rest[ndim:]], dtype=np.float64)
        arr = values.reshape(tuple(int(v) for v in rest[:ndim]))
        if arr.ndim != len(dims):
            raise ValueError(f"array {name!r} has {arr.ndim} dimensions, expected {len(dims)}")
        for dim, size in zip(dims, arr.shape):
            known, owner = widths.setdefault(dim, (size, name))
            if size != known:
                raise ValueError(f"array {name!r} has {dim} width {size}, but {owner!r} has {known}")
        arrays[name] = arr

    read_records(path, "policy", {"P": None}, parse)
    missing = [name for name in PolicyParams.ARRAY_NAMES if name not in arrays]
    if missing:
        raise ValueError(f"{path}: checkpoint is missing arrays {missing}")
    return PolicyParams(**arrays)
