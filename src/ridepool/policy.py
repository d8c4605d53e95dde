"""Sequential co-rider selection as an MDP, trained with clipped-surrogate
policy gradients.

Each focal trip runs an episode over the state (context vector, graph,
selected co-riders): the policy scores every still-available neighbor plus a
Stop action, samples one, and is rewarded with the marginal pooling savings
of the pick under the graph's objective.  An action is the picked trip's id,
or None for Stop.  A two-layer perceptron scores a decision as one row block
(the candidate set varies per state): one row per candidate, then the value
row, which sits where the Stop logit goes.  One tanh hidden layer runs over
the whole block; the logit head scores the candidate rows, the Stop logit is
a learned scalar, and the value head reads the value row.  That network is
evaluated in one place, `_score`, by the rollout, the greedy decode and the
update alike; which Selects are legal is decided in one place, `_selectable`;
discounted returns are formed in one place, `fill_returns`.  Updates use the
clipped probability-ratio surrogate with exact hand-rolled backprop, which
keeps the gradients finite-difference checkable.

Training pays once per distinct decision, not once per visit, and every
memo is exact: a hit returns what a miss would have computed.
- Once per run, `train` keeps a move memo keyed by group (focal trip,
  selected co-riders): whether Select(v) is legal, asked of `_selectable`
  only for trips not yet assigned, and, once taken, its reward from `step`.
  Neither depends on the parameters, so the memo lives for every update.
- Once per update, the rollouts share a decision cache keyed by (focal trip,
  selected co-riders, candidate ids), which fixes the row block: its rows,
  probabilities, value and sampling cdf are computed on first sight and
  reused, read-only.  A decision met again costs one draw and a bisect.  The
  cache is dropped with the parameters; the greedy decode starts both memos
  empty, so it routes exactly the groups a per-visit `candidate_actions`
  would.

The update is batched and scores each distinct decision once: the recorded
steps are grouped by decision key, and once per update the decisions' row
blocks are stacked SURROGATE_BLOCK decisions at a time, row i giving logit
i; every epoch reuses the packed blocks.  Per block `_score` runs one matmul
and one tanh, the softmax, log-softmax and entropy are `reduceat` segment
reductions per decision, each step reads its decision's by index for its
ratio, clip branch, entropy and value error, and the steps' logit and value
upstreams are summed per decision with `bincount`, so each gradient, the
shared layer's included, is one matmul or sum.  This is the per-step
objective and gradient summed in a different order.
"""

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .baselines import MatchingSolution, canonical_groups, solution_for
from .geo import NoRouteError, read_records
from .shareability import ShareabilityGraph
from .tolerance import ToleranceProfile, rejection_cost

MAX_CAPACITY = 4
WEIGHT_INPUT_SCALE = 1e-3  # meters/seconds -> O(1) inputs
VALUE_LOSS_COEFF = 0.5
SURROGATE_BLOCK = 64  # distinct decisions per packed surrogate block; bounds the update's temporary memory


class InfeasibleActionError(Exception):
    """The requested action is not in the state's candidate set."""


@dataclass(frozen=True, eq=False)
class MatchState:
    """State triple for one focal trip: context vector, graph, selected set.

    `unavailable` carries trips already grouped earlier in the global pass;
    `features` maps every user to their context vector so candidates can be
    scored.
    """

    focal: int
    context: np.ndarray
    graph: ShareabilityGraph
    selected: tuple = ()
    unavailable: frozenset = frozenset()
    features: dict = None
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


def init_policy_params(feature_dim, hidden=64, seed=0) -> PolicyParams:
    """Seeded hidden layer, zeroed heads, so the initial policy is uniform."""
    sizes = {"input": 2 * feature_dim + 2, "hidden": hidden}
    arrays = {name: np.zeros([sizes[dim] for dim in dims]) for name, dims in PolicyParams.ARRAY_DIMS.items()}
    arrays["w_hidden"] = np.random.default_rng(seed).uniform(-0.1, 0.1, size=arrays["w_hidden"].shape)
    return PolicyParams(**arrays)


def initial_state(graph, features, focal, unavailable=frozenset(), capacity=2) -> MatchState:
    if not 2 <= capacity <= MAX_CAPACITY:
        raise ValueError(f"capacity must lie in [2, {MAX_CAPACITY}], got {capacity}")
    user = graph.trips[focal].user_id
    return MatchState(
        focal=focal,
        context=features[user],
        graph=graph,
        selected=(),
        unavailable=frozenset(unavailable),
        features=features,
        capacity=capacity,
    )


def _selectable(state: MatchState, v) -> bool:
    """Select(v) is legal: the group has room, v is an available trip joined
    to the focal trip by an edge and not yet in the group, and the grown group
    routes (a pair routes by its edge)."""
    if len(state.selected) >= state.capacity - 1:
        return False
    if v == state.focal or v in state.selected or v in state.unavailable:
        return False
    if state.graph.edge(state.focal, v) is None:
        return False
    if not state.selected:
        return True
    try:
        state.graph.group_route((state.focal,) + state.selected + (v,))
    except (NoRouteError, ValueError):
        return False
    return True


def candidate_actions(state: MatchState):
    """The trip ids the focal trip may Select next, in ascending order.  Stop
    is always legal and is not listed; it scores as the last logit.  The
    rollout asks the same `_selectable` through its move memo (`_Group`) and
    must offer exactly these."""
    return [v for v in state.graph.neighbors(state.focal) if _selectable(state, v)]


def _decision_rows(state: MatchState, select_ids) -> np.ndarray:
    """One decision's row block, written into one preallocated array: a row
    per candidate (focal context + candidate context + scaled edge weight +
    normalized group size), then the value row (focal context, zeros for the
    candidate and its weight, normalized group size)."""
    width = len(state.context)
    rows = np.empty((len(select_ids) + 1, 2 * width + 2))
    rows[:, :width] = state.context
    for i, v in enumerate(select_ids):
        rows[i, width:-2] = state.features[state.graph.trips[v].user_id]
    rows[:-1, -2] = [state.graph.edge(state.focal, v).weight * WEIGHT_INPUT_SCALE for v in select_ids]
    rows[-1, width:-1] = 0.0
    rows[:, -1] = len(state.selected) / MAX_CAPACITY
    return rows


def _score(params: PolicyParams, rows: np.ndarray, stops):
    """The network's forward pass, over one decision's row block or a packed
    block of them.  `stops` indexes the value rows, one per decision, each at
    its decision's Stop position.

    Returns the hidden layer, the logits (row by row: a candidate row's from
    the logit head, `params.stop_logit` at `stops`) and the values of the
    `stops` rows.
    """
    hidden = rows @ params.w_hidden
    hidden += params.b_hidden
    np.tanh(hidden, out=hidden)
    logits = hidden @ params.w_logit + float(params.b_logit)
    logits[stops] = float(params.stop_logit)
    values = hidden[stops] @ params.w_value + float(params.b_value)
    return hidden, logits, values


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def step(state: MatchState, action, spec: RewardSpec):
    """Apply one action, a trip id to Select or None to Stop.  Stop ends the
    episode with reward 0; Select(v) extends the group and pays its marginal
    savings under the graph's objective (minus the marginal expected-rejection
    penalty when `spec` sets one).  Context and graph carry over unchanged."""
    if action is None:
        return state, 0.0, True
    if not _selectable(state, action):
        raise InfeasibleActionError(f"trip {action} is not selectable from this state")
    prev_group = (state.focal,) + state.selected
    next_group = prev_group + (action,)
    reward = state.graph.group_value(next_group) - state.graph.group_value(prev_group)
    if spec.social_penalty_weight > 0.0:
        reward -= spec.social_penalty_weight * (
            _group_rejection_cost(state.graph, next_group, spec.profile)
            - _group_rejection_cost(state.graph, prev_group, spec.profile)
        )
    return replace(state, selected=state.selected + (action,)), reward, False


def _group_rejection_cost(graph, group, profile) -> float:
    if len(group) == 1:
        return 0.0
    route = graph.group_route(group)
    delays = [max(0.0, route.per_rider_delay[tid]) for tid in sorted(group)]
    return rejection_cost(delays, profile)


@dataclass
class StepRecord:
    """One visit of a decision: everything needed to re-evaluate it during
    updates.  Steps with the same `decision` key share their row block (in a
    rollout, the very arrays) and are scored once per update pass."""

    select_inputs: np.ndarray  # (k, input_dim) in sorted candidate order
    value_input: np.ndarray  # (input_dim,); a rollout's two are views of one row block
    action_index: int  # 0..k-1 = that select; k = stop
    log_prob: float
    reward: float
    value: float
    return_: float = 0.0
    decision: tuple = None  # (focal, selected, candidate ids); None: a decision of its own


@dataclass
class RolloutResult:
    episodes: list  # one list[StepRecord] per focal trip
    groups: tuple  # the partition produced by this pass

    def episode_returns(self, gamma=1.0):
        """Discounted return of each episode (fills every record's return_)."""
        fill_returns(self.episodes, gamma)
        return [episode[0].return_ for episode in self.episodes]


def _run_policy(graph, features, params, spec, capacity, pick, scored, moves) -> RolloutResult:
    """Shared driver: focal trips in ascending id, assigned trips excluded.

    `moves` maps each focal trip to its `_Group` memo; it must only ever see
    one graph, feature map, capacity and reward spec.  `scored` maps a
    decision (focal, selected, candidates) to its read-only `_Decision` under
    `params`; a decision met again reuses its entry, so it must also only ever
    see one set of parameters.  `pick` chooses an action index from an
    entry."""
    assigned = set()
    episodes = []
    groups = []
    for focal in sorted(graph.trips):
        if focal in assigned:
            continue
        group = moves.get(focal)
        if group is None:
            group = moves[focal] = _Group(initial_state(graph, features, focal, capacity=capacity))
        neighbors = graph.neighbors(focal)
        records = []
        while len(group.state.selected) < capacity - 1:
            select_ids = [v for v in neighbors if v not in assigned and group.selectable(v)]
            key = (focal, group.state.selected, tuple(select_ids))
            entry = scored.get(key)
            if entry is None:
                entry = scored[key] = _score_decision(params, group.state, select_ids)
            index = pick(entry)
            log_prob = float(np.log(entry.probs[index]))
            record = StepRecord(entry.select_rows, entry.value_row, index, log_prob, 0.0, entry.value, decision=key)
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
    (`_selectable`) and, once taken, its reward and the grown group (`step`).

    `state` marks no trip unavailable, and the driver asks only about trips
    not yet assigned: for those the answer does not depend on which other
    trips are assigned, so it holds for every visit of the group in a run."""

    __slots__ = ("state", "legal", "grown")

    def __init__(self, state: MatchState):
        self.state = state
        self.legal = {}  # trip id -> bool
        self.grown = {}  # trip id -> (reward, _Group)

    def selectable(self, v) -> bool:
        legal = self.legal.get(v)
        if legal is None:
            legal = self.legal[v] = _selectable(self.state, v)
        return legal

    def select(self, v, spec):
        move = self.grown.get(v)
        if move is None:
            state, reward, _ = step(self.state, v, spec)
            move = self.grown[v] = (reward, _Group(state))
        return move


class _Decision(NamedTuple):
    """One decision scored under one set of parameters, read-only."""

    select_rows: np.ndarray  # views of the decision's row block
    value_row: np.ndarray
    probs: np.ndarray  # the select rows in row order, then Stop
    value: float
    cdf: list  # what `_sample` draws from


def _score_decision(params, state, select_ids) -> _Decision:
    rows = _decision_rows(state, select_ids)
    _, logits, value = _score(params, rows, -1)
    probs = _softmax(logits)
    rows.flags.writeable = False
    probs.flags.writeable = False
    return _Decision(rows[:-1], rows[-1], probs, float(value), _cdf(probs))


def _cdf(probs) -> list:
    """The cumulative distribution `Generator.choice` draws from: the
    cumulative sum divided by its last entry."""
    cdf = probs.cumsum()
    if not np.isfinite(cdf[-1]):
        raise ValueError(f"probabilities contain NaN or inf: {probs}")
    cdf /= cdf[-1]
    return cdf.tolist()


def _sample(cdf, rng) -> int:
    """An index drawn from the distribution with cumulative `cdf` (see
    `_cdf`): the same draw from the same generator state as
    `rng.choice(len(probs), p=probs)`, without its checks and conversions."""
    return bisect_right(cdf, rng.random())


def rollout(graph, features, params, spec, capacity=2, seed=0, scored=None, moves=None) -> RolloutResult:
    """Sampled trajectories over all focal trips; deterministic per seed.

    `scored` and `moves` are the decision cache and the move memo of
    `_run_policy`; leaving either out gives a fresh one.  Rollouts under the
    same parameters (one update's, in `train`) may share a decision cache,
    and rollouts on the same graph, features, capacity and spec (all of a
    `train` run's) may share a move memo; neither changes any record."""
    rng = np.random.default_rng(seed)
    scored = {} if scored is None else scored
    moves = {} if moves is None else moves
    return _run_policy(graph, features, params, spec, capacity, lambda entry: _sample(entry.cdf, rng), scored, moves)


def match_all(graph, features, params, spec, capacity=2) -> MatchingSolution:
    """Greedy decode (argmax action, ties to the lowest trip id) into a full
    matching solution with routed groups."""
    result = _run_policy(
        graph, features, params, spec, capacity, lambda entry: int(np.argmax(entry.probs)), {}, {}
    )
    return solution_for(graph, result.groups)


def surrogate_objective(params: PolicyParams, blocks, cfg: PPOConfig):
    """Mean clipped-surrogate objective with entropy bonus and value penalty,
    plus its exact gradient.  Maximized by ppo_update; finite-difference
    checkable as one scalar function of the parameters.

    `blocks` are the steps packed by `_pack_steps`, so the numpy work runs
    once per block, not once per step, and each distinct decision is scored
    once, not once per step that took it."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    total = sum(_surrogate_block(params, block, cfg, grads) for block in blocks)
    n = sum(len(block.step_decision) for block in blocks)
    return total / n, {name: grad / n for name, grad in grads.items()}


@dataclass(frozen=True)
class _PackedBlock:
    """What the surrogate of a block of decisions needs beyond the
    parameters: the decisions' row blocks stacked, so each decision is one
    segment of the packed logits, its value row giving its Stop logit, and
    per step the decision it took and what it recorded."""

    rows: np.ndarray  # (select rows + decisions, input_dim)
    sizes: np.ndarray  # segment length per decision: its select rows + its value row
    starts: np.ndarray  # first row of each segment
    stops: np.ndarray  # each segment's value row, which gives its Stop logit
    visits: np.ndarray  # steps per decision
    step_decision: np.ndarray  # per step: the index of its decision's segment
    chosen: np.ndarray  # per step: its taken logit
    old_log_prob: np.ndarray
    returns: np.ndarray
    advantage: np.ndarray  # return minus the rollout-time value


def _pack_steps(steps) -> list:
    """The steps grouped by decision key, in order of first appearance, and
    packed SURROGATE_BLOCK decisions to a block."""
    by_decision = {}
    for rec in steps:
        by_decision.setdefault(id(rec) if rec.decision is None else rec.decision, []).append(rec)
    decisions = list(by_decision.values())
    return [
        _pack_block(decisions[start : start + SURROGATE_BLOCK]) for start in range(0, len(decisions), SURROGATE_BLOCK)
    ]


def _pack_block(decisions) -> _PackedBlock:
    """One block from its decisions, each the list of steps that took it;
    a decision's row block is read from its first step."""
    sizes = np.array([steps[0].select_inputs.shape[0] + 1 for steps in decisions])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    visits = np.array([len(steps) for steps in decisions])
    step_decision = np.repeat(np.arange(len(decisions)), visits)
    action_index, old_log_prob, returns, old_value = np.array(
        [(rec.action_index, rec.log_prob, rec.return_, rec.value) for steps in decisions for rec in steps]
    ).T
    return _PackedBlock(
        rows=np.concatenate(
            [rows for steps in decisions for rows in (steps[0].select_inputs, steps[0].value_input[None])]
        ),
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


def _surrogate_block(params: PolicyParams, block: _PackedBlock, cfg: PPOConfig, grads) -> float:
    """Summed surrogate of a packed block of steps; adds its gradient to
    `grads`.  `_score` runs once per block, and the softmax, log-softmax and
    entropy are segment reductions (`reduceat` over the segment starts), one
    per decision; each step reads its decision's by index, and the steps'
    upstream gradients are summed per row and per decision (`bincount`)."""
    sizes, starts, stops, step_decision = block.sizes, block.starts, block.stops, block.step_decision
    hidden, logits, values = _score(params, block.rows, stops)

    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts), sizes)
    log_probs = shifted - np.repeat(np.log(np.add.reduceat(np.exp(shifted), starts)), sizes)
    probs = np.exp(log_probs)
    entropy = -np.add.reduceat(probs * log_probs, starts)
    ratio = np.exp(log_probs[block.chosen] - block.old_log_prob)
    unclipped = ratio * block.advantage
    clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * block.advantage
    value_error = values[step_decision] - block.returns
    total = float(
        np.minimum(unclipped, clipped).sum()
        + cfg.entropy_coeff * (block.visits * entropy).sum()
        - VALUE_LOSS_COEFF * (value_error**2).sum()
    )

    # d(surrogate)/d(logits): flows only while the unclipped branch is active
    gain = np.where(unclipped <= clipped, unclipped, 0.0)
    upstream = np.bincount(block.chosen, weights=gain, minlength=len(logits))
    upstream -= probs * np.repeat(np.bincount(step_decision, weights=gain, minlength=len(sizes)), sizes)
    upstream += np.repeat(cfg.entropy_coeff * block.visits, sizes) * (-probs * (log_probs + np.repeat(entropy, sizes)))
    grads["stop_logit"] += upstream[stops].sum()
    upstream[stops] = 0.0  # a value row feeds the value head, not the logit head
    grads["w_logit"] += hidden.T @ upstream
    grads["b_logit"] += upstream.sum()

    d_value = np.bincount(step_decision, weights=-VALUE_LOSS_COEFF * 2.0 * value_error, minlength=len(sizes))
    grads["w_value"] += hidden[stops].T @ d_value
    grads["b_value"] += d_value.sum()

    # back through both heads into the shared layer, each row through its
    # own head; (1 - h^2) is written over h
    upstream[stops] = d_value
    d_pre = np.subtract(1.0, np.square(hidden, out=hidden), out=hidden)
    d_pre *= upstream[:, None]
    value_pre = d_pre[stops]
    value_pre *= params.w_value
    d_pre *= params.w_logit
    d_pre[stops] = value_pre
    grads["w_hidden"] += block.rows.T @ d_pre
    grads["b_hidden"] += d_pre.sum(axis=0)
    return total


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
    into blocks once and every pass reuses them."""
    steps = fill_returns(episodes, cfg.gamma)
    if not steps:
        raise ValueError("cannot update from empty trajectories")
    params = params.copy()
    blocks = _pack_steps(steps)
    for _ in range(cfg.epochs_per_update):
        _, grads = surrogate_objective(params, blocks, cfg)
        for name, grad in grads.items():
            getattr(params, name)[...] += cfg.learning_rate * grad
    return params


def train(graph, features, spec, capacity=2, cfg=None, n_updates=100, hidden=64):
    """Rollout/update loop; returns the trained parameters and the mean
    episodic reward per update.  The rollouts of one update share one
    decision cache (see `rollout`)."""
    cfg = cfg or PPOConfig()
    feature_dim = len(next(iter(features.values())))
    params = init_policy_params(feature_dim, hidden=hidden, seed=cfg.seed)
    history = []
    moves = {}
    for update in range(n_updates):
        episodes = []
        scored = {}
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
            fields = ["P", name, str(arr.ndim), *map(str, arr.shape), *(f"{v:.17g}" for v in arr.ravel())]
            fh.write(" ".join(fields) + "\n")


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
