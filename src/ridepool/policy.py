"""Sequential co-rider selection as an MDP, trained with clipped-surrogate
policy gradients.

Each focal trip runs an episode over the state (context vector, graph,
selected co-riders): the policy scores every still-available neighbor plus a
Stop action, samples one, and is rewarded with the marginal pooling savings
of the pick under the graph's objective.  An action is the picked trip's id,
or None for Stop.  A two-layer perceptron scores candidates row by row (the
candidate set varies per state), with a learned scalar Stop logit and a value
head sharing the hidden layer.  That network is evaluated in one place,
`_score`, by the rollout, the greedy decode and the update alike; which
Selects are legal is decided in one place, `_selectable`; discounted returns
are formed in one place, `fill_returns`.  Updates use the clipped
probability-ratio surrogate with exact hand-rolled backprop, which keeps the
gradients finite-difference checkable.

Work that does not depend on the parameters being updated is done once per
update.  The rollouts of one update run under the same parameters and share
one decision cache: a decision is keyed by (focal trip, selected co-riders,
candidate ids), which fixes its input rows, so its inputs, probabilities and
value are computed on first sight and reused, read-only, when another rollout
of the update meets it again.  That is exact: a hit returns the very arrays a
miss would have built.  Sampling, the log-probability of the sampled action,
the record and the step still run for every decision.  The cache is dropped
with the parameters at the end of the update; the greedy decode starts from
an empty one.

The update is batched: the recorded steps are packed SURROGATE_BLOCK at a
time into one segmented logit vector each (each step's select rows, then its
Stop), once per update, and every epoch's `surrogate_objective` reuses the
packed blocks.  Per block `_score` runs one matmul and one tanh over all
select rows and one over all value inputs, the softmax, log-softmax and
entropy are `np.maximum.reduceat`/`np.add.reduceat` segment reductions, the
clip is an elementwise mask, and each gradient is a matmul or sum per head.
The fixed block size bounds the temporaries of each surrogate evaluation.
"""

from dataclasses import dataclass, replace

import numpy as np

from .baselines import MatchingSolution, canonical_groups, solution_for
from .geo import NoRouteError, read_records
from .shareability import ShareabilityGraph
from .tolerance import ToleranceProfile, rejection_cost

MAX_CAPACITY = 4
WEIGHT_INPUT_SCALE = 1e-3  # meters/seconds -> O(1) inputs
VALUE_LOSS_COEFF = 0.5
SURROGATE_BLOCK = 64  # steps per packed surrogate block; bounds the update's temporary memory


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

    ARRAY_NAMES = ("w_hidden", "b_hidden", "w_logit", "b_logit", "stop_logit", "w_value", "b_value")

    def arrays(self):
        return {name: getattr(self, name) for name in self.ARRAY_NAMES}

    def copy(self):
        return PolicyParams(**{name: arr.copy() for name, arr in self.arrays().items()})


def init_policy_params(feature_dim, hidden=64, seed=0) -> PolicyParams:
    """Seeded hidden layer, zeroed heads, so the initial policy is uniform."""
    rng = np.random.default_rng(seed)
    input_dim = 2 * feature_dim + 2
    return PolicyParams(
        w_hidden=rng.uniform(-0.1, 0.1, size=(input_dim, hidden)),
        b_hidden=np.zeros(hidden),
        w_logit=np.zeros(hidden),
        b_logit=np.zeros(()),
        stop_logit=np.zeros(()),
        w_value=np.zeros(hidden),
        b_value=np.zeros(()),
    )


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
    is always legal and is not listed; it scores as the last logit."""
    return [v for v in state.graph.neighbors(state.focal) if _selectable(state, v)]


def _select_inputs(state: MatchState, select_ids) -> np.ndarray:
    """One row per candidate: focal context + candidate context + scaled edge
    weight + normalized group size, written into one preallocated block."""
    width = len(state.context)
    inputs = np.empty((len(select_ids), 2 * width + 2))
    inputs[:, :width] = state.context
    for i, v in enumerate(select_ids):
        inputs[i, width:-2] = state.features[state.graph.trips[v].user_id]
    inputs[:, -2] = [state.graph.edge(state.focal, v).weight * WEIGHT_INPUT_SCALE for v in select_ids]
    inputs[:, -1] = len(state.selected) / MAX_CAPACITY
    return inputs


def _value_input(state: MatchState) -> np.ndarray:
    fill = len(state.selected) / MAX_CAPACITY
    return np.concatenate([state.context, np.zeros_like(state.context), [0.0], [fill]])


def _score(params: PolicyParams, select_inputs: np.ndarray, value_inputs: np.ndarray):
    """The network's forward pass, over one decision's rows or a packed block.

    Returns the candidate rows' hidden layer and logits (in row order; the
    Stop logit is `params.stop_logit`, placed by the caller), and the value
    inputs' hidden layer and state values.
    """
    hidden = select_inputs @ params.w_hidden
    hidden += params.b_hidden
    np.tanh(hidden, out=hidden)
    value_hidden = value_inputs @ params.w_hidden
    value_hidden += params.b_hidden
    np.tanh(value_hidden, out=value_hidden)
    select_logits = hidden @ params.w_logit + float(params.b_logit)
    values = value_hidden @ params.w_value + float(params.b_value)
    return hidden, select_logits, value_hidden, values


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
    """Everything needed to re-evaluate one decision during updates."""

    select_inputs: np.ndarray  # (k, input_dim) in sorted candidate order
    value_input: np.ndarray
    action_index: int  # 0..k-1 = that select; k = stop
    log_prob: float
    reward: float
    value: float
    return_: float = 0.0


@dataclass
class RolloutResult:
    episodes: list  # one list[StepRecord] per focal trip
    groups: tuple  # the partition produced by this pass

    def episode_returns(self, gamma=1.0):
        """Discounted return of each episode (fills every record's return_)."""
        fill_returns(self.episodes, gamma)
        return [episode[0].return_ for episode in self.episodes]


def _run_policy(graph, features, params, spec, capacity, pick, scored) -> RolloutResult:
    """Shared driver: focal trips in ascending id, assigned trips excluded.

    `scored` maps a decision (focal, selected, candidates) to its read-only
    (select inputs, value input, probabilities, value) under `params`; a
    decision met again reuses its entry, so it must only ever see one graph,
    feature map and set of parameters."""
    assigned = set()
    episodes = []
    groups = []
    for focal in sorted(graph.trips):
        if focal in assigned:
            continue
        state = initial_state(graph, features, focal, unavailable=frozenset(assigned), capacity=capacity)
        records = []
        while len(state.selected) < capacity - 1:
            select_ids = candidate_actions(state)
            key = (focal, state.selected, tuple(select_ids))
            entry = scored.get(key)
            if entry is None:
                entry = scored[key] = _score_decision(params, state, select_ids)
            inputs, value_input, probs, value = entry
            index = pick(probs)
            record = StepRecord(inputs, value_input, index, float(np.log(probs[index])), 0.0, value)
            records.append(record)
            if index == len(select_ids):
                break
            state, record.reward, _ = step(state, select_ids[index], spec)
        group = tuple(sorted((focal,) + state.selected))
        assigned.update(group)
        groups.append(group)
        episodes.append(records)
    return RolloutResult(episodes=episodes, groups=canonical_groups(groups))


def _score_decision(params, state, select_ids):
    """One decision's read-only inputs, action probabilities (the select rows
    in row order, then Stop) and state value."""
    inputs = _select_inputs(state, select_ids)
    value_input = _value_input(state)
    _, select_logits, _, value = _score(params, inputs, value_input)
    logits = np.empty(len(select_ids) + 1)
    logits[:-1] = select_logits
    logits[-1] = float(params.stop_logit)
    probs = _softmax(logits)
    for arr in (inputs, value_input, probs):
        arr.flags.writeable = False
    return inputs, value_input, probs, float(value)


def _sample(probs, rng) -> int:
    """An index drawn with probability `probs[i]`: the same draw from the same
    generator state as `rng.choice(len(probs), p=probs)`, without its checks
    and conversions."""
    cdf = probs.cumsum()
    if not np.isfinite(cdf[-1]):
        raise ValueError(f"probabilities contain NaN or inf: {probs}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def rollout(graph, features, params, spec, capacity=2, seed=0, scored=None) -> RolloutResult:
    """Sampled trajectories over all focal trips; deterministic per seed.

    `scored` is the decision cache of `_run_policy`; rollouts under the same
    parameters (one update's, in `train`) may share one, and leaving it out
    gives a fresh one.  Sharing changes no record: the cache holds only what
    a decision's key and the parameters determine, and every decision still
    samples, and steps, on its own."""
    rng = np.random.default_rng(seed)
    return _run_policy(
        graph, features, params, spec, capacity, lambda p: _sample(p, rng), {} if scored is None else scored
    )


def match_all(graph, features, params, spec, capacity=2) -> MatchingSolution:
    """Greedy decode (argmax action, ties to the lowest trip id) into a full
    matching solution with routed groups."""
    result = _run_policy(graph, features, params, spec, capacity, lambda p: int(np.argmax(p)), {})
    return solution_for(graph, result.groups)


def surrogate_objective(params: PolicyParams, steps, cfg: PPOConfig, blocks=None):
    """Mean clipped-surrogate objective with entropy bonus and value penalty,
    plus its exact gradient.  Maximized by ppo_update; finite-difference
    checkable as one scalar function of the parameters.

    The steps are packed SURROGATE_BLOCK at a time (see _pack_block), so the
    numpy work runs once per block, not once per step.  `blocks` is
    `_pack_steps(steps)` when the caller has packed them already."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    total = 0.0
    for block in _pack_steps(steps) if blocks is None else blocks:
        total += _surrogate_block(params, block, cfg, grads)
    n = len(steps)
    for name in grads:
        grads[name] /= n
    return total / n, grads


@dataclass(frozen=True)
class _PackedBlock:
    """What the surrogate of a block of steps needs beyond the parameters.

    Each step is one segment of the packed logits: its select rows in row
    order, then Stop.  The select rows of all steps are stacked into one
    matrix and their value inputs into another."""

    select_rows: np.ndarray  # (rows, input_dim)
    value_rows: np.ndarray  # (steps, input_dim)
    sizes: np.ndarray  # segment length per step: its select rows + Stop
    starts: np.ndarray  # first logit of each segment
    stops: np.ndarray  # each segment's Stop logit
    selects: np.ndarray  # mask of the select logits
    chosen: np.ndarray  # each step's taken logit
    one_hot: np.ndarray  # 1.0 at the taken logits
    old_log_prob: np.ndarray
    returns: np.ndarray
    advantage: np.ndarray  # return minus the rollout-time value


def _pack_steps(steps) -> list:
    """The steps as packed blocks of SURROGATE_BLOCK; the fixed block size
    bounds the temporaries of each surrogate evaluation."""
    return [_pack_block(steps[start : start + SURROGATE_BLOCK]) for start in range(0, len(steps), SURROGATE_BLOCK)]


def _pack_block(block) -> _PackedBlock:
    sizes = np.array([rec.select_inputs.shape[0] + 1 for rec in block])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    stops = ends - 1
    selects = np.ones(ends[-1], dtype=bool)
    selects[stops] = False
    action_index, old_log_prob, returns, old_value = np.array(
        [(rec.action_index, rec.log_prob, rec.return_, rec.value) for rec in block]
    ).T
    chosen = starts + action_index.astype(np.intp)
    one_hot = np.zeros(ends[-1])
    one_hot[chosen] = 1.0
    return _PackedBlock(
        select_rows=np.concatenate([rec.select_inputs for rec in block]),
        value_rows=np.array([rec.value_input for rec in block]),
        sizes=sizes,
        starts=starts,
        stops=stops,
        selects=selects,
        chosen=chosen,
        one_hot=one_hot,
        old_log_prob=old_log_prob,
        returns=returns,
        advantage=returns - old_value,
    )


def _surrogate_block(params: PolicyParams, block: _PackedBlock, cfg: PPOConfig, grads) -> float:
    """Summed surrogate of a packed block of steps; adds its gradient to
    `grads`.  `_score` runs once per block, and the softmax, log-softmax and
    entropy are segment reductions (`reduceat` over the segment starts)."""
    sizes, starts, stops, selects = block.sizes, block.starts, block.stops, block.selects
    select_hidden, select_logits, value_hidden, values = _score(params, block.select_rows, block.value_rows)
    logits = np.empty(len(selects))
    logits[selects] = select_logits
    logits[stops] = float(params.stop_logit)

    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts), sizes)
    log_probs = shifted - np.repeat(np.log(np.add.reduceat(np.exp(shifted), starts)), sizes)
    probs = np.exp(log_probs)
    entropy = -np.add.reduceat(probs * log_probs, starts)
    ratio = np.exp(log_probs[block.chosen] - block.old_log_prob)
    unclipped = ratio * block.advantage
    clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * block.advantage
    value_error = values - block.returns
    total = float(
        (np.minimum(unclipped, clipped) + cfg.entropy_coeff * entropy - VALUE_LOSS_COEFF * value_error**2).sum()
    )

    # d(surrogate)/d(logits): flows only while the unclipped branch is active
    gain = np.where(unclipped <= clipped, unclipped, 0.0)
    g_logits = np.repeat(gain, sizes) * (block.one_hot - probs)
    g_logits += cfg.entropy_coeff * (-probs * (log_probs + np.repeat(entropy, sizes)))
    g_select = g_logits[selects]
    grads["stop_logit"] += g_logits[stops].sum()
    grads["w_logit"] += select_hidden.T @ g_select
    grads["b_logit"] += g_select.sum()

    d_value = -VALUE_LOSS_COEFF * 2.0 * value_error
    grads["w_value"] += value_hidden.T @ d_value
    grads["b_value"] += d_value.sum()

    # back through each head into the shared layer; (1 - h^2) is written over h
    for rows, h, upstream, head in (
        (block.select_rows, select_hidden, g_select, params.w_logit),
        (block.value_rows, value_hidden, d_value, params.w_value),
    ):
        d_pre = np.subtract(1.0, np.square(h, out=h), out=h)
        d_pre *= upstream[:, None]
        d_pre *= head
        grads["w_hidden"] += rows.T @ d_pre
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
        _, grads = surrogate_objective(params, steps, cfg, blocks)
        for name, grad in grads.items():
            arr = getattr(params, name)
            arr += cfg.learning_rate * grad
    return params


def train(graph, features, spec, capacity=2, cfg=None, n_updates=100, hidden=64):
    """Rollout/update loop; returns the trained parameters and the mean
    episodic reward per update.

    The rollouts of one update share one decision cache (see `rollout`): they
    all run under that update's parameters, so a decision state met again
    reuses its inputs, probabilities and value.  The cache is dropped when
    the parameters change."""
    cfg = cfg or PPOConfig()
    feature_dim = len(next(iter(features.values())))
    params = init_policy_params(feature_dim, hidden=hidden, seed=cfg.seed)
    history = []
    for update in range(n_updates):
        episodes = []
        scored = {}
        for r in range(cfg.rollouts_per_update):
            result = rollout(graph, features, params, spec, capacity, seed=[cfg.seed, update, r], scored=scored)
            episodes.extend(result.episodes)
        params = ppo_update(params, episodes, cfg)
        history.append(float(np.mean([episode[0].return_ for episode in episodes])))
    return params, history


def write_policy(params: PolicyParams, path):
    """One record per array: `P <name> <ndim> <dims...> <values...>`."""
    with open(path, "w") as fh:
        for name, arr in params.arrays().items():
            dims = " ".join(str(d) for d in arr.shape)
            values = " ".join(f"{v:.17g}" for v in np.asarray(arr).ravel())
            head = f"P {name} {arr.ndim}"
            fh.write(f"{head} {dims} {values}\n" if dims else f"{head} {values}\n")


def read_policy(path) -> PolicyParams:
    arrays = {}

    def parse(fields):
        _, name, ndim, *rest = fields
        if name not in PolicyParams.ARRAY_NAMES:
            raise ValueError(f"unknown array {name!r}")
        if name in arrays:
            raise ValueError(f"a second record for array {name!r}")
        ndim = int(ndim)
        values = np.array([float(v) for v in rest[ndim:]], dtype=np.float64)
        arrays[name] = values.reshape(tuple(int(v) for v in rest[:ndim]))

    read_records(path, "policy", {"P": None}, parse)
    missing = [name for name in PolicyParams.ARRAY_NAMES if name not in arrays]
    if missing:
        raise ValueError(f"{path}: checkpoint is missing arrays {missing}")
    return PolicyParams(**arrays)
