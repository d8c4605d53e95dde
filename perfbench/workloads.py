"""The benchmark's workloads: one ridepool config per workload and seed.

The program receives only the config file written from these templates; the
benchmark seed lands in ``[run] seed``, which drives demand generation, the
embedding initializer and PPO sampling.  Demand is spread over many hotspots
so that the amount of work (edges, cells, candidate groups) varies little
from seed to seed; the per-workload comments say what each one stresses.
"""

from dataclasses import dataclass

PIPELINE_STAGES = ("gen", "graph", "embed", "train", "match", "evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple
    config: str  # ini template; {seed} is filled in per run
    # spans whose union, as a share of traced wall time, says the workload
    # stresses what it was built for
    purpose_spans: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # Cold file-driven pipeline: every stage reloads network, trips and
        # graph from disk, re-snapping trips and re-routing edges.
        Workload(
            name="file-pipeline",
            why="file-driven gen..evaluate at 300 trips: reload re-snapping and re-routing, the pair gate and a big Laplacian dominate",
            stages=PIPELINE_STAGES,
            config="""\
[network]
rows = 20
cols = 20

[demand]
n_trips = 300
n_users = 300
hotspots = 400
hotspot_spread_m = 300
departure_window_s = 3600

[run]
objective = distance
capacity = 2
seed = {seed}
train_updates = 1

[ppo]
rollouts_per_update = 2
epochs_per_update = 1

[embedding]
cell_size_deg = 0.002

[tolerance]
enabled = true
tau0_s = 3600
""",
            purpose_spans=("geo.snap_to_node", "shareability.read_trips", "shareability.read_graph"),
        ),
        # Small graph, long default PPO training: rollouts and the surrogate
        # gradient dominate; geo, graph and embedding work is negligible.
        Workload(
            name="train-heavy",
            why="150 trips, 8 default PPO updates: rollouts and the surrogate gradient dominate; geo, graph and embedding work is small",
            stages=PIPELINE_STAGES,
            config="""\
[network]
rows = 10
cols = 10

[demand]
n_trips = 150
n_users = 100
hotspots = 100
hotspot_spread_m = 800
departure_window_s = 3600

[run]
objective = distance
capacity = 2
seed = {seed}
train_updates = 8
""",
            purpose_spans=("policy.train", "policy.match_all"),
        ),
        # Two-hub shuttle corridor: every endpoint sits at one of two hub
        # nodes, so same-direction trips form two cliques that split the
        # demand about evenly.  With no training update the policy's logits
        # are all equal and the greedy decode fills every group to capacity
        # 4 deterministically, so the number of 3- and 4-rider groups routed
        # barely moves with the seed (one update already makes the decode
        # flip between "pool everyone" and "pool no one" from seed to seed).
        Workload(
            name="group-c4",
            why="28 trips on a two-hub corridor at capacity 4, untrained policy: stop-order enumeration for 3- and 4-rider groups dominates; capacity 2 never runs it",
            stages=PIPELINE_STAGES,
            config="""\
[network]
rows = 10
cols = 10

[demand]
n_trips = 28
n_users = 28
hotspots = 2
hotspot_spread_m = 10
departure_window_s = 300

[run]
objective = distance
capacity = 4
seed = {seed}
train_updates = 0
""",
            purpose_spans=("shareability.route_for_group.k4",),
        ),
        # In-memory sweep: shared network, one graph per objective, warm
        # caches, no file reloads; the only workload that runs tolerance
        # filtering and the indicators at volume.
        Workload(
            name="sweep",
            why="in-memory sensitivity sweep, 80 trips, 3 s x 3 objectives x 4 runs: warm caches, no reloads; tolerance and metrics at volume",
            stages=("sweep",),
            config="""\
[network]
rows = 10
cols = 10

[demand]
n_trips = 80
n_users = 60
hotspots = 100
hotspot_spread_m = 800
departure_window_s = 3600

[run]
objective = distance
capacity = 2
seed = {seed}
train_updates = 2

[tolerance]
tau0_s = 3600

[sweep]
s_values = 0, 0.5, 1
objectives = distance, time, vehicle
runs_per_cell = 4
""",
            purpose_spans=("shareability.build", "policy.train", "policy.match_all"),
        ),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    return workload.config.format(seed=seed)
