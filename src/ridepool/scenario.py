"""Seeded synthetic scenarios and the key=value config file behind the CLI.

Demand is a hotspot mixture: a few seeded hotspot nodes attract origins and
destinations with normal jitter around them.  One seed drives the whole run;
the embedding and policy seeds are derived from it so a config file fully
determines every artifact.
"""

import configparser
import io
import math

from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .embedding import EmbeddingConfig
from .geo import GeoPoint, build_grid_network, grid_steps
from .metrics import CostFactors
from .policy import PPOConfig
from .shareability import Objective, PairingConstraints, TripDraw, TripRequest, solo_routes
from .tolerance import ToleranceProfile, format_s


class ConfigError(ValueError):
    """A scenario config failed validation; the message names the field."""


@dataclass(frozen=True)
class NetworkConfig:
    rows: int = 10
    cols: int = 10
    spacing_m: float = 500.0
    speed_mps: float = 10.0
    anchor_lat: float = 0.0
    anchor_lon: float = 0.0


@dataclass(frozen=True)
class DemandConfig:
    n_trips: int = 50
    n_users: int = 30
    hotspots: int = 4
    hotspot_spread_m: float = 800.0
    departure_window_s: float = 3600.0


@dataclass(frozen=True)
class ScenarioConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    demand: DemandConfig = field(default_factory=DemandConfig)
    constraints: PairingConstraints = field(default_factory=PairingConstraints)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    tolerance: ToleranceProfile = field(default_factory=ToleranceProfile)
    factors: CostFactors = field(default_factory=CostFactors)
    objective: Objective = Objective.DISTANCE
    capacity: int = 2
    seed: int = 0
    train_updates: int = 50
    policy_hidden: int = 64
    grid_cell_deg: float = 0.02
    tolerance_enabled: bool = False
    social_penalty_weight: float = 0.0
    sweep_s_values: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    sweep_objectives: tuple = (Objective.DISTANCE, Objective.TIME, Objective.VEHICLE)
    sweep_runs_per_cell: int = 3

    def active_tolerance(self) -> ToleranceProfile:
        return self.tolerance if self.tolerance_enabled else ToleranceProfile.off()


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    net, dem = cfg.network, cfg.demand
    if net.rows < 1 or net.cols < 1:
        raise ConfigError(f"network.rows/cols must be >= 1, got {net.rows}x{net.cols}")
    if net.spacing_m <= 0.0:
        raise ConfigError(f"network.spacing_m must be positive, got {net.spacing_m}")
    if net.speed_mps <= 0.0:
        raise ConfigError(f"network.speed_mps must be positive, got {net.speed_mps}")
    dlat, dlon = grid_steps(net.spacing_m, net.anchor_lat)
    if not -90.0 <= net.anchor_lat <= net.anchor_lat + (net.rows - 1) * dlat <= 90.0:
        raise ConfigError(f"network.anchor_lat = {net.anchor_lat}: the grid's {net.rows} rows leave [-90, 90]")
    if not -180.0 <= net.anchor_lon <= net.anchor_lon + (net.cols - 1) * dlon <= 180.0:
        raise ConfigError(f"network.anchor_lon = {net.anchor_lon}: the grid's {net.cols} columns leave [-180, 180]")
    if dem.n_trips < 1:
        raise ConfigError(f"demand.n_trips must be >= 1, got {dem.n_trips}")
    if dem.n_users < 1:
        raise ConfigError(f"demand.n_users must be >= 1, got {dem.n_users}")
    if net.rows * net.cols < 2:
        raise ConfigError(f"network.rows x cols must give the trips 2 nodes or more, got {net.rows}x{net.cols}")
    if not 1 <= dem.hotspots <= net.rows * net.cols:
        raise ConfigError(f"demand.hotspots must lie in [1, {net.rows * net.cols}], got {dem.hotspots}")
    if dem.hotspot_spread_m < 0.0:
        raise ConfigError(f"demand.hotspot_spread_m must be >= 0, got {dem.hotspot_spread_m}")
    if dem.departure_window_s < 0.0:
        raise ConfigError(f"demand.departure_window_s must be >= 0, got {dem.departure_window_s}")
    if not 2 <= cfg.capacity <= 4:
        raise ConfigError(f"run.capacity must lie in [2, 4], got {cfg.capacity}")
    if cfg.seed < 0:
        raise ConfigError(f"run.seed must be >= 0, got {cfg.seed}")
    if cfg.train_updates < 0:
        raise ConfigError(f"run.train_updates must be >= 0, got {cfg.train_updates}")
    if cfg.policy_hidden < 1:
        raise ConfigError(f"ppo.hidden must be >= 1, got {cfg.policy_hidden}")
    if cfg.grid_cell_deg <= 0.0:
        raise ConfigError(f"embedding.cell_size_deg must be positive, got {cfg.grid_cell_deg}")
    if cfg.social_penalty_weight < 0.0:
        raise ConfigError(f"tolerance.social_penalty_weight must be >= 0, got {cfg.social_penalty_weight}")
    if cfg.sweep_runs_per_cell < 1:
        raise ConfigError(f"sweep.runs_per_cell must be >= 1, got {cfg.sweep_runs_per_cell}")
    if any(not 0.0 <= s <= 1.0 for s in cfg.sweep_s_values):
        raise ConfigError(f"sweep.s_values must lie in [0, 1], got {cfg.sweep_s_values}")
    return cfg


def draw_demand(cfg: ScenarioConfig):
    """Build the grid network and draw the seeded demand on it, snapping each
    drawn point once and routing nothing.

    Draw order per trip: user id, origin hotspot + jitter, then destination
    hotspot + jitter redrawn until it snaps to a different node (bounded
    retries), then the departure time.
    """
    validate_config(cfg)
    net_cfg = cfg.network
    anchor = GeoPoint(net_cfg.anchor_lat, net_cfg.anchor_lon)
    net = build_grid_network(net_cfg.rows, net_cfg.cols, net_cfg.spacing_m, net_cfg.speed_mps, anchor)
    dem = cfg.demand
    rng = np.random.default_rng(cfg.seed)
    node_ids = np.array(sorted(net.nodes))
    hotspot_ids = rng.choice(node_ids, size=dem.hotspots, replace=False)
    lat_per_m, lon_per_m = grid_steps(1.0, anchor.lat)

    def draw_point():
        hotspot = net.nodes[int(hotspot_ids[int(rng.integers(dem.hotspots))])]
        jitter_lat, jitter_lon = rng.normal(0.0, dem.hotspot_spread_m, size=2)
        lat = min(max(hotspot.lat + jitter_lat * lat_per_m, -90.0), 90.0)
        lon = min(max(hotspot.lon + jitter_lon * lon_per_m, -180.0), 180.0)
        return GeoPoint(lat, lon)

    draws = []
    for trip_id in range(dem.n_trips):
        user_id = int(rng.integers(dem.n_users))
        origin_point = draw_point()
        origin = net.snap_to_node(origin_point)
        for _ in range(100):
            dest_point = draw_point()
            dest = net.snap_to_node(dest_point)
            if dest != origin:
                break
        else:
            raise ConfigError(
                "demand generation cannot find a destination distinct from the origin; "
                "add hotspots or spread"
            )
        departure = float(rng.uniform(0.0, dem.departure_window_s))
        draws.append(TripDraw(trip_id, user_id, origin, dest, origin_point, dest_point, departure))
    return net, draws


def generate_scenario(cfg: ScenarioConfig):
    """The grid network and the `draw_demand` trips, each with its solo route
    (a grid is connected, so every trip has one)."""
    net, draws = draw_demand(cfg)
    return net, [TripRequest(*d, solo_route=r) for d, r in zip(draws, solo_routes(net, draws))]


def _parse_bool(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        spellings = "/".join(configparser.ConfigParser.BOOLEAN_STATES)
        raise ValueError(f"expected a boolean ({spellings}), got {raw!r}") from None


def _split(raw):
    return raw.replace(",", " ").split()


def _parse_finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_limit(raw):
    """A number, or `inf` for no limit."""
    value = float(raw)
    if math.isnan(value) or value == -math.inf:
        raise ValueError(f"expected a number or inf (no limit), got {raw!r}")
    return value


# (parse, format) pairs; parse raises ValueError on a malformed value.
_INT = (int, str)
_FLOAT = (_parse_finite, repr)
_LIMIT = (_parse_limit, repr)
_STR = (str, str)
_BOOL = (_parse_bool, lambda v: str(v).lower())
_OBJECTIVE = (Objective.from_string, lambda o: o.value)
_S_VALUES = (
    lambda raw: tuple(_parse_finite(v) for v in _split(raw)),
    lambda values: ", ".join(format_s(s) for s in values),
)
_OBJECTIVES = (
    lambda raw: tuple(Objective.from_string(v) for v in _split(raw)),
    lambda objectives: ", ".join(o.value for o in objectives),
)

# Every config key once: (section, key, ScenarioConfig field path, codec), in
# manifest order.  embedding.init_seed and ppo.seed have no key; they follow
# run.seed (see with_overrides).
_SCHEMA = (
    ("network", "rows", "network.rows", _INT),
    ("network", "cols", "network.cols", _INT),
    ("network", "spacing_m", "network.spacing_m", _FLOAT),
    ("network", "speed_mps", "network.speed_mps", _FLOAT),
    ("network", "anchor_lat", "network.anchor_lat", _FLOAT),
    ("network", "anchor_lon", "network.anchor_lon", _FLOAT),
    ("demand", "n_trips", "demand.n_trips", _INT),
    ("demand", "n_users", "demand.n_users", _INT),
    ("demand", "hotspots", "demand.hotspots", _INT),
    ("demand", "hotspot_spread_m", "demand.hotspot_spread_m", _FLOAT),
    ("demand", "departure_window_s", "demand.departure_window_s", _FLOAT),
    ("constraints", "radius_m", "constraints.radius_m", _LIMIT),
    ("constraints", "max_departure_gap_s", "constraints.max_departure_gap_s", _LIMIT),
    ("run", "objective", "objective", _OBJECTIVE),
    ("run", "capacity", "capacity", _INT),
    ("run", "seed", "seed", _INT),
    ("run", "train_updates", "train_updates", _INT),
    ("embedding", "dim", "embedding.dim", _INT),
    ("embedding", "layers", "embedding.layers", _INT),
    ("embedding", "activation", "embedding.activation", _STR),
    ("embedding", "init_scale", "embedding.init_scale", _FLOAT),
    ("embedding", "cell_size_deg", "grid_cell_deg", _FLOAT),
    ("ppo", "clip_epsilon", "ppo.clip_epsilon", _FLOAT),
    ("ppo", "learning_rate", "ppo.learning_rate", _FLOAT),
    ("ppo", "gamma", "ppo.gamma", _FLOAT),
    ("ppo", "epochs_per_update", "ppo.epochs_per_update", _INT),
    ("ppo", "rollouts_per_update", "ppo.rollouts_per_update", _INT),
    ("ppo", "entropy_coeff", "ppo.entropy_coeff", _FLOAT),
    ("ppo", "hidden", "policy_hidden", _INT),
    ("tolerance", "enabled", "tolerance_enabled", _BOOL),
    ("tolerance", "tau0_s", "tolerance.tau0", _LIMIT),
    ("tolerance", "kappa", "tolerance.kappa", _FLOAT),
    ("tolerance", "s", "tolerance.s", _FLOAT),
    ("tolerance", "social_penalty_weight", "social_penalty_weight", _FLOAT),
    ("factors", "emission_g_per_km", "factors.emission_g_per_km", _FLOAT),
    ("factors", "fuel_l_per_km", "factors.fuel_l_per_km", _FLOAT),
    ("factors", "fare_per_km", "factors.fare_per_km", _FLOAT),
    ("sweep", "s_values", "sweep_s_values", _S_VALUES),
    ("sweep", "objectives", "sweep_objectives", _OBJECTIVES),
    ("sweep", "runs_per_cell", "sweep_runs_per_cell", _INT),
)
_ROWS = {(section, key): (path, parse) for section, key, path, (parse, _) in _SCHEMA}
_SECTIONS = {section for section, *_ in _SCHEMA}


def _syntax_error(exc: configparser.Error, source) -> ConfigError:
    """`<source>:<line>: <reason>` for an error configparser raised while reading."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        lineno, reason = exc.lineno, f"no [section] header before {exc.line.strip()!r}"
    elif isinstance(exc, configparser.DuplicateOptionError):
        lineno, reason = exc.lineno, f"duplicate key {exc.section}.{exc.option}"
    elif isinstance(exc, configparser.DuplicateSectionError):
        lineno, reason = exc.lineno, f"duplicate section [{exc.section}]"
    elif isinstance(exc, configparser.ParsingError):
        lineno, line = exc.errors[0]
        reason = f"cannot parse line {line}"
    else:
        lineno, reason = "?", exc.message
    return ConfigError(f"{source}:{lineno}: {reason}")


def load_config(path=None, text=None) -> ScenarioConfig:
    """Parse the key=value section file; unknown sections or keys are errors.

    Absent keys keep their dataclass defaults.  A file configparser cannot
    read is a ConfigError naming the file and line.
    """
    parser = configparser.ConfigParser()
    source = "<string>" if text is not None else str(path)
    try:
        if text is not None:
            parser.read_string(text, source)
        else:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh, source)
    except configparser.Error as exc:
        raise _syntax_error(exc, source) from exc
    top, nested = {}, {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if (section, key) not in _ROWS:
                raise ConfigError(f"unknown config key {section}.{key}")
            field_path, parse = _ROWS[section, key]
            try:
                value = parse(parser.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            attr, _, sub = field_path.partition(".")
            if sub:
                nested.setdefault(attr, {})[sub] = value
            else:
                top[attr] = value
    cfg = ScenarioConfig()
    for attr, values in nested.items():
        try:
            top[attr] = replace(getattr(cfg, attr), **values)
        except ValueError as exc:
            raise ConfigError(f"{attr}: {exc}") from exc
    cfg = replace(cfg, **top)
    return with_overrides(cfg, seed=cfg.seed)


def config_to_ini(cfg: ScenarioConfig) -> str:
    """Canonical config echo (all values explicit) for the run manifest."""
    sections = {}
    for section, key, field_path, (_, fmt) in _SCHEMA:
        sections.setdefault(section, {})[key] = fmt(attrgetter(field_path)(cfg))
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def with_overrides(cfg: ScenarioConfig, seed=None, objective=None) -> ScenarioConfig:
    """Apply CLI-level overrides; the run seed also reseeds embedding and PPO."""
    if seed is not None:
        cfg = replace(
            cfg,
            seed=seed,
            embedding=replace(cfg.embedding, init_seed=seed),
            ppo=replace(cfg.ppo, seed=seed),
        )
    if objective is not None:
        cfg = replace(cfg, objective=Objective.from_string(objective))
    return validate_config(cfg)
