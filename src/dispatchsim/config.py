"""Flat key=value experiment configuration.

Lines are `key=value`; `#` starts a comment; unknown keys are rejected.
Every knob has a desk-scale default so a minimal file (`seed=1`) runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from .agent import AgentConfig
from .demand import GaussianCluster, StochasticConfig
from .geometry import BoundingBox, Coordinate

SCENARIO_RATIOS = {
    "very_easy": 0.03,
    "easy": 0.02,
    "medium": 0.01,
    "hard": 0.005,
}

VALID_POLICIES = ("fifo", "lifo", "nn", "random", "dqn")

# the comma-separated keys of names: (key, what a name is, the known names)
_NAME_LISTS = (
    ("policies", "policy", VALID_POLICIES),
    ("scenarios", "scenario", SCENARIO_RATIOS),
)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str

    @property
    def fleet_ratio(self) -> float:
        return SCENARIO_RATIOS[self.name]

    def fleet_size(self, daily_calls: int) -> int:
        return max(1, round(self.fleet_ratio * daily_calls))


_BOX = BoundingBox()  # a NamedTuple's class attributes are its field getters

# key -> (type, default); the defaults of the agent, stochastic and box keys
# are those of their classes
_SCHEMA = {
    "seed": (int, 1),
    "daily_calls": (int, 2000),  # evaluation-day cap
    "train_daily_calls": (int, 1000),
    "train_days": (int, 4),
    "train_reps": (int, 1),
    "eval_days": (int, 5),
    "eval_seeds": (int, 1),
    "demand_mode": (str, "synthetic"),
    "records_path": (str, ""),
    "synthetic_base_rate": (float, 0.0),  # 0 -> derived from the daily cap
    "spatial_mode": (str, "uniform"),
    "clusters": (str, ""),  # "x,y,sigma,weight;..."
    "tolerance_shape": (float, StochasticConfig.tolerance_shape),
    "tolerance_scale": (float, StochasticConfig.tolerance_scale),
    "reject_alpha": (float, StochasticConfig.reject_alpha),
    "reject_beta": (float, StochasticConfig.reject_beta),
    "gamma": (float, AgentConfig.gamma),
    "reward_bonus": (float, AgentConfig.reward_bonus),
    "epsilon_max": (float, AgentConfig.epsilon_max),
    "epsilon_min": (float, AgentConfig.epsilon_min),
    "epsilon_factor": (float, AgentConfig.epsilon_factor),
    "learning_starts": (int, AgentConfig.learning_starts),
    "update_steps": (int, AgentConfig.update_steps),
    "batch_size": (int, AgentConfig.batch_size),
    "learning_rate": (float, AgentConfig.learning_rate),
    "buffer_capacity": (int, AgentConfig.buffer_capacity),
    "speed": (float, 0.05),  # box units per minute
    "box_x_min": (float, _BOX.x_min),
    "box_x_max": (float, _BOX.x_max),
    "box_y_min": (float, _BOX.y_min),
    "box_y_max": (float, _BOX.y_max),
    "week_origin_offset": (float, 0.0),
    "policies": (str, "fifo,lifo,nn,random,dqn"),
    "scenarios": (str, "very_easy,easy,medium,hard"),
    "out_dir": (str, "out"),
    "event_trace": (int, 0),
    "max_events_per_day": (int, 10_000_000),
}

_RANGES = {
    "seed": lambda v: 0 <= v < 2**32,  # `substream` keeps a seed's low 32 bits
    "gamma": lambda v: 0.0 < v < 1.0,
    "epsilon_max": lambda v: 0.0 <= v <= 1.0,
    "epsilon_min": lambda v: 0.0 <= v <= 1.0,
    "epsilon_factor": lambda v: 0.0 < v <= 1.0,
    "speed": lambda v: v > 0.0,
    "tolerance_shape": lambda v: v > 0.0,
    "tolerance_scale": lambda v: v > 0.0,
    "reject_alpha": lambda v: v > 0.0,
    "reject_beta": lambda v: v > 0.0,
    "daily_calls": lambda v: v >= 1,
    "train_daily_calls": lambda v: v >= 1,
    "train_days": lambda v: v >= 1,
    "train_reps": lambda v: v >= 1,
    "eval_days": lambda v: v >= 1,
    "eval_seeds": lambda v: v >= 1,
    "learning_starts": lambda v: v >= 1,
    "update_steps": lambda v: v >= 1,
    "batch_size": lambda v: v >= 1,
    "learning_rate": lambda v: v > 0.0,
    "buffer_capacity": lambda v: v >= 1,
    "synthetic_base_rate": lambda v: v >= 0.0,
    "max_events_per_day": lambda v: v >= 1,
    "event_trace": lambda v: v in (0, 1),
}


@dataclass
class ExperimentConfig:
    values: Dict[str, object]

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    # -- typed views --------------------------------------------------------

    @property
    def box(self) -> BoundingBox:
        v = self.values
        return BoundingBox(v["box_x_min"], v["box_x_max"], v["box_y_min"], v["box_y_max"])

    @property
    def stochastic(self) -> StochasticConfig:
        v = self.values
        return StochasticConfig(
            v["tolerance_shape"], v["tolerance_scale"], v["reject_alpha"], v["reject_beta"]
        )

    @property
    def agent(self) -> AgentConfig:
        v = self.values
        return AgentConfig(
            gamma=v["gamma"],
            reward_bonus=v["reward_bonus"],
            epsilon_max=v["epsilon_max"],
            epsilon_min=v["epsilon_min"],
            epsilon_factor=v["epsilon_factor"],
            learning_starts=v["learning_starts"],
            update_steps=v["update_steps"],
            batch_size=v["batch_size"],
            learning_rate=v["learning_rate"],
            buffer_capacity=v["buffer_capacity"],
        )

    @property
    def policy_list(self) -> List[str]:
        return [p.strip() for p in self.values["policies"].split(",") if p.strip()]

    @property
    def scenario_list(self) -> List[Scenario]:
        return [
            Scenario(s.strip())
            for s in self.values["scenarios"].split(",")
            if s.strip()
        ]

    @property
    def cluster_list(self) -> List[GaussianCluster]:
        return _parse_clusters(self.values["clusters"])


def _parse_clusters(spec: str) -> List[GaussianCluster]:
    """The `clusters` value, `x,y,sigma,weight;...`, as clusters; blank is none."""
    spec = spec.strip()
    if not spec:
        return []
    clusters = []
    for part in spec.split(";"):
        try:
            x, y, sigma, weight = (float(t) for t in part.split(","))
        except ValueError:
            raise ConfigError(
                f"key 'clusters': part {part!r} must be four numbers x,y,sigma,weight"
            ) from None
        clusters.append(GaussianCluster(Coordinate(x, y), sigma, weight))
    return clusters


def parse_lines(lines, source: str = "<config>") -> ExperimentConfig:
    values = {k: default for k, (_, default) in _SCHEMA.items()}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        typ = _SCHEMA[key][0]
        try:
            values[key] = typ(value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} expects {typ.__name__}, got {value!r}"
            ) from None
        # the defaults are finite, so only the lines present need this check
        if typ is float and not math.isfinite(values[key]):
            raise ConfigError(f"{source}:{lineno}: key {key!r} must be finite, got {value!r}")
    _validate(values)
    return ExperimentConfig(values)


def _validate(values: Dict[str, object]) -> None:
    for key, check in _RANGES.items():
        if not check(values[key]):
            raise ConfigError(f"key {key!r}: value {values[key]!r} out of range")
    if values["epsilon_min"] > values["epsilon_max"]:
        raise ConfigError("epsilon_min must not exceed epsilon_max")
    if values["learning_starts"] > values["buffer_capacity"]:
        raise ConfigError("learning_starts must not exceed buffer_capacity, "
                          "or no gradient step is ever taken")
    if values["demand_mode"] not in ("synthetic", "records"):
        raise ConfigError(f"demand_mode must be synthetic|records, got {values['demand_mode']!r}")
    if values["spatial_mode"] not in ("uniform", "clusters"):
        raise ConfigError(f"spatial_mode must be uniform|clusters, got {values['spatial_mode']!r}")
    clusters = _parse_clusters(values["clusters"])
    if values["spatial_mode"] == "clusters" and not clusters:
        raise ConfigError("spatial_mode=clusters needs at least one cluster in key 'clusters'")
    if not values["box_x_min"] < values["box_x_max"] or not values["box_y_min"] < values["box_y_max"]:
        raise ConfigError("bounding box is degenerate")
    for key, noun, known in _NAME_LISTS:
        names = set()
        for name in values[key].split(","):
            name = name.strip()
            if name in names:  # its days would be run and counted twice
                raise ConfigError(f"{noun} {name!r} is listed twice in key {key!r}")
            if name in known:
                names.add(name)
            elif name:
                raise ConfigError(f"unknown {noun} {name!r}")
        if not names:
            raise ConfigError(f"key {key!r} is empty")


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lines(fh, source=str(path))


def serialize(cfg: ExperimentConfig) -> str:
    lines = [f"{key}={cfg.values[key]}" for key in _SCHEMA]
    return "\n".join(lines) + "\n"
