"""Experiment configuration: YAML layout, validation, and run expansion.

A config file describes one comparison study: an environment, a
communication graph + channel, a protocol choice, and a list of algorithms
to run over a list of seeds.  `expand_runs` turns it into the concrete
(algorithm, seed) grid the CLI executes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigurationError, _as_int, _as_positive, _as_real
from .learner import ALGORITHMS, make_driver
from .topology import GraphSchedule
from .transport import ChannelModel

# Config files may use these historical aliases for the protocol names.
PROTOCOL_ALIASES = {"alg1": "general", "alg2": "acyclic"}
# Graph kind -> constructor; only a custom graph takes the edge list.
GRAPH_KINDS = {"line": GraphSchedule.line, "ring": GraphSchedule.ring,
               "star": GraphSchedule.star, "complete": GraphSchedule.complete,
               "custom": GraphSchedule.static}
# Where each ExperimentConfig field lives in a config file, in file order.
# env.kind holds no field: it names the one environment there is.
_LAYOUT = {
    "name": "name",
    "env": {"kind": None, "n_agents": "n_agents", "gamma": "gamma"},
    "graph": {"kind": "graph_kind", "edges": "graph_edges"},
    "channel": "channel",
    "protocol": "protocol",
    "algorithms": "algorithms",
    "actor": {"step": "actor_step", "hidden": "actor_hidden"},
    "critic": {"step": "critic_step", "hidden": "critic_hidden",
               "epochs": "critic_epochs", "target_refresh": "target_refresh"},
    "leaky_slope": "leaky_slope", "episodes": "episodes", "steps": "steps",
    "theta_box": "theta_box", "seeds": "seeds", "out_dir": "out_dir",
}
_ENV_KIND = "coupled"


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string, got {value!r}")
    return value


def _as_tuple(value, where: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{where} must be a list, got {value!r}")
    return tuple(value)


def _int_tuple(value, where: str) -> tuple[int, ...]:
    return tuple(_as_int(v, where) for v in _as_tuple(value, where))


def _edges(value, where: str) -> tuple[tuple[int, ...], ...]:
    # The graph constructor checks that each edge is a pair.
    return tuple(_int_tuple(e, "graph edge") for e in _as_tuple(value, where))


@dataclass(frozen=True)
class AlgorithmChoice:
    """One algorithm to run; k is meaningful only for khop_sac."""

    kind: str
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", _as_int(self.k, "k"))
        if self.kind not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.kind!r}")
        if self.k < 0:
            raise ConfigurationError("k must be >= 0")
        if self.k != 0 and self.kind != "khop_sac":
            raise ConfigurationError(
                f"k={self.k} is set on {self.kind!r}; only khop_sac takes k")

    @property
    def label(self) -> str:
        return f"khop_sac_k{self.k}" if self.kind == "khop_sac" else self.kind


@dataclass(frozen=True)
class ExperimentConfig:
    """One comparison study, and the only description of an experiment:
    `learner.run_experiment(cfg, runs)` trains a list of cells of its
    (algorithm, seed) grid as one loop.  Every setting is checked when the
    config is built; it is valid when `learner.make_driver` can build the
    dac_td driver of its protocol and every grid cell's driver.  Each run
    replaces the channel's seed field with a stream spawned from the run
    seed."""

    name: str = "experiment"
    n_agents: int = 5
    gamma: float = 0.9
    graph_kind: str = "line"
    graph_edges: tuple[tuple[int, int], ...] = ()
    channel: ChannelModel = field(default_factory=ChannelModel)
    protocol: str = "general"
    algorithms: tuple[AlgorithmChoice, ...] = (AlgorithmChoice("dac_td"),)
    actor_step: float = 0.01
    critic_step: float = 0.1
    actor_hidden: tuple[int, ...] = (10, 10)
    critic_hidden: tuple[int, ...] = (5, 5)
    leaky_slope: float = 0.3
    critic_epochs: int = 25
    target_refresh: int = 5
    episodes: int = 1000
    steps: int = 100
    theta_box: float = 10.0
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "results"

    def __post_init__(self):
        for names, check in (
                (("name", "graph_kind", "protocol", "out_dir"), _as_str),
                (("n_agents", "critic_epochs", "target_refresh", "episodes",
                  "steps"), _as_int),
                (("gamma", "leaky_slope"), _as_real),
                (("actor_step", "critic_step", "theta_box"), _as_positive),
                (("actor_hidden", "critic_hidden", "seeds"), _int_tuple),
                (("graph_edges",), _edges), (("algorithms",), _as_tuple)):
            for name in names:
                object.__setattr__(self, name, check(getattr(self, name), name))
        if self.graph_kind not in GRAPH_KINDS:
            raise ConfigurationError(f"unknown graph kind {self.graph_kind!r}")
        if self.graph_kind == "custom" and not self.graph_edges:
            raise ConfigurationError("custom graph needs an edge list")
        if self.graph_kind != "custom" and self.graph_edges:
            raise ConfigurationError(
                f"edges are set on a {self.graph_kind!r} graph; only a custom "
                "graph takes edges")
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("duplicate seeds in seed list")
        if min(self.seeds) < 0:
            raise ConfigurationError("seeds must be >= 0")
        if not self.algorithms:
            raise ConfigurationError("at least one algorithm is required")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigurationError("duplicate algorithms in algorithm list")
        for name in ("n_agents", "episodes", "steps", "critic_epochs",
                     "target_refresh"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if not math.isfinite(self.leaky_slope):
            raise ConfigurationError("leaky_slope must be finite")
        if min(self.actor_hidden + self.critic_hidden, default=1) < 1:
            raise ConfigurationError("hidden layer widths must be >= 1")
        try:
            g = self.build_graph()  # the graph constructor checks the edges
        except ValueError as exc:
            raise ConfigurationError(f"graph: {exc}") from exc
        # Protocol first, then the grid in order; a seed changes no verdict.
        for alg in dict.fromkeys((AlgorithmChoice("dac_td"), *self.algorithms)):
            make_driver(alg.kind, self.protocol, g, self.channel, alg.k, (), 0)

    def build_graph(self) -> GraphSchedule:
        edges = (self.graph_edges,) if self.graph_kind == "custom" else ()
        return GRAPH_KINDS[self.graph_kind](self.n_agents, *edges)

    def expand_runs(self) -> list[tuple[AlgorithmChoice, int]]:
        return [(alg, seed) for alg in self.algorithms for seed in self.seeds]

    def resolved(self) -> dict:
        """The config file for --dry-run; it loads back to an equal config."""
        return _dump(self, _LAYOUT)


def _dump(cfg: ExperimentConfig, layout: dict) -> dict:
    return {key: _dump(cfg, target) if isinstance(target, dict)
            else _ENV_KIND if target is None else _plain(getattr(cfg, target))
            for key, target in layout.items()}


def _plain(value):
    """Tuples as lists; a channel or an algorithm as its file fields."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, (ChannelModel, AlgorithmChoice)):
        return {name: getattr(value, name) for name in _file_fields(value)}
    return value


def _file_fields(obj) -> list[str]:
    # Each run spawns the channel seed from its own seed; no file sets it.
    return [f.name for f in fields(obj) if f.name != "seed"]


def _mapping(node, keys, where: str) -> dict:
    """A mapping of a config file, whose keys must all be in keys."""
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ConfigurationError(f"{where} must be a mapping")
    if extra := set(node) - set(keys):
        raise ConfigurationError(f"unknown keys in {where}: {sorted(extra)}")
    return node


def _read(node, layout: dict, where: str, values: dict) -> dict:
    """Collect into values the fields that a config file (section) sets."""
    for key, value in _mapping(node, layout, where).items():
        target = layout[key]
        if isinstance(target, dict):
            _read(value, target, key, values)
        elif target is not None:
            values[target] = value
        elif value != _ENV_KIND:
            raise ConfigurationError(f"unknown {where} kind {value!r}")
    return values


def _build(cls, node, where: str):
    node = _mapping(node, _file_fields(cls), where)
    try:
        return cls(**node)
    except TypeError as exc:  # a field without a default is missing
        raise ConfigurationError(f"{where}: {exc}") from None


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Parse and validate a YAML experiment config once; absent keys keep
    their defaults, and overrides (field=value) replace the file's values."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}")
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}")
    values = _read(raw, _LAYOUT, "config", {})
    protocol = values.get("protocol")
    if isinstance(protocol, str):
        values["protocol"] = PROTOCOL_ALIASES.get(protocol, protocol)
    if "channel" in values:
        values["channel"] = _build(ChannelModel, values["channel"], "channel")
    if isinstance(values.get("algorithms"), list):
        values["algorithms"] = [
            AlgorithmChoice(a) if isinstance(a, str)
            else _build(AlgorithmChoice, a, "algorithms entry")
            for a in values["algorithms"]]
    return ExperimentConfig(**{**values, **overrides})
