"""Experiment configuration: YAML schema, validation, and run expansion.

A config file describes one comparison study: an environment, a
communication graph + channel, a protocol choice, and a list of algorithms
to run over a list of seeds.  `expand_runs` turns it into the concrete
(algorithm, seed) grid the CLI executes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigurationError
from .learner import ALGORITHMS, PROTOCOLS, resolve_latency_window
from .topology import GraphSchedule, classify
from .transport import ChannelModel

# Config files may use these historical aliases for the protocol names.
PROTOCOL_ALIASES = {"alg1": "general", "alg2": "acyclic",
                    "general": "general", "acyclic": "acyclic",
                    "centralized": "centralized"}
GRAPH_KINDS = ("line", "ring", "star", "complete", "custom")


def _as_int(value, where: str) -> int:
    """An integer setting; a bool or a float with a fractional part is
    rejected rather than truncated."""
    fractional = (isinstance(value, (float, np.floating))
                  and not float(value).is_integer())
    if not (isinstance(value, (bool, np.bool_)) or fractional):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{where} must be an integer, got {value!r}")


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
        if self.kind == "khop_sac":
            return f"khop_sac_k{self.k}"
        return self.kind


@dataclass(frozen=True)
class ExperimentConfig:
    """One comparison study, and the only description of an experiment:
    `learner.run_experiment(cfg, algorithm, seed)` runs one cell of its
    (algorithm, seed) grid.  Every setting is checked here, when the config
    is built."""

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
        for name in ("n_agents", "critic_epochs", "target_refresh", "episodes",
                     "steps"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name in ("actor_hidden", "critic_hidden", "seeds"):
            object.__setattr__(self, name, tuple(
                _as_int(v, name) for v in getattr(self, name)))
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ConfigurationError(f"unknown graph kind {self.graph_kind!r}")
        if self.graph_kind == "custom" and not self.graph_edges:
            raise ConfigurationError("custom graph needs an edge list")
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("duplicate seeds in seed list")
        if not self.algorithms:
            raise ConfigurationError("at least one algorithm is required")
        for name in ("episodes", "steps", "critic_epochs", "target_refresh"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        for name in ("actor_step", "critic_step", "theta_box"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive and finite")
        if not math.isfinite(self.leaky_slope):
            raise ConfigurationError("leaky_slope must be finite")
        if min(self.actor_hidden + self.critic_hidden, default=1) < 1:
            raise ConfigurationError("hidden layer widths must be >= 1")
        self.build_graph()  # validates size/connectivity eagerly
        self._check_algorithms()

    def build_graph(self) -> GraphSchedule:
        if self.graph_kind == "line":
            return GraphSchedule.line(self.n_agents)
        if self.graph_kind == "ring":
            return GraphSchedule.ring(self.n_agents)
        if self.graph_kind == "star":
            return GraphSchedule.star(self.n_agents)
        if self.graph_kind == "complete":
            return GraphSchedule.complete(self.n_agents)
        return GraphSchedule.static(self.n_agents,
                                    [tuple(e) for e in self.graph_edges])

    def _check_algorithms(self) -> None:
        g = self.build_graph()
        info = classify(g)
        if self.protocol == "acyclic" and not info.acyclic_undirected:
            raise ConfigurationError(
                "the acyclic protocol requires an undirected acyclic graph")
        if any(alg.kind == "dac_td" for alg in self.algorithms):
            resolve_latency_window(self.protocol, g, self.channel)
        diameter = info.diameter
        for alg in self.algorithms:
            if alg.kind == "khop_sac":
                if diameter is None:
                    raise ConfigurationError(
                        "khop_sac requires a strongly connected graph")
                if alg.k > diameter:
                    raise ConfigurationError(
                        f"khop_sac k={alg.k} exceeds graph diameter {diameter}")

    def expand_runs(self) -> list[tuple[AlgorithmChoice, int]]:
        return [(alg, seed) for alg in self.algorithms for seed in self.seeds]

    def resolved(self) -> dict:
        """Plain-dict view for --dry-run output and provenance records."""
        return {
            "name": self.name,
            "env": {"kind": "coupled", "n_agents": self.n_agents,
                    "gamma": self.gamma},
            "graph": {"kind": self.graph_kind,
                      "edges": [list(e) for e in self.graph_edges]},
            "channel": {"t1": self.channel.t1, "t2": self.channel.t2,
                        "drop_prob": self.channel.drop_prob,
                        "delay_law": self.channel.delay_law,
                        "seed": self.channel.seed},
            "protocol": self.protocol,
            "algorithms": [{"kind": a.kind, "k": a.k} for a in self.algorithms],
            "actor": {"step": self.actor_step,
                      "hidden": list(self.actor_hidden)},
            "critic": {"step": self.critic_step,
                       "hidden": list(self.critic_hidden),
                       "epochs": self.critic_epochs,
                       "target_refresh": self.target_refresh},
            "leaky_slope": self.leaky_slope,
            "episodes": self.episodes,
            "steps": self.steps,
            "theta_box": self.theta_box,
            "seeds": list(self.seeds),
            "out_dir": self.out_dir,
        }


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigurationError(f"{where} must be a mapping")
    return node


def _known_keys(node: dict, allowed: set[str], where: str) -> None:
    extra = set(node) - allowed
    if extra:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(extra)}")


def _parse_algorithm(node) -> AlgorithmChoice:
    if isinstance(node, str):
        return AlgorithmChoice(node)
    node = _require_mapping(node, "algorithms entry")
    _known_keys(node, {"kind", "k"}, "algorithms entry")
    if "kind" not in node:
        raise ConfigurationError("algorithms entry needs a 'kind'")
    return AlgorithmChoice(str(node["kind"]), node.get("k", 0))


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}")
    raw = _require_mapping(raw, "config")
    _known_keys(raw, {"name", "env", "graph", "channel", "protocol",
                      "algorithms", "actor", "critic", "leaky_slope",
                      "episodes", "steps", "theta_box", "seeds", "out_dir"},
                "config")

    env = _require_mapping(raw.get("env"), "env")
    _known_keys(env, {"kind", "n_agents", "gamma"}, "env")
    if env.get("kind", "coupled") != "coupled":
        raise ConfigurationError(f"unknown env kind {env.get('kind')!r}")

    graph = _require_mapping(raw.get("graph"), "graph")
    _known_keys(graph, {"kind", "edges"}, "graph")
    graph_kind = str(graph.get("kind", "line"))

    chan = _require_mapping(raw.get("channel"), "channel")
    _known_keys(chan, {"t1", "t2", "drop_prob", "delay_law", "seed"}, "channel")

    protocol_raw = str(raw.get("protocol", "general"))
    if protocol_raw not in PROTOCOL_ALIASES:
        raise ConfigurationError(f"unknown protocol {protocol_raw!r}")

    algs = raw.get("algorithms", ["dac_td"])
    if not isinstance(algs, list):
        raise ConfigurationError("algorithms must be a list")

    actor = _require_mapping(raw.get("actor"), "actor")
    _known_keys(actor, {"step", "hidden"}, "actor")
    critic = _require_mapping(raw.get("critic"), "critic")
    _known_keys(critic, {"step", "hidden", "epochs", "target_refresh"}, "critic")

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list):
        raise ConfigurationError("seeds must be a list")

    try:
        edges = tuple((_as_int(a, "graph edge"), _as_int(b, "graph edge"))
                      for a, b in graph.get("edges", []))
        channel = ChannelModel(
            t1=_as_int(chan.get("t1", 0), "t1"),
            t2=_as_int(chan.get("t2", 1), "t2"),
            drop_prob=float(chan.get("drop_prob", 0.0)),
            delay_law=str(chan.get("delay_law", "uniform")),
            seed=_as_int(chan.get("seed", 0), "channel seed"))
        return ExperimentConfig(
            name=str(raw.get("name", path.stem)),
            n_agents=env.get("n_agents", 5),
            gamma=float(env.get("gamma", 0.9)),
            graph_kind=graph_kind, graph_edges=edges, channel=channel,
            protocol=PROTOCOL_ALIASES[protocol_raw],
            algorithms=tuple(_parse_algorithm(a) for a in algs),
            actor_step=float(actor.get("step", 0.01)),
            critic_step=float(critic.get("step", 0.1)),
            actor_hidden=tuple(actor.get("hidden", [10, 10])),
            critic_hidden=tuple(critic.get("hidden", [5, 5])),
            leaky_slope=float(raw.get("leaky_slope", 0.3)),
            critic_epochs=critic.get("epochs", 25),
            target_refresh=critic.get("target_refresh", 5),
            episodes=raw.get("episodes", 1000),
            steps=raw.get("steps", 100),
            theta_box=float(raw.get("theta_box", 10.0)),
            seeds=tuple(seeds),
            out_dir=str(raw.get("out_dir", "results")))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed config value: {exc}")
