"""Decentralized actor-critic learning with TD-error aggregation.

A deterministic simulator and library: agents of a jointly observable
multi-agent MDP exchange local TD errors over an unreliable, delayed
communication graph, recover the exact team-average TD error with a fixed
lag K, and run synchronized K-delayed policy updates.
"""

__version__ = "0.1.0"

from .config import AlgorithmChoice, ExperimentConfig, load_config
from .envs import CoupledEnv, JommdpSpec, micro_env
from .errors import (CapacityError, ConfigurationError, DactdError,
                     IncompleteAggregationError, ModelError, NumericError,
                     ProtocolCorruptionError, RankError, TransportError)
from .learner import RunResult, StepSchedule, run_experiment, run_theory
from .topology import GraphSchedule, latency_bound
from .transport import Channel, ChannelModel, Message

__all__ = [
    "AlgorithmChoice", "CapacityError", "Channel", "ChannelModel",
    "ConfigurationError", "CoupledEnv", "DactdError", "ExperimentConfig",
    "GraphSchedule", "IncompleteAggregationError",
    "JommdpSpec", "Message", "ModelError", "NumericError",
    "ProtocolCorruptionError", "RankError", "RunResult", "StepSchedule",
    "TransportError", "latency_bound",
    "load_config", "micro_env",
    "run_experiment", "run_theory",
    "__version__",
]
