"""Decentralized actor-critic training loops.

Two clock regimes share the same aggregation machinery:

* the *online* regime (`run_theory`, `run_policy_evaluation`) runs one
  continuing trajectory, performs a protocol tick per environment step, and
  applies each policy update exactly K steps after the data that produced it;
* the *episodic* regime (`run_experiment(cfg, algorithm, seed)`) runs one
  cell of an `ExperimentConfig`'s (algorithm, seed) grid: fixed-length
  episodes, batch critics trained between episodes, each episode's TD-error
  sequence transmitted as one vector-valued protocol payload, and policy
  updates applied with a K-episode lag.  The config is the only description
  of the problem and is validated when it is built, so every run it admits
  is one the model can honour.

Every algorithm is one aggregation driver ticked once per episode: `dac_td`
runs a protocol driver, and the baselines are `NeighborhoodDriver`s, the
k-hop neighbourhood mean with lag k for `khop_sac` and k = 0 for
`independent_ac`.  All algorithms consume the environment / policy /
initialization random streams identically; with k equal to the
communication graph's diameter the k-hop baseline reproduces the
decentralized run bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .envs import CoupledEnv
from .errors import ConfigurationError, NumericError
from .funcapprox import MlpStack, softmax
from .protocol import (AcyclicProtocolDriver, GeneralProtocolDriver,
                       NeighborhoodDriver)
from .topology import GraphSchedule, khop_neighbors, latency_bound
from .transport import Channel, ChannelModel

if TYPE_CHECKING:
    from .config import AlgorithmChoice, ExperimentConfig

PROTOCOLS = ("general", "acyclic", "centralized")
ALGORITHMS = ("dac_td", "independent_ac", "khop_sac")


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence: constant, or base / (t + 1)**exponent."""

    kind: str
    base: float
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if not (self.base > 0.0 and np.isfinite(self.base)):
            raise ConfigurationError("schedule base must be positive and finite")
        if self.kind == "polynomial" and not (0.0 < self.exponent <= 1.0):
            raise ConfigurationError("polynomial exponent must lie in (0, 1]")

    def value(self, t: int) -> float:
        if self.kind == "constant":
            return self.base
        return self.base / float(t + 1) ** self.exponent

    @classmethod
    def constant(cls, base: float) -> "StepSchedule":
        return cls("constant", base)

    @classmethod
    def polynomial(cls, base: float, exponent: float) -> "StepSchedule":
        return cls("polynomial", base, exponent)


def validate_two_timescale(actor: StepSchedule, critic: StepSchedule) -> None:
    """Check the separation needed for the convergence guarantee.

    The critic must decay polynomially with exponent in (1/2, 1] and the
    actor strictly faster; anything else is rejected up front."""
    if critic.kind != "polynomial" or not (0.5 < critic.exponent <= 1.0):
        raise ConfigurationError(
            "critic schedule must be polynomial with exponent in (1/2, 1]")
    if actor.kind != "polynomial" or actor.exponent <= critic.exponent:
        raise ConfigurationError(
            "actor schedule must decay strictly faster than the critic")


# ---------------------------------------------------------------------------
# Single-transition primitives
# ---------------------------------------------------------------------------

def local_td_error(critic, gamma: float, s_local: int, reward: float,
                   s_next_local: int) -> float:
    """One-step TD error from an agent's private observations only."""
    delta = reward + gamma * critic.value(s_next_local) - critic.value(s_local)
    if not np.isfinite(delta):
        raise NumericError(f"non-finite TD error {delta!r}")
    return float(delta)


def critic_update(critic, delta: float, grad: np.ndarray,
                  beta: float) -> None:
    w = critic.get_flat() + beta * delta * grad
    if not np.all(np.isfinite(w)):
        raise NumericError("critic weights diverged to non-finite values")
    critic.set_flat(w)


def actor_update(theta: np.ndarray, delta_team: float, eta: np.ndarray,
                 alpha: float, box: float) -> np.ndarray:
    """One clamped ascent step; returns the updated parameter vector."""
    out = theta + alpha * delta_team * eta
    np.clip(out, -box, box, out=out)
    return out


def _make_driver(algorithm: str, protocol: str, graph: GraphSchedule,
                 channel_model: ChannelModel | None, khop: int,
                 value_shape: tuple[int, ...], channel_seed):
    """The aggregation driver of one run, with its lag K resolved.  ``khop``
    is an `AlgorithmChoice`'s k, which is 0 for every kind but khop_sac."""
    n = graph.n_agents
    if algorithm != "dac_td":
        return NeighborhoodDriver(
            [cumulative_neighborhood(graph, i, khop) for i in range(1, n + 1)],
            khop, value_shape)
    K = resolve_latency_window(protocol, graph, channel_model)
    if protocol == "general":
        model = channel_model if channel_model is not None else ChannelModel()
        if channel_seed is not None:
            model = replace(model, seed=channel_seed)
        return GeneralProtocolDriver(graph, Channel(model, graph), K, value_shape)
    if protocol == "acyclic":
        return AcyclicProtocolDriver(graph, K, value_shape)
    if protocol == "centralized":
        return NeighborhoodDriver([list(range(1, n + 1))] * n, K, value_shape)
    raise ConfigurationError(f"unknown protocol {protocol!r}")


def resolve_latency_window(protocol: str, graph: GraphSchedule,
                           channel_model: ChannelModel | None) -> int:
    """Number of ticks after which every cohort is guaranteed complete.

    The acyclic protocol exchanges increments over a lossless unit-delay
    mailbox, so a channel that can drop a send or delay one past a tick is
    rejected rather than silently ignored."""
    model = channel_model if channel_model is not None else ChannelModel()
    if protocol == "acyclic":
        if (model.t1 > 0 and model.drop_prob > 0) or model.t2 > 1:
            raise ConfigurationError(
                "the acyclic protocol needs a lossless unit-delay channel, got "
                f"t1={model.t1}, t2={model.t2}, drop_prob={model.drop_prob}")
        return latency_bound(graph, 0, 1)
    return latency_bound(graph, model.t1, model.t2)


# ---------------------------------------------------------------------------
# Online regime: one continuing trajectory, per-step protocol ticks
# ---------------------------------------------------------------------------

@dataclass
class TheoryRunResult:
    K: int
    states: np.ndarray              # (steps + 1, n) visited joint states
    local_deltas: np.ndarray        # (steps, n)
    team_estimates: np.ndarray      # (steps, n) each agent's read-out of t - K
    updates_applied: np.ndarray     # (steps,) bool, False during warm-up
    critic_weights: list[np.ndarray]
    actor_params: list[np.ndarray]


def run_theory(env: CoupledEnv, graph: GraphSchedule, policies, critics,
               actor_schedule: StepSchedule | None,
               critic_schedule: StepSchedule, n_steps: int, seed: int,
               protocol: str = "general",
               channel_model: ChannelModel | None = None,
               theta_box: float = 10.0,
               enforce_two_timescale: bool = False) -> TheoryRunResult:
    """Run the online decentralized actor-critic loop for n_steps.

    Each step: act, observe the private reward, compute the local TD error,
    take one critic step, hand the TD error to the protocol, and — once the
    K-step-old cohort is readable — apply the delayed policy update with the
    score vector saved when that data was generated.  actor_schedule=None
    freezes the policies (pure evaluation)."""
    n = env.n_agents
    if graph.n_agents != n or len(policies) != n or len(critics) != n:
        raise ValueError("agent count mismatch between env, graph and learners")
    if enforce_two_timescale:
        if actor_schedule is None:
            raise ConfigurationError("two-timescale check needs an actor schedule")
        validate_two_timescale(actor_schedule, critic_schedule)

    ss = np.random.SeedSequence(seed)
    init_ss, env_ss, policy_ss, channel_ss = ss.spawn(4)
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)
    driver = _make_driver("dac_td", protocol, graph, channel_model, 0, (),
                          channel_ss.generate_state(1)[0])
    K = driver.K

    s = env.initial_state()
    states = np.zeros((n_steps + 1, n), dtype=np.int64)
    states[0] = s
    local_deltas = np.zeros((n_steps, n))
    team_estimates = np.zeros((n_steps, n))
    applied = np.zeros(n_steps, dtype=bool)
    eta_hist: dict[int, list[np.ndarray]] = {}
    alpha_hist: dict[int, float] = {}

    for t in range(n_steps):
        actions = np.array([policies[i].sample_action(int(s[i]), rng_policy)
                            for i in range(n)], dtype=np.int64)
        s_next, rewards = env.step(s, actions, rng_env)
        deltas = np.empty(n)
        for i in range(n):
            deltas[i] = local_td_error(critics[i], env.gamma, int(s[i]),
                                       float(rewards[i]), int(s_next[i]))
            critic_update(critics[i], deltas[i], critics[i].grad(int(s[i])),
                          critic_schedule.value(t))
        if actor_schedule is not None:
            eta_hist[t] = [policies[i].score(int(s[i]), int(actions[i]))
                           for i in range(n)]
            alpha_hist[t] = actor_schedule.value(t)

        team = driver.tick(t, deltas)
        local_deltas[t] = deltas
        team_estimates[t] = team
        cohort = t - K
        if cohort >= 0 and actor_schedule is not None:
            etas = eta_hist.pop(cohort)
            alpha = alpha_hist.pop(cohort)
            for i in range(n):
                flat = actor_update(policies[i].get_flat(), float(team[i]),
                                    etas[i], alpha, theta_box)
                policies[i].set_flat(flat)
            applied[t] = True
        s = s_next
        states[t + 1] = s

    return TheoryRunResult(
        K=K, states=states, local_deltas=local_deltas,
        team_estimates=team_estimates, updates_applied=applied,
        critic_weights=[np.copy(c.v) for c in critics],
        actor_params=[p.get_flat() for p in policies])


def run_policy_evaluation(env: CoupledEnv, policies, critics,
                          critic_schedule: StepSchedule, n_steps: int,
                          seed: int) -> list[np.ndarray]:
    """Fixed-policy TD(0) on one continuing trajectory; returns the final
    weight vectors (the critics are updated in place)."""
    n = env.n_agents
    ss = np.random.SeedSequence(seed)
    _, env_ss, policy_ss, _ = ss.spawn(4)
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)
    s = env.initial_state()
    for t in range(n_steps):
        actions = np.array([policies[i].sample_action(int(s[i]), rng_policy)
                            for i in range(n)], dtype=np.int64)
        s_next, rewards = env.step(s, actions, rng_env)
        beta = critic_schedule.value(t)
        for i in range(n):
            d = local_td_error(critics[i], env.gamma, int(s[i]),
                               float(rewards[i]), int(s_next[i]))
            critic_update(critics[i], d, critics[i].grad(int(s[i])), beta)
        s = s_next
    return [np.copy(c.v) for c in critics]


# ---------------------------------------------------------------------------
# Episodic regime: batch critics, vector payloads, K-episode update lag
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Per-episode learning metrics plus the final parameters."""

    algorithm: str
    seed: int
    K: int
    team_returns: np.ndarray        # (episodes,) average per-agent return
    agent_returns: np.ndarray       # (episodes, n)
    updates_applied: np.ndarray     # (episodes,) bool; False during warm-up
    payload_slots: int
    actor_params: np.ndarray        # (n, P) final policy parameters
    critic_params: np.ndarray       # (n, Q) final critic parameters


def cumulative_neighborhood(graph: GraphSchedule, agent: int,
                            k: int) -> list[int]:
    """Sorted agents within graph distance k of ``agent`` (self included)."""
    members: set[int] = set()
    for d in range(k + 1):
        members |= khop_neighbors(graph, agent, d)
    return sorted(members)


def _value_table(net: MlpStack, basis: np.ndarray) -> np.ndarray:
    """Per-agent state-value lookup: (n, n_local_states)."""
    return net.forward(basis)[:, :, 0]


def run_experiment(cfg: ExperimentConfig, algorithm: AlgorithmChoice,
                   seed: int) -> RunResult:
    """Train one cell of ``cfg``'s (algorithm, seed) grid.

    All three algorithms draw from identical environment / policy /
    initialization streams; they differ only in which TD-error sequences
    reach each actor and with what lag."""
    if algorithm not in cfg.algorithms:
        raise ConfigurationError(
            f"{algorithm.label} is not one of the config's algorithms")
    n, T = cfg.n_agents, cfg.steps

    ss = np.random.SeedSequence(seed)
    init_ss, env_ss, policy_ss, channel_ss = ss.spawn(4)
    rng_init = np.random.default_rng(init_ss)
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)

    actor = MlpStack((2, *cfg.actor_hidden, 2), n, rng_init, cfg.leaky_slope)
    critic = MlpStack((2, *cfg.critic_hidden, 1), n, rng_init, cfg.leaky_slope)

    driver = _make_driver(algorithm.kind, cfg.protocol, cfg.build_graph(),
                          cfg.channel, algorithm.k, (T,),
                          channel_ss.generate_state(1)[0])
    K = driver.K

    basis = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    eye2 = np.eye(2)
    agent_idx = np.arange(n)[:, None]
    team_returns = np.zeros(cfg.episodes)
    agent_returns = np.zeros((cfg.episodes, n))
    applied = np.zeros(cfg.episodes, dtype=bool)
    eta_buf: dict[int, np.ndarray] = {}

    for e in range(cfg.episodes):
        # Roll out one episode under the current (frozen) policies.  Local
        # state spaces are binary, so per-episode action tables are enough.
        probs = softmax(actor.forward(basis))            # (n, s, a)
        cum = np.cumsum(probs, axis=2)
        s = np.zeros(n, dtype=np.int64)
        states = np.empty((T, n), dtype=np.int64)
        next_states = np.empty((T, n), dtype=np.int64)
        actions = np.empty((T, n), dtype=np.int64)
        coupling = np.empty(T)
        for t in range(T):
            u = rng_policy.random(n)
            pc = cum[agent_idx[:, 0], s, :]
            a = np.minimum((pc <= u[:, None]).sum(axis=1), 1)
            q = (s.sum() + a.sum()) / (2.0 * n)
            states[t] = s
            actions[t] = a
            coupling[t] = q
            s = (rng_env.random(n) < q).astype(np.int64)
            next_states[t] = s
        agent_returns[e, 0] = coupling.sum()
        team_returns[e] = agent_returns[e].sum() / n

        rewards_seq = np.zeros((n, T))
        rewards_seq[0] = coupling
        s_seq = states.T                                  # (n, T)
        sn_seq = next_states.T
        x_seq = eye2[s_seq]                               # (n, T, 2)

        # Score sequences under the behaviour policy, before any update.
        probs_seq = probs[agent_idx, s_seq, :]            # (n, T, 2)
        out_grad = eye2[actions.T] - probs_seq
        eta = actor.param_grads(x_seq, out_grad, per_sample=True)

        # Batch critic regression with periodically refreshed targets.
        targets = None
        for epoch in range(cfg.critic_epochs):
            if epoch % cfg.target_refresh == 0:
                frozen = _value_table(critic, basis)
                targets = rewards_seq + cfg.gamma * frozen[agent_idx, sn_seq]
            current = _value_table(critic, basis)
            resid = targets - current[agent_idx, s_seq]
            grad = critic.param_grads(x_seq, resid[:, :, None] / T,
                                      per_sample=False)
            critic.apply_update(cfg.critic_step * grad)
        if not np.all(np.isfinite(critic.get_flat())):
            raise NumericError("critic weights diverged to non-finite values")

        # TD-error sequence of this episode under the trained critic.
        table = _value_table(critic, basis)
        delta = (rewards_seq + cfg.gamma * table[agent_idx, sn_seq]
                 - table[agent_idx, s_seq])               # (n, T)

        eta_buf[e] = eta
        team_delta = driver.tick(e, delta)                # (n, T)
        cohort = e - K
        if cohort >= 0:
            eta_c = eta_buf.pop(cohort)
            theta = actor.get_flat()
            for t in range(T):
                theta += cfg.actor_step * team_delta[:, t, None] * eta_c[:, t, :]
                np.clip(theta, -cfg.theta_box, cfg.theta_box, out=theta)
            actor.set_flat(theta)
            applied[e] = True
        if not np.all(np.isfinite(actor.get_flat())):
            raise NumericError("actor weights diverged to non-finite values")

    return RunResult(algorithm=algorithm.kind, seed=seed, K=K,
                     team_returns=team_returns, agent_returns=agent_returns,
                     updates_applied=applied, payload_slots=driver.payload_slots,
                     actor_params=actor.get_flat(),
                     critic_params=critic.get_flat())
