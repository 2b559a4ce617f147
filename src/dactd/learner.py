"""Decentralized actor-critic training loops.

Two clock regimes share the same aggregation machinery:

* the *online* regime (`run_theory`) runs one continuing trajectory,
  performs a protocol tick per environment step, and applies each policy
  update exactly K steps after the data that produced it.  It is one loop on
  whole-team tables, (n, 2, 2) logits and (n, 2) critic weights; with
  ``protocol=None`` and a frozen actor it is fixed-policy TD(0);
* the *episodic* regime (`run_experiment(cfg, algorithm, seed)`) runs one
  cell of an `ExperimentConfig`'s (algorithm, seed) grid: fixed-length
  episodes, batch critics trained between episodes, each episode's TD-error
  sequence transmitted as one vector-valued protocol payload, and policy
  updates applied with a K-episode lag.  The config is the only description
  of the problem and is validated when it is built, so every run it admits
  is one the model can honour.

Local states are binary and enter the networks one-hot, so every step of an
episode feeds one of two input rows.  The episodic loop works on those rows,
not on the T steps: the critic is fitted on the two rows with its residuals
summed per local state, and each step's policy score is a row of one table
over the four (local state, action) pairs.

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
from .funcapprox import (LinearCritic, MlpStack, TabularSoftmaxPolicy,
                         softmax)
from .protocol import (AcyclicProtocolDriver, GeneralProtocolDriver,
                       NeighborhoodDriver)
from .topology import GraphSchedule, khop_neighbors, latency_bound
from .transport import Channel, ChannelModel

if TYPE_CHECKING:
    from .config import AlgorithmChoice, ExperimentConfig

PROTOCOLS = ("general", "acyclic", "centralized")
ALGORITHMS = ("dac_td", "independent_ac", "khop_sac")
ONE_HOT = np.eye(2)


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
# Whole-team steps of the online loop
# ---------------------------------------------------------------------------

def td_errors(v: np.ndarray, gamma: float, s: np.ndarray, rewards: np.ndarray,
              s_next: np.ndarray) -> np.ndarray:
    """Each agent's one-step TD error under its row of the (n, 2) values."""
    agents = np.arange(len(v))
    delta = rewards + gamma * v[agents, s_next] - v[agents, s]
    if not np.isfinite(delta).all():
        raise NumericError(f"non-finite TD error {delta!r}")
    return delta


def critic_step(v: np.ndarray, s: np.ndarray, delta: np.ndarray,
                beta: float) -> np.ndarray:
    """One TD(0) step of every critic along its gradient, the one-hot phi(s).
    Stepping whole rows keeps the signed zeros of v + beta * delta * phi(s)."""
    w = v + (beta * delta)[:, None] * ONE_HOT[s]
    if not np.isfinite(w).all():
        raise NumericError("critic weights diverged to non-finite values")
    return w


def actor_step(theta: np.ndarray, delta_team: np.ndarray, eta: np.ndarray,
               alpha: float, box: float) -> np.ndarray:
    """One clamped ascent step of every (2, 2) logit table along its score."""
    out = theta + (alpha * delta_team)[:, None, None] * eta
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
    K: int                          # 0 when no driver runs
    states: np.ndarray              # (steps + 1, n) visited joint states
    local_deltas: np.ndarray        # (steps, n)
    team_estimates: np.ndarray      # (steps, n) each agent's read-out of t - K
    updates_applied: np.ndarray     # (steps,) bool, False during warm-up
    critic_weights: list[np.ndarray]
    actor_params: list[np.ndarray]


def _check_online_inputs(policies, critics, actor_schedule, n_steps,
                         protocol, theta_box) -> None:
    """Reject up front what the table loop cannot run."""
    if not all(isinstance(p, TabularSoftmaxPolicy) and p.logits.shape == (2, 2)
               for p in policies):
        raise ConfigurationError("policies must be 2x2 TabularSoftmaxPolicy")
    if not all(isinstance(c, LinearCritic) and c.features.dim == 2
               and np.array_equal([c.features(0), c.features(1)], ONE_HOT)
               for c in critics):
        raise ConfigurationError("critics must be LinearCritics with one-hot "
                                 "features on the two local states")
    if (isinstance(n_steps, bool)
            or not isinstance(n_steps, (int, np.integer)) or n_steps < 0):
        raise ConfigurationError(f"n_steps must be an integer >= 0, "
                                 f"got {n_steps!r}")
    if not (theta_box > 0.0 and np.isfinite(theta_box)):
        raise ConfigurationError(f"theta_box must be positive and finite, "
                                 f"got {theta_box!r}")
    if protocol is None and actor_schedule is not None:
        raise ConfigurationError("protocol=None needs actor_schedule=None")


def run_theory(env: CoupledEnv, graph: GraphSchedule, policies, critics,
               actor_schedule: StepSchedule | None,
               critic_schedule: StepSchedule, n_steps: int, seed: int,
               protocol: str | None = "general",
               channel_model: ChannelModel | None = None,
               theta_box: float = 10.0,
               enforce_two_timescale: bool = False) -> TheoryRunResult:
    """Run the online decentralized actor-critic loop for n_steps.

    Each step: act, observe the private reward, compute the local TD error,
    take one critic step, hand the TD error to the protocol, and — once the
    K-step-old cohort is readable — apply the delayed policy update with the
    score table saved when that data was generated.  actor_schedule=None
    freezes the policies (pure evaluation); protocol=None, which needs it,
    also runs no driver (K = 0, no read-out).  The final logit and weight
    tables are written back into ``policies`` and ``critics``."""
    n = env.n_agents
    if graph.n_agents != n or len(policies) != n or len(critics) != n:
        raise ValueError("agent count mismatch between env, graph and learners")
    _check_online_inputs(policies, critics, actor_schedule, n_steps, protocol,
                         theta_box)
    if enforce_two_timescale:
        if actor_schedule is None:
            raise ConfigurationError("two-timescale check needs an actor schedule")
        validate_two_timescale(actor_schedule, critic_schedule)

    _, env_ss, policy_ss, channel_ss = np.random.SeedSequence(seed).spawn(4)
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)
    driver = None if protocol is None else _make_driver(
        "dac_td", protocol, graph, channel_model, 0, (),
        channel_ss.generate_state(1)[0])
    K = 0 if driver is None else driver.K

    theta = np.array([pol.logits for pol in policies])      # (n, s, a)
    probs = softmax(theta)
    v = np.array([critic.v for critic in critics])          # (n, s)
    agents = np.arange(n)
    s = env.initial_state()
    states = np.zeros((n_steps + 1, n), dtype=np.int64)
    states[0] = s
    local_deltas = np.zeros((n_steps, n))
    team_estimates = np.zeros((n_steps, n))
    applied = np.zeros(n_steps, dtype=bool)
    eta_hist: dict[int, np.ndarray] = {}
    alpha_hist: dict[int, float] = {}

    # With two actions, inverse-CDF sampling takes action 1 exactly when the
    # draw is at least pi(0|s); one block holds the per-step draws bit for bit.
    u_policy = rng_policy.random((n_steps, n))
    for t in range(n_steps):
        p_here = probs[agents, s]                           # (n, a)
        a = (p_here[:, 0] <= u_policy[t]).astype(np.int64)
        s_next, rewards = env.step(s, a, rng_env)
        deltas = td_errors(v, env.gamma, s, rewards, s_next)
        v = critic_step(v, s, deltas, critic_schedule.value(t))
        local_deltas[t] = deltas
        if actor_schedule is not None:
            # Score of log pi(a|s): onehot(a) - pi(.|s) in logit row s.
            eta_hist[t] = eta = np.zeros((n, 2, 2))
            eta[agents, s] = -p_here
            eta[agents, s, a] += 1.0
            alpha_hist[t] = actor_schedule.value(t)

        if driver is not None:
            team = driver.tick(t, deltas)
            team_estimates[t] = team
            if t >= K and actor_schedule is not None:
                theta = actor_step(theta, team, eta_hist.pop(t - K),
                                   alpha_hist.pop(t - K), theta_box)
                probs = softmax(theta)
                applied[t] = True
        s = s_next
        states[t + 1] = s

    for pol, critic, logits, w in zip(policies, critics, theta, v):
        pol.set_flat(logits.ravel())
        critic.set_flat(w)
    return TheoryRunResult(
        K=K, states=states, local_deltas=local_deltas,
        team_estimates=team_estimates, updates_applied=applied,
        critic_weights=[np.copy(c.v) for c in critics],
        actor_params=[p.get_flat() for p in policies])


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


def _score_table(actor: MlpStack, basis: np.ndarray,
                 probs: np.ndarray) -> np.ndarray:
    """Score of log pi(a|s) for every (local state s, action a) pair, at row
    2*s + a: (n, 4, P).  Each step's score is a row of this table."""
    sa_states = np.array([0, 0, 1, 1])
    return actor.param_grads(basis[:, sa_states],
                             np.eye(2)[[0, 1, 0, 1]] - probs[:, sa_states],
                             per_sample=True)


def _fit_gradient(critic: MlpStack, basis: np.ndarray, current: np.ndarray,
                  target_sums: np.ndarray, counts: np.ndarray,
                  T: int) -> np.ndarray:
    """Gradient of one epoch's batch regression,
    (1/T) sum_t (target_t - V(s_t)) dV(s_t)/dparams, taken on the basis
    rows.  Every step's input is one of them, so the residuals enter as
    per-state sums: target sums minus visit counts times ``current``, the
    (n, 2) value table."""
    resid = (target_sums - counts * current) / T
    return critic.param_grads(basis, resid[:, :, None], per_sample=False)


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
    agents = np.arange(n)
    agent_idx = agents[:, None]
    team_returns = np.zeros(cfg.episodes)
    agent_returns = np.zeros((cfg.episodes, n))
    applied = np.zeros(cfg.episodes, dtype=bool)
    eta_buf: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for e in range(cfg.episodes):
        # Roll out one episode under the current (frozen) policies.  With two
        # actions, inverse-CDF sampling takes action 1 exactly when the draw
        # is at least pi(0|s), so each step's action for either local state
        # is read off the episode's (T, n) block of policy draws.  The rollout
        # carries only the coupling count |s| + |a| = base + s @ gain.
        probs = softmax(actor.forward(basis))            # (n, s, a)
        u_policy = rng_policy.random((T, n))
        u_env = rng_env.random((T, n))
        takes_one = (probs[None, :, :, 0]
                     <= u_policy[:, :, None]).astype(np.int64)  # (T, n, s)
        base = takes_one[:, :, 0].sum(axis=1)
        gain = 1 + takes_one[:, :, 1] - takes_one[:, :, 0]
        traj = np.zeros((T + 1, n), dtype=np.int64)
        s = traj[0]
        for t in range(T):
            traj[t + 1] = u_env[t] < (base[t] + s @ gain[t]) / (2.0 * n)
            s = traj[t + 1]
        actions = takes_one[np.arange(T)[:, None], agents, traj[:-1]]
        coupling = (traj[:-1].sum(axis=1) + actions.sum(axis=1)) / (2.0 * n)
        agent_returns[e, 0] = coupling.sum()
        team_returns[e] = agent_returns[e].sum() / n

        rewards_seq = np.zeros((n, T))
        rewards_seq[0] = coupling
        s_seq = traj[:-1].T                               # (n, T)
        sn_seq = traj[1:].T
        x_seq = basis[agent_idx, s_seq]                   # (n, T, 2) one-hot
        counts = x_seq.sum(axis=1)                        # (n, s)

        # Scores under the behaviour policy, before any update.
        eta_buf[e] = (_score_table(actor, basis, probs), 2 * s_seq + actions.T)

        # Batch critic regression with periodically refreshed targets.
        for epoch in range(cfg.critic_epochs):
            current = _value_table(critic, basis)
            if epoch % cfg.target_refresh == 0:
                targets = rewards_seq + cfg.gamma * current[agent_idx, sn_seq]
                target_sums = (targets[:, None, :] @ x_seq)[:, 0]
            grad = _fit_gradient(critic, basis, current, target_sums, counts, T)
            critic.apply_update(cfg.critic_step * grad)
        if not np.all(np.isfinite(critic.get_flat())):
            raise NumericError("critic weights diverged to non-finite values")

        # TD-error sequence of this episode under the trained critic.
        table = _value_table(critic, basis)
        delta = (rewards_seq + cfg.gamma * table[agent_idx, sn_seq]
                 - table[agent_idx, s_seq])               # (n, T)

        team_delta = driver.tick(e, delta)                # (n, T)
        cohort = e - K
        if cohort >= 0:
            scores, codes = eta_buf.pop(cohort)
            steps = (cfg.actor_step * team_delta[:, :, None]
                     * scores[agent_idx, codes])
            theta = actor.get_flat()
            for t in range(T):
                theta += steps[:, t]
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
