"""Decentralized actor-critic training loops.

Two clock regimes share the same aggregation machinery:

* the *online* regime (`run_theory`) runs one continuing trajectory,
  performs a protocol tick per environment step, and applies each policy
  update exactly K steps after the data that produced it.  It is one loop on
  whole-team tables, (n, 2, 2) logits and (n, 2) critic weights; with
  ``protocol=None`` and a frozen actor it is fixed-policy TD(0);
* the *episodic* regime (`run_experiment(cfg, runs)`) runs a list of cells
  of an `ExperimentConfig`'s (algorithm, seed) grid as one stacked loop:
  fixed-length episodes, batch critics trained between episodes, each
  episode's TD-error sequence transmitted as one vector-valued protocol
  payload, and policy updates applied with a K-episode lag.  Every cell's
  agents are copies along one actor and one critic `MlpStack`, so each
  episode is one rollout, one critic fit and one actor update for every
  cell, and each cell's result is bitwise what it gives alone.  The config
  is the only description of the problem and is validated when it is built,
  so every run it admits is one the model can honour.

Local states are binary and enter the networks one-hot, so every step of an
episode feeds one of two input rows.  The episodic loop works on those rows,
not on the T steps: the critic is fitted on the two rows with its residuals
summed per local state, and each step's policy score is a row of one table
over the four (local state, action) pairs.

Every algorithm is one aggregation driver ticked once per episode: `dac_td`
runs a protocol driver, and the baselines are `NeighborhoodDriver`s, the
k-hop neighbourhood mean with lag k for `khop_sac` and k = 0 for
`independent_ac`.  Agent i's k-hop neighbourhood is every agent with a
directed path of at most k edges to i, the agents whose TD errors any
protocol can deliver to i within k hops.  All algorithms consume the
environment / policy / initialization random streams identically; with k
equal to the communication graph's diameter the k-hop baseline reproduces
the decentralized run bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .envs import CoupledEnv
from .errors import (ConfigurationError, NumericError, _as_int,
                     _as_positive, _as_real)
from .funcapprox import (LinearCritic, MlpStack, TabularSoftmaxPolicy,
                         softmax)
from .protocol import (AcyclicProtocolDriver, GeneralProtocolDriver,
                       NeighborhoodDriver)
from .topology import (GraphSchedule, cumulative_neighborhoods,
                       hop_distances, latency_bound)
from .transport import Channel, ChannelModel

if TYPE_CHECKING:
    from .config import AlgorithmChoice, ExperimentConfig

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
        for name, check in (("base", _as_positive), ("exponent", _as_real)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.kind == "constant" and self.exponent != 0.0:
            raise ConfigurationError("a constant schedule takes no exponent")
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


def make_driver(algorithm: str, protocol: str, graph: GraphSchedule,
                channel_model: ChannelModel | None, khop: int,
                value_shape: tuple[int, ...], channel_seed):
    """The aggregation driver of one run, and the one place that decides
    which runs can aggregate, and with what lag K.  ``khop`` is an
    `AlgorithmChoice`'s k (0 for every kind but khop_sac) and may not exceed
    the graph's diameter.  The acyclic protocol moves increments over a
    lossless unit-delay mailbox, so a channel that can drop or delay a send
    is refused rather than ignored; its driver checks that the graph is a
    tree.  Raises ConfigurationError, also where the graph's always-present
    edges do not connect it."""
    n = graph.n_agents
    if algorithm != "dac_td":
        diameter = int(hop_distances(n, graph.always_present_edges()).max())
        if khop > diameter:
            raise ConfigurationError(
                f"khop_sac k={khop} exceeds graph diameter {diameter}")
        return NeighborhoodDriver(cumulative_neighborhoods(graph, khop),
                                  khop, value_shape)
    model = channel_model if channel_model is not None else ChannelModel()
    if protocol == "acyclic":
        if (model.t1 > 0 and model.drop_prob > 0) or model.t2 > 1:
            raise ConfigurationError(
                "the acyclic protocol needs a lossless unit-delay channel, got "
                f"t1={model.t1}, t2={model.t2}, drop_prob={model.drop_prob}")
        return AcyclicProtocolDriver(graph, latency_bound(graph, 0, 1),
                                     value_shape)
    if protocol not in ("general", "centralized"):
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    K = latency_bound(graph, model.t1, model.t2)
    if protocol == "general":
        return GeneralProtocolDriver(
            graph, Channel(replace(model, seed=channel_seed), graph), K,
            value_shape)
    return NeighborhoodDriver([list(range(1, n + 1))] * n, K, value_shape)


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
                         protocol, theta_box) -> tuple[int, float]:
    """Reject what the table loop cannot run; return n_steps and theta_box."""
    if not all(isinstance(p, TabularSoftmaxPolicy) and p.logits.shape == (2, 2)
               for p in policies):
        raise ConfigurationError("policies must be 2x2 TabularSoftmaxPolicy")
    if not all(isinstance(c, LinearCritic)
               and np.array_equal(c.features, ONE_HOT) for c in critics):
        raise ConfigurationError("critics must be LinearCritics with one-hot "
                                 "features on the two local states")
    n_steps = _as_int(n_steps, "n_steps")
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
    theta_box = _as_positive(theta_box, "theta_box")
    if protocol is None and actor_schedule is not None:
        raise ConfigurationError("protocol=None needs actor_schedule=None")
    return n_steps, theta_box


def run_theory(env: CoupledEnv, graph: GraphSchedule, policies, critics,
               actor_schedule: StepSchedule | None,
               critic_schedule: StepSchedule, n_steps: int, seed: int,
               protocol: str | None = "general",
               channel_model: ChannelModel | None = None,
               theta_box: float = 10.0) -> TheoryRunResult:
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
    n_steps, theta_box = _check_online_inputs(
        policies, critics, actor_schedule, n_steps, protocol, theta_box)

    _, env_ss, policy_ss, channel_ss = np.random.SeedSequence(seed).spawn(4)
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)
    driver = None if protocol is None else make_driver(
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


def _value_table(net: MlpStack, basis: np.ndarray) -> np.ndarray:
    """Per-copy state-value lookup: (copies, n_local_states)."""
    return net.forward(basis)[:, :, 0]


def _score_table(actor: MlpStack, basis: np.ndarray,
                 probs: np.ndarray) -> np.ndarray:
    """Score of log pi(a|s) for every (local state s, action a) pair, at row
    2*s + a: (copies, 4, P).  Each step's score is a row of this table."""
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
    (copies, 2) value table."""
    resid = (target_sums - counts * current) / T
    return critic.param_grads(basis, resid[:, :, None], per_sample=False)


def _check_finite(net: MlpStack, runs, e: int, what: str) -> None:
    """Raise NumericError naming the lowest-indexed cell whose copies of
    ``net`` hold a non-finite parameter."""
    bad = ~np.isfinite(net.get_flat()).reshape(len(runs), -1).all(axis=1)
    if bad.any():
        algorithm, seed = runs[int(np.argmax(bad))]
        raise NumericError(f"{what} weights of {algorithm.label} seed {seed} "
                           f"diverged to non-finite values at episode {e}")


def run_experiment(cfg: ExperimentConfig,
                   runs: list[tuple[AlgorithmChoice, int]]) -> list[RunResult]:
    """Train the (algorithm, seed) cells ``runs`` of ``cfg``'s grid as one
    stacked loop; return their results in the same order.

    Cell c owns copies c*n .. c*n + n - 1 of one actor and one critic
    `MlpStack`, initialized from its own seed, and keeps its own environment,
    policy and channel streams and its own driver, so every cell gives bit
    for bit what it gives when run alone.  All three algorithms draw from
    identical streams; they differ only in which TD-error sequences reach
    each actor and with what lag."""
    for algorithm, _ in runs:
        if algorithm not in cfg.algorithms:
            raise ConfigurationError(
                f"{algorithm.label} is not one of the config's algorithms")
    if not runs:
        return []
    n, T, C = cfg.n_agents, cfg.steps, len(runs)
    graph = cfg.build_graph()
    actor_rows, critic_rows, rng_env, rng_policy, drivers = [], [], [], [], []
    for algorithm, seed in runs:
        init_ss, env_ss, policy_ss, channel_ss = (
            np.random.SeedSequence(seed).spawn(4))
        rng_init = np.random.default_rng(init_ss)
        actor_rows.append(MlpStack((2, *cfg.actor_hidden, 2), n, rng_init,
                                   cfg.leaky_slope).get_flat())
        critic_rows.append(MlpStack((2, *cfg.critic_hidden, 1), n, rng_init,
                                    cfg.leaky_slope).get_flat())
        rng_env.append(np.random.default_rng(env_ss))
        rng_policy.append(np.random.default_rng(policy_ss))
        drivers.append(make_driver(algorithm.kind, cfg.protocol, graph,
                                   cfg.channel, algorithm.k, (T,),
                                   channel_ss.generate_state(1)[0]))
    actor = MlpStack((2, *cfg.actor_hidden, 2), C * n, slope=cfg.leaky_slope)
    actor.set_flat(np.concatenate(actor_rows))
    critic = MlpStack((2, *cfg.critic_hidden, 1), C * n, slope=cfg.leaky_slope)
    critic.set_flat(np.concatenate(critic_rows))

    # Each copy's lag is its cell's K; the score tables of the last
    # max(K) + 1 episodes are kept in a ring indexed by episode.
    lags = np.repeat([d.K for d in drivers], n)
    ring = int(lags.max()) + 1
    score_ring = np.empty((ring, C * n, 4, actor.n_params))
    code_ring = np.empty((ring, C * n, T), dtype=np.int64)
    cells = [slice(c * n, (c + 1) * n) for c in range(C)]
    basis = np.broadcast_to(np.eye(2), (C * n, 2, 2)).copy()
    copies = np.arange(C * n)
    copy_idx = copies[:, None]
    team_returns = np.zeros((C, cfg.episodes))
    agent_returns = np.zeros((C, cfg.episodes, n))
    team_delta = np.empty((C * n, T))

    for e in range(cfg.episodes):
        # Roll out one episode of every cell under the current (frozen)
        # policies.  With two actions, inverse-CDF sampling takes action 1
        # exactly when the draw is at least pi(0|s), so each step's action for
        # either local state is read off the episode's (T, n) block of policy
        # draws.  The rollout carries only each cell's coupling count
        # |s| + |a| = base + s . gain, an integer sum, so it is exact.
        probs = softmax(actor.forward(basis))            # (C*n, s, a)
        u_policy = np.stack([rng.random((T, n)) for rng in rng_policy], axis=1)
        u_env = np.stack([rng.random((T, n)) for rng in rng_env], axis=1)
        takes_one = (probs.reshape(C, n, 2, 2)[None, :, :, :, 0]
                     <= u_policy[..., None]).astype(np.int64)  # (T, C, n, s)
        base = takes_one[..., 0].sum(axis=2)              # (T, C)
        gain = 1 + takes_one[..., 1] - takes_one[..., 0]  # (T, C, n)
        traj = np.zeros((T + 1, C, n), dtype=np.int64)
        s = traj[0]
        for t in range(T):
            traj[t + 1] = u_env[t] < ((base[t] + (s * gain[t]).sum(axis=1))
                                      / (2.0 * n))[:, None]
            s = traj[t + 1]
        s_seq = traj[:-1].reshape(T, C * n)
        actions = takes_one.reshape(T, C * n, 2)[
            np.arange(T)[:, None], copies, s_seq]        # (T, C*n)
        # Float reductions run along a contiguous last axis, as in one cell.
        occupied = (s_seq + actions).reshape(T, C, n).sum(axis=2)
        coupling = np.ascontiguousarray(occupied.T) / (2.0 * n)   # (C, T)
        agent_returns[:, e, 0] = coupling.sum(axis=1)
        team_returns[:, e] = agent_returns[:, e].sum(axis=1) / n

        rewards_seq = np.zeros((C * n, T))
        rewards_seq[::n] = coupling
        s_seq = s_seq.T                                   # (C*n, T)
        sn_seq = traj[1:].reshape(T, C * n).T
        x_seq = basis[copy_idx, s_seq]                    # (C*n, T, 2) one-hot
        counts = x_seq.sum(axis=1)                        # (C*n, s)

        # Scores under the behaviour policy, before any update.
        score_ring[e % ring] = _score_table(actor, basis, probs)
        code_ring[e % ring] = 2 * s_seq + actions.T

        # Batch critic regression with periodically refreshed targets.
        for epoch in range(cfg.critic_epochs):
            current = _value_table(critic, basis)
            if epoch % cfg.target_refresh == 0:
                targets = rewards_seq + cfg.gamma * current[copy_idx, sn_seq]
                target_sums = (targets[:, None, :] @ x_seq)[:, 0]
            grad = _fit_gradient(critic, basis, current, target_sums, counts, T)
            critic.apply_update(cfg.critic_step * grad)
        _check_finite(critic, runs, e, "critic")

        # TD-error sequence of this episode under the trained critic.
        table = _value_table(critic, basis)
        delta = (rewards_seq + cfg.gamma * table[copy_idx, sn_seq]
                 - table[copy_idx, s_seq])               # (C*n, T)
        for rows, driver in zip(cells, drivers):
            team_delta[rows] = driver.tick(e, delta[rows])

        # Each cell whose cohort e - K is readable steps its actor along the
        # score table saved at that cohort, clamping after every step.
        live = np.flatnonzero(lags <= e)
        if live.size:
            cohort = (e - lags[live]) % ring
            scores = score_ring[cohort, live]             # (rows, 4, P)
            codes = code_ring[cohort, live]               # (rows, T)
            scaled = cfg.actor_step * team_delta[live]
            theta = actor.get_flat()
            step_rows = np.arange(live.size)
            live_theta = theta[live]
            for t in range(T):
                live_theta += scaled[:, t, None] * scores[step_rows, codes[:, t]]
                np.clip(live_theta, -cfg.theta_box, cfg.theta_box,
                        out=live_theta)
            theta[live] = live_theta
            actor.set_flat(theta)
        _check_finite(actor, runs, e, "actor")

    actor_params, critic_params = actor.get_flat(), critic.get_flat()
    return [RunResult(algorithm=algorithm.kind, seed=seed, K=driver.K,
                      team_returns=team_returns[c],
                      agent_returns=agent_returns[c],
                      updates_applied=np.arange(cfg.episodes) >= driver.K,
                      payload_slots=driver.payload_slots,
                      actor_params=actor_params[rows],
                      critic_params=critic_params[rows])
            for c, ((algorithm, seed), driver, rows)
            in enumerate(zip(runs, drivers, cells))]
