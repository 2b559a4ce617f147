"""Jointly observable multi-agent environments.

The global state is the concatenation of per-agent local states; during
simulation each agent is shown only its own coordinate (plus its private
reward).  The concrete family used throughout is the coupled binary
environment: every agent has a binary local state and action, the next
local-state bits are drawn i.i.d. given the global (s, a) with

    p(s'_i = 1 | s, a) = (1 / 2N) * sum_j (s_j + a_j)

and only agent 1 is rewarded, with the same expression as its reward.
Both depend on (s, a) only through the coupling count |s| + |a|.  Episodes
start from the all-zeros state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import CapacityError

# Largest global state or joint action space enumerate_model accepts: the
# oracle allocates (S, A) tables and solves (S, S) systems, 128 MiB each here.
STATE_CAP = 4096


@dataclass(frozen=True)
class JommdpSpec:
    """Sizes and discount of a finite jointly observable multi-agent MDP."""

    n_agents: int
    local_state_sizes: tuple[int, ...]
    local_action_sizes: tuple[int, ...]
    gamma: float

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if len(self.local_state_sizes) != self.n_agents:
            raise ValueError("one local state size per agent required")
        if len(self.local_action_sizes) != self.n_agents:
            raise ValueError("one local action size per agent required")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")

    @property
    def n_states(self) -> int:
        return prod(self.local_state_sizes)

    @property
    def n_actions(self) -> int:
        return prod(self.local_action_sizes)

    def index_state(self, idx: int) -> np.ndarray:
        return np.array(np.unravel_index(idx, self.local_state_sizes), dtype=np.int64)


class CoupledEnv:
    """The coupled binary environment for any number of agents."""

    def __init__(self, n_agents: int, gamma: float = 0.9):
        self.spec = JommdpSpec(
            n_agents=n_agents,
            local_state_sizes=(2,) * n_agents,
            local_action_sizes=(2,) * n_agents,
            gamma=gamma,
        )

    @property
    def n_agents(self) -> int:
        return self.spec.n_agents

    @property
    def gamma(self) -> float:
        return self.spec.gamma

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.n_agents, dtype=np.int64)

    def _validate(self, arr, name: str) -> np.ndarray:
        out = np.asarray(arr)
        if out.shape != (self.n_agents,):
            raise ValueError(f"{name} must have shape ({self.n_agents},), "
                             f"got {out.shape}")
        if not ((out == 0) | (out == 1)).all():
            raise ValueError(f"{name} entries must be binary, got {out!r}")
        return out.astype(np.int64)

    def coupling(self, s, a) -> float:
        """Shared Bernoulli parameter (1/2N) * sum_j (s_j + a_j)."""
        return float((np.sum(s) + np.sum(a)) / (2 * self.n_agents))

    def rewards(self, s, a) -> np.ndarray:
        """Private rewards: agent 1 earns the coupling value, others zero."""
        r = np.zeros(self.n_agents)
        r[0] = self.coupling(s, a)
        return r

    def step(self, s, a, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Sample the next state and return (s', rewards)."""
        s = self._validate(s, "state")
        a = self._validate(a, "action")
        rewards = self.rewards(s, a)         # agent 1 earns the coupling
        s_next = (rng.random(self.n_agents) < rewards[0]).astype(np.int64)
        return s_next, rewards

    def count_model(self) -> tuple[np.ndarray, np.ndarray]:
        """Next-state law and private rewards of every coupling count
        c = |s| + |a| in 0..2N, as (2N+1, S) rows and (N, 2N+1) rewards."""
        n = self.n_agents
        q = np.arange(2 * n + 1) / (2 * n)
        per_agent = np.stack([1.0 - q, q], axis=1)[:, None, :]
        rows = np.ones((2 * n + 1, 1))
        for _ in range(n):
            rows = (rows[:, :, None] * per_agent).reshape(2 * n + 1, -1)
        rewards = np.zeros((n, 2 * n + 1))
        rewards[0] = q
        return rows, rewards


def micro_env(gamma: float = 0.9) -> CoupledEnv:
    """Two-agent instance, small enough for exact oracle computations."""
    return CoupledEnv(2, gamma)


@dataclass
class EnumeratedModel:
    """Coupled environment under a fixed joint policy, factorised by the
    coupling count c = |s| + |a|: the law of s' given (s, a) is
    count_transition[count_index[s, a]], with no (S, A, S) kernel formed."""

    spec: JommdpSpec
    policy_probs: np.ndarray      # (S, A) joint policy
    count_index: np.ndarray       # (S, A) coupling count |s| + |a|
    count_transition: np.ndarray  # (2N+1, S) next-state law per count
    count_rewards: np.ndarray     # (N, 2N+1) private rewards per count
    transition_pi: np.ndarray = field(init=False)   # (S, S)
    rewards_pi: np.ndarray = field(init=False)      # (N, S) expected per state

    def __post_init__(self):
        # mass[s, c]: the policy mass of the actions a with |s| + |a| = c.
        S, C = self.count_index.shape[0], self.count_transition.shape[0]
        flat = (np.arange(S)[:, None] * C + self.count_index).ravel()
        mass = np.bincount(flat, weights=self.policy_probs.ravel(),
                           minlength=S * C).reshape(S, C)
        self.transition_pi = mass @ self.count_transition
        self.rewards_pi = self.count_rewards @ mass.T


def joint_policy_probs(spec: JommdpSpec, local_policies) -> np.ndarray:
    """(S, A) joint policy: product over agents of pi_i(a_i | s_i), each
    agent's table broadcast over the (S_1..S_N, A_1..A_N) axes in turn."""
    if len(local_policies) != spec.n_agents:
        raise ValueError("one local policy per agent required")
    n = spec.n_agents
    joint = np.ones((1,) * (2 * n))
    for i, pol in enumerate(local_policies):
        table = np.array([pol.probs(s)
                          for s in range(spec.local_state_sizes[i])],
                         dtype=np.float64)
        shape = [1] * (2 * n)
        shape[i], shape[n + i] = table.shape
        joint = joint * table.reshape(shape)
    return joint.reshape(spec.n_states, spec.n_actions)


def enumerate_model(env: CoupledEnv, local_policies,
                    cap: int = STATE_CAP) -> EnumeratedModel:
    """Exact count-factorised model of env under per-agent local policies.

    local_policies is one object per agent exposing probs(s_local) -> array
    over that agent's actions.  Allocates the (S, A) joint policy and count
    index, the (2N+1, S) count rows and the (S, S) kernel under the policy.
    Raises CapacityError when the global state or action space exceeds cap.
    """
    spec = env.spec
    S, A = spec.n_states, spec.n_actions
    if S > cap or A > cap:
        raise CapacityError(
            f"global spaces ({S} states, {A} actions) exceed cap {cap}: the "
            f"oracle allocates (S, A) policy tables and solves (S, S) systems")
    policy = joint_policy_probs(spec, local_policies)
    state_counts = np.indices(spec.local_state_sizes).sum(axis=0).reshape(S, 1)
    action_counts = np.indices(spec.local_action_sizes).sum(axis=0).reshape(A)
    count_transition, count_rewards = env.count_model()

    if not np.allclose(count_transition.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("transition kernel rows must sum to 1")
    if not np.allclose(policy.sum(axis=1), 1.0, atol=1e-10):
        raise ValueError("joint policy rows must sum to 1")
    return EnumeratedModel(spec=spec, policy_probs=policy,
                           count_index=state_counts + action_counts,
                           count_transition=count_transition,
                           count_rewards=count_rewards)
