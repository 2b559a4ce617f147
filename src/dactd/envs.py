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
from functools import cached_property

import numpy as np

from .errors import CapacityError

# Largest global state or joint action space enumerate_model accepts: the
# oracle allocates (S, A) tables, 128 MiB each here.
STATE_CAP = 4096


@dataclass(frozen=True)
class JommdpSpec:
    """Size and discount of a team of N binary agents: S = A = 2^N."""

    n_agents: int
    gamma: float

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")

    @property
    def n_states(self) -> int:
        return 2 ** self.n_agents

    @property
    def n_actions(self) -> int:
        return 2 ** self.n_agents

    @cached_property
    def bits(self) -> np.ndarray:
        """(N, 2^N) read-only table: row i is agent i+1's local state in each
        global-state index, and its local action in each joint-action index."""
        bits = np.indices((2,) * self.n_agents, dtype=np.int64).reshape(
            self.n_agents, -1)
        bits.setflags(write=False)
        return bits

    def index_state(self, idx: int) -> np.ndarray:
        return self.bits[:, idx]


class CoupledEnv:
    """The coupled binary environment for any number of agents."""

    def __init__(self, n_agents: int, gamma: float = 0.9):
        self.spec = JommdpSpec(n_agents=n_agents, gamma=gamma)

    @property
    def n_agents(self) -> int:
        return self.spec.n_agents

    @property
    def gamma(self) -> float:
        return self.spec.gamma

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.n_agents, dtype=np.int64)

    def _validate(self, arr, name: str) -> np.ndarray:
        """arr as an (N,) int64 array of binary entries, copied only when
        it is not one already."""
        out = np.asarray(arr)
        if out.shape != (self.n_agents,):
            raise ValueError(f"{name} must have shape ({self.n_agents},), "
                             f"got {out.shape}")
        # An int64 entry is binary when no bit but the lowest is set.
        if out.dtype != np.int64 or np.count_nonzero(out & -2):
            if not ((out == 0) | (out == 1)).all():
                raise ValueError(f"{name} entries must be binary, got {out!r}")
            out = out.astype(np.int64)
        return out

    def coupling(self, s, a) -> float:
        """Shared Bernoulli parameter (1/2N) * sum_j (s_j + a_j) of a binary
        state and action."""
        # Binary entries: the coupling count is the number of ones.
        count = (np.count_nonzero(self._validate(s, "state"))
                 + np.count_nonzero(self._validate(a, "action")))
        return count / (2 * self.n_agents)

    def _rewards(self, q) -> np.ndarray:
        """Private rewards of coupling value(s) q, (N, *q.shape): agent 1
        earns the coupling value, the others zero."""
        r = np.zeros((self.n_agents, *np.shape(q)))
        r[0] = q
        return r

    def rewards(self, s, a) -> np.ndarray:
        return self._rewards(self.coupling(s, a))

    def step(self, s, a, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Sample the next state and return (s', rewards)."""
        q = self.coupling(s, a)
        s_next = (rng.random(self.n_agents) < q).astype(np.int64)
        return s_next, self._rewards(q)

    def count_model(self) -> tuple[np.ndarray, np.ndarray]:
        """Next-state law and private rewards of every coupling count
        c = |s| + |a| in 0..2N, as (2N+1, S) rows and (N, 2N+1) rewards."""
        n = self.n_agents
        q = np.arange(2 * n + 1) / (2 * n)
        per_agent = np.stack([1.0 - q, q], axis=1)[:, None, :]
        rows = np.ones((2 * n + 1, 1))
        for _ in range(n):
            rows = (rows[:, :, None] * per_agent).reshape(2 * n + 1, -1)
        return rows, self._rewards(q)


def micro_env(gamma: float = 0.9) -> CoupledEnv:
    """Two-agent instance, small enough for exact oracle computations."""
    return CoupledEnv(2, gamma)


@dataclass
class EnumeratedModel:
    """Coupled environment under a fixed joint policy, factorised by the
    coupling count c = |s| + |a|: the law of s' given (s, a) is
    count_transition[count_index[s, a]], with no (S, A, S) kernel formed."""

    spec: JommdpSpec
    local_policy: np.ndarray      # (N, 2, 2) pi_i(a_i | s_i) per agent
    policy_probs: np.ndarray      # (S, A) joint policy
    count_index: np.ndarray       # (S, A) coupling count |s| + |a|
    count_transition: np.ndarray  # (2N+1, S) next-state law per count
    count_rewards: np.ndarray     # (N, 2N+1) private rewards per count
    mass: np.ndarray = field(init=False)        # (S, 2N+1) policy mass
    rewards_pi: np.ndarray = field(init=False)  # (N, S) expected per state

    def __post_init__(self):
        # mass[s, c]: the policy mass of the actions a with |s| + |a| = c.
        S, C = self.count_index.shape[0], self.count_transition.shape[0]
        flat = (np.arange(S)[:, None] * C + self.count_index).ravel()
        self.mass = np.bincount(flat, weights=self.policy_probs.ravel(),
                                minlength=S * C).reshape(S, C)
        self.rewards_pi = self.count_rewards @ self.mass.T

    @cached_property
    def transition_pi(self) -> np.ndarray:  # (S, S), formed on first read
        return self.mass @ self.count_transition


def _local_policy_table(n_agents: int, local_policies) -> np.ndarray:
    """(N, 2, 2) table of pi_i(a_i | s_i), each policy's probs(0) and
    probs(1) read once."""
    rows = [np.asarray(pol.probs(s), dtype=np.float64)
            for pol in local_policies for s in (0, 1)]
    if len(rows) != 2 * n_agents or any(row.shape != (2,) for row in rows):
        raise ValueError(f"one two-action local policy per agent required: "
                         f"got {len(local_policies)} for {n_agents} agents")
    return np.array(rows).reshape(n_agents, 2, 2)


def enumerate_model(env: CoupledEnv, local_policies) -> EnumeratedModel:
    """Exact count-factorised model of env under per-agent local policies.

    local_policies is one object per agent exposing probs(s_local) -> its
    two action probabilities, read once into model.local_policy.  Allocates
    the (S, A) joint policy and count index, the (2N+1, S) count rows and
    the (S, 2N+1) count mass.  Raises CapacityError when S = A > STATE_CAP.
    """
    spec = env.spec
    n, S = spec.n_agents, spec.n_states
    if S > STATE_CAP:
        raise CapacityError(
            f"global spaces ({S} states, {S} actions) exceed cap {STATE_CAP}:"
            f" the oracle allocates (S, A) policy tables")
    local = _local_policy_table(n, local_policies)
    # Product over agents of pi_i(a_i | s_i), each agent's table broadcast
    # over the (s_1..s_N, a_1..a_N) bit axes in turn.
    joint = np.ones((1,) * (2 * n))
    for i in range(n):
        shape = [1] * (2 * n)
        shape[i] = shape[n + i] = 2
        joint = joint * local[i].reshape(shape)
    policy = joint.reshape(S, S)
    counts = spec.bits.sum(axis=0)
    count_transition, count_rewards = env.count_model()

    if not np.allclose(count_transition.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("transition kernel rows must sum to 1")
    if not np.allclose(policy.sum(axis=1), 1.0, atol=1e-10):
        raise ValueError("joint policy rows must sum to 1")
    return EnumeratedModel(spec=spec, local_policy=local, policy_probs=policy,
                           count_index=counts[:, None] + counts,
                           count_transition=count_transition,
                           count_rewards=count_rewards)
