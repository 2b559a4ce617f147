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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError

# Largest global state space enumerate_model accepts.  The oracle forms no
# (S, A) or (S, S) array, so the cap bounds only its S-sized outputs.
STATE_CAP = 4096


class CoupledEnv:
    """The coupled binary environment of N agents: S = A = 2^N."""

    def __init__(self, n_agents: int, gamma: float = 0.9):
        if n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if not (0.0 <= gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        self.n_agents = n_agents
        self.gamma = gamma

    @property
    def n_states(self) -> int:
        return 2 ** self.n_agents

    @cached_property
    def bits(self) -> np.ndarray:
        """(N, 2^N) read-only table: row i is agent i+1's local state in each
        global-state index, and its local action in each joint-action index."""
        bits = np.indices((2,) * self.n_agents, dtype=np.int64).reshape(
            self.n_agents, -1)
        bits.setflags(write=False)
        return bits

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
    """Coupled environment under fixed local policies, factorised by the
    coupling count c = |s| + |a|: the kernel under the policy is P = M Q,
    M = ``mass`` (row s: the law of |a| given s, shifted by |s|) and
    Q = ``count_transition``; no (S, A) or (S, S) array is formed."""

    spec: CoupledEnv              # the environment
    local_policy: np.ndarray      # (N, 2, 2) pi_i(a_i | s_i) per agent
    count_transition: np.ndarray  # (2N+1, S) next-state law per count
    count_rewards: np.ndarray     # (N, 2N+1) private rewards per count
    mass: np.ndarray              # (S, 2N+1) policy mass per count
    rewards_pi: np.ndarray        # (N, S) expected private rewards


def count_laws(local: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """(N+1, N+1, S) prefix laws: law[i, k, s] is the probability, given s,
    that k of agents 1..i act 1.  Agent by agent, law[i+1, k] =
    law[i, k] pi_i(0|s_i) + law[i, k-1] pi_i(1|s_i), both factors read from
    the (N, 2, 2) table (never as 1 - p)."""
    n, S = bits.shape
    q = np.where(bits[:, None], local[:, 1, :, None], local[:, 0, :, None])
    law = np.zeros((n + 1, n + 1, S))
    law[0, 0] = 1.0
    for i in range(n):
        law[i + 1, :i + 1] = law[i, :i + 1] * q[i, 0]
        law[i + 1, 1:i + 2] += law[i, :i + 1] * q[i, 1]
    return law


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
    """Exact count-factorised model of env under per-agent local policies,
    each read once through probs(s_local) into model.local_policy.  Raises
    ValueError for a row that is not a distribution (an entry < 0, or a sum
    off 1 by more than 1e-10) and CapacityError when S > STATE_CAP."""
    n, S = env.n_agents, env.n_states
    if S > STATE_CAP:
        raise CapacityError(
            f"global state space ({S} states) exceeds cap {STATE_CAP}: the"
            f" oracle returns S-sized laws, values and feature tables")
    local = _local_policy_table(n, local_policies)
    bad = (local < 0).any(axis=2) | ~(np.abs(local.sum(axis=2) - 1.0) <= 1e-10)
    if bad.any():
        i, s_local = np.argwhere(bad)[0]
        raise ValueError(f"agent {i + 1}'s policy in local state {s_local} "
                         f"is not a distribution: {local[i, s_local]}")
    count_transition, count_rewards = env.count_model()
    if not np.allclose(count_transition.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("transition kernel rows must sum to 1")
    mass = np.zeros((S, 2 * n + 1))
    mass[np.arange(S)[:, None], env.bits.sum(axis=0)[:, None]
         + np.arange(n + 1)] = count_laws(local, env.bits)[n].T
    return EnumeratedModel(env, local, count_transition, count_rewards, mass,
                           count_rewards @ mass.T)
