"""Exact reference computations on enumerable environments.

Everything here is dense 64-bit linear algebra on the count-factorised model
of :func:`dactd.envs.enumerate_model`, whose kernel under the policy is
P = M Q (M the (S, 2N+1) policy mass per coupling count, Q the count rows):
stationary distributions and value functions, solved on the (2N+1)-state
count chain Q M with no (S, S) system, the linear-critic fixed point the
online updates converge to and its projected drift, exhaustive
policy-gradient directions from per-count weights and count laws, and the
correction terms that separate the learned update direction from the exact
gradient when critics only see local state.  No (S, A) or (S, S) array is
formed.  These are the ground truth for every convergence and bias test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import (EnumeratedModel, JommdpSpec, _local_policy_table,
                   count_laws)
from .errors import ModelError, RankError


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique probability vector d with d P = d, residual <= 1e-12.

    Decided exactly on P's support: a state is recurrent when every state
    it reaches reaches it back, and ModelError is raised unless the
    recurrent states form one class.  On it d comes from GTH state reduction
    (Grassmann, Taksar and Heyman, 1985), which reads only off-diagonal
    entries and subtracts nothing; transient states get exactly 0.
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("transition matrix must be square")
    if not np.allclose(P.sum(axis=1), 1.0, atol=1e-10) or (P < -1e-15).any():
        raise ValueError("transition matrix rows must be distributions")

    # Reachability: square the support until it covers paths of n - 1 steps.
    reach = (P > 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        r = reach.astype(np.float32)
        reach = r @ r > 0
    closed = np.flatnonzero(~(reach & ~reach.T).any(axis=1))
    if not reach[np.ix_(closed, closed)].all():
        raise ModelError("stationary law is not unique: the chain has more "
                         "than one closed class")
    A = P[np.ix_(closed, closed)]    # a copy, reduced in place
    for k in range(len(A) - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.ones(len(A))
    for k in range(1, len(A)):
        x[k] = x[:k] @ A[:k, k]
    d = np.zeros(n)
    d[closed] = x / x.sum()
    if not np.max(np.abs(d @ P - d)) <= 1e-12:     # NaN fails too
        raise ModelError("stationary distribution residual above tolerance")
    return d


def value_functions(model: EnumeratedModel) -> np.ndarray:
    """True per-agent values V^i(s) = E[sum_t gamma^t r^i_t | s], (N, S),
    by (I - gamma M Q)^{-1} M = M (I - gamma Q M)^{-1}: one (2N+1)-sized
    solve on the count rewards, with no unique stationary law needed."""
    M, Q = model.mass, model.count_transition
    return (M @ np.linalg.solve(np.eye(len(Q)) - model.spec.gamma * (Q @ M),
                                model.count_rewards.T)).T


@dataclass
class ExactSolution:
    """Stationary law and exact values of a model under its policies."""

    model: EnumeratedModel
    d_pi: np.ndarray            # (S,)
    v_agents: np.ndarray        # (N, S) per-agent true values
    v_team: np.ndarray          # (S,) value of the team-average reward


def solve_model(model: EnumeratedModel) -> ExactSolution:
    """Stationary law d = mu Q from the count chain R = Q M: mu R = mu gives
    d P = mu R Q = d, and P = M Q has R's nonzero eigenvalues with
    multiplicity (Horn and Johnson, Matrix Analysis, 1.3), so P's law is
    unique exactly when R's is.  The residual is checked as (d M) Q - d."""
    M, Q = model.mass, model.count_transition
    d = stationary_distribution(Q @ M) @ Q
    if not np.max(np.abs((d @ M) @ Q - d)) <= 1e-12:
        raise ModelError("stationary distribution residual above tolerance")
    v_agents = value_functions(model)
    return ExactSolution(model=model, d_pi=d, v_agents=v_agents,
                         v_team=v_agents.mean(axis=0))


def _check_agent(spec: JommdpSpec, agent: int) -> None:
    if not (1 <= agent <= spec.n_agents):
        raise ValueError(f"agent id {agent} outside 1..{spec.n_agents}")


def feature_matrix(spec: JommdpSpec, agent: int,
                   local: np.ndarray) -> np.ndarray:
    """Features of every global state: row s is phi(s^agent), the row of the
    (2, dim) table ``local`` at the agent's own bit of s."""
    _check_agent(spec, agent)
    local = np.asarray(local, dtype=np.float64)
    if local.ndim != 2 or len(local) != 2:
        raise ValueError(f"feature table of shape {local.shape} needs one row "
                         f"per local state of agent {agent}")
    return local[spec.bits[agent - 1]]


def projected_drift(model: EnumeratedModel, d_pi: np.ndarray,
                    Phi: np.ndarray) -> np.ndarray:
    """Phi^T D (gamma P - I) Phi, D = diag(d_pi): the drift of linear TD(0)
    on features Phi (Tsitsiklis and Van Roy, 1997), with P Phi = M (Q Phi)."""
    dPhi = d_pi[:, None] * Phi
    P_Phi = model.mass @ (model.count_transition @ Phi)
    return model.spec.gamma * (dPhi.T @ P_Phi) - dPhi.T @ Phi


def drift_eigenvalue(model: EnumeratedModel, d_pi: np.ndarray) -> float:
    """Largest real eigenvalue part over the agents' projected drifts on
    tabular features of their own local state."""
    return max(float(np.linalg.eigvals(projected_drift(
        model, d_pi, feature_matrix(model.spec, i, np.eye(2)))).real.max())
        for i in range(1, model.spec.n_agents + 1))


def critic_fixed_point(model: EnumeratedModel, d_pi: np.ndarray, agent: int,
                       Phi: np.ndarray) -> np.ndarray:
    """Weights the linear critic of one agent converges to.

    Solves  A v = -Phi^T D r_hat  densely, with A the projected drift and
    r_hat the agent's expected private reward per state.  Raises ValueError
    for an agent id outside 1..N, and RankError when Phi is column-rank
    deficient or the system is singular beyond tolerance.
    """
    _check_agent(model.spec, agent)
    if Phi.shape[0] != model.spec.n_states:
        raise ValueError("feature matrix must have one row per global state")
    if np.linalg.matrix_rank(Phi) < Phi.shape[1]:
        raise RankError("feature matrix has linearly dependent columns")
    A = projected_drift(model, d_pi, Phi)
    b = -((d_pi[:, None] * Phi).T @ model.rewards_pi[agent - 1])
    try:
        v = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"critic fixed-point system is singular: {exc}") from exc
    if np.max(np.abs(A @ v - b)) > 1e-10:
        raise RankError("critic fixed-point residual above 1e-10")
    return v


# ---------------------------------------------------------------------------
# Exhaustive update directions and bias decomposition
# ---------------------------------------------------------------------------

def _direction(solution: ExactSolution, g: np.ndarray) -> list[np.ndarray]:
    """Per-agent exhaustive expectation of (g(|s| + |a|) - V(s)) score_i
    under d_pi and the policy, for tabular softmax scorers and any V: the
    score onehot(a_i) - pi_i(.|s_i) has mean zero, so V drops out.  With
    L_i(k|s) the law of how many agents but i act 1, agent i's weights
      w_i[x, y] = pi_i(y|x) sum_{s: s_i = x} d(s) sum_k L_i(k|s) g(|s| + y + k)
    give the direction w_i - w_i.sum(1) * pi_i, whose row x is (-z, z) for
      z = pi_i(0|x) pi_i(1|x) sum_{s: s_i = x} d(s) sum_k L_i(k|s) dg(|s| + k)
    with dg(c) = g(c + 1) - g(c)."""
    model = solution.model
    n, bits, pi = model.spec.n_agents, model.spec.bits, model.local_policy
    law = count_laws(pi, bits, leave_one_out=True)[:n, 1:]
    dg = np.diff(g)[bits.sum(axis=0)[:, None] + np.arange(n)]   # (S, k)
    h = np.einsum("kis,sk->is", law, dg) * solution.d_pi
    E = np.stack([1 - bits, bits], axis=1).astype(np.float64)  # (N, 2, S)
    z = np.einsum("ixs,is->ix", E, h) * pi[:, :, 0] * pi[:, :, 1]
    return list(np.stack([-z, z], axis=2).reshape(n, 4))


def _team_critic(solution: ExactSolution, critic_tables) -> np.ndarray:
    tables = np.asarray(critic_tables, dtype=np.float64)
    if tables.shape != solution.v_agents.shape:
        raise ValueError(f"critic tables of shape {tables.shape}, not one row "
                         f"of S values per agent {solution.v_agents.shape}")
    return tables.mean(axis=0)


def update_direction(solution: ExactSolution,
                     critic_tables: np.ndarray) -> list[np.ndarray]:
    """Exhaustive expected actor-update direction per agent when TD errors
    are computed from critic_tables ((N, S) values per agent, already
    broadcast to global states)."""
    model = solution.model
    return _direction(solution, model.count_rewards.mean(axis=0)
                      + model.spec.gamma * model.count_transition
                      @ _team_critic(solution, critic_tables))


def exact_policy_gradient(solution: ExactSolution, policies) -> list[np.ndarray]:
    """The exact gradient direction: update_direction evaluated with the
    true per-agent values.  Raises ValueError unless policies read back bit
    for bit as model.local_policy, the ones the model was enumerated under."""
    local = _local_policy_table(solution.model.spec.n_agents, policies)
    if not np.array_equal(local, solution.model.local_policy):
        raise ValueError("policies differ from the ones the model was "
                         "enumerated under")
    return update_direction(solution, solution.v_agents)


def correction_terms(solution: ExactSolution,
                     critic_tables: np.ndarray) -> list[np.ndarray]:
    """Per-agent bias of the update direction caused by critic mismatch.

    With dV = mean_j(critic_j) - v_team as a global-state table, the bias
    weight per (s, a) is gamma E[dV(s')|s,a] - dV(s); by linearity
    update_direction(critics) = exact gradient + these terms.
    """
    model = solution.model
    dV = _team_critic(solution, critic_tables) - solution.v_team
    return _direction(solution, model.spec.gamma * model.count_transition @ dV)
