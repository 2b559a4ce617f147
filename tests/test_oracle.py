"""Exact reference solutions: stationary laws, values, fixed points, gradients."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dactd.config import ExperimentConfig
from dactd.envs import CoupledEnv, enumerate_model, micro_env
from dactd.errors import ModelError, RankError
from dactd.funcapprox import (TabularSoftmaxPolicy, max_relative_error,
                              tabular_features)
from dactd.oracle import (correction_terms, critic_fixed_point,
                          drift_eigenvalue, exact_policy_gradient,
                          feature_matrix, projected_drift, solve_model,
                          stationary_distribution, update_direction,
                          value_functions)

from helpers import FixedTablePolicy


def _uniform_policies():
    return [TabularSoftmaxPolicy(2, 2) for _ in range(2)]


def _uniform_model():
    return enumerate_model(micro_env(), _uniform_policies())


def _uniform_kernel():
    return _ref_kernel(micro_env(), _uniform_policies())


def surrogate_objective(env, d_frozen, critic_tables, local_policies):
    """Scalar objective whose policy gradient equals update_direction when
    the state distribution and critics are frozen:

        J'(theta) = sum_s d(s) sum_a pi_theta(a|s) * delta_hat(s, a)

    computed on the dense (S, A) references."""
    policy, transition_sa, rewards_sa = _ref_enumerate(env, local_policies)
    table = _ref_advantage(env, transition_sa, rewards_sa,
                           np.asarray(critic_tables))
    return float(d_frozen @ (policy * table).sum(axis=1))


def _random_policies(seed=42, n=2):
    rng = np.random.default_rng(seed)
    return [TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
            for _ in range(n)]


def _three_agent_solution():
    policies = _random_policies(13, n=3)
    return solve_model(enumerate_model(CoupledEnv(3), policies)), policies


# ---------------------------------------------------------------------------
# Slow references: the per-(s, a) loops and the (S, A) joint policy the
# count-factorised model replaced, and the (S, S) solves the count chain
# replaced.  Every dense (S, S) kernel in this file comes from them.
# ---------------------------------------------------------------------------

def _ref_bordered_law(P):
    """np.linalg.solve on P^T - I with its last row replaced by ones and
    right-hand side e_S, clipped at zero and renormalised."""
    n = P.shape[0]
    M = P.T - np.eye(n)
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    d = np.clip(np.linalg.solve(M, b), 0.0, None)
    return d / d.sum()


def _ref_values(model, P):
    """Per-agent values from the (S, S) system (I - gamma P) V^T = R^T."""
    S = model.spec.n_states
    return np.linalg.solve(np.eye(S) - model.spec.gamma * P,
                           model.rewards_pi.T).T


def _bits_of(spec, ai):
    return np.array(np.unravel_index(ai, (2,) * spec.n_agents))


def _ref_next_state_probs(env, s, a):
    q = env.coupling(s, a)
    per_agent = np.array([1.0 - q, q])
    out = np.array([1.0])
    for _ in range(env.n_agents):
        out = np.outer(out, per_agent).ravel()
    return out


def _ref_joint_policy_probs(spec, local_policies):
    S = A = spec.n_states
    policy = np.zeros((S, A))
    for si in range(S):
        s = _bits_of(spec, si)
        joint = np.array([1.0])
        for i in range(spec.n_agents):
            probs_i = np.asarray(local_policies[i].probs(int(s[i])),
                                 dtype=np.float64)
            joint = np.outer(joint, probs_i).ravel()
        policy[si] = joint
    return policy


def _ref_mass(spec, local_policies):
    """(S, 2N+1) policy mass of each coupling count |s| + |a|, summed from
    the dense joint policy."""
    policy = _ref_joint_policy_probs(spec, local_policies)
    counts = spec.bits.sum(axis=0)
    mass = np.zeros((spec.n_states, 2 * spec.n_agents + 1))
    np.add.at(mass, (np.arange(spec.n_states)[:, None],
                     counts[:, None] + counts), policy)
    return mass


def _ref_kernel(env, local_policies):
    """(S, S) kernel under the policy: the dense mass times the count rows."""
    return _ref_mass(env, local_policies) @ env.count_model()[0]


def _ref_advantage(spec, transition_sa, rewards_sa, values):
    """(S, A) expected team TD error under the mean of the value tables."""
    meanV = values.mean(axis=0)
    return (rewards_sa.mean(axis=0) + spec.gamma * transition_sa @ meanV
            - meanV[:, None])


def _ref_enumerate(env, local_policies):
    """Dense (S, A) policy, (S, A, S) kernel and (N, S, A) rewards."""
    S = A = env.n_states
    policy = _ref_joint_policy_probs(env, local_policies)
    transition_sa = np.zeros((S, A, S))
    rewards_sa = np.zeros((env.n_agents, S, A))
    actions = [_bits_of(env, ai) for ai in range(A)]
    for si in range(S):
        s = _bits_of(env, si)
        for ai, a in enumerate(actions):
            transition_sa[si, ai] = _ref_next_state_probs(env, s, a)
            rewards_sa[:, si, ai] = env.rewards(s, a)
    return policy, transition_sa, rewards_sa


def _ref_direction_from_table(spec, policy_probs, d_pi, table_sa, policies):
    w_sa = d_pi[:, None] * policy_probs * table_sa
    states = [_bits_of(spec, si) for si in range(spec.n_states)]
    actions = states
    out = []
    for i, pol in enumerate(policies):
        w_local = np.zeros((2, 2))
        for si, s in enumerate(states):
            for ai, a in enumerate(actions):
                w_local[s[i], a[i]] += w_sa[si, ai]
        g = np.zeros(pol.get_flat().size)
        for sl in range(2):
            for al in range(2):
                if w_local[sl, al] != 0.0:
                    g += w_local[sl, al] * pol.score(sl, al)
        out.append(g)
    return out


def _ref_feature_matrix(spec, agent, local):
    rows = []
    for si in range(spec.n_states):
        s = _bits_of(spec, si)
        rows.append(local[int(s[agent - 1])])
    return np.array(rows)



# ---------------------------------------------------------------------------
# Stationary distributions
# ---------------------------------------------------------------------------

def test_symmetric_two_state_chain():
    P = np.array([[0.7, 0.3], [0.3, 0.7]])
    assert stationary_distribution(P) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_identity_chain_is_rejected_as_reducible():
    with pytest.raises(ModelError):
        stationary_distribution(np.eye(2))


def test_fixed_point_residual_is_tiny():
    P = _uniform_kernel()
    d = stationary_distribution(P)
    assert np.abs(d @ P - d).max() <= 1e-12
    assert d.sum() == pytest.approx(1.0, abs=1e-12)
    assert (d > 0).all()


def test_uniform_policy_occupancy_is_known_exactly():
    d = stationary_distribution(_uniform_kernel())
    assert d == pytest.approx([9 / 28, 5 / 28, 5 / 28, 9 / 28], abs=1e-12)


def test_occupancy_matches_a_long_simulation():
    P = _uniform_kernel()
    d = stationary_distribution(P)
    # 1,000 chains walked side by side, one inverse-CDF step per tick; the
    # last 1,000 of their 1,050 steps give 10^6 counted states.
    cum = np.cumsum(P, axis=1)[:, :-1]
    rng = np.random.default_rng(99)
    counts = np.zeros(4)
    s = np.zeros(1000, dtype=np.int64)
    for t in range(1050):
        if t >= 50:
            counts += np.bincount(s, minlength=4)
        s = (cum[s] <= rng.random((1000, 1))).sum(axis=1)
    assert counts.sum() == 1_000_000
    assert np.abs(counts / counts.sum() - d).max() < 0.005


# ---------------------------------------------------------------------------
# The uniqueness decision against an exact count of unit eigenvalues
# ---------------------------------------------------------------------------

def _exact_law(P):
    """Stationary law, as Fractions, of the chain whose off-diagonal entries
    are P's (each diagonal entry is 1 minus its row's off-diagonal sum), or
    None when eigenvalue 1 of that chain is not simple.

    Gauss-Jordan elimination in rational arithmetic on P^T - I with its last
    row replaced by ones and right-hand side e_S.  The dropped row is implied
    by the others, so the system is singular exactly when the chain has more
    than one stationary law."""
    n = len(P)
    F = [[Fraction(float(x)) for x in row] for row in P]
    for i in range(n):
        F[i][i] = 1 - (sum(F[i]) - F[i][i])
    A = ([[F[j][i] - (i == j) for j in range(n)] + [Fraction(0)]
          for i in range(n - 1)] + [[Fraction(1)] * (n + 1)])
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return None
        A[col], A[pivot] = A[pivot], A[col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col] / A[col][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[i][n] / A[i][i] for i in range(n)]


def _two_block_chain(S, leak):
    """Two random blocks of S/2 states; each row moves ``leak`` of its mass
    uniformly onto the other block, so the second eigenvalue is 1 - 2 leak
    and each block holds half the stationary mass."""
    rng = np.random.default_rng(S)
    h = S // 2
    P = np.full((S, S), leak / h)
    for lo in (0, h):
        B = rng.random((h, h))
        P[lo:lo + h, lo:lo + h] = (1.0 - leak) * B / B.sum(axis=1,
                                                            keepdims=True)
    return P


def _clamped_team_chain(n, L):
    """CoupledEnv(n) under copy-state policies with logits [[L, -L], [-L, L]]
    (the tables a team reaches at theta_box = L): the all-zeros and all-ones
    states become nearly absorbing as L grows, and the chain is symmetric
    under flipping every bit."""
    table = np.array([[L, -L], [-L, L]], dtype=np.float64)
    policies = [TabularSoftmaxPolicy(2, 2, logits=table) for _ in range(n)]
    return _ref_kernel(CoupledEnv(n), policies)


# (name, chain, accepted): accepted when eigenvalue 1 is simple.  Every
# blocks and team chain has full support, so it is irreducible however close
# to reducible its leak or its logits make it.
UNIQUENESS_CHAINS = (
    [(f"blocks-S{S}-leak{leak:g}", _two_block_chain(S, leak), True)
     for S in (8, 128) for leak in (1e-3, 1e-6, 1e-8, 1e-10, 1e-13)]
    + [(f"team-N{n}-L{L}", _clamped_team_chain(n, L), True)
       for n in (2, 5, 7) for L in (2, 4, 6, 8, 9, 10, 12)]
    + [("identity", np.eye(2), False),
       ("two-cycle", np.array([[0.0, 1.0], [1.0, 0.0]]), True),
       ("transient-state", np.array([[0.5, 0.5, 0.0],
                                     [0.0, 0.3, 0.7],
                                     [0.0, 0.6, 0.4]]), True),
       ("transient-state-last", np.array([[0.2, 0.8, 0.0],
                                          [0.9, 0.1, 0.0],
                                          [0.3, 0.3, 0.4]]), True),
       ("two-closed-classes-and-a-transient-state",
        np.array([[0.4, 0.6, 0.0, 0.0, 0.0],
                  [0.7, 0.3, 0.0, 0.0, 0.0],
                  [0.1, 0.0, 0.6, 0.0, 0.3],
                  [0.0, 0.0, 0.0, 0.5, 0.5],
                  [0.0, 0.0, 0.0, 0.2, 0.8]]), False)])


@pytest.mark.parametrize("name, P, accepted",
                         [pytest.param(name, P, a, id=name)
                          for name, P, a in UNIQUENESS_CHAINS])
def test_uniqueness_decision_matches_the_eigenvalue_count(name, P, accepted,
                                                          monkeypatch):
    """For S <= 16 the count is exact and d must match the exact rational
    law entrywise, with exact zeros on transient states; above that size
    the law must have the symmetry its chain has."""
    exact = _exact_law(P) if len(P) <= 16 else None
    if len(P) <= 16:
        assert (exact is not None) == accepted

    def no_eigendecomposition(*args, **kwargs):
        raise AssertionError("stationary_distribution ran an eigensolver")

    for fn in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, fn, no_eigendecomposition)
    if not accepted:
        with pytest.raises(ModelError):
            stationary_distribution(P)
        return
    d = stationary_distribution(P)
    if exact is not None:
        for got, want in zip(d, exact):
            assert abs(Fraction(float(got)) - want) <= Fraction(1e-15) * want
    elif name.startswith("blocks"):
        h = len(P) // 2
        assert d[:h].sum() == pytest.approx(0.5, abs=1e-12)
        assert d[h:].sum() == pytest.approx(0.5, abs=1e-12)
    else:
        assert (np.abs(d - d[::-1]) <= 1e-12 * d).all()


# ---------------------------------------------------------------------------
# Value functions
# ---------------------------------------------------------------------------

def test_private_value_tables_under_the_uniform_policy():
    sol = solve_model(_uniform_model())
    assert sol.v_agents[0] == pytest.approx([50 / 11, 5.0, 5.0, 60 / 11],
                                            abs=1e-10)
    assert np.abs(sol.v_agents[1]).max() <= 1e-12
    assert sol.v_team == pytest.approx(sol.v_agents[0] / 2, abs=1e-12)


def test_values_solve_the_bellman_equations():
    model = _uniform_model()
    P = _uniform_kernel()
    v = value_functions(model)
    for i in range(2):
        lhs = v[i]
        rhs = model.rewards_pi[i] + model.spec.gamma * P @ v[i]
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_all_ones_is_the_best_deterministic_policy():
    env = micro_env()
    tables = [np.array([[1.0, 0.0], [1.0, 0.0]]),   # always 0
              np.array([[0.0, 1.0], [0.0, 1.0]]),   # always 1
              np.array([[1.0, 0.0], [0.0, 1.0]]),   # copy state
              np.array([[0.0, 1.0], [1.0, 0.0]])]   # flip state
    start = 0                                        # the all-zeros state
    scores = {}
    for i, ta in enumerate(tables):
        for j, tb in enumerate(tables):
            model = enumerate_model(env, [FixedTablePolicy(ta),
                                          FixedTablePolicy(tb)])
            team = value_functions(model).mean(axis=0)
            scores[(i, j)] = team[start]
    best = max(scores, key=scores.get)
    assert best == (1, 1)
    runner_up = max(v for k, v in scores.items() if k != (1, 1))
    assert scores[(1, 1)] > runner_up


# ---------------------------------------------------------------------------
# Critic fixed points
# ---------------------------------------------------------------------------

def test_myopic_fixed_point_is_the_reward_vector():
    env = micro_env(gamma=0.0)
    model = enumerate_model(env, _uniform_policies())
    d = stationary_distribution(_ref_kernel(env, _uniform_policies()))
    Phi = np.eye(4)
    v = critic_fixed_point(model, d, 1, Phi)
    assert v == pytest.approx(model.rewards_pi[0], abs=1e-12)


def test_full_state_fixed_point_is_the_true_value_function():
    model = _uniform_model()
    P = _uniform_kernel()
    d = stationary_distribution(P)
    Phi = np.eye(4)                         # one-hot over global states
    v = critic_fixed_point(model, d, 1, Phi)
    direct = np.linalg.solve(np.eye(4) - model.spec.gamma * P,
                             model.rewards_pi[0])
    assert np.abs(v - direct).max() <= 1e-10


def test_local_feature_fixed_points():
    model = _uniform_model()
    d = stationary_distribution(_uniform_kernel())
    phi = tabular_features(2)
    v1 = critic_fixed_point(model, d, 1, feature_matrix(model.spec, 1, phi))
    v2 = critic_fixed_point(model, d, 2, feature_matrix(model.spec, 2, phi))
    assert v1 == pytest.approx([4.77386935, 5.22613065], abs=1e-6)
    assert np.abs(v2).max() <= 1e-12


def test_fixed_point_satisfies_projected_orthogonality():
    model = _uniform_model()
    P = _uniform_kernel()
    d = stationary_distribution(P)
    Phi = feature_matrix(model.spec, 1, tabular_features(2))
    v = critic_fixed_point(model, d, 1, Phi)
    resid = model.rewards_pi[0] + model.spec.gamma * P @ (Phi @ v) - Phi @ v
    assert np.abs(Phi.T @ (d * resid)).max() <= 1e-12


def test_critic_fixed_point_validates_the_agent_id():
    sol, _ = _three_agent_solution()
    Phi = feature_matrix(sol.model.spec, 1, tabular_features(2))
    for agent in (0, -1, 4):
        with pytest.raises(ValueError, match=f"agent id {agent} outside 1..3"):
            critic_fixed_point(sol.model, sol.d_pi, agent, Phi)


def test_duplicated_feature_column_is_rejected():
    model = _uniform_model()
    d = stationary_distribution(_uniform_kernel())
    Phi = np.ones((4, 2))
    with pytest.raises(RankError):
        critic_fixed_point(model, d, 1, Phi)


def test_feature_matrix_validates_the_agent_id():
    model = _uniform_model()
    with pytest.raises(ValueError):
        feature_matrix(model.spec, 0, tabular_features(2))
    with pytest.raises(ValueError):       # three rows for two local states
        feature_matrix(model.spec, 1, tabular_features(3))
    with pytest.raises(ValueError):       # one feature vector, not a table
        feature_matrix(model.spec, 1, np.ones(2))


def test_drift_matrix_is_strictly_stable():
    """Every agent's projected drift on its local tabular features is
    stable, and drift_eigenvalue reports the largest real part of them."""
    model = _uniform_model()
    d = stationary_distribution(_uniform_kernel())
    evals = [np.linalg.eigvals(projected_drift(
        model, d, feature_matrix(model.spec, i, tabular_features(2))))
        for i in (1, 2)]
    assert drift_eigenvalue(model, d) == max(e.real.max() for e in evals)
    assert drift_eigenvalue(model, d) <= -1e-6


# ---------------------------------------------------------------------------
# Exact update directions and the bias decomposition
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences_of_the_frozen_objective():
    policies = _random_policies()
    model = enumerate_model(micro_env(), policies)
    sol = solve_model(model)
    grads = exact_policy_gradient(sol, policies)
    eps = 1e-5
    for i, pol in enumerate(policies):
        base = pol.get_flat()
        fd = np.zeros_like(base)
        for j in range(base.size):
            hi, lo = base.copy(), base.copy()
            hi[j] += eps
            lo[j] -= eps
            pol.set_flat(hi)
            up = surrogate_objective(micro_env(), sol.d_pi, sol.v_agents,
                                     policies)
            pol.set_flat(lo)
            down = surrogate_objective(micro_env(), sol.d_pi, sol.v_agents,
                                       policies)
            pol.set_flat(base)
            fd[j] = (up - down) / (2 * eps)
        assert max_relative_error(grads[i], fd) <= 1e-4


def test_one_exact_ascent_step_improves_the_frozen_objective():
    policies = _random_policies(7)
    model = enumerate_model(micro_env(), policies)
    sol = solve_model(model)
    before = surrogate_objective(micro_env(), sol.d_pi, sol.v_agents,
                                 policies)
    grads = exact_policy_gradient(sol, policies)
    for pol, g in zip(policies, grads):
        pol.set_flat(pol.get_flat() + 1e-3 * g)
    after = surrogate_objective(micro_env(), sol.d_pi, sol.v_agents, policies)
    assert after > before


def test_update_direction_decomposes_into_gradient_plus_corrections():
    policies = _random_policies(3)
    model = enumerate_model(micro_env(), policies)
    sol = solve_model(model)
    phi = tabular_features(2)
    tables = np.stack([
        feature_matrix(model.spec, i, phi)
        @ critic_fixed_point(model, sol.d_pi, i, feature_matrix(model.spec, i, phi))
        for i in (1, 2)])
    direction = update_direction(sol, tables)
    grads = exact_policy_gradient(sol, policies)
    corr = correction_terms(sol, tables)
    for i in range(2):
        assert np.abs(direction[i] - (grads[i] + corr[i])).max() <= 1e-12


def test_perfect_critics_leave_no_bias():
    policies = _random_policies(5)
    model = enumerate_model(micro_env(), policies)
    sol = solve_model(model)
    corr = correction_terms(sol, sol.v_agents)
    for c in corr:
        assert np.abs(c).max() <= 1e-10


def test_saturated_policy_has_vanishing_gradient_coordinates():
    sat = TabularSoftmaxPolicy(2, 2, logits=np.array([[30.0, 0.0], [30.0, 0.0]]))
    policies = [sat, TabularSoftmaxPolicy(2, 2)]
    model = enumerate_model(micro_env(), policies)
    sol = solve_model(model)
    grads = exact_policy_gradient(sol, policies)
    assert np.abs(grads[0]).max() <= 1e-8


# Each case is (call on a 3-agent solution and its policies, message).
POLICY_MISMATCHES = {
    "gradient-two-policies": (
        lambda sol, pols: exact_policy_gradient(sol, pols[:2]),
        "one two-action local policy per agent required: got 2 for 3 agents"),
    "gradient-other-policies": (
        lambda sol, pols: exact_policy_gradient(
            sol, [TabularSoftmaxPolicy(2, 2) for _ in pols]),
        "policies differ from the ones the model was enumerated under"),
    "enumerate-two-policies": (
        lambda sol, pols: enumerate_model(CoupledEnv(3), pols[:2]),
        "one two-action local policy per agent required: got 2 for 3 agents"),
    "enumerate-three-actions": (
        lambda sol, pols: enumerate_model(
            CoupledEnv(3), pols[:2] + [TabularSoftmaxPolicy(2, 3)]),
        "one two-action local policy per agent required: got 3 for 3 agents"),
}


@pytest.mark.parametrize("case", POLICY_MISMATCHES)
def test_policies_other_than_the_model_s_are_rejected(case):
    call, message = POLICY_MISMATCHES[case]
    sol, policies = _three_agent_solution()
    with pytest.raises(ValueError, match=message):
        call(sol, policies)


@pytest.mark.parametrize("direction", [update_direction, correction_terms])
def test_critic_tables_need_one_row_per_agent(direction):
    sol, _ = _three_agent_solution()
    with pytest.raises(ValueError, match=r"critic tables of shape \(2, 8\), "
                                         r"not one row of S values per agent "
                                         r"\(3, 8\)"):
        direction(sol, sol.v_agents[:2])


# ---------------------------------------------------------------------------
# Parity with the slow references
# ---------------------------------------------------------------------------

def _parity_policies(n, draw, rng):
    """Softmax policies that the model is enumerated under and that supply
    the scores: random logits, or (draw "fixed") the logarithms of tables
    that always act 1 in local state 0, which put exact zeros in the joint
    policy and keep the chain irreducible."""
    if draw != "fixed":
        return [TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
                for _ in range(n)]
    with np.errstate(divide="ignore"):
        return [TabularSoftmaxPolicy(2, 2, logits=np.log([[0.0, 1.0],
                                                          [p, 1.0 - p]]))
                for p in rng.uniform(0.2, 0.8, size=n)]


PARITY_TOL = 1e-12


@pytest.mark.parametrize("draw", [0, 1, 2, "fixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_count_model_matches_the_dense_reference(n, draw):
    rng = np.random.default_rng(100 * n + (9 if draw == "fixed" else draw))
    policies = _parity_policies(n, draw, rng)
    env = CoupledEnv(n)
    model = enumerate_model(env, policies)
    spec = model.spec
    policy, transition_sa, rewards_sa = _ref_enumerate(env, policies)
    counts = spec.bits.sum(axis=0)
    count_index = counts[:, None] + counts

    if draw == "fixed":
        assert (model.local_policy[:, 0, 0] == 0.0).all()
    assert np.array_equal(model.count_transition[count_index], transition_sa)
    assert np.array_equal(model.count_rewards[:, count_index], rewards_sa)
    assert max_relative_error(model.mass,
                              _ref_mass(spec, policies)) <= PARITY_TOL
    P = np.einsum("sa,sat->st", policy, transition_sa)
    assert max_relative_error(model.mass @ model.count_transition,
                              P) <= PARITY_TOL
    assert max_relative_error(model.rewards_pi, np.einsum(
        "sa,nsa->ns", policy, rewards_sa)) <= PARITY_TOL

    phi = tabular_features(2)
    for i in range(1, n + 1):
        assert np.array_equal(feature_matrix(spec, i, phi),
                              _ref_feature_matrix(spec, i, phi))

    sol = solve_model(model)
    critics = rng.normal(size=(n, spec.n_states))

    # Each agent's projected drift against Phi^T diag(d) (gamma P - I) Phi.
    drift = sol.d_pi[:, None] * (spec.gamma * P - np.eye(spec.n_states))
    for i in range(1, n + 1):
        Phi = _ref_feature_matrix(spec, i, phi)
        assert max_relative_error(projected_drift(model, sol.d_pi, Phi),
                                  Phi.T @ drift @ Phi) <= PARITY_TOL

    def ref_direction(table_sa):
        return _ref_direction_from_table(spec, policy, sol.d_pi, table_sa,
                                         policies)

    def ref_advantage(values):
        return _ref_advantage(spec, transition_sa, rewards_sa, values)

    dV = (critics - sol.v_agents).mean(axis=0)
    pairs = [
        (exact_policy_gradient(sol, policies),
         ref_direction(ref_advantage(sol.v_agents))),
        (update_direction(sol, critics),
         ref_direction(ref_advantage(critics))),
        (correction_terms(sol, critics),
         ref_direction(spec.gamma * transition_sa @ dV - dV[:, None])),
    ]
    for got, want in pairs:
        for g, w in zip(got, want):
            assert max_relative_error(g, w) <= PARITY_TOL


def _ref_leave_one_out_direction(sol, g):
    """Directions from (N+1, N+1, S) leave-one-out count laws, O(N^3 S):
    column r + 1 is the law of |a| over every agent but agent r + 1, copied
    from column 0 just before that agent is folded in, and each h_i sums
    its law against dg(|s| + k) = g(|s| + k + 1) - g(|s| + k)."""
    model = sol.model
    n, bits, pi = model.spec.n_agents, model.spec.bits, model.local_policy
    q = pi[np.arange(n)[:, None], bits].transpose(0, 2, 1)[:, :, None]
    law = np.zeros((n + 1, n + 1, model.spec.n_states))
    law[0] = 1.0
    for i in range(n):
        law[:, i + 1] = law[:, 0]
        moved = law[:i + 1, :i + 1] * q[i, 1]
        law[:i + 1, :i + 1] *= q[i, 0]
        law[1:i + 2, :i + 1] += moved
    dg = np.diff(g)[bits.sum(axis=0)[:, None] + np.arange(n)]   # (S, k)
    h = np.einsum("kis,sk->is", law[:n, 1:], dg) * sol.d_pi
    E = np.stack([1 - bits, bits], axis=1).astype(np.float64)  # (N, 2, S)
    z = np.einsum("ixs,is->ix", E, h) * pi[:, :, 0] * pi[:, :, 1]
    return list(np.stack([-z, z], axis=2).reshape(n, 4))


@pytest.mark.parametrize("draw", [0, 1, 2, "fixed"])
@pytest.mark.parametrize("n", range(1, 13))
def test_directions_match_the_leave_one_out_reference(n, draw):
    rng = np.random.default_rng(700 * n + (9 if draw == "fixed" else draw))
    policies = _parity_policies(n, draw, rng)
    model = enumerate_model(CoupledEnv(n), policies)
    sol = solve_model(model)
    Q, gamma = model.count_transition, model.spec.gamma
    critics = rng.normal(size=(n, model.spec.n_states))
    dV = (critics - sol.v_agents).mean(axis=0)
    r_bar = model.count_rewards.mean(axis=0)
    pairs = [
        (exact_policy_gradient(sol, policies), r_bar + gamma * Q @ sol.v_team),
        (update_direction(sol, critics),
         r_bar + gamma * Q @ critics.mean(axis=0)),
        (correction_terms(sol, critics), gamma * Q @ dV),
    ]
    for got, g in pairs:
        for d, w in zip(got, _ref_leave_one_out_direction(sol, g)):
            assert max_relative_error(d, w) <= PARITY_TOL


@pytest.mark.parametrize("draw", [0, 1, 2])
@pytest.mark.parametrize("n", range(1, 11))
def test_count_chain_solution_matches_the_dense_reference(n, draw):
    rng = np.random.default_rng(1000 * n + draw)
    policies = _parity_policies(n, draw, rng)
    model = enumerate_model(CoupledEnv(n), policies)
    sol = solve_model(model)
    P = _ref_kernel(CoupledEnv(n), policies)
    d = _ref_bordered_law(P)
    assert (np.abs(sol.d_pi - d) <= PARITY_TOL * d).all()
    assert max_relative_error(sol.v_agents, _ref_values(model, P)) <= PARITY_TOL


def test_the_oracle_at_twelve_agents_peaks_under_32_mib():
    """One (S, A) or (S, S) float64 table at N = 12 takes 128 MiB; a whole
    oracle pass, with a fixed point for every agent, stays under 32 MiB."""
    n = 12
    policies = _random_policies(21, n=n)
    env = CoupledEnv(n)
    tracemalloc.start()
    try:
        model = enumerate_model(env, policies)
        sol = solve_model(model)
        exact_policy_gradient(sol, policies)
        for i in range(1, n + 1):
            critic_fixed_point(model, sol.d_pi, i, feature_matrix(
                model.spec, i, tabular_features(2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n", [2, 5, 7])
def test_teams_clamped_at_the_default_theta_box_are_solved(n):
    """Copy-state tables at the default theta_box of 10 make the all-zeros
    and all-ones states nearly absorbing (spectral gap about 1e-9), but the
    chain stays irreducible: its law is unique and symmetric under flipping
    every bit."""
    box = ExperimentConfig().theta_box
    table = np.array([[box, -box], [-box, box]])
    policies = [TabularSoftmaxPolicy(2, 2, logits=table) for _ in range(n)]
    d = solve_model(enumerate_model(CoupledEnv(n), policies)).d_pi
    P = _ref_kernel(CoupledEnv(n), policies)
    assert np.abs(d @ P - d).max() <= 1e-15
    assert (np.abs(d - d[::-1]) <= 1e-12 * d).all()
    assert d[0] == pytest.approx(0.5, abs=2e-8)
    assert d[-1] == pytest.approx(0.5, abs=2e-8)
