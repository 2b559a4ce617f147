"""Coupled binary environments and their exact enumeration."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.envs import CoupledEnv, enumerate_model, micro_env
from dactd.errors import CapacityError
from dactd.funcapprox import TabularSoftmaxPolicy

from helpers import FixedTablePolicy


# ---------------------------------------------------------------------------
# Coupling arithmetic
# ---------------------------------------------------------------------------

def test_everything_on_gives_certain_transitions():
    env = CoupledEnv(5)
    ones = np.ones(5, dtype=np.int64)
    assert env.coupling(ones, ones) == 1.0
    rewards = env.rewards(ones, ones)
    assert rewards[0] == 1.0
    s_next, r = env.step(ones, ones, np.random.default_rng(0))
    assert (s_next == 1).all()
    assert r[0] == 1.0


def test_everything_off_is_absorbing():
    env = CoupledEnv(5)
    zeros = np.zeros(5, dtype=np.int64)
    assert env.coupling(zeros, zeros) == 0.0
    s_next, r = env.step(zeros, zeros, np.random.default_rng(0))
    assert (s_next == 0).all()
    assert r[0] == 0.0


def test_single_active_pair_couples_at_one_fifth():
    env = CoupledEnv(5)
    s = np.array([1, 0, 0, 0, 0])
    a = np.array([1, 0, 0, 0, 0])
    assert env.coupling(s, a) == pytest.approx(0.2)
    assert env.rewards(s, a)[0] == pytest.approx(0.2)


def test_only_the_first_agent_is_paid():
    env = CoupledEnv(5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.integers(0, 2, size=5)
        a = rng.integers(0, 2, size=5)
        r = env.rewards(s, a)
        assert (r[1:] == 0.0).all()
        assert r[0] == env.coupling(s, a)
        # step and the count model pay by the same law, bit for bit.
        assert env.step(s, a, rng)[1].tobytes() == r.tobytes()
        count_rewards = env.count_model()[1][:, s.sum() + a.sum()]
        assert count_rewards.tobytes() == r.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_coupling_stays_a_probability(n, seed):
    env = CoupledEnv(n_agents=n)
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n)
    a = rng.integers(0, 2, size=n)
    assert 0.0 <= env.coupling(s, a) <= 1.0


def test_malformed_inputs_rejected():
    env = micro_env()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        env.step(np.array([0, 1, 1]), np.array([0, 1]), rng)
    with pytest.raises(ValueError):
        env.step(np.array([0, 2]), np.array([0, 1]), rng)
    with pytest.raises(ValueError):
        env.step(np.array([0.5, 0.0]), np.array([0, 1]), rng)
    with pytest.raises(ValueError):
        env.rewards(np.array([0, 1]), np.array([0, 3]))


def test_next_state_law_is_an_independent_product():
    env = micro_env()
    s, a = np.array([1, 0]), np.array([0, 0])
    q = env.coupling(s, a)
    probs = env.count_model()[0][s.sum() + a.sum()]
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    joint = {tuple(env.bits[:, i]): probs[i] for i in range(env.n_states)}
    assert joint[(1, 1)] == pytest.approx(q * q)
    assert joint[(0, 0)] == pytest.approx((1 - q) * (1 - q))


def test_transition_frequencies_match_the_analytic_law():
    env = micro_env()
    s, a = np.array([1, 0]), np.array([1, 0])
    q = env.coupling(s, a)
    rng = np.random.default_rng(2024)
    hits = np.zeros(2)
    n = 100_000
    for _ in range(n):
        s_next, _ = env.step(s, a, rng)
        hits += s_next
    assert np.abs(hits / n - q).max() < 0.01


def test_sizes_outside_the_model_are_refused():
    for n_agents, gamma in ((0, 0.9), (-1, 0.9), (2, 1.0), (2, -0.1),
                            (2, float("nan"))):
        with pytest.raises(ValueError):
            CoupledEnv(n_agents, gamma)
    assert CoupledEnv(1, 0.0).gamma == 0.0


def test_initial_state_is_all_zeros():
    env = CoupledEnv(5)
    assert (env.initial_state() == 0).all()
    assert env.gamma == 0.9
    assert env.n_agents == 5


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_spec_indexing_round_trips():
    for n in range(1, 8):
        env = CoupledEnv(n)
        assert env.n_states == 2 ** n
        assert np.array_equal(env.bits, np.unravel_index(np.arange(2 ** n),
                                                         (2,) * n))
        assert env.bits.dtype == np.int64 and not env.bits.flags.writeable
        for i in range(env.n_states):
            s = env.bits[:, i]
            assert s.dtype == np.int64 and ((s == 0) | (s == 1)).all()
            assert np.ravel_multi_index(tuple(s), (2,) * n) == i


def test_transition_rows_are_stochastic():
    model = enumerate_model(micro_env(),
                            [TabularSoftmaxPolicy(2, 2) for _ in range(2)])
    assert np.abs(model.mass.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(model.count_transition.sum(axis=1) - 1.0).max() <= 1e-12


def test_forced_policy_saturates_the_all_ones_state():
    force_one = FixedTablePolicy(np.array([[0.0, 1.0], [0.0, 1.0]]))
    model = enumerate_model(micro_env(), [force_one, force_one])
    s_all1 = np.ravel_multi_index((1, 1), (2, 2))
    assert model.mass[s_all1, 4] == 1.0              # |s| + |a| = 4 surely
    row = model.mass[s_all1] @ model.count_transition
    assert row[s_all1] == pytest.approx(1.0, abs=1e-12)


def test_expected_private_reward_under_uniform_policy():
    model = enumerate_model(micro_env(),
                            [TabularSoftmaxPolicy(2, 2) for _ in range(2)])
    # mean over the four joint actions of (sum(s) + sum(a)) / 4
    spec = model.spec
    for si in range(spec.n_states):
        s = spec.bits[:, si]
        expected = (s.sum() + 1.0) / 4.0
        assert model.rewards_pi[0, si] == pytest.approx(expected, abs=1e-12)
        assert model.rewards_pi[1, si] == 0.0


# (case, agent, local state, the second policy's table)
BAD_POLICY_ROWS = [
    ("negative entry", 1, 0, None),
    ("row sums to 1 + 2e-10", 2, 1, [[0.5, 0.5], [0.5, 0.5 + 2e-10]]),
    ("nan entry", 2, 0, [[np.nan, 1.0], [0.5, 0.5]]),
]


@pytest.mark.parametrize("case, agent, s_local, table", BAD_POLICY_ROWS,
                         ids=[c[0] for c in BAD_POLICY_ROWS])
def test_enumeration_refuses_local_rows_that_are_not_distributions(
        case, agent, s_local, table):
    """Each local row is checked itself: [1.5, -0.5] sums to 1, and the
    joint rows it makes would too, but the count mass would go negative."""
    first = FixedTablePolicy([[1.5, -0.5], [1.0, 0.0]] if table is None
                             else [[1.0, 0.0], [0.0, 1.0]])
    second = FixedTablePolicy(np.eye(2))
    if table is not None:
        second.table = np.array(table)
    with pytest.raises(ValueError, match=f"agent {agent}'s policy in local "
                                         f"state {s_local} is not a "
                                         f"distribution"):
        enumerate_model(micro_env(), [first, second])


def test_enumeration_respects_the_capacity_cap():
    env = CoupledEnv(n_agents=13)  # 2^13 states > the 4096-state cap
    pols = [TabularSoftmaxPolicy(2, 2) for _ in range(13)]
    with pytest.raises(CapacityError):
        enumerate_model(env, pols)


def test_ten_agents_enumerate_quickly_without_a_dense_kernel():
    # The (S, A, S) kernel at N = 10 would take 8.6 GB; the count-factorised
    # model holds (2N+1, S) count rows and the (S, 2N+1) count mass only.
    rng = np.random.default_rng(10)
    pols = [TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
            for _ in range(10)]
    start = time.perf_counter()
    model = enumerate_model(CoupledEnv(n_agents=10), pols)
    assert time.perf_counter() - start < 2.0
    assert model.mass.shape == (1024, 21)
    assert model.count_transition.shape == (21, 1024)
    assert np.abs(model.mass.sum(axis=1) - 1.0).max() <= 1e-12
