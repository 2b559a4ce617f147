"""Training loops: schedules, delayed updates, and baseline equivalences."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.config import AlgorithmChoice, ExperimentConfig
from dactd.envs import CoupledEnv, micro_env
from dactd.errors import ConfigurationError, NumericError
from dactd.funcapprox import (LinearCritic, MlpStack, TabularSoftmaxPolicy,
                              max_relative_error, softmax, tabular_features)
from dactd.learner import (StepSchedule, _fit_gradient, _score_table,
                           actor_update, critic_update, cumulative_neighborhood,
                           local_td_error, resolve_latency_window,
                           run_experiment, run_policy_evaluation, run_theory,
                           validate_two_timescale)
from dactd.protocol import ascending_mean
from dactd.topology import GraphSchedule
from dactd.transport import ChannelModel


def _fresh_learners(n):
    policies = [TabularSoftmaxPolicy(2, 2) for _ in range(n)]
    critics = [LinearCritic(tabular_features(2)) for _ in range(n)]
    return policies, critics


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------

def test_schedule_values():
    assert StepSchedule.constant(0.25).value(1234) == 0.25
    poly = StepSchedule.polynomial(2.0, 0.5)
    assert poly.value(0) == 2.0
    assert poly.value(3) == pytest.approx(1.0)


@pytest.mark.parametrize("kwargs", [
    dict(kind="warmup", base=1.0),
    dict(kind="constant", base=0.0),
    dict(kind="constant", base=float("inf")),
    dict(kind="polynomial", base=1.0, exponent=0.0),
    dict(kind="polynomial", base=1.0, exponent=1.5),
])
def test_bad_schedules_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        StepSchedule(**kwargs)


def test_two_timescale_validation():
    critic = StepSchedule.polynomial(1.0, 0.6)
    actor = StepSchedule.polynomial(1.0, 0.9)
    validate_two_timescale(actor, critic)
    with pytest.raises(ConfigurationError):
        validate_two_timescale(actor, StepSchedule.constant(0.1))
    with pytest.raises(ConfigurationError):
        validate_two_timescale(actor, StepSchedule.polynomial(1.0, 0.5))
    with pytest.raises(ConfigurationError):
        validate_two_timescale(StepSchedule.polynomial(1.0, 0.6), critic)


def test_valid_pair_has_vanishing_step_ratio():
    critic = StepSchedule.polynomial(1.0, 0.6)
    actor = StepSchedule.polynomial(1.0, 0.9)
    ratios = [actor.value(t) / critic.value(t) for t in range(100)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# Single-transition primitives
# ---------------------------------------------------------------------------

def test_td_error_examples():
    zero = LinearCritic(tabular_features(2))
    assert local_td_error(zero, 0.9, 0, 1.0, 1) == 1.0
    ones = LinearCritic(tabular_features(2), v=np.array([1.0, 1.0]))
    assert local_td_error(ones, 0.9, 0, 0.0, 1) == pytest.approx(-0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_td_error_refuses_non_finite_values():
    broken = LinearCritic(tabular_features(2), v=np.array([np.inf, 0.0]))
    with pytest.raises(NumericError):
        local_td_error(broken, 0.9, 0, 1.0, 1)


def test_critic_update_examples():
    critic = LinearCritic(tabular_features(2))
    critic_update(critic, 1.0, np.array([1.0, 0.0]), 0.1)
    assert critic.v == pytest.approx([0.1, 0.0], abs=1e-15)
    before = critic.get_flat()
    critic_update(critic, 5.0, np.array([1.0, 1.0]), 0.0)
    assert np.array_equal(critic.get_flat(), before)


def test_actor_update_examples():
    theta = np.array([0.5, -0.5])
    assert np.array_equal(actor_update(theta, 0.0, np.ones(2), 0.1, 10.0),
                          theta)
    clamped = actor_update(np.array([0.9]), 1.0, np.array([10.0]), 1.0, 1.0)
    assert clamped == pytest.approx([1.0])
    clamped = actor_update(np.array([-0.9]), 1.0, np.array([-10.0]), 1.0, 1.0)
    assert clamped == pytest.approx([-1.0])


@given(theta=st.floats(-5, 5), delta=st.floats(-100, 100),
       eta=st.floats(-100, 100), alpha=st.floats(0, 10),
       box=st.floats(0.01, 10))
def test_actor_update_respects_the_box(theta, delta, eta, alpha, box):
    out = actor_update(np.array([theta]), delta, np.array([eta]), alpha, box)
    assert abs(out[0]) <= box


# ---------------------------------------------------------------------------
# Online regime
# ---------------------------------------------------------------------------

def test_online_readout_is_the_delayed_team_average():
    env = CoupledEnv(3, 0.9)
    graph = GraphSchedule.line(3)
    policies, critics = _fresh_learners(3)
    res = run_theory(env, graph, policies, critics,
                     StepSchedule.constant(0.01), StepSchedule.constant(0.05),
                     n_steps=50, seed=11)
    assert res.K == 2
    for t in range(50):
        if t < res.K:
            assert np.all(res.team_estimates[t] == 0.0)
            assert not res.updates_applied[t]
        else:
            want = ascending_mean(res.local_deltas[t - res.K])
            assert np.array_equal(res.team_estimates[t], np.full(3, want))
            assert res.updates_applied[t]


def test_online_run_is_deterministic():
    env = CoupledEnv(3, 0.9)
    graph = GraphSchedule.line(3)

    def go():
        policies, critics = _fresh_learners(3)
        return run_theory(env, graph, policies, critics,
                          StepSchedule.constant(0.01),
                          StepSchedule.constant(0.05), 80, seed=3)

    a, b = go(), go()
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.team_estimates, b.team_estimates)
    for x, y in zip(a.actor_params, b.actor_params):
        assert np.array_equal(x, y)


def test_online_general_protocol_matches_the_centralized_reference():
    env = CoupledEnv(3, 0.9)
    graph = GraphSchedule.line(3)

    def go(protocol):
        policies, critics = _fresh_learners(3)
        return run_theory(env, graph, policies, critics,
                          StepSchedule.constant(0.01),
                          StepSchedule.constant(0.05), 120, seed=5,
                          protocol=protocol)

    a, c = go("general"), go("centralized")
    assert a.K == c.K
    assert np.array_equal(a.states, c.states)
    assert np.array_equal(a.team_estimates, c.team_estimates)
    for x, y in zip(a.actor_params, c.actor_params):
        assert np.array_equal(x, y)


def test_online_tree_protocol_matches_to_rounding():
    env = CoupledEnv(3, 0.9)
    graph = GraphSchedule.line(3)

    def go(protocol):
        policies, critics = _fresh_learners(3)
        return run_theory(env, graph, policies, critics,
                          StepSchedule.constant(0.01),
                          StepSchedule.constant(0.05), 120, seed=5,
                          protocol=protocol)

    a, c = go("acyclic"), go("centralized")
    assert a.K == c.K
    assert np.array_equal(a.states, c.states)
    assert np.allclose(a.team_estimates, c.team_estimates, atol=1e-9)
    for x, y in zip(a.actor_params, c.actor_params):
        assert np.allclose(x, y, atol=1e-9)


def test_single_agent_reads_its_own_error_one_step_late():
    env = CoupledEnv(1, 0.9)
    graph = GraphSchedule.static(1, set())
    policies, critics = _fresh_learners(1)
    res = run_theory(env, graph, policies, critics, None,
                     StepSchedule.constant(0.05), 30, seed=2)
    assert res.K == 1
    assert res.team_estimates[0, 0] == 0.0
    for t in range(1, 30):
        assert res.team_estimates[t, 0] == res.local_deltas[t - 1, 0]
    assert not res.updates_applied.any()


def test_agent_count_mismatch_is_rejected():
    env = CoupledEnv(3, 0.9)
    policies, critics = _fresh_learners(3)
    with pytest.raises(ValueError):
        run_theory(env, GraphSchedule.line(2), policies, critics, None,
                   StepSchedule.constant(0.05), 5, seed=0)


def test_two_timescale_enforcement_in_the_loop():
    env = CoupledEnv(2, 0.9)
    graph = GraphSchedule.line(2)
    policies, critics = _fresh_learners(2)
    with pytest.raises(ConfigurationError):
        run_theory(env, graph, policies, critics, StepSchedule.constant(0.01),
                   StepSchedule.constant(0.05), 5, seed=0,
                   enforce_two_timescale=True)
    policies, critics = _fresh_learners(2)
    res = run_theory(env, graph, policies, critics,
                     StepSchedule.polynomial(0.01, 0.9),
                     StepSchedule.polynomial(0.1, 0.6), 10, seed=0,
                     enforce_two_timescale=True)
    assert res.K == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exploding_critic_raises():
    env = CoupledEnv(2, 0.9)
    graph = GraphSchedule.line(2)
    policies, critics = _fresh_learners(2)
    with pytest.raises(NumericError):
        run_theory(env, graph, policies, critics, None,
                   StepSchedule.constant(1e12), 200, seed=0)


def test_tight_box_confines_the_policy_parameters():
    env = CoupledEnv(2, 0.9)
    graph = GraphSchedule.line(2)
    policies, critics = _fresh_learners(2)
    res = run_theory(env, graph, policies, critics,
                     StepSchedule.constant(0.5), StepSchedule.constant(0.05),
                     100, seed=9, theta_box=0.001)
    for p in res.actor_params:
        assert np.abs(p).max() <= 0.001


def test_policy_evaluation_approaches_the_projected_fixed_point():
    env = micro_env()
    policies, critics = _fresh_learners(2)
    weights = run_policy_evaluation(env, policies, critics,
                                    StepSchedule.polynomial(0.5, 0.6),
                                    30_000, seed=4)
    assert np.abs(weights[0] - [4.77386935, 5.22613065]).max() < 0.5
    assert np.array_equal(weights[1], np.zeros(2))


# ---------------------------------------------------------------------------
# Latency windows and neighborhoods
# ---------------------------------------------------------------------------

def test_latency_window_resolution():
    line5 = GraphSchedule.line(5)
    assert resolve_latency_window("general", line5, None) == 4
    assert resolve_latency_window("general", line5,
                                  ChannelModel(t1=1, t2=1)) == 8
    assert resolve_latency_window("acyclic", line5,
                                  ChannelModel(t1=3, t2=1)) == 4
    with pytest.raises(ConfigurationError):
        resolve_latency_window("acyclic", line5, ChannelModel(t1=3, t2=7))
    with pytest.raises(ConfigurationError):
        resolve_latency_window("acyclic", line5,
                               ChannelModel(t1=1, drop_prob=0.2))
    assert resolve_latency_window("centralized", line5, None) == 4


def test_cumulative_neighborhoods():
    line5 = GraphSchedule.line(5)
    assert cumulative_neighborhood(line5, 1, 0) == [1]
    assert cumulative_neighborhood(line5, 1, 2) == [1, 2, 3]
    assert cumulative_neighborhood(line5, 3, 2) == [1, 2, 3, 4, 5]
    star = GraphSchedule.star(4)
    assert cumulative_neighborhood(star, 1, 1) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Episodic regime
# ---------------------------------------------------------------------------

DAC = AlgorithmChoice("dac_td")
SAC2 = AlgorithmChoice("khop_sac", 2)
SAC0 = AlgorithmChoice("khop_sac", 0)
IND = AlgorithmChoice("independent_ac")
BASE = ExperimentConfig(n_agents=3, episodes=12, steps=20,
                        algorithms=(DAC, SAC2, SAC0, IND))


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        AlgorithmChoice("sarsa")
    with pytest.raises(ConfigurationError):
        replace(BASE, protocol="gossip")
    with pytest.raises(ConfigurationError):
        replace(BASE, episodes=0)
    with pytest.raises(ConfigurationError):
        replace(BASE, gamma=1.0)
    with pytest.raises(ConfigurationError):
        AlgorithmChoice("khop_sac", -1)
    # k is meaningful only for khop_sac, and never beyond the diameter.
    with pytest.raises(ConfigurationError):
        AlgorithmChoice("independent_ac", 3)
    with pytest.raises(ConfigurationError):
        replace(BASE, algorithms=(AlgorithmChoice("khop_sac", 9),))
    # The graph is built from n_agents; edges naming a fourth agent fail.
    with pytest.raises(ValueError):
        replace(BASE, graph_kind="custom", graph_edges=((3, 4), (4, 3)))
    # A run outside the config's grid skips none of its checks.
    with pytest.raises(ConfigurationError):
        run_experiment(BASE, AlgorithmChoice("khop_sac", 1), 0)
    for bad in (dict(gamma=1.5), dict(gamma=float("nan")),
                dict(steps=0), dict(critic_epochs=0), dict(target_refresh=0),
                dict(theta_box=-1.0), dict(theta_box=float("inf")),
                dict(actor_step=float("nan")), dict(critic_step=-0.1),
                dict(actor_hidden=(0,)), dict(critic_hidden=(5, 0)),
                dict(leaky_slope=float("inf")),
                # Counts that would be truncated or read as 1.
                dict(critic_hidden=(2.5,)), dict(critic_epochs=True),
                dict(episodes=2.5), dict(seeds=(1.5,)), dict(n_agents=3.5),
                dict(steps=True), dict(actor_hidden=(True,)),
                dict(critic_epochs=np.True_), dict(episodes=np.float32(2.5))):
        with pytest.raises(ConfigurationError):
            replace(BASE, **bad)
    for k in (1.5, True):
        with pytest.raises(ConfigurationError):
            AlgorithmChoice("khop_sac", k)
    # Whole floats are integers, as in a YAML file.
    whole = replace(BASE, episodes=3.0, seeds=(2.0,),
                    algorithms=(AlgorithmChoice("khop_sac", 2.0),))
    assert (whole.episodes, whole.seeds) == (3, (2,))
    assert type(whole.episodes) is int and whole.algorithms[0].label == "khop_sac_k2"


def _one_hot_sequences(rng, n, T):
    # Random binary local-state sequences; agent 0 never visits state 1 and
    # agent 1 never visits state 0.
    s_seq = rng.integers(0, 2, size=(n, T))
    s_seq[0], s_seq[1] = 0, 1
    return s_seq


@pytest.mark.parametrize("T", [1, 2, 7, 100])
def test_basis_row_fit_gradient_matches_the_batch_reference(T):
    rng = np.random.default_rng(T)
    n = 4
    basis = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    agent_idx = np.arange(n)[:, None]
    for _ in range(5):
        critic = MlpStack((2, 5, 5, 1), n, rng, 0.3)
        s_seq = _one_hot_sequences(rng, n, T)
        targets = rng.normal(size=(n, T))
        current = critic.forward(basis)[:, :, 0]
        resid = targets - current[agent_idx, s_seq]
        reference = critic.param_grads(np.eye(2)[s_seq], resid[:, :, None] / T,
                                       per_sample=False)
        target_sums = np.array([[targets[c, s_seq[c] == s].sum() for s in (0, 1)]
                                for c in range(n)])
        counts = np.array([[float((s_seq[c] == s).sum()) for s in (0, 1)]
                           for c in range(n)])
        fast = _fit_gradient(critic, basis, current, target_sums, counts, T)
        assert fast.shape == reference.shape
        assert max_relative_error(fast, reference) <= 1e-12


def test_score_table_rows_match_per_step_scores():
    rng = np.random.default_rng(21)
    n, T = 4, 50
    basis = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    agent_idx = np.arange(n)[:, None]
    for _ in range(5):
        actor = MlpStack((2, 10, 10, 2), n, rng, 0.3)
        probs = softmax(actor.forward(basis))
        s_seq = _one_hot_sequences(rng, n, T)
        a_seq = rng.integers(0, 2, size=(n, T))
        reference = actor.param_grads(
            np.eye(2)[s_seq], np.eye(2)[a_seq] - probs[agent_idx, s_seq],
            per_sample=True)
        gathered = _score_table(actor, basis, probs)[agent_idx, 2 * s_seq + a_seq]
        assert gathered.shape == reference.shape
        assert max_relative_error(gathered, reference) <= 1e-12


def test_episode_uniform_blocks_equal_per_step_draws():
    # run_experiment draws each episode's policy and environment uniforms as
    # one (T, n) block per generator; they are the per-step draws, bit for bit.
    n, T = 5, 100
    _, env_ss, policy_ss, _ = np.random.SeedSequence(7).spawn(4)
    for ss in (env_ss, policy_ss):
        block_rng = np.random.default_rng(ss)
        step_rng = np.random.default_rng(ss)
        for _ in range(3):
            block = block_rng.random((T, n))
            steps = np.stack([step_rng.random(n) for _ in range(T)])
            assert block.tobytes() == steps.tobytes()


def test_episodic_run_shapes_and_reward_structure():
    res = run_experiment(BASE, DAC, 0)
    assert res.algorithm == "dac_td"
    assert res.K == 2
    assert res.payload_slots == 2 * 3
    assert res.team_returns.shape == (12,)
    assert res.agent_returns.shape == (12, 3)
    assert np.array_equal(res.updates_applied,
                          np.arange(12) >= res.K)
    assert np.all(res.agent_returns[:, 1:] == 0.0)
    assert np.array_equal(res.team_returns, res.agent_returns.sum(axis=1) / 3)
    assert res.actor_params.shape[0] == 3
    assert res.critic_params.shape[0] == 3
    assert np.all(np.isfinite(res.actor_params))


def test_full_diameter_neighborhood_baseline_is_bitwise_identical():
    dac = run_experiment(BASE, DAC, 0)
    sac = run_experiment(BASE, SAC2, 0)
    assert dac.K == sac.K == 2
    assert np.array_equal(dac.team_returns, sac.team_returns)
    assert np.array_equal(dac.agent_returns, sac.agent_returns)
    assert np.array_equal(dac.actor_params, sac.actor_params)
    assert np.array_equal(dac.critic_params, sac.critic_params)
    assert sac.payload_slots == 0


def test_zero_hop_baseline_collapses_to_independent_learning():
    k0 = run_experiment(BASE, SAC0, 0)
    ind = run_experiment(BASE, IND, 0)
    assert np.array_equal(k0.team_returns, ind.team_returns)
    assert np.array_equal(k0.actor_params, ind.actor_params)
    assert np.array_equal(k0.critic_params, ind.critic_params)


def test_tree_protocol_reproduces_the_general_run():
    gen = run_experiment(BASE, DAC, 0)
    acy = run_experiment(replace(BASE, protocol="acyclic"), DAC, 0)
    assert gen.K == acy.K
    assert np.array_equal(gen.team_returns, acy.team_returns)
    assert np.allclose(gen.actor_params, acy.actor_params, atol=1e-9)
    assert np.allclose(gen.critic_params, acy.critic_params, atol=1e-9)
    assert acy.payload_slots == acy.K


def test_packet_loss_does_not_perturb_learning():
    lossless = run_experiment(replace(
        BASE, channel=ChannelModel(t1=1, t2=1, drop_prob=0.0, seed=5)), DAC, 0)
    lossy = run_experiment(replace(
        BASE, channel=ChannelModel(t1=1, t2=1, drop_prob=0.4, seed=5)), DAC, 0)
    assert lossless.K == lossy.K == 4
    assert np.array_equal(lossless.team_returns, lossy.team_returns)
    assert np.array_equal(lossless.actor_params, lossy.actor_params)
    assert np.array_equal(lossless.critic_params, lossy.critic_params)


def test_different_seeds_give_different_trajectories():
    a = run_experiment(BASE, DAC, 0)
    b = run_experiment(BASE, DAC, 1)
    assert not np.array_equal(a.team_returns, b.team_returns)


def test_episodic_runs_are_reproducible():
    a = run_experiment(BASE, DAC, 0)
    b = run_experiment(BASE, DAC, 0)
    assert np.array_equal(a.team_returns, b.team_returns)
    assert np.array_equal(a.actor_params, b.actor_params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runaway_batch_critic_raises():
    with pytest.raises(NumericError):
        run_experiment(replace(BASE, critic_step=1e8, episodes=3), DAC, 0)
