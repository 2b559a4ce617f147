"""Training loops: schedules, delayed updates, and baseline equivalences."""
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.config import AlgorithmChoice, ExperimentConfig, load_config
from dactd.envs import CoupledEnv, micro_env
from dactd.errors import ConfigurationError, NumericError
from dactd.funcapprox import (LinearCritic, MlpStack, TabularSoftmaxPolicy,
                              max_relative_error, softmax, tabular_features)
from dactd.learner import (RunResult, StepSchedule, TheoryRunResult,
                           _fit_gradient, _score_table, _value_table,
                           actor_step, critic_step, make_driver,
                           run_experiment, run_theory, td_errors)
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
    # Bools and strings are not reals, as in the configs.
    dict(kind="constant", base="0.5"),
    dict(kind="constant", base=True),
    dict(kind="polynomial", base=0.5, exponent=True),
    # A constant schedule would ignore its exponent.
    dict(kind="constant", base=0.1, exponent=0.5),
])
def test_bad_schedules_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        StepSchedule(**kwargs)


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
# Whole-team steps of the online loop
# ---------------------------------------------------------------------------

def test_td_error_examples():
    zero = np.zeros((1, 2))
    assert td_errors(zero, 0.9, np.array([0]), np.array([1.0]),
                     np.array([1])) == [1.0]
    ones = np.ones((2, 2))
    out = td_errors(ones, 0.9, np.array([0, 1]), np.array([0.0, 1.0]),
                    np.array([1, 1]))
    assert out == pytest.approx([-0.1, 0.9])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_td_error_refuses_non_finite_values():
    broken = np.array([[np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError):
        td_errors(broken, 0.9, np.array([0, 0]), np.array([1.0, 1.0]),
                  np.array([1, 1]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_critic_update_examples():
    v = critic_step(np.zeros((2, 2)), np.array([0, 1]), np.array([1.0, -2.0]),
                    0.1)
    assert np.allclose(v, [[0.1, 0.0], [0.0, -0.2]], rtol=0, atol=1e-15)
    assert np.array_equal(critic_step(v, np.array([1, 0]),
                                      np.array([5.0, 5.0]), 0.0), v)
    with pytest.raises(NumericError):
        critic_step(v, np.array([0, 0]), np.array([1e308, 0.0]), 1e10)


def test_actor_update_examples():
    theta = np.array([[[0.5, -0.5], [0.0, 1.0]]])
    assert np.array_equal(actor_step(theta, np.array([0.0]), np.ones((1, 2, 2)),
                                     0.1, 10.0), theta)
    eta = np.array([[[10.0, -10.0], [0.0, 0.0]]])
    clamped = actor_step(np.full((1, 2, 2), 0.9), np.array([1.0]), eta, 1.0, 1.0)
    assert np.array_equal(clamped, [[[1.0, -1.0], [0.9, 0.9]]])


@given(theta=st.floats(-5, 5), delta=st.floats(-100, 100),
       eta=st.floats(-100, 100), alpha=st.floats(0, 10),
       box=st.floats(0.01, 10))
def test_actor_update_respects_the_box(theta, delta, eta, alpha, box):
    out = actor_step(np.full((1, 2, 2), theta), np.array([delta]),
                     np.full((1, 2, 2), eta), alpha, box)
    assert np.abs(out).max() <= box


# ---------------------------------------------------------------------------
# The per-agent online loop: the slow reference of run_theory's table loop
# ---------------------------------------------------------------------------

def sample_from_probs(probs, rng):
    """Inverse-CDF draw over ascending action ids."""
    cum = np.cumsum(probs)
    u = rng.random()
    return min(int(np.searchsorted(cum, u, side="right")), probs.shape[-1] - 1)


def local_td_error(critic, gamma, s_local, reward, s_next_local):
    delta = reward + gamma * critic.value(s_next_local) - critic.value(s_local)
    if not np.isfinite(delta):
        raise NumericError(f"non-finite TD error {delta!r}")
    return float(delta)


def critic_update(critic, delta, grad, beta):
    w = critic.get_flat() + beta * delta * grad
    if not np.all(np.isfinite(w)):
        raise NumericError("critic weights diverged to non-finite values")
    critic.set_flat(w)


def actor_update(theta, delta_team, eta, alpha, box):
    out = theta + alpha * delta_team * eta
    np.clip(out, -box, box, out=out)
    return out


def reference_run(env, graph, policies, critics, actor_schedule,
                  critic_schedule, n_steps, seed, protocol="general",
                  channel_model=None, theta_box=10.0):
    """run_theory as a loop over per-agent objects: scalar draws, one-hot dot
    products and flat parameter vectors."""
    n = env.n_agents
    _, env_ss, policy_ss, channel_ss = np.random.SeedSequence(seed).spawn(4)
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)
    driver = None if protocol is None else make_driver(
        "dac_td", protocol, graph, channel_model, 0, (),
        channel_ss.generate_state(1)[0])
    K = 0 if driver is None else driver.K
    s = env.initial_state()
    states = np.zeros((n_steps + 1, n), dtype=np.int64)
    states[0] = s
    local_deltas = np.zeros((n_steps, n))
    team_estimates = np.zeros((n_steps, n))
    applied = np.zeros(n_steps, dtype=bool)
    eta_hist, alpha_hist = {}, {}
    for t in range(n_steps):
        actions = np.array([sample_from_probs(policies[i].probs(int(s[i])),
                                              rng_policy)
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
        local_deltas[t] = deltas
        if driver is not None:
            team = driver.tick(t, deltas)
            team_estimates[t] = team
            if t >= K and actor_schedule is not None:
                etas, alpha = eta_hist.pop(t - K), alpha_hist.pop(t - K)
                for i in range(n):
                    policies[i].set_flat(actor_update(
                        policies[i].get_flat(), float(team[i]), etas[i],
                        alpha, theta_box))
                applied[t] = True
        s = s_next
        states[t + 1] = s
    return TheoryRunResult(
        K=K, states=states, local_deltas=local_deltas,
        team_estimates=team_estimates, updates_applied=applied,
        critic_weights=[np.copy(c.v) for c in critics],
        actor_params=[p.get_flat() for p in policies])


def _random_learners(n, seed):
    # Random logits and critic weights, so no zero is trivially +0.
    rng = np.random.default_rng(seed)
    policies = [TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
                for _ in range(n)]
    critics = [LinearCritic(tabular_features(2), v=rng.normal(size=2))
               for _ in range(n)]
    return policies, critics


def _period_two_graph(n):
    line = {(i, i + 1) for i in range(1, n)}
    chords = [{(1, n)} if n > 2 else set(), {(2, n)} if n > 3 else set()]
    return GraphSchedule(n, [edges | {(j, i) for i, j in edges}
                             for edges in (line | chords[0], line | chords[1])])


CONST = (StepSchedule.constant(0.05), StepSchedule.constant(0.1))
POLY = (StepSchedule.polynomial(0.5, 0.9), StepSchedule.polynomial(0.5, 0.6))
LOSSY = ChannelModel(t1=1, t2=2, drop_prob=0.3)


@pytest.mark.parametrize("n, protocol, schedules, channel, box", [
    (1, "general", CONST, None, 10.0),
    (3, "general", POLY, LOSSY, 10.0),
    (7, "general", CONST, LOSSY, 10.0),
    (3, "centralized", POLY, None, 10.0),
    (7, "centralized", CONST, None, 0.001),
    (1, "acyclic", POLY, None, 0.001),
    (3, "acyclic", CONST, None, 10.0),
    (7, "acyclic", POLY, None, 10.0),
    (3, "general", (None, CONST[1]), LOSSY, 10.0),
    (7, "general", CONST, LOSSY, 0.001),
    (1, None, (None, POLY[1]), None, 10.0),
    (3, None, (None, CONST[1]), None, 10.0),
    (7, None, (None, POLY[1]), None, 10.0),
])
def test_table_loop_is_bitwise_the_per_agent_reference(n, protocol, schedules,
                                                       channel, box):
    # acyclic needs a tree, so it runs on the static line.
    graph = GraphSchedule.line(n) if protocol == "acyclic" else _period_two_graph(n)
    runs = []
    for run in (run_theory, reference_run):
        policies, critics = _random_learners(n, 100 + n)
        res = run(CoupledEnv(n, 0.9), graph, policies, critics, *schedules,
                  150, seed=n, protocol=protocol, channel_model=channel,
                  theta_box=box)
        runs.append((res, [p.logits for p in policies], [c.v for c in critics]))
    (fast, fast_logits, fast_v), (slow, slow_logits, slow_v) = runs
    assert fast.K == slow.K
    if protocol is not None and schedules[0] is not None:
        assert fast.updates_applied.sum() == 150 - fast.K
    for field in ("states", "local_deltas", "team_estimates", "updates_applied"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    for a, b in zip(fast.actor_params + fast.critic_weights + fast_logits + fast_v,
                    slow.actor_params + slow.critic_weights + slow_logits + slow_v):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    if box == 0.001:
        assert np.abs(fast.actor_params).max() == box


def _bad_online_inputs():
    rng = np.random.default_rng(0)
    not_one_hot = np.array([[1.0, 0.0], [1.0, 1.0]])
    policies, critics = _fresh_learners(2)
    cases = {
        "mlp policy": dict(policies=[MlpStack((2, 3, 2), 1, rng)] * 2),
        "3-state policy": dict(policies=[TabularSoftmaxPolicy(3, 2)] * 2),
        "mlp critic": dict(critics=[MlpStack((2, 3, 1), 1, rng)] * 2),
        "joint features": dict(critics=[LinearCritic(
            tabular_features(4))] * 2),             # one-hot over (2, 2)
        "not one-hot": dict(critics=[LinearCritic(not_one_hot)] * 2),
        "negative steps": dict(n_steps=-1),
        "fractional steps": dict(n_steps=2.5),
        "bool steps": dict(n_steps=True),
        "zero box": dict(theta_box=0.0),
        "negative box": dict(theta_box=-1.0),
        "infinite box": dict(theta_box=float("inf")),
        "nan box": dict(theta_box=float("nan")),
        "bool box": dict(theta_box=True),           # not a box of 1.0
        "string box": dict(theta_box="2"),
        "no driver with an actor": dict(protocol=None),
    }
    base = dict(policies=policies, critics=critics, n_steps=5, theta_box=1.0,
                protocol="general")
    return {name: {**base, **case} for name, case in cases.items()}


@pytest.mark.parametrize("name", sorted(_bad_online_inputs()))
def test_run_theory_rejects_what_the_table_loop_cannot_run(name):
    kw = _bad_online_inputs()[name]
    with pytest.raises(ConfigurationError):
        run_theory(CoupledEnv(2, 0.9), GraphSchedule.line(2), kw["policies"],
                   kw["critics"], StepSchedule.constant(0.01),
                   StepSchedule.constant(0.05), kw["n_steps"], seed=0,
                   protocol=kw["protocol"], theta_box=kw["theta_box"])


def test_run_theory_refuses_a_channel_without_a_protocol():
    # protocol=None with actor_schedule=None is a valid evaluation run, so
    # only the channel can be what is refused; it would be silently unused.
    policies, critics = _fresh_learners(2)
    with pytest.raises(ConfigurationError, match="channel_model"):
        run_theory(CoupledEnv(2, 0.9), GraphSchedule.line(2), policies,
                   critics, None, StepSchedule.constant(0.05), 5, seed=0,
                   protocol=None,
                   channel_model=ChannelModel(t1=3, t2=5, drop_prob=0.9))


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

    def go(n_steps):
        policies, critics = _fresh_learners(3)
        return run_theory(env, graph, policies, critics,
                          StepSchedule.constant(0.01),
                          StepSchedule.constant(0.05), n_steps, seed=3)

    # A whole float is a step count, as in a config.
    a, b = go(80), go(80.0)
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
    res = run_theory(env, GraphSchedule.line(2), policies, critics, None,
                     StepSchedule.polynomial(0.5, 0.6), 30_000, seed=4,
                     protocol=None)
    weights = res.critic_weights
    assert np.abs(weights[0] - [4.77386935, 5.22613065]).max() < 0.5
    assert np.array_equal(weights[1], np.zeros(2))
    assert res.K == 0 and not res.team_estimates.any()
    assert not res.updates_applied.any()


# ---------------------------------------------------------------------------
# Latency windows and neighborhoods
# ---------------------------------------------------------------------------

def test_latency_window_resolution():
    line5 = GraphSchedule.line(5)

    def lag(protocol, channel_model):
        return make_driver("dac_td", protocol, line5, channel_model, 0, (),
                           0).K

    assert lag("general", None) == 4
    assert lag("general", ChannelModel(t1=1, t2=1)) == 8
    assert lag("acyclic", ChannelModel(t1=3, t2=1)) == 4
    with pytest.raises(ConfigurationError):
        lag("acyclic", ChannelModel(t1=3, t2=7))
    with pytest.raises(ConfigurationError):
        lag("acyclic", ChannelModel(t1=1, drop_prob=0.2))
    assert lag("centralized", None) == 4


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
    with pytest.raises(ConfigurationError, match="outside 1..3"):
        replace(BASE, graph_kind="custom", graph_edges=((3, 4), (4, 3)))
    # Edges on a named graph kind would be ignored.
    with pytest.raises(ConfigurationError, match="only a custom graph"):
        ExperimentConfig(n_agents=3, graph_kind="line",
                         graph_edges=((1, 3), (3, 1)))
    # A run outside the config's grid skips none of its checks.
    with pytest.raises(ConfigurationError):
        run_experiment(BASE, [(AlgorithmChoice("khop_sac", 1), 0)])
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
                dict(critic_epochs=np.True_), dict(episodes=np.float32(2.5)),
                # Bools and strings are not reals; names and paths are strings.
                dict(actor_step=True), dict(gamma="0.5"), dict(out_dir=None),
                dict(name=None), dict(episodes="7"),
                dict(graph_kind="custom",
                     graph_edges=(("1", "2"), ("2", "1"), ("2", "3"), ("3", "2")))):
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
    # one (T, n) block per generator, and run_theory its policy uniforms; they
    # are the per-step draws, and the per-agent scalar draws, bit for bit.
    n, T = 5, 100
    _, env_ss, policy_ss, _ = np.random.SeedSequence(7).spawn(4)
    for ss in (env_ss, policy_ss):
        block_rng = np.random.default_rng(ss)
        step_rng = np.random.default_rng(ss)
        scalar_rng = np.random.default_rng(ss)
        for _ in range(3):
            block = block_rng.random((T, n))
            steps = np.stack([step_rng.random(n) for _ in range(T)])
            scalars = np.array([[scalar_rng.random() for _ in range(n)]
                                for _ in range(T)])
            assert block.tobytes() == steps.tobytes() == scalars.tobytes()


def test_episodic_rollout_is_the_coupled_env_law():
    # run_experiment writes the environment's law inline, as (base + s @
    # gain) / 2N.  Rebuild the seed's actor and generators and step
    # CoupledEnv on the same per-step uniforms: episodes 0..K run before the
    # first actor update, so their returns must match bit for bit.
    seed, n, T = 0, BASE.n_agents, BASE.steps
    res = run_experiment(BASE, [(DAC, seed)])[0]
    init_ss, env_ss, policy_ss, _ = np.random.SeedSequence(seed).spawn(4)
    actor = MlpStack((2, *BASE.actor_hidden, 2), n,
                     np.random.default_rng(init_ss), BASE.leaky_slope)
    probs = softmax(actor.forward(np.broadcast_to(np.eye(2), (n, 2, 2))))
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)
    env = CoupledEnv(n, BASE.gamma)
    agents = np.arange(n)
    for e in range(res.K + 1):
        u_policy = rng_policy.random((T, n))
        s = env.initial_state()
        rewards = []
        for t in range(T):
            a = (probs[agents, s, 0] <= u_policy[t]).astype(np.int64)
            s, r = env.step(s, a, rng_env)
            rewards.append(r)
        per_agent = np.array(rewards).T.copy()            # (n, T)
        returns = np.array([np.sum(row) for row in per_agent])
        assert res.agent_returns[e].tobytes() == returns.tobytes()
        assert res.team_returns[e] == np.sum(returns) / n


def test_episodic_run_shapes_and_reward_structure():
    res = run_experiment(BASE, [(DAC, 0)])[0]
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
    dac, sac = run_experiment(BASE, [(DAC, 0), (SAC2, 0)])
    assert dac.K == sac.K == 2
    assert np.array_equal(dac.team_returns, sac.team_returns)
    assert np.array_equal(dac.agent_returns, sac.agent_returns)
    assert np.array_equal(dac.actor_params, sac.actor_params)
    assert np.array_equal(dac.critic_params, sac.critic_params)
    assert sac.payload_slots == 0


SAC3 = AlgorithmChoice("khop_sac", 3)
RING = replace(BASE, n_agents=4, graph_kind="custom",
               graph_edges=((1, 2), (2, 3), (3, 4), (4, 1)),
               algorithms=(DAC, SAC3))


def test_one_way_ring_baseline_at_the_diameter_is_bitwise_identical():
    dac, sac = run_experiment(RING, [(DAC, 0), (SAC3, 0)])
    assert dac.K == sac.K == 3
    assert np.array_equal(dac.team_returns, sac.team_returns)
    assert np.array_equal(dac.actor_params, sac.actor_params)
    assert np.array_equal(dac.critic_params, sac.critic_params)


def test_zero_hop_baseline_collapses_to_independent_learning():
    k0, ind = run_experiment(BASE, [(SAC0, 0), (IND, 0)])
    assert np.array_equal(k0.team_returns, ind.team_returns)
    assert np.array_equal(k0.actor_params, ind.actor_params)
    assert np.array_equal(k0.critic_params, ind.critic_params)


def test_tree_protocol_reproduces_the_general_run():
    gen = run_experiment(BASE, [(DAC, 0)])[0]
    acy = run_experiment(replace(BASE, protocol="acyclic"), [(DAC, 0)])[0]
    assert gen.K == acy.K
    assert np.array_equal(gen.team_returns, acy.team_returns)
    assert np.allclose(gen.actor_params, acy.actor_params, atol=1e-9)
    assert np.allclose(gen.critic_params, acy.critic_params, atol=1e-9)
    assert acy.payload_slots == acy.K


def test_packet_loss_does_not_perturb_learning():
    lossless = run_experiment(replace(
        BASE, channel=ChannelModel(t1=1, t2=1, drop_prob=0.0, seed=5)),
        [(DAC, 0)])[0]
    lossy = run_experiment(replace(
        BASE, channel=ChannelModel(t1=1, t2=1, drop_prob=0.4, seed=5)),
        [(DAC, 0)])[0]
    assert lossless.K == lossy.K == 4
    assert np.array_equal(lossless.team_returns, lossy.team_returns)
    assert np.array_equal(lossless.actor_params, lossy.actor_params)
    assert np.array_equal(lossless.critic_params, lossy.critic_params)


def test_different_seeds_give_different_trajectories():
    a, b = run_experiment(BASE, [(DAC, 0), (DAC, 1)])
    assert not np.array_equal(a.team_returns, b.team_returns)


def test_episodic_runs_are_reproducible():
    a = run_experiment(BASE, [(DAC, 0)])[0]
    b = run_experiment(BASE, [(DAC, 0)])[0]
    assert np.array_equal(a.team_returns, b.team_returns)
    assert np.array_equal(a.actor_params, b.actor_params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runaway_batch_critic_raises():
    # Every cell diverges at once; the lowest-indexed one is named.
    with pytest.raises(NumericError, match="critic weights of independent_ac "
                       "seed 1 diverged to non-finite values at episode 0$"):
        run_experiment(replace(BASE, critic_step=1e8, episodes=3),
                       [(IND, 1), (DAC, 0)])
    # Seed 0 stays finite; seed 3 diverges at episode 2 and seed 2 later.
    with pytest.raises(NumericError, match="critic weights of dac_td seed 3 "
                       "diverged to non-finite values at episode 2$"):
        run_experiment(replace(BASE, critic_step=2.3),
                       [(DAC, 0), (DAC, 2), (DAC, 3)])


# ---------------------------------------------------------------------------
# The stacked grid against the one-cell loop it replaced
# ---------------------------------------------------------------------------

def reference_experiment(cfg: ExperimentConfig, algorithm: AlgorithmChoice,
                         seed: int) -> RunResult:
    """One cell trained alone, episode by episode: the slow reference for
    the stacked grid of `run_experiment`."""
    n, T = cfg.n_agents, cfg.steps
    init_ss, env_ss, policy_ss, channel_ss = np.random.SeedSequence(
        seed).spawn(4)
    rng_init = np.random.default_rng(init_ss)
    rng_env = np.random.default_rng(env_ss)
    rng_policy = np.random.default_rng(policy_ss)
    actor = MlpStack((2, *cfg.actor_hidden, 2), n, rng_init, cfg.leaky_slope)
    critic = MlpStack((2, *cfg.critic_hidden, 1), n, rng_init, cfg.leaky_slope)
    driver = make_driver(algorithm.kind, cfg.protocol, cfg.build_graph(),
                         cfg.channel, algorithm.k, (T,),
                         channel_ss.generate_state(1)[0])
    K = driver.K

    basis = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    agents = np.arange(n)
    agent_idx = agents[:, None]
    team_returns = np.zeros(cfg.episodes)
    agent_returns = np.zeros((cfg.episodes, n))
    applied = np.zeros(cfg.episodes, dtype=bool)
    eta_buf = {}
    for e in range(cfg.episodes):
        probs = softmax(actor.forward(basis))
        u_policy = rng_policy.random((T, n))
        u_env = rng_env.random((T, n))
        takes_one = (probs[None, :, :, 0]
                     <= u_policy[:, :, None]).astype(np.int64)
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
        s_seq = traj[:-1].T
        sn_seq = traj[1:].T
        x_seq = basis[agent_idx, s_seq]
        counts = x_seq.sum(axis=1)
        eta_buf[e] = (_score_table(actor, basis, probs), 2 * s_seq + actions.T)

        for epoch in range(cfg.critic_epochs):
            current = _value_table(critic, basis)
            if epoch % cfg.target_refresh == 0:
                targets = rewards_seq + cfg.gamma * current[agent_idx, sn_seq]
                target_sums = (targets[:, None, :] @ x_seq)[:, 0]
            grad = _fit_gradient(critic, basis, current, target_sums, counts, T)
            critic.apply_update(cfg.critic_step * grad)
        if not np.all(np.isfinite(critic.get_flat())):
            raise NumericError("critic weights diverged to non-finite values")

        table = _value_table(critic, basis)
        delta = (rewards_seq + cfg.gamma * table[agent_idx, sn_seq]
                 - table[agent_idx, s_seq])
        team_delta = driver.tick(e, delta)
        if e >= K:
            scores, codes = eta_buf.pop(e - K)
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


def assert_same_bits(a: RunResult, b: RunResult) -> None:
    for f in fields(RunResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype,
                                                       y.tobytes()), f.name
        else:
            assert x == y, f.name


LINE5 = Path(__file__).resolve().parents[1] / "configs" / "line5.yaml"
TIGHT_BOX = 0.2
STACKED_CASES = {
    "line5": lambda: load_config(LINE5, episodes=12, seeds=(0, 1)),
    "lossy delayed channel": lambda: replace(BASE, channel=LOSSY),
    "acyclic": lambda: replace(BASE, protocol="acyclic"),
    "ring, khop k=3": lambda: RING,
    "clamped": lambda: replace(BASE, theta_box=TIGHT_BOX, seeds=(0, 1)),
}


@pytest.mark.parametrize("case", STACKED_CASES)
def test_stacked_grid_is_bitwise_the_one_cell_loop(case):
    cfg = STACKED_CASES[case]()
    grid = cfg.expand_runs()
    stacked = run_experiment(cfg, grid)
    assert len(stacked) == len(grid)
    for (alg, seed), res in zip(grid, stacked):
        assert_same_bits(res, reference_experiment(cfg, alg, seed))
    # Neither the order of the cells nor how the grid is split matters.
    for res, back in zip(stacked, run_experiment(cfg, grid[::-1])[::-1]):
        assert_same_bits(res, back)
    half = len(grid) // 2
    split = (run_experiment(cfg, grid[:half])
             + run_experiment(cfg, grid[half:]))
    for res, part in zip(stacked, split):
        assert_same_bits(res, part)
    if case == "clamped":
        assert any((np.abs(res.actor_params) == TIGHT_BOX).any()
                   for res in stacked)
