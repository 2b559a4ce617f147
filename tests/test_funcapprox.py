"""Critics, softmax policies, stacked MLPs, and their analytic gradients."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.funcapprox import (FeatureMap, FixedTablePolicy, LinearCritic,
                              MlpCritic, MlpSoftmaxPolicy, MlpStack,
                              TabularSoftmaxPolicy, finite_difference,
                              joint_tabular_features, leaky, leaky_grad,
                              load_params, max_relative_error, one_hot,
                              save_params, softmax, tabular_features)


def take_action(pol, s_local, u):
    """The learners' two-action draw: action 1 exactly when the uniform draw
    u is at least pi(0|s)."""
    return int(pol.probs(s_local)[0] <= u)


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------

def test_one_hot_basics():
    assert np.array_equal(one_hot(1, 3), [0.0, 1.0, 0.0])
    assert np.array_equal(one_hot([0, 2], 3), [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        one_hot(3, 3)
    with pytest.raises(ValueError):
        one_hot(-1, 3)


def test_leaky_rectifier_and_its_slope():
    x = np.array([-2.0, 0.5])
    assert np.array_equal(leaky(x, 0.3), [-0.6, 0.5])
    assert np.array_equal(leaky_grad(x, 0.3), [0.3, 1.0])


def test_tabular_features_are_one_hot_and_bounded():
    fmap = tabular_features(4)
    mat = np.array([fmap(s) for s in range(4)])
    assert np.array_equal(mat, np.eye(4))
    assert np.abs(mat).max() <= fmap.bound


def test_feature_map_shape_is_enforced():
    bad = FeatureMap(dim=2, eval=lambda s: np.zeros(3))
    with pytest.raises(ValueError):
        bad(0)


def test_joint_tabular_features_cover_the_product_space():
    fmap = joint_tabular_features((2, 2))
    assert fmap.dim == 4
    assert np.array_equal(fmap(3), [0, 0, 0, 1])


# ---------------------------------------------------------------------------
# Linear critics
# ---------------------------------------------------------------------------

def test_linear_critic_is_a_dot_product():
    half = FeatureMap(dim=2, eval=lambda s: np.array([0.5, 0.5]))
    c = LinearCritic(half, v=np.array([1.0, 2.0]))
    assert c.value(0) == 1.5
    assert np.array_equal(c.grad(0), [0.5, 0.5])


def test_zero_weights_value_everything_at_zero():
    c = LinearCritic(tabular_features(3))
    assert all(c.value(s) == 0.0 for s in range(3))


def test_linear_critic_flat_round_trip():
    c = LinearCritic(tabular_features(2))
    c.set_flat(np.array([3.0, -1.0]))
    assert np.array_equal(c.get_flat(), [3.0, -1.0])
    assert c.value(1) == -1.0


# ---------------------------------------------------------------------------
# Softmax policies
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6))
def test_softmax_is_a_strictly_positive_distribution(logits):
    p = softmax(np.array(logits))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert (p > 0).all()


def test_uniform_policy_scores_cancel_in_expectation():
    pol = TabularSoftmaxPolicy(2, 2)
    for s in range(2):
        probs = pol.probs(s)
        total = sum(probs[a] * pol.score(s, a) for a in range(2))
        assert np.abs(total).max() <= 1e-12


def test_probs_of_mlp_policy_normalize():
    pol = MlpSoftmaxPolicy(2, 2, hidden=(4,), rng=np.random.default_rng(0))
    for s in range(2):
        p = pol.probs(s)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p > 0).all()


def test_dominant_action_has_vanishing_score():
    pol = TabularSoftmaxPolicy(2, 2, logits=np.array([[25.0, 0.0], [0.0, 0.0]]))
    assert np.abs(pol.score(0, 0)).max() <= 1e-8


def test_score_rejects_actions_outside_the_set():
    pol = TabularSoftmaxPolicy(2, 2)
    with pytest.raises(ValueError):
        pol.score(0, 2)


def test_uniform_sampling_frequency():
    pol = TabularSoftmaxPolicy(2, 2)
    rng = np.random.default_rng(123)
    draws = sum(take_action(pol, 0, rng.random()) for _ in range(100_000))
    assert abs(draws / 100_000 - 0.5) < 0.01


def test_saturated_logits_almost_always_win():
    pol = TabularSoftmaxPolicy(2, 2, logits=np.array([[0.0, 20.0], [0.0, 0.0]]))
    rng = np.random.default_rng(7)
    wins = sum(take_action(pol, 0, rng.random()) for _ in range(20_000))
    assert wins / 20_000 > 0.999


def test_sampling_is_reproducible_under_seed():
    pol = TabularSoftmaxPolicy(2, 2, logits=np.array([[0.3, -0.2], [0.0, 0.1]]))

    def sequence():
        rng = np.random.default_rng(42)
        return [take_action(pol, t % 2, rng.random()) for t in range(20)]

    assert sequence() == sequence()


def test_inverse_cdf_sampling_breaks_ties_in_ascending_order():
    # A draw equal to pi(0|s) is past the first action's mass: action 1.
    always_one = FixedTablePolicy(np.array([[0.0, 1.0]]))
    always_zero = FixedTablePolicy(np.array([[1.0, 0.0]]))
    rng = np.random.default_rng(0)
    assert all(take_action(always_one, 0, u) == 1 for u in rng.random(100))
    assert all(take_action(always_zero, 0, u) == 0 for u in rng.random(100))
    half = FixedTablePolicy(np.array([[0.5, 0.5]]))
    assert take_action(half, 0, 0.5) == 1
    assert take_action(half, 0, np.nextafter(0.5, 0.0)) == 0


# ---------------------------------------------------------------------------
# Finite-difference agreement
# ---------------------------------------------------------------------------

def _fd_check(value_fn, grad, x0, tol=1e-4):
    fd = finite_difference(value_fn, x0)
    assert max_relative_error(grad, fd) <= tol


def test_mlp_critic_gradient_matches_finite_differences():
    critic = MlpCritic(2, hidden=(5, 5), rng=np.random.default_rng(3), slope=0.3)
    x0 = critic.get_flat()

    def value(w):
        critic.set_flat(w)
        return critic.value(1)

    grad = critic.grad(1)
    _fd_check(value, grad, x0)
    critic.set_flat(x0)


def test_tabular_score_matches_finite_differences():
    pol = TabularSoftmaxPolicy(2, 2, logits=np.array([[0.4, -0.1], [0.2, 0.9]]))
    x0 = pol.get_flat()

    def logp(w):
        pol.set_flat(w)
        return float(np.log(pol.probs(1)[0]))

    _fd_check(logp, pol.score(1, 0), x0)
    pol.set_flat(x0)


def test_mlp_policy_score_matches_finite_differences():
    pol = MlpSoftmaxPolicy(2, 2, hidden=(6,), rng=np.random.default_rng(11),
                           slope=0.3)
    x0 = pol.get_flat()

    def logp(w):
        pol.set_flat(w)
        return float(np.log(pol.probs(0)[1]))

    _fd_check(logp, pol.score(0, 1), x0)
    pol.set_flat(x0)


def test_quadratic_finite_difference_sanity():
    x0 = np.array([1.0, -2.0, 0.5])
    fd = finite_difference(lambda x: float(x @ x), x0)
    assert max_relative_error(2 * x0, fd) <= 1e-6


# ---------------------------------------------------------------------------
# Stacked MLPs
# ---------------------------------------------------------------------------

def _stack(seed=0, copies=3):
    return MlpStack((2, 4, 4, 2), copies, np.random.default_rng(seed), 0.3)


def test_forward_is_deterministic():
    net = _stack()
    x = np.random.default_rng(1).normal(size=(3, 5, 2))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_copies_are_independently_initialized():
    net = _stack()
    x = np.ones((3, 1, 2))
    out = net.forward(x)
    assert not np.allclose(out[0], out[1])


def test_initial_weights_respect_the_fan_in_scale():
    net = MlpStack((8, 4, 1), 2, np.random.default_rng(0), 0.3)
    flat = net.get_flat()
    assert np.abs(flat).max() <= 0.5 / np.sqrt(1.0)  # loosest layer bound


def test_flat_round_trip_and_update():
    net = _stack()
    flat = net.get_flat()
    other = _stack(seed=9)
    other.set_flat(flat)
    x = np.random.default_rng(2).normal(size=(3, 4, 2))
    assert np.array_equal(net.forward(x), other.forward(x))
    step = np.ones_like(flat)
    other.apply_update(step)
    assert np.allclose(other.get_flat(), flat + 1.0)


def test_set_flat_rejects_wrong_shape():
    net = _stack()
    with pytest.raises(ValueError):
        net.set_flat(np.zeros((3, net.n_params + 1)))
    with pytest.raises(ValueError):
        net.set_flat(np.zeros(net.n_params))
    with pytest.raises(ValueError):
        net.apply_update(np.zeros(net.n_params))


def test_in_place_update_is_bitwise_the_flat_round_trip():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4, 2))
    for _ in range(5):
        fast, ref = _stack(seed=3), _stack(seed=3)
        step = rng.normal(size=(3, fast.n_params)) * 10.0 ** rng.integers(-17, 2)
        fast.apply_update(step)
        ref.set_flat(ref.get_flat() + step)
        assert fast.get_flat().tobytes() == ref.get_flat().tobytes()
        assert fast.forward(x).tobytes() == ref.forward(x).tobytes()


def test_param_grads_shapes():
    net = _stack(copies=2)
    x = np.random.default_rng(4).normal(size=(2, 7, 2))
    og = np.random.default_rng(5).normal(size=(2, 7, 2))
    per_sample = net.param_grads(x, og, per_sample=True)
    summed = net.param_grads(x, og, per_sample=False)
    assert per_sample.shape == (2, 7, net.n_params)
    assert summed.shape == (2, net.n_params)
    assert np.allclose(per_sample.sum(axis=1), summed)


def test_stack_gradient_matches_finite_differences():
    net = MlpStack((2, 3, 1), 1, np.random.default_rng(8), 0.3)
    x = np.array([[[0.3, -0.8]]])
    og = np.ones((1, 1, 1))
    x0 = net.get_flat()[0]

    def value(w):
        net.set_flat(w[None, :])
        return float(net.forward(x)[0, 0, 0])

    grad = net.param_grads(x, og, per_sample=False)[0]
    _fd_check(value, grad, x0)
    net.set_flat(x0[None, :])


def test_checkpoint_round_trip(tmp_path):
    net = _stack(seed=6)
    path = tmp_path / "weights.txt"
    save_params(path, net)
    loaded = load_params(path)
    x = np.random.default_rng(7).normal(size=(3, 2, 2))
    assert np.array_equal(net.forward(x), loaded.forward(x))
    assert np.array_equal(net.get_flat(), loaded.get_flat())


# ---------------------------------------------------------------------------
# Probability-table policies
# ---------------------------------------------------------------------------

def test_fixed_table_policy_is_exactly_the_table():
    table = np.array([[0.25, 0.75], [1.0, 0.0]])
    pol = FixedTablePolicy(table)
    assert np.array_equal(pol.probs(0), [0.25, 0.75])
    rng = np.random.default_rng(0)
    assert take_action(pol, 1, rng.random()) == 0
