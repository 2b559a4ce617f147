"""Tree protocol: K-slot increments, per-neighbor corrections, invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.errors import ConfigurationError
from dactd.protocol import (AcyclicProtocolDriver, check_neighborhood_invariant,
                            run_acyclic_exchange, run_general_exchange)
from dactd.topology import GraphSchedule, latency_bound
from dactd.transport import Channel, ChannelModel


def _tree_from_parents(parents: dict[int, int], n: int) -> GraphSchedule:
    edges = set()
    for child, parent in parents.items():
        edges.add((child, parent))
        edges.add((parent, child))
    return GraphSchedule.static(n, edges)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# Slow reference: the per-agent loop the team driver replaced
# ---------------------------------------------------------------------------

def _shift(arr, by):
    """[0]*by, a_0, ..., a_{K-1-by} along the slot axis."""
    out = np.zeros_like(arr)
    out[by:] = arr[:-by]
    return out


def reference_step(x, corrections_prev, delta_i, received, neighbors, K):
    """One agent's tick: its new level sums, increment message and
    per-neighbour corrections, from its level sums, its corrections of two
    ticks ago and the increments its neighbours sent last tick."""
    delta_arr = np.asarray(delta_i, dtype=np.float64)
    new_x = np.empty_like(x)
    new_x[0] = delta_arr
    acc = x[:-1].copy()
    for j in neighbors:
        acc += received[j] - _shift(corrections_prev[j], 1)
    new_x[1:] = acc
    new_y = np.empty_like(x[:-1])
    new_y[0] = delta_arr
    if K >= 2:
        new_y[1:] = new_x[1:K] - x[: K - 1]
    new_corr = {}
    for j in neighbors:
        zj = np.empty_like(corrections_prev[j])
        zj[0] = delta_arr
        if K >= 2:
            zj[1:] = (_shift(corrections_prev[j], 2)[1:] + new_y[1:]
                      - received[j][: K - 1])
        new_corr[j] = zj
    return new_x, new_y, new_corr


def reference_run(graph, deltas, K):
    """Per tick: every agent's read-out, then level sums and corrections per
    agent (corrections keyed by neighbour), from N per-agent states."""
    n, vs = graph.n_agents, deltas.shape[2:]
    agents = range(1, n + 1)
    nbrs = {i: tuple(sorted(j for src, j in graph.edges_at(0) if src == i))
            for i in agents}
    x = {i: np.zeros((K + 1, *vs)) for i in agents}
    y = {i: np.zeros((K, *vs)) for i in agents}
    corr = {i: {j: np.zeros((K, *vs)) for j in nbrs[i]} for i in agents}
    corr_prev = {i: {j: np.zeros((K, *vs)) for j in nbrs[i]} for i in agents}
    ticks = []
    for t in range(len(deltas)):
        inbox = {i: {j: y[j] for j in nbrs[i]} for i in agents}
        stepped = {i: reference_step(x[i], corr_prev[i], deltas[t, i - 1],
                                     inbox[i], nbrs[i], K) for i in agents}
        x = {i: stepped[i][0] for i in agents}
        y = {i: stepped[i][1] for i in agents}
        corr_prev = corr
        corr = {i: stepped[i][2] for i in agents}
        readouts = np.stack([x[i][K] / n for i in agents])
        ticks.append((readouts, x, corr))
    return ticks


# ---------------------------------------------------------------------------
# Applicability gate
# ---------------------------------------------------------------------------

def test_cycle_is_rejected():
    with pytest.raises(ConfigurationError):
        AcyclicProtocolDriver(GraphSchedule.ring(4), K=3)


def test_asymmetric_edges_are_rejected():
    g = GraphSchedule.static(2, {(1, 2)})
    with pytest.raises(ConfigurationError):
        AcyclicProtocolDriver(g, K=1)


def test_disconnected_forest_is_rejected():
    g = GraphSchedule.static(4, {(1, 2), (2, 1), (3, 4), (4, 3)})
    with pytest.raises(ConfigurationError):
        AcyclicProtocolDriver(g, K=3)


def test_time_varying_schedule_is_rejected():
    g = GraphSchedule(2, [{(1, 2), (2, 1)}, set()])
    with pytest.raises(ConfigurationError):
        AcyclicProtocolDriver(g, K=1)


def test_window_below_the_latency_bound_is_rejected():
    # On a 5-agent line a cohort needs 4 ticks to cross the tree; with K=2
    # the read-outs would be partial sums, not the team mean.
    g = GraphSchedule.line(5)
    assert latency_bound(g, 0, 1) == 4
    deltas = np.random.default_rng(0).normal(size=(12, 5))
    with pytest.raises(ConfigurationError):
        run_acyclic_exchange(g, deltas, K=2)
    with pytest.raises(ConfigurationError):
        AcyclicProtocolDriver(GraphSchedule.static(1, set()), K=0)
    res = run_acyclic_exchange(g, deltas, K=4)
    assert np.abs(res.readouts[4:] - res.reference[4:, None]).max() <= 1e-12


def test_increment_shape_is_checked():
    # The TD errors of one tick must be (N, *value_shape).
    driver = AcyclicProtocolDriver(GraphSchedule.line(2), K=2, value_shape=(3,))
    for bad in (np.zeros(2), np.zeros((2, 4)), np.zeros((3, 3)), np.zeros(3)):
        with pytest.raises(ValueError):
            driver.tick(0, bad)
    driver.tick(0, np.ones((2, 3)))


def test_ticks_must_advance_by_one():
    driver = AcyclicProtocolDriver(GraphSchedule.line(2), K=1)
    with pytest.raises(ValueError):
        driver.tick(1, np.zeros(2))
    driver.tick(0, np.zeros(2))
    for bad in (0, 2):
        with pytest.raises(ValueError):
            driver.tick(bad, np.zeros(2))
    driver.tick(1, np.zeros(2))


# ---------------------------------------------------------------------------
# Read-out values
# ---------------------------------------------------------------------------

def test_two_agents_reach_the_pair_mean_after_two_ticks():
    g = GraphSchedule.line(2)
    K = latency_bound(g, 0, 1)
    assert K == 1
    deltas = np.tile([0.7, -0.3], (6, 1))
    res = run_acyclic_exchange(g, deltas, K)
    assert res.readouts[K:] == pytest.approx(0.2, abs=1e-15)


def test_single_agent_reads_its_own_delayed_value():
    g = GraphSchedule.static(1, set())
    deltas = np.arange(5.0).reshape(5, 1)
    res = run_acyclic_exchange(g, deltas, K=1)
    assert res.readouts[0, 0] == 0.0
    assert (res.readouts[1:, 0] == deltas[:-1, 0]).all()


def test_line_of_five_matches_the_centralized_mean():
    g = GraphSchedule.line(5)
    K = latency_bound(g, 0, 1)
    deltas = np.random.default_rng(12).normal(size=(K + 10, 5))
    res = run_acyclic_exchange(g, deltas, K)
    assert np.abs(res.readouts[K:] - res.reference[K:, None]).max() <= 1e-12
    assert res.payload_slots == K


def test_vector_valued_payloads_match_too():
    g = GraphSchedule.star(4)
    K = latency_bound(g, 0, 1)
    deltas = np.random.default_rng(3).normal(size=(K + 5, 4, 6))
    res = run_acyclic_exchange(g, deltas, K)
    assert np.abs(res.readouts[K:] - res.reference[K:, None, :]).max() <= 1e-12


# ---------------------------------------------------------------------------
# Internal partial sums
# ---------------------------------------------------------------------------

def test_star_center_level_one_is_the_full_first_hop_sum():
    g = GraphSchedule.star(5)
    K = latency_bound(g, 0, 1)
    deltas = np.random.default_rng(8).normal(size=(6, 5))
    res = run_acyclic_exchange(g, deltas, K, collect_snapshots=True)
    for w in range(1, 6):
        level_sums, _ = res.snapshots[w]
        assert level_sums[0, 1] == pytest.approx(deltas[w - 1].sum(), abs=1e-12)


def test_correction_toward_a_covering_neighbor_is_zero():
    # Line 1-2-3: everything agent 1 sees at distance 1 is already within
    # distance 0 of neighbor 2, so the overlap correction must vanish.
    g = GraphSchedule.line(3)
    K = latency_bound(g, 0, 1)
    deltas = np.random.default_rng(2).normal(size=(7, 3))
    res = run_acyclic_exchange(g, deltas, K, collect_snapshots=True)
    pair = sorted(g.edges_at(0)).index((1, 2))
    for _, corrections in res.snapshots:
        assert corrections[pair, 1] == pytest.approx(0.0, abs=1e-12)


def test_partial_sums_equal_neighborhood_sums_on_a_fixed_tree():
    parents = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 6}
    g = _tree_from_parents(parents, 7)
    K = latency_bound(g, 0, 1)
    deltas = np.random.default_rng(5).normal(size=(K + 6, 7))
    res = run_acyclic_exchange(g, deltas, K, collect_snapshots=True)
    worst = check_neighborhood_invariant(g, deltas, res.snapshots, K)
    assert worst <= 1e-9


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    parents = {child: draw(st.integers(min_value=1, max_value=child - 1))
               for child in range(2, n + 1)}
    return _tree_from_parents(parents, n)


@settings(max_examples=25, deadline=None)
@given(random_trees(), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_invariant_and_read_out_hold_on_random_trees(g, seed):
    K = latency_bound(g, 0, 1)
    deltas = np.random.default_rng(seed).normal(size=(K + 4, g.n_agents))
    res = run_acyclic_exchange(g, deltas, K, collect_snapshots=True)
    assert np.abs(res.readouts[K:] - res.reference[K:, None]).max() <= 1e-9
    assert check_neighborhood_invariant(g, deltas, res.snapshots, K) <= 1e-9


# ---------------------------------------------------------------------------
# Agreement with the windowed protocol
# ---------------------------------------------------------------------------

def test_both_protocols_agree_on_a_tree_with_unit_delay():
    parents = {2: 1, 3: 2, 4: 2, 5: 4}
    g = _tree_from_parents(parents, 5)
    K = latency_bound(g, 0, 1)
    deltas = np.random.default_rng(31).normal(size=(K + 8, 5))
    ch = Channel(ChannelModel(t1=0, t2=1, delay_law="fixed"), g)
    general = run_general_exchange(g, ch, deltas, K)
    acyclic = run_acyclic_exchange(g, deltas, K)
    assert np.abs(general.readouts - acyclic.readouts).max() <= 1e-12
    assert general.payload_slots == K * 5
    assert acyclic.payload_slots == K


def test_driver_snapshot_copies_do_not_alias_state():
    g = GraphSchedule.line(3)
    driver = AcyclicProtocolDriver(g, K=2)
    driver.tick(0, np.array([1.0, 2.0, 3.0]))
    snap = driver.snapshot()
    snap[0][:] = 99.0
    snap[1][:] = 99.0
    assert driver.x[0, 0] == 1.0
    assert driver.z[0, 0] == 1.0


# ---------------------------------------------------------------------------
# Team driver against the per-agent reference
# ---------------------------------------------------------------------------

@st.composite
def tree_streams(draw):
    """A random tree (1 to 12 agents), K at or above its latency bound, and
    a TD stream whose cohorts are normal, all +0.0, all -0.0 or normal with
    scattered -0.0 values, in scalar or 3-value slots."""
    n = draw(st.integers(min_value=1, max_value=12))
    parents = {child: draw(st.integers(min_value=1, max_value=child - 1))
               for child in range(2, n + 1)}
    g = _tree_from_parents(parents, n)
    K = latency_bound(g, 0, 1) + draw(st.integers(min_value=0, max_value=2))
    value_shape = draw(st.sampled_from([(), (3,)]))
    ticks = K + draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    deltas = rng.normal(size=(ticks, n, *value_shape))
    kinds = draw(st.lists(st.sampled_from(["normal", "zero", "negzero", "mixed"]),
                          min_size=ticks, max_size=ticks))
    for t, kind in enumerate(kinds):
        if kind == "zero":
            deltas[t] = 0.0
        elif kind == "negzero":
            deltas[t] = -0.0
        elif kind == "mixed":
            deltas[t][rng.random(deltas[t].shape) < 0.5] = -0.0
    return g, K, deltas


@settings(max_examples=200, deadline=None)
@given(tree_streams())
def test_team_driver_is_bitwise_the_per_agent_reference(case):
    g, K, deltas = case
    driver = AcyclicProtocolDriver(g, K, deltas.shape[2:])
    pairs = sorted(g.edges_at(0))
    assert driver.pairs == pairs
    for t, (readouts, x, corr) in enumerate(reference_run(g, deltas, K)):
        assert _bits(driver.tick(t, deltas[t])) == _bits(readouts)
        level_sums, corrections = driver.snapshot()
        assert _bits(level_sums) == _bits([x[i] for i in sorted(x)])
        assert _bits(corrections) == _bits(
            np.array([corr[i][j] for i, j in pairs]).reshape(corrections.shape))
