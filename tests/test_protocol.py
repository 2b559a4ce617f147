"""Windowed fill-in protocol: write-once merges, exact delayed read-out."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.errors import (IncompleteAggregationError, NumericError,
                          ProtocolCorruptionError)
from dactd.protocol import (AcyclicProtocolDriver, GeneralProtocolDriver,
                            NeighborhoodDriver, TDHistory, WindowPayload,
                            _drive, ascending_mean, centralized_team_td,
                            run_general_exchange)
from dactd.topology import GraphSchedule, latency_bound
from dactd.transport import Channel, ChannelModel


# ---------------------------------------------------------------------------
# Reference mean
# ---------------------------------------------------------------------------

def test_mean_of_three():
    assert centralized_team_td(np.array([1.0, 2.0, 3.0])) == 2.0


def test_mean_of_one_is_identity():
    assert centralized_team_td(np.array([0.37])) == 0.37


def test_mean_of_zeros():
    assert centralized_team_td(np.zeros(5)) == 0.0


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        centralized_team_td(np.array([]))


def test_ascending_mean_fixes_the_summation_order():
    vals = np.array([0.1, 0.2, 0.3, 1e16, -1e16])
    manual = ((((vals[0] + vals[1]) + vals[2]) + vals[3]) + vals[4]) / 5
    assert ascending_mean(vals) == manual


# ---------------------------------------------------------------------------
# Per-origin vectors
# ---------------------------------------------------------------------------

def test_fresh_vector_knows_only_its_own_slot():
    h = TDHistory(2, 3, K=1)
    for t in range(10):
        h.advance(t)
    h.set_own(9, 0.5)
    vec = h.vector_at(9)
    assert vec.origin_tick == 9
    assert list(vec.known) == [False, True, False]
    assert vec.values[1] == 0.5


def test_zero_value_is_still_known():
    h = TDHistory(1, 2, K=1)
    h.advance(0)
    h.set_own(0, 0.0)
    vec = h.vector_at(0)
    assert vec.known[0] and not vec.known[1]
    assert vec.values[0] == 0.0


def test_single_agent_vector_is_complete_immediately():
    h = TDHistory(1, 1, K=1)
    for t in range(5):
        h.advance(t)
    h.set_own(4, -1.5)
    assert h.vector_at(4).known.all()
    assert h.team_td(4) == -1.5


def test_invalid_origin_agent_rejected():
    with pytest.raises(ValueError):
        TDHistory(0, 3, K=1)
    with pytest.raises(ValueError):
        TDHistory(4, 3, K=1)


# ---------------------------------------------------------------------------
# History windows: fill-in, write-once, read-out
# ---------------------------------------------------------------------------

def _history(owner=1, n=3, K=2):
    h = TDHistory(owner, n, K)
    h.advance(0)
    return h


def _one_row(origin, values, known):
    return WindowPayload(origins=(origin,), values=np.array([values]),
                         known=np.array([known]))


def test_disjoint_fill_in_completes_a_row():
    h = _history()
    h.set_own(0, 1.0)
    h.merge_payload(_one_row(0, [0.0, 2.0, 0.0], [False, True, False]))
    h.merge_payload(_one_row(0, [0.0, 0.0, 3.0], [False, False, True]))
    assert h.team_td(0) == 2.0


def test_merge_is_idempotent():
    h = _history()
    h.set_own(0, 1.0)
    payload = _one_row(0, [0.0, 2.0, 0.0], [False, True, False])
    h.merge_payload(payload)
    before = h.vector_at(0)
    h.merge_payload(payload)
    after = h.vector_at(0)
    assert np.array_equal(before.values, after.values)
    assert np.array_equal(before.known, after.known)


def test_conflicting_known_values_raise():
    h = _history()
    h.set_own(0, 1.0)
    h.merge_payload(_one_row(0, [0.0, 2.0, 0.0], [False, True, False]))
    clash = _one_row(0, [0.0, 2.5, 0.0], [False, True, False])
    with pytest.raises(ProtocolCorruptionError):
        h.merge_payload(clash)


def test_own_slot_is_write_once():
    h = _history()
    h.set_own(0, 1.0)
    with pytest.raises(ProtocolCorruptionError):
        h.set_own(0, 1.0)


def test_incomplete_read_out_names_the_missing_agents():
    h = _history(owner=2)
    h.set_own(0, 4.0)
    with pytest.raises(IncompleteAggregationError) as err:
        h.team_td(0)
    assert err.value.missing == [1, 3]


def test_window_slides_and_evicts_the_oldest_cohort():
    h = _history(n=2, K=2)
    h.set_own(0, 1.0)
    h.advance(1)
    h.set_own(1, 2.0)
    h.advance(2)
    h.set_own(2, 3.0)
    h.advance(3)  # cohort 0 leaves the window
    with pytest.raises(ValueError):
        h.team_td(0)


def test_ticks_must_advance_by_one():
    h = _history()
    with pytest.raises(ValueError):
        h.advance(2)


def test_precohort_rows_read_as_zero():
    h = TDHistory(1, 4, K=3)
    h.advance(0)
    h.set_own(0, 7.0)
    assert h.team_td(-1) == 0.0
    assert h.team_td(-3) == 0.0


def test_payload_carries_k_times_n_slots_newest_first():
    h = _history(n=3, K=2)
    h.set_own(0, 1.0)
    h.advance(1)
    h.set_own(1, 2.0)
    p = h.window_payload()
    assert p.slot_count == 2 * 3
    assert p.origins == (1, 0)
    assert not p.values.flags.writeable


def test_merge_accepts_whole_payloads():
    sender = TDHistory(1, 2, K=2)
    receiver = TDHistory(2, 2, K=2)
    for t, val in enumerate((0.5, -1.0)):
        sender.advance(t)
        sender.set_own(t, val)
        receiver.advance(t)
        receiver.set_own(t, 10.0 * val)
    receiver.merge_payload(sender.window_payload())
    assert receiver.team_td(0) == (0.5 + 5.0) / 2
    assert receiver.team_td(1) == (-1.0 + -10.0) / 2


def test_stale_payload_rows_are_ignored():
    sender = TDHistory(1, 2, K=1)
    sender.advance(0)
    sender.set_own(0, 3.0)
    receiver = TDHistory(2, 2, K=1)
    receiver.advance(0)
    receiver.set_own(0, 1.0)
    receiver.advance(1)
    receiver.set_own(1, 1.0)
    receiver.advance(2)  # window is now [1, 2]; origin 0 is stale
    receiver.set_own(2, 1.0)
    receiver.merge_payload(sender.window_payload())
    assert not receiver.vector_at(1).known[0]


def _window(hist):
    """Origin -> copy of the history's vector, for every origin in its window."""
    return {o: hist.vector_at(o)
            for o in range(hist.newest_tick - hist.K, hist.newest_tick + 1)}


def reference_merge(window, payload):
    """Per-slot write-once fill-in of a payload into ``_window`` vectors.

    Every known payload slot whose origin is in the window is checked first:
    a slot known on both sides with different bits raises
    ProtocolCorruptionError before anything is written.  Then each slot
    unknown locally takes the payload's value and becomes known."""
    slots = [(o, r, j) for r, o in enumerate(payload.origins) if o in window
             for j in range(payload.known.shape[1]) if payload.known[r, j]]
    for o, r, j in slots:
        local = window[o]
        if (local.known[j] and local.values[j].tobytes()
                != payload.values[r, j].tobytes()):
            raise ProtocolCorruptionError(f"conflicting values for origin {o}")
    for o, r, j in slots:
        if not window[o].known[j]:
            window[o].values[j] = payload.values[r, j]
            window[o].known[j] = True


@st.composite
def history_and_payloads(draw):
    """A receiver history plus 1-3 same-shape payloads with consecutive
    origins, merged in turn.

    Slots are scalar or 3-vectors, each payload's newest origin ranges from
    older than the receiver's window to ahead of its newest tick, and a
    payload may carry one forged value that conflicts with what the receiver
    knows."""
    n = draw(st.integers(min_value=2, max_value=5))
    K = draw(st.integers(min_value=1, max_value=4))
    owner = draw(st.integers(min_value=1, max_value=n))
    ticks = draw(st.integers(min_value=0, max_value=K + 2))
    value_shape = draw(st.sampled_from([(), (3,)]))
    ahead = 2
    base = np.arange(1.0, 1.0 + (K + ticks + ahead + 2) * n).reshape(-1, n)
    if value_shape:
        base = base[..., None] + np.arange(3) / 4

    hist = TDHistory(owner, n, K, value_shape)
    for t in range(ticks + 1):
        hist.advance(t)
        hist.set_own(t, base[t, owner - 1])

    payloads = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        sender_newest = draw(st.integers(min_value=max(0, ticks - K),
                                         max_value=ticks + ahead))
        origins = tuple(sender_newest - tau for tau in range(K))
        known = np.zeros((K, n), dtype=bool)
        values = np.zeros((K, n, *value_shape))
        for r, o in enumerate(origins):
            mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            for j, m in enumerate(mask):
                if m and o >= 0:
                    known[r, j] = True
                    values[r, j] = base[o, j]
        if known.any() and draw(st.booleans()):
            r, j = np.argwhere(known)[draw(st.integers(0, int(known.sum()) - 1))]
            values[r, j] += 0.5
        payloads.append(WindowPayload(origins=origins, values=values,
                                      known=known))
    return hist, payloads


@settings(max_examples=150, deadline=None)
@given(history_and_payloads())
def test_vectorized_merge_equals_row_by_row_merge(case):
    hist, payloads = case
    expected = _window(hist)
    for payload in payloads:
        try:
            reference_merge(expected, payload)
            conflict = False
        except ProtocolCorruptionError:
            conflict = True
        if conflict:
            with pytest.raises(ProtocolCorruptionError):
                hist.merge_payload(payload)
        else:
            hist.merge_payload(payload)
        got = _window(hist)
        for o, vec in expected.items():
            assert got[o].values.tobytes() == vec.values.tobytes()
            assert (got[o].known == vec.known).all()


# ---------------------------------------------------------------------------
# Full exchanges over a real channel
# ---------------------------------------------------------------------------

def _random_stream(rng, ticks, n, shape=()):
    return rng.normal(size=(ticks, n, *shape))


def test_lossy_line_recovers_the_centralized_mean_bitwise():
    g = GraphSchedule.line(5)
    K = latency_bound(g, 3, 2)
    ch = Channel(ChannelModel(t1=3, t2=2, drop_prob=0.3, seed=77), g)
    deltas = _random_stream(np.random.default_rng(4), K + 6, 5)
    res = run_general_exchange(g, ch, deltas, K)
    for t in range(K, deltas.shape[0]):
        assert (res.readouts[t] == res.reference[t]).all()
    assert res.payload_slots == K * 5


def test_read_out_is_the_stream_shifted_by_k():
    # A zero-delay shadow fed the same stream shifted by K must agree with
    # every agent's read-out, bit for bit.
    g = GraphSchedule.ring(4)
    K = latency_bound(g, 1, 1)
    ch = Channel(ChannelModel(t1=1, t2=1, drop_prob=0.4, seed=3), g)
    deltas = _random_stream(np.random.default_rng(9), K + 8, 4)
    res = run_general_exchange(g, ch, deltas, K)
    for t in range(deltas.shape[0]):
        shadow = ascending_mean(deltas[t - K]) if t >= K else 0.0
        assert (res.readouts[t] == shadow).all()


def test_vector_valued_slots_are_recovered_exactly():
    g = GraphSchedule.line(3)
    K = latency_bound(g, 0, 1)
    ch = Channel(ChannelModel(t1=0, t2=1, seed=1), g)
    deltas = _random_stream(np.random.default_rng(5), K + 4, 3, shape=(7,))
    res = run_general_exchange(g, ch, deltas, K)
    assert (res.readouts[K:] == res.reference[K:, None, :]).all()


def test_time_varying_schedule_with_persistent_backbone():
    line = {(1, 2), (2, 1), (2, 3), (3, 2)}
    g = GraphSchedule(3, [line, line | {(1, 3), (3, 1)}])
    K = latency_bound(g, 2, 1)
    ch = Channel(ChannelModel(t1=2, t2=1, drop_prob=0.5, seed=21), g)
    deltas = _random_stream(np.random.default_rng(6), K + 5, 3)
    res = run_general_exchange(g, ch, deltas, K)
    assert (res.readouts[K:] == res.reference[K:, None]).all()


def test_exchange_rejects_mismatched_stream_width():
    g = GraphSchedule.line(3)
    ch = Channel(ChannelModel(), g)
    with pytest.raises(ValueError):
        run_general_exchange(g, ch, np.zeros((4, 2)), K=2)
    # One value per agent would otherwise fill every 3-value slot.
    driver = GeneralProtocolDriver(g, ch, 2, (3,))
    with pytest.raises(ValueError, match=r"expected shape \(3, 3\)"):
        driver.tick(0, np.zeros((3, 1)))


def test_malformed_payloads_are_rejected():
    with pytest.raises(ValueError):       # origin 2 missing
        WindowPayload(origins=(3, 1), values=np.zeros((2, 2)),
                      known=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):       # oldest first
        WindowPayload(origins=(1, 2), values=np.zeros((2, 2)),
                      known=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):       # one row short of the origins
        WindowPayload(origins=(2, 1), values=np.zeros((1, 2)),
                      known=np.zeros((1, 2), dtype=bool))
    with pytest.raises(ValueError):       # known one row short
        WindowPayload(origins=(2, 1), values=np.zeros((2, 2)),
                      known=np.zeros((1, 2), dtype=bool))
    with pytest.raises(ValueError):       # integer values
        WindowPayload(origins=(2, 1), values=np.zeros((2, 2), dtype=int),
                      known=np.zeros((2, 2), dtype=bool))


def test_forged_conflicting_payload_is_detected():
    h = TDHistory(1, 2, K=1)
    h.advance(0)
    h.set_own(0, 1.0)
    forged = WindowPayload(origins=(0,),
                           values=np.array([[9.0, 0.0]]),
                           known=np.array([[True, False]]))
    with pytest.raises(ProtocolCorruptionError):
        h.merge_payload(forged)


def test_forged_signed_zero_over_a_known_zero_is_detected():
    # The conflict check compares bits: -0.0 == +0.0, but it is not the
    # value the origin sent.
    h = TDHistory(1, 2, K=1)
    h.advance(0)
    h.set_own(0, 0.0)
    h.merge_payload(_one_row(0, [0.0, 0.0], [True, False]))
    with pytest.raises(ProtocolCorruptionError, match="origin 0"):
        h.merge_payload(_one_row(0, [-0.0, 0.0], [True, False]))


TICK_DRIVERS = {
    "general": lambda g, K: GeneralProtocolDriver(g, Channel(ChannelModel(), g), K),
    "acyclic": lambda g, K: AcyclicProtocolDriver(g, K),
    "neighborhood": lambda g, K: NeighborhoodDriver(
        [list(range(1, g.n_agents + 1))] * g.n_agents, K),
}


@pytest.mark.parametrize("kind", sorted(TICK_DRIVERS))
def test_non_finite_td_error_is_rejected_before_the_tick_changes_state(kind):
    g = GraphSchedule.line(3)
    K = latency_bound(g, 0, 1)
    make = TICK_DRIVERS[kind]
    driver = make(g, K)
    deltas = _random_stream(np.random.default_rng(8), K + 4, 3)
    poisoned = deltas[1].copy()
    poisoned[1] = np.nan
    driver.tick(0, deltas[0])
    with pytest.raises(NumericError, match=r"tick 1: .* agents \[2\]"):
        driver.tick(1, poisoned)
    # Nothing was drained, advanced or sent: the run resumes unchanged, bit
    # for bit the run of a driver that never saw the poisoned tick.
    readouts = [driver.tick(t, deltas[t]) for t in range(1, len(deltas))]
    clean = make(g, K)
    clean.tick(0, deltas[0])
    for t, got in enumerate(readouts, start=1):
        assert got.tobytes() == clean.tick(t, deltas[t]).tobytes()
    with pytest.raises(NumericError):
        _drive(make(g, K), np.where(np.arange(3) == 2, np.inf, deltas))


def test_skipped_tick_is_rejected_before_the_channel_is_drained():
    g = GraphSchedule.line(3)
    model = ChannelModel(t2=2, delay_law="fixed")
    K = latency_bound(g, model.t1, model.t2)
    driver = GeneralProtocolDriver(g, Channel(model, g), K)
    driver.tick(0, np.ones(3))
    in_flight = driver.channel.pending_count()
    assert in_flight == 4                   # one per directed edge, due at 2
    with pytest.raises(ValueError, match="ticks must advance by 1"):
        driver.tick(2, np.ones(3))
    assert driver.channel.pending_count() == in_flight


# ---------------------------------------------------------------------------
# Neighbourhood driver (centralized, k-hop and independent oracles)
# ---------------------------------------------------------------------------

def _signed_zero_stream(ticks=9, n=4, width=5):
    """Vector-valued stream with exact zeros, a -0.0, and a column whose
    agents are all -0.0 (only a sum that starts from row 0 keeps its sign)."""
    deltas = np.random.default_rng(17).normal(size=(ticks, n, width))
    deltas[2, 1, 0] = 0.0
    deltas[3, 0, 3] = -0.0
    deltas[4, :, 2] = -0.0
    deltas[5] = 0.0
    return deltas


def _tick_all(driver, deltas):
    return np.stack([driver.tick(t, deltas[t]) for t in range(len(deltas))])


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def test_all_agent_neighborhoods_are_the_delayed_centralized_mean():
    deltas = _signed_zero_stream()
    n, K = deltas.shape[1], 3
    driver = NeighborhoodDriver([list(range(1, n + 1))] * n, K, (5,))
    assert driver.payload_slots == 0
    out = _tick_all(driver, deltas)
    for t in range(K, len(deltas)):
        team = centralized_team_td(deltas[t - K])
        for i in range(n):
            assert _bits(out[t, i]) == _bits(team)
    assert np.signbit(out[4 + K, :, 2]).all()


def test_zero_hop_neighborhoods_return_each_agents_own_delta():
    deltas = _signed_zero_stream()
    n = deltas.shape[1]
    driver = NeighborhoodDriver([[i] for i in range(1, n + 1)], 0, (5,))
    assert _bits(_tick_all(driver, deltas)) == _bits(deltas)


def test_neighborhood_reads_before_tick_k_are_zero():
    deltas = _signed_zero_stream()
    K = 4
    driver = NeighborhoodDriver([[1, 2], [1, 2, 3], [2, 3, 4], [3, 4]], K, (5,))
    out = _tick_all(driver, deltas)
    assert _bits(out[:K]) == _bits(np.zeros((K, 4, 5)))
    assert _bits(out[K:, 1]) == _bits([ascending_mean(d[[0, 1, 2]])
                                       for d in deltas[:-K]])


def test_neighborhood_driver_rejects_skipped_ticks_and_bad_shapes():
    driver = NeighborhoodDriver([[1], [2]], 1, (3,))
    driver.tick(0, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        driver.tick(2, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        driver.tick(1, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        driver.tick(1, np.zeros((3, 3)))
    driver.tick(1, np.ones((2, 3)))
