"""Lossy-channel simulation: bounded delays, forced successes, determinism."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.errors import ConfigurationError, TransportError
from dactd.topology import GraphSchedule
from dactd.transport import Channel, ChannelModel

from helpers import payload_digest

PAIR = GraphSchedule.static(2, {(1, 2), (2, 1)})


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------

def test_certain_loss_is_rejected():
    with pytest.raises(ConfigurationError):
        ChannelModel(drop_prob=1.0)


def test_bad_delay_parameters_rejected():
    with pytest.raises(ConfigurationError):
        ChannelModel(t1=-1)
    with pytest.raises(ConfigurationError):
        ChannelModel(t2=0)
    # Counts that would fail mid-run, or run as 1, are rejected up front.
    for bad in (dict(t2=1.5), dict(t1=0.5, drop_prob=0.2), dict(t1=True),
                dict(t2="2"), dict(drop_prob="0.1"), dict(drop_prob=False)):
        with pytest.raises(ConfigurationError):
            ChannelModel(**bad)


def test_unknown_delay_law_rejected():
    with pytest.raises(ConfigurationError):
        ChannelModel(delay_law="gaussian")


def test_negative_drop_prob_rejected():
    with pytest.raises(ConfigurationError):
        ChannelModel(drop_prob=-0.1)


# ---------------------------------------------------------------------------
# Single-edge behaviour
# ---------------------------------------------------------------------------

def test_lossless_send_delivers_within_bound():
    ch = Channel(ChannelModel(t2=1, seed=5), PAIR)
    deliver = ch.attempt_send((1, 2), "x", 7)
    assert deliver in (7, 8)


def test_fixed_law_always_uses_max_delay():
    ch = Channel(ChannelModel(t2=3, delay_law="fixed"), PAIR)
    for t in range(5):
        assert ch.attempt_send((1, 2), t, t) == t + 3


def test_same_seed_reproduces_the_outcome():
    def trace(seed):
        ch = Channel(ChannelModel(t2=2, drop_prob=0.4, seed=seed), PAIR)
        return [ch.attempt_send((1, 2), i, i) for i in range(50)]

    assert trace(11) == trace(11)
    assert trace(11) != trace(12)


def test_inactive_edge_rejected():
    ch = Channel(ChannelModel(), GraphSchedule.static(3, {(1, 2), (2, 1)}))
    with pytest.raises(TransportError):
        ch.attempt_send((1, 3), "x", 0)


def test_delivery_is_forced_after_t1_consecutive_drops():
    # With near-certain loss the first two attempts drop; the third is the
    # t1-th consecutive drop candidate and must be forced through.
    ch = Channel(ChannelModel(t1=2, t2=1, drop_prob=0.999, seed=0), PAIR)
    outcomes = [ch.attempt_send((1, 2), t, t) for t in range(3)]
    assert outcomes[0] is None
    assert outcomes[1] is None
    assert outcomes[2] is not None


def test_zero_t1_means_every_send_succeeds():
    ch = Channel(ChannelModel(t1=0, t2=1, drop_prob=0.7, seed=3), PAIR)
    assert all(ch.attempt_send((1, 2), k, k) is not None for k in range(30))


def test_drop_streaks_are_tracked_per_edge():
    g = GraphSchedule.static(3, {(1, 2), (1, 3)})
    ch = Channel(ChannelModel(t1=1, t2=1, drop_prob=0.999, seed=1), g)
    first_a = ch.attempt_send((1, 2), "a", 0)
    first_b = ch.attempt_send((1, 3), "b", 0)
    assert first_a is None and first_b is None
    # each edge has its own streak of 1 == t1, so both are now forced
    assert ch.attempt_send((1, 2), "a", 1) is not None
    assert ch.attempt_send((1, 3), "b", 1) is not None


# ---------------------------------------------------------------------------
# Draining
# ---------------------------------------------------------------------------

def test_drain_orders_by_source_then_send_tick():
    g = GraphSchedule.static(3, {(2, 1), (3, 1)})
    ch = Channel(ChannelModel(t2=1, delay_law="fixed"), g)
    ch.attempt_send((3, 1), "from3", 0)
    ch.attempt_send((2, 1), "from2", 0)
    msgs = ch.drain(1, 1)
    assert [m.src for m in msgs] == [2, 3]
    assert [m.payload for m in msgs] == ["from2", "from3"]


def test_message_is_delivered_exactly_once():
    ch = Channel(ChannelModel(t2=2, delay_law="fixed"), PAIR)
    ch.attempt_send((1, 2), "x", 5)
    assert ch.pending_count() == 1
    assert ch.drain(2, 6) == []
    got = ch.drain(2, 7)
    assert len(got) == 1 and got[0].payload == "x"
    assert ch.drain(2, 7) == []
    assert ch.pending_count() == 0


def test_drain_with_nothing_pending_is_empty():
    ch = Channel(ChannelModel(), PAIR)
    assert ch.drain(1, 0) == []


def test_payload_carried_verbatim():
    ch = Channel(ChannelModel(t2=1, delay_law="fixed"), PAIR)
    arr = np.arange(6.0).reshape(2, 3)
    ch.attempt_send((1, 2), arr, 0)
    (msg,) = ch.drain(2, 1)
    assert msg.payload is arr


# ---------------------------------------------------------------------------
# The delivery guarantee, checked on traces
# ---------------------------------------------------------------------------

def check_delivery_guarantee(attempts, t1: int, t2: int) -> bool:
    """Post-hoc check of the channel guarantee on ``(tick, edge, result)``
    records of ``attempt_send`` calls, where the result is None for a drop
    and the delivery tick otherwise: no edge accumulates more than t1
    consecutive drops, and every delivery delay is at most t2."""
    streaks: dict[tuple[int, int], int] = {}
    for tick, edge, deliver in attempts:
        if deliver is None:
            streaks[edge] = streaks.get(edge, 0) + 1
            if streaks[edge] > t1:
                return False
        else:
            if not (0 <= deliver - tick <= t2):
                return False
            streaks[edge] = 0
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.0, max_value=0.9),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_traces_always_satisfy_the_guarantee(t1, t2, drop, seed):
    model = ChannelModel(t1=t1, t2=t2, drop_prob=drop, seed=seed)
    ch = Channel(model, PAIR)
    attempts = [(t, edge, ch.attempt_send(edge, t, t))
                for t in range(60) for edge in ((1, 2), (2, 1))]
    assert check_delivery_guarantee(attempts, t1, t2)
    for tick, _, deliver in attempts:
        if deliver is not None:
            assert 0 <= deliver - tick <= t2


def test_guarantee_checker_flags_violations():
    late = [(0, (1, 2), 5)]
    assert not check_delivery_guarantee(late, t1=2, t2=1)
    streak = [(t, (1, 2), None) for t in range(3)]
    assert not check_delivery_guarantee(streak, t1=1, t2=1)
    ok = [(0, (1, 2), None), (1, (1, 2), 2)]
    assert check_delivery_guarantee(ok, t1=1, t2=1)


# ---------------------------------------------------------------------------
# Payload digests
# ---------------------------------------------------------------------------

def test_digest_is_content_addressed():
    a = np.array([1.0, 2.0, 3.0])
    assert payload_digest(a) == payload_digest(a.copy())
    assert payload_digest(a) != payload_digest(a.reshape(3, 1))
    assert payload_digest(a) != payload_digest(a.astype(np.float32))
    assert payload_digest((a, 1)) == payload_digest((a.copy(), 1))
    assert payload_digest((a, 1)) != payload_digest((a, 2))
