"""Lossy-channel simulation: bounded delays, forced successes, determinism."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.errors import ConfigurationError, TransportError
from dactd.protocol import run_general_exchange
from dactd.topology import GraphSchedule, latency_bound
from dactd.transport import Channel, ChannelModel
from dactd.verify import random_strong_digraph

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
# One draw block per tick
# ---------------------------------------------------------------------------

COMPLETE4 = GraphSchedule.complete(4)
LOSSY = ChannelModel(t1=2, t2=3, drop_prob=0.5, seed=41)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_edge_outcome_ignores_the_other_edges_and_their_order(seed):
    # Each tick attempts a random subset of the edges in a random order.
    # Every edge's outcomes must equal those of a channel on which only
    # that edge is attempted, at the same ticks.
    rng = np.random.default_rng(seed)
    edges = sorted(COMPLETE4.edges_at(0))
    ch = Channel(LOSSY, COMPLETE4)
    outcomes = {e: [] for e in edges}
    for t in range(40):
        for k in rng.permutation(len(edges)):
            if rng.random() < 0.6:
                e = edges[k]
                outcomes[e].append((t, ch.attempt_send(e, None, t)))
    for e, got in outcomes.items():
        alone = Channel(LOSSY, COMPLETE4)
        assert got == [(t, alone.attempt_send(e, None, t)) for t, _ in got]


def test_tick_before_the_last_drawn_tick_is_refused():
    ch = Channel(LOSSY, COMPLETE4)
    ch.attempt_send((1, 2), None, 5)
    ch.attempt_send((2, 1), None, 5)        # the same tick is fine
    with pytest.raises(TransportError, match="tick 4"):
        ch.attempt_send((1, 3), None, 4)


class CountingGenerator:
    """A generator that counts the blocks drawn through it."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.blocks = 0

    def random(self, size):
        self.blocks += 1
        return self.rng.random(size)


def test_skipped_ticks_are_stepped_over_without_drawing_their_blocks():
    # A channel that first sends at tick 30 draws what a channel drawing
    # every tick's block draws at tick 30.
    every = Channel(LOSSY, COMPLETE4)
    for t in range(30):
        every.attempt_send((1, 2), None, t)
    later = Channel(LOSSY, COMPLETE4)
    later._rng = CountingGenerator(later._rng)
    for e in sorted(COMPLETE4.edges_at(0)):
        if e != (1, 2):
            assert (later.attempt_send(e, None, 30)
                    == every.attempt_send(e, None, 30))
    assert later._rng.blocks == 1
    # A gap of a billion ticks costs one block, not a billion.
    later.attempt_send((1, 2), None, 10 ** 9)
    assert later._rng.blocks == 2


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


def test_protocol_traffic_satisfies_the_guarantee():
    # Every attempt of a general-protocol run on a time-varying digraph,
    # recorded as the driver makes it: per tick, a subset of the union's
    # edges sends.  Some sends must be forced for the check to bite.
    g = random_strong_digraph(5, np.random.default_rng(3), time_varying=True)
    model = ChannelModel(t1=2, t2=3, drop_prob=0.6, seed=9)
    K = latency_bound(g, model.t1, model.t2)

    class RecordingChannel(Channel):
        def __init__(self, *args):
            super().__init__(*args)
            self.attempts = []

        def attempt_send(self, edge, payload, t):
            deliver = super().attempt_send(edge, payload, t)
            self.attempts.append((t, edge, deliver))
            return deliver

    ch = RecordingChannel(model, g)
    deltas = np.random.default_rng(4).normal(size=(K + 30, 5))
    res = run_general_exchange(g, ch, deltas, K)
    assert (res.readouts[K:] == res.reference[K:, None]).all()
    assert check_delivery_guarantee(ch.attempts, model.t1, model.t2)
    streaks, forced = {}, 0
    for _, edge, deliver in ch.attempts:
        forced += deliver is not None and streaks.get(edge, 0) == model.t1
        streaks[edge] = 0 if deliver is not None else streaks.get(edge, 0) + 1
    assert forced > 0


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
