"""Windowed fill-in protocol: write-once merges, exact delayed read-out."""
import gc
import weakref
from typing import Any, Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.errors import (IncompleteAggregationError, NumericError,
                          ProtocolCorruptionError)
from dactd.protocol import (AcyclicProtocolDriver, GeneralProtocolDriver,
                            NeighborhoodDriver, TDHistory, TDVector,
                            TeamTDAggregator, WindowPayload, _drive,
                            ascending_mean, centralized_team_td,
                            run_general_exchange)
from dactd.topology import GraphSchedule, latency_bound
from dactd.transport import Channel, ChannelModel, Message
from dactd.verify import random_strong_digraph


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
# Slow reference: the per-agent loop the team state replaced
# ---------------------------------------------------------------------------

class PerAgentHistory:
    """One agent's ring buffer of K+1 TD vectors, with its own copy of every
    value it knows, indexed by age tau = newest - origin.

    Ring layout: the row of age tau is ``(_base + tau) % (K + 1)``, and
    advance() steps ``_base`` back by one, so ages 0..K run forward through
    the ring from ``_base`` and wrap at most once.  Payload origins are
    contiguous and newest first, so the payload rows that fall inside the
    window have consecutive ages and map to at most two ring slices; merges
    and snapshots work on those slices as views.

    Rows for cohorts before tick 0 start out all-known zero, matching the
    protocols' zero initialization.
    """

    def __init__(self, owner: int, n_agents: int, K: int,
                 value_shape: tuple[int, ...] = ()):
        if K < 1:
            raise ValueError(f"window bound K must be >= 1, got {K}")
        if not (1 <= owner <= n_agents):
            raise ValueError(f"agent id {owner} outside 1..{n_agents}")
        self.owner = owner
        self.n_agents = n_agents
        self.K = K
        self.value_shape = tuple(value_shape)
        self.newest_tick = -1
        self._base = 0
        self._values = np.zeros((K + 1, n_agents, *self.value_shape))
        self._known = np.ones((K + 1, n_agents), dtype=bool)

    def _row(self, origin_tick: int) -> int:
        tau = self.newest_tick - origin_tick
        if not (0 <= tau <= self.K):
            raise ValueError(
                f"origin {origin_tick} outside window "
                f"[{self.newest_tick - self.K}, {self.newest_tick}]")
        return (self._base + tau) % (self.K + 1)

    def advance(self, t: int) -> None:
        """Slide the window to newest tick t (lockstep: t = previous + 1).
        The oldest cohort is evicted; the new row starts all-unknown."""
        if t != self.newest_tick + 1:
            raise ValueError(f"ticks must advance by 1, got {self.newest_tick} -> {t}")
        self.newest_tick = t
        self._base = (self._base - 1) % (self.K + 1)
        self._values[self._base] = 0.0
        self._known[self._base] = False

    def set_own(self, t: int, value: Any) -> None:
        if t != self.newest_tick:
            raise ValueError("own TD error must be recorded at the current tick")
        r = self._row(t)
        if self._known[r, self.owner - 1]:
            raise ProtocolCorruptionError(
                f"agent {self.owner}: own slot for tick {t} already written")
        self._values[r, self.owner - 1] = value
        self._known[r, self.owner - 1] = True

    def _ring_slices(self, tau: int, count: int) -> list[tuple[int, int]]:
        """Ring slices [start, stop) holding ages tau..tau+count-1, oldest
        age last; at most two, since the ages wrap the ring at most once."""
        start = (self._base + tau) % (self.K + 1)
        stop = start + count
        if stop <= self.K + 1:
            return [(start, stop)]
        return [(start, self.K + 1), (0, stop - (self.K + 1))]

    def merge_payload(self, payload: WindowPayload) -> "PerAgentHistory":
        """Vectorized merge of a whole window payload.

        Fill-in rule: received known values are copied into unknown slots.
        Write-once: known slots are never touched, and a value whose bit
        pattern differs from an already-known slot's (-0.0 against +0.0
        included) raises ProtocolCorruptionError, so merges are idempotent
        and order-independent.  Done in place on ring slices.  Rows older
        than the local window are silently dropped (their cohort was
        already read out and can no longer change), as are rows newer
        than it.
        """
        if not payload.origins:
            return self
        lag = self.newest_tick - payload.origins[0]   # age of payload row 0
        first = max(0, -lag)
        stop = min(len(payload.origins), self.K + 1 - lag)
        if first >= stop:
            return self
        segments = []
        r = first
        for a, b in self._ring_slices(lag + first, stop - first):
            segments.append((r, self._values[a:b], self._known[a:b],
                             payload.values[r:r + b - a],
                             payload.known[r:r + b - a]))
            r += b - a
        slot_axes = tuple(range(2, 2 + len(self.value_shape)))
        for r, loc_vals, loc_known, inc_vals, inc_known in segments:
            both = loc_known & inc_known
            if both.any():
                differ = (loc_vals.view(np.uint64) != inc_vals.view(np.uint64)
                          ).any(axis=slot_axes)
                if (both & differ).any():
                    bad = np.argwhere(both & differ)[0]
                    raise ProtocolCorruptionError(
                        f"agent {self.owner}: conflicting values for origin "
                        f"{payload.origins[r + int(bad[0])]}")
        for _, loc_vals, loc_known, inc_vals, inc_known in segments:
            new = inc_known & ~loc_known
            if new.any():
                loc_vals[new] = inc_vals[new]
                loc_known |= new
        return self

    def vector_at(self, origin_tick: int) -> TDVector:
        r = self._row(origin_tick)
        return TDVector(origin_tick, self._values[r].copy(), self._known[r].copy())

    def team_td(self, t_minus_K: int) -> Any:
        """Team-average TD error of the requested origin tick, summed in
        ascending agent-id order.  Raises IncompleteAggregationError naming
        the missing agents if any slot is still unknown."""
        r = self._row(t_minus_K)
        if not self._known[r].all():
            missing = [j + 1 for j in range(self.n_agents) if not self._known[r, j]]
            raise IncompleteAggregationError(t_minus_K, self.owner, missing)
        return ascending_mean(self._values[r])

    def window_payload(self) -> WindowPayload:
        """Copy of the K freshest rows (ages 0..K-1), newest first."""
        origins = tuple(range(self.newest_tick, self.newest_tick - self.K, -1))
        slices = self._ring_slices(0, self.K)
        values = np.concatenate([self._values[a:b] for a, b in slices])
        known = np.concatenate([self._known[a:b] for a, b in slices])
        values.setflags(write=False)
        known.setflags(write=False)
        return WindowPayload(origins=origins, values=values, known=known)


class PerAgentAggregator:
    """One agent of the general protocol over a real channel.

    Per tick: begin_tick (slide window, record own TD error), absorb any
    delivered payloads (stale origins are ignored — the delivery guarantee
    makes them redundant), emit window_payload for every out-edge, absorb
    same-tick deliveries, then read the team TD error of tick t - K.
    """

    def __init__(self, agent: int, n_agents: int, K: int,
                 value_shape: tuple[int, ...] = ()):
        self.history = PerAgentHistory(agent, n_agents, K, value_shape)

    @property
    def agent(self) -> int:
        return self.history.owner

    def begin_tick(self, t: int, own_delta: Any) -> None:
        self.history.advance(t)
        self.history.set_own(t, own_delta)

    def absorb(self, messages: Iterable[Message]) -> None:
        for msg in messages:
            self.history.merge_payload(msg.payload)

    def payload(self) -> WindowPayload:
        return self.history.window_payload()

    def read_team(self, t_minus_K: int) -> Any:
        return self.history.team_td(t_minus_K)


class PerAgentDriver:
    """The general protocol's lockstep round over N per-agent aggregators,
    each holding its own copy of every value it knows; ``tick`` sends in the
    same order as GeneralProtocolDriver, so two channels built from one
    ChannelModel draw the same drops and delays."""

    def __init__(self, graph: GraphSchedule, channel: Channel, K: int,
                 value_shape: tuple[int, ...] = ()):
        self.graph = graph
        self.channel = channel
        self.K = K
        self.aggs = {i: PerAgentAggregator(i, graph.n_agents, K, value_shape)
                     for i in range(1, graph.n_agents + 1)}

    def tick(self, t: int, deltas: np.ndarray) -> np.ndarray:
        agents = range(1, self.graph.n_agents + 1)
        pre = {i: self.channel.drain(i, t) for i in agents}
        for i in agents:
            self.aggs[i].begin_tick(t, deltas[i - 1])
            self.aggs[i].absorb(pre[i])
        payloads = {i: self.aggs[i].payload() for i in agents}
        for (src, dst) in sorted(self.graph.edges_at(t)):
            self.channel.attempt_send((src, dst), payloads[src], t)
        for i in agents:
            self.aggs[i].absorb(self.channel.drain(i, t))
        return np.stack([self.aggs[i].read_team(t - self.K) for i in agents])


# ---------------------------------------------------------------------------
# Team state: per-origin vectors
# ---------------------------------------------------------------------------

def _team(n=3, K=2, ticks=1):
    """A team state advanced through ticks 0..ticks-1, every agent's TD error
    at tick t being 10 t + its id."""
    team = TeamTDAggregator(n, K)
    for t in range(ticks):
        team.begin_tick(t, 10.0 * t + np.arange(1, n + 1))
    return team


def test_fresh_vector_knows_only_its_own_slot():
    team = _team(n=3, K=1, ticks=10)
    vec = team.histories[1].vector_at(9)
    assert vec.origin_tick == 9
    assert list(vec.known) == [False, True, False]
    assert list(vec.values) == [0.0, 92.0, 0.0]


def test_zero_value_is_still_known():
    team = TeamTDAggregator(2, K=1)
    team.begin_tick(0, np.array([0.0, 5.0]))
    vec = team.histories[0].vector_at(0)
    assert vec.known[0] and not vec.known[1]
    assert vec.values[0] == 0.0


def test_single_agent_vector_is_complete_immediately():
    team = TeamTDAggregator(1, K=1)
    for t in range(5):
        team.begin_tick(t, np.array([-1.5]))
    assert team.histories[0].vector_at(4).known.all()
    assert team.read_team(4).tolist() == [-1.5]


def test_invalid_origin_agent_rejected():
    team = TeamTDAggregator(3, K=1)
    with pytest.raises(ValueError):
        TDHistory(team, 0)
    with pytest.raises(ValueError):
        TDHistory(team, 4)
    with pytest.raises(ValueError):
        TeamTDAggregator(3, K=0)


# ---------------------------------------------------------------------------
# Team state: fill-in, write-once, read-out
# ---------------------------------------------------------------------------

def _one_row(origin, values, known):
    return WindowPayload(origins=(origin,), values=np.array([values]),
                         known=np.array([known]))


def test_disjoint_fill_in_completes_a_row():
    team = _team()
    h = team.histories[0]
    h.merge_payload(_one_row(0, [0.0, 0.0, 0.0], [False, True, False]))
    h.merge_payload(_one_row(0, [0.0, 0.0, 0.0], [False, False, True]))
    vec = h.vector_at(0)
    assert vec.known.all()
    assert ascending_mean(vec.values) == 2.0


def test_merge_is_idempotent():
    team = _team()
    h = team.histories[0]
    payload = _one_row(0, [0.0, 2.0, 0.0], [False, True, False])
    h.merge_payload(payload)
    before = h.vector_at(0)
    h.merge_payload(payload)
    after = h.vector_at(0)
    assert np.array_equal(before.values, after.values)
    assert np.array_equal(before.known, after.known)
    assert list(after.known) == [True, True, False]


def test_incomplete_read_out_names_the_missing_agents():
    team = _team()
    team.histories[0].merge_payload(_one_row(0, [0.0] * 3, [True] * 3))
    with pytest.raises(IncompleteAggregationError) as err:
        team.read_team(0)
    assert (err.value.tick, err.value.agent) == (0, 2)
    assert err.value.missing == [1, 3]


def test_window_slides_and_evicts_the_oldest_cohort():
    team = _team(n=2, K=2, ticks=4)     # cohort 0 has left the window
    with pytest.raises(ValueError):
        team.read_team(0)
    with pytest.raises(ValueError):
        team.histories[0].vector_at(0)


def test_ticks_must_advance_by_one():
    team = _team()
    with pytest.raises(ValueError):
        team.begin_tick(2, np.zeros(3))
    with pytest.raises(ValueError):     # a repeated tick
        team.begin_tick(0, np.zeros(3))
    assert team.newest_tick == 0


def test_precohort_rows_read_as_zero():
    team = _team(n=4, K=3)
    assert team.read_team(-1).tolist() == [0.0] * 4
    assert team.read_team(-3).tolist() == [0.0] * 4


def test_payload_carries_k_times_n_slots_newest_first():
    team = _team(n=3, K=2, ticks=2)
    p = team.histories[0].window_payload()
    assert p.slot_count == 2 * 3
    assert p.origins == (1, 0)
    assert not p.values.flags.writeable and not p.known.flags.writeable
    assert p.known.tolist() == [[True, False, False], [True, False, False]]
    # Every payload of a tick shares one read-only view of the values,
    # whose rows later ticks never write.
    assert p.values is team.histories[2].window_payload().values
    team.begin_tick(2, np.zeros(3))
    team.begin_tick(3, np.zeros(3))
    assert p.values.tolist() == [[11.0, 12.0, 13.0],
                              [1.0, 2.0, 3.0]]


def test_merge_accepts_whole_payloads():
    team = _team(n=2, K=2, ticks=2)
    first, second = team.histories
    second.merge_payload(first.window_payload())
    first.merge_payload(second.window_payload())
    assert team.read_team(0).tolist() == [(1.0 + 2.0) / 2] * 2
    assert team.read_team(1).tolist() == [(11.0 + 12.0) / 2] * 2


def test_own_slot_is_write_once():
    # Each agent's own slot of a tick is written once, by begin_tick: a
    # repeated tick is refused, and a payload that claims the owner's slot
    # with another value leaves it at the owner's own TD error.
    team = _team()                      # tick 0 holds 1.0, 2.0, 3.0
    with pytest.raises(ValueError):
        team.begin_tick(0, np.full(3, 7.0))
    forged = _one_row(0, [9.0, 9.0, 9.0], [True] * 3)
    for h in team.histories:
        h.merge_payload(forged)
        vec = h.vector_at(0)
        assert vec.known.all()
        assert vec.values[h.owner - 1] == float(h.owner)
        assert vec.values.tolist() == [1.0, 2.0, 3.0]
    assert team.read_team(0).tolist() == [2.0] * 3


def test_stale_payload_rows_are_ignored():
    team = _team(n=2, K=1)
    stale = team.histories[0].window_payload()       # origin 0
    team.begin_tick(1, np.ones(2))
    team.begin_tick(2, np.ones(2))   # window is now [1, 2]; origin 0 is stale
    team.histories[1].merge_payload(stale)
    assert not team.histories[1].vector_at(1).known[0]
    # A payload from ahead of the window is dropped the same way.
    ahead = WindowPayload(origins=(4,), values=np.zeros((1, 2)),
                          known=np.ones((1, 2), dtype=bool))
    team.histories[1].merge_payload(ahead)
    assert list(team.histories[1].vector_at(2).known) == [False, True]


# ---------------------------------------------------------------------------
# Slow reference: write-once and the value conflict check
# ---------------------------------------------------------------------------

def _history(owner=1, n=3, K=2):
    h = PerAgentHistory(owner, n, K)
    h.advance(0)
    return h


def test_conflicting_known_values_raise():
    h = _history()
    h.set_own(0, 1.0)
    h.merge_payload(_one_row(0, [0.0, 2.0, 0.0], [False, True, False]))
    clash = _one_row(0, [0.0, 2.5, 0.0], [False, True, False])
    with pytest.raises(ProtocolCorruptionError):
        h.merge_payload(clash)


def test_reference_own_slot_is_write_once():
    h = _history()
    h.set_own(0, 1.0)
    with pytest.raises(ProtocolCorruptionError):
        h.set_own(0, 1.0)


def _window(hist):
    """Origin -> copy of the history's vector, for every origin in its window
    (of a PerAgentHistory or of a TDHistory view of the team state)."""
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
    """A receiver's per-agent history, plus 1-3 same-shape payloads with
    consecutive origins, merged in turn, and the receiver's view of a team
    state when no payload is forged (None otherwise).

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

    hist = PerAgentHistory(owner, n, K, value_shape)
    team = TeamTDAggregator(n, K, value_shape)
    for t in range(ticks + 1):
        hist.advance(t)
        hist.set_own(t, base[t, owner - 1])
        team.begin_tick(t, base[t])

    forge = draw(st.booleans())
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
        if forge and known.any() and draw(st.booleans()):
            r, j = np.argwhere(known)[draw(st.integers(0, int(known.sum()) - 1))]
            values[r, j] += 0.5
        payloads.append(WindowPayload(origins=origins, values=values,
                                      known=known))
    return hist, None if forge else team.histories[owner - 1], payloads


@settings(max_examples=150, deadline=None)
@given(history_and_payloads())
def test_vectorized_merge_equals_row_by_row_merge(case):
    # The team state reads no payload values, so only honest payloads are
    # merged into it; the reference must also catch every forged value that
    # conflicts with one it knows.
    hist, view, payloads = case
    histories = [hist] if view is None else [hist, view]
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
            for h in histories:
                h.merge_payload(payload)
        for got in map(_window, histories):
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


@st.composite
def lossy_exchanges(draw):
    """A random strongly connected digraph schedule (static or time-varying)
    over a lossy, delayed channel, a TD stream with scalar or 3-value slots,
    and K at the latency bound or one below it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=6))
    g = random_strong_digraph(n, rng, time_varying=draw(st.booleans()))
    model = ChannelModel(t1=draw(st.integers(0, 3)), t2=draw(st.integers(1, 3)),
                         drop_prob=draw(st.sampled_from([0.0, 0.3, 0.6])),
                         delay_law=draw(st.sampled_from(["uniform", "fixed"])),
                         seed=draw(st.integers(0, 2 ** 31 - 1)))
    K = latency_bound(g, model.t1, model.t2)
    if draw(st.booleans()):
        K = max(1, K - 1)
    shape = draw(st.sampled_from([(), (3,)]))
    deltas = _random_stream(rng, K + draw(st.integers(2, 6)), n, shape)
    return g, model, K, deltas


@settings(max_examples=60, deadline=None)
@given(lossy_exchanges())
def test_team_state_matches_the_per_agent_reference(case):
    # Both drivers run over channels built from one ChannelModel, so they
    # see the same drops and delays.  The team state keeps its known masks
    # and values by age and the reference by ring row, so every agent's
    # rows are compared age by age.
    g, model, K, deltas = case
    shape = deltas.shape[2:]
    team = GeneralProtocolDriver(g, Channel(model, g), K, shape)
    ref = PerAgentDriver(g, Channel(model, g), K, shape)
    mask = (slice(None), slice(None)) + (None,) * len(shape)
    for t in range(len(deltas)):
        outcomes = []
        for driver in (team, ref):
            try:
                outcomes.append(driver.tick(t, deltas[t]).tobytes())
            except IncompleteAggregationError as err:
                outcomes.append((err.tick, err.agent, err.missing))
        state = team.team
        by_age = state._buf[state._pos:state._pos + K + 1]
        for i in range(1, g.n_agents + 1):
            known = state._known[i - 1]
            hist = ref.aggs[i].history
            rows = (hist._base + np.arange(K + 1)) % (K + 1)
            assert (known == hist._known[rows]).all()
            values = np.where(known[mask], by_age, 0.0)
            assert values.tobytes() == hist._values[rows].tobytes()
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[1], tuple):
            break


def test_payloads_in_flight_keep_their_values():
    # Delays up to 3 ticks over a lossy line, long enough for the team state
    # to replace its value buffer many times: every delivered payload's
    # values must be bitwise what they were when it was sent, and each row
    # must hold its origin's TD errors.
    class CopyingChannel(Channel):
        def __init__(self, *args):
            super().__init__(*args)
            self.sent, self.delivered = {}, []

        def attempt_send(self, edge, payload, t):
            self.sent[edge, t] = payload.values.copy()
            return super().attempt_send(edge, payload, t)

        def drain(self, dst, t):
            msgs = super().drain(dst, t)
            self.delivered.extend(msgs)
            return msgs

    g = GraphSchedule.line(4)
    model = ChannelModel(t1=2, t2=3, drop_prob=0.4, seed=19)
    K = latency_bound(g, model.t1, model.t2)
    ch = CopyingChannel(model, g)
    driver = GeneralProtocolDriver(g, ch, K, (2,))
    deltas = _random_stream(np.random.default_rng(20), 8 * K, 4, (2,))
    replaced, buf = 0, driver.team._buf
    for t in range(len(deltas)):
        driver.tick(t, deltas[t])
        replaced += driver.team._buf is not buf
        buf = driver.team._buf
    assert replaced >= 4
    assert max(m.deliver_tick - m.sent_tick for m in ch.delivered) == 3
    for m in ch.delivered:
        values = m.payload.values
        assert values.tobytes() == ch.sent[(m.src, m.dst), m.sent_tick].tobytes()
        for row, origin in zip(values, m.payload.origins):
            want = deltas[origin] if origin >= 0 else np.zeros((4, 2))
            assert row.tobytes() == want.tobytes()


def test_a_dropped_driver_frees_its_team_without_the_cycle_collector():
    # The team holds no view of itself, so reference counting alone frees a
    # dropped driver's team (and its value buffer) at del.
    g = GraphSchedule.line(4)
    model = ChannelModel(t1=1, t2=2, drop_prob=0.3, seed=5)
    K = latency_bound(g, model.t1, model.t2)
    gc.disable()
    try:
        driver = GeneralProtocolDriver(g, Channel(model, g), K)
        for t in range(2 * K):
            driver.tick(t, np.arange(4.0) + t)
        team = weakref.ref(driver.team)
        del driver
        assert team() is None
    finally:
        gc.enable()


def test_team_views_share_the_team_state():
    team = TeamTDAggregator(3, 2)
    first, again = team.histories[0], team.histories[0]
    assert first is not again and first.team is team
    team.begin_tick(0, np.array([1.0, 2.0, 3.0]))
    again.merge_payload(team.histories[1].window_payload())
    assert list(first.vector_at(0).known) == [True, True, False]


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
    # A payload one agent wide would otherwise broadcast its known slot
    # over every agent of the team's rows.
    team = _team(n=3, K=2)
    narrow = WindowPayload(origins=(0,), values=np.zeros((1, 1)),
                           known=np.ones((1, 1), dtype=bool))
    for h in team.histories:
        with pytest.raises(ValueError, match="payload of 1 agents"):
            h.merge_payload(narrow)
    with pytest.raises(IncompleteAggregationError):
        team.read_team(0)


def test_forged_conflicting_payload_is_detected():
    h = PerAgentHistory(1, 2, K=1)
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
    h = PerAgentHistory(1, 2, K=1)
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
