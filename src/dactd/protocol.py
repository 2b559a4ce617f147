"""TD-error aggregation protocols.

Agents recover the exact team-average TD error of tick ``t - K`` at tick
``t``, where K is the worst-case propagation bound of the medium:

* the **general protocol** floods, every tick, a window of per-origin
  vectors holding each agent's local TD error with an explicit known/unknown
  state per slot; receivers fill in unknown slots verbatim (write-once), so
  the recovered mean is bitwise equal to a centralized collector's.  Every
  agent that knows a slot therefore holds the origin's own value, so one
  write-once value buffer serves the whole team, and the simulated state is
  the team's known masks indexed by age: a merge is one slice OR, and a
  message's values are a read-only view of buffer rows that are never
  overwritten;
* the **acyclic protocol** runs on static connected acyclic (tree) graphs
  with unit delay and no losses, exchanging only K per-cohort increments per
  edge; a correction per directed neighbour pair cancels the overlap between
  adjacent neighbourhoods so every value is counted exactly once.  One
  driver holds the whole team's level sums, increments and corrections as
  arrays and advances them with whole-array operations;
* the **neighbourhood driver** is an oracle that averages each agent's
  neighbourhood directly, K ticks late: the centralized collector, the
  k-hop baseline and independent learning are all instances of it.

Unknown is an explicit slot state rather than a zero sentinel: a genuinely
zero TD error stays "known" and is never overwritten.  Cohorts before the
start of time are defined as zero (all-known), so read-outs are well defined
from tick 0 on.

Slot values are scalars in the per-step regime and fixed-shape arrays (one
TD error per episode step) in the episodic regime; ``value_shape`` selects
between them and all bookkeeping is shape-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (ConfigurationError, IncompleteAggregationError,
                     NumericError, ProtocolCorruptionError)
from .topology import GraphSchedule, hop_distances, latency_bound
from .transport import Channel


def ascending_mean(values: np.ndarray) -> Any:
    """Mean over the leading (agent) axis, accumulated in strict ascending
    agent-id order so rounding is reproducible and identical across callers."""
    n = values.shape[0]
    if n == 0:
        raise ValueError("cannot average an empty collection")
    total = values[0].copy() if values.ndim > 1 else float(values[0])
    for j in range(1, n):
        total = total + values[j]
    return total / n


def centralized_team_td(all_deltas: np.ndarray) -> Any:
    """Reference aggregator: mean of the N local TD errors, fixed order."""
    arr = np.asarray(all_deltas, dtype=np.float64)
    return ascending_mean(arr)


def _check_next_tick(newest_tick: int, t: int) -> None:
    if t != newest_tick + 1:
        raise ValueError(f"ticks must advance by 1, got {newest_tick} -> {t}")


def _checked_deltas(driver, t: int, deltas: np.ndarray) -> np.ndarray:
    """The tick's TD errors as float64, checked finite and of the driver's
    shape."""
    n = driver.n_agents
    arr = np.asarray(deltas, dtype=np.float64)
    if arr.shape != (n, *driver.value_shape):
        raise ValueError(f"expected shape {(n, *driver.value_shape)}, "
                         f"got {arr.shape}")
    bad = ~np.isfinite(arr.reshape(n, -1)).all(axis=1)
    if bad.any():
        raise NumericError(f"tick {t}: non-finite TD error from agents "
                           f"{(np.flatnonzero(bad) + 1).tolist()}")
    return arr


def _begin_tick(driver, t: int, deltas: np.ndarray) -> np.ndarray:
    """Check a tick before it changes any of the driver's state: t must be
    the driver's next tick and the TD errors finite, of the driver's shape.
    Then advance the driver's tick and return the errors as float64."""
    _check_next_tick(driver.newest_tick, t)
    arr = _checked_deltas(driver, t, deltas)
    driver.newest_tick = t
    return arr


# ---------------------------------------------------------------------------
# General protocol: what every agent knows, over one copy of the values
# ---------------------------------------------------------------------------

@dataclass
class TDVector:
    """One agent's slots of one origin tick: the TD errors it knows (zero
    where unknown) and which agents' errors it knows."""

    origin_tick: int
    values: np.ndarray          # (n_agents, *value_shape)
    known: np.ndarray           # (n_agents,) bool


@dataclass(frozen=True)
class WindowPayload:
    """Snapshot of a sender's freshest K origins (the per-tick message).

    Contains exactly K*N slots regardless of per-slot width.  ``known`` is
    what the sender knows; ``values`` may hold more, since every slot the
    sender knows holds the origin's own TD error.
    """

    origins: tuple[int, ...]    # contiguous, newest first
    values: np.ndarray          # (K, n_agents, *value_shape), read-only
    known: np.ndarray           # (K, n_agents) bool, read-only

    def __post_init__(self):
        newest = self.origins[0] if self.origins else 0
        if self.origins != tuple(range(newest, newest - len(self.origins), -1)):
            raise ValueError(
                f"payload origins {self.origins} are not contiguous newest first")
        if (self.known.ndim != 2 or len(self.known) != len(self.origins)
                or self.values.shape[:2] != self.known.shape):
            raise ValueError(
                f"payload of {len(self.origins)} origins has values "
                f"{self.values.shape} and known {self.known.shape}")
        if self.values.dtype != np.float64:
            raise ValueError(f"payload values are {self.values.dtype}, "
                             f"not float64")

    @classmethod
    def _of_team(cls, origins: tuple[int, ...], values: np.ndarray,
                 known: np.ndarray) -> "WindowPayload":
        """A payload cut from the team state, whose origins, shapes and
        dtype hold by construction, so the checks are skipped."""
        payload = object.__new__(cls)
        object.__setattr__(payload, "origins", origins)
        object.__setattr__(payload, "values", values)
        object.__setattr__(payload, "known", known)
        return payload

    @property
    def slot_count(self) -> int:
        return self.known.shape[0] * self.known.shape[1]


class TeamTDAggregator:
    """The general protocol's team state: what every agent knows, by age,
    and one write-once buffer of the TD errors themselves.

    Fill-in is write-once and copies are verbatim, so every agent that knows
    slot (origin o, agent j) holds exactly agent j's tick-o TD error.  One
    copy of the values is therefore enough, and what the protocol decides
    is *when* each agent comes to know each slot.

    Known masks are indexed by age tau = newest - origin:
    ``_known[i, tau, j]`` says whether agent i+1 knows agent j+1's TD error
    of origin newest - tau, and a tick shifts every agent's rows one age
    older (all agents advance in lockstep), so a merge is one slice OR and a
    window is one contiguous copy.

    Values live in a buffer of ``K + 1 + ceil((K+1)/4)`` rows, newest
    first: age tau is row ``_pos + tau``, and a tick writes its TD errors
    into the row above the newest.  Each row is written exactly once; when
    the top row is used up, a fresh buffer is allocated and the K newest
    rows are copied to its bottom.  A payload's values are therefore a
    read-only view of rows that are never overwritten: a message in flight
    keeps exactly what was sent, and an old buffer lives only as long as a
    message still references it.  Rows for cohorts before tick 0 start out
    all-known zero, matching the protocols' zero initialization.
    """

    def __init__(self, n_agents: int, K: int,
                 value_shape: tuple[int, ...] = ()):
        if K < 1:
            raise ValueError(f"window bound K must be >= 1, got {K}")
        self.n_agents = n_agents
        self.K = K
        self.value_shape = tuple(value_shape)
        self.newest_tick = -1
        span = K + 1 + -(-(K + 1) // 4)
        self._buf = np.zeros((span, n_agents, *self.value_shape))
        self._pos = span - (K + 1)
        self._known = np.ones((n_agents, K + 1, n_agents), dtype=bool)
        self._own = np.eye(n_agents, dtype=bool)
        self._origins = tuple(range(-1, -1 - K, -1))
        self._sent = self._window_values()

    @property
    def histories(self) -> list["TDHistory"]:
        """Fresh views of agents 1..N; the team keeps none (no cycle)."""
        return [TDHistory(self, i) for i in range(1, self.n_agents + 1)]

    def _window_values(self) -> np.ndarray:
        """Read-only view of the values of ages 0..K-1."""
        view = self._buf[self._pos:self._pos + self.K]
        view.flags.writeable = False
        return view

    def begin_tick(self, t: int, deltas: np.ndarray) -> None:
        """Slide every window to newest tick t (lockstep: t = previous + 1).
        The oldest cohort is evicted; the new row holds the tick's TD
        errors, each known only to its own agent.  A repeated or skipped
        tick is refused before anything changes, so no own slot is written
        twice."""
        _check_next_tick(self.newest_tick, t)
        self.newest_tick = t
        if self._pos == 0:
            fresh = np.empty_like(self._buf)
            fresh[-self.K:] = self._buf[:self.K]
            self._buf = fresh
            self._pos = len(fresh) - self.K
        self._pos -= 1
        self._buf[self._pos] = deltas
        self._known[:, 1:] = self._known[:, :-1]
        self._known[:, 0] = self._own
        self._origins = tuple(range(t, t - self.K, -1))
        self._sent = self._window_values()

    def _age(self, origin_tick: int) -> int:
        tau = self.newest_tick - origin_tick
        if not (0 <= tau <= self.K):
            raise ValueError(
                f"origin {origin_tick} outside window "
                f"[{self.newest_tick - self.K}, {self.newest_tick}]")
        return tau

    def read_team(self, t_minus_K: int) -> np.ndarray:
        """Every agent's team-average TD error of the requested origin tick,
        (N, *value_shape), summed in ascending agent-id order.  Raises
        IncompleteAggregationError for the lowest-numbered agent that still
        misses a slot, naming the missing agents."""
        tau = self._age(t_minus_K)
        known = self._known[:, tau]
        if not known.all():
            agent = int(np.argmin(known.all(axis=1)))
            missing = (np.flatnonzero(~known[agent]) + 1).tolist()
            raise IncompleteAggregationError(t_minus_K, agent + 1, missing)
        out = np.empty((self.n_agents, *self.value_shape))
        out[:] = ascending_mean(self._buf[self._pos + tau])
        return out


class TDHistory:
    """Agent ``owner``'s view of the team state: its window of K+1 origins
    (ages 0..K) and which slots of each it knows."""

    def __init__(self, team: TeamTDAggregator, owner: int):
        if not (1 <= owner <= team.n_agents):
            raise ValueError(f"agent id {owner} outside 1..{team.n_agents}")
        self.team = team
        self.owner = owner
        self.K = team.K
        self._known = team._known[owner - 1]     # (K+1, N) view, by age

    @property
    def newest_tick(self) -> int:
        return self.team.newest_tick

    def merge_payload(self, payload: WindowPayload) -> "TDHistory":
        """Fill-in: every slot the payload knows becomes known here, by an
        OR of its known window into this agent's rows of the same origins.
        Rows older than the window (their cohort was already read out and
        can no longer change) or newer than it are dropped.  The values are
        not read: a known slot anywhere holds its origin's own TD error."""
        if payload.known.shape[1] != self.team.n_agents:
            raise ValueError(f"payload of {payload.known.shape[1]} agents "
                             f"sent to a team of {self.team.n_agents}")
        if not payload.origins:
            return self
        lag = self.team.newest_tick - payload.origins[0]  # age of payload row 0
        first = max(0, -lag)
        stop = min(len(payload.origins), self.K + 1 - lag)
        if first < stop:
            self._known[lag + first:lag + stop] |= payload.known[first:stop]
        return self

    def vector_at(self, origin_tick: int) -> TDVector:
        team = self.team
        tau = team._age(origin_tick)
        known = self._known[tau].copy()
        mask = known.reshape(-1, *[1] * len(team.value_shape))
        return TDVector(origin_tick,
                        np.where(mask, team._buf[team._pos + tau], 0.0), known)

    def window_payload(self) -> WindowPayload:
        """The K freshest origins (ages 0..K-1), newest first: a copy of
        this agent's known rows over the tick's shared view of the values."""
        known = self._known[:self.K].copy()
        known.flags.writeable = False
        return WindowPayload._of_team(self.team._origins, self.team._sent,
                                      known)


# ---------------------------------------------------------------------------
# Per-tick drivers: one canonical lockstep round per protocol
# ---------------------------------------------------------------------------

class GeneralProtocolDriver:
    """One lockstep round of the general protocol over a real channel.

    Round order matters: deliveries from earlier ticks are merged *before*
    the window snapshot is taken (receive, merge, forward within one round),
    and a second drain after sending absorbs zero-delay deliveries so they
    cannot be lost.  Edges send in sorted order, cached per phase of the
    schedule.  tick() returns every agent's read-out of tick t - K.
    """

    def __init__(self, graph: GraphSchedule, channel: Channel, K: int,
                 value_shape: tuple[int, ...] = ()):
        self.graph = graph
        self.channel = channel
        self.K = K
        self.n_agents = graph.n_agents
        self.value_shape = tuple(value_shape)
        self.team = TeamTDAggregator(graph.n_agents, K, value_shape)
        self._views = self.team.histories
        self._order = [sorted(graph.edges_at(p)) for p in range(graph.period)]

    @property
    def newest_tick(self) -> int:
        return self.team.newest_tick

    @property
    def payload_slots(self) -> int:
        return self.K * self.n_agents

    def tick(self, t: int, deltas: np.ndarray) -> np.ndarray:
        # Both checks run before the tick changes the team or the channel.
        self.team.begin_tick(t, _checked_deltas(self, t, deltas))
        views, channel = self._views, self.channel
        agents = range(1, self.n_agents + 1)
        for view, msgs in zip(views, [channel.drain(i, t) for i in agents]):
            for msg in msgs:
                view.merge_payload(msg.payload)
        payloads = [view.window_payload() for view in views]
        if any(p.slot_count != self.payload_slots for p in payloads):
            raise ProtocolCorruptionError("window payload has wrong slot count")
        for edge in self._order[t % len(self._order)]:
            channel.attempt_send(edge, payloads[edge[0] - 1], t)
        for view, i in zip(views, agents):
            for msg in channel.drain(i, t):
                view.merge_payload(msg.payload)
        return self.team.read_team(t - self.K)


class AcyclicProtocolDriver:
    """The acyclic protocol: one lockstep round per tick, on team arrays.

    The graph must be static, symmetric, connected and acyclic (a tree), and
    K at least its unit-delay latency bound.  Increments move with exactly
    one tick of latency and no losses, the degenerate channel this protocol
    is defined for.  After the tick at time w:

    * ``x[i, d]`` (level sums, ``(N, K+1, *vs)``) is the cohort-(w-d) sum of
      local TD errors over the agents within distance d of agent i;
    * ``y[i, d]`` (``(N, K, *vs)``) is the increment between successive
      levels, the K-value message agent i sends every neighbour;
    * ``z[e, d]`` (``(E, K, *vs)``), for the directed neighbour pair
      ``(i, j) = pairs[e]`` (sorted by receiver i, then sender j), is the
      cohort-(w-d) sum over the agents at distance exactly d from i that are
      not within distance d-1 of j: the overlap subtracted when i fuses j's
      increments.  ``z2`` is the previous tick's ``z``, because the
      recursion consumes corrections computed two ticks earlier.

    A tick receives ``y[j]`` from before the tick from every neighbour j,
    restarts slot 0 of every buffer at the own TD error and advances the
    higher slots one cohort:

        x'[i, d]  = x[i, d-1] + sum_j (y[j, d-1] - z2[ij, d-2])
        y'[i, d]  = x'[i, d] - x[i, d-1]
        z'[ij, d] = z2[ij, d-2] + y'[i, d] - y[j, d-1]

    where out-of-range slots read as zero and the neighbour terms are added
    in ascending j.  Agent i's read-out of tick t - K is ``x'[i, K] / N``.
    """

    def __init__(self, graph: GraphSchedule, K: int,
                 value_shape: tuple[int, ...] = ()):
        n, edges = graph.n_agents, graph.edges_at(0)
        if not graph.static_flag:
            raise ConfigurationError("acyclic protocol requires a static graph")
        if any((dst, src) not in edges for (src, dst) in edges):
            raise ConfigurationError(
                "acyclic protocol requires symmetric (undirected) edges")
        if (hop_distances(n, edges) < 0).any():
            raise ConfigurationError("acyclic protocol requires a connected graph")
        # A connected graph is a tree iff it has N - 1 undirected edges.
        if len(edges) != 2 * (n - 1):
            raise ConfigurationError("acyclic protocol requires an acyclic graph")
        bound = latency_bound(graph, 0, 1)
        if K < bound:
            raise ConfigurationError(
                f"acyclic protocol needs K >= {bound}, the tree's unit-delay "
                f"latency bound, got K={K}")
        vs = tuple(value_shape)
        self.graph = graph
        self.K = K
        self.n_agents = n
        self.value_shape = vs
        self.newest_tick = -1
        self.pairs = sorted(edges)
        ends = np.array(self.pairs, dtype=np.int64).reshape(-1, 2) - 1
        self._receiver, self._sender = ends[:, 0], ends[:, 1]
        # (receivers, pair rows) of each receiver's k-th neighbour, k = 0, 1,
        # ...: a tick adds the neighbour terms one rank at a time, so every
        # agent sums them in ascending sender order.
        rank = np.arange(len(ends)) - np.searchsorted(self._receiver,
                                                      self._receiver)
        self._ranks = [(self._receiver[rank == k], np.flatnonzero(rank == k))
                       for k in range(int(rank.max(initial=-1)) + 1)]
        self.x = np.zeros((n, K + 1, *vs))
        self.y = np.zeros((n, K, *vs))
        self.z = np.zeros((len(ends), K, *vs))
        self.z2 = np.zeros_like(self.z)

    @property
    def payload_slots(self) -> int:
        return self.K

    def tick(self, t: int, deltas: np.ndarray) -> np.ndarray:
        delta = _begin_tick(self, t, deltas)
        x, y, z2 = self.x, self.y, self.z2
        rcv, snd = self._receiver, self._sender
        fused = y[snd]
        fused[:, 1:] -= z2[:, :-1]
        new_x = np.empty_like(x)
        new_x[:, 0] = delta
        new_x[:, 1:] = x[:, :-1]
        acc = new_x[:, 1:]
        for agents, k_th in self._ranks:
            acc[agents] += fused[k_th]
        new_y = np.empty_like(y)
        new_y[:, 0] = delta
        np.subtract(new_x[:, 1:-1], x[:, :-2], out=new_y[:, 1:])
        # z2 shifted two slots along the slot axis, zero-filled, then
        # z' = (shifted z2 + y'[i]) - y[j].
        new_z = np.empty_like(z2)
        new_z[:, 0] = delta[rcv]
        new_z[:, 1:2] = 0.0
        new_z[:, 2:] = z2[:, :-2]
        new_z[:, 1:] += new_y[rcv, 1:]
        new_z[:, 1:] -= y[snd, :-1]
        self.x, self.y, self.z2, self.z = new_x, new_y, self.z, new_z
        return new_x[:, -1] / self.n_agents

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the level sums ``x`` and the corrections ``z``."""
        return self.x.copy(), self.z.copy()


class NeighborhoodDriver:
    """Oracle aggregator: agent i reads the mean of the tick-(t - K) TD
    errors over its neighbourhood ``hoods[i-1]`` (sorted agent ids), in the
    protocols' ascending read-out arithmetic; nothing is sent.

    Every agent in every neighbourhood is the centralized collector; the
    k-hop neighbourhoods with K = k are the k-hop baseline, and k = 0 is
    independent learning.  Before tick K the read-outs are zero.
    """

    payload_slots = 0

    def __init__(self, hoods: list[list[int]], K: int,
                 value_shape: tuple[int, ...] = ()):
        if K < 0:
            raise ValueError(f"lag K must be >= 0, got {K}")
        # Agents with the same neighbourhood share one mean per tick.
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, h in enumerate(hoods):
            groups.setdefault(tuple(h), []).append(i)
        self.groups = [(np.asarray(h, dtype=np.int64) - 1, np.asarray(agents))
                       for h, agents in groups.items()]
        self.n_agents = len(hoods)
        self.K = K
        self.value_shape = tuple(value_shape)
        self.newest_tick = -1
        self._per_tick: dict[int, np.ndarray] = {}

    def tick(self, t: int, deltas: np.ndarray) -> np.ndarray:
        arr = _begin_tick(self, t, deltas)
        self._per_tick[t] = arr.copy()
        self._per_tick.pop(t - self.K - 1, None)
        out = np.zeros_like(arr)
        if t >= self.K:
            cohort = self._per_tick[t - self.K]
            for rows, agents in self.groups:
                out[agents] = ascending_mean(cohort[rows])
        return out


# ---------------------------------------------------------------------------
# Exchange runs: protocols driven by exogenous TD streams
# ---------------------------------------------------------------------------

@dataclass
class ExchangeResult:
    """Read-outs of a protocol run driven by a fixed TD-error stream.

    readouts[t, i-1] is agent i's recovered team TD error of tick t - K (the
    pre-start cohorts read as zero); reference[t] is the centralized mean of
    the same origin.  payload_slots is the per-edge per-tick message size in
    slot values.  snapshots, when collected, hold the acyclic driver's
    ``snapshot()`` after every tick.
    """

    K: int
    readouts: np.ndarray
    reference: np.ndarray
    payload_slots: int
    snapshots: list[tuple[np.ndarray, np.ndarray]] | None = None


def _drive(driver, deltas: np.ndarray,
           collect_snapshots: bool = False) -> ExchangeResult:
    """Tick a driver once per row of deltas (ticks, n_agents, *value_shape)
    and record each tick's read-outs beside the centralized mean."""
    readouts = np.zeros_like(deltas)
    reference = np.zeros((len(deltas), *deltas.shape[2:]))
    snaps = [] if collect_snapshots else None
    for t in range(len(deltas)):
        readouts[t] = driver.tick(t, deltas[t])
        if snaps is not None:
            snaps.append(driver.snapshot())
        if t >= driver.K:
            reference[t] = centralized_team_td(deltas[t - driver.K])
    return ExchangeResult(K=driver.K, readouts=readouts, reference=reference,
                          payload_slots=driver.payload_slots, snapshots=snaps)


def run_general_exchange(graph: GraphSchedule, channel: Channel,
                         deltas: np.ndarray, K: int) -> ExchangeResult:
    """Drive the general protocol for deltas.shape[0] ticks over a channel.

    deltas has shape (ticks, n_agents, *value_shape); agents exchange their
    windows every tick over the scheduled edges and read out tick t - K."""
    deltas = np.asarray(deltas, dtype=np.float64)
    return _drive(GeneralProtocolDriver(graph, channel, K, deltas.shape[2:]),
                  deltas)


def run_acyclic_exchange(graph: GraphSchedule, deltas: np.ndarray, K: int,
                         collect_snapshots: bool = False) -> ExchangeResult:
    """Drive the acyclic protocol (unit delay, no losses) on a tree."""
    deltas = np.asarray(deltas, dtype=np.float64)
    return _drive(AcyclicProtocolDriver(graph, K, deltas.shape[2:]),
                  deltas, collect_snapshots)


def check_neighborhood_invariant(graph: GraphSchedule, deltas: np.ndarray,
                                 snapshots: list[tuple[np.ndarray, np.ndarray]],
                                 K: int) -> float:
    """Worst absolute deviation of the acyclic driver's snapshots from the
    exact-distance neighborhood sums they must equal.

    For every tick w, agent i, depth d in [1, K]: the level sum x[i, d] must
    equal the sum of tick-(w-d) TD errors over agents within distance <= d
    of i; for every neighbour pair (i, j) and depth d in [1, K-1]: the
    correction z[ij, d] must equal the sum over agents at distance exactly d
    of i minus those within distance d-1 of j.  Cohorts before tick 0 count
    as zero.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    n = graph.n_agents
    pairs = sorted(graph.edges_at(0))     # the driver's correction rows
    dist = hop_distances(n, graph.edges_at(0), undirected=True)

    def within(i: int, d: int) -> np.ndarray:
        return (dist[i - 1] >= 0) & (dist[i - 1] <= d)

    def cohort_sum(agents: np.ndarray, origin: int) -> np.ndarray:
        total = np.zeros(deltas.shape[2:])
        if origin >= 0:
            for a in np.flatnonzero(agents):
                total = total + deltas[origin, a]
        return total

    worst = 0.0
    for w, (level_sums, corrections) in enumerate(snapshots):
        for i in range(1, n + 1):
            for d in range(1, K + 1):
                expected = cohort_sum(within(i, d), w - d)
                worst = max(worst, float(np.max(np.abs(level_sums[i - 1, d]
                                                       - expected))))
        for (i, j), zarr in zip(pairs, corrections):
            for d in range(1, K):
                ring = (dist[i - 1] == d) & ~within(j, d - 1)
                expected = cohort_sum(ring, w - d)
                worst = max(worst, float(np.max(np.abs(zarr[d] - expected))))
    return worst
