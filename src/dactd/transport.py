"""Simulated communication medium with bounded delays and packet loss.

Every directed edge carries independent lossy traffic: a send attempt at tick
``t`` is dropped with probability ``drop_prob`` unless the edge has already
accumulated ``t1`` consecutive drops, in which case delivery is forced — so
over any window of ``t1 + 1`` attempts at least one succeeds.  A successful
send at ``t_s`` is assigned a delivery tick ``t_r ∈ [t_s, t_s + t2]`` by the
configured delay law.  Payloads are carried verbatim (never copied or
altered) and a successful send is delivered exactly once.

A channel is owned by a single run's lockstep loop, and its randomness is
one block per tick: the first send attempted at tick ``t`` draws two
uniforms for every edge of the schedule's union (one decides the edge's
drop, the other its delay), whether or not the edge sends.  The outcome of
an (edge, tick) pair therefore depends only on the seed, the tick and the
edge's own drop streak, not on which other edges were attempted at that
tick or in what order.  Ticks must not decrease; a tick with no attempts
is skipped without drawing its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigurationError, TransportError, _as_int, _as_real
from .topology import GraphSchedule

DELAY_LAWS = ("uniform", "fixed")


@dataclass(frozen=True)
class ChannelModel:
    """Edge-level channel parameters.

    t1: max ticks between forced successes (0 = every send succeeds);
    t2: max delivery delay in ticks (>= 1);
    drop_prob: per-attempt loss probability, in [0, 1);
    delay_law: "uniform" draws the delay from {0..t2}, "fixed" always uses t2.
    """

    t1: int = 0
    t2: int = 1
    drop_prob: float = 0.0
    delay_law: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        for name, check in (("t1", _as_int), ("t2", _as_int),
                            ("drop_prob", _as_real), ("seed", _as_int)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        for name in ("t1", "seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        if self.t2 < 1:
            raise ConfigurationError(f"t2 must be positive, got {self.t2}")
        if not (0.0 <= self.drop_prob < 1.0):
            raise ConfigurationError(
                f"drop_prob must lie in [0, 1), got {self.drop_prob}; "
                "1.0 would force every send and contradict the loss model")
        if self.delay_law not in DELAY_LAWS:
            raise ConfigurationError(
                f"unknown delay_law {self.delay_law!r}, expected one of {DELAY_LAWS}")


@dataclass(slots=True)
class Message:
    src: int
    dst: int
    payload: Any
    sent_tick: int
    deliver_tick: int


class Channel:
    """Stateful medium binding a ChannelModel to a GraphSchedule.

    Edges are numbered in sorted order over the union of the schedule's
    edge sets; row k of a tick's draw block belongs to edge k, and
    ``_streak[k]`` counts its consecutive drops."""

    def __init__(self, model: ChannelModel, graph: GraphSchedule):
        self.model = model
        self.graph = graph
        self._rng = np.random.default_rng(model.seed)
        union = set().union(*(graph.edges_at(p) for p in range(graph.period)))
        self._index = {e: k for k, e in enumerate(sorted(union))}
        self._streak = [0] * len(union)
        self._tick = -1                 # the last tick whose block is drawn
        self._drops: list[bool] = []
        self._delays: list[int] = []
        self._pending: dict[tuple[int, int], list[Message]] = {}

    def _draw(self, t: int) -> None:
        """Draw tick t's block, stepping the generator past the blocks of
        the ticks skipped since the last draw without making them."""
        if t < self._tick:
            raise TransportError(f"tick {t} is earlier than tick "
                                 f"{self._tick}, whose draws are made")
        width = len(self._streak)
        if t > self._tick + 1:
            self._rng.bit_generator.advance(2 * width * (t - self._tick - 1))
        u = self._rng.random((width, 2))
        self._tick = t
        self._drops = (u[:, 0] < self.model.drop_prob).tolist()
        if self.model.delay_law == "fixed":
            self._delays = [self.model.t2] * width
        else:
            # u < 1, so the product rounds below t2 + 1: delays 0..t2.
            self._delays = (u[:, 1] * (self.model.t2 + 1)).astype(
                np.int64).tolist()

    def attempt_send(self, edge: tuple[int, int], payload: Any, t: int) -> int | None:
        """Try to send payload over edge at tick t.

        Returns the delivery tick on success, None on a drop.  Delivery is
        forced once the edge has seen t1 consecutive drops.  Raises
        TransportError for an edge not active at t or a tick before the
        last one attempted.
        """
        if edge not in self.graph.edges_at(t):
            raise TransportError(f"edge {edge} is not active at tick {t}")
        src, dst = edge
        if t != self._tick:
            self._draw(t)
        k = self._index[edge]
        if self._streak[k] < self.model.t1 and self._drops[k]:
            self._streak[k] += 1
            return None
        self._streak[k] = 0
        deliver = t + self._delays[k]
        msg = Message(src=src, dst=dst, payload=payload,
                      sent_tick=t, deliver_tick=deliver)
        self._pending.setdefault((deliver, dst), []).append(msg)
        return deliver

    def drain(self, dst: int, t: int) -> list[Message]:
        """All messages for dst deliverable exactly at tick t, ordered by
        (src, sent_tick) with arrival order breaking ties."""
        msgs = self._pending.pop((t, dst), [])
        if len(msgs) > 1:
            msgs.sort(key=lambda m: (m.src, m.sent_tick))
        return msgs

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())
