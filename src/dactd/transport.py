"""Simulated communication medium with bounded delays and packet loss.

Every directed edge carries independent lossy traffic: a send attempt at tick
``t`` is dropped with probability ``drop_prob`` unless the edge has already
accumulated ``t1`` consecutive drops, in which case delivery is forced — so
over any window of ``t1 + 1`` attempts at least one succeeds.  A successful
send at ``t_s`` is assigned a delivery tick ``t_r ∈ [t_s, t_s + t2]`` by the
configured delay law.  Payloads are carried verbatim (never copied or
altered) and a successful send is delivered exactly once.

A channel is owned by a single run's lockstep loop; determinism follows from
the seeded generator plus the caller iterating edges in a fixed order.
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
                            ("drop_prob", _as_real)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.t1 < 0:
            raise ConfigurationError(f"t1 must be non-negative, got {self.t1}")
        if self.t2 < 1:
            raise ConfigurationError(f"t2 must be positive, got {self.t2}")
        if not (0.0 <= self.drop_prob < 1.0):
            raise ConfigurationError(
                f"drop_prob must lie in [0, 1), got {self.drop_prob}; "
                "1.0 would force every send and contradict the loss model")
        if self.delay_law not in DELAY_LAWS:
            raise ConfigurationError(
                f"unknown delay_law {self.delay_law!r}, expected one of {DELAY_LAWS}")


@dataclass
class Message:
    src: int
    dst: int
    payload: Any
    sent_tick: int
    deliver_tick: int


class Channel:
    """Stateful medium binding a ChannelModel to a GraphSchedule."""

    def __init__(self, model: ChannelModel, graph: GraphSchedule):
        self.model = model
        self.graph = graph
        self._rng = np.random.default_rng(model.seed)
        self._pending: dict[tuple[int, int], list[Message]] = {}
        self._drop_streak: dict[tuple[int, int], int] = {}

    def attempt_send(self, edge: tuple[int, int], payload: Any, t: int) -> int | None:
        """Try to send payload over edge at tick t.

        Returns the delivery tick on success, None on a drop.  Delivery is
        forced once the edge has seen t1 consecutive drops.
        """
        if edge not in self.graph.edges_at(t):
            raise TransportError(f"edge {edge} is not active at tick {t}")
        src, dst = edge
        streak = self._drop_streak.get(edge, 0)
        if streak >= self.model.t1:
            success = True
        else:
            success = self._rng.random() >= self.model.drop_prob
        if not success:
            self._drop_streak[edge] = streak + 1
            return None
        self._drop_streak[edge] = 0
        if self.model.delay_law == "fixed":
            delay = self.model.t2
        else:
            delay = int(self._rng.integers(0, self.model.t2 + 1))
        deliver = t + delay
        msg = Message(src=src, dst=dst, payload=payload,
                      sent_tick=t, deliver_tick=deliver)
        self._pending.setdefault((deliver, dst), []).append(msg)
        return deliver

    def drain(self, dst: int, t: int) -> list[Message]:
        """All messages for dst deliverable exactly at tick t, ordered by
        (src, sent_tick) with arrival order breaking ties."""
        msgs = self._pending.pop((t, dst), [])
        msgs.sort(key=lambda m: (m.src, m.sent_tick))
        return msgs

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())
