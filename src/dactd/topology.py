"""Time-varying directed communication graphs.

A :class:`GraphSchedule` assigns a set of directed edges ``(src, dst)`` over
agents ``{1..n_agents}`` to every tick.  Time-varying schedules repeat a
finite sequence of edge sets.  The module answers the structural queries the
aggregation protocols need, all from one hop-distance table
(:func:`hop_distances`): k-hop neighborhoods and the worst-case
propagation bound of the delivery guarantee.  Which graphs a protocol can
run on is decided by the protocol's own driver.

All objects are read-only after construction and safe to share across
concurrently running simulation replicas.
"""

from __future__ import annotations

from collections.abc import Iterable
from numbers import Integral

import numpy as np

from .errors import ConfigurationError

Edge = tuple[int, int]


class GraphSchedule:
    """Repeating schedule of directed edge sets over agents 1..n_agents."""

    def __init__(self, n_agents: int, period_edges: list[set[Edge]]):
        if n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {n_agents}")
        if not period_edges:
            raise ValueError("schedule needs at least one edge set")
        period: list[frozenset[Edge]] = []
        for edges in period_edges:
            checked = set()
            for e in edges:
                if not (isinstance(e, (tuple, list)) and len(e) == 2 and all(
                        isinstance(v, Integral) and not isinstance(v, bool)
                        for v in e)):
                    raise ValueError(f"edge {e!r} is not a pair of integer "
                                     "agent ids")
                src, dst = int(e[0]), int(e[1])
                if not (1 <= src <= n_agents and 1 <= dst <= n_agents):
                    raise ValueError(f"edge {e} has endpoint outside 1..{n_agents}")
                if src == dst:
                    raise ValueError(f"self-loop {e} is not allowed")
                checked.add((src, dst))
            period.append(frozenset(checked))
        self.n_agents = n_agents
        self._period = tuple(period)

    @property
    def static_flag(self) -> bool:
        return all(s == self._period[0] for s in self._period)

    @property
    def period(self) -> int:
        return len(self._period)

    def edges_at(self, t: int) -> frozenset[Edge]:
        if t < 0:
            raise ValueError(f"tick must be non-negative, got {t}")
        return self._period[t % len(self._period)]

    def always_present_edges(self) -> frozenset[Edge]:
        """Edges present at every tick of the period."""
        inter = set(self._period[0])
        for s in self._period[1:]:
            inter &= s
        return frozenset(inter)

    # -- common constructions -------------------------------------------------

    @classmethod
    def static(cls, n_agents: int, edges: set[Edge]) -> "GraphSchedule":
        return cls(n_agents, [set(edges)])

    @classmethod
    def line(cls, n_agents: int) -> "GraphSchedule":
        edges: set[Edge] = set()
        for i in range(1, n_agents):
            edges.add((i, i + 1))
            edges.add((i + 1, i))
        return cls.static(n_agents, edges)

    @classmethod
    def ring(cls, n_agents: int) -> "GraphSchedule":
        edges: set[Edge] = set()
        for i in range(1, n_agents + 1):
            j = i % n_agents + 1
            edges.add((i, j))
            edges.add((j, i))
        return cls.static(n_agents, edges)

    @classmethod
    def star(cls, n_agents: int) -> "GraphSchedule":
        edges: set[Edge] = set()
        for i in range(2, n_agents + 1):
            edges.add((1, i))
            edges.add((i, 1))
        return cls.static(n_agents, edges)

    @classmethod
    def complete(cls, n_agents: int) -> "GraphSchedule":
        edges = {(i, j) for i in range(1, n_agents + 1)
                 for j in range(1, n_agents + 1) if i != j}
        return cls.static(n_agents, edges)

    def __repr__(self) -> str:
        kind = "static" if self.static_flag else f"period={self.period}"
        return f"GraphSchedule(n_agents={self.n_agents}, {kind})"


def hop_distances(n_agents: int, edges: Iterable[Edge]) -> np.ndarray:
    """(N, N) fewest-edge path lengths, by one breadth-first search per source
    agent: entry ``[i-1, j-1]`` counts the edges of a shortest directed path
    from agent i to agent j, and is -1 where there is no path."""
    adj: list[list[int]] = [[] for _ in range(n_agents)]
    for src, dst in edges:
        adj[src - 1].append(dst - 1)
    rows = []
    for i in range(n_agents):
        row = [-1] * n_agents
        row[i] = 0
        frontier, d = [i], 0
        while frontier:
            d += 1
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if row[v] < 0:
                        row[v] = d
                        reached.append(v)
            frontier = reached
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def cumulative_neighborhoods(g: GraphSchedule, k: int) -> list[list[int]]:
    """Per agent i, the sorted agents with a directed path of at most ``k``
    always-present edges to i, i included: the agents whose values can reach
    i within k hops.  Column i of the hop table."""
    dist = hop_distances(g.n_agents, g.always_present_edges())
    near = (dist >= 0) & (dist <= k)
    return [(np.flatnonzero(col) + 1).tolist() for col in near.T]


def latency_bound(g: GraphSchedule, t1: int, t2: int) -> int:
    """Worst-case staleness K = k * (t1 + t2) of the delivery guarantee.

    ``k`` is the maximum hop count between any ordered agent pair: the
    directed diameter of the static graph, or — for time-varying schedules —
    of the edges present at every tick (only those support a per-hop
    worst-case argument).  Returns at least 1 so the protocols always keep a
    non-empty relay window.
    """
    if t1 < 0:
        raise ValueError(f"t1 must be non-negative, got {t1}")
    if t2 < 1:
        raise ValueError(f"t2 must be positive, got {t2}")
    dist = hop_distances(g.n_agents, g.always_present_edges())
    if (dist < 0).any():
        raise ConfigurationError(
            "graph schedule is not connected through always-present edges; "
            "the delivery guarantee cannot bound staleness")
    return max(1, int(dist.max()) * (t1 + t2))
