"""Time-varying directed communication graphs.

A :class:`GraphSchedule` assigns a set of directed edges ``(src, dst)`` over
agents ``{1..n_agents}`` to every tick.  Time-varying schedules repeat a
finite sequence of edge sets.  The module answers the structural queries the
aggregation protocols need: exact-distance neighborhoods, the worst-case
propagation bound of the delivery guarantee, and the static-graph
classification that gates the acyclic protocol.

All objects are read-only after construction and safe to share across
concurrently running simulation replicas.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ConfigurationError, TopologyError

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

    def _check_agent(self, i: int) -> None:
        if not (1 <= i <= self.n_agents):
            raise ValueError(f"agent id {i} outside 1..{self.n_agents}")

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


def _adjacency(g: GraphSchedule, t: int, undirected: bool) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(1, g.n_agents + 1)}
    for src, dst in g.edges_at(t):
        adj[src].add(dst)
        if undirected:
            adj[dst].add(src)
    return adj


def _bfs_distances(adj: dict[int, set[int]], i: int) -> dict[int, int]:
    dist = {i: 0}
    frontier = deque([i])
    while frontier:
        u = frontier.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def khop_neighbors(g: GraphSchedule, i: int, k: int,
                   t: int = 0, undirected: bool = True) -> set[int]:
    """Agents at graph distance exactly ``k`` from agent ``i`` at tick ``t``.

    Distance 0 is the singleton ``{i}``; the result is empty once ``k``
    exceeds the eccentricity of ``i``.  By default edges are treated as
    undirected (the acyclic protocol's setting); pass ``undirected=False``
    for directed reachability.
    """
    g._check_agent(i)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    dist = _bfs_distances(_adjacency(g, t, undirected), i)
    return {j for j, d in dist.items() if d == k}


def _directed_diameter(n_agents: int, edges: frozenset[Edge]) -> int | None:
    """Max over ordered pairs of shortest directed path length; None if some
    pair is unreachable."""
    adj: dict[int, set[int]] = {i: set() for i in range(1, n_agents + 1)}
    for src, dst in edges:
        adj[src].add(dst)
    worst = 0
    for i in range(1, n_agents + 1):
        dist = _bfs_distances(adj, i)
        if len(dist) < n_agents:
            return None
        worst = max(worst, max(dist.values()))
    return worst


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
    k = _directed_diameter(g.n_agents, g.always_present_edges())
    if k is None:
        raise TopologyError(
            "graph schedule is not connected through always-present edges; "
            "the delivery guarantee cannot bound staleness")
    return max(1, k * (t1 + t2))


@dataclass(frozen=True)
class GraphClass:
    acyclic_undirected: bool
    strongly_connected: bool
    diameter: int | None


def classify(g: GraphSchedule) -> GraphClass:
    """Classify a static graph: forest check (undirected closure), strong
    connectivity and directed diameter.

    Raises ConfigurationError on time-varying schedules — the acyclic
    protocol this gate serves requires a time-invariant graph.
    """
    if not g.static_flag:
        raise ConfigurationError("classification requires a static graph schedule")
    edges = g.edges_at(0)
    undirected = {frozenset(e) for e in edges}
    # A forest has no cycle in the undirected closure: union-find over edges.
    parent = list(range(g.n_agents + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    acyclic = True
    for e in undirected:
        a, b = tuple(e)
        ra, rb = find(a), find(b)
        if ra == rb:
            acyclic = False
            break
        parent[ra] = rb
    diameter = _directed_diameter(g.n_agents, edges)
    return GraphClass(acyclic_undirected=acyclic,
                      strongly_connected=diameter is not None,
                      diameter=diameter)
