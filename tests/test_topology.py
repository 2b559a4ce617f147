"""Graph schedules, the hop-distance table and its k-hop neighborhoods, and
the staleness bound."""
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dactd.errors import ConfigurationError
from dactd.topology import (GraphSchedule, cumulative_neighborhoods,
                            hop_distances, latency_bound)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_rejects_empty_schedule():
    with pytest.raises(ValueError):
        GraphSchedule(3, [])


def test_rejects_agent_count_below_one():
    with pytest.raises(ValueError):
        GraphSchedule(0, [set()])


def test_rejects_endpoint_outside_range():
    with pytest.raises(ValueError):
        GraphSchedule.static(3, {(1, 4)})
    with pytest.raises(ValueError):
        GraphSchedule.static(3, {(0, 1)})
    # An endpoint is not truncated to an agent id, nor a triple to a pair.
    for edge in ((1.5, 2), (1, 2, 3), (True, 2), ("1", "2"), 12):
        with pytest.raises(ValueError):
            GraphSchedule.static(3, {edge})


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        GraphSchedule.static(3, {(2, 2)})


def test_time_varying_schedule_repeats_with_period():
    a, b = {(1, 2), (2, 1)}, {(1, 2), (2, 1), (2, 3), (3, 2)}
    g = GraphSchedule(3, [a, b])
    assert not g.static_flag
    assert g.period == 2
    assert g.edges_at(0) == frozenset(a)
    assert g.edges_at(5) == frozenset(b)
    assert g.edges_at(6) == frozenset(a)
    assert g.always_present_edges() == frozenset(a)


def test_negative_tick_rejected():
    g = GraphSchedule.line(3)
    with pytest.raises(ValueError):
        g.edges_at(-1)


# ---------------------------------------------------------------------------
# The hop-distance table
# ---------------------------------------------------------------------------

def bfs_distances(adj: dict[int, set[int]], i: int) -> dict[int, int]:
    """Reference: hop counts from agent i by one breadth-first search."""
    dist = {i: 0}
    frontier = deque([i])
    while frontier:
        u = frontier.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def reference_table(n: int, edges, undirected: bool) -> np.ndarray:
    adj: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for src, dst in edges:
        adj[src].add(dst)
        if undirected:
            adj[dst].add(src)
    table = np.full((n, n), -1)
    for i in range(1, n + 1):
        for j, d in bfs_distances(adj, i).items():
            table[i - 1, j - 1] = d
    return table


@st.composite
def digraphs(draw):
    """Any simple digraph on 1-10 agents: one-way edges, disconnected parts
    and cycles all occur."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else set()
    return GraphSchedule.static(n, edges)


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_hop_table_matches_per_source_bfs(g):
    n, edges = g.n_agents, g.edges_at(0)
    assert np.array_equal(hop_distances(n, edges),
                          reference_table(n, edges, undirected=False))
    # With the reverse of every edge added, the directed table is the
    # undirected one.
    both_ways = edges | {(dst, src) for src, dst in edges}
    assert np.array_equal(hop_distances(n, both_ways),
                          reference_table(n, edges, undirected=True))


# ---------------------------------------------------------------------------
# Distance rows of the table
# ---------------------------------------------------------------------------

def test_line_graph_distance_sets():
    g = GraphSchedule.line(5)
    dist = hop_distances(5, g.always_present_edges())
    assert dist[0].tolist() == [0, 1, 2, 3, 4]
    assert dist[2].tolist() == [2, 1, 0, 1, 2]


def test_distance_zero_is_self():
    g = GraphSchedule.ring(6)
    dist = hop_distances(6, g.always_present_edges())
    assert np.array_equal(dist == 0, np.eye(6, dtype=bool))


def test_directed_distance_differs_from_undirected():
    # One-way chain 1 -> 2 -> 3: only the two-way chain walks it backwards.
    edges = {(1, 2), (2, 3)}
    assert hop_distances(3, edges)[2].tolist() == [-1, -1, 0]
    assert hop_distances(3, edges | {(2, 1), (3, 2)})[2].tolist() == [2, 1, 0]


def test_cumulative_neighborhoods():
    line5 = GraphSchedule.line(5)
    assert cumulative_neighborhoods(line5, 0) == [[i] for i in range(1, 6)]
    assert cumulative_neighborhoods(line5, 2)[0] == [1, 2, 3]
    assert cumulative_neighborhoods(line5, 2)[2] == [1, 2, 3, 4, 5]
    star = GraphSchedule.star(4)
    assert cumulative_neighborhoods(star, 1)[0] == [1, 2, 3, 4]
    # On the one-way ring 1->2->3->4->1 agent 1 hears agent 4 after one hop
    # and agent 3 after two; agent 2 reaches it only after three.
    ring = GraphSchedule.static(4, {(1, 2), (2, 3), (3, 4), (4, 1)})
    assert cumulative_neighborhoods(ring, 1)[0] == [1, 4]
    assert cumulative_neighborhoods(ring, 2)[0] == [1, 3, 4]
    assert cumulative_neighborhoods(ring, 3) == [[1, 2, 3, 4]] * 4


@st.composite
def undirected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = draw(st.sets(st.sampled_from(pairs)))
    edges = set()
    for a, b in chosen:
        edges.add((a, b))
        edges.add((b, a))
    return GraphSchedule.static(n, edges)


@settings(max_examples=60, deadline=None)
@given(undirected_graphs(), st.integers(min_value=1, max_value=8))
def test_distance_sets_partition_the_reachable_set(g, i):
    if i > g.n_agents:
        i = 1 + (i - 1) % g.n_agents
    row = hop_distances(g.n_agents, g.always_present_edges())[i - 1]
    # every agent with a path to i appears in exactly one shell
    frontier, reachable = {i}, {i}
    while frontier:
        nxt = set()
        for u in frontier:
            for (a, b) in g.edges_at(0):
                if a == u and b not in reachable:
                    nxt.add(b)
        reachable |= nxt
        frontier = nxt
    assert set((np.flatnonzero(row >= 0) + 1).tolist()) == reachable


# ---------------------------------------------------------------------------
# Staleness bound of the delivery guarantee
# ---------------------------------------------------------------------------

def test_line_of_five_unit_delay():
    assert latency_bound(GraphSchedule.line(5), 0, 1) == 4


def test_complete_graph_is_one_hop():
    for n in (2, 5, 9):
        assert latency_bound(GraphSchedule.complete(n), 0, 1) == 1


def test_star_of_six_with_slack():
    assert latency_bound(GraphSchedule.star(6), 1, 2) == 6


def test_unit_delay_bound_equals_diameter():
    for g in (GraphSchedule.line(7), GraphSchedule.ring(6),
              GraphSchedule.star(5), GraphSchedule.complete(4)):
        dist = hop_distances(g.n_agents, g.always_present_edges())
        assert latency_bound(g, 0, 1) == dist.max()


def test_bound_is_at_least_one():
    g = GraphSchedule.static(1, set())
    assert latency_bound(g, 0, 1) == 1
    assert latency_bound(g, 3, 2) == 1


def test_disconnected_graph_rejected():
    g = GraphSchedule.static(4, {(1, 2), (2, 1), (3, 4), (4, 3)})
    with pytest.raises(ConfigurationError):
        latency_bound(g, 0, 1)


def test_one_way_edge_breaks_connectivity():
    g = GraphSchedule.static(2, {(1, 2)})
    with pytest.raises(ConfigurationError):
        latency_bound(g, 0, 1)


def test_time_varying_bound_uses_always_present_edges():
    line = {(1, 2), (2, 1), (2, 3), (3, 2)}
    extra = line | {(1, 3), (3, 1)}
    g = GraphSchedule(3, [line, extra])
    assert latency_bound(g, 0, 1) == 2  # the shortcut is not always there


def test_invalid_delay_parameters_rejected():
    g = GraphSchedule.line(3)
    with pytest.raises(ValueError):
        latency_bound(g, -1, 1)
    with pytest.raises(ValueError):
        latency_bound(g, 0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_bound_formula_on_lines(n, t1, t2):
    g = GraphSchedule.line(n)
    assert latency_bound(g, t1, t2) == max(1, (n - 1) * (t1 + t2))

