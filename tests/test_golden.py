"""Golden digests that pin the exact bits of protocol traffic and learning.

Each digest is a blake2b hash (``payload_digest``) of a short deterministic
run.  A change that alters either digest alters the simulator's output; it
is re-baselined only by a change that says why.
"""
from dataclasses import replace
from pathlib import Path

import numpy as np

from dactd.config import load_config
from dactd.learner import run_experiment
from dactd.protocol import run_acyclic_exchange, run_general_exchange
from dactd.topology import GraphSchedule, latency_bound
from dactd.transport import Channel, ChannelModel, payload_digest

LINE5 = Path(__file__).resolve().parents[1] / "configs" / "line5.yaml"

EXCHANGE_DIGEST = "721a241b6886261e"
LINE5_GRID_DIGEST = "5dc1918c4a118763"
ACYCLIC_DIGEST = "800bf3e97c013c0c"


def test_lossy_exchange_traffic_digest():
    # Lossy 6-agent line with delays: K = 20, and 3K ticks wrap every
    # agent's (K+1)-row ring several times while stale rows keep arriving.
    g = GraphSchedule.line(6)
    K = latency_bound(g, 2, 2)
    ch = Channel(ChannelModel(t1=2, t2=2, drop_prob=0.4, seed=11), g,
                 trace=True)
    deltas = np.random.default_rng(12).normal(size=(3 * K, 6, 3))
    res = run_general_exchange(g, ch, deltas, K)
    assert (res.readouts[K:] == res.reference[K:, None, :]).all()
    traffic = [(m.src, m.dst, m.sent_tick, m.deliver_tick,
                payload_digest(m.payload.as_tuple()))
               for m in ch.delivery_log]
    # A delay of 2 ticks delivers a row older than the receiver's window.
    assert max(m.deliver_tick - m.sent_tick for m in ch.delivery_log) == 2
    assert payload_digest([traffic, res.readouts]) == EXCHANGE_DIGEST


def test_acyclic_exchange_digest():
    # Random 7-agent tree: each agent after the first hangs off an earlier
    # one.  3K ticks with 3-value slots; the digest covers every read-out
    # and every traced level sum and correction.
    rng = np.random.default_rng(13)
    edges = set()
    for child in range(2, 8):
        parent = int(rng.integers(1, child))
        edges |= {(child, parent), (parent, child)}
    g = GraphSchedule.static(7, edges)
    K = latency_bound(g, 0, 1)
    deltas = rng.normal(size=(3 * K, 7, 3))
    res = run_acyclic_exchange(g, deltas, K, collect_snapshots=True)
    assert np.abs(res.readouts[K:] - res.reference[K:, None, :]).max() <= 1e-12
    snaps = [[(i, sums, sorted(corr.items()))
              for i, (sums, corr) in sorted(snap.items())]
             for snap in res.snapshots]
    assert len(snaps) == 3 * K
    assert payload_digest([res.readouts, snaps]) == ACYCLIC_DIGEST


def test_line5_grid_digest():
    cfg = replace(load_config(LINE5), episodes=30, seeds=(0, 1))
    parts = []
    for alg, seed in cfg.expand_runs():
        res = run_experiment(cfg, alg, seed)
        parts.append([res.team_returns, res.actor_params, res.critic_params])
    assert len(parts) == 8
    assert payload_digest(parts) == LINE5_GRID_DIGEST
