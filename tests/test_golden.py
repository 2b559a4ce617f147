"""Golden digests that pin the exact bits of protocol traffic and learning.

Each digest is a blake2b hash (``payload_digest``) of a short deterministic
run.  A change that alters a digest alters the simulator's output; it is
re-baselined only by a change that says why.

``LINE5_GRID_DIGEST`` was re-baselined once, when the episodic learner moved
from einsum to matmul kernels and began fitting its critic on per-state
residual sums: both reorder floating-point sums.  Over the digest's grid the
parameters moved by at most 5.3e-15 and every team return stayed the same
bit for bit; the two exchange digests did not change.
"""
from dataclasses import replace
from pathlib import Path

import numpy as np

from dactd.config import load_config
from dactd.envs import CoupledEnv, micro_env
from dactd.funcapprox import LinearCritic, TabularSoftmaxPolicy, tabular_features
from dactd.learner import StepSchedule, run_experiment, run_theory
from dactd.protocol import run_acyclic_exchange, run_general_exchange
from dactd.topology import GraphSchedule, latency_bound
from dactd.transport import Channel, ChannelModel

from helpers import payload_digest

LINE5 = Path(__file__).resolve().parents[1] / "configs" / "line5.yaml"

EXCHANGE_DIGEST = "721a241b6886261e"
LINE5_GRID_DIGEST = "3692ac30990d2017"
ACYCLIC_DIGEST = "800bf3e97c013c0c"
ONLINE_DIGEST = "1bd385562499f2be"


class RecordingChannel(Channel):
    """A channel that keeps every message its receivers drain, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.delivered = []

    def drain(self, dst, t):
        msgs = super().drain(dst, t)
        self.delivered.extend(msgs)
        return msgs


def test_lossy_exchange_traffic_digest():
    # Lossy 6-agent line with delays: K = 20, and 3K ticks wrap every
    # agent's (K+1)-row ring several times while stale rows keep arriving.
    g = GraphSchedule.line(6)
    K = latency_bound(g, 2, 2)
    ch = RecordingChannel(ChannelModel(t1=2, t2=2, drop_prob=0.4, seed=11), g)
    deltas = np.random.default_rng(12).normal(size=(3 * K, 6, 3))
    res = run_general_exchange(g, ch, deltas, K)
    assert (res.readouts[K:] == res.reference[K:, None, :]).all()
    # A payload's values may hold slots its sender does not know yet; the
    # digest keeps the known ones and zeros elsewhere, which is what a
    # sender holding its own copy of the values sends.
    traffic = [(m.src, m.dst, m.sent_tick, m.deliver_tick,
                payload_digest((m.payload.origins,
                                np.where(m.payload.known[..., None],
                                         m.payload.values, 0.0),
                                m.payload.known)))
               for m in ch.delivered]
    # A delay of 2 ticks delivers a row older than the receiver's window.
    assert max(m.deliver_tick - m.sent_tick for m in ch.delivered) == 2
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
    # Per agent i: (i, level sums, [(j, correction toward j), ...]).
    pairs = sorted(g.edges_at(0))
    snaps = [[(i, sums[i - 1], [(j, corr[e]) for e, (r, j) in enumerate(pairs)
                                if r == i])
              for i in range(1, 8)]
             for sums, corr in res.snapshots]
    assert len(snaps) == 3 * K
    assert payload_digest([res.readouts, snaps]) == ACYCLIC_DIGEST


def test_line5_grid_digest():
    cfg = replace(load_config(LINE5), episodes=30, seeds=(0, 1))
    parts = [[res.team_returns, res.actor_params, res.critic_params]
             for res in run_experiment(cfg, cfg.expand_runs())]
    assert len(parts) == 8
    assert payload_digest(parts) == LINE5_GRID_DIGEST


def _tabular_learners(rng, n, logit_scale):
    policies = [TabularSoftmaxPolicy(2, 2, logits=rng.normal(scale=logit_scale,
                                                             size=(2, 2)))
                for _ in range(n)]
    critics = [LinearCritic(tabular_features(2), v=rng.normal(size=2))
               for _ in range(n)]
    return policies, critics


def test_online_digest():
    # run_theory on a period-2 graph (a line plus one chord that alternates)
    # over a lossy, delayed channel, with a box tight enough that clamps fire;
    # then fixed-policy TD(0) on the two-agent env.
    n = 4
    rng = np.random.default_rng(14)
    line = {(i, i + 1) for i in range(1, n)}
    slices = [edges | {(j, i) for i, j in edges}
              for edges in (line | {(1, 3)}, line | {(2, 4)})]
    graph = GraphSchedule(n, slices)
    policies, critics = _tabular_learners(rng, n, 0.05)
    res = run_theory(CoupledEnv(n, 0.9), graph, policies, critics,
                     StepSchedule.polynomial(20.0, 0.9),
                     StepSchedule.polynomial(0.2, 0.6), 200, seed=15,
                     channel_model=ChannelModel(t1=1, t2=2, drop_prob=0.3),
                     theta_box=0.05)
    assert res.K == 9 and res.updates_applied.sum() == 200 - 9
    assert np.abs(res.actor_params).max() == 0.05
    policies, critics = _tabular_learners(rng, 2, 1.0)
    weights = run_theory(micro_env(), GraphSchedule.line(2), policies, critics,
                         None, StepSchedule.polynomial(0.5, 0.6), 3000,
                         seed=16, protocol=None).critic_weights
    assert payload_digest([res.states, res.local_deltas, res.team_estimates,
                           res.actor_params, res.critic_weights,
                           weights]) == ONLINE_DIGEST
