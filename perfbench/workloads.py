"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up the bench times as ``setup_s``), then runs rounds of work through
dactd's public API.  A round appends the latency of each *op* -- the call a
user waits on -- to ``Samples.op_s``, adds the work it completed to
``Samples.work_units``/``work_s``, and checks every output it produced.
Checks run outside the timed calls.  Round 0 also feeds each checker one
read-out changed by one ulp and checks that it is flagged, so no check is
vacuous.

* ``episodic_line5``: op = one ``dactd run`` of the line5 config, work =
  episodes (all algorithms);
* ``exchange_n40``: op = one ``GeneralProtocolDriver.tick``, work = ticks;
* ``online_tv7``: op = one exact-oracle evaluation of the learned policies,
  work = env steps of ``run_theory``.
"""
from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from dactd import cli, envs, learner, load_config, oracle, topology
from dactd.funcapprox import (LinearCritic, TabularSoftmaxPolicy,
                              tabular_features)
from dactd.protocol import (GeneralProtocolDriver, ascending_mean,
                            centralized_team_td)
from dactd.topology import GraphSchedule
from dactd.transport import Channel, ChannelModel

clock = time.perf_counter

# Per-layer metrics grouped by layer; each workload's NONZERO lists those
# its traced run must report as non-zero.
LEARNER = ("learner.run_s", "learner.self_s")
MLP = ("funcapprox.critic_fit_s", "funcapprox.critic_fit_calls",
       "funcapprox.critic_fit_rows", "funcapprox.actor_score_s",
       "funcapprox.actor_score_rows", "funcapprox.forward_s",
       "funcapprox.apply_update_s")
PROTOCOL = ("protocol.tick_s", "protocol.merge_s", "protocol.merge_calls",
            "protocol.window_payload_s", "protocol.read_team_s",
            "protocol.values_per_edge_tick", "protocol.redundant_slot_ratio")
TRANSPORT = ("transport.send_s", "transport.drain_s", "transport.attempts",
             "transport.drops", "transport.forced",
             "transport.delay_mean_ticks", "transport.pending_max")
TOPOLOGY = ("topology.latency_bound_s", "topology.K")


@dataclass
class Tally:
    """Checks made, counted as the benchmark's operations."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Samples:
    op_s: list[float] = field(default_factory=list)
    work_units: int = 0
    work_s: float = 0.0
    rounds: int = 0


def bitwise_equal(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def one_ulp_up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def sub_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class EpisodicLine5:
    """``dactd run`` on configs/line5.yaml with only episodes, seeds and
    out dir overridden; each round trains every algorithm on a new seed."""

    EPISODES = 10
    # line5's channel never drops (drop_prob 0), so transport.drops is 0.
    NONZERO = (LEARNER + MLP + PROTOCOL + TOPOLOGY + ("cli.self_s",)
               + tuple(m for m in TRANSPORT if m != "transport.drops"))

    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        self.out = out / f"line5_seed{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        raw = yaml.safe_load((root / "configs" / "line5.yaml").read_text())
        raw.update(episodes=self.EPISODES, seeds=[sub_seed(seed, 0)],
                   out_dir=str(self.out))
        self.config = self.out / "line5.yaml"
        self.config.write_text(yaml.safe_dump(raw, sort_keys=False))
        cfg = load_config(self.config)
        labels = [a.label for a in cfg.algorithms]
        if "dac_td" not in labels or "khop_sac_k4" not in labels:
            raise ValueError(f"line5 config lacks dac_td/khop_sac_k4: {labels}")
        self.episodes_per_call = len(labels) * cfg.episodes

    def round(self, r: int, deadline: float, samples: Samples,
              tally: Tally) -> None:
        s = sub_seed(self.seed, r)
        argv = ["run", "--config", str(self.config), "--seed", str(s),
                "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            code = cli.main(argv)
            dt = clock() - t0
        samples.op_s.append(dt)
        samples.work_s += dt
        samples.work_units += self.episodes_per_call
        tally.check(code == 0, f"dactd run exited {code} on seed {s}")
        dac = (self.out / f"dac_td_seed{s}.csv").read_bytes()
        khop = (self.out / f"khop_sac_k4_seed{s}.csv").read_bytes()
        tally.check(dac == khop, f"dac_td != khop_sac_k4 CSV on seed {s}")
        if r == 0:
            lines = dac.decode().split("\n")
            row = lines[1].split(",")
            row[1] = repr(one_ulp_up(float(row[1])))
            lines[1] = ",".join(row)
            tally.check("\n".join(lines).encode() != khop,
                        "self-test: one-ulp CSV change not flagged")
        for path in self.out.glob(f"*_seed{s}.csv"):
            path.unlink()


class ExchangeN40:
    """General-protocol ticks on a 40-agent line over a lossy channel with
    100-value slots and a seeded Gaussian TD stream."""

    N, SLOTS = 40, 100
    CHANNEL = dict(t1=1, t2=1, drop_prob=0.3, delay_law="uniform")
    CHECKED_TICKS = 20          # ticks past K that every run checks
    NONZERO = PROTOCOL + TRANSPORT + TOPOLOGY

    def __init__(self, seed: int, root: Path, out: Path):
        stream_ss, channel_ss = np.random.SeedSequence(seed).spawn(2)
        self.graph = GraphSchedule.line(self.N)
        self.K = topology.latency_bound(self.graph, self.CHANNEL["t1"],
                                        self.CHANNEL["t2"])
        model = ChannelModel(**self.CHANNEL,
                             seed=int(channel_ss.generate_state(1)[0]))
        self.driver = GeneralProtocolDriver(
            self.graph, Channel(model, self.graph), self.K, (self.SLOTS,))
        self.rng = np.random.default_rng(stream_ss)
        self.stream: dict[int, np.ndarray] = {}
        self.t = 0

    def round(self, r: int, deadline: float, samples: Samples,
              tally: Tally) -> None:
        while self.t < self.K + self.CHECKED_TICKS or clock() < deadline:
            t = self.t
            deltas = self.rng.normal(size=(self.N, self.SLOTS))
            self.stream[t] = deltas
            t0 = clock()
            out = self.driver.tick(t, deltas)
            dt = clock() - t0
            samples.op_s.append(dt)
            samples.work_s += dt
            samples.work_units += 1
            self.t += 1
            if t < self.K:
                continue
            want = centralized_team_td(self.stream.pop(t - self.K))
            for i in range(self.N):
                tally.check(bitwise_equal(out[i], want),
                            f"tick {t} agent {i + 1} read-out != central mean")
            if t == self.K:
                bad = out[0].copy()
                bad[0] = one_ulp_up(bad[0])
                tally.check(not bitwise_equal(bad, want),
                            "self-test: one-ulp read-out change not flagged")


class OnlineTv7:
    """``run_theory`` on CoupledEnv(7) over a period-2 schedule (a
    bidirectional line at every tick plus seed-drawn chords that differ
    between the slices), then the exact oracle on the final policies."""

    N, STEPS, CHORDS = 7, 1000, 3
    CHANNEL = dict(t1=1, t2=2, drop_prob=0.3, delay_law="uniform")
    NONZERO = (LEARNER + ("funcapprox.tabular_s",) + PROTOCOL + TRANSPORT
               + TOPOLOGY + ("envs.step_s", "envs.enumerate_model_s",
                             "oracle.solve_model_s", "oracle.policy_gradient_s",
                             "oracle.critic_fixed_point_s"))

    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        # The graph's key differs from every round key (seed, r).
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2 ** 31]))
        line = {(i, i + 1) for i in range(1, self.N)}
        pairs = [(i, j) for i in range(1, self.N + 1)
                 for j in range(i + 2, self.N + 1)]
        picks = rng.permutation(len(pairs))[:2 * self.CHORDS]
        slices = []
        for half in (picks[:self.CHORDS], picks[self.CHORDS:]):
            edges = line | {pairs[k] for k in half}
            slices.append(edges | {(j, i) for i, j in edges})
        self.graph = GraphSchedule(self.N, slices)
        self.env = envs.CoupledEnv(self.N, 0.9)
        self.channel = ChannelModel(**self.CHANNEL)
        self.K = topology.latency_bound(self.graph, self.CHANNEL["t1"],
                                        self.CHANNEL["t2"])
        self.features = tabular_features(2)

    def round(self, r: int, deadline: float, samples: Samples,
              tally: Tally) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r]))
        policies = [TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
                    for _ in range(self.N)]
        critics = [LinearCritic(self.features) for _ in range(self.N)]
        t0 = clock()
        res = learner.run_theory(
            self.env, self.graph, policies, critics,
            learner.StepSchedule.constant(0.01),
            learner.StepSchedule.constant(0.05), self.STEPS,
            seed=sub_seed(self.seed, r), channel_model=self.channel)
        dt = clock() - t0
        samples.work_s += dt
        samples.work_units += self.STEPS

        K = self.K
        tally.check(res.K == K, f"run_theory K={res.K}, expected {K}")
        for t in range(K, self.STEPS):
            want = ascending_mean(res.local_deltas[t - K])
            for i in range(self.N):
                tally.check(bitwise_equal(res.team_estimates[t, i], want),
                            f"step {t} agent {i + 1} estimate != ascending mean")
        tally.check(np.array_equal(res.updates_applied,
                                   np.arange(self.STEPS) >= K),
                    "updates_applied is not exactly t >= K")
        if r == 0:
            want = ascending_mean(res.local_deltas[0])
            bad = one_ulp_up(res.team_estimates[K, 0])
            tally.check(not bitwise_equal(bad, want),
                        "self-test: one-ulp estimate change not flagged")

        t0 = clock()
        model = envs.enumerate_model(self.env, policies)
        sol = oracle.solve_model(model)
        grads = oracle.exact_policy_gradient(sol, policies)
        fixed = [oracle.critic_fixed_point(
                     model, sol.d_pi, i,
                     oracle.feature_matrix(model.spec, i, self.features))
                 for i in range(1, self.N + 1)]
        samples.op_s.append(clock() - t0)
        tally.check(all(np.isfinite(g).all() for g in grads + fixed)
                    and abs(sol.d_pi.sum() - 1.0) < 1e-12,
                    "oracle outputs not finite or d_pi not a distribution")


WORKLOADS = {
    "episodic_line5": EpisodicLine5,
    "exchange_n40": ExchangeN40,
    "online_tv7": OnlineTv7,
}
