"""Where the traced run wraps dactd, and how its spans become per-layer
metrics.

Names are patched where the caller looks them up: ``learner`` binds
``softmax`` and ``latency_bound`` by name and ``cli`` binds
``run_experiment``, so those are patched in the caller's module; methods
are patched on their class.  The bench calls ``run_theory``,
``latency_bound``, ``enumerate_model`` and the oracle functions through
their module attributes, so patching the module is enough there.

Counts come from the same boundaries: transport events from the return
value of ``Channel.attempt_send`` (None is a drop, ``deliver - t`` the
delay), with drop streaks tracked here to count forced sends; redundant
slots from the receiver's window before each ``TDHistory.merge_payload``.
"""
from __future__ import annotations

import numpy as np

from dactd import cli, envs, learner, oracle, topology
from dactd.envs import CoupledEnv
from dactd.funcapprox import LinearCritic, MlpStack, TabularSoftmaxPolicy
from dactd.protocol import GeneralProtocolDriver, TDHistory, TeamTDAggregator
from dactd.transport import Channel

from spans import Tracer

# Span name -> the per-layer time metric it adds to.
TIME_METRIC = {
    "learner.run_experiment": "learner.run_s",
    "learner.run_theory": "learner.run_s",
    "funcapprox.MlpStack.param_grads.batch": "funcapprox.critic_fit_s",
    "funcapprox.MlpStack.param_grads.per_sample": "funcapprox.actor_score_s",
    "funcapprox.MlpStack.forward": "funcapprox.forward_s",
    "funcapprox.softmax": "funcapprox.forward_s",
    "funcapprox.MlpStack.apply_update": "funcapprox.apply_update_s",
    "funcapprox.MlpStack.get_flat": "funcapprox.apply_update_s",
    "funcapprox.MlpStack.set_flat": "funcapprox.apply_update_s",
    "protocol.GeneralProtocolDriver.tick": "protocol.tick_s",
    "protocol.TDHistory.merge_payload": "protocol.merge_s",
    "protocol.TDHistory.window_payload": "protocol.window_payload_s",
    "protocol.TeamTDAggregator.read_team": "protocol.read_team_s",
    "transport.Channel.attempt_send": "transport.send_s",
    "transport.Channel.drain": "transport.drain_s",
    "topology.latency_bound": "topology.latency_bound_s",
    "envs.CoupledEnv.step": "envs.step_s",
    "envs.enumerate_model": "envs.enumerate_model_s",
    "oracle.solve_model": "oracle.solve_model_s",
    "oracle.exact_policy_gradient": "oracle.policy_gradient_s",
    "oracle.critic_fixed_point": "oracle.critic_fixed_point_s",
}
TABULAR = (("TabularSoftmaxPolicy", TabularSoftmaxPolicy,
            ("probs", "score", "sample_action", "get_flat", "set_flat")),
           ("LinearCritic", LinearCritic,
            ("value", "grad", "get_flat", "set_flat")))
for _cls_name, _, _methods in TABULAR:
    for _m in _methods:
        TIME_METRIC[f"funcapprox.{_cls_name}.{_m}"] = "funcapprox.tabular_s"


def _per_sample(args, kwargs) -> bool:
    return bool(kwargs.get("per_sample", args[3] if len(args) > 3 else True))


def _param_grads_name(args, kwargs) -> str:
    kind = "per_sample" if _per_sample(args, kwargs) else "batch"
    return f"funcapprox.MlpStack.param_grads.{kind}"


class Probe:
    """Counting hooks and the state they need between calls."""

    def __init__(self):
        self.streaks: dict[tuple[int, tuple[int, int]], int] = {}
        self.forced_now = False
        self.pending_max = 0
        self.K = 0

    def param_grads(self, tr: Tracer, args, kwargs) -> None:
        x = kwargs.get("x", args[1])
        rows = int(np.shape(x)[0] * np.shape(x)[1])
        if _per_sample(args, kwargs):
            tr.counts["funcapprox.actor_score_rows"] += rows
        else:
            tr.counts["funcapprox.critic_fit_calls"] += 1
            tr.counts["funcapprox.critic_fit_rows"] += rows

    def merge(self, tr: Tracer, args, kwargs) -> None:
        hist, payload = args[0], args[1]
        tr.counts["protocol.merge_calls"] += 1
        window = hist.window_payload()          # ages 0..K-1, newest first
        row_of = {o: r for r, o in enumerate(window.origins)}
        oldest = hist.newest_tick - hist.K
        delivered = already = 0
        for r, origin in enumerate(payload.origins):
            incoming = payload.known[r]
            n_known = int(incoming.sum())
            delivered += n_known
            if origin in row_of:
                local = window.known[row_of[origin]]
            elif origin == oldest:
                local = hist.vector_at(origin).known
            else:                                # cohort already read out
                already += n_known
                continue
            already += int((incoming & local).sum())
        tr.counts["protocol.delivered_known_slots"] += delivered
        tr.counts["protocol.redundant_known_slots"] += already

    def before_send(self, tr: Tracer, args, kwargs) -> None:
        channel, edge, payload = args[0], args[1], args[2]
        streak = self.streaks.get((id(channel), edge), 0)
        self.forced_now = streak >= channel.model.t1
        tr.counts["transport.attempts"] += 1
        tr.counts["protocol.values_sent"] += int(np.size(payload.values))

    def after_send(self, tr: Tracer, args, kwargs, deliver) -> None:
        channel, edge, t = args[0], args[1], args[3]
        key = (id(channel), edge)
        if deliver is None:
            tr.counts["transport.drops"] += 1
            self.streaks[key] = self.streaks.get(key, 0) + 1
            return
        self.streaks[key] = 0
        tr.counts["transport.forced"] += self.forced_now
        tr.counts["transport.delivered"] += 1
        tr.counts["transport.delay_ticks"] += deliver - t

    def after_tick(self, tr: Tracer, args, kwargs, result) -> None:
        self.pending_max = max(self.pending_max, args[0].channel.pending_count())

    def latency(self, tr: Tracer, args, kwargs, K) -> None:
        self.K = K


def install(tracer: Tracer) -> Probe:
    """Patch every traced boundary; ``tracer.unpatch()`` undoes it."""
    probe = Probe()
    p = tracer.patch
    p(cli, "cmd_run", "cli.cmd_run")
    p(cli, "run_experiment", "learner.run_experiment")
    p(learner, "run_theory", "learner.run_theory")
    p(learner, "softmax", "funcapprox.softmax")
    p(learner, "latency_bound", "topology.latency_bound", after=probe.latency)
    p(topology, "latency_bound", "topology.latency_bound", after=probe.latency)
    p(MlpStack, "param_grads", _param_grads_name, before=probe.param_grads)
    for m in ("forward", "apply_update", "get_flat", "set_flat"):
        p(MlpStack, m, f"funcapprox.MlpStack.{m}")
    for cls_name, cls, methods in TABULAR:
        for m in methods:
            p(cls, m, f"funcapprox.{cls_name}.{m}")
    p(GeneralProtocolDriver, "tick", "protocol.GeneralProtocolDriver.tick",
      after=probe.after_tick)
    p(TDHistory, "merge_payload", "protocol.TDHistory.merge_payload",
      before=probe.merge)
    p(TDHistory, "window_payload", "protocol.TDHistory.window_payload")
    p(TeamTDAggregator, "read_team", "protocol.TeamTDAggregator.read_team")
    p(Channel, "attempt_send", "transport.Channel.attempt_send",
      before=probe.before_send, after=probe.after_send)
    p(Channel, "drain", "transport.Channel.drain")
    p(CoupledEnv, "step", "envs.CoupledEnv.step")
    p(envs, "enumerate_model", "envs.enumerate_model")
    for fn in ("solve_model", "exact_policy_gradient", "critic_fixed_point"):
        p(oracle, fn, f"oracle.{fn}")
    return probe


def per_layer(tracer: Tracer, probe: Probe) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer did not
    run)."""
    c = tracer.counts
    out = {name: 0.0 for name in set(TIME_METRIC.values())}
    out.update(tracer.totals(TIME_METRIC.get))
    own = tracer.self_times()
    out["learner.self_s"] = sum(
        s for span, s in zip(tracer.spans, own)
        if TIME_METRIC.get(span[0]) == "learner.run_s")
    out["cli.self_s"] = sum(s for span, s in zip(tracer.spans, own)
                            if span[0] == "cli.cmd_run")
    for name in ("funcapprox.critic_fit_calls", "funcapprox.critic_fit_rows",
                 "funcapprox.actor_score_rows", "protocol.merge_calls",
                 "transport.attempts", "transport.drops", "transport.forced"):
        out[name] = c[name]
    attempts = c["transport.attempts"]
    delivered_slots = c["protocol.delivered_known_slots"]
    out["protocol.values_per_edge_tick"] = (
        c["protocol.values_sent"] / attempts if attempts else 0.0)
    out["protocol.redundant_slot_ratio"] = (
        c["protocol.redundant_known_slots"] / delivered_slots
        if delivered_slots else 0.0)
    out["transport.delay_mean_ticks"] = (
        c["transport.delay_ticks"] / c["transport.delivered"]
        if c["transport.delivered"] else 0.0)
    out["transport.pending_max"] = probe.pending_max
    out["topology.K"] = probe.K
    return out
