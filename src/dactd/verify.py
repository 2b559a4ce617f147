"""Randomized property suites with exact oracles.

Each suite generates random instances, checks the implementation against an
independently computed reference, and returns a report with the observed
worst-case error and the seeds involved, so any failure is reproducible
from the printed line alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs import enumerate_model, micro_env
from .funcapprox import (LinearCritic, MlpStack, TabularSoftmaxPolicy,
                         finite_difference, max_relative_error, one_hot,
                         softmax, tabular_features)
from .learner import StepSchedule, _score_table, run_theory
from .oracle import (correction_terms, critic_fixed_point, drift_eigenvalue,
                     exact_policy_gradient, feature_matrix, solve_model,
                     update_direction)
from .protocol import (check_neighborhood_invariant, run_acyclic_exchange,
                       run_general_exchange)
from .topology import GraphSchedule, latency_bound
from .transport import Channel, ChannelModel

# Seed for the single-trajectory critic-convergence run.  The tolerance is
# of the same order as the stochastic-approximation noise at 2e5 steps, so
# the suite pins one seed; errors across seeds are reported by the tests.
CRITIC_RUN_SEED = 0


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    cases: int
    worst: float
    tolerance: float
    seed: int
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.suite}: {self.cases} cases, "
                f"worst error {self.worst:.3g} (tolerance {self.tolerance:.3g}), "
                f"seed {self.seed}")


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------

def random_strong_digraph(n: int, rng: np.random.Generator,
                          time_varying: bool) -> GraphSchedule:
    """Random strongly connected digraph schedule.

    A random Hamiltonian cycle guarantees strong connectivity; extra edges
    are sprinkled on top.  Time-varying schedules keep the cycle and the
    common extras in every slice and toggle further edges per slice, so the
    always-present backbone stays strongly connected.
    """
    perm = rng.permutation(n) + 1
    core = [(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)]
    extras = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
              if i != j and rng.random() < 0.15]
    base = sorted(set(core) | set(extras))
    if not time_varying:
        return GraphSchedule.static(n, base)
    period = int(rng.integers(2, 4))
    slices = []
    for _ in range(period):
        toggled = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                   if i != j and rng.random() < 0.15]
        slices.append(sorted(set(base) | set(toggled)))
    return GraphSchedule(n, slices)


def random_tree(n: int, rng: np.random.Generator) -> GraphSchedule:
    """Uniform random attachment tree with bidirectional edges."""
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.extend([(u, v), (v, u)])
    return GraphSchedule.static(n, edges)


def _random_delta_stream(rng: np.random.Generator, ticks: int,
                         n: int) -> np.ndarray:
    deltas = rng.normal(size=(ticks, n))
    if rng.random() < 0.2:  # exercise exact-zero payload values
        deltas[int(rng.integers(0, ticks))] = 0.0
    return deltas


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def protocol_suite(n_cases: int = 1000, seed: int = 20240501) -> SuiteReport:
    """Exact recovery over random lossy time-varying digraphs.

    Every agent's read-out of tick t - K must be *bitwise* equal to the
    centralized mean, for every tick t >= K, under random latency and drop
    parameters satisfying the delivery guarantee.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    mismatches = 0
    for case in range(n_cases):
        n = int(rng.integers(2, 11))
        g = random_strong_digraph(n, rng, time_varying=bool(rng.random() < 0.5))
        t1 = int(rng.integers(0, 4))
        t2 = int(rng.integers(1, 4))
        drop = float(rng.uniform(0.0, 0.5))
        K = latency_bound(g, t1, t2)
        ticks = K + int(rng.integers(3, 7))
        deltas = _random_delta_stream(rng, ticks, n)
        channel = Channel(ChannelModel(t1=t1, t2=t2, drop_prob=drop,
                                       seed=int(rng.integers(2**31))), g)
        res = run_general_exchange(g, channel, deltas, K)
        for t in range(K, ticks):
            for i in range(n):
                if res.readouts[t, i] != res.reference[t]:
                    mismatches += 1
                    worst = max(worst,
                                abs(res.readouts[t, i] - res.reference[t]))
    passed = mismatches == 0
    return SuiteReport("protocol", passed, n_cases, worst, 0.0, seed,
                       [f"bitwise mismatches: {mismatches}"])


def acyclic_suite(n_cases: int = 200, seed: int = 20240502) -> SuiteReport:
    """Read-out accuracy and the per-level partial-sum invariant on trees."""
    rng = np.random.default_rng(seed)
    worst_read = 0.0
    worst_inv = 0.0
    for case in range(n_cases):
        n = int(rng.integers(2, 13))
        g = random_tree(n, rng)
        K = latency_bound(g, 0, 1)
        ticks = K + int(rng.integers(4, 10))
        deltas = _random_delta_stream(rng, ticks, n)
        res = run_acyclic_exchange(g, deltas, K, collect_snapshots=True)
        gap = np.abs(res.readouts - res.reference[:, None])
        worst_read = max(worst_read, float(gap.max()))
        worst_inv = max(worst_inv,
                        check_neighborhood_invariant(g, deltas, res.snapshots, K))
    worst = max(worst_read, worst_inv)
    return SuiteReport("acyclic", worst <= 1e-9, n_cases, worst, 1e-9, seed,
                       [f"worst read-out gap: {worst_read:.3g}",
                        f"worst invariant gap: {worst_inv:.3g}"])


def equivalence_suite(n_cases: int = 200, seed: int = 20240503) -> SuiteReport:
    """Both protocols on shared streams agree; payload sizes are as claimed."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    payload_ok = True
    for case in range(n_cases):
        n = int(rng.integers(2, 13))
        g = random_tree(n, rng)
        K = latency_bound(g, 0, 1)
        ticks = K + int(rng.integers(4, 10))
        deltas = _random_delta_stream(rng, ticks, n)
        channel = Channel(ChannelModel(t1=0, t2=1, drop_prob=0.0,
                                       delay_law="fixed"), g)
        r1 = run_general_exchange(g, channel, deltas, K)
        r2 = run_acyclic_exchange(g, deltas, K)
        worst = max(worst, float(np.abs(r1.readouts - r2.readouts).max()))
        payload_ok &= (r1.payload_slots == K * n and r2.payload_slots == K)
    passed = worst <= 1e-9 and payload_ok
    return SuiteReport("equivalence", passed, n_cases, worst, 1e-9, seed,
                       [f"payload sizes exact (K*N vs K): {payload_ok}"])


def critic_suite(n_steps: int = 200_000,
                 seed: int = CRITIC_RUN_SEED) -> SuiteReport:
    """TD(0) convergence to the projected fixed point on the two-agent env.

    One on-policy trajectory under the uniform policy with step sizes
    0.5/(t+1)^0.6; the terminal weights must be within 1e-2 of the dense
    linear-solve fixed point, and every agent's projected drift must be
    strictly stable.
    """
    env = micro_env()
    policies = [TabularSoftmaxPolicy(2, 2) for _ in range(env.n_agents)]
    model = enumerate_model(env, policies)
    sol = solve_model(model)
    fixed = np.array([
        critic_fixed_point(model, sol.d_pi, i,
                           feature_matrix(model.spec, i, tabular_features(2)))
        for i in range(1, env.n_agents + 1)])
    critics = [LinearCritic(tabular_features(2)) for _ in range(env.n_agents)]
    weights = run_theory(env, GraphSchedule.line(env.n_agents), policies,
                         critics, None, StepSchedule.polynomial(0.5, 0.6),
                         n_steps, seed, protocol=None).critic_weights
    err = float(np.max(np.abs(np.array(weights) - fixed)))
    eig_max = drift_eigenvalue(model, sol.d_pi)
    passed = err <= 1e-2 and eig_max <= -1e-6
    return SuiteReport("critic", passed, 1, err, 1e-2, seed,
                       [f"||v_T - v*||_inf = {err:.3g} after {n_steps} steps",
                        f"projected-drift max real eigenvalue: {eig_max:.3g}"])


# The piecewise-linear activation is non-differentiable at 0, so a central
# difference is only trustworthy when no hidden pre-activation sits within
# many perturbation-steps of the kink.  Draws that land closer than this are
# redrawn (the comparison is meaningless there, not wrong).
KINK_MARGIN = 1e-3


def _min_hidden_preact(net: MlpStack, x: np.ndarray) -> float:
    """Smallest hidden pre-activation magnitude, read from the forward pass
    the gradient itself uses."""
    _, (_, pre) = net._forward_cached(x)
    return min((float(np.abs(z).min()) for z in pre[:-1]), default=np.inf)


def _fd_case(kind: int, rng: np.random.Generator) -> float:
    """One finite-difference comparison; returns the max relative error."""
    for _ in range(50):
        hidden = tuple(int(rng.integers(2, 6))
                       for _ in range(int(rng.integers(1, 3))))
        slope = float(rng.choice([0.1, 0.3, 0.5]))
        net_rng = np.random.default_rng(int(rng.integers(2**31)))
        if kind == 0:
            critic = MlpStack((2, *hidden, 1), 1, net_rng, slope)
            x = one_hot([[int(rng.integers(0, 2))]], 2)
            if _min_hidden_preact(critic, x) < KINK_MARGIN:
                continue
            analytic = critic.param_grads(x, np.ones((1, 1, 1)))[0, 0]

            def f(flat):
                critic.set_flat(flat[None, :])
                return float(critic.forward(x)[0, 0, 0])
            fd = finite_difference(f, critic.get_flat()[0])
            return max_relative_error(analytic, fd)
        if kind == 1:
            # The episodic learner's own score table, row 2*s + a.
            actor = MlpStack((2, *hidden, 2), 1, net_rng, slope)
            s, a = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            basis = np.eye(2)[None]
            if _min_hidden_preact(actor, basis[:, [s]]) < KINK_MARGIN:
                continue
            probs = softmax(actor.forward(basis))
            analytic = _score_table(actor, basis, probs)[0, 2 * s + a]

            def f(flat):
                actor.set_flat(flat[None, :])
                return float(np.log(softmax(actor.forward(basis))[0, s, a]))
            fd = finite_difference(f, actor.get_flat()[0])
            return max_relative_error(analytic, fd)
        if kind == 2:
            policy = TabularSoftmaxPolicy(3, 3,
                                          logits=net_rng.normal(size=(3, 3)))
            s, a = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            analytic = policy.score(s, a)

            def f(flat):
                policy.set_flat(flat)
                return float(np.log(policy.probs(s)[a]))
            fd = finite_difference(f, policy.get_flat())
            return max_relative_error(analytic, fd)
        # batched stack: summed parameter gradient of a linear functional
        copies = int(rng.integers(1, 4))
        net = MlpStack((3, *hidden, 2), copies, net_rng, slope)
        x = net_rng.normal(size=(copies, 4, 3))
        og = net_rng.normal(size=(copies, 4, 2))
        if _min_hidden_preact(net, x) < KINK_MARGIN:
            continue
        grads = net.param_grads(x, og, per_sample=False)
        worst = 0.0
        base = net.get_flat()
        for c in range(copies):
            def f(flat, c=c):
                full = base.copy()
                full[c] = flat
                net.set_flat(full)
                return float((net.forward(x)[c] * og[c]).sum())
            fd = finite_difference(f, base[c])
            worst = max(worst, max_relative_error(grads[c], fd))
        net.set_flat(base)
        return worst
    raise RuntimeError("could not find a kink-free draw in 50 tries")


def gradient_suite(n_cases: int = 100, seed: int = 20240505) -> SuiteReport:
    """Backpropagation vs central finite differences across model kinds."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(n_cases):
        worst = max(worst, _fd_case(case % 4, rng))
    return SuiteReport("gradient", worst <= 1e-4, n_cases, worst, 1e-4, seed)


def _bias_setting(policies, mc_seed: int, samples: int) -> dict:
    """Monte Carlo update direction vs the exact-gradient decomposition."""
    model = enumerate_model(micro_env(), policies)
    sol = solve_model(model)
    spec = model.spec
    S, N = spec.n_states, spec.n_agents

    local_tabs = np.array([
        critic_fixed_point(model, sol.d_pi, i, feature_matrix(
            spec, i, tabular_features(2)))[spec.bits[i - 1]]
        for i in range(1, N + 1)])

    ex_grad = np.concatenate(exact_policy_gradient(sol, policies))
    ex_dir = np.concatenate(update_direction(sol, local_tabs))
    ex_corr = np.concatenate(correction_terms(sol, local_tabs))

    rng = np.random.default_rng(mc_seed)
    cum_d = np.cumsum(sol.d_pi)
    cum_P = np.cumsum(model.count_transition, axis=1)
    r_team = model.count_rewards.mean(axis=0)
    v_hat = local_tabs.mean(axis=0)
    v_true = sol.v_team

    s = np.searchsorted(cum_d, rng.random(samples), side="right").clip(0, S - 1)
    x = spec.bits[:, s]                                   # (N, samples)
    # Each agent acts 1 when its uniform reaches pi_i(0 | its local state).
    a = (model.local_policy[np.arange(N)[:, None], x, 0]
         <= rng.random((N, samples))).astype(np.int64)
    c = x.sum(axis=0) + a.sum(axis=0)
    sn = (cum_P[c] <= rng.random(samples)[:, None]).sum(axis=1).clip(0, S - 1)

    d_hat = r_team[c] + spec.gamma * v_hat[sn] - v_hat[s]
    d_true = r_team[c] + spec.gamma * v_true[sn] - v_true[s]

    mc_dir, mc_exact, mc_bias = [], [], []
    for i in range(N):
        table = np.array([[policies[i].score(sl, al)
                           for al in range(2)] for sl in range(2)])
        scores = table[x[i], a[i]]
        mc_dir.append((d_hat[:, None] * scores).mean(axis=0))
        mc_exact.append((d_true[:, None] * scores).mean(axis=0))
        mc_bias.append(((d_hat - d_true)[:, None] * scores).mean(axis=0))
    return {
        "decomposition_gap": float(np.max(np.abs(ex_dir - ex_grad - ex_corr))),
        "full_state_err": max_relative_error(np.concatenate(mc_exact), ex_grad),
        "paired_bias_err": max_relative_error(np.concatenate(mc_bias), ex_corr),
        "unpaired_bias_err": max_relative_error(
            np.concatenate(mc_dir) - ex_grad, ex_corr),
    }


def bias_suite(samples: int = 10**6, seed: int = 20240506) -> SuiteReport:
    """Update-direction bias decomposition, Monte Carlo vs exhaustive.

    With full-state critics fixed at their exact values the sampled update
    direction must match the exact policy gradient within 2%; with
    local-state critics the sampled bias (same draws, critic minus exact
    TD errors) must match the exhaustively computed correction terms
    within 5%.
    """
    settings = [("uniform", [TabularSoftmaxPolicy(2, 2) for _ in range(2)])]
    logit_rng = np.random.default_rng(42)
    settings.append(("pinned-random",
                     [TabularSoftmaxPolicy(2, 2,
                                           logits=logit_rng.normal(size=(2, 2)))
                      for _ in range(2)]))
    lines = []
    worst_full = 0.0
    worst_paired = 0.0
    worst_decomp = 0.0
    for label, policies in settings:
        out = _bias_setting(policies, seed, samples)
        worst_full = max(worst_full, out["full_state_err"])
        worst_paired = max(worst_paired, out["paired_bias_err"])
        worst_decomp = max(worst_decomp, out["decomposition_gap"])
        lines.append(
            f"{label}: full-state dir err {out['full_state_err']:.4f}, "
            f"paired bias err {out['paired_bias_err']:.4f}, "
            f"unpaired {out['unpaired_bias_err']:.4f}, "
            f"identity gap {out['decomposition_gap']:.2g}")
    passed = (worst_full <= 0.02 and worst_paired <= 0.05
              and worst_decomp <= 1e-12)
    return SuiteReport("bias", passed, len(settings),
                       max(worst_full, worst_paired), 0.05, seed, lines)


ALL_SUITES = {
    "protocol": protocol_suite,
    "acyclic": acyclic_suite,
    "equivalence": equivalence_suite,
    "critic": critic_suite,
    "gradient": gradient_suite,
    "bias": bias_suite,
}


def run_suite(name: str, seed: int | None = None) -> SuiteReport:
    if name not in ALL_SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(ALL_SUITES)}")
    fn = ALL_SUITES[name]
    return fn() if seed is None else fn(seed=seed)
