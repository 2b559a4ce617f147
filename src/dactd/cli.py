"""Command-line front end.

Subcommands:

* ``run``         — execute every (algorithm, seed) pair of a config, write
                    one metrics CSV per run plus a summary CSV, and rank
                    the algorithms by their mean final-100 return.
* ``verify``      — randomized property suites with exact oracles.
* ``oracle``      — dump exact quantities (stationary law, values, gradient)
                    for an enumerable config.

Exit codes: 0 success, 1 validation failure, 2 runtime protocol violation,
3 property-suite failure.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .config import load_config
from .envs import CoupledEnv, enumerate_model
from .errors import (CapacityError, ConfigurationError, DactdError,
                     IncompleteAggregationError, NumericError,
                     ProtocolCorruptionError, TransportError)
from .funcapprox import TabularSoftmaxPolicy
from .learner import RunResult, run_experiment
from .oracle import drift_eigenvalue, exact_policy_gradient, solve_model
from .verify import ALL_SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_SUITE = 3

_RUNTIME_ERRORS = (ProtocolCorruptionError, IncompleteAggregationError,
                   TransportError, NumericError)
_VALIDATION_ERRORS = (CapacityError, ConfigurationError, ValueError)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; identical across reruns."""
    return repr(float(x))


def _write_run_csv(path: Path, result: RunResult) -> None:
    n = result.agent_returns.shape[1]
    header = (["episode", "team_return"]
              + [f"return_{i}" for i in range(1, n + 1)]
              + ["protocol_complete"])
    lines = [",".join(header)]
    for e in range(result.team_returns.shape[0]):
        row = [str(e), _fmt(result.team_returns[e])]
        row += [_fmt(result.agent_returns[e, i]) for i in range(n)]
        row.append(str(int(result.updates_applied[e])))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _make_out_dir(path) -> Path:
    """Create the output directory; a path that cannot be one is a
    configuration error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output directory {str(out)!r} cannot be "
                                 f"created: {exc.strerror or exc}") from exc
    return out


def _final_mean(result: RunResult, window: int = 100) -> float:
    w = min(window, result.team_returns.shape[0])
    return float(result.team_returns[-w:].mean())


def cmd_run(ns: argparse.Namespace) -> int:
    if ns.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {ns.jobs}")
    overrides = {}
    if ns.seed is not None:
        overrides["seeds"] = (ns.seed,)
    if ns.out is not None:
        overrides["out_dir"] = ns.out
    cfg = load_config(ns.config, **overrides)
    if ns.dry_run:
        print(yaml.safe_dump(cfg.resolved(), sort_keys=False).rstrip())
        return EXIT_OK

    out_dir = _make_out_dir(cfg.out_dir)
    grid = cfg.expand_runs()
    jobs = min(ns.jobs, len(grid))
    if jobs == 1:
        results = run_experiment(cfg, grid)
    else:
        # Each worker trains one contiguous chunk of the grid as one loop.
        cuts = [len(grid) * j // jobs for j in range(jobs + 1)]
        chunks = [grid[a:b] for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = [res for part in pool.map(run_experiment,
                                                [cfg] * jobs, chunks)
                       for res in part]

    summary = ["algorithm,seed,final100_mean_team_return"]
    by_alg: dict[str, list[float]] = {}
    for (alg, seed), res in zip(grid, results):
        run_path = out_dir / f"{alg.label}_seed{seed}.csv"
        _write_run_csv(run_path, res)
        by_alg.setdefault(alg.label, []).append(_final_mean(res))
        summary.append(f"{alg.label},{seed},{_fmt(_final_mean(res))}")
        print(f"{alg.label} seed={seed}: K={res.K} "
              f"final100={_final_mean(res):.3f} -> {run_path}")
    (out_dir / "summary.csv").write_text("\n".join(summary) + "\n")
    print(f"summary -> {out_dir / 'summary.csv'}")
    print("\nmean final-100-episode team return over seeds:")
    for label, vals in sorted(by_alg.items(), key=lambda kv: -np.mean(kv[1])):
        print(f"  {label:16s} {np.mean(vals):7.3f}  "
              f"(per-seed: {', '.join(f'{v:.2f}' for v in vals)})")
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    names = list(ALL_SUITES) if ns.suite == "all" else [ns.suite]
    failed = False
    for name in names:
        report = run_suite(name, seed=ns.seed)
        print(report.summary())
        for line in report.lines:
            print(f"  {line}")
        failed |= not report.passed
    return EXIT_SUITE if failed else EXIT_OK


def cmd_oracle(ns: argparse.Namespace) -> int:
    if ns.config is not None:
        if ns.agents is not None or ns.gamma is not None:
            raise ConfigurationError("--agents and --gamma cannot be combined "
                                     "with --config, which sets both")
        cfg = load_config(ns.config)
        n_agents, gamma = cfg.n_agents, cfg.gamma
    else:
        n_agents = 2 if ns.agents is None else ns.agents
        gamma = 0.9 if ns.gamma is None else ns.gamma
    env = CoupledEnv(n_agents=n_agents, gamma=gamma)
    out = None if ns.out is None else _make_out_dir(ns.out)
    if ns.policy_seed is None:
        policies = [TabularSoftmaxPolicy(2, 2) for _ in range(n_agents)]
    else:
        rng = np.random.default_rng(ns.policy_seed)
        policies = [TabularSoftmaxPolicy(2, 2, logits=rng.normal(size=(2, 2)))
                    for _ in range(n_agents)]
    model = enumerate_model(env, policies)
    sol = solve_model(model)
    grads = exact_policy_gradient(sol, policies)

    S = model.spec.n_states
    rows = ["state,d_pi," + ",".join(f"v_{i}" for i in range(1, n_agents + 1))
            + ",v_team"]
    for s in range(S):
        vals = ",".join(_fmt(sol.v_agents[i, s]) for i in range(n_agents))
        rows.append(f"{model.spec.bits[:, s]},{_fmt(sol.d_pi[s])},{vals},"
                    f"{_fmt(sol.v_team[s])}")
    print(f"states: {S}, joint actions: {S}, gamma: {gamma}")
    print(f"projected-drift max eigenvalue real part: "
          f"{drift_eigenvalue(model, sol.d_pi):.6g}")
    print("\n".join(rows))
    for i, g in enumerate(grads, start=1):
        print(f"grad agent {i}: " + " ".join(_fmt(v) for v in g))
    if out is not None:
        (out / "oracle.csv").write_text("\n".join(rows) + "\n")
        print(f"oracle table -> {out / 'oracle.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dactd",
        description="Decentralized actor-critic training over unreliable "
                    "communication graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config's run grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="run only this seed instead of the config list")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--dry-run", action="store_true",
                       help="validate and print the resolved config")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="number of concurrent worker processes")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run randomized property suites")
    p_ver.add_argument("--suite", default="all",
                       choices=["all", *ALL_SUITES])
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("oracle", help="dump exact model quantities")
    p_or.add_argument("--config", default=None)
    p_or.add_argument("--agents", type=int, default=None,
                      help="number of agents (default 2; not with --config)")
    p_or.add_argument("--gamma", type=float, default=None,
                      help="discount (default 0.9; not with --config)")
    p_or.add_argument("--policy-seed", type=int, default=None,
                      help="random policy logits (default: uniform policies)")
    p_or.add_argument("--out", default=None)
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except _RUNTIME_ERRORS as exc:
        print(f"runtime protocol violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except _VALIDATION_ERRORS as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DactdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
