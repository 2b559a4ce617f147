"""End-to-end acceptance gate.

Each test prints exactly one ``criterion N [PASS|FAIL]`` line (visible even
under pytest's capture) and then asserts, so a full run doubles as a
checklist.  The expensive experiment grid behind criteria 7 is computed once
per session.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from dactd.config import AlgorithmChoice, ExperimentConfig
from dactd.learner import run_experiment
from dactd.transport import ChannelModel
from dactd.verify import run_suite

SEEDS = (0, 1, 2, 3, 4)


def _report(capsys, num: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\ncriterion {num} [{status}] {detail}")


def _timed_suite(name: str):
    start = time.perf_counter()
    report = run_suite(name)
    return report, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1-3: aggregation protocols
# ---------------------------------------------------------------------------

def test_criterion_1_delayed_team_averages_are_bitwise_exact(capsys):
    report, elapsed = _timed_suite("protocol")
    ok = report.passed and elapsed < 30.0
    _report(capsys, 1, ok,
            f"general protocol bitwise-exact on {report.cases} random lossy "
            f"networks ({elapsed:.1f}s < 30s)")
    assert report.passed, report.lines
    assert elapsed < 30.0


def test_criterion_2_tree_readout_and_partial_sum_invariant(capsys):
    report, elapsed = _timed_suite("acyclic")
    ok = report.passed and elapsed < 30.0
    _report(capsys, 2, ok,
            f"tree protocol within {report.tolerance:g} on {report.cases} "
            f"random trees, worst {report.worst:.2e} ({elapsed:.1f}s < 30s)")
    assert report.passed, report.lines
    assert elapsed < 30.0


def test_criterion_3_protocol_equivalence_and_payload_sizes(capsys):
    report, elapsed = _timed_suite("equivalence")
    ok = report.passed
    _report(capsys, 3, ok,
            f"general and tree protocols agree within {report.tolerance:g} "
            f"with per-edge payloads K*N vs K, worst {report.worst:.2e} "
            f"({elapsed:.1f}s)")
    assert report.passed, report.lines


# ---------------------------------------------------------------------------
# 4-6: learning-theory oracles
# ---------------------------------------------------------------------------

def test_criterion_4_critic_converges_to_the_projected_fixed_point(capsys):
    report, elapsed = _timed_suite("critic")
    ok = report.passed and elapsed < 60.0
    _report(capsys, 4, ok,
            f"online critic within {report.tolerance:g} of the exact fixed "
            f"point (error {report.worst:.2e}) and strictly stable drift "
            f"matrix ({elapsed:.1f}s < 60s)")
    assert report.passed, report.lines
    assert elapsed < 60.0


def test_criterion_5_analytic_gradients_match_finite_differences(capsys):
    report, elapsed = _timed_suite("gradient")
    ok = report.passed and elapsed < 10.0
    _report(capsys, 5, ok,
            f"{report.cases} random gradient checks, max relative error "
            f"{report.worst:.2e} <= {report.tolerance:g} ({elapsed:.1f}s < 10s)")
    assert report.passed, report.lines
    assert elapsed < 10.0


def test_criterion_6_update_direction_bias_decomposition(capsys):
    report, elapsed = _timed_suite("bias")
    ok = report.passed and elapsed < 120.0
    _report(capsys, 6, ok,
            f"sampled update direction matches the exact gradient (full "
            f"critics) and the computed correction terms (local critics) "
            f"({elapsed:.1f}s < 120s)")
    assert report.passed, report.lines
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 7: the reference experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment_grid():
    cfg = ExperimentConfig(
        algorithms=(AlgorithmChoice("dac_td"), AlgorithmChoice("khop_sac", 4),
                    AlgorithmChoice("khop_sac", 1),
                    AlgorithmChoice("independent_ac")),
        seeds=SEEDS)
    start = time.perf_counter()
    grid = cfg.expand_runs()
    results = {alg.label: [] for alg in cfg.algorithms}
    for (alg, _), res in zip(grid, run_experiment(cfg, grid)):
        results[alg.label].append(res)
    return results, time.perf_counter() - start


def _final_mean(runs, window=100):
    return float(np.mean([r.team_returns[-window:].mean() for r in runs]))


def test_criterion_7_cooperation_beats_local_baselines(capsys,
                                                       experiment_grid):
    results, elapsed = experiment_grid
    dac = _final_mean(results["dac_td"])
    sac4 = _final_mean(results["khop_sac_k4"])
    sac1 = _final_mean(results["khop_sac_k1"])
    ind = _final_mean(results["independent_ac"])
    pooled = np.concatenate([r.team_returns
                             for runs in results.values() for r in runs])
    spread = float(pooled.max() - pooled.min())

    beats_ind = dac > ind + 0.10 * spread
    beats_sac1 = dac > sac1 + 0.10 * spread
    matches_sac4 = abs(dac - sac4) <= 0.05 * spread
    in_time = elapsed < 600.0
    ok = beats_ind and beats_sac1 and matches_sac4 and in_time
    _report(capsys, 7, ok,
            f"final-100 means over {len(SEEDS)} seeds: dac_td {dac:.2f}, "
            f"4-hop {sac4:.2f}, 1-hop {sac1:.2f}, independent {ind:.2f}; "
            f"return spread {spread:.2f} ({elapsed:.0f}s < 600s)")
    assert beats_ind, (dac, ind, spread)
    assert beats_sac1, (dac, sac1, spread)
    assert matches_sac4, (dac, sac4, spread)
    assert in_time


def test_criterion_7_full_window_baseline_is_bitwise_identical(
        capsys, experiment_grid):
    results, _ = experiment_grid
    same = all(
        np.array_equal(d.team_returns, s.team_returns)
        and np.array_equal(d.actor_params, s.actor_params)
        and np.array_equal(d.critic_params, s.critic_params)
        for d, s in zip(results["dac_td"], results["khop_sac_k4"]))
    _report(capsys, 7, same,
            "supplementary: dac_td and 4-hop neighborhood runs are bitwise "
            "identical on every seed")
    assert same


# ---------------------------------------------------------------------------
# 8: robustness to packet loss
# ---------------------------------------------------------------------------

def test_criterion_8_packet_loss_leaves_trajectories_unchanged(capsys):
    clean_cfg = ExperimentConfig(
        channel=ChannelModel(t1=1, t2=1, drop_prob=0.0, seed=17), seeds=SEEDS)
    lossy_cfg = replace(clean_cfg,
                        channel=replace(clean_cfg.channel, drop_prob=0.3))

    grid = clean_cfg.expand_runs()
    identical = True
    for clean, lossy in zip(run_experiment(clean_cfg, grid),
                            run_experiment(lossy_cfg, grid)):
        assert clean.K == lossy.K == 8
        identical &= (
            np.array_equal(clean.team_returns, lossy.team_returns)
            and np.array_equal(clean.agent_returns, lossy.agent_returns)
            and np.array_equal(clean.actor_params, lossy.actor_params)
            and np.array_equal(clean.critic_params, lossy.critic_params)
            and np.array_equal(clean.updates_applied, lossy.updates_applied))
    _report(capsys, 8, identical,
            f"drop_prob 0.3 run is bitwise identical to the lossless run on "
            f"{len(SEEDS)} seeds (forced-delivery window preserved, K=8)")
    assert identical
