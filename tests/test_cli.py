"""Config parsing and the command-line front end, including exit codes."""
import textwrap
from pathlib import Path

import pytest

from dactd import cli
from dactd.config import AlgorithmChoice, load_config
from dactd.errors import ConfigurationError, ProtocolCorruptionError
from dactd.verify import SuiteReport

SMOKE = """\
name: smoke
env: {kind: coupled, n_agents: 2, gamma: 0.9}
graph: {kind: line}
protocol: alg1
algorithms:
  - dac_td
  - independent_ac
actor: {step: 0.01, hidden: [4]}
critic: {step: 0.1, hidden: [3], epochs: 5, target_refresh: 2}
episodes: 6
steps: 10
seeds: [0]
out_dir: OUTDIR
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "smoke.yaml"
    path.write_text(SMOKE.replace("OUTDIR", str(tmp_path / "results")))
    return path


def _write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_config_round_trip(config_file):
    cfg = load_config(config_file)
    assert cfg.name == "smoke"
    assert cfg.n_agents == 2
    assert cfg.protocol == "general"          # alias resolved
    assert [a.label for a in cfg.algorithms] == ["dac_td", "independent_ac"]
    assert cfg.actor_hidden == (4,)
    assert cfg.critic_epochs == 5
    assert cfg.seeds == (0,)
    assert cfg.expand_runs() == [(AlgorithmChoice("dac_td"), 0),
                                 (AlgorithmChoice("independent_ac"), 0)]


def test_algorithm_entries_accept_strings_and_mappings(tmp_path):
    cfg = load_config(_write(tmp_path, """\
        env: {n_agents: 3}
        algorithms:
          - dac_td
          - {kind: khop_sac, k: 1}
        """))
    assert [a.label for a in cfg.algorithms] == ["dac_td", "khop_sac_k1"]


def test_tree_only_protocol_alias_requires_a_tree(tmp_path):
    path = _write(tmp_path, """\
        env: {n_agents: 4}
        graph: {kind: ring}
        protocol: alg2
        """)
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_unknown_keys_are_rejected(tmp_path):
    cases = [
        "episodes: 5\nwalrus: 1\n",
        "env: {n_agents: 2, speed: 3}\n",
        "channel: {t1: 0, jitter: 2}\n",
        "actor: {step: 0.1, momentum: 0.9}\n",
        "critic: {step: 0.1, l2: 0.01}\n",
        "graph: {kind: line, weighted: true}\n",
    ]
    for i, body in enumerate(cases):
        with pytest.raises(ConfigurationError):
            load_config(_write(tmp_path, body, name=f"bad{i}.yaml"))


def test_duplicate_seeds_are_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "seeds: [3, 3]\n"))


def test_neighborhood_radius_cannot_exceed_the_diameter(tmp_path):
    path = _write(tmp_path, """\
        env: {n_agents: 2}
        algorithms: [{kind: khop_sac, k: 5}]
        """)
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "nope.yaml")
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "env: [unclosed\n"))
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "- just\n- a\n- list\n"))


def test_custom_graph_needs_edges(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "graph: {kind: custom}\n"))


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def test_dry_run_prints_the_resolved_config(config_file, capsys):
    assert cli.main(["run", "--config", str(config_file), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "protocol: general" in out
    assert "n_agents: 2" in out
    assert "kind: dac_td" in out


def test_run_writes_metrics_and_summary(config_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert cli.main(["run", "--config", str(config_file)]) == 0
    run_csv = out_dir / "dac_td_seed0.csv"
    lines = run_csv.read_text().splitlines()
    assert lines[0] == "episode,team_return,return_1,return_2,protocol_complete"
    assert len(lines) == 1 + 6
    flags = [row.split(",")[-1] for row in lines[1:]]
    assert flags == ["0"] + ["1"] * 5          # one warm-up episode (K=1)
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[1]) == pytest.approx(
            (float(cells[2]) + float(cells[3])) / 2)
        assert float(cells[3]) == 0.0          # only the first agent is paid

    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "algorithm,seed,final100_mean_team_return"
    assert summary[1].startswith("dac_td,0,")
    assert summary[2].startswith("independent_ac,0,")
    out = capsys.readouterr().out
    assert "summary" in out
    # The run ends with the algorithms ranked by mean final-100 return.
    finals = {row.split(",")[0]: float(row.split(",")[2]) for row in summary[1:]}
    ranking = out.split("mean final-100-episode team return over seeds:\n")[1]
    ranked = [line.split()[0] for line in ranking.splitlines()]
    assert ranked == sorted(finals, key=lambda label: -finals[label])
    for line in ranking.splitlines():
        label, mean = line.split()[:2]
        assert mean == f"{finals[label]:.3f}"


def test_reruns_are_byte_identical(config_file, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(config_file),
                     "--out", str(a_dir)]) == 0
    assert cli.main(["run", "--config", str(config_file),
                     "--out", str(b_dir)]) == 0
    for name in ("dac_td_seed0.csv", "independent_ac_seed0.csv",
                 "summary.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_parallel_execution_matches_serial(config_file, tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["run", "--config", str(config_file),
                     "--out", str(serial)]) == 0
    assert cli.main(["run", "--config", str(config_file),
                     "--out", str(parallel), "--jobs", "2"]) == 0
    names = sorted(p.name for p in serial.glob("*.csv"))
    assert names == sorted(p.name for p in parallel.glob("*.csv"))
    assert "summary.csv" in names and len(names) == 3
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_seed_override_runs_a_single_seed(config_file, tmp_path):
    out = tmp_path / "seeded"
    assert cli.main(["run", "--config", str(config_file), "--seed", "7",
                     "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["dac_td_seed7.csv", "independent_ac_seed7.csv",
                     "summary.csv"]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_validation_failures_exit_1(config_file, tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "absent.yaml")]) == 1
    assert "invalid configuration" in capsys.readouterr().err

    bad_channel = _write(tmp_path, "channel: {t2: 0}\n")
    assert cli.main(["run", "--config", str(bad_channel), "--dry-run"]) == 1

    bad_radius = _write(tmp_path, """\
        env: {n_agents: 2}
        algorithms: [{kind: khop_sac, k: 5}]
        """, name="radius.yaml")
    assert cli.main(["run", "--config", str(bad_radius), "--dry-run"]) == 1

    stray_radius = _write(tmp_path, """\
        algorithms: [{kind: independent_ac, k: 2}, {kind: dac_td, k: 3}]
        """, name="stray.yaml")
    assert cli.main(["run", "--config", str(stray_radius), "--dry-run"]) == 1
    assert "only khop_sac takes k" in capsys.readouterr().err

    # Values the model cannot honour, integers that would be truncated, and
    # malformed values.
    for i, text in enumerate(["episodes: 0\n", "env: {gamma: 1.5}\n",
                              "theta_box: -1.0\n", "actor: {step: .nan}\n",
                              "critic: {step: -0.1}\n",
                              "actor: {hidden: [0]}\n", "episodes: 2.9\n",
                              "seeds: [1.7]\n", "seeds: [true]\n",
                              "critic: {hidden: [5.5]}\n",
                              "channel: {t2: 1.5}\n",
                              "channel: {drop_prob: null}\n",
                              "graph: {kind: custom, edges: [1]}\n"]):
        path = _write(tmp_path, text, name=f"bad{i}.yaml")
        assert cli.main(["run", "--config", str(path), "--dry-run"]) == 1, text
        assert "invalid configuration" in capsys.readouterr().err

    for jobs in ("0", "-4"):
        assert cli.main(["run", "--config", str(config_file), "--dry-run",
                         "--jobs", jobs]) == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err


def test_tree_protocol_on_a_lossy_channel_exits_1(tmp_path, capsys):
    # A baseline listed before dac_td must not train before the rejection.
    out = tmp_path / "results"
    for algorithms in ("[dac_td]", "[independent_ac, dac_td]"):
        path = _write(tmp_path, f"""\
            env: {{n_agents: 3}}
            channel: {{t1: 2, t2: 3, drop_prob: 0.4}}
            protocol: acyclic
            algorithms: {algorithms}
            episodes: 2
            steps: 5
            out_dir: {out}
            """)
        assert cli.main(["run", "--config", str(path), "--dry-run"]) == 1
        assert "lossless unit-delay channel" in capsys.readouterr().err
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "lossless unit-delay channel" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


def test_protocol_violations_exit_2(config_file, monkeypatch, capsys):
    def boom(cfg, algorithm, seed):
        raise ProtocolCorruptionError("conflicting packet contents")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", str(config_file)]) == 2
    assert "runtime protocol violation" in capsys.readouterr().err


def test_failing_suite_exits_3(monkeypatch, capsys):
    report = SuiteReport(suite="protocol", passed=False, cases=3, worst=1.0,
                         tolerance=0.0, seed=0, lines=["case 0: mismatch"])
    monkeypatch.setattr(cli, "run_suite", lambda name, seed=None: report)
    assert cli.main(["verify", "--suite", "protocol"]) == 3
    out = capsys.readouterr().out
    assert "case 0: mismatch" in out


# ---------------------------------------------------------------------------
# verify / oracle / grad-check subcommands
# ---------------------------------------------------------------------------

def test_verify_gradient_suite_passes(capsys):
    assert cli.main(["verify", "--suite", "gradient"]) == 0
    assert "gradient" in capsys.readouterr().out


def test_oracle_dump(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert cli.main(["oracle", "--agents", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "states: 4, joint actions: 4, gamma: 0.9" in text
    assert "drift-matrix max eigenvalue real part:" in text
    assert "state,d_pi,v_1,v_2,v_team" in text
    assert "grad agent 1:" in text
    table = (out / "oracle.csv").read_text().splitlines()
    assert table[0] == "state,d_pi,v_1,v_2,v_team"
    assert len(table) == 1 + 4


def test_oracle_reads_the_config_for_sizes(config_file, capsys):
    assert cli.main(["oracle", "--config", str(config_file)]) == 0
    assert "states: 4" in capsys.readouterr().out


def test_grad_check_small_sample(capsys):
    assert cli.main(["grad-check", "--draws", "5"]) == 0
    assert "gradient" in capsys.readouterr().out
