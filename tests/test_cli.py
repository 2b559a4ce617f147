"""Config parsing and the command-line front end, including exit codes."""
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dactd import cli
from dactd.config import AlgorithmChoice, ExperimentConfig, load_config
from dactd.errors import ConfigurationError, ProtocolCorruptionError
from dactd.transport import ChannelModel
from dactd.verify import SuiteReport

LINE5 = Path(__file__).resolve().parents[1] / "configs" / "line5.yaml"

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
        "channel: {seed: 5}\n",      # each run spawns the channel's seed
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


# What `run --dry-run` prints for configs/line5.yaml and for SMOKE.
LINE5_RESOLVED = """\
name: line5
env:
  kind: coupled
  n_agents: 5
  gamma: 0.9
graph:
  kind: line
  edges: []
channel:
  t1: 0
  t2: 1
  drop_prob: 0.0
  delay_law: fixed
protocol: general
algorithms:
- kind: dac_td
  k: 0
- kind: khop_sac
  k: 4
- kind: khop_sac
  k: 1
- kind: independent_ac
  k: 0
actor:
  step: 0.01
  hidden:
  - 10
  - 10
critic:
  step: 0.1
  hidden:
  - 5
  - 5
  epochs: 25
  target_refresh: 5
leaky_slope: 0.3
episodes: 1000
steps: 100
theta_box: 10.0
seeds:
- 0
- 1
- 2
- 3
- 4
out_dir: results/line5
"""
SMOKE_RESOLVED = """\
name: smoke
env:
  kind: coupled
  n_agents: 2
  gamma: 0.9
graph:
  kind: line
  edges: []
channel:
  t1: 0
  t2: 1
  drop_prob: 0.0
  delay_law: uniform
protocol: general
algorithms:
- kind: dac_td
  k: 0
- kind: independent_ac
  k: 0
actor:
  step: 0.01
  hidden:
  - 4
critic:
  step: 0.1
  hidden:
  - 3
  epochs: 5
  target_refresh: 2
leaky_slope: 0.3
episodes: 6
steps: 10
theta_box: 10.0
seeds:
- 0
out_dir: OUTDIR
"""


def test_dry_run_output_is_pinned(tmp_path, capsys):
    smoke = _write(tmp_path, SMOKE)
    for path, expected in ((LINE5, LINE5_RESOLVED), (smoke, SMOKE_RESOLVED)):
        assert cli.main(["run", "--config", str(path), "--dry-run"]) == 0
        assert capsys.readouterr().out == expected


_NAMES = st.text(alphabet="abz019 -_./:#'\"", max_size=8)


@st.composite
def _configs(draw):
    """Valid configs over every graph kind, protocol and channel setting."""
    n = draw(st.integers(2, 5))
    protocol = draw(st.sampled_from(["general", "acyclic", "centralized"]))
    if protocol == "acyclic":    # a tree and a lossless unit-delay channel
        kind = draw(st.sampled_from(["line", "star"]))
        channel = ChannelModel(t1=draw(st.integers(0, 3)), t2=1,
                               delay_law=draw(st.sampled_from(["uniform",
                                                               "fixed"])))
    else:
        kind = draw(st.sampled_from(["line", "ring", "star", "complete",
                                     "custom"]))
        channel = ChannelModel(
            t1=draw(st.integers(0, 3)), t2=draw(st.integers(1, 3)),
            drop_prob=draw(st.floats(0.0, 0.99)),
            delay_law=draw(st.sampled_from(["uniform", "fixed"])))
    edges = ()
    if kind == "custom":         # a directed ring and some chords
        chords = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                               .filter(lambda e: e[0] != e[1]), max_size=4))
        edges = tuple((i, i % n + 1) for i in range(1, n + 1)) + tuple(chords)
    algorithms = draw(st.lists(st.sampled_from([
        AlgorithmChoice("dac_td"), AlgorithmChoice("independent_ac"),
        AlgorithmChoice("khop_sac", 0), AlgorithmChoice("khop_sac", 1)]),
        min_size=1, max_size=4))
    widths = st.lists(st.integers(1, 20), min_size=1, max_size=3)
    return ExperimentConfig(
        name=draw(_NAMES), n_agents=n, gamma=draw(st.floats(0.01, 0.99)),
        graph_kind=kind, graph_edges=edges, channel=channel, protocol=protocol,
        algorithms=tuple(algorithms),
        actor_step=draw(st.floats(1e-6, 10.0)),
        critic_step=draw(st.floats(1e-6, 10.0)),
        actor_hidden=tuple(draw(widths)), critic_hidden=tuple(draw(widths)),
        leaky_slope=draw(st.floats(-1.0, 1.0)),
        critic_epochs=draw(st.integers(1, 50)),
        target_refresh=draw(st.integers(1, 10)),
        episodes=draw(st.integers(1, 5000)), steps=draw(st.integers(1, 500)),
        theta_box=draw(st.floats(1e-3, 100.0)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**63), min_size=1,
                                  max_size=4, unique=True))),
        out_dir=draw(_NAMES))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_configs(), alias=st.booleans())
def test_dry_run_output_loads_back_to_the_same_config(tmp_path, cfg, alias):
    data = cfg.resolved()
    if alias:
        data["protocol"] = {"general": "alg1", "acyclic": "alg2"}.get(
            data["protocol"], data["protocol"])
    path = tmp_path / "resolved.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert load_config(path) == cfg


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def test_overrides_are_validated_with_the_config_once(config_file, tmp_path,
                                                      monkeypatch, capsys):
    calls = []
    validate = ExperimentConfig.__post_init__

    def counting(cfg):
        calls.append(cfg)
        validate(cfg)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counting)
    out_dir = tmp_path / "D"
    assert cli.main(["run", "--config", str(config_file), "--seed", "3",
                     "--out", str(out_dir), "--dry-run"]) == 0
    assert len(calls) == 1
    assert calls[0].seeds == (3,) and calls[0].out_dir == str(out_dir)
    out = capsys.readouterr().out
    assert "seeds:\n- 3\n" in out and f"out_dir: {out_dir}" in out


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


def test_uneven_job_chunks_match_serial(tmp_path):
    # Four cells in three contiguous chunks, so the chunks differ in size.
    path = tmp_path / "four.yaml"
    path.write_text(SMOKE.replace("seeds: [0]", "seeds: [0, 1]")
                    .replace("OUTDIR", str(tmp_path / "results")))
    outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "3")}
    for jobs, out in outs.items():
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--jobs", jobs]) == 0
    names = sorted(p.name for p in outs["1"].glob("*.csv"))
    assert names == sorted(p.name for p in outs["3"].glob("*.csv"))
    assert len(names) == 5
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["3"] / name).read_bytes()


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

    # Edges on a named graph kind would be ignored.
    ring_edges = _write(tmp_path, "graph: {kind: ring, edges: [[1, 2]]}\n",
                        name="ring_edges.yaml")
    assert cli.main(["run", "--config", str(ring_edges), "--dry-run"]) == 1
    assert "only a custom graph takes edges" in capsys.readouterr().err

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
                              "graph: {kind: custom, edges: [1]}\n",
                              # Bools and strings are not numbers, and null
                              # is not a name or a path.
                              "actor: {step: true}\n", "theta_box: yes\n",
                              "leaky_slope: true\n",
                              "env: {gamma: '0.5'}\n", "episodes: '7'\n",
                              "actor: {hidden: '55'}\n",
                              "env: {n_agents: 2}\n"
                              "graph: {kind: custom, edges: ['12', '21']}\n",
                              "out_dir: null\n", "out_dir:\n",
                              "name: null\n"]):
        path = _write(tmp_path, text, name=f"bad{i}.yaml")
        assert cli.main(["run", "--config", str(path), "--dry-run"]) == 1, text
        assert "invalid configuration" in capsys.readouterr().err

    for jobs in ("0", "-4"):
        assert cli.main(["run", "--config", str(config_file), "--dry-run",
                         "--jobs", jobs]) == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err


def test_negative_seeds_exit_1_before_any_output(config_file, tmp_path,
                                                 capsys):
    out = tmp_path / "results"
    negative = _write(tmp_path, f"seeds: [-1]\nout_dir: {out}\n")
    for argv in (["--config", str(negative)],
                 ["--config", str(config_file), "--seed", "-1"]):
        for dry_run in ([], ["--dry-run"]):
            assert cli.main(["run", *argv, *dry_run]) == 1
            assert "seeds must be >= 0" in capsys.readouterr().err
            assert not out.exists()


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


# A config is valid when its protocol's driver and every grid cell's driver
# can be built, whichever algorithms the grid lists.
FOREST = "graph: {kind: custom, edges: [[1, 2], [2, 1], [3, 4], [4, 3]]}"
UNBUILDABLE = {
    "acyclic on a ring": "graph: {kind: ring}\nprotocol: acyclic\n"
                         "algorithms: [independent_ac]",
    "acyclic on a lossy channel": "channel: {t1: 2, t2: 3, drop_prob: 0.4}\n"
                                  "protocol: acyclic\n"
                                  "algorithms: [independent_ac]",
    "disconnected custom graph": f"{FOREST}\nalgorithms: [independent_ac]",
    "acyclic on a disconnected forest": f"{FOREST}\nprotocol: acyclic\n"
                                        "algorithms: [independent_ac]",
    "acyclic on a disconnected forest, dac_td": f"{FOREST}\nprotocol: acyclic\n"
                                                "algorithms: [dac_td]",
    "acyclic on a one-way path": "graph: {kind: custom, edges: [[1, 2], "
                                 "[2, 3], [3, 4]]}\nprotocol: acyclic\n"
                                 "algorithms: [dac_td]",
    "khop on a disconnected graph": f"{FOREST}\n"
                                    "algorithms: [{kind: khop_sac, k: 1}]",
    "unknown protocol": "protocol: gossip",
}


@pytest.mark.parametrize("name", UNBUILDABLE)
def test_configs_whose_drivers_cannot_be_built_exit_1(name, tmp_path, capsys):
    path = _write(tmp_path, f"env: {{n_agents: 4}}\n{UNBUILDABLE[name]}\n")
    with pytest.raises(ConfigurationError):
        load_config(path)
    assert cli.main(["run", "--config", str(path), "--dry-run"]) == 1
    assert "invalid configuration" in capsys.readouterr().err


def test_protocol_violations_exit_2(config_file, monkeypatch, capsys):
    def boom(cfg, runs):
        raise ProtocolCorruptionError("conflicting packet contents")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", str(config_file)]) == 2
    assert "runtime protocol violation" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_exits_2_naming_its_cell(tmp_path, capsys):
    path = tmp_path / "runaway.yaml"
    path.write_text(SMOKE.replace("step: 0.1,", "step: 1.0e+8,")
                    .replace("OUTDIR", str(tmp_path / "results")))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert ("runtime protocol violation: critic weights of dac_td seed 0 "
            "diverged to non-finite values at episode 0"
            in capsys.readouterr().err)


def test_failing_suite_exits_3(monkeypatch, capsys):
    report = SuiteReport(suite="protocol", passed=False, cases=3, worst=1.0,
                         tolerance=0.0, seed=0, lines=["case 0: mismatch"])
    monkeypatch.setattr(cli, "run_suite", lambda name, seed=None: report)
    assert cli.main(["verify", "--suite", "protocol"]) == 3
    out = capsys.readouterr().out
    assert "case 0: mismatch" in out


# ---------------------------------------------------------------------------
# verify / oracle subcommands
# ---------------------------------------------------------------------------

def test_verify_gradient_suite_passes(capsys):
    assert cli.main(["verify", "--suite", "gradient"]) == 0
    assert "gradient" in capsys.readouterr().out


def test_oracle_dump(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert cli.main(["oracle", "--agents", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "states: 4, joint actions: 4, gamma: 0.9" in text
    assert "projected-drift max eigenvalue real part:" in text
    assert "state,d_pi,v_1,v_2,v_team" in text
    assert "grad agent 1:" in text
    table = (out / "oracle.csv").read_text().splitlines()
    assert table[0] == "state,d_pi,v_1,v_2,v_team"
    assert len(table) == 1 + 4
    printed = text.splitlines()
    start = printed.index(table[0])
    assert printed[start:start + len(table)] == table


def test_unreadable_config_path_exits_1(tmp_path, capsys):
    for cmd in ("run", "oracle"):
        assert cli.main([cmd, "--config", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"invalid configuration: cannot read config "
                                f"{tmp_path}: Is a directory\n")


def test_oracle_sizes_outside_the_model_exit_1(config_file, capsys):
    # No agents, 2^13 states (above the enumeration cap), and sizes given
    # both by a config and by flags.
    for args in (["--agents", "0"], ["--agents", "13"],
                 ["--config", str(config_file), "--agents", "3"],
                 ["--config", str(config_file), "--gamma", "0.5"]):
        assert cli.main(["oracle", *args]) == 1
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err
        assert captured.out == ""


def test_out_path_that_is_a_file_exits_1(config_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for cmd in (["run", "--config", str(config_file)],
                ["oracle", "--agents", "2"]):
        assert cli.main([*cmd, "--out", str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid configuration: output "
                                       f"directory {str(taken)!r}")
        assert len(captured.err.splitlines()) == 1
    assert taken.read_text() == "not a directory\n"


def test_oracle_reads_the_config_for_sizes(config_file, capsys):
    assert cli.main(["oracle", "--config", str(config_file)]) == 0
    assert "states: 4" in capsys.readouterr().out
