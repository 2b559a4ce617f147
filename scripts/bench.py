#!/usr/bin/env python3
"""Write a BENCH file: benchmark medians and Tier-1 wall time per checkout.

    python3 scripts/bench.py --out BENCH_1.json parent=../parent change=.

Each positional argument is ``label=path`` to a checkout holding
``perfbench/run.py`` and ``BENCHMARK.json``.  For every workload the first
checkout's ``BENCHMARK.json`` lists and every seed 1-10, the script runs
``perfbench/run.py --trace 0`` in each checkout in turn, alternating which
checkout goes first so that machine drift falls on both sides.  It then
times the Tier-1 suite once per checkout, and three full
``dactd run --config configs/line5.yaml`` runs per checkout, alternating
the same way, each into a temporary directory.  The output JSON holds, per
checkout, the median, quartiles and per-seed values of every end-to-end
metric, every set-up probe behind ``setup_s``, the output checks attempted
and failed, the Tier-1 wall time, pass count and slowest tests, every line5
run's wall time, exit code and sha256 of its ``summary.csv`` (equal digests
mean the checkouts learned the same thing), the ``src/`` line count (the
total that ``wc -l src/dactd/*.py`` prints), and the provenance: nproc,
machine, Python and numpy versions, and git revision.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SEEDS = tuple(range(1, 11))
LINE5_RUNS = 3
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=5"]
LINE5_RUN = ["run", "--config", "configs/line5.yaml"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="LABEL=PATH")
    ap.add_argument("--out", required=True, help="JSON file to write")
    return ap.parse_args(argv)


def git_revision(path: Path) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    rev = git("rev-parse", "HEAD")
    return rev + ("+dirty" if git("status", "--porcelain") else "")


def src_lines(path: Path) -> int:
    """Newlines in the package sources, as ``wc -l src/dactd/*.py`` totals."""
    return sum(f.read_bytes().count(b"\n")
               for f in (path / "src" / "dactd").glob("*.py"))


def bench_run(path: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=path, capture_output=True, text=True, timeout=3 * seconds + 600,
        check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["setup_probes_s"] = json.loads(lines[-2])["details"]["setup_probes_s"]
    return result


def quartiles(values: list[float]) -> list[float]:
    """[first, third] quartile (both the value itself for one value)."""
    if len(values) < 2:
        return list(values) * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def src_env() -> dict:
    """The environment with the checkout's own ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    return env


def line5_run(path: Path) -> dict:
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dactd.cli", *LINE5_RUN, "--out", out],
            cwd=path, env=src_env(), capture_output=True, text=True)
        wall = time.perf_counter() - t0
        summary = Path(out) / "summary.csv"
        digest = (hashlib.sha256(summary.read_bytes()).hexdigest()
                  if summary.exists() else None)
    return {"wall_s": round(wall, 1), "exit_code": proc.returncode,
            "summary_sha256": digest}


def tier1(path: Path) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=path, env=src_env(),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|error|skipped)", lines[-1])}
    slowest: dict[str, float] = {}  # setup + call + teardown per test
    for m in (re.match(r"([\d.]+)s (?:setup|call|teardown)\s+(\S+)", ln)
              for ln in lines):
        if m:
            test = m.group(2)
            slowest[test] = slowest.get(test, 0.0) + float(m.group(1))
    return {"wall_s": round(wall, 1), "exit_code": proc.returncode,
            "counts": counts, "slowest_s": slowest}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {}
    for item in args.checkouts:
        label, _, path = item.partition("=")
        checkouts[label] = Path(path).resolve()
    first = next(iter(checkouts.values()))
    spec = json.loads((first / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    runs = {label: {w: [] for w in workloads} for label in checkouts}
    order = list(checkouts)
    for workload in workloads:
        for seed in SEEDS:
            for label in order:
                result = bench_run(checkouts[label], workload, seed, seconds)
                runs[label][workload].append(result)
                print(f"{label} {workload} seed={seed}: "
                      + " ".join(f"{m}={result['metrics'][m]['value']:.4g}"
                                 for m in metrics), flush=True)
            order.reverse()

    report = {
        "command": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
        "seeds": list(SEEDS),
        "machine": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "checkouts": {},
    }
    for label, path in checkouts.items():
        entry = {"git_revision": git_revision(path),
                 "src_lines": src_lines(path), "workloads": {},
                 "line5_runs": []}
        for workload, results in runs[label].items():
            values = {m: [r["metrics"][m]["value"] for r in results]
                      for m in metrics}
            entry["workloads"][workload] = {
                "median": {m: statistics.median(v) for m, v in values.items()},
                "quartiles": {m: quartiles(v) for m, v in values.items()},
                "per_seed": values,
                "setup_probes_s": [r["setup_probes_s"] for r in results],
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "correct": all(r["correct"] for r in results),
            }
        print(f"{label}: Tier-1 ...", flush=True)
        entry["tier1"] = tier1(path)
        print(f"{label}: Tier-1 {entry['tier1']}", flush=True)
        report["checkouts"][label] = entry
    for _ in range(LINE5_RUNS):
        for label in order:
            result = line5_run(checkouts[label])
            report["checkouts"][label]["line5_runs"].append(result)
            print(f"{label}: line5 run {result}", flush=True)
        order.reverse()
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
