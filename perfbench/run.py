#!/usr/bin/env python3
"""dactd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/dactd``,
``configs/line5.yaml`` and ``BENCHMARK.json``).  Workloads are listed in
``BENCHMARK.json`` and defined in ``perfbench/workloads.py``.

``--trace 0`` measures the end-to-end metrics: the median of five set-up
probes (each a fresh interpreter that imports dactd and builds the
workload's inputs), then rounds of work until ``--seconds`` have passed.
``--trace 1`` alternates untraced and traced passes of set-up plus one
round (same inputs; traced passes wrap every layer boundary) while another
pair fits in ``--seconds`` (at least one pair), and reports the per-layer metrics of the first
traced pass and the traced/untraced ratio of median pass times.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (the output checks) and ``metrics``; the line before it holds
provenance and sample details.  Both, and the spans of a traced run, are
also written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
clock = time.perf_counter

# numpy, dactd and the bench's own modules are imported inside functions,
# after ``src`` is on sys.path, so that a set-up probe times their import.


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  With 21 samples or fewer that percentile is not
    above the median, so the median is reported."""
    xs = sorted(values)
    n = len(xs)
    if n <= 21:
        return statistics.median(xs), 50.0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n


def probe_setup(args) -> float:
    """Seconds to import dactd and build one workload's inputs, measured in
    a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "dactd"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1,
            "git_revision": git_revision(),
            "src_digest": source_digest()}


def measure(make, seconds: float, tally, once: bool = False):
    """Build the workload, then run rounds until ``seconds`` have passed
    (or exactly one round).  A round that raises counts as a failed
    check."""
    from workloads import Samples
    samples = Samples()
    wl = make()
    deadline = clock() + seconds
    while True:
        try:
            wl.round(samples.rounds, deadline, samples, tally)
        except Exception as exc:     # any raising operation is a failure
            tally.check(False, f"round {samples.rounds} raised {exc!r}")
            print(f"round {samples.rounds} raised {exc!r}", file=sys.stderr)
        samples.rounds += 1
        if once or clock() >= deadline:
            return samples


def end_to_end(args, tally) -> tuple[dict, dict]:
    import workloads
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    make = lambda: workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT)
    s = measure(make, args.seconds, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if s.op_s and s.work_s > 0:
        p50 = statistics.median(s.op_s)
        tail_s, tail_pct = tail(s.op_s)
        rate = s.work_units / s.work_s
    else:
        p50 = tail_s = tail_pct = rate = 0.0
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": rss_mb,
               "work_per_s": rate, "op_ms_p50": p50 * 1e3,
               "op_ms_tail": tail_s * 1e3}
    details = {"setup_probes_s": setups, "rounds": s.rounds,
               "op_samples": len(s.op_s), "op_tail_percentile": tail_pct,
               "work_units": s.work_units, "work_s": s.work_s}
    return metrics, details


def per_layer(args, tally) -> tuple[dict, dict]:
    """Alternate untraced and traced passes (fresh set-up plus one round,
    same inputs) while another pair fits in ``--seconds``.  The per-layer
    metrics come from the first traced pass; the overhead is the ratio of
    the median traced to the median untraced pass time."""
    import layers
    import workloads
    from spans import Tracer
    make = lambda: workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT)
    passes: dict[bool, list[float]] = {False: [], True: []}
    first = None
    deadline = clock() + args.seconds
    pair_s = 0.0
    while not passes[True] or clock() + pair_s < deadline:
        t_pair = clock()
        for traced in (False, True):
            with Tracer() as tracer:
                probe = layers.install(tracer) if traced else None
                t0 = clock()
                measure(make, 0.0, tally, once=True)
                passes[traced].append(clock() - t0)
            if traced and first is None:
                first = tracer, probe
        pair_s = clock() - t_pair
    tracer, probe = first
    metrics = layers.per_layer(tracer, probe)
    metrics["trace.overhead_ratio"] = (statistics.median(passes[True])
                                       / statistics.median(passes[False]))
    for name in workloads.WORKLOADS[args.workload].NONZERO:
        tally.check(metrics.get(name, 0) != 0,
                    f"per-layer metric {name} is zero on {args.workload}")
    tracer.dump(OUT / f"spans_{args.workload}_seed{args.seed}.json")
    details = {"untraced_pass_s": passes[False], "traced_pass_s": passes[True],
               "spans": len(tracer.spans),
               "missing_patch_sites": tracer.missing}
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: the workloads are single-threaded by design, and on a
    # 2-core machine OpenBLAS worker threads made the first oracle call
    # after a run_theory stall for a second.  Set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dactd" / "__init__.py").is_file():
        print(f"no dactd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        t0 = clock()
        import dactd  # noqa: F401  (the import is part of set-up)
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT)
        print(clock() - t0)
        return 0

    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    from workloads import Tally
    tally = Tally()
    if args.trace:
        wanted = spec["per_layer"]
        values, details = per_layer(args, tally)
    else:
        wanted = spec["end_to_end"]
        values, details = end_to_end(args, tally)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark reports no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    details.update(ops_failed_ratio=tally.failed / max(tally.attempted, 1),
                   failed_checks=tally.notes)
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = {"provenance": provenance(args), "details": details}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
