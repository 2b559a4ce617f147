"""The benchmark's patch sites still exist in the program, and are called.

``perfbench/layers.py`` times each layer by wrapping dactd functions and
methods by name.  A refactor that renames or deletes one of them silently
drops that layer's metric, so one test installs every patch, undoes it, and
checks that no site beyond the known one is missing.  A refactor that keeps
a name but stops calling it, or calls it at a coarser grain, zeroes a metric
instead, so another runs one traced round of the protocol-heavy workloads
and checks that every metric the workload must move is non-zero.  Both read
``perfbench/`` and change nothing there.
"""
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The online loop draws actions from whole-team tables, so no program code
# has this method any more.
KNOWN_MISSING = {"TabularSoftmaxPolicy.sample_action"}


def test_bench_patch_sites_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads  # noqa: F401  (fails if a name it imports is gone)
    from spans import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.unpatch()
    assert set(tracer.missing) <= KNOWN_MISSING, tracer.missing


@pytest.mark.parametrize("name", ["exchange_n40", "online_tv7"])
def test_one_traced_round_moves_every_layer_it_must(name, monkeypatch,
                                                    tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from spans import Tracer

    tally = workloads.Tally()
    with Tracer() as tracer:
        probe = layers.install(tracer)
        workload = workloads.WORKLOADS[name](1, PERFBENCH.parent, tmp_path)
        workload.round(0, time.perf_counter(), workloads.Samples(), tally)
    metrics = layers.per_layer(tracer, probe)
    assert tally.attempted > 0 and tally.failed == 0, tally.notes
    zero = [m for m in workloads.WORKLOADS[name].NONZERO if not metrics[m]]
    assert not zero
