"""The benchmark's patch sites still exist in the program.

``perfbench/layers.py`` times each layer by wrapping dactd functions and
methods by name.  A refactor that renames or deletes one of them silently
drops that layer's metric, so this test installs every patch, undoes it, and
checks that no site beyond the known one is missing.  It reads
``perfbench/`` and changes nothing there.
"""
from pathlib import Path

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
