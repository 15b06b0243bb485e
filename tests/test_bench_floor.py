"""The traced floor of the benchmark (``bench/worker.py`` ``layer_floor``) runs
against the package: one smallest call into every layer, under the wrappers
of ``bench/tracing.py``.  A package name the floor calls that is renamed or
deleted fails here, not only in ``bench/run.py --trace 1``."""
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_layer_floor_runs_under_instrumentation(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import worker

    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        worker.layer_floor(SimpleNamespace(name="stub", workdir=tmp_path), tracer)
    names = {name for name, _start, end, _parent, _count in tracer.spans if end is not None}
    assert set(tracing.TARGETS) <= names
