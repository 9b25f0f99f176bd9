"""The benchmark's workloads import every library name they call, and run."""

import importlib
from pathlib import Path

import pytest


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads")


def test_benchmark_workloads_import(workloads):
    # catches a renamed or deleted public name without running the benchmark
    assert set(workloads.RUN) == {"point", "scan", "residual", "newton"}


def test_benchmark_first_op_of_each_kind_runs_clean(workloads, tmp_path):
    # a signature or report-field change in a called library function fails
    # here, not only in the benchmark run; the first ops are the cheap ones
    first = {}
    for name in workloads.WORKLOADS:
        for op in workloads.Inputs(name, 1).pooled[0]:
            first.setdefault(op.kind, op)
    assert set(first) == set(workloads.RUN)

    def call(layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    for kind, op in first.items():
        out_dir = tmp_path / kind
        out_dir.mkdir()
        out = workloads.RUN[kind](call, op, out_dir)
        assert workloads.CHECK[kind](op, out) == [], op.label
        assert isinstance(workloads.counters(op, out), dict)
