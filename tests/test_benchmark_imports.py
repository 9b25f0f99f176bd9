"""The benchmark's workloads import every library name they call."""

import importlib
from pathlib import Path


def test_benchmark_workloads_import(monkeypatch):
    # catches a renamed or deleted public name without running the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert set(workloads.RUN) == {"point", "scan", "residual", "newton"}
