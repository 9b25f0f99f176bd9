"""Self-tests of the benchmark: seeded inputs, metric names, tiny runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(workload):
    assert Inputs(workload, 7).digest() == Inputs(workload, 7).digest()
    assert Inputs(workload, 7).digest() != Inputs(workload, 8).digest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_pass_turns_the_same_curvatures(workload):
    slots = WORKLOADS[workload].slots
    for ops in Inputs(workload, 7).pooled:
        assert [op.slot for op in ops] == list(range(len(slots)))
        for op, slot in zip(ops, slots):
            base = slot.shape.sample(slot.samples).values
            assert np.array_equal(op.K.values, np.roll(base, op.turn))


def test_metric_names_are_plain():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_spec_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_self_time_subtracts_children():
    spans = [Span("op", 0.0, 10.0, None, 0),
             Span("a", 1.0, 4.0, 0, 0), Span("b", 5.0, 6.0, 0, 0),
             Span("op", 10.0, 12.0, None, 1), Span("c", 10.5, 11.0, 3, 1)]
    assert self_times(spans) == [6.0, 3.0, 1.0, 1.5, 0.5]


def test_slot_latency_is_the_mean_of_successful_visits():
    slot = lambda i: SimpleNamespace(slot=i)  # noqa: E731
    records = [run.OpRecord(slot(0), 3.0, "ok"), run.OpRecord(slot(1), 5.0, "ok"),
               run.OpRecord(slot(0), 2.0, "ok"), run.OpRecord(slot(1), 1.0, "typed")]
    assert run.slot_latencies(records) == [2.5, 5.0]


def test_tail_has_ten_ops_beyond_it():
    value, percentile, beyond = run.tail_latency([float(i) for i in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    report = json.loads(lines[-2])["report"]
    assert report["environment"]["thread_pools"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert report["trace_overhead"]["ops_compared"] >= 1
