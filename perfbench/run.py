"""aclayers benchmark: one closed-loop client driving the library's layers.

    python3 perfbench/run.py --workload curve-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it is a JSON
report with the failures, the environment and (traced runs) the per-layer
table, the tracing overhead and the spans. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before anything imports numpy.
THREAD_POOLS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_POOLS:
    os.environ[_name] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TAIL_BEYOND = 10  # op_tail_s: at most this many slots beyond it
TRACED_PASSES = 2
# One sample of the host reference kernel takes this long when the host is
# at its fastest (a 2-core x86_64 VM); timed metrics are scaled to that speed.
REFERENCE_S = 0.010
REFERENCE_EVERY_S = 0.5
# The benchmark's ops slow down as the kernel's time to this power: the
# slope of log op slowdown on log kernel time over 32 s windows of three
# 6-7 minute loops of the strip workloads (0.69-0.76, r = 0.90-0.93).
HOST_EXPONENT = 0.7

# Layer functions whose calls, busy time and failures the traced run reports.
LAYER_FUNCTIONS = (
    "scales.scales_of",
    "toda.solve_toda",
    "spectral.assemble_A", "spectral.eigs_L_sigma",
    "spectral.resonance_margin", "spectral.scan_epsilons",
    "ansatz.assemble_u0", "ansatz.residual_closed_form", "ansatz.residual_report",
    "ansatz.solve_projected", "ansatz.strip_energy", "ansatz.level_sets",
    "ansatz.newton_allen_cahn",
    "cli.ArtifactWriter",
)
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units.update({f"{fn}.calls": "count", f"{fn}.busy_s": "s",
                      f"{fn}.failed": "count"})
    units.update({"toda.solve_toda.iterations": "count",
                  "toda.solve_toda.fallback_ratio": "ratio",
                  "ansatz.newton_allen_cahn.iterations": "count",
                  "ansatz.newton_allen_cahn.unknowns": "count",
                  "cli.ArtifactWriter.bytes": "B",
                  "bench.op.busy_s": "s", "bench.op.self_s": "s"})
    return units


class HostSpeed:
    """Follows the shared host's speed with a fixed numpy kernel.

    The kernel (a dense solve, a real FFT and an exp, like the library's own
    work but none of its code) is timed between ops, outside their
    latencies, at most every REFERENCE_EVERY_S. The host's speed drifts by
    up to 1.8x over minutes, and the ops slow down with the kernel; `factor`
    is how much slower than at its fastest the host ran the ops: the mean
    sample over REFERENCE_S, to the power HOST_EXPONENT.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((96, 96)) + 96.0 * np.eye(96)
        self._b = rng.random((96, 32))
        self._x = rng.random((128, 64))
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(50):
            np.linalg.solve(self._a, self._b)
            np.fft.rfft(self._x, axis=1)
            np.exp(-self._x).sum()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def sample_due(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        return (statistics.fmean(self.samples) / REFERENCE_S) ** HOST_EXPONENT


class OpDeadline(Exception):
    """An op was still running at its workload's latency limit."""


@dataclass
class OpRecord:
    op: object  # workloads.Op
    latency: float
    status: str  # "ok", "typed", "untyped", "deadline" or "check"
    error: str = ""
    layer: str = ""
    message: str = ""
    counts: dict = field(default_factory=dict)


def _within(limit: float, fn):
    """fn() under a real-time alarm; OpDeadline if it runs past `limit`."""
    active = True

    def on_alarm(signum, frame):
        if active:
            raise OpDeadline(f"still running after {limit:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn()
    finally:
        active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op, tracer, out_dir: Path, op_id: int, deadline: float) -> OpRecord:
    """Run, time and check one op; every exception becomes a failed record."""
    from aclayers import AclayersError
    from workloads import CHECK, RUN, counters

    start = time.perf_counter()
    try:
        with tracer.op(op_id, op.kind):
            out = _within(deadline, lambda: RUN[op.kind](tracer.call, op, out_dir))
    except Exception as exc:
        latency = time.perf_counter() - start
        if isinstance(exc, OpDeadline):
            status = "deadline"
        elif isinstance(exc, AclayersError):
            status = "typed"
        else:
            status = "untyped"
        return OpRecord(op, latency, status, type(exc).__name__,
                        tracer.layer, str(exc)[:200])
    latency = time.perf_counter() - start
    problems = CHECK[op.kind](op, out)
    counts = counters(op, out)
    if problems:
        return OpRecord(op, latency, "check", "CheckFailed", "check",
                        "; ".join(problems)[:400], counts)
    return OpRecord(op, latency, "ok", counts=counts)


def run_loop(inputs, tracer, out_dir: Path, seconds: float,
             host: HostSpeed) -> list[OpRecord]:
    """Closed loop over whole passes, ending as close to `seconds` as it can:
    the next pass starts only if the run would then end nearer to `seconds`
    than it does now, judging by the length of the pass before it.
    """
    deadline = inputs.workload.deadline_s
    records: list[OpRecord] = []
    start = time.perf_counter()
    last = 0.0
    host.sample()
    for ops in inputs.passes():
        began = time.perf_counter()
        if records and began - start + 0.5 * last >= seconds:
            break
        for op in ops:
            records.append(run_op(op, tracer, out_dir, len(records), deadline))
            host.sample_due()
        last = time.perf_counter() - began
    return records


def run_fixed(inputs, tracer, out_dir: Path) -> list[OpRecord]:
    """Every op of the first TRACED_PASSES passes, in order."""
    ops = chain.from_iterable(islice(inputs.passes(), TRACED_PASSES))
    return [run_op(op, tracer, out_dir, i, inputs.workload.deadline_s)
            for i, op in enumerate(ops)]


def slot_latencies(records: list[OpRecord]) -> list[float]:
    """Per slot, the mean latency of its successful visits; slots that never
    succeeded are left out.

    Every pass does the same work, so a slot's mean over the run's passes is
    the op's cost averaged over whatever speed the shared host gave the run.
    """
    visits: dict[int, list[float]] = {}
    for r in records:
        if r.status == "ok":
            visits.setdefault(r.op.slot, []).append(r.latency)
    return [statistics.fmean(visits[slot]) for slot in sorted(visits)]


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, values beyond) of the tail latency.

    The highest percentile with 10 values beyond it, but never below p90:
    with fewer than 110 values that percentile would sink towards (and,
    under 20, below) the median, so the tail is then the value with n // 10
    values beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def failure_table(records: list[OpRecord]) -> dict:
    table: dict[str, int] = {}
    for r in records:
        if r.status != "ok":
            key = f"{r.status} {r.error} in {r.layer}"
            table[key] = table.get(key, 0) + 1
    return table


def setup_seconds(workload: str, seed: int, host: HostSpeed) -> list[float]:
    """Wall time of fresh processes that import aclayers and make the inputs.

    The host kernel is sampled 4 times before and after each, as its samples
    come in two modes. The wait for each process blocks: a wait with a
    timeout polls every 50 ms and would round the times up to that step.
    """
    times = []
    for _ in range(4):
        host.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            stdout=subprocess.DEVNULL)
        try:
            code = _within(120.0, probe.wait)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        times.append(time.perf_counter() - start)
        for _ in range(4):
            host.sample()
        if code != 0:
            raise subprocess.CalledProcessError(code, probe.args)
    return times


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    import aclayers

    return {
        "thread_pools": {name: os.environ.get(name) for name in THREAD_POOLS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "os_threads": _os_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "aclayers": aclayers.__version__,
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


def layer_metrics(tracer, records: list[OpRecord]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and the op records of the traced ops.

    The traced ops are a fixed list, so these totals compare across versions.
    """
    from spans import self_times

    table: dict[str, dict] = {}
    op_busy = op_self = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.parent is None:
            op_busy += span.duration
            op_self += own
            continue
        row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["busy_s"] += own
        row["failed"] += span.failed
    metrics: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        row = table.get(fn, {"calls": 0, "busy_s": 0.0, "failed": 0})
        for stat in ("calls", "busy_s", "failed"):
            metrics[f"{fn}.{stat}"] = row[stat]

    def mean_of(key: str) -> float:
        values = [r.counts[key] for r in records if key in r.counts]
        return sum(values) / len(values) if values else 0.0

    metrics["toda.solve_toda.iterations"] = mean_of("toda_iterations")
    metrics["toda.solve_toda.fallback_ratio"] = mean_of("toda_fallback")
    metrics["ansatz.newton_allen_cahn.iterations"] = mean_of("newton_iterations")
    metrics["ansatz.newton_allen_cahn.unknowns"] = sum(
        r.counts.get("newton_unknowns", 0) for r in records)
    metrics["cli.ArtifactWriter.bytes"] = sum(r.counts.get("bytes", 0) for r in records)
    metrics["bench.op.busy_s"] = op_busy
    metrics["bench.op.self_s"] = op_self
    listed = sum(table.get(fn, {"busy_s": 0.0})["busy_s"] for fn in LAYER_FUNCTIONS)
    summary = {
        "layers": {name: {k: (round(v, 6) if isinstance(v, float) else v)
                          for k, v in row.items()} for name, row in sorted(table.items())},
        "listed_layer_share_of_op_time": listed / op_busy if op_busy else None,
    }
    return metrics, summary


def span_table(tracer) -> dict:
    """All spans, times in seconds from the first span's start."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    return {"fields": ["name", "start_s", "end_s", "parent", "op", "failed"],
            "rows": [[s.name, round(s.start - origin, 6), round(s.end - origin, 6),
                      s.parent, s.op, s.failed] for s in tracer.spans]}


def replay_overhead(records: list[OpRecord], out_dir: Path, deadline: float) -> dict:
    """Run the given traced ops again untraced; overhead = traced - untraced."""
    from spans import Tracer

    untraced = Tracer(enabled=False)
    traced_s = replay_s = 0.0
    pairs = 0
    for record in records:
        if record.status != "ok":
            continue
        again = run_op(record.op, untraced, out_dir, pairs, deadline)
        if again.status != "ok":
            continue
        traced_s += record.latency
        replay_s += again.latency
        pairs += 1
    return {"ops_compared": pairs, "traced_s": traced_s, "untraced_s": replay_s,
            "overhead_s": traced_s - replay_s,
            "overhead_ratio": (traced_s - replay_s) / replay_s if replay_s else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "aclayers" / "__init__.py").is_file():
        print(f"perfbench: no aclayers sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        import aclayers.cli  # noqa: F401  (the CLI module is part of set-up)
        Inputs(args.workload, args.seed)
        return 0

    from spans import Tracer

    # On SIGTERM, unwind: the set-up probe is killed and waited for, and the
    # artifact directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup_host, loop_host = HostSpeed(), HostSpeed()
    # Only untraced runs report setup_s.
    setup = None if args.trace else setup_seconds(args.workload, args.seed, setup_host)
    inputs = Inputs(args.workload, args.seed)
    workload = inputs.workload
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tracer = Tracer(enabled=bool(args.trace))
    try:
        loop_start = time.perf_counter()
        if args.trace:
            records = run_fixed(inputs, tracer, out_dir)
        else:
            records = run_loop(inputs, tracer, out_dir, args.seconds, loop_host)
        loop_wall = time.perf_counter() - loop_start
        overhead = None
        if args.trace:  # replay the first pass
            overhead = replay_overhead(records[:len(workload.slots)], out_dir,
                                       workload.deadline_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    ok = [r for r in records if r.status == "ok"]
    per_slot = slot_latencies(records) or [r.latency for r in records]
    tail, tail_pct, tail_beyond = tail_latency(per_slot)
    failed = len(records) - len(ok)
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": inputs.digest(),
        "deadline_s": workload.deadline_s,
        "attempted": len(records), "succeeded": len(ok),
        "passes": len(records) // len(workload.slots),
        "fail_ratio": failed / len(records),
        "untyped_fail_ratio": sum(r.status == "untyped" for r in records) / len(records),
        "failures": failure_table(records),
        "failed_ops": [{"op": r.op.label, "status": r.status, "error": r.error,
                        "layer": r.layer, "message": r.message}
                       for r in records if r.status != "ok"],
        "op_time_s": sum(r.latency for r in records), "loop_wall_s": loop_wall,
        "slot_latencies_s": per_slot,
        "op_tail": {"percentile": tail_pct, "slots_beyond": tail_beyond,
                    "slots": len(per_slot)},
        "setup_probes_s": setup,
        "environment": environment(),
    }
    if args.trace:
        metrics, summary = layer_metrics(tracer, records)
        units = per_layer_units()
        report["traced"] = summary
        report["trace_overhead"] = overhead
        report["spans"] = span_table(tracer)
    else:
        wall = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ok) / sum(r.latency for r in ok) if ok else 0.0,
            "op_p50_s": statistics.median(per_slot),
            "op_tail_s": tail,
        }
        # Scale the timings to the host at its fastest (see HostSpeed).
        setup_f, loop_f = setup_host.factor, loop_host.factor
        metrics = {"setup_s": wall["setup_s"] / setup_f,
                   "ops_per_s": wall["ops_per_s"] * loop_f,
                   "op_p50_s": wall["op_p50_s"] / loop_f,
                   "op_tail_s": wall["op_tail_s"] / loop_f,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        report["wall_metrics"] = wall
        report["host"] = {"reference_s": REFERENCE_S,
                          "setup_factor": setup_f, "setup_samples": setup_host.samples,
                          "loop_factor": loop_f, "loop_samples": len(loop_host.samples)}
        units = END_TO_END
    result = {
        "correct": all(r.status != "check" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
