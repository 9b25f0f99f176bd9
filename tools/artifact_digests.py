"""Print a sha256 of every data artifact the nine subcommands write, and of
their exit codes and error messages.

    python3 tools/artifact_digests.py [CHECKOUT] > digests.txt

Runs `constants`, `scales`, `toda-solve`, `spectrum`, `resonance-scan`,
`weyl`, `ansatz-residual` and `newton-solve` (at `--epsilon 0.05`, where it
writes `levelsets.csv` next to `solution.csv`) of the `aclayers` package in
CHECKOUT's `src/` (default: this script's checkout) on two configs: the
defaults (`{}`) and a 3-point m = 3 sweep on a curvature with one cosine
harmonic. On the sweep, `newton-solve` also runs at `--epsilon 0.025` (as
`newton-solve-0.025`), whose 8 Newton steps on the band grid take 4
line-search halvings, and at `--epsilon 0.035` (as `newton-solve-0.035`),
whose solve grows y-modes past its 38-row band, so that the last of its
10 Newton steps runs on the caller's 90 rows; at 0.05 no step is damped.
`resonance-scan` also runs at `--epsilon 0.00625` (as `resonance-single`),
the single-eps margin on the numeric string spectrum. On the defaults,
`toda-solve` also runs at `--epsilon 0.0471` (as `near-resonance`), where
the forced gap operator at the root is close to singular (margin 0.086),
and `report` runs the acceptance battery once (about 0.5 s), whose
`report.json` and `report.csv` hold each criterion's details but no runtime.
A third config, `m4-fine`, runs `toda-solve`, `spectrum` and
`ansatz-residual`: m = 4 on a curvature with two cosine harmonics, eps 0.04
and 0.06. Its `spectrum` takes the
3-channel split of the operator at v^1, and its gap roots couple their two
reflection-even channels, so `toda-solve`'s margins take one eigensolve of
that pair and one of the odd channel; its 160 rows, whose y-spacing is
below 1, make the norm balls of `ansatz-residual` span rows. A fourth,
`m5-wavy`, runs `toda-solve` only: m = 5 on a curvature with one cosine
harmonic, eps 0.04 and 0.06, whose roots couple two pairs of channels (the
even and the odd sector). A fifth, `m3-circle`, runs `toda-solve` and
`spectrum` at m = 3 on the default K = 1, at the default eps 0.05 and at
`--epsilon 0.00625` (as `toda-solve-0.00625` and `spectrum-0.00625`): its
two channels are constant along the curve at v^1 and at the roots, so both
spectra take the closed form and no eigensolve. `EXPECTED_EXIT` holds the
exit code each run must give and says why the runs that fail do so.
Prints one `exit <code>  <config>/<run>` line per run, one
`stderr <sha256>  <config>/<run>` line for each run that wrote to stderr
(its error message), one `config <sha256>
<config>/<run>` line with the `config_sha256` of each run that wrote a
manifest, so a change of the config schema shows too, and one
`<sha256>  <config>/<run>/<file>` line per artifact; `manifest.json` itself
is left out, as it holds the wall time. Two checkouts exit alike, print the
same messages and write byte-identical data artifacts under the same
config hashes when their outputs are equal:

    diff <(python3 tools/artifact_digests.py OTHER) <(python3 tools/artifact_digests.py)

After the last run, each run whose exit code is not its `EXPECTED_EXIT`
is named on stderr, and the tool exits 1 if there is any. Unlike the
digests, the exit codes do not depend on the BLAS thread count or kernel.

The BLAS and OpenMP pools are pinned to one thread, as in perfbench. The
bytes hold for one BLAS thread count and one BLAS kernel: both reach the
last bits of the gap, resonance, residual, Newton and report data. Of the
78 data-artifact lines, 18 change with 2 threads in place of 1, and 62
under `OPENBLAS_CORETYPE=Haswell` (the kernel of any x86-64 host without
AVX-512) in place of SkylakeX; the exit, stderr and config lines change
with neither (2-core host, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31). So
a run of the CLI reproduces these bytes under `OPENBLAS_NUM_THREADS=1` on
the same kernel, and two checkouts compare only under one kernel.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "default": {},
    "m3-sweep": {"m": 3,
                 "geometry": {"curvature": {"mean": 1.0, "cos": [0.2]}},
                 "epsilon": {"min": 0.02, "max": 0.05, "steps": 3}},
    "m4-fine": {"m": 4,
                "geometry": {"curvature": {"mean": 1.0, "cos": [0.1, 0.03]}},
                "grid": {"n_y": 160},
                "epsilon": {"min": 0.04, "max": 0.06, "steps": 2}},
    "m5-wavy": {"m": 5,
                "geometry": {"curvature": {"mean": 1.0, "cos": [0.2]}},
                "epsilon": {"min": 0.04, "max": 0.06, "steps": 2}},
    "m3-circle": {"m": 3},
    "m5": {"m": 5},
    "m1": {"m": 1},
}
COMMANDS = ("constants", "scales", "toda-solve", "spectrum", "resonance-scan",
            "weyl", "ansatz-residual", "newton-solve")
# (config, run name, command, extra arguments), in the order they run
RUNS = [(label, command, command,
         ["--epsilon", "0.05"] if command == "newton-solve" else [])
        for label in ("default", "m3-sweep") for command in COMMANDS]
RUNS.append(("m3-sweep", "newton-solve-0.025", "newton-solve", ["--epsilon", "0.025"]))
RUNS.append(("m3-sweep", "newton-solve-0.035", "newton-solve", ["--epsilon", "0.035"]))
RUNS.append(("m3-sweep", "resonance-single", "resonance-scan", ["--epsilon", "0.00625"]))
RUNS.append(("default", "near-resonance", "toda-solve", ["--epsilon", "0.0471"]))
RUNS.append(("default", "report", "report", []))
RUNS += [("m4-fine", command, command, [])
         for command in ("toda-solve", "spectrum", "ansatz-residual")]
RUNS.append(("m5-wavy", "toda-solve", "toda-solve", []))
RUNS += [("m3-circle", f"{command}{suffix}", command, extra)
         for suffix, extra in (("", []), ("-0.00625", ["--epsilon", "0.00625"]))
         for command in ("toda-solve", "spectrum")]
RUNS.append(("m5", "newton-solve-stall", "newton-solve", ["--epsilon", "0.05"]))
RUNS.append(("m1", "scales", "scales", []))
# the exit code each run must give, 0 where a run is not named
EXPECTED_EXIT = {
    # m = 5 on the defaults stalls in the strip line search after 17 Newton
    # steps (about 0.8 s)
    ("m5", "newton-solve-stall"): 3,
    # m = 1 is a config error
    ("m1", "scales"): 1,
}


def main() -> None:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from aclayers.cli import main as run

    cwd = Path.cwd()
    unexpected = []
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths: checkouts whose config hash still holds the output
        # directory hash the same one in every temporary directory
        os.chdir(tmp)
        try:
            for label, config in CONFIGS.items():
                Path(f"{label}.json").write_text(json.dumps(config))
            for label, name, command, extra in RUNS:
                out = Path(label, name)
                argv = [command, "--config", f"{label}.json", "--out", str(out), *extra]
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    code = run(argv)
                print(f"exit {code}  {label}/{name}")
                want = EXPECTED_EXIT.get((label, name), 0)
                if code != want:
                    unexpected.append(f"unexpected exit {code} (want {want})  {label}/{name}")
                if stderr.getvalue():
                    digest = hashlib.sha256(stderr.getvalue().encode()).hexdigest()
                    print(f"stderr {digest}  {label}/{name}")
                manifest = out / "manifest.json"
                if manifest.exists():
                    config_sha256 = json.loads(manifest.read_text())["config_sha256"]
                    print(f"config {config_sha256}  {label}/{name}")
                for artifact in sorted(out.glob("*")):
                    if artifact.name != "manifest.json":
                        digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
                        print(f"{digest}  {label}/{name}/{artifact.name}")
        finally:
            os.chdir(cwd)
    for line in unexpected:
        print(line, file=sys.stderr)
    sys.exit(1 if unexpected else 0)


if __name__ == "__main__":
    main()
