"""Print a sha256 of every data artifact the nine subcommands write.

    python3 tools/artifact_digests.py [CHECKOUT] > digests.txt

Runs `constants`, `scales`, `toda-solve`, `spectrum`, `resonance-scan`,
`weyl`, `ansatz-residual` and `newton-solve` (at `--epsilon 0.05`, where it
writes `levelsets.csv` next to `solution.csv`) of the `aclayers` package in
CHECKOUT's `src/` (default: this script's checkout) on two configs: the
defaults (`{}`) and a 3-point m = 3 sweep on a curvature with one cosine
harmonic. On the sweep, `newton-solve` also runs at `--epsilon 0.025` (as
`newton-solve-0.025`), whose 8 Newton steps on the band grid take 4
line-search halvings; at 0.05 no step is damped, and `resonance-scan` also
runs at `--epsilon 0.00625` (as `resonance-single`), the single-eps margin
on the numeric string spectrum. On the defaults, `toda-solve` also runs at
`--epsilon 0.0471` (as `near-resonance`), where the forced gap operator at
the root is close to singular (margin 0.086), and `report` runs the
acceptance battery once (about 0.5 s), whose `report.json` and `report.csv`
hold each criterion's details but no runtime. A third config, `m4-fine`,
runs `toda-solve`, `spectrum` and `ansatz-residual`: m = 4 on a curvature
with two cosine harmonics, eps 0.04 and 0.06. Its `spectrum` takes the
3-channel split of the operator at v^1, and its gap roots couple their
channels, so `toda-solve`'s margins take the dense eigensolve; its 160 rows,
whose y-spacing is below 1, make the norm balls of `ansatz-residual` span
rows. Prints one `exit <code>  <config>/<run>` line per
run, one `config <sha256>  <config>/<run>` line with the `config_sha256` of
each run that wrote a manifest, so a change of the config schema shows too,
and one `<sha256>  <config>/<run>/<file>` line per artifact;
`manifest.json` itself is left out, as it holds the wall time. Two
checkouts write byte-identical data artifacts under the same config hashes
when their outputs are equal:

    diff <(python3 tools/artifact_digests.py OTHER) <(python3 tools/artifact_digests.py)

The BLAS and OpenMP pools are pinned to one thread, as in perfbench.
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
}
COMMANDS = ("constants", "scales", "toda-solve", "spectrum", "resonance-scan",
            "weyl", "ansatz-residual", "newton-solve")
# (config, run name, command, extra arguments), in the order they run
RUNS = [(label, command, command,
         ["--epsilon", "0.05"] if command == "newton-solve" else [])
        for label in ("default", "m3-sweep") for command in COMMANDS]
RUNS.append(("m3-sweep", "newton-solve-0.025", "newton-solve", ["--epsilon", "0.025"]))
RUNS.append(("m3-sweep", "resonance-single", "resonance-scan", ["--epsilon", "0.00625"]))
RUNS.append(("default", "near-resonance", "toda-solve", ["--epsilon", "0.0471"]))
RUNS.append(("default", "report", "report", []))
RUNS += [("m4-fine", command, command, [])
         for command in ("toda-solve", "spectrum", "ansatz-residual")]


def main() -> None:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from aclayers.cli import main as run

    cwd = Path.cwd()
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
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run(argv)
                print(f"exit {code}  {label}/{name}")
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

if __name__ == "__main__":
    main()
