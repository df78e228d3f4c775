"""SHA-256 digests of every CLI artefact, for byte-identity checks between checkouts.

    python3 tools/artifact_digests.py ROOT
    python3 tools/artifact_digests.py ROOT BASE

ROOT is the root of a source checkout. The script imports clfiss from
ROOT/src and the benchmark's configs from ROOT/perfbench/workloads.py (read,
never written), then runs through clfiss.cli.main, in a temporary directory
and at CLI --seed 0:

- every ROOT/configs/*.json, with the subcommand its file name starts with;
- the built-in configs of BUILTIN;
- the set-up and full invocations of every benchmark workload at benchmark
  seeds 0 and 1.

It prints one line per output file, `SHA-256  invocation  file  exit=CODE`,
plus one line each for the invocation's stdout and stderr. Paths are relative
to the temporary directory, so two checkouts of the same program print the
same lines. Given a second checkout BASE, it runs each checkout in its own
subprocess, prints a unified diff of BASE's lines against ROOT's, or the line
count when they agree, and exits 1 when they differ.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK_SEEDS = (0, 1)

# (name, subcommand, config) run besides the shipped configs. The monitored
# integrator run leaves the CLF estimate region at t = 0.22, where the
# constant noise carries a noisy sample across the cone before the state
# crosses it. The Euler study's four levels step as one batch and escape
# past radius 50 at the 6th, 12th, 8th and 16th (last) of the 16 substeps
# of an interval. The integrator campaign is the benchmark's, shortened, with
# adversarial trials, whose rows step in the cases' lockstep batch. The scalar
# campaign and the envelope give only the fields they must, so every default
# they read is pinned
BUILTIN = [
    ("builtin/simulate_noisy_sample_exit", "simulate", {
        "schema": 1,
        "loop": {"system": "integrator", "clf": "integrator_max",
                 "feedback": "explicit", "substeps": 2, "monitor_domain": True},
        "partition": {"kind": "uniform", "step": 0.02},
        "horizon": 1.0,
        "x0": [1.0, 0.0, 1.0],
        "noise": {"kind": "constant", "value": [0.0, 0.0, 0.3]},
    }),
    ("builtin/euler_escapes_inside_intervals", "euler", {
        "schema": 1,
        "loop": {"system": "counterexample", "feedback": "zero",
                 "substeps": 16, "escape_radius": 50.0},
        "x0": [4.0],
        "disturbance": {"kind": "constant", "value": [1.0]},
        "base_step": 0.02, "levels": 4, "horizon": 0.5,
    }),
    ("builtin/campaign_integrator_trials", "campaign", {
        "schema": 1,
        "loop": {"system": "integrator", "clf": "integrator_max",
                 "feedback": "explicit", "substeps": 1, "monitor_domain": True},
        "M": 2.0, "N": 0.1, "epsilon": 0.1, "horizon": 0.05,
        "tables": {"radius_max": 20.0, "grid_size": 257, "directions": 256,
                   "radii": 512},
        "guard": {"points": 2048, "pairs": 4000, "inflation": 1.25},
        "cases": {"count": 3, "seed": 5},
        "adversarial_budget": 3,
    }),
    ("builtin/campaign_defaults", "campaign", {
        "schema": 1,
        "loop": {"system": "scalar", "clf": "scalar_abs", "feedback": "combined"},
        "M": 1.0, "N": 0.1, "epsilon": 0.1, "horizon": 0.5,
        "cases": {"count": 2},
    }),
    ("builtin/envelope_defaults", "envelope", {
        "schema": 1, "clf": "scalar_square", "radius_max": 5.0,
    }),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _import_checkout(root: Path):
    """clfiss.cli from root/src and the workloads module from root/perfbench."""
    sys.dont_write_bytecode = True
    src = root / "src"
    sys.path.insert(0, str(src))
    import clfiss.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "clfiss").resolve():
        raise SystemExit(f"imported {cli.__file__}, not the checkout's source")
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads   # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return cli, workloads


def _invocations(root: Path, workloads):
    """(name, subcommand, config) for every shipped, built-in and benchmark
    config."""
    for path in sorted((root / "configs").glob("*.json")):
        command = path.stem.split("_")[0]
        yield f"configs/{path.name}", command, json.loads(path.read_text())
    yield from BUILTIN
    for wname, make in workloads.WORKLOADS.items():
        for seed in BENCHMARK_SEEDS:
            work = make(seed)
            for inv in [work.setup, *work.full]:
                yield f"{wname}/seed{seed}/{inv.name}", inv.command, inv.config


def _run(main, name: str, command: str, config: dict) -> list:
    tag = name.replace("/", "__")
    cfg_path = Path("configs") / f"{tag}.json"
    out_dir = Path("out") / tag
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir),
            "--seed", "0"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so a traceback shows in the diff
            code = f"raised:{type(exc).__name__}"
            print(exc, file=err)
    lines = []
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            lines.append((_sha(path.read_bytes()), path.relative_to(out_dir)))
    lines.append((_sha(out.getvalue().encode()), "<stdout>"))
    lines.append((_sha(err.getvalue().encode()), "<stderr>"))
    return [f"{digest}  {name}  {fname}  exit={code}" for digest, fname in lines]


def _compare(root: str, base: str) -> int:
    """Diff the lines of base against those of root, each checkout run by
    this script in a subprocess of its own."""
    lines = []
    for path in (base, root):
        run = subprocess.run([sys.executable, __file__, path],
                             capture_output=True, text=True)
        if run.returncode:
            sys.stderr.write(run.stderr)
            return 2
        lines.append(run.stdout.splitlines(keepends=True))
    diff = list(difflib.unified_diff(*lines, fromfile=base, tofile=root))
    sys.stdout.writelines(diff or [f"{len(lines[1])} lines, no difference\n"])
    return 1 if diff else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2:
        return _compare(*args)
    if len(args) != 1:
        print("usage: python3 tools/artifact_digests.py ROOT [BASE]",
              file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    cli, workloads = _import_checkout(root)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("configs").mkdir()
            for name, command, config in _invocations(root, workloads):
                for line in _run(cli.main, name, command, config):
                    print(line, flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
