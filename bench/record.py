"""Record the benchmark of this checkout into BENCH_<label>.json.

    python3 bench/record.py --label L
    python3 bench/record.py --compare BENCH_A.json BENCH_B.json

Run from anywhere; the checkout is the directory above bench/. The script

1. byte-compiles src/ (`python -m compileall -q src`), so that no run pays
   for compiling the package and peak_rss_mb does not move with edits that
   change no executed code;
2. runs the command of BENCHMARK.json (`perfbench/run.py`) with --trace 0 on
   every workload for each seed of SEEDS, then with --trace 1 for each of
   the first TRACED seeds, each for BENCHMARK.json's run_seconds;
3. writes BENCH_<label>.json in the checkout: the commit (and whether the
   tree differs from it), Python and numpy versions, the core count, the
   number of runs, the median and quartiles of every end-to-end metric, and
   each per-layer metric's median over the traced runs (median_low for
   counts and bytes, so that they stay one of the samples).

Runs are sequential, so one label takes about (len(SEEDS) + TRACED) * 3 runs
of run_seconds each. Record two checkouts on the same host in one session to
compare them. --compare A B runs nothing: per workload and end-to-end
metric it prints A's and B's median with its quartiles, and the relative
change of the median from A to B.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# benchmark seeds of the untraced runs; the traced runs use the first TRACED,
# since one traced run's layer times move by a third between runs
SEEDS = (101, 102, 103, 104, 105)
TRACED = 3


def _git(*args) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def _source_digest() -> str:
    """SHA-256 over the paths and bytes of every .py file under src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run(command: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(argv)} printed nothing (exit {out.returncode}):\n"
                         f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), file=sys.stderr, flush=True)
    return result


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def _layer_medians(traced: list) -> dict:
    """Per-layer metrics of the traced runs, each the median over the runs."""
    out = {}
    for name, metric in traced[0]["metrics"].items():
        whole = metric["unit"] in ("count", "bytes")
        pick = statistics.median_low if whole else statistics.median
        out[name] = {"value": pick([r["metrics"][name]["value"] for r in traced]),
                     "unit": metric["unit"]}
    return out


def compare(path_a, path_b) -> list:
    """Lines comparing the end-to-end metrics of two BENCH files."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    lines = [f"{a['label']} ({a['commit'][:12]}) -> {b['label']} ({b['commit'][:12]}), "
             "median [q1, q3]"]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name}: not in {path_b}")
            continue
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            change = ((mb["median"] - ma["median"]) / ma["median"]
                      if ma["median"] else float("nan"))
            lines.append(
                f"{name:20s} {metric:12s} {ma['median']:9.4g} [{ma['q1']:.4g}, "
                f"{ma['q3']:.4g}] -> {mb['median']:9.4g} [{mb['q1']:.4g}, "
                f"{mb['q3']:.4g}] {ma['unit']:3s} {change:+.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="names the output file BENCH_<label>.json")
    mode.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                      help="print the end-to-end change from A to B")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    subprocess.run([command[0], "-m", "compileall", "-q", "src"], cwd=ROOT, check=True)

    workloads = {}
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = [_run(command, name, seed, seconds, 0) for seed in SEEDS]
        traced = [_run(command, name, seed, seconds, 1) for seed in SEEDS[:TRACED]]
        workloads[name] = {
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **_summary(
                    [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in bench["end_to_end"]},
            "per_layer": _layer_medians(traced),
        }

    doc = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(_git("status", "--porcelain", "--", "src")),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "runs_per_workload": len(SEEDS),
        "traced_runs_per_workload": TRACED,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
