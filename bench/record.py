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
3. times each entry of LAYERS in this process, on the checkout's src/:
   LAYER_REPEATS `timeit` repeats of the call (each at least 0.2 s, by
   `Timer.autorange`), each scaled to the host's full speed by the
   perfbench/hostspeed.py reference timed right before and after it;
4. writes BENCH_<label>.json in the checkout: the commit (and whether the
   tree differs from it), Python and numpy versions, the core count, the
   number of runs, the median and quartiles of every end-to-end metric,
   each per-layer metric's median over the traced runs (median_low for
   counts and bytes, so that they stay one of the samples), and a `layers`
   block with the median and quartiles of each LAYERS entry in microseconds
   per call.

Runs are sequential, so one label takes about (len(SEEDS) + TRACED) * 3 runs
of run_seconds each, plus about 20 s of layer timings. Record two checkouts
on the same host in one session to compare them; the layer table uses only
names that older commits have too, so this script can record an older
checkout when copied into it. --compare A B runs nothing: per workload and
end-to-end metric it prints A's and B's median with its quartiles, and the
relative change of the median from A to B; then, per layer in both files,
the two medians and the ratio B / A.
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
import timeit
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# benchmark seeds of the untraced runs; the traced runs use the first TRACED,
# since one traced run's layer times move by a third between runs
SEEDS = (101, 102, 103, 104, 105)
TRACED = 3
# timed repeats of each layer
LAYER_REPEATS = 7


def _weak_iss(rows: int) -> SimpleNamespace:
    """The weak-ISS benchmark's loop (the counterexample system under the
    certificate at i_max 2 and seed 0, 16 substeps of a 0.01 step) with rows
    states, held controls and disturbances drawn in [-4, 4]."""
    from clfiss import zero_feedback
    from clfiss.sampler import _rk4_step
    from clfiss.systems import (build_weak_iss_certificate, counterexample_system,
                                scalar_abs_clf, weak_iss_loop)
    system, k1 = counterexample_system(), zero_feedback(1, 1)
    cert = build_weak_iss_certificate(system, scalar_abs_clf(), k1, 2, 0.9, seed=0)
    x, p, u = np.random.default_rng(rows).uniform(-4.0, 4.0, size=(3, rows, 1))
    return SimpleNamespace(F=weak_iss_loop(system, k1, cert, 16).F, x=x, p=p, u=u,
                           h=0.01 / 16, rk4_step=_rk4_step, g=cert.g,
                           s=np.abs(x[:, 0]))


def _integrator(rows: int) -> SimpleNamespace:
    """Acceptance criterion 4's loop (the nonholonomic integrator under the
    explicit feedback, one substep of a 0.1 step) with rows normal states,
    held controls and disturbances, and the explicit and the combined
    (synthesised from the max CLF) feedbacks."""
    from clfiss import affine_loop, combined_feedback
    from clfiss.sampler import _rk4_step
    from clfiss.systems import (integrator_feedback, integrator_max_clf,
                                integrator_system)
    system, explicit = integrator_system(), integrator_feedback()
    rng = np.random.default_rng(rows)
    x, (p, u) = rng.normal(size=(rows, 3)), rng.normal(size=(2, rows, 2))
    return SimpleNamespace(F=affine_loop(system, explicit, substeps=1).F, x=x, p=p,
                           u=u, h=0.1, rk4_step=_rk4_step, explicit=explicit.eval,
                           combined=combined_feedback(system, integrator_max_clf()).eval)


def _rk4(w: SimpleNamespace):
    return w.rk4_step(w.F, w.x, w.h, 0.5 * w.h, w.h / 6.0, w.p, w.u, w.u, w.u)


def _F(w: SimpleNamespace):
    return w.F(w.x, w.p, w.u)


def _explicit(w: SimpleNamespace):
    return w.explicit(w.x)


def _combined(w: SimpleNamespace):
    return w.combined(w.x)


# (name, set-up, call): set-up builds the call's argument once, and each timed
# call is call(setup()); [n] in a name is the number of rows
LAYERS = (
    ("weak_iss.F[1]", lambda: _weak_iss(1), _F),
    ("weak_iss.F[4]", lambda: _weak_iss(4), _F),
    ("weak_iss._rk4_step[1]", lambda: _weak_iss(1), _rk4),
    ("weak_iss._rk4_step[4]", lambda: _weak_iss(4), _rk4),
    ("WeakIssCertificate.g[4]", lambda: _weak_iss(4), lambda w: w.g(w.s)),
    ("integrator.F[1]", lambda: _integrator(1), _F),
    ("integrator.F[4]", lambda: _integrator(4), _F),
    ("integrator.F[9]", lambda: _integrator(9), _F),
    ("integrator.F[50]", lambda: _integrator(50), _F),
    ("integrator._rk4_step[1]", lambda: _integrator(1), _rk4),
    ("integrator._rk4_step[9]", lambda: _integrator(9), _rk4),
    ("integrator._rk4_step[50]", lambda: _integrator(50), _rk4),
    ("integrator.explicit[1]", lambda: _integrator(1), _explicit),
    ("integrator.explicit[9]", lambda: _integrator(9), _explicit),
    ("integrator.explicit[50]", lambda: _integrator(50), _explicit),
    ("integrator.combined[1]", lambda: _integrator(1), _combined),
    ("integrator.combined[9]", lambda: _integrator(9), _combined),
    ("integrator.combined[50]", lambda: _integrator(50), _combined),
)


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


def _layers() -> dict:
    """Microseconds per call of each LAYERS entry, scaled to the host's full
    speed, with the timeit loop count of one repeat."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import hostspeed
    out = {}
    for name, setup, call in LAYERS:
        arg = setup()
        timer = timeit.Timer(lambda: call(arg))
        number, _ = timer.autorange()
        samples = []
        for _ in range(LAYER_REPEATS):
            before = hostspeed.reference_work()
            seconds = timer.timeit(number)
            after = hostspeed.reference_work()
            samples.append(1e6 * hostspeed.full_speed([seconds / number],
                                                      [0.5 * (before + after)]))
        out[name] = {"unit": "us", "number": number, **_summary(samples)}
        print(f"layer {name}: {out[name]['median']:.2f} us", file=sys.stderr, flush=True)
    return out


def compare(path_a, path_b) -> list:
    """Lines comparing the end-to-end metrics and the layers of two BENCH files."""
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
    la, lb = a.get("layers", {}), b.get("layers", {})
    for name, ma in la.items():
        mb = lb.get(name)
        if mb is None:
            lines.append(f"{name}: not in {path_b}")
            continue
        lines.append(
            f"{name:33s} {ma['median']:9.4g} [{ma['q1']:.4g}, {ma['q3']:.4g}] -> "
            f"{mb['median']:9.4g} [{mb['q1']:.4g}, {mb['q3']:.4g}] us  "
            f"ratio {mb['median'] / ma['median']:.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="names the output file BENCH_<label>.json")
    mode.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                      help="print the end-to-end and layer changes from A to B")
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
    layers = _layers()

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
        "layers": layers,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
