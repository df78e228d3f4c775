"""Benchmark entry point for the clfiss CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
src/ directory, never from an installed copy. One run is this one process,
with BLAS and OpenMP pools pinned to one thread. It repeats whole rounds
(the workload's set-up invocation, then its full CLI invocations, each
timed and scaled to the host's full speed as hostspeed.py describes) for S
seconds, checks every artefact against the oracles in oracles.py, and
prints one JSON line: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.
Artefacts, configs and the trace go to .perfbench_out/ in the checkout.
"""

import os

# Before numpy loads: the run's load must come from this one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Every run has at least this many rounds, so each time is a mean of several.
MIN_ROUNDS = 3


def import_cli():
    """Import clfiss.cli from ROOT/src; exit 2 when the checkout has no source."""
    src = ROOT / "src"
    if not (src / "clfiss" / "cli.py").is_file():
        print(f"perfbench: no package source at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import clfiss.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "clfiss").resolve():
        print(f"perfbench: imported {cli.__file__}, not the checkout's source",
              file=sys.stderr)
        sys.exit(2)
    return cli


class Run:
    """Runs invocations, checks their artefacts and tallies operations."""

    def __init__(self, workload, run_dir: Path, capture: tracer.GuardCapture):
        self.workload = workload
        self.run_dir = run_dir
        self.capture = capture
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _invoke(self, inv, main, times: dict):
        """Run one invocation; append (seconds, host reference time) to
        times[inv.name] (see hostspeed.py)."""
        out_dir = self.run_dir / "out" / inv.name
        argv = inv.argv(self.run_dir / "configs" / f"{inv.name}.json", out_dir)
        self.capture.diag = None
        before = hostspeed.reference_work()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                outcome = main(argv)
        except Exception:  # a crash fails the invocation's operations
            outcome = traceback.format_exc(limit=4)
        seconds = perf_counter() - start
        after = hostspeed.reference_work()
        times.setdefault(inv.name, []).append((seconds, (before + after) / 2.0))
        return inv, outcome, out_dir, self.capture.diag

    def _check(self, inv, outcome, out_dir, diag) -> None:
        self.attempted += inv.ops
        if outcome != 0:
            self.failed += inv.ops
            print(f"perfbench: {inv.name} failed: exit {outcome}", file=sys.stderr)
            return
        try:
            found = oracles.check(self.workload.name, inv, out_dir, diag)
        except Exception:  # a malformed artefact is a wrong output
            found = [f"check crashed: {traceback.format_exc(limit=2)}"]
        self.problems += [f"{inv.name}: {p}" for p in found]

    def invocations(self, invs, main, times: dict) -> None:
        """Run the invocations back to back, each timed into times; the
        artefacts are checked after the last one."""
        results = [self._invoke(inv, main, times) for inv in invs]
        for res in results:
            self._check(*res)


def full_speed_time(times: dict, invs) -> float:
    """Sum over invs of each invocation's mean time at full speed."""
    return sum(hostspeed.full_speed(*zip(*times[inv.name])) for inv in invs)


def last_round(times: dict, invs) -> float:
    """Seconds the invocations took, as measured, the last time they ran."""
    return sum(times[inv.name][-1][0] for inv in invs)


def measure(run: Run, cli, seconds: float) -> dict:
    """Untraced rounds of set-up then full run; the end-to-end metrics.

    Each invocation is timed on its own, and its mean time over the run is
    scaled to the host's full speed (see hostspeed.py); setup_s is the
    set-up invocation's, wall_s the sum of the full round's. Set-up and full
    run alternate, so both sample the same stretch of the machine's time.
    """
    wl, times = run.workload, {}
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or more_rounds(
            start, seconds, last_round(times, [wl.setup, *wl.full])):
        run.invocations([wl.setup], cli.main, times)
        run.invocations(wl.full, cli.main, times)
        rounds += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"perfbench: {rounds} rounds; (seconds, host reference seconds) per "
          f"invocation: {times}", file=sys.stderr)
    return {"setup_s": (full_speed_time(times, [wl.setup]), "s"),
            "wall_s": (full_speed_time(times, wl.full), "s"),
            "peak_rss_mb": (peak_mb, "MB")}


def more_rounds(start: float, seconds: float, round_s: float) -> bool:
    """Whether one more round of round_s seconds ends within the run."""
    return perf_counter() - start + round_s <= seconds


def measure_traced(run: Run, cli, seconds: float) -> dict:
    """Alternate untraced and traced rounds; medians of each per-layer metric."""
    full = run.workload.full
    plain, traced, layers, dumps = {}, {}, [], []
    start = perf_counter()
    while not layers or more_rounds(
            start, seconds, last_round(plain, full) + last_round(traced, full)):
        run.invocations(full, cli.main, plain)
        tr = tracer.Tracer(len(layers))
        with tracer.patched(tracer.hooks(tr)):
            run.invocations(full, tr.span("cli.main", cli.main), traced)
        layers.append(tr.metrics())
        dumps.append(tr.dump(start))
    out = {}
    for k, unit in tracer.LAYER_METRICS.items():
        if k != "trace.overhead_s":
            # median_low keeps counts whole: it returns one of the samples
            whole = unit in ("count", "bytes")
            pick = statistics.median_low if whole else statistics.median
            out[k] = (pick([m[k] for m in layers]), unit)
    # traced against untraced wall_s, each taken as measure() takes it
    out["trace.overhead_s"] = (full_speed_time(traced, full)
                               - full_speed_time(plain, full), "s")
    trace_path = run.run_dir / "trace.json"
    trace_path.write_text(json.dumps({
        "workload": run.workload.name, "untraced_seconds": plain,
        "traced_seconds": traced, "rounds": dumps,
        "metrics": {k: v for k, (v, _) in out.items()}}, indent=1))
    print(f"perfbench: {len(layers)} traced rounds; trace in {trace_path}",
          file=sys.stderr)
    return out


def main(argv=None) -> int:
    cli = import_cli()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workload.write_configs(run_dir)

    capture = tracer.GuardCapture(cli.estimate_rate_guard)
    run = Run(workload, run_dir, capture)
    with tracer.patched([(cli, "estimate_rate_guard", capture)]):
        if args.trace:
            metrics = measure_traced(run, cli, args.seconds)
        else:
            metrics = measure(run, cli, args.seconds)

    correct = not run.problems
    for p in run.problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
