"""Per-module spans and counters, taken from outside the package.

The tracer wraps the public functions the CLI calls and the callables it
passes between modules (loops, feedbacks, CLFs, signals, envelopes); nothing
in the package changes. Coarse calls get spans (name, parent, start, end).
High-frequency callables are not given spans: F, V and subgrad are counted,
while feedback evaluations, signal evaluations and decay-margin estimates are
counted and timed into one running sum each, so that the spans around them
can report self time. A span's self time is its duration minus the time its
child spans and timed callables cover. Everything stays in memory until the
run writes it out.
"""

from __future__ import annotations

import copy
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Per-layer metrics reported by a traced round, with units.
LAYER_METRICS = {
    "sampler.solve_s": "s", "sampler.solve_self_s": "s",
    "sampler.rk4_steps": "count", "sampler.rhs_evals": "count",
    "sampler.us_per_step": "us", "sampler.solve_calls": "count",
    "sampler.guard_s": "s",
    "feedback.evals": "count", "feedback.eval_s": "s",
    "feedback.us_per_eval": "us",
    "clf.tables_s": "s", "clf.V_evals": "count", "clf.subgrad_evals": "count",
    "clf.envelope_s": "s",
    "systems.certificate_s": "s", "systems.decay_margin_calls": "count",
    "systems.decay_margin_s": "s", "systems.alpha4_scan_s": "s",
    "verify.campaign_s": "s", "verify.adversarial_s": "s",
    "verify.self_s": "s", "verify.cases": "count",
    "euler.study_s": "s", "euler.self_s": "s", "euler.levels": "count",
    "core.signal_evals": "count", "core.signal_s": "s",
    "core.csv_write_s": "s", "core.csv_bytes": "bytes",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    """Spans, counters and timed sums of one traced round."""

    def __init__(self, round_id: int = 0):
        self.round_id = round_id
        self.spans = []
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.certificate_objects = []   # perf_counter() at each construction
        # open frames: [span index or None, time covered by children]
        self._stack = []

    def span(self, name: str, fn, on_return=None):
        """Wrap fn in a span; on_return(result, args, record) may add counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1][0] if stack else None,
                   "round": self.round_id}
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec.update(start=start, end=end, dur=end - start,
                           self=end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start
            if on_return is not None:
                on_return(result, args, rec)
            return result

        return wrapper

    def timed(self, name: str, fn):
        """Count and time fn into running sums, without a span per call."""
        stack, counts, times = self._stack, self.counts, self.times

        def wrapper(*args):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                d = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += d
                times[name] += d
                counts[name] += 1

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- summary -----------------------------------------------------------

    def _sum(self, prefix: str, key: str) -> float:
        """Sum of key ("dur" or "self") over spans named prefix or prefix.*"""
        return sum(rec[key] for rec in self.spans
                   if rec["name"] == prefix or rec["name"].startswith(prefix + "."))

    def metrics(self) -> dict:
        """Per-layer metrics of this round (trace.overhead_s is set by the run)."""
        c, t, s = self.counts, self.times, self._sum
        steps = c["sampler.rk4_steps"]
        solve_s = s("sampler.solve", "dur")
        evals = c["feedback.eval"]
        alpha4 = 0.0
        for rec in self.spans:
            if rec["name"] == "systems.certificate":
                built = [ts for ts in self.certificate_objects
                         if rec["start"] <= ts <= rec["end"]]
                if built:
                    alpha4 += rec["end"] - built[0]
        return {
            "sampler.solve_s": solve_s,
            "sampler.solve_self_s": s("sampler.solve", "self"),
            "sampler.rk4_steps": steps,
            "sampler.rhs_evals": c["sampler.rhs"],
            "sampler.us_per_step": 1e6 * solve_s / steps if steps else 0.0,
            "sampler.solve_calls": sum(1 for r in self.spans
                                       if r["name"] == "sampler.solve"),
            "sampler.guard_s": s("sampler.guard", "dur"),
            "feedback.evals": evals,
            "feedback.eval_s": t["feedback.eval"],
            "feedback.us_per_eval": 1e6 * t["feedback.eval"] / evals if evals else 0.0,
            "clf.tables_s": s("clf.tables", "dur"),
            "clf.V_evals": c["clf.V"],
            "clf.subgrad_evals": c["clf.subgrad"],
            "clf.envelope_s": s("clf.envelope", "dur"),
            "systems.certificate_s": s("systems.certificate", "dur"),
            "systems.decay_margin_calls": c["systems.decay_margin"],
            "systems.decay_margin_s": t["systems.decay_margin"],
            "systems.alpha4_scan_s": alpha4,
            "verify.campaign_s": s("verify.campaign", "dur"),
            "verify.adversarial_s": s("verify.adversarial", "dur"),
            "verify.self_s": s("verify", "self"),
            "verify.cases": c["verify.cases"],
            "euler.study_s": s("euler.study", "dur"),
            "euler.self_s": s("euler", "self"),
            "euler.levels": c["euler.levels"],
            "core.signal_evals": c["core.signal"],
            "core.signal_s": t["core.signal"],
            "core.csv_write_s": s("core.csv_write", "dur"),
            "core.csv_bytes": c["core.csv_bytes"],
            "cli.self_s": s("cli", "self"),
        }

    def dump(self, origin: float) -> dict:
        """Spans with times relative to origin, plus the raw counters."""
        return {
            "round": self.round_id,
            "spans": [dict(r, start=r["start"] - origin, end=r["end"] - origin)
                      for r in self.spans],
            "counts": dict(self.counts),
            "times": dict(self.times),
        }


class GuardCapture:
    """Keeps the raw diagnostics of the last rate guard the CLI estimated.

    The artefacts carry only the inflated constants; the oracles need the
    raw estimates. One extra call per campaign, so it stays on in timed runs.
    """

    def __init__(self, real):
        self.real = real
        self.diag = None

    def __call__(self, *args, **kwargs):
        guard = self.real(*args, **kwargs)
        self.diag = dict(guard.diagnostics)
        return guard


def _with(obj, **attrs):
    """Shallow copy of a frozen dataclass with some fields replaced.

    copy.copy skips __post_init__, so no callable is evaluated on the way.
    """
    new = copy.copy(obj)
    for k, v in attrs.items():
        object.__setattr__(new, k, v)
    return new


class _Envelope:
    """Envelope stand-in whose public evaluations run inside clf spans."""

    def __init__(self, env, tracer: Tracer):
        self._env = env
        for name in ("beta", "gamma", "bound", "additive_bound"):
            setattr(self, name, tracer.span("clf.envelope", getattr(env, name)))

    def __getattr__(self, name):
        return getattr(self._env, name)


def hooks(tr: Tracer) -> list:
    """(target, attribute, replacement) triples that route the CLI through tr."""
    import clfiss.cli as cli
    import clfiss.euler as euler
    import clfiss.systems as systems
    import clfiss.verify as verify

    def traced_feedback(make):
        def build(*args, **kwargs):
            fb = make(*args, **kwargs)
            return _with(fb, eval=tr.timed("feedback.eval", fb.eval))
        return build

    def traced_clf(make):
        def build(*args, **kwargs):
            clf = make(*args, **kwargs)
            return _with(clf, V=tr.counted("clf.V", clf.V),
                         subgrad=tr.counted("clf.subgrad", clf.subgrad))
        return build

    def count_steps(traj, args, rec):
        tr.counts["sampler.rk4_steps"] += traj.dense_times.size - 1

    traced_solve = tr.span("sampler.solve", cli.sample_solve, count_steps)

    def solve(loop, partition, x0, u=None, e=None):
        loop = _with(loop, F=tr.counted("sampler.rhs", loop.F))
        if u is not None:
            u = _with(u, eval=tr.timed("core.signal", u.eval))
        if e is not None:
            e = _with(e, eval=tr.timed("core.signal", e.eval))
        return traced_solve(loop, partition, x0, u, e)

    def count_cases(report, args, rec):
        tr.counts["verify.cases"] += len(args[0].cases)

    def count_levels(study, args, rec):
        tr.counts["euler.levels"] += len(study.levels)

    def count_bytes(result, args, rec):
        tr.counts["core.csv_bytes"] += os.path.getsize(args[1])

    real_envelope = cli.build_envelope

    def envelope(*args, **kwargs):
        return _Envelope(real_envelope(*args, **kwargs), tr)

    real_certificate = systems.WeakIssCertificate

    def certificate_object(*args, **kwargs):
        # the first certificate object is built when the bands are done, so
        # the time from it to the return is the alpha4 scan
        tr.certificate_objects.append(perf_counter())
        return real_certificate(*args, **kwargs)

    out = [
        (cli, "estimate_alpha_tables",
         tr.span("clf.tables", cli.estimate_alpha_tables)),
        (cli, "build_envelope", envelope),
        (cli, "estimate_rate_guard",
         tr.span("sampler.guard", cli.estimate_rate_guard)),
        (cli, "decrease_check", tr.span("sampler.decrease", cli.decrease_check)),
        (cli, "make_cases", tr.span("verify.make_cases", cli.make_cases)),
        (cli, "run_campaign",
         tr.span("verify.campaign", cli.run_campaign, count_cases)),
        (cli, "adversarial_search",
         tr.span("verify.adversarial", cli.adversarial_search)),
        (cli, "euler_study", tr.span("euler.study", cli.euler_study, count_levels)),
        (cli, "geometric_schedule",
         tr.span("euler.schedule", cli.geometric_schedule)),
        (cli, "check_iss_euler", tr.span("euler.check", cli.check_iss_euler)),
        (cli, "write_trajectory_csv",
         tr.span("core.csv_write", cli.write_trajectory_csv, count_bytes)),
        (cli, "combined_feedback", traced_feedback(cli.combined_feedback)),
        (cli, "zero_feedback", traced_feedback(cli.zero_feedback)),
        (systems, "integrator_feedback",
         traced_feedback(systems.integrator_feedback)),
        (systems, "scalar_abs_clf", traced_clf(systems.scalar_abs_clf)),
        (systems, "build_weak_iss_certificate",
         tr.span("systems.certificate", systems.build_weak_iss_certificate)),
        (systems, "estimate_decay_margin",
         tr.timed("systems.decay_margin", systems.estimate_decay_margin)),
        (systems, "WeakIssCertificate", certificate_object),
    ]
    out += [(cli.CLFS, name, traced_clf(make)) for name, make in cli.CLFS.items()]
    out += [(mod, "sample_solve", solve) for mod in (cli, verify, euler)]
    return out


@contextmanager
def patched(replacements):
    """Install (target, attribute, value) replacements; restore them on exit.

    A dict target has its key replaced, any other target its attribute.
    """
    saved = []
    try:
        for target, attr, value in replacements:
            if isinstance(target, dict):
                saved.append((target, attr, target[attr]))
                target[attr] = value
            else:
                saved.append((target, attr, getattr(target, attr)))
                setattr(target, attr, value)
        yield
    finally:
        for target, attr, value in reversed(saved):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
