"""End-to-end ISS verification campaigns.

A campaign fixes a closed loop, an envelope, and a rate guard, then sweeps
cases (initial state, disturbance, observation noise, partition). Each
asserted case must be admissible for the guard; deliberately inadmissible
cases are carried as tagged negative tests whose envelope is reported but not
asserted. Cases are independent and pure, so they may be evaluated in any
order or concurrently; the report is a deterministic fold in case order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .clf import IssEnvelope
from .core import (BLOWUP, NUMERICAL_FAILURE, Partition, Signal, as_vector,
                   constant_signal, lower_diameter, make_partition,
                   piecewise_constant_signal, sine_signal, zero_signal)
from .euler import check_iss_euler
from .sampler import (ClosedLoop, RateGuard, admissible, decrease_check,
                      sample_solve_batch)
# not called here; the benchmark's tracer (perfbench/tracer.py) patches it
from .sampler import sample_solve  # noqa: F401

# the most dense rows a lockstep batch of cases holds: its case count times
# its longest case's rows (intervals * substeps + 1). The 50 integrator cases
# of ~55k rows each in the acceptance campaign run nine at a time.
DENSE_ROW_BUDGET = 1 << 19


@dataclass(frozen=True, eq=False)
class CampaignCase:
    x0: np.ndarray
    u: Signal
    e: Signal
    partition: Partition
    label: str = ""
    assert_envelope: bool = True

    def __post_init__(self):
        object.__setattr__(self, "x0", as_vector(self.x0))


@dataclass(frozen=True, eq=False)
class Campaign:
    """Case sweep bound to one loop, envelope and guard.

    M bounds the initial-state norms, N the disturbance sup norms; both are
    validated case by case at construction, as is guard admissibility for
    every asserted case.
    """

    loop: ClosedLoop
    envelope: IssEnvelope
    guard: RateGuard
    cases: list
    M: float
    N: float
    clf: object = None
    check_decrease: bool = False
    s_level: float = 0.0

    def __post_init__(self):
        for k, case in enumerate(self.cases):
            if float(np.linalg.norm(case.x0)) > self.M * (1 + 1e-12):
                raise ValueError(f"case {k}: |x0| exceeds M")
            if case.u.bound > self.N * (1 + 1e-12):
                raise ValueError(f"case {k}: disturbance bound exceeds N")
            if case.assert_envelope and not admissible(self.guard, case.partition, case.e):
                raise ValueError(
                    f"case {k}: not admissible for the guard; tag it assert_envelope=False")


def _trajectories(loop: ClosedLoop, cases):
    """Each case's trajectory, in case order, from lockstep batches of
    consecutive cases that hold at most DENSE_ROW_BUDGET dense rows (a single
    case may hold more)."""

    def solve(batch):
        return sample_solve_batch(loop, [c.partition for c in batch],
                                  [c.x0 for c in batch], [c.u for c in batch],
                                  [c.e for c in batch])

    batch, width = [], 0
    for case in cases:
        rows = case.partition.intervals * loop.substeps + 1
        if batch and (len(batch) + 1) * max(width, rows) > DENSE_ROW_BUDGET:
            yield from solve(batch)
            batch, width = [], 0
        batch.append(case)
        width = max(width, rows)
    if batch:
        yield from solve(batch)


def _margins(c: Campaign, case: CampaignCase, traj):
    """The case's envelope margins (additive, max form, additive on the
    refined grid) and first violation time."""
    add = check_iss_euler(traj, c.envelope, case.x0, c.N)
    t = traj.dense_times
    norms = traj.norms()
    max_margins = c.envelope.bound(c.M, c.N, t) - norms

    # refined grid: interval midpoints with linearly interpolated states
    tm = 0.5 * (t[:-1] + t[1:])
    nm = 0.5 * (norms[:-1] + norms[1:])
    x0n = float(np.linalg.norm(case.x0))
    fine_add = min(add.worst_margin, float(np.min(
        c.envelope.additive_bound(x0n, c.N, tm) - nm, initial=math.inf)))

    firsts = [] if add.first_violation_t is None else [add.first_violation_t]
    worse = np.nonzero(max_margins < 0.0)[0]
    if worse.size:
        firsts.append(float(t[worse[0]]))
    first = min(firsts) if firsts else None
    return add.worst_margin, float(np.min(max_margins)), fine_add, first


@dataclass(frozen=True, eq=False)
class CampaignReport:
    rows: list
    summary: dict

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self, path=None) -> dict:
        doc = {"cases": self.rows, "summary": self.summary}
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
        return doc


def run_campaign(c: Campaign) -> CampaignReport:
    """Simulate every case and check both envelope forms pointwise.

    The additive form beta(|x0|, t) + gamma(N) + overflow is the primary
    assertion; the max form max(beta(M, t) + gamma(N), overflow) is checked
    alongside. A blow-up or numerical failure in an asserted case fails it.
    """
    rows = []
    failed = 0
    asserted = 0
    worst = math.inf
    for k, (case, traj) in enumerate(zip(c.cases, _trajectories(c.loop, c.cases))):
        add_m, max_m, fine_m, first = _margins(c, case, traj)
        row = {
            "id": k,
            "label": case.label,
            "status": traj.status.kind,
            "asserted": bool(case.assert_envelope),
            "worst_margin": min(add_m, max_m),
            "margin_additive": add_m,
            "margin_maxform": max_m,
            "margin_additive_fine": fine_m,
            "first_violation_t": first,
        }
        if case.assert_envelope:
            asserted += 1
            ok = (traj.status.kind not in (BLOWUP, NUMERICAL_FAILURE)
                  and add_m >= 0.0 and max_m >= 0.0)
            row["pass"] = bool(ok)
            if not ok:
                failed += 1
            worst = min(worst, add_m)
        else:
            row["pass"] = None
        if c.check_decrease and c.clf is not None:
            rep = decrease_check(traj, c.clf, c.guard, c.s_level)
            row["decrease"] = {"checked": rep.checked, "excluded": rep.excluded,
                               "violations": len(rep.violations)}
        rows.append(row)
    summary = {
        "total": len(c.cases),
        "asserted": asserted,
        "failed": failed,
        "worst_margin": (None if worst is math.inf else worst),
    }
    return CampaignReport(rows, summary)


DISTURBANCE_KINDS = ("piecewise", "constant", "sine")
# the adversarial trials' partition steps, as fractions of the guard's delta
ADVERSARIAL_STEP_FRACTIONS = (0.3, 0.9)


def random_disturbance(kind: str, dim: int, bound: float, partition: Partition,
                       rng) -> Signal:
    """Disturbance families used by campaigns and the adversarial search."""
    if bound < 0.0:
        raise ValueError(f"disturbance bound must be nonnegative, got {bound!r}")
    if bound == 0.0:
        return zero_signal(dim)
    if kind == "piecewise":
        count = partition.intervals
        if dim == 1:
            vals = bound * rng.choice([-1.0, 1.0], size=(count, 1))
        else:
            vals = rng.normal(size=(count, dim))
            vals *= bound / np.linalg.norm(vals, axis=1, keepdims=True)
        return piecewise_constant_signal(partition.times[:-1], vals, bound)
    if kind == "constant":
        d = rng.normal(size=dim)
        return constant_signal(bound * d / np.linalg.norm(d))
    if kind == "sine":
        d = rng.normal(size=dim)
        return sine_signal(d, bound, rng.uniform(0.1, 2.0), rng.uniform(0, 2 * np.pi))
    raise ValueError(f"unknown disturbance kind {kind!r}")


def random_noise(dim: int, bound: float, rng) -> Signal:
    if bound == 0.0:
        return zero_signal(dim)
    d = rng.normal(size=dim)
    return constant_signal(bound * d / np.linalg.norm(d))


def random_cases(loop: ClosedLoop, guard: RateGuard, M: float, N: float,
                 count: int, horizon: float, rng, x0_range: tuple,
                 step_range: tuple):
    """Random cases drawn from rng, yielded as (case, step, disturbance kind).

    |x0| is M times a uniform draw from x0_range; the uniform partition's step
    is guard.delta times a uniform draw from step_range, or times its single
    value, with no draw, when both ends are equal; the noise stays within the
    guard's bound kappa times the lower diameter.
    """
    for k in range(count):
        d = rng.normal(size=loop.n)
        x0 = rng.uniform(*x0_range) * M * d / np.linalg.norm(d)
        lo, hi = step_range
        step = (lo if lo == hi else rng.uniform(lo, hi)) * guard.delta
        part = make_partition("uniform", horizon, step)
        kind = DISTURBANCE_KINDS[k % len(DISTURBANCE_KINDS)]
        u = random_disturbance(kind, loop.m, N, part, rng)
        e_bound = 0.99 * guard.kappa * lower_diameter(part) * rng.uniform(0.0, 1.0)
        e = random_noise(loop.n, e_bound, rng)
        yield CampaignCase(x0, u, e, part, label=f"{kind}-{k}"), step, kind


def make_cases(loop: ClosedLoop, guard: RateGuard, M: float, N: float,
               count: int, horizon: float, seed: int = 0,
               step_fraction: float = 0.9) -> list:
    """Admissible random cases: |x0| <= M, sup u <= N, noise within the guard."""
    return [case for case, _, _ in random_cases(
        loop, guard, M, N, count, horizon, np.random.default_rng(seed),
        (0.1, 1.0), (step_fraction, step_fraction))]


def adversarial_search(c: Campaign, budget: int, seed: int = 0,
                       horizon: float | None = None) -> dict:
    """Randomized search for the largest envelope violation over admissible cases.

    Returns the worst case found with its violation margin; a negative margin
    means no violation was found. Blow-ups count as unbounded violations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if horizon is None:
        horizon = max(case.partition.horizon for case in c.cases) if c.cases else 1.0
    worst = {"violation_margin": -math.inf, "case": None, "status": None}
    trials = list(random_cases(c.loop, c.guard, c.M, c.N, budget, horizon,
                               np.random.default_rng(seed), (0.05, 1.0),
                               ADVERSARIAL_STEP_FRACTIONS))
    runs = _trajectories(c.loop, [case for case, _, _ in trials])
    for k, ((case, step, kind), traj) in enumerate(zip(trials, runs)):
        add_m = _margins(c, case, traj)[0]
        if traj.status.kind in (BLOWUP, NUMERICAL_FAILURE):
            viol = math.inf
        else:
            viol = -add_m
        if viol > worst["violation_margin"]:
            worst = {
                "violation_margin": viol,
                "case": {"x0": case.x0.tolist(), "step": step, "disturbance": kind,
                         "e_bound": case.e.bound, "index": k},
                "status": traj.status.kind,
            }
    return worst
