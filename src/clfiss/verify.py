"""End-to-end ISS verification campaigns.

A campaign fixes a closed loop, an envelope, and a rate guard, then sweeps
cases (initial state, disturbance, observation noise, partition). Each
asserted case must be admissible for the guard; deliberately inadmissible
cases are carried as tagged negative tests whose envelope is reported but not
asserted. Cases are independent and pure, so they may be evaluated in any
order or concurrently; the report is a deterministic fold in case order. An
adversarial search draws further random cases (trials), which step in the
same lockstep batches as the cases, after them, and folds them in trial
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clf import IssEnvelope
from .core import (Partition, Signal, as_vector, constant_signal,
                   lower_diameter, make_partition, piecewise_constant_signal,
                   sine_signal, zero_signal)
from .euler import additive_check
from .sampler import (ClosedLoop, RateGuard, admissible, decrease_check,
                      sample_solve_batch)
# not called here; the benchmark's tracer (perfbench/tracer.py) patches it
from .sampler import sample_solve  # noqa: F401

# the most dense rows a lockstep batch of cases and adversarial trials holds:
# its row count times its longest row's (intervals * substeps + 1). The 50
# integrator cases of ~55k rows each in the acceptance campaign run nine at
# a time.
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
    """Each case's trajectory, in order, from lockstep batches of consecutive
    cases that hold at most DENSE_ROW_BUDGET dense rows (a single case may
    hold more). The trajectories view their batch's buffers, so a batch's
    buffers live as long as one of its trajectories does."""

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


def _margins(c: Campaign, vM, g, case: CampaignCase, traj):
    """The case's envelope margins (additive, max form, additive on the
    refined grid) and first violation time, from the campaign's envelope
    terms vM = lower_inv(M) and g = gamma(N)."""
    env, t, norms = c.envelope, traj.dense_times, traj.norms()
    v0 = env.tables.lower_inv(float(np.linalg.norm(case.x0)))
    add = additive_check(env, v0, g, t, norms)
    max_margins = env.bound_from(vM, g, t) - norms

    # refined grid: interval midpoints with linearly interpolated states
    tm = 0.5 * (t[:-1] + t[1:])
    nm = 0.5 * (norms[:-1] + norms[1:])
    fine_add = min(add.worst_margin, float(np.min(
        env.additive_from(v0, g, tm) - nm, initial=math.inf)))

    firsts = [] if add.first_violation_t is None else [add.first_violation_t]
    worse = np.nonzero(max_margins < 0.0)[0]
    if worse.size:
        firsts.append(float(t[worse[0]]))
    first = min(firsts) if firsts else None
    return add.worst_margin, float(np.min(max_margins)), fine_add, first


@dataclass(frozen=True, eq=False)
class CampaignReport:
    """The case rows, plus the adversarial search's worst trial
    (adversarial_search's dict) when the campaign ran one."""

    rows: list
    adversarial: dict | None = None

    @property
    def summary(self) -> dict:
        """Counts of the rows, and the least additive margin of the asserted
        ones (min folded from inf in row order), None with none asserted."""
        asserted = [row for row in self.rows if row["asserted"]]
        worst = min([math.inf, *(row["margin_additive"] for row in asserted)])
        return {
            "total": len(self.rows),
            "asserted": len(asserted),
            "failed": sum(not row["pass"] for row in asserted),
            "worst_margin": None if worst is math.inf else worst,
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self) -> dict:
        return {"cases": self.rows, "summary": self.summary}


def run_campaign(c: Campaign, budget: int = 0, seed: int = 0,
                 horizon: float | None = None) -> CampaignReport:
    """Simulate every case and check both envelope forms pointwise.

    The additive form beta(|x0|, t) + gamma(N) + overflow is the primary
    assertion; the max form max(beta(M, t) + gamma(N), overflow) is checked
    alongside. A blow-up or numerical failure in an asserted case fails it.
    A budget of at least 1 also runs adversarial_search(c, budget, seed,
    horizon), whose trials step in the same lockstep batches as the cases,
    after them; its result is the report's adversarial dict.
    """
    return _run(c, c.cases, _trials(c, budget, seed, horizon) if budget else [])


def _run(c: Campaign, cases: list, trials: list) -> CampaignReport:
    """The report on cases and the worst of trials ((case, step, kind) as
    random_cases yields them), from one stream of lockstep batches: the
    cases' rows, then the trials', folded in that order. gamma(N) and the
    inverse of M are taken once, each |x0| inverted once; with no rows, not
    at all."""
    env = c.envelope
    vM, g = ((env.tables.lower_inv(c.M), env.gamma(c.N)) if cases or trials
             else (None, None))
    stream = cases + [case for case, _, _ in trials]
    rows = []
    found = {"violation_margin": -math.inf, "case": None, "status": None}
    for k, (case, traj) in enumerate(zip(stream, _trajectories(c.loop, stream))):
        add_m, max_m, fine_m, first = _margins(c, vM, g, case, traj)
        diverged = traj.status.diverged
        if k >= len(cases):   # an adversarial trial; blow-ups are unbounded
            viol = math.inf if diverged else -add_m
            if viol > found["violation_margin"]:
                _, step, kind = trials[k - len(cases)]
                found = {
                    "violation_margin": viol,
                    "case": {"x0": case.x0.tolist(), "step": step,
                             "disturbance": kind, "e_bound": case.e.bound,
                             "index": k - len(cases)},
                    "status": traj.status.kind,
                }
            continue
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
            "pass": (bool(not diverged and add_m >= 0.0 and max_m >= 0.0)
                     if case.assert_envelope else None),
        }
        if c.check_decrease and c.clf is not None:
            rep = decrease_check(traj, c.clf, c.guard, c.s_level)
            row["decrease"] = {"checked": rep.checked, "excluded": rep.excluded,
                               "violations": len(rep.violations)}
        rows.append(row)
    return CampaignReport(rows, found if trials else None)


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
        e = random_disturbance("constant", loop.n, e_bound, part, rng)
        yield CampaignCase(x0, u, e, part, label=f"{kind}-{k}"), step, kind


def make_cases(loop: ClosedLoop, guard: RateGuard, M: float, N: float,
               count: int, horizon: float, seed: int = 0,
               step_fraction: float = 0.9) -> list:
    """Admissible random cases: |x0| <= M, sup u <= N, noise within the guard."""
    return [case for case, _, _ in random_cases(
        loop, guard, M, N, count, horizon, np.random.default_rng(seed),
        (0.1, 1.0), (step_fraction, step_fraction))]


def _trials(c: Campaign, budget: int, seed: int, horizon: float | None) -> list:
    """The adversarial search's trials, (case, step, kind) as random_cases
    yields them, over horizon (default: the cases' longest, 1.0 with none)."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if horizon is None:
        horizon = max(case.partition.horizon for case in c.cases) if c.cases else 1.0
    return list(random_cases(c.loop, c.guard, c.M, c.N, budget, horizon,
                             np.random.default_rng(seed), (0.05, 1.0),
                             ADVERSARIAL_STEP_FRACTIONS))


def adversarial_search(c: Campaign, budget: int, seed: int = 0,
                       horizon: float | None = None) -> dict:
    """Randomized search for the largest envelope violation over admissible cases.

    Returns the worst case found with its violation margin; a negative margin
    means no violation was found. Blow-ups count as unbounded violations.
    The trials run as run_campaign runs them, without the campaign's cases;
    run_campaign(c, budget, seed, horizon) returns the same dict beside the
    case report.
    """
    return _run(c, [], _trials(c, budget, seed, horizon)).adversarial
