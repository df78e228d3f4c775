"""End-to-end ISS verification campaigns.

A campaign fixes a closed loop, an envelope, and a rate guard, then sweeps
cases (initial state, disturbance, observation noise, partition). Each
asserted case must be admissible for the guard; deliberately inadmissible
cases are carried as tagged negative tests whose envelope is reported but not
asserted. Cases are independent and pure, so they may be evaluated in any
order or concurrently; the report is a deterministic fold in case order. An
adversarial search draws further random cases (trials), which step in the
same lockstep batch as the cases, after them, and folds them in trial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clf import IssEnvelope
from .core import (COMPLETED, Partition, Signal, as_vector, constant_signal,
                   lower_diameter, make_partition, piecewise_constant_signal,
                   sine_signal, upper_diameter, zero_signal)
from .sampler import (ClosedLoop, RateGuard, _decrease_margins, _lockstep,
                      _valid, admissible)
# not called here; the benchmark's tracer (perfbench/tracer.py) patches it
from .sampler import sample_solve  # noqa: F401


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
    every asserted case. clf is read only by the decrease check, which needs it.
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
        if self.check_decrease and self.clf is None:
            raise ValueError("check_decrease needs a clf")
        for k, case in enumerate(self.cases):
            if float(np.linalg.norm(case.x0)) > self.M * (1 + 1e-12):
                raise ValueError(f"case {k}: |x0| exceeds M")
            if case.u.bound > self.N * (1 + 1e-12):
                raise ValueError(f"case {k}: disturbance bound exceeds N")
            if case.assert_envelope and not admissible(self.guard, case.partition, case.e):
                raise ValueError(
                    f"case {k}: not admissible for the guard; tag it assert_envelope=False")


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
    horizon), whose trials step in the same lockstep batch as the cases,
    after them; its result is the report's adversarial dict.
    """
    return _run(c, c.cases, _trials(c, budget, seed, horizon) if budget else [])


def _run(c: Campaign, cases: list, trials: list) -> CampaignReport:
    """The report on cases and the worst of trials ((case, step, kind) as
    random_cases yields them), from one lockstep batch of the cases' rows,
    then the trials', read in that order. Each block is folded into every
    row's margins as it is stepped, and no path is kept. gamma(N) and the
    inverse of M are taken once, each |x0| inverted once; with no rows, not
    at all."""
    stream = cases + [case for case, _, _ in trials]
    if not stream:
        return CampaignReport([], None)
    env, S, B = c.envelope, c.loop.substeps, len(stream)
    vM, g = env.tables.lower_inv(c.M), env.gamma(c.N)
    v0 = np.array([[env.tables.lower_inv(float(np.linalg.norm(case.x0)))]
                   for case in stream])
    # per row: the least additive, max-form and refined-grid margin, the
    # first violation time, and the decrease steps checked and failed
    add, max_form, fine = (np.full(B, math.inf) for _ in range(3))
    first_t = np.full(B, math.nan)
    checked, failed = np.zeros(B, dtype=int), np.zeros(B, dtype=int)

    def fold(r, first, x, t, held, count):
        ok = first + np.arange(t.shape[1]) < count[:, None]
        norms = np.linalg.norm(x, axis=-1)   # as Trajectory.norms()
        a = np.where(ok, env.additive_from(v0[r], g, t) - norms, math.inf)
        mf = np.where(ok, env.bound_from(vM, g, t) - norms, math.inf)
        # refined grid: interval midpoints with linearly interpolated states
        f = np.where(ok[:, 1:], env.additive_from(v0[r], g, 0.5 * (t[:, :-1] + t[:, 1:]))
                     - 0.5 * (norms[:, :-1] + norms[:, 1:]), math.inf)
        for acc, m in ((add, a), (max_form, mf), (fine, f)):
            acc[r] = np.minimum(acc[r], m.min(axis=1))
        hit = (a < 0.0) | (mf < 0.0)
        new = np.flatnonzero(hit.any(axis=1) & np.isnan(first_t[r]))
        first_t[r[new]] = t[new, hit[new].argmax(axis=1)]
        if c.check_decrease:   # a step counts once its end is in the record
            at = ok[:, ::S]
            v_i, _, margin = _decrease_margins(_valid(c.clf.V, x[:, ::S], at), t[:, ::S])
            steps = at[:, 1:] & (v_i > c.s_level)
            checked[r] += steps.sum(axis=1)
            failed[r] += (steps & (margin > 0.0)).sum(axis=1)

    _, statuses = _lockstep(c.loop, [k.partition for k in stream],
                            [k.x0 for k in stream], [k.u for k in stream],
                            [k.e for k in stream], fold)
    rows = []
    found = {"violation_margin": -math.inf, "case": None, "status": None}
    for k, (case, status) in enumerate(zip(stream, statuses)):
        add_m, max_m = float(add[k]), float(max_form[k])
        diverged = status.diverged
        if k >= len(cases):   # an adversarial trial; blow-ups are unbounded
            viol = math.inf if diverged else -add_m
            if viol > found["violation_margin"]:
                _, step, kind = trials[k - len(cases)]
                found = {
                    "violation_margin": viol,
                    "case": {"x0": case.x0.tolist(), "step": step,
                             "disturbance": kind, "e_bound": case.e.bound,
                             "index": k - len(cases)},
                    "status": status.kind,
                }
            continue
        row = {
            "id": k,
            "label": case.label,
            "status": status.kind,
            "asserted": bool(case.assert_envelope),
            "worst_margin": min(add_m, max_m),
            "margin_additive": add_m,
            "margin_maxform": max_m,
            "margin_additive_fine": min(add_m, float(fine[k])),
            "first_violation_t": None if math.isnan(first_t[k]) else float(first_t[k]),
            "pass": (bool(not diverged and add_m >= 0.0 and max_m >= 0.0)
                     if case.assert_envelope else None),
        }
        if c.check_decrease:   # decrease_check's exclusions: a run that did not
            # complete (or left the CLF estimate region), or too coarse a partition
            excluded = (status.kind != COMPLETED
                        or upper_diameter(case.partition) >= c.guard.delta)
            row["decrease"] = {"checked": 0 if excluded else int(checked[k]),
                               "excluded": excluded,
                               "violations": 0 if excluded else int(failed[k])}
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
