"""Euler solutions as refinement limits of sampled runs.

A refinement schedule shrinks the partition diameter while the observation
noise shrinks faster than the lower diameter; the study certifies convergence
only as a Cauchy property of the computed sequence over the finite horizon.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .clf import IssEnvelope
from .core import (Signal, Trajectory, as_vector, constant_signal,
                   lower_diameter, make_partition, upper_diameter, zero_signal)
from .sampler import ClosedLoop, sample_solve_batch
# not called here; the benchmark's tracer (perfbench/tracer.py) patches it
from .sampler import sample_solve  # noqa: F401


@dataclass(frozen=True, eq=False)
class RefinementSchedule:
    """Shrinking partitions with noise vanishing faster than the lower diameter.

    Every level runs under the one disturbance inputs.
    """

    partitions: list
    errors: list
    inputs: Signal

    def __post_init__(self):
        if not self.partitions:
            raise ValueError("a refinement schedule needs at least one level")
        if len(self.partitions) != len(self.errors):
            raise ValueError("need one error signal per partition")
        dbars = [upper_diameter(p) for p in self.partitions]
        for a, b in zip(dbars, dbars[1:]):
            if b >= a:
                raise ValueError("upper diameters must strictly decrease")
        ratios = self.noise_ratios()
        for a, b in zip(ratios, ratios[1:]):
            if b > a + 1e-12:
                raise ValueError("noise-to-lower-diameter ratios must not increase")

    @property
    def levels(self) -> int:
        return len(self.partitions)

    def noise_ratios(self) -> list:
        return [e.bound / lower_diameter(p)
                for p, e in zip(self.partitions, self.errors)]


def geometric_schedule(base_step: float, levels: int, horizon: float,
                       input_signal: Signal | None = None, dim_e: int = 1,
                       error_exponent: float | None = 2.0,
                       seed: int = 0) -> RefinementSchedule:
    """Uniform partitions with steps base_step * 2^-r and noise sup = step^exponent.

    error_exponent None produces noise-free levels. Without an input signal
    the disturbance is the one-input zero signal.
    """
    d = np.random.default_rng(seed).normal(size=dim_e)
    d = d / np.linalg.norm(d)
    parts, errs = [], []
    for r in range(levels):
        step = base_step * 2.0 ** (-r)
        parts.append(make_partition("uniform", horizon, step))
        mag = 0.0 if error_exponent is None else step ** error_exponent
        errs.append(constant_signal(mag * d) if mag > 0 else zero_signal(d.size))
    u = input_signal if input_signal is not None else zero_signal(1)
    return RefinementSchedule(parts, errs, u)


@dataclass(frozen=True, eq=False)
class EulerStudy:
    levels: list                   # per-level dicts
    verdict: bool
    divergent_level: int | None
    divergent_time: float | None
    limit: Trajectory | None
    grid_times: np.ndarray | None
    limit_states: np.ndarray | None

    def to_dict(self, worst_env_margin: float | None = None) -> dict:
        return {
            "levels": self.levels,
            "verdict": self.verdict,
            "divergent_level": self.divergent_level,
            "divergent_time": self.divergent_time,
            "worst_env_margin": worst_env_margin,
        }


def euler_study(loop: ClosedLoop, schedule: RefinementSchedule, x0) -> EulerStudy:
    """Run every refinement level and measure sup-distances between neighbours.

    The levels step as one lockstep batch, one row per level from the same
    x0, and are read back in level order. Trajectories are linearly
    interpolated onto a shared 4096-point grid before comparing. The verdict
    is true when the last three distance ratios stay at or below 0.8; a
    blow-up at any level is reported as a divergent level and the report
    stops there (the finer levels have run, but are not read).
    """
    horizon = min(p.horizon for p in schedule.partitions)
    grid = np.linspace(0.0, horizon, 4096)
    L = schedule.levels
    trajs = sample_solve_batch(loop, schedule.partitions, [x0] * L,
                               [schedule.inputs] * L, schedule.errors)
    rows, distances, states, finest, divergent = [], [], None, None, None
    for r, (part, traj) in enumerate(zip(schedule.partitions, trajs)):
        rows.append({
            "delta_bar": upper_diameter(part),
            "delta_lower": lower_diameter(part),
            "sup_e": schedule.errors[r].bound,
            "distance_to_prev": None,
        })
        if traj.status.diverged:
            divergent = r
            break
        prev, states, finest = states, traj.state_at(grid), traj
        if prev is not None:
            rows[-1]["distance_to_prev"] = float(
                np.max(np.linalg.norm(states - prev, axis=1)))
            distances.append(rows[-1]["distance_to_prev"])

    # each of the last three ratios of neighbouring distances is at most 0.8;
    # over a zero distance the ratio is 0 if the next is zero too, else inf.
    # A lone distance is taken over zero, so degenerate schedules (identical
    # runs) converge trivially
    pairs = list(zip(distances, distances[1:])) or [(0.0, d) for d in distances]
    verdict = divergent is None and all(
        b <= 0.0 if a <= 0.0 else b / a <= 0.8 for a, b in pairs[-3:])
    t_div = None if divergent is None else trajs[divergent].status.time
    return EulerStudy(rows, verdict, divergent, t_div, finest,
                      grid if finest is not None else None, states)


@dataclass(frozen=True, eq=False)
class IssCheck:
    worst_margin: float
    first_violation_t: float | None
    violations: int
    checked: int

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return asdict(self)


def check_iss_euler(traj: Trajectory, env: IssEnvelope, x0,
                    u_bound: float) -> IssCheck:
    """Pointwise additive envelope check |x(t)| <= beta(|x0|, t) + gamma(N) + overflow."""
    x0n = float(np.linalg.norm(as_vector(x0)))
    return additive_check(env, env.tables.lower_inv(x0n), env.gamma(u_bound),
                          traj.dense_times, traj.norms())


def additive_check(env: IssEnvelope, v, g, t, norms) -> IssCheck:
    """check_iss_euler at the times t with state norms norms, from the
    envelope's inverted terms v = tables.lower_inv(|x0|) and g = gamma(N)."""
    margins = env.additive_from(v, g, t) - norms
    bad = np.nonzero(margins < 0.0)[0]
    first = float(t[bad[0]]) if bad.size else None
    return IssCheck(float(np.min(margins)), first, int(bad.size), int(t.size))
