"""Sampled-data closed-loop simulation with hold-and-integrate semantics.

On each partition interval the feedback is evaluated once, at the sampled
state plus the observation error, and held; the continuous dynamics with the
actuator disturbance are then integrated by fixed-step RK4. Runs terminate at
the horizon, at escape past a configurable radius, or on a nonfinite state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .clf import AlphaTables, Clf
from .core import (BLOWUP, COMPLETED, DEFAULT_ESCAPE_RADIUS, LEFT_DOMAIN,
                   NUMERICAL_FAILURE, ControlAffineSystem, FullyNonlinearSystem,
                   Partition, Signal, Status, Trajectory, Vector, as_vector,
                   lower_diameter, rowdot, rowwise, unit_rows, upper_diameter,
                   zero_signal)
from .feedback import Feedback

DOMAIN_EXIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Closed-loop right-hand side (x, held, disturbance) -> dx/dt plus knobs.

    domain_margin, when given, is a scalar function whose zero set marks the
    boundary of the region where the CLF estimates are valid; a sign change or
    a near-zero value along the run flags the trajectory as having left that
    region (the run itself continues to the horizon).
    """

    n: int
    m: int
    F: Callable[[Vector, Vector, Vector], Vector]
    feedback: Feedback
    substeps: int = 16
    escape_radius: float = DEFAULT_ESCAPE_RADIUS
    domain_margin: Callable[[Vector], float] | None = None

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")
        if self.escape_radius <= 0:
            raise ValueError("escape_radius must be positive")


def affine_loop(sys: ControlAffineSystem, feedback: Feedback, substeps: int = 16,
                escape_radius: float = DEFAULT_ESCAPE_RADIUS,
                domain_margin=None) -> ClosedLoop:
    """Loop dx/dt = f(x) + G(x)(held + disturbance)."""

    f, G = sys.f, sys.G

    def F(x, p, u):
        return f(x) + G(x) @ (p + u)

    return ClosedLoop(sys.n, sys.m, F, feedback, substeps, escape_radius, domain_margin)


def nonlinear_loop(sys: FullyNonlinearSystem, feedback: Feedback,
                   substeps: int = 16,
                   escape_radius: float = DEFAULT_ESCAPE_RADIUS) -> ClosedLoop:
    """Loop dx/dt = f(x, held + disturbance)."""

    f = sys.f

    def F(x, p, u):
        return f(x, p + u)

    return ClosedLoop(sys.n, sys.m, F, feedback, substeps, escape_radius)


def _rk4_step(F, x, t, h, p, u_eval):
    u0 = u_eval(t)
    k1 = F(x, p, u0)
    um = u_eval(t + 0.5 * h)
    k2 = F(x + (0.5 * h) * k1, p, um)
    k3 = F(x + (0.5 * h) * k2, p, um)
    u1 = u_eval(t + h)
    k4 = F(x + h * k3, p, u1)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _hold(loop: ClosedLoop, x, t0: float, t1: float, held, u: Signal):
    """Hold the control over [t0, t1]: yields (tau, t, x) after each of the
    loop's RK4 substeps from tau to t, the last one ending at t1 exactly."""
    h = (t1 - t0) / loop.substeps
    for k in range(loop.substeps):
        tau = t0 + k * h
        x = _rk4_step(loop.F, x, tau, h, held, u.eval)
        yield tau, (t1 if k == loop.substeps - 1 else tau + h), x


def sample_solve(loop: ClosedLoop, partition: Partition, x0,
                 u: Signal | None = None, e: Signal | None = None) -> Trajectory:
    """Run the hold-and-integrate recursion over the partition.

    The held control on [t_i, t_{i+1}) is feedback(x_i + e(t_i)). Escape past
    escape_radius records a blow-up time rather than raising; a nonfinite state
    is a numerical failure.
    """
    u = u if u is not None else zero_signal(loop.m)
    e = e if e is not None else zero_signal(loop.n)
    if u.dim != loop.m or e.dim != loop.n:
        raise ValueError("signal dimensions must match the loop")

    times = partition.times
    x = as_vector(x0, loop.n).copy()
    dense_t = [0.0]
    dense_x = [x]
    dense_idx = [0]
    held_list = []

    monitor = loop.domain_margin
    left_at = None
    margin_prev = monitor(x) if monitor is not None else None

    def watch(state, t):
        # the first state whose margin is near zero or has changed sign
        nonlocal left_at, margin_prev
        if monitor is not None and left_at is None:
            m = monitor(state)
            if abs(m) < DOMAIN_EXIT_TOL or m * margin_prev < 0:
                left_at = t
            margin_prev = m

    terminal, completed = None, partition.intervals
    if float(np.linalg.norm(x)) > loop.escape_radius:
        terminal = Status(BLOWUP, 0.0, "initial state beyond escape radius")
        completed = 0
    for i in range(completed):
        t0, t1 = float(times[i]), float(times[i + 1])
        x_tilde = x + e.eval(t0)
        held = as_vector(loop.feedback.eval(x_tilde), loop.m)
        held_list.append(held)
        watch(x_tilde, t0)
        for tau, t_new, x in _hold(loop, x, t0, t1, held, u):
            if not np.all(np.isfinite(x)):
                terminal = Status(NUMERICAL_FAILURE, tau, "nonfinite state")
                break
            dense_t.append(t_new)
            dense_x.append(x)
            dense_idx.append(i)
            if float(np.linalg.norm(x)) > loop.escape_radius:
                terminal = Status(BLOWUP, t_new, "escape radius reached")
                break
            watch(x, t_new)
        if terminal is not None:
            completed = i
            break

    status = terminal or Status(COMPLETED)
    if terminal is None and left_at is not None:
        status = Status(LEFT_DOMAIN, left_at, "left CLF estimate region")
    elif terminal is not None and left_at is not None:
        status = Status(terminal.kind, terminal.time,
                        terminal.detail + f"; left CLF estimate region at t={left_at:g}")

    # each interval adds substeps dense rows, so the end state of a completed
    # one is every substeps-th dense row
    dense = np.array(dense_x)
    return Trajectory(partition, times[:completed + 1],
                      dense[:completed * loop.substeps + 1:loop.substeps],
                      np.array(dense_t), dense,
                      np.array(held_list) if held_list else np.zeros((0, loop.m)),
                      np.array(dense_idx), status)


@dataclass(frozen=True, eq=False)
class GronwallReport:
    intervals: np.ndarray
    error_norms: np.ndarray
    observed: np.ndarray
    bounds: np.ndarray

    @property
    def worst_ratio(self) -> float:
        mask = self.bounds > 0
        if not mask.any():
            return 0.0
        return float(np.max(self.observed[mask] / self.bounds[mask]))

    def rows(self):
        return [
            {"interval": int(i), "e_norm": float(en), "observed": float(ob),
             "bound": float(bd), "margin": float(bd - ob)}
            for i, en, ob, bd in zip(self.intervals, self.error_norms,
                                     self.observed, self.bounds)
        ]


def gronwall_gap(loop: ClosedLoop, partition: Partition, x0,
                 u: Signal | None = None, e: Signal | None = None,
                 L: float = 1.0, delta: float | None = None) -> GronwallReport:
    """Per-interval gap between the run and its error-shifted companion.

    Both trajectories share the held control computed from the noisy sample;
    they differ only in the interval's initial state, which is offset by the
    observation error. The reported bound is |e(t_i)| exp(L delta) with delta
    defaulting to the upper diameter.
    """
    u = u if u is not None else zero_signal(loop.m)
    e = e if e is not None else zero_signal(loop.n)
    if delta is None:
        delta = upper_diameter(partition)
    times = partition.times
    x = as_vector(x0, loop.n).copy()
    idx, errs, obs, bds = [], [], [], []
    for i in range(partition.intervals):
        t0, t1 = float(times[i]), float(times[i + 1])
        err = as_vector(e.eval(t0), loop.n)
        x_tilde = x + err
        held = as_vector(loop.feedback.eval(x_tilde), loop.m)
        gap = float(np.linalg.norm(x - x_tilde))
        ok = True
        for (_, _, xa), (_, _, xb) in zip(_hold(loop, x, t0, t1, held, u),
                                          _hold(loop, x_tilde, t0, t1, held, u)):
            if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
                ok = False
                break
            gap = max(gap, float(np.linalg.norm(xa - xb)))
            if max(np.linalg.norm(xa), np.linalg.norm(xb)) > loop.escape_radius:
                ok = False
                break
        idx.append(i)
        errs.append(float(np.linalg.norm(err)))
        obs.append(gap)
        bds.append(float(np.linalg.norm(err)) * math.exp(L * delta))
        if not ok:
            break
        x = xa
    return GronwallReport(np.array(idx), np.array(errs), np.array(obs), np.array(bds))


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling budget and safety margin for constant estimation."""

    points: int = 4096
    pairs: int = 10000
    inflation: float = 1.25
    seed: int = 0
    p_grid: int = 512


@dataclass(frozen=True, eq=False)
class RateGuard:
    """Admissibility thresholds plus the constants they were derived from.

    delta bounds the admissible upper partition diameter; kappa bounds the
    observation-noise-to-lower-diameter ratio. All constants are estimated by
    sampling and adjusted in the conservative direction by the probe config's
    inflation factor; diagnostics carries the raw estimates.
    """

    delta: float
    kappa: float
    epsilon: float
    M: float
    N: float
    lambda_minus: float
    lambda_plus: float
    L_eps: float
    L_f: float
    L_G: float
    L: float
    R: float
    eps_tilde: float
    sigma: float
    mu: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.delta <= 0 or self.kappa <= 0:
            raise ValueError("guard thresholds must be positive")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("delta", "kappa", "epsilon", "M", "N", "lambda_minus",
                 "lambda_plus", "L_eps", "L_f", "L_G", "L", "R", "eps_tilde",
                 "sigma", "mu")}


def kappa_formula(lambda_minus: float, epsilon: float, L_eps: float, L: float,
                  delta: float) -> float:
    """Noise-to-step ratio min(lambda_minus, epsilon) / (16 L_eps (e^{L delta} + 1))."""
    return min(lambda_minus, epsilon) / (16.0 * L_eps * (math.exp(L * delta) + 1.0))


def _annulus_points(rng, dim, r_in, r_out, count):
    dirs = unit_rows(rng, count, dim)
    radii = rng.uniform(r_in, r_out, size=count)
    pts = dirs * radii[:, None]
    # pin a share of probes to the boundary shells where extrema live
    edge = max(count // 8, 1)
    pts[:edge] = dirs[:edge] * r_in
    pts[edge:2 * edge] = dirs[edge:2 * edge] * r_out
    return pts


def _diff_norms(d: np.ndarray) -> np.ndarray:
    """Norms of a batch of differences: absolute values of scalars, Euclidean
    norms of vectors, spectral norms of matrices."""
    if d.ndim == 1:
        return np.abs(d)
    if d.ndim == 2:
        return np.sqrt(rowdot(d, d))
    return np.linalg.norm(d, 2, axis=(-2, -1))


def _pair_lipschitz(values, pts, rng, pairs):
    """Largest |values[a] - values[b]| / |pts[a] - pts[b]| over random pairs.

    values holds a function's values at the probe points pts, one row each.
    Pairs that repeat a probe or whose gap is below 1e-12 are skipped; the
    result is never below 0.
    """
    i = rng.integers(0, pts.shape[0], size=pairs)
    j = rng.integers(0, pts.shape[0], size=pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    gap = _diff_norms(pts[i] - pts[j])
    far = gap >= 1e-12
    ratios = _diff_norms(values[i[far]] - values[j[far]]) / gap[far]
    return float(np.max(ratios, initial=0.0))


def estimate_rate_guard(loop: ClosedLoop, clf: Clf, tables: AlphaTables,
                        epsilon: float, M: float, N: float,
                        sys: ControlAffineSystem,
                        probe: ProbeConfig = ProbeConfig()) -> RateGuard:
    """Estimate the sampling-rate guard constants on the working compact set.

    The working annulus has outer radius upper(lower_inv(N + M)) + 1 and inner
    radius epsilon. Extrema of the value function, Lipschitz constants of the
    value function and of the dynamics, and the feedback sup are estimated by
    dense sampling, each adjusted in the conservative direction by the
    inflation factor. The admissible step bound comes from a bisection for the
    largest overflow margin the outer-radius table tolerates, and the
    noise-to-step ratio from kappa_formula.
    """
    if epsilon <= 0 or M <= 0 or N < 0:
        raise ValueError("need epsilon, M > 0 and N >= 0")
    rng = np.random.default_rng(probe.seed)
    outer = float(tables.upper_at(tables.lower_inv(N + M))) + 1.0
    if epsilon >= outer:
        raise ValueError("probe region is empty: epsilon exceeds the working radius")
    infl = probe.inflation

    half = _annulus_points(rng, loop.n, epsilon / 2.0, outer + epsilon / 2.0, probe.points)
    full = _annulus_points(rng, loop.n, 0.0, outer + epsilon, probe.points)

    v_half = rowwise(clf.V(half), half)
    v_full = rowwise(clf.V(full), full)
    lam_minus_raw = float(np.min(v_half))
    lam_plus_raw = float(np.max(v_full))
    lam_minus = lam_minus_raw / infl
    lam_plus = lam_plus_raw * infl

    L_eps_raw = _pair_lipschitz(v_half, half, rng, probe.pairs)
    L_eps = max(L_eps_raw * infl, 1.0 + 1e-9)

    f_full = rowwise(sys.f(full), full, (sys.n,))
    G_full = rowwise(sys.G(full), full, (sys.n, sys.m))
    L_f_raw = _pair_lipschitz(f_full, full, rng, probe.pairs)
    L_G_raw = _pair_lipschitz(G_full, full, rng, probe.pairs)
    L_f = L_f_raw * infl
    L_G = L_G_raw * infl

    sup_K_raw = max(float(np.linalg.norm(as_vector(loop.feedback.eval(p), loop.m)))
                    for p in half)
    R = N + sup_K_raw * infl
    L = L_f + R * L_G

    # semiconcavity diagnostics only: midpoint constant and probe scale; the
    # draws stay one pair at a time so the random stream is unchanged
    mu = epsilon / 4.0
    count = min(probe.pairs, 2000)
    centre = np.empty(count, dtype=int)
    dx = np.empty((count, loop.n))
    for k in range(count):
        centre[k] = rng.integers(0, half.shape[0])
        dx[k] = rng.uniform(-mu, mu, size=loop.n)
    p = half[centre]
    a, b = p + dx, p - dx
    gap2 = np.sum((a - b) ** 2, axis=1)
    abp = np.stack([a, b, p])
    va, vb, vp = rowwise(clf.V(abp), abp)
    far = gap2 >= 1e-30
    c = (va + vb - 2.0 * vp)[far] / gap2[far]
    sigma = float(np.max(c, initial=0.0))

    # largest overflow margin the outer-radius table tolerates
    p_top = float(tables.lower_inv(N)) + lam_plus
    p_grid = np.linspace(0.0, p_top, probe.p_grid)
    base = tables.upper_at(p_grid)

    def margin_ok(et):
        return bool(np.all(tables.upper_at(p_grid + L_eps * et / 4.0)
                           <= base + epsilon / 8.0 + 1e-15))

    lo_e, hi_e = 0.0, epsilon
    if not margin_ok(epsilon * 1e-9):
        raise ValueError("tables too coarse to certify any overflow margin")
    if margin_ok(epsilon):
        eps_tilde = epsilon
    else:
        for _ in range(60):
            mid = 0.5 * (lo_e + hi_e)
            if margin_ok(mid):
                lo_e = mid
            else:
                hi_e = mid
        eps_tilde = lo_e
    eps_tilde *= 0.99

    delta = 0.999 * eps_tilde / (16.0 + 17.0 * lam_plus)
    kappa = kappa_formula(lam_minus, epsilon, L_eps, L, delta)

    diag = {
        "lambda_minus_raw": lam_minus_raw, "lambda_plus_raw": lam_plus_raw,
        "L_eps_raw": L_eps_raw, "L_f_raw": L_f_raw, "L_G_raw": L_G_raw,
        "sup_K_raw": sup_K_raw, "outer_radius": outer,
        "levels_saturated": not tables.in_range(p_top),
    }
    return RateGuard(delta, kappa, epsilon, M, N, lam_minus, lam_plus, L_eps,
                     L_f, L_G, L, R, eps_tilde, sigma, mu, diag)


def admissible(guard: RateGuard, p: Partition, e: Signal) -> bool:
    """Strict diameter test plus the noise-to-lower-diameter bound."""
    return (upper_diameter(p) < guard.delta
            and e.bound <= guard.kappa * lower_diameter(p))


@dataclass(frozen=True, eq=False)
class DecreaseReport:
    admissible: bool
    excluded: bool
    reason: str
    checked: int
    violations: list
    worst_margin: float

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible, "excluded": self.excluded,
            "reason": self.reason, "checked": self.checked,
            "violations": self.violations, "worst_margin": self.worst_margin,
        }


def decrease_check(traj: Trajectory, clf: Clf, guard: RateGuard | None = None,
                   S_level: float = 0.0, rel_tol: float = 1e-4,
                   abs_tol: float = 0.0) -> DecreaseReport:
    """Assert the per-step value decrease V(x_{i+1}) - V(x_i) <= -dt/16 V(x_i).

    Pairs whose value sits at or below S_level are skipped (that sublevel set
    is where the disturbance-driven overflow lives). Runs flagged as having
    left the CLF's estimate region, and runs whose partition violates the
    guard's diameter bound, are reported as excluded rather than asserted.
    """
    if traj.status.kind == LEFT_DOMAIN:
        return DecreaseReport(True, True, "trajectory left the CLF estimate region",
                              0, [], 0.0)
    if traj.status.kind != COMPLETED:
        return DecreaseReport(True, True, f"run status {traj.status.kind}", 0, [], 0.0)
    if guard is not None and upper_diameter(traj.partition) >= guard.delta:
        return DecreaseReport(False, True, "partition exceeds the admissible diameter",
                              0, [], 0.0)
    vals = rowwise(clf.V(traj.sample_states), traj.sample_states)
    v0 = vals[:-1]
    rhs = -np.diff(traj.sample_times) / 16.0 * v0
    margin = np.diff(vals) - (rhs + rel_tol * v0 + abs_tol)
    checked = v0 > S_level
    violations = [{"interval": int(i), "lhs": float(vals[i + 1] - vals[i]),
                   "rhs": float(rhs[i]), "margin": float(margin[i])}
                  for i in np.nonzero(checked & (margin > 0.0))[0]]
    worst = float(np.max(margin[checked], initial=0.0))
    return DecreaseReport(True, False, "", int(np.count_nonzero(checked)),
                          violations, worst)
