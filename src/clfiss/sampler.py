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
                   lower_diameter, rowdot, rowwise, signal_at, unit_rows,
                   upper_diameter, zero_signal)
from .feedback import Feedback

DOMAIN_EXIT_TOL = 1e-9
# sample_solve_batch evaluates each row's signals once per block of this many
# intervals, so its signal tables do not grow with the horizon; 16 keeps them
# to tens of kilobytes at a few rows (64 raised the benchmark's peak RSS by
# ~0.15 MB) while one call still covers 48 * substeps RK4 stage times
BLOCK = 16


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Closed-loop right-hand side (x, held, disturbance) -> dx/dt plus knobs.

    F is row-wise: states (..., n), held controls and disturbances (..., m)
    map to (..., n), each row as it would map alone. domain_margin, when
    given, is a row-wise function, (..., n) to (...), whose zero set marks the
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
    domain_margin: Callable[[Vector], np.ndarray] | None = None

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
        # G times a one-column matrix, which is bit for bit the 1-D G(x) @ w
        return f(x) + (G(x) @ (p + u)[..., None])[..., 0]

    return ClosedLoop(sys.n, sys.m, F, feedback, substeps, escape_radius, domain_margin)


def nonlinear_loop(sys: FullyNonlinearSystem, feedback: Feedback,
                   substeps: int = 16,
                   escape_radius: float = DEFAULT_ESCAPE_RADIUS) -> ClosedLoop:
    """Loop dx/dt = f(x, held + disturbance)."""

    f = sys.f

    def F(x, p, u):
        return f(x, p + u)

    return ClosedLoop(sys.n, sys.m, F, feedback, substeps, escape_radius)


def _rk4_step(F, x, h, p, u0, um, u1):
    """One RK4 step of length h holding p, with the disturbance u0, um and u1
    at its start, midpoint and end."""
    k1 = F(x, p, u0)
    k2 = F(x + (0.5 * h) * k1, p, um)
    k3 = F(x + (0.5 * h) * k2, p, um)
    k4 = F(x + h * k3, p, u1)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_times(t0, t1, substeps: int) -> np.ndarray:
    """The RK4 stage times (tau, tau + h/2, tau + h) of every substep of the
    intervals [t0, t1], shape t0.shape + (substeps, 3), by the float
    operations _hold steps with: h = (t1 - t0) / substeps, tau = t0 + k h."""
    h = ((t1 - t0) / substeps)[..., None]
    tau = t0[..., None] + np.arange(substeps) * h
    return np.stack([tau, tau + 0.5 * h, tau + h], axis=-1)


def _take(v, keep):
    """The rows keep of a column; a float shared by every row stays as it is."""
    return v if isinstance(v, float) else v[keep]


def _hold(loop: ClosedLoop, x, t0, t1, held, u, after):
    """Hold each row's control over its own [t0, t1] through the loop's RK4
    substeps, all rows at once.

    x and held are (B, n) and (B, m), t0 and t1 (B, 1) columns, or floats
    when every row shares them, and u (B, substeps, 3, m) holds each row's
    disturbance at the stage times of _stage_times. After each substep from
    tau to t (the last one ends at t1 exactly), after(tau, t, x) returns the
    positions of the rows to go on with, or None for all of them. Returns the
    states of the rows that reach t1.
    """
    h = (t1 - t0) / loop.substeps
    last = loop.substeps - 1
    for k in range(loop.substeps):
        tau = t0 + k * h
        x = _rk4_step(loop.F, x, h, held, u[:, k, 0], u[:, k, 1], u[:, k, 2])
        keep = after(tau, t1 if k == last else tau + h, x)
        if keep is not None:
            x, held, u = x[keep], held[keep], u[keep]
            t0, t1, h = _take(t0, keep), _take(t1, keep), _take(h, keep)
            if not keep.size:
                break
    return x


def sample_solve_batch(loop: ClosedLoop, partitions, x0, u=None,
                       e=None) -> list:
    """Run the hold-and-integrate recursion for B independent rows in lockstep.

    Row j runs on partitions[j] from x0[j] under the disturbance u[j] and the
    observation error e[j] (None, or a None entry, is the zero signal), with
    its own interval boundaries and substep length. Every row takes interval
    i together; a row that reaches its horizon, escapes or turns nonfinite
    leaves the batch. Returns one Trajectory per row, byte for byte the one
    the row gives alone, as sample_solve describes. The feedback is called
    once per interval, on the noisy samples of every running row; each row's
    disturbance and noise once per BLOCK intervals, at their RK4 stage times
    and sample times.
    """
    B, n, m, S = len(partitions), loop.n, loop.m, loop.substeps
    u = [zero_signal(m) if s is None else s for s in (u or [None] * B)]
    e = [zero_signal(n) if s is None else s for s in (e or [None] * B)]
    if not len(x0) == len(u) == len(e) == B:
        raise ValueError("need one x0, disturbance and error per partition")
    if any(s.dim != m for s in u) or any(s.dim != n for s in e):
        raise ValueError("signal dimensions must match the loop")
    if not B:
        return []
    x = np.array([as_vector(v, n) for v in x0]).reshape(B, n)
    K = np.array([p.intervals for p in partitions], dtype=int)
    k_max = int(K.max(initial=0))
    times = np.full((B, k_max + 1), np.nan)
    for j, p in enumerate(partitions):
        times[j, :K[j] + 1] = p.times
    # interval i is shared when every row that reaches it has the same ends,
    # and some row's last interval is i - 1 when ends[i]
    same = (np.nanmin(times, axis=0) == np.nanmax(times, axis=0)).tolist()
    ends = np.isin(np.arange(k_max), K).tolist()
    # each running row writes dense row s at the run's s-th substep
    dense_x = np.empty((B, k_max * S + 1, n))
    dense_t = np.empty((B, k_max * S + 1))
    held_all = np.empty((B, k_max, m))
    dense_x[:, 0], dense_t[:, 0] = x, 0.0
    # per row: dense rows, whole intervals and held controls at its end
    count, done, held_n = K * S + 1, K.copy(), K.copy()
    terminal = [None] * B
    left_at = np.full(B, np.nan)
    # a state whose norm is at most limit is finite and inside the radius
    limit = min(loop.escape_radius, float(np.finfo(float).max))
    monitor = loop.domain_margin

    # the running rows: their count and ids (a slice while none has
    # stopped), their disturbance at the stage times and their noise at the
    # sample times of the current block of intervals, their last domain
    # margins, and the positions among them of the rows still watched (a
    # slice while all are, None when there is no monitor or none is left); x
    # holds their states
    live, rows = B, slice(0, B)
    u_tab, e_tab = np.empty((B, 0, S, 3, m)), np.empty((B, 0, n))
    prev = rowwise(monitor(x), x) if monitor is not None else None
    watched = slice(0, B) if monitor is not None else None

    def ids(pos):
        # the row ids at positions pos among the running rows
        return np.arange(B)[rows][pos]

    def select(keep):
        # go on with the running rows at positions keep only
        nonlocal live, rows, u_tab, e_tab, prev, watched
        if isinstance(watched, slice):
            watched = np.arange(live)
        if watched is not None:
            # positions of kept rows, then those of the kept watched rows
            where = np.full(live, -1)
            where[keep] = np.arange(keep.size)
            watched = where[watched][where[watched] >= 0]
            prev = prev[keep]
        live, rows = keep.size, ids(keep)
        u_tab, e_tab = u_tab[keep], e_tab[keep]

    def per_row(t, pos):
        # the times of the running rows at positions pos, t a float or column
        return np.broadcast_to(np.ravel(t), (live,))[pos]

    def tabulate(i):
        # each running row's signals over its intervals i, ..., i + BLOCK - 1
        # (fewer where its partition ends sooner), one call per signal
        nonlocal u_tab, e_tab
        span = times[rows, i:i + BLOCK + 1]
        stages = _stage_times(span[:, :-1], span[:, 1:], S)
        u_tab = np.empty(stages.shape + (m,))
        e_tab = np.empty(span[:, :-1].shape + (n,))
        for r, j in enumerate(ids(slice(None)).tolist()):
            k = min(BLOCK, K[j] - i)
            u_tab[r, :k] = signal_at(u[j], stages[r, :k])
            e_tab[r, :k] = signal_at(e[j], span[r, :k])

    def watch(states, t):
        # the first state whose margin is near zero or has changed sign
        nonlocal watched
        margin = rowwise(monitor(states[watched]), states[watched])
        hit = (np.abs(margin) < DOMAIN_EXIT_TOL) | (margin * prev[watched] < 0)
        prev[watched] = margin
        if np.count_nonzero(hit):
            pos = np.arange(live)[watched]
            left_at[ids(pos[hit])] = per_row(t, pos[hit])
            watched = pos[~hit] if (~hit).any() else None

    def stop(pos, t, kind, detail, recorded):
        stopped = ids(pos)
        for j, tj in zip(stopped.tolist(), per_row(t, pos).tolist()):
            terminal[j] = Status(kind, tj, detail)
        count[stopped], done[stopped], held_n[stopped] = recorded, i, i + 1

    def after(tau, t, x):
        nonlocal step
        step += 1
        norms = np.sqrt(rowdot(x, x))
        if norms.max() <= limit:   # false at a nan norm too
            dense_x[rows, step] = x
            dense_t[rows, step] = t if isinstance(t, float) else t[:, 0]
            if watched is not None:
                watch(x, t)
            return None
        # some row is nonfinite or at or past the escape radius
        bad = ~np.isfinite(x).all(axis=1)
        stop(bad, tau, NUMERICAL_FAILURE, "nonfinite state", step)
        ok = np.flatnonzero(~bad)
        dense_x[ids(ok), step] = x[ok]
        dense_t[ids(ok), step] = per_row(t, ok)
        out = np.zeros_like(bad)
        out[ok] = norms[ok] > loop.escape_radius
        stop(out, t, BLOWUP, "escape radius reached", step + 1)
        keep = np.flatnonzero(~(bad | out))
        t = per_row(t, keep)[:, None]
        select(keep)
        if watched is not None:
            watch(x[keep], t)
        return keep

    out = np.sqrt(rowdot(x, x)) > loop.escape_radius
    for j in np.flatnonzero(out).tolist():
        terminal[j] = Status(BLOWUP, 0.0, "initial state beyond escape radius")
    count[out], done[out], held_n[out] = 1, 0, 0
    if out.any():
        select(np.flatnonzero(~out))
        x = x[~out]
    step = 0
    for i in range(k_max):
        if ends[i]:
            going = K[rows] > i
            select(np.flatnonzero(going))
            x = x[going]
        if not x.shape[0]:
            break
        if same[i] and same[i + 1]:
            lead = rows.start if isinstance(rows, slice) else rows[0]
            t0, t1 = float(times[lead, i]), float(times[lead, i + 1])
        else:
            t0, t1 = times[rows, i, None], times[rows, i + 1, None]
        c = i % BLOCK
        if not c:
            tabulate(i)
        x_tilde = x + e_tab[:, c]
        held = rowwise(loop.feedback.eval(x_tilde), x_tilde, (m,))
        held_all[rows, i] = held
        if watched is not None:
            watch(x_tilde, t0)
        x = _hold(loop, x, t0, t1, held, u_tab[:, c], after)

    trajectories = []
    for j, p in enumerate(partitions):
        status = terminal[j] or Status(COMPLETED)
        if not np.isnan(left_at[j]):
            t_left = float(left_at[j])
            if terminal[j] is None:
                status = Status(LEFT_DOMAIN, t_left, "left CLF estimate region")
            else:
                status = Status(status.kind, status.time, status.detail
                                + f"; left CLF estimate region at t={t_left:g}")
        # each interval adds S dense rows, so the end state of a completed
        # one is every S-th dense row; the copies free the batch's buffers
        dense = dense_x[j, :count[j]].copy()
        trajectories.append(Trajectory(
            p, p.times[:done[j] + 1], dense[:done[j] * S + 1:S],
            dense_t[j, :count[j]].copy(), dense, held_all[j, :held_n[j]].copy(),
            np.maximum(np.arange(count[j]) - 1, 0) // S, status))
    return trajectories


def sample_solve(loop: ClosedLoop, partition: Partition, x0,
                 u: Signal | None = None, e: Signal | None = None) -> Trajectory:
    """Run the hold-and-integrate recursion over the partition.

    The held control on [t_i, t_{i+1}) is feedback(x_i + e(t_i)). Escape past
    escape_radius records a blow-up time rather than raising; a nonfinite state
    is a numerical failure. This is the one-row batch of sample_solve_batch.
    """
    return sample_solve_batch(loop, [partition], [x0], [u], [e])[0]


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
    # the noise at every sample time and the disturbance at every stage time
    errs_all = signal_at(e, times[:-1])
    u_all = signal_at(u, _stage_times(times[:-1], times[1:], loop.substeps))
    x = as_vector(x0, loop.n).copy()
    idx, errs, obs, bds = [], [], [], []
    stopped = np.empty(0, dtype=int)
    for i in range(partition.intervals):
        err = errs_all[i]
        x_tilde = x + err
        held = as_vector(loop.feedback.eval(x_tilde), loop.m)
        gap = float(np.linalg.norm(x - x_tilde))
        ok = True

        def after(tau, t, pair):
            nonlocal gap, ok
            xa, xb = pair
            if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
                ok = False
                return stopped
            gap = max(gap, float(np.linalg.norm(xa - xb)))
            if max(np.linalg.norm(xa), np.linalg.norm(xb)) > loop.escape_radius:
                ok = False
                return stopped
            return None

        # the run and its companion as two rows that hold the run's control
        pair = _hold(loop, np.stack([x, x_tilde]), float(times[i]),
                     float(times[i + 1]), np.stack([held, held]),
                     np.stack([u_all[i], u_all[i]]), after)
        idx.append(i)
        errs.append(float(np.linalg.norm(err)))
        obs.append(gap)
        bds.append(float(np.linalg.norm(err)) * math.exp(L * delta))
        if not ok:
            break
        x = pair[0]
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

    k_half = rowwise(loop.feedback.eval(half), half, (loop.m,))
    sup_K_raw = float(np.max(np.sqrt(rowdot(k_half, k_half))))
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
