"""Sampled-data closed-loop simulation with hold-and-integrate semantics.

On each partition interval the feedback is evaluated once, at the sampled
state plus the observation error, and held; the continuous dynamics with the
actuator disturbance are then integrated by fixed-step RK4. Runs terminate at
the horizon, at escape past a configurable radius, or on a nonfinite state.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .clf import AlphaTables, Clf
from .core import (BLOWUP, COMPLETED, DEFAULT_ESCAPE_RADIUS, LEFT_DOMAIN,
                   NUMERICAL_FAILURE, ControlAffineSystem, FullyNonlinearSystem,
                   Partition, Signal, Status, Trajectory, Vector, as_vector,
                   bisect, lower_diameter, rowdot, rowwise, signal_at, unit_rows,
                   upper_diameter, zero_signal)
from .feedback import Feedback

DOMAIN_EXIT_TOL = 1e-9
# a lockstep batch steps, records and hands over its rows, and evaluates
# their signals, in blocks of max(1, BLOCK // substeps) intervals, that is of
# at most max(BLOCK, substeps) RK4 substeps: a block's tables hold a bounded
# number of values per row, whatever the horizon
BLOCK = 256
# estimate_rate_guard checks the overflow margin on this many points of
# [0, lower_inv(N) + lambda_plus]
MARGIN_GRID = 512


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


def _rk4_step(F, x, h, half, sixth, p, u0, um, u1):
    """One RK4 step of length h (half = 0.5 * h, sixth = h / 6.0) holding p,
    with the disturbance u0, um and u1 at its start, midpoint and end."""
    k1 = F(x, p, u0)
    k2 = F(x + half * k1, p, um)
    k3 = F(x + half * k2, p, um)
    k4 = F(x + h * k3, p, u1)
    return x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_times(t0, t1, substeps: int) -> np.ndarray:
    """The RK4 stage times (tau, tau + h/2, tau + h) of every substep of the
    intervals [t0, t1], shape t0.shape + (substeps, 3), by the float
    operations _hold steps with: h = (t1 - t0) / substeps, tau = t0 + k h."""
    h = ((t1 - t0) / substeps)[..., None]
    tau = t0[..., None] + np.arange(substeps) * h
    return np.stack([tau, tau + 0.5 * h, tau + h], axis=-1)


def _hold(loop: ClosedLoop, x, t0, t1, held, u, out) -> None:
    """Hold each row's control over its own [t0, t1] through the loop's S RK4
    substeps, all rows at once, and write the state after substep k to
    out[:, k].

    x and held are (B, n) and (B, m), t0 and t1 (B, 1) columns, or floats
    when every row shares them, u (B, S, 3, m) holds each row's disturbance
    at the stage times of _stage_times, and out is (B, S, n); x may be a view
    of out. Every row takes all S substeps, finite or not, so a caller that
    screens the block afterwards runs this under np.errstate(over="ignore",
    invalid="ignore").
    """
    h = (t1 - t0) / loop.substeps
    half, sixth = 0.5 * h, h / 6.0
    for k in range(loop.substeps):
        x = out[:, k] = _rk4_step(loop.F, x, h, half, sixth, held,
                                  u[:, k, 0], u[:, k, 1], u[:, k, 2])


def _stops(block, radius: float):
    """Per state of block (..., n): is it nonfinite, and does it stop a run?
    A run's record ends before its first stop if nonfinite, else with it."""
    bad = ~np.isfinite(block).all(axis=-1)
    return bad, bad | (np.sqrt(rowdot(block, block)) > radius)


def _valid(f, x, ok):
    """The row-wise f at the states x[ok], (..., n) masked by ok (...), and nan
    elsewhere, so that f never reads a state outside a record."""
    out = np.full(ok.shape, np.nan)
    if ok.any():
        out[ok] = rowwise(f(x[ok]), x[ok])
    return out


def _lockstep(loop: ClosedLoop, partitions, x0, u, e, take) -> tuple:
    """Run the hold-and-integrate recursion for B independent rows in lockstep
    and return each row's stop (the dense row it stopped at, K S + 1 when it
    completed) and Status.

    Row j runs on partitions[j] from x0[j] under the disturbance u[j] and the
    observation error e[j] (None, or a None entry, is the zero signal), with
    its own interval boundaries and substep length. Every row takes interval
    i together, all S substeps of it; the S states are then checked as one
    block. A row that turns nonfinite or escapes stops at the first such
    substep (its record ends before a nonfinite state, with an escaping one)
    and leaves the batch at the end of that interval, so its later substeps
    are computed and discarded: F must take nonfinite or very large rows
    without raising, and the loop runs under np.errstate(over="ignore",
    invalid="ignore"), which also covers the feedback, signal and take calls
    made in it. A row that reaches its horizon leaves too.

    Each block of max(1, BLOCK // S) intervals goes to take(ids, first, x, t,
    held, count) once stepped, for the R rows running at its start (ids).
    Column c of x (R, C, n) and t (R, C) is dense row first + c: column 0 is
    the block's start, every S-th column a sample. held (R, C // S, m) holds
    the controls held on its intervals. A row's record ends before dense row
    count (R,), and the arrays may be views of buffers that the next block
    overwrites. The feedback is called once per interval, on the noisy
    samples of every running row; each row's signals once per block, at its
    RK4 stage and sample times, and the domain margin on the block's states
    and noisy samples.
    """
    B, n, m, S = len(partitions), loop.n, loop.m, loop.substeps
    u = [zero_signal(m) if s is None else s for s in (u or [None] * B)]
    e = [zero_signal(n) if s is None else s for s in (e or [None] * B)]
    if not len(x0) == len(u) == len(e) == B:
        raise ValueError("need one x0, disturbance and error per partition")
    if any(s.dim != m for s in u) or any(s.dim != n for s in e):
        raise ValueError("signal dimensions must match the loop")
    x = np.array([as_vector(v, n) for v in x0]).reshape(B, n)
    K = np.array([p.intervals for p in partitions], dtype=int)
    k_max = int(K.max(initial=0))
    # per row, the dense row it stopped at (0 for a start beyond the escape
    # radius), if that state was nonfinite, and when it stopped and left the CLF region
    with np.errstate(over="ignore", invalid="ignore"):   # as the loop below
        stop = np.where(np.sqrt(rowdot(x, x)) > loop.escape_radius, 0, K * S + 1)
    nonfinite = np.zeros(B, dtype=bool)
    t_stop, t_left = np.where(stop, np.nan, 0.0), np.full(B, np.nan)
    # some row leaves before interval i: its partition ended, or it stopped at its start
    ends = np.isin(np.arange(k_max), np.where(stop, K, 0)).tolist()
    block = max(1, min(BLOCK // S, k_max))   # intervals per block
    # the block's record by row id: states, dense times, held controls and
    # the noisy samples the feedback read
    bx, bt = np.zeros((B, block * S + 1, n)), np.zeros((B, block * S + 1))
    held_b, noisy_b = np.empty((B, block, m)), np.empty((B, block, n))
    # a block whose entries are all at most screen in size is finite and
    # inside the escape radius, with norms and squares that do not overflow;
    # nan fails the test
    screen = min(loop.escape_radius, 1e150) / math.sqrt(n) * (1.0 - 1e-9)
    monitor = loop.domain_margin
    blk = np.empty((B, S, n))    # states after each substep of an interval

    # the running rows: their count and ids (a slice while none has
    # stopped), their states, and their sample times, disturbance at the
    # stage times and noise at the sample times over the current block
    live, rows = B, slice(0, B)
    span, u_tab, e_tab = np.empty((B, 0)), np.empty((B, 0, S, 3, m)), np.empty((B, 0, n))

    def ids(pos):
        # the row ids at positions pos among the running rows
        return np.arange(B)[rows][pos]

    def select(keep):
        # go on with the running rows where keep holds only
        nonlocal live, rows, x, span, u_tab, e_tab
        keep = np.flatnonzero(keep)
        live, rows = keep.size, ids(keep)
        x, span, u_tab, e_tab = x[keep], span[keep], u_tab[keep], e_tab[keep]

    def tabulate(i0, L):
        # each running row's times t_{i0}, ..., t_{i0 + L} (nan past its
        # partition), its signals there, one call per signal, and its dense
        # times after the block's start: each substep's end, t1 for the last
        # one. Returns per time whether every row that reaches it shares it
        nonlocal span, u_tab, e_tab
        span = np.full((live, L + 1), np.nan)
        for r, j in enumerate(ids(slice(None)).tolist()):
            span[r, :min(L, K[j] - i0) + 1] = partitions[j].times[i0:i0 + L + 1]
        stages = _stage_times(span[:, :-1], span[:, 1:], S)
        u_tab, e_tab = np.empty(stages.shape + (m,)), np.empty((live, L, n))
        for r, j in enumerate(ids(slice(None)).tolist()):
            k = min(L, K[j] - i0)
            u_tab[r, :k] = signal_at(u[j], stages[r, :k])
            e_tab[r, :k] = signal_at(e[j], span[r, :k])
        stages[:, :, -1, 2] = span[:, 1:]
        bt[rows, 1:L * S + 1] = stages[..., 2].reshape(live, -1)
        return (np.fmin.reduce(span) == np.fmax.reduce(span)).tolist()

    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, k_max, block):
            if not live:
                break
            L, at = min(block, k_max - i0), rows   # at: the rows the block records
            bx[rows, 0], bt[rows, 0] = x, bt[rows, -1]   # the last block's end, or t = 0
            for c in range(L):
                i = i0 + c
                if ends[i]:
                    select(stop[rows] > i * S + 1)
                if not live:
                    break
                if not c:
                    same = tabulate(i0, L)
                if same[c] and same[c + 1]:
                    t0, t1 = float(span[0, c]), float(span[0, c + 1])
                else:
                    t0, t1 = span[:, c, None], span[:, c + 1, None]
                x_tilde = x + e_tab[:, c]
                held = rowwise(loop.feedback.eval(x_tilde), x_tilde, (m,))
                held_b[rows, c], noisy_b[rows, c] = held, x_tilde
                states = blk[:live]
                _hold(loop, x, t0, t1, held, u_tab[:, c], states)
                bx[rows, c * S + 1:(c + 1) * S + 1] = states
                x = states[:, -1]
                if np.abs(states).max() <= screen:   # false at nan
                    continue
                bad, stops = _stops(states, loop.escape_radius)
                gone = np.flatnonzero(stops.any(axis=1))
                if gone.size:   # nonfinite at the substep's start, an escape at its end
                    k, j = stops[gone].argmax(axis=1), ids(gone)
                    stop[j], nonfinite[j] = i * S + 1 + k, bad[gone, k]
                    tau = _stage_times(span[gone, c], span[gone, c + 1], S)
                    t_stop[j] = np.where(nonfinite[j], tau[np.arange(gone.size), k, 0],
                                         bt[j, c * S + 1 + k])
                    select(~stops.any(axis=1))

            j, first, C = np.arange(B)[at], i0 * S, L * S + 1
            s, x_b, t_b = stop[j], bx[at, :C], bt[at, :C]
            if monitor is not None:
                # the states in the order each row read them: the block's
                # start, then per interval its noisy sample and its substeps,
                # up to (not with) its stop. A state leaves when its margin is
                # near zero or of the opposite sign to the one before it
                began = np.minimum((s + S - 1) // S, K[j])
                mx = _valid(monitor, x_b, first + np.arange(C) < s[:, None])
                ms = _valid(monitor, noisy_b[at, :L], i0 + np.arange(L) < began[:, None])
                seq = np.insert(mx, 1 + S * np.arange(L), ms, axis=1)
                hit = (np.abs(seq[:, 1:]) < DOMAIN_EXIT_TOL) | (seq[:, 1:] * seq[:, :-1] < 0)
                new = np.flatnonzero(hit.any(axis=1) & np.isnan(t_left[j]))
                c, q = np.divmod(hit[new].argmax(axis=1), S + 1)
                t_left[j[new]] = t_b[new, c * S + q]   # a sample's time heads its interval
            take(j, first, x_b, t_b, held_b[at, :L], s + ((s <= K[j] * S) & ~nonfinite[j]))

    statuses = []
    for s, k, bad, t, left in zip(stop.tolist(), K.tolist(), nonfinite.tolist(),
                                  t_stop.tolist(), t_left.tolist()):
        if s > k * S:
            status = Status(COMPLETED)
        elif bad:
            status = Status(NUMERICAL_FAILURE, t, "nonfinite state")
        else:
            status = Status(BLOWUP, t, "escape radius reached" if s else
                            "initial state beyond escape radius")
        if not math.isnan(left):
            status = (Status(LEFT_DOMAIN, left, "left CLF estimate region")
                      if status.kind == COMPLETED else
                      Status(status.kind, status.time, status.detail
                             + f"; left CLF estimate region at t={left:g}"))
        statuses.append(status)
    return stop, statuses


def sample_solve_batch(loop: ClosedLoop, partitions, x0, u=None,
                       e=None) -> list:
    """Run the hold-and-integrate recursion for B independent rows in lockstep,
    as _lockstep describes, and return one Trajectory per row, byte for byte
    the one the row gives alone, as sample_solve describes. Each block is
    copied into buffers as long as the longest row, and each trajectory's
    arrays are views of them, which live as long as one of them does.
    """
    B, n, m, S = len(partitions), loop.n, loop.m, loop.substeps
    k_max = max((p.intervals for p in partitions), default=0)
    dense_x = np.empty((B, k_max * S + 1, n))
    dense_t = np.empty((B, k_max * S + 1))
    held_all = np.empty((B, k_max, m))

    def keep(j, first, x, t, held, count):
        dense_x[j, first:first + t.shape[1]], dense_t[j, first:first + t.shape[1]] = x, t
        held_all[j, first // S:first // S + held.shape[1]] = held

    stop, statuses = _lockstep(loop, partitions, x0, u, e, keep)
    trajectories = []
    for j, (p, s, status) in enumerate(zip(partitions, stop.tolist(), statuses)):
        # the intervals the row completed and began (it held a control on
        # each one it began), and its dense rows; each interval adds S dense
        # rows, so the end state of a completed one is every S-th dense row
        done, began = max(s - 1, 0) // S, min((s + S - 1) // S, p.intervals)
        count = s + (status.kind == BLOWUP)
        dense = dense_x[j, :count]
        trajectories.append(Trajectory(
            p, p.times[:done + 1], dense[:done * S + 1:S], dense_t[j, :count],
            dense, held_all[j, :began],
            np.maximum(np.arange(count) - 1, 0) // S, status))
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
        return float(np.max(self.observed[mask] / self.bounds[mask], initial=0.0))


def gronwall_gap(loop: ClosedLoop, partition: Partition, x0,
                 u: Signal | None = None, e: Signal | None = None,
                 L: float = 1.0, delta: float | None = None) -> GronwallReport:
    """Per-interval gap between sample_solve's run and its companions.

    Companion i starts at the run's sample x_i plus the noise e(t_i), holds
    the run's control over [t_i, t_{i+1}], and steps in one batch with the
    others. The report ends at the first interval where either turns
    nonfinite (that substep is left out of the gap) or escapes (it is kept);
    it is empty for an x0 beyond the escape radius. The bound is
    |e(t_i)| exp(L delta), delta defaulting to the upper diameter."""
    u = u if u is not None else zero_signal(loop.m)
    e = e if e is not None else zero_signal(loop.n)
    delta = upper_diameter(partition) if delta is None else delta
    S, n, R = loop.substeps, loop.n, loop.escape_radius
    run = sample_solve(loop, partition, x0, u, e)
    K = run.held_controls.shape[0]   # the intervals the run took
    t = partition.times[:K + 1]
    err = signal_at(e, t[:-1])
    # the run and the companions at each interval's start and after each of
    # its substeps, nan past the run's record
    both = np.full((2, K, S + 1, n), np.nan)
    both[:, :, 0] = run.dense_states[0:K * S:S]
    both[1, :, 0] += err
    both[0, :, 1:].flat[:run.dense_states.size - n] = run.dense_states[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        _hold(loop, both[1, :, 0], t[:-1, None], t[1:, None], run.held_controls,
              signal_at(u, _stage_times(t[:-1], t[1:], S)), both[1, :, 1:])
        bad, stop = (a.any(axis=0) for a in _stops(both[..., 1:, :], R))
        d = both[0] - both[1]
        gaps = np.sqrt(rowdot(d, d))
    hit = np.flatnonzero(stop)
    if hit.size:   # the substeps after the first stop do not count
        K, k = divmod(int(hit[0]), S)
        gaps[K, k + 1 + (not bad[K, k]):] = 0.0
        K += 1
    norms = np.sqrt(rowdot(err, err))[:K]
    return GronwallReport(np.arange(K), norms, gaps[:K].max(axis=1),
                          norms * math.exp(L * delta))


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling budget and safety margin for constant estimation."""

    points: int = 4096
    pairs: int = 10000
    inflation: float = 1.25
    seed: int = 0


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
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "diagnostics"}


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
    grid = np.linspace(0.0, p_top, MARGIN_GRID)
    base = tables.upper_at(grid)

    def margin_ok(et):
        return bool(np.all(tables.upper_at(grid + L_eps * et / 4.0)
                           <= base + epsilon / 8.0 + 1e-15))

    if not margin_ok(epsilon * 1e-9):
        raise ValueError("tables too coarse to certify any overflow margin")
    if margin_ok(epsilon):
        eps_tilde = epsilon
    else:
        eps_tilde = bisect(margin_ok, 0.0, epsilon, 60)[0]
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
        return asdict(self)


def _decrease_margins(vals, times, rel_tol: float = 1e-4, abs_tol: float = 0.0):
    """Per step of vals, V at the sample times times (last axis): V(x_i),
    rhs = -dt/16 V(x_i) and the margin V(x_{i+1}) - V(x_i) - (rhs + rel_tol
    V(x_i) + abs_tol), positive where the step fails to decrease."""
    v0 = vals[..., :-1]
    rhs = -np.diff(times) / 16.0 * v0
    return v0, rhs, np.diff(vals) - (rhs + rel_tol * v0 + abs_tol)


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
    v0, rhs, margin = _decrease_margins(vals, traj.sample_times, rel_tol, abs_tol)
    checked = v0 > S_level
    violations = [{"interval": int(i), "lhs": float(vals[i + 1] - vals[i]),
                   "rhs": float(rhs[i]), "margin": float(margin[i])}
                  for i in np.nonzero(checked & (margin > 0.0))[0]]
    worst = float(np.max(margin[checked], initial=0.0))
    return DecreaseReport(True, False, "", int(np.count_nonzero(checked)),
                          violations, worst)
