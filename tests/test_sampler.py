import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfiss import (BLOWUP, COMPLETED, LEFT_DOMAIN, NUMERICAL_FAILURE,
                    ClosedLoop, Feedback, ProbeConfig, admissible, affine_loop,
                    combined_feedback, constant_signal, decrease_check,
                    estimate_alpha_tables, estimate_rate_guard, gronwall_gap,
                    kappa_formula, lower_diameter, make_partition,
                    nonlinear_loop, sample_solve, sine_signal, zero_feedback,
                    zero_signal)
from clfiss.core import DEFAULT_ESCAPE_RADIUS, Status
import clfiss.sampler as sampler
from clfiss.sampler import BLOCK, sample_solve_batch
from clfiss.verify import random_disturbance
from clfiss.systems import (cone_margin, counterexample_system,
                            integrator_feedback, integrator_max_clf,
                            integrator_system, scalar_abs_clf,
                            scalar_integrator_system)


def held_loop(gain=-1.0, substeps=4):
    """dx/dt = held value; feedback K(x) = gain * x."""
    fb = Feedback(1, 1, lambda x: gain * np.atleast_1d(np.asarray(x, float)))
    return ClosedLoop(1, 1, lambda x, p, u: p, fb, substeps)


class TestSampleSolve:
    def test_held_recursion_exact(self):
        # x_{i+1} = x_i (1 - dt) for the held loop; oracle computed by hand
        loop = held_loop()
        part = make_partition("uniform", 1.0, 0.5)
        traj = sample_solve(loop, part, [1.0])
        assert traj.status.kind == COMPLETED
        assert traj.sample_states[:, 0] == pytest.approx([1.0, 0.5, 0.25])

    def test_equilibrium_stays_zero(self):
        loop = held_loop()
        part = make_partition("uniform", 2.0, 0.25)
        traj = sample_solve(loop, part, [0.0])
        assert np.all(traj.dense_states == 0.0)

    def test_sample_states_match_dense(self):
        loop = held_loop(substeps=8)
        part = make_partition("jitter", 1.0, 0.1, 0.4, seed=3)
        traj = sample_solve(loop, part, [1.0])
        for t, x in zip(traj.sample_times, traj.sample_states):
            r = int(np.nonzero(traj.dense_times == t)[0][0])
            assert np.array_equal(traj.dense_states[r], x)

    def test_dense_times_within_horizon(self):
        loop = held_loop()
        part = make_partition("uniform", 1.0, 0.3)
        traj = sample_solve(loop, part, [1.0])
        assert traj.dense_times[-1] <= part.horizon + 1e-12
        assert np.all(np.diff(traj.dense_times) > 0)
        assert np.all(np.diff(traj.interval_index) >= 0)

    def test_blow_up_time_matches_separation_of_variables(self):
        # dx = -x + x^2 from 4 escapes at ln(4/3); oracle by separation
        sysc = counterexample_system()
        loop = nonlinear_loop(sysc, zero_feedback(1, 1))
        part = make_partition("uniform", 0.5, 0.005)
        traj = sample_solve(loop, part, [4.0], constant_signal([1.0]))
        assert traj.status.kind == BLOWUP
        assert traj.status.time == pytest.approx(math.log(4.0 / 3.0), abs=0.01)

    @pytest.mark.parametrize("x0, k", [(4.0, 2), (2.0 * DEFAULT_ESCAPE_RADIUS, 0)])
    def test_sample_rows_of_early_stop(self, x0, k):
        # from 4 the run escapes inside the third interval (blow-up at
        # ln(4/3)); past the escape radius it stops before the first one
        loop = nonlinear_loop(counterexample_system(), zero_feedback(1, 1),
                              substeps=16)
        part = make_partition("uniform", 0.5, 0.1)
        traj = sample_solve(loop, part, [x0], constant_signal([1.0]))
        assert traj.status.kind == BLOWUP
        if k:
            assert part.times[k] < traj.status.time < part.times[k + 1]
        assert np.array_equal(traj.sample_times, part.times[:k + 1])
        for t, x in zip(traj.sample_times, traj.sample_states):
            r = int(np.nonzero(traj.dense_times == t)[0][0])
            assert np.array_equal(traj.dense_states[r], x)
        assert np.array_equal(traj.sample_states, traj.dense_states[:16 * k + 1:16])

    def test_determinism_bit_identical(self):
        loop = affine_loop(integrator_system(), integrator_feedback())
        part = make_partition("jitter", 1.0, 0.05, 0.3, seed=9)
        e = constant_signal([1e-4, 0.0, 0.0])
        a = sample_solve(loop, part, [1.0, -0.5, 0.7], e=e)
        b = sample_solve(loop, part, [1.0, -0.5, 0.7], e=e)
        assert np.array_equal(a.dense_states, b.dense_states)
        assert np.array_equal(a.held_controls, b.held_controls)

    def test_zero_input_invariance(self):
        loop = affine_loop(integrator_system(), integrator_feedback())
        part = make_partition("uniform", 1.0, 0.1)
        traj = sample_solve(loop, part, [0.0, 0.0, 0.0])
        assert np.all(traj.dense_states == 0.0)

    def test_rk4_order_on_drift(self):
        # pure drift dx = -x; halving the substep cuts the error ~16x
        def run(substeps):
            loop = ClosedLoop(1, 1, lambda x, p, u: -x, zero_feedback(1, 1),
                              substeps)
            part = make_partition("uniform", 1.0, 1.0)
            traj = sample_solve(loop, part, [1.0])
            return abs(traj.dense_states[-1, 0] - math.exp(-1.0))

        e4, e8 = run(4), run(8)
        assert 10.0 < e4 / e8 < 24.0

    def test_domain_monitor_flags_cone_crossing(self):
        # planar radius shrinks while x3 holds, so the run crosses the cone
        loop = affine_loop(integrator_system(), integrator_feedback(),
                           domain_margin=cone_margin)
        part = make_partition("uniform", 2.0, 0.01)
        traj = sample_solve(loop, part, [1.0, 0.0, 0.1])
        assert traj.status.kind == LEFT_DOMAIN
        assert traj.status.time is not None and traj.status.time > 0.0


class TestGronwall:
    def test_zero_error_zero_gap(self):
        loop = held_loop()
        part = make_partition("uniform", 1.0, 0.1)
        rep = gronwall_gap(loop, part, [1.0], L=1.0)
        assert np.all(rep.observed == 0.0)

    def test_linear_bound_holds(self):
        # dx = -x + p: the interval gap contracts, bound is conservative
        fb = zero_feedback(1, 1)
        loop = ClosedLoop(1, 1, lambda x, p, u: -x + p, fb, 16)
        part = make_partition("uniform", 1.0, 0.1)
        e = constant_signal([1e-3])
        rep = gronwall_gap(loop, part, [1.0], e=e, L=1.0)
        assert np.all(rep.observed <= rep.bounds * 1.001)
        assert rep.bounds[0] == pytest.approx(1e-3 * math.exp(0.1))

    def test_unstable_bound_sharp(self):
        # dx = +x: gap grows to |e| e^{dt}, meeting the bound at interval end
        fb = zero_feedback(1, 1)
        loop = ClosedLoop(1, 1, lambda x, p, u: x, fb, 32)
        part = make_partition("uniform", 0.5, 0.1)
        e = constant_signal([1e-3])
        rep = gronwall_gap(loop, part, [1.0], e=e, L=1.0)
        assert rep.worst_ratio <= 1.001
        assert rep.worst_ratio >= 0.999

    def test_gap_scales_linearly_in_error(self):
        fb = zero_feedback(1, 1)
        loop = ClosedLoop(1, 1, lambda x, p, u: x, fb, 16)
        part = make_partition("uniform", 0.3, 0.1)
        r1 = gronwall_gap(loop, part, [1.0], e=constant_signal([1e-3]), L=1.0)
        r2 = gronwall_gap(loop, part, [1.0], e=constant_signal([2e-3]), L=1.0)
        assert np.allclose(r2.bounds, 2.0 * r1.bounds)
        assert np.allclose(r2.observed, 2.0 * r1.observed, rtol=1e-9)


@pytest.fixture(scope="module")
def scalar_guard():
    sys1 = scalar_integrator_system()
    clf = scalar_abs_clf()
    tables = estimate_alpha_tables(clf, 10.0, 64, radii=4001)
    fb = combined_feedback(sys1, clf)
    loop = affine_loop(sys1, fb)
    guard = estimate_rate_guard(loop, clf, tables, 0.5, 1.0, 1.0, sys1,
                                ProbeConfig(1024, 2000, 1.25, 0))
    return loop, clf, tables, guard


class TestRateGuard:
    def test_lipschitz_estimate_within_5pct(self):
        # |x| is 1-Lipschitz; raw difference-quotient estimate must see that
        sys1 = scalar_integrator_system()
        clf = scalar_abs_clf()
        tables = estimate_alpha_tables(clf, 10.0, 64, radii=4001)
        fb = combined_feedback(sys1, clf)
        loop = affine_loop(sys1, fb)
        guard = estimate_rate_guard(loop, clf, tables, 0.5, 1.0, 1.0, sys1,
                                    ProbeConfig(1024, 4000, 1.0, 0))
        assert guard.diagnostics["L_eps_raw"] == pytest.approx(1.0, rel=0.05)

    def test_guard_fields_positive(self, scalar_guard):
        _, _, _, guard = scalar_guard
        assert guard.delta > 0 and guard.kappa > 0
        assert guard.lambda_minus > 0 and guard.lambda_plus > guard.lambda_minus
        assert guard.L_eps > 1.0
        assert guard.R >= guard.N

    def test_delta_below_eps_tilde(self, scalar_guard):
        # the denominator 16 + 17 lambda_plus exceeds one
        _, _, _, guard = scalar_guard
        assert guard.delta < guard.eps_tilde

    def test_kappa_formula_monotone_in_epsilon(self):
        lam, L_eps, L, delta = 0.3, 1.5, 2.0, 1e-3
        vals = [kappa_formula(lam, eps, L_eps, L, delta)
                for eps in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # saturates once epsilon passes lambda_minus
        assert vals[-1] == vals[-2]

    def test_empty_probe_region_rejected(self, scalar_guard):
        loop, clf, tables, _ = scalar_guard
        sys1 = scalar_integrator_system()
        with pytest.raises(ValueError):
            estimate_rate_guard(loop, clf, tables, 100.0, 1.0, 1.0, sys1)


class TestAdmissible:
    def test_cases(self, scalar_guard):
        loop, _, _, guard = scalar_guard
        fine = make_partition("uniform", 1.0, 0.5 * guard.delta)
        assert admissible(guard, fine, zero_signal(1))
        # upper diameter exactly delta fails the strict inequality
        exact = make_partition("uniform", 10.0 * guard.delta, guard.delta)
        assert not admissible(guard, exact, zero_signal(1))
        noisy = constant_signal([2.0 * guard.kappa * lower_diameter(fine)])
        assert not admissible(guard, fine, noisy)


class TestDecreaseCheck:
    def test_scalar_combined_no_violations(self, scalar_guard):
        # K = -2x makes V(x_i) fall by 2 dt V(x_i), far beyond dt/16 V(x_i)
        sys1 = scalar_integrator_system()
        clf = scalar_abs_clf()
        loop = affine_loop(sys1, combined_feedback(sys1, clf))
        part = make_partition("uniform", 2.0, 0.01)
        traj = sample_solve(loop, part, [1.0])
        rep = decrease_check(traj, clf, None, 0.0, rel_tol=0.0, abs_tol=1e-6)
        assert rep.checked > 0
        assert rep.violations == []

    def test_equilibrium_vacuous(self):
        sys1 = scalar_integrator_system()
        clf = scalar_abs_clf()
        loop = affine_loop(sys1, combined_feedback(sys1, clf))
        part = make_partition("uniform", 1.0, 0.1)
        traj = sample_solve(loop, part, [0.0])
        rep = decrease_check(traj, clf)
        assert rep.checked == 0 and rep.violations == []

    def test_inadmissible_partition_flagged(self, scalar_guard):
        loop, clf, _, guard = scalar_guard
        part = make_partition("uniform", 1.0, 0.5)   # far coarser than delta
        traj = sample_solve(loop, part, [1.0])
        rep = decrease_check(traj, clf, guard)
        assert rep.excluded and not rep.admissible
        assert rep.violations == []

    def test_left_domain_excluded(self):
        loop = affine_loop(integrator_system(), integrator_feedback(),
                           domain_margin=cone_margin)
        part = make_partition("uniform", 2.0, 0.01)
        traj = sample_solve(loop, part, [1.0, 0.0, 0.1])
        rep = decrease_check(traj, integrator_max_clf())
        assert rep.excluded


def _rk4_step(F, x, t, h, p, u_eval):
    """RK4 step as gronwall_gap was first written with, the disturbance
    evaluated at each stage time."""
    u0 = u_eval(t)
    k1 = F(x, p, u0)
    um = u_eval(t + 0.5 * h)
    k2 = F(x + (0.5 * h) * k1, p, um)
    k3 = F(x + (0.5 * h) * k2, p, um)
    u1 = u_eval(t + h)
    k4 = F(x + h * k3, p, u1)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_gronwall_gap(loop, partition, x0, u=None, e=None, L=1.0,
                           delta=None):
    """gronwall_gap as first written, with its own RK4 loop per interval."""
    from clfiss.core import as_vector, upper_diameter
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
        h = (t1 - t0) / loop.substeps
        xa, xb = x.copy(), x_tilde.copy()
        gap = float(np.linalg.norm(xa - xb))
        ok = True
        for k in range(loop.substeps):
            tau = t0 + k * h
            xa = _rk4_step(loop.F, xa, tau, h, held, u.eval)
            xb = _rk4_step(loop.F, xb, tau, h, held, u.eval)
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
    return np.array(idx), np.array(errs), np.array(obs), np.array(bds)


def gronwall_runs():
    """(loop, partition, x0, keyword arguments) of the runs compared below."""
    drift = zero_feedback(1, 1)
    return [
        (held_loop(), make_partition("uniform", 1.0, 0.1), [1.0], {}),
        (ClosedLoop(1, 1, lambda x, p, u: -x + p, drift, 16),
         make_partition("uniform", 1.0, 0.1), [1.0],
         {"e": constant_signal([1e-3])}),
        (ClosedLoop(1, 1, lambda x, p, u: x, drift, 32),
         make_partition("uniform", 0.5, 0.1), [1.0],
         {"e": constant_signal([1e-3])}),
        (ClosedLoop(1, 1, lambda x, p, u: x, drift, 16),
         make_partition("uniform", 0.3, 0.1), [1.0],
         {"e": constant_signal([2e-3])}),
        # criterion 5's integrator loop, at about its guard's delta
        (affine_loop(integrator_system(), integrator_feedback(), substeps=1,
                     domain_margin=cone_margin),
         make_partition("uniform", 600 * 3.6e-5, 3.6e-5), [1.0, -0.5, 0.5],
         {"e": constant_signal([1e-7, 0.0, 0.0]), "L": 2.5, "delta": 4e-5}),
        # escapes past radius 10 at t = 0.18
        (nonlinear_loop(counterexample_system(), drift, 16, 10.0),
         make_partition("uniform", 0.5, 0.005), [4.0],
         {"u": constant_signal([1.0]), "e": constant_signal([1e-3])}),
        # dx = x^2 from 10 overflows at the eleventh interval
        (ClosedLoop(1, 1, lambda x, p, u: x * x, drift, 4, math.inf),
         make_partition("uniform", 0.3, 0.01), [10.0],
         {"e": constant_signal([1e-3])}),
        # the run reads its signals per BLOCK substeps on a jittered
        # partition, the companions in one call
        (affine_loop(integrator_system(), integrator_feedback(), substeps=4),
         make_partition("jitter", 2.0, 0.01, 0.4, seed=5), [1.0, -0.5, 0.5],
         {"u": sine_signal([1.0, -0.5], 0.05, 2.0),
          "e": sine_signal([0.3, -0.2, 1.0], 1e-4, 3.0, 0.5)}),
        # 2000 intervals of 16 substeps
        (affine_loop(integrator_system(), integrator_feedback(), substeps=16),
         make_partition("uniform", 2.0, 1e-3), [1.0, -0.5, 0.5],
         {"e": constant_signal([1e-6, 0.0, 0.0])}),
        # the companion of [0.4, 0.5] escapes, the run only in [0.5, 0.6]
        (ClosedLoop(1, 1, lambda x, p, u: x, drift, 16,
                    math.exp(0.5) * 1.0005),
         make_partition("uniform", 1.0, 0.1), [1.0],
         {"e": constant_signal([1e-3])}),
    ]


@pytest.mark.parametrize("run", range(len(gronwall_runs())))
def test_gronwall_gap_matches_reference_loop(run):
    loop, part, x0, kwargs = gronwall_runs()[run]
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_gronwall_gap(loop, part, x0, **kwargs)
        rep = gronwall_gap(loop, part, x0, **kwargs)
    got = (rep.intervals, rep.error_norms, rep.observed, rep.bounds)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if run in (5, 6, 9):   # the escaping and the overflowing runs stop early
        assert rep.intervals.size < part.intervals
    if run == 9:   # where the companion escapes, before the run does
        held = sample_solve(loop, part, x0, e=kwargs["e"]).held_controls
        assert rep.intervals.size == 5 < held.shape[0]


def test_gronwall_gap_empty_beyond_escape_radius():
    # the run records no interval, where the reference loop reports one
    loop = ClosedLoop(1, 1, lambda x, p, u: x, zero_feedback(1, 1), 4, 1.0)
    part = make_partition("uniform", 1.0, 0.1)
    e = constant_signal([1e-3])
    rep = gronwall_gap(loop, part, [2.0], e=e)
    for a in (rep.intervals, rep.error_norms, rep.observed, rep.bounds):
        assert a.shape == (0,)
    assert rep.worst_ratio == 0.0
    assert reference_gronwall_gap(loop, part, [2.0], e=e)[0].size == 1


def reference_dense_states(loop, partition, x0, u, e):
    """The dense states of a completed run, from a one-state loop that
    evaluates the noise at each sample time and the disturbance at each RK4
    stage time."""
    times = partition.times
    x = np.asarray(x0, dtype=float)[None]
    dense = [x[0]]
    for i in range(partition.intervals):
        t0, t1 = float(times[i]), float(times[i + 1])
        held = loop.feedback.eval(x + e.eval(t0))
        h = (t1 - t0) / loop.substeps
        for k in range(loop.substeps):
            x = _rk4_step(loop.F, x, t0 + k * h, h, held, u.eval)
            dense.append(x[0])
    return np.array(dense)


def test_signal_tables_match_per_stage_reference():
    # runs of over two blocks of intervals (BLOCK RK4 substeps each), on
    # jittered and uniform partitions, alone and as one batch of rows that
    # end at different times, and at 1, 2 and 300 substeps, the last a block
    # of one interval; the sines are fast and large enough that a last-bit
    # change of a stage time shows in the states
    rng = np.random.default_rng(4)
    sys1 = scalar_integrator_system()
    scalar = affine_loop(sys1, combined_feedback(sys1, scalar_abs_clf()), substeps=4)
    parts = [make_partition("jitter", 1.5, 0.01, 0.4, seed=3),
             make_partition("uniform", 1.2, 0.008),
             make_partition("jitter", 0.9, 0.006, 0.2, seed=5)]
    rows = [(parts[0], [0.8], sine_signal([1.0], 1.0, 5.0, 0.3), constant_signal([1e-4])),
            (parts[1], [-0.6], random_disturbance("piecewise", 1, 0.5, parts[1], rng),
             constant_signal([-2e-4])),
            (parts[2], [0.4], constant_signal([0.02]), None)]
    trajs = sample_solve_batch(scalar, *zip(*rows))
    for (part, x0, u, e), traj in zip(rows, trajs):
        want = reference_dense_states(scalar, part, x0, u, e or zero_signal(1))
        assert traj.status.kind == COMPLETED
        assert traj.dense_states.tobytes() == want.tobytes()
        alone = sample_solve(scalar, part, x0, u, e)
        assert traj.dense_states.tobytes() == alone.dense_states.tobytes()
    u, e = sine_signal([1.0, -0.5], 0.5, 3.0, 1.0), constant_signal([1e-4, 0.0, -1e-4])
    for substeps, part in ((2, make_partition("uniform", 2.0, 0.007)),
                           (1, make_partition("uniform", 1.2, 0.002)),
                           (300, make_partition("jitter", 0.1, 0.02, 0.3, seed=2))):
        integrator = affine_loop(integrator_system(), integrator_feedback(),
                                 substeps=substeps)
        assert part.intervals * substeps > 2 * BLOCK
        traj = sample_solve(integrator, part, [1.0, -0.5, 0.8], u, e)
        want = reference_dense_states(integrator, part, [1.0, -0.5, 0.8], u, e)
        assert traj.status.kind == COMPLETED
        assert traj.dense_states.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Lockstep batches: every row equals its own one-row run, byte for byte
# ---------------------------------------------------------------------------

def batch_pools():
    """(loop, rows) per loop; a row is (partition, x0, u, e)."""
    rng = np.random.default_rng(7)
    sys1, clf1 = scalar_integrator_system(), scalar_abs_clf()
    delta = 0.01
    fine = make_partition("uniform", 0.3, 0.9 * delta)
    coarse = make_partition("uniform", 0.3, 2.0 * delta)   # inadmissible-by-design
    jitter = make_partition("jitter", 0.3, 0.5 * delta, 0.4, seed=2)
    scalar = (affine_loop(sys1, combined_feedback(sys1, clf1), substeps=4), [
        (fine, [0.8], random_disturbance("piecewise", 1, 0.1, fine, rng),
         constant_signal([2e-5])),
        (fine, [-0.4], constant_signal([-0.1]), None),
        (fine, [0.0], sine_signal([1.0], 0.1, 1.3, 0.2), constant_signal([-1e-5])),
        (coarse, [0.6], None, constant_signal([1e-3])),
        (jitter, [-1.0], random_disturbance("piecewise", 1, 0.1, jitter, rng), None),
    ])
    # escapes past radius 10 near t = 0.18; the others stay bounded
    counter = (nonlinear_loop(counterexample_system(), zero_feedback(1, 1), 16, 10.0), [
        (make_partition("uniform", 0.5, 0.005), [4.0], constant_signal([1.0]), None),
        (make_partition("uniform", 0.5, 0.01), [0.5], constant_signal([1.0]),
         constant_signal([1e-3])),
        (make_partition("uniform", 0.3, 0.02), [-2.0], sine_signal([1.0], 0.5, 2.0), None),
        (make_partition("uniform", 0.5, 0.1), [20.0], None, None),   # starts outside
    ])
    # dx = x^2 from 10 overflows to a nonfinite state; from -1 it decays
    square = (ClosedLoop(1, 1, lambda x, p, u: x * x, zero_feedback(1, 1), 4, math.inf), [
        (make_partition("uniform", 0.3, 0.01), [10.0], None, None),
        (make_partition("uniform", 0.3, 0.02), [-1.0], None, constant_signal([1e-3])),
        (make_partition("uniform", 0.2, 0.05), [10.0], None, None),
    ])
    # criterion 5's monitored loop; the first row crosses the cone
    integrator = (affine_loop(integrator_system(), integrator_feedback(), substeps=2,
                              domain_margin=cone_margin), [
        (make_partition("uniform", 2.0, 0.01), [1.0, 0.0, 0.1], None, None),
        (make_partition("uniform", 1.0, 0.01), [1.0, -0.5, 0.8],
         sine_signal([1.0, -0.5], 0.05, 0.5), None),
        (make_partition("jitter", 1.0, 0.02, 0.3, seed=1), [0.2, 0.3, -1.5],
         constant_signal([0.01, 0.0]), constant_signal([1e-4, 0.0, 0.0])),
        (make_partition("uniform", 1.5, 0.015), [-0.7, 0.4, 0.3], None, None),
    ])
    return [scalar, counter, square, integrator]


POOLS = batch_pools()


@lru_cache(maxsize=None)
def single_run(pool: int, row: int):
    loop, rows = POOLS[pool]
    with np.errstate(over="ignore", invalid="ignore"):
        return sample_solve(loop, *rows[row])


def assert_same_trajectory(a, b):
    assert a.partition is b.partition
    for name in ("sample_times", "sample_states", "dense_times", "dense_states",
                 "held_controls", "interval_index"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.status == b.status


def test_batch_pools_cover_every_outcome():
    kinds = {single_run(p, r).status.kind
             for p, (_, rows) in enumerate(POOLS) for r in range(len(rows))}
    assert kinds == {COMPLETED, BLOWUP, LEFT_DOMAIN, NUMERICAL_FAILURE}
    assert single_run(1, 3).dense_states.shape == (1, 1)   # stopped at t = 0


@st.composite
def pool_batches(draw):
    pool = draw(st.integers(0, len(POOLS) - 1))
    size = len(POOLS[pool][1])
    return pool, draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=7))


@settings(max_examples=40, deadline=None)
@given(pool_batches())
def test_batch_rows_equal_single_runs(batch):
    # any batch size and row order, rows repeated, on different partitions
    pool, picks = batch
    loop, rows = POOLS[pool]
    with np.errstate(over="ignore", invalid="ignore"):
        trajs = sample_solve_batch(loop, *zip(*[rows[r] for r in picks]))
    assert len(trajs) == len(picks)
    for r, traj in zip(picks, trajs):
        assert_same_trajectory(traj, single_run(pool, r))


def reference_stops(loop, partition, x0, u=None, e=None):
    """(status, dense states, dense times, held controls) of one run stepped
    a substep at a time and checked after each substep: a nonfinite state
    stops the run at the substep's start and is not kept; a state whose norm
    exceeds the escape radius stops it at the substep's end (t1 for the last
    substep) and is kept."""
    u, e = u or zero_signal(loop.m), e or zero_signal(loop.n)
    S, times = loop.substeps, partition.times
    x = np.asarray(x0, dtype=float)[None]
    dense, dense_t, held_all = [x[0]], [0.0], []

    def result(status):
        return (status, np.array(dense), np.array(dense_t),
                np.array(held_all).reshape(-1, loop.m))

    with np.errstate(over="ignore", invalid="ignore"):
        if np.sqrt(x[0] @ x[0]) > loop.escape_radius:
            return result(Status(BLOWUP, 0.0, "initial state beyond escape radius"))
        for i in range(partition.intervals):
            t0, t1 = float(times[i]), float(times[i + 1])
            held = loop.feedback.eval(x + e.eval(t0))
            held_all.append(held[0])
            h = (t1 - t0) / S
            for k in range(S):
                tau = t0 + k * h
                x = _rk4_step(loop.F, x, tau, h, held, u.eval)
                if not np.isfinite(x).all():
                    return result(Status(NUMERICAL_FAILURE, tau, "nonfinite state"))
                t = t1 if k == S - 1 else tau + h
                dense.append(x[0])
                dense_t.append(t)
                if np.sqrt(x[0] @ x[0]) > loop.escape_radius:
                    return result(Status(BLOWUP, t, "escape radius reached"))
    return result(Status(COMPLETED))


def stop_batches(S):
    """(loop, rows) per batch at S substeps; a row is (partition, x0, u, e)."""
    one = constant_signal([1.0])
    part = make_partition("uniform", 0.5, 0.02)
    # dx = -x + x^2 escapes past radius 50: from 4.1, 4.2 and 4.3 inside the
    # 13th interval, at 4 substeps at its substeps 3 (the last), 2 and 0, at
    # 16 at its substeps 15, 9 and 3; from 60 before the first interval; from
    # nan at the start of the first substep; from 1e200, whose square
    # overflows, before the first interval
    counter = (nonlinear_loop(counterexample_system(), zero_feedback(1, 1), S, 50.0), [
        (part, [4.1], one, None), (part, [4.2], one, None), (part, [4.3], one, None),
        (part, [60.0], one, None), (part, [0.5], one, constant_signal([1e-3])),
        (make_partition("jitter", 0.5, 0.02, 0.4, seed=6), [4.0], one, None),
        (part, [math.nan], one, None), (part, [1e200], one, None),
    ])
    # dx1 = x1^2 + held, with held = -x1 / 2 at the noisy sample, turns
    # nonfinite from 10; dx2 = 100 x2 takes 1e152 past 1.3e154, where the
    # square of x2, and so the norm, overflows while the state stays finite
    fb = Feedback(2, 1, lambda x: -0.5 * np.asarray(x, dtype=float)[..., :1])

    def F(x, p, u):
        return np.stack([x[..., 0] * x[..., 0] + p[..., 0], 100.0 * x[..., 1]], axis=-1)

    part = make_partition("uniform", 0.3, 0.02)
    rows = [(part, [10.0, 0.0], None, constant_signal([1e-3, 0.0])),
            (part, [0.0, 1e152], None, None),
            (part, [-1.0, -1e-3], None, constant_signal([0.0, 1e-4]))]
    return [counter, (ClosedLoop(2, 1, F, fb, S, math.inf), rows),
            (ClosedLoop(2, 1, F, fb, S, 1e300), rows)]


@pytest.mark.parametrize("S", [1, 4, 16])
def test_stops_match_per_substep_reference(S):
    batches = stop_batches(S)
    got = []
    for loop, rows in batches:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajs = sample_solve_batch(loop, *zip(*rows))
        for row, traj in zip(rows, trajs):
            status, dense, dense_t, held = reference_stops(loop, *row)
            assert traj.status == status
            assert traj.dense_states.tobytes() == dense.tobytes()
            assert traj.dense_times.tobytes() == dense_t.tobytes()
            assert traj.held_controls.tobytes() == held.tobytes()
            got.append(traj)
    escaped = [((t.dense_times.size - 2) // S, (t.dense_times.size - 2) % S)
               for t in got[:3]]
    assert [t.status.kind for t in got] == (
        [BLOWUP] * 4 + [COMPLETED, BLOWUP, NUMERICAL_FAILURE, BLOWUP]
        + [NUMERICAL_FAILURE, COMPLETED, COMPLETED]
        + [NUMERICAL_FAILURE, BLOWUP, COMPLETED])
    assert escaped == [(12, k) for k in {1: [0, 0, 0], 4: [3, 2, 0], 16: [15, 9, 3]}[S]]
    # a nan start fails at t = 0 with the start as its whole record, alone
    # as in the batch
    loop, rows = batches[0]
    alone = sample_solve(loop, *rows[6])
    for traj in (got[6], alone):
        assert traj.status == Status(NUMERICAL_FAILURE, 0.0, "nonfinite state")
        assert traj.dense_states.shape == (1, 1) and np.isnan(traj.dense_states).all()
        assert traj.held_controls.shape == (1, 1)
    # a start whose squared norm overflows stops at t = 0 too, as a start
    # beyond the escape radius, with no RuntimeWarning
    alone = sample_solve(loop, *rows[7])
    for traj in (got[7], alone):
        assert traj.status == Status(BLOWUP, 0.0, "initial state beyond escape radius")
        assert traj.dense_states.tolist() == [[1e200]]
    # inf norms run on at an infinite radius, and are an escape at 1e300
    with np.errstate(over="ignore"):
        assert np.isfinite(got[9].dense_states).all() and np.isinf(got[9].norms()).any()
    assert 1e154 < got[12].dense_states[-1, 1] < 1e300


def test_affine_rhs_matches_matrix_vector_product():
    # the batched G @ w against the 1-D product, across magnitudes
    rng = np.random.default_rng(3)
    for sys in (integrator_system(), scalar_integrator_system()):
        F = affine_loop(sys, zero_feedback(sys.n, sys.m)).F
        size = (4000, sys.n)
        x = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-300, 300, size=size)
        p, u = (rng.choice([-1.0, 1.0], size=(4000, sys.m))
                * 10.0 ** rng.uniform(-300, 300, size=(4000, sys.m)) for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            got = F(x, p, u)
            for row, xr, pr, ur in zip(got, x, p, u):
                want = sys.f(xr) + sys.G(xr) @ (pr + ur)
                assert row.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Domain monitor: the first exit in the order the states are read
# ---------------------------------------------------------------------------

def reference_exit(traj, e, substeps):
    """(time, "sample" or "dense") of the first state whose cone margin is
    near zero or has changed sign, or None, reading one state at a time: x0
    as the first previous margin, then per interval the noisy sample and its
    substeps' states, and not the state an escaping run stops at."""
    dense, times = traj.dense_states, traj.partition.times
    read = dense.shape[0] - (traj.status.kind == BLOWUP)
    if read < 1:
        return None
    prev = cone_margin(dense[0])
    order = []
    for i in range(traj.held_controls.shape[0]):
        noisy = dense[i * substeps] + np.reshape(e.eval(times[i]), dense.shape[1])
        order.append((noisy, float(times[i]), "sample"))
        order += [(dense[r], float(traj.dense_times[r]), "dense")
                  for r in range(i * substeps + 1, min((i + 1) * substeps + 1, read))]
    for state, t, what in order:
        margin = cone_margin(state)
        if abs(margin) < 1e-9 or margin * prev < 0:
            return t, what
        prev = margin
    return None


def assert_exit_as_read(loop, rows):
    trajs = sample_solve_batch(loop, *zip(*rows))
    exits = []
    for (_, _, _, e), traj in zip(rows, trajs):
        hit = reference_exit(traj, e or zero_signal(loop.n), loop.substeps)
        status = traj.status
        if hit is None:
            assert status.kind != LEFT_DOMAIN and "left CLF" not in status.detail
        elif status.kind == LEFT_DOMAIN:
            assert status.time == hit[0]
        else:
            assert status.detail.endswith(f"; left CLF estimate region at t={hit[0]:g}")
        exits.append(hit)
    return trajs, exits


def monitored_batch():
    """(loop, rows) at 2 substeps under the cone monitor: a row whose noisy
    sample crosses the cone before its states do, one that escapes past
    radius 3 after leaving, and two on jittered partitions, so the rows do
    not share their interval ends."""
    loop = affine_loop(integrator_system(), integrator_feedback(), substeps=2,
                       escape_radius=3.0, domain_margin=cone_margin)
    return loop, [
        (make_partition("uniform", 1.0, 0.05), [1.0, 0.0, 1.0], None,
         sine_signal([0.0, 0.0, 1.0], 0.5, 2.0)),
        (make_partition("uniform", 1.0, 0.01), [0.05, 0.0, 1.0],
         constant_signal([20.0, 0.0]), None),
        (make_partition("jitter", 1.0, 0.02, 0.4, seed=3), [1.0, 0.0, 0.1], None, None),
        (make_partition("jitter", 1.2, 0.015, 0.4, seed=4), [-0.7, 0.4, 0.3], None,
         constant_signal([1e-4, 0.0, 0.0]))]


def test_domain_exit_is_the_first_state_read():
    loop, rows = POOLS[3]
    trajs, exits = assert_exit_as_read(loop, rows)
    assert trajs[0].status.kind == LEFT_DOMAIN
    loop, rows = monitored_batch()
    jitter = rows[3][0]
    trajs, exits = assert_exit_as_read(loop, rows)
    assert exits[0][1] == "sample" and exits[0][0] > 0.0
    assert trajs[1].status.kind == BLOWUP and exits[1][0] < trajs[1].status.time
    assert trajs[3].status.kind == LEFT_DOMAIN and exits[3][1] == "dense"
    i = int(np.searchsorted(jitter.times, trajs[3].status.time)) - 1
    assert (jitter.times[i:i + 2] != rows[2][0].times[i:i + 2]).any()
    # the state a run escapes at is not read: with the radius crossed where
    # row 1 first leaves, it escapes there without leaving
    r = int(np.flatnonzero(trajs[1].dense_times == exits[1][0])[0])
    norms = trajs[1].norms()[r - 1:r + 1]
    assert exits[1][1] == "dense" and norms[0] < norms[1]
    loop = affine_loop(integrator_system(), integrator_feedback(), substeps=2,
                       escape_radius=float(norms.mean()), domain_margin=cone_margin)
    (traj,), (hit,) = assert_exit_as_read(loop, rows[1:2])
    assert traj.status == Status(BLOWUP, exits[1][0], "escape radius reached")
    assert hit is None


# ---------------------------------------------------------------------------
# Blocks: the lockstep batch hands its record over block by block
# ---------------------------------------------------------------------------

def block_records(monkeypatch, batches, intervals):
    """Per row of batches, its trajectory's arrays as bytes and its status,
    stepped in blocks of intervals intervals (None: the default block)."""
    out = []
    for loop, rows in batches:
        with monkeypatch.context() as m:
            if intervals is not None:
                m.setattr(sampler, "BLOCK", intervals * loop.substeps)
            trajs = sample_solve_batch(loop, *zip(*rows))
        out += [(t.status, *(a.tobytes() for a in (
            t.sample_times, t.sample_states, t.dense_times, t.dense_states,
            t.held_controls, t.interval_index))) for t in trajs]
    return out


@pytest.mark.parametrize("intervals", [1, 2, 3, None], ids=["1", "2", "3", "default"])
def test_records_do_not_depend_on_blocks(monkeypatch, intervals):
    # rows that escape, turn nonfinite and leave the CLF estimate region, in
    # blocks of 1, 2 and 3 intervals and the default: the bytes of one block
    # over the whole run. The stops after the start fall inside the first
    # default block, and some at the start of a block of 2 or 3 intervals,
    # whose start state the block before it ended, some inside one
    batches = stop_batches(4)[:2] + [monitored_batch()]
    want = block_records(monkeypatch, batches, 10 ** 9)   # capped at the run
    assert block_records(monkeypatch, batches, intervals) == want
    stops = []
    for loop, rows in batches:
        for (part, *_), traj in zip(rows, sample_solve_batch(loop, *zip(*rows))):
            if traj.status.time:
                i = int(np.searchsorted(part.times, traj.status.time, "right")) - 1
                assert 0 < i < BLOCK // loop.substeps, traj.status
                stops.append((traj.status.kind, i))
    assert {kind for kind, _ in stops} == {BLOWUP, NUMERICAL_FAILURE, LEFT_DOMAIN}
    assert {i % 2 == 0 for _, i in stops} == {i % 3 == 0 for _, i in stops} == {True, False}
