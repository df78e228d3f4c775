import math
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
from clfiss.core import DEFAULT_ESCAPE_RADIUS
from clfiss.sampler import sample_solve_batch
from clfiss.verify import random_disturbance
from clfiss.systems import (cone_margin, counterexample_system,
                            integrator_feedback, integrator_max_clf,
                            integrator_system, scalar_abs_clf,
                            scalar_integrator_system)


def held_loop(gain=-1.0, substeps=4):
    """dx/dt = held value; feedback K(x) = gain * x."""
    fb = Feedback(1, 1, lambda x: gain * np.atleast_1d(np.asarray(x, float)),
                  "synthesized", "test")
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
    if run >= 5:   # the escaping and the overflowing run stop early
        assert rep.intervals.size < part.intervals


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
    # runs of over two blocks of intervals, on jittered and uniform
    # partitions, alone and as one batch of rows that end at different times;
    # the sines are fast and large enough that a last-bit change of a stage
    # time shows in the states
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
    integrator = affine_loop(integrator_system(), integrator_feedback(), substeps=2)
    part = make_partition("uniform", 1.0, 0.007)
    u, e = sine_signal([1.0, -0.5], 0.5, 3.0, 1.0), constant_signal([1e-4, 0.0, -1e-4])
    traj = sample_solve(integrator, part, [1.0, -0.5, 0.8], u, e)
    want = reference_dense_states(integrator, part, [1.0, -0.5, 0.8], u, e)
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
