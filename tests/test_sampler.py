import math

import numpy as np
import pytest

from clfiss import (BLOWUP, COMPLETED, LEFT_DOMAIN, ClosedLoop, Feedback,
                    ProbeConfig, admissible, affine_loop, combined_feedback,
                    constant_signal, decrease_check, estimate_alpha_tables,
                    estimate_rate_guard, gronwall_gap, kappa_formula,
                    lower_diameter, make_partition, nonlinear_loop,
                    sample_solve, zero_feedback, zero_signal)
from clfiss.core import DEFAULT_ESCAPE_RADIUS
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
