"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are pinned here
and nowhere else; fixtures share the expensive artifacts (tables, guards,
certificates) across criteria.
"""

import math

import numpy as np
import pytest

from clfiss import (AlphaTables, Campaign, ClosedLoop, ProbeConfig,
                    affine_loop, build_envelope, check_iss_euler,
                    combined_feedback, constant_signal, damping_feedback,
                    decrease_check, estimate_alpha_tables, estimate_rate_guard,
                    gronwall_gap, k2, lower_diameter, make_partition,
                    nonlinear_loop, run_campaign, sample_solve, synthesize_k1,
                    zero_feedback)
from clfiss.euler import euler_study, geometric_schedule
from clfiss.feedback import Feedback
from clfiss.systems import (build_weak_iss_certificate, cone_margin,
                            counterexample_system, integrator_feedback,
                            integrator_feedback_crosscheck, integrator_max_clf,
                            integrator_squared_clf, integrator_system,
                            scalar_abs_clf, scalar_integrator_system,
                            weak_iss_loop)
from clfiss.verify import make_cases


def report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def annulus_points(rng, dim, lo, hi, count):
    dirs = rng.normal(size=(count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(lo, hi, size=(count, 1))


@pytest.fixture(scope="module")
def integrator_setup():
    sys3 = integrator_system()
    max_clf = integrator_max_clf()
    sq_clf = integrator_squared_clf()
    return sys3, max_clf, sq_clf


@pytest.fixture(scope="module")
def envelope_guard(integrator_setup):
    """Max-CLF tables, envelope and rate guard for the integrator campaign."""
    sys3, max_clf, _ = integrator_setup
    tables = estimate_alpha_tables(max_clf, 20.0, 257, directions=256,
                                   radii=512, seed=0)
    env = build_envelope(tables, 0.1)
    loop = affine_loop(sys3, integrator_feedback(), substeps=1,
                       domain_margin=cone_margin)
    guard = estimate_rate_guard(loop, max_clf, tables, epsilon=0.1, M=2.0,
                                N=0.1, sys=sys3,
                                probe=ProbeConfig(2048, 4000, 1.25, 0))
    return loop, tables, env, guard


def test_criterion_01_feedback_decay(integrator_setup):
    """Synthesized first piece satisfies the decay inequality on the annulus."""
    sys3, _, sq_clf = integrator_setup
    rng = np.random.default_rng(101)
    ok = True
    for system, clf in ((scalar_integrator_system(), scalar_abs_clf()),
                        (sys3, sq_clf)):
        for x in annulus_points(rng, system.n, 0.1, 10.0, 1000):
            u = synthesize_k1(system, clf, x)
            z = clf.subgrad(x)
            drift = float(z @ (system.f(x) + np.asarray(system.G(x)) @ u))
            if drift > -clf.V(x) * (1.0 - 1e-6):
                ok = False
                break
    report(1, "feedback decay <subgrad, f + G k1> <= -V(1 - 1e-6) "
              "on 1000 annulus states (scalar and integrator)", ok)


def test_criterion_02_damping_origin_continuity(integrator_setup):
    """Signed damping vanishes at the origin; gradient damping does not."""
    sys3, max_clf, _ = integrator_setup
    rng = np.random.default_rng(102)
    shells = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    dirs = rng.normal(size=(256, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ok = True
    sup_last = None
    for r in shells:
        sup = max(float(np.linalg.norm(k2(sys3, max_clf, r * d))) for d in dirs)
        if sup > math.sqrt(2.0) * r * (1.0 + 1e-9):
            ok = False
        sup_last = sup
    if sup_last >= 1e-5:
        ok = False

    damp = damping_feedback(sys3, max_clf)
    base = 1.0 / math.sqrt(2.0)
    for r in shells:
        eps1 = r / math.sqrt(2.0)
        v1 = damp.eval([eps1, eps1, 0.0])
        if np.max(np.abs(v1 - np.array([-base, -base]))) > 1e-12:
            ok = False
        eps2 = r / math.sqrt(20.0)
        v2 = damp.eval([eps2, eps2, 3.0 * math.sqrt(2.0) * eps2])
        expect = np.array([base + eps2, base - eps2])
        if np.max(np.abs(v2 - expect)) > 1e-12:
            ok = False
        if np.linalg.norm(v1) < 0.9 or np.linalg.norm(v2) < 0.9:
            ok = False
    report(2, "signed damping decays on shells (sup < 1e-5 at 1e-6) while "
              "gradient damping stays at norm >= 0.9 with the shell values "
              "reproduced to 1e-12", ok)


def test_criterion_03_per_step_decrease(integrator_setup):
    """Sampled value decrease of at least dt/16 V(x_i) per interval."""
    sys3, _, sq_clf = integrator_setup
    fb = combined_feedback(sys3, sq_clf)
    loop = affine_loop(sys3, fb, substeps=16)
    part = make_partition("uniform", 5.0, 1e-3)
    rng = np.random.default_rng(103)
    # value floor 1e-3 excludes the terminal chatter ball where the held
    # control's fixed magnitude dominates the state scale
    s_level = 1e-3
    total_checked = 0
    violations = 0
    for x0 in annulus_points(rng, 3, 0.05, 2.0, 20):
        traj = sample_solve(loop, part, x0)
        rep = decrease_check(traj, sq_clf, None, s_level, rel_tol=1e-4)
        total_checked += rep.checked
        violations += len(rep.violations)
    report(3, f"per-step decrease: {violations} violations over "
              f"{total_checked} checked intervals (20 runs, step 1e-3, "
              "horizon 5, tol 1e-4 V)", violations == 0 and total_checked > 0)


def test_criterion_04_iss_envelope_campaign(envelope_guard, integrator_setup):
    """Fifty admissible integrator cases stay inside both envelope forms."""
    _, _, sq_clf = integrator_setup
    loop, tables, env, guard = envelope_guard
    cases = make_cases(loop, guard, M=2.0, N=0.1, count=50, horizon=2.0,
                       seed=104)
    campaign = Campaign(loop, env, guard, cases, M=2.0, N=0.1,
                        clf=integrator_max_clf(), check_decrease=True,
                        s_level=float(tables.lower_inv(0.1)))
    rep = run_campaign(campaign)
    ok = rep.all_passed and rep.summary["asserted"] == 50
    report(4, f"ISS envelope campaign: {rep.summary['asserted']} asserted "
              f"cases, {rep.summary['failed']} failures, worst margin "
              f"{rep.summary['worst_margin']:.3f}", ok)


def test_criterion_05_gronwall_gap(envelope_guard):
    """Observed interval gaps stay within the exponential bound."""
    loop, _, _, guard = envelope_guard
    checked = 0
    worst = 0.0

    # sharp case: pure unstable drift with exact Lipschitz constant 1
    drift_loop = ClosedLoop(1, 1, lambda x, p, u: x, zero_feedback(1, 1), 32)
    part = make_partition("uniform", 5.0, 0.1)
    for mag in np.linspace(1e-4, 1e-3, 10):
        repg = gronwall_gap(drift_loop, part, [1.0],
                            e=constant_signal([mag]), L=1.0)
        checked += repg.intervals.size
        worst = max(worst, repg.worst_ratio)

    # integrator under its estimated (inflated) constant
    part3 = make_partition("uniform", 600 * 0.9 * guard.delta,
                           0.9 * guard.delta)
    e3 = constant_signal([guard.kappa * lower_diameter(part3), 0.0, 0.0])
    repg = gronwall_gap(loop, part3, [1.0, -0.5, 0.5], e=e3, L=guard.L,
                        delta=guard.delta)
    checked += repg.intervals.size
    worst = max(worst, repg.worst_ratio)

    report(5, f"Gronwall gap: worst observed/bound = {worst:.6f} over "
              f"{checked} intervals", worst <= 1.001 and checked >= 1000)


def test_criterion_06_euler_convergence():
    """Refined sampling of the linear loop converges to the exponential."""
    fb = Feedback(1, 1, lambda x: -np.atleast_1d(np.asarray(x, float)))
    loop = ClosedLoop(1, 1, lambda x, p, u: p, fb, 4)
    sched = geometric_schedule(0.2, 7, 3.0, dim_e=1, error_exponent=2.0,
                               seed=106)
    study = euler_study(loop, sched, [1.0])
    dists = [row["distance_to_prev"] for row in study.levels[1:]]
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 0]
    ratios_ok = all(r <= 0.75 for r in ratios[1:])
    exact = np.exp(-study.grid_times)
    sup_err = float(np.max(np.abs(study.limit_states[:, 0] - exact)))
    ok = study.verdict and ratios_ok and sup_err < 1e-2
    report(6, f"Euler convergence: ratios {['%.2f' % r for r in ratios]}, "
              f"finest sup error {sup_err:.4f}", ok)


def test_criterion_07_counterexample_blowup():
    """Unit input blows the raw scalar loop up at ln(4/3)."""
    sysc = counterexample_system()
    loop = nonlinear_loop(sysc, zero_feedback(1, 1))
    part = make_partition("uniform", 0.5, 0.005)
    traj = sample_solve(loop, part, [4.0], constant_signal([1.0]))
    tbar = traj.status.time
    oracle = math.log(4.0 / 3.0)
    ok = (traj.status.kind == "blowup" and tbar < 0.30
          and abs(tbar - oracle) <= 0.01)
    report(7, f"counterexample blow-up at t = {tbar:.4f} "
              f"(oracle ln(4/3) = {oracle:.4f})", ok)


def test_criterion_08_weak_iss():
    """Gain-scheduled counterexample loop is bounded and inside the envelope."""
    sysc = counterexample_system()
    clf = scalar_abs_clf()
    k1 = zero_feedback(1, 1)
    cert = build_weak_iss_certificate(sysc, clf, k1, i_max=8, seed=108)
    # closed-form oracle for the first band: D(s, b) = b^2 s^2 - s / 2 < 0 on
    # [1, 2] iff b < 1/2, deflated by the 0.9 safety factor
    ok = 0.36 <= float(cert.r_seq[0]) < 0.45 + 1e-9
    loop = weak_iss_loop(sysc, k1, cert)
    env = build_envelope(AlphaTables.identity(40.0), 0.1, cert.alpha4)
    part = make_partition("uniform", 20.0, 0.01)
    worst_margin = math.inf
    for x0 in np.linspace(-4.0, 4.0, 9):
        for sign in (1.0, -1.0):
            u = constant_signal([sign])
            traj = sample_solve(loop, part, [x0], u)
            if not traj.status.ok:
                ok = False
                continue
            chk = check_iss_euler(traj, env, [x0], 1.0)
            worst_margin = min(worst_margin, chk.worst_margin)
            if not chk.ok:
                ok = False
    report(8, f"weak ISS: r1 = {float(cert.r_seq[0]):.3f}, "
              f"alpha4(1) = {cert.alpha4(1.0):.3f}, worst envelope margin "
              f"{worst_margin:.3f} over 18 runs", ok)


def test_criterion_09_integrator_crosscheck():
    """Explicit feedback equals the closed-form recipe; channel norm bounded."""
    rep = integrator_feedback_crosscheck(count=10000, seed=109)
    ok = (rep["k1_rel_error"] < 1e-12
          and rep["b_norm_min_sq"] >= 1.0 - 1e-9
          and rep["b_norm_excess"] <= 1e-9)
    report(9, f"integrator cross-check on {rep['points']} points: k1 rel err "
              f"{rep['k1_rel_error']:.2e}, b-norm bounds held", ok)


def test_criterion_10_comparison_function_round_trips():
    """Radius tables match analytic level sets; sandwich inequality holds."""
    abs_clf = scalar_abs_clf()
    from clfiss.systems import scalar_square_clf
    sq = scalar_square_clf()
    t_abs = estimate_alpha_tables(abs_clf, 10.0, 257, radii=20001)
    t_sq = estimate_alpha_tables(sq, 10.0, 257, radii=20001)
    err_abs = max(float(np.max(np.abs(t_abs.lower - t_abs.levels))),
                  float(np.max(np.abs(t_abs.upper - t_abs.levels))))
    target_sq = np.sqrt(t_sq.levels)
    err_sq = max(float(np.max(np.abs(t_sq.lower - np.minimum(target_sq,
                                                             t_sq.levels)))),
                 float(np.max(np.abs(t_sq.upper - target_sq))))
    ok = err_abs < 1e-3 and err_sq < 1e-3

    rng = np.random.default_rng(110)
    for clf, tables in ((abs_clf, t_abs), (sq, t_sq)):
        for _ in range(1000):
            x = np.array([rng.uniform(-5.0, 5.0)])
            v = clf.V(x)
            nx = abs(float(x[0]))
            if tables.lower_at(v) > nx + tables.grid_tol:
                ok = False
            if tables.upper_at(v) < nx - tables.grid_tol:
                ok = False
    report(10, f"comparison tables: node errors {err_abs:.2e} (abs) and "
               f"{err_sq:.2e} (square); sandwich inequality at 1000 points",
           ok)
