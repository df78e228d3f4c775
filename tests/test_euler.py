import numpy as np
import pytest

from clfiss import (AlphaTables, ClosedLoop, Feedback, Partition, Trajectory,
                    build_envelope, check_iss_euler, constant_signal,
                    make_partition, nonlinear_loop, sample_solve,
                    zero_feedback, zero_signal)
from clfiss.core import (BLOWUP, COMPLETED, NUMERICAL_FAILURE, Status,
                         lower_diameter, upper_diameter)
from clfiss.euler import RefinementSchedule, euler_study, geometric_schedule
from clfiss.systems import counterexample_system


def linear_loop(substeps=4):
    fb = Feedback(1, 1, lambda x: -np.atleast_1d(np.asarray(x, float)))
    return ClosedLoop(1, 1, lambda x, p, u: p, fb, substeps)


class TestSchedule:
    def test_requires_decreasing_diameters(self):
        parts = [make_partition("uniform", 1.0, 0.1),
                 make_partition("uniform", 1.0, 0.2)]
        errs = [zero_signal(1), zero_signal(1)]
        with pytest.raises(ValueError):
            RefinementSchedule(parts, errs, zero_signal(1))

    def test_requires_shrinking_noise_ratio(self):
        parts = [make_partition("uniform", 1.0, 0.2),
                 make_partition("uniform", 1.0, 0.1)]
        errs = [zero_signal(1), constant_signal([0.05])]
        with pytest.raises(ValueError):
            RefinementSchedule(parts, errs, zero_signal(1))

    def test_geometric_schedule_shapes(self):
        s = geometric_schedule(0.2, 5, 1.0, dim_e=1)
        assert s.levels == 5
        ratios = s.noise_ratios()
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


class TestEulerStudy:
    def test_linear_loop_converges_to_exponential(self):
        loop = linear_loop()
        sched = geometric_schedule(0.2, 7, 3.0, dim_e=1)
        study = euler_study(loop, sched, [1.0])
        assert study.verdict
        assert study.divergent_level is None
        exact = np.exp(-study.grid_times)
        sup_err = np.max(np.abs(study.limit_states[:, 0] - exact))
        assert sup_err < 1e-2
        dists = [row["distance_to_prev"] for row in study.levels[1:]]
        ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 0]
        assert all(r <= 0.75 for r in ratios[1:])

    def test_zero_start_zero_distances(self):
        # zero start and zero noise keep every level at the equilibrium
        loop = linear_loop()
        sched = geometric_schedule(0.2, 4, 1.0, dim_e=1, error_exponent=None)
        study = euler_study(loop, sched, [0.0])
        assert study.verdict
        for row in study.levels[1:]:
            assert row["distance_to_prev"] == 0.0

    def test_quadratic_noise_does_not_change_verdict(self):
        # sup(e_r) = step^2 keeps the noise-to-step ratio shrinking like step
        loop = linear_loop()
        noisy = euler_study(loop, geometric_schedule(0.2, 6, 2.0, dim_e=1,
                                                     error_exponent=2.0), [1.0])
        clean = euler_study(loop, geometric_schedule(0.2, 6, 2.0, dim_e=1,
                                                     error_exponent=9.0), [1.0])
        assert noisy.verdict and clean.verdict
        gap = np.max(np.abs(noisy.limit_states - clean.limit_states))
        assert gap < 1e-3

    def test_divergent_level_reported(self):
        sysc = counterexample_system()
        loop = nonlinear_loop(sysc, zero_feedback(1, 1))
        sched = geometric_schedule(0.05, 3, 1.0, dim_e=1,
                                   input_signal=constant_signal([1.0]))
        study = euler_study(loop, sched, [4.0])
        assert study.divergent_level == 0
        assert study.divergent_time is not None
        assert not study.verdict


def reference_study(loop, schedule, x0):
    """euler_study's report as one sample_solve per level, run in level order
    and stopped at the first divergent level: (levels, verdict,
    divergent_level, divergent_time, limit, grid_times, limit_states)."""
    grid = np.linspace(0.0, min(p.horizon for p in schedule.partitions), 4096)
    rows, distances = [], []
    prev = limit = limit_states = None
    divergent_level = divergent_time = None
    for r, part in enumerate(schedule.partitions):
        traj = sample_solve(loop, part, x0, schedule.inputs,
                            schedule.errors[r])
        row = {"delta_bar": upper_diameter(part),
               "delta_lower": lower_diameter(part),
               "sup_e": schedule.errors[r].bound, "distance_to_prev": None}
        rows.append(row)
        if traj.status.kind in (BLOWUP, NUMERICAL_FAILURE):
            divergent_level, divergent_time = r, traj.status.time
            break
        states = traj.state_at(grid)
        if prev is not None:
            row["distance_to_prev"] = float(
                np.max(np.linalg.norm(states - prev, axis=1)))
            distances.append(row["distance_to_prev"])
        prev = states
        limit, limit_states = traj, states
    verdict = False
    if divergent_level is None and len(distances) >= 2:
        ratios = [(0.0 if b <= 0.0 else np.inf) if a <= 0.0 else b / a
                  for a, b in zip(distances, distances[1:])]
        verdict = all(q <= 0.8 for q in ratios[-3:])
    elif divergent_level is None:
        verdict = all(d == 0.0 for d in distances)
    return (rows, verdict, divergent_level, divergent_time, limit,
            grid if limit is not None else None, limit_states)


def same_bytes(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.shape == b.shape
        and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("loop, schedule, x0", [
    (linear_loop(), geometric_schedule(0.2, 6, 2.0, dim_e=1), [1.0]),
    (nonlinear_loop(counterexample_system(), zero_feedback(1, 1)),
     geometric_schedule(0.05, 3, 1.0, dim_e=1,
                        input_signal=constant_signal([1.0])), [4.0]),
], ids=["linear", "divergent"])
def test_batched_study_matches_per_level_runs(loop, schedule, x0):
    study = euler_study(loop, schedule, x0)
    (levels, verdict, divergent_level, divergent_time, limit, grid_times,
     limit_states) = reference_study(loop, schedule, x0)
    assert study.levels == levels
    assert study.verdict == verdict
    assert study.divergent_level == divergent_level
    assert study.divergent_time == divergent_time
    assert same_bytes(study.grid_times, grid_times)
    assert same_bytes(study.limit_states, limit_states)
    assert (study.limit is None) == (limit is None)
    if limit is not None:
        assert same_bytes(study.limit.dense_states, limit.dense_states)
        assert same_bytes(study.limit.dense_times, limit.dense_times)
        assert same_bytes(study.limit.held_controls, limit.held_controls)


def fake_trajectory(times, values):
    times = np.asarray(times, dtype=float)
    states = np.asarray(values, dtype=float).reshape(-1, 1)
    part = Partition(np.array([0.0, times[-1]]))
    return Trajectory(part, np.array([0.0, times[-1]]),
                      states[[0, -1]], times, states,
                      np.zeros((1, 1)), np.zeros(times.size, dtype=int),
                      Status(COMPLETED))


class TestCheckIssEuler:
    def test_zero_trajectory_margin_is_overflow(self):
        env = build_envelope(AlphaTables.identity(10.0), 0.25)
        t = np.linspace(0.0, 5.0, 64)
        traj = fake_trajectory(t, np.zeros(64))
        chk = check_iss_euler(traj, env, [0.0], 0.0)
        assert chk.ok
        assert chk.worst_margin == pytest.approx(0.25)

    def test_exponential_under_identity_envelope(self):
        # e^{-t} <= 16/(16+t) pointwise, so the check passes with any overflow
        env = build_envelope(AlphaTables.identity(10.0), 0.05)
        t = np.linspace(0.0, 20.0, 512)
        traj = fake_trajectory(t, np.exp(-t))
        chk = check_iss_euler(traj, env, [1.0], 0.0)
        assert chk.ok
        # independent oracle for the comparison itself
        assert np.all(np.exp(-t) <= 16.0 / (16.0 + t) + 1e-15)

    def test_limit_margin_triangle_inequality(self):
        # the limit's envelope margin is at least any level's margin minus the
        # sup distance between that level and the limit (triangle inequality)
        loop = linear_loop()
        sched = geometric_schedule(0.2, 6, 2.0, dim_e=1)
        study = euler_study(loop, sched, [1.0])
        env = build_envelope(AlphaTables.identity(10.0), 0.05)
        grid = study.grid_times
        bound = env.additive_bound(1.0, 0.0, grid)
        limit_norms = np.linalg.norm(study.limit_states, axis=1)
        limit_margin = float(np.min(bound - limit_norms))
        for r in range(sched.levels):
            traj = sample_solve(loop, sched.partitions[r], [1.0],
                                sched.inputs, sched.errors[r])
            states = traj.state_at(grid)
            margin_r = float(np.min(bound - np.linalg.norm(states, axis=1)))
            dist = float(np.max(np.linalg.norm(states - study.limit_states,
                                               axis=1)))
            assert limit_margin >= margin_r - dist - 1e-12

    def test_violation_located(self):
        env = build_envelope(AlphaTables.identity(10.0), 0.05)
        t = np.linspace(0.0, 2.0, 21)   # includes t = 1.0 exactly
        bound = env.additive_bound(1.0, 0.0, t)
        vals = bound - 0.1
        vals[10] = bound[10] + 0.2      # exceed the envelope at t = 1
        traj = fake_trajectory(t, vals)
        chk = check_iss_euler(traj, env, [1.0], 0.0)
        assert not chk.ok
        assert chk.first_violation_t == pytest.approx(1.0)
        assert chk.worst_margin == pytest.approx(-0.2)
