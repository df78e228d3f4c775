"""Row-wise callable protocol and the batched set-up paths built on it.

The certificate-side callables map a state batch of shape (..., n) row by
row. The protocol tests check that a batch gives, bit for bit, what the same
callable gives one state at a time. The reference tests recompute the
level-set tables, the rate guard, the weak-ISS certificate and the per-step
decrease check with per-point loops and compare them with the batched
implementations, and compare the one-pass explicit integrator feedback and
weak-ISS right-hand side with their casewise and gain-matrix forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfiss import (Clf, DecayViolation, Feedback, ProbeConfig, affine_loop,
                    combined_feedback, constant_signal, damping_feedback,
                    decrease_check, estimate_alpha_tables, estimate_rate_guard,
                    kappa_formula, make_partition,
                    piecewise_constant_signal, sample_solve, sample_solve_batch,
                    sine_signal, zero_feedback, zero_signal)
from clfiss.clf import _angular_tol
from clfiss.core import as_vector, direction_set, unit_rows
from clfiss.sampler import MARGIN_GRID
from clfiss.systems import (WeakIssCertificate, _band_edges, _sign, _tiny_safe,
                            build_weak_iss_certificate,
                            counterexample_system, cone_margin,
                            estimate_decay_margin, integrator_feedback,
                            integrator_k1_k2, integrator_max_clf,
                            integrator_squared_clf, integrator_system,
                            scalar_abs_clf, scalar_integrator_system,
                            scalar_square_clf, weak_iss_loop)
from clfiss.verify import random_disturbance

coord = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def integrator_points(draw):
    """Generic points plus the origin, the x3 axis, polar, equatorial and
    on-cone points of the max CLF, and tiny points whose squares underflow."""
    a = draw(st.floats(0.01, 5.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    kind = draw(st.sampled_from(["generic", "origin", "axis", "polar",
                                 "equatorial", "cone", "tiny"]))
    if kind == "tiny":
        return draw(st.sampled_from([[5e-324, 5e-324, sign], [1e-170, 0.0, 0.0],
                                     [1e-170, 1e-170, sign * 1e-171],
                                     [a * 2.0 ** -501, a * 2.0 ** -502, 0.0]]))
    if kind == "generic":
        return [draw(coord), draw(coord), draw(coord)]
    if kind == "origin":
        return [0.0, 0.0, 0.0]
    if kind == "axis":
        return [0.0, 0.0, sign * a]
    if kind == "polar":
        return [a, -0.5 * a, sign * 3.0 * a]
    if kind == "equatorial":
        return [-a, 0.5 * a, sign * 0.5 * a]
    return draw(st.sampled_from([[a, 0.0, 2.0 * sign * a],
                                 [0.0, a, 2.0 * sign * a],
                                 [3.0 * a, 4.0 * a, 10.0 * sign * a]]))


def scalar_points():
    return st.one_of(st.just([0.0]), st.lists(coord, min_size=1, max_size=1))


def assert_rowwise(fn, *batches):
    """fn on (B, .) and (2, B, .) batches equals fn row by row, bit for bit."""
    flat = [np.asarray(b, dtype=float) for b in batches]
    rows = np.array([fn(*(b[k] for b in flat)) for k in range(flat[0].shape[0])],
                    dtype=float)
    got = np.asarray(fn(*flat), dtype=float)
    assert got.shape == rows.shape and got.tobytes() == rows.tobytes()
    stacked = [np.stack([b, b[::-1]]) for b in flat]
    got2 = np.asarray(fn(*stacked), dtype=float)
    want2 = np.stack([rows, rows[::-1]])
    assert got2.shape == want2.shape and got2.tobytes() == want2.tobytes()


class TestProtocol:
    @given(pts=st.lists(integrator_points(), min_size=1, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_integrator_clfs_and_system(self, pts):
        sys3 = integrator_system()
        for clf in (integrator_max_clf(), integrator_squared_clf()):
            assert_rowwise(clf.V, pts)
            assert_rowwise(clf.subgrad, pts)
        assert_rowwise(cone_margin, pts)
        assert_rowwise(sys3.f, pts)
        assert_rowwise(sys3.G, pts)

    @given(pts=st.lists(scalar_points(), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_scalar_clfs_and_system(self, pts):
        sys1 = scalar_integrator_system()
        for clf in (scalar_abs_clf(), scalar_square_clf()):
            assert_rowwise(clf.V, pts)
            assert_rowwise(clf.subgrad, pts)
        assert_rowwise(sys1.f, pts)
        assert_rowwise(sys1.G, pts)

    @given(pairs=st.lists(st.tuples(scalar_points(), scalar_points()),
                          min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_counterexample_system(self, pairs):
        xs, us = zip(*pairs)
        assert_rowwise(counterexample_system().f, list(xs), list(us))

    def test_single_state_is_a_batch_without_leading_axes(self):
        clf = integrator_max_clf()
        assert np.shape(clf.V([3.0, 4.0, 0.0])) == ()
        assert clf.subgrad(np.zeros(3)).shape == (3,)
        assert integrator_system().G([1.0, 2.0, 3.0]).shape == (3, 2)
        assert combined_feedback(integrator_system(), clf).eval(
            [1.0, 2.0, 3.0]).shape == (2,)
        assert sine_signal([1.0, 2.0], 1.0, 1.0).eval(0.5).shape == (2,)

    @given(pts=st.lists(integrator_points(), min_size=1, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_integrator_feedbacks(self, pts):
        sys3 = integrator_system()
        for clf in (integrator_max_clf(), integrator_squared_clf()):
            assert_rowwise(combined_feedback(sys3, clf).eval, pts)
            assert_rowwise(damping_feedback(sys3, clf).eval, pts)
        assert_rowwise(integrator_feedback().eval, pts)
        assert_rowwise(zero_feedback(3, 2).eval, pts)

    @given(pts=st.lists(scalar_points(), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_scalar_feedbacks(self, pts):
        sys1 = scalar_integrator_system()
        for clf in (scalar_abs_clf(), scalar_square_clf()):
            assert_rowwise(combined_feedback(sys1, clf).eval, pts)
            assert_rowwise(damping_feedback(sys1, clf).eval, pts)
        assert_rowwise(zero_feedback(1, 1).eval, pts)

    def test_first_failing_row_is_named(self):
        # the certificate is under-powered beyond |x| = 2 only; the error
        # names the one such row, or the first of several in batch order
        sys1, clf = scalar_integrator_system(), scalar_abs_clf()
        weak = Clf(1, clf.V, clf.subgrad, lambda s: np.where(s > 2.0, 1e-4 * s, s))
        fb = combined_feedback(sys1, weak)
        for x in ([0.5], [-1.0], [0.0]):
            fb.eval(x)
        cases = [([[[0.0], [1.0]], [[2.5], [-1.5]]], 2.5),
                 ([[0.5], [-1.0], [-3.0], [4.0], [0.0]], -3.0)]
        for batch, bad in cases:
            with pytest.raises(DecayViolation) as exc:
                fb.eval(batch)
            assert exc.value.x.tolist() == [bad]
            with pytest.raises(DecayViolation) as one:
                fb.eval([bad])
            assert str(exc.value) == str(one.value)

    def test_fd_gradient_clf_runs_in_a_batch(self):
        # the synthesized feedback of V = x^2 with its finite-difference
        # selection, on a lockstep batch of three runs
        sys1 = scalar_integrator_system()
        V = scalar_square_clf().V

        def fd_gradient(x):
            # central difference with step 1e-6 * max(1, |x|), zero at 0
            x = np.asarray(x, dtype=float)
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            g = (V(x + h) - V(x - h))[..., None] / (2.0 * h)
            return np.where(x != 0.0, g, 0.0)

        fb = combined_feedback(sys1, Clf(1, V, fd_gradient, lambda s: s))
        loop = affine_loop(sys1, fb, substeps=4)
        part = make_partition("uniform", 1.0, 0.1)
        x0s = [[1.0], [-0.5], [0.0]]
        for x0, traj in zip(x0s, sample_solve_batch(loop, [part] * 3, x0s)):
            alone = sample_solve(loop, part, x0)
            assert traj.status.ok
            assert traj.dense_states.tobytes() == alone.dense_states.tobytes()
            assert abs(traj.dense_states[-1, 0]) <= 0.5 * abs(x0[0])


def stage_times_of(partition, substeps):
    from clfiss.sampler import _stage_times
    return _stage_times(partition.times[:-1], partition.times[1:], substeps)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signals_rowwise_at_stage_times(seed):
    # every factory's array eval equals its scalar eval, bit for bit, at the
    # RK4 stage times of a jittered partition and at times past its end
    rng = np.random.default_rng(seed)
    part = make_partition("jitter", 3.0, 0.011, 0.4, seed=seed)
    times = np.concatenate([stage_times_of(part, 4).ravel(),
                            part.times, part.times + part.horizon, [-1.0, 1e9]])
    knots = part.times[:-1]
    signals = [zero_signal(2), constant_signal([0.3, -0.4]),
               sine_signal(rng.normal(size=2), 0.7, rng.uniform(0.1, 2.0),
                           rng.uniform(0.0, 2.0 * np.pi)),
               sine_signal([1.0], -0.2, 37.0),
               piecewise_constant_signal(knots, rng.normal(size=(knots.size, 2))),
               random_disturbance("piecewise", 3, 0.1, part, rng)]
    for sig in signals:
        want = np.array([sig.eval(float(t)) for t in times])
        assert want.shape == (times.size, sig.dim)
        got = sig.eval(times)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        grid = times[:120].reshape(4, 30)
        got2 = sig.eval(grid)
        assert got2.tobytes() == want[:120].reshape(4, 30, sig.dim).tobytes()


# ---------------------------------------------------------------------------
# Per-point references
# ---------------------------------------------------------------------------

def reference_tables(clf, radius_max, grid_size, directions, radii, seed=0):
    rng = np.random.default_rng(seed)
    dirs = direction_set(rng, directions, clf.dim)
    shells = np.linspace(0.0, radius_max, radii)
    values = np.array([[float(clf.V(r * d)) for r in shells] for d in dirs])
    cummax = np.maximum.accumulate(values, axis=1)
    levels = float(np.min(cummax[:, -1])) * np.linspace(0.0, 1.0, grid_size) ** 2
    lower = np.full(levels.size, radius_max)
    upper = np.zeros(levels.size)
    truncated = 0
    for j, s in enumerate(levels):
        for d in range(dirs.shape[0]):
            k = np.searchsorted(cummax[d], s)
            if k < radii:
                lower[j] = min(lower[j], shells[k])
        inside = np.nonzero((values <= s).any(axis=0))[0]
        if inside.size:
            upper[j] = shells[min(inside[-1] + 1, radii - 1)]
        truncated += bool((values[:, -1] < s).any() or s > cummax.max())
    lower = np.minimum(np.maximum.accumulate(lower), levels)
    upper = np.maximum.accumulate(upper)
    jump = max(np.max(np.diff(lower)), np.max(np.diff(upper)))
    grid_tol = (radius_max / (radii - 1)
                + _angular_tol(clf.dim, dirs.shape[0]) * radius_max + jump)
    return levels, lower, upper, grid_tol, truncated


def annulus_points(rng, dim, r_in, r_out, count):
    """Random directions at uniform radii, the first and second eighth of the
    rows pinned to the inner and the outer shell."""
    dirs = unit_rows(rng, count, dim)
    pts = dirs * rng.uniform(r_in, r_out, size=count)[:, None]
    edge = max(count // 8, 1)
    pts[:edge] = dirs[:edge] * r_in
    pts[edge:2 * edge] = dirs[edge:2 * edge] * r_out
    return pts


def reference_guard(loop, clf, tables, eps, M, N, sys, probe):
    """Raw constants, delta and kappa of the rate guard, one point at a time."""
    rng = np.random.default_rng(probe.seed)
    outer = float(tables.upper_at(tables.lower_inv(N + M))) + 1.0
    half = annulus_points(rng, loop.n, eps / 2.0, outer + eps / 2.0, probe.points)
    full = annulus_points(rng, loop.n, 0.0, outer + eps, probe.points)

    def V(x):
        return float(clf.V(x))

    def lipschitz(diff, pts):
        i = rng.integers(0, pts.shape[0], size=probe.pairs)
        j = rng.integers(0, pts.shape[0], size=probe.pairs)
        best = 0.0
        for a, b in zip(i, j):
            gap = float(np.linalg.norm(pts[a] - pts[b]))
            if a != b and gap >= 1e-12:
                best = max(best, diff(pts[a], pts[b]) / gap)
        return best

    raw = {
        "lambda_minus_raw": min(V(p) for p in half),
        "lambda_plus_raw": max(V(p) for p in full),
        "L_eps_raw": lipschitz(lambda a, b: abs(V(a) - V(b)), half),
        "L_f_raw": lipschitz(lambda a, b: float(np.linalg.norm(sys.f(a) - sys.f(b))), full),
        "L_G_raw": lipschitz(lambda a, b: float(np.linalg.norm(sys.G(a) - sys.G(b), 2)), full),
        "sup_K_raw": max(float(np.linalg.norm(loop.feedback.eval(p))) for p in half),
    }
    sigma, mu = 0.0, eps / 4.0
    for _ in range(min(probe.pairs, 2000)):
        p = half[rng.integers(0, half.shape[0])]
        dx = rng.uniform(-mu, mu, size=loop.n)
        a, b = p + dx, p - dx
        gap2 = float(np.sum((a - b) ** 2))
        if gap2 >= 1e-30:
            sigma = max(sigma, (V(a) + V(b) - 2.0 * V(p)) / gap2)

    infl = probe.inflation
    lam_plus = raw["lambda_plus_raw"] * infl
    L_eps = max(raw["L_eps_raw"] * infl, 1.0 + 1e-9)
    p_grid = np.linspace(0.0, float(tables.lower_inv(N)) + lam_plus, MARGIN_GRID)

    def margin_ok(et):
        return np.all(tables.upper_at(p_grid + L_eps * et / 4.0)
                      <= tables.upper_at(p_grid) + eps / 8.0 + 1e-15)

    lo, hi = 0.0, eps
    if margin_ok(eps):
        lo = eps
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if margin_ok(mid) else (lo, mid)
    delta = 0.999 * (0.99 * lo) / (16.0 + 17.0 * lam_plus)
    L = raw["L_f_raw"] * infl + (N + raw["sup_K_raw"] * infl) * raw["L_G_raw"] * infl
    kappa = kappa_formula(raw["lambda_minus_raw"] / infl, eps, L_eps, L, delta)
    return raw, sigma, delta, kappa


def reference_margin(sys, clf, k1, s, r, probes, seed):
    rng = np.random.default_rng(seed)
    pds = direction_set(rng, probes, sys.m)
    best = -np.inf
    for dx in direction_set(rng, probes, sys.n):
        x = s * dx
        z, base, v_half = clf.subgrad(x), k1(x), 0.5 * float(clf.V(x))
        for dp in pds:
            best = max(best, float(z @ sys.f(x, base + r * dp)) + v_half)
    return best


def reference_certificate(sys, clf, k1, i_max, safety=0.9, band_grid=17,
                          probes=64, seed=0):
    """Band radii, interleaved staircase and alpha4 table, point by point."""

    def margin(s, r):
        return reference_margin(sys, clf, k1, s, r, probes, seed)

    def worst(lo, hi, b):
        return max(margin(float(s), float(b * f)) for f in np.linspace(0.0, 1.0, 9)
                   for s in np.linspace(lo, hi, band_grid))

    def band(lo, hi, tiny=1e-9):
        if worst(lo, hi, tiny) >= 0.0:
            return 0.0
        hi_b = 1.0
        while worst(lo, hi, hi_b) < 0.0 and hi_b < 64.0:
            hi_b *= 2.0
        if hi_b >= 64.0:
            return 64.0
        lo_b = hi_b / 2.0 if hi_b > 1.0 else tiny
        for _ in range(40):
            mid = 0.5 * (lo_b + hi_b)
            lo_b, hi_b = (mid, hi_b) if worst(lo, hi, mid) < 0.0 else (lo_b, mid)
        return lo_b

    r_seq, rp_seq, prev = [], [], np.inf
    for i in range(1, i_max + 1):
        r_seq.append(min(safety * band(float(i), float(i + 1)), prev * (1.0 - 1e-6)))
        rp_seq.append(min(safety * band(1.0 / (i + 1), 1.0 / i),
                          r_seq[-1] * (1.0 - 1e-6)))
        prev = rp_seq[-1]
    return np.array(r_seq), np.array(rp_seq), margin


def reference_region(x):
    """Region of the max CLF at x: origin, axis, polar or equatorial."""
    x = as_vector(x, 3)
    r = float(math.hypot(x[0], x[1]))
    if r == 0.0:
        return "origin" if x[2] == 0.0 else "axis"
    if max(r, abs(x[2])) < 2.0 ** -500:   # x3^2 and 4 r^2 would underflow
        x, _, r = _tiny_safe(x)[:3]
    return "polar" if x[2] * x[2] >= 4.0 * r * r else "equatorial"


def reference_direction(x):
    """(x1, x2) / r(x), rescaled as in _tiny_safe where r is subnormal."""
    x = as_vector(x, 3)
    x1, x2 = float(x[0]), float(x[1])
    r = math.hypot(x1, x2)
    if r < np.finfo(float).tiny:
        x1, x2, r = (float(v) for v in _tiny_safe(x)[3:])
    return x1 / r, x2 / r


def reference_k1_k2(x):
    """The explicit feedback pieces, case by case through the region helpers."""
    x = as_vector(x, 3)
    region = reference_region(x)
    r = float(math.hypot(x[0], x[1]))
    a3 = abs(float(x[2]))
    s3 = float(np.sign(x[2]))
    if region == "origin":
        return np.zeros(2), np.zeros(2)
    if region == "axis":
        return np.array([0.0, a3]), np.array([0.0, a3])
    if region == "polar":
        mu1 = (r - a3) / (r * r + 1.0)
        d1, d2 = reference_direction(x)
        k1 = mu1 * np.array([-x[1] * s3 - d1, x[0] * s3 - d2])

        def mu2(a, b):
            return (a3 - r) * float(np.sign(b * r * s3 - a))

        return k1, -np.array([mu2(x[0], -x[1]), mu2(x[1], x[0])])
    return -np.array([x[0], x[1]]), -r * np.sign(np.array([x[0], x[1]]))


def assert_same_pieces(x):
    got, want = integrator_k1_k2(x), reference_k1_k2(x)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (2,) and g.tobytes() == w.tobytes(), x


def test_sign_helper_matches_np_sign():
    # sign bits included: np.sign gives +0.0 at -0.0 and a nan as it is
    for v in (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf,
              math.nan, -math.nan):
        assert np.float64(_sign(v)).tobytes() == np.sign(np.float64(v)).tobytes(), v


def explicit_law_rows():
    """100 states in shuffled order: origin, axis, cone, tiny,
    subnormal-radius and nonfinite rows among generic ones."""
    special = [[0.0, 0.0, 0.0], [0.0, -0.0, -2.5], [-0.0, 0.0, 1.0],
               [1.0, 0.0, 2.0], [3.0, 4.0, -10.0], [0.0, 1.0, -2.0],
               [5e-324, 5e-324, 1.0], [1e-170, 1e-170, -1e-171],
               [-5e-324, 0.0, 2.5e13], [1e-170, 0.0, 0.0],
               [2.0 ** -501, -2.0 ** -502, 0.0], [3e-320, -1e-321, 4e-300],
               [math.nan, 1.0, 1.0], [1.0, 1.0, -math.nan], [math.inf, 0.0, 1.0],
               [0.0, -math.inf, math.inf], [-1.0, 0.5, 0.25], [2.0, -1.0, 0.0]]
    rng = np.random.default_rng(12)
    count = 100 - len(special)
    generic = rng.normal(size=(count, 3)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1))
    return np.concatenate([special, generic])[rng.permutation(100)]


def test_explicit_law_batches_match_per_row():
    # the float body of eval on batches of 1, 4 and 50 rows against
    # integrator_k1_k2 row by row, byte for byte
    rows = explicit_law_rows()
    with np.errstate(invalid="ignore"):   # inf - inf on the nonfinite rows
        want = np.array([k1v + k2v for k1v, k2v in map(integrator_k1_k2, rows)])
    ev = integrator_feedback().eval
    for size in (1, 4, 50):
        for start in range(0, rows.shape[0], size):
            got = ev(rows[start:start + size])
            assert got.shape == (size, 2)
            assert got.tobytes() == want[start:start + size].tobytes(), (size, start)


class TestReferences:
    @given(x=integrator_points())
    @settings(max_examples=300, deadline=None)
    def test_integrator_k1_k2(self, x):
        assert_same_pieces(x)

    def test_integrator_k1_k2_across_magnitudes(self):
        # coordinates and whole rows from 1e-320 to 1e300, with axis, plane,
        # on-cone and subnormal-radius rows
        rng = np.random.default_rng(0)
        x = rng.choice([-1.0, 1.0], size=(12000, 3)) * 10.0 ** rng.uniform(
            -320, 300, size=(12000, 3))
        x[6000:] = rng.normal(size=(6000, 3)) * 10.0 ** rng.uniform(
            -320, 300, size=(6000, 1))
        x[:1000, :2] = 0.0
        x[1000:2000, 2] = 0.0
        x[2000:3000, 2] = 2.0 * np.hypot(x[2000:3000, 0], x[2000:3000, 1])
        x[6000:7000, 2] = -2.0 * np.hypot(x[6000:7000, 0], x[6000:7000, 1])
        x[7000:8000, :2] = 0.0
        x[8000:9000, :2] = rng.normal(size=(1000, 2)) * 10.0 ** rng.uniform(
            -323, -308, size=(1000, 1))   # subnormal r
        regions = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for row in x:
                assert_same_pieces(row)
                regions.add(reference_region(row))
        assert regions == {"axis", "polar", "equatorial"}

    def test_weak_iss_rhs(self):
        # the scalar gain times u against the gain matrix g(|x|) I times u
        sysc, k1 = counterexample_system(), zero_feedback(1, 1)
        cert = build_weak_iss_certificate(sysc, scalar_abs_clf(), k1, i_max=2)
        F = weak_iss_loop(sysc, k1, cert).F
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(3000, 1)) * rng.uniform(0.0, 5.0, size=(3000, 1))
        ps, us = rng.normal(size=(2, 3000, 1))
        for x, p, u in zip(xs, ps, us):
            gain = cert.g(float(np.linalg.norm(x))) * np.eye(1)
            assert F(x, p, u).tobytes() == sysc.f(x, p + gain @ u).tobytes()

    def test_weak_iss_rhs_rowwise(self):
        # one call on a batch gives each row's own right-hand side
        sysc, k1 = counterexample_system(), zero_feedback(1, 1)
        cert = build_weak_iss_certificate(sysc, scalar_abs_clf(), k1, i_max=2)
        F = weak_iss_loop(sysc, k1, cert).F
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(3000, 1)) * rng.uniform(0.0, 5.0, size=(3000, 1))
        ps, us = rng.normal(size=(2, 3000, 1))
        got = F(xs, ps, us)
        for row, x, p, u in zip(got, xs, ps, us):
            assert row.tobytes() == F(x, p, u).tobytes()

    def test_alpha_tables(self):
        for clf, radius, dirs, radii in ((integrator_max_clf(), 8.0, 64, 300),
                                         (integrator_squared_clf(), 4.0, 40, 128),
                                         (scalar_abs_clf(), 10.0, 64, 2001)):
            t = estimate_alpha_tables(clf, radius, 65, directions=dirs, radii=radii)
            levels, lower, upper, grid_tol, truncated = reference_tables(
                clf, radius, 65, dirs, radii)
            assert np.array_equal(t.levels, levels)
            assert np.array_equal(t.lower, lower)
            assert np.array_equal(t.upper, upper)
            assert t.grid_tol == grid_tol
            assert t.truncated_levels == truncated

    def test_rate_guard(self):
        sys3, clf3 = integrator_system(), integrator_max_clf()
        sys1, clf1 = scalar_integrator_system(), scalar_abs_clf()
        setups = [
            (affine_loop(sys3, integrator_feedback(), substeps=1,
                         domain_margin=cone_margin), clf3, sys3,
             estimate_alpha_tables(clf3, 20.0, 129, directions=64, radii=256),
             0.1, 2.0, 0.1),
            (affine_loop(sys1, combined_feedback(sys1, clf1)), clf1, sys1,
             estimate_alpha_tables(clf1, 10.0, 64, radii=2001), 0.5, 1.0, 1.0),
        ]
        probe = ProbeConfig(512, 1000, 1.25, 3)
        for loop, clf, sys, tables, eps, M, N in setups:
            guard = estimate_rate_guard(loop, clf, tables, eps, M, N, sys, probe)
            raw, sigma, delta, kappa = reference_guard(loop, clf, tables, eps,
                                                       M, N, sys, probe)
            diag = guard.diagnostics
            for key in ("lambda_minus_raw", "lambda_plus_raw", "L_eps_raw"):
                assert diag[key] == raw[key], key
            for key in ("L_f_raw", "L_G_raw", "sup_K_raw"):
                assert abs(diag[key] - raw[key]) <= 4 * math.ulp(raw[key]), key
            assert guard.sigma == sigma
            assert guard.delta == delta
            assert guard.kappa == kappa

    def test_weak_iss_certificate(self):
        sysc, clf, k1 = counterexample_system(), scalar_abs_clf(), zero_feedback(1, 1)
        cert = build_weak_iss_certificate(sysc, clf, k1, i_max=2)
        r_seq, rp_seq, margin = reference_certificate(sysc, clf, k1.eval, 2)
        assert np.array_equal(cert.r_seq, r_seq)
        assert np.array_equal(cert.r_prime_seq, rp_seq)
        # alpha4: last shell where some probe breaks the decay inequality
        shells = np.linspace(1e-3, 3.0, 49)
        a4 = []
        for nv in np.linspace(0.0, 2.0, 41):
            hits = [s for s in shells
                    if reference_margin(sysc, clf, k1.eval, s, cert.g(float(s)) * nv,
                                        16, 1) > 0.0]
            a4.append(hits[-1] + (shells[1] - shells[0]) if hits else 0.0)
        a4 = np.maximum(np.maximum.accumulate(a4), np.linspace(0.0, 2.0, 41))
        assert np.array_equal(cert.alpha4_values, a4)
        # the certificate's margin still answers scalar queries
        assert estimate_decay_margin(sysc, clf, k1.eval, 1.5, 0.2, 64, 0) == margin(1.5, 0.2)

    def test_decay_margin_broadcasts(self):
        # a nonzero k1 makes the two disturbance directions differ
        sysc, clf = counterexample_system(), scalar_abs_clf()
        k1 = Feedback(1, 1, lambda x: -0.3 * np.asarray(x, dtype=float))
        s = np.array([[0.3], [1.0], [2.5]])
        r = np.array([0.0, 0.4, 1.1, 2.0])
        got = estimate_decay_margin(sysc, clf, k1.eval, s, r)
        assert got.shape == (3, 4)
        for a in range(3):
            for b in range(4):
                want = reference_margin(sysc, clf, k1.eval, float(s[a, 0]),
                                        float(r[b]), 64, 0)
                assert got[a, b] == want


def reference_gain(cert, s):
    """WeakIssCertificate.g as first written, one float at a time."""

    def level(k):
        if k <= 1:
            return 1.0
        rk = float(cert.r_seq[min(k, cert.i_max) - 1])
        return min(1.0, rk / (k + 1.0))

    if s <= 1.0:
        return 1.0
    k = int(math.floor(s))
    tau = s - k
    lo, hi = level(k), level(k + 1)
    step = tau * tau * (3.0 - 2.0 * tau)
    return lo + (hi - lo) * step


def test_gain_rowwise_matches_scalar():
    # at s <= 1, the integer knots, both sides of every band edge and
    # beyond i_max + 1, with levels below 1 and levels clipped to 1
    for i_max, top in ((1, 3.0), (2, 0.9), (4, 2.5), (6, 8.0)):
        r_seq = top * 0.7 ** np.arange(i_max)
        cert = WeakIssCertificate(r_seq, 0.9 * r_seq, i_max, np.array([0.0, 1.0]),
                                  np.array([0.0, 1.0]))
        edges = np.array([e for band in _band_edges(i_max) for e in band], dtype=float)
        s = np.concatenate([np.linspace(0.0, 1.0, 65), np.arange(0.0, i_max + 4.0),
                            np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                            np.linspace(i_max + 1.0, 4.0 * (i_max + 1), 301),
                            [1e6, 2.0 ** 53, 1e300]])
        want = np.array([reference_gain(cert, float(v)) for v in s])
        assert cert.g(s).tobytes() == want.tobytes()
        assert cert.g(s.reshape(-1, 1)).tobytes() == want.tobytes()
        assert all(type(cert.g(float(v))) is float and cert.g(float(v)) == w
                   for v, w in zip(s, want))


def reference_decrease(traj, clf, S_level, rel_tol, abs_tol):
    ts, vals = traj.sample_times, [float(clf.V(x)) for x in traj.sample_states]
    checked, violations, worst = 0, [], 0.0
    for i in range(len(ts) - 1):
        if vals[i] <= S_level:
            continue
        checked += 1
        rhs = -float(ts[i + 1] - ts[i]) / 16.0 * vals[i]
        margin = vals[i + 1] - vals[i] - (rhs + rel_tol * vals[i] + abs_tol)
        if margin > 0.0:
            violations.append({"interval": i, "lhs": vals[i + 1] - vals[i],
                               "rhs": rhs, "margin": margin})
        worst = max(worst, margin)
    return checked, violations, worst


def test_decrease_check_matches_reference():
    # a disturbed open loop, so the value rises past the check on some steps
    sys3, clf = integrator_system(), integrator_squared_clf()
    loop = affine_loop(sys3, zero_feedback(3, 2), substeps=2)
    part = make_partition("jitter", 1.0, 0.01, 0.3, seed=4)
    u = sine_signal([1.0, -0.5], 0.8, 1.3)
    traj = sample_solve(loop, part, [0.3, -0.2, 0.4], u)
    for S_level, rel_tol in ((0.0, 1e-4), (0.1, 0.0)):
        rep = decrease_check(traj, clf, None, S_level, rel_tol, 1e-9)
        checked, violations, worst = reference_decrease(traj, clf, S_level,
                                                        rel_tol, 1e-9)
        assert violations
        assert (rep.checked, rep.violations, rep.worst_margin) == (checked, violations, worst)


# ---------------------------------------------------------------------------
# Closed-form oracles for the sampled guard constants
# ---------------------------------------------------------------------------

REL = 1e-12


def test_integrator_guard_oracles():
    """Max CLF on the integrator: f = 0; only G's third row varies, by
    (-dx2, dx1), so L_G <= 1; V is sqrt(2)-Lipschitz and V >= |x| / sqrt(5)
    on probes of norm at least eps / 2."""
    sys3, clf = integrator_system(), integrator_max_clf()
    tables = estimate_alpha_tables(clf, 20.0, 257, directions=256, radii=512)
    loop = affine_loop(sys3, integrator_feedback(), substeps=1,
                       domain_margin=cone_margin)
    eps = 0.1
    guard = estimate_rate_guard(loop, clf, tables, eps, 2.0, 0.1, sys3,
                                ProbeConfig(2048, 4000, 1.25, 0))
    diag = guard.diagnostics
    assert diag["L_f_raw"] == 0.0
    assert diag["L_G_raw"] <= 1.0 * (1 + REL) <= guard.L_G * (1 + REL)
    assert diag["L_eps_raw"] <= math.sqrt(2.0) * (1 + REL)
    assert diag["lambda_minus_raw"] >= (eps / 2.0) / math.sqrt(5.0) * (1 - REL)


def test_scalar_guard_oracles():
    """dx = u: f = 0 and G = 1 are constant, so both sampled constants are 0."""
    sys1, clf = scalar_integrator_system(), scalar_abs_clf()
    tables = estimate_alpha_tables(clf, 10.0, 64, radii=4001)
    loop = affine_loop(sys1, combined_feedback(sys1, clf), substeps=4)
    guard = estimate_rate_guard(loop, clf, tables, 0.1, 1.0, 0.1, sys1,
                                ProbeConfig(1024, 2000, 1.25, 0))
    assert guard.diagnostics["L_f_raw"] == 0.0
    assert guard.diagnostics["L_G_raw"] == 0.0
