import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clfiss import constant_signal, make_partition, sample_solve, zero_feedback
from clfiss.feedback import damping_feedback, synthesize_k1
from clfiss.systems import (BandInfeasible, build_weak_iss_certificate,
                            cone_margin, counterexample_system,
                            estimate_decay_margin,
                            integrator_feedback_crosscheck, integrator_k1_k2,
                            integrator_max_clf, integrator_squared_clf,
                            integrator_system, scalar_abs_clf, weak_iss_loop)


class TestIntegratorSystem:
    def test_columns_and_drift(self):
        sys3 = integrator_system()
        G0 = sys3.G(np.zeros(3))
        assert np.array_equal(G0[:, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(G0[:, 1], [0.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert np.array_equal(sys3.f(rng.normal(size=3)), np.zeros(3))

    def test_bilinear_third_rate(self):
        # dx3 = x1 u2 - x2 u1 = 1*1 - 2*1 = -1 at x=(1,2,0), u=(1,1)
        sys3 = integrator_system()
        xdot = sys3.G(np.array([1.0, 2.0, 0.0])) @ np.array([1.0, 1.0])
        assert xdot[2] == pytest.approx(-1.0)


def max_clf_channels(x):
    """b = G(x)^T subgrad(x) of the max CLF: the negated damping feedback."""
    return -damping_feedback(integrator_system(), integrator_max_clf()).eval(x)


class TestMaxClf:
    def test_values(self):
        clf = integrator_max_clf()
        assert clf.V([3.0, 4.0, 0.0]) == pytest.approx(5.0)
        assert clf.V([0.0, 0.0, 0.0]) == 0.0
        assert np.array_equal(clf.subgrad(np.zeros(3)), np.zeros(3))

    def test_axis_channel_derivative(self):
        assert np.allclose(max_clf_channels([0.0, 0.0, 1.0]), [0.0, -1.0])

    @given(x1=st.floats(-5, 5), x2=st.floats(-5, 5), x3=st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_b_norm_bounds(self, x1, x2, x3):
        x = np.array([x1, x2, x3])
        assume(np.any(x))   # b vanishes at the origin only, at any magnitude
        b = max_clf_channels(x)
        b2 = float(b @ b)
        r2 = x1 * x1 + x2 * x2
        assert b2 >= 1.0 - 1e-9
        assert b2 <= r2 + 1.0 + 1e-9

    @pytest.mark.parametrize("x, z", [
        ((5e-324, 5e-324, 1.0), (-1 / math.sqrt(2.0), -1 / math.sqrt(2.0), 1.0)),
        ((1e-170, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1e-170, 1e-170, 1e-171), (1 / math.sqrt(2.0), 1 / math.sqrt(2.0), 0.0)),
    ])
    def test_tiny_states(self, x, z):
        # a subnormal planar radius and underflowing squares keep the region
        # (polar, then equatorial twice) and the unit planar direction of a
        # normal-range multiple, in the subgradient and the explicit feedback
        assert np.allclose(integrator_max_clf().subgrad(np.array(x)), z,
                           rtol=1e-15, atol=0.0)
        b = max_clf_channels(x)
        v = float(integrator_max_clf().V(np.array(x)))
        k1v, k2v = integrator_k1_k2(x)
        assert np.allclose(k1v, -b * v / float(b @ b), rtol=1e-15, atol=0.0)
        assert np.allclose(k2v, -v * np.sign(b), rtol=1e-15, atol=0.0)

    def test_domain_excludes_cone(self):
        assert cone_margin([1.0, 0.0, 2.0]) == 0.0   # on the cone
        assert cone_margin([1.0, 0.0, 0.5]) < 0.0   # equatorial


class TestExplicitFeedback:
    def test_equatorial_point(self):
        k1v, k2v = integrator_k1_k2([1.0, 0.0, 1.0])
        assert np.allclose(k1v, [-1.0, 0.0])
        assert np.allclose(k2v, [-1.0, 0.0])

    def test_axis_point(self):
        k1v, k2v = integrator_k1_k2([0.0, 0.0, 2.0])
        assert np.allclose(k1v, [0.0, 2.0])
        assert np.allclose(k2v, [0.0, 2.0])

    def test_origin(self):
        k1v, k2v = integrator_k1_k2(np.zeros(3))
        assert np.array_equal(k1v, np.zeros(2))
        assert np.array_equal(k2v, np.zeros(2))

    def test_crosscheck_small(self):
        rep = integrator_feedback_crosscheck(count=500, seed=1)
        assert rep["k1_rel_error"] < 1e-12
        assert rep["k2_abs_error"] < 1e-12
        assert rep["k1_direction_error"] < 1e-9
        assert rep["b_norm_min_sq"] >= 1.0 - 1e-9
        assert rep["b_norm_excess"] <= 1e-9


class TestSquaredClf:
    def test_values(self):
        clf = integrator_squared_clf()
        assert clf.V([3.0, 4.0, 0.0]) == pytest.approx(25.0)
        assert clf.V([0.0, 0.0, 0.0]) == 0.0
        assert clf.V([0.0, 0.0, 1.0]) == pytest.approx(2.0)

    @given(x1=st.floats(-5, 5), x2=st.floats(-5, 5), x3=st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_smooth_plus_semiconcave_split(self, x1, x2, x3):
        # (r - |x3|)^2 + x3^2 == (x1^2 + x2^2 + 2 x3^2) - 2 r |x3|
        clf = integrator_squared_clf()
        x = np.array([x1, x2, x3])
        r = math.hypot(x1, x2)
        split = x1 * x1 + x2 * x2 + 2.0 * x3 * x3 - 2.0 * r * abs(x3)
        assert clf.V(x) == pytest.approx(split, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("x, z", [
        ((5e-324, 5e-324, 1.0), (-math.sqrt(2.0), -math.sqrt(2.0), 4.0)),
        ((1e-170, 0.0, 0.0), (2e-170, 0.0, -2e-170)),
        # 2 gap (x1, x2) / r and 2 x3 - 2 gap with gap = (sqrt2 - 0.1) 1e-170
        ((1e-170, 1e-170, 1e-171),
         (math.sqrt(2.0) * (math.sqrt(2.0) - 0.1) * 1e-170,
          math.sqrt(2.0) * (math.sqrt(2.0) - 0.1) * 1e-170,
          (0.2 - 2.0 * (math.sqrt(2.0) - 0.1)) * 1e-170)),
    ])
    def test_subgrad_at_tiny_states(self, x, z):
        z_got = integrator_squared_clf().subgrad(np.array(x))
        assert np.allclose(z_got, z, rtol=1e-14, atol=0.0)

    def test_subgrad_matches_fd_at_smooth_points(self):
        # central differences, one coordinate at a time, step 1e-6 max(1, |x|)
        clf = integrator_squared_clf()
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=3) * 2.0
            if abs(x[2]) < 1e-3 or math.hypot(x[0], x[1]) < 1e-3:
                continue
            h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            fd = [(clf.V(x + e) - clf.V(x - e)) / (2.0 * h) for e in h * np.eye(3)]
            assert np.allclose(clf.subgrad(x), fd, atol=1e-5)

    def test_decay_ratio_bounded_by_control_bound(self):
        # V / |b| <= max(|x|, 1) over a dense random sweep
        sys3 = integrator_system()
        clf = integrator_squared_clf()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20000):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            s = rng.uniform(1e-3, 12.0)
            x = s * d
            b = sys3.G(x).T @ clf.subgrad(x)
            worst = max(worst, clf.V(x) / (np.linalg.norm(b) * max(s, 1.0)))
        assert worst <= 1.0 + 1e-9

    def test_synthesized_decay_on_annulus(self):
        sys3 = integrator_system()
        clf = integrator_squared_clf()
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            x = rng.uniform(0.1, 10.0) * d
            u = synthesize_k1(sys3, clf, x)
            drift = float(clf.subgrad(x) @ (sys3.G(x) @ u))
            assert drift <= -clf.V(x) * (1.0 - 1e-6)


class TestCounterexample:
    def test_values(self):
        sysc = counterexample_system()
        assert sysc.f([0.0], [0.0])[0] == 0.0
        assert sysc.f([4.0], [1.0])[0] == pytest.approx(12.0)
        for x in (-2.0, 0.5, 3.0):
            assert sysc.f([x], [0.0])[0] == pytest.approx(-x)

    def test_decay_margin_closed_form(self):
        # with K1 = 0, V = |x|: sup over |x|=s, |p|=r is r^2 s^2 - s/2
        sysc = counterexample_system()
        clf = scalar_abs_clf()
        k1 = zero_feedback(1, 1)
        assert estimate_decay_margin(sysc, clf, k1.eval, 1.0, 0.5) == pytest.approx(-0.25)
        assert estimate_decay_margin(sysc, clf, k1.eval, 2.0, 1.0) == pytest.approx(3.0)
        for s in (0.5, 1.0, 4.0):
            assert estimate_decay_margin(sysc, clf, k1.eval, s, 0.0) == pytest.approx(-s / 2.0)


@pytest.fixture(scope="module")
def certificate():
    sysc = counterexample_system()
    clf = scalar_abs_clf()
    k1 = zero_feedback(1, 1)
    cert = build_weak_iss_certificate(sysc, clf, k1, i_max=6, seed=0)
    return sysc, clf, k1, cert


class TestWeakIssCertificate:
    def test_first_band_radius(self, certificate):
        # closed form: D(s, b) < 0 on [1, 2] iff b < 1/2; deflated by 0.9
        _, _, _, cert = certificate
        assert 0.36 <= cert.r_seq[0] < 0.45 + 1e-9

    def test_gain_is_one_near_origin(self, certificate):
        _, _, _, cert = certificate
        for s in (0.0, 0.25, 0.5, 1.0):
            assert cert.g(s) == 1.0

    def test_gain_below_staircase(self, certificate):
        _, _, _, cert = certificate
        for s in np.linspace(2.0, 10.0, 200):
            assert cert.g(s) * s <= cert.rho(s) + 1e-9
            assert cert.g(s) <= 1.0

    def test_interleaving_strict(self, certificate):
        _, _, _, cert = certificate
        seq = []
        for a, b in zip(cert.r_seq, cert.r_prime_seq):
            seq += [a, b]
        assert all(x > y > 0 for x, y in zip(seq, seq[1:]))

    def test_bands_negative_and_decay(self, certificate):
        sysc, clf, k1, cert = certificate
        rng = np.random.default_rng(3)
        # the decay margin is negative inside each band's disturbance radius
        worst = -np.inf
        for band in cert.bands():
            for _ in range(12):
                s = rng.uniform(band["lo"], band["hi"])
                b = rng.uniform(0.0, band["radius"])
                worst = max(worst, estimate_decay_margin(sysc, clf, k1.eval, float(s),
                                                         float(b), 64, 0))
        assert worst < 0.0
        # past alpha4(|u|) the decay inequality holds under the gain g(|x|)
        for _ in range(150):
            nv = rng.uniform(0.0, cert.alpha4_grid[-1])
            lo, hi = cert.alpha4(nv) + 1e-6, float(cert.i_max + 1)
            if lo >= hi:
                continue
            s = rng.uniform(lo, hi)
            d = rng.normal(size=sysc.n)
            x = s * d / np.linalg.norm(d)
            du = rng.normal(size=sysc.m)
            du *= nv / max(np.linalg.norm(du), 1e-30)
            u = k1.eval(x) + cert.g(float(np.linalg.norm(x))) * du
            assert clf.subgrad(x) @ sysc.f(x, u) <= -0.5 * clf.V(x) + 1e-9

    def test_alpha4_at_least_identity(self, certificate):
        _, _, _, cert = certificate
        for s in np.linspace(0.0, 2.0, 21):
            assert cert.alpha4(s) >= s
        assert cert.alpha4(0.0) == 0.0

    def test_serialization(self, certificate, tmp_path):
        _, _, _, cert = certificate
        doc = cert.to_json(tmp_path / "cert.json")
        assert len(doc["bands"]) == 2 * cert.i_max
        assert doc["alpha4_table"][0][0] == 0.0

    def test_band_infeasible_raised(self):
        from clfiss import FullyNonlinearSystem
        bad = FullyNonlinearSystem(1, 1, lambda x, u: np.asarray(x, dtype=float) ** 2)
        with pytest.raises(BandInfeasible):
            build_weak_iss_certificate(bad, scalar_abs_clf(),
                                       zero_feedback(1, 1), i_max=2)


class TestWeakIssLoop:
    def test_reduces_to_contraction_without_input(self, certificate):
        sysc, _, k1, cert = certificate
        loop = weak_iss_loop(sysc, k1, cert)
        part = make_partition("uniform", 3.0, 0.01)
        traj = sample_solve(loop, part, [4.0])
        exact = 4.0 * np.exp(-traj.dense_times)
        assert np.max(np.abs(traj.dense_states[:, 0] - exact)) < 1e-6

    def test_bounded_under_unit_input_where_raw_loop_blows_up(self, certificate):
        sysc, _, k1, cert = certificate
        u = constant_signal([1.0])
        part = make_partition("uniform", 10.0, 0.01)
        gained = weak_iss_loop(sysc, k1, cert)
        traj = sample_solve(gained, part, [4.0], u)
        assert traj.status.ok
        from clfiss import nonlinear_loop
        raw = nonlinear_loop(sysc, k1)
        traj_raw = sample_solve(raw, part, [4.0], u)
        assert not traj_raw.status.ok


@pytest.mark.parametrize("x", [(1e-170, 0.0, 0.0), (1e-170, 1e-170, 1e-171)])
def test_cone_margin_agrees_at_tiny_states(x):
    # squares of these coordinates underflow; the margin must still place
    # the state where integrator_k1_k2 and subgrad do, off the cone
    clf = integrator_max_clf()
    assert np.array_equal(integrator_k1_k2(x)[0], -np.array(x[:2]))   # equatorial
    assert cone_margin(x) < 0.0
    assert clf.subgrad(np.array(x))[2] == 0.0   # the equatorial selection


def cone_rows():
    """Rows across magnitudes, on the planes x3 = 0 and r = 0 and near the
    tiny-state scale, with the mask of those where r or |x3| is at least
    2^-500."""
    rng = np.random.default_rng(0)
    x = rng.choice([-1.0, 1.0], size=(30000, 3)) * 10.0 ** rng.uniform(-300, 300, size=(30000, 3))
    x[:5000, 2] = 0.0
    x[5000:10000, :2] = 0.0
    # near the scale threshold, where all three coordinates may sit below
    # 2^-500 while r does not
    near = x[10000:15000]
    near *= 2.0 ** rng.uniform(-502, -499, size=near.shape) / np.abs(near)
    keep = np.maximum(np.hypot(x[:, 0], x[:, 1]), np.abs(x[:, 2])) >= 2.0 ** -500
    assert keep.sum() > 25000
    assert np.count_nonzero(keep[10000:15000]
                            & (np.abs(near).max(axis=1) < 2.0 ** -500)) > 100
    assert np.count_nonzero(~keep) > 100
    return x, keep


def test_cone_margin_bits_above_tiny_scale():
    # rows with r or |x3| at least 2^-500 give the plain formula's value
    x, keep = cone_rows()
    with np.errstate(over="ignore", invalid="ignore"):
        for row in x[keep]:
            want = float(row[2] * row[2] - 4.0 * (row[0] * row[0] + row[1] * row[1]))
            got = cone_margin(row)
            assert got == want or (math.isnan(got) and math.isnan(want))


def test_cone_margin_rowwise():
    # one call on all rows, tiny ones among them, gives each row's own margin
    x, _ = cone_rows()
    with np.errstate(over="ignore", invalid="ignore"):
        rows = cone_margin(x)
        assert rows.shape == (x.shape[0],)
        for row, got in zip(x, rows):
            assert np.float64(cone_margin(row)).tobytes() == got.tobytes()
        assert cone_margin(x.reshape(100, 300, 3)).tobytes() == rows.tobytes()
