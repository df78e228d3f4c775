from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfiss import (Clf, DecayViolation, Feedback, combined_feedback,
                    damping_feedback, k2, synthesize_k1)
from clfiss.systems import (integrator_max_clf, integrator_squared_clf,
                            integrator_system, scalar_abs_clf,
                            scalar_integrator_system, scalar_square_clf)


@pytest.fixture
def scalar():
    return scalar_integrator_system(), scalar_abs_clf()


def under_powered_clf():
    return Clf(1, lambda x: abs(float(np.atleast_1d(x)[0])),
               lambda x: np.sign(np.atleast_1d(x)),
               lambda s: 1e-4 * s)   # control authority far too small


LOOPS = [
    lambda: (scalar_integrator_system(), scalar_abs_clf()),
    lambda: (integrator_system(), integrator_max_clf()),
    lambda: (integrator_system(), integrator_squared_clf()),
]


class TestSynthesizeK1:
    def test_scalar_values(self, scalar):
        sys1, clf = scalar
        # ball minimizer of <sgn(x), u> over |u| <= |x|
        assert synthesize_k1(sys1, clf, [2.0])[0] == pytest.approx(-2.0)
        assert synthesize_k1(sys1, clf, [-3.0])[0] == pytest.approx(3.0)
        assert np.array_equal(synthesize_k1(sys1, clf, [0.0]), np.zeros(1))

    def test_scalar_decay_equality(self, scalar):
        sys1, clf = scalar
        x = np.array([2.0])
        u = synthesize_k1(sys1, clf, x)
        drift = float(clf.subgrad(x) @ (sys1.f(x) + sys1.G(x) @ u))
        assert drift == pytest.approx(-2.0)

    def test_decay_violation_raised(self, scalar):
        sys1, _ = scalar
        with pytest.raises(DecayViolation):
            synthesize_k1(sys1, under_powered_clf(), [1.0])

    def test_annulus_decay_property(self, scalar):
        sys1, clf = scalar
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = np.array([rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])])
            u = synthesize_k1(sys1, clf, x)
            drift = float(clf.subgrad(x) @ (sys1.f(x) + sys1.G(x) @ u))
            assert drift <= -clf.V(x) * (1.0 - 1e-6)


class TestK2:
    def test_scalar_values(self, scalar):
        sys1, clf = scalar
        assert k2(sys1, clf, [0.5])[0] == pytest.approx(-0.5)
        assert np.array_equal(k2(sys1, clf, [0.0]), np.zeros(1))

    def test_integrator_equatorial_case(self):
        # at (1,0,1) the channel derivative is (1, 0) and V = 1
        sys3 = integrator_system()
        clf = integrator_max_clf()
        val = k2(sys3, clf, [1.0, 0.0, 1.0])
        assert np.allclose(val, [-1.0, 0.0])

    @given(x1=st.floats(-5, 5), x2=st.floats(-5, 5), x3=st.floats(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_magnitude_bound(self, x1, x2, x3):
        # |k2| <= sqrt(m) * V componentwise by the sign construction
        sys3 = integrator_system()
        clf = integrator_max_clf()
        x = np.array([x1, x2, x3])
        val = k2(sys3, clf, x)
        assert np.linalg.norm(val) <= np.sqrt(2.0) * clf.V(x) + 1e-12


class TestCombined:
    def test_scalar_sum(self, scalar):
        sys1, clf = scalar
        fb = combined_feedback(sys1, clf)
        assert fb.eval([1.0])[0] == pytest.approx(-2.0)
        assert np.array_equal(fb.eval([0.0]), np.zeros(1))

    def test_integrator_axis_point(self):
        sys3 = integrator_system()
        clf = integrator_max_clf()
        fb = combined_feedback(sys3, clf)
        assert np.allclose(fb.eval([0.0, 0.0, 2.0]), [0.0, 4.0])

    def test_equals_sum_of_parts(self):
        for sys_clf in LOOPS:
            sys, clf = sys_clf()
            fb = combined_feedback(sys, clf)
            rng = np.random.default_rng(11)
            for _ in range(50):
                x = rng.normal(size=sys.n) * 3.0
                expect = synthesize_k1(sys, clf, x) + k2(sys, clf, x)
                assert fb.eval(x).tobytes() == expect.tobytes()

    def test_decay_violation_raised(self, scalar):
        sys1, _ = scalar
        fb = combined_feedback(sys1, under_powered_clf())
        with pytest.raises(DecayViolation):
            fb.eval([1.0])

    def test_one_evaluation_per_call(self):
        # subgrad, G and V are shared by both pieces at a non-origin state
        sys3, clf = integrator_system(), integrator_squared_clf()
        calls = Counter()

        def counted(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(x)
            return wrapped

        fb = combined_feedback(
            replace(sys3, G=counted("G", sys3.G)),
            replace(clf, V=counted("V", clf.V),
                    subgrad=counted("subgrad", clf.subgrad)))
        calls.clear()
        fb.eval([1.0, -0.5, 0.7])
        assert calls == {"subgrad": 1, "G": 1, "V": 1}


class TestDamping:
    def test_smooth_scalar(self):
        sys1 = scalar_integrator_system()
        fb = damping_feedback(sys1, scalar_square_clf())
        assert fb.eval([1.0])[0] == pytest.approx(-2.0)
        assert np.array_equal(fb.eval([0.0]), np.zeros(1))

    @pytest.mark.parametrize("sys_clf", LOOPS)
    def test_equals_negated_channel_derivatives(self, sys_clf):
        sys, clf = sys_clf()
        fb = damping_feedback(sys, clf)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.normal(size=sys.n) * 3.0
            expect = -(sys.G(x).T @ clf.subgrad(x))
            assert fb.eval(x).tobytes() == expect.tobytes()

    def test_integrator_probe_value(self):
        # equatorial probe (eps, eps, 0): value -(1/sqrt2, 1/sqrt2), any eps
        sys3 = integrator_system()
        fb = damping_feedback(sys3, integrator_max_clf())
        for eps in (1e-2, 1e-4, 1e-6):
            val = fb.eval([eps, eps, 0.0])
            assert np.allclose(val, [-1 / np.sqrt(2)] * 2, atol=1e-12)


class TestSgnConvention:
    @given(s=st.floats(-1e6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_sgn_times_s(self, s):
        assert np.sign(s) * s == abs(s)

    def test_sgn_zero(self):
        assert np.sign(0.0) == 0.0


def test_feedback_must_vanish_at_origin():
    with pytest.raises(ValueError):
        Feedback(1, 1, lambda x: np.array([1.0]))
