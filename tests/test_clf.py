import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfiss import (AlphaTables, Clf, build_envelope, decay_factor,
                    estimate_alpha_tables)
from clfiss.core import unit_rows
from clfiss.systems import integrator_max_clf, scalar_abs_clf, scalar_square_clf


def abs_clf():
    return scalar_abs_clf()


def square_clf():
    return scalar_square_clf()


def double_abs_clf():
    return Clf(1, lambda x: 2.0 * np.abs(np.asarray(x, dtype=float)[..., 0]),
               lambda x: 2.0 * np.sign(np.asarray(x, dtype=float)),
               lambda s: s)


class TestAlphaTables:
    def test_identity_for_abs_value(self):
        # level sets of |x| are +-s, so both radius bounds equal s
        t = estimate_alpha_tables(abs_clf(), 10.0, 64, radii=20001)
        assert np.max(np.abs(t.lower - t.levels)) < 1e-3
        assert np.max(np.abs(t.upper - t.levels)) < 1e-3

    def test_sqrt_for_quadratic(self):
        # level set of x^2 at s is +-sqrt(s); the lower column also carries
        # the normalization clip at s
        t = estimate_alpha_tables(square_clf(), 10.0, 64, radii=20001)
        assert np.max(np.abs(t.lower - np.minimum(np.sqrt(t.levels), t.levels))) < 1e-3
        assert np.max(np.abs(t.upper - np.sqrt(t.levels))) < 1e-3

    def test_clip_keeps_half_level(self):
        # level set of 2|x| at s is |x| = s/2; the s-clip leaves s/2 in place
        t = estimate_alpha_tables(double_abs_clf(), 10.0, 64, radii=20001)
        assert np.max(np.abs(t.lower - t.levels / 2.0)) < 1e-3
        assert np.max(np.abs(t.upper - t.levels / 2.0)) < 1e-3

    def test_truncation_reported(self):
        # V = |x| e^(1 - |x|) peaks at 1 on |x| = 1, inside radius_max, so
        # the levels reach 1; those above V(3) = 3 e^-2 have sublevel sets
        # that reach past radius_max and are counted
        def V(x):
            r = np.abs(np.asarray(x, dtype=float)[..., 0])
            return r * np.exp(1.0 - r)

        def subgrad(x):
            x = np.asarray(x, dtype=float)
            return np.sign(x) * (1.0 - np.abs(x)) * np.exp(1.0 - np.abs(x))

        clf = Clf(1, V, subgrad, lambda s: s)
        t = estimate_alpha_tables(clf, 3.0, 64, radii=2001)
        assert 0.999 < t.levels[-1] <= 1.0
        assert t.truncated_levels == np.count_nonzero(t.levels > 3.0 * np.exp(-2.0)) == 23

    def test_monotone_and_normalized(self):
        t = estimate_alpha_tables(integrator_max_clf(), 8.0, 65,
                                  directions=128, radii=256)
        assert np.all(np.diff(t.lower) >= -1e-12)
        assert np.all(np.diff(t.upper) >= -1e-12)
        assert np.all(t.lower <= t.levels + 1e-12)

    def test_sandwich_inequality_sampled(self):
        # lower(V(x)) <= |x| <= upper(V(x)) within the reported tolerance
        clf = integrator_max_clf()
        t = estimate_alpha_tables(clf, 8.0, 129, directions=512, radii=1024)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            x = rng.uniform(0.0, 4.0) * d
            v = clf.V(x)
            nx = np.linalg.norm(x)
            assert t.lower_at(v) <= nx + t.grid_tol
            assert t.upper_at(v) >= nx - t.grid_tol

    def test_inverse_round_trip(self):
        # composing the table with its bisection inverse returns the queried
        # value within twice the reported tolerance, over the value range
        t = estimate_alpha_tables(abs_clf(), 10.0, 64, radii=20001)
        for y in np.linspace(t.lower[0], t.lower[-1], 37):
            assert abs(t.lower_at(t.lower_inv(y)) - y) <= 2 * t.grid_tol
        t2 = estimate_alpha_tables(integrator_max_clf(), 8.0, 65,
                                   directions=128, radii=512)
        for y in np.linspace(t2.lower[0], t2.lower[-1], 23):
            assert abs(t2.lower_at(t2.lower_inv(y)) - y) <= 2 * t2.grid_tol

    @given(s=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_coarse_tables_never_shrink_the_start(self, s):
        # beta(s, 0) >= s: the outer radius rounds up to the next shell, so
        # the envelope covers the initial state however coarse the shells
        for radii in (16, 64):
            t = estimate_alpha_tables(abs_clf(), 10.0, 16, radii=radii)
            assert build_envelope(t, 0.1).beta(s, 0.0) >= s

    def test_csv_round_trip(self, tmp_path):
        t = AlphaTables.identity(5.0)
        path = tmp_path / "tables.csv"
        t.to_csv(path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        back = np.array([[float(v) for v in row] for row in rows])
        assert header == ["s", "underline", "overline"]
        assert np.array_equal(back[:, 0], t.levels)
        assert np.array_equal(back[:, 1], t.lower)
        assert np.array_equal(back[:, 2], t.upper)


class TestDecayFactor:
    def test_values(self):
        assert decay_factor(0.0) == 1.0
        assert decay_factor(16.0) == 0.5
        assert decay_factor(48.0) == 0.25

    @given(t1=st.floats(0.0, 1e6), gap=st.floats(0.1, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, t1, gap):
        # strict decrease at separations where floats can resolve it
        assert decay_factor(t1) > decay_factor(t1 + gap)
        assert decay_factor(t1) <= 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decay_factor(-1.0)


class TestEnvelope:
    def test_identity_compositions(self):
        env = build_envelope(AlphaTables.identity(20.0), 0.1)
        assert env.beta(1.0, 0.0) == pytest.approx(1.0)
        assert env.gamma(2.0) == pytest.approx(2.0)
        # 2 * decay_factor(16) = 1
        assert env.beta(2.0, 16.0) == pytest.approx(1.0)

    def test_alpha4_composition(self):
        env = build_envelope(AlphaTables.identity(20.0), 0.1,
                             alpha4=lambda s: 2.0 * s)
        assert env.gamma(1.0) == pytest.approx(2.0)

    def test_envelope_bound_values(self):
        env = build_envelope(AlphaTables.identity(20.0), 0.01)
        assert env.bound(1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert env.bound(2.0, 1.0, 16.0) == pytest.approx(2.0)
        env2 = build_envelope(AlphaTables.identity(20.0), 0.5)
        assert env2.bound(0.0, 0.0, 7.3) == pytest.approx(0.5)

    def test_overflow_must_be_positive(self):
        with pytest.raises(ValueError):
            build_envelope(AlphaTables.identity(1.0), 0.0)

    @given(m=st.floats(0.0, 10.0), n=st.floats(0.0, 10.0),
           t=st.floats(0.0, 100.0), dm=st.floats(0.0, 5.0),
           dt=st.floats(0.0, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_bound_monotonicity(self, m, n, t, dm, dt):
        env = build_envelope(AlphaTables.identity(40.0), 0.05)
        base = env.bound(m, n, t)
        assert env.bound(m + dm, n, t) >= base - 1e-12
        assert env.bound(m, n + dm, t) >= base - 1e-12
        assert env.bound(m, n, t + dt) <= base + 1e-12

    def test_beta_kl_shape_sampled(self):
        env = build_envelope(AlphaTables.identity(40.0), 0.05)
        ts = np.linspace(0.0, 500.0, 30)
        vals = env.beta(3.0, ts)
        assert np.all(np.diff(vals) <= 1e-12)        # nonincreasing in t
        assert vals[-1] < 0.1 * vals[0]              # heads to zero
        ss = np.linspace(0.0, 10.0, 30)
        vals_s = np.array([env.beta(s, 1.0) for s in ss])
        assert np.all(np.diff(vals_s) >= -1e-12)     # nondecreasing in s
        gs = np.array([env.gamma(s) for s in ss])
        assert gs[0] == pytest.approx(0.0)
        assert np.all(np.diff(gs) >= -1e-12)


def test_max_clf_positive_definite_and_proper():
    clf = integrator_max_clf()
    rng = np.random.default_rng(0)
    assert clf.V(np.zeros(3)) == 0.0
    assert np.array_equal(clf.subgrad(np.zeros(3)), np.zeros(3))
    pts = unit_rows(rng, 200, 3) * rng.uniform(1e-6, 10.0, size=(200, 1))
    assert np.all(clf.V(pts) > 0.0)
    # the smallest value on the shells |x| = 10^k grows with k
    minima = [float(np.min(clf.V(10.0 ** k * unit_rows(rng, 16, 3))))
              for k in range(5)]
    assert all(b > a for a, b in zip(minima, minima[1:]))
