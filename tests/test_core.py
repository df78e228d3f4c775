import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfiss import (ControlAffineSystem, FullyNonlinearSystem, Partition,
                    constant_signal, lower_diameter, make_partition,
                    piecewise_constant_signal, sine_signal, upper_diameter,
                    zero_signal)
from clfiss.core import (BLOWUP, COMPLETED, LEFT_DOMAIN, NUMERICAL_FAILURE,
                         Status, bisect, direction_set, unit_rows)


def test_upper_diameter_uniform():
    p = Partition(np.array([0.0, 0.1, 0.2, 0.3]))
    assert upper_diameter(p) == pytest.approx(0.1)
    assert lower_diameter(p) == pytest.approx(0.1)


def test_diameters_nonuniform():
    # hand max/min of the gaps {0.1, 0.3}
    p = Partition(np.array([0.0, 0.1, 0.4]))
    assert upper_diameter(p) == pytest.approx(0.3)
    assert lower_diameter(p) == pytest.approx(0.1)


def test_diameters_single_interval():
    assert upper_diameter(Partition(np.array([0.0, 1.0]))) == pytest.approx(1.0)
    assert lower_diameter(Partition(np.array([0.0, 2.0]))) == pytest.approx(2.0)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.2, 0.2]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0]))


def test_make_partition_uniform_exact():
    p = make_partition("uniform", 1.0, 0.5)
    assert np.allclose(p.times, [0.0, 0.5, 1.0])
    # step that does not divide the horizon keeps stepping until >= horizon
    p = make_partition("uniform", 1.0, 0.3)
    assert np.allclose(p.times, [0.0, 0.3, 0.6, 0.9, 1.2])
    assert p.horizon >= 1.0


def test_make_partition_errors():
    with pytest.raises(ValueError):
        make_partition("uniform", 1.0, 0.0)
    with pytest.raises(ValueError):
        make_partition("uniform", 0.05, 0.1)
    with pytest.raises(ValueError):
        make_partition("jitter", 1.0, 0.1, jitter_fraction=1.0)
    with pytest.raises(ValueError):
        make_partition("nope", 1.0, 0.1)


def test_make_partition_jitter_gap_bounds():
    p = make_partition("jitter", 1.0, 0.1, jitter_fraction=0.5, seed=7)
    gaps = np.diff(p.times)
    assert np.all(gaps >= 0.05 - 1e-12)
    assert np.all(gaps <= 0.15 + 1e-12)
    assert p.times[0] == 0.0
    assert p.horizon >= 1.0


def test_make_partition_jitter_deterministic():
    a = make_partition("jitter", 2.0, 0.1, 0.3, seed=42)
    b = make_partition("jitter", 2.0, 0.1, 0.3, seed=42)
    assert np.array_equal(a.times, b.times)


@given(seed=st.integers(0, 10_000), frac=st.floats(0.0, 0.9),
       step=st.floats(0.01, 1.0))
@settings(max_examples=60, deadline=None)
def test_partition_diameter_order(seed, frac, step):
    p = make_partition("jitter", 3.0 * step, step, frac, seed)
    lo, hi = lower_diameter(p), upper_diameter(p)
    assert 0 < lo <= hi
    assert hi <= step * (1 + frac) + 1e-12
    assert lo >= step * (1 - frac) - 1e-12


def test_system_drift_must_vanish():
    with pytest.raises(ValueError):
        ControlAffineSystem(1, 1, lambda x: np.array([1.0]),
                            lambda x: np.ones((1, 1)))
    with pytest.raises(ValueError):
        FullyNonlinearSystem(1, 1, lambda x, u: np.array([1.0]))


def test_system_G_shape_checked():
    with pytest.raises(ValueError):
        ControlAffineSystem(2, 1, lambda x: np.zeros(2),
                            lambda x: np.ones((1, 1)))


def test_signal_factories():
    z = zero_signal(3)
    assert z.bound == 0.0
    assert np.array_equal(z.eval(1.23), np.zeros(3))
    c = constant_signal([3.0, 4.0])
    assert c.bound == pytest.approx(5.0)
    s = sine_signal([1.0, 0.0], amplitude=2.0, frequency=0.25)
    assert s.bound == 2.0
    # the declared bound holds on a grid of [0, 8]
    values = s.eval(np.linspace(0.0, 8.0, 1024))
    assert np.max(np.linalg.norm(values, axis=1)) <= 2.0 + 1e-9


def test_piecewise_constant_signal():
    sig = piecewise_constant_signal([0.0, 1.0, 2.0],
                                    [[1.0], [-2.0], [0.5]])
    assert sig.bound == pytest.approx(2.0)
    assert sig.eval(0.5)[0] == 1.0
    assert sig.eval(1.0)[0] == -2.0
    assert sig.eval(5.0)[0] == 0.5
    with pytest.raises(ValueError):
        piecewise_constant_signal([0.0, 1.0], [[1.0], [3.0]], bound=2.0)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_direction_set_unit_rows_with_axes(dim):
    dirs = direction_set(np.random.default_rng(7), 40, dim)
    assert dirs.shape == (40 + 2 * dim, dim)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)
    for i in range(dim):
        e = np.eye(dim)[i]
        assert any(np.array_equal(d, e) for d in dirs)
        assert any(np.array_equal(d, -e) for d in dirs)
    # the random rows are normal draws over their norms taken along axis 1,
    # the form the level-set tables and the rate guard were computed with
    d = np.random.default_rng(7).normal(size=(40, dim))
    unit = d / np.linalg.norm(d, axis=1, keepdims=True)
    assert np.array_equal(dirs[:40], unit)
    assert np.array_equal(unit_rows(np.random.default_rng(7), 40, dim), unit)


def test_direction_set_on_the_line_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    dirs = direction_set(rng, 64, 1)
    assert dirs.tolist() == [[1.0], [-1.0]]
    assert rng.bit_generator.state == state


def test_bisect_array_bounds_match_scalar():
    # entry by entry, array bounds halve as a scalar bisection of that entry
    # alone: random intervals, an empty one and a nan threshold, with a
    # predicate whose outcome flips many times along each interval and whose
    # array and float forms agree exactly
    rng = np.random.default_rng(11)
    lo = rng.uniform(-5.0, 5.0, size=200)
    hi = lo + 10.0 ** rng.uniform(-9.0, 2.0, size=200)
    hi[0] = lo[0]
    k = rng.uniform(0.5, 50.0, size=200)
    c = rng.uniform(0.0, 2.0, size=200)
    c[1] = np.nan
    for iters in (0, 1, 40, 64):
        got_lo, got_hi = bisect(lambda m: np.floor(k * m) % 2 < c, lo, hi, iters)
        assert got_lo.shape == got_hi.shape == (200,)
        for i in range(200):
            want = bisect(lambda m: math.floor(k[i] * m) % 2 < c[i],
                          float(lo[i]), float(hi[i]), iters)
            assert type(want[0]) is float and type(want[1]) is float
            assert got_lo[i].tobytes() == np.float64(want[0]).tobytes()
            assert got_hi[i].tobytes() == np.float64(want[1]).tobytes()


def test_status_diverged_is_blowup_or_numerical_failure():
    assert [Status(kind).diverged for kind in
            (COMPLETED, BLOWUP, LEFT_DOMAIN, NUMERICAL_FAILURE)] == [
        False, True, False, True]
