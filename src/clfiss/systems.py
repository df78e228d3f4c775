"""Benchmark systems and certificates.

The nonholonomic integrator (three states, two inputs, no drift) has no
continuous stabilizer, which makes it the canonical target for discontinuous
feedback. This module packages it with two nonsmooth CLFs and the matching
explicit feedback, and a scalar system that defeats continuous ISS feedback
but becomes stabilizable once the disturbance is routed through a
state-dependent gain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .clf import Clf
from .core import (ControlAffineSystem, FullyNonlinearSystem, as_vector,
                   bisect, direction_set, rowdot, rowwise)
from .feedback import Feedback, _k1
from .sampler import ClosedLoop

_TINY = float(np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# Nonholonomic integrator
# ---------------------------------------------------------------------------

def _tiny_safe(x):
    """(x, k, r, p1, p2, rp): rows with r and |x3| under 2^-500 scaled by
    2^k = 2^600 so that x3^2 and 4 r^2 do not underflow, r(x) of the result, and
    the planar direction (p1, p2) / rp, with x1 and x2 scaled by 2^600 where r is
    subnormal (rp = 1 at r = 0). Rows with r >= 2^-500 keep every bit (k = 0)."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    if not (r < 2.0 ** -500).any():
        return x, 0, r, x[..., 0], x[..., 1], r
    kp = np.where(r < np.finfo(float).tiny, 600, 0)
    p1, p2 = np.ldexp(x[..., 0], kp), np.ldexp(x[..., 1], kp)
    rp = np.hypot(p1, p2)
    k = np.where(np.maximum(r, np.abs(x[..., 2])) < 2.0 ** -500, 600, 0)[..., None]
    x = np.ldexp(x, k)
    return x, k, np.hypot(x[..., 0], x[..., 1]), p1, p2, np.where(rp == 0.0, 1.0, rp)


def cone_margin(x):
    """x3^2 - 4 r(x)^2 row by row, zero exactly on the nonsmooth cone of the max
    CLF; a float for one state. Rows with r and |x3| under 2^-500 are scaled by
    2^600 first, as in _tiny_safe."""
    sq = np.square(_tiny_safe(x)[0])
    margin = sq[..., 2] - 4.0 * (sq[..., 0] + sq[..., 1])
    return float(margin) if margin.ndim == 0 else margin


def integrator_system() -> ControlAffineSystem:
    """dx1 = u1, dx2 = u2, dx3 = x1 u2 - x2 u1 (driftless); f and G row-wise."""

    def f(x):
        return np.zeros(np.asarray(x).shape)

    def G(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        out[..., 2, 0] = -x[..., 1]
        out[..., 2, 1] = x[..., 0]
        return out

    return ControlAffineSystem(3, 2, f, G)


def integrator_max_clf() -> Clf:
    """Max-form CLF max(r, |x3| - r) with its casewise subgradient selection.

    Semiconcave away from the cone x3^2 = 4 r^2, where cone_margin is zero;
    a loop that monitors cone_margin flags the runs that cross it.
    """

    def V(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return np.maximum(r, np.abs(x[..., 2]) - r)

    def subgrad(x):
        x, _, r, p1, p2, rp = _tiny_safe(x)
        x3 = x[..., 2]
        s3 = np.sign(x3)
        polar = x3 * x3 >= 4.0 * r * r
        sgn = np.where(polar, -1.0, 1.0)
        off_axis = np.stack([sgn * p1 / rp, sgn * p2 / rp,
                             np.where(polar, s3, 0.0)], axis=-1)
        on_axis = np.stack([np.zeros_like(s3), np.where(s3 == 0.0, 0.0, -1.0),
                            s3], axis=-1)
        return np.where((r == 0.0)[..., None], on_axis, off_axis)

    return Clf(3, V, subgrad, lambda s: s)


def _sign(v: float) -> float:
    """np.sign on a float: 1.0, -1.0, 0.0 at either zero, and a nan as given."""
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return v if v != v else 0.0


def _k1_k2(x1: float, x2: float, x3: float):
    """The pieces k1 and k2 of integrator_k1_k2 at one state, as two pairs of
    floats, by the same float operations in the same order."""
    r = math.hypot(x1, x2)
    a3 = abs(x3)
    if r == 0.0:
        return (0.0, a3), (0.0, a3)
    tiny = None
    if max(r, a3) < 2.0 ** -500:   # x3^2 and 4 r^2 would underflow
        tiny = _tiny_safe([x1, x2, x3])
        xs3, rs = float(tiny[0][2]), float(tiny[2])
        polar = xs3 * xs3 >= 4.0 * rs * rs
    else:
        polar = x3 * x3 >= 4.0 * r * r
    if not polar:
        return (-x1, -x2), (-r * _sign(x1), -r * _sign(x2))
    s3 = math.copysign(1.0, x3)   # the polar test fails at x3 = 0 when r > 0
    d1, d2, rd = x1, x2, r
    if r < _TINY:
        d1, d2, rd = (float(v) for v in (tiny or _tiny_safe([x1, x2, x3]))[3:])
    d1, d2 = d1 / rd, d2 / rd
    mu = (r - a3) / (r * r + 1.0)
    gap = a3 - r
    return ((mu * (-x2 * s3 - d1), mu * (x1 * s3 - d2)),
            (-(gap * _sign(-x2 * r * s3 - x1)), -(gap * _sign(x1 * r * s3 - x2))))


def integrator_k1_k2(x):
    """Explicit casewise feedback pieces for the integrator with the max CLF.

    On the x3 axis (r = 0, the origin included) both pieces are (0, |x3|); in
    the polar region |x3| >= 2 r and the equatorial region |x3| < 2 r they
    take their closed forms. Where r and |x3| are under 2^-500 the region test
    runs on the scaled state of _tiny_safe, and where r is subnormal so does
    the planar direction.
    """
    k1v, k2v = _k1_k2(*as_vector(x, 3).tolist())
    return np.array(k1v), np.array(k2v)


def integrator_feedback() -> Feedback:
    """Explicit closed-form feedback k1 + k2 of integrator_k1_k2."""

    def ev(x):
        # the casewise law on each row's Python floats: at every batch size a
        # campaign steps this beats numpy arithmetic, per row or masked
        x = np.asarray(x, dtype=float)
        pieces = [_k1_k2(*row) for row in x.reshape(-1, 3).tolist()]
        out = [(a1 + b1, a2 + b2) for (a1, a2), (b1, b2) in pieces]
        return np.array(out, dtype=float).reshape(x.shape[:-1] + (2,))

    return Feedback(3, 2, ev)


def integrator_squared_clf() -> Clf:
    """Squared-gap CLF (r - |x3|)^2 + x3^2, semiconcave away from the origin.

    The subgradient selection uses one-sided limits on the nonsmooth loci:
    approaching the x3 = 0 plane from x3 > 0, and approaching the axis along
    the first planar coordinate direction.
    """

    def V(x):
        x = np.asarray(x, dtype=float)
        x3 = x[..., 2]
        gap = np.hypot(x[..., 0], x[..., 1]) - np.abs(x3)
        return gap * gap + x3 * x3

    def subgrad(x):
        # the selection is 1-homogeneous, so a lifted row is scaled back after
        x, k, r, p1, p2, rp = _tiny_safe(x)
        x3 = x[..., 2]
        a3 = np.abs(x3)
        gap = r - a3
        on_axis = np.stack([-2.0 * a3, np.zeros_like(r), 4.0 * x3], axis=-1)
        on_plane = np.stack([2.0 * x[..., 0], 2.0 * x[..., 1], -2.0 * r], axis=-1)
        elsewhere = np.stack([2.0 * gap * p1 / rp, 2.0 * gap * p2 / rp,
                              2.0 * x3 - 2.0 * gap * np.sign(x3)], axis=-1)
        origin = (r == 0.0) & (a3 == 0.0)
        z = np.select([origin[..., None], (r == 0.0)[..., None],
                       (a3 == 0.0)[..., None]],
                      [np.zeros(x.shape), on_axis, on_plane], elsewhere)
        return np.ldexp(z, -k)

    return Clf(3, V, subgrad, lambda s: np.maximum(s, 1.0))


def integrator_feedback_crosscheck(count: int = 10000, seed: int = 0) -> dict:
    """Agreement report between the explicit formulas and the general recipe.

    Checks that the explicit first piece equals -b V / |b|^2, that the explicit
    damping piece matches the signed-damping formula, that the synthesized ball
    minimizer is parallel to the explicit first piece, and that the channel
    derivative norm satisfies 1 <= |b|^2 <= r^2 + 1.
    """
    rng = np.random.default_rng(seed)
    sys = integrator_system()
    clf = integrator_max_clf()
    worst_k1 = 0.0
    worst_k2 = 0.0
    worst_dir = 0.0
    worst_b_low = np.inf
    worst_b_high = -np.inf
    pts = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind == 0:
            x = np.array([0.0, 0.0, rng.uniform(-5, 5)])        # axis
        elif kind == 1:
            r = rng.uniform(0.05, 3.0)
            th = rng.uniform(0, 2 * np.pi)
            z = rng.uniform(2.05 * r, 6.0 * r) * rng.choice([-1.0, 1.0])
            x = np.array([r * np.cos(th), r * np.sin(th), z])   # polar
        else:
            r = rng.uniform(0.05, 5.0)
            th = rng.uniform(0, 2 * np.pi)
            z = rng.uniform(0.0, 1.9 * r) * rng.choice([-1.0, 1.0])
            x = np.array([r * np.cos(th), r * np.sin(th), z])   # equatorial
        if not np.any(x):
            continue
        pts.append(x)
        k1_syn, b, v = _k1(sys, clf, x)
        bn2 = float(b @ b)
        r2 = math.hypot(x[0], x[1]) ** 2
        worst_b_low = min(worst_b_low, bn2)
        worst_b_high = max(worst_b_high, bn2 - (r2 + 1.0))
        k1_formula = -b * v / bn2
        k1_explicit, k2_explicit = integrator_k1_k2(x)
        scale = max(np.linalg.norm(k1_formula), 1e-30)
        worst_k1 = max(worst_k1, float(np.linalg.norm(k1_explicit - k1_formula)) / scale)
        k2_general = -v * np.sign(b)
        worst_k2 = max(worst_k2, float(np.linalg.norm(k2_explicit - k2_general)))
        ns = np.linalg.norm(k1_syn)
        ne = np.linalg.norm(k1_explicit)
        if ns > 0 and ne > 0:
            worst_dir = max(worst_dir, float(np.linalg.norm(k1_syn / ns - k1_explicit / ne)))
    return {
        "points": len(pts),
        "k1_rel_error": worst_k1,
        "k2_abs_error": worst_k2,
        "k1_direction_error": worst_dir,
        "b_norm_min_sq": worst_b_low,
        "b_norm_excess": worst_b_high,
    }


# ---------------------------------------------------------------------------
# Scalar systems
# ---------------------------------------------------------------------------

def scalar_integrator_system() -> ControlAffineSystem:
    """dx = u on the line."""
    return ControlAffineSystem(1, 1, lambda x: np.zeros(np.asarray(x).shape),
                               lambda x: np.ones(np.asarray(x).shape + (1,)))


def scalar_abs_clf() -> Clf:
    """V = |x| with the sign selection; admissible control norm |x|."""
    return Clf(1,
               lambda x: np.abs(np.asarray(x, dtype=float)[..., 0]),
               lambda x: np.sign(np.asarray(x, dtype=float)),
               lambda s: s)


def scalar_square_clf() -> Clf:
    """Smooth V = x^2 with gradient 2x."""

    def V(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return x * x

    return Clf(1, V, lambda x: 2.0 * np.asarray(x, dtype=float), lambda s: s)


def counterexample_system() -> FullyNonlinearSystem:
    """dx = -x + u^2 x^2: open-loop stable, yet no continuous feedback makes
    the disturbed loop bounded; inputs of size one blow it up from x = 4."""

    def f(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return -x + u * u * x * x

    return FullyNonlinearSystem(1, 1, f)


# ---------------------------------------------------------------------------
# Weak-ISS certificate for fully nonlinear loops
# ---------------------------------------------------------------------------

class BandInfeasible(RuntimeError):
    def __init__(self, band):
        self.band = band
        super().__init__(f"no positive disturbance radius keeps decay negative on band {band}")


def estimate_decay_margin(sys: FullyNonlinearSystem, clf: Clf, k1_eval,
                          s, r, probes: int = 64, seed: int = 0):
    """Worst decay margin sup <subgrad(x), f(x, k1(x) + p)> + V(x)/2 over
    |x| = s, |p| = r, by Monte Carlo plus axis extremes.

    s and r broadcast against each other and the result takes their broadcast
    shape; two scalars give a float. The state points, and k1 on them, are
    evaluated once per entry of s, however many disturbance radii share it.
    """
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(s < 0) or np.any(r < 0):
        raise ValueError("radii must be nonnegative")
    rng = np.random.default_rng(seed)
    pds = direction_set(rng, probes, sys.m)
    x = s[..., None, None] * direction_set(rng, probes, sys.n)
    base = rowwise(k1_eval(x), x, (sys.m,))[..., None, :]
    # axes: (*broadcast(s, r), state direction, disturbance direction, coordinate)
    u = base + r[..., None, None, None] * pds
    xs = np.broadcast_to(x[..., None, :], u.shape[:-1] + (sys.n,))
    z = rowwise(clf.subgrad(x), x, (sys.n,))[..., None, :]
    v_half = 0.5 * rowwise(clf.V(x), x)[..., None]
    val = rowdot(z, rowwise(sys.f(xs, u), xs, (sys.n,))) + v_half
    worst = np.fmax.reduce(val, axis=(-2, -1))   # skips NaN, as max() did
    return float(worst) if worst.ndim == 0 else worst


@dataclass(frozen=True, eq=False)
class WeakIssCertificate:
    """Disturbance-radius staircase plus the smooth gain that realizes it.

    r_seq[i] is the admissible disturbance radius on the state-norm band
    [i+1, i+2); r_prime_seq[i] covers the reciprocal band down toward zero,
    interleaved so the full sequence decreases strictly. g is the monotone C^1
    gain profile (1 near the origin, below rho(s)/s beyond s = 2) and alpha4
    the tabulated input-to-radius threshold used in the envelope.
    """

    r_seq: np.ndarray
    r_prime_seq: np.ndarray
    i_max: int
    alpha4_grid: np.ndarray
    alpha4_values: np.ndarray

    def rho(self, s: float) -> float:
        """Piecewise-constant admissible disturbance radius at state norm s."""
        if s <= 0.0:
            return 0.0
        if s >= 1.0:
            k = min(int(math.floor(s)), self.i_max)
            return float(self.r_seq[k - 1])
        k = min(max(int(math.ceil(1.0 / s)) - 1, 1), self.i_max)
        return float(self.r_prime_seq[k - 1])

    def _level(self, k: int) -> float:
        # bridge target on [k, k+1]: the band minimum of rho(s)/s
        if k <= 1:
            return 1.0
        rk = float(self.r_seq[min(k, self.i_max) - 1])
        return min(1.0, rk / (k + 1.0))

    def _gain(self, s: float) -> float:
        if s <= 1.0:
            return 1.0
        if not math.isfinite(s):
            return math.nan
        k = int(math.floor(s))
        tau = s - k
        lo, hi = self._level(k), self._level(k + 1)
        step = tau * tau * (3.0 - 2.0 * tau)
        return lo + (hi - lo) * step

    def g(self, s):
        """Smooth monotone gain: 1 on [0, 1], then bridged down staircase
        levels; nan at a nan or infinite s. Entry by entry on an array (the
        batches here are a few runs, where that is faster than array
        arithmetic); a float for a float."""
        s = np.asarray(s, dtype=float)
        if not s.ndim:
            return self._gain(float(s))
        return np.array([self._gain(v) for v in s.ravel().tolist()]).reshape(s.shape)

    def alpha4(self, s: float) -> float:
        """Tabulated threshold radius, at least the identity, nondecreasing."""
        if s <= 0.0:
            return 0.0
        v = float(np.interp(s, self.alpha4_grid, self.alpha4_values))
        if s > self.alpha4_grid[-1]:
            v = float(self.alpha4_values[-1])
        return max(v, float(s))

    def bands(self) -> list:
        radii = [*self.r_seq, *self.r_prime_seq]
        return [{"lo": float(lo), "hi": float(hi), "radius": float(r)}
                for (lo, hi), r in zip(_band_edges(self.i_max), radii)]

    def to_json(self, path=None) -> dict:
        knots = [[float(k), self._level(k)] for k in range(1, self.i_max + 2)]
        doc = {
            "bands": self.bands(),
            "g_knots": knots,
            "alpha4_table": [[float(a), float(b)] for a, b in
                             zip(self.alpha4_grid, self.alpha4_values)],
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
        return doc


def _band_edges(i_max: int) -> list:
    """(lo, hi) of the bands [i, i+1), then of the reciprocal bands [1/(i+1), 1/i)."""
    return ([(i, i + 1) for i in range(1, i_max + 1)]
            + [(1.0 / (i + 1), 1.0 / i) for i in range(1, i_max + 1)])


def _band_radius(margin_fn, lo: float, hi: float) -> float:
    """Largest b with negative decay margin for every s in the band and every
    disturbance magnitude up to b (scanned on sub-grids, bisected on b)."""
    s_grid = np.linspace(lo, hi, 17)[:, None]
    fracs = np.linspace(0.0, 1.0, 9)

    def worst(b):
        return float(np.fmax.reduce(margin_fn(s_grid, b * fracs), axis=None))

    tiny, cap = 1e-9, 64.0
    if worst(tiny) >= 0.0:
        return 0.0
    hi_b = 1.0
    while worst(hi_b) < 0.0 and hi_b < cap:
        hi_b *= 2.0
    if hi_b >= cap:
        return cap
    lo_b = hi_b / 2.0 if hi_b > 1.0 else tiny
    return bisect(lambda b: worst(b) < 0.0, lo_b, hi_b, 40)[0]


def build_weak_iss_certificate(sys: FullyNonlinearSystem, clf: Clf,
                               k1: Feedback, i_max: int = 8,
                               safety: float = 0.9,
                               seed: int = 0) -> WeakIssCertificate:
    """Build the staircase / gain / threshold certificate for a nonlinear loop.

    Per band, a bisection finds the largest disturbance magnitude keeping the
    estimated decay margin negative; radii are deflated by the safety factor
    and clamped so the interleaved sequence decreases strictly. The gain g
    bridges the per-band minima of rho(s)/s with a clamped smoothstep, and
    alpha4 is tabulated by scanning state-norm shells for the largest one where
    the closed decay inequality still fails under inputs up to each magnitude.
    """
    if i_max < 1:
        raise ValueError("need at least one band")

    def margin(s, r):
        return estimate_decay_margin(sys, clf, k1.eval, s, r, 64, seed)

    raw = []
    for band in _band_edges(i_max):
        b = _band_radius(margin, float(band[0]), float(band[1]))
        if b <= 0.0:
            raise BandInfeasible(band)
        raw.append(safety * b)
    raw_r, raw_rp = raw[:i_max], raw[i_max:]

    # interleave r_1 > r'_1 > r_2 > r'_2 > ... strictly
    shrink = 1.0 - 1e-6
    r_seq = np.empty(i_max)
    rp_seq = np.empty(i_max)
    prev = np.inf
    for i in range(i_max):
        r_seq[i] = min(raw_r[i], prev * shrink)
        rp_seq[i] = min(raw_rp[i], r_seq[i] * shrink)
        prev = rp_seq[i]

    cert = WeakIssCertificate(r_seq, rp_seq, i_max,
                              np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    # tabulate alpha4 against the installed gain: per input level, the last
    # shell where some probe still breaks the closed decay inequality
    n_grid = np.linspace(0.0, 2.0, 41)
    shell_grid = np.linspace(1e-3, float(i_max + 1), 16 * (i_max + 1) + 1)
    gain = cert.g(shell_grid)
    hit = estimate_decay_margin(sys, clf, k1.eval, shell_grid,
                                n_grid[:, None] * gain, 16, seed + 1) > 0.0
    last = shell_grid.size - 1 - np.argmax(hit[:, ::-1], axis=1)
    spacing = shell_grid[1] - shell_grid[0]
    a4 = np.where(hit.any(axis=1), shell_grid[last] + spacing, 0.0)
    a4 = np.maximum.accumulate(a4)
    a4 = np.maximum(a4, n_grid)

    return WeakIssCertificate(r_seq, rp_seq, i_max, n_grid, a4)


def weak_iss_loop(sys: FullyNonlinearSystem, k1: Feedback,
                  cert: WeakIssCertificate, substeps: int = 16) -> ClosedLoop:
    """Closed loop dx/dt = f(x, held + g(|x|) u) with the certificate's gain."""
    f, g = sys.f, cert.g

    def F(x, p, u):
        gain = np.asarray(g(np.sqrt(rowdot(x, x))))
        return f(x, p + gain[..., None] * u)

    return ClosedLoop(sys.n, sys.m, F, k1, substeps)
