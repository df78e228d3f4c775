"""Benchmark systems and certificates.

The nonholonomic integrator (three states, two inputs, no drift) has no
continuous stabilizer, which makes it the canonical target for discontinuous
feedback. This module packages it with two nonsmooth CLFs and the matching
explicit feedback, and a scalar system that defeats continuous ISS feedback
but becomes stabilizable once the disturbance is routed through a
state-dependent gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clf import Clf
from .core import (ControlAffineSystem, FullyNonlinearSystem, bisect,
                   direction_set, rowdot, rowwise)
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
        z = np.stack([sgn * p1 / rp, sgn * p2 / rp, np.where(polar, s3, 0.0)], axis=-1)
        axis = r == 0.0
        if axis.any():   # the x3 axis, the origin included
            on_axis = np.stack([np.zeros_like(s3), np.where(s3 == 0.0, 0.0, -1.0),
                                s3], axis=-1)
            z = np.where(axis[..., None], on_axis, z)
        return z

    return Clf(3, V, subgrad, lambda s: s)


def _sign(v: float) -> float:
    """np.sign on a float: 1.0, -1.0, 0.0 at either zero, and a nan as given."""
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return v if v != v else 0.0


def _k1_k2(x1: float, x2: float, x3: float):
    """Explicit casewise feedback pieces k1 and k2 for the integrator with the
    max CLF at one state, as two pairs of floats.

    On the x3 axis (r = 0, the origin included) both pieces are (0, |x3|); in
    the polar region |x3| >= 2 r and the equatorial region |x3| < 2 r they
    take their closed forms. Where r and |x3| are under 2^-500 the region test
    runs on the scaled state of _tiny_safe, and where r is subnormal so does
    the planar direction.
    """
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


def integrator_feedback() -> Feedback:
    """Explicit closed-form feedback k1 + k2 of _k1_k2."""

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
        z = np.stack([2.0 * gap * p1 / rp, 2.0 * gap * p2 / rp,
                      2.0 * x3 - 2.0 * gap * np.sign(x3)], axis=-1)
        axis, plane = (r == 0.0)[..., None], (a3 == 0.0)[..., None]
        if (axis | plane).any():   # the origin, the x3 axis and the x3 = 0 plane
            on_axis = np.stack([-2.0 * a3, np.zeros_like(r), 4.0 * x3], axis=-1)
            on_plane = np.stack([2.0 * x[..., 0], 2.0 * x[..., 1], -2.0 * r], axis=-1)
            z = np.select([axis & plane, axis, plane],
                          [np.zeros(x.shape), on_axis, on_plane], z)
        return np.ldexp(z, -k)

    return Clf(3, V, subgrad, lambda s: np.maximum(s, 1.0))


def integrator_feedback_crosscheck(count: int = 10000, seed: int = 0) -> dict:
    """Agreement report between the explicit formulas and the general recipe.

    Checks that the explicit first piece equals -b V / |b|^2, that the explicit
    damping piece matches the signed-damping formula, that the synthesized ball
    minimizer is parallel to the explicit first piece, and that the channel
    derivative norm satisfies 1 <= |b|^2 <= r^2 + 1. The points are drawn one
    at a time and then checked as one batch, row by row as each would be alone.
    """
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind == 0:
            x = np.array([0.0, 0.0, rng.uniform(-5, 5)])        # axis
        else:   # polar at kind 1, else equatorial
            r = rng.uniform(0.05, 3.0 if kind == 1 else 5.0)
            th = rng.uniform(0, 2 * np.pi)
            lo, hi = (2.05, 6.0) if kind == 1 else (0.0, 1.9)
            z = rng.uniform(lo * r, hi * r) * rng.choice([-1.0, 1.0])
            x = np.array([r * np.cos(th), r * np.sin(th), z])
        if np.any(x):
            pts.append(x)
    x = np.array(pts).reshape(-1, 3)
    k1_syn, b, v = _k1(integrator_system(), integrator_max_clf(), x)
    bn2 = rowdot(b, b)
    # the explicit law and math.hypot (np.hypot differs) on each row's floats
    explicit = np.array([_k1_k2(*row) for row in x.tolist()]).reshape(-1, 2, 2)
    k1_explicit, k2_explicit = explicit[:, 0], explicit[:, 1]
    r2 = np.array([math.hypot(*row) ** 2 for row in x[:, :2].tolist()])

    def norm(d):
        return np.sqrt(rowdot(d, d))

    k1_formula = -b * v[:, None] / bn2[:, None]
    k2_general = -v[:, None] * np.sign(b)
    scale = np.maximum(norm(k1_formula), 1e-30)
    ns, ne = norm(k1_syn), norm(k1_explicit)
    both = (ns > 0) & (ne > 0)
    k1_dir = k1_syn[both] / ns[both, None] - k1_explicit[both] / ne[both, None]
    return {
        "points": x.shape[0],
        "k1_rel_error": float(np.max(norm(k1_explicit - k1_formula) / scale,
                                     initial=0.0)),
        "k2_abs_error": float(np.max(norm(k2_explicit - k2_general), initial=0.0)),
        "k1_direction_error": float(np.max(norm(k1_dir), initial=0.0)),
        "b_norm_min_sq": float(np.min(bn2, initial=np.inf)),
        "b_norm_excess": float(np.max(bn2 - (r2 + 1.0), initial=-np.inf)),
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


def decay_margin_on(sys: FullyNonlinearSystem, clf: Clf, k1_eval, s,
                    probes: int = 64, seed: int = 0):
    """r -> worst decay margin sup <subgrad(x), f(x, k1(x) + p)> + V(x)/2 over
    |x| = s, |p| = r, by Monte Carlo plus axis extremes.

    The state-only terms (the direction sets, the state points x and k1,
    subgrad and V/2 on them) are evaluated here, once for the grid s; each
    call of the returned function then evaluates f alone. Its r broadcasts
    against s and the margin takes their broadcast shape; two scalars give a
    float.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("radii must be nonnegative")
    rng = np.random.default_rng(seed)
    pds = direction_set(rng, probes, sys.m)
    x = s[..., None, None] * direction_set(rng, probes, sys.n)
    base = rowwise(k1_eval(x), x, (sys.m,))[..., None, :]
    z = rowwise(clf.subgrad(x), x, (sys.n,))[..., None, :]
    v_half = 0.5 * rowwise(clf.V(x), x)[..., None]

    def margin(r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radii must be nonnegative")
        # axes: (*broadcast(s, r), state direction, disturbance direction, coordinate)
        u = base + r[..., None, None, None] * pds
        xs = np.broadcast_to(x[..., None, :], u.shape[:-1] + (sys.n,))
        val = rowdot(z, rowwise(sys.f(xs, u), xs, (sys.n,))) + v_half
        worst = np.fmax.reduce(val, axis=(-2, -1))   # skips NaN, as max() did
        return float(worst) if worst.ndim == 0 else worst

    return margin


def estimate_decay_margin(sys: FullyNonlinearSystem, clf: Clf, k1_eval,
                          s, r, probes: int = 64, seed: int = 0):
    """decay_margin_on(sys, clf, k1_eval, s, probes, seed)(r): the worst decay
    margin over |x| = s, |p| = r, in the broadcast shape of s and r.

    A query that reuses its s should build decay_margin_on once: the weak-ISS
    band search builds it once on the (bands, 17, 1) grid of every band and
    then steps all the bands' bisections in lockstep, one call of the margin
    per step, and the alpha4 scan is one call of this function."""
    return decay_margin_on(sys, clf, k1_eval, s, probes, seed)(r)


@dataclass(frozen=True, eq=False)
class WeakIssCertificate:
    """Disturbance-radius staircase plus the smooth gain that realizes it.

    r_seq[i] is the admissible disturbance radius on the state-norm band
    [i+1, i+2); r_prime_seq[i] covers the reciprocal band down toward zero,
    interleaved so the full sequence decreases strictly. g is the monotone C^1
    gain profile (1 near the origin, below r_seq[min(floor(s), i_max) - 1] / s
    beyond s = 2) and alpha4 the tabulated input-to-radius threshold used in
    the envelope.
    """

    r_seq: np.ndarray
    r_prime_seq: np.ndarray
    i_max: int
    alpha4_grid: np.ndarray
    alpha4_values: np.ndarray

    def __post_init__(self):
        # the knot table: _level(k) for k = 0 .. i_max + 1 as Python floats,
        # built once, so that no gain evaluation reads a numpy scalar
        object.__setattr__(self, "_r_last", float(self.r_seq[self.i_max - 1]))
        object.__setattr__(self, "_knots",
                           tuple(self._level(k) for k in range(self.i_max + 2)))

    def _level(self, k: int) -> float:
        # bridge target on [k, k+1]: the band minimum of the radius over s
        if k <= 1:
            return 1.0
        rk = self._r_last if k >= self.i_max else float(self.r_seq[k - 1])
        return min(1.0, rk / (k + 1.0))

    def _gain(self, s: float) -> float:
        if s <= 1.0:
            return 1.0
        if not math.isfinite(s):
            return math.nan
        k = math.floor(s)
        tau = s - k
        if k <= self.i_max:
            lo, hi = self._knots[k], self._knots[k + 1]
        else:
            lo, hi = self._level(k), self._level(k + 1)
        step = tau * tau * (3.0 - 2.0 * tau)
        return lo + (hi - lo) * step

    def g(self, s):
        """Smooth monotone gain: 1 on [0, 1], then bridged down staircase
        levels; nan at a nan or infinite s. The levels come from a knot table
        of Python floats built once per certificate, and an array is mapped
        entry by entry (the batches here are a few runs, where that is faster
        than array arithmetic); a float for a float."""
        s = np.asarray(s, dtype=float)
        if not s.ndim:
            return self._gain(float(s))
        return np.fromiter(map(self._gain, s.ravel().tolist()), float,
                           s.size).reshape(s.shape)

    def alpha4(self, s: float) -> float:
        """Tabulated threshold radius, at least the identity, nondecreasing."""
        if s <= 0.0:
            return 0.0
        # beyond the grid np.interp returns the last tabulated value
        v = float(np.interp(s, self.alpha4_grid, self.alpha4_values))
        return max(v, float(s))

    def bands(self) -> list:
        radii = [*self.r_seq, *self.r_prime_seq]
        return [{"lo": float(lo), "hi": float(hi), "radius": float(r)}
                for (lo, hi), r in zip(_band_edges(self.i_max), radii)]

    def to_json(self) -> dict:
        knots = [[float(k), self._knots[k]] for k in range(1, self.i_max + 2)]
        return {
            "bands": self.bands(),
            "g_knots": knots,
            "alpha4_table": [[float(a), float(b)] for a, b in
                             zip(self.alpha4_grid, self.alpha4_values)],
        }


def _band_edges(i_max: int) -> list:
    """(lo, hi) of the bands [i, i+1), then of the reciprocal bands [1/(i+1), 1/i)."""
    return ([(i, i + 1) for i in range(1, i_max + 1)]
            + [(1.0 / (i + 1), 1.0 / i) for i in range(1, i_max + 1)])


def _band_radii(margin_on, edges: list) -> np.ndarray:
    """Per band (lo, hi) of edges, the largest b with negative decay margin for
    every s in the band and every disturbance magnitude up to b (scanned on
    sub-grids, bisected on b). margin_on(s) builds the margin r -> margin on
    the state-norm grid s.

    The bands step in lockstep, one margin evaluation on a (bands, 17, 9)
    grid per step, and each band sees the b values it would see alone: tiny,
    then 1, 2, 4, ... up to the first one whose margin is not negative or the
    cap, then 40 halvings. A band whose margin is still negative at the cap
    only repeats the cap; one whose margin is not bisects [cap / 2, cap].
    Raises BandInfeasible for the first band, in band order, whose margin is
    not negative at tiny b (a nan margin included).
    """
    s_grid = np.array([np.linspace(lo, hi, 17) for lo, hi in edges])[:, :, None]
    fracs = np.linspace(0.0, 1.0, 9)
    margin = margin_on(s_grid)

    def negative(b):
        worst = np.fmax.reduce(margin(b[:, None, None] * fracs), axis=(1, 2))
        return worst < 0.0

    tiny, cap = 1e-9, 64.0
    feasible = negative(np.full(len(edges), tiny))
    if not feasible.all():
        raise BandInfeasible(edges[int(np.argmin(feasible))])
    hi_b = np.ones(len(edges))
    growing = np.ones(len(edges), dtype=bool)
    while growing.any():
        # every band's margin at its current hi_b, the last one included
        neg = negative(hi_b)
        growing &= neg & (hi_b < cap)
        hi_b = np.where(growing, 2.0 * hi_b, hi_b)
    lo_b = np.where(neg, cap, np.where(hi_b > 1.0, hi_b / 2.0, tiny))
    return bisect(negative, lo_b, hi_b, 40)[0]


def build_weak_iss_certificate(sys: FullyNonlinearSystem, clf: Clf,
                               k1: Feedback, i_max: int = 8,
                               safety: float = 0.9,
                               seed: int = 0) -> WeakIssCertificate:
    """Build the staircase / gain / threshold certificate for a nonlinear loop.

    Per band, a bisection finds the largest disturbance magnitude keeping the
    estimated decay margin negative (all bands in lockstep, see _band_radii);
    radii are deflated by the safety factor and clamped so the interleaved
    sequence decreases strictly. The gain g bridges the per-band minima of
    the staircase radius over s with a clamped smoothstep, and alpha4 is
    tabulated by scanning state-norm shells for the largest one where the
    closed decay inequality still fails under inputs up to each magnitude.
    """
    if i_max < 1:
        raise ValueError("need at least one band")

    def margin_on(s):
        return decay_margin_on(sys, clf, k1.eval, s, 64, seed)

    raw = safety * _band_radii(margin_on, _band_edges(i_max))
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
