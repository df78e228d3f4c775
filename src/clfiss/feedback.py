"""Feedback synthesis from a CLF certificate.

The synthesized law is a sum of two pieces: a ball-constrained minimizer of the
directional decay inequality, and a signed damping term proportional to the
value function. Both vanish at the origin, and the damping piece is continuous
there by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clf import Clf
from .core import ControlAffineSystem, Vector, direction_set, rowdot, rowwise


class DecayViolation(RuntimeError):
    """The supplied (V, subgrad, control_bound) triple fails its decay inequality."""

    def __init__(self, x, margin: float):
        self.x = np.asarray(x, dtype=float)
        self.margin = float(margin)
        super().__init__(
            f"decay inequality violated at x={self.x.tolist()} (margin {margin:.3e})")


@dataclass(frozen=True, eq=False)
class Feedback:
    """Locally bounded state feedback with eval(0) = 0; may be discontinuous.

    eval is row-wise: states of shape (..., n) map to controls of shape
    (..., m), each row as it would map alone, and a single state of shape (n,)
    is a batch with no leading axes.
    """

    n: int
    m: int
    eval: Callable[[Vector], Vector]
    kind: str = "synthesized"   # synthesized | explicit | damping | zero
    note: str = ""

    def __post_init__(self):
        origin = np.zeros(self.n)
        if np.any(rowwise(self.eval(origin), origin, (self.m,)) != 0.0):
            raise ValueError("feedback must vanish exactly at the origin")


def zero_feedback(n: int, m: int) -> Feedback:
    return Feedback(n, m, lambda x: np.zeros(np.shape(x)[:-1] + (m,)), "zero")


def _states(x, n: int) -> np.ndarray:
    """x as a float batch of states of R^n, shape (..., n)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (n,):
        raise ValueError(f"expected states of length {n}, got shape {x.shape}")
    return x


def _channels(sys: ControlAffineSystem, clf: Clf, x: Vector):
    """Subgradient selections z, input matrices G and channel derivatives G^T z
    at the states x, row by row."""
    z = rowwise(clf.subgrad(x), x, (sys.n,))
    G = rowwise(sys.G(x), x, (sys.n, sys.m))
    # a row vector times G, which is bit for bit the 1-D G.T @ z
    return z, G, (z[..., None, :] @ G)[..., 0, :]


def _k1(sys: ControlAffineSystem, clf: Clf, x):
    """synthesize_k1's controls at the states x with the G^T subgrad(x) and
    V(x) they used, row by row; all three are zero at the origin.

    The masks for zero channel derivatives and for the origin are built only
    when some row needs them, which keeps a one-row call cheap.
    """
    x = _states(x, sys.n)
    z, G, w = _channels(sys, clf, x)
    wn = np.sqrt(rowdot(w, w))
    xn = np.sqrt(rowdot(x, x))
    bound = rowwise(clf.control_bound(xn), x)
    flat = wn == 0.0
    if np.count_nonzero(flat):
        wn = np.where(flat, 1.0, wn)
        u = np.where(flat[..., None], 0.0, -(bound / wn)[..., None] * w)
    else:
        u = -(bound / wn)[..., None] * w
    drift = rowdot(z, rowwise(sys.f(x), x, (sys.n,)) + (G @ u[..., None])[..., 0])
    v = rowwise(clf.V(x), x)
    bad = drift > -v + 1e-9 * np.maximum(1.0, v)
    # the norm of an origin row is zero (so is that of a row under 1e-162)
    origin = ~x.any(axis=-1) if np.count_nonzero(xn == 0.0) else None
    if np.count_nonzero(bad):
        if origin is not None:
            bad &= ~origin
        if np.count_nonzero(bad):
            k = int(np.argmax(bad))   # the first failing row in batch order
            raise DecayViolation(x.reshape(-1, sys.n)[k], np.ravel(drift + v)[k])
    if origin is None:
        return u, w, v
    still = origin[..., None]
    return (np.where(still, 0.0, u), np.where(still, 0.0, w),
            np.where(origin, 0.0, v))


def synthesize_k1(sys: ControlAffineSystem, clf: Clf, x) -> Vector:
    """Ball-constrained minimizer of the decay direction at x, row by row.

    The inner product to minimize is affine in u over the control ball of
    radius control_bound(|x|), so the exact argmin is -bound * w / |w| with
    w = G(x)^T subgrad(x). The resulting decay inequality
    <subgrad(x), f(x) + G(x) u> <= -V(x) + 1e-9 max(1, V(x)) is then verified,
    and a DecayViolation is raised when it fails, which means the certificate
    is not valid at x.
    """
    return _k1(sys, clf, x)[0]


def k2(sys: ControlAffineSystem, clf: Clf, x) -> Vector:
    """Signed damping term: -V(x) * sgn(<subgrad(x), g_j(x)>) per channel,
    row by row.

    sgn follows the three-case convention with sgn(0) = 0, so the magnitude is
    at most sqrt(m) * V(x) and the term is continuous at the origin.
    """
    x = _states(x, sys.n)
    w = _channels(sys, clf, x)[2]
    v = rowwise(clf.V(x), x)
    return np.where(~x.any(axis=-1)[..., None], 0.0, -v[..., None] * np.sign(w))


def combined_feedback(sys: ControlAffineSystem, clf: Clf) -> Feedback:
    """Sum of the ball minimizer and the signed damping term.

    Both pieces share one evaluation of subgrad, G and V per call, whatever
    the batch. Certificate failures surface lazily: an evaluation whose decay
    check fails raises DecayViolation at its first failing row.
    """

    def ev(x):
        u, w, v = _k1(sys, clf, x)
        return u - v[..., None] * np.sign(w)

    return Feedback(sys.n, sys.m, ev, "synthesized")


def damping_feedback(sys: ControlAffineSystem, clf: Clf) -> Feedback:
    """Classical damping law -(gradient^T G)^T using the CLF's subgradient selection.

    For a smooth value function this is the usual Lie-derivative damping; with a
    nonsmooth selection it may be discontinuous at the origin.
    """

    def ev(x):
        return -_channels(sys, clf, _states(x, sys.n))[2]

    return Feedback(sys.n, sys.m, ev, "damping")


def write_feedback_grid_csv(fb: Feedback, axes, path) -> None:
    """Tabulate fb on the cartesian product of the given axes.

    axes is one 1-D array per state coordinate; rows are x1..xn,k1..km, ready
    for vector-field plotting.
    """
    import csv as _csv

    if len(axes) != fb.n:
        raise ValueError(f"need {fb.n} axes, got {len(axes)}")
    grids = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes],
                        indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    header = [f"x{i + 1}" for i in range(fb.n)] + [f"k{j + 1}" for j in range(fb.m)]
    controls = rowwise(fb.eval(points), points, (fb.m,))
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(header)
        for x, k in zip(points, controls):
            w.writerow([f"{v:.17g}" for v in x] + [f"{v:.17g}" for v in k])


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    radii: np.ndarray
    sups: np.ndarray
    verdict: str   # continuous | discontinuous | inconclusive


def continuity_probe(fb: Feedback, seed: int = 0) -> ContinuityReport:
    """Shell sup of |fb| on the radii 1e-2, ..., 1e-8 around the origin, over
    64 random directions and the +-axes.

    Verdict is "continuous" when the final shell sup has decayed to within a
    factor 10 of the shell radius, "discontinuous" when the sups stay bounded
    away from zero across all shells.
    """
    radii = 10.0 ** -np.arange(2.0, 8.5, 1.0)
    dirs = direction_set(np.random.default_rng(seed), 64, fb.n)
    pts = radii[:, None, None] * dirs
    k = rowwise(fb.eval(pts), pts, (fb.m,))
    sups = np.max(np.sqrt(rowdot(k, k)), axis=1)
    if sups[-1] <= 10.0 * radii[-1]:
        verdict = "continuous"
    elif float(np.min(sups)) >= 1e-2:
        verdict = "discontinuous"
    else:
        verdict = "inconclusive"
    return ContinuityReport(radii, sups, verdict)
