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
from .core import ControlAffineSystem, Vector, as_vector, direction_set


class DecayViolation(RuntimeError):
    """The supplied (V, subgrad, control_bound) triple fails its decay inequality."""

    def __init__(self, x, margin: float):
        self.x = np.asarray(x, dtype=float)
        self.margin = float(margin)
        super().__init__(
            f"decay inequality violated at x={self.x.tolist()} (margin {margin:.3e})")


@dataclass(frozen=True, eq=False)
class Feedback:
    """Locally bounded state feedback with eval(0) = 0; may be discontinuous."""

    n: int
    m: int
    eval: Callable[[Vector], Vector]
    kind: str = "synthesized"   # synthesized | explicit | damping | zero
    note: str = ""

    def __post_init__(self):
        k0 = as_vector(self.eval(np.zeros(self.n)), self.m)
        if np.any(k0 != 0.0):
            raise ValueError("feedback must vanish exactly at the origin")


def zero_feedback(n: int, m: int) -> Feedback:
    zero = np.zeros(m)
    return Feedback(n, m, lambda x: zero, "zero")


def synthesize_k1(sys: ControlAffineSystem, clf: Clf, x,
                  decay_tol: float | None = None) -> Vector:
    """Ball-constrained minimizer of the decay direction at x.

    The inner product to minimize is affine in u over the control ball of
    radius control_bound(|x|), so the exact argmin is -bound * w / |w| with
    w = G(x)^T subgrad(x). The resulting decay inequality
    <subgrad(x), f(x) + G(x) u> <= -V(x) + decay_tol is then verified, and a
    DecayViolation is raised when it fails, which means the certificate is not
    valid at x.
    """
    x = as_vector(x, sys.n)
    if not np.any(x):
        return np.zeros(sys.m)
    z = as_vector(clf.subgrad(x), sys.n)
    G = np.asarray(sys.G(x), dtype=float)
    w = G.T @ z
    wn = float(np.linalg.norm(w))
    if wn == 0.0:
        u = np.zeros(sys.m)
    else:
        u = -(float(clf.control_bound(float(np.linalg.norm(x)))) / wn) * w
    drift = float(z @ (as_vector(sys.f(x), sys.n) + G @ u))
    v = float(clf.V(x))
    tol = 1e-9 * max(1.0, v) if decay_tol is None else decay_tol
    if drift > -v + tol:
        raise DecayViolation(x, drift + v)
    return u


def k2(sys: ControlAffineSystem, clf: Clf, x) -> Vector:
    """Signed damping term: -weight(x) * sgn(<subgrad(x), g_j(x)>) per channel.

    sgn follows the three-case convention with sgn(0) = 0, so the magnitude is
    at most sqrt(m) * weight(x) and the term is continuous at the origin.
    """
    x = as_vector(x, sys.n)
    if not np.any(x):
        return np.zeros(sys.m)
    z = as_vector(clf.subgrad(x), sys.n)
    b = np.asarray(sys.G(x), dtype=float).T @ z
    return -clf.weight(x) * np.sign(b)


def combined_feedback(sys: ControlAffineSystem, clf: Clf,
                      decay_tol: float | None = None) -> Feedback:
    """Sum of the ball minimizer and the signed damping term.

    Certificate failures surface lazily: the first evaluation whose decay check
    fails raises DecayViolation.
    """

    def ev(x):
        return synthesize_k1(sys, clf, x, decay_tol) + k2(sys, clf, x)

    return Feedback(sys.n, sys.m, ev, "synthesized", clf.name)


def damping_feedback(sys: ControlAffineSystem, clf: Clf) -> Feedback:
    """Classical damping law -(gradient^T G)^T using the CLF's subgradient selection.

    For a smooth value function this is the usual Lie-derivative damping; with a
    nonsmooth selection it may be discontinuous at the origin.
    """

    def ev(x):
        x = as_vector(x, sys.n)
        z = as_vector(clf.subgrad(x), sys.n)
        return -(np.asarray(sys.G(x), dtype=float).T @ z)

    return Feedback(sys.n, sys.m, ev, "damping", clf.name)


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
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(header)
        for x in points:
            k = as_vector(fb.eval(x), fb.m)
            w.writerow([f"{v:.17g}" for v in x] + [f"{v:.17g}" for v in k])


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    radii: np.ndarray
    sups: np.ndarray
    verdict: str   # continuous | discontinuous | inconclusive


def continuity_probe(fb: Feedback, radii=None, directions: int = 64,
                     seed: int = 0) -> ContinuityReport:
    """Shell sup of |fb| on shrinking radii around the origin.

    Verdict is "continuous" when the final shell sup has decayed to within a
    factor 10 of the shell radius, "discontinuous" when the sups stay bounded
    away from zero across all shells.
    """
    if radii is None:
        radii = 10.0 ** -np.arange(2.0, 8.5, 1.0)
    radii = np.asarray(radii, dtype=float)
    rng = np.random.default_rng(seed)
    dirs = direction_set(rng, directions, fb.n)
    sups = np.array([
        max(float(np.linalg.norm(as_vector(fb.eval(r * d), fb.m))) for d in dirs)
        for r in radii
    ])
    if sups[-1] <= 10.0 * radii[-1]:
        verdict = "continuous"
    elif float(np.min(sups)) >= 1e-2:
        verdict = "discontinuous"
    else:
        verdict = "inconclusive"
    return ContinuityReport(radii, sups, verdict)
