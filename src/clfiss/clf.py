"""Nonsmooth control Lyapunov functions and the comparison-function machinery.

A Clf packages the value function, a subgradient selection, the admissible
control-magnitude bound, and the region where its one-sided quadratic upper
estimates hold. AlphaTables tabulate the inner/outer level-set radii that feed
the ISS envelope.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Vector, as_vector, direction_set, rowwise, unit_rows


def _always(x) -> bool:
    return True


@dataclass(frozen=True, eq=False)
class Clf:
    """Continuous, positive definite, proper value function with extras.

    subgrad must be a selection of the limiting subdifferential with
    subgrad(0) = 0. control_bound(s) bounds the norm of admissible controls at
    states of norm s. domain marks where the semiconcavity estimates hold.
    V also weights the signed damping term of the synthesized feedback.

    V and subgrad are row-wise: a state array of shape (..., n) maps to
    values of shape (...) and subgradients of shape (..., n), each row as it
    would map alone. A single state of shape (n,) is a batch with no leading
    axes. control_bound is element-wise: state norms of shape (...) map to
    bounds of shape (...). The level-set tables, the rate guard, the
    synthesized feedback and the weak-ISS certificate call them on whole
    batches. domain takes one state at a time.
    """

    dim: int
    V: Callable[[Vector], np.ndarray]
    subgrad: Callable[[Vector], Vector]
    control_bound: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[Vector], bool] = _always


def fd_gradient(V: Callable[[Vector], float]):
    """Central-difference gradient fallback for smooth points.

    Approximate by construction; the step is 1e-6 * max(1, |x|). Returns
    exactly zero at the origin so it can serve as a subgradient selection.
    """

    def grad(x):
        x = as_vector(x)
        if not np.any(x):
            return np.zeros_like(x)
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (float(V(x + e)) - float(V(x - e))) / (2.0 * h)
        return g

    return grad


def validate_clf(clf: Clf, samples: int = 300, seed: int = 0) -> dict:
    """Sampled positive-definiteness / properness / zero-subgradient report."""
    rng = np.random.default_rng(seed)
    origin = np.zeros(clf.dim)
    report = {
        "V0": float(clf.V(origin)),
        "subgrad0_norm": float(np.linalg.norm(as_vector(clf.subgrad(origin), clf.dim))),
    }
    vals = [float(clf.V(unit_rows(rng, 1, clf.dim)[0] * rng.uniform(1e-6, 10.0)))
            for _ in range(samples)]
    report["min_positive"] = min(vals) if vals else None
    shell_vals = [float(np.min(clf.V(10.0 ** k * unit_rows(rng, 16, clf.dim))))
                  for k in range(5)]
    report["shell_minima"] = shell_vals
    report["proper"] = all(b > a for a, b in zip(shell_vals, shell_vals[1:]))
    report["positive_definite"] = report["V0"] == 0.0 and report["min_positive"] > 0.0
    return report


def _pl_inverse(levels: np.ndarray, values: np.ndarray, y: float,
                iters: int = 64) -> float:
    """Infimum of the preimage of [y, inf) under the piecewise-linear table.

    Saturates at the grid ends for out-of-range queries.
    """
    if y <= values[0]:
        return float(levels[0])
    if y >= values[-1]:
        return float(levels[-1])
    lo, hi = float(levels[0]), float(levels[-1])
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.interp(mid, levels, values) >= y:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True, eq=False)
class AlphaTables:
    """Tabulated inner/outer radii of the value function's level sets.

    lower[j] approximates the smallest state norm at which the value reaches
    levels[j]; upper[j] bounds the state norms inside the levels[j] sublevel
    set from above, rounded outward to the sampled shells. Both columns are nondecreasing with lower <= levels
    (normalization) and are queried by monotone piecewise-linear interpolation
    with bisection inverses. grid_tol bounds the query error (radial spacing
    plus direction coverage plus the largest inter-level value jump).
    """

    levels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    grid_tol: float
    radius_max: float
    truncated_levels: int = 0

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if not (lv.shape == lo.shape == up.shape) or lv.ndim != 1 or lv.size < 2:
            raise ValueError("levels/lower/upper must be equal-length 1-D arrays")
        if lv[0] != 0.0 or np.any(np.diff(lv) <= 0):
            raise ValueError("levels must increase strictly from 0")
        if np.any(np.diff(lo) < -1e-12) or np.any(np.diff(up) < -1e-12):
            raise ValueError("table columns must be nondecreasing")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def identity(cls, top: float, size: int = 129) -> "AlphaTables":
        g = np.linspace(0.0, top, size)
        return cls(g, g.copy(), g.copy(), 1e-12, top)

    def lower_at(self, s):
        return np.interp(s, self.levels, self.lower)

    def upper_at(self, s):
        return np.interp(s, self.levels, self.upper)

    def lower_inv(self, y) -> float:
        return _pl_inverse(self.levels, self.lower, float(y))

    def in_range(self, s) -> bool:
        return bool(self.levels[0] <= s <= self.levels[-1])

    def value_in_range(self, y) -> bool:
        return bool(self.lower[0] <= y <= self.lower[-1])

    def describe(self) -> dict:
        return {
            "grid_tol": self.grid_tol,
            "radius_max": self.radius_max,
            "truncated_levels": self.truncated_levels,
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "underline", "overline"])
            for s, lo, up in zip(self.levels, self.lower, self.upper):
                w.writerow([f"{s:.17g}", f"{lo:.17g}", f"{up:.17g}"])

    @classmethod
    def from_csv(cls, path) -> "AlphaTables":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        arr = np.array([[float(v) for v in r] for r in rows])
        return cls(arr[:, 0], arr[:, 1], arr[:, 2], 0.0, 0.0)


def _angular_tol(dim: int, count: int) -> float:
    # Rough covering angle of `count` random directions on the unit sphere.
    if dim == 1:
        return 0.0
    if dim == 2:
        theta = np.pi / count
    else:
        theta = float(np.sqrt(4.0 * np.pi / count))
    return 1.0 - float(np.cos(min(theta, np.pi / 2)))


# V is called on blocks of directions holding about this many points, which
# keeps the temporaries of one call near a megabyte.
_BLOCK_POINTS = 16384


def estimate_alpha_tables(clf: Clf, radius_max: float, grid_size: int = 257,
                          directions: int = 64, radii: int = 512,
                          levels=None, seed: int = 0) -> AlphaTables:
    """Tabulate level-set radius bounds by dense sampling on radial shells.

    For each level s, lower(s) approximates the smallest sampled |x| with
    V(x) >= s, clipped to s. upper(s) is the shell after the last shell with a
    sampled V(x) <= s, capped at radius_max: the sublevel set may reach past
    that last shell between samples, so upper rounds up, the safe way for an
    outer radius. Both columns are nondecreasing in s. Levels whose set
    cannot be resolved inside radius_max are counted as truncated.
    """
    if radius_max <= 0.0:
        raise ValueError("radius_max must be positive")
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    rng = np.random.default_rng(seed)
    dirs = direction_set(rng, directions, clf.dim)
    shells = np.linspace(0.0, radius_max, radii)
    values = np.empty((dirs.shape[0], radii))
    block = max(1, _BLOCK_POINTS // radii)
    for d in range(0, dirs.shape[0], block):
        pts = dirs[d:d + block, None, :] * shells[:, None]
        values[d:d + block] = rowwise(clf.V(pts), pts)
    s_top = float(np.min(np.max(values, axis=1)))
    if levels is None:
        u = np.linspace(0.0, 1.0, grid_size)
        levels = s_top * u ** 2
    levels = np.asarray(levels, dtype=float)

    # reach[k]: largest sampled value on shells 0..k; floor[k]: smallest on
    # shells k..end. Both are monotone, so each column is one searchsorted.
    reach = np.maximum.accumulate(np.max(values, axis=0))
    floor = np.minimum.accumulate(np.min(values, axis=0)[::-1])[::-1]
    lower = shells[np.minimum(np.searchsorted(reach, levels), radii - 1)]
    last_inside = np.searchsorted(floor, levels, side="right") - 1
    upper = np.where(last_inside >= 0,
                     shells[np.clip(last_inside + 1, 0, radii - 1)], 0.0)
    truncated = int(np.count_nonzero((levels > np.min(values[:, -1]))
                                     | (levels > reach[-1])))

    lower = np.minimum(lower, levels)
    spacing = radius_max / (radii - 1)
    jump = max(float(np.max(np.diff(lower))), float(np.max(np.diff(upper)))) if levels.size > 1 else 0.0
    grid_tol = spacing + _angular_tol(clf.dim, dirs.shape[0]) * radius_max + jump
    return AlphaTables(levels, lower, upper, grid_tol, radius_max, truncated)


def decay_factor(t):
    """Time-decay profile 16 / (16 + t) entering the class-KL envelope."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("decay_factor needs t >= 0")
    out = 16.0 / (16.0 + t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class IssEnvelope:
    """Class-KL/K-infinity envelope built from level-set radius tables.

    beta(s, t) composes the outer radius with the decayed inner-radius inverse;
    gamma(s) is the same composition without decay, optionally routed through
    the weak-stabilization gain bound alpha4. overflow is the additive floor.
    """

    tables: AlphaTables
    overflow: float
    alpha4: Callable[[float], float] | None = None

    def beta(self, s, t):
        v = self.tables.lower_inv(s)
        return self.tables.upper_at(v * decay_factor(t))

    def gamma(self, s):
        s_eff = float(self.alpha4(s)) if self.alpha4 is not None else float(s)
        return self.tables.upper_at(self.tables.lower_inv(s_eff))

    def bound(self, M, N, t):
        """Max-form envelope: max(beta(M, t) + gamma(N), overflow)."""
        return np.maximum(self.beta(M, t) + self.gamma(N), self.overflow)

    def additive_bound(self, x0_norm, N, t):
        """Additive envelope beta(|x0|, t) + gamma(N) + overflow."""
        return self.beta(x0_norm, t) + self.gamma(N) + self.overflow

    def saturation_flags(self, M, N) -> dict:
        s_eff = float(self.alpha4(N)) if self.alpha4 is not None else float(N)
        return {
            "M_in_range": self.tables.value_in_range(M),
            "N_in_range": self.tables.value_in_range(s_eff),
        }

    def describe(self) -> dict:
        d = self.tables.describe()
        d["overflow"] = self.overflow
        d["has_alpha4"] = self.alpha4 is not None
        return d


def build_envelope(tables: AlphaTables, overflow: float,
                   alpha4: Callable[[float], float] | None = None) -> IssEnvelope:
    if overflow <= 0.0:
        raise ValueError("overflow must be positive")
    return IssEnvelope(tables, float(overflow), alpha4)


@dataclass(frozen=True, eq=False)
class SemiconcavityReport:
    probes: np.ndarray
    rho_levels: np.ndarray
    estimates: np.ndarray       # (levels, probes) midpoint-inequality constants
    divergent: np.ndarray       # per-probe verdict under refinement
    max_ratio: float

    def any_divergent(self) -> bool:
        return bool(np.any(self.divergent))


def check_semiconcavity(clf: Clf, probes, rho: float, trials: int = 200,
                        refinements: int = 4, seed: int = 0) -> SemiconcavityReport:
    """Estimate midpoint-inequality constants around each probe, refining rho.

    For pairs x, y near a probe the statistic is
    (V(x) + V(y) - 2 V((x+y)/2)) / |x - y|^2, floored at zero. A probe is
    flagged divergent when the constant keeps growing as the pair scale
    shrinks, which signals a semiconcavity failure at that point.
    """
    rng = np.random.default_rng(seed)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    rhos = rho / (2.0 ** np.arange(refinements))
    est = np.zeros((refinements, probes.shape[0]))
    for li, r in enumerate(rhos):
        for pi, p in enumerate(probes):
            worst = 0.0
            found = 0
            attempts = 0
            while found < trials and attempts < 20 * trials:
                attempts += 1
                x = p + r * rng.uniform(-1.0, 1.0, size=clf.dim)
                y = p + r * rng.uniform(-1.0, 1.0, size=clf.dim)
                mid = 0.5 * (x + y)
                if not (clf.domain(x) and clf.domain(y) and clf.domain(mid)):
                    continue
                gap2 = float(np.sum((x - y) ** 2))
                if gap2 < 1e-30:
                    continue
                found += 1
                c = (float(clf.V(x)) + float(clf.V(y)) - 2.0 * float(clf.V(mid))) / gap2
                worst = max(worst, c)
            est[li, pi] = worst
    divergent = np.zeros(probes.shape[0], dtype=bool)
    for pi in range(probes.shape[0]):
        seq = est[:, pi]
        # Monte-Carlo maxima are noisy per level, so compare the late levels
        # against the coarsest one instead of demanding stepwise growth.
        late = float(np.max(seq[-2:])) if refinements >= 2 else float(seq[-1])
        divergent[pi] = seq[0] > 0 and late >= 4.0 * seq[0]
    return SemiconcavityReport(probes, rhos, est, divergent, float(est.max()))
