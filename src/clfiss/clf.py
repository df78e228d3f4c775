"""Nonsmooth control Lyapunov functions and the comparison-function machinery.

A Clf packages the value function, a subgradient selection and the admissible
control-magnitude bound. AlphaTables tabulate the inner/outer level-set radii
that feed the ISS envelope.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Vector, bisect, direction_set, rowwise


@dataclass(frozen=True, eq=False)
class Clf:
    """Continuous, positive definite, proper value function with extras.

    subgrad must be a selection of the limiting subdifferential with
    subgrad(0) = 0. control_bound(s) bounds the norm of admissible controls at
    states of norm s. V also weights the signed damping term of the
    synthesized feedback.

    V and subgrad are row-wise: a state array of shape (..., n) maps to
    values of shape (...) and subgradients of shape (..., n), each row as it
    would map alone. A single state of shape (n,) is a batch with no leading
    axes. control_bound is element-wise: state norms of shape (...) map to
    bounds of shape (...). The level-set tables, the rate guard, the
    synthesized feedback and the weak-ISS certificate call them on whole
    batches.
    """

    dim: int
    V: Callable[[Vector], np.ndarray]
    subgrad: Callable[[Vector], Vector]
    control_bound: Callable[[np.ndarray], np.ndarray]


def _pl_inverse(levels: np.ndarray, values: np.ndarray, y: float) -> float:
    """Infimum of the preimage of [y, inf) under the piecewise-linear table.

    Saturates at the grid ends for out-of-range queries.
    """
    if y <= values[0]:
        return float(levels[0])
    if y >= values[-1]:
        return float(levels[-1])
    # hi keeps interp(hi) >= y, which keeps beta conservative
    return bisect(lambda mid: not np.interp(mid, levels, values) >= y,
                  float(levels[0]), float(levels[-1]), 64)[1]


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
    def identity(cls, top: float) -> "AlphaTables":
        if not (math.isfinite(top) and top > 0.0):
            raise ValueError(f"the identity tables need a finite positive top, "
                             f"got {top:g}")
        g = np.linspace(0.0, top, 129)
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
                          seed: int = 0) -> AlphaTables:
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
    levels = s_top * np.linspace(0.0, 1.0, grid_size) ** 2

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
    jump = max(float(np.max(np.diff(lower))), float(np.max(np.diff(upper))))
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
        return self.decayed(self.tables.lower_inv(s), t)

    def decayed(self, v, t):
        """beta(s, t) from v = tables.lower_inv(s), so that a caller that
        queries one s for many runs inverts it once."""
        return self.tables.upper_at(v * decay_factor(t))

    def gamma(self, s):
        s_eff = float(self.alpha4(s)) if self.alpha4 is not None else float(s)
        return self.tables.upper_at(self.tables.lower_inv(s_eff))

    def bound(self, M, N, t):
        """Max-form envelope: max(beta(M, t) + gamma(N), overflow)."""
        return self.bound_from(self.tables.lower_inv(M), self.gamma(N), t)

    def bound_from(self, v, g, t):
        """bound(M, N, t) from v = tables.lower_inv(M) and g = gamma(N)."""
        return np.maximum(self.decayed(v, t) + g, self.overflow)

    def additive_bound(self, x0_norm, N, t):
        """Additive envelope beta(|x0|, t) + gamma(N) + overflow."""
        return self.additive_from(self.tables.lower_inv(x0_norm), self.gamma(N), t)

    def additive_from(self, v, g, t):
        """additive_bound(|x0|, N, t) from v = tables.lower_inv(|x0|) and
        g = gamma(N)."""
        return self.decayed(v, t) + g + self.overflow

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
