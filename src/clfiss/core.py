"""Shared state-space types: systems, sampling schedules, signals, trajectories.

Everything here is immutable after construction and safe to share across
parallel workers; there is no hidden mutable state anywhere in the library.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray

DEFAULT_ESCAPE_RADIUS = 1e9

# Trajectory status kinds.
COMPLETED = "completed"
BLOWUP = "blowup"
LEFT_DOMAIN = "left_domain"
NUMERICAL_FAILURE = "numerical_failure"


def as_vector(x, n: int | None = None) -> Vector:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if n is not None and v.shape != (n,):
        raise ValueError(f"expected vector of length {n}, got shape {v.shape}")
    return v


def rowwise(values, x, tail: tuple = ()) -> np.ndarray:
    """values as a float array, checked to hold one entry of shape tail per
    row of the state batch x (the callable protocol of Clf and the systems)."""
    values = np.asarray(values, dtype=float)
    want = np.shape(x)[:-1] + tuple(tail)
    if values.shape != want:
        raise ValueError(f"expected shape {want} from a row-wise callable on states "
                         f"of shape {np.shape(x)}, got {values.shape}")
    return values


def rowdot(a, b) -> np.ndarray:
    """Dot products over the last axis, broadcasting the leading axes.

    Each entry is bit-identical to the 1-D product of its two rows (both run
    the same dot kernel), so a batched caller agrees with a per-point one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def bisect(ok, lo: float, hi: float, iters: int) -> tuple:
    """(lo, hi) after iters halvings of [lo, hi]: the midpoint becomes lo
    where ok(midpoint) holds, else hi."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def unit_rows(rng, count: int, dim: int) -> np.ndarray:
    """count random unit vectors of R^dim, one per row (normalised normal draws)."""
    d = rng.normal(size=(count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def direction_set(rng, count: int, dim: int) -> np.ndarray:
    """Probe directions for sampled extrema: the two signs on the line, which
    draw nothing, else count random unit rows followed by the +-axes."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    return np.vstack([unit_rows(rng, count, dim), np.eye(dim), -np.eye(dim)])


@dataclass(frozen=True, eq=False)
class ControlAffineSystem:
    """Input-affine dynamics dx/dt = f(x) + G(x) u with an equilibrium at 0.

    f maps R^n to R^n, G maps R^n to an n-by-m matrix whose columns are the
    input vector fields. Both are row-wise: states of shape (..., n) map to
    (..., n) and (..., n, m), each row as it would map alone, and a single
    state of shape (n,) is a batch with no leading axes.
    """

    n: int
    m: int
    f: Callable[[Vector], Vector]
    G: Callable[[Vector], np.ndarray]

    def __post_init__(self):
        origin = np.zeros(self.n)
        f0 = as_vector(self.f(origin), self.n)
        if np.any(f0 != 0.0):
            raise ValueError("drift must vanish exactly at the origin")
        G0 = np.asarray(self.G(origin), dtype=float)
        if G0.shape != (self.n, self.m):
            raise ValueError(f"G(0) must have shape ({self.n}, {self.m}), got {G0.shape}")


@dataclass(frozen=True, eq=False)
class FullyNonlinearSystem:
    """General dynamics dx/dt = f(x, u) with f(0, 0) = 0.

    f is row-wise: states of shape (..., n) and inputs of shape (..., m) with
    the same leading axes map to (..., n), each row as it would map alone.
    """

    n: int
    m: int
    f: Callable[[Vector, Vector], Vector]

    def __post_init__(self):
        f0 = as_vector(self.f(np.zeros(self.n), np.zeros(self.m)), self.n)
        if np.any(f0 != 0.0):
            raise ValueError("f(0, 0) must be exactly zero")


@dataclass(frozen=True, eq=False)
class Partition:
    """Finite sampling schedule t_0 = 0 < t_1 < ... < t_K over [0, horizon]."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a partition needs at least two sample times")
        if t[0] != 0.0:
            raise ValueError("partition must start at t = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("partition times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def intervals(self) -> int:
        return self.times.size - 1


def upper_diameter(p: Partition) -> float:
    """Largest gap between consecutive sample times."""
    return float(np.max(np.diff(p.times)))


def lower_diameter(p: Partition) -> float:
    """Smallest gap between consecutive sample times."""
    return float(np.min(np.diff(p.times)))


def make_partition(kind: str, horizon: float, step: float,
                   jitter_fraction: float = 0.0, seed: int = 0) -> Partition:
    """Build a sampling schedule whose last time reaches or passes the horizon.

    kind "uniform": equal gaps of size step.
    kind "jitter": gaps drawn uniformly from
        [step (1 - jitter_fraction), step (1 + jitter_fraction)],
    deterministic for a fixed seed.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not 0.0 <= jitter_fraction < 1.0:
        raise ValueError("jitter_fraction must lie in [0, 1)")
    if horizon < step:
        raise ValueError("horizon must be at least one step")
    if kind == "uniform":
        count = int(np.ceil(horizon / step - 1e-12))
        times = step * np.arange(count + 1, dtype=float)
    elif kind == "jitter":
        rng = np.random.default_rng(seed)
        times = [0.0]
        while times[-1] < horizon:
            gap = step * (1.0 + jitter_fraction * rng.uniform(-1.0, 1.0))
            times.append(times[-1] + gap)
        times = np.asarray(times)
    else:
        raise ValueError(f"unknown partition kind {kind!r}")
    return Partition(times)


@dataclass(frozen=True, eq=False)
class Signal:
    """Bounded time signal: a callable t -> R^dim with a declared sup-norm bound.

    Measurability is replaced by evaluability at any t; the declared bound is
    what admissibility guards and envelope checks consume. eval is row-wise:
    times of shape (...) map to values of shape (..., dim), each time as it
    would map alone, and a single time is a batch with no axes.
    """

    dim: int
    bound: float
    eval: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.bound < 0.0:
            raise ValueError("signal bound must be nonnegative")


def signal_at(sig: Signal, t) -> np.ndarray:
    """sig.eval(t) as a float array, checked to hold one value of R^dim per
    entry of the times t (the row-wise protocol of Signal)."""
    t = np.asarray(t, dtype=float)
    return rowwise(sig.eval(t), t[..., None], (sig.dim,))


def zero_signal(dim: int) -> Signal:
    return Signal(dim, 0.0, lambda t: np.zeros(np.shape(t) + (dim,)))


def constant_signal(value) -> Signal:
    v = as_vector(value)
    return Signal(v.size, float(np.linalg.norm(v)),
                  lambda t: np.broadcast_to(v, np.shape(t) + v.shape))


def sine_signal(direction, amplitude: float, frequency: float,
                phase: float = 0.0) -> Signal:
    """Sinusoid along a fixed direction: amplitude * sin(2 pi f t + phase) * unit(dir)."""
    d = as_vector(direction)
    nd = np.linalg.norm(d)
    if nd == 0.0:
        raise ValueError("direction must be nonzero")
    unit = d / nd
    w = 2.0 * np.pi * frequency

    def f(t):
        s = amplitude * np.sin(w * np.asarray(t, dtype=float) + phase)
        return s[..., None] * unit

    return Signal(d.size, abs(amplitude), f)


def piecewise_constant_signal(times, values, bound: float | None = None) -> Signal:
    """Hold values[k] on [times[k], times[k+1]); the last value extends beyond.

    times must be increasing with len(values) == len(times); bound defaults to
    the largest row norm and is validated against every row.
    """
    t = np.asarray(times, dtype=float)
    v = np.atleast_2d(np.asarray(values, dtype=float))
    if v.shape[0] != t.size:
        raise ValueError("need one value row per time")
    norms = np.linalg.norm(v, axis=1)
    top = float(np.max(norms)) if norms.size else 0.0
    if bound is None:
        bound = top
    elif top > bound * (1.0 + 1e-12):
        raise ValueError(f"piecewise value norm {top:g} exceeds declared bound {bound:g}")

    def f(s):
        k = np.searchsorted(t, s, side="right") - 1
        return v[np.clip(k, 0, v.shape[0] - 1)]

    return Signal(v.shape[1], float(bound), f)


@dataclass(frozen=True)
class Status:
    """Terminal disposition of a run.

    kind is one of COMPLETED, BLOWUP, LEFT_DOMAIN, NUMERICAL_FAILURE; time
    carries the escape/exit instant when applicable.
    """

    kind: str
    time: float | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == COMPLETED

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop run: per-interval held controls plus the dense integration path.

    sample_states[i] is the state at sample_times[i] and is bit-identical to the
    matching dense row. interval_index labels each dense row with the interval
    whose dynamics produced it.
    """

    partition: Partition
    sample_times: np.ndarray
    sample_states: np.ndarray
    dense_times: np.ndarray
    dense_states: np.ndarray
    held_controls: np.ndarray
    interval_index: np.ndarray
    status: Status

    @property
    def n(self) -> int:
        return self.dense_states.shape[1]

    @property
    def final_time(self) -> float:
        return float(self.dense_times[-1])

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.dense_states, axis=1)

    def state_at(self, t) -> np.ndarray:
        """Linear interpolation of the dense path (per coordinate)."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (self.n,))
        for j in range(self.n):
            out[..., j] = np.interp(t, self.dense_times, self.dense_states[:, j])
        return out


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV dump: t,x1..xn,k1..km,interval_index with 17 significant digits."""
    n = traj.dense_states.shape[1]
    m = traj.held_controls.shape[1]
    # a run stopped before its first interval held no control: nan cells
    held = traj.held_controls if traj.held_controls.size else np.full((1, m), np.nan)
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"k{j + 1}" for j in range(m)] + ["interval_index"])
    idx = traj.interval_index
    cells = np.column_stack([traj.dense_times, traj.dense_states,
                             held[np.minimum(idx, len(held) - 1)], idx])
    # the lines csv.writer writes for these cells, which need no quoting,
    # from Python floats 256 rows at a time, so that few exist at once
    line = ",".join(["%.17g"] * (1 + n + m) + ["%d"]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(0, len(cells), 256):
            fh.writelines(line % tuple(row) for row in cells[k:k + 256].tolist())
