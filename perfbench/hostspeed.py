"""The host's speed, read from a fixed computation timed beside each invocation.

The shared host this benchmark was written on runs the same code up to 2.1x
slower in phases that last from seconds to minutes, and the process's CPU
time slows with it, so the cause is contention for the core, not scheduling.
A phase can cover a whole run, so no statistic over one run's rounds removes
it. Most of the slowdown is shared by all pure-Python-and-small-numpy code:
over a 10-minute trace, a `simulate` invocation took 0.09 to 0.18 s, while
the ratio of its time to that of 300 of reference_work()'s RK4 steps run
beside it stayed between 26.7 and 29.3 (medians over 20-s stretches). So the
benchmark times reference_work() right before and right after every
invocation, and scales an invocation's total time over the run by
REFERENCE_S over the total of those reference times (the mean of the two
beside each call). That gives the invocation's mean time at the host's full
speed, with each call weighed by the host's speed while it ran.

Not all of the slowdown is shared: code with a larger working set than
reference_work() can slow while it does not, so scaled times still spread
somewhat from run to run. reference_work() lives here, not in the package,
so no change to the package can change it.
"""

import gc
import statistics
from time import perf_counter

import numpy as np

# reference_work() times PIECES runs of STEPS steps and takes their median,
# so that a hiccup shorter than one piece does not move it.
STEPS = 400
PIECES = 5
# reference_work()'s result at full speed, in seconds: the fastest of 1000
# calls on a 2-vCPU Linux VM with Python 3.11.7 and numpy 2.4.6. Only ratios
# of scaled times mean anything on another host.
REFERENCE_S = 0.0040


def _rhs(x, u):
    return np.array([u[0], u[1], x[0] * u[1] - x[1] * u[0]])


def _piece() -> float:
    start = perf_counter()
    x, h = np.array([1.0, 0.5, -0.3]), 1e-3
    for _ in range(STEPS):
        n = float(np.linalg.norm(x)) + 1.0
        u = (-x[0] / n, -x[1] / n)
        k1 = _rhs(x, u)
        k2 = _rhs(x + 0.5 * h * k1, u)
        k3 = _rhs(x + 0.5 * h * k2, u)
        k4 = _rhs(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return perf_counter() - start


def reference_work() -> float:
    """Seconds taken by STEPS RK4 steps of the nonholonomic integrator under
    a smooth feedback: the sampler's kind of work (Python floats, length-3
    numpy vectors) done by code outside the package. The garbage the last
    invocation left is collected first, so that its collection is not timed
    here."""
    gc.collect()
    return statistics.median(_piece() for _ in range(PIECES))


def full_speed(seconds: list, reference: list) -> float:
    """Mean of seconds, scaled to the host's full speed; reference[i] is the
    mean of the reference_work() results right before and after seconds[i]."""
    return REFERENCE_S * sum(seconds) / sum(reference)
