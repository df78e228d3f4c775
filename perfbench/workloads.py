"""The benchmark's workloads: CLI configs derived from a seed.

Each workload is a set-up invocation (the same workload with no sampled runs,
so it measures time to certificate) and a full round of CLI invocations (time
to verdict). The benchmark seed picks what the runs start from and what
disturbs them; the CLI's own `--seed`, which seeds the level-set tables, the
rate-guard probes and the adversarial draws, stays at BASE_SEED. That keeps
the guard's delta, and with it the number of intervals per run, the same for
every benchmark seed, so run-to-run spread measures the program and not the
draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_SEED = 0

# Loop specs as the CLI takes them.
INTEGRATOR_LOOP = {"system": "integrator", "clf": "integrator_max",
                   "feedback": "explicit", "substeps": 1,
                   "monitor_domain": True}
SCALAR_LOOP = {"system": "scalar", "clf": "scalar_abs",
               "feedback": "combined", "substeps": 4}

INTEGRATOR_CASES = 4
SCALAR_CASES = 10
SCALAR_ADVERSARIAL = 5
EULER_LEVELS = 8
WEAKISS_X0 = 2


@dataclass
class Invocation:
    """One `clfiss` CLI call and the operations it attempts.

    An operation is one certificate build or one sampled closed-loop run.
    """

    name: str
    command: str
    config: dict
    ops: int

    def argv(self, config_path: Path, out_dir: Path) -> list:
        return [self.command, "--config", str(config_path), "--out",
                str(out_dir), "--seed", str(BASE_SEED)]


@dataclass
class Workload:
    name: str
    setup: Invocation
    full: list

    def write_configs(self, root: Path) -> None:
        """Write every config as JSON under root/configs (the CLI reads files)."""
        cfg_dir = root / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for inv in [self.setup, *self.full]:
            path = cfg_dir / f"{inv.name}.json"
            path.write_text(json.dumps(inv.config, indent=1))


def _unit(rng, dim: int) -> list:
    d = rng.normal(size=dim)
    return (d / np.linalg.norm(d)).tolist()


def integrator_campaign(seed: int) -> Workload:
    """Acceptance criterion 4's shape: explicit feedback, one substep, cone
    monitoring, guard delta about 4e-5 and one shared uniform partition, plus
    one undisturbed simulate run that writes trajectory.csv."""
    rng = np.random.default_rng([seed, 1])
    campaign = {
        "schema": 1, "loop": INTEGRATOR_LOOP, "M": 2.0, "N": 0.1,
        "epsilon": 0.1, "horizon": 0.1,
        "tables": {"radius_max": 20.0, "grid_size": 257, "directions": 256,
                   "radii": 512},
        "guard": {"points": 2048, "pairs": 4000, "inflation": 1.25},
        "cases": {"count": INTEGRATOR_CASES,
                  "seed": int(rng.integers(1, 2**31))},
    }
    setup = dict(campaign, cases={"count": 0})
    radius = float(rng.uniform(0.5, 2.0))
    simulate = {
        "schema": 1, "loop": INTEGRATOR_LOOP,
        "partition": {"kind": "uniform", "step": 1e-3}, "horizon": 2.0,
        "x0": [radius * c for c in _unit(rng, 3)],
        "disturbance": {"kind": "zero"}, "noise": {"kind": "zero"},
    }
    return Workload("integrator_campaign",
                    Invocation("setup", "campaign", setup, 1),
                    [Invocation("campaign", "campaign", campaign,
                                1 + INTEGRATOR_CASES),
                     Invocation("simulate", "simulate", simulate, 1)])


def scalar_synthesized(seed: int) -> Workload:
    """The shipped campaign_scalar setup (synthesised feedback from V = |x|,
    four substeps, one inadmissible case, adversarial search), scaled to a
    shorter horizon, plus an Euler refinement study of the same loop."""
    rng = np.random.default_rng([seed, 2])
    campaign = {
        "schema": 1, "loop": SCALAR_LOOP, "M": 1.0,
        # N > 0 so the piecewise, constant and sine families are not all the
        # zero signal (the shipped config has N = 0).
        "N": 0.1, "epsilon": 0.1, "horizon": 0.125,
        "tables": {"radius_max": 10.0, "radii": 4001, "grid_size": 64},
        "guard": {"points": 1024, "pairs": 2000},
        "cases": {"count": SCALAR_CASES, "seed": int(rng.integers(1, 2**31)),
                  "include_inadmissible": True},
        "adversarial_budget": SCALAR_ADVERSARIAL,
    }
    setup = {k: v for k, v in campaign.items() if k != "adversarial_budget"}
    setup["cases"] = {"count": 0}
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    euler = {
        "schema": 1, "loop": SCALAR_LOOP,
        "x0": [sign * float(rng.uniform(0.5, 1.0))],
        "base_step": 0.1, "levels": EULER_LEVELS, "horizon": 1.0,
        "error_exponent": 2.0,
    }
    return Workload("scalar_synthesized",
                    Invocation("setup", "campaign", setup, 1),
                    [Invocation("campaign", "campaign", campaign,
                                1 + SCALAR_CASES + 1 + SCALAR_ADVERSARIAL),
                     Invocation("euler", "euler", euler, EULER_LEVELS)])


def weakiss_certificate(seed: int) -> Workload:
    """The shipped weakiss_counterexample setup (16 substeps, step 0.01) with
    i_max 2 instead of 8, two seed-drawn initial states and a shorter
    horizon, so that a run has many rounds."""
    rng = np.random.default_rng([seed, 3])
    full = {
        "schema": 1, "i_max": 2, "safety": 0.9, "M": 4.0, "N": 1.0,
        "epsilon": 0.1,
        "x0_values": rng.uniform(-4.0, 4.0, size=WEAKISS_X0).tolist(),
        "horizon": 1.25, "step": 0.01, "substeps": 16,
    }
    setup = dict(full, x0_values=[])
    return Workload("weakiss_certificate",
                    Invocation("setup", "weakiss", setup, 1),
                    [Invocation("weakiss", "weakiss", full, 1 + 2 * WEAKISS_X0)])


WORKLOADS = {
    "integrator_campaign": integrator_campaign,
    "scalar_synthesized": scalar_synthesized,
    "weakiss_certificate": weakiss_certificate,
}
