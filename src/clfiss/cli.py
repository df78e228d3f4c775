"""Command-line entry point.

Subcommands: simulate | envelope | campaign | euler | weakiss. Each takes a
strict JSON config (versioned schema, unknown fields rejected) and writes
plot-ready CSV/JSON artifacts into the output directory.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 numerical
failure (blow-up or nonfinite state).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import systems
from .clf import (AlphaTables, build_envelope, estimate_alpha_tables)
from .core import (BLOWUP, DEFAULT_ESCAPE_RADIUS, NUMERICAL_FAILURE,
                   ControlAffineSystem, Signal, as_vector, constant_signal,
                   make_partition, sine_signal, write_trajectory_csv,
                   zero_signal)
from .euler import check_iss_euler, euler_study, geometric_schedule
from .feedback import Feedback, combined_feedback, damping_feedback, zero_feedback
# the benchmark's tracer (perfbench/tracer.py) patches sample_solve here and
# in verify and euler
from .sampler import (ClosedLoop, ProbeConfig, affine_loop, decrease_check,
                      estimate_rate_guard, nonlinear_loop, sample_solve,
                      sample_solve_batch)
from .verify import (ADVERSARIAL_STEP_FRACTIONS, Campaign, CampaignCase,
                     make_cases, random_disturbance, run_campaign)
# not called here (run_campaign runs the trials); the benchmark's tracer
# (perfbench/tracer.py) patches it
from .verify import adversarial_search  # noqa: F401

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema must be {SCHEMA_VERSION}")
    return cfg


def _check_fields(cfg: dict, allowed: set, required: set, where: str) -> None:
    for k in cfg:
        if k not in allowed:
            raise ConfigError(f"{where}: unknown field {k!r}")
    for k in required:
        if k not in cfg:
            raise ConfigError(f"{where}: missing required field {k!r}")


CLFS = {
    "integrator_max": systems.integrator_max_clf,
    "integrator_squared": systems.integrator_squared_clf,
    "scalar_abs": systems.scalar_abs_clf,
    "scalar_square": systems.scalar_square_clf,
}


SYSTEMS = {
    "integrator": systems.integrator_system,
    "scalar": systems.scalar_integrator_system,
    "counterexample": systems.counterexample_system,
}


def _build(registry: dict, kind: str, name: str):
    if name not in registry:
        raise ConfigError(f"unknown {kind} {name!r} (choose from {sorted(registry)})")
    return registry[name]()


def _checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError reported as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _real(where: str, value, inf_ok: bool = False, least: float = -math.inf):
    """value, which must be a real number (not a bool) of at least least,
    finite unless inf_ok."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or math.isnan(value) or (math.isinf(value) and not inf_ok)):
        kind = "a real number" if inf_ok else "a finite real number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    if value < least:
        raise ConfigError(f"{where} must be at least {least:g}, got {value!r}")
    return value


def _integer(where: str, value, least: int = 0):
    """value, which must be an integer (not a bool) of at least least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{where} must be an integer of at least {least}, "
                          f"got {value!r}")
    return value


def _vector(where: str, value, n: int) -> np.ndarray:
    """value, a list of n finite real numbers (or one, when n is 1), as a
    vector."""
    for entry in value if isinstance(value, list) else [value]:
        _real(f"{where} entry", entry)
    return _checked(where, as_vector, value, n)


def _build_partition(cfg, horizon: float):
    _check_fields(cfg, {"kind", "step", "fraction", "seed"}, {"kind", "step"},
                  "partition")
    return _checked("partition", make_partition, cfg["kind"], horizon,
                    _real("partition: step", cfg["step"]),
                    _real("partition: fraction", cfg.get("fraction", 0.0)),
                    _integer("partition: seed", cfg.get("seed", 0)))


def _build_signal(cfg, dim: int, partition, seed: int, where: str) -> Signal:
    if cfg is None:
        return zero_signal(dim)
    _check_fields(cfg, {"kind", "value", "amplitude", "frequency", "phase",
                        "bound", "seed"}, {"kind"}, where)
    kind = cfg["kind"]
    if kind == "zero":
        return zero_signal(dim)
    if kind == "constant":
        return constant_signal(_vector(f"{where}: value",
                                       cfg.get("value", [0.0] * dim), dim))
    if kind not in ("sine", "piecewise"):
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    rng = np.random.default_rng(_integer(f"{where}: seed", cfg.get("seed", seed)))
    if kind == "sine":
        return sine_signal(
            rng.normal(size=dim), _real(f"{where}: amplitude", cfg.get("amplitude", 0.0)),
            _real(f"{where}: frequency", cfg.get("frequency", 1.0)),
            _real(f"{where}: phase", cfg.get("phase", 0.0)))
    return _checked(where, random_disturbance, "piecewise", dim,
                    _real(f"{where}: bound", cfg.get("bound", 0.0)), partition, rng)


def _build_loop(cfg, where: str) -> tuple:
    """Returns (loop, system, clf or None) from a loop spec block."""
    _check_fields(cfg, {"system", "clf", "feedback", "substeps", "escape_radius",
                        "monitor_domain"}, {"system", "feedback"}, where)
    sys_name = cfg["system"]
    system = _build(SYSTEMS, "system", sys_name)
    clf = _build(CLFS, "clf", cfg["clf"]) if "clf" in cfg and cfg["clf"] else None
    if clf is not None and clf.dim != system.n:
        raise ConfigError(f"{where}: clf {cfg['clf']!r} has dimension {clf.dim} "
                          f"but system {sys_name!r} has {system.n} states")
    fb_name = cfg["feedback"]
    substeps = _integer(f"{where}: substeps", cfg.get("substeps", 16))
    escape = _real(f"{where}: escape_radius",
                   cfg.get("escape_radius", DEFAULT_ESCAPE_RADIUS), inf_ok=True)
    if sys_name == "counterexample":
        if fb_name != "zero":
            raise ConfigError(f"{where}: the counterexample loop supports only feedback 'zero'")
        loop = _checked(where, nonlinear_loop, system, zero_feedback(1, 1),
                        substeps, escape)
        return loop, system, clf
    if fb_name == "zero":
        fb = zero_feedback(system.n, system.m)
    elif fb_name == "explicit":
        if sys_name != "integrator":
            raise ConfigError(f"{where}: explicit feedback exists only for the integrator")
        fb = systems.integrator_feedback()
    elif fb_name == "combined":
        if clf is None:
            raise ConfigError(f"{where}: combined feedback needs a clf")
        fb = combined_feedback(system, clf)
    elif fb_name == "damping":
        if clf is None:
            raise ConfigError(f"{where}: damping feedback needs a clf")
        fb = damping_feedback(system, clf)
    else:
        raise ConfigError(f"{where}: unknown feedback {fb_name!r}")
    margin = None
    if cfg.get("monitor_domain") and sys_name == "integrator":
        margin = systems.cone_margin
    loop = _checked(where, affine_loop, system, fb, substeps, escape, margin)
    return loop, system, clf


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def parse_partition_flag(text: str) -> dict:
    """uniform:STEP or jitter:STEP:FRAC:SEED into a partition config block."""
    parts = text.split(":")
    try:
        if parts[0] == "uniform" and len(parts) == 2:
            return {"kind": "uniform", "step": float(parts[1])}
        if parts[0] == "jitter" and len(parts) == 4:
            return {"kind": "jitter", "step": float(parts[1]),
                    "fraction": float(parts[2]), "seed": int(parts[3])}
    except ValueError:
        pass
    raise ConfigError(f"--partition: cannot parse {text!r}")


def cmd_simulate(cfg: dict, out_dir: str, seed: int, overrides=None) -> int:
    _check_fields(cfg, {"schema", "loop", "partition", "horizon", "x0",
                        "disturbance", "noise", "decrease"},
                  {"loop", "horizon", "x0"}, "simulate")
    overrides = overrides or {}
    if overrides.get("horizon") is not None:
        cfg["horizon"] = overrides["horizon"]
    if overrides.get("partition") is not None:
        cfg["partition"] = parse_partition_flag(overrides["partition"])
    if "partition" not in cfg:
        raise ConfigError("simulate: missing required field 'partition'")
    if overrides.get("substeps") is not None:
        cfg.setdefault("loop", {})["substeps"] = overrides["substeps"]
    if overrides.get("escape_radius") is not None:
        cfg.setdefault("loop", {})["escape_radius"] = overrides["escape_radius"]
    loop, system, clf = _build_loop(cfg["loop"], "loop")
    part = _build_partition(cfg["partition"],
                            _real("simulate: horizon", cfg["horizon"]))
    u = _build_signal(cfg.get("disturbance"), loop.m, part, seed, "disturbance")
    e = _build_signal(cfg.get("noise"), loop.n, part, seed + 1, "noise")
    x0 = _vector("x0", cfg["x0"], loop.n)
    dcfg = cfg.get("decrease", {})
    _check_fields(dcfg, {"s_level", "rel_tol", "abs_tol"}, set(), "decrease")
    s_level = _real("decrease: s_level", dcfg.get("s_level", 0.0))
    rel_tol = _real("decrease: rel_tol", dcfg.get("rel_tol", 1e-4), least=0.0)
    abs_tol = _real("decrease: abs_tol", dcfg.get("abs_tol", 0.0), least=0.0)
    traj = sample_solve(loop, part, x0, u, e)
    csv_path = _out_path(out_dir, "trajectory.csv")
    write_trajectory_csv(traj, csv_path)
    run = {
        "status": traj.status.to_dict(),
        "final_time": traj.final_time,
        "samples": int(traj.sample_times.size),
        "dense_points": int(traj.dense_times.size),
        "config": cfg,
    }
    if clf is not None:
        rep = decrease_check(traj, clf, None, s_level, rel_tol, abs_tol)
        run["decrease"] = rep.to_dict()
    with open(_out_path(out_dir, "run.json"), "w") as fh:
        json.dump(run, fh, indent=2)
    print(f"simulate: status={traj.status.kind} t_final={traj.final_time:g} -> {csv_path}")
    if traj.status.kind in (BLOWUP, NUMERICAL_FAILURE):
        return 3
    return 0


def cmd_envelope(cfg: dict, out_dir: str, seed: int) -> int:
    _check_fields(cfg, {"schema", "clf", "radius_max", "grid_size", "directions",
                        "radii", "overflow", "query"},
                  {"clf", "radius_max"}, "envelope")
    clf = _build(CLFS, "clf", cfg["clf"])
    if "query" in cfg:
        q = cfg["query"]
        _check_fields(q, {"M", "N", "t"}, {"M", "N"}, "envelope.query")
        M = _real("envelope.query: M", q["M"], least=0.0)
        N = _real("envelope.query: N", q["N"], least=0.0)
        t = _real("envelope.query: t", q.get("t", 0.0), least=0.0)
    tables = _checked("envelope", estimate_alpha_tables, clf,
                      _real("envelope: radius_max", cfg["radius_max"]),
                      _integer("envelope: grid_size", cfg.get("grid_size", 257)),
                      _integer("envelope: directions", cfg.get("directions", 64)),
                      _integer("envelope: radii", cfg.get("radii", 512), 2), seed=seed)
    env = _checked("envelope", build_envelope, tables,
                   _real("envelope: overflow", cfg.get("overflow", 0.1)))
    tables.to_csv(_out_path(out_dir, "alpha_tables.csv"))
    report = env.describe()
    if "query" in cfg:
        flags = env.saturation_flags(M, N)
        report["query"] = {
            "bound": float(env.bound(M, N, t)),
            "saturated": not (flags["M_in_range"] and flags["N_in_range"]),
            **flags,
        }
    with open(_out_path(out_dir, "envelope.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"envelope: levels={tables.levels.size} grid_tol={tables.grid_tol:g}")
    return 0


def cmd_campaign(cfg: dict, out_dir: str, seed: int) -> int:
    _check_fields(cfg, {"schema", "loop", "M", "N", "epsilon", "horizon",
                        "cases", "guard", "adversarial_budget", "tables"},
                  {"loop", "M", "N", "epsilon", "horizon", "cases"}, "campaign")
    loop, system, clf = _build_loop(cfg["loop"], "loop")
    if clf is None:
        raise ConfigError("campaign: loop.clf is required")
    if not isinstance(system, ControlAffineSystem):
        raise ConfigError(f"campaign: system {cfg['loop']['system']!r} is not "
                          "control-affine; the rate guard needs its f and G")
    M, N = _real("campaign: M", cfg["M"]), _real("campaign: N", cfg["N"])
    if M <= 0 or N < 0:
        raise ConfigError(f"campaign: need M > 0 and N >= 0, got M {M!r} and N {N!r}")
    epsilon = _real("campaign: epsilon", cfg["epsilon"])
    horizon = _real("campaign: horizon", cfg["horizon"])
    ccfg = cfg["cases"]
    _check_fields(ccfg, {"count", "seed", "step_fraction", "include_inadmissible"},
                  {"count"}, "cases")
    count = _integer("cases: count", ccfg["count"])
    step_fraction = _real("cases: step_fraction", ccfg.get("step_fraction", 0.9))
    if not 0.0 < step_fraction < 1.0:
        # a case's step is this fraction of the guard's delta, which an
        # admissible partition must stay below
        raise ConfigError(f"cases: step_fraction must lie in (0, 1), got {step_fraction!r}")
    budget = _integer("campaign: adversarial_budget",
                      cfg.get("adversarial_budget", 0))
    tcfg = cfg.get("tables", {})
    _check_fields(tcfg, {"radius_max", "grid_size", "directions", "radii"},
                  set(), "tables")
    tables = _checked("tables", estimate_alpha_tables, clf,
                      _real("tables: radius_max", tcfg.get("radius_max", 20.0)),
                      _integer("tables: grid_size", tcfg.get("grid_size", 257)),
                      _integer("tables: directions", tcfg.get("directions", 256)),
                      _integer("tables: radii", tcfg.get("radii", 512), 2), seed=seed)
    env = _checked("campaign", build_envelope, tables, epsilon)
    gcfg = cfg.get("guard", {})
    _check_fields(gcfg, {"points", "pairs", "inflation", "seed"}, set(), "guard")
    probe = ProbeConfig(_integer("guard: points", gcfg.get("points", 2048)),
                        _integer("guard: pairs", gcfg.get("pairs", 4000), 1),
                        _real("guard: inflation", gcfg.get("inflation", 1.25)),
                        _integer("guard: seed", gcfg.get("seed", seed)))
    guard = _checked("guard", estimate_rate_guard, loop, clf, tables,
                     epsilon, M, N, system, probe)
    # each case and each adversarial trial must fit one whole step
    fractions = [step_fraction] if count > 0 else []
    if budget:
        fractions.append(ADVERSARIAL_STEP_FRACTIONS[1])
    if fractions and horizon < max(fractions) * guard.delta:
        raise ConfigError(
            f"campaign: horizon {horizon:g} is shorter than the largest "
            f"case step, {max(fractions):g} * delta with delta {guard.delta:g}")
    cases = make_cases(loop, guard, M, N, count, horizon,
                       _integer("cases: seed", ccfg.get("seed", seed)), step_fraction)
    if ccfg.get("include_inadmissible"):
        part = _checked("campaign", make_partition, "uniform", horizon,
                        2.0 * guard.delta)
        vec = np.zeros(loop.n)
        vec[0] = 10.0 * guard.kappa * guard.delta
        cases.append(CampaignCase(np.zeros(loop.n), zero_signal(loop.m),
                                  constant_signal(vec), part,
                                  "inadmissible-by-design", False))
    campaign = Campaign(loop, env, guard, cases, M, N, clf)
    report = run_campaign(campaign, budget, seed, horizon)
    doc = report.to_json()
    doc["guard"] = guard.to_dict()
    if budget:
        doc["adversarial"] = report.adversarial
    with open(_out_path(out_dir, "campaign.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    ok = report.all_passed
    print(f"campaign: {report.summary['asserted']} asserted, "
          f"{report.summary['failed']} failed")
    return 0 if ok else 1


def cmd_euler(cfg: dict, out_dir: str, seed: int) -> int:
    _check_fields(cfg, {"schema", "loop", "linear_test", "x0", "base_step",
                        "levels", "horizon", "error_exponent", "disturbance",
                        "envelope"},
                  {"x0", "base_step", "levels", "horizon"}, "euler")
    if cfg.get("linear_test"):
        fb = Feedback(1, 1, lambda x: -np.asarray(x, dtype=float))
        loop = ClosedLoop(1, 1, lambda x, p, u: p, fb)
    else:
        if "loop" not in cfg:
            raise ConfigError("euler: need loop or linear_test")
        loop, _, _ = _build_loop(cfg["loop"], "loop")
    base_step = _real("euler: base_step", cfg["base_step"])
    horizon = _real("euler: horizon", cfg["horizon"])
    levels = _integer("euler: levels", cfg["levels"], 1)
    # null asks for noise-free levels
    exponent = cfg.get("error_exponent", 2.0)
    if exponent is not None:
        _real("euler: error_exponent", exponent)
    part0 = _checked("euler", make_partition, "uniform", horizon, base_step)
    u = _build_signal(cfg.get("disturbance"), loop.m, part0, seed, "disturbance")
    sched = _checked("euler", geometric_schedule, base_step, levels, horizon,
                     u, loop.n, exponent, seed=seed)
    x0 = _vector("x0", cfg["x0"], loop.n)
    env = None
    if "envelope" in cfg:
        ecfg = cfg["envelope"]
        _check_fields(ecfg, {"epsilon", "u_bound", "top"}, {"epsilon"},
                      "euler.envelope")
        top = _real("euler.envelope: top",
                    ecfg.get("top", 10.0 * max(1.0, float(np.linalg.norm(x0)))))
        u_bound = _real("euler.envelope: u_bound", ecfg.get("u_bound", u.bound),
                        least=0.0)
        env = _checked("euler.envelope", build_envelope,
                       _checked("euler.envelope", AlphaTables.identity, top),
                       _real("euler.envelope: epsilon", ecfg["epsilon"]))
    study = euler_study(loop, sched, x0)
    worst_env_margin = None
    if env is not None and study.limit is not None:
        worst_env_margin = check_iss_euler(study.limit, env, x0, u_bound).worst_margin
    with open(_out_path(out_dir, "euler.json"), "w") as fh:
        json.dump(study.to_dict(worst_env_margin), fh, indent=2)
    print(f"euler: levels={len(study.levels)} verdict={study.verdict} "
          f"divergent={study.divergent_level}")
    return 0


def cmd_weakiss(cfg: dict, out_dir: str, seed: int) -> int:
    _check_fields(cfg, {"schema", "i_max", "safety", "M", "N", "epsilon",
                        "x0_values", "horizon", "step", "substeps"},
                  {"M", "N", "epsilon", "x0_values", "horizon"}, "weakiss")
    i_max = _integer("weakiss: i_max", cfg.get("i_max", 8), 1)
    safety = _real("weakiss: safety", cfg.get("safety", 0.9))
    if not 0.0 < safety <= 1.0:
        raise ConfigError(f"weakiss: safety must lie in (0, 1], got {safety!r}")
    M = _real("weakiss: M", cfg["M"])
    N = _real("weakiss: N", cfg["N"])
    if N < 0:
        raise ConfigError(f"weakiss: N must be at least 0, got {N!r}")
    if not isinstance(cfg["x0_values"], list):
        raise ConfigError("weakiss: x0_values must be a list of real numbers")
    x0_values = [_real("weakiss: x0_values entry", v) for v in cfg["x0_values"]]
    epsilon = _real("weakiss: epsilon", cfg["epsilon"])
    horizon = _real("weakiss: horizon", cfg["horizon"])
    step = _real("weakiss: step", cfg.get("step", 0.01))
    substeps = _integer("weakiss: substeps", cfg.get("substeps", 16))
    system = systems.counterexample_system()
    clf = systems.scalar_abs_clf()
    k1 = zero_feedback(1, 1)
    cert = systems.build_weak_iss_certificate(system, clf, k1, i_max, safety,
                                              seed=seed)
    loop = _checked("weakiss", systems.weak_iss_loop, system, k1, cert, substeps)
    tables = AlphaTables.identity(max(M, cert.alpha4(N)) * 4.0 + 8.0)
    env = _checked("weakiss", build_envelope, tables, epsilon, cert.alpha4)
    part = _checked("weakiss", make_partition, "uniform", horizon, step)
    cert.to_json(_out_path(out_dir, "certificate.json"))
    runs = [([float(x0)], sign * N) for x0 in x0_values for sign in (1.0, -1.0)]
    trajs = sample_solve_batch(loop, [part] * len(runs), [x0 for x0, _ in runs],
                               [constant_signal([u]) for _, u in runs])
    rows = []
    failed = 0
    for (x0, u), traj in zip(runs, trajs):
        chk = check_iss_euler(traj, env, x0, N)
        ok = traj.status.ok and chk.ok
        failed += 0 if ok else 1
        rows.append({"x0": x0[0], "u": u, "status": traj.status.kind,
                     "pass": bool(ok), **chk.to_dict()})
    doc = {"cases": rows, "failed": failed, "alpha4_at_N": cert.alpha4(N)}
    with open(_out_path(out_dir, "weakiss.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"weakiss: {len(rows)} runs, {failed} failed, "
          f"alpha4({N:g})={cert.alpha4(N):g}")
    return 0 if failed == 0 else 1


COMMANDS = {
    "simulate": cmd_simulate,
    "envelope": cmd_envelope,
    "campaign": cmd_campaign,
    "euler": cmd_euler,
    "weakiss": cmd_weakiss,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="clfiss",
        description="CLF feedback synthesis and sampled-data ISS verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        if name == "simulate":
            p.add_argument("--partition", default=None,
                           help="uniform:STEP | jitter:STEP:FRAC:SEED")
            p.add_argument("--horizon", type=float, default=None)
            p.add_argument("--substeps", type=int, default=None)
            p.add_argument("--escape-radius", type=float, default=None,
                           dest="escape_radius")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "simulate":
            overrides = {"partition": args.partition, "horizon": args.horizon,
                         "substeps": args.substeps,
                         "escape_radius": args.escape_radius}
            return cmd_simulate(cfg, args.out, args.seed, overrides)
        return COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
