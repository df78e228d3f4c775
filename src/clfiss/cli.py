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
import os
import sys

import numpy as np

from . import systems
from .clf import (AlphaTables, build_envelope, estimate_alpha_tables)
from .core import (BLOWUP, NUMERICAL_FAILURE, ControlAffineSystem, Signal,
                   as_vector, constant_signal, make_partition, sine_signal,
                   write_trajectory_csv, zero_signal)
from .euler import check_iss_euler, euler_study, geometric_schedule
from .feedback import Feedback, combined_feedback, damping_feedback, zero_feedback
# the benchmark's tracer (perfbench/tracer.py) patches sample_solve here and
# in verify and euler
from .sampler import (ClosedLoop, ProbeConfig, affine_loop, decrease_check,
                      estimate_rate_guard, nonlinear_loop, sample_solve,
                      sample_solve_batch)
from .verify import (ADVERSARIAL_STEP_FRACTIONS, Campaign, CampaignCase,
                     adversarial_search, make_cases, random_disturbance,
                     run_campaign)

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


def _build_partition(cfg, horizon: float):
    _check_fields(cfg, {"kind", "step", "fraction", "seed"}, {"kind", "step"},
                  "partition")
    return _checked("partition", make_partition, cfg["kind"], horizon,
                    cfg["step"], cfg.get("fraction", 0.0), cfg.get("seed", 0))


def _build_signal(cfg, dim: int, partition, seed: int, where: str) -> Signal:
    if cfg is None:
        return zero_signal(dim)
    _check_fields(cfg, {"kind", "value", "amplitude", "frequency", "phase",
                        "bound", "seed"}, {"kind"}, where)
    kind = cfg["kind"]
    if kind == "zero":
        return zero_signal(dim)
    if kind == "constant":
        value = _checked(where, as_vector, cfg.get("value", [0.0] * dim), dim)
        return constant_signal(value)
    if kind == "sine":
        rng = np.random.default_rng(cfg.get("seed", seed))
        d = rng.normal(size=dim)
        return sine_signal(d, cfg.get("amplitude", 0.0),
                           cfg.get("frequency", 1.0), cfg.get("phase", 0.0))
    if kind == "piecewise":
        rng = np.random.default_rng(cfg.get("seed", seed))
        return _checked(where, random_disturbance, "piecewise", dim,
                        cfg.get("bound", 0.0), partition, rng)
    raise ConfigError(f"{where}: unknown kind {kind!r}")


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
    substeps = cfg.get("substeps", 16)
    escape = cfg.get("escape_radius", 1e9)
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
    part = _build_partition(cfg["partition"], cfg["horizon"])
    u = _build_signal(cfg.get("disturbance"), loop.m, part, seed, "disturbance")
    e = _build_signal(cfg.get("noise"), loop.n, part, seed + 1, "noise")
    x0 = _checked("x0", as_vector, cfg["x0"], loop.n)
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
        dcfg = cfg.get("decrease", {})
        _check_fields(dcfg, {"s_level", "rel_tol", "abs_tol"}, set(), "decrease")
        rep = decrease_check(traj, clf, None, dcfg.get("s_level", 0.0),
                             dcfg.get("rel_tol", 1e-4), dcfg.get("abs_tol", 0.0))
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
    tables = estimate_alpha_tables(
        clf, cfg["radius_max"], cfg.get("grid_size", 257),
        cfg.get("directions", 64), cfg.get("radii", 512), seed=seed)
    env = build_envelope(tables, cfg.get("overflow", 0.1))
    tables.to_csv(_out_path(out_dir, "alpha_tables.csv"))
    report = env.describe()
    if "query" in cfg:
        q = cfg["query"]
        _check_fields(q, {"M", "N", "t"}, {"M", "N"}, "envelope.query")
        flags = env.saturation_flags(q["M"], q["N"])
        report["query"] = {
            "bound": float(env.bound(q["M"], q["N"], q.get("t", 0.0))),
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
    ccfg = cfg["cases"]
    _check_fields(ccfg, {"count", "seed", "step_fraction", "include_inadmissible"},
                  {"count"}, "cases")
    step_fraction = ccfg.get("step_fraction", 0.9)
    if not 0.0 < step_fraction < 1.0:
        # a case's step is this fraction of the guard's delta, which an
        # admissible partition must stay below
        raise ConfigError(f"cases: step_fraction must lie in (0, 1), got {step_fraction!r}")
    budget = cfg.get("adversarial_budget", 0)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ConfigError("campaign: adversarial_budget must be a nonnegative "
                          f"integer, got {budget!r}")
    tcfg = cfg.get("tables", {})
    _check_fields(tcfg, {"radius_max", "grid_size", "directions", "radii"},
                  set(), "tables")
    tables = estimate_alpha_tables(
        clf, tcfg.get("radius_max", 20.0), tcfg.get("grid_size", 257),
        tcfg.get("directions", 256), tcfg.get("radii", 512), seed=seed)
    env = build_envelope(tables, cfg["epsilon"])
    gcfg = cfg.get("guard", {})
    _check_fields(gcfg, {"points", "pairs", "inflation", "seed"}, set(), "guard")
    probe = ProbeConfig(gcfg.get("points", 2048), gcfg.get("pairs", 4000),
                        gcfg.get("inflation", 1.25), gcfg.get("seed", seed))
    guard = estimate_rate_guard(loop, clf, tables, cfg["epsilon"], cfg["M"],
                                cfg["N"], system, probe)
    # each case and each adversarial trial must fit one whole step
    fractions = [step_fraction] if ccfg["count"] > 0 else []
    if budget:
        fractions.append(ADVERSARIAL_STEP_FRACTIONS[1])
    if fractions and cfg["horizon"] < max(fractions) * guard.delta:
        raise ConfigError(
            f"campaign: horizon {cfg['horizon']:g} is shorter than the largest "
            f"case step, {max(fractions):g} * delta with delta {guard.delta:g}")
    cases = make_cases(loop, guard, cfg["M"], cfg["N"], ccfg["count"],
                       cfg["horizon"], ccfg.get("seed", seed), step_fraction)
    if ccfg.get("include_inadmissible"):
        part = _checked("campaign", make_partition, "uniform", cfg["horizon"],
                        2.0 * guard.delta)
        vec = np.zeros(loop.n)
        vec[0] = 10.0 * guard.kappa * guard.delta
        cases.append(CampaignCase(np.zeros(loop.n), zero_signal(loop.m),
                                  constant_signal(vec), part,
                                  "inadmissible-by-design", False))
    campaign = Campaign(loop, env, guard, cases, cfg["M"], cfg["N"], clf)
    report = run_campaign(campaign)
    doc = report.to_json()
    doc["guard"] = guard.to_dict()
    if budget:
        doc["adversarial"] = adversarial_search(campaign, budget, seed, cfg["horizon"])
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
        fb = Feedback(1, 1, lambda x: -np.asarray(x, dtype=float), "synthesized",
                      "linear-test")
        loop = ClosedLoop(1, 1, lambda x, p, u: p, fb)
    else:
        if "loop" not in cfg:
            raise ConfigError("euler: need loop or linear_test")
        loop, _, _ = _build_loop(cfg["loop"], "loop")
    part0 = _checked("euler", make_partition, "uniform", cfg["horizon"],
                     cfg["base_step"])
    u = _build_signal(cfg.get("disturbance"), loop.m, part0, seed, "disturbance")
    sched = _checked("euler", geometric_schedule, cfg["base_step"],
                     cfg["levels"], cfg["horizon"], u, loop.n,
                     cfg.get("error_exponent", 2.0), seed=seed)
    x0 = _checked("x0", as_vector, cfg["x0"], loop.n)
    study = euler_study(loop, sched, x0)
    worst_env_margin = None
    if "envelope" in cfg and study.limit is not None:
        ecfg = cfg["envelope"]
        _check_fields(ecfg, {"epsilon", "u_bound", "top"}, {"epsilon"},
                      "euler.envelope")
        top = ecfg.get("top", 10.0 * max(1.0, float(np.linalg.norm(x0))))
        env = build_envelope(AlphaTables.identity(top), ecfg["epsilon"])
        chk = check_iss_euler(study.limit, env, x0, ecfg.get("u_bound", u.bound))
        worst_env_margin = chk.worst_margin
    with open(_out_path(out_dir, "euler.json"), "w") as fh:
        json.dump(study.to_dict(worst_env_margin), fh, indent=2)
    print(f"euler: levels={len(study.levels)} verdict={study.verdict} "
          f"divergent={study.divergent_level}")
    return 0


def cmd_weakiss(cfg: dict, out_dir: str, seed: int) -> int:
    _check_fields(cfg, {"schema", "i_max", "safety", "M", "N", "epsilon",
                        "x0_values", "horizon", "step", "substeps"},
                  {"M", "N", "epsilon", "x0_values", "horizon"}, "weakiss")
    system = systems.counterexample_system()
    clf = systems.scalar_abs_clf()
    k1 = zero_feedback(1, 1)
    cert = systems.build_weak_iss_certificate(
        system, clf, k1, cfg.get("i_max", 8), cfg.get("safety", 0.9), seed=seed)
    cert.to_json(_out_path(out_dir, "certificate.json"))
    loop = _checked("weakiss", systems.weak_iss_loop, system, k1, cert,
                    cfg.get("substeps", 16))
    tables = AlphaTables.identity(max(cfg["M"], cert.alpha4(cfg["N"])) * 4.0 + 8.0)
    env = build_envelope(tables, cfg["epsilon"], cert.alpha4)
    part = _checked("weakiss", make_partition, "uniform", cfg["horizon"],
                    cfg.get("step", 0.01))
    runs = [([float(x0)], sign * cfg["N"]) for x0 in cfg["x0_values"]
            for sign in (1.0, -1.0)]
    trajs = sample_solve_batch(loop, [part] * len(runs), [x0 for x0, _ in runs],
                               [constant_signal([u]) for _, u in runs])
    rows = []
    failed = 0
    for (x0, u), traj in zip(runs, trajs):
        chk = check_iss_euler(traj, env, x0, cfg["N"])
        ok = traj.status.ok and chk.ok
        failed += 0 if ok else 1
        rows.append({"x0": x0[0], "u": u, "status": traj.status.kind,
                     "pass": bool(ok), **chk.to_dict()})
    doc = {"cases": rows, "failed": failed,
           "alpha4_at_N": cert.alpha4(cfg["N"])}
    with open(_out_path(out_dir, "weakiss.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"weakiss: {len(rows)} runs, {failed} failed, "
          f"alpha4({cfg['N']:g})={cert.alpha4(cfg['N']):g}")
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
