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
from .core import (DEFAULT_ESCAPE_RADIUS, ControlAffineSystem, Signal,
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
    except OSError as exc:   # missing, a directory or unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:   # an integer literal longer than Python parses
        raise ConfigError(f"{path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


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


# The config schema: one table per block, field -> (kind, range, default). A
# range is an interval such as "[0, inf)" for a number, the allowed names for
# a NAME, the nested table for a BLOCK, or None. A default is a constant,
# REQUIRED, or CALLER: the command computes it when the field is left out.
# Each kind reads as its error message says it.
REAL, REAL_INF = "a finite real number", "a real number or Infinity"
INTEGER, BOOL, NAME = "an integer", "true or false", "a name"
VECTOR = "a finite real number or a list of them"
REALS, BLOCK = "a list of finite real numbers", "a JSON object"
OR_NULL = " or null"   # kind suffix: null is allowed, and read as None
REQUIRED, CALLER = object(), object()
SEED = (INTEGER, "[0, inf)", CALLER)   # --seed

SCHEMA = {"schema": (INTEGER, f"[{SCHEMA_VERSION}, {SCHEMA_VERSION}]", REQUIRED)}
LOOP = {"system": (NAME, SYSTEMS, REQUIRED),
        "clf": (NAME + OR_NULL, CLFS, None),   # "" means no clf too
        "feedback": (NAME, ("zero", "explicit", "combined", "damping"), REQUIRED),
        "substeps": (INTEGER, "[1, inf)", 16),
        "escape_radius": (REAL_INF, "(0, inf]", DEFAULT_ESCAPE_RADIUS),
        "monitor_domain": (BOOL, None, False)}
PARTITION = {"kind": (NAME, ("uniform", "jitter"), REQUIRED),
             "step": (REAL, "(0, inf)", REQUIRED), "fraction": (REAL, "[0, 1)", 0.0),
             "seed": (INTEGER, "[0, inf)", 0)}
# a disturbance or noise (null: the zero signal); its seed is --seed, plus 1
# for the noise, and a constant's value is zero by default
SIGNAL = {"kind": (NAME, ("zero", "constant", "sine", "piecewise"), REQUIRED),
          "value": (VECTOR, None, CALLER), "amplitude": (REAL, None, 0.0),
          "frequency": (REAL, None, 1.0), "phase": (REAL, None, 0.0),
          "bound": (REAL, "[0, inf)", 0.0), "seed": SEED}
DECREASE = {"s_level": (REAL, None, 0.0), "rel_tol": (REAL, "[0, inf)", 1e-4),
            "abs_tol": (REAL, "[0, inf)", 0.0)}
SIMULATE = {**SCHEMA, "loop": (BLOCK, LOOP, REQUIRED),
            "partition": (BLOCK, PARTITION, REQUIRED), "horizon": (REAL, None, REQUIRED),
            "x0": (VECTOR, None, REQUIRED),
            "disturbance": (BLOCK + OR_NULL, SIGNAL, None),
            "noise": (BLOCK + OR_NULL, SIGNAL, None), "decrease": (BLOCK, DECREASE, {})}
TABLES = {"radius_max": (REAL, "(0, inf)", 20.0),   # estimate_alpha_tables' parameters
          "grid_size": (INTEGER, "[16, inf)", 257),
          "directions": (INTEGER, "[0, inf)", 256), "radii": (INTEGER, "[2, inf)", 512)}
QUERY = {"M": (REAL, "[0, inf)", REQUIRED), "N": (REAL, "[0, inf)", REQUIRED),
         "t": (REAL, "[0, inf)", 0.0)}
# the campaign's tables block, with its own radius_max and directions
ENVELOPE = {**SCHEMA, **TABLES, "clf": (NAME, CLFS, REQUIRED),
            "radius_max": (REAL, "(0, inf)", REQUIRED),
            "directions": (INTEGER, "[0, inf)", 64), "overflow": (REAL, "(0, inf)", 0.1),
            "query": (BLOCK, QUERY, CALLER)}
# a case's step is step_fraction times the guard's delta, which an admissible
# partition must stay below
CASES = {"count": (INTEGER, "[0, inf)", REQUIRED), "seed": SEED,
         "step_fraction": (REAL, "(0, 1)", 0.9),
         "include_inadmissible": (BOOL, None, False)}
GUARD = {"points": (INTEGER, "[0, inf)", 2048), "pairs": (INTEGER, "[1, inf)", 4000),
         "inflation": (REAL, None, 1.25), "seed": SEED}   # ProbeConfig's fields
CAMPAIGN = {**SCHEMA, "loop": (BLOCK, LOOP, REQUIRED),
            "M": (REAL, "(0, inf)", REQUIRED), "N": (REAL, "[0, inf)", REQUIRED),
            "epsilon": (REAL, "(0, inf)", REQUIRED), "horizon": (REAL, None, REQUIRED),
            "cases": (BLOCK, CASES, REQUIRED), "guard": (BLOCK, GUARD, {}),
            "adversarial_budget": (INTEGER, "[0, inf)", 0),   # 0: no search
            "tables": (BLOCK, TABLES, {})}
# by default u_bound is the disturbance's bound and top is 10 max(1, |x0|)
EULER_ENVELOPE = {"epsilon": (REAL, "(0, inf)", REQUIRED),
                  "u_bound": (REAL, "[0, inf)", CALLER), "top": (REAL, "(0, inf)", CALLER)}
EULER = {**SCHEMA, "loop": (BLOCK, LOOP, CALLER),   # needed unless linear_test
         "linear_test": (BOOL, None, False), "x0": (VECTOR, None, REQUIRED),
         "base_step": (REAL, "(0, inf)", REQUIRED),
         "levels": (INTEGER, "[1, inf)", REQUIRED), "horizon": (REAL, None, REQUIRED),
         "error_exponent": (REAL + OR_NULL, None, 2.0),   # null: noise-free levels
         "disturbance": (BLOCK + OR_NULL, SIGNAL, None),
         "envelope": (BLOCK, EULER_ENVELOPE, CALLER)}
WEAKISS = {**SCHEMA, "i_max": (INTEGER, "[1, inf)", 8), "safety": (REAL, "(0, 1]", 0.9),
           "M": (REAL, None, REQUIRED), "N": (REAL, "[0, inf)", REQUIRED),
           "epsilon": (REAL, "(0, inf)", REQUIRED), "x0_values": (REALS, None, REQUIRED),
           "horizon": (REAL, None, REQUIRED), "step": (REAL, "(0, inf)", 0.01),
           "substeps": (INTEGER, "[1, inf)", 16)}


def _read(where: str, cfg, table: dict) -> dict:
    """The fields of config block cfg, at path where, checked against table:
    no unknown field, no required one missing, each value of its kind and in
    its range. Constant defaults are filled in; cfg itself is not changed."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be {BLOCK}, got {json.dumps(cfg)}")
    for field in cfg:
        if field not in table:
            raise ConfigError(f"{where}: unknown field {field!r}")
    out = {}
    for field, (kind, rng, default) in table.items():
        if field not in cfg and default is REQUIRED:
            raise ConfigError(f"{where}: missing required field {field!r}")
        if field in cfg or default is not CALLER:
            out[field] = _value(f"{where}.{field}", cfg.get(field, default), kind, rng)
    return out


def _value(path: str, value, kind: str, rng):
    """value, checked to be of kind and in rng."""
    base = kind.removesuffix(OR_NULL)
    if base != kind and (value is None or (base == NAME and value == "")):
        return None
    if base == BLOCK:
        if isinstance(value, dict):
            return _read(path, value, rng)
        ok = False
    elif base == NAME:
        ok = isinstance(value, str) and value in rng
    elif base == BOOL:
        ok = isinstance(value, bool)
    elif base == INTEGER:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif base == REALS:
        ok = isinstance(value, list) and all(_is_real(v, False) for v in value)
    else:   # REAL, REAL_INF or VECTOR, which may also be one number
        entries = value if base == VECTOR and isinstance(value, list) else [value]
        ok = all(_is_real(v, base == REAL_INF) for v in entries)
    if not ok:
        want = f"one of {sorted(rng)}" if base == NAME else base
        raise ConfigError(f"{path} must be {want}{kind[len(base):]}, "
                          f"got {json.dumps(value)}")
    if base != NAME and rng is not None and not _within(value, rng):
        raise ConfigError(f"{path} must lie in {rng}, got {json.dumps(value)}")
    return value


def _is_real(value, inf_ok: bool) -> bool:
    """Whether value is a number, not a bool, that a float holds: finite, or
    infinite when inf_ok."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        x = float(value)
    except OverflowError:   # an integer literal too large for a float
        return False
    return math.isfinite(x) or (inf_ok and math.isinf(x))


def _within(value, rng: str) -> bool:
    """Whether value lies in the interval rng, written like "(0, inf]"."""
    lo, hi = (float(end) for end in rng[1:-1].split(","))
    return (((lo < value) if rng[0] == "(" else (lo <= value))
            and ((value < hi) if rng[-1] == ")" else (value <= hi)))


def _checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError or OverflowError as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build_signal(cfg, dim: int, partition, seed: int, where: str) -> Signal:
    """The signal of a read disturbance or noise block."""
    kind = "zero" if cfg is None else cfg["kind"]
    if kind == "zero":
        return zero_signal(dim)
    if kind == "constant":
        return constant_signal(_checked(where, as_vector,
                                        cfg.get("value", [0.0] * dim), dim))
    rng = np.random.default_rng(cfg.get("seed", seed))
    if kind == "sine":
        return sine_signal(rng.normal(size=dim), cfg["amplitude"], cfg["frequency"],
                           cfg["phase"])
    return random_disturbance("piecewise", dim, cfg["bound"], partition, rng)


def _build_loop(cfg: dict, where: str) -> tuple:
    """Returns (loop, system, clf or None) from a read loop block."""
    sys_name, fb_name = cfg["system"], cfg["feedback"]
    system = SYSTEMS[sys_name]()
    clf = CLFS[cfg["clf"]]() if cfg["clf"] is not None else None
    if clf is not None and clf.dim != system.n:
        raise ConfigError(f"{where}: clf {cfg['clf']!r} has dimension {clf.dim} "
                          f"but system {sys_name!r} has {system.n} states")
    substeps, escape = cfg["substeps"], cfg["escape_radius"]
    if sys_name == "counterexample":
        if fb_name != "zero":
            raise ConfigError(f"{where}: the counterexample loop supports only feedback 'zero'")
        return nonlinear_loop(system, zero_feedback(1, 1), substeps, escape), system, clf
    if fb_name == "zero":
        fb = zero_feedback(system.n, system.m)
    elif fb_name == "explicit":
        if sys_name != "integrator":
            raise ConfigError(f"{where}: explicit feedback exists only for the integrator")
        fb = systems.integrator_feedback()
    elif clf is None:
        raise ConfigError(f"{where}: {fb_name} feedback needs a clf")
    elif fb_name == "combined":
        fb = combined_feedback(system, clf)
    else:
        fb = damping_feedback(system, clf)
    margin = None
    if cfg["monitor_domain"] and sys_name == "integrator":
        margin = systems.cone_margin
    return affine_loop(system, fb, substeps, escape, margin), system, clf


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_simulate(cfg: dict, out_dir: str, seed: int) -> int:
    c = _read("simulate", cfg, SIMULATE)
    loop, system, clf = _build_loop(c["loop"], "simulate.loop")
    p = c["partition"]
    part = _checked("simulate.partition", make_partition, p["kind"], c["horizon"],
                    p["step"], p["fraction"], p["seed"])
    u = _build_signal(c["disturbance"], loop.m, part, seed, "simulate.disturbance")
    e = _build_signal(c["noise"], loop.n, part, seed + 1, "simulate.noise")
    x0 = _checked("simulate.x0", as_vector, c["x0"], loop.n)
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
        d = c["decrease"]
        rep = decrease_check(traj, clf, None, d["s_level"], d["rel_tol"], d["abs_tol"])
        run["decrease"] = rep.to_dict()
    with open(_out_path(out_dir, "run.json"), "w") as fh:
        json.dump(run, fh, indent=2)
    print(f"simulate: status={traj.status.kind} t_final={traj.final_time:g} -> {csv_path}")
    return 3 if traj.status.diverged else 0


def cmd_envelope(cfg: dict, out_dir: str, seed: int) -> int:
    c = _read("envelope", cfg, ENVELOPE)
    tables = _checked("envelope", estimate_alpha_tables, CLFS[c["clf"]](),
                      **{field: c[field] for field in TABLES}, seed=seed)
    env = build_envelope(tables, c["overflow"])
    tables.to_csv(_out_path(out_dir, "alpha_tables.csv"))
    report = env.describe()
    if "query" in c:
        M, N, t = c["query"]["M"], c["query"]["N"], c["query"]["t"]
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
    c = _read("campaign", cfg, CAMPAIGN)
    loop, system, clf = _build_loop(c["loop"], "campaign.loop")
    if clf is None:
        raise ConfigError("campaign: loop.clf is required")
    if not isinstance(system, ControlAffineSystem):
        raise ConfigError(f"campaign: system {c['loop']['system']!r} is not "
                          "control-affine; the rate guard needs its f and G")
    M, N, epsilon, horizon = c["M"], c["N"], c["epsilon"], c["horizon"]
    cases_cfg, budget = c["cases"], c["adversarial_budget"]
    tables = _checked("campaign.tables", estimate_alpha_tables, clf, **c["tables"],
                      seed=seed)
    env = build_envelope(tables, epsilon)
    probe = ProbeConfig(**{"seed": seed, **c["guard"]})
    guard = _checked("campaign.guard", estimate_rate_guard, loop, clf, tables,
                     epsilon, M, N, system, probe)
    # each case and each adversarial trial must fit one whole step
    fractions = [cases_cfg["step_fraction"]] if cases_cfg["count"] > 0 else []
    if budget:
        fractions.append(ADVERSARIAL_STEP_FRACTIONS[1])
    if fractions and horizon < max(fractions) * guard.delta:
        raise ConfigError(
            f"campaign: horizon {horizon:g} is shorter than the largest "
            f"case step, {max(fractions):g} * delta with delta {guard.delta:g}")
    cases = make_cases(loop, guard, M, N, cases_cfg["count"], horizon,
                       cases_cfg.get("seed", seed), cases_cfg["step_fraction"])
    if cases_cfg["include_inadmissible"]:
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
    c = _read("euler", cfg, EULER)
    if c["linear_test"]:
        fb = Feedback(1, 1, lambda x: -np.asarray(x, dtype=float))
        loop = ClosedLoop(1, 1, lambda x, p, u: p, fb)
    elif "loop" not in c:
        raise ConfigError("euler: need loop or linear_test")
    else:
        loop, _, _ = _build_loop(c["loop"], "euler.loop")
    base_step, horizon = c["base_step"], c["horizon"]
    part0 = _checked("euler", make_partition, "uniform", horizon, base_step)
    u = _build_signal(c["disturbance"], loop.m, part0, seed, "euler.disturbance")
    sched = _checked("euler", geometric_schedule, base_step, c["levels"], horizon,
                     u, loop.n, c["error_exponent"], seed=seed)
    x0 = _checked("euler.x0", as_vector, c["x0"], loop.n)
    env = None
    if "envelope" in c:
        ecfg = c["envelope"]
        top = ecfg.get("top", 10.0 * max(1.0, float(np.linalg.norm(x0))))
        u_bound = ecfg.get("u_bound", u.bound)
        env = build_envelope(_checked("euler.envelope", AlphaTables.identity, top),
                             ecfg["epsilon"])
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
    c = _read("weakiss", cfg, WEAKISS)
    M, N = c["M"], c["N"]
    system = systems.counterexample_system()
    clf = systems.scalar_abs_clf()
    k1 = zero_feedback(1, 1)
    cert = systems.build_weak_iss_certificate(system, clf, k1, c["i_max"],
                                              c["safety"], seed=seed)
    loop = systems.weak_iss_loop(system, k1, cert, c["substeps"])
    tables = _checked("weakiss", AlphaTables.identity, max(M, cert.alpha4(N)) * 4.0 + 8.0)
    env = build_envelope(tables, c["epsilon"], cert.alpha4)
    part = _checked("weakiss", make_partition, "uniform", c["horizon"], c["step"])
    cert.to_json(_out_path(out_dir, "certificate.json"))
    runs = [([float(x0)], sign * N) for x0 in c["x0_values"] for sign in (1.0, -1.0)]
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
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
