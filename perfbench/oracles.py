"""Independent checks of the CLI's artefacts.

Every check compares an output with a closed form or with a property the
method guarantees; none compares with a stored copy of an earlier output.
Each function returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SQRT2 = math.sqrt(2.0)
REL = 1e-12


def _sgn(v: float) -> float:
    return (v > 0.0) - (v < 0.0)


def integrator_control(x1: float, x2: float, x3: float) -> tuple:
    """The paper's explicit feedback for the nonholonomic integrator.

    With V = max(r, |x3| - r) and its subgradient selection zeta (equatorial
    region |x3| < 2r, polar region |x3| >= 2r, the x3 axis), b_j = <zeta, g_j>
    are the channel derivatives along g1 = (1, 0, -x2) and g2 = (0, 1, x1),
    and the feedback is K = -V b / |b|^2 - V sgn(b).
    """
    r = math.hypot(x1, x2)
    if r == 0.0 and x3 == 0.0:
        return 0.0, 0.0
    s3 = _sgn(x3)
    if r == 0.0:
        zeta = (0.0, -1.0, s3)
    elif x3 * x3 >= 4.0 * r * r:
        zeta = (-x1 / r, -x2 / r, s3)
    else:
        zeta = (x1 / r, x2 / r, 0.0)
    v = max(r, abs(x3) - r)
    b1 = zeta[0] - zeta[2] * x2
    b2 = zeta[1] + zeta[2] * x1
    nb2 = b1 * b1 + b2 * b2
    return (-v * b1 / nb2 - v * _sgn(b1), -v * b2 / nb2 - v * _sgn(b2))


def _close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Rate guard
# ---------------------------------------------------------------------------

def guard_integrator(diag: dict, guard: dict, epsilon: float) -> list:
    """Closed forms for the max CLF on the integrator.

    f = 0, so L_f = 0. Only G's third row varies, by (-dx2, dx1), so
    L_G <= 1, and the inflated L_G must cover 1. V is sqrt(2)-Lipschitz,
    |x| / sqrt(5) <= V(x) <= |x|, and the probes sit at radii in
    [epsilon / 2, outer + epsilon].
    """
    out = []
    if diag.get("L_f_raw") != 0.0:
        out.append(f"guard: L_f_raw = {diag.get('L_f_raw')} but f = 0")
    if not diag["L_G_raw"] <= 1.0 * (1 + REL) <= guard["L_G"] * (1 + REL):
        out.append(f"guard: need L_G_raw <= 1 <= L_G, got "
                   f"{diag['L_G_raw']} and {guard['L_G']}")
    if diag["L_eps_raw"] > SQRT2 * (1 + REL):
        out.append(f"guard: L_eps_raw = {diag['L_eps_raw']} > sqrt(2)")
    floor = (epsilon / 2.0) / math.sqrt(5.0)
    if diag["lambda_minus_raw"] < floor * (1 - REL):
        out.append(f"guard: lambda_minus_raw = {diag['lambda_minus_raw']} "
                   f"< (eps/2)/sqrt(5) = {floor}")
    top = diag["outer_radius"] + epsilon
    if diag["lambda_plus_raw"] > top * (1 + REL):
        out.append(f"guard: lambda_plus_raw = {diag['lambda_plus_raw']} "
                   f"> outer_radius + eps = {top}")
    return out


def guard_scalar(diag: dict, epsilon: float) -> list:
    """dx = u with the synthesised law -2x: f = 0, G = 1, |K(x)| = 2|x|."""
    out = []
    if diag.get("L_f_raw") != 0.0 or diag.get("L_G_raw") != 0.0:
        out.append(f"guard: L_f_raw = {diag.get('L_f_raw')}, L_G_raw = "
                   f"{diag.get('L_G_raw')}, both must be 0")
    top = 2.0 * (diag["outer_radius"] + epsilon / 2.0)
    if diag["sup_K_raw"] > top * (1 + REL):
        out.append(f"guard: sup_K_raw = {diag['sup_K_raw']} > "
                   f"2 (outer_radius + eps/2) = {top}")
    return out


# ---------------------------------------------------------------------------
# Campaign, trajectory and refinement artefacts
# ---------------------------------------------------------------------------

def campaign_doc(doc: dict, asserted: int, inadmissible: bool,
                 adversarial: bool) -> list:
    out = []
    rows = doc.get("cases", [])
    want = asserted + (1 if inadmissible else 0)
    if len(rows) != want:
        out.append(f"campaign: {len(rows)} case rows, expected {want}")
    for row in rows:
        if row["asserted"]:
            if row["pass"] is not True:
                out.append(f"campaign: asserted case {row['id']} "
                           f"({row['label']}) did not pass")
        elif row["pass"] is not None:
            out.append(f"campaign: unasserted case {row['id']} reports "
                       f"pass = {row['pass']}, expected null")
    n_inad = sum(1 for r in rows if r["label"] == "inadmissible-by-design")
    if n_inad != (1 if inadmissible else 0):
        out.append(f"campaign: {n_inad} inadmissible cases")
    if adversarial:
        adv = doc.get("adversarial")
        if adv is None or not adv["violation_margin"] < 0.0:
            out.append(f"campaign: adversarial search found a violation: {adv}")
    elif "adversarial" in doc:
        out.append("campaign: unexpected adversarial block")
    return out


def integrator_trajectory(path: Path, step: float, horizon: float) -> list:
    """Every row of an undisturbed, noise-free, one-substep run.

    On an interval with held control p the integrator's solution is exact:
    (x1 + p1 tau, x2 + p2 tau, x3 + (x1 p2 - x2 p1) tau). The held control is
    the explicit feedback at the interval's first state.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = []
    if rows[0] != ["t", "x1", "x2", "x3", "k1", "k2", "interval_index"]:
        return [f"trajectory: header {rows[0]}"]
    data = [[float(v) for v in r[:6]] + [int(r[6])] for r in rows[1:]]
    intervals = math.ceil(horizon / step - 1e-12)
    if len(data) != intervals + 1:
        out.append(f"trajectory: {len(data)} rows, expected {intervals + 1}")
    if not data or abs(data[-1][0] - horizon) > 1e-9:
        out.append("trajectory: does not reach the horizon")
    if len(data) > 1 and data[0][4:6] != data[1][4:6]:
        out.append("trajectory: row 0 holds another control than interval 0")
    for k in range(1, len(data)):
        t0, x1, x2, x3 = data[k - 1][:4]
        t, y1, y2, y3, p1, p2, idx = data[k]
        if idx != k - 1:
            out.append(f"trajectory: row {k} has interval_index {idx}")
            break
        tau = t - t0
        exact = (x1 + p1 * tau, x2 + p2 * tau, x3 + (x1 * p2 - x2 * p1) * tau)
        if not all(_close(a, b) for a, b in zip((y1, y2, y3), exact)):
            out.append(f"trajectory: row {k} state {(y1, y2, y3)} != exact "
                       f"interval solution {exact}")
            break
        k1, k2 = integrator_control(x1, x2, x3)
        if not (_close(p1, k1) and _close(p2, k2)):
            out.append(f"trajectory: row {k} holds {(p1, p2)}, explicit "
                       f"feedback gives {(k1, k2)}")
            break
    return out


def euler_doc(doc: dict, levels: int) -> list:
    """First-order sample-and-hold convergence halves the distance per level."""
    out = []
    if doc.get("verdict") is not True:
        out.append(f"euler: verdict {doc.get('verdict')}")
    rows = doc.get("levels", [])
    if len(rows) != levels:
        out.append(f"euler: {len(rows)} levels, expected {levels}")
    dists = [r["distance_to_prev"] for r in rows[1:]]
    if any(d is None or not d > 0.0 for d in dists):
        return out + [f"euler: distances {dists}"]
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    tail = ratios[-3:]
    if len(tail) < 3 or not all(0.4 <= q <= 0.6 for q in tail):
        out.append(f"euler: trailing distance ratios {tail} not in [0.4, 0.6]")
    return out


# ---------------------------------------------------------------------------
# Weak-ISS certificate
# ---------------------------------------------------------------------------

def certificate_doc(doc: dict, i_max: int, safety: float) -> list:
    """Band radii against the closed form for D(s, b) = b^2 s^2 - s/2.

    For V = |x|, zero k1 and f(x, u) = -x + u^2 x^2 the decay margin on the
    shell |x| = s under inputs of size b is b^2 s^2 - s/2; it is negative on
    a band up to hi iff b < 1/sqrt(2 hi). The certificate deflates by the
    safety factor and interleaves r_1 > r'_1 > r_2 > ... with factor 1 - 1e-6.
    """
    out = []
    bands = doc["bands"]
    if len(bands) != 2 * i_max:
        return [f"certificate: {len(bands)} bands, expected {2 * i_max}"]
    shrink = 1.0 - 1e-6
    prev = math.inf
    for i in range(1, i_max + 1):
        r_i = min(safety / math.sqrt(2.0 * (i + 1)), shrink * prev)
        rp_i = min(safety * math.sqrt(i / 2.0), shrink * r_i)
        prev = rp_i
        for band, want, lo, hi in ((bands[i - 1], r_i, i, i + 1),
                                   (bands[i_max + i - 1], rp_i,
                                    1.0 / (i + 1), 1.0 / i)):
            if abs(band["radius"] - want) > 1e-9:
                out.append(f"certificate: band [{lo:g}, {hi:g}) radius "
                           f"{band['radius']} != closed form {want}")
            if not (_close(band["lo"], lo) and _close(band["hi"], hi)):
                out.append(f"certificate: band bounds {band['lo']}, "
                           f"{band['hi']} != {lo}, {hi}")
    for s, g in doc["g_knots"]:
        if not 0.0 < g <= 1.0:
            out.append(f"certificate: g knot at {s} is {g}, outside (0, 1]")
    table = doc["alpha4_table"]
    for s, a in table:
        if a < s:
            out.append(f"certificate: alpha4({s}) = {a} < {s}")
    if any(b[1] < a[1] for a, b in zip(table, table[1:])):
        out.append("certificate: alpha4 table decreases")
    return out


def weakiss_doc(doc: dict, cfg: dict) -> list:
    out = []
    rows = doc.get("cases", [])
    if len(rows) != 2 * len(cfg["x0_values"]):
        out.append(f"weakiss: {len(rows)} runs, expected "
                   f"{2 * len(cfg['x0_values'])}")
    checked = math.ceil(cfg["horizon"] / cfg["step"] - 1e-12) * cfg["substeps"] + 1
    for row in rows:
        if row["status"] != "completed" or row["pass"] is not True:
            out.append(f"weakiss: run x0={row['x0']} u={row['u']} ended "
                       f"{row['status']}, pass {row['pass']}")
        if row["checked"] != checked:
            out.append(f"weakiss: run x0={row['x0']} checked {row['checked']} "
                       f"points, expected {checked}")
        if not row["worst_margin"] >= 0.0:
            out.append(f"weakiss: run x0={row['x0']} margin {row['worst_margin']}")
    if doc.get("failed") != 0:
        out.append(f"weakiss: {doc.get('failed')} runs failed")
    return out


# ---------------------------------------------------------------------------
# Dispatch by workload
# ---------------------------------------------------------------------------

def _load(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def check(workload: str, inv, out_dir: Path, diag: dict | None) -> list:
    """Problems with the artefacts one invocation wrote into out_dir.

    diag is the raw rate-guard diagnostics the invocation computed, or None
    when it built no guard.
    """
    cfg = inv.config
    if inv.command == "campaign":
        doc = _load(out_dir, "campaign.json")
        cases = cfg["cases"]
        out = campaign_doc(doc, cases["count"],
                           bool(cases.get("include_inadmissible")),
                           bool(cfg.get("adversarial_budget")))
        if diag is None:
            return out + ["guard: no diagnostics captured"]
        if workload == "integrator_campaign":
            return out + guard_integrator(diag, doc["guard"], cfg["epsilon"])
        return out + guard_scalar(diag, cfg["epsilon"])
    if inv.command == "simulate":
        return integrator_trajectory(out_dir / "trajectory.csv",
                                     cfg["partition"]["step"], cfg["horizon"])
    if inv.command == "euler":
        return euler_doc(_load(out_dir, "euler.json"), cfg["levels"])
    if inv.command == "weakiss":
        return (certificate_doc(_load(out_dir, "certificate.json"),
                                cfg["i_max"], cfg["safety"])
                + weakiss_doc(_load(out_dir, "weakiss.json"), cfg))
    raise ValueError(f"no checks for command {inv.command!r}")
