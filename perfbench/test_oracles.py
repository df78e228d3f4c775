"""Each oracle accepts the CLI's real artefacts and rejects corrupted ones.

    PYTHONPATH=src python3 -m pytest perfbench

The fixture runs every invocation of every workload once (seed 1, about half
a minute); each corruption case then edits a copy of one artefact, or of the
captured guard diagnostics, and expects the named problem.
"""

import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import clfiss.cli as cli  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """{(workload, invocation): (invocation, out_dir, guard diagnostics)}."""
    found = {}
    capture = tracer.GuardCapture(cli.estimate_rate_guard)
    with tracer.patched([(cli, "estimate_rate_guard", capture)]):
        for name, make in workloads.WORKLOADS.items():
            wl = make(1)
            root = tmp_path_factory.mktemp(name)
            wl.write_configs(root)
            for inv in [wl.setup, *wl.full]:
                out = root / "out" / inv.name
                capture.diag = None
                rc = cli.main(inv.argv(root / "configs" / f"{inv.name}.json", out))
                assert rc == 0, (name, inv.name)
                found[(name, inv.name)] = (inv, out, capture.diag)
    return found


def test_real_artefacts_pass(artefacts):
    for (name, _), (inv, out, diag) in artefacts.items():
        assert oracles.check(name, inv, out, diag) == [], (name, inv.name)


def _json(name):
    def edit(out, diag, fn):
        path = out / name
        doc = json.loads(path.read_text())
        fn(doc)
        path.write_text(json.dumps(doc))
    return edit


def _diag(out, diag, fn):
    fn(diag)


def _csv(out, diag, fn):
    path = out / "trajectory.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set(key, value):
    def fn(d):
        d[key] = value
    return fn


def _case(i, key, value):
    def fn(doc):
        doc["cases"][i][key] = value
    return fn


def _retarget_last_control(rows):
    """Change the last held control and move the last state with it, so that
    only the feedback check can notice."""
    x = [float(v) for v in rows[-2][1:4]]
    t0, t = float(rows[-2][0]), float(rows[-1][0])
    p1, p2 = float(rows[-1][4]) + 1e-6, float(rows[-1][5])
    tau = t - t0
    state = (x[0] + p1 * tau, x[1] + p2 * tau,
             x[2] + (x[0] * p2 - x[1] * p1) * tau)
    rows[-1][1:6] = [repr(v) for v in (*state, p1, p2)]


def _nudge_state(rows):
    rows[len(rows) // 2][3] = repr(float(rows[len(rows) // 2][3]) + 1e-9)


def _scale_last_distance(doc):
    doc["levels"][-1]["distance_to_prev"] *= 1.4


def _g_knot(doc):
    doc["g_knots"][-1][1] = 1.01


def _alpha4_below(doc):
    doc["alpha4_table"][-1][1] = doc["alpha4_table"][-1][0] - 0.1


def _alpha4_drop(doc):
    doc["alpha4_table"][-2][1] = doc["alpha4_table"][-1][1] + 1.0


def _band(doc):
    doc["bands"][2]["radius"] += 1e-6


INTEGRATOR = "integrator_campaign"
SCALAR = "scalar_synthesized"
WEAKISS = "weakiss_certificate"

CORRUPTIONS = [
    (INTEGRATOR, "campaign", _json("campaign.json"), _case(0, "pass", False),
     "did not pass"),
    (INTEGRATOR, "campaign", _json("campaign.json"),
     lambda d: d["cases"].pop(), "case rows"),
    (INTEGRATOR, "campaign", _diag, _set("L_f_raw", 1e-3), "L_f_raw"),
    (INTEGRATOR, "campaign", _diag, _set("L_G_raw", 1.01), "L_G_raw <= 1"),
    (INTEGRATOR, "campaign", _json("campaign.json"),
     lambda d: d["guard"].update(L_G=0.99), "L_G_raw <= 1"),
    (INTEGRATOR, "campaign", _diag, _set("L_eps_raw", 1.5), "sqrt(2)"),
    (INTEGRATOR, "campaign", _diag, _set("lambda_minus_raw", 1e-3),
     "(eps/2)/sqrt(5)"),
    (INTEGRATOR, "campaign", _diag,
     lambda d: d.update(lambda_plus_raw=d["outer_radius"] + 0.2),
     "outer_radius + eps"),
    (INTEGRATOR, "simulate", _csv, _nudge_state, "exact interval solution"),
    (INTEGRATOR, "simulate", _csv, _retarget_last_control, "explicit feedback"),
    (INTEGRATOR, "simulate", _csv, lambda rows: rows.pop(), "rows, expected"),
    (INTEGRATOR, "simulate", _csv,
     lambda rows: rows[5].__setitem__(6, "7"), "interval_index"),
    (INTEGRATOR, "simulate", _csv,
     lambda rows: rows[1].__setitem__(4, "0.5"), "row 0 holds"),
    (SCALAR, "campaign", _json("campaign.json"), _case(-1, "pass", True),
     "expected null"),
    (SCALAR, "campaign", _json("campaign.json"),
     lambda d: d["adversarial"].update(violation_margin=0.01), "adversarial"),
    (SCALAR, "campaign", _diag, _set("L_G_raw", 1e-3), "both must be 0"),
    (SCALAR, "campaign", _diag,
     lambda d: d.update(sup_K_raw=2 * d["outer_radius"] + 1.0), "sup_K_raw"),
    (SCALAR, "euler", _json("euler.json"), _set("verdict", False), "verdict"),
    (SCALAR, "euler", _json("euler.json"), _scale_last_distance,
     "trailing distance ratios"),
    (SCALAR, "euler", _json("euler.json"), lambda d: d["levels"].pop(),
     "levels, expected"),
    (WEAKISS, "weakiss", _json("certificate.json"), _band, "closed form"),
    (WEAKISS, "weakiss", _json("certificate.json"), _g_knot, "g knot"),
    (WEAKISS, "weakiss", _json("certificate.json"), _alpha4_below, "alpha4("),
    (WEAKISS, "weakiss", _json("certificate.json"), _alpha4_drop, "decreases"),
    (WEAKISS, "weakiss", _json("weakiss.json"), _case(0, "checked", 2000),
     "checked"),
    (WEAKISS, "weakiss", _json("weakiss.json"), _case(1, "worst_margin", -0.1),
     "margin"),
    (WEAKISS, "weakiss", _json("weakiss.json"), _case(2, "status", "blowup"),
     "ended blowup"),
]


@pytest.mark.parametrize("workload,inv_name,edit,fn,expect", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[1]}-{c[4]}" for c in CORRUPTIONS])
def test_corruption_is_caught(artefacts, tmp_path, workload, inv_name, edit,
                              fn, expect):
    inv, out, diag = artefacts[(workload, inv_name)]
    copy_dir = tmp_path / "out"
    shutil.copytree(out, copy_dir)
    diag = copy.deepcopy(diag)
    edit(copy_dir, diag, fn)
    problems = oracles.check(workload, inv, copy_dir, diag)
    assert any(expect in p for p in problems), problems
