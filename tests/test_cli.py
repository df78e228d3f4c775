import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from clfiss import read_trajectory_csv, write_trajectory_csv
from clfiss.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def integrator_simulate_config(x0=(1.0, 0.5, 0.3)):
    return {
        "schema": 1,
        "loop": {"system": "integrator", "feedback": "explicit"},
        "partition": {"kind": "uniform", "step": 0.05},
        "horizon": 1.0,
        "x0": list(x0),
    }


def scalar_campaign_config():
    return {
        "schema": 1,
        "loop": {"system": "scalar", "clf": "scalar_abs",
                 "feedback": "combined", "substeps": 4},
        "M": 1.0, "N": 0.0, "epsilon": 0.25, "horizon": 1.0,
        "tables": {"radius_max": 10.0, "radii": 2001, "grid_size": 64},
        "cases": {"count": 3, "seed": 1},
        "guard": {"points": 512, "pairs": 800},
    }


class TestSimulate:
    def test_integrator_demo_shapes(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", integrator_simulate_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert data["states"].shape[1] == 3
        assert data["controls"].shape[1] == 2
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["status"]["kind"] == "completed"

    def test_zero_initial_all_zero(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json",
                           integrator_simulate_config((0.0, 0.0, 0.0)))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert np.all(data["states"] == 0.0)

    def test_counterexample_blowup_exit_code_and_time(self, tmp_path):
        doc = {
            "schema": 1,
            "loop": {"system": "counterexample", "feedback": "zero",
                     "substeps": 16},
            "partition": {"kind": "uniform", "step": 0.005},
            "horizon": 0.5,
            "x0": [4.0],
            "disturbance": {"kind": "constant", "value": [1.0]},
        }
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["status"]["kind"] == "blowup"
        assert abs(run["status"]["time"] - math.log(4.0 / 3.0)) < 0.01

    def test_csv_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", integrator_simulate_config())
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        first = read_trajectory_csv(tmp_path / "trajectory.csv")
        # 17 significant digits round-trip bit-exactly through the file
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rewritten = tmp_path / "copy.csv"
        with open(rewritten, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        second = read_trajectory_csv(rewritten)
        assert np.array_equal(first["states"], second["states"])
        assert np.array_equal(first["t"], second["t"])


class TestEnvelopeCmd:
    def test_identity_tables(self, tmp_path):
        doc = {"schema": 1, "clf": "scalar_abs", "radius_max": 10.0,
               "radii": 4001, "grid_size": 64}
        cfg = write_config(tmp_path, "env.json", doc)
        assert main(["envelope", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "alpha_tables.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "underline", "overline"]
        arr = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.max(np.abs(arr[:, 1] - arr[:, 0])) < 1e-2

    def test_quadratic_tables(self, tmp_path):
        doc = {"schema": 1, "clf": "scalar_square", "radius_max": 10.0,
               "radii": 20001, "grid_size": 64}
        cfg = write_config(tmp_path, "env.json", doc)
        assert main(["envelope", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "alpha_tables.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        arr = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.max(np.abs(arr[:, 2] - np.sqrt(arr[:, 0]))) < 1e-3

    def test_out_of_range_query_flagged(self, tmp_path):
        doc = {"schema": 1, "clf": "scalar_abs", "radius_max": 5.0,
               "radii": 501, "grid_size": 32,
               "query": {"M": 100.0, "N": 0.0}}
        cfg = write_config(tmp_path, "env.json", doc)
        assert main(["envelope", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "envelope.json").read_text())
        assert rep["query"]["saturated"] is True
        assert {"grid_tol", "radius_max", "truncated_levels"} <= set(rep)


class TestCampaignCmd:
    def test_scalar_campaign_passes(self, tmp_path):
        cfg = write_config(tmp_path, "camp.json", scalar_campaign_config())
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "campaign.json").read_text())
        assert rep["summary"]["failed"] == 0
        assert len(rep["cases"]) == 3

    def test_coarse_tables_pass(self, tmp_path):
        # the shipped scalar campaign on 16-shell tables: the outer radius
        # must round up, or beta(|x0|, 0) < |x0| fails every case at t = 0
        with open(CONFIGS / "campaign_scalar.json") as fh:
            doc = json.load(fh)
        doc["tables"] = {"radii": 16, "grid_size": 16}
        cfg = write_config(tmp_path, "camp.json", doc)
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_inadmissible_tag_present(self, tmp_path):
        doc = {
            "schema": 1,
            "loop": {"system": "scalar", "clf": "scalar_abs",
                     "feedback": "combined", "substeps": 2},
            "M": 1.0, "N": 0.0, "epsilon": 0.25, "horizon": 1.0,
            "tables": {"radius_max": 10.0, "radii": 1001, "grid_size": 64},
            "cases": {"count": 1, "seed": 1, "include_inadmissible": True},
            "guard": {"points": 256, "pairs": 400},
        }
        cfg = write_config(tmp_path, "camp.json", doc)
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "campaign.json").read_text())
        labels = [c["label"] for c in rep["cases"]]
        assert "inadmissible-by-design" in labels
        tagged = rep["cases"][labels.index("inadmissible-by-design")]
        assert tagged["asserted"] is False


class TestEulerCmd:
    def test_linear_loop_cauchy(self, tmp_path):
        doc = {"schema": 1, "linear_test": True, "x0": [1.0],
               "base_step": 0.2, "levels": 6, "horizon": 2.0}
        cfg = write_config(tmp_path, "euler.json", doc)
        assert main(["euler", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "euler.json").read_text())
        assert rep["verdict"] is True

    def test_zero_start(self, tmp_path):
        doc = {"schema": 1, "linear_test": True, "x0": [0.0],
               "base_step": 0.2, "levels": 4, "horizon": 1.0,
               "error_exponent": None}
        cfg = write_config(tmp_path, "euler.json", doc)
        assert main(["euler", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "euler.json").read_text())
        dists = [lv["distance_to_prev"] for lv in rep["levels"][1:]]
        assert all(d < 1e-6 for d in dists)

    def test_divergent_level_reported(self, tmp_path):
        doc = {"schema": 1,
               "loop": {"system": "counterexample", "feedback": "zero"},
               "x0": [4.0], "base_step": 0.05, "levels": 3, "horizon": 1.0,
               "disturbance": {"kind": "constant", "value": [1.0]}}
        cfg = write_config(tmp_path, "euler.json", doc)
        assert main(["euler", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "euler.json").read_text())
        assert rep["divergent_level"] == 0


class TestWeakIssCmd:
    def test_end_to_end(self, tmp_path):
        doc = {"schema": 1, "i_max": 5, "M": 4.0, "N": 1.0, "epsilon": 0.1,
               "x0_values": [0.5, 2.0, 4.0], "horizon": 10.0, "step": 0.02}
        cfg = write_config(tmp_path, "weak.json", doc)
        assert main(["weakiss", "--config", cfg, "--out", str(tmp_path)]) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert {"bands", "g_knots", "alpha4_table"} <= set(cert)
        rep = json.loads((tmp_path / "weakiss.json").read_text())
        assert rep["failed"] == 0


class TestFlagOverrides:
    def test_partition_flag_and_decrease_block(self, tmp_path):
        doc = {
            "schema": 1,
            "loop": {"system": "scalar", "clf": "scalar_abs",
                     "feedback": "combined", "substeps": 2},
            "horizon": 1.0,
            "x0": [1.0],
        }
        cfg = write_config(tmp_path, "sim.json", doc)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--partition", "uniform:0.05", "--substeps", "4",
                     "--escape-radius", "1e6", "--horizon", "2.0"])
        assert code == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["final_time"] == pytest.approx(2.0)
        dec = run["decrease"]
        assert dec["violations"] == []
        assert dec["checked"] > 0

    def test_jitter_flag(self, tmp_path):
        doc = {"schema": 1,
               "loop": {"system": "integrator", "feedback": "explicit"},
               "horizon": 0.5, "x0": [0.5, 0.0, 0.2]}
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--partition", "jitter:0.05:0.4:3"]) == 0

    def test_bad_partition_flag(self, tmp_path):
        doc = integrator_simulate_config()
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--partition", "weird:1:2"]) == 2


class TestCampaignFailureExit:
    def test_zero_feedback_fails_envelope(self, tmp_path):
        # with no feedback the state holds at |x0|, which outlives the
        # decaying envelope over a long horizon
        doc = {
            "schema": 1,
            "loop": {"system": "scalar", "clf": "scalar_abs",
                     "feedback": "zero", "substeps": 2},
            "M": 1.0, "N": 0.0, "epsilon": 0.05, "horizon": 8.0,
            "tables": {"radius_max": 10.0, "radii": 1001, "grid_size": 64},
            "cases": {"count": 4, "seed": 2},
            "guard": {"points": 256, "pairs": 400},
        }
        cfg = write_config(tmp_path, "camp.json", doc)
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path)]) == 1
        rep = json.loads((tmp_path / "campaign.json").read_text())
        assert rep["summary"]["failed"] > 0
        assert all("worst_margin" in c for c in rep["cases"])


class TestEulerEnvelopeField:
    def test_worst_env_margin_reported(self, tmp_path):
        doc = {"schema": 1, "linear_test": True, "x0": [1.0],
               "base_step": 0.2, "levels": 5, "horizon": 2.0,
               "envelope": {"epsilon": 0.05}}
        cfg = write_config(tmp_path, "euler.json", doc)
        assert main(["euler", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "euler.json").read_text())
        assert rep["worst_env_margin"] is not None
        assert rep["worst_env_margin"] > 0.0


class TestJsonRoundTrip:
    def test_campaign_json_reparses_equal(self, tmp_path):
        doc = {
            "schema": 1,
            "loop": {"system": "scalar", "clf": "scalar_abs",
                     "feedback": "combined", "substeps": 2},
            "M": 1.0, "N": 0.0, "epsilon": 0.25, "horizon": 1.0,
            "tables": {"radius_max": 10.0, "radii": 1001, "grid_size": 64},
            "cases": {"count": 2, "seed": 3},
            "guard": {"points": 256, "pairs": 400},
        }
        cfg = write_config(tmp_path, "camp.json", doc)
        main(["campaign", "--config", cfg, "--out", str(tmp_path)])
        text = (tmp_path / "campaign.json").read_text()
        parsed = json.loads(text)
        assert json.loads(json.dumps(parsed)) == parsed


class TestConfigErrors:
    def test_unknown_field_rejected(self, tmp_path):
        doc = integrator_simulate_config()
        doc["mystery"] = 1
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_wrong_schema_rejected(self, tmp_path):
        doc = integrator_simulate_config()
        doc["schema"] = 99
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_nested_field(self, tmp_path):
        doc = integrator_simulate_config()
        doc["partition"]["weird"] = True
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_clf_dimension_mismatch(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "loop": {"system": "scalar", "clf": "integrator_max",
                     "feedback": "combined"},
            "partition": {"kind": "uniform", "step": 0.05},
            "horizon": 1.0,
            "x0": [1.0],
        }
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "dimension 3" in capsys.readouterr().err

    def test_campaign_needs_control_affine_system(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "loop": {"system": "counterexample", "clf": "scalar_abs",
                     "feedback": "zero"},
            "M": 1.0, "N": 0.1, "epsilon": 0.1, "horizon": 0.5,
            "cases": {"count": 1},
        }
        cfg = write_config(tmp_path, "camp.json", doc)
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "control-affine" in capsys.readouterr().err

    def test_unknown_system_lists_choices(self, tmp_path, capsys):
        doc = integrator_simulate_config()
        doc["loop"]["system"] = "pendulum"
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "['counterexample', 'integrator', 'scalar']" in capsys.readouterr().err


def test_benchmark_hook_targets_exist():
    """Every attribute the benchmark's tracer replaces exists before patching,
    so a renamed function fails here and not only in traced benchmark runs."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    hooks = tracer.hooks(tracer.Tracer())
    assert hooks
    for target, attr, _ in hooks:
        if isinstance(target, dict):
            assert attr in target, attr
        else:
            assert hasattr(target, attr), f"{target.__name__}.{attr}"


def test_trajectory_csv_writer_round_trip(tmp_path):
    from clfiss import affine_loop, make_partition, sample_solve
    from clfiss.systems import integrator_feedback, integrator_system
    loop = affine_loop(integrator_system(), integrator_feedback())
    traj = sample_solve(loop, make_partition("uniform", 0.5, 0.1),
                        [0.3, -0.2, 0.4])
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back["t"], traj.dense_times)
    assert np.array_equal(back["states"], traj.dense_states)
    assert back["interval_index"][-1] == traj.interval_index[-1]


def test_start_beyond_escape_radius(tmp_path):
    # the run stops at t = 0 before holding any control: one trajectory row
    # whose control cells are nan, and a numerical-failure exit
    doc = {
        "schema": 1,
        "loop": {"system": "scalar", "clf": "scalar_abs",
                 "feedback": "combined", "escape_radius": 1.0},
        "partition": {"kind": "uniform", "step": 0.05},
        "horizon": 1.0,
        "x0": [2.0],
    }
    cfg = write_config(tmp_path, "sim.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["status"]["kind"] == "blowup" and run["status"]["time"] == 0.0
    data = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert np.array_equal(data["t"], [0.0])
    assert np.array_equal(data["states"], [[2.0]])
    assert data["controls"].shape == (1, 1) and np.isnan(data["controls"][0, 0])


def _bad_config(command, **changes):
    """A valid config of the command with some fields replaced."""
    if command == "simulate":
        doc = integrator_simulate_config()
    elif command == "campaign":
        doc = scalar_campaign_config()
    elif command == "euler":
        doc = {"schema": 1, "linear_test": True, "x0": [1.0],
               "base_step": 0.2, "levels": 3, "horizon": 1.0}
    else:
        doc = {"schema": 1, "i_max": 1, "M": 4.0, "N": 1.0, "epsilon": 0.1,
               "x0_values": [0.5], "horizon": 0.1, "step": 0.02}
    for key, value in changes.items():
        if key in ("substeps", "escape_radius"):
            doc["loop"] = dict(doc["loop"], **{key: value})
        else:
            doc[key] = value
    return command, doc


@pytest.mark.parametrize("command, doc", [
    _bad_config("euler", levels=0),
    _bad_config("euler", horizon=0.1),
    _bad_config("weakiss", horizon=0.01),
    _bad_config("simulate", substeps=0),
    _bad_config("simulate", escape_radius=0.0),
    _bad_config("simulate", x0=[1.0, 0.5]),
    _bad_config("euler", x0=[1.0, 0.0]),
    _bad_config("campaign", horizon=1e-6),
    _bad_config("campaign", horizon=0.0, cases={"count": 0},
                adversarial_budget=2),
    _bad_config("campaign", adversarial_budget=-1),
    _bad_config("campaign", cases={"count": 3, "seed": 1, "step_fraction": 0.0}),
    _bad_config("campaign", cases={"count": 3, "seed": 1, "step_fraction": 1.0}),
    _bad_config("simulate", disturbance={"kind": "constant", "value": [0.1]}),
    _bad_config("simulate", noise={"kind": "constant", "value": [0.1, 0.0]}),
    _bad_config("simulate", disturbance={"kind": "piecewise", "bound": -0.5}),
    _bad_config("euler", disturbance={"kind": "constant", "value": [0.1, 0.0]}),
    _bad_config("euler", disturbance={"kind": "piecewise", "bound": -0.5}),
], ids=["euler-no-levels", "euler-horizon-below-step",
        "weakiss-horizon-below-step", "substeps-zero", "escape-radius-zero",
        "simulate-x0-length", "euler-x0-length", "campaign-horizon-below-step",
        "adversarial-horizon-below-step", "adversarial-budget-negative",
        "step-fraction-zero", "step-fraction-one", "disturbance-length",
        "noise-length", "piecewise-bound-negative", "euler-disturbance-length",
        "euler-piecewise-bound-negative"])
def test_rejected_config_values_exit_2(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
