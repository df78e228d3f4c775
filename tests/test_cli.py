import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from clfiss import write_trajectory_csv
from clfiss.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_trajectory_csv(path) -> dict:
    """A trajectory CSV as arrays keyed t, states, controls, interval_index."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    n = sum(1 for h in header if h.startswith("x"))
    cells = np.array([[float(v) for v in row] for row in rows])
    return {"t": cells[:, 0], "states": cells[:, 1:1 + n],
            "controls": cells[:, 1 + n:-1],
            "interval_index": cells[:, -1].astype(int)}


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


def reference_trajectory_csv(traj, path):
    """The trajectory writer as first written: csv.writer over cells formatted
    one at a time."""
    n, m = traj.dense_states.shape[1], traj.held_controls.shape[1]
    held = traj.held_controls if traj.held_controls.size else np.full((1, m), np.nan)
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"k{j + 1}" for j in range(m)] + ["interval_index"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r, t in enumerate(traj.dense_times):
            i = int(traj.interval_index[r])
            row = ([f"{t:.17g}"] + [f"{v:.17g}" for v in traj.dense_states[r]]
                   + [f"{v:.17g}" for v in held[min(i, len(held) - 1)]] + [str(i)])
            w.writerow(row)


def test_trajectory_csv_bytes_match_csv_writer(tmp_path):
    from clfiss import (Partition, Status, Trajectory, affine_loop,
                        make_partition, sample_solve)
    from clfiss.systems import (integrator_feedback, integrator_system,
                                scalar_integrator_system)
    from clfiss.feedback import zero_feedback
    loop = affine_loop(integrator_system(), integrator_feedback(), substeps=3)
    run = sample_solve(loop, make_partition("jitter", 10.0, 0.05, 0.3, seed=1),
                       [0.3, -0.2, 0.4])
    assert run.dense_times.size > 512   # the writer formats 256 rows at a time
    # stopped before its first interval: one dense row and no held control
    far = sample_solve(affine_loop(scalar_integrator_system(), zero_feedback(1, 1),
                                   escape_radius=1.0),
                       make_partition("uniform", 1.0, 0.1), [2.0])
    assert far.held_controls.shape == (0, 1)
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1, -1.0 / 3.0]
    dense = np.array([special[k:] + special[:k] for k in range(4)])[:, :3]
    odd = Trajectory(Partition(np.array([0.0, 0.5, 1.0])), np.array([0.0, 1.0]),
                     dense[[0, 3]], np.array([0.0, -0.0, 0.5, 1.0]), dense,
                     np.array([[np.nan, -0.0], [np.inf, 1e-17]]),
                     np.array([0, 0, 1, 1]), Status("completed"))
    for traj in (run, far, odd):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectory_csv(traj, got)
        reference_trajectory_csv(traj, want)
        assert got.read_bytes() == want.read_bytes()
    assert b"-0," in got.read_bytes() and b"nan" in got.read_bytes()


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


def test_infinite_escape_radius_is_accepted(tmp_path):
    # JSON Infinity (or --escape-radius inf) turns the escape check off
    command, doc = _bad_config("simulate", escape_radius=math.inf)
    cfg = write_config(tmp_path, "sim.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["status"]["kind"] == "completed"
    assert run["config"]["loop"]["escape_radius"] == math.inf


def _bad_config(command, **changes):
    """A valid config of the command with some fields replaced."""
    if command == "simulate":
        doc = integrator_simulate_config()
    elif command == "campaign":
        doc = scalar_campaign_config()
    elif command == "euler":
        doc = {"schema": 1, "linear_test": True, "x0": [1.0],
               "base_step": 0.2, "levels": 3, "horizon": 1.0}
    elif command == "envelope":
        doc = {"schema": 1, "clf": "scalar_abs", "radius_max": 4.0,
               "grid_size": 16, "radii": 64}
    else:
        doc = {"schema": 1, "i_max": 1, "M": 4.0, "N": 1.0, "epsilon": 0.1,
               "x0_values": [0.5], "horizon": 0.1, "step": 0.02}
    for key, value in changes.items():
        if key in ("substeps", "escape_radius") and "loop" in doc:
            doc["loop"] = dict(doc["loop"], **{key: value})
        else:
            doc[key] = value
    return command, doc


def _counterexample_simulate(**changes):
    """A valid simulate config of the one-state counterexample loop with some
    fields replaced."""
    doc = {"schema": 1, "loop": {"system": "counterexample", "feedback": "zero"},
           "partition": {"kind": "uniform", "step": 0.05}, "horizon": 0.5,
           "x0": [0.5], "disturbance": {"kind": "constant", "value": [0.1]}}
    return "simulate", dict(doc, **changes)


@pytest.mark.parametrize("command, doc", [
    pytest.param(*_bad_config("euler", levels=0), id="euler-no-levels"),
    pytest.param(*_bad_config("euler", horizon=0.1), id="euler-horizon-below-step"),
    pytest.param(*_bad_config("weakiss", horizon=0.01),
                 id="weakiss-horizon-below-step"),
    pytest.param(*_bad_config("simulate", substeps=0), id="substeps-zero"),
    pytest.param(*_bad_config("simulate", escape_radius=0.0), id="escape-radius-zero"),
    pytest.param(*_bad_config("simulate", x0=[1.0, 0.5]), id="simulate-x0-length"),
    pytest.param(*_bad_config("euler", x0=[1.0, 0.0]), id="euler-x0-length"),
    pytest.param(*_bad_config("campaign", horizon=1e-6),
                 id="campaign-horizon-below-step"),
    pytest.param(*_bad_config("campaign", horizon=0.0, cases={"count": 0},
                              adversarial_budget=2),
                 id="adversarial-horizon-below-step"),
    pytest.param(*_bad_config("campaign", adversarial_budget=-1),
                 id="adversarial-budget-negative"),
    pytest.param(*_bad_config("campaign", cases={"count": 3, "seed": 1, "step_fraction": 0.0}),
                 id="step-fraction-zero"),
    pytest.param(*_bad_config("campaign", cases={"count": 3, "seed": 1, "step_fraction": 1.0}),
                 id="step-fraction-one"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "constant", "value": [0.1]}),
                 id="disturbance-length"),
    pytest.param(*_bad_config("simulate", noise={"kind": "constant", "value": [0.1, 0.0]}),
                 id="noise-length"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "piecewise", "bound": -0.5}),
                 id="piecewise-bound-negative"),
    pytest.param(*_bad_config("euler", disturbance={"kind": "constant", "value": [0.1, 0.0]}),
                 id="euler-disturbance-length"),
    pytest.param(*_bad_config("euler", disturbance={"kind": "piecewise", "bound": -0.5}),
                 id="euler-piecewise-bound-negative"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "sine", "amplitude": "big"}),
                 id="sine-amplitude-text"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "sine", "frequency": "fast"}),
                 id="sine-frequency-text"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "sine", "phase": "x"}),
                 id="sine-phase-text"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "sine", "seed": "s"}),
                 id="sine-seed-text"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "piecewise", "bound": "b"}),
                 id="piecewise-bound-text"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "piecewise", "seed": "s"}),
                 id="piecewise-seed-text"),
    pytest.param(*_bad_config("simulate", disturbance={"kind": "piecewise", "seed": -1}),
                 id="piecewise-seed-negative"),
    pytest.param(*_bad_config("campaign", epsilon=0.0), id="campaign-epsilon-zero"),
    pytest.param(*_bad_config("campaign", M=-1.0), id="campaign-M-negative"),
    pytest.param(*_bad_config("campaign", N=-0.1), id="campaign-N-negative"),
    pytest.param(*_bad_config("campaign", cases={"count": -1}),
                 id="cases-count-negative"),
    pytest.param(*_bad_config("euler", envelope={"epsilon": 0.0}),
                 id="euler-envelope-epsilon-zero"),
    pytest.param(*_bad_config("weakiss", epsilon=0.0), id="weakiss-epsilon-zero"),
    pytest.param(*_bad_config("weakiss", i_max=0), id="weakiss-i-max-zero"),
    pytest.param(*_bad_config("envelope", radius_max=-1.0),
                 id="envelope-radius-max-negative"),
    pytest.param(*_bad_config("envelope", overflow=0.0), id="envelope-overflow-zero"),
    pytest.param(*_bad_config("euler", base_step="a"), id="euler-base-step-text"),
    pytest.param(*_bad_config("euler", horizon="a"), id="euler-horizon-text"),
    pytest.param(*_bad_config("euler", levels="a"), id="euler-levels-text"),
    pytest.param(*_bad_config("euler", levels=2.5), id="euler-levels-fraction"),
    pytest.param(*_bad_config("euler", error_exponent="a"),
                 id="euler-error-exponent-text"),
    pytest.param(*_bad_config("weakiss", safety=-1.0), id="weakiss-safety-negative"),
    pytest.param(*_bad_config("weakiss", safety="a"), id="weakiss-safety-text"),
    pytest.param(*_bad_config("weakiss", safety=0.0), id="weakiss-safety-zero"),
    pytest.param(*_bad_config("weakiss", safety=1.5), id="weakiss-safety-above-one"),
    pytest.param(*_bad_config("weakiss", M="a"), id="weakiss-M-text"),
    pytest.param(*_bad_config("weakiss", N="a"), id="weakiss-N-text"),
    pytest.param(*_bad_config("weakiss", x0_values=["a"]), id="weakiss-x0-text"),
    pytest.param(*_bad_config("weakiss", x0_values=0.5), id="weakiss-x0-not-a-list"),
    pytest.param(*_bad_config("campaign", epsilon=50.0),
                 id="campaign-probe-region-empty"),
    pytest.param(*_bad_config("campaign", M="a"), id="campaign-M-text"),
    pytest.param(*_bad_config("campaign", N="a"), id="campaign-N-text"),
    pytest.param(*_bad_config("weakiss", N=-1.0), id="weakiss-N-negative"),
    pytest.param(*_bad_config("campaign", epsilon="a"), id="campaign-epsilon-text"),
    pytest.param(*_bad_config("campaign", horizon="a"), id="campaign-horizon-text"),
    pytest.param(*_bad_config("campaign", cases={"count": 3, "seed": 1, "step_fraction": "a"}),
                 id="step-fraction-text"),
    pytest.param(*_bad_config("campaign", tables={"radius_max": "a"}),
                 id="tables-radius-max-text"),
    pytest.param(*_bad_config("campaign", tables={"radius_max": 10.0, "grid_size": "a"}),
                 id="tables-grid-size-text"),
    pytest.param(*_bad_config("simulate", substeps="a"), id="substeps-text"),
    pytest.param(*_bad_config("simulate", substeps=2.5), id="substeps-fraction"),
    pytest.param(*_bad_config("simulate", partition={"kind": "uniform", "step": "a"}),
                 id="partition-step-text"),
    pytest.param(*_bad_config("simulate", partition={"kind": "jitter", "step": 0.05,
                                                      "fraction": "a"}),
                 id="jitter-fraction-text"),
    pytest.param(*_bad_config("simulate", partition={"kind": "jitter", "step": 0.05,
                                                      "fraction": 0.2, "seed": "s"}),
                 id="jitter-seed-text"),
    pytest.param(*_bad_config("simulate", horizon="a"), id="simulate-horizon-text"),
    pytest.param(*_bad_config("envelope", radius_max="a"),
                 id="envelope-radius-max-text"),
    pytest.param(*_bad_config("envelope", grid_size="a"), id="envelope-grid-size-text"),
    pytest.param(*_bad_config("weakiss", step="a"), id="weakiss-step-text"),
    pytest.param(*_bad_config("weakiss", substeps="a"), id="weakiss-substeps-text"),
    pytest.param(*_bad_config("weakiss", horizon="a"), id="weakiss-horizon-text"),
    pytest.param(*_bad_config("weakiss", epsilon="a"), id="weakiss-epsilon-text"),
    pytest.param(*_bad_config("simulate", escape_radius="a"), id="escape-radius-text"),
    pytest.param(*_bad_config("simulate", escape_radius=math.nan),
                 id="escape-radius-nan"),
    pytest.param(*_bad_config("envelope", radii="a"), id="envelope-radii-text"),
    pytest.param(*_bad_config("envelope", directions="a"),
                 id="envelope-directions-text"),
    pytest.param(*_bad_config("campaign", tables={"radius_max": 10.0, "radii": "a"}),
                 id="tables-radii-text"),
    pytest.param(*_bad_config("campaign", tables={"radius_max": 10.0, "directions": "a"}),
                 id="tables-directions-text"),
    pytest.param(*_bad_config("envelope", overflow="a"), id="envelope-overflow-text"),
    pytest.param(*_bad_config("envelope", query={"M": "a", "N": 0.1}),
                 id="query-M-text"),
    pytest.param(*_bad_config("envelope", query={"M": 1.0, "N": "a"}),
                 id="query-N-text"),
    pytest.param(*_bad_config("envelope", query={"M": 1.0, "N": 0.1, "t": "a"}),
                 id="query-t-text"),
    pytest.param(*_bad_config("campaign", guard={"points": "a"}),
                 id="guard-points-text"),
    pytest.param(*_bad_config("campaign", guard={"pairs": "a"}), id="guard-pairs-text"),
    pytest.param(*_bad_config("campaign", guard={"inflation": "a"}),
                 id="guard-inflation-text"),
    pytest.param(*_bad_config("campaign", guard={"seed": "a"}), id="guard-seed-text"),
    pytest.param(*_bad_config("campaign", cases={"count": 3, "seed": "a"}),
                 id="cases-seed-text"),
    pytest.param(*_bad_config("euler", envelope={"epsilon": "a"}),
                 id="euler-envelope-epsilon-text"),
    pytest.param(*_bad_config("euler", envelope={"epsilon": 0.1, "u_bound": "a"}),
                 id="euler-envelope-u-bound-text"),
    pytest.param(*_bad_config("euler", envelope={"epsilon": 0.1, "top": "a"}),
                 id="euler-envelope-top-text"),
    pytest.param(*_bad_config("simulate", decrease={"s_level": "a"}),
                 id="decrease-s-level-text"),
    pytest.param(*_bad_config("simulate", decrease={"rel_tol": "a"}),
                 id="decrease-rel-tol-text"),
    pytest.param(*_bad_config("simulate", decrease={"abs_tol": "a"}),
                 id="decrease-abs-tol-text"),
    pytest.param(*_bad_config("envelope", radii=1), id="envelope-radii-one"),
    pytest.param(*_bad_config("campaign", tables={"radius_max": 10.0, "radii": 0}),
                 id="tables-radii-zero"),
    pytest.param(*_bad_config("euler", envelope={"epsilon": 0.1, "top": 0.0}),
                 id="euler-envelope-top-zero"),
    pytest.param(*_bad_config("envelope", query={"M": -1.0, "N": 0.1}),
                 id="query-M-negative"),
    pytest.param(*_bad_config("envelope", query={"M": 1.0, "N": -0.5}),
                 id="query-N-negative"),
    pytest.param(*_bad_config("envelope", query={"M": 1.0, "N": 0.1, "t": -1.0}),
                 id="query-t-negative"),
    pytest.param(*_bad_config("campaign", guard={"pairs": 0}), id="guard-pairs-zero"),
    pytest.param(*_bad_config("euler", envelope={"epsilon": 0.1, "u_bound": -1.0}),
                 id="euler-envelope-u-bound-negative"),
    pytest.param(*_bad_config("simulate", decrease={"rel_tol": -1.0}),
                 id="decrease-rel-tol-negative"),
    pytest.param(*_bad_config("simulate", decrease={"abs_tol": -1.0}),
                 id="decrease-abs-tol-negative"),
    pytest.param(*_counterexample_simulate(x0=[math.nan]), id="x0-nan"),
    pytest.param(*_counterexample_simulate(x0=[math.inf]), id="x0-infinity"),
    pytest.param(*_counterexample_simulate(disturbance={"kind": "constant",
                                                        "value": [math.nan]}),
                 id="constant-value-nan"),
    pytest.param(*_counterexample_simulate(x0=[True]), id="x0-true"),
    pytest.param(*_counterexample_simulate(disturbance={"kind": "constant", "value": [True]}),
                 id="constant-value-true"),
    pytest.param(*_bad_config("euler", x0=[math.nan]), id="euler-x0-nan"),
    pytest.param(*_counterexample_simulate(x0=[10 ** 400]), id="x0-int-too-large"),
    pytest.param(*_counterexample_simulate(partition={"kind": "uniform",
                                                      "step": 10 ** 400}),
                 id="partition-step-int-too-large"),
    pytest.param(*_bad_config("simulate", loop=3), id="loop-number"),
    pytest.param(*_bad_config("simulate", partition=3), id="partition-number"),
    pytest.param(*_bad_config("simulate", disturbance=3), id="disturbance-number"),
    pytest.param(*_bad_config("campaign", cases=3), id="cases-number"),
    pytest.param(*_bad_config("simulate", decrease=None), id="decrease-null"),
    pytest.param(*_bad_config("campaign", guard=None), id="guard-null"),
    pytest.param(*_bad_config("campaign", tables=None), id="tables-null"),
    pytest.param(*_bad_config("simulate", loop={"system": ["integrator"],
                                                "feedback": "explicit"}),
                 id="loop-system-list"),
    pytest.param(*_bad_config("simulate", loop={"system": "integrator",
                                                "clf": ["integrator_max"],
                                                "feedback": "explicit"}),
                 id="loop-clf-list"),
    pytest.param(*_bad_config("simulate", loop={"system": "integrator",
                                                "feedback": "explicit",
                                                "monitor_domain": "no"}),
                 id="monitor-domain-text"),
    pytest.param(*_bad_config("campaign", cases={"count": 3, "seed": 1,
                                                 "include_inadmissible": "yes"}),
                 id="include-inadmissible-text"),
    pytest.param(*_bad_config("euler", linear_test=1), id="linear-test-number"),
    pytest.param(*_bad_config("simulate", schema=1.0), id="schema-fraction"),
    pytest.param(*_bad_config("euler", base_step=1e300, horizon=1e301),
                 id="euler-noise-overflow"),
    pytest.param(*_bad_config("weakiss", M=1e308), id="weakiss-M-too-large"),
])
def test_rejected_config_values_exit_2(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]   # no artefact


def test_overlong_integer_literal_exit_2(tmp_path, capsys):
    # Python's int() refuses a literal of more than 4300 digits
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1, "x0": [' + "9" * 5000 + "]}")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "envelope", "campaign", "euler",
                                     "weakiss"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "cfg.json", _bad_config(command)[1])
    assert main([command, "--config", cfg, "--out", str(tmp_path),
                 "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]   # no artefact


@pytest.mark.parametrize("command", ["simulate", "envelope", "campaign", "euler",
                                     "weakiss"])
def test_config_directory_exit_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()   # no artefact


def test_nulls_keep_their_meaning(tmp_path):
    # a null disturbance or noise is the zero signal, a null or empty clf is
    # no clf, and run.json records the config as given, defaults left out
    plain = write_config(tmp_path, "plain.json", integrator_simulate_config())
    assert main(["simulate", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
    want = (tmp_path / "plain" / "trajectory.csv").read_bytes()
    for clf in (None, ""):
        doc = dict(integrator_simulate_config(), disturbance=None, noise=None)
        doc["loop"] = dict(doc["loop"], clf=clf)
        out = tmp_path / f"clf-{clf}"
        cfg = write_config(tmp_path, "nulls.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").read_bytes() == want
        run = json.loads((out / "run.json").read_text())
        assert run["config"] == doc and "decrease" not in run
