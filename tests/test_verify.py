import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest

import clfiss.cli as cli
from clfiss import (BLOWUP, COMPLETED, LEFT_DOMAIN, NUMERICAL_FAILURE,
                    AlphaTables, Campaign, CampaignCase, ClosedLoop, Feedback,
                    RateGuard, adversarial_search, affine_loop, build_envelope,
                    constant_signal, decrease_check, lower_diameter, make_cases,
                    make_partition, nonlinear_loop, run_campaign,
                    sample_solve_batch, sine_signal, zero_feedback, zero_signal)
from clfiss.systems import (cone_margin, counterexample_system,
                            integrator_feedback, integrator_max_clf,
                            integrator_system, scalar_abs_clf)
from clfiss.verify import random_cases, random_disturbance


def contraction_loop(substeps=4):
    fb = Feedback(1, 1, lambda x: -np.atleast_1d(np.asarray(x, float)))
    return ClosedLoop(1, 1, lambda x, p, u: p, fb, substeps)


def loose_guard(delta=0.05, kappa=1e-3, eps=0.05, M=1.0, N=0.0):
    return RateGuard(delta, kappa, eps, M, N, 0.1, 1.0, 1.1, 1.0, 0.0, 1.0,
                     1.0, eps / 2.0, 0.0, 0.1)


def scalar_campaign(eps=0.05, cases=None, **kw):
    loop = contraction_loop()
    env = build_envelope(AlphaTables.identity(10.0), eps)
    guard = loose_guard(eps=eps)
    if cases is None:
        part = make_partition("uniform", 3.0, 0.01)
        cases = [CampaignCase(np.array([1.0]), zero_signal(1), zero_signal(1),
                              part, "contraction")]
    return Campaign(loop, env, guard, cases, M=1.0, N=0.0, **kw)


class TestCampaignValidation:
    def test_x0_bound_enforced(self):
        part = make_partition("uniform", 1.0, 0.01)
        case = CampaignCase(np.array([2.0]), zero_signal(1), zero_signal(1), part)
        with pytest.raises(ValueError):
            scalar_campaign(cases=[case])

    def test_disturbance_bound_enforced(self):
        part = make_partition("uniform", 1.0, 0.01)
        case = CampaignCase(np.array([0.5]), constant_signal([0.5]),
                            zero_signal(1), part)
        with pytest.raises(ValueError):
            scalar_campaign(cases=[case])

    def test_decrease_check_needs_clf(self):
        with pytest.raises(ValueError, match="check_decrease needs a clf"):
            scalar_campaign(check_decrease=True)
        scalar_campaign(check_decrease=True, clf=scalar_abs_clf())

    def test_inadmissible_must_be_tagged(self):
        part = make_partition("uniform", 1.0, 0.5)   # coarser than guard.delta
        case = CampaignCase(np.array([0.5]), zero_signal(1), zero_signal(1), part)
        with pytest.raises(ValueError):
            scalar_campaign(cases=[case])
        tagged = CampaignCase(np.array([0.5]), zero_signal(1), zero_signal(1),
                              part, "negative", assert_envelope=False)
        campaign = scalar_campaign(cases=[tagged])
        report = run_campaign(campaign)
        assert report.rows[0]["asserted"] is False
        assert report.rows[0]["pass"] is None
        assert report.all_passed


class TestRunCampaign:
    def test_all_zero_case_margin_at_least_overflow(self):
        part = make_partition("uniform", 2.0, 0.01)
        case = CampaignCase(np.zeros(1), zero_signal(1), zero_signal(1), part)
        report = run_campaign(scalar_campaign(cases=[case]))
        assert report.all_passed
        assert report.rows[0]["margin_additive"] >= 0.05

    def test_contraction_passes_identity_envelope(self):
        report = run_campaign(scalar_campaign())
        assert report.all_passed
        assert report.summary["failed"] == 0
        # oracle: e^{-t} <= 16/(16+t) pointwise
        t = np.linspace(0, 3, 100)
        assert np.all(np.exp(-t) <= 16.0 / (16.0 + t))

    def test_determinism(self):
        a = json.dumps(run_campaign(scalar_campaign()).to_json())
        b = json.dumps(run_campaign(scalar_campaign()).to_json())
        assert a == b

    def test_grid_independence_of_passing_margin(self):
        report = run_campaign(scalar_campaign())
        row = report.rows[0]
        assert row["pass"]
        assert row["margin_additive_fine"] >= -1e-6

    def test_enlarging_overflow_never_breaks_a_pass(self):
        r1 = run_campaign(scalar_campaign(eps=0.05))
        r2 = run_campaign(scalar_campaign(eps=0.10))
        passed1 = [r["pass"] for r in r1.rows]
        passed2 = [r["pass"] for r in r2.rows]
        for a, b in zip(passed1, passed2):
            if a:
                assert b

    def test_blowup_case_fails(self):
        sysc = counterexample_system()
        loop = nonlinear_loop(sysc, zero_feedback(1, 1))
        env = build_envelope(AlphaTables.identity(10.0), 0.05)
        guard = loose_guard(M=4.0, N=1.0)
        part = make_partition("uniform", 0.5, 0.01)
        case = CampaignCase(np.array([4.0]), constant_signal([1.0]),
                            zero_signal(1), part, "blowup")
        campaign = Campaign(loop, env, guard, [case], M=4.0, N=1.0)
        report = run_campaign(campaign)
        assert not report.all_passed
        assert report.rows[0]["status"] == "blowup"

    def test_decrease_summary_attached(self):
        campaign = scalar_campaign(cases=None, check_decrease=True,
                                   clf=scalar_abs_clf())
        row = run_campaign(campaign).rows[0]
        assert "decrease" in row
        assert row["decrease"]["violations"] == 0


def mixed_campaign():
    """Seven admissible random cases, then one inadmissible tagged case."""
    guard = loose_guard(N=0.2)
    loop = contraction_loop()
    cases = make_cases(loop, guard, M=1.0, N=0.2, count=7, horizon=1.0, seed=3)
    cases.append(CampaignCase(np.array([0.3]), zero_signal(1), constant_signal([1e-3]),
                              make_partition("uniform", 1.0, 2.0 * guard.delta),
                              "coarse", assert_envelope=False))
    return Campaign(loop, build_envelope(AlphaTables.identity(10.0), 0.05),
                    guard, cases, M=1.0, N=0.2)


@contextlib.contextmanager
def blocks_of(monkeypatch, intervals, loop):
    """Lockstep blocks of intervals intervals of loop (None: the default)."""
    with monkeypatch.context() as m:
        if intervals is not None:
            m.setattr("clfiss.sampler.BLOCK", intervals * loop.substeps)
        yield


def block_reports(monkeypatch, campaign, intervals):
    """The campaign's report alone and with 6 adversarial trials (seed 2),
    and adversarial_search's dict on those trials, as text, stepped in
    blocks of intervals intervals (None: the default)."""
    with blocks_of(monkeypatch, intervals, campaign.loop):
        both = run_campaign(campaign, 6, 2)
        reports = [run_campaign(campaign).to_json(), both.to_json(), both.adversarial,
                   adversarial_search(campaign, budget=6, seed=2)]
    return [json.dumps(r) for r in reports]


@pytest.mark.parametrize("intervals", [1, 2, 3, None], ids=["1", "2", "3", "default"])
def test_reports_do_not_depend_on_batching(monkeypatch, intervals):
    # blocks of 1, 2 and 3 intervals and the default: the bytes of one block
    # over the whole run (the cap of the block)
    campaign = mixed_campaign()
    assert (block_reports(monkeypatch, campaign, intervals)
            == block_reports(monkeypatch, campaign, 10 ** 9))


def test_reports_do_not_depend_on_case_order():
    # shuffled cases give the shuffled rows, byte for byte apart from their
    # ids, and the same summary and worst adversarial trial
    campaign = mixed_campaign()
    order = np.random.default_rng(5).permutation(len(campaign.cases))
    assert order[-1] != len(campaign.cases) - 1   # the tagged case moves
    shuffled = dataclasses.replace(campaign, cases=[campaign.cases[k] for k in order])
    want, got = run_campaign(campaign, 6, 2), run_campaign(shuffled, 6, 2)

    def text(row):
        return json.dumps({key: v for key, v in row.items() if key != "id"})

    assert [text(row) for row in got.rows] == [text(want.rows[k]) for k in order]
    assert json.dumps(got.summary) == json.dumps(want.summary)
    assert json.dumps(got.adversarial) == json.dumps(want.adversarial)


def reference_margins(c, case, traj):
    """The campaign's margins of a case (additive, max form, additive on the
    refined grid, first violation time), every envelope term taken from
    IssEnvelope.additive_bound and bound."""
    env, t = c.envelope, traj.dense_times
    with np.errstate(over="ignore"):   # an escaping state's norm may overflow
        norms = traj.norms()
    x0n = float(np.linalg.norm(case.x0))
    add = env.additive_bound(x0n, c.N, t) - norms
    max_margins = env.bound(c.M, c.N, t) - norms
    tm, nm = 0.5 * (t[:-1] + t[1:]), 0.5 * (norms[:-1] + norms[1:])
    fine = min(float(np.min(add)), float(np.min(
        env.additive_bound(x0n, c.N, tm) - nm, initial=math.inf)))
    firsts = [float(t[np.argmax(m < 0.0)]) for m in (add, max_margins)
              if np.any(m < 0.0)]
    return (float(np.min(add)), float(np.min(max_margins)), fine,
            min(firsts) if firsts else None)


def reference_campaign(c, budget, seed, horizon):
    """run_campaign(c, budget, seed, horizon)'s report (to_json) and
    adversarial dict from two lockstep batches: every case in one
    sample_solve_batch call, every adversarial trial in another, and each
    case's decrease from decrease_check."""
    def solve(cases):
        return sample_solve_batch(c.loop, [k.partition for k in cases],
                                  [k.x0 for k in cases], [k.u for k in cases],
                                  [k.e for k in cases])

    rows, failed, worst = [], 0, math.inf
    for k, (case, traj) in enumerate(zip(c.cases, solve(c.cases))):
        add_m, max_m, fine_m, first = reference_margins(c, case, traj)
        ok = None
        if case.assert_envelope:
            ok = (traj.status.kind not in (BLOWUP, NUMERICAL_FAILURE)
                  and add_m >= 0.0 and max_m >= 0.0)
            failed += not ok
            worst = min(worst, add_m)
        rows.append({"id": k, "label": case.label, "status": traj.status.kind,
                     "asserted": case.assert_envelope,
                     "worst_margin": min(add_m, max_m), "margin_additive": add_m,
                     "margin_maxform": max_m, "margin_additive_fine": fine_m,
                     "first_violation_t": first, "pass": ok})
        if c.check_decrease:
            rep = decrease_check(traj, c.clf, c.guard, c.s_level)
            rows[-1]["decrease"] = {"checked": rep.checked, "excluded": rep.excluded,
                                    "violations": len(rep.violations)}
    summary = {"total": len(c.cases),
               "asserted": sum(k.assert_envelope for k in c.cases),
               "failed": failed,
               "worst_margin": None if worst == math.inf else worst}

    trials = list(random_cases(c.loop, c.guard, c.M, c.N, budget, horizon,
                               np.random.default_rng(seed), (0.05, 1.0),
                               (0.3, 0.9)))
    found = {"violation_margin": -math.inf, "case": None, "status": None}
    for k, ((case, step, kind), traj) in enumerate(
            zip(trials, solve([case for case, _, _ in trials]))):
        if traj.status.kind in (BLOWUP, NUMERICAL_FAILURE):
            viol = math.inf
        else:
            viol = -reference_margins(c, case, traj)[0]
        if viol > found["violation_margin"]:
            found = {"violation_margin": viol,
                     "case": {"x0": case.x0.tolist(), "step": step,
                              "disturbance": kind, "e_bound": case.e.bound,
                              "index": k},
                     "status": traj.status.kind}
    return {"cases": rows, "summary": summary}, found


CLI_CAMPAIGN = {
    "schema": 1,
    "loop": {"system": "scalar", "clf": "scalar_abs", "feedback": "combined",
             "substeps": 4},
    "M": 1.0, "N": 0.1, "epsilon": 0.25, "horizon": 0.25,
    "tables": {"radius_max": 10.0, "radii": 2001, "grid_size": 64},
    "cases": {"count": 3, "seed": 1, "include_inadmissible": True},
    "guard": {"points": 512, "pairs": 800},
    "adversarial_budget": 4,
}


def run_cli_campaign(tmp_path, monkeypatch, name):
    """Run CLI_CAMPAIGN at --seed 0; return the Campaign the CLI built and
    the text of its campaign.json."""
    built = []
    real = cli.run_campaign

    def spy(c, *args):
        built.append(c)
        return real(c, *args)

    monkeypatch.setattr(cli, "run_campaign", spy)
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps(CLI_CAMPAIGN))
    out = tmp_path / name
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(out),
                     "--seed", "0"]) == 0
    return built[0], (out / "campaign.json").read_text()


@pytest.mark.parametrize("split", ["1", "2", "3", "default", "at-boundary",
                                   "straddling"])
def test_campaign_json_matches_two_batch_reference(tmp_path, monkeypatch, split):
    # cases and trials step in one lockstep batch, folded block by block;
    # whatever the blocks, campaign.json holds the bytes of the two-batch
    # reference
    c, _ = run_cli_campaign(tmp_path, monkeypatch, "probe")
    budget, horizon = CLI_CAMPAIGN["adversarial_budget"], CLI_CAMPAIGN["horizon"]
    trials = random_cases(c.loop, c.guard, c.M, c.N, budget, horizon,
                          np.random.default_rng(0), (0.05, 1.0), (0.3, 0.9))
    lengths = [k.partition.intervals for k in c.cases]
    assert len(lengths) == 4 and next(trials)[0].partition.intervals > max(lengths)
    intervals = {"1": 1, "2": 2, "3": 3, "default": None,
                 # the longest cases end with the first block, the trials run on
                 "at-boundary": max(lengths),
                 # they end one interval before the first block does
                 "straddling": max(lengths) + 1}[split]
    if intervals is not None:
        monkeypatch.setattr("clfiss.sampler.BLOCK", intervals * c.loop.substeps)
    c, text = run_cli_campaign(tmp_path, monkeypatch, split)
    report, found = reference_campaign(c, budget, 0, horizon)
    doc = json.loads(text)
    assert doc["adversarial"]["case"] is not None
    assert text == json.dumps(dict(doc, **report, adversarial=found), indent=2)


def stop_campaigns():
    """Four campaigns, none asserted, whose rows escape, turn nonfinite or
    leave the CLF estimate region, or whose refined grid binds; the first
    and the third check the decrease, the first also on a partition too
    coarse for the guard."""

    def campaign(loop, rows, clf=None):
        cases = [CampaignCase(np.array(x0), u or zero_signal(loop.m),
                              e or zero_signal(loop.n), part, f"row-{k}", False)
                 for k, (part, x0, u, e) in enumerate(rows)]
        M = max(float(np.linalg.norm(k.x0)) for k in cases)
        N = max(k.u.bound for k in cases)
        return Campaign(loop, build_envelope(AlphaTables.identity(100.0), 0.05),
                        loose_guard(M=M, N=N), cases, M, N, clf, clf is not None)

    # dx = -x + x^2 escapes past radius 50 from 4.1, 4.2 and 4.3 in its 13th
    # interval, and from 60 at the start
    one, part = constant_signal([1.0]), make_partition("uniform", 0.5, 0.02)
    counter = campaign(
        nonlinear_loop(counterexample_system(), zero_feedback(1, 1), 4, 50.0),
        [(part, [x0], one, None) for x0 in (4.1, 4.2, 4.3, 60.0, 0.5)]
        + [(make_partition("uniform", 0.5, 0.1), [0.5], one, None)], scalar_abs_clf())
    # dx1 = x1^2 + held turns nonfinite from 10; the norm of x2 overflows
    fb = Feedback(2, 1, lambda x: -0.5 * np.asarray(x, dtype=float)[..., :1])

    def F(x, p, u):
        return np.stack([x[..., 0] * x[..., 0] + p[..., 0], 100.0 * x[..., 1]], axis=-1)

    part = make_partition("uniform", 0.3, 0.02)
    blowing = campaign(ClosedLoop(2, 1, F, fb, 4, 1e300), [
        (part, [10.0, 0.0], None, constant_signal([1e-3, 0.0])),
        (part, [0.0, 1e152], None, None), (part, [-1.0, -1e-3], None, None)])
    # crossing the cone under the monitor, one row after its noisy sample
    # does, one before it escapes past radius 3
    monitored = campaign(
        affine_loop(integrator_system(), integrator_feedback(), 2, 3.0, cone_margin), [
            (make_partition("uniform", 1.0, 0.05), [1.0, 0.0, 1.0], None,
             sine_signal([0.0, 0.0, 1.0], 0.5, 2.0)),
            (make_partition("uniform", 1.0, 0.01), [0.05, 0.0, 1.0],
             constant_signal([20.0, 0.0]), None),
            (make_partition("jitter", 1.2, 0.015, 0.4, seed=4), [-0.7, 0.4, 0.3], None,
             constant_signal([1e-4, 0.0, 0.0]))], integrator_max_clf())
    # dx = -x^2 / 16 from 1 tracks beta(1, t) = 16 / (16 + t), so the margin
    # is least at an interval's midpoint, where the envelope is convex
    tracking = campaign(ClosedLoop(1, 1, lambda x, p, u: p - x * x / 16.0,
                                   zero_feedback(1, 1), 1),
                        [(make_partition("uniform", 2.0, 0.1), [1.0], None, None)])
    return [counter, blowing, monitored, tracking]


@pytest.mark.parametrize("intervals", [1, 2, 3, None], ids=["1", "2", "3", "default"])
def test_stopped_rows_fold_as_their_trajectories(monkeypatch, intervals):
    # in blocks of 1, 2 and 3 intervals and the default, each report holds
    # the bytes of the reference built from the rows' trajectories; every
    # status kind, both sides of the decrease check and a binding refined
    # grid show
    kinds, excluded = set(), set()
    for c in stop_campaigns():
        with blocks_of(monkeypatch, intervals, c.loop):
            text = json.dumps(run_campaign(c).to_json())
        report, _ = reference_campaign(c, 0, 0, 1.0)
        assert text == json.dumps(report)
        kinds |= {row["status"] for row in report["cases"]}
        excluded |= {row["decrease"]["excluded"] for row in report["cases"]
                     if "decrease" in row}
    assert kinds == {COMPLETED, BLOWUP, NUMERICAL_FAILURE, LEFT_DOMAIN}
    assert excluded == {True, False}
    row = report["cases"][0]
    assert row["margin_additive_fine"] < row["margin_additive"]


@pytest.mark.parametrize("top, N, alpha4", [
    (0.5, 0.2, None),                      # |x0| and M beyond the tables
    (10.0, 0.0, None),                     # gamma(0)
    (10.0, 0.2, lambda s: 3.0 * s + 0.1),  # gamma through alpha4
], ids=["saturated", "N-zero", "alpha4"])
def test_margins_match_envelope_reference(top, N, alpha4):
    # the campaign inverts M, gamma(N) and each |x0| once; its margins are
    # bit for bit those of additive_bound and bound
    guard = loose_guard(N=N)
    loop = contraction_loop()
    cases = make_cases(loop, guard, M=1.0, N=N, count=5, horizon=1.0, seed=4)
    env = build_envelope(AlphaTables.identity(top), 0.05, alpha4)
    campaign = Campaign(loop, env, guard, cases, M=1.0, N=N)
    if top < 1.0:
        assert max(np.linalg.norm(k.x0) for k in cases) > top
    report = run_campaign(campaign, 3, 7, 1.0)
    want = reference_campaign(campaign, 3, 7, 1.0)
    assert json.dumps((report.to_json(), report.adversarial)) == json.dumps(want)
    assert json.dumps(adversarial_search(campaign, 3, 7, 1.0)) == json.dumps(want[1])


class TestAdversarialSearch:
    def test_contraction_finds_no_violation(self):
        campaign = scalar_campaign()
        worst = adversarial_search(campaign, budget=8, seed=0, horizon=2.0)
        assert worst["violation_margin"] < 0.0

    def test_blowup_loop_found(self):
        sysc = counterexample_system()
        loop = nonlinear_loop(sysc, zero_feedback(1, 1))
        env = build_envelope(AlphaTables.identity(10.0), 0.05)
        guard = loose_guard(delta=0.05, M=4.0, N=1.0)
        campaign = Campaign(loop, env, guard, [], M=4.0, N=1.0)
        worst = adversarial_search(campaign, budget=20, seed=1, horizon=2.0)
        assert worst["violation_margin"] == math.inf
        assert worst["status"] == "blowup"

    def test_budget_one(self):
        campaign = scalar_campaign()
        worst = adversarial_search(campaign, budget=1, seed=5, horizon=1.0)
        assert worst["case"] is not None

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            adversarial_search(scalar_campaign(), budget=0)


# ---------------------------------------------------------------------------
# Draw sequences of the case generator
# ---------------------------------------------------------------------------

def reference_noise(dim, bound, rng):
    """The cases' noise draw as first written: a constant signal of norm bound
    along a normalised normal draw."""
    if bound == 0.0:
        return zero_signal(dim)
    d = rng.normal(size=dim)
    return constant_signal(bound * d / np.linalg.norm(d))


def reference_make_cases(n, m, guard, M, N, count, horizon, seed,
                         step_fraction=0.9):
    """make_cases' draws as first written: (x0, step, kind, u, e) per case."""
    rng = np.random.default_rng(seed)
    step = step_fraction * guard.delta
    out = []
    for k in range(count):
        d = rng.normal(size=n)
        x0 = rng.uniform(0.1, 1.0) * M * d / np.linalg.norm(d)
        part = make_partition("uniform", horizon, step)
        kind = ("piecewise", "constant", "sine")[k % 3]
        u = random_disturbance(kind, m, N, part, rng)
        e_bound = 0.99 * guard.kappa * lower_diameter(part) * rng.uniform(0.0, 1.0)
        out.append((x0, step, kind, u, reference_noise(n, e_bound, rng)))
    return out


def reference_adversarial_draws(n, m, guard, M, N, budget, horizon, seed):
    """adversarial_search's draws as first written: (x0, step, kind, u, e)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(budget):
        d = rng.normal(size=n)
        x0 = rng.uniform(0.05, 1.0) * M * d / np.linalg.norm(d)
        step = rng.uniform(0.3, 0.9) * guard.delta
        part = make_partition("uniform", horizon, step)
        kind = ("piecewise", "constant", "sine")[k % 3]
        u = random_disturbance(kind, m, N, part, rng)
        e = reference_noise(n, 0.99 * guard.kappa * lower_diameter(part)
                            * rng.uniform(0, 1), rng)
        out.append((x0, step, kind, u, e))
    return out


def plane_loop():
    fb = Feedback(2, 2, lambda x: -np.asarray(x, float))
    return ClosedLoop(2, 2, lambda x, p, u: p + u, fb, 2)


def assert_same_case(case, step, kind, ref):
    x0, ref_step, ref_kind, u, e = ref
    assert case.x0.tobytes() == x0.tobytes()
    assert step == ref_step and kind == ref_kind
    assert case.e.bound == e.bound
    assert case.e.eval(0.0).tobytes() == e.eval(0.0).tobytes()
    for t in (0.0, 0.0123, 0.2):
        assert case.u.eval(t).tobytes() == u.eval(t).tobytes()


class TestCaseGenerator:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("N", [0.0, 0.2])
    def test_make_cases_draws(self, seed, N):
        loop, guard = plane_loop(), loose_guard(M=2.0, N=N)
        cases = make_cases(loop, guard, 2.0, N, 7, 0.3, seed)
        refs = reference_make_cases(2, 2, guard, 2.0, N, 7, 0.3, seed)
        for k, (case, ref) in enumerate(zip(cases, refs)):
            assert_same_case(case, ref[1], ref[2], ref)
            assert case.label == f"{ref[2]}-{k}"
            assert np.array_equal(case.partition.times,
                                  make_partition("uniform", 0.3, ref[1]).times)
        assert len(cases) == len(refs)

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_adversarial_draws(self, seed):
        loop, guard = plane_loop(), loose_guard(M=2.0, N=0.2)
        refs = reference_adversarial_draws(2, 2, guard, 2.0, 0.2, 7, 0.3, seed)
        trials = list(random_cases(loop, guard, 2.0, 0.2, 7, 0.3,
                                   np.random.default_rng(seed), (0.05, 1.0),
                                   (0.3, 0.9)))
        assert len(trials) == len(refs)
        for (case, step, kind), ref in zip(trials, refs):
            assert_same_case(case, step, kind, ref)

        env = build_envelope(AlphaTables.identity(10.0), 0.05)
        campaign = Campaign(loop, env, guard, [], M=2.0, N=0.2)
        worst = adversarial_search(campaign, budget=7, seed=seed, horizon=0.3)
        x0, step, kind, _, e = refs[worst["case"]["index"]]
        assert worst["case"]["x0"] == x0.tolist()
        assert worst["case"]["step"] == step
        assert worst["case"]["disturbance"] == kind
        assert worst["case"]["e_bound"] == e.bound
