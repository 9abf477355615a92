"""Tests of the benchmark itself: reduced-size workloads pass their checks,
and every check rejects a deliberately perturbed output.

    python3 -m pytest benchmarks/test_benchmark.py
"""
import copy
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import worker

sys.path.insert(0, str(run.ROOT / "src"))

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One small round of each workload, as the worker leaves it on disk."""
    dirs = {}
    for name in run.WORKLOADS:
        out = tmp_path_factory.mktemp(name)
        run.run_worker(name, "run", 3, "small", out)
        dirs[name] = out
    return dirs


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_workload_passes_its_checks(outputs, name):
    verdict = run.check_outputs(name, outputs[name], 3, "small")
    assert verdict.errors == []
    assert verdict.attempted > 0
    if name != "spd-bench":     # spd-bench's matched-OBO misses are known
        assert verdict.failed == 0


def test_untraced_run_reports_every_end_to_end_metric():
    res = run.run("carrier-assign", 3, 0.0, False, size="small")
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["correct"] and res["attempted"] == 3 and res["failed"] == 0


def test_traced_run_reports_every_per_layer_metric():
    res = run.run("forward-link", 3, 0.0, True, size="small")
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert res["correct"]
    cfg = worker.detection_config("small")
    trials = len(cfg["detectors"]) * (cfg["n_mc_calib"]
                                      + cfg["n_mc"] * len(cfg["isnr_grid_db"]))
    assert res["metrics"]["detection.trials"]["value"] == trials
    n_spd = len(worker.spd_config("small")["modes"]) - 1
    # per SPD placement: 12 drives of the search plus one fit per target
    assert res["metrics"]["predistortion.fit_spd.calls"]["value"] == n_spd * 13
    assert res["metrics"]["predistortion.fit_spd.iters"]["value"] == n_spd * 13 * 300


# --------------------------------------------------------- perturbed outputs

def detection_rows(outputs):
    return checks.read_csv(outputs["detection-pd"] / "detection_pd.csv")


@pytest.mark.parametrize("kind", ["ced", "edscp"])
def test_detection_rejects_pd_shifted_by_a_tenth(outputs, kind):
    rows, cfg = detection_rows(outputs), worker.detection_config("small")
    for i, r in enumerate(rows):
        if r["detector"] != kind:
            continue
        bad = copy.deepcopy(rows)
        pd = float(r["pd"])
        n = int(r["n_mc"])
        pd = pd + 0.1 if pd < 0.5 else pd - 0.1
        lo, hi = checks.wilson(round(pd * n), n)
        bad[i].update(pd=repr(round(pd * n) / n), pd_lo=repr(lo), pd_hi=repr(hi))
        assert checks.check_detection(bad, cfg).errors, f"row {i} not rejected"


def test_detection_rejects_wrong_wilson_interval(outputs):
    rows = detection_rows(outputs)
    rows[30]["pd_hi"] = repr(float(rows[30]["pd_hi"]) + 0.01)
    assert checks.check_detection(rows, worker.detection_config("small")).errors


def test_closed_form_pd_is_a_probability_curve():
    grid = np.arange(-14.0, 7.0)
    for kind in ("ced", "edscp"):
        pd = checks.oracle_pd(kind, grid, 6.0, 2.0, 4.0, 0.01)
        assert np.all(np.diff(pd) >= 0) and 0 < pd[0] < 0.02 and pd[-1] > 0.99


def spd_rows_on_target(outputs):
    cfg = worker.spd_config("small")
    rows = checks.read_csv(outputs["spd-bench"] / "spd_bench.csv")
    for i, r in enumerate(rows):
        r["obo_db"] = repr(cfg["obo_grid_db"][i % len(cfg["obo_grid_db"])])
    return rows, cfg


def test_spd_counts_an_obo_two_hundredths_off_as_failed(outputs):
    rows, cfg = spd_rows_on_target(outputs)
    ok = checks.check_spd(rows, cfg["modes"], cfg["obo_grid_db"])
    assert (ok.failed, ok.errors) == (0, [])
    rows[1]["obo_db"] = repr(float(rows[1]["obo_db"]) + 0.02)
    assert checks.check_spd(rows, cfg["modes"], cfg["obo_grid_db"]).failed == 1


def test_spd_rejects_onboard_not_above_no_spd(outputs):
    rows, cfg = spd_rows_on_target(outputs)
    rows[1]["sinr_db"] = rows[0]["sinr_db"]
    assert checks.check_spd(rows, cfg["modes"], cfg["obo_grid_db"]).errors


def forward_case(outputs, k):
    return dict(np.load(outputs["forward-link"] / f"forward_K{k}.npz"))


def test_forward_rejects_wrong_regularisation(outputs):
    case = forward_case(outputs, 71)
    assert checks.check_forward_case(case) == []
    h = case["H"].mean(axis=0)
    cap = float(case["power_cap"])
    raw = np.linalg.solve(h.conj().T @ h + np.eye(h.shape[1]) / (2 * cap), h.conj().T)
    beta = np.sqrt(cap / np.max(np.sum(np.abs(raw) ** 2, axis=1)))
    case.update(W=beta * raw, beta=beta)
    errors = checks.check_forward_case(case)
    assert any("does not solve" in e for e in errors)


def test_forward_rejects_wrong_channel_and_sinr(outputs):
    case = forward_case(outputs, 71)
    case["H"] = case["H"].copy()
    case["H"][0, 3, 5] *= 1.001
    assert any("link budget" in e for e in checks.check_forward_case(case))
    case = forward_case(outputs, 71)
    case["sinr"] = case["sinr"] * (1 + 1e-6)
    assert any("SINR" in e for e in checks.check_forward_case(case))


def test_forward_rejects_cir_not_increasing():
    assert checks.check_forward([], [4.0, 14.0, 24.0, 26.0]).errors == []
    assert checks.check_forward([], [4.0, 24.0, 14.0, 26.0]).errors
    assert checks.check_forward([], [7.0, 14.0, 24.0, 26.0]).errors


def assignment(outputs, name):
    return dict(np.load(outputs["carrier-assign"] / f"assign_{name}.npz"))


@pytest.mark.parametrize("name", ["staircase", "shannon", "tie"])
def test_carrier_rejects_non_optimal_assignment(outputs, name):
    inst = assignment(outputs, name)
    assert checks.check_assignment(inst) == []
    rates, term = inst["rates"], inst["terminal_of"].copy()
    # move carrier 0 to the terminal of lowest rate, giving it the old one
    worst = int(np.argmin(rates[0]))
    other = int(np.nonzero(term == worst)[0][0])
    term[0], term[other] = worst, term[0]
    inst.update(terminal_of=term,
                objective=float(rates[np.arange(len(term)), term].sum()))
    assert any("optimum" in e for e in checks.check_assignment(inst))


def test_carrier_rejects_tied_optimum_that_is_not_lexicographically_first(outputs):
    inst = assignment(outputs, "tie")
    rates = inst["rates"]
    best = checks.optimum(rates)
    lex, _ = checks.lex_smallest_optimum(rates)
    other = next(p for p in itertools.permutations(range(7))
                 if p != lex and abs(rates[np.arange(7), p].sum() - best) < 1e-9)
    inst.update(terminal_of=np.array(other))
    assert any("lexicographically" in e for e in checks.check_assignment(inst))


def test_carrier_rejects_one_to_many_map(outputs):
    inst = assignment(outputs, "staircase")
    term = inst["terminal_of"].copy()
    term[1] = term[0]
    inst["terminal_of"] = term
    assert any("one-to-one" in e for e in checks.check_assignment(inst))


def test_carrier_rejects_staircase_off_the_modcod_table(outputs):
    inst = assignment(outputs, "staircase")
    inst["rates"] = inst["rates"].copy()
    inst["rates"][2, 2] += 0.5
    assert any("mapping" in e for e in checks.check_assignment(inst))


@pytest.mark.parametrize("seed", range(0, 400, 40))
def test_tie_probe_has_tied_optima(seed):
    _, n_optimal = checks.lex_smallest_optimum(worker.tie_probe(seed)["rates"])
    assert n_optimal >= 2
