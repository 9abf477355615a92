"""satkit benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all          # every workload, a table

Each workload runs in fresh worker processes, one at a time. An untraced
run (``--trace 0``) repeats whole rounds of the workload, each in a new
worker, until ``--seconds`` have passed, adds import-only workers until
it has MIN_SETUPS set-up samples, and reports the median of each
end-to-end metric. A traced run (``--trace 1``) runs every workload once
with spans around satkit's public functions and reports the per-layer
metrics, plus one untraced round of the named workload to measure the
tracing overhead. After every round the outputs are checked against
independent computations (checks.py), outside the timed interval. The
last line of standard output is one JSON object.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = tuple(worker.WORKLOADS)
MIN_SETUPS = 3
WORKER_TIMEOUT_S = 170
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, mode: str, seed: int, size: str, out: Path) -> dict:
    """Start one worker, wait for it, and return its result.json."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, mode, str(out),
           repr(time.monotonic()), str(seed), size]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker ({mode}) exited with "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((out / "result.json").read_text())


def check_outputs(workload: str, out: Path, seed: int, size: str) -> checks.Verdict:
    if workload == "detection-pd":
        rows = checks.read_csv(out / "detection_pd.csv")
        return checks.check_detection(rows, worker.detection_config(size))
    if workload == "spd-bench":
        cfg = worker.spd_config(size)
        rows = checks.read_csv(out / "spd_bench.csv")
        return checks.check_spd(rows, cfg["modes"], cfg["obo_grid_db"])
    if workload == "forward-link":
        cases = [dict(np.load(out / f"forward_K{k}.npz"))
                 for k in worker.SIZES[size]["forward-link"]["ks"]]
        return checks.check_forward(cases, json.loads((out / "cir.json").read_text()))
    names = [inst[0] for inst in worker.carrier_instances(size)] + ["tie"]
    return checks.check_carrier([dict(np.load(out / f"assign_{n}.npz"))
                                 for n in names])


def round_of(workload, mode, seed, size, out):
    """One worker round plus the checks of its outputs."""
    result = run_worker(workload, mode, seed, size, out)
    return result, check_outputs(workload, out, seed, size)


def measure(workload: str, seed: int, seconds: float, size: str, out: Path) -> dict:
    """Untraced run: medians of the end-to-end metrics over whole rounds.

    Rounds repeat until ``seconds`` have passed since the run started,
    checks included. Import-only workers then top the set-up samples up
    to MIN_SETUPS when there were fewer rounds.
    """
    start = time.monotonic()
    rounds, verdict = [], checks.Verdict()
    while not rounds or time.monotonic() - start < seconds:
        result, v = round_of(workload, "run", seed, size, out)
        rounds.append(result)
        verdict = verdict.add(v)
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, "setup", seed, size, out)["setup_s"])
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return {"verdict": verdict, "rounds": rounds, "setups": setups,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def per_layer(traced: dict, size: str, obo_errors: list, overhead_s: float) -> dict:
    """Per-layer metrics from the traced round of every workload."""
    self_s, calls, counts = {}, {}, {}
    for result in traced.values():
        for key, table in (("self_s", self_s), ("calls", calls), ("counts", counts)):
            for name, value in result[key].items():
                table[name] = table.get(name, 0) + value
    detection_s = sum(v for k, v in self_s.items() if k.startswith("detection."))
    m = {
        "detection.calibrate_threshold.s": (self_s["detection.calibrate_threshold"], "s"),
        "detection.trials": (counts["detection.trials"], "count"),
        "detection.trials_per_s": (counts["detection.trials"] / detection_s, "1/s"),
        "predistortion.fit_spd.s": (self_s["predistortion.fit_spd"], "s"),
        "predistortion.fit_spd.calls": (calls["predistortion.fit_spd"], "count"),
        "predistortion.fit_spd.iters": (counts["predistortion.fit_spd.iters"], "count"),
        "predistortion.hpa_apply.s": (self_s["predistortion.hpa_apply"], "s"),
        "predistortion.evaluate_chain.s": (self_s["predistortion.evaluate_chain"], "s"),
        "predistortion.evaluate_chain.calls": (calls["predistortion.evaluate_chain"], "count"),
        "predistortion.obo_vs_drive.s": (self_s["predistortion.obo_vs_drive"], "s"),
        "predistortion.obo_error_db": (max(obo_errors), "dB"),
        "scenario.average_cir.s": (self_s["scenario.average_cir"], "s"),
        "cognitive.interference_table.s": (
            self_s["cognitive.interference_table.staircase"]
            + self_s["cognitive.interference_table.shannon"], "s"),
        "cli.main.self_s": (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for kind in worker.SIZES[size]["detection-pd"]["detectors"]:
        m[f"detection.pd_curve.{kind}.s"] = (self_s[f"detection.pd_curve.{kind}"], "s")
    for k in worker.SIZES[size]["forward-link"]["ks"]:
        m[f"scenario.build_channel.K{k}.s"] = (self_s[f"scenario.build_channel.K{k}"], "s")
        m[f"precoding.mmse_multicast.K{k}.s"] = (self_s[f"precoding.mmse_multicast.K{k}"], "s")
        m[f"precoding.sinr_all.K{k}.s"] = (self_s[f"precoding.sinr_all.K{k}"], "s")
    for name in ("staircase", "shannon"):
        m[f"cognitive.assign_hungarian.{name}.s"] = (
            self_s[f"cognitive.assign_hungarian.{name}"], "s")
        m[f"cognitive.lsap_solves.{name}"] = (counts[f"cognitive.lsap_solves.{name}"], "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())}


def measure_traced(workload: str, seed: int, size: str, out: Path) -> dict:
    """Traced round of every workload, plus an untraced round of ``workload``.

    ``attempted`` and ``failed`` count the named workload's operations
    only; the other workloads' checks still decide ``correct``.
    """
    traced, verdict, errors = {}, checks.Verdict(), []
    for name in WORKLOADS:
        traced[name], v = round_of(name, "trace", seed, size, out)
        if name == "spd-bench":
            obo_errors = checks.obo_errors_db(checks.read_csv(out / "spd_bench.csv"),
                                              worker.spd_config(size)["obo_grid_db"])
        if name == workload:
            verdict = verdict.add(v)
        else:
            errors += v.errors
    plain, v = round_of(workload, "run", seed, size, out)
    verdict = verdict.add(v)
    verdict.errors += errors
    overhead = traced[workload]["wall_s"] - plain["wall_s"]
    return {"verdict": verdict, "traced": traced, "untraced": plain,
            "metrics": per_layer(traced, size, obo_errors, overhead)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    out = RESULTS / f"work-{workload}"
    try:
        if trace:
            detail = measure_traced(workload, seed, size, out)
        else:
            detail = measure(workload, seed, seconds, size, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    v = detail.pop("verdict")
    summary = {"correct": not v.errors, "attempted": v.attempted,
               "failed": v.failed, "metrics": detail["metrics"]}
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  size=size, environment=environment(), errors=v.errors, **summary)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1, default=str))
    for err in v.errors:
        print(f"check failed: {err}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "satkit" / "__init__.py").is_file():
        print(f"error: no satkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        shown = "  ".join(f"{k}={m['value']:.4g} {m['unit']}"
                          for k, m in res["metrics"].items())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {shown}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
