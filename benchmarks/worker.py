"""One benchmark worker: a fresh process that imports satkit and runs one workload once.

Usage (from run.py): worker.py WORKLOAD MODE OUT_DIR T0 SEED SIZE

MODE is ``setup`` (import only), ``run`` or ``trace``. T0 is the
``time.monotonic()`` reading taken by the parent just before it started
this process, so set-up time includes interpreter start. The worker
writes ``result.json`` (timings, trace aggregates) and the outputs the
checks read into OUT_DIR.
"""
import json
import resource
import sys
import time
from pathlib import Path


def cli_run(subcommand: str, cfg: dict, out: Path):
    from satkit import cli
    path = out / f"{subcommand}.config.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([subcommand, "--config", str(path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"satkit {subcommand} exited with {code}")


# Workload definitions. SIZES["full"] is what the benchmark measures;
# SIZES["small"] is a reduced copy for the benchmark's own tests.
SIZES = {
    "full": {
        "detection-pd": {"detectors": ["ced", "edscp", "edscd"],
                         "n_mc": 2000, "n_mc_calib": 20000},
        "spd-bench": {"modes": ["none", "onboard", "onground"],
                      "obo_grid_db": [2.0, 4.0, 6.0, 8.0]},
        "forward-link": {"ks": [71, 256, 512], "n_mc": 200},
        "carrier-assign": {"staircase": (200, 200), "shannon": (100, 100)},
    },
    "small": {
        "detection-pd": {"detectors": ["ced", "edscp", "edscd"],
                         "n_mc": 600, "n_mc_calib": 6000},
        "spd-bench": {"modes": ["none", "onboard"], "obo_grid_db": [4.0]},
        "forward-link": {"ks": [71, 256, 512], "n_mc": 40},
        "carrier-assign": {"staircase": (30, 30), "shannon": (12, 12)},
    },
}

# satkit detection-pd and spd-bench defaults; the size entries above override.
DETECTION_CFG = {"detectors": ["ced", "edscp", "edscd"], "eps_db": 2.0,
                 "snr_db": 6.0, "pfa": 0.01, "n_mc": 2000, "n_mc_calib": 20000,
                 "fade_db": 4.0,
                 "isnr_grid_db": [float(v) for v in range(-14, 7)], "seed": 0}
SPD_CFG = {"obo_grid_db": [2.0, 4.0, 6.0, 8.0],
           "modes": ["none", "onboard", "onground"], "alpha_re": 1.0,
           "alpha_im": 0.0, "beta_re": -0.15, "beta_im": 0.05, "sigma_j": 0.005,
           "snr_db": 40.0, "n_symbols": 4000, "lut_bins": 0, "seed": 0}
POWER_CAP_W = 55.0
CIR_SEED = 0            # channel-report's default seed


def detection_config(size: str) -> dict:
    return {**DETECTION_CFG, **SIZES[size]["detection-pd"]}


def spd_config(size: str) -> dict:
    return {**SPD_CFG, **SIZES[size]["spd-bench"]}


def carrier_instances(size: str) -> list:
    """The two timed instances, named after their rate mapping.

    Each is (mapping, M, K, stations, area km, rx dBW, seed). The seeds are
    fixed so that the number of assignment solves, which sets the cost of
    the tie-break, repeats exactly from run to run.
    """
    (ms, ks), (mh, kh) = SIZES[size]["carrier-assign"].values()
    return [("staircase", ms, ks, 2 * ms, 50.0, 20.0, 0),
            ("shannon", mh, kh, 2 * mh, 200.0, 12.0, 0)]


def run_detection(out, seed, size, tracer):
    cli_run("detection-pd", detection_config(size), out)


def run_spd(out, seed, size, tracer):
    cli_run("spd-bench", spd_config(size), out)


def run_forward(out, seed, size, tracer):
    import numpy as np
    from satkit import precoding, scenario
    spec = SIZES[size]["forward-link"]
    saved = {}
    for k in spec["ks"]:
        tracer.case = f"K{k}"
        scn = scenario.default_scenario(n_beams=k, n_u=2, seed=seed)
        rng = np.random.default_rng([seed, k])
        users = scenario.draw_users(scn, rng)
        ch = scenario.build_channel(scn, users, rng=rng)
        pre = precoding.mmse_multicast(precoding.average_channel(ch), POWER_CAP_W)
        sinr = precoding.sinr_all(ch, pre)
        total, _ = precoding.sum_rate(sinr)
        saved[k] = dict(K=k, H=ch.H, W=pre.W, beta=pre.beta, power_cap=POWER_CAP_W,
                        sinr=sinr, sum_rate=total, positions=users.positions,
                        feeds=scn.feed_centers)
    tracer.case = ""
    scn = scenario.default_scenario(n_beams=71, n_u=2, seed=CIR_SEED)
    cir = [scenario.average_cir(scn, fr, n_mc=spec["n_mc"],
                                rng=np.random.default_rng(CIR_SEED + fr))
           for fr in (1, 2, 3, 4)]
    return lambda: save_forward(out, saved, cir)


def save_forward(out, saved, cir):
    import numpy as np
    for k, arrays in saved.items():
        np.savez(out / f"forward_K{k}.npz", **arrays)
    (out / "cir.json").write_text(json.dumps(cir))


def assignment_instance(m, k, n_stations, area_km, rx_dbw, mapping, rng):
    """satkit's chain from a synthetic REM to the optimal carrier map."""
    import numpy as np
    from satkit import cognitive
    terminals = rng.uniform(-area_km / 2, area_km / 2, (k, 2))
    stations = cognitive.synthetic_rem(n_stations, m, area_km, rng)
    interf = cognitive.interference_table(stations, terminals, m)
    rx = np.broadcast_to(10 ** (np.asarray(rx_dbw) / 10), (k,))
    sinr = cognitive.build_sinr_matrix(rx, interf, i_co=0.5, n0=1.0)
    rates = cognitive.rate_matrix(sinr, mapping=mapping)
    assign = cognitive.assign_hungarian(rates)
    return dict(interference=interf, rx_power=rx, i_co=0.5, n0=1.0,
                mapping=mapping, sinr=sinr.values, rates=rates,
                terminal_of=np.array(assign.terminal_of),
                objective=assign.objective)


def tie_probe(seed):
    """A 7x7 staircase instance from the run's seed, with many tied optima."""
    import numpy as np
    rng = np.random.default_rng([seed, 7])
    return assignment_instance(7, 7, 28, 6.0, rng.uniform(5.0, 20.0, 7),
                               "staircase", rng)


def run_carrier(out, seed, size, tracer):
    import numpy as np
    saved = {}
    for mapping, m, k, n_st, area, rx, inst_seed in carrier_instances(size):
        tracer.case = mapping
        saved[mapping] = assignment_instance(m, k, n_st, area, rx, mapping,
                                             np.random.default_rng(inst_seed))

    def finish():
        tracer.case = "tie"
        saved["tie"] = tie_probe(seed)
        for name, arrays in saved.items():
            np.savez(out / f"assign_{name}.npz", name=name, **arrays)

    return finish


WORKLOADS = {"detection-pd": run_detection, "spd-bench": run_spd,
             "forward-link": run_forward, "carrier-assign": run_carrier}


class NoTracer:
    case = ""


def main(argv):
    workload, mode, out, t0, seed, size = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import satkit
    import satkit.cli  # noqa: F401  (set-up ends when the CLI is importable)
    setup_s = time.monotonic() - float(t0)
    out = Path(out)
    result = {"setup_s": setup_s}
    if mode != "setup":
        tracer = NoTracer()
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(satkit)
        usage0, wall0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        finish = WORKLOADS[workload](out, int(seed), size, tracer)
        wall = time.perf_counter() - wall0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=(usage.ru_utime - usage0.ru_utime) + (usage.ru_stime - usage0.ru_stime),
            peak_rss_mb=usage.ru_maxrss / 1024)
        if finish:
            finish()
        if mode == "trace":
            result.update(self_s=dict(tracer.self_s), calls=dict(tracer.calls),
                          counts=dict(tracer.counts))
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
