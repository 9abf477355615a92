"""Batch experiment runner with deterministic CSV outputs.

Each subcommand resolves its configuration (defaults, then --config
JSON, then --seed), writes its result CSVs and a
``manifest.json`` capturing the fully resolved configuration. A run that
fails leaves none of its files behind, nor an output directory it made.
Re-running a subcommand with ``--config manifest.json`` reproduces every
CSV and the manifest byte-for-byte.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import access, caching, cognitive, detection, precoding, predistortion
from .scenario import (ConfigurationError, average_cir, build_channel,
                       default_scenario, draw_users)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        if x != x:
            return "nan"
        if x in (float("inf"), float("-inf")):
            return "inf" if x > 0 else "-inf"
        return format(x, ".10g")
    return str(x)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\r\n")


def _check_type(key: str, value, default):
    """A loaded value must have its default's type; a float also takes an int.

    A list must be non-empty, with each element of the type of the
    default's first element. A ``None`` default takes null or a string.
    """
    if default is None:
        want, name = (type(None), str), "null or str"
    else:
        want = (int, float) if isinstance(default, float) else type(default)
        name = type(default).__name__
    if (isinstance(value, bool) != isinstance(default, bool)
            or not isinstance(value, want)):
        raise ConfigurationError(f"config key {key!r} must be {name}, "
                                 f"not {value!r}")
    if isinstance(value, list):
        if not value:
            raise ConfigurationError(f"config key {key!r} must not be empty")
        for item in value:
            _check_type(key, item, default[0])


def _reject_constant(token: str):
    """``json.load`` hook for the non-standard NaN, Infinity and -Infinity."""
    raise ConfigurationError(f"config value {token} is not a finite number")


def _finite_float(token: str) -> float:
    """``json.load`` hook for a JSON number, which may overflow to inf (1e400);
    -0.0 is read as 0.0, which passes every range check as 0.0 does."""
    value = float(token) + 0.0
    if not math.isfinite(value):
        _reject_constant(token)
    return value


def _json_int(token: str) -> int:
    """``json.load`` hook for a JSON integer, which may exceed int's digit limit."""
    try:
        return int(token)
    except ValueError:
        raise ConfigurationError(
            f"config integer of {len(token)} digits is too long") from None


def _resolve_config(defaults: dict, args, subcommand: str) -> dict:
    cfg = dict(defaults)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh, parse_constant=_reject_constant,
                               parse_float=_finite_float, parse_int=_json_int)
        # accept a previous run's manifest directly
        if (isinstance(loaded, dict) and "config" in loaded
                and "subcommand" in loaded):
            if loaded["subcommand"] != subcommand:
                raise ConfigurationError(
                    f"manifest is for {loaded['subcommand']!r}, not {subcommand!r}")
            loaded = loaded["config"]
        if not isinstance(loaded, dict):
            raise ConfigurationError("config must be a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_type(key, value, defaults[key])
        cfg.update(loaded)
    if "seed" not in cfg:                   # a subcommand that draws nothing
        if args.seed is not None:
            raise ConfigurationError(f"{subcommand} takes no seed")
        return cfg
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg["seed"] < 0:
        raise ConfigurationError(f"seed must be >= 0, not {cfg['seed']}")
    return cfg


def _write_manifest(out: Path, subcommand: str, cfg: dict):
    with open(out / "manifest.json", "w") as fh:
        json.dump({"subcommand": subcommand, "config": cfg}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- subcommands

def cmd_channel_report(cfg: dict, out: Path):
    scn = default_scenario(n_beams=cfg["n_beams"])
    rows = []
    for fr in (1, 2, 3, 4):
        rng = np.random.default_rng(cfg["seed"] + fr)
        cir = average_cir(scn, fr, n_mc=cfg["n_mc"], rng=rng)
        rows.append((fr, cir, cfg["n_mc"], cfg["seed"]))
    write_csv(out / "channel_report.csv",
              ["reuse_factor", "avg_cir_db", "n_mc", "seed"], rows)


def cmd_precoding_bench(cfg: dict, out: Path):
    rows = []
    for case_i, case in enumerate(cfg["cases"]):
        if len(case) != 2:
            raise ConfigurationError(f"a case is [K, Nu], not {case!r}")
        k, nu = case
        scn = default_scenario(n_beams=k, n_u=nu)
        rng = np.random.default_rng(cfg["seed"] + case_i)
        ch = build_channel(scn, draw_users(scn, rng), rng=rng)
        pre = precoding.mmse_multicast(precoding.average_channel(ch),
                                       cfg["power_w"])
        sr, _ = precoding.sum_rate(precoding.sinr_all(ch, pre))
        rows.append((k, nu, sr / k))
    write_csv(out / "precoding_bench.csv", ["K", "Nu", "sr_per_beam"], rows)


def cmd_rate_region(cfg: dict, out: Path):
    direct = 10 ** (cfg["direct_db"] / 10)
    cross = 10 ** (cfg["cross_db"] / 10)
    template = access.TwoUserChannel(g11=direct, g21=cross, g12=cross,
                                     g22=direct, p1=1.0, p2=1.0)
    if cfg["lam_points"] < 1:
        raise ConfigurationError("lam_points must be >= 1")
    lam_grid = np.linspace(0.0, 1.0, cfg["lam_points"])
    regions = access.region_sweep(template, cfg["p_values"],
                                  strategies=tuple(cfg["strategies"]),
                                  lam_grid=lam_grid)
    for strat, region in regions.items():
        n, k = region.params.shape
        # columns as Python values: _fmt writes a numpy bool as True
        params = region.params.T.tolist() + [[""] * n] * (2 - k)
        rows = zip([strat] * n, *params, region.r1.tolist(),
                   region.r2.tolist(), region.frontier.tolist())
        write_csv(out / f"rate_region_{strat}.csv",
                  ["strategy", "param1", "param2", "R1", "R2", "on_frontier"],
                  rows)


def cmd_detection_pd(cfg: dict, out: Path):
    rows = []
    for kind in cfg["detectors"]:
        det = detection.DetectorConfig(kind=kind,
                                       noise_uncertainty_db=cfg["eps_db"])
        tau = detection.calibrate_threshold(
            det, cfg["pfa"], cfg["n_mc_calib"], snr_db=cfg["snr_db"],
            seed=cfg["seed"], fade_db=cfg["fade_db"])
        det = replace(det, threshold=tau)
        for r in detection.pd_curve(det, cfg["isnr_grid_db"],
                                    snr_db=cfg["snr_db"], n_mc=cfg["n_mc"],
                                    seed=cfg["seed"], fade_db=cfg["fade_db"]):
            rows.append((r["detector"], r["eps_db"], r["isnr_db"], r["pd"],
                         r["pd_lo"], r["pd_hi"], r["n_mc"], cfg["pfa"],
                         cfg["seed"]))
    write_csv(out / "detection_pd.csv",
              ["detector", "eps_db", "isnr_db", "pd", "pd_lo", "pd_hi",
               "n_mc", "pfa_target", "seed"], rows)


def cmd_spd_bench(cfg: dict, out: Path):
    hpa = predistortion.HpaParams(alpha=complex(cfg["alpha_re"], cfg["alpha_im"]),
                                  beta=complex(cfg["beta_re"], cfg["beta_im"]))
    base = predistortion.ChainConfig(sigma_j=cfg["sigma_j"],
                                     snr_db=cfg["snr_db"])
    rows = predistortion.spd_benchmark(hpa, cfg["obo_grid_db"],
                                       modes=tuple(cfg["modes"]),
                                       base_config=base,
                                       n_symbols=cfg["n_symbols"],
                                       seed=cfg["seed"])
    write_csv(out / "spd_bench.csv",
              ["spd_location", "jitter_aware", "obo_db", "obo_target_db",
               "sinr_db", "seed"],
              [(r["spd_location"], r["jitter_aware"], r["obo_db"],
                r["obo_target_db"], r["sinr_db"], r["seed"]) for r in rows])
    if cfg["lut_bins"]:
        spd = predistortion.train_spd(replace(base, spd_location="onboard"), hpa)
        edges, gains = predistortion.build_lut(spd, dynamic_range=hpa.r_sat,
                                               n_bins=cfg["lut_bins"])
        write_csv(out / "spd_lut.csv",
                  ["bin_lo", "bin_hi", "gain_re", "gain_im"],
                  [(float(lo), float(hi), float(g.real), float(g.imag))
                   for lo, hi, g in zip(edges[:-1], edges[1:], gains)])


def cmd_carrier_assign(cfg: dict, out: Path):
    rng = np.random.default_rng(cfg["seed"])
    m, k = cfg["n_carriers"], cfg["n_terminals"]
    if k < 1 or cfg["area_km"] < 0:
        raise ConfigurationError("need n_terminals >= 1 and area_km >= 0")
    terminals = rng.uniform(-cfg["area_km"] / 2, cfg["area_km"] / 2, (k, 2))
    if cfg["rem_csv"]:
        stations = cognitive.load_rem(cfg["rem_csv"], m)
    else:
        stations = cognitive.synthetic_rem(cfg["n_stations"], m,
                                           cfg["area_km"], rng)
    interf = cognitive.interference_table(stations, terminals, m)
    p = np.full(k, 10 ** (cfg["rx_power_dbw"] / 10))
    sinr = cognitive.build_sinr_matrix(p, interf, i_co=cfg["i_co"],
                                       n0=cfg["n0"])
    rates = cognitive.rate_matrix(sinr, mapping=cfg["mapping"])
    assign = cognitive.assign_hungarian(rates)
    rows = [(mm, kk, rates[mm, kk]) for mm, kk in assign.pairs()]
    write_csv(out / "carrier_assign.csv",
              ["carrier", "terminal", "rate_bpshz"], rows)
    exclusive, gain = cognitive.throughput_report(rates, interf, assign)
    write_csv(out / "carrier_assign_summary.csv",
              ["sum_rate", "exclusive_sum_rate", "gain_factor"],
              [(assign.objective, exclusive, gain)])


def cmd_caching_threshold(cfg: dict, out: Path):
    rows = []
    rate_bc = cfg["rate_bc"]
    rate_uc = rate_bc * cfg["rate_ratio"]
    for alpha in cfg["alphas"]:
        model = caching.PopularityModel(library_size=cfg["library_size"],
                                        alpha=alpha)
        plan = caching.delivery_plan(model, cfg["file_size_bits"],
                                     cfg["n_stations"], rate_uc, rate_bc)
        i_hat, t_tot = plan.i_hat, plan.t_tot
        rows.append((alpha, cfg["n_stations"], cfg["library_size"],
                     cfg["rate_ratio"], i_hat, float(plan.t_uc[i_hat - 1]),
                     float(plan.t_bc[i_hat - 1]), float(t_tot[i_hat - 1])))
        write_csv(out / f"caching_curve_alpha{_fmt(float(alpha))}.csv",
                  ["threshold", "t_tot"],
                  [(i + 1, float(t)) for i, t in enumerate(t_tot)])
    write_csv(out / "caching_threshold.csv",
              ["alpha", "K", "I", "rate_ratio", "i_hat", "T_uc", "T_bc",
               "T_tot"], rows)


SUBCOMMANDS = {
    "channel-report": (cmd_channel_report, {
        "n_beams": 71, "n_mc": 2000, "seed": 0}),
    "precoding-bench": (cmd_precoding_bench, {
        "cases": [[16, 2], [32, 2], [32, 4]],
        "power_w": 55.0, "seed": 0}),
    "rate-region": (cmd_rate_region, {
        "direct_db": 0.0, "cross_db": -2.0,
        "p_values": [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        "lam_points": 21, "strategies": ["ian", "scd", "snd", "fdm", "hk"]}),
    "detection-pd": (cmd_detection_pd, {
        "detectors": ["ced", "edscp", "edscd"], "eps_db": 2.0, "snr_db": 6.0,
        "pfa": 0.01, "n_mc": 2000, "n_mc_calib": 20000, "fade_db": 4.0,
        "isnr_grid_db": [float(v) for v in range(-14, 7)], "seed": 0}),
    "spd-bench": (cmd_spd_bench, {
        "obo_grid_db": [2.0, 4.0, 6.0, 8.0], "modes": ["none", "onboard",
                                                       "onground"],
        "alpha_re": 1.0, "alpha_im": 0.0, "beta_re": -0.15, "beta_im": 0.05,
        "sigma_j": 0.005, "snr_db": 40.0, "n_symbols": 4000, "lut_bins": 0,
        "seed": 0}),
    "carrier-assign": (cmd_carrier_assign, {
        "n_carriers": 6, "n_terminals": 8, "n_stations": 12, "area_km": 200.0,
        "rx_power_dbw": 12.0, "i_co": 0.5, "n0": 1.0, "mapping": "shannon",
        "rem_csv": None, "seed": 0}),
    "caching-threshold": (cmd_caching_threshold, {
        "alphas": [0.8, 1.2, 1.6], "n_stations": 500, "library_size": 100,
        "rate_ratio": 3.0, "rate_bc": 1.0, "file_size_bits": 1.0}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satkit", description="multibeam satellite experiment runner")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config or a previous run's manifest.json")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=".")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, defaults = SUBCOMMANDS[args.subcommand]
    out = Path(args.out)
    made = [p for p in (out, *out.parents) if not p.exists()]
    done = False
    try:
        cfg = _resolve_config(defaults, args, args.subcommand)
        out.mkdir(parents=True, exist_ok=True)
        # outputs appear only once the whole run, manifest included, has
        # succeeded, and only if none of them lands on a directory
        with tempfile.TemporaryDirectory(dir=out, prefix=".satkit-") as tmp:
            tmp = Path(tmp)
            # what numpy would warn of ends the run; underflow to 0 does not
            with np.errstate(all="raise", under="ignore"):
                func(cfg, tmp)
            _write_manifest(tmp, args.subcommand, cfg)
            outputs = list(tmp.iterdir())
            for path in outputs:
                if (out / path.name).is_dir():
                    raise IsADirectoryError(
                        f"output {out / path.name} is a directory")
            for path in outputs:
                os.replace(path, out / path.name)
        done = True
    except (ConfigurationError, OSError, json.JSONDecodeError,
            UnicodeDecodeError, FloatingPointError, OverflowError,
            MemoryError) as exc:
        # numpy's and Python's float errors name only the operation; an
        # overflow in Python's float arithmetic carries (errno, text)
        if isinstance(exc, ArithmeticError):
            what = (f"overflow: {exc.args[-1]}"
                    if isinstance(exc, OverflowError) and exc.args else exc)
            exc = f"{args.subcommand}: floating-point fault: {what}"
        elif isinstance(exc, MemoryError):    # numpy's names the size asked for
            exc = f"{args.subcommand}: {exc or 'out of memory'}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # any other exception propagates, so that a program fault shows
        if not done and made:       # the outermost directory this run made
            shutil.rmtree(made[-1], ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
