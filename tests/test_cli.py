import contextlib
import csv
import functools
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkit import cli, detection, predistortion

FAST_CONFIGS = {
    "channel-report": {"n_beams": 7, "n_mc": 5},
    "caching-threshold": {"alphas": [1.2], "n_stations": 20,
                          "library_size": 10},
    "carrier-assign": {"n_carriers": 3, "n_terminals": 4, "n_stations": 5,
                       "area_km": 50.0},
    "rate-region": {"p_values": [1.0, 10.0], "lam_points": 3,
                    "strategies": ["ian", "hk"]},
}
# every subcommand at a small size, so each config sweep run is quick; the
# onboard SPD makes every spd-bench case reach fit_spd
SMALL_CONFIGS = {
    **FAST_CONFIGS,
    "precoding-bench": {"cases": [[4, 1]]},
    "detection-pd": {"detectors": ["ced"], "n_mc": 100, "n_mc_calib": 500,
                     "isnr_grid_db": [0.0, 4.0]},
    "spd-bench": {"obo_grid_db": [4.0], "modes": ["onboard"], "n_symbols": 300,
                  "lut_bins": 8},
}


def run(tmp_path, sub, cfg, name, extra=()):
    out = tmp_path / name
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main([sub, "--config", str(cfg_path), "--out", str(out), *extra])
    assert rc == 0
    return out


def csv_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def output_bytes(out_dir):
    """Every output file, manifest included, by name."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestManifestRoundTrip:
    def test_manifest_records_resolved_config(self, tmp_path):
        out = run(tmp_path, "caching-threshold",
                  FAST_CONFIGS["caching-threshold"], "m")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "caching-threshold"
        assert manifest["config"]["alphas"] == [1.2]
        # defaults not overridden are recorded too
        assert manifest["config"]["rate_ratio"] == 3.0

    def test_wrong_subcommand_manifest_rejected(self, tmp_path, capsys):
        out = run(tmp_path, "caching-threshold",
                  FAST_CONFIGS["caching-threshold"], "w")
        rc = cli.main(["carrier-assign",
                       "--config", str(out / "manifest.json"),
                       "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "manifest" in capsys.readouterr().err


class TestConfigResolution:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        for sub, cfg, key in [
                ("channel-report", {"n_beams": 7, "warp_factor": 9},
                 "warp_factor"),
                ("precoding-bench", {"n_rep": 1}, "n_rep")]:
            path = tmp_path / f"{sub}.json"
            path.write_text(json.dumps(cfg))
            rc = cli.main([sub, "--config", str(path),
                           "--out", str(tmp_path / sub)])
            err = capsys.readouterr().err.strip().splitlines()
            assert rc == 1
            assert err == [f"error: unknown config keys: [{key!r}]"]

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = cli.main(["caching-threshold", "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["caching-threshold", "--config",
                       str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_flag_seed_beats_config(self, tmp_path):
        out = run(tmp_path, "carrier-assign",
                  {**FAST_CONFIGS["carrier-assign"], "seed": 3}, "c",
                  extra=("--seed", "7"))
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 7

    @pytest.mark.parametrize("sub", ["caching-threshold", "rate-region"])
    def test_seed_flag_rejected_without_seed_key(self, tmp_path, capsys, sub):
        rc = cli.main([sub, "--seed", "3", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1 and "takes no seed" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub, key", [("detection-pd", "fade_db"),
                                          ("detection-pd", "eps_db"),
                                          ("carrier-assign", "area_km")])
    def test_negative_zero_runs_as_zero(self, tmp_path, sub, key):
        # -0.0 passed the range checks and then ended in a ValueError
        # traceback from Generator.uniform(0.0, -0.0)
        outs = [run(tmp_path, sub, {**SMALL_CONFIGS[sub], key: x}, name)
                for name, x in (("plus", 0.0), ("minus", -0.0))]
        plus, minus = map(output_bytes, outs)
        assert "manifest.json" in plus and plus == minus


class TestConfigFaults:
    """Each bad input exits 1 with one error line and leaves no output."""

    def fails_cleanly(self, tmp_path, capsys, sub, cfg):
        cfg_path = tmp_path / "c.json"
        if isinstance(cfg, dict):
            cfg = json.dumps(cfg)
        cfg_path.write_bytes(cfg if isinstance(cfg, bytes) else cfg.encode())
        out = tmp_path / "o"
        rc = cli.main([sub, "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()
        return err[0]

    @pytest.mark.parametrize("body", [
        "[{}]", "5", "null", '"x"',
        '{"config": 5, "subcommand": "caching-threshold"}'])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, body):
        # these used to end in a TypeError traceback, and "x" in the
        # misleading "unknown config keys: ['x']"
        err = self.fails_cleanly(tmp_path, capsys, "caching-threshold", body)
        assert "JSON object" in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # a UTF-16 byte-order mark used to end in a UnicodeDecodeError traceback
        self.fails_cleanly(tmp_path, capsys, "caching-threshold", b"\xff\xfe{}")

    def test_unknown_rate_region_strategy(self, tmp_path, capsys):
        self.fails_cleanly(tmp_path, capsys, "rate-region",
                           {**FAST_CONFIGS["rate-region"],
                            "strategies": ["bogus"]})

    @pytest.mark.parametrize("cfg", [{"n_mc_calib": 0}, {"isnr_grid_db": []}])
    def test_empty_detection_run(self, tmp_path, capsys, cfg):
        self.fails_cleanly(tmp_path, capsys, "detection-pd",
                           {"detectors": ["ced"], "n_mc": 20,
                            "n_mc_calib": 100, **cfg})

    @pytest.mark.parametrize("sub, cfg", [
        ("channel-report", {**FAST_CONFIGS["channel-report"], "n_mc": 0}),
        ("spd-bench", {**SMALL_CONFIGS["spd-bench"], "sigma_j": -0.01})])
    def test_out_of_range(self, tmp_path, capsys, sub, cfg):
        # both used to exit 0: C/I of inf, and no jitter at all
        self.fails_cleanly(tmp_path, capsys, sub, cfg)

    @pytest.mark.parametrize("sub", ["channel-report", "detection-pd"])
    @pytest.mark.parametrize("value", ["10", 10.0, True])
    def test_non_integer_count(self, tmp_path, capsys, sub, value):
        self.fails_cleanly(tmp_path, capsys, sub, {"n_mc": value})

    @pytest.mark.parametrize("cfg", [{"rate_bc": "1"}, {"alphas": 1.2}])
    def test_mistyped_float_and_list(self, tmp_path, capsys, cfg):
        self.fails_cleanly(tmp_path, capsys, "caching-threshold",
                           {**FAST_CONFIGS["caching-threshold"], **cfg})

    @pytest.mark.parametrize("sub, cfg", [
        ("caching-threshold", {"alphas": ["x"]}),
        ("rate-region", {"p_values": [1.0, True]}),
        ("precoding-bench", {"cases": [["a", 1]]}),
        ("precoding-bench", {"cases": [[4, 4, 1]]}),      # [K, N, Nu] of old
        ("precoding-bench", {"cases": [[]]})])
    def test_bad_list_element(self, tmp_path, capsys, sub, cfg):
        self.fails_cleanly(tmp_path, capsys, sub, {**SMALL_CONFIGS[sub], **cfg})

    @pytest.mark.parametrize("sub, cfg", [
        ("detection-pd", {"fade_db": float("inf")}),
        ("detection-pd", {"eps_db": float("nan")}),
        ("carrier-assign", {"area_km": float("nan")}),
        ("spd-bench", {"snr_db": float("nan")}),
        ("precoding-bench", {"power_w": float("nan")}),
        ("rate-region", {"direct_db": float("nan")}),
        ("caching-threshold", {"alphas": [float("-inf")]}),
        ("caching-threshold", {"alphas": [float("nan")]}),
        ("rate-region", '{"direct_db": 1e400}'),
        ("detection-pd", '{"isnr_grid_db": [0.0, -1e400]}')])
    def test_non_finite_number(self, tmp_path, capsys, sub, cfg):
        # json.load accepts the NaN and Infinity tokens unless told
        # otherwise, and parses a number beyond the float range to inf
        err = self.fails_cleanly(tmp_path, capsys, sub, cfg)
        assert "not a finite number" in err

    @pytest.mark.parametrize("cfg", [
        {"fade_db": 1e308}, {"eps_db": 1e308}, {"snr_db": 1e308},
        {"isnr_grid_db": [1e308]}, {"snr_db": -1e308}])
    def test_db_value_without_finite_power(self, tmp_path, capsys, cfg):
        # an overflow used to end in an OverflowError traceback, and a
        # signal power underflowing to 0 in Pd = 0 with a RuntimeWarning
        err = self.fails_cleanly(tmp_path, capsys, "detection-pd",
                                 {**SMALL_CONFIGS["detection-pd"], **cfg})
        assert "no finite power" in err

    @pytest.mark.parametrize("cfg", [
        '{"direct_db": 1' + "0" * 400 + "}",
        '{"direct_db": 1' + "0" * 5000 + "}",
        {"direct_db": 1e300}, {"cross_db": 1e300}, {"p_values": [1e307]}],
        ids=["int_400_digits", "int_5000_digits", "direct_db", "cross_db", "p_values"])
    def test_rate_region_gain_beyond_floats(self, tmp_path, capsys, cfg):
        # an OverflowError, or past 4300 digits a ValueError, used to end
        # in a traceback; a power of 1e307 overflowed FDM's p*g/beta and
        # wrote R1 = inf
        self.fails_cleanly(tmp_path, capsys, "rate-region", cfg)

    def test_python_overflow_prints_its_text(self, tmp_path, capsys):
        # 10 ** (1e300 / 10) used to print Python's errno tuple, "(34, ..."
        err = self.fails_cleanly(tmp_path, capsys, "rate-region",
                                 {"direct_db": 1e300})
        # the text is the C library's for ERANGE, which differs by platform
        assert err.startswith("error: rate-region: floating-point fault: "
                              "overflow: ")
        assert "(34," not in err

    def test_float_fault_names_the_subcommand(self, tmp_path, capsys):
        # a numpy overflow used to exit 0 with a warning on stderr; here the
        # SINR's denominator i_co + n0 passes the float range
        err = self.fails_cleanly(tmp_path, capsys, "carrier-assign",
                                 {**FAST_CONFIGS["carrier-assign"],
                                  "i_co": 1e308, "n0": 1e308})
        assert err.startswith("error: carrier-assign: floating-point fault:")

    @pytest.mark.parametrize("cfg", [
        {"snr_db": -1e308}, {"alpha_re": 1e300}, {"beta_re": 1e200},
        {"sigma_j": 1e300, "modes": ["onboard"]},
        {"n_symbols": 1}, {"n_symbols": 10}],
        ids=["snr_db", "alpha_re", "beta_re", "sigma_j", "n_symbols_1",
             "n_symbols_10"])
    def test_spd_chain_out_of_range(self, tmp_path, capsys, cfg):
        # the first four used to end in an OverflowError or LinAlgError
        # traceback; the last two exited 0 with NaN SINR and a warning
        self.fails_cleanly(tmp_path, capsys, "spd-bench",
                           {**SMALL_CONFIGS["spd-bench"], **cfg})

    @pytest.mark.parametrize("cfg", [
        {"beta_re": 0.0, "beta_im": 0.0}, {"beta_re": 0.3},
        {"alpha_re": 0.0, "alpha_im": 0.0}], ids=["linear", "expansive",
                                                  "no_linear_term"])
    @pytest.mark.parametrize("mode", ["none", "onboard", "onground"])
    def test_amplifier_without_saturation(self, tmp_path, capsys,
                                          monkeypatch, cfg, mode):
        # each used to search all 12 curve drives and report an OBO target
        # outside the drive grid, or, alpha = 0 with an SPD placed, to end
        # in a ZeroDivisionError traceback from the fit's 1/alpha start;
        # now the amplifier is rejected before the chain runs
        calls = Counter()
        for name in ("_amplify", "fit_spd"):
            monkeypatch.setattr(predistortion, name, lambda *a, _name=name,
                                **k: calls.update([_name]))
        err = self.fails_cleanly(tmp_path, capsys, "spd-bench",
                                 {**SMALL_CONFIGS["spd-bench"], **cfg,
                                  "modes": [mode]})
        assert "no saturation point" in err
        assert not calls

    @pytest.mark.parametrize("target", [0.0, 100.0])
    def test_unreachable_obo_target(self, tmp_path, capsys, target):
        err = self.fails_cleanly(tmp_path, capsys, "spd-bench",
                                 {**SMALL_CONFIGS["spd-bench"],
                                  "obo_grid_db": [target]})
        assert f"OBO target {target:g} dB outside" in err

    def test_fault_in_a_pd_point_job(self, tmp_path, capsys):
        err = self.fails_cleanly(tmp_path, capsys, "detection-pd",
                                 {**SMALL_CONFIGS["detection-pd"], "n_mc": 0})
        assert "n_mc" in err

    @pytest.mark.parametrize("sub, cfg", [
        ("caching-threshold", {"library_size": 10 ** 15}),
        ("rate-region", {"lam_points": 10 ** 15}),
        ("detection-pd", {"n_mc": 10 ** 15, "detectors": ["ced"]}),
        ("carrier-assign", {"n_terminals": 10 ** 15})])
    def test_impossible_allocation(self, tmp_path, capsys, sub, cfg):
        # a petabyte request fails at once, before any memory is touched
        err = self.fails_cleanly(tmp_path, capsys, sub, cfg)
        assert err.startswith(f"error: {sub}: Unable to allocate")

    @pytest.mark.parametrize("sub, cfg", [
        ("channel-report", {"n_mc": 10 ** 15}),
        ("channel-report", {"n_beams": 10 ** 15}),
        ("precoding-bench", {"cases": [[10 ** 15, 2]]}),
        ("rate-region", {"lam_points": 10 ** 5})],
        ids=["n_mc", "n_beams", "precoding_K", "lam_points"])
    def test_impossible_size_fails_before_any_loop(self, tmp_path, sub, cfg):
        # these sizes used to grow Python lists, of beams, of draws or of
        # rate points, until the machine ran out of memory; the 10**10 points
        # of the λ grid outlasted the 60 s limit. The run is a child process
        # with its address space capped at 4 GiB: should a list grow again,
        # it stops there with Python's bare MemoryError, which names no size
        cfg_path, out = tmp_path / "c.json", tmp_path / "o"
        cfg_path.write_text(json.dumps(cfg))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
                "from satkit import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None,
                                      [src, os.environ.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-c", code, sub, "--config", str(cfg_path),
             "--out", str(out)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=60)
        err = res.stderr.strip().splitlines()
        assert res.returncode == 1
        assert len(err) == 1
        assert err[0].startswith(f"error: {sub}: Unable to allocate")
        assert not out.exists()

    def test_failure_part_way_leaves_no_files(self, tmp_path, capsys):
        self.fails_cleanly(tmp_path, capsys, "caching-threshold",
                           {**FAST_CONFIGS["caching-threshold"],
                            "alphas": [0.8, -1]})

    def test_program_fault_propagates_and_leaves_no_output(self, tmp_path,
                                                             monkeypatch):
        def fault(cfg, out):
            (out / "partial.csv").write_text("x\r\n")
            raise RuntimeError("program fault")
        sub = "channel-report"
        monkeypatch.setitem(cli.SUBCOMMANDS, sub,
                            (fault, cli.SUBCOMMANDS[sub][1]))
        out = tmp_path / "made" / "o"
        with pytest.raises(RuntimeError, match="program fault"):
            cli.main([sub, "--out", str(out)])
        assert not (tmp_path / "made").exists()

    REM_HEADER = "station_id,x_km,y_km,tx_dbw,azimuth_deg,beamwidth_deg\n"

    @pytest.mark.parametrize("body, line", [
        ("x_km,y_km,tx_dbw,azimuth_deg,beamwidth_deg\n1,2,10,45,20\n", 2),
        (REM_HEADER + "0,1,2,10,45,20\n1,1,2,loud,45,20\n", 3),
        (REM_HEADER + "0,1,2,10,45,20\n1,1,2,10,45,-20\n", 3),
        (REM_HEADER + "0,1,2,10,45,0\n", 2),
        (REM_HEADER + "0,1,2,10,45,720\n", 2),
        (REM_HEADER + "0,inf,2,10,45,20\n", 2),
        (REM_HEADER + "0,1,2,10,45,20\n1,nan,2,10,45,20\n", 3)],
        ids=["no_station_id", "non_numeric_tx_dbw", "negative_beamwidth",
             "zero_beamwidth", "beamwidth_720", "infinite_x_km", "nan_x_km"])
    def test_malformed_rem_csv(self, tmp_path, capsys, body, line):
        # the CSV reader's KeyError and ValueError must not become a
        # traceback, and a station no model allows must not run: otherwise
        # a beamwidth of 0 or below masks it everywhere, 720 acts as 360,
        # an infinite position adds no interference and NaN fails in the
        # SINR check with a message that names no REM line
        rem = tmp_path / "rem.csv"
        rem.write_text(body)
        err = self.fails_cleanly(tmp_path, capsys, "carrier-assign",
                                 {**FAST_CONFIGS["carrier-assign"],
                                  "rem_csv": str(rem)})
        assert f"rem.csv line {line}:" in err


SWEEP_VALUES = [0, -1, [], "x", None, True, 0.0, -1.0]
# the ends of the float range, for float keys and lists of floats only: a
# huge integer count would ask for a huge allocation. A float key takes a
# JSON integer, and 10**400 is one beyond the float range.
MAX_FLOAT = sys.float_info.max
EXTREME_FLOATS = [5e-324, 1e30, -1e30, 1e300, -1e300, MAX_FLOAT, -MAX_FLOAT,
                  10 ** 400, -10 ** 400]
# the values of two float keys set together, at opposite ends of the range
EXTREME_PAIRS = [(MAX_FLOAT, 5e-324), (5e-324, MAX_FLOAT),
                 (MAX_FLOAT, -MAX_FLOAT), (-MAX_FLOAT, MAX_FLOAT)]
# the two documented non-finite CSV values: the gain over an exclusive band
# that carries no rate, and the C/I of a pattern with no co-channel beam
INF_COLUMNS = {"gain_factor", "avg_cir_db"}


def sweep_cases(defaults):
    """Config overrides: each key set to each sweep value, and each pair of
    float keys set to each extreme pair."""
    floats = {key: isinstance(default, list) for key, default in defaults.items()
              if isinstance(default, float)
              or isinstance(default, list) and isinstance(default[0], float)}
    cases = [{key: value} for key in defaults for value in SWEEP_VALUES]
    cases += [{key: [x] if is_list else x}
              for key, is_list in floats.items() for x in EXTREME_FLOATS]
    cases += [{a: [x] if floats[a] else x, b: [y] if floats[b] else y}
              for a, b in itertools.combinations(floats, 2)
              for x, y in EXTREME_PAIRS]
    return cases


def contract_fault(sub, cfg_path, out):
    """Run one config; return how it breaks the contract, or None.

    A run exits 0 with a manifest, no header-only CSV and only finite
    numbers but the ``INF_COLUMNS``' inf, or exits 1 with one ``error:``
    line (a warning counts as a line) and no --out directory.
    """
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            rc = cli.main([sub, "--config", str(cfg_path), "--out", str(out)])
        except Exception as exc:                # a traceback
            rc = repr(exc)
    err = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
    if rc == 0:
        # a nan or inf, as cli._fmt writes them
        err += [f"{p.name}:{name}={cell}" for p in out.glob("*.csv")
                for row in csv.DictReader(p.read_text().splitlines())
                for name, cell in row.items() if cell in ("nan", "inf", "-inf")
                and not (cell == "inf" and name in INF_COLUMNS)]
        ok = (not err and (out / "manifest.json").exists()
              and all(p.read_bytes().count(b"\r\n") > 1
                      for p in out.glob("*.csv")))
    else:
        ok = (rc == 1 and len(err) == 1 and err[0].startswith("error:")
              and not out.exists())
    return None if ok else f"exit {rc}, stderr {err}"


@pytest.mark.parametrize("sub", sorted(cli.SUBCOMMANDS))
def test_config_fault_sweep(tmp_path, sub):
    """Each sweep case either runs or fails cleanly (``contract_fault``)."""
    broken = []
    for i, case in enumerate(sweep_cases(cli.SUBCOMMANDS[sub][1])):
        cfg_path, out = tmp_path / f"{i}.json", tmp_path / f"o{i}"
        cfg_path.write_text(json.dumps({**SMALL_CONFIGS[sub], **case}))
        fault = contract_fault(sub, cfg_path, out)
        if fault:
            broken.append(f"{case}: {fault}")
    assert not broken, "\n".join(broken)


# floats without nan or inf, so signed zeros and subnormals come up
FINITE = st.floats(allow_nan=False, allow_infinity=False)
RATE_REGION_DRAWS = {
    "direct_db": FINITE, "cross_db": FINITE,
    "p_values": st.lists(FINITE, max_size=3),
    "lam_points": st.integers(1, 25),
    "strategies": st.lists(st.sampled_from(
        [*cli.SUBCOMMANDS["rate-region"][1]["strategies"], "bogus"]),
        max_size=3)}


def assert_contract_and_replay(sub, case):
    """A drawn config keeps the contract, and a run that exits 0 replays
    byte for byte from its manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg_path, out, replay = tmp / "c.json", tmp / "first", tmp / "replay"
        cfg_path.write_text(json.dumps(case))
        assert contract_fault(sub, cfg_path, out) is None
        if out.exists():
            assert contract_fault(sub, out / "manifest.json", replay) is None
            assert output_bytes(out) == output_bytes(replay)


@given(st.fixed_dictionaries({}, optional=RATE_REGION_DRAWS))
@settings(derandomize=True, max_examples=100, deadline=None)
@example({"p_values": [0.0, -0.0, 5e-324], "direct_db": -0.0,
          "lam_points": 1})
def test_rate_region_config_contract(case):
    assert_contract_and_replay("rate-region", case)


SPD_BENCH_DRAWS = {
    **{key: FINITE for key in ("alpha_re", "alpha_im", "beta_re", "beta_im",
                               "sigma_j", "snr_db")},
    "obo_grid_db": st.lists(FINITE, max_size=3),
    "modes": st.lists(st.sampled_from(
        [*cli.SUBCOMMANDS["spd-bench"][1]["modes"], "bogus"]), max_size=3),
    "n_symbols": st.integers(11, 300),
    "lut_bins": st.integers(-1, 16),
    "seed": st.integers(-1, 2 ** 32)}


@given(st.fixed_dictionaries({}, optional=SPD_BENCH_DRAWS))
@settings(derandomize=True, max_examples=40, deadline=None)
@example({"n_symbols": 11, "modes": ["onground", "none"],
          "obo_grid_db": [4.0, -0.0], "lut_bins": 3, "beta_im": -0.0})
def test_spd_bench_config_contract(case):
    assert_contract_and_replay("spd-bench", case)


# one other valid value for every config key of every subcommand
ALTERNATIVES = {
    "channel-report": {"n_beams": 19, "n_mc": 6, "seed": 1},
    "precoding-bench": {"cases": [[4, 2]], "power_w": 10.0, "seed": 1},
    "rate-region": {"direct_db": 1.0, "cross_db": -3.0,
                    "p_values": [2.0, 10.0], "lam_points": 4,
                    "strategies": ["ian", "scd"]},
    "detection-pd": {"detectors": ["edscp"], "eps_db": 1.0, "snr_db": 3.0,
                     "pfa": 0.05, "n_mc": 120, "n_mc_calib": 600,
                     "fade_db": 2.0, "isnr_grid_db": [0.0, 2.0], "seed": 1},
    "spd-bench": {"obo_grid_db": [5.0], "modes": ["none"],
                  "alpha_re": 1.1, "alpha_im": 0.1, "beta_re": -0.2,
                  "beta_im": 0.02, "sigma_j": 0.01, "snr_db": 30.0,
                  "n_symbols": 400, "lut_bins": 4, "seed": 1},
    "carrier-assign": {"n_carriers": 4, "n_terminals": 5, "n_stations": 6,
                       "area_km": 80.0, "rx_power_dbw": 10.0, "i_co": 0.3,
                       "n0": 2.0, "mapping": "staircase",
                       "rem_csv": "rem.csv", "seed": 1},
    "caching-threshold": {"alphas": [0.9], "n_stations": 30,
                          "library_size": 12, "rate_ratio": 2.0,
                          "rate_bc": 2.0, "file_size_bits": 2.0},
}


@pytest.mark.parametrize("sub", sorted(cli.SUBCOMMANDS))
def test_every_config_key_changes_an_output(tmp_path, monkeypatch, sub):
    """Each key set alone to its alternative, at the small size, changes
    some CSV byte: a key that no output reads fails here."""
    assert sorted(ALTERNATIVES[sub]) == sorted(cli.SUBCOMMANDS[sub][1])
    monkeypatch.chdir(tmp_path)                     # for the relative rem_csv
    Path("rem.csv").write_text(
        "station_id,x_km,y_km,tx_dbw,azimuth_deg,beamwidth_deg\n"
        "0,1.5,-2.0,10.0,0.0,30.0\n4,-8.0,3.5,12.0,270.5,90.0\n")
    base = csv_bytes(run(tmp_path, sub, SMALL_CONFIGS[sub], "base"))
    dead = [key for key, value in ALTERNATIVES[sub].items()
            if csv_bytes(run(tmp_path, sub, {**SMALL_CONFIGS[sub], key: value},
                             key)) == base]
    assert not dead, f"{sub}: no CSV byte depends on {dead}"


def test_detection_public_functions_stay_on_the_calling_thread(tmp_path,
                                                               monkeypatch):
    """The benchmark tracer keeps one span stack per process, so every
    public function of ``detection`` runs on the main thread, and
    ``pd_curve`` leaves no pool thread behind."""
    entered, leftover = [], []

    def spy(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            entered.append((name, threading.current_thread()))
            before = set(threading.enumerate())
            result = fn(*args, **kwargs)
            if name == "pd_curve":
                leftover.extend(set(threading.enumerate()) - before)
            return result
        return wrapped

    for name, fn in list(vars(detection).items()):
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == detection.__name__):
            monkeypatch.setattr(detection, name, spy(name, fn))
    run(tmp_path, "detection-pd",
        {**SMALL_CONFIGS["detection-pd"], "detectors": ["ced", "edscd"],
         "isnr_grid_db": [-4.0, -2.0, 0.0, 2.0, 4.0]}, "t")
    assert {name for name, _ in entered} == {
        "calibrate_threshold", "pd_curve", "wilson_interval"}
    assert all(t is threading.main_thread() for _, t in entered)
    assert not leftover


class TestConfigTypes:
    def test_int_accepted_for_float_and_none_unchecked(self, tmp_path):
        out = run(tmp_path, "caching-threshold",
                  {**FAST_CONFIGS["caching-threshold"], "rate_bc": 2}, "f")
        assert json.loads((out / "manifest.json").read_text())["config"]["rate_bc"] == 2
        cli._check_type("rem_csv", "stations.csv", None)

    def test_failed_run_keeps_earlier_outputs(self, tmp_path, capsys):
        out = run(tmp_path, "caching-threshold",
                  FAST_CONFIGS["caching-threshold"], "o")
        before = csv_bytes(out)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"alphas": [0.8, -1]}))
        rc = cli.main(["caching-threshold", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 1 and "error:" in capsys.readouterr().err
        assert csv_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*before, "manifest.json"])

    @pytest.mark.parametrize("taken", ["manifest.json",
                                       "caching_curve_alpha1.2.csv"])
    def test_output_name_taken_by_a_directory(self, tmp_path, capsys, taken):
        # the CSVs used to be moved in before the manifest failed to open
        out = tmp_path / "o"
        (out / taken).mkdir(parents=True)
        earlier = b"alpha\r\nearlier\r\n"
        (out / "caching_threshold.csv").write_bytes(earlier)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(FAST_CONFIGS["caching-threshold"]))
        rc = cli.main(["caching-threshold", "--config", str(cfg),
                       "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error:") and taken in err[0]
        assert (out / "caching_threshold.csv").read_bytes() == earlier
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["caching_threshold.csv", taken])
        assert not any((out / taken).iterdir())


RUN_ALL_SUBCOMMANDS = """
import json, sys
from pathlib import Path
import satkit.cli
configs, tmp = json.loads(sys.argv[1]), Path(sys.argv[2])
for sub, cfg in configs.items():
    path = tmp / f"{sub}.json"
    path.write_text(json.dumps(cfg))
    assert satkit.cli.main([sub, "--config", str(path), "--out", str(tmp / sub)]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy"
             or m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_cli_runs_load_no_scipy(tmp_path):
    # scipy costs about half a second of imports, which every CLI run would
    # pay before doing any work; it is a test-only dependency. numpy.ma,
    # which np.quantile and np.unique import on first use, costs 10-20 ms.
    assert sorted(SMALL_CONFIGS) == sorted(cli.SUBCOMMANDS)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", RUN_ALL_SUBCOMMANDS, json.dumps(SMALL_CONFIGS),
         str(tmp_path)],
        capture_output=True, env={**os.environ, "PYTHONPATH": path}, text=True,
        timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestCsvContracts:
    def test_crlf_and_headers_channel_report(self, tmp_path):
        out = run(tmp_path, "channel-report", FAST_CONFIGS["channel-report"],
                  "h")
        raw = (out / "channel_report.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n")
        lines = raw.decode().split("\r\n")
        assert lines[0] == "reuse_factor,avg_cir_db,n_mc,seed"
        assert len([ln for ln in lines if ln]) == 5      # header + 4 factors

    def test_rate_region_files_per_strategy(self, tmp_path):
        out = run(tmp_path, "rate-region", FAST_CONFIGS["rate-region"], "r")
        for strat in ("ian", "hk"):
            path = out / f"rate_region_{strat}.csv"
            lines = path.read_bytes().decode().split("\r\n")
            assert lines[0] == "strategy,param1,param2,R1,R2,on_frontier"
            rows = [ln for ln in lines[1:] if ln]
            assert rows
            assert all(ln.split(",")[0] == strat for ln in rows)

    def test_caching_curve_files(self, tmp_path):
        out = run(tmp_path, "caching-threshold",
                  FAST_CONFIGS["caching-threshold"], "k")
        assert (out / "caching_curve_alpha1.2.csv").exists()
        body = (out / "caching_threshold.csv").read_bytes().decode()
        assert body.startswith("alpha,K,I,rate_ratio,i_hat,T_uc,T_bc,T_tot")

    def test_caching_flat_curve_breaks_tie_to_unicast(self, tmp_path):
        # uniform popularity and K/(I R_uc) = 1/R_bc: every threshold costs
        # the same, so the lowest one is the optimum
        out = run(tmp_path, "caching-threshold",
                  {"alphas": [0.0], "n_stations": 100, "library_size": 100,
                   "rate_ratio": 1.0}, "t")
        curve = (out / "caching_curve_alpha0.csv").read_bytes().decode()
        rows = [ln.split(",") for ln in curve.split("\r\n")[1:] if ln]
        assert [t for _, t in rows] == ["100"] * 101
        summary = (out / "caching_threshold.csv").read_bytes().decode()
        assert summary.split("\r\n")[1] == "0,100,100,1,1,100,0,100"

    def test_carrier_assign_summary(self, tmp_path):
        out = run(tmp_path, "carrier-assign", FAST_CONFIGS["carrier-assign"],
                  "s")
        lines = (out / "carrier_assign.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "carrier,terminal,rate_bpshz"
        assert len(lines) - 1 == 3                        # one row per carrier
        summary = (out / "carrier_assign_summary.csv").read_bytes().decode()
        assert summary.startswith("sum_rate,exclusive_sum_rate,gain_factor")

    def test_carrier_assign_over_huge_areas(self, tmp_path):
        # squared distances past the float range give a path-loss factor
        # of 0, as the interference they stand for is below any float
        outs = [csv_bytes(run(tmp_path, "carrier-assign",
                              {**FAST_CONFIGS["carrier-assign"], "area_km": a},
                              str(i)))
                for i, a in enumerate([1e160, 1e200, sys.float_info.max])]
        assert outs[0] == outs[1] == outs[2]
        summary = outs[0]["carrier_assign_summary.csv"].decode().split("\r\n")
        assert summary[1].split(",")[2] == "1"          # gain_factor

    def test_float_formatting(self):
        assert cli._fmt(0.1) == "0.1"
        assert cli._fmt(float("nan")) == "nan"
        assert cli._fmt(float("inf")) == "inf"
        assert cli._fmt(float("-inf")) == "-inf"
        assert cli._fmt(True) == "1"
        assert cli._fmt(3) == "3"


class TestHeavySubcommandsSmallConfig:
    def test_precoding_bench(self, tmp_path):
        out = run(tmp_path, "precoding-bench", {"cases": [[4, 1]]}, "p")
        lines = (out / "precoding_bench.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "K,Nu,sr_per_beam"
        assert len(lines) == 2

    def test_detection_pd(self, tmp_path):
        cfg = {"detectors": ["ced"], "n_mc": 50, "n_mc_calib": 200,
               "isnr_grid_db": [0.0]}
        out = run(tmp_path, "detection-pd", cfg, "d")
        lines = (out / "detection_pd.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0].startswith("detector,eps_db,isnr_db,pd")
        assert len(lines) == 2
        assert lines[1].startswith("ced,2,0,")

    def test_spd_bench_with_lut(self, tmp_path):
        cfg = {"obo_grid_db": [4.0], "modes": ["none"], "n_symbols": 300,
               "lut_bins": 8}
        out = run(tmp_path, "spd-bench", cfg, "v")
        lines = (out / "spd_bench.csv").read_bytes().decode().strip().split("\r\n")
        assert lines[0] == ("spd_location,jitter_aware,obo_db,obo_target_db,"
                            "sinr_db,seed")
        assert len(lines) == 2
        assert lines[1].split(",")[3] == "4"
        lut = (out / "spd_lut.csv").read_bytes().decode().strip().split("\r\n")
        assert lut[0] == "bin_lo,bin_hi,gain_re,gain_im"
        assert len(lut) == 9
