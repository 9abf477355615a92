"""End-to-end acceptance criteria, one test (and one pass/fail line) each."""
import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from frame_reference import gen_batch, stats_batch
from predistortion_reference import fit_hpa
from satkit import (access, caching, cli, cognitive, detection, precoding,
                    predistortion)
from satkit.scenario import ChannelSet, average_cir, default_scenario


def report(number, label, elapsed, budget_s):
    line = (f"ACCEPTANCE {number} ({label}): PASS "
            f"[{elapsed:.2f} s / budget {budget_s:g} s]")
    print(line, flush=True)
    assert elapsed < budget_s, f"criterion {number} exceeded runtime budget"


def random_channel_set(rng, n_u, k, n):
    h = rng.standard_normal((n_u, k, n)) + 1j * rng.standard_normal((n_u, k, n))
    return ChannelSet(H=h)


class TestAcceptance:
    def test_1_mmse_matches_dense_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        for k in (4, 8, 12, 16):
            h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            p = 10.0
            w = precoding.mmse_multicast(h, p)
            # independent dense-solve oracle
            raw = np.linalg.solve(h.conj().T @ h + np.eye(k) / p, h.conj().T)
            beta = np.sqrt(p / np.max(np.einsum("nk,nk->n", raw,
                                                raw.conj()).real))
            assert np.linalg.norm(w.W - beta * raw) \
                <= 1e-10 * np.linalg.norm(beta * raw)
            # binding per-feed cap
            assert np.max(w.feed_powers()) == pytest.approx(p, abs=1e-9)
            # ZF limit: relative residual interference vanishes with P
            resid = []
            for p_zf in (1e2, 1e4, 1e6):
                e = h @ precoding.mmse_multicast(h, p_zf).W
                off = e - np.diag(np.diag(e))
                resid.append(np.linalg.norm(off) / np.linalg.norm(np.diag(e)))
            assert resid[0] > resid[1] > resid[2]
        report(1, "MMSE precoder vs dense oracle", time.perf_counter() - t0, 1)

    def test_2_sinr_and_sum_rate_scalar_oracles(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        for trial in range(100):
            k = int(rng.integers(2, 33))
            n_u = int(rng.integers(1, 4))
            ch = random_channel_set(rng, n_u, k, k)
            w = precoding.mmse_multicast(precoding.average_channel(ch), 5.0)
            table = precoding.sinr_all(ch, w)
            for i in range(n_u):
                for kk in range(k):
                    own = abs(ch.H[i, kk] @ w.W[:, kk]) ** 2
                    tot = sum(abs(ch.H[i, kk] @ w.W[:, j]) ** 2
                              for j in range(k))
                    want = own / (tot - own + 1.0)
                    assert table[i, kk] == pytest.approx(want, rel=1e-12)
            total, per_beam = precoding.sum_rate(table)
            want_pb = [np.log2(1 + min(table[i, kk] for i in range(n_u)))
                       for kk in range(k)]
            np.testing.assert_allclose(per_beam, want_pb, rtol=1e-12)
            assert total == pytest.approx(sum(want_pb), rel=1e-12)
        report(2, "SINR/sum-rate scalar oracles", time.perf_counter() - t0, 30)

    def test_3_rate_region_properties(self):
        t0 = time.perf_counter()
        cross = 10 ** (-0.2)
        template = access.TwoUserChannel(g11=1.0, g21=cross, g12=cross,
                                         g22=1.0, p1=1.0, p2=1.0)
        p_values = np.geomspace(0.5, 200.0, 20)
        lam = np.linspace(0.0, 1.0, 21)
        regions = access.region_sweep(template, p_values,
                                      strategies=("ian", "hk"), lam_grid=lam)
        assert access.frontier_dominates(regions["hk"], regions["ian"])
        # exact index-swap symmetry of the corner evaluator
        ch = replace(template, p1=7.0, p2=3.0, g21=0.4)
        sub = lam[::4]
        a = access.hk_region(ch, sub)
        b = access.hk_region(ch.swapped(), sub)
        n = len(sub)
        assert np.array_equal(a.r1, b.r2.reshape(n, n).T.ravel())
        assert np.array_equal(a.r2, b.r1.reshape(n, n).T.ravel())
        # exact collapse to the interference-free rectangle
        free = access.TwoUserChannel(g11=1.0, g21=0.0, g12=0.0, g22=1.0,
                                     p1=10.0, p2=10.0)
        r_max = np.log2(11.0)
        reg = access.hk_region(free, lam)
        assert np.all(reg.r1 <= r_max + 1e-12) and np.all(reg.r2 <= r_max + 1e-12)
        ref = access.RateRegion(np.array([r_max]), np.array([r_max]),
                                np.empty((1, 0)))
        assert access.frontier_dominates(reg, ref)
        report(3, "HK dominance/symmetry/collapse", time.perf_counter() - t0,
               10)

    def test_4_detection_isnr_wall_gap(self):
        t0 = time.perf_counter()
        pfa, eps, n_mc = 0.01, 2.0, 5000
        grid = [float(v) for v in range(-8, 7)]
        walls = {}
        for kind in ("ced", "edscp"):
            det = detection.DetectorConfig(kind=kind,
                                           noise_uncertainty_db=eps)
            tau = detection.calibrate_threshold(det, pfa, 20000, seed=0)
            det = replace(det, threshold=tau)
            # realised Pfa at the calibration (worst-case) noise level
            rng = np.random.default_rng(99)
            h = detection._draw_channels(rng, n_mc, 4.0)
            x, s = gen_batch(0, h, 6.0, -np.inf, eps, rng, n_mc,
                             460, 56, noise_var_db=eps)
            stat = stats_batch(kind, x, s, 10 ** 0.3, 56)
            hits = int(np.sum(stat > tau))
            lo, hi = detection.wilson_interval(hits, n_mc)
            assert lo <= pfa <= hi
            rows = detection.pd_curve(det, grid, n_mc=n_mc, seed=0)
            walls[kind] = detection.wall_crossing(rows, 0.9)
        assert np.isfinite(walls["ced"]) and np.isfinite(walls["edscp"])
        assert walls["ced"] - walls["edscp"] >= 5.0
        report(4, f"ISNR wall gap {walls['ced'] - walls['edscp']:.2f} dB",
               time.perf_counter() - t0, 120)

    def test_5_predistortion_ordering_at_matched_obo(self):
        t0 = time.perf_counter()
        hpa = predistortion.HpaParams()
        # exact cubic-model recovery
        rng = np.random.default_rng(2)
        x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        x *= 0.9 * hpa.r_sat / np.max(np.abs(x))
        fit = fit_hpa(x, predistortion.hpa_apply(hpa, x))
        assert abs(fit.alpha - hpa.alpha) <= 1e-9
        assert abs(fit.beta - hpa.beta) <= 1e-9
        obo_grid = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        rows = predistortion.spd_benchmark(hpa, obo_grid, n_symbols=20000)
        sinr = {(r["spd_location"], r["obo_target_db"]): r["sinr_db"]
                for r in rows}
        for obo in obo_grid:
            assert sinr[("onboard", obo)] > sinr[("none", obo)]
            assert sinr[("onboard", obo)] >= sinr[("onground", obo)]
        report(5, "onboard SPD ordering over OBO 2..8 dB",
               time.perf_counter() - t0, 120)

    def test_6_assignment_matches_enumeration(self):
        t0 = time.perf_counter()
        perm_cache = {}
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            k = int(rng.integers(1, 8))
            rates = rng.uniform(0, 10, (m, k))
            pad = np.concatenate([rates, np.zeros((m, max(0, m - k)))],
                                 axis=1)
            cols = pad.shape[1]
            if (m, cols) not in perm_cache:
                perm_cache[(m, cols)] = np.array(
                    list(itertools.permutations(range(cols), m)))
            perms = perm_cache[(m, cols)]
            best = np.max(pad[np.arange(m)[None, :], perms].sum(axis=1))
            a = cognitive.assign_hungarian(rates)
            assert a.objective == pytest.approx(best, abs=1e-9)
            # invariances: positive scaling and a constant row shift
            b = cognitive.assign_hungarian(3.7 * rates)
            assert b.terminal_of == a.terminal_of
            if m <= k:   # with dummy columns a row shift can move the optimum
                shifted = rates.copy()
                shifted[m // 2] += 5.0
                c = cognitive.assign_hungarian(shifted)
                assert c.terminal_of == a.terminal_of
        report(6, "assignment vs exhaustive oracle, 200 seeds",
               time.perf_counter() - t0, 5)

    def test_7_caching_threshold(self):
        t0 = time.perf_counter()
        s, k, i, r_uc, r_bc = 1.0, 500, 100, 3.0, 1.0
        for alpha in (1.2, 1.6):
            m = caching.PopularityModel(library_size=i, alpha=alpha)
            plan = caching.delivery_plan(m, s, k, r_uc, r_bc)
            assert plan.t_tot[0] == pytest.approx(s * k / r_uc, rel=1e-12)
            assert plan.t_tot[i] == s * i / r_bc
            i_hat = plan.i_hat
            cont = caching.continuous_threshold(m, k, r_uc, r_bc)
            assert abs(i_hat - cont) <= 1.0
        m = caching.PopularityModel(library_size=200, alpha=1.2)
        hats = [caching.delivery_plan(m, s, kk, r_uc, r_bc).i_hat
                for kk in (1, 10, 100, 1000)]
        assert hats == sorted(hats)
        report(7, "caching boundary/derivative checks",
               time.perf_counter() - t0, 1)

    def test_8_cir_progression(self):
        t0 = time.perf_counter()
        scn = default_scenario(n_beams=71, n_u=2)
        cir = [average_cir(scn, fr, n_mc=150, rng=np.random.default_rng(fr))
               for fr in (1, 2, 3, 4)]
        assert cir[0] < cir[1] < cir[2] < cir[3]
        assert cir[3] - cir[0] >= 20.0
        report(8, f"CIR gain fr4-fr1 = {cir[3] - cir[0]:.1f} dB",
               time.perf_counter() - t0, 30)

    def test_9_manifest_reproducibility(self, tmp_path, monkeypatch):
        t0 = time.perf_counter()
        rem = tmp_path / "rem.csv"
        rem.write_text("station_id,x_km,y_km,tx_dbw,azimuth_deg,beamwidth_deg\n"
                       "0,1.5,-2.0,10.0,0.0,30.0\n4,-8.0,3.5,12.0,270.5,90.0\n"
                       "7,20.0,20.0,8.0,359.9,360.0\n")
        runs = [
            ("channel-report", {"n_beams": 7, "n_mc": 5}),
            ("precoding-bench", {"cases": [[4, 1]]}),
            ("rate-region", {"p_values": [1.0, 10.0], "lam_points": 5,
                             "strategies": ["ian", "scd", "snd", "fdm", "hk"]}),
            ("detection-pd", {"detectors": ["ced"], "n_mc": 100,
                              "n_mc_calib": 500, "isnr_grid_db": [0.0, 4.0]}),
            ("spd-bench", {"obo_grid_db": [4.0], "modes": ["none", "onboard"],
                           "n_symbols": 400, "lut_bins": 8}),
            ("carrier-assign", {"n_carriers": 3, "n_terminals": 4,
                                "n_stations": 5, "area_km": 50.0}),
            ("carrier-assign", {"n_carriers": 3, "n_terminals": 4,
                                "area_km": 50.0, "rem_csv": str(rem)}),
            ("caching-threshold", {"alphas": [0.8, 1.2], "n_stations": 50,
                                   "library_size": 20}),
        ]
        assert {sub for sub, _ in runs} == set(cli.SUBCOMMANDS)

        def outputs(out_dir):
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

        for i, (sub, cfg) in enumerate(runs):
            first = tmp_path / f"{i}" / "a"
            second = tmp_path / f"{i}" / "b"
            cfg_path = tmp_path / f"{i}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main([sub, "--config", str(cfg_path),
                             "--out", str(first)]) == 0
            with monkeypatch.context() as env:
                # a replay reads only its manifest, not the environment
                env.setenv("SATKIT_SEED", "5")
                assert cli.main([sub, "--config", str(first / "manifest.json"),
                                 "--out", str(second)]) == 0
            files = outputs(first)
            assert "manifest.json" in files
            assert any(name.endswith(".csv") for name in files)
            assert files == outputs(second), f"{sub} {cfg} not reproducible"
        report(9, "every subcommand re-runs byte-identically",
               time.perf_counter() - t0, 300)
