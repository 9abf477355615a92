import concurrent.futures
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from frame_reference import gen_batch, stats_batch
from satkit import detection as dt
from satkit.scenario import ConfigurationError


AMP = 10 ** (6.0 / 20)                  # signal amplitude at 6 dB SNR


def frame(hyp, isnr=-30.0, seed=0):
    """One 516-sample frame at h = 1, 56 pilots first: (samples, symbols)."""
    x, s = gen_batch(hyp, np.array([1.0 + 0j]), 6.0, isnr, 0.0,
                     np.random.default_rng(seed), 1, 460, 56)
    return x[0], s[0]


def stat(kind, x, s):
    return stats_batch(kind, x[None], s[None], AMP, 56)[0]


def measured_pfa(detector, snr_db=6.0, eps_db=0.0, n_mc=5000, seed=1,
                 fade_db=4.0):
    """Realised false-alarm rate of whole H0 frames, with its Wilson interval."""
    rng = np.random.default_rng(seed)
    h = dt._draw_channels(rng, n_mc, fade_db)
    x, s = gen_batch(0, h, snr_db, -np.inf, eps_db, rng, n_mc,
                     dt.N_DATA, dt.N_PILOT)
    t = stats_batch(detector.kind, x, s, 10 ** (snr_db / 20),
                    dt.N_PILOT)
    hits = int(np.sum(t > detector.threshold))
    return hits / n_mc, dt.wilson_interval(hits, n_mc)


class TestGenFrame:
    def test_layout(self):
        x, s = frame(0)
        assert x.shape == s.shape == (516,)
        np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12)

    def test_h0_noise_variance(self):
        x, s = frame(0, seed=1)
        var = np.mean(np.abs(x - AMP * s) ** 2)
        # sample variance of N=516 complex Gaussians, 3 sigma bounds
        assert abs(var - 1.0) < 3 / np.sqrt(516)

    def test_vanishing_interference_matches_h0(self):
        x0 = np.concatenate([frame(0, seed=s)[0].real for s in range(20)])
        x1 = np.concatenate([frame(1, isnr=-80.0, seed=200 + s)[0].real
                             for s in range(20)])
        assert stats.ks_2samp(x0, x1).pvalue > 0.001

    def test_determinism(self):
        np.testing.assert_array_equal(frame(1, isnr=0.0, seed=3)[0],
                                      frame(1, isnr=0.0, seed=3)[0])

    def test_isnr_definition(self):
        # interferer power = 10^(isnr/10) * (signal + noise power)
        rng = np.random.default_rng(4)
        x, s = gen_batch(1, np.ones(4000, complex), 6.0, 3.0, 0.0, rng,
                         4000, 460, 56)
        amp = 10 ** (6.0 / 20)
        p_meas = np.mean(np.abs(x - amp * s) ** 2) - 1.0
        assert p_meas == pytest.approx(10 ** 0.3 * (amp ** 2 + 1), rel=0.05)


class TestStatistics:
    def test_ced_is_mean_energy(self):
        x, s = frame(0)
        assert stat("ced", x, s) == pytest.approx(np.mean(np.abs(x) ** 2),
                                                  rel=1e-12)

    def test_edscp_matches_scalar_oracle(self):
        x, s = frame(1, isnr=2.0, seed=5)
        xp, sp = x[:56], AMP * s[:56]
        h_hat = np.sum(np.conj(sp) * xp) / np.sum(np.abs(sp) ** 2)
        want = np.mean(np.abs(xp - h_hat * sp) ** 2)
        assert stat("edscp", x, s) == pytest.approx(want, rel=1e-12)

    def test_edscd_matches_scalar_oracle(self):
        x, s = frame(1, isnr=2.0, seed=6)
        xp, sp = x[:56], AMP * s[:56]
        h_hat = np.sum(np.conj(sp) * xp) / np.sum(np.abs(sp) ** 2)
        xd = x[56:]
        z = xd / h_hat
        sd = (np.sign(z.real) + 1j * np.sign(z.imag)) / np.sqrt(2)
        want = (np.sum(np.abs(xp - h_hat * sp) ** 2)
                + np.sum(np.abs(xd - h_hat * AMP * sd) ** 2)) / x.size
        assert stat("edscd", x, s) == pytest.approx(want, rel=1e-12)

    def test_edscp_unbiased_with_long_pilot_block(self):
        # perfect-cancellation limit: statistic mean equals noise variance
        rng = np.random.default_rng(7)
        x, s = gen_batch(0, np.ones(200, complex), 6.0, 0.0, 0.0, rng,
                         200, 0, 20000)
        t = stats_batch("edscp", x, s, 10 ** 0.3, 20000)
        assert np.mean(t) == pytest.approx(1.0, abs=0.01)


class TestCalibration:
    def test_pfa_at_zero_uncertainty(self):
        for kind in dt.DETECTOR_KINDS:
            det = dt.DetectorConfig(kind=kind)
            tau = dt.calibrate_threshold(det, 0.01, 20000, seed=11)
            det = replace(det, threshold=tau)
            pfa, (lo, hi) = measured_pfa(det, eps_db=0.0, n_mc=5000,
                                         seed=12)
            width = hi - lo
            assert abs(pfa - 0.01) <= 1.5 * width

    def test_worst_case_keeps_pfa_below_target(self):
        det = dt.DetectorConfig(kind="ced", noise_uncertainty_db=2.0)
        tau = dt.calibrate_threshold(det, 0.01, 20000, seed=13)
        det = replace(det, threshold=tau)
        # nominal (0 dB) noise inside the interval: realised Pfa <= target
        pfa, _ = measured_pfa(det, eps_db=0.0, n_mc=5000, seed=14)
        assert pfa <= 0.012

    def test_invalid_pfa(self):
        det = dt.DetectorConfig(kind="ced")
        with pytest.raises(ConfigurationError):
            dt.calibrate_threshold(det, 1.5, 100)

    def test_no_calibration_frames(self):
        with pytest.raises(ConfigurationError):
            dt.calibrate_threshold(dt.DetectorConfig(kind="ced"), 0.01, 0)


# (hypothesis, ISNR dB) of the rows of one sampler call, with the noise
# drawn within eps = 2 dB per frame as pd_curve draws it
SAMPLER_CASES = {"h0": (0, -np.inf), "h1-4dB": (1, -4.0),
                 "h1+2dB": (1, 2.0)}
CASE_ROWS = sorted(SAMPLER_CASES)
# variance each row adds to the frame's noise, in CASE_ROWS order
CASE_EXTRA = [10 ** (SAMPLER_CASES[c][1] / 10) * (AMP ** 2 + 1)
              for c in CASE_ROWS]


@pytest.fixture(scope="module", params=CASE_ROWS)
def frame_oracle(request):
    """Statistics of 4000 synthesised frames per detector, eps = 2 dB."""
    hyp, isnr = SAMPLER_CASES[request.param]
    rng = np.random.default_rng(40)
    h = dt._draw_channels(rng, 4000, 4.0)
    x, s = gen_batch(hyp, h, 6.0, isnr, 2.0, rng, 4000, 460, 56)
    return request.param, {kind: stats_batch(kind, x, s, 10 ** 0.3, 56)
                           for kind in dt.DETECTOR_KINDS}


def sums_once(w, mu):
    """The reference reduction: (rows, frames) sums of (w + mu)^2 and
    |w + mu| for a block w, (frames, 2, n), and means mu, (rows, frames, 2),
    by one pass for each row."""
    shifted = np.empty_like(w)
    sq, ab = np.empty((2, len(mu), len(w)))
    for p, m in enumerate(mu):
        np.add(w, m[:, :, None], out=shifted)
        sq[p] = np.einsum("ijk,ijk->i", shifted, shifted)
        ab[p] = np.abs(shifted, out=shifted).sum(axis=(1, 2))
    return sq, ab


SUMS = {"once": sums_once, "sorted": dt._sums_sorted}
CHUNKS = (1, 7, 300, 1500, 4000, 5000)      # 1500 + 1500 + 1000, ...
PINNED_DB = 2.0                             # noise level of the crossed calls


def sampler(*args, sums="sorted"):
    """``dt._sample_stats(*args)`` with the reduction ``sums``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dt, "_sums_sorted", SUMS[sums])
        return dt._sample_stats(*args)


def sample(kind, sums="sorted", extra=CASE_EXTRA, n_mc=4000):
    """One sampler call whose rows are the SAMPLER_CASES levels, laid out
    as pd_curve lays it out: one outer draw per set of data normals."""
    rng = np.random.default_rng(41)
    h = dt._draw_channels(rng, n_mc, 4.0)[None]
    v0 = 10 ** (rng.uniform(-2.0, 2.0, (1, n_mc)) / 10)
    return sampler(kind, h, 6.0, v0, extra, rng, 460, 56, sums=sums)[:, 0]


def crossed(sums="sorted", m=1000, seed=43):
    """EDSCD's H0 statistics at PINNED_DB as calibrate_threshold draws them
    for 4 m frames: (K, m), with pairing k of the m sets of data normals in
    row k."""
    rng = np.random.default_rng(seed)
    shape = (dt._EDSCD_SHARE, m)
    h = dt._draw_channels(rng, shape[0] * m, 4.0).reshape(shape)
    v0 = np.full(shape, 10 ** (PINNED_DB / 10))
    return sampler("edscd", h, 6.0, v0, [0.0], rng, 460, 56, sums=sums)[0]


@pytest.fixture(scope="module")
def samples():
    out = {kind: sample(kind) for kind in dt.DETECTOR_KINDS}
    out["edscd-once"] = sample("edscd", "once")
    out["crossed"], out["crossed-once"] = crossed(), crossed("once")
    return out


@pytest.fixture(scope="module")
def edscd_by_chunk():
    """EDSCD rows of the same calls at several block sizes, both reductions."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for chunk in CHUNKS:
            mp.setattr(dt, "_EDSCD_CHUNK", chunk)
            for sums in SUMS:
                out["edscd", sums, chunk] = sample("edscd", sums)
                out["crossed", sums, chunk] = crossed(sums)
    return out


@pytest.fixture(scope="module")
def pinned_oracle():
    """EDSCD statistics of 4000 synthesised H0 frames at PINNED_DB."""
    rng = np.random.default_rng(44)
    h = dt._draw_channels(rng, 4000, 4.0)
    x, s = gen_batch(0, h, 6.0, -np.inf, 0.0, rng, 4000, 460, 56,
                     noise_var_db=PINNED_DB)
    return stats_batch("edscd", x, s, 10 ** 0.3, 56)


class SerialPool:
    """An executor that runs each task when it is submitted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


def raise_at_block(monkeypatch, name, block=2):
    """Make the reduction ``name`` raise on its call for ``block``; returns
    the thread count seen by each call."""
    counts, sums = [], getattr(dt, name)

    def failing(w, mu):
        counts.append(threading.active_count())
        if len(counts) > block:
            raise RuntimeError(f"reduction failed at block {block}")
        return sums(w, mu)
    monkeypatch.setattr(dt, name, failing)
    return counts


def threads_back_to(baseline, timeout=5.0):
    """Whether the thread count falls to ``baseline`` within ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestExactSampler:
    @pytest.mark.parametrize("kind", dt.DETECTOR_KINDS)
    def test_matches_frame_simulation(self, frame_oracle, samples, kind):
        case, oracle = frame_oracle
        assert samples[kind].shape == (len(CASE_ROWS), 4000)
        t = samples[kind][CASE_ROWS.index(case)]
        assert stats.ks_2samp(t, oracle[kind]).pvalue > 0.001

    @pytest.mark.parametrize("case", CASE_ROWS)
    def test_edscd_partial_last_chunk(self, case, samples, edscd_by_chunk):
        # one stream of data normals: the block size changes no bit
        p = CASE_ROWS.index(case)
        ref = {"once": samples["edscd-once"], "sorted": samples["edscd"]}
        for sums, chunk in ((s, c) for s in SUMS for c in CHUNKS):
            assert np.array_equal(edscd_by_chunk["edscd", sums, chunk][p],
                                  ref[sums][p]), (sums, chunk)

    def test_crossed_partial_last_chunk(self, samples, edscd_by_chunk):
        ref = {"once": samples["crossed-once"], "sorted": samples["crossed"]}
        for sums, chunk in ((s, c) for s in SUMS for c in CHUNKS):
            assert np.array_equal(edscd_by_chunk["crossed", sums, chunk],
                                  ref[sums]), (sums, chunk)

    def test_edscd_reductions_agree(self, samples):
        for call in ("edscd", "crossed"):
            np.testing.assert_allclose(samples[call], samples[f"{call}-once"],
                                       rtol=1e-12, atol=0)

    def test_edscd_sorted_row_independent_of_other_rows(self):
        for p, x in enumerate(CASE_EXTRA):
            assert np.array_equal(sample("edscd", extra=[x], n_mc=300)[0],
                                  sample("edscd", n_mc=300)[p])

    @pytest.mark.parametrize("case", CASE_ROWS)
    def test_edscd_rotation_identity(self, case):
        """The row's rotated residual, by either reduction, equals the
        decision residual of the unrotated data samples, rebuilt from the
        same draws, with one outer draw per set of data normals as in
        pd_curve and with three, which share that set, as in calibration."""
        for share in (1, 3):
            self.check_rotation_identity(CASE_ROWS.index(case), share)

    @staticmethod
    def check_rotation_identity(p, share):
        n_mc, nd, n_p, a2 = 6, 460, 56, 10 ** 0.6
        rng = np.random.default_rng(3)
        h = dt._draw_channels(rng, share * n_mc, 4.0).reshape(share, n_mc)
        v0 = 10 ** (rng.uniform(-2.0, 2.0, (share, n_mc)) / 10)
        t = [sampler("edscd", h, 6.0, v0, CASE_EXTRA,
                     np.random.default_rng(42), nd, n_p, sums=sums)[p]
             for sums in SUMS]
        rng = np.random.default_rng(42)
        v = v0 + CASE_EXTRA[p]
        pilot_res = v / 2 * rng.chisquare(2 * (n_p - 1), (share, n_mc))
        e = rng.standard_normal((share, n_mc, 2))
        h_hat = (np.abs(h)
                 + np.sqrt(v / (2 * a2 * n_p)) * (e[..., 0] + 1j * e[..., 1]))
        w = rng.standard_normal((n_mc, 2, nd))          # (re, im) rows
        rot = np.exp(1j * np.angle(h_hat))[..., None]
        y = (np.sqrt(v / 2)[..., None] * (w[:, 0] + 1j * w[:, 1])
             + (np.abs(h) * np.sqrt(a2 / 2) * (1 + 1j))[..., None] / rot)
        xd = y * rot
        z = xd * np.conj(h_hat)[..., None]
        old = (np.sum(np.abs(xd) ** 2, axis=-1)
               - np.sqrt(2 * a2) * np.sum(np.abs(z.real) + np.abs(z.imag),
                                          axis=-1)
               + nd * a2 * np.abs(h_hat) ** 2)
        s_d = (np.sign(z.real) + 1j * np.sign(z.imag)) / np.sqrt(2)
        direct = np.sum(np.abs(xd - h_hat[..., None] * np.sqrt(a2) * s_d) ** 2,
                        axis=-1)
        for row in t:
            np.testing.assert_allclose(row, (pilot_res + old) / (nd + n_p),
                                       rtol=1e-12)
            np.testing.assert_allclose(row, (pilot_res + direct) / (nd + n_p),
                                       rtol=1e-12)


class TestCrossedCalibration:
    """EDSCD's threshold from sets of data normals shared by outer draws."""

    def test_threshold_is_the_quantile_of_the_crossed_call(self, samples):
        det = dt.DetectorConfig(kind="edscd", noise_uncertainty_db=PINNED_DB)
        assert samples["crossed"].shape == (dt._EDSCD_SHARE, 1000)
        assert (dt.calibrate_threshold(det, 0.01, 4000, seed=43)
                == dt._quantile(samples["crossed"].ravel(), 0.99))

    def test_all_pairs_have_the_frame_law(self, samples, pinned_oracle):
        t = samples["crossed"].ravel()
        assert stats.ks_2samp(t, pinned_oracle).pvalue > 0.001

    @pytest.mark.parametrize("k", range(dt._EDSCD_SHARE))
    def test_each_pairing_has_the_frame_law(self, samples, pinned_oracle, k):
        # row k pairs each set of data normals with its own outer draw, so
        # its 1000 statistics are independent frames
        assert stats.ks_2samp(samples["crossed"][k],
                              pinned_oracle).pvalue > 0.001

    def test_memory_at_the_default_size(self):
        """The 16 outer draws per set of data normals, 80 000 at the
        default 20 000, and the blocks fit in 10 MB."""
        det = dt.DetectorConfig(kind="edscd", noise_uncertainty_db=2.0)
        tracemalloc.start()
        try:
            dt.calibrate_threshold(det, 0.01, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6, peak


class TestReductions:
    """The sorted reduction against the one-pass reduction on one block."""

    @staticmethod
    def block(seed=8):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((9, 2, 460))
        # rows whose means put all, most, about half and none of the normals
        # below -mu, then means of either sign and a zero component
        mu = np.concatenate([np.full((1, 9, 2), -40.0),
                             np.full((1, 9, 2), -1.5),
                             np.full((1, 9, 2), 0.0),
                             np.full((1, 9, 2), 40.0),
                             rng.normal(0.0, 2.0, (4, 9, 2))])
        mu[-1, :, 0] = 0.0
        return w, mu

    def test_sorted_sums_match_one_pass(self):
        w, mu = self.block()
        want = sums_once(w, mu)
        got = dt._sums_sorted(w.copy(), mu)
        for g, o in zip(got, want):
            np.testing.assert_allclose(g, o, rtol=1e-12, atol=0)

    def test_bisected_count_is_exact(self):
        w, mu = self.block()
        w.sort(axis=2)
        # bounds drawn from the block itself hit ties with its entries
        x = np.concatenate([-mu, w[None, :, :, 0], w[None, :, :, 229],
                            w[None, :, :, -1], np.nextafter(w[None, :, :, 3],
                                                            np.inf)])
        np.testing.assert_array_equal(
            dt._count_below(w, x), (w[None] < x[..., None]).sum(axis=3))


class TestDrawAhead:
    """The helper thread that draws the next block during a reduction."""

    @pytest.mark.parametrize("sums", SUMS)
    def test_matches_serial_loop_under_fast_switching(self, sums,
                                                      monkeypatch):
        # the curve's layout, then the crossed calibration's
        calls = (lambda: sample("edscd", sums, n_mc=600),
                 lambda: crossed(sums, m=150))
        monkeypatch.setattr(dt, "_EDSCD_CHUNK", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [call() for call in calls]
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            SerialPool)
        for t, call in zip(threaded, calls):
            assert np.array_equal(t, call())

    def test_failed_curve_reduction_propagates_and_joins(self, monkeypatch):
        det = dt.DetectorConfig(kind="edscd", threshold=1.3)
        baseline = threading.active_count()
        counts = raise_at_block(monkeypatch, "_sums_sorted")
        with pytest.raises(RuntimeError, match="block 2"):
            dt.pd_curve(det, [-4.0, 0.0], n_mc=5 * dt._EDSCD_CHUNK)
        assert counts == [baseline + 1] * 3         # one helper, during the call
        assert threads_back_to(baseline)

    def test_failed_calibration_reduction_propagates_and_joins(
            self, monkeypatch):
        det = dt.DetectorConfig(kind="edscd")
        baseline = threading.active_count()
        counts = raise_at_block(monkeypatch, "_sums_sorted")
        with pytest.raises(RuntimeError, match="block 2"):
            # 3 blocks of sets of data normals, each shared by 16 outer draws
            dt.calibrate_threshold(det, 0.01, 12 * dt._EDSCD_CHUNK)
        assert counts == [baseline + 1] * 3
        assert threads_back_to(baseline)


@pytest.fixture(scope="module")
def curves():
    out = {}
    for kind in dt.DETECTOR_KINDS:
        det = dt.DetectorConfig(kind=kind, noise_uncertainty_db=2.0)
        tau = dt.calibrate_threshold(det, 0.01, 8000, seed=0)
        det = replace(det, threshold=tau)
        out[kind] = dt.pd_curve(det, np.arange(-12.0, 7.0, 2.0),
                                n_mc=2000, seed=0)
    return out


class TestPdCurve:
    def test_strong_interference_detected(self, curves):
        for kind in dt.DETECTOR_KINDS:
            det = dt.DetectorConfig(kind=kind, noise_uncertainty_db=2.0)
            tau = dt.calibrate_threshold(det, 0.01, 8000, seed=0)
            rows = dt.pd_curve(replace(det, threshold=tau), [20.0],
                               n_mc=2000, seed=1)
            assert rows[0]["pd"] >= 0.99

    def test_vanishing_interference_near_pfa(self):
        det = dt.DetectorConfig(kind="ced", noise_uncertainty_db=0.0)
        tau = dt.calibrate_threshold(det, 0.01, 20000, seed=2)
        rows = dt.pd_curve(replace(det, threshold=tau), [-30.0],
                           n_mc=5000, seed=3)
        assert rows[0]["pd_lo"] <= 0.015 and rows[0]["pd"] <= 0.02

    def test_monotone_after_smoothing(self, curves):
        for kind, rows in curves.items():
            pd = np.array([r["pd"] for r in rows])
            hi = np.array([r["pd_hi"] for r in rows])
            # allow one-bin violations within the Wilson interval
            for a in range(len(pd) - 1):
                assert pd[a] <= hi[a + 1] + 1e-12

    def test_detector_ordering_in_transition(self, curves):
        pd_of = {k: {r["isnr_db"]: r["pd"] for r in rows}
                 for k, rows in curves.items()}
        for isnr in (-6.0, -4.0, -2.0, 0.0):
            assert pd_of["edscd"][isnr] >= pd_of["edscp"][isnr] - 0.03
            assert pd_of["edscp"][isnr] >= pd_of["ced"][isnr] - 0.03

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            dt.pd_curve(dt.DetectorConfig(kind="ced", threshold=1.0), [])

    def test_order_independent_of_grid(self):
        """Every row of a 21-point curve equals, bit for bit, the one-point
        curve at its ISNR and its row of the reversed grid."""
        grid = [float(v) for v in np.linspace(-12.0, 4.0, 21)]
        for kind in dt.DETECTOR_KINDS:
            det = dt.DetectorConfig(kind=kind, noise_uncertainty_db=2.0)
            det = replace(det, threshold=dt.calibrate_threshold(
                det, 0.05, 2000, seed=4))
            rows = dt.pd_curve(det, grid, n_mc=300, seed=5)
            assert 0 < sum(r["pd"] for r in rows) < len(grid)
            assert dt.pd_curve(det, grid[::-1], n_mc=300, seed=5) == rows[::-1]
            assert [dt.pd_curve(det, [v], n_mc=300, seed=5)[0]
                    for v in grid] == rows

    def test_edscd_memory_grows_only_by_the_output(self):
        """The (points, n_mc) output is the one array that grows with the
        grid; the sampler's blocks and per-block vectors do not."""
        det = dt.DetectorConfig(kind="edscd", threshold=1.3,
                                noise_uncertainty_db=2.0)
        tracemalloc.start()
        try:
            dt.pd_curve(det, np.linspace(-14.0, 6.0, 21), n_mc=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, peak


class TestQuantile:
    def test_matches_numpy_quantile(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 10, 101, 1000, 20_000, 30_000):
            x = rng.standard_normal(n)
            for q in (0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999,
                      *rng.uniform(0.5, 0.999, 4)):
                assert dt._quantile(x, q) == np.quantile(x, q), (n, q)


class TestWilson:
    def test_known_value(self):
        # Wilson score interval for 90/100 at z = 1.96
        lo, hi = dt.wilson_interval(90, 100)
        assert lo == pytest.approx(0.8256, abs=2e-4)
        assert hi == pytest.approx(0.9448, abs=2e-4)

    def test_bounds(self):
        lo, hi = dt.wilson_interval(0, 50)
        assert lo <= 1e-12 and 0 < hi < 0.1

    def test_exact_ends_with_no_failures_or_no_successes(self):
        # rounding used to leave ends off by up to 2.2e-16 and 5.6e-17 here
        for n in range(1, 2001):
            assert dt.wilson_interval(n, n)[1] == 1.0, n
            assert dt.wilson_interval(0, n)[0] == 0.0, n


class TestWallCrossing:
    def test_interpolation(self):
        rows = [{"isnr_db": v, "pd": p}
                for v, p in ((-4.0, 0.5), (-2.0, 0.8), (0.0, 1.0))]
        assert dt.wall_crossing(rows, 0.9) == pytest.approx(-1.0)

    def test_never_crossing(self):
        rows = [{"isnr_db": 0.0, "pd": 0.2}]
        assert np.isnan(dt.wall_crossing(rows))
