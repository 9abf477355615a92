import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import signal
from scipy.optimize import least_squares, minimize

from predistortion_reference import (FitError, fit_hpa, fit_spd_per_sample,
                                     receive_two_pass, response_outer,
                                     spd_apply_lut)
from satkit import predistortion as pd
from satkit.scenario import ConfigurationError


class TestHpaParams:
    def test_r_sat_closed_form_simple(self):
        # y = r - r^3/3 peaks exactly at r = 1
        hpa = pd.HpaParams(alpha=1.0, beta=-1.0 / 3.0)
        assert hpa.r_sat == pytest.approx(1.0, rel=1e-12)
        assert hpa.p_sat == pytest.approx((2.0 / 3.0) ** 2, rel=1e-12)

    def test_r_sat_matches_grid_search(self):
        # first interior maximum of the AM/AM curve (|beta| r^3 grows again
        # far beyond it, so search for the first turning point, not the max)
        hpa = pd.HpaParams()
        r = np.linspace(1e-3, 6.0, 200001)
        y = np.abs(hpa.alpha * r + hpa.beta * r ** 3)
        turn = np.nonzero(y[1:] < y[:-1])[0][0]
        assert hpa.r_sat == pytest.approx(r[turn], abs=1e-4)
        assert hpa.p_sat == pytest.approx(y[turn] ** 2, rel=1e-6)

    def test_linear_device_has_no_saturation(self):
        # no OBO is defined without a saturation point, so it is rejected
        with pytest.raises(ConfigurationError, match="no saturation point"):
            pd.HpaParams(alpha=2.0, beta=0.0)

    def test_expansive_device_has_no_saturation(self):
        # |y| grows monotonically with a positive cross term, with no
        # linear term (the fit's 1/alpha start used to divide by zero) and
        # with a cross term too weak for a turning point (disc < 0)
        for alpha, beta in [(1.0, 0.2), (0.0, -0.15 + 0.05j),
                            (1.0, -0.1 + 0.5j)]:
            with pytest.raises(ConfigurationError, match="no saturation point"):
                pd.HpaParams(alpha=alpha, beta=beta)

    def test_expansive_device_whose_cross_term_square_overflows(self):
        # Re(conj(alpha)*beta) = 1e200 > 0, so |y| grows monotonically; the
        # square 1e400 used to overflow and gave the saturation power message
        with pytest.raises(ConfigurationError, match="no saturation point"):
            pd.HpaParams(alpha=1.0, beta=1e200 + 0.05j)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            pd.HpaParams(alpha=np.nan)

    @pytest.mark.parametrize("alpha, beta", [
        (1e300, -0.15 + 0.05j), (1.0, -1e-310), (1e-200, -0.15 + 0.05j)])
    def test_rejects_a_saturation_power_beyond_floats(self, alpha, beta):
        # each used to end in an OverflowError from r_sat or p_sat, or in a
        # p_sat of 0 that made the OBO NaN; at beta = -1e-310, |alpha|/|beta|
        # overflows
        with pytest.raises(ConfigurationError, match="saturation power"):
            pd.HpaParams(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("beta", [-1e-150, -1e-160, -1e-170, -1e-180,
                                      -1e-190, -1e-200])
    def test_r_sat_of_a_beta_whose_square_underflows(self, beta):
        # y = r + beta*r^3 peaks at r^2 = 1/(3|beta|); beta^2 is subnormal
        # at -1e-160 and 0 below, which used to read as no saturation point
        hpa = pd.HpaParams(alpha=1.0, beta=beta)
        assert hpa.r_sat == pytest.approx(math.sqrt(1 / (3 * abs(beta))),
                                          rel=1e-15)
        assert hpa.p_sat == pytest.approx(4 / (27 * abs(beta)), rel=1e-14)

    def test_r_sat_of_coefficients_whose_squares_overflow(self):
        # |alpha|^2 = 1e200 and the cross term's square 1e320 used to
        # overflow; y = a*r - |b|*r^3 peaks at r^2 = a/(3|b|), p_sat =
        # 4a^3/(27|b|) = 1.5e239
        hpa = pd.HpaParams(alpha=1e100, beta=-1e60)
        assert hpa.r_sat == pytest.approx(math.sqrt(1e40 / 3), rel=1e-15)
        assert hpa.p_sat == pytest.approx(4e300 / 27e60, rel=1e-14)


class TestHpaApply:
    def test_small_signal_linear(self):
        hpa = pd.HpaParams()
        x = 1e-6 * np.exp(1j * np.linspace(0, 2 * np.pi, 7))
        np.testing.assert_allclose(pd.hpa_apply(hpa, x), hpa.alpha * x,
                                   rtol=1e-9)

    def test_cubic_polynomial_below_saturation(self):
        hpa = pd.HpaParams()
        x = np.array([0.3 + 0.1j, -0.5j, 0.9])
        want = hpa.alpha * x + hpa.beta * np.abs(x) ** 2 * x
        np.testing.assert_allclose(pd.hpa_apply(hpa, x), want, rtol=1e-12)

    def test_clipping_above_saturation(self):
        hpa = pd.HpaParams()
        rs = hpa.r_sat
        over = pd.hpa_apply(hpa, np.array([3.0 * rs * np.exp(0.7j)]))
        at = pd.hpa_apply(hpa, np.array([rs * np.exp(0.7j)]))
        np.testing.assert_allclose(over, at, rtol=1e-12)
        assert np.abs(over[0]) ** 2 == pytest.approx(hpa.p_sat, rel=1e-12)


class TestFitHpa:
    def test_exact_recovery_noiseless(self):
        hpa = pd.HpaParams(alpha=0.9 + 0.1j, beta=-0.2 + 0.07j)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        x *= 0.9 * hpa.r_sat / np.max(np.abs(x))   # keep below clipping
        fit = fit_hpa(x, pd.hpa_apply(hpa, x))
        assert abs(fit.alpha - hpa.alpha) < 1e-9
        assert abs(fit.beta - hpa.beta) < 1e-9

    def test_noise_robust_recovery(self):
        hpa = pd.HpaParams()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        x *= 0.9 * hpa.r_sat / np.max(np.abs(x))   # keep below clipping
        y = pd.hpa_apply(hpa, x)
        y = y + 1e-3 * (rng.standard_normal(x.size)
                        + 1j * rng.standard_normal(x.size)) / np.sqrt(2)
        fit = fit_hpa(x, y)
        assert abs(fit.alpha - hpa.alpha) < 1e-3
        assert abs(fit.beta - hpa.beta) < 1e-3

    def test_constant_envelope_rejected(self):
        x = np.exp(1j * np.linspace(0, 5, 100))
        with pytest.raises(FitError):
            fit_hpa(x, x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_hpa(np.ones(3, complex), np.ones(4, complex))


def shaped(symbols):
    """The pulse-shaped train sample by sample: zero-stuffing, convolution."""
    up = np.zeros(symbols.size * pd.OVERSAMPLING, complex)
    up[::pd.OVERSAMPLING] = symbols
    return np.convolve(up, pd.rrc_taps(pd.ROLLOFF, pd.SPAN, pd.OVERSAMPLING))


def imux_output(symbols, order=4, cutoff=0.13):
    """Shaping and IMUX sample by sample: convolution, then recursion."""
    return signal.lfilter(*signal.butter(order, cutoff), shaped(symbols))


def tone_jitter(f, sigma_j, seed, imux):
    """A shaped tone's IMUX output z, the jitter term e*z' that
    ``_imux_and_jitter`` adds to it, and e ~ N(0, sigma_j) from ``seed``."""
    x = shaped(np.exp(2j * np.pi * f * np.arange(4000)))
    nfft = 1 << 16                      # holds x and the IMUX's decay
    e = np.random.default_rng(seed).normal(0, sigma_j, x.size)
    z = pd._imux_and_jitter(np.fft.fft(x, nfft), x.size, imux, None)
    jittered = pd._imux_and_jitter(np.fft.fft(x, nfft), x.size, imux, e)
    return z, jittered - z, e


class TestJitter:
    def test_spectral_derivative_of_tone(self):
        # an order-7 IMUX at 0.05 leaves the shaped tone free of the pulse's
        # images, so the jitter term is e * j*omega*x inside the waveform
        f = 0.03                            # cycles per symbol
        imux = pd.FilterSpec(order=7, cutoff=0.05)
        z, jitter, e = tone_jitter(f, 0.5, 1, imux)
        err = np.abs(jitter - e * 2j * np.pi * f / pd.OVERSAMPLING * z)
        assert np.all(err[3000:-3000] <= 1e-7 * np.abs(e[3000:-3000]))

    @pytest.mark.parametrize("n", [6528, 12128, 32128])
    def test_spectral_derivative_matches_the_dft_formula(self, n):
        # the front end's jitter term against the circular derivative of the
        # first n samples of the IMUX output: they part only near the ends,
        # where the truncation wraps the circular one
        imux = pd.FilterSpec(4, 0.13)
        s, z, _, _, _ = pd._front_end((n - 128) // 8, n, imux, None, 0.0, False)
        _, jittered, e, _, _ = pd._front_end((n - 128) // 8, n, imux, None, 0.5,
                                             False)
        x = imux_output(s)
        dx = np.fft.ifft(2j * np.pi * np.fft.fftfreq(n) * np.fft.fft(x))
        err = np.abs(jittered - z - e * dx)[256:-256]
        assert np.all(err <= 1e-5 * np.abs(e[256:-256]) + 1e-14)

    def test_derivative_spectrum_is_one_read_only_array_per_length(self):
        pd._derivative.cache_clear()
        for nfft in (8192, 32768):
            first = pd._derivative(nfft)
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[1] = 0.0
            np.testing.assert_array_equal(
                first, 2j * np.pi * np.fft.fftfreq(nfft))
            assert pd._derivative(nfft) is first
        assert pd._derivative.cache_info().currsize == 2

    def test_cached_derivative_leaves_the_jitter_term_unchanged(self):
        # the same bits as the factor formed afresh on each call
        x = np.fft.fft(shaped(pd.QPSK[np.arange(500) % 4]), 8192)
        e = np.random.default_rng(3).normal(0, 0.05, 4128)
        imux = pd.ChainConfig().imux
        z = np.fft.ifft(x * pd._spectrum(8192, imux))[:4128]
        fresh = z + e * np.fft.ifft(x * pd._spectrum(8192, imux) * (
            2j * np.pi * np.fft.fftfreq(8192)))[:4128]
        np.testing.assert_array_equal(
            pd._imux_and_jitter(x.copy(), 4128, imux, e), fresh)

    def test_zero_jitter_identity(self):
        # the IMUX output of the shaped train, with no jitter draw
        config = pd.ChainConfig(sigma_j=0.0)
        s, z, e, _, _ = pd._front_end(4000, 3, config.imux, config.omux, 0.0,
                                      False)
        want = imux_output(s)
        assert e is None
        assert np.abs(z - want).max() <= 1e-12 * np.abs(want).max()

    def test_tone_mse_matches_first_order_model(self):
        # E|e * x_dot|^2 = sigma_j^2 * omega^2 * |x|^2 for a tone
        f, sigma = 0.1, 0.02                # cycles per symbol, jitter
        z, jitter, _ = tone_jitter(f, sigma, 2, pd.ChainConfig().imux)
        omega = 2 * np.pi * f / pd.OVERSAMPLING
        mse = np.mean(np.abs(jitter[256:-256]) ** 2)
        want = sigma ** 2 * omega ** 2 * np.mean(np.abs(z[256:-256]) ** 2)
        assert mse == pytest.approx(want, rel=0.1)


class TestFrontEnd:
    def test_cached_arrays_are_read_only(self):
        config = pd.ChainConfig()
        front = pd._front_end(500, 1, config.imux, config.omux, 0.005, False)
        assert front[4] == 8192
        for part in front[:4]:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0.0

    def test_none_and_onboard_rows_share_one_entry(self):
        # the onboard rows' training burst is the one other entry, read
        # once, when its rules are built
        hpa = pd.HpaParams()
        pd._front_end.cache_clear()
        pd._training_rules.cache_clear()
        pd._noise_response.cache_clear()
        for location, drive in [("none", 1.3), ("onboard", 0.8),
                                ("none", 0.5), ("onboard", 2.0)]:
            config = pd.ChainConfig(spd_location=location, drive=drive)
            pd.evaluate_chain(config, hpa, n_symbols=300, seed=9)
        # the fourth hit is the noise response's, on its one miss
        info = pd._front_end.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
        info = pd._training_rules.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        info = pd._noise_response.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        # on ground: its own burst, front end and noise response
        pd.evaluate_chain(pd.ChainConfig(spd_location="onground"), hpa,
                          n_symbols=300, seed=9)
        assert pd._front_end.cache_info().currsize == 4
        assert pd._noise_response.cache_info().currsize == 2

    def test_curve_points_compute_no_noise_response(self):
        pd._noise_response.cache_clear()
        for location in ("none", "onboard", "onground"):
            pd.drive_for_obo(pd.ChainConfig(spd_location=location),
                             pd.HpaParams(), [2.0, 8.0])
        assert pd._noise_response.cache_info().misses == 0

    def test_seeds_draw_apart(self):
        config = pd.ChainConfig()
        a, b = (pd._front_end(500, seed, config.imux, config.omux, 0.005, False)
                for seed in (1, 2))
        for i in range(4):          # symbols, waveform, jitter, noise
            assert not np.array_equal(a[i], b[i])

    @pytest.mark.parametrize("imux, atol", [(pd.FilterSpec(4, 0.13), 1e-12),
                                            (pd.FilterSpec(7, 0.05), 1e-8)])
    def test_amplifier_input_is_the_drive_times_the_front_end(
            self, monkeypatch, imux, atol):
        # the pre-HPA waveform at drive d is d times the one at drive 1, bit
        # for bit, and the sample-by-sample chain times d
        seen, apply = [], pd.hpa_apply
        monkeypatch.setattr(pd, "hpa_apply",
                            lambda hpa, z: seen.append(z) or apply(hpa, z))
        hpa = pd.HpaParams()
        drives = (1.0, 0.37, 2.9)
        for drive in drives:
            config = pd.ChainConfig(sigma_j=0.0, imux=imux, drive=drive)
            front, _, _ = pd._amplify(config, hpa, 4064, 5)
        want = imux_output(front[0], imux.order, imux.cutoff)
        for drive, z in zip(drives, seen):
            np.testing.assert_array_equal(z, drive * seen[0])
            np.testing.assert_allclose(z, drive * want, rtol=0,
                                       atol=atol * np.abs(drive * want).max())


class TestSpdPolynomialAndLut:
    def test_apply_matches_definition(self):
        p = pd.SpdParams(gamma=1.1 - 0.2j, delta=0.05 + 0.01j)
        x = np.array([0.2, 0.5 + 0.5j, -1.0j])
        want = p.gamma * x + p.delta * np.abs(x) ** 2 * x
        np.testing.assert_allclose(pd.spd_apply(p, x, clip_at=10.0), want,
                                   rtol=1e-12)

    def test_output_clamp(self):
        p = pd.SpdParams(gamma=3.0, delta=0.0)
        out = pd.spd_apply(p, np.array([1.0 + 0j]), clip_at=1.5)
        assert abs(out[0]) == pytest.approx(1.5, rel=1e-12)

    def test_lut_error_halves_with_bin_doubling(self):
        p = pd.SpdParams(gamma=1.05, delta=0.12 - 0.04j)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 2.0, 4000) * np.exp(2j * np.pi * rng.random(4000))
        exact = pd.spd_apply(p, x, clip_at=4.0)      # above every |output|
        errs = []
        for n_bins in (32, 64, 128):
            edges, gains = pd.build_lut(p, 2.0, n_bins)
            errs.append(np.max(np.abs(spd_apply_lut(edges, gains, x) - exact)))
        # quantisation of a smooth gain: error ~ 1/n_bins
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_bad_lut_arguments(self):
        p = pd.SpdParams(gamma=1.0, delta=0.0)
        with pytest.raises(ConfigurationError):
            pd.build_lut(p, -1.0, 8)
        with pytest.raises(ConfigurationError):
            pd.build_lut(p, 1.0, 0)


def training_burst(seed=4, n=3000, scale=0.6):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        / np.sqrt(2)


# saturating far above any test signal: r_sat 1.8e4, p_sat 1.5e8
NEARLY_LINEAR_BETA = -1e-9


def cached_burst(imux, sigma_j):
    """The read-only drive-1 burst that train_spd scales and fits."""
    return pd._front_end(pd.N_TRAIN_SYMBOLS, pd.TRAIN_SEED, imux, None,
                         sigma_j, False)[1]


class TestFitSpd:
    def test_identity_amplifier_yields_identity_spd(self):
        hpa = pd.HpaParams(alpha=1.0, beta=NEARLY_LINEAR_BETA)
        params, trace = pd.fit_spd(hpa, training_burst())
        assert abs(params.gamma - 1.0) < 1e-6
        assert abs(params.delta) < 1e-6
        assert trace[-1] < 1e-10

    def test_linear_amplifier_inverts_gain(self):
        # the fit starts at gamma = 1/alpha and must move to the identity,
        # since the target response is alpha * input
        hpa = pd.HpaParams(alpha=2.0 - 0.5j, beta=NEARLY_LINEAR_BETA)
        params, trace = pd.fit_spd(hpa, training_burst())
        assert abs(params.gamma - 1.0) < 1e-6
        assert abs(params.delta) < 1e-6
        assert trace[-1] < 1e-10 * trace[0]

    def test_reduces_nonlinear_distortion(self):
        hpa = pd.HpaParams()
        x = training_burst()
        x *= 0.6 * hpa.r_sat / np.max(np.abs(x))
        params, trace = pd.fit_spd(hpa, x)
        raw = np.mean(np.abs(pd.hpa_apply(hpa, x) - hpa.alpha * x) ** 2)
        lin = np.mean(np.abs(pd.hpa_apply(hpa, pd.spd_apply(params, x,
                                                            hpa.r_sat))
                             - hpa.alpha * x) ** 2)
        assert lin < 0.05 * raw
        assert trace[-1] <= trace[0]

    def test_trace_monotone(self):
        hpa = pd.HpaParams()
        _, trace = pd.fit_spd(hpa, training_burst())
        assert len(trace) >= 2
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("scale", [0.6, 1.5])
    def test_no_lower_mse_near_the_fit(self, scale):
        # oracle: a derivative-free search started at the fit finds no
        # lower MSE, below clipping (0.6 r_sat peak) and into it (1.5)
        hpa = pd.HpaParams()
        x = training_burst()
        x *= scale * hpa.r_sat / np.max(np.abs(x))
        params, trace = pd.fit_spd(hpa, x)

        def mse(p):
            u = complex(p[0], p[1]) * x + complex(p[2], p[3]) * np.abs(x) ** 2 * x
            return np.mean(np.abs(pd.hpa_apply(hpa, u) - hpa.alpha * x) ** 2)

        p0 = [params.gamma.real, params.gamma.imag,
              params.delta.real, params.delta.imag]
        assert mse(p0) == pytest.approx(trace[-1], rel=1e-12)
        best = minimize(mse, p0, method="Nelder-Mead",
                        options=dict(xatol=1e-12, fatol=1e-16, maxfev=4000))
        assert best.fun >= mse(p0) * (1 - 1e-6)

    @pytest.mark.parametrize("scale", [0.6, 1.5])
    def test_no_higher_mse_than_trust_region(self, scale):
        # oracle: scipy's trust-region least squares on the real residual
        # [Re e; Im e] and its analytic Jacobian, below and into clipping
        hpa = pd.HpaParams()
        a, b, rs = hpa.alpha, hpa.beta, hpa.r_sat
        c_sat = a * rs + b * rs ** 3
        x = training_burst()
        x *= scale * hpa.r_sat / np.max(np.abs(x))
        x2x = np.abs(x) ** 2 * x
        du_dp = np.stack([x, 1j * x, x2x, 1j * x2x], axis=1)

        def residual(p):
            e = pd.hpa_apply(hpa, du_dp @ p) - a * x
            return np.concatenate([e.real, e.imag])

        def jacobian(p):
            u = du_dp @ p
            m = np.abs(u)
            dy_du, dy_duc = a + 2 * b * m ** 2, b * u ** 2
            over = m > rs
            dy_du[over] = c_sat / (2 * m[over])
            dy_duc[over] = -c_sat * u[over] ** 2 / (2 * m[over] ** 3)
            jc = dy_du[:, None] * du_dp + dy_duc[:, None] * du_dp.conj()
            return np.concatenate([jc.real, jc.imag])

        p0 = np.array([(1 / a).real, (1 / a).imag, 0.0, 0.0])
        oracle = least_squares(residual, p0, jac=jacobian)
        _, trace = pd.fit_spd(hpa, x)
        assert trace[-1] <= 2 * oracle.cost / x.size * (1 + 1e-8)

    @pytest.mark.parametrize("drive", [0.4, 0.6])
    def test_round_off_in_the_burst_moves_the_fit_by_round_off(self, drive):
        # the cost at a low drive is far below the burst's power; it keeps
        # its digits, so no accept or stop decision turns on round-off
        hpa = pd.HpaParams()
        x = cached_burst(pd.ChainConfig().imux, 0.005) * drive
        want = pd.fit_spd(hpa, x)[0]
        rng = np.random.default_rng(0)
        for _ in range(12):
            noise = 4e-14 * rng.standard_normal(x.size)
            got = pd.fit_spd(hpa, x * (1 + noise))[0]
            assert abs(got.gamma - want.gamma) <= 1e-12 * abs(want.gamma)
            assert abs(got.delta - want.delta) <= 1e-12 * abs(want.delta)

    def test_non_finite_waveform_rejected(self):
        x = training_burst()
        x[7] = np.nan
        with pytest.raises(ConfigurationError):
            pd.fit_spd(pd.HpaParams(), x)

    @pytest.mark.parametrize("alpha, beta", [(1e-100, -0.15 + 0.05j),
                                             (1.0, -1e300 + 0.05j)])
    def test_amplifier_clipping_every_sample_rejected(self, alpha, beta):
        # at the start point g = 1/alpha is real, so the clipped samples'
        # errors do not move with Re gamma: these ended in LinAlgError
        with pytest.raises(ConfigurationError, match="singular normal"):
            pd.fit_spd(pd.HpaParams(alpha=alpha, beta=beta), training_burst())

    def test_zero_waveform_rejected(self):
        with pytest.raises(ConfigurationError):
            pd.fit_spd(pd.HpaParams(), np.zeros(100, complex))


def wirtinger_gram(hpa, x, p):
    """The fit's Gram from complex columns: the amplifier's Wirtinger
    derivatives, the residual from hpa_apply and the real part of a complex
    product. Also returns the share of samples the amplifier clips."""
    a, b, rs = hpa.alpha, hpa.beta, hpa.r_sat
    c_sat = a * rs + b * rs ** 3
    x2x = np.abs(x) ** 2 * x
    u = complex(p[0], p[1]) * x + complex(p[2], p[3]) * x2x
    m = np.abs(u)
    dy_du, dy_duc = a + 2 * b * m ** 2, b * u ** 2
    over = m > rs
    dy_du[over] = c_sat / (2 * m[over])
    dy_duc[over] = -c_sat * u[over] ** 2 / (2 * m[over] ** 3)
    cols = []
    for v in (x, x2x):
        cols += [dy_du * v + dy_duc * v.conj(),
                 1j * (dy_du * v - dy_duc * v.conj())]
    cols = np.array(cols + [pd.hpa_apply(hpa, u) - a * x])
    return (cols.conj() @ cols.T).real, over.mean()


class TestSpdGram:
    @pytest.mark.parametrize("location", ["onboard", "onground"])
    def test_matches_the_wirtinger_form(self, location):
        # both default training bursts at every drive of the curve, at the
        # start point and at the fit, where up to 91 % of samples clip
        hpa = pd.HpaParams()
        config = pd.ChainConfig(spd_location=location)
        start = [(1 / hpa.alpha).real, (1 / hpa.alpha).imag, 0.0, 0.0]
        clipped = []
        for drive in pd.DRIVE_GRID:
            x = cached_burst(
                config.imux if location == "onboard" else None,
                config.sigma_j if location == "onboard" else 0.0) * drive
            gram = pd._burst_gram(
                hpa, pd.BurstRules.of(x.real ** 2 + x.imag ** 2))
            fit, _ = pd.fit_spd(hpa, x)
            for p in (start, [fit.gamma.real, fit.gamma.imag,
                              fit.delta.real, fit.delta.imag]):
                want, share = wirtinger_gram(hpa, x, p)
                got = gram(np.array(p))
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
                clipped.append(share)
        assert max(clipped) > 0.4

    def test_calls_after_the_first_allocate_at_most_one_complex_array(self):
        # the buffers belong to the fit: a later call, at a drive that
        # clips no sample, allocates little more than the clipping mask
        hpa = pd.HpaParams()
        x = cached_burst(pd.ChainConfig().imux, 0.005) * 0.6
        fit, _ = pd.fit_spd(hpa, x)
        gram = pd._burst_gram(hpa,
                              pd.BurstRules.of(x.real ** 2 + x.imag ** 2))
        for p in ([1.0, 0.0, 0.0, 0.0], [fit.gamma.real, fit.gamma.imag,
                                         fit.delta.real, fit.delta.imag]):
            assert wirtinger_gram(hpa, x, p)[1] == 0
            gram(np.array(p))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                gram(np.array(p))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - before <= 16 * x.size


def default_bursts():
    """Both default training bursts: onboard (IMUX and jitter) and on ground."""
    config = pd.ChainConfig()
    return {"onboard": cached_burst(config.imux, config.sigma_j),
            "onground": cached_burst(None, 0.0)}


def spd_vector(spd):
    return np.array([spd.gamma, spd.delta])


class TestGaussRules:
    @pytest.mark.parametrize("location", ["onboard", "onground"])
    def test_each_rule_sums_the_moments_of_its_block(self, location):
        # sum_i s_i^(k+1) for k = 0..8, the degrees the Gram's entries reach
        x = default_bursts()[location]
        s = np.sort(x.real ** 2 + x.imag ** 2)
        nodes, weights, ok = pd._gauss_rules(s)
        assert ok.all() and nodes.shape == (s.size // pd._GAUSS_BLOCK,
                                            pd._GAUSS_NODES)
        blocks = s[:nodes.size // pd._GAUSS_NODES * pd._GAUSS_BLOCK].reshape(
            -1, pd._GAUSS_BLOCK)
        for k in range(9):
            want = np.array([math.fsum(b ** (k + 1)) for b in blocks])
            got = (weights * nodes ** k).sum(axis=1)
            assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("x", [
        0.8 * pd.QPSK[np.random.default_rng(2).integers(4, size=3000)],
        np.array([0.3, 0.3j]) @ np.random.default_rng(2).choice([-3, -1, 1, 3],
                                                               (2, 3000)),
        training_burst(n=pd._GAUSS_BLOCK - 1)],
        ids=["constant_envelope", "16qam_three_levels", "shorter_than_a_block"])
    def test_bursts_without_rules_fit_on_their_samples(self, x):
        # a block of 16-QAM symbols holds at most 2 of the 3 levels of |x|^2
        s = np.sort(x.real ** 2 + x.imag ** 2)
        assert not pd._gauss_rules(s)[2].any()
        hpa = pd.HpaParams()
        want, want_trace = fit_spd_per_sample(hpa, x)
        got, trace = pd.fit_spd(hpa, x)
        assert len(trace) == len(want_trace)
        np.testing.assert_allclose(spd_vector(got), spd_vector(want),
                                   rtol=1e-12)

    @pytest.mark.parametrize("location", ["onboard", "onground"])
    def test_matches_the_per_sample_fit(self, location):
        # at every drive of the curve, from no clipping to 91 % of samples
        hpa = pd.HpaParams()
        burst = default_bursts()[location]
        for drive in pd.DRIVE_GRID:
            want, want_trace = fit_spd_per_sample(hpa, burst * drive)
            got, trace = pd.fit_spd(hpa, burst * drive)
            assert len(trace) == len(want_trace)
            np.testing.assert_allclose(spd_vector(got), spd_vector(want),
                                       rtol=1e-12)

    def test_unclipped_evaluations_run_on_the_nodes(self, monkeypatch):
        # at drive 0.6 no sample clips, so every evaluation takes the 5
        # nodes of each full block and the partial block's samples
        sizes, spd_gram = [], pd._spd_gram

        def counted(hpa, values, weights):
            gram = spd_gram(hpa, values, weights)
            return lambda p, take: sizes.append(take.size) or gram(p, take)

        monkeypatch.setattr(pd, "_spd_gram", counted)
        hpa = pd.HpaParams()
        x = default_bursts()["onboard"] * 0.6
        _, trace = pd.fit_spd(hpa, x)
        full, tail = divmod(x.size, pd._GAUSS_BLOCK)
        assert len(sizes) >= len(trace)
        assert max(sizes) <= pd._GAUSS_NODES * full + tail


def grid_filter(spec, x):
    """A filter as a product on a power-of-two grid of n + length points."""
    nfft = 1 << (x.size + spec.length - 1).bit_length()
    return np.fft.ifft(np.fft.fft(x, nfft) * spec.response(nfft))[:x.size]


class TestFilterSpec:
    @pytest.mark.parametrize("order,cutoff", [(4, 0.13), (4, 0.30), (1, 0.5),
                                              (7, 0.05), (2, 0.9)])
    def test_matches_scipy_signal(self, order, cutoff):
        spec = pd.FilterSpec(order=order, cutoff=cutoff)
        gain, poles = spec._zpk()
        _, want_poles, want_gain = signal.butter(order, cutoff, output="zpk")
        np.testing.assert_allclose(np.sort_complex([gain, *poles]),
                                   np.sort_complex([want_gain, *want_poles]),
                                   rtol=1e-12)
        want_b, want_a = signal.butter(order, cutoff)
        rng = np.random.default_rng(order)
        for n in (100, 3000, 12128, 32128):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            want = signal.lfilter(want_b, want_a, x)
            # the recursions round differently, and poles near z = 1
            # amplify it: at order 7, cutoff 0.05 lfilter itself is 4.5e-10
            # from a 40-digit recursion (the response: up to 9.2e-10 from lfilter)
            np.testing.assert_allclose(grid_filter(spec, x), want, rtol=0,
                                       atol=1e-8 * np.abs(want).max())

    def test_lengths_sharing_one_spec_match_scipy_signal(self):
        # each length, shorter or longer than the 574-sample decay, gets a
        # grid of its own
        spec = pd.FilterSpec(order=4, cutoff=0.13)
        b, a = signal.butter(4, 0.13)
        rng = np.random.default_rng(11)
        for n in (12128, 100, 32128, 12128):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            want = signal.lfilter(b, a, x)
            np.testing.assert_allclose(grid_filter(spec, x), want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_order_7_imux_does_not_wrap(self):
        # 4064 symbols are 32 640 samples, which with the pulse's 128-sample
        # tail alone fit 32 768 points, where the 2438-sample IMUX would wrap
        imux = pd.FilterSpec(order=7, cutoff=0.05)
        omux = pd.ChainConfig().omux
        s, z, _, _, nfft = pd._front_end(4064, 5, imux, omux, 0.0, False)
        assert imux.length == 2438 and nfft == 65536
        want = imux_output(s, 7, 0.05)
        np.testing.assert_allclose(z, want, rtol=0,
                                   atol=1e-8 * np.abs(want).max())

    @pytest.mark.parametrize("nfft", [64, 1000, 8192, 65536])
    def test_response_matches_the_outer_product(self, nfft):
        # relative to each frequency's value, down to the zeros' floor at
        # z = -1 and through the passband of poles near z = 1
        for order in range(1, 9):
            for cutoff in (0.01, 0.05, 0.13, 0.3, 0.5, 0.9, 0.99):
                spec = pd.FilterSpec(order=order, cutoff=cutoff)
                want = response_outer(spec, nfft)
                got = spec.response(nfft)
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_cached_spectra_are_read_only(self):
        omux = pd.ChainConfig().omux
        for spectrum in (pd._spectrum(64), pd._spectrum(64, pd.FilterSpec()),
                         *pd._receiver(1024, omux), pd._receiver(1024, None)[0],
                         pd._noise_response(11, 0, None, omux, 0.0, False)):
            with pytest.raises(ValueError):
                spectrum[0] = 1.0

    @pytest.mark.parametrize("order,cutoff", [(0, 0.2), (4, 0.0), (4, 1.0)])
    def test_invalid_spec(self, order, cutoff):
        with pytest.raises(ConfigurationError):
            pd.FilterSpec(order=order, cutoff=cutoff)


def chain_receive(config, n_symbols, seed):
    """The matched filter's output for ``config`` as evaluate_chain forms
    it, the two-pass reference's, and the grid's nfft."""
    (_, _, _, _, nfft), y, _ = pd._amplify(config, pd.HpaParams(), n_symbols,
                                           seed)
    return (pd._receive(config, n_symbols, seed, nfft, y),
            receive_two_pass(config, n_symbols, seed, nfft, y), nfft)


class TestReceive:
    @pytest.mark.parametrize("location", ["none", "onboard", "onground"])
    @pytest.mark.parametrize("cfg, n_symbols", [
        ({}, 4000), ({"omux": None}, 4000), ({"imux": None}, 4042),
        ({}, 11), ({}, 30), ({"sigma_j": 0.0}, 1000),
        ({"sigma_j": 0.05}, 1000)],
        ids=["default", "no_omux", "no_imux_wraps", "11_symbols",
             "30_symbols", "no_jitter", "sigma_j"])
    def test_one_product_matches_the_two_passes(self, location, cfg,
                                                n_symbols):
        # every sample the timing search and the symbols read, r[base:];
        # where the product's response fits the grid, every sample
        config = pd.ChainConfig(spd_location=location, drive=1.3, **cfg)
        got, want, nfft = chain_receive(config, n_symbols, 5)
        base = 2 * pd.SPAN * pd.OVERSAMPLING
        n = want.size - base
        tail = 0 if config.omux is None else config.omux.length
        start = base if n + tail + base > nfft else 0
        err = np.abs(got - want)[start:].max()
        assert err <= 1e-12 * np.abs(want[start:]).max()

    def test_wrap_and_cut_cases_occur(self):
        # the no-IMUX grid at 4042 symbols wraps the product into r[:base],
        # and at 11 symbols the OMUX is longer than the waveform
        base = 2 * pd.SPAN * pd.OVERSAMPLING
        omux = pd.ChainConfig().omux
        nfft = pd._front_end(4042, 5, None, omux, 0.005, False)[4]
        assert 8 * 4042 + base + omux.length + base > nfft
        assert 8 * 11 + base < omux.length

    def test_the_dropped_omux_samples_reach_the_last_symbols(self):
        # without the correction the chain reads r[n + 2] at the defaults
        config = pd.ChainConfig()
        got, want, _ = chain_receive(config, 4000, 0)
        (_, _, _, _, nfft), y, _ = pd._amplify(config, pd.HpaParams(), 4000,
                                               0)
        spectrum, _ = pd._receiver(nfft, config.omux)
        uncut = np.fft.ifft(np.fft.fft(y, nfft) * spectrum)[:got.size]
        n = y.size
        assert np.abs(uncut - got)[n:n + 3].max() > 1e-6 * np.abs(got).max()
        assert np.abs(got - want)[n:].max() <= 1e-12 * np.abs(want).max()


class TestChain:
    def test_awgn_reference_closed_form(self):
        # a device linear over the signal, no filters, no jitter:
        # SINR = SNR + 20 log10(drive)
        cfg = pd.ChainConfig(spd_location="none", sigma_j=0.0, imux=None,
                             omux=None, snr_db=30.0, drive=0.5)
        hpa = pd.HpaParams(alpha=1.0, beta=NEARLY_LINEAR_BETA)
        res = pd.evaluate_chain(cfg, hpa, n_symbols=4000, seed=0)
        assert res.sinr_db == pytest.approx(30.0 + 20 * np.log10(0.5), abs=0.2)

    def test_determinism(self):
        cfg = pd.ChainConfig(spd_location="onboard", drive=1.2)
        hpa = pd.HpaParams()
        a = pd.evaluate_chain(cfg, hpa, n_symbols=1000, seed=1)
        b = pd.evaluate_chain(cfg, hpa, n_symbols=1000, seed=1)
        assert a == b

    def test_obo_decreases_with_drive(self):
        cfg = pd.ChainConfig(spd_location="none")
        hpa = pd.HpaParams()
        obo = [pd.obo_vs_drive(cfg, hpa, d) for d in np.geomspace(0.2, 4, 6)]
        assert all(a > b for a, b in zip(obo, obo[1:]))
        assert np.isfinite(obo).all()

    def test_drive_for_obo_round_trip(self):
        cfg = pd.ChainConfig(spd_location="none")
        hpa = pd.HpaParams()
        dr, = pd.drive_for_obo(cfg, hpa, [4.0])
        res = pd.evaluate_chain(pd.ChainConfig(spd_location="none", drive=dr),
                                hpa, n_symbols=pd.CURVE_SYMBOLS,
                                seed=pd.CURVE_SEED)
        assert res.obo_db == pytest.approx(4.0, abs=0.3)
        # more targets give the same drive per target
        both = pd.drive_for_obo(cfg, hpa, [4.0, 6.0])
        assert both[0] == dr and both[1] < dr

    def test_obo_target_out_of_range(self):
        with pytest.raises(ConfigurationError, match="target -30 dB outside"):
            pd.drive_for_obo(pd.ChainConfig(), pd.HpaParams(), [-30.0])

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            pd.ChainConfig(spd_location="orbit")
        with pytest.raises(ConfigurationError):
            pd.ChainConfig(drive=0.0)
        with pytest.raises(ConfigurationError):
            pd.ChainConfig(sigma_j=-0.01)
        # beyond one sample period, or at a noise power near the float
        # range, the chain used to end in LinAlgError or OverflowError
        with pytest.raises(ConfigurationError):
            pd.ChainConfig(sigma_j=1.0)
        with pytest.raises(ConfigurationError):
            pd.ChainConfig(snr_db=-1e308)
        with pytest.raises(ConfigurationError):
            pd.ChainConfig(snr_db=float("nan"))
        pd.ChainConfig(sigma_j=0.99, snr_db=pd.MIN_SNR_DB)

    @pytest.mark.parametrize("n_symbols", [1, pd.EQ_TAPS - 1])
    def test_fewer_symbols_than_equalizer_taps_rejected(self, n_symbols):
        # these used to give a NaN SINR and a RuntimeWarning
        with pytest.raises(ConfigurationError, match="n_symbols"):
            pd.evaluate_chain(pd.ChainConfig(), pd.HpaParams(),
                              n_symbols=n_symbols)

    def test_predistortion_improves_sinr_at_matched_obo(self):
        hpa = pd.HpaParams()
        rows = pd.spd_benchmark(hpa, [4.0], modes=("none", "onboard"),
                                n_symbols=2500)
        sinr = {r["spd_location"]: r["sinr_db"] for r in rows}
        assert sinr["onboard"] > sinr["none"] + 1.0
        for r in rows:
            assert r["obo_db"] == pytest.approx(4.0, abs=0.3)


class TestDriveForObo:
    @pytest.mark.parametrize("cfg", [
        dict(spd_location="none"), dict(spd_location="onboard"),
        dict(spd_location="onground"),
        dict(spd_location="onboard", sigma_j=0.05),
        dict(spd_location="onboard", imux=None)],
        ids=["none", "onboard", "onground", "sigma_j", "no_imux"])
    def test_walk_equals_interpolation_on_the_whole_curve(self, cfg):
        config, hpa = pd.ChainConfig(**cfg), pd.HpaParams()
        obo = np.array([pd.obo_vs_drive(config, hpa, dr)
                        for dr in pd.DRIVE_GRID])
        order = np.argsort(obo)
        for target in ([2.0, 4.0, 6.0, 8.0], [4.0], [1.0, 8.0]):
            want = np.exp(np.interp(target, obo[order],
                                    np.log(pd.DRIVE_GRID)[order]))
            np.testing.assert_array_equal(
                pd.drive_for_obo(config, hpa, target), want)
        for target in ([-30.0], [50.0], [4.0, 50.0]):
            with pytest.raises(ConfigurationError, match="outside"):
                pd.drive_for_obo(config, hpa, target)

    @pytest.mark.parametrize("location", ["none", "onboard", "onground"])
    def test_curve_point_is_the_chain_obo(self, location):
        config = pd.ChainConfig(spd_location=location, drive=1.3)
        hpa = pd.HpaParams()
        chain = pd.evaluate_chain(config, hpa,
                                  n_symbols=pd.CURVE_SYMBOLS,
                                  seed=pd.CURVE_SEED)
        assert pd.obo_vs_drive(config, hpa, 1.3) == chain.obo_db
        _, _, obo = pd._amplify(config, hpa, 600, 4)
        assert obo == pd.evaluate_chain(config, hpa, n_symbols=600,
                                        seed=4).obo_db


def test_spd_benchmark_calls_every_span_the_benchmark_reads(monkeypatch):
    # benchmarks/run.py's per_layer indexes these spans by name, so a traced
    # run ends in a KeyError once one of them is no longer called
    run = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"
    spans = set(re.findall(r'(?:self_s|calls)\["predistortion\.(\w+)"\]',
                           run.read_text()))
    assert spans == {"obo_vs_drive", "evaluate_chain", "fit_spd", "hpa_apply"}
    calls = Counter()
    for name in spans:
        def counted(*args, _fn=getattr(pd, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pd, name, counted)
    pd.spd_benchmark(pd.HpaParams(), [4.0], modes=("none", "onboard"),
                     n_symbols=500)
    assert set(calls) == spans


def rrc_taps_loop(rolloff, span, oversampling):
    """The pulse one tap at a time, each singular point on its own branch."""
    t = np.arange(-span * oversampling, span * oversampling + 1) / oversampling
    h = np.empty_like(t)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            h[i] = 1 - rolloff + 4 * rolloff / np.pi
        elif abs(abs(ti) - 1 / (4 * rolloff)) < 1e-9:
            h[i] = (rolloff / np.sqrt(2)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * rolloff))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * rolloff)))
        else:
            h[i] = ((np.sin(np.pi * ti * (1 - rolloff))
                     + 4 * rolloff * ti * np.cos(np.pi * ti * (1 + rolloff)))
                    / (np.pi * ti * (1 - (4 * rolloff * ti) ** 2)))
    return h / np.sqrt(np.sum(h ** 2))


@pytest.mark.parametrize("rolloff,span,oversampling",
                         [(0.25, 8, 8), (0.35, 6, 4), (0.2, 10, 16),
                          (0.5, 4, 8)])
def test_rrc_taps_match_the_per_tap_loop(rolloff, span, oversampling):
    # (0.25, 8, 8) and (0.5, 4, 8) put taps on |t| = 1/(4 rolloff)
    np.testing.assert_array_equal(pd.rrc_taps(rolloff, span, oversampling),
                                  rrc_taps_loop(rolloff, span, oversampling))


class TestEqualizedSinr:
    @staticmethod
    def lstsq_sinr_db(rx, symbols, n_taps):
        # oracle: least squares on the data matrix itself
        n, half = symbols.size, n_taps // 2
        mat = np.stack([np.roll(rx, half - t) for t in range(n_taps)],
                       axis=1)[half:n - half]
        ref = symbols[half:n - half]
        w, *_ = np.linalg.lstsq(mat, ref, rcond=None)
        mse = np.mean(np.abs(mat @ w - ref) ** 2)
        return 10 * np.log10(np.mean(np.abs(ref) ** 2) / mse)

    @pytest.mark.parametrize("snr_db", [10.0, 40.0])
    def test_matches_lstsq_on_the_data_matrix(self, snr_db):
        rng = np.random.default_rng(6)
        # multi-level 16-QAM symbols, so that the taps see amplitude diversity
        levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10)
        s = rng.choice(levels, 4000) + 1j * rng.choice(levels, 4000)
        isi = np.convolve(s, [0.1j, 1.0, -0.2 + 0.05j, 0.03])[1:s.size + 1]
        nv = 10 ** (-snr_db / 10)
        rx = isi + np.sqrt(nv / 2) * (rng.standard_normal(s.size)
                                      + 1j * rng.standard_normal(s.size))
        got = pd._equalized_sinr(rx, s, 11)
        assert got == pytest.approx(self.lstsq_sinr_db(rx, s, 11), abs=1e-9)

    @staticmethod
    def rolled_sinr_db(rx, symbols, n_taps, correlate=True):
        # the data matrix from n_taps rolled copies of rx and one stack; the
        # error from a correlation of rx with the taps, as the equalizer
        # forms it, or from the matrix's row sums
        n, half = symbols.size, n_taps // 2
        cols = [np.roll(rx, half - t) for t in range(n_taps)]
        data = np.stack(cols + [symbols], axis=1)[half:n - half]
        mat, ref = data[:, :n_taps], data[:, n_taps]
        gram = data.conj().T @ data
        w, *_ = np.linalg.lstsq(gram[:n_taps, :n_taps], gram[:n_taps, n_taps],
                                rcond=None)
        err = (np.convolve(rx, w[::-1], "valid")[:ref.size] if correlate
               else (mat * w).sum(axis=1)) - ref
        mse = float(np.mean(np.abs(err) ** 2))
        sig = float(np.mean(np.abs(ref) ** 2))
        return 10 * np.log10(sig / max(mse, 1e-300))

    @pytest.mark.parametrize("n_taps", [pd.EQ_TAPS, 4, 1])
    def test_windows_build_the_rolled_data_matrix(self, n_taps):
        # bit for bit: the same data, Gram and taps as the rolled copies
        rng = np.random.default_rng(n_taps)
        s = pd.QPSK[rng.integers(4, size=3000)]
        rx = np.convolve(s, [0.1j, 1.0, -0.2])[1:s.size + 1] + 0.01 * (
            rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
        assert pd._equalized_sinr(rx, s, n_taps) == self.rolled_sinr_db(
            rx, s, n_taps)

    @pytest.mark.parametrize("n_taps", [pd.EQ_TAPS, 4, 1])
    def test_error_correlation_matches_the_row_sums(self, n_taps):
        # the same SINR as the error from the data matrix times the taps,
        # to round-off
        rng = np.random.default_rng(n_taps)
        s = pd.QPSK[rng.integers(4, size=3000)]
        rx = np.convolve(s, [0.1j, 1.0, -0.2])[1:s.size + 1] + 0.01 * (
            rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
        assert pd._equalized_sinr(rx, s, n_taps) == pytest.approx(
            self.rolled_sinr_db(rx, s, n_taps, correlate=False), abs=1e-12)

    def test_zero_rx_gives_zero_db(self):
        s = pd.QPSK[np.random.default_rng(7).integers(4, size=500)]
        assert pd._equalized_sinr(np.zeros(500, complex), s, 11) == 0.0


def test_spd_chain_leaves_blas_worker_threads_idle(tmp_path):
    # a threaded level-1/2 BLAS call on a long vector leaves OpenBLAS's
    # worker threads spinning after it returns; the SPD chain makes none,
    # so every thread but the main one stays (nearly) idle
    if not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2:
        pytest.skip("needs /proc/self/task and at least two CPUs")
    code = """
import os
import time
from satkit import predistortion as pd

def cpu_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks[tid] = int(fields[11]) + int(fields[12])    # utime + stime
    return ticks

def workers_settle(timeout=30.0):
    # a worker spins for a while after it starts, as after a threaded call;
    # wait until no thread but the main one has run for a few tick periods
    main = str(os.getpid())
    deadline = time.monotonic() + timeout
    last = cpu_ticks()
    while time.monotonic() < deadline:
        time.sleep(0.2)
        now = cpu_ticks()
        if all(now[t] == last.get(t) for t in now if t != main):
            return
        last = now
    raise SystemExit("BLAS worker threads never went idle")

def run():
    pd.spd_benchmark(pd.HpaParams(), [4.0], modes=("onboard",), n_symbols=2000)

run()       # one-off start-up work, on any thread, is not the chain's
workers_settle()
# one call lasts about one clock tick: repeat it until the main thread has
# gained 20 ticks, so that the workers' share has a base to be read against
main = str(os.getpid())
before = cpu_ticks()
for _ in range(1000):
    run()
    after = cpu_ticks()
    if after[main] - before[main] >= 20:
        break
print(after[main] - before[main],
      sum(after[t] - before.get(t, 0) for t in after if t != main))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env={**os.environ, "PYTHONPATH": path}, text=True,
                         cwd=tmp_path, timeout=300)
    assert res.returncode == 0, res.stderr
    main, workers = map(int, res.stdout.split())
    assert workers < 0.05 * main


def burst_drawn_per_call(config):
    """The symbols and burst that train_spd fits for ``config``, from the
    front end run afresh, past its cache."""
    onboard = config.spd_location == "onboard"
    imux = config.imux if onboard else None
    sigma_j = config.sigma_j if onboard and config.jitter_aware else 0.0
    return pd._front_end.__wrapped__(pd.N_TRAIN_SYMBOLS, pd.TRAIN_SEED, imux,
                                     None, sigma_j, False)[:2]


# train_spd scales the drive-1 burst's rules by d^2, where a fit on the
# scaled burst rounds s = |d*x|^2 after the product: the fits then agree to
# round-off, here bounded relative to each coefficient
TRAIN_RTOL = 1e-13


def assert_fits_agree(got, want, rtol=TRAIN_RTOL):
    for a, b in ((got.gamma, want.gamma), (got.delta, want.delta)):
        assert abs(a - b) <= rtol * abs(b)


class TestTrainSpd:
    @pytest.mark.parametrize("cfg", [
        dict(spd_location="onboard", sigma_j=0.05),
        dict(spd_location="onboard", sigma_j=0.05, jitter_aware=False),
        dict(spd_location="onboard", sigma_j=0.05, imux=None),
        dict(spd_location="onground", sigma_j=0.05)],
        ids=["onboard_aware", "onboard_blind", "no_imux", "onground"])
    def test_matches_the_burst_drawn_per_call(self, cfg):
        # train_spd fits the drive-1 burst's rules scaled by the drive
        # squared: bit for bit the fit on the burst at drive 1, the same to
        # round-off elsewhere; without jitter, the burst is the
        # sample-by-sample shaping and IMUX
        hpa = pd.HpaParams()
        s, burst = burst_drawn_per_call(pd.ChainConfig(**cfg))
        assert pd.train_spd(pd.ChainConfig(**cfg), hpa) == pd.fit_spd(hpa,
                                                                      burst)[0]
        for drive in (1.7, 0.4):
            config = pd.ChainConfig(drive=drive, **cfg)
            assert_fits_agree(pd.train_spd(config, hpa),
                              pd.fit_spd(hpa, burst * drive)[0])
        if cfg.get("jitter_aware", True) and cfg["spd_location"] == "onboard":
            return
        want = imux_output(s) if cfg["spd_location"] == "onboard" else shaped(s)
        assert np.abs(burst - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("cfg", [
        dict(spd_location="onboard"),
        dict(spd_location="onboard", jitter_aware=False),
        dict(spd_location="onground")],
        ids=["onboard_aware", "onboard_blind", "onground"])
    def test_default_trainings_at_every_curve_drive(self, cfg):
        # spd-bench's three trainings, at every drive its curves visit
        hpa = pd.HpaParams()
        burst = burst_drawn_per_call(pd.ChainConfig(**cfg))[1]
        for drive in pd.DRIVE_GRID:
            config = pd.ChainConfig(drive=float(drive), **cfg)
            assert_fits_agree(pd.train_spd(config, hpa),
                              pd.fit_spd(hpa, burst * drive)[0])

    def test_fits_that_stop_on_round_off_agree_to_the_loop_tolerance(self):
        # at sigma_j = 0.05 and drive 0.80 the summed cost stalls at 2.8e-5,
        # its last evaluations agreeing to 14 digits: one fit accepts a step
        # there and stops, the other rejects three, so its last step is
        # damped more. Both costs agree
        # to round-off; a cost known to eps resolves p only to
        # sqrt(eps*cost/lambda_min(J^T J)) = 7.6e-11 there, 4e-10 of delta,
        # and the coefficients are 2.2e-11 (relative) apart
        hpa = pd.HpaParams()
        cfg = dict(spd_location="onboard", sigma_j=0.05)
        burst = burst_drawn_per_call(pd.ChainConfig(**cfg))[1]
        rules = pd._training_rules(pd.N_TRAIN_SYMBOLS, pd.TRAIN_SEED,
                                   pd.ChainConfig().imux, 0.05)
        for drive in pd.DRIVE_GRID:
            got, trace = pd.fit_spd(hpa, rules.scaled(drive ** 2))
            want, want_trace = pd.fit_spd(hpa, burst * drive)
            assert got == pd.train_spd(pd.ChainConfig(drive=float(drive),
                                                      **cfg), hpa)
            assert abs(trace[-1] - want_trace[-1]) <= 1e-13 * want_trace[-1]
            assert_fits_agree(got, want, rtol=1e-9)

    def test_default_run_builds_each_bursts_rules_once(self, monkeypatch):
        # spd-bench's 28 fits use two bursts, onboard and on ground
        built, fits = [], []
        gauss_rules, fit_spd = pd._gauss_rules, pd.fit_spd
        monkeypatch.setattr(pd, "_gauss_rules",
                            lambda s: built.append(s.size) or gauss_rules(s))
        monkeypatch.setattr(pd, "fit_spd",
                            lambda *a: fits.append(a) or fit_spd(*a))
        pd._training_rules.cache_clear()
        pd.spd_benchmark(pd.HpaParams(), [2.0, 4.0, 6.0, 8.0])
        assert len(fits) == 28
        assert len(built) == 2

    def test_cached_rules_are_read_only(self):
        config = pd.ChainConfig(spd_location="onboard", drive=2.0)
        first = pd.train_spd(config, pd.HpaParams())
        rules = pd._training_rules(pd.N_TRAIN_SYMBOLS, pd.TRAIN_SEED,
                                   config.imux, config.sigma_j)
        for part in (rules.values, rules.weights, rules.ok):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0
        assert pd.train_spd(config, pd.HpaParams()) == first

    def test_cached_burst_is_read_only(self):
        config = pd.ChainConfig(spd_location="onboard", drive=2.0)
        first = pd.train_spd(config, pd.HpaParams())
        burst = cached_burst(config.imux, config.sigma_j)
        assert not burst.flags.writeable
        with pytest.raises(ValueError):
            burst[0] = 0.0
        assert pd.train_spd(config, pd.HpaParams()) == first


class TestJitterAwareTraining:
    def test_aware_at_least_as_good_as_blind(self):
        hpa = pd.HpaParams()
        base = dict(spd_location="onboard", sigma_j=0.05, drive=1.3)
        res = {}
        for aware in (True, False):
            cfg = pd.ChainConfig(jitter_aware=aware, **base)
            res[aware] = pd.evaluate_chain(cfg, hpa, n_symbols=2000,
                                           seed=5)
        assert res[True].sinr_db >= res[False].sinr_db - 0.1
