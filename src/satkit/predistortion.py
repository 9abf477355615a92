"""Onboard signal predistortion chain: jitter, SPD, cubic HPA, LS fits.

The amplifier is a memoryless third-order Volterra model y = a*r +
b*|r|^2*r whose drive is clipped at the AM/AM peak r_sat; output
back-off (OBO) is defined against that peak. The SPD is a third-order
polynomial fitted by direct-learning least squares (a Levenberg-Marquardt
loop on 4x4 normal equations); a LUT path offers a quantised
implementation. The IMUX and OMUX Butterworth filters run as FFT
convolutions with their impulse responses, cut where they decay below
1e-18.

The SPD fit and the equalizer reduce their long vectors with zgemm or
elementwise numpy only: a threaded level-1/2 BLAS call (zgemv, zgelsd,
dot, norm) on such a vector leaves numpy's OpenBLAS worker thread
spinning afterwards, which doubled spd-bench's CPU time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .scenario import ConfigurationError


class FitError(RuntimeError):
    """Raised when a model fit is ill-posed."""


@dataclass(frozen=True)
class HpaParams:
    """Cubic amplifier coefficients y = alpha*r + beta*|r|^2*r."""

    alpha: complex = 1.0
    beta: complex = -0.15 + 0.05j

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ConfigurationError("amplifier coefficients must be finite")
        try:
            with np.errstate(over="raise", invalid="raise"):
                in_range = (not np.isfinite(self.r_sat)
                            or 0 < self.p_sat < math.inf)
        except (OverflowError, FloatingPointError):
            in_range = False
        if not in_range:
            raise ConfigurationError(
                "amplifier coefficients out of range: the saturation power "
                "is not a float above 0")

    @property
    def r_sat(self) -> float:
        """Input amplitude of the AM/AM maximum (inf for a linear device).

        |y(r)|^2 = r^2*(|a|^2 + 2*Re(conj(a)*b)*r^2 + |b|^2*r^4); its first
        interior stationary point solves a quadratic in r^2.
        """
        a2 = abs(self.alpha) ** 2
        b2 = abs(self.beta) ** 2
        cross = (np.conj(self.alpha) * self.beta).real
        if b2 == 0:
            return np.inf
        disc = 4 * cross ** 2 - 3 * a2 * b2
        if cross >= 0 or disc < 0:
            return np.inf
        u = (-2 * cross - np.sqrt(disc)) / (3 * b2)
        return float(np.sqrt(u))

    @property
    def p_sat(self) -> float:
        """Saturated output power |y(r_sat)|^2."""
        rs = self.r_sat
        if not np.isfinite(rs):
            raise ConfigurationError("linear amplifier has no saturation point")
        return float(abs(self.alpha * rs + self.beta * rs ** 3) ** 2)


def hpa_apply(params: HpaParams, r: np.ndarray) -> np.ndarray:
    """Amplifier response; drive magnitude is clipped at r_sat."""
    r = np.asarray(r, complex)
    rs = params.r_sat
    if np.isfinite(rs):
        m = np.abs(r)
        r = np.where(m > rs, r * (rs / np.maximum(m, 1e-300)), r)
    return params.alpha * r + params.beta * np.abs(r) ** 2 * r


def fit_hpa(x_in: np.ndarray, y_out: np.ndarray) -> HpaParams:
    """Linear least squares on the regressors [r, |r|^2 r].

    Requires amplitude diversity in the input: a constant-modulus drive
    makes the regressors collinear and the fit is rejected.
    """
    x_in = np.asarray(x_in, complex).ravel()
    y_out = np.asarray(y_out, complex).ravel()
    if x_in.shape != y_out.shape or x_in.size < 2:
        raise ConfigurationError("need matching input/output sample vectors")
    reg = np.stack([x_in, np.abs(x_in) ** 2 * x_in], axis=1)
    sv = np.linalg.svd(reg, compute_uv=False)
    if sv[0] == 0 or sv[1] / sv[0] < 1e-10:
        raise FitError("constant-envelope input: regressors are collinear")
    coef, *_ = np.linalg.lstsq(reg, y_out, rcond=None)
    return HpaParams(alpha=complex(coef[0]), beta=complex(coef[1]))


@lru_cache(maxsize=4)
def _derivative_spectrum(n: int) -> np.ndarray:
    """Spectrum of the length-n circular derivative kernel, read-only.

    The kernel ifft(2*pi*j*fftfreq(n)) is zero-padded to the smallest
    power of two of at least 2n - 1 points, so that its product with a
    padded length-n waveform's spectrum is their linear convolution.
    """
    kernel = np.fft.ifft(2j * np.pi * np.fft.fftfreq(n))
    spectrum = np.fft.fft(kernel, 1 << (2 * n - 2).bit_length())
    spectrum.flags.writeable = False
    return spectrum


def spectral_derivative(x: np.ndarray) -> np.ndarray:
    """Derivative of a band-limited waveform via its FFT (unit sample period).

    Equal to ``ifft(2*pi*j*fftfreq(n) * fft(x))``: the circular
    convolution with the derivative kernel, taken as a linear one on a
    power-of-two FFT whose tail is wrapped onto its head. A length such
    as 32 128 = 2^7*251 makes numpy's FFT about 10x slower than a
    power of two.
    """
    x = np.asarray(x, complex)
    n = x.size
    spectrum = _derivative_spectrum(n)
    linear = np.fft.ifft(np.fft.fft(x, spectrum.size) * spectrum)
    out = linear[:n]
    out[:n - 1] += linear[n:2 * n - 1]
    return out


def jitter_sample(x: np.ndarray, sigma_j: float,
                  rng: np.random.Generator) -> np.ndarray:
    """First-order sampling-jitter model x + e*x_dot.

    ``sigma_j`` is the jitter standard deviation as a fraction of the
    sample period of the oversampled waveform.
    """
    if sigma_j < 0:
        raise ConfigurationError("jitter level must be >= 0")
    x = np.asarray(x, complex)
    if sigma_j > 0:
        x = x + rng.normal(0.0, sigma_j, x.size) * spectral_derivative(x)
    return x


@dataclass(frozen=True)
class SpdParams:
    """Predistorter r = gamma*x + delta*|x|^2*x, with an optional LUT."""

    gamma: complex
    delta: complex
    lut: Optional[np.ndarray] = None      # rows: (bin_lo, bin_hi, gain complex)

    def gain(self, magnitude) -> np.ndarray:
        return self.gamma + self.delta * np.asarray(magnitude) ** 2


def spd_apply(params: SpdParams, x: np.ndarray,
              clip_at: Optional[float] = None) -> np.ndarray:
    """Polynomial predistortion, optionally clamped at an output magnitude."""
    x = np.asarray(x, complex)
    r = params.gamma * x + params.delta * np.abs(x) ** 2 * x
    if clip_at is not None:
        m = np.abs(r)
        r = np.where(m > clip_at, r * (clip_at / np.maximum(m, 1e-300)), r)
    return r


def build_lut(params: SpdParams, dynamic_range: float, n_bins: int) -> SpdParams:
    """Quantise the SPD gain over [0, dynamic_range] input magnitudes."""
    if dynamic_range <= 0 or n_bins < 1:
        raise ConfigurationError("dynamic range and bin count must be positive")
    edges = np.linspace(0.0, dynamic_range, n_bins + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    lut = np.stack([edges[:-1], edges[1:], params.gain(mid)], axis=1)
    return replace(params, lut=lut)


def spd_apply_lut(params: SpdParams, x: np.ndarray) -> np.ndarray:
    """LUT predistortion path: per-magnitude-bin complex gain."""
    if params.lut is None:
        raise ConfigurationError("SpdParams carries no LUT")
    x = np.asarray(x, complex)
    edges = params.lut[:, 0].real
    idx = np.clip(np.searchsorted(edges, np.abs(x), side="right") - 1,
                  0, len(edges) - 1)
    return params.lut[idx, 2] * x


# Levenberg-Marquardt loop of fit_spd: the damping starts at LM_LAMBDA0
# (relative to diag(J^T J)) and the loop stops after LM_MAX_ITER cost
# evaluations, when an accepted step lowers the cost by at most LM_FTOL of
# it, or when a step is at most LM_XTOL of the parameter norm.
LM_FTOL = 1e-10
LM_XTOL = 1e-10
LM_MAX_ITER = 100
LM_LAMBDA0 = 1e-3


def fit_spd(hpa: HpaParams, training_waveform: np.ndarray):
    """Direct-learning least-squares fit of the SPD coefficients.

    Minimises the mean squared error between the amplifier output and
    the linear response ``alpha * input`` over the training waveform,
    as the SPD sees it (``train_spd`` adds the jitter term for
    jitter-cognizant training). A Levenberg-Marquardt loop
    (Marquardt 1963) solves the damped 4x4 normal equations in
    p = (Re gamma, Im gamma, Re delta, Im delta). Returns the fitted
    parameters and the MSE trace: the starting value, then one entry per
    accepted step.
    """
    x = np.asarray(training_waveform, complex)
    if not np.isfinite(x).all():
        raise ConfigurationError("training waveform must be finite")
    if not np.any(x):
        raise ConfigurationError("training waveform is all zero")
    a, b, rs = hpa.alpha, hpa.beta, hpa.r_sat
    x2x = np.abs(x) ** 2 * x
    # above r_sat the amplifier gives y = c_sat * u/|u|; a linear one never clips
    c_sat = a * rs + b * rs ** 3 if np.isfinite(rs) else 0.0
    cols = np.empty((5, x.size), complex)

    def gram(p):
        """Re of the Gram matrix of [J | e]: J^T J, J^T r and the cost."""
        gamma, delta = complex(p[0], p[1]), complex(p[2], p[3])
        u = gamma * x + delta * x2x
        # analytic Jacobian, from the Wirtinger derivatives dy/du, dy/d(conj u)
        m = np.abs(u)
        dy_du, dy_duc = a + 2 * b * m ** 2, b * u ** 2
        over = m > rs
        dy_du[over] = c_sat / (2 * m[over])
        dy_duc[over] = -c_sat * u[over] ** 2 / (2 * m[over] ** 3)
        for k, v in ((0, x), (2, x2x)):
            # du/dp is v for the real part of a coefficient, 1j*v for its imaginary one
            cols[k] = dy_du * v + dy_duc * v.conj()
            cols[k + 1] = 1j * (dy_du * v - dy_duc * v.conj())
        cols[4] = hpa_apply(hpa, u) - a * x
        return (cols.conj() @ cols.T).real

    p = np.array([(1 / a).real, (1 / a).imag, 0.0, 0.0])
    g = gram(p)
    trace = [g[4, 4] / x.size]
    lam = LM_LAMBDA0
    for _ in range(LM_MAX_ITER):
        jtj = g[:4, :4]
        step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -g[:4, 4])
        if np.sqrt(step @ step) <= LM_XTOL * (LM_XTOL + np.sqrt(p @ p)):
            break
        g_new = gram(p + step)
        if not g_new[4, 4] < g[4, 4]:
            lam *= 10
            continue
        done = g[4, 4] - g_new[4, 4] <= LM_FTOL * g_new[4, 4]
        p, g, lam = p + step, g_new, lam / 10
        trace.append(g[4, 4] / x.size)
        if done:
            break
    return (SpdParams(gamma=complex(p[0], p[1]), delta=complex(p[2], p[3])),
            np.array(trace))


@dataclass(frozen=True)
class FilterSpec:
    """IIR low-pass (Butterworth) channel filter specification."""

    order: int = 4
    cutoff: float = 0.14          # fraction of Nyquist

    def __post_init__(self):
        if self.order < 1 or not 0.0 < self.cutoff < 1.0:
            raise ConfigurationError(
                "filter needs order >= 1 and a cutoff in (0, 1)")

    def coefficients(self):
        """Digital Butterworth (b, a) as ``scipy.signal.butter`` designs it.

        The analogue prototype's poles are pre-warped and mapped by the
        bilinear transform (fs = 2), and all N zeros land at z = -1.
        """
        n = self.order
        warped = 4.0 * np.tan(np.pi * self.cutoff / 2)
        poles = warped * -np.exp(1j * np.pi * np.arange(1 - n, n, 2) / (2 * n))
        gain = warped ** n * np.real(1 / np.prod(4.0 - poles))
        return (gain * np.poly(-np.ones(n)),
                np.poly((4.0 + poles) / (4.0 - poles)).real)

    @cached_property
    def _impulse_response(self) -> np.ndarray:
        """Taps of the recursion A(z) y = B(z) x, cut once below 1e-18.

        The recursion runs twice as long as the slowest pole's envelope
        (radius at least 0.5) takes to reach 1e-18, which leaves room for
        its residue; the taps after the last one of at least 1e-18 are
        dropped. They sum to the DC gain of 1, so some tap is kept.
        """
        b, a = self.coefficients()
        rho = max(np.abs(np.roots(a)).max(), 0.5)
        length = 2 * math.ceil(math.log(1e-18) / math.log(rho)) + 8 * self.order
        h = [0.0] * length
        for k in range(length):
            acc = b[k] if k <= self.order else 0.0
            for i in range(1, min(k, self.order) + 1):
                acc -= a[i] * h[k - i]
            h[k] = acc
        h = np.array(h)
        return h[:np.nonzero(np.abs(h) >= 1e-18)[0][-1] + 1]

    @lru_cache(maxsize=8)
    def _spectrum(self, nfft: int) -> np.ndarray:
        """Read-only nfft-point spectrum of the impulse response."""
        # the real taps' spectrum is Hermitian
        half = np.fft.rfft(self._impulse_response, nfft)
        spectrum = np.concatenate([half, half[-2:0:-1].conj()])
        spectrum.flags.writeable = False
        return spectrum

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``scipy.signal.lfilter(b, a, x)`` for a 1-D complex waveform.

        An FFT convolution with the impulse response, cut where it has
        decayed below 1e-18, on the smallest power of two that holds the
        linear convolution; the taps' spectrum is cached per FFT length.
        """
        x = np.asarray(x, complex)
        n = x.size
        nfft = 1 << (n + self._impulse_response.size - 2).bit_length()
        return np.fft.ifft(np.fft.fft(x, nfft) * self._spectrum(nfft))[:n]


# the transponder chain: QPSK symbols shaped by a root-raised-cosine pulse,
# the SPD trained on its own burst, a symbol-spaced equalizer at the receiver
QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
ROLLOFF = 0.25
SPAN = 8                                  # pulse half-length, symbols
OVERSAMPLING = 8                          # samples per symbol
N_TRAIN_SYMBOLS = 1500
TRAIN_SEED = 10_007
EQ_TAPS = 11
# lowest chain SNR, a noise power of 1e30 against the unit-power signal: below
# -3083 dB the noise power overflows a float, and at -3050 dB the equalizer's
# Gram sums already do
MIN_SNR_DB = -300.0
# drive-to-OBO curve of drive_for_obo: drives, symbols and noise seed
DRIVE_GRID = np.geomspace(0.15, 6.0, 12)
CURVE_SYMBOLS = 800
CURVE_SEED = 3


@dataclass(frozen=True)
class ChainConfig:
    """End-to-end transponder chain settings."""

    spd_location: str = "none"            # onboard | onground | none
    sigma_j: float = 0.005
    imux: Optional[FilterSpec] = FilterSpec(order=4, cutoff=0.13)
    omux: Optional[FilterSpec] = FilterSpec(order=4, cutoff=0.30)
    snr_db: float = 40.0
    drive: float = 1.0
    jitter_aware: bool = True

    def __post_init__(self):
        if self.spd_location not in ("onboard", "onground", "none"):
            raise ConfigurationError("unknown spd_location")
        if self.drive <= 0 or not 0 <= self.sigma_j < 1:
            raise ConfigurationError(
                "need a drive > 0 and a jitter sigma_j in [0, 1) sample "
                "periods, where the first-order jitter model holds")
        if not self.snr_db >= MIN_SNR_DB:
            raise ConfigurationError(f"snr_db must be >= {MIN_SNR_DB:g} dB")


@dataclass(frozen=True)
class ChainResult:
    sinr_db: float
    obo_db: float


def rrc_taps(rolloff: float, span: int, oversampling: int) -> np.ndarray:
    """Unit-energy root-raised-cosine pulse."""
    t = np.arange(-span * oversampling, span * oversampling + 1) / oversampling
    with np.errstate(divide="ignore", invalid="ignore"):
        h = ((np.sin(np.pi * t * (1 - rolloff))
              + 4 * rolloff * t * np.cos(np.pi * t * (1 + rolloff)))
             / (np.pi * t * (1 - (4 * rolloff * t) ** 2)))
    # the two removable singularities: t = 0 and |t| = 1/(4 rolloff)
    h = np.where(np.abs(t) < 1e-12, 1 - rolloff + 4 * rolloff / np.pi, h)
    h = np.where(np.abs(np.abs(t) - 1 / (4 * rolloff)) < 1e-9,
                 (rolloff / np.sqrt(2)) * (
                     (1 + 2 / np.pi) * np.sin(np.pi / (4 * rolloff))
                     + (1 - 2 / np.pi) * np.cos(np.pi / (4 * rolloff))), h)
    return h / np.sqrt(np.sum(h ** 2))


def _draw_symbols(rng: np.random.Generator, n: int) -> np.ndarray:
    return QPSK[rng.integers(len(QPSK), size=n)]


def _shape(symbols: np.ndarray, taps: np.ndarray, oversampling: int) -> np.ndarray:
    x = np.zeros(symbols.size * oversampling, complex)
    x[::oversampling] = symbols
    return np.convolve(x, taps)


@lru_cache(maxsize=4)
def _training_burst(imux: Optional[FilterSpec], sigma_j: float) -> np.ndarray:
    """Read-only training burst at drive 1: the IMUX output and its jitter term.

    The symbols and then the jitter draws come from one ``TRAIN_SEED``
    stream. Both stages are linear in the drive, so one burst serves
    every drive.
    """
    rng = np.random.default_rng(TRAIN_SEED)
    s = _draw_symbols(rng, N_TRAIN_SYMBOLS)
    x = _shape(s, rrc_taps(ROLLOFF, SPAN, OVERSAMPLING), OVERSAMPLING)
    if imux is not None:
        x = imux.apply(x)
    x = jitter_sample(x, sigma_j, rng)
    x.flags.writeable = False
    return x


def train_spd(config: ChainConfig, hpa: HpaParams) -> SpdParams:
    """Fit SPD coefficients on a training burst seen at the SPD's location.

    Onboard, the burst passes the IMUX and, for a jitter-aware SPD, the
    sampling jitter (jitter-cognizant training); on ground it is the
    shaped waveform alone.
    """
    onboard = config.spd_location == "onboard"
    burst = _training_burst(
        config.imux if onboard else None,
        config.sigma_j if onboard and config.jitter_aware else 0.0)
    params, _ = fit_spd(hpa, burst * config.drive)
    return params


def _equalized_sinr(rx_symbols: np.ndarray, symbols: np.ndarray,
                    n_taps: int) -> float:
    """Data-aided symbol-spaced LS equalizer, then error-vector SINR."""
    n = symbols.size
    half = n_taps // 2
    cols = [np.roll(rx_symbols, half - t) for t in range(n_taps)]
    data = np.stack(cols + [symbols], axis=1)[half:n - half]
    mat, ref = data[:, :n_taps], data[:, n_taps]
    # normal equations from one zgemm; lstsq keeps the minimum-norm taps
    # when mat is rank-deficient (an all-zero rx gives w = 0)
    gram = data.conj().T @ data
    w, *_ = np.linalg.lstsq(gram[:n_taps, :n_taps], gram[:n_taps, n_taps],
                            rcond=None)
    err = (mat * w).sum(axis=1) - ref
    mse = float(np.mean(np.abs(err) ** 2))
    sig = float(np.mean(np.abs(ref) ** 2))
    return 10 * np.log10(sig / max(mse, 1e-300))


def evaluate_chain(config: ChainConfig, spd: Optional[SpdParams],
                   hpa: HpaParams, n_symbols: int = 4000,
                   rng: Optional[np.random.Generator] = None) -> ChainResult:
    """Run the transmit chain once and measure OBO and data-aided SINR.

    Pipeline: pulse shaping, optional on-ground SPD, IMUX, sampling
    jitter, optional onboard SPD, cubic HPA (clipped at r_sat), OMUX,
    AWGN, receive matched filter, timing search and a data-aided
    symbol-spaced equalizer. ``spd`` may be None when spd_location is
    "none"; it is fitted internally when omitted otherwise.
    """
    if n_symbols < EQ_TAPS:
        raise ConfigurationError(
            f"n_symbols must be >= {EQ_TAPS}, the equalizer's tap count")
    if rng is None:
        rng = np.random.default_rng(0)
    if config.spd_location != "none" and spd is None:
        spd = train_spd(config, hpa)
    os_, taps = OVERSAMPLING, rrc_taps(ROLLOFF, SPAN, OVERSAMPLING)
    s = _draw_symbols(rng, n_symbols)
    z = _shape(s, taps, os_) * config.drive
    rs = hpa.r_sat
    clip = rs if np.isfinite(rs) else None
    if config.spd_location == "onground":
        z = spd_apply(spd, z, clip_at=clip)
    if config.imux is not None:
        z = config.imux.apply(z)
    if config.sigma_j > 0:
        z = jitter_sample(z, config.sigma_j, rng)
    if config.spd_location == "onboard":
        z = spd_apply(spd, z, clip_at=clip)
    y = hpa_apply(hpa, z)
    if np.isfinite(hpa.r_sat):
        obo = 10 * np.log10(hpa.p_sat / np.mean(np.abs(y) ** 2))
    else:
        obo = np.inf            # linear device has no back-off reference
    if config.omux is not None:
        y = config.omux.apply(y)
    nv = 10 ** (-config.snr_db / 10)
    y = y + np.sqrt(nv / 2) * (rng.standard_normal(y.size)
                               + 1j * rng.standard_normal(y.size))
    r = np.convolve(y, taps)
    # integer timing search over a window covering filter group delays
    base = len(taps) - 1
    window = range(base, base + 6 * os_)
    probe = s[: min(400, n_symbols)]
    best_t, best_c = base, -1.0
    for t in window:
        seg = r[t : t + probe.size * os_ : os_]
        if seg.size < probe.size:
            break
        c = abs(np.vdot(probe, seg))
        if c > best_c:
            best_c, best_t = c, t
    rx = r[best_t : best_t + n_symbols * os_ : os_]
    n_eff = min(rx.size, n_symbols)
    sinr = _equalized_sinr(rx[:n_eff], s[:n_eff], EQ_TAPS)
    return ChainResult(sinr_db=float(sinr), obo_db=float(obo))


def obo_vs_drive(config: ChainConfig, hpa: HpaParams,
                 drives: Sequence[float]) -> np.ndarray:
    """OBO (dB) achieved at each drive level, SPD refitted per drive.

    Each point runs ``CURVE_SYMBOLS`` symbols with noise seed ``CURVE_SEED``.
    """
    out = []
    for dr in drives:
        cfg = replace(config, drive=float(dr))
        res = evaluate_chain(cfg, None, hpa, n_symbols=CURVE_SYMBOLS,
                             rng=np.random.default_rng(CURVE_SEED))
        out.append(res.obo_db)
    return np.array(out)


def drive_for_obo(config: ChainConfig, hpa: HpaParams,
                  obo_target_db: float | Sequence[float]) -> float | np.ndarray:
    """Drive level reaching a target OBO, interpolated on ``DRIVE_GRID``'s curve.

    ``obo_target_db`` is one target (a float is returned) or a sequence
    of them (an array of drives is returned).
    """
    obo = obo_vs_drive(config, hpa, DRIVE_GRID)
    order = np.argsort(obo)
    target = np.asarray(obo_target_db, float)
    if not np.all((obo[order[0]] <= target) & (target <= obo[order[-1]])):
        raise ConfigurationError("OBO target outside the drive grid's range")
    return np.exp(np.interp(target, obo[order], np.log(DRIVE_GRID)[order]))


def spd_benchmark(hpa: HpaParams, obo_grid_db: Sequence[float],
                  modes: Sequence[str] = ("none", "onboard", "onground"),
                  base_config: Optional[ChainConfig] = None,
                  n_symbols: int = 4000, seed: int = 0) -> list:
    """SINR at matched OBO per SPD placement, paired noise seeds."""
    if base_config is None:
        base_config = ChainConfig()
    rows = []
    for mode in modes:
        cfg0 = replace(base_config, spd_location=mode)
        drives = drive_for_obo(cfg0, hpa, obo_grid_db)
        for target, dr in zip(obo_grid_db, drives):
            cfg = replace(cfg0, drive=float(dr))
            res = evaluate_chain(cfg, None, hpa, n_symbols=n_symbols,
                                 rng=np.random.default_rng(seed))
            rows.append({"spd_location": mode,
                         "jitter_aware": cfg.jitter_aware and mode == "onboard",
                         "obo_db": res.obo_db, "obo_target_db": float(target),
                         "sinr_db": res.sinr_db, "seed": seed})
    return rows
