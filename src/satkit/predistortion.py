"""Onboard signal predistortion chain: jitter, SPD, cubic HPA, LS fit.

The amplifier is a memoryless third-order Volterra model y = a*r +
b*|r|^2*r whose drive is clipped at the AM/AM peak r_sat; output
back-off (OBO) is defined against that peak. ``HpaParams`` takes only a
saturating amplifier, one whose AM/AM curve has that peak, so the rest
of the chain may assume it. The SPD is a third-order polynomial fitted
by direct-learning least squares (a Levenberg-Marquardt loop on 4x4
normal equations); ``build_lut`` returns |x| bin edges and the SPD's
complex gain per bin. Every linear stage of the transponder chain
(shaping, IMUX, jitter derivative, OMUX, matched filter) is a product on
one power-of-two FFT grid per waveform length, which none of them wraps.
The draws and the stages before the drive are computed once per seed and
placement, and the drive scales their waveform. The drive-to-OBO curve
stops at the lowest target, and its points end at the amplifier.

The fit's Gram is a sum over the burst of s = |x|^2 times polynomials of
degree at most 8 in s wherever the amplifier does not clip. So it runs on the
5-node Gauss rule (exact to degree 9) of each block of ``_GAUSS_BLOCK`` = 512
sorted s, built by a Lanczos process and one batched eigh (``BurstRules``).
A block that can clip at the current coefficients, a block with fewer than 5
distinct points and the partial last block run on their samples, so the
clip branch still sees every clipping sample. A training burst's rules are
built once, at drive 1, and cached under its front end's key (symbol count,
seed, IMUX, jitter level). The drive d scales every s by d^2, and with it
every node, weight and block end, and keeps the samples' order; so one set
of rules serves every drive, exactly up to rounding.

The fit's normal equations come from one dgemm on a float view and the
equalizer's from one zgemm: a threaded level-1/2 BLAS call (zgemv, zgelsd,
dot, norm) on a long vector leaves numpy's OpenBLAS worker thread
spinning afterwards, which doubled spd-bench's CPU time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .scenario import ConfigurationError


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
                if not np.isfinite(self.r_sat):
                    raise ConfigurationError(
                        "amplifier coefficients give no saturation point: "
                        "|y(r)| has no interior maximum to back off from")
                in_range = 0 < self.p_sat < math.inf
        except (OverflowError, FloatingPointError):
            in_range = False
        if not in_range:
            raise ConfigurationError(
                "amplifier coefficients out of range: the saturation power "
                "is not a float above 0")

    @property
    def r_sat(self) -> float:
        """Input amplitude of the AM/AM maximum.

        |y(r)|^2 = r^2*(|a|^2 + 2*Re(conj(a)*b)*r^2 + |b|^2*r^4); its first
        interior stationary point solves a quadratic in r^2. It is inf where
        |y| has no such maximum (b = 0, a = 0, Re(conj(a)*b) >= 0 or a
        negative discriminant), which ``HpaParams`` rejects.
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
        return float(abs(self.alpha * rs + self.beta * rs ** 3) ** 2)


def _clip(r: np.ndarray, limit: float) -> np.ndarray:
    """r with every magnitude above ``limit`` scaled down to it."""
    m = np.abs(r)
    return np.where(m > limit, r * (limit / np.maximum(m, 1e-300)), r)


def hpa_apply(params: HpaParams, r: np.ndarray) -> np.ndarray:
    """Amplifier response; drive magnitude is clipped at r_sat."""
    r = _clip(np.asarray(r, complex), params.r_sat)
    return params.alpha * r + params.beta * np.abs(r) ** 2 * r


@dataclass(frozen=True)
class SpdParams:
    """Predistorter r = gamma*x + delta*|x|^2*x."""

    gamma: complex
    delta: complex

    def gain(self, magnitude) -> np.ndarray:
        return self.gamma + self.delta * np.asarray(magnitude) ** 2


def spd_apply(params: SpdParams, x: np.ndarray, clip_at: float) -> np.ndarray:
    """Polynomial predistortion, clamped at an output magnitude."""
    x = np.asarray(x, complex)
    return _clip(params.gamma * x + params.delta * np.abs(x) ** 2 * x, clip_at)


def build_lut(params: SpdParams, dynamic_range: float, n_bins: int):
    """Quantise the SPD gain over [0, dynamic_range] input magnitudes.

    Returns the n_bins + 1 bin edges and each bin's complex gain, the
    gain at the bin's midpoint.
    """
    if dynamic_range <= 0 or n_bins < 1:
        raise ConfigurationError("dynamic range and bin count must be positive")
    edges = np.linspace(0.0, dynamic_range, n_bins + 1)
    return edges, params.gain(0.5 * (edges[:-1] + edges[1:]))


# Levenberg-Marquardt loop of fit_spd: the damping starts at LM_LAMBDA0
# (relative to diag(J^T J)) and the loop stops after LM_MAX_ITER cost
# evaluations, when an accepted step lowers the cost by at most LM_FTOL of
# it, or when a step is at most LM_XTOL of the parameter norm.
LM_FTOL = 1e-10
LM_XTOL = 1e-10
LM_MAX_ITER = 100
LM_LAMBDA0 = 1e-3


# fit_spd's Gram runs on Gauss rules: one of _GAUSS_NODES nodes per block of
# _GAUSS_BLOCK sorted s = |x|^2, kept when every Lanczos coefficient beta_k
# (on s scaled to [-1, 1], weights normalised) exceeds _GAUSS_BREAKDOWN; the
# blocks of the default bursts read beta_k >= 0.48
_GAUSS_NODES = 5
_GAUSS_BLOCK = 512
_GAUSS_BREAKDOWN = 1e-6


def _gauss_rules(s: np.ndarray):
    """The Gauss rule of each full block of sorted ``s`` for its measure
    sum_i s_i*delta(t - s_i): nodes, weights and whether the block has one.

    The rule comes from the discretised Stieltjes (Lanczos) process and the
    eigenvectors of its Jacobi matrix (Golub & Welsch 1969), every block at
    once. A block whose recurrence breaks down, as one with fewer than
    _GAUSS_NODES distinct points of positive weight does, has no rule.
    """
    nb, k = s.size // _GAUSS_BLOCK, _GAUSS_NODES
    v = s[:nb * _GAUSS_BLOCK].reshape(nb, _GAUSS_BLOCK)
    mid, half = 0.5 * (v[:, -1] + v[:, 0]), 0.5 * (v[:, -1] - v[:, 0])
    total = v.sum(axis=1)
    ok = half > 0                           # then total > 0 as well
    x = (v - mid[:, None]) / np.where(ok, half, 1.0)[:, None]
    q = np.sqrt(v / np.where(ok, total, 1.0)[:, None])
    q_prev, r, beta = np.zeros_like(q), np.empty_like(q), np.zeros(nb)
    jacobi = np.zeros((nb, k, k))           # eigh reads the lower triangle
    for i in range(k):
        np.multiply(x, q, out=r)
        jacobi[:, i, i] = alpha = np.einsum("ij,ij->i", r, q)
        if i == k - 1:
            break
        r -= alpha[:, None] * q
        r -= beta[:, None] * q_prev
        beta = np.sqrt(np.einsum("ij,ij->i", r, r))
        ok &= beta > _GAUSS_BREAKDOWN
        jacobi[:, i + 1, i] = beta
        r /= np.where(ok, beta, 1.0)[:, None]
        q_prev, q, r = q, r, q_prev
    lam, vec = np.linalg.eigh(jacobi)
    return mid[:, None] + half[:, None] * lam, total[:, None] * vec[:, 0] ** 2, ok


def _spd_gram(hpa: HpaParams, values: np.ndarray, weights: np.ndarray):
    """The fit's Re Gram of [J | e] (J^T J, J^T r, cost) as a function of p.

    The fit sees x only through s = |x|^2. With u = x*g, g = gamma +
    delta*s and m^2 = s|g|^2, the Wirtinger derivatives put x*(A + B),
    x*j(A - B), x*s(A + B), x*j*s(A - B) in J and x*E in e, with A =
    a + 2b*m^2, B = b*s*g^2, E = a(g - 1) + b*m^2*g (c_sat forms above
    r_sat). So Re(C^H C) = D^T D, D the float view of sqrt(s) times those:
    a sum over samples of s times functions of s. ``gram(p, take)`` sums
    over the entries ``take`` of ``values`` and ``weights``, which are
    (s, s) for a sample and (node, weight) for a Gauss node. Its buffers
    are allocated once per fit and filled in place.
    """
    a, b, rs = hpa.alpha, hpa.beta, hpa.r_sat
    c_sat = a * rs + b * rs ** 3
    rt = np.sqrt(weights)
    cols = np.empty((7, values.size), complex)  # rows 2-6 are scratch at first
    d = cols.view(float)                        # fresh ones per call cost more
    reals = np.empty((4, values.size))          # in page faults

    def gram(p, take):
        n = take.size
        gamma, delta = complex(p[0], p[1]), complex(p[2], p[3])
        (c0, c1, plus, minus, e, g, sg2), (s, r, m2, sq) = (cols[:, :n],
                                                            reals[:, :n])
        np.take(values, take, out=s)
        np.take(rt, take, out=r)
        np.add(gamma, np.multiply(delta, s, out=e), out=g)
        np.add(np.square(g.real, out=m2), np.square(g.imag, out=sq), out=m2)
        m2 *= s
        np.multiply(np.multiply(s, g, out=sg2), g, out=sg2)
        np.add(a, np.multiply(2 * b, m2, out=plus), out=plus)
        np.multiply(b, sg2, out=minus)
        # g - 1 is formed first, so that a small residual keeps its digits
        np.multiply(a, np.add(gamma - 1, e, out=e), out=e)
        e += np.multiply(np.multiply(b, m2, out=c0), g, out=c0)
        over = m2 > rs ** 2                 # y = c_sat*u/m there
        if over.any():
            m = np.sqrt(m2[over])
            plus[over] = c_sat / (2 * m)
            minus[over] = -c_sat * sg2[over] / (2 * m ** 3)
            e[over] = c_sat * g[over] / m - a
        np.multiply(r, np.add(plus, minus, out=c0), out=c0)
        np.multiply(r, np.subtract(plus, minus, out=c1), out=c1)
        c1 *= 1j
        np.multiply(s, c0, out=plus)        # rows 2 and 3 of D
        np.multiply(s, c1, out=minus)
        e *= r
        # a dgemm: numpy hands d @ d.T to dsyrk, which is ~8x slower here
        top = d[:4, :2 * n] @ d[:5, :2 * n].T
        cost = np.square(d[4, :2 * n], out=d[4, :2 * n]).sum()
        return np.vstack([top, np.append(top[:, 4], cost)])

    return gram


@dataclass(frozen=True)
class BurstRules:
    """The fit's view of a burst: its sorted s = |x|^2 and the Gauss rule
    of each full block of ``_GAUSS_BLOCK`` of them (``_gauss_rules``).

    ``values`` holds every block's nodes, block by block, then the sorted s;
    ``weights`` the nodes' weights, then the sorted s again; ``ok`` whether
    each full block has a rule.
    """

    values: np.ndarray
    weights: np.ndarray
    ok: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray) -> "BurstRules":
        s = np.sort(s)
        nodes, weights, ok = _gauss_rules(s)
        return cls(np.concatenate([nodes.ravel(), s]),
                   np.concatenate([weights.ravel(), s]), ok)

    @property
    def n_samples(self) -> int:
        return self.values.size - self.ok.size * _GAUSS_NODES

    def scaled(self, factor: float) -> "BurstRules":
        """The rules of ``factor`` * s, for a factor > 0: the measure
        sum_i c*s_i*delta(t - c*s_i) has the nodes and the weights of
        sum_i s_i*delta(t - s_i) times c, and the same order of samples."""
        return BurstRules(self.values * factor, self.weights * factor, self.ok)


def _burst_gram(hpa: HpaParams, rules: BurstRules):
    """``_spd_gram`` of a burst's ``rules`` as a function of p alone.

    Below r_sat every entry of the Gram is s times a polynomial of degree
    at most 8 in s, which a block's Gauss rule (degree 2*5 - 1 = 9) sums
    exactly. So a block runs on its nodes when none of its samples can clip
    at p, and on its samples otherwise, as do a block without a rule and a
    partial last block. On [lo, hi] no sample clips when hi*max(|g(lo)|^2,
    |g(hi)|^2) <= r_sat^2, since |g|^2 is convex in s.
    """
    ok = rules.ok
    nb, m = ok.size, ok.size * _GAUSS_NODES
    s = rules.values[m:]
    ends = s[:nb * _GAUSS_BLOCK].reshape(nb, _GAUSS_BLOCK)[:, [0, -1]].T
    gram = _spd_gram(hpa, rules.values, rules.weights)
    node_at = np.arange(m).reshape(nb, _GAUSS_NODES)
    sample_at = m + np.arange(nb * _GAUSS_BLOCK).reshape(nb, _GAUSS_BLOCK)
    tail_at = np.arange(m + nb * _GAUSS_BLOCK, m + s.size)
    rs2 = hpa.r_sat ** 2

    def burst_gram(p):
        g2 = np.abs(complex(p[0], p[1]) + complex(p[2], p[3]) * ends) ** 2
        safe = ok & (ends[1] * g2.max(axis=0) <= rs2)
        return gram(p, np.concatenate([node_at[safe].ravel(),
                                       sample_at[~safe].ravel(), tail_at]))

    return burst_gram


def fit_spd(hpa: HpaParams, training: np.ndarray | BurstRules):
    """Direct-learning least-squares fit of the SPD coefficients.

    Minimises the mean squared error between the amplifier output and
    the linear response ``alpha * input`` over the training waveform,
    as the SPD sees it (``train_spd`` adds the jitter term for
    jitter-cognizant training). A Levenberg-Marquardt loop
    (Marquardt 1963) solves the damped 4x4 normal equations in
    p = (Re gamma, Im gamma, Re delta, Im delta). Returns the fitted
    parameters and the MSE trace: the starting value, then one entry per
    accepted step. Each step's normal equations are summed on Gauss rules
    of |x|^2 (``_burst_gram``), which below clipping give the per-sample
    sums to round-off. ``training`` is the waveform x, whose rules are
    built here, or the ``BurstRules`` of its |x|^2, fitted as given:
    ``train_spd`` passes a training burst's cached rules scaled to the drive.
    """
    if isinstance(training, BurstRules):
        rules = training
    else:
        x = np.asarray(training, complex)
        if not np.isfinite(x).all():
            raise ConfigurationError("training waveform must be finite")
        if not np.any(x):
            raise ConfigurationError("training waveform is all zero")
        rules = BurstRules.of(x.real ** 2 + x.imag ** 2)
    gram = _burst_gram(hpa, rules)
    p = np.array([(1 / hpa.alpha).real, (1 / hpa.alpha).imag, 0.0, 0.0])
    g = gram(p)
    trace = [g[4, 4] / rules.n_samples]
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
        trace.append(g[4, 4] / rules.n_samples)
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

    def _zpk(self):
        """Gain and poles as ``scipy.signal.butter`` designs them; the N
        zeros are at z = -1. The analogue prototype's poles are pre-warped
        and mapped by the bilinear transform (fs = 2)."""
        n = self.order
        warped = 4.0 * np.tan(np.pi * self.cutoff / 2)
        poles = warped * -np.exp(1j * np.pi * np.arange(1 - n, n, 2) / (2 * n))
        gain = warped ** n * np.real(1 / np.prod(4.0 - poles))
        return gain, (4.0 + poles) / (4.0 - poles)

    @property
    def length(self) -> int:
        """Samples for the impulse response to decay below 1e-18: twice the
        slowest pole's envelope (radius at least 0.5), for its residue."""
        rho = max(np.abs(self._zpk()[1]).max(), 0.5)
        return 2 * math.ceil(math.log(1e-18) / math.log(rho)) + 8 * self.order

    def response(self, nfft: int) -> np.ndarray:
        """gain*(1 + z^-1)^N / prod(1 - p_k z^-1) at z = exp(2j*pi*k/nfft):
        on n + ``length`` points or more, its product with a length-n
        waveform's spectrum is the filtered waveform's."""
        gain, poles = self._zpk()
        zinv = np.exp(-2j * np.pi * np.arange(nfft) / nfft)
        return (gain * (1 + zinv) ** self.order
                / np.prod(1 - np.outer(poles, zinv), axis=0))


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


@lru_cache(maxsize=16)
def _spectrum(nfft: int, spec: Optional[FilterSpec] = None) -> np.ndarray:
    """Read-only nfft-point spectrum of the RRC pulse, or of a filter."""
    spectrum = (np.fft.fft(rrc_taps(ROLLOFF, SPAN, OVERSAMPLING), nfft)
                if spec is None else spec.response(nfft))
    spectrum.flags.writeable = False
    return spectrum


@lru_cache(maxsize=8)
def _derivative(nfft: int) -> np.ndarray:
    """Read-only nfft-point spectrum of d/dt, 2j*pi*fftfreq(nfft)."""
    spectrum = 2j * np.pi * np.fft.fftfreq(nfft)
    spectrum.flags.writeable = False
    return spectrum


def _imux_and_jitter(x: np.ndarray, n: int, imux: Optional[FilterSpec],
                     e: Optional[np.ndarray]) -> np.ndarray:
    """IMUX output z of spectrum x (overwritten), first n samples, plus e*z'."""
    if imux is not None:
        x *= _spectrum(x.size, imux)
    z = np.fft.ifft(x)[:n]
    if e is not None:
        x *= _derivative(x.size)
        z += e * np.fft.ifft(x)[:n]
    return z


@lru_cache(maxsize=8)
def _front_end(n_symbols: int, seed: int, imux: Optional[FilterSpec],
               omux: Optional[FilterSpec], sigma_j: float, onground: bool):
    """Read-only front end at drive 1: symbols, waveform, e, noise and nfft.

    A ``seed`` stream draws the symbols, the jitter e ~ N(0, sigma_j) per
    sample (None for sigma_j = 0) and the unit complex noise, in that order.
    The waveform is the first n = OVERSAMPLING*m + 2*SPAN*OVERSAMPLING
    samples of the IMUX output plus its jitter term or, ``onground``, of the
    shaped waveform, on nfft points that hold n plus the longest decay. The
    drive only scales the waveform, so one entry serves every drive.
    """
    rng = np.random.default_rng(seed)
    symbols = QPSK[rng.integers(len(QPSK), size=n_symbols)]
    pulse = 2 * SPAN * OVERSAMPLING
    n = OVERSAMPLING * n_symbols + pulse
    tail = max([pulse] + [f.length for f in (imux, omux) if f is not None])
    nfft = 1 << (n + tail - 1).bit_length()
    # the zero-stuffed train's spectrum is the symbols' spectrum, tiled
    x = np.tile(np.fft.fft(symbols, nfft // OVERSAMPLING), OVERSAMPLING)
    x *= _spectrum(nfft)
    e = rng.normal(0.0, sigma_j, n) if sigma_j > 0 else None
    z = np.fft.ifft(x)[:n] if onground else _imux_and_jitter(x, n, imux, e)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for part in filter(lambda a: a is not None, (symbols, z, e, noise)):
        part.flags.writeable = False
    return symbols, z, e, noise, nfft


@lru_cache(maxsize=8)
def _training_rules(n_symbols: int, seed: int, imux: Optional[FilterSpec],
                    sigma_j: float) -> BurstRules:
    """Read-only ``BurstRules`` of the drive-1 training burst: the
    ``_front_end`` waveform of the same key, with no OMUX."""
    x = _front_end(n_symbols, seed, imux, None, sigma_j, False)[1]
    rules = BurstRules.of(x.real ** 2 + x.imag ** 2)
    for part in (rules.values, rules.weights, rules.ok):
        part.flags.writeable = False
    return rules


def train_spd(config: ChainConfig, hpa: HpaParams) -> SpdParams:
    """Fit SPD coefficients on a training burst seen at the SPD's location.

    The burst is the drive-1 front end of ``N_TRAIN_SYMBOLS`` symbols from
    ``TRAIN_SEED`` with no OMUX, scaled by the drive. Onboard, it passes
    the IMUX and, for a jitter-aware SPD, the sampling jitter (jitter-
    cognizant training); on ground it is the shaped waveform alone. The
    burst's rules are built at drive 1 once per key (``_training_rules``)
    and scaled by the drive squared, which is exact at drive 1 and
    elsewhere differs from rules built on the scaled burst by round-off
    alone: there s = |d*x|^2 is rounded after the product, not before.
    """
    onboard = config.spd_location == "onboard"
    rules = _training_rules(N_TRAIN_SYMBOLS, TRAIN_SEED,
                            config.imux if onboard else None,
                            config.sigma_j if onboard and config.jitter_aware
                            else 0.0)
    return fit_spd(hpa, rules.scaled(config.drive ** 2))[0]


def _equalized_sinr(rx_symbols: np.ndarray, symbols: np.ndarray,
                    n_taps: int) -> float:
    """Data-aided symbol-spaced LS equalizer, then error-vector SINR."""
    n, half = symbols.size, n_taps // 2
    # row r: the taps' inputs rx[r:r + n_taps], then the symbol at r + half
    windows = sliding_window_view(rx_symbols, n_taps)[:n - 2 * half]
    data = np.concatenate([windows, symbols[half:n - half, None]], axis=1)
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


def _amplify(config: ChainConfig, hpa: HpaParams, n_symbols: int, seed: int):
    """The chain up to the amplifier (a placed SPD trained at the drive):
    the front end, HPA output and OBO. The drive d makes z(d) = d*z(1) exactly."""
    if config.spd_location != "none":
        spd = train_spd(config, hpa)
    front = _front_end(n_symbols, seed, config.imux, config.omux,
                       config.sigma_j, config.spd_location == "onground")
    z = front[1] * config.drive
    if config.spd_location == "onground":
        x = np.fft.fft(spd_apply(spd, z, clip_at=hpa.r_sat), front[4])
        z = _imux_and_jitter(x, z.size, config.imux, front[2])
    elif config.spd_location == "onboard":
        z = spd_apply(spd, z, clip_at=hpa.r_sat)
    y = hpa_apply(hpa, z)
    return front, y, float(10 * np.log10(hpa.p_sat / np.mean(np.abs(y) ** 2)))


def evaluate_chain(config: ChainConfig, hpa: HpaParams, n_symbols: int = 4000,
                   seed: int = 0) -> ChainResult:
    """Run the transmit chain once and measure OBO and data-aided SINR.

    Pipeline: pulse shaping, optional on-ground SPD, IMUX, sampling
    jitter, optional onboard SPD, cubic HPA (clipped at r_sat), OMUX,
    AWGN, receive matched filter, timing search and a data-aided
    symbol-spaced equalizer. A placed SPD is trained by ``train_spd`` at
    the config's drive. The symbols, jitter and noise come from one
    ``seed`` stream.
    """
    if n_symbols < EQ_TAPS:
        raise ConfigurationError(
            f"n_symbols must be >= {EQ_TAPS}, the equalizer's tap count")
    (s, _, _, noise, nfft), y, obo = _amplify(config, hpa, n_symbols, seed)
    if config.omux is not None:
        y = np.fft.ifft(np.fft.fft(y, nfft)
                       * _spectrum(nfft, config.omux))[:y.size]
    y = y + np.sqrt(10 ** (-config.snr_db / 10) / 2) * noise
    # receive matched filter, then an integer timing search over a window
    # covering the filters' group delays (the first best correlation)
    os_, base = OVERSAMPLING, 2 * SPAN * OVERSAMPLING
    r = np.fft.ifft(np.fft.fft(y, nfft) * _spectrum(nfft))[:y.size + base]
    probe = s[:400]
    corr = [abs(np.vdot(probe, r[t:t + probe.size * os_:os_]))
            for t in range(base, base + 6 * os_)]
    rx = r[base + int(np.argmax(corr))::os_][:n_symbols]
    sinr = _equalized_sinr(rx, s, EQ_TAPS)
    return ChainResult(sinr_db=float(sinr), obo_db=obo)


def obo_vs_drive(config: ChainConfig, hpa: HpaParams, drive: float) -> float:
    """OBO (dB) achieved at one drive level, the SPD refitted at it.

    The point runs the chain up to the amplifier, on ``CURVE_SYMBOLS``
    symbols with seed ``CURVE_SEED``.
    """
    return _amplify(replace(config, drive=float(drive)), hpa, CURVE_SYMBOLS,
                    CURVE_SEED)[2]


def drive_for_obo(config: ChainConfig, hpa: HpaParams,
                  obo_targets_db: Sequence[float]) -> np.ndarray:
    """Drives reaching the target OBOs, interpolated on ``DRIVE_GRID``'s curve.

    The curve stops at the first drive whose OBO is below every target:
    OBO falls with drive, so no later drive brackets a target.
    """
    target = np.asarray(obo_targets_db, float)
    obo = []
    for dr in DRIVE_GRID:
        obo.append(obo_vs_drive(config, hpa, dr))
        if obo[-1] < target.min(initial=np.inf):
            break
    obo = np.array(obo)
    order = np.argsort(obo)
    lo, hi = obo[order[0]], obo[order[-1]]
    outside = target[~((lo <= target) & (target <= hi))]
    if outside.size:
        raise ConfigurationError(
            f"OBO target {', '.join(f'{t:g}' for t in outside)} dB outside "
            f"the drive grid's range: {obo.size} of its {DRIVE_GRID.size} "
            f"drives walked, reaching {lo:.2f} to {hi:.2f} dB")
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
            res = evaluate_chain(cfg, hpa, n_symbols=n_symbols, seed=seed)
            rows.append({"spd_location": mode,
                         "jitter_aware": cfg.jitter_aware and mode == "onboard",
                         "obo_db": res.obo_db, "obo_target_db": float(target),
                         "sinr_db": res.sinr_db, "seed": seed})
    return rows
