"""Onboard uplink interference detection with energy-detector variants.

Frames follow the binary hypothesis model x~(n) = h*s(n) + eta(n)
(+ p(n) under H1) with pilot-aided signal cancellation. Noise variance
is nominally unity with a per-frame uncertainty of +/- eps dB; the
interferer is complex Gaussian scaled to the target ISNR, defined as
interference power over (signal power + noise power). Threshold
calibration and Pd curves draw each statistic from its exact law: CED
and EDSCP from closed-form laws, EDSCD by simulating only its data
samples, rotated into the phase of the channel estimate and drawn in
blocks whose size does not change the output, each sorted once and reduced
for all its means while one helper thread draws the next. The tests hold
the frame-level reference, which synthesises whole frames, and check all
three against it.

The ISNR only raises each frame's noise-plus-interference variance, so
``pd_curve`` draws one set of frames per curve and evaluates every grid
point on it (common random numbers, Glasserman & Yao 1992); rows of one
curve are correlated, but each keeps its own law and depends only on its
ISNR. EDSCD's calibration shares each set of data normals among 16 draws
of the scalars that carry most of its variance (a crossed design).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .scenario import ConfigurationError

N_DATA = 460            # data symbols per frame
N_PILOT = 56            # pilot symbols per frame, sent first
Z_95 = 1.959963984540054        # two-sided 95% normal quantile
DETECTOR_KINDS = ("ced", "edscp", "edscd")
_EDSCD_CHUNK = 128      # EDSCD data-normal sets per block, which changes no
                        # output; its 3 buffers, 2.8 MB, keep 10 000 in 8 MB
_EDSCD_SHARE = 16       # outer draws per set of data normals in calibration


@dataclass(frozen=True)
class DetectorConfig:
    """Detector kind, decision threshold and assumed noise uncertainty."""

    kind: str
    threshold: float = 0.0
    noise_uncertainty_db: float = 0.0

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ConfigurationError(f"unknown detector kind {self.kind!r}")
        if self.threshold < 0 or self.noise_uncertainty_db < 0:
            raise ConfigurationError("threshold and uncertainty must be >= 0")
        _power("noise_uncertainty_db", self.noise_uncertainty_db)


def _power(name: str, db: float) -> float:
    """Linear power of ``db`` dB, which must be finite and above 0."""
    try:
        power = 10.0 ** (db / 10)
    except OverflowError:
        power = math.inf
    if not 0 < power < math.inf:
        raise ConfigurationError(f"{name} of {db!r} dB has no finite power "
                                 f"above 0")
    return power


def _draw_channels(rng: np.random.Generator, n: int, fade_db: float) -> np.ndarray:
    if n < 1 or fade_db < 0:
        raise ConfigurationError("need n_mc >= 1 frames and fade_db >= 0")
    _power("fade_db", fade_db)
    amp = 10 ** (rng.uniform(-fade_db, fade_db, n) / 20)
    return amp * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def _count_below(ws: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Entries of each sorted (frame, component) row of ``ws`` below ``x``,
    (rows, frames, 2), by one bisection over all rows. An index past a
    row's end reads its last entry, so k passes n only if all of it is."""
    n = ws.shape[2]
    first = np.arange(0, ws.size, n).reshape(ws.shape[:2])
    k = np.zeros(x.shape, dtype=np.intp)
    for step in reversed([1 << b for b in range(n.bit_length())]):
        k += (ws.take(np.minimum(first + k + (step - 1), first + n - 1))
              < x) * step
    return np.minimum(k, n)


def _sums_sorted(w: np.ndarray, mu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, frames) sums of (w + mu)^2 and |w + mu|, w (frames, 2, n) sorted
    in place, mu (rows, frames, 2): with tot = sum w, cs the sorted prefix
    sums and k = #(w < -mu), sum w^2 + 2 mu tot + n mu^2 and tot + n mu
    - 2 (cs[k] + k mu)."""
    n = w.shape[2]
    tot, sq = w.sum(axis=2), np.einsum("ijk,ijk->ij", w, w)
    w.sort(axis=2)
    cs = np.zeros(w.shape[:2] + (n + 1,))
    np.cumsum(w, axis=2, out=cs[:, :, 1:])
    k = _count_below(w, -mu)
    cs_k = cs.take(k + np.arange(0, cs.size, n + 1).reshape(w.shape[:2]))
    return ((sq + 2 * mu * tot + n * mu ** 2).sum(axis=2),
            (tot + n * mu - 2 * (cs_k + k * mu)).sum(axis=2))


def _sample_stats(kind: str, h: np.ndarray, snr_db: float, v0: np.ndarray,
                  extra: Sequence[float], rng: np.random.Generator,
                  n_data: int, n_pilot: int) -> np.ndarray:
    """Draw the (len(extra), K, M) statistics of whole frames from their laws.

    Frame (k, m) has channel h[k, m], and row p holds the frames at noise
    (plus interference) variance v = v0[k, m] + extra[p]; every row uses the
    same draws. CED is v/(2N) * ncx2(2N, 2N|h|^2 a^2 / v) (Urkowitz 1967),
    drawn as chi2(2N - 1) + (z + sqrt(2N|h|^2 a^2 / v))^2 with z standard
    normal, and the pilot residual is (v/2) * chi2(2(Np - 1)), independent
    of h and of the channel-estimate error e ~ CN(0, v / (a^2 Np)). EDSCD
    has no closed form, so its data samples are simulated: the QPSK decision
    regions and the noise are invariant under 90-degree rotations and the
    residual under a common phase, so every data symbol is (1+j)/sqrt(2)
    and the channel is |h|. The circular noise is also invariant under the
    rotation by -arg(h_hat), which turns each data sample into y with
    i.i.d. real parts around the rotated data mean; the decision variable
    is then |h_hat| y. The outer draws (the errors e and the pilot chi2) are
    drawn for all frames first, then one set of data normals per column m,
    in blocks of ``_EDSCD_CHUNK`` columns from the same stream, so the
    output does not depend on the block size. The K frames of a column
    share its data normals: each has a frame's law, as the data normals are
    independent of the outer draws, but they are not independent.
    """
    n, m = n_data + n_pilot, h.shape[1]
    a2 = _power("snr_db", snr_db)
    extra = np.asarray(extra, dtype=float)[:, None, None]
    if kind == "ced":
        c, z = rng.chisquare(2 * n - 1, h.shape), rng.standard_normal(h.shape)
        v = v0 + extra
        return v / (2 * n) * (c + (z + np.sqrt(2 * n * np.abs(h) ** 2 * a2
                                                / v)) ** 2)
    chi = rng.chisquare(2 * (n_pilot - 1), h.shape)
    if kind == "edscp":
        return (v0 + extra) / 2 * chi / n_pilot
    g = np.abs(h)
    e = rng.standard_normal(h.shape + (2,)).view(complex)[..., 0]
    out = np.empty((len(extra), *h.shape))
    # (re, im) along axis 1, so that each row sorted and summed is contiguous
    bufs = np.empty((2, min(_EDSCD_CHUNK, m), 2, n_data))
    blocks = [bufs[j % 2, :m - lo] for j, lo in
              enumerate(range(0, m, _EDSCD_CHUNK))]
    # Imported here, as it takes ~10 ms. The helper draws block j + 1, in
    # order and as rng's only user, while block j is reduced: a serial stream.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(rng.standard_normal, out=blocks[0])
        try:
            for j, w in enumerate(blocks):
                ahead.result()
                if j + 1 < len(blocks):
                    ahead = pool.submit(rng.standard_normal, out=blocks[j + 1])
                lo, hi = j * _EDSCD_CHUNK, j * _EDSCD_CHUNK + len(w)
                v = v0[:, lo:hi] + extra
                sd = np.sqrt(v / 2)
                h_hat = (g[:, lo:hi]
                         + np.sqrt(v / (2 * a2 * n_pilot)) * e[:, lo:hi])
                h_abs = np.abs(h_hat)
                # data mean rotated by -arg(h_hat), in units of sd: (re, im),
                # reduced as one row of means per row and outer draw
                mu = (g[:, lo:hi] * np.sqrt(a2 / 2) * (1 + 1j)
                      * np.conj(h_hat) / (h_abs * sd)).view(float)
                sq, ab = (s.reshape(v.shape) for s in
                          _sums_sorted(w, mu.reshape(-1, len(w), 2)))
                # With y = sd w the rotated data samples, z = xd conj(h_hat) =
                # |h_hat| y and s_d = (sign Re z + j sign Im z)/sqrt(2) the
                # decisions, sum |xd - h_hat a s_d|^2 expands to sum |y|^2
                # - sqrt(2) a |h_hat| sum(|Re y| + |Im y|) + N_d a^2 |h_hat|^2.
                data_res = (sd ** 2 * sq - np.sqrt(2 * a2) * h_abs * sd * ab
                            + n_data * a2 * h_abs ** 2)
                out[:, :, lo:hi] = (v / 2 * chi[:, lo:hi] + data_res) / n
        finally:
            ahead.exception()       # wait for the draw in flight
    return out


def calibrate_threshold(detector: DetectorConfig, pfa_target: float,
                        n_mc: int, snr_db: float = 6.0,
                        seed: int = 0, fade_db: float = 4.0) -> float:
    """Empirical threshold at the worst-case noise level, +eps dB.

    Returns the (1 - pfa_target) quantile of the H0 statistic with the
    noise variance pinned at the upper edge of the detector's
    ``noise_uncertainty_db`` (eps), which keeps the realised false-alarm
    rate at or below the target for any noise level inside the
    uncertainty interval. CED and EDSCP draw ``n_mc`` frames. EDSCD uses a
    crossed design (Owen 2013, ch. 8-9): it pairs each of M = ceil(n_mc / 4)
    sets of data normals with K = 16 draws of |h|, the channel-estimate
    error and the pilot chi2, which carry most of the variance. Each pair
    has a frame's law, so 4 n_mc statistics from a quarter of the data
    normals give a threshold as precise as n_mc frames.
    """
    if not 0.0 < pfa_target < 1.0:
        raise ConfigurationError("pfa_target must lie in (0,1)")
    rng = np.random.default_rng(seed)
    shape = ((_EDSCD_SHARE, (n_mc + 3) // 4) if detector.kind == "edscd"
             else (1, n_mc))
    h = _draw_channels(rng, shape[0] * shape[1], fade_db).reshape(shape)
    v0 = np.full(shape, 10 ** (detector.noise_uncertainty_db / 10))
    t = _sample_stats(detector.kind, h, snr_db, v0, [0.0], rng, N_DATA,
                      N_PILOT)
    return _quantile(t.ravel(), 1.0 - pfa_target)


def _quantile(x: np.ndarray, q: float) -> float:
    """``np.quantile(x, q)``, numpy's linear interpolation at (n - 1) q, by
    partition: np.quantile's first call imports numpy.ma."""
    pos, last = (len(x) - 1) * q, len(x) - 1
    i, j = min(math.floor(pos), last), min(math.floor(pos) + 1, last)
    a, b = np.partition(x, (i, j))[[i, j]]
    d, t = b - a, pos - i
    return float(a + d * t if t < 0.5 else b - d * (1 - t))


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion; its lower end
    with no successes is exactly 0, its upper end with no failures 1."""
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    z = Z_95
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return (0.0 if successes == 0 else max(0.0, center - half),
            1.0 if successes == trials else min(1.0, center + half))


def pd_curve(detector: DetectorConfig, isnr_grid_db: Sequence[float],
             snr_db: float = 6.0, n_mc: int = 5000,
             seed: int = 0, fade_db: float = 4.0) -> list:
    """Monte Carlo detection probability per ISNR point with Wilson CIs.

    Each frame's noise level is drawn within the detector's
    ``noise_uncertainty_db``. One set of frames, drawn from the first
    child of ``seed``, serves every grid point, so a row depends only on
    its ISNR, ``n_mc``, ``seed`` and the detector.
    """
    if len(isnr_grid_db) == 0:
        raise ConfigurationError("isnr_grid_db must hold at least one ISNR")
    grid = [float(v) for v in isnr_grid_db]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    h = _draw_channels(rng, n_mc, fade_db)[None]
    eps_db = detector.noise_uncertainty_db
    v0 = 10 ** (rng.uniform(-eps_db, eps_db, (1, n_mc)) / 10)
    a2 = _power("snr_db", snr_db)
    extra = [_power("isnr_db", v) * (a2 + 1.0) for v in grid]
    t = _sample_stats(detector.kind, h, snr_db, v0, extra, rng, N_DATA,
                      N_PILOT)[:, 0]
    rows = []
    for isnr_db, hits in zip(grid, np.count_nonzero(t > detector.threshold,
                                                    axis=1).tolist()):
        lo, hi = wilson_interval(hits, n_mc)
        rows.append({"detector": detector.kind, "eps_db": eps_db,
                     "isnr_db": isnr_db, "pd": hits / n_mc,
                     "pd_lo": lo, "pd_hi": hi, "n_mc": n_mc})
    return rows


def wall_crossing(rows: Sequence[dict], level: float = 0.9) -> float:
    """ISNR (dB) where a Pd curve first crosses `level`, by interpolation.

    Returns NaN when the curve never reaches the level.
    """
    grid = np.array([r["isnr_db"] for r in rows])
    pd = np.array([r["pd"] for r in rows])
    order = np.argsort(grid)
    grid, pd = grid[order], pd[order]
    above = np.nonzero(pd >= level)[0]
    if len(above) == 0:
        return float("nan")
    i = above[0]
    if i == 0:
        return float(grid[0])
    x0, x1, y0, y1 = grid[i - 1], grid[i], pd[i - 1], pd[i]
    return float(x0 + (level - y0) / (y1 - y0) * (x1 - x0))
