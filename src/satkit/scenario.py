"""Multibeam system geometry, link budget and channel synthesis.

The satellite serves K spot beams, one feed each. Channel rows are
noise-normalised, i.e. the thermal-noise term sqrt(K_B*T_R*B_W) is folded
into the channel entries so the receiver noise has unit variance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev

SPEED_OF_LIGHT = 299_792_458.0
BOLTZMANN = 1.380649e-23

# link budget of the multibeam system: one feed per beam
SAT_ALTITUDE_KM = 35786.0
CARRIER_FREQ_HZ = 20e9
BANDWIDTH_HZ = 500e6
RX_GAIN = 10 ** (41.7 / 20)             # amplitude gain G_R
NOISE_TEMP_K = 207.0
BEAM_RADIUS_KM = 150.0                  # 3 dB footprint radius
BORESIGHT_GAIN = 10 ** (52.0 / 20)      # amplitude
SIDELOBE_FLOOR_DB = -40.0               # amplitude floor relative to boresight
WAVELENGTH_M = SPEED_OF_LIGHT / CARRIER_FREQ_HZ
THETA_3DB_RAD = BEAM_RADIUS_KM / SAT_ALTITUDE_KM    # half-power half-beamwidth

# u value of the tapered-aperture pattern at the -3 dB point
_U_3DB = 2.071231178421858


class ConfigurationError(ValueError):
    """Inconsistent scenario / user-set dimensions or parameters."""


@dataclass(frozen=True)
class Scenario:
    """K beams on a hexagonal grid, neighbours two 3 dB radii apart, each
    served by the feed at its centre, and N_u users per frame.

    Distances are in km; the link budget is the module constants.
    """

    hex_coords: np.ndarray              # (K, 2) axial ints
    N_u: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.N_u < 1:
            raise ConfigurationError("K and N_u must be positive")

    @property
    def K(self) -> int:
        return len(self.hex_coords)

    @property
    def beam_centers(self) -> np.ndarray:
        """(K, 2) planar km of the axial coordinates."""
        spacing = 2.0 * BEAM_RADIUS_KM
        q, r = self.hex_coords[:, 0], self.hex_coords[:, 1]
        return np.stack([spacing * (q + 0.5 * r),
                         spacing * (np.sqrt(3) / 2) * r], axis=1)

    @property
    def feed_centers(self) -> np.ndarray:
        """(K, 2) km: feed k points at beam k's centre."""
        return self.beam_centers


@dataclass(frozen=True)
class UserSet:
    """User terminal positions, ``positions[k, i]`` is user i of beam k (km)."""

    positions: np.ndarray               # (K, N_u, 2)


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel matrices, ``H[i]`` is K x K for frame-user slot i."""

    H: np.ndarray                        # (N_u, K, K) complex


def hex_layout(n_beams: int) -> np.ndarray:
    """(n_beams, 2) axial coordinates of a hexagonal beam spiral."""
    if n_beams < 1:
        raise ConfigurationError("need at least one beam")
    coords = np.empty((n_beams, 2), int)    # an impossible size fails here
    coords[0] = 0
    # ring R walks six sides of R steps each, side j from R*corners[j]
    dirs = np.array([(-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)])
    corners = np.cumsum([(1, 0), *dirs[:-1]], axis=0)
    done, ring = 1, 1
    while done < n_beams:
        steps = np.arange(ring)[:, None]
        walk = (ring * corners[:, None] + steps * dirs[:, None]).reshape(-1, 2)
        take = min(walk.shape[0], n_beams - done)
        coords[done:done + take] = walk[:take]
        done, ring = done + take, ring + 1
    return coords


def default_scenario(n_beams: int = 71, n_u: int = 2,
                     seed: int = 0) -> Scenario:
    """Hexagonal multibeam scenario of ``n_beams`` beams in a spiral."""
    return Scenario(hex_layout(n_beams), N_u=n_u, rng_seed=seed)


def reuse_colors(scenario: Scenario, reuse_factor: int) -> np.ndarray:
    """Colour index per beam for a frequency-reuse pattern of 1..4 colours."""
    if reuse_factor not in (1, 2, 3, 4):
        raise ConfigurationError(
            f"reuse factor must be in {{1,2,3,4}}, not {reuse_factor!r}")
    if reuse_factor == 1:
        return np.zeros(scenario.K, int)
    q, r = scenario.hex_coords[:, 0], scenario.hex_coords[:, 1]
    if reuse_factor == 2:
        return (q % 2).astype(int)
    if reuse_factor == 3:
        return ((q - r) % 3).astype(int)
    return ((q % 2) + 2 * (r % 2)).astype(int)


def _floor_cutoff(floor: float) -> float:
    """u at and beyond which |_taper(u)| <= ``floor``, for a floor > 0.

    Landau's bound |J_nu(x)| <= 0.7858 x^(-1/3) for all nu >= 0, x > 0
    (L. J. Landau, J. London Math. Soc. 2000) gives |_taper(u)| <=
    0.7858 u^(-1/3) (1/(2u) + 36/u^3), which falls monotonically to 0;
    the cut-off is where it crosses the floor, found by bisection.
    """
    def bound(u):
        return 0.7858 * u ** (-1 / 3) * (0.5 / u + 36.0 / u ** 3)

    lo, hi = 0.0, 1.0
    while bound(hi) > floor:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-9 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if bound(mid) > floor else (lo, mid)
    return hi


_FLOOR_U = _floor_cutoff(10 ** (SIDELOBE_FLOOR_DB / 20))

# The taper J1(u)/2u + 36 J3(u)/u^3 is, by Poisson's integral (DLMF
# 10.9.4), (1/pi) int_{-pi/2}^{pi/2} [cos^2 t / 2 + 2.4 cos^6 t] cos(u sin t) dt,
# an entire function of w = u^2; one Chebyshev series in w on
# [0, _FLOOR_U^2] reaches rounding at degree 23 (Trefethen, Approximation
# Theory and Approximation Practice, ch. 8). Its node values are the
# midpoint rule on that integral, whose integrand has period pi, so 64
# points converge exponentially (Trefethen & Weideman, SIAM Review 2014).
_TAPER_DEG = 23


def _taper_series() -> np.ndarray:
    """Chebyshev coefficients of the taper in w = u^2 on [0, _FLOOR_U^2]."""
    n = _TAPER_DEG + 1
    # cos(k * theta_j) with the angle reduced exactly in integers
    k, j = np.arange(n)[:, None], np.arange(n)[None, :]
    cos_k_theta = np.cos(np.pi * (k * (2 * j + 1) % (4 * n)) / (2 * n))
    nodes = _FLOOR_U * np.sqrt((1 + cos_k_theta[1]) / 2)
    t = np.pi * (np.arange(64) + 0.5) / 64 - np.pi / 2
    weight = np.cos(t) ** 2 / 2 + 2.4 * np.cos(t) ** 6
    values = (weight * np.cos(np.outer(nodes, np.sin(t)))).mean(axis=1)
    coef = 2 / n * cos_k_theta @ values
    coef[0] /= 2
    if np.abs(coef[-2:]).max() >= 1e-15:
        raise ConfigurationError(
            f"the taper's series on [0, {_FLOOR_U:.4g}] needs a degree above "
            f"{_TAPER_DEG}")
    return coef


_TAPER_CHEB = _taper_series()


def _taper(u: np.ndarray) -> np.ndarray:
    """Tapered-aperture amplitude J1(u)/2u + 36 J3(u)/u^3 for |u| <= _FLOOR_U."""
    return chebyshev.chebval(u * u * (2 / _FLOOR_U ** 2) - 1, _TAPER_CHEB)


def _gain_amplitudes(scenario: Scenario, positions: np.ndarray) -> np.ndarray:
    """Amplitudes (n_pos, K) of every feed towards every position.

    The amplitude follows a Bessel tapered-aperture curve of the off-axis
    angle, clamped at ``SIDELOBE_FLOOR_DB``. The taper is evaluated only
    inside the squared distance at which u reaches ``_FLOOR_U``, where
    Landau's bound drops under the floor.
    """
    feeds = scenario.feed_centers
    d2 = positions[:, 0, None] - feeds[:, 0]
    d2 *= d2
    dy2 = positions[:, 1, None] - feeds[:, 1]
    dy2 *= dy2
    d2 += dy2
    near = np.flatnonzero(d2 < (_FLOOR_U * THETA_3DB_RAD / _U_3DB
                                * SAT_ALTITUDE_KM) ** 2)
    u = _U_3DB * (np.sqrt(d2.flat[near]) / SAT_ALTITUDE_KM) / THETA_3DB_RAD
    floor = 10 ** (SIDELOBE_FLOOR_DB / 20)
    amp = dy2                           # the squares are not needed again
    amp.fill(floor)
    amp.flat[near] = np.maximum(np.abs(_taper(u)), floor)
    amp *= BORESIGHT_GAIN
    return amp


def draw_users(scenario: Scenario, rng: np.random.Generator) -> UserSet:
    """N_u users per beam, uniform over each beam's 3 dB footprint disc."""
    k, nu = scenario.K, scenario.N_u
    rr = BEAM_RADIUS_KM * np.sqrt(rng.uniform(size=(k, nu)))
    ph = rng.uniform(0, 2 * np.pi, (k, nu))
    offs = np.stack([rr * np.cos(ph), rr * np.sin(ph)], axis=2)
    return UserSet(positions=scenario.beam_centers[:, None, :] + offs)


def build_channel(scenario: Scenario, user_set: UserSet,
                  rng: Optional[np.random.Generator] = None) -> ChannelSet:
    """Synthesise the noise-normalised channel matrices.

    Entry (k, n) of user slot i is
    G_R * a * exp(j*psi) / (4*pi*(d/lambda)*sqrt(K_B*T_R*B_W)),
    with a frozen uniform phase psi per (feed, user). cos(psi) and sin(psi)
    are written into the entries' real and imaginary parts, which are then
    scaled in place by a, G_R and the denominator's reciprocal.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed)
    if user_set.positions.shape[:2] != (scenario.K, scenario.N_u):
        raise ConfigurationError("user_set dimensions do not match scenario")
    K, Nu = scenario.K, scenario.N_u
    pos = user_set.positions.reshape(K * Nu, 2)
    slant = np.hypot(np.linalg.norm(pos, axis=1), SAT_ALTITUDE_KM) * 1e3  # m
    amps = _gain_amplitudes(scenario, pos)                    # (K*Nu, K)
    psi = rng.uniform(0, 2 * np.pi, (K * Nu, K))
    denom = 4 * np.pi * (slant / WAVELENGTH_M) * np.sqrt(
        BOLTZMANN * NOISE_TEMP_K * BANDWIDTH_HZ)
    rows = np.empty((K * Nu, K), complex)
    np.cos(psi, out=rows.real)
    np.sin(psi, out=rows.imag)
    # complex arithmetic would round the same: a real factor scales both
    # parts, and division by a real multiplies by its reciprocal
    parts = rows.view(float).reshape(K * Nu, K, 2)
    parts *= amps[:, :, None]
    parts *= RX_GAIN
    parts *= (1 / denom)[:, None, None]
    h = rows.reshape(K, Nu, K).transpose(1, 0, 2)             # row k*Nu+i -> [i, k]
    if not np.isfinite(h).all():
        raise ConfigurationError("non-finite channel entries")
    return ChannelSet(H=h)


def average_cir(scenario: Scenario, reuse_factor: int, n_mc: int = 200,
                rng: Optional[np.random.Generator] = None) -> float:
    """Average carrier-to-interference ratio in dB under nominal feeding.

    Each beam transmits on its own feed; interference is summed over the
    co-channel beams of the ``reuse_factor`` pattern (``reuse_colors``).
    Returns +inf when the pattern leaves no co-channel interferer.
    """
    if n_mc < 1:
        raise ConfigurationError("n_mc must be >= 1")
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed)
    colors = reuse_colors(scenario, reuse_factor)
    # scalar draws, in this order per sample, fix the RNG stream; the
    # arrays come first, so that an impossible n_mc fails at once
    k, u, ph = np.empty(n_mc, int), np.empty(n_mc), np.empty(n_mc)
    for i in range(n_mc):
        k[i], u[i], ph[i] = (rng.integers(scenario.K), rng.uniform(),
                             rng.uniform(0, 2 * np.pi))
    r = BEAM_RADIUS_KM * np.sqrt(u)
    pos = scenario.beam_centers[k] + np.stack([r * np.cos(ph),
                                               r * np.sin(ph)], axis=1)
    g = _gain_amplitudes(scenario, pos) ** 2                  # (n_mc, K)
    own = np.arange(n_mc)
    co = colors[None, :] == colors[k][:, None]
    co[own, k] = False
    hit = co.any(axis=1)
    if not hit.any():
        return np.inf
    ratios = g[own, k][hit] / np.where(co, g, 0.0).sum(axis=1)[hit]
    return float(10 * np.log10(np.mean(ratios)))
