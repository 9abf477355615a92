"""Multibeam system geometry, link budget and channel synthesis.

The satellite serves K spot beams from an N-feed array. Channel rows are
noise-normalised, i.e. the thermal-noise term sqrt(K_B*T_R*B_W) is folded
into the channel entries so the receiver noise has unit variance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import j0, j1, jv

SPEED_OF_LIGHT = 299_792_458.0
BOLTZMANN = 1.380649e-23

# u value of the tapered-aperture pattern at the -3 dB point
_U_3DB = 2.071231178421858


class ConfigurationError(ValueError):
    """Inconsistent scenario / user-set dimensions or parameters."""


@dataclass(frozen=True)
class Scenario:
    """System geometry and link-budget constants.

    Distances are in km, frequencies in Hz. ``rx_gain`` is the *amplitude*
    gain G_R (its square is the antenna power gain).
    """

    K: int
    N: int
    N_u: int
    beam_centers: np.ndarray            # (K, 2) planar km
    sat_altitude_km: float = 35786.0
    carrier_freq_hz: float = 20e9
    bandwidth_hz: float = 500e6
    rx_gain: float = 10 ** (41.7 / 20)
    noise_temp_k: float = 207.0
    rng_seed: int = 0
    beam_radius_km: float = 150.0
    boresight_gain: float = 10 ** (52.0 / 20)
    sidelobe_floor_db: float = -40.0    # amplitude floor relative to boresight
    boltzmann: float = BOLTZMANN
    feed_centers: Optional[np.ndarray] = None     # (N, 2) km, defaults to beams
    hex_coords: Optional[np.ndarray] = None       # (K, 2) axial ints, if on a grid

    def __post_init__(self):
        if self.K < 1 or self.N < 1 or self.N_u < 1:
            raise ConfigurationError("K, N and N_u must be positive")
        for name in ("sat_altitude_km", "carrier_freq_hz", "bandwidth_hz",
                     "rx_gain", "noise_temp_k", "beam_radius_km",
                     "boresight_gain", "boltzmann"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be strictly positive")
        bc = np.asarray(self.beam_centers, float)
        if bc.shape != (self.K, 2):
            raise ConfigurationError("beam_centers must have shape (K, 2)")
        object.__setattr__(self, "beam_centers", bc)
        if self.feed_centers is None:
            if self.N == self.K:
                object.__setattr__(self, "feed_centers", bc.copy())
            else:
                raise ConfigurationError("feed_centers required when N != K")
        else:
            fc = np.asarray(self.feed_centers, float)
            if fc.shape != (self.N, 2):
                raise ConfigurationError("feed_centers must have shape (N, 2)")
            object.__setattr__(self, "feed_centers", fc)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def theta_3db_rad(self) -> float:
        """Half-power half-beamwidth seen from the satellite (small angle)."""
        return self.beam_radius_km / self.sat_altitude_km


@dataclass(frozen=True)
class UserSet:
    """User terminal positions, ``positions[k, i]`` is user i of beam k (km)."""

    positions: np.ndarray               # (K, N_u, 2)

    @property
    def n_beams(self) -> int:
        return self.positions.shape[0]

    @property
    def users_per_beam(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class FadingModel:
    """Log-normal amplitude / uniform phase fading, constant across feeds."""

    sigma_db: float = 0.0

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        mu = 10 ** (rng.normal(0.0, self.sigma_db, shape) / 20)
        theta = rng.uniform(0.0, 2 * np.pi, shape)
        return mu * np.exp(1j * theta)


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel matrices, ``H[i]`` is K x N for frame-user slot i."""

    H: np.ndarray                        # (N_u, K, N) complex
    Hbar: np.ndarray                     # (N_u, K, N) complex, line of sight
    fading: np.ndarray                   # (N_u, K) complex row factors


def hex_layout(n_beams: int, spacing_km: float):
    """Axial coordinates and planar centers of a hexagonal beam spiral."""
    if n_beams < 1:
        raise ConfigurationError("need at least one beam")
    coords = [(0, 0)]
    ring = 1
    dirs = [(-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)]
    while len(coords) < n_beams:
        q, r = ring, 0
        for dq, dr in dirs:
            for _ in range(ring):
                coords.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    coords = np.array(coords[:n_beams], int)
    x = spacing_km * (coords[:, 0] + 0.5 * coords[:, 1])
    y = spacing_km * (np.sqrt(3) / 2) * coords[:, 1]
    return coords, np.stack([x, y], axis=1)


def default_scenario(n_beams: int = 71, n_u: int = 2, seed: int = 0,
                     **overrides) -> Scenario:
    """Hexagonal multibeam scenario with beam spacing of two 3 dB radii."""
    radius = overrides.pop("beam_radius_km", 150.0)
    coords, centers = hex_layout(n_beams, 2.0 * radius)
    return Scenario(K=n_beams, N=n_beams, N_u=n_u, beam_centers=centers,
                    rng_seed=seed, beam_radius_km=radius,
                    hex_coords=coords, **overrides)


def reuse_colors(scenario: Scenario, reuse_factor: int) -> np.ndarray:
    """Colour index per beam for a frequency-reuse pattern of 1..4 colours."""
    if reuse_factor not in (1, 2, 3, 4):
        raise ConfigurationError(
            f"reuse factor must be in {{1,2,3,4}}, not {reuse_factor!r}")
    if reuse_factor == 1:
        return np.zeros(scenario.K, int)
    if scenario.hex_coords is None:
        raise ConfigurationError("reuse colouring needs a hexagonal layout")
    q, r = scenario.hex_coords[:, 0], scenario.hex_coords[:, 1]
    if reuse_factor == 2:
        return (q % 2).astype(int)
    if reuse_factor == 3:
        return ((q - r) % 3).astype(int)
    return ((q % 2) + 2 * (r % 2)).astype(int)


def _taper(u: np.ndarray) -> np.ndarray:
    """Normalised tapered-aperture amplitude, 1 at boresight."""
    u = np.asarray(u, float)
    small = np.abs(u) < 1e-9
    us = np.where(small, 1.0, u)
    j_1 = j1(us)
    # J3 from the upward recurrence, which is accurate for |u| >= 2;
    # below that it cancels, so those entries take jv
    j_3 = np.asarray((8.0 / us ** 2 - 1.0) * j_1 - 4.0 / us * j0(us))
    near = np.abs(us) < 2.0
    j_3[near] = jv(3, us[near])
    b = j_1 / (2 * us) + 36.0 * j_3 / us ** 3
    return np.where(small, 1.0, b)


def _gain_amplitudes(scenario: Scenario, positions: np.ndarray) -> np.ndarray:
    """Amplitudes (n_pos, N) of every feed towards every position.

    The amplitude follows a Bessel tapered-aperture curve of the off-axis
    angle, clamped at the configured sidelobe floor.
    """
    d = positions[:, None, :] - scenario.feed_centers[None, :, :]
    off_axis = np.linalg.norm(d, axis=2) / scenario.sat_altitude_km
    u = _U_3DB * off_axis / scenario.theta_3db_rad
    floor = 10 ** (scenario.sidelobe_floor_db / 20)
    return scenario.boresight_gain * np.maximum(np.abs(_taper(u)), floor)


def draw_users(scenario: Scenario, rng: np.random.Generator) -> UserSet:
    """N_u users per beam, uniform over each beam's 3 dB footprint disc."""
    k, nu = scenario.K, scenario.N_u
    rr = scenario.beam_radius_km * np.sqrt(rng.uniform(size=(k, nu)))
    ph = rng.uniform(0, 2 * np.pi, (k, nu))
    offs = np.stack([rr * np.cos(ph), rr * np.sin(ph)], axis=2)
    return UserSet(positions=scenario.beam_centers[:, None, :] + offs)


def build_channel(scenario: Scenario, user_set: UserSet,
                  fading: FadingModel = FadingModel(),
                  rng: Optional[np.random.Generator] = None) -> ChannelSet:
    """Synthesise the noise-normalised channel matrices.

    Entry (k, n) of user slot i is
    G_R * a * exp(j*psi) / (4*pi*(d/lambda)*sqrt(K_B*T_R*B_W)),
    with a frozen uniform phase psi per (feed, user) and a rank-one fading
    factor applied to each beam row.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed)
    if user_set.n_beams != scenario.K or user_set.users_per_beam != scenario.N_u:
        raise ConfigurationError("user_set dimensions do not match scenario")
    K, N, Nu = scenario.K, scenario.N, scenario.N_u
    pos = user_set.positions.reshape(K * Nu, 2)
    slant = np.hypot(np.linalg.norm(pos, axis=1),
                     scenario.sat_altitude_km) * 1e3          # m
    amps = _gain_amplitudes(scenario, pos)                    # (K*Nu, N)
    psi = rng.uniform(0, 2 * np.pi, (K * Nu, N))
    gains = amps * np.exp(1j * psi)
    denom = 4 * np.pi * (slant / scenario.wavelength_m) * np.sqrt(
        scenario.boltzmann * scenario.noise_temp_k * scenario.bandwidth_hz)
    rows = scenario.rx_gain * gains / denom[:, None]          # (K*Nu, N)
    hbar = rows.reshape(K, Nu, N).transpose(1, 0, 2)          # row k*Nu+i -> [i, k]
    fad = fading.draw(rng, (Nu, K))
    h = fad[:, :, None] * hbar
    if not np.isfinite(h).all():
        raise ConfigurationError("non-finite channel entries")
    return ChannelSet(H=h, Hbar=hbar, fading=fad)


def average_cir(scenario: Scenario, reuse_pattern, n_mc: int = 200,
                rng: Optional[np.random.Generator] = None) -> float:
    """Average carrier-to-interference ratio in dB under nominal feeding.

    ``reuse_pattern`` is either a reuse factor in {1..4} or an explicit
    per-beam colour array. Each beam transmits on its own feed;
    interference is summed over co-channel beams of the pattern. Returns
    +inf when the pattern leaves no co-channel interferer.
    """
    if scenario.N != scenario.K:
        raise ConfigurationError("nominal single-feed CIR needs N == K")
    if n_mc < 1:
        raise ConfigurationError("n_mc must be >= 1")
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed)
    if np.isscalar(reuse_pattern):
        colors = reuse_colors(scenario, reuse_pattern)
    else:
        colors = np.asarray(reuse_pattern, int)
        if colors.shape != (scenario.K,):
            raise ConfigurationError("reuse pattern must have one colour per beam")
    if all((colors == colors[k]).sum() == 1 for k in range(scenario.K)):
        return np.inf
    # scalar draws, in this order per sample, fix the RNG stream
    draws = [(rng.integers(scenario.K), rng.uniform(), rng.uniform(0, 2 * np.pi))
             for _ in range(n_mc)]
    k, u, ph = map(np.array, zip(*draws))
    r = scenario.beam_radius_km * np.sqrt(u)
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
