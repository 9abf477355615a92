"""Zipf popularity and the broadcast/unicast delivery-time threshold.

Files ranked 1..I by popularity are delivered either by a single
broadcast (ranks below the threshold, cached by every base station) or
by on-demand unicast to each of the K base stations. The threshold
minimising the total transmission time is found exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ConfigurationError


@dataclass(frozen=True)
class PopularityModel:
    """Zipf rank-popularity pmf f[i] = (1/i)^alpha / sum_j (1/j)^alpha."""

    library_size: int
    alpha: float

    def __post_init__(self):
        if self.library_size < 1:
            raise ConfigurationError("library size must be >= 1")
        if self.alpha < 0:
            raise ConfigurationError("alpha must be >= 0")

    def _weights(self) -> np.ndarray:
        """(1/i)^alpha over the ranks i = 1..I."""
        ranks = np.arange(1, self.library_size + 1, dtype=float)
        return ranks ** -float(self.alpha)

    @property
    def pmf(self) -> np.ndarray:
        """Normalised pmf over the ranks, non-increasing."""
        return self._weights() / self.normalizer

    @property
    def normalizer(self) -> float:
        """The Zipf normalizing constant sum_j (1/j)^alpha."""
        return float(np.sum(self._weights()))


@dataclass(frozen=True)
class DeliveryPlan:
    """Unicast and broadcast delivery times of one threshold."""

    t_uc: float
    t_bc: float

    @property
    def t_tot(self) -> float:
        return self.t_uc + self.t_bc


def _check_link(file_size_bits, n_stations, rate_uc, rate_bc):
    if min(file_size_bits, rate_uc, rate_bc) <= 0 or n_stations < 1:
        raise ConfigurationError("sizes, rates and station count must be positive")


def delivery_times(threshold: int, model: PopularityModel, file_size_bits: float,
                   n_stations: int, rate_uc: float, rate_bc: float) -> DeliveryPlan:
    """Exact delivery times for a given threshold.

    T_tot = s * (K * sum_{i>=threshold} f[i] / R_uc + (threshold-1)/R_bc).
    """
    i_max = model.library_size + 1
    if not 1 <= threshold <= i_max:
        raise ConfigurationError("threshold must lie in 1..I+1")
    _check_link(file_size_bits, n_stations, rate_uc, rate_bc)
    f = model.pmf
    tail = float(f[threshold - 1:].sum())
    t_uc = file_size_bits * n_stations * tail / rate_uc
    t_bc = file_size_bits * (threshold - 1) / rate_bc
    return DeliveryPlan(t_uc=t_uc, t_bc=t_bc)


def total_time_curve(model: PopularityModel, file_size_bits: float,
                     n_stations: int, rate_uc: float, rate_bc: float) -> np.ndarray:
    """T_tot over every threshold 1..I+1 (index 0 = pure unicast)."""
    _check_link(file_size_bits, n_stations, rate_uc, rate_bc)
    f = model.pmf
    tails = np.concatenate([[1.0], 1.0 - np.cumsum(f)])
    tails = np.clip(tails, 0.0, None)
    ranks = np.arange(0, model.library_size + 1)
    return file_size_bits * (n_stations * tails / rate_uc + ranks / rate_bc)


def optimal_threshold(model: PopularityModel, file_size_bits: float,
                      n_stations: int, rate_uc: float, rate_bc: float) -> int:
    """Exhaustive minimiser of T_tot over 1..I+1, lowest rank on ties."""
    curve = total_time_curve(model, file_size_bits, n_stations, rate_uc, rate_bc)
    return int(np.argmin(curve)) + 1


def continuous_threshold(model: PopularityModel, n_stations: int,
                         rate_uc: float, rate_bc: float) -> float:
    """First-order-condition threshold of the continuous relaxation.

    Setting the derivative of T_tot to zero gives f(i) = R_uc/(K*R_bc),
    i.e. i* = (F * R_uc / (K * R_bc))^(-1/alpha) with F the Zipf
    normalizer. Intended as a cross-check for alpha > 1, not a solver.
    """
    if model.alpha <= 0:
        raise ConfigurationError("continuous threshold needs alpha > 0")
    F = model.normalizer
    return float((F * rate_uc / (n_stations * rate_bc)) ** (-1.0 / model.alpha))
