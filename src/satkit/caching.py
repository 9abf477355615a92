"""Zipf popularity and the broadcast/unicast delivery-time threshold.

Files ranked 1..I by popularity are delivered either by a single
broadcast (ranks below the threshold, cached by every base station) or
by on-demand unicast to each of the K base stations. The threshold
minimising the total transmission time is found exhaustively, ties
going to the lowest threshold.
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
        w = self._weights()
        return w / float(np.sum(w))

    @property
    def normalizer(self) -> float:
        """The Zipf normalizing constant sum_j (1/j)^alpha."""
        return float(np.sum(self._weights()))


TIE_RTOL = 1e-12   # totals this close to the least one, relative, are ties


@dataclass(frozen=True)
class DeliveryPlan:
    """Unicast and broadcast delivery times at every threshold 1..I+1.

    Entry t - 1 holds threshold t; entry 0 is pure unicast and entry I
    pure broadcast.
    """

    t_uc: np.ndarray
    t_bc: np.ndarray

    @property
    def t_tot(self) -> np.ndarray:
        return self.t_uc + self.t_bc

    @property
    def i_hat(self) -> int:
        """The lowest threshold whose total is within ``TIE_RTOL`` of the
        least total, so that a round-off difference breaks no tie."""
        t = self.t_tot
        best = t.min()
        return int(np.argmax(t - best <= TIE_RTOL * best)) + 1


def delivery_plan(model: PopularityModel, file_size_bits: float,
                  n_stations: int, rate_uc: float, rate_bc: float) -> DeliveryPlan:
    """Delivery times of every threshold t = 1..I+1.

    T_tot(t) = s * (K * sum_{i>=t} f[i] / R_uc + (t-1)/R_bc). The tails are
    one reverse cumulative sum of the pmf, smallest terms first, with an
    exact 0 for t = I+1.
    """
    if min(file_size_bits, rate_uc, rate_bc) <= 0 or n_stations < 1:
        raise ConfigurationError("sizes, rates and station count must be positive")
    tails = np.append(np.cumsum(model.pmf[::-1])[::-1], 0.0)
    return DeliveryPlan(
        t_uc=file_size_bits * n_stations * tails / rate_uc,
        t_bc=file_size_bits * np.arange(model.library_size + 1) / rate_bc)


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
