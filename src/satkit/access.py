"""Two-user interference-channel strategies and rate-region enumeration.

Rates are bits/s/Hz. The channel is described by power gains g_ij =
|gain of transmitter i at receiver j|^2 and per-user powers, normalised
to unit noise at each receiver (as the scenario module's channels are).
A set of rate points is a ``RateRegion`` of arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

import numpy as np

from .scenario import ConfigurationError

# rate tolerance (bits/s/Hz) of frontier_dominates
DOMINANCE_TOL = 1e-9


@dataclass(frozen=True)
class TwoUserChannel:
    """Power gains and transmit powers of a two-user IC, unit noise.

    g11: own gain of user 1 at rx1; g21: interference of user 2 at rx1;
    g12: gain of user 1's signal at rx2; g22: own gain at rx2.
    """

    g11: float
    g21: float
    g12: float
    g22: float
    p1: float
    p2: float

    def __post_init__(self):
        if min(self.g11, self.g21, self.g12, self.g22, self.p1, self.p2) < 0:
            raise ConfigurationError("gains and powers must be non-negative")

    def swapped(self) -> "TwoUserChannel":
        """Channel with the user indices exchanged."""
        return TwoUserChannel(g11=self.g22, g21=self.g12, g12=self.g21,
                              g22=self.g11, p1=self.p2, p2=self.p1)


@dataclass(frozen=True)
class RateRegion:
    """Rate points of one strategy: R1, R2 and the parameters of each point.

    ``params`` has one row per point and one column per parameter: none
    for ian and snd, the public user for scd, β for fdm, (λ1, λ2) for hk.
    """

    r1: np.ndarray
    r2: np.ndarray
    params: np.ndarray

    @classmethod
    def join(cls, regions: Sequence["RateRegion"]) -> "RateRegion":
        """The points of every region, in order."""
        return cls(*(np.concatenate([getattr(r, f) for r in regions])
                     for f in ("r1", "r2", "params")))

    @property
    def frontier(self) -> np.ndarray:
        return pareto_frontier(self.r1, self.r2)


def _c(snr):
    """log2(1 + snr), the capacity every strategy's rates are built from."""
    if not np.isfinite(snr).all():
        raise ConfigurationError("an SNR is not finite: a power or gain is "
                                 "beyond the float range")
    return np.log2(1.0 + snr)


def rate_ian(ch: TwoUserChannel) -> RateRegion:
    """Both receivers treat the interfering signal as noise."""
    r1 = _c(ch.p1 * ch.g11 / (1.0 + ch.p2 * ch.g21))
    r2 = _c(ch.p2 * ch.g22 / (1.0 + ch.p1 * ch.g12))
    return RateRegion(np.array([r1]), np.array([r2]), np.empty((1, 0)))


def rate_scd(ch: TwoUserChannel) -> RateRegion:
    """Sequential cancellation: one user fully public, decoded then removed.

    One point per public (cancelled) user, 1 then 2. With user 1 public,
    its message must be decodable at both receivers; receiver 2 then
    enjoys an interference-free own rate.
    """
    def user1_public(c):
        return (min(_c(c.p1 * c.g11 / (1.0 + c.p2 * c.g21)),
                    _c(c.p1 * c.g12 / (1.0 + c.p2 * c.g22))),
                _c(c.p2 * c.g22))

    a1, a2 = user1_public(ch)
    b2, b1 = user1_public(ch.swapped())
    return RateRegion(np.array([a1, b1]), np.array([a2, b2]),
                      np.array([[1.0], [2.0]]))


def rate_snd(ch: TwoUserChannel) -> RateRegion:
    """Simultaneous non-unique decoding rates.

    Receiver i jointly decodes the interfering stream (without caring
    about its errors) under two-user MAC constraints, unless the
    interferer's rate M_j, its rate when interference is treated as
    noise, already exceeds its single-user capacity at receiver i — the
    skip condition — in which case receiver i falls back to treating
    interference as noise.
    """
    ian = rate_ian(ch)
    ian1, ian2 = ian.r1[0], ian.r2[0]

    def rx(own_p, own_g, int_p, int_g, m_int, ian_own):
        if m_int >= _c(int_p * int_g):          # the skip condition
            return ian_own
        own_cap = _c(own_p * own_g)
        sum_cap = _c(own_p * own_g + int_p * int_g)
        return max(ian_own, min(own_cap, sum_cap - m_int))

    r1 = rx(ch.p1, ch.g11, ch.p2, ch.g21, ian2, ian1)
    r2 = rx(ch.p2, ch.g22, ch.p1, ch.g12, ian1, ian2)
    return RateRegion(np.array([max(r1, 0.0)]), np.array([max(r2, 0.0)]),
                      np.empty((1, 0)))


def rate_fdm(ch: TwoUserChannel, beta: Sequence[float]) -> RateRegion:
    """Orthogonal frequency split, one point per fraction β of the band
    given to user 1."""
    beta = np.asarray(beta, dtype=float)
    if not ((0.0 < beta) & (beta < 1.0)).all():
        raise ConfigurationError("beta must lie strictly inside (0,1)")
    r1 = beta * _c(ch.p1 * ch.g11 / beta)
    r2 = (1 - beta) * _c(ch.p2 * ch.g22 / (1 - beta))
    return RateRegion(r1, r2, beta[:, None])


def hk_region(ch: TwoUserChannel,
              lam_grid: Optional[Sequence[float]] = None) -> RateRegion:
    """No-time-sharing rate-splitting corners, one per (λ1, λ2) of a grid.

    λi is the share of user i's power in its private message. Receiver 1
    successively decodes 2's public message, its own public message and
    its private message; receiver 2 decodes 1c, 2c, 2p. Each message sees
    the noise, the interferer's private part and the messages decoded
    after it. A public message's rate is the minimum of its decoding
    capacities at the two receivers. Points run over λ2 within λ1.
    """
    lam = np.linspace(0.0, 1.0, 21) if lam_grid is None else np.asarray(
        lam_grid, dtype=float)
    if not ((0.0 <= lam) & (lam <= 1.0)).all():
        raise ConfigurationError("power splits must lie in [0,1]")
    lam1, lam2 = lam[:, None], lam[None, :]
    # products and sums in the scalar reference's order: bit-identical rates
    # receiver 1: powers of 2c, 1c and 1p, and the noise with 2p in it
    c2, c1 = (1 - lam2) * ch.p2 * ch.g21, (1 - lam1) * ch.p1 * ch.g11
    p1 = lam1 * ch.p1 * ch.g11
    noise = 1.0 + lam2 * ch.p2 * ch.g21
    cap1_p1 = _c(p1 / noise)
    noise = noise + p1
    cap1_c1 = _c(c1 / noise)
    cap1_c2 = _c(c2 / (noise + c1))
    # receiver 2: powers of 1c, 2c and 2p, and the noise with 1p in it
    c1, c2 = (1 - lam1) * ch.p1 * ch.g12, (1 - lam2) * ch.p2 * ch.g22
    p2 = lam2 * ch.p2 * ch.g22
    noise = 1.0 + lam1 * ch.p1 * ch.g12
    cap2_p2 = _c(p2 / noise)
    noise = noise + p2
    cap2_c2 = _c(c2 / noise)
    cap2_c1 = _c(c1 / (noise + c2))
    r1 = np.minimum(cap1_c1, cap2_c1) + cap1_p1
    r2 = np.minimum(cap1_c2, cap2_c2) + cap2_p2
    grid = np.column_stack((np.repeat(lam, len(lam)), np.tile(lam, len(lam))))
    return RateRegion(r1.ravel(), r2.ravel(), grid)


STRATEGIES = ("ian", "scd", "snd", "fdm", "hk")


def region_sweep(template: TwoUserChannel, p_values: Sequence[float],
                 strategies: Sequence[str] = STRATEGIES,
                 lam_grid: Optional[Sequence[float]] = None) -> Dict[str, RateRegion]:
    """Rate region per strategy while sweeping both powers over p_values."""
    unknown = sorted(set(strategies) - set(STRATEGIES))
    if unknown:
        raise ConfigurationError(
            f"unknown strategies {unknown}; choose from {list(STRATEGIES)}")
    fdm_grid = np.linspace(0.05, 0.95, 19)
    rate = {"ian": rate_ian, "scd": rate_scd, "snd": rate_snd,
            "fdm": lambda ch: rate_fdm(ch, fdm_grid),
            "hk": lambda ch: hk_region(ch, lam_grid)}
    parts = {s: [] for s in strategies}
    for p in p_values:
        ch = replace(template, p1=float(p), p2=float(p))
        for s, regions in parts.items():
            regions.append(rate[s](ch))
    return {s: RateRegion.join(regions) for s, regions in parts.items()}


def pareto_frontier(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Mask of the points that no point of other rates dominates.

    Equal points share one verdict; the mask does not depend on the
    points' order.
    """
    order = np.lexsort((-r2, -r1))              # descending R1, then R2
    s1, s2 = r1[order], r2[order]
    n = len(order)
    # the running maximum of R2 before each run of equal points
    new = np.ones(n, dtype=bool)
    new[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
    start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    best = np.concatenate(([-np.inf], np.maximum.accumulate(s2)))
    mask = np.empty(n, dtype=bool)
    mask[order] = s2 > best[start]
    return mask


def frontier_dominates(a: RateRegion, b: RateRegion) -> bool:
    """True when every point of b is dominated by some point of a.

    Rates within ``DOMINANCE_TOL`` of each other count as equal.
    """
    fa, fb = a.frontier, b.frontier
    covered = ((a.r1[fa, None] >= b.r1[fb] - DOMINANCE_TOL)
               & (a.r2[fa, None] >= b.r2[fb] - DOMINANCE_TOL))
    return bool(covered.any(axis=0).all())
