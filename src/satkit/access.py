"""Two-user interference-channel strategies and rate-region enumeration.

Rates are bits/s/Hz. The channel is described by power gains g_ij =
|gain of transmitter i at receiver j|^2 and per-user powers, normalised
to unit noise at each receiver (as the scenario module's channels are).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
class RatePoint:
    r1: float
    r2: float
    strategy: str
    params: tuple = ()

    def dominates(self, other: "RatePoint", tol: float = 0.0) -> bool:
        return self.r1 >= other.r1 - tol and self.r2 >= other.r2 - tol


@dataclass(frozen=True)
class RateRegion:
    points: Tuple[RatePoint, ...]

    @property
    def frontier(self) -> Tuple[RatePoint, ...]:
        return pareto_frontier(self.points)


def _c(snr: float) -> float:
    """log2(1 + snr), the capacity every strategy's rates are built from."""
    if not np.isfinite(snr):
        raise ConfigurationError(f"SNR of {snr!r}: a power or gain is "
                                 f"beyond the float range")
    return float(np.log2(1.0 + snr))


def rate_ian(ch: TwoUserChannel) -> RatePoint:
    """Both receivers treat the interfering signal as noise."""
    r1 = _c(ch.p1 * ch.g11 / (1.0 + ch.p2 * ch.g21))
    r2 = _c(ch.p2 * ch.g22 / (1.0 + ch.p1 * ch.g12))
    return RatePoint(r1, r2, "ian")


def rate_scd(ch: TwoUserChannel, order: int = 1) -> RatePoint:
    """Sequential cancellation: one user fully public, decoded then removed.

    ``order`` names the public (cancelled) user. For order=1, user 1's
    message must be decodable at both receivers; receiver 2 then enjoys
    an interference-free own rate.
    """
    if order == 1:
        r1 = min(_c(ch.p1 * ch.g11 / (1.0 + ch.p2 * ch.g21)),
                 _c(ch.p1 * ch.g12 / (1.0 + ch.p2 * ch.g22)))
        r2 = _c(ch.p2 * ch.g22)
        return RatePoint(r1, r2, "scd", params=(1,))
    if order == 2:
        sw = rate_scd(ch.swapped(), order=1)
        return RatePoint(sw.r2, sw.r1, "scd", params=(2,))
    raise ConfigurationError("order must be 1 or 2")


def rate_snd(ch: TwoUserChannel) -> RatePoint:
    """Simultaneous non-unique decoding rates.

    Receiver i jointly decodes the interfering stream (without caring
    about its errors) under two-user MAC constraints, unless the
    interferer's rate M_j, its rate when interference is treated as
    noise, already exceeds its single-user capacity at receiver i — the
    skip condition — in which case receiver i falls back to treating
    interference as noise.
    """
    ian = rate_ian(ch)

    def rx(own_p, own_g, int_p, int_g, m_int, ian_own):
        if m_int >= _c(int_p * int_g):          # the skip condition
            return ian_own
        own_cap = _c(own_p * own_g)
        sum_cap = _c(own_p * own_g + int_p * int_g)
        return max(ian_own, min(own_cap, sum_cap - m_int))

    r1 = rx(ch.p1, ch.g11, ch.p2, ch.g21, ian.r2, ian.r1)
    r2 = rx(ch.p2, ch.g22, ch.p1, ch.g12, ian.r1, ian.r2)
    return RatePoint(max(r1, 0.0), max(r2, 0.0), "snd")


def rate_fdm(ch: TwoUserChannel, beta: float = 0.5) -> RatePoint:
    """Orthogonal frequency split, fraction beta of the band to user 1."""
    if not 0.0 < beta < 1.0:
        raise ConfigurationError("beta must lie strictly inside (0,1)")
    r1 = beta * _c(ch.p1 * ch.g11 / beta)
    r2 = (1 - beta) * _c(ch.p2 * ch.g22 / (1 - beta))
    return RatePoint(r1, r2, "fdm", params=(beta,))


def _mac_caps(order, powers, noise):
    """Successive-decoding capacities of each message for one receiver.

    Each message sees the noise plus the messages decoded after it.
    """
    caps = {}
    for m in reversed(order):
        caps[m] = _c(powers[m] / noise)
        noise += powers[m]
    return caps


def hk_corner(ch: TwoUserChannel, lam1: float, lam2: float) -> RatePoint:
    """Achievable corner point for one private-power split (λ1, λ2).

    Each receiver successively decodes the interferer's public message,
    its own public message and finally its own private message; the
    interferer's private part stays noise. A public message's rate is
    the minimum of its decoding capacities at the two receivers (no
    time sharing).
    """
    if not (0.0 <= lam1 <= 1.0 and 0.0 <= lam2 <= 1.0):
        raise ConfigurationError("power splits must lie in [0,1]")
    pow1 = {(1, "c"): (1 - lam1) * ch.p1 * ch.g11,
            (2, "c"): (1 - lam2) * ch.p2 * ch.g21,
            (1, "p"): lam1 * ch.p1 * ch.g11}
    n1 = 1.0 + lam2 * ch.p2 * ch.g21
    pow2 = {(1, "c"): (1 - lam1) * ch.p1 * ch.g12,
            (2, "c"): (1 - lam2) * ch.p2 * ch.g22,
            (2, "p"): lam2 * ch.p2 * ch.g22}
    n2 = 1.0 + lam1 * ch.p1 * ch.g12
    caps1 = _mac_caps([(2, "c"), (1, "c"), (1, "p")], pow1, n1)
    caps2 = _mac_caps([(1, "c"), (2, "c"), (2, "p")], pow2, n2)
    r1c = min(caps1[(1, "c")], caps2[(1, "c")])
    r2c = min(caps1[(2, "c")], caps2[(2, "c")])
    return RatePoint(r1c + caps1[(1, "p")], r2c + caps2[(2, "p")],
                     "hk", params=(lam1, lam2))


def hk_region(ch: TwoUserChannel,
              lam_grid: Optional[Sequence[float]] = None) -> RateRegion:
    """Union of no-time-sharing rate-splitting corners over a λ grid."""
    if lam_grid is None:
        lam_grid = np.linspace(0.0, 1.0, 21)
    points = [hk_corner(ch, float(lam1), float(lam2))
              for lam1 in lam_grid for lam2 in lam_grid]
    return RateRegion(points=tuple(points))


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
    out: Dict[str, List[RatePoint]] = {s: [] for s in strategies}
    for p in p_values:
        ch = replace(template, p1=float(p), p2=float(p))
        if "ian" in out:
            out["ian"].append(rate_ian(ch))
        if "scd" in out:
            out["scd"].append(rate_scd(ch, 1))
            out["scd"].append(rate_scd(ch, 2))
        if "snd" in out:
            out["snd"].append(rate_snd(ch))
        if "fdm" in out:
            out["fdm"].extend(rate_fdm(ch, float(b)) for b in fdm_grid)
        if "hk" in out:
            out["hk"].extend(hk_region(ch, lam_grid).points)
    return {s: RateRegion(points=tuple(pts)) for s, pts in out.items()}


def pareto_frontier(points: Iterable[RatePoint]) -> Tuple[RatePoint, ...]:
    """Maximal non-dominated subset, sorted by R1 (input-order independent)."""
    lookup = {}
    for p in points:                       # one pass: points may be a generator
        lookup.setdefault((p.r1, p.r2), p)
    frontier = []
    best_r2 = -np.inf
    for r1, r2 in sorted(lookup, reverse=True):     # descending r1
        if r2 > best_r2:
            frontier.append(lookup[(r1, r2)])
            best_r2 = r2
    return tuple(reversed(frontier))


def frontier_dominates(frontier_a: Sequence[RatePoint],
                       frontier_b: Sequence[RatePoint]) -> bool:
    """True when every point of frontier_b is dominated by some point of a.

    Rates within ``DOMINANCE_TOL`` of each other count as equal.
    """
    return all(any(a.dominates(b, DOMINANCE_TOL) for a in frontier_a)
               for b in frontier_b)

