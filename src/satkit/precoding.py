"""Multicast precoding: regularised-inverse design, SINR and sum-rate.

The precoder acts on the per-frame averaged channel and is uniformly
scaled so the binding per-feed power constraint is met with equality.
Noise is unit variance (folded into the channel by the scenario module).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .scenario import ChannelSet, ConfigurationError

COND_LIMIT = 1e12


@dataclass(frozen=True)
class PrecodeMatrix:
    """N x K precoder, its power scaling and its conditioning flag."""

    W: np.ndarray
    beta: float
    ill_conditioned: bool = False

    def feed_powers(self) -> np.ndarray:
        return np.einsum("nk,nk->n", self.W, self.W.conj()).real


def average_channel(channel_set: ChannelSet) -> np.ndarray:
    """Per-frame averaged channel, the arithmetic mean over frame users."""
    return channel_set.H.mean(axis=0)


def enforce_per_feed(w_raw: np.ndarray, power_cap: float,
                     ill_conditioned: bool = False) -> PrecodeMatrix:
    """Uniformly scale a precoder so its largest feed power equals the cap."""
    if power_cap <= 0:
        raise ConfigurationError("power cap must be positive")
    feed_pow = np.einsum("nk,nk->n", w_raw, w_raw.conj()).real
    peak = feed_pow.max()
    if peak <= 0:
        raise ConfigurationError("zero precoder cannot be power-scaled")
    beta = float(np.sqrt(power_cap / peak))
    return PrecodeMatrix(W=beta * w_raw, beta=beta,
                         ill_conditioned=ill_conditioned)


def mmse_multicast(h_avg: np.ndarray, power_cap: float) -> PrecodeMatrix:
    """Regularised-inverse multicast precoder on the averaged channel.

    W_raw = (H^H H + I/P)^{-1} H^H, then uniform scaling to the per-feed
    cap. A conditioning guard adds light diagonal loading and flags the
    result when the regularised Gram matrix is numerically singular: its
    Cholesky factorisation fails, or the squared ratio of the factor's
    largest to smallest pivot, a lower bound on the condition number,
    exceeds ``COND_LIMIT``. The factorisation runs only where the bound
    1 + P ||H||_F^2 on the condition number lets the guard fire.
    """
    h_avg = np.asarray(h_avg, complex)
    if not np.isfinite(h_avg).all():
        raise ConfigurationError("non-finite channel entries")
    if power_cap <= 0:
        raise ConfigurationError("power cap must be positive")
    n = h_avg.shape[1]
    h_hermitian = h_avg.conj().T
    gram = h_hermitian @ h_avg
    # numpy's divide: a 1/P beyond the float range is a float fault
    gram.flat[::n + 1] += np.divide(1.0, power_cap, dtype=float)
    # gram's eigenvalues lie in [1/P, 1/P + ||H||_2^2], so cond2(gram) <=
    # b = 1 + P ||H||_F^2. For b < 1/(16 n (n+1) u) Cholesky succeeds (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.7:
    # lambda_min(D^-1 gram D^-1) >= 1/b for D^2 = diag(gram); 16 covers
    # complex rounding) with pivots exact for a gram of cond2 < 1.1 b (Thm
    # 10.3), so for b < COND_LIMIT / 2 too the guard cannot fire and is skipped.
    limit = min(COND_LIMIT / 2, 1 / (8 * n * (n + 1) * np.finfo(float).eps))
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: factorise
        fro2 = np.square(h_avg.real).sum() + np.square(h_avg.imag).sum()
        sure = fro2 * power_cap <= limit - 1
    ill = False
    if not sure:
        # cond(gram) = cond(L)^2 >= (max|L_ii| / min|L_ii|)^2 for gram =
        # L L^H, so the pivot ratio never flags a well-conditioned matrix
        try:
            d = np.abs(np.linalg.cholesky(gram).diagonal())  # a copy: frees L
            ill = bool((d.max() / d.min()) ** 2 > COND_LIMIT)
        except np.linalg.LinAlgError:
            ill = True
    if ill:
        gram.flat[::n + 1] += 1e-12
    w_raw = np.linalg.solve(gram, h_hermitian)
    return enforce_per_feed(w_raw, power_cap, ill_conditioned=ill)


def identity_precoder(n_beams: int, power_cap: float) -> PrecodeMatrix:
    """Naive baseline: each beam on its own feed, at the per-feed cap."""
    return enforce_per_feed(np.eye(n_beams, dtype=complex), power_cap)


def sinr_all(channel_set: ChannelSet, precoder: PrecodeMatrix) -> np.ndarray:
    """Per-user, per-beam SINR table of shape (N_u, K), unit noise.

    Channel rows are the receive vectors h_k^[i],H, so the useful gain
    of precoder column j at beam-row k is simply [H^[i] W]_{kj}.
    """
    gains = channel_set.H @ precoder.W
    re, im = gains.real, gains.imag
    re *= re                    # squared in place, in gains' own memory
    im *= im
    p = re + im
    sig = np.diagonal(p, axis1=1, axis2=2)
    interf = p.sum(axis=2) - sig
    return sig / (interf + 1.0)


def sum_rate(sinr_table: np.ndarray) -> Tuple[float, np.ndarray]:
    """Multicast sum rate and per-beam rates, min over frame users."""
    sinr_table = np.asarray(sinr_table, float)
    if (sinr_table < 0).any():
        raise ConfigurationError("negative SINR entries")
    per_beam = np.log2(1.0 + sinr_table.min(axis=0))
    return float(per_beam.sum()), per_beam

