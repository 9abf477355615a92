"""Scalar reference of ``access.hk_region``, which the tests check its array
corners against bit for bit: one Han–Kobayashi corner per call, with each
receiver's successive-decoding capacities read from a dict."""
import numpy as np

from satkit.scenario import ConfigurationError


def _c(snr: float) -> float:
    """log2(1 + snr), the capacity every strategy's rates are built from."""
    if not np.isfinite(snr):
        raise ConfigurationError(f"SNR of {snr!r}: a power or gain is "
                                 f"beyond the float range")
    return float(np.log2(1.0 + snr))


def _mac_caps(order, powers, noise):
    """Successive-decoding capacities of each message for one receiver.

    Each message sees the noise plus the messages decoded after it.
    """
    caps = {}
    for m in reversed(order):
        caps[m] = _c(powers[m] / noise)
        noise += powers[m]
    return caps


def hk_corner(ch, lam1: float, lam2: float):
    """Achievable corner point (R1, R2) for one private-power split (λ1, λ2).

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
    return r1c + caps1[(1, "p")], r2c + caps2[(2, "p")]
