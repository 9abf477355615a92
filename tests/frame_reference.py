"""Frame-level reference of the detection statistics, which the tests check
``detection``'s exact-law sampler against: whole frames, pilots first."""
import numpy as np


def gen_batch(hypothesis, h, snr_db, isnr_db, eps_db, rng, n_mc, n_data,
              n_pilot, noise_var_db=None):
    """Batch of frames as arrays: samples (n_mc, N), symbols (n_mc, N)."""
    n = n_data + n_pilot
    s = (rng.choice((1.0, -1.0), (n_mc, n))
         + 1j * rng.choice((1.0, -1.0), (n_mc, n))) / np.sqrt(2)
    amp = 10 ** (snr_db / 20)
    if noise_var_db is None:
        var = 10 ** (rng.uniform(-eps_db, eps_db, (n_mc, 1)) / 10)
    else:
        var = np.full((n_mc, 1), 10 ** (noise_var_db / 10))
    eta = np.sqrt(var / 2) * (rng.standard_normal((n_mc, n))
                              + 1j * rng.standard_normal((n_mc, n)))
    x = np.asarray(h).reshape(-1, 1) * amp * s + eta
    if hypothesis == 1:
        p_pow = 10 ** (isnr_db / 10) * (amp ** 2 + 1.0)
        x = x + np.sqrt(p_pow / 2) * (rng.standard_normal((n_mc, n))
                                      + 1j * rng.standard_normal((n_mc, n)))
    return x, s


def stats_batch(kind, x, s, amp, n_pilot):
    """Detection statistics for a (n_mc, N) batch, pilots first."""
    if kind == "ced":
        return np.mean(np.abs(x) ** 2, axis=-1)
    xp, sp = x[..., :n_pilot], amp * s[..., :n_pilot]
    h_hat = (np.sum(np.conj(sp) * xp, axis=-1, keepdims=True)
             / np.sum(np.abs(sp) ** 2, axis=-1, keepdims=True))
    if kind == "edscp":
        return np.mean(np.abs(xp - h_hat * sp) ** 2, axis=-1)
    # edscd: hard QPSK decisions on the data positions, residual over all N
    xd = x[..., n_pilot:]
    z = xd / h_hat
    sd = (np.sign(z.real) + 1j * np.sign(z.imag)) / np.sqrt(2)
    res = (np.sum(np.abs(xp - h_hat * sp) ** 2, axis=-1)
           + np.sum(np.abs(xd - h_hat * amp * sd) ** 2, axis=-1))
    return res / x.shape[-1]
