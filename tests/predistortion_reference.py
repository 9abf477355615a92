"""Reference models of ``predistortion`` that only the tests use: the
least-squares amplifier fit that the chain's cubic model is checked
against, the SPD fit with its Gram summed over every sample, and the LUT
apply rule that gives ``build_lut``'s bin edges and gains their meaning
(per-bin gain times input, the bin chosen by |x|)."""
import numpy as np

from satkit import predistortion as pd
from satkit.predistortion import HpaParams
from satkit.scenario import ConfigurationError


class FitError(RuntimeError):
    """Raised when a model fit is ill-posed."""


def fit_hpa(x_in: np.ndarray, y_out: np.ndarray) -> HpaParams:
    """Linear least squares on the regressors [r, |r|^2 r].

    Requires amplitude diversity in the input: a constant-modulus drive
    makes the regressors collinear and the fit is rejected.
    """
    x_in = np.asarray(x_in, complex).ravel()
    y_out = np.asarray(y_out, complex).ravel()
    if x_in.shape != y_out.shape or x_in.size < 2:
        raise ConfigurationError("need matching input/output sample vectors")
    reg = np.stack([x_in, np.abs(x_in) ** 2 * x_in], axis=1)
    sv = np.linalg.svd(reg, compute_uv=False)
    if sv[0] == 0 or sv[1] / sv[0] < 1e-10:
        raise FitError("constant-envelope input: regressors are collinear")
    coef, *_ = np.linalg.lstsq(reg, y_out, rcond=None)
    return HpaParams(alpha=complex(coef[0]), beta=complex(coef[1]))


def spd_apply_lut(edges: np.ndarray, gains: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """LUT predistortion path: per-magnitude-bin complex gain; |x| beyond
    the last edge takes the last bin's gain."""
    x = np.asarray(x, complex)
    idx = np.clip(np.searchsorted(edges, np.abs(x), side="right") - 1,
                  0, len(gains) - 1)
    return gains[idx] * x


def fit_spd_per_sample(hpa: HpaParams, x: np.ndarray):
    """``fit_spd``'s Levenberg-Marquardt loop with the Gram summed over
    every sample of x, in its order, as before the Gauss rules."""
    s = x.real ** 2 + x.imag ** 2
    every = np.arange(s.size)
    gram = pd._spd_gram(hpa, s, s)
    p = np.array([(1 / hpa.alpha).real, (1 / hpa.alpha).imag, 0.0, 0.0])
    g = gram(p, every)
    trace = [g[4, 4] / x.size]
    lam = pd.LM_LAMBDA0
    for _ in range(pd.LM_MAX_ITER):
        jtj = g[:4, :4]
        step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -g[:4, 4])
        if np.sqrt(step @ step) <= pd.LM_XTOL * (pd.LM_XTOL + np.sqrt(p @ p)):
            break
        g_new = gram(p + step, every)
        if not g_new[4, 4] < g[4, 4]:
            lam *= 10
            continue
        done = g[4, 4] - g_new[4, 4] <= pd.LM_FTOL * g_new[4, 4]
        p, g, lam = p + step, g_new, lam / 10
        trace.append(g[4, 4] / x.size)
        if done:
            break
    return (pd.SpdParams(gamma=complex(p[0], p[1]), delta=complex(p[2], p[3])),
            np.array(trace))
