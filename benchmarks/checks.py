"""Checks of each workload's outputs against computations made apart from satkit.

Nothing here imports satkit: every expected value is derived from the
model's definition (closed-form laws, scalar loops, a separate assignment
solve, brute-force enumeration). Each ``check_<workload>`` returns a
``Verdict``: how many operations were checked, how many failed, and the
correctness errors found among the rest.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special, stats
from scipy.optimize import brentq, linear_sum_assignment


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, other: "Verdict") -> "Verdict":
        return Verdict(self.attempted + other.attempted,
                       self.failed + other.failed, self.errors + other.errors)


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------ detection-pd

N_DATA, N_PILOT = 460, 56           # frame layout of the detection model
PD_SLACK = 0.01                     # widening of each row's Wilson interval
MIN_WALL_GAP_DB = 5.0


def wilson(successes: int, trials: int, z: float = float(stats.norm.ppf(0.975))):
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _uniform_nodes(lo: float, hi: float, panel: float = 0.25, order: int = 6):
    """Composite Gauss-Legendre nodes and weights of the uniform law on [lo, hi]."""
    if hi <= lo:
        return np.array([lo]), np.array([1.0])
    n_panels = max(1, int(math.ceil((hi - lo) / panel)))
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = np.diff(edges)[:, None] / 2
    nodes = (edges[:-1, None] + half * (x[None, :] + 1)).ravel()
    weights = (half * w[None, :]).ravel() / (hi - lo)
    return nodes, weights


def oracle_pd(kind: str, isnr_db: np.ndarray, snr_db: float, eps_db: float,
              fade_db: float, pfa: float, n: int = N_DATA + N_PILOT,
              n_pilot: int = N_PILOT) -> np.ndarray:
    """Closed-form Pd of the CED or EDSCP detector, threshold at the worst noise edge.

    Per frame the noise variance is 10^(e/10) with e uniform in +/-eps dB,
    the channel amplitude 10^(f/20) with f uniform in +/-fade dB, the QPSK
    symbols have amplitude a = 10^(snr/20) and the interferer power is
    10^(isnr/10) * (a^2 + 1). With v the total noise-plus-interference
    variance, the CED statistic is v/(2N) * ncx2(2N, 2N|h|^2 a^2 / v)
    (Urkowitz 1967) and the EDSCP residual is v/(2Np) * chi2(2(Np - 1)).
    """
    a2 = 10 ** (snr_db / 10)
    v0 = 10 ** (eps_db / 10)
    f, wf = _uniform_nodes(-fade_db, fade_db)
    e, we = _uniform_nodes(-eps_db, eps_db)
    g = 10 ** (f / 10) * a2                       # |h|^2 a^2 per fade node
    if kind == "edscp":
        dof = 2 * (n_pilot - 1)
        tau = v0 / (2 * n_pilot) * stats.chi2.isf(pfa, dof)
        v = 10 ** (e / 10)[None, :] + 10 ** (np.asarray(isnr_db) / 10)[:, None] * (a2 + 1)
        return stats.chi2.sf(2 * n_pilot * tau / v, dof) @ we
    if kind != "ced":
        raise ValueError(f"no closed form for detector {kind!r}")

    def pfa_at(tau):
        return special.chndtr(2 * n * tau / v0, 2 * n, 2 * n * g / v0) @ wf

    hi = v0 + g.max()
    while 1 - pfa_at(hi) > pfa:
        hi *= 1.5
    tau = brentq(lambda t: (1 - pfa_at(t)) - pfa, v0 * 0.5, hi, xtol=1e-12)
    out = []
    for isnr in np.asarray(isnr_db, float):
        v = (10 ** (e / 10) + 10 ** (isnr / 10) * (a2 + 1))[:, None]   # (E, 1)
        sf = 1 - special.chndtr(2 * n * tau / v, 2 * n, 2 * n * g[None, :] / v)
        out.append(we @ sf @ wf)
    return np.array(out)


def wall_crossing(isnr: np.ndarray, pd: np.ndarray, level: float = 0.9) -> float:
    """First ISNR at which the Pd curve reaches `level`, linearly interpolated."""
    order = np.argsort(isnr)
    x, y = np.asarray(isnr, float)[order], np.asarray(pd, float)[order]
    for i in range(len(x)):
        if y[i] >= level:
            if i == 0:
                return float(x[0])
            return float(x[i - 1] + (level - y[i - 1]) / (y[i] - y[i - 1])
                         * (x[i] - x[i - 1]))
    return math.nan


def check_detection(rows: list, cfg: dict) -> Verdict:
    """``rows`` are detection_pd.csv records; ``cfg`` the run's configuration."""
    v = Verdict(attempted=len(rows))
    expected = len(cfg["detectors"]) * len(cfg["isnr_grid_db"])
    if len(rows) != expected:
        v.errors.append(f"detection: {len(rows)} rows, expected {expected}")
    curves = {}
    for r in rows:
        kind, isnr, n_mc = r["detector"], float(r["isnr_db"]), int(r["n_mc"])
        pd, lo, hi = float(r["pd"]), float(r["pd_lo"]), float(r["pd_hi"])
        hits = round(pd * n_mc)
        want_lo, want_hi = wilson(hits, n_mc)
        if (n_mc != cfg["n_mc"] or abs(hits - pd * n_mc) > 1e-6
                or abs(lo - want_lo) > 1e-9 or abs(hi - want_hi) > 1e-9):
            v.errors.append(f"detection {kind}@{isnr:g} dB: pd {pd} with "
                            f"[{lo}, {hi}] is not a Wilson interval of "
                            f"{hits}/{cfg['n_mc']}")
        curves.setdefault(kind, []).append((isnr, pd, lo, hi))
    for kind in ("ced", "edscp"):
        if kind not in curves:
            continue
        isnr, pd, lo, hi = map(np.array, zip(*curves[kind]))
        want = oracle_pd(kind, isnr, cfg["snr_db"], cfg["eps_db"],
                         cfg["fade_db"], cfg["pfa"])
        for x, w, a, b in zip(isnr, want, lo, hi):
            if not a - PD_SLACK <= w <= b + PD_SLACK:
                v.errors.append(f"detection {kind}@{x:g} dB: closed-form Pd "
                                f"{w:.4f} outside [{a:.4f}, {b:.4f}] +/- {PD_SLACK}")
    if "ced" in curves and "edscp" in curves:
        walls = {k: wall_crossing([c[0] for c in curves[k]],
                                  [c[1] for c in curves[k]])
                 for k in ("ced", "edscp")}
        gap = walls["ced"] - walls["edscp"]
        if not gap >= MIN_WALL_GAP_DB:
            v.errors.append(f"detection: ISNR wall gap {gap:.2f} dB "
                            f"< {MIN_WALL_GAP_DB} dB")
    return v


# --------------------------------------------------------------- spd-bench

OBO_TOL_DB = 0.01


def check_spd(rows: list, modes: list, obo_grid_db: list) -> Verdict:
    """``rows`` are spd_bench.csv records, in mode-major, target-minor order.

    An operation is one (placement, target) point; it fails when the
    achieved OBO misses its target by more than ``OBO_TOL_DB``.
    """
    v = Verdict(attempted=len(modes) * len(obo_grid_db))
    if len(rows) != v.attempted:
        v.errors.append(f"spd: {len(rows)} rows, expected {v.attempted}")
        return v
    sinr = {}
    for i, r in enumerate(rows):
        mode, target = modes[i // len(obo_grid_db)], obo_grid_db[i % len(obo_grid_db)]
        if r["spd_location"] != mode:
            v.errors.append(f"spd: row {i} is {r['spd_location']}, expected {mode}")
        if not abs(float(r["obo_db"]) - target) <= OBO_TOL_DB:
            v.failed += 1
        sinr[mode, target] = float(r["sinr_db"])
    if "onboard" in modes and "none" in modes:
        for target in obo_grid_db:
            if not sinr["onboard", target] > sinr["none", target]:
                v.errors.append(f"spd: onboard SINR {sinr['onboard', target]:.2f} dB "
                                f"<= no-SPD {sinr['none', target]:.2f} dB "
                                f"at {target:g} dB OBO")
    return v


def obo_errors_db(rows: list, obo_grid_db: list) -> list:
    return [abs(float(r["obo_db"]) - obo_grid_db[i % len(obo_grid_db)])
            for i, r in enumerate(rows)]


# ------------------------------------------------------------ forward-link

# link budget of satkit's default scenario, restated from its definition
ALTITUDE_KM = 35786.0
WAVELENGTH_M = 299_792_458.0 / 20e9
NOISE_POWER_W = 1.380649e-23 * 207.0 * 500e6
RX_GAIN = 10 ** (41.7 / 20)
BORESIGHT_GAIN = 10 ** (52.0 / 20)
FLOOR = 10 ** (-40.0 / 20)
BEAM_RADIUS_KM = 150.0
MIN_CIR_GAIN_DB = 20.0


def _taper(u):
    return special.j1(u) / (2 * u) + 36.0 * special.jv(3, u) / u ** 3


U_3DB = brentq(lambda u: _taper(u) - 1 / math.sqrt(2), 0.5, 3.0, xtol=1e-15)


def link_budget_amplitudes(positions: np.ndarray, feeds: np.ndarray) -> np.ndarray:
    """|H| per (user slot, beam, feed) from the scalar link-budget formula."""
    pos = positions.transpose(1, 0, 2)                       # (Nu, K, 2)
    dist = np.linalg.norm(pos[:, :, None, :] - feeds[None, None], axis=-1)
    u = U_3DB * dist / BEAM_RADIUS_KM
    small = u < 1e-9
    taper = np.where(small, 1.0, _taper(np.where(small, 1.0, u)))
    amp = BORESIGHT_GAIN * np.maximum(np.abs(taper), FLOOR)
    slant_m = np.hypot(np.linalg.norm(pos, axis=-1), ALTITUDE_KM) * 1e3
    loss = 4 * np.pi * slant_m / WAVELENGTH_M * math.sqrt(NOISE_POWER_W)
    return RX_GAIN * amp / loss[:, :, None]


def check_forward_case(case: dict) -> list:
    """Errors of one K case: channel, precoder, SINR table and sum rate."""
    errors, k = [], int(case["K"])
    h, w, beta, cap = case["H"], case["W"], float(case["beta"]), float(case["power_cap"])
    want = link_budget_amplitudes(case["positions"], case["feeds"])
    rel = np.max(np.abs(np.abs(h) - want) / want)
    if not rel <= 1e-9:
        errors.append(f"K={k}: |H| deviates from the link budget by {rel:.2e}")
    h_avg = h.mean(axis=0)
    gram = h_avg.conj().T @ h_avg + np.eye(h_avg.shape[1]) / cap
    resid = np.linalg.norm(gram @ (w / beta) - h_avg.conj().T)
    if not resid <= 1e-9 * np.linalg.norm(h_avg):
        errors.append(f"K={k}: W/beta does not solve (H^H H + I/P) W = H^H "
                      f"(residual {resid:.2e})")
    peak = np.max(np.sum(np.abs(w) ** 2, axis=1))
    if not abs(peak - cap) <= 1e-9 * cap:
        errors.append(f"K={k}: peak feed power {peak} != cap {cap}")
    sinr = np.empty((h.shape[0], k))
    for i in range(h.shape[0]):
        for kk in range(k):
            g = np.abs(h[i, kk] @ w) ** 2
            sinr[i, kk] = g[kk] / (g.sum() - g[kk] + 1.0)
    rel = np.max(np.abs(case["sinr"] - sinr) / sinr)
    if not rel <= 1e-9:
        errors.append(f"K={k}: SINR table deviates from the scalar loop by {rel:.2e}")
    total = sum(math.log2(1 + min(sinr[:, kk])) for kk in range(k))
    if not abs(float(case["sum_rate"]) - total) <= 1e-9 * total:
        errors.append(f"K={k}: sum rate {float(case['sum_rate'])} != {total}")
    return errors


def check_forward(cases: list, cir_db: list) -> Verdict:
    v = Verdict(attempted=len(cases) + len(cir_db))
    for case in cases:
        v.errors += check_forward_case(case)
    if not all(a < b for a, b in zip(cir_db, cir_db[1:])):
        v.errors.append(f"C/I not strictly increasing over reuse 1-4: {cir_db}")
    if not cir_db[-1] - cir_db[0] >= MIN_CIR_GAIN_DB:
        v.errors.append(f"C/I gain reuse 4 over 1 is {cir_db[-1] - cir_db[0]:.2f} dB "
                        f"< {MIN_CIR_GAIN_DB} dB")
    return v


# ----------------------------------------------------------- carrier-assign

# (min SINR dB, bit/s/Hz) operating points of the staircase mapping
MODCOD = ((-2.35, 0.49), (1.0, 0.99), (4.03, 1.49), (6.42, 1.98),
          (8.97, 2.48), (10.98, 2.97), (12.89, 3.52), (14.28, 3.95),
          (16.05, 4.45), (17.9, 4.93), (19.57, 5.51))


def staircase_rate(sinr: float) -> float:
    sinr_db = 10 * math.log10(max(sinr, 1e-300))
    rate = 0.0
    for threshold, r in MODCOD:
        if sinr_db >= threshold:
            rate = r
    return rate


def optimum(rates: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(rates, maximize=True)
    return float(rates[rows, cols].sum())


def lex_smallest_optimum(rates: np.ndarray):
    """Brute force: the lexicographically first map of maximum sum rate."""
    m, k = rates.shape
    perms = np.array(list(itertools.permutations(range(k), m)))
    totals = rates[np.arange(m)[None, :], perms].sum(axis=1)
    best = totals.max()
    optimal = np.nonzero(totals >= best - 1e-9 * max(1.0, abs(best)))[0]
    return tuple(int(c) for c in perms[optimal[0]]), len(optimal)


def check_assignment(inst: dict) -> list:
    """Errors of one instance: SINR, rate map, one-to-one map and optimality."""
    errors, name = [], str(inst["name"])
    interf, rates, term = inst["interference"], inst["rates"], inst["terminal_of"]
    want_sinr = inst["rx_power"][None, :] / (interf + float(inst["i_co"]) + float(inst["n0"]))
    if not np.allclose(inst["sinr"], want_sinr, rtol=1e-12, atol=0):
        errors.append(f"{name}: SINR matrix != P / (I + I_co + N0)")
    if str(inst["mapping"]) == "staircase":
        want = np.array([[staircase_rate(s) for s in row] for row in want_sinr])
    else:
        want = np.log2(1 + want_sinr)
    if not np.allclose(rates, want, rtol=1e-12, atol=0):
        errors.append(f"{name}: {inst['mapping']} rates do not match the scalar mapping")
    assigned = [int(c) for c in term if c >= 0]
    if len(set(assigned)) != len(assigned) or len(term) != rates.shape[0]:
        errors.append(f"{name}: carrier map is not one-to-one")
    got = float(sum(rates[m, c] for m, c in enumerate(term) if c >= 0))
    best = optimum(rates)
    tol = 1e-9 * max(1.0, best)
    if not (abs(got - best) <= tol and abs(float(inst["objective"]) - best) <= tol):
        errors.append(f"{name}: objective {float(inst['objective'])} "
                      f"(map sums to {got}) != optimum {best}")
    if rates.shape[0] * rates.shape[1] <= 49:
        lex, n_opt = lex_smallest_optimum(rates)
        if n_opt < 2:
            errors.append(f"{name}: instance has a unique optimum, no tie to break")
        if tuple(int(c) for c in term) != lex:
            errors.append(f"{name}: map {tuple(term)} is not the lexicographically "
                          f"smallest optimum {lex}")
    return errors


def check_carrier(instances: list) -> Verdict:
    v = Verdict(attempted=len(instances))
    for inst in instances:
        v.errors += check_assignment(inst)
    return v
