"""Cognitive-spectrum SINR matrices and optimal carrier assignment.

Terminals share carriers with incumbent fixed-service (FS) stations; a
radio environment map supplies the per-(carrier, terminal) incumbent
interference. Carriers are allocated one-to-one to terminals by solving
a linear assignment problem.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .scenario import ConfigurationError

# coarse DVB-S2-like spectral-efficiency staircase: (min SINR dB, bits/s/Hz)
MODCOD_TABLE = (
    (-2.35, 0.49), (1.0, 0.99), (4.03, 1.49), (6.42, 1.98),
    (8.97, 2.48), (10.98, 2.97), (12.89, 3.52), (14.28, 3.95),
    (16.05, 4.45), (17.9, 4.93), (19.57, 5.51),
)


@dataclass(frozen=True)
class SinrMatrix:
    """Linear SINR per (carrier m, terminal k)."""

    values: np.ndarray
    scenario_id: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if v.ndim != 2:
            raise ConfigurationError("SINR matrix must be 2-D")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ConfigurationError("SINR entries must be finite and >= 0")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Assignment:
    """Carrier -> terminal map (one-to-one) plus its sum-rate objective.

    ``terminal_of[m]`` is -1 when carrier m was matched to a zero-rate
    dummy terminal (only possible when M > K).
    """

    terminal_of: Tuple[int, ...]
    objective: float

    def pairs(self):
        return [(m, k) for m, k in enumerate(self.terminal_of) if k >= 0]


def build_sinr_matrix(rx_powers: np.ndarray, interference: np.ndarray,
                      i_co: float = 0.0, n0: float = 1.0,
                      scenario_id: str = "") -> SinrMatrix:
    """SINR(m,k) = P(k) / (I_k(m) + I_co + N0), elementwise."""
    p = np.asarray(rx_powers, float)
    i_t = np.asarray(interference, float)
    if i_t.ndim != 2 or p.shape != (i_t.shape[1],):
        raise ConfigurationError("need interference (M,K) and powers (K,)")
    if n0 <= 0 or i_co < 0 or (p < 0).any() or (i_t < 0).any():
        raise ConfigurationError("powers must be >= 0 and noise > 0")
    return SinrMatrix(values=p[None, :] / (i_t + i_co + n0),
                      scenario_id=scenario_id)


def rate_matrix(sinr: SinrMatrix, mapping: str = "shannon",
                table: Sequence[Tuple[float, float]] = MODCOD_TABLE) -> np.ndarray:
    """Per-(carrier, terminal) rate map; Shannon by default.

    ``mapping="staircase"`` quantises to a MODCOD spectral-efficiency
    table (0 below the lowest operating point).
    """
    v = sinr.values
    if mapping == "shannon":
        return np.log2(1.0 + v)
    if mapping != "staircase":
        raise ConfigurationError("mapping must be 'shannon' or 'staircase'")
    sinr_db = 10 * np.log10(np.maximum(v, 1e-300))
    thresholds = np.array([t for t, _ in table])
    rates = np.array([r for _, r in table])
    idx = np.searchsorted(thresholds, sinr_db, side="right") - 1
    out = np.where(idx >= 0, rates[np.maximum(idx, 0)], 0.0)
    return out


def _solve_max(rates: np.ndarray) -> Tuple[np.ndarray, float]:
    rows, cols = linear_sum_assignment(rates, maximize=True)
    value = float(rates[rows, cols].sum())
    out = np.full(rates.shape[0], -1, int)
    out[rows] = cols
    return out, value


def assign_hungarian(rates: np.ndarray, tie_break: bool = True) -> Assignment:
    """Optimal one-to-one carrier-to-terminal assignment.

    Maximises the summed rate. When M > K the matrix is padded with
    zero-rate dummy terminals, reported as unassigned. With
    ``tie_break`` the lexicographically smallest optimal map is
    returned: scanning carriers in order, each takes the lowest terminal
    index that preserves optimality of the remainder.
    """
    r = np.asarray(rates, float)
    if r.ndim != 2:
        raise ConfigurationError("rate matrix must be 2-D")
    if not np.isfinite(r).all():
        raise ConfigurationError("non-finite rate entries")
    m, k = r.shape
    n_dummy = max(0, m - k)
    work = np.concatenate([r, np.zeros((m, n_dummy))], axis=1) if n_dummy else r
    base_map, best = _solve_max(work)
    if tie_break:
        fixed_cols: list = []
        chosen = []
        for carrier in range(m):
            free = [c for c in range(work.shape[1]) if c not in fixed_cols]
            for cand in free:
                rest_rows = np.arange(carrier + 1, m)
                rest_cols = [c for c in free if c != cand]
                sub = work[np.ix_(rest_rows, rest_cols)]
                if sub.shape[0] > min(sub.shape):
                    continue
                rest = _solve_max(sub)[1] if sub.size else 0.0
                head = sum(chosen_val for chosen_val in chosen)
                if head + work[carrier, cand] + rest >= best - 1e-9 * max(1.0, abs(best)):
                    fixed_cols.append(cand)
                    chosen.append(work[carrier, cand])
                    break
        base_map = np.array(fixed_cols, int)
    terminal_of = tuple(int(c) if c < k else -1 for c in base_map)
    objective = float(sum(r[mm, kk] for mm, kk in enumerate(terminal_of)
                          if kk >= 0))
    return Assignment(terminal_of=terminal_of, objective=objective)


def throughput_report(rates: np.ndarray, interference: np.ndarray,
                      assignment: Assignment) -> Tuple[float, float]:
    """Exclusive-band sum rate and the shared band's gain factor over it.

    The exclusive band is the carriers free of incumbent interference at
    every terminal; the gain is ``inf`` when that band carries no rate.
    """
    clean = np.nonzero(interference.sum(axis=1) == 0)[0]
    if len(clean) == 0:
        return 0.0, np.inf
    base = assign_hungarian(rates[clean]).objective
    return base, assignment.objective / base if base > 0 else np.inf


@dataclass(frozen=True)
class FsStation:
    """Incumbent fixed-service transmitter of the radio environment map."""

    station_id: int
    x_km: float
    y_km: float
    tx_dbw: float
    azimuth_deg: float
    beamwidth_deg: float
    carrier: int = 0


def load_rem(path, n_carriers: int) -> list:
    """Load FS stations from CSV `station_id,x_km,y_km,tx_dbw,azimuth_deg,beamwidth_deg`.

    Each station occupies carrier ``station_id mod n_carriers``.
    """
    if n_carriers < 1:
        raise ConfigurationError("need n_carriers >= 1")
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            sid = int(row["station_id"])
            out.append(FsStation(
                station_id=sid, x_km=float(row["x_km"]), y_km=float(row["y_km"]),
                tx_dbw=float(row["tx_dbw"]), azimuth_deg=float(row["azimuth_deg"]),
                beamwidth_deg=float(row["beamwidth_deg"]),
                carrier=sid % n_carriers))
    return out


def synthetic_rem(n_stations: int, n_carriers: int, area_km: float,
                  rng: np.random.Generator, tx_dbw: float = 10.0) -> list:
    """Random FS deployment over a square area."""
    if n_stations < 0 or n_carriers < 1 or area_km < 0:
        raise ConfigurationError("need n_stations >= 0, n_carriers >= 1 "
                                 "and area_km >= 0")
    out = []
    for sid in range(n_stations):
        out.append(FsStation(
            station_id=sid,
            x_km=float(rng.uniform(-area_km / 2, area_km / 2)),
            y_km=float(rng.uniform(-area_km / 2, area_km / 2)),
            tx_dbw=float(tx_dbw + rng.uniform(-3, 3)),
            azimuth_deg=float(rng.uniform(0, 360)),
            beamwidth_deg=float(rng.uniform(10, 40)),
            carrier=int(rng.integers(n_carriers))))
    return out


def interference_table(stations: Sequence[FsStation],
                       terminal_xy_km: np.ndarray, n_carriers: int,
                       mask_db: float = 25.0, ref_km: float = 1.0) -> np.ndarray:
    """Incumbent interference I_k(m), shape (M, K), linear power.

    Each station radiates its EIRP inside its sector and ``mask_db``
    below it outside, with inverse-square path loss referenced at
    ``ref_km``.
    """
    xy = np.asarray(terminal_xy_km, float)
    out = np.zeros((n_carriers, xy.shape[0]))
    for st in stations:
        d = np.hypot(xy[:, 0] - st.x_km, xy[:, 1] - st.y_km)
        az = np.degrees(np.arctan2(xy[:, 1] - st.y_km, xy[:, 0] - st.x_km))
        off = np.abs((az - st.azimuth_deg + 180) % 360 - 180)
        gain_db = np.where(off <= st.beamwidth_deg / 2, 0.0, -mask_db)
        p = 10 ** ((st.tx_dbw + gain_db) / 10) * (ref_km / np.maximum(d, ref_km)) ** 2
        out[st.carrier] += p
    return out
