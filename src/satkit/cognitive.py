"""Cognitive-spectrum SINR matrices and optimal carrier assignment.

Terminals share carriers with incumbent fixed-service (FS) stations; a
radio environment map (REM) supplies the per-(carrier, terminal)
incumbent interference. The REM is one ``FsStations`` of equal-length
columns, loaded from CSV or drawn at random; every number in it is
finite, every beamwidth lies in (0, 360] degrees and every azimuth is
stored reduced to [0, 360). Carriers are allocated one-to-one to
terminals by solving a linear assignment problem, with a numpy
shortest-augmenting-path solver.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .scenario import ConfigurationError

# coarse DVB-S2-like spectral-efficiency staircase: (min SINR dB, bits/s/Hz)
MODCOD_TABLE = (
    (-2.35, 0.49), (1.0, 0.99), (4.03, 1.49), (6.42, 1.98),
    (8.97, 2.48), (10.98, 2.97), (12.89, 3.52), (14.28, 3.95),
    (16.05, 4.45), (17.9, 4.93), (19.57, 5.51),
)
# fixed-service stations: mean EIRP of a synthetic deployment (dBW, drawn
# +/- 3 dB around it), out-of-sector attenuation (dB) and the reference
# distance of the inverse-square path loss (km)
FS_TX_DBW = 10.0
FS_MASK_DB = 25.0
FS_REF_KM = 1.0


@dataclass(frozen=True)
class SinrMatrix:
    """Linear SINR per (carrier m, terminal k)."""

    values: np.ndarray

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
                      i_co: float = 0.0, n0: float = 1.0) -> SinrMatrix:
    """SINR(m,k) = P(k) / (I_k(m) + I_co + N0), elementwise."""
    p = np.asarray(rx_powers, float)
    i_t = np.asarray(interference, float)
    if i_t.ndim != 2 or p.shape != (i_t.shape[1],):
        raise ConfigurationError("need interference (M,K) and powers (K,)")
    if n0 <= 0 or i_co < 0 or (p < 0).any() or (i_t < 0).any():
        raise ConfigurationError("powers must be >= 0 and noise > 0")
    return SinrMatrix(values=p[None, :] / (i_t + i_co + n0))


def rate_matrix(sinr: SinrMatrix, mapping: str = "shannon") -> np.ndarray:
    """Per-(carrier, terminal) rate map; Shannon by default.

    ``mapping="staircase"`` quantises to the spectral efficiencies of
    ``MODCOD_TABLE`` (0 below the lowest operating point).
    """
    v = sinr.values
    if mapping == "shannon":
        return np.log2(1.0 + v)
    if mapping != "staircase":
        raise ConfigurationError("mapping must be 'shannon' or 'staircase'")
    sinr_db = 10 * np.log10(np.maximum(v, 1e-300))
    thresholds = np.array([t for t, _ in MODCOD_TABLE])
    rates = np.array([r for _, r in MODCOD_TABLE])
    idx = np.searchsorted(thresholds, sinr_db, side="right") - 1
    out = np.where(idx >= 0, rates[np.maximum(idx, 0)], 0.0)
    return out


def linear_sum_assignment(cost: np.ndarray):
    """Minimum-cost perfect matching of a square matrix, with its duals.

    Returns ``col_of, u, v``: row i takes column ``col_of[i]``, and the row
    and column dual potentials leave every reduced cost
    ``cost - u[:, None] - v`` at least 0 and the matched ones at 0, up to
    round-off.

    Shortest augmenting paths with dual potentials (D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016):
    each row in turn grows a Dijkstra search over reduced costs until it
    reaches a free column, and the matching is flipped along that path.
    Rows go in decreasing order of the gap between their two cheapest
    entries, which leaves the rows with one clear choice the shortest
    searches. Among columns at equal distance a search takes a free one
    first, then the lowest index, so tied rows take low columns.
    """
    c = np.asarray(cost, float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ConfigurationError("assignment cost matrix must be square")
    if not np.isfinite(c).all():
        raise ConfigurationError("non-finite assignment costs")
    n = len(c)
    u, v = np.zeros(n), np.zeros(n)      # row and column duals
    masked = np.zeros(n)                 # v, with -inf at the columns scanned
    col_of = np.full(n, -1)
    row_of = [-1] * n
    order = range(n)
    if n > 1:
        two = np.partition(c, 1, axis=1)
        order = np.argsort(two[:, 0] - two[:, 1], kind="stable").tolist()
    # A search's distances are complex: the real part is the distance, the
    # imaginary part j for a free column and n + j for a taken one. numpy
    # orders complex numbers by real part, then imaginary part, so argmin
    # breaks ties between equal distances.
    dist, t = np.empty(n, complex), np.arange(n) + 0j
    t_real = t.real
    for start in order:
        dist.fill(np.inf)
        rows, dists, cols = [start], [0.0], []   # scanned rows, their distances
        i, offset = start, 0.0
        while True:
            np.subtract(c[i], masked, out=t_real)
            t_real += offset
            np.minimum(dist, t, out=dist)
            j = int(dist.argmin())
            d = dist.item(j).real
            cols.append(j)
            i = row_of[j]
            if i < 0:
                break
            dist[j], masked[j] = np.inf, -np.inf
            rows.append(i)
            dists.append(d)
            offset = d - u.item(i)
        if len(cols) == 1:
            u[start] += d
            row_of[j], col_of[start] = start, j
        else:
            r, dr, sc = np.array(rows), np.array(dists), np.array(cols)
            # Flip the matching along the path back from its end. The
            # predecessor of scanned column cols[s] is the row that gave it
            # its distance, among rows[:s + 1], the rows scanned before it
            # was taken; the distances are recomputed in the same arithmetic.
            s = len(cols) - 1
            while True:
                j = cols[s]
                m = int(((c[r[:s + 1], j] - v[j])
                         + (dr[:s + 1] - u[r[:s + 1]])).argmin())
                row_of[j], col_of[rows[m]] = rows[m], j
                if m == 0:
                    break
                s = m - 1                # rows[m] held column cols[m - 1]
            v[sc] -= d - np.append(dr[1:], d)
            masked[sc] = v[sc]
            u[start] += d
            u[r[1:]] += d - dr[1:]
        t[cols[-1]] += n * 1j            # the path's end is taken now
    return col_of, u, v


def assign_hungarian(rates: np.ndarray) -> Assignment:
    """Optimal one-to-one carrier-to-terminal assignment.

    Maximises the summed rate. When M > K the matrix is padded with
    zero-rate dummy terminals, reported as unassigned.

    Ties go to the lexicographically smallest map made of tight edges.
    One assignment solve gives an optimum and its dual potentials; an
    edge is tight when its reduced cost is at most ``tol / n``, with
    ``tol = 1e-12 * max(1, |best|)`` and n the padded size, so every such
    map is within ``tol`` of the optimum. Each carrier in turn takes the
    lowest tight terminal that is its partner or lies on an alternating
    cycle through the carriers not yet fixed, and the matching is
    rotated along that cycle.
    """
    r = np.asarray(rates, float)
    if r.ndim != 2:
        raise ConfigurationError("rate matrix must be 2-D")
    if not np.isfinite(r).all():
        raise ConfigurationError("non-finite rate entries")
    m, k = r.shape
    n = max(m, k)
    w = np.zeros((n, n))                 # dummy terminals and carriers rate 0
    w[:m, :k] = r
    col_of, u, v = linear_sum_assignment(-w)
    best = float(w[np.arange(n), col_of].sum())
    tight = -w - u[:, None] - v <= 1e-12 * max(1.0, abs(best)) / max(n, 1)
    row_of = np.argsort(col_of)
    cols, carrier = np.arange(n), 0
    while carrier < m:
        # Carriers below ``carrier`` are fixed, so carrier c can move only
        # to a lower tight column whose owner comes after it (a later
        # carrier or a dummy). Owners change only in a rotation, so one
        # screen of the rest serves every carrier up to the next rotation.
        rest = np.arange(carrier, m)[:, None]
        lower = (tight[carrier:m] & (cols < col_of[carrier:m, None])
                 & (row_of > rest)).any(axis=1)
        into_col = tight[row_of]         # [j, j']: j's carrier may take j'
        for carrier in (np.flatnonzero(lower) + carrier).tolist():
            # reverse BFS: columns that reach ``target`` by an alternating path
            # of tight edges through later carriers; step[j] is the next column
            target, movable = col_of[carrier], row_of > carrier
            reached = np.zeros(n, bool)
            reached[target] = True
            step = np.full(n, -1)
            frontier = np.array([target])
            while frontier.size:
                into = into_col[:, frontier]
                new = movable & ~reached & into.any(axis=1)
                step[new] = frontier[into[new].argmax(axis=1)]
                reached |= new
                frontier = np.nonzero(new)[0]
            col, owner = int(np.argmax(tight[carrier] & reached)), carrier
            if col != target:
                break                    # a lower column to rotate to
        else:
            break                        # no carrier left that can move
        while col != target:             # rotate the matching along the cycle
            mover = row_of[col]
            row_of[col], col_of[owner] = owner, col
            owner, col = mover, step[col]
        row_of[target], col_of[owner] = owner, target
        carrier += 1
    terminal_of = tuple(int(c) if c < k else -1 for c in col_of[:m])
    assigned = np.nonzero(col_of[:m] < k)[0]
    objective = 0.0
    # left to right in carrier order, one rounding per addition (sum()
    # compensates its rounding from Python 3.12 on)
    for rate in r[assigned, col_of[assigned]].tolist():
        objective += rate
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


# the five numbers of an FS station, in the REM file's column order
_STATION_COLUMNS = ("x_km", "y_km", "tx_dbw", "azimuth_deg", "beamwidth_deg")
_STATION_RULE = "FS station needs finite numbers and 0 < beamwidth_deg <= 360"


def _invalid_stations(columns) -> np.ndarray:
    """Mask of the stations whose five ``_STATION_COLUMNS`` break ``_STATION_RULE``."""
    beamwidth = columns[4]
    return ~(np.isfinite(columns).all(axis=0) & (beamwidth > 0)
             & (beamwidth <= 360))


@dataclass(frozen=True)
class FsStations:
    """Incumbent fixed-service transmitters of the radio environment map.

    One equal-length column per field, one entry per station: position
    (km), EIRP (dBW), sector boresight azimuth and beamwidth (degrees) and
    the carrier the station occupies. Every number must be finite and
    every beamwidth in (0, 360]. Azimuths are stored reduced to [0, 360),
    with 360 itself stored as 0. The columns are read-only copies.
    """

    x_km: np.ndarray
    y_km: np.ndarray
    tx_dbw: np.ndarray
    azimuth_deg: np.ndarray
    beamwidth_deg: np.ndarray
    carrier: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, f), float) for f in _STATION_COLUMNS]
        carrier = np.array(self.carrier, int)
        if carrier.ndim != 1 or any(c.shape != carrier.shape for c in columns):
            raise ConfigurationError("FS station columns must be 1-D and of "
                                     "equal length")
        bad = _invalid_stations(columns)
        if bad.any():
            raise ConfigurationError(f"{_STATION_RULE} (station {int(bad.argmax())})")
        azimuth = np.remainder(columns[3], 360, out=columns[3])
        azimuth[azimuth == 360] = 0.0    # a tiny negative azimuth rounds to 360
        for name, column in zip(_STATION_COLUMNS + ("carrier",), columns + [carrier]):
            column.flags.writeable = False
            object.__setattr__(self, name, column)


def load_rem(path, n_carriers: int) -> FsStations:
    """Load FS stations from CSV `station_id,x_km,y_km,tx_dbw,azimuth_deg,beamwidth_deg`.

    Each station occupies carrier ``station_id mod n_carriers``. A row
    that is malformed or breaks ``FsStations``' rules is reported with
    its line number.
    """
    if n_carriers < 1:
        raise ConfigurationError("need n_carriers >= 1")
    carriers, numbers, lines = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                carriers.append(int(row["station_id"]) % n_carriers)
                numbers.append([float(row[f]) for f in _STATION_COLUMNS])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"{path} line {reader.line_num}: missing or non-numeric "
                    f"field ({exc!r})") from None
            lines.append(reader.line_num)
    columns = np.array(numbers, float).reshape(-1, 5).T
    bad = _invalid_stations(columns)
    if bad.any():
        raise ConfigurationError(f"{path} line {lines[bad.argmax()]}: "
                                 f"{_STATION_RULE}")
    return FsStations(*columns, carrier=carriers)


def synthetic_rem(n_stations: int, n_carriers: int, area_km: float,
                  rng: np.random.Generator) -> FsStations:
    """Random FS deployment over a square area."""
    if n_stations < 0 or n_carriers < 1 or area_km < 0:
        raise ConfigurationError("need n_stations >= 0, n_carriers >= 1 "
                                 "and area_km >= 0")
    # per station, five doubles (x, y, EIRP offset, azimuth, beamwidth) and
    # then its carrier, from one stream; rng.uniform's arithmetic maps the
    # doubles afterwards
    draws = np.empty((n_stations, 5))
    carrier = []
    random, integers = rng.random, rng.integers
    for row in draws:
        random(out=row)
        carrier.append(integers(n_carriers))
    lo = np.array([-area_km / 2, -area_km / 2, -3.0, 0.0, 10.0])
    hi = np.array([area_km / 2, area_km / 2, 3.0, 360.0, 40.0])
    x, y, dtx, azimuth, beamwidth = (lo + (hi - lo) * draws).T
    return FsStations(x_km=x, y_km=y, tx_dbw=FS_TX_DBW + dtx,
                      azimuth_deg=azimuth, beamwidth_deg=beamwidth,
                      carrier=carrier)


def interference_table(stations: FsStations, terminal_xy_km: np.ndarray,
                       n_carriers: int) -> np.ndarray:
    """Incumbent interference I_k(m), shape (M, K), linear power.

    Each station radiates its EIRP inside its sector and ``FS_MASK_DB``
    below it outside, with inverse-square path loss referenced at
    ``FS_REF_KM``.
    """
    xy = np.asarray(terminal_xy_km, float)
    out = np.zeros((n_carriers, xy.shape[0]))
    # (S, K) steps run in place: a fresh array of that size costs page faults
    dx = xy[:, 0] - stations.x_km[:, None]
    dy = xy[:, 1] - stations.y_km[:, None]
    off = np.arctan2(dy, dx)
    np.degrees(off, out=off)
    # squared distances, no root taken; a square past the float range is inf
    with np.errstate(over="ignore"):
        d2 = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
    off -= stations.azimuth_deg[:, None]
    off += 180
    # With azimuths in [0, 360), off lies in [-360, 360]. Below 0, its
    # remainder modulo 360 is off + 360, rounded as np.remainder rounds it.
    # At 360 the remainder is 0, and both give 180 after the next two steps.
    np.add(off, 360, out=off, where=off < 0)
    off -= 180
    np.abs(off, out=off)                 # angle off the sector's boresight
    eirp = 10 ** ((stations.tx_dbw[:, None] + np.array([0.0, -FS_MASK_DB])) / 10)
    p = np.where(off <= stations.beamwidth_deg[:, None] / 2,
                 eirp[:, :1], eirp[:, 1:])
    np.maximum(d2, FS_REF_KM ** 2, out=d2)
    p *= np.divide(FS_REF_KM ** 2, d2, out=d2)   # 0 where d2 is inf
    for carrier, row in zip(stations.carrier.tolist(), p):   # in station order
        out[carrier] += row
    return out
