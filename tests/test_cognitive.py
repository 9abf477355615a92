import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from satkit import cognitive as cg
from satkit.scenario import ConfigurationError


def brute_force_best(rates):
    """Enumerate every one-to-one map (M <= K assumed after padding)."""
    m, k = rates.shape
    pad = np.concatenate([rates, np.zeros((m, max(0, m - k)))], axis=1)
    best = -np.inf
    for perm in itertools.permutations(range(pad.shape[1]), m):
        val = pad[np.arange(m), list(perm)].sum()
        best = max(best, val)
    return best


def lsap_optimum(rates):
    rows, cols = linear_sum_assignment(rates, maximize=True)
    return float(rates[rows, cols].sum())


def greedy_lex_oracle(rates):
    """Lexicographic tie-break by repeated solves, against one global tolerance.

    Scanning carriers in order, each takes the lowest free terminal for
    which the carriers fixed so far, this pair and an optimal completion
    of the rest sum to at least ``best - 1e-9 * max(1, |best|)``. One
    assignment solve per candidate; carriers beyond K take zero-rate
    dummy terminals, reported as -1.
    """
    m, k = rates.shape
    work = np.concatenate([rates, np.zeros((m, max(0, m - k)))], axis=1)
    best = lsap_optimum(work)
    fixed, head = [], 0.0
    for carrier in range(m):
        free = [c for c in range(work.shape[1]) if c not in fixed]
        for cand in free:
            sub = work[np.ix_(np.arange(carrier + 1, m),
                              [c for c in free if c != cand])]
            rest = lsap_optimum(sub) if sub.size else 0.0
            if head + work[carrier, cand] + rest >= best - 1e-9 * max(1.0, abs(best)):
                fixed.append(cand)
                head += work[carrier, cand]
                break
    return tuple(c if c < k else -1 for c in fixed)


def per_carrier_tie_break(rates):
    """``assign_hungarian`` with its tie-break run one carrier at a time.

    The same solve and tight edges; each carrier in turn is tested for a
    tight column below its own whose owner is not yet fixed, and, if it
    has one, runs the reverse BFS and rotation. Returns the terminal map,
    the number of rotations and the objective.
    """
    r = np.asarray(rates, float)
    m, k = r.shape
    n = max(m, k)
    w = np.zeros((n, n))
    w[:m, :k] = r
    col_of, u, v = cg.linear_sum_assignment(-w)
    best = float(w[np.arange(n), col_of].sum())
    tight = -w - u[:, None] - v <= 1e-12 * max(1.0, abs(best)) / max(n, 1)
    row_of = np.argsort(col_of)
    free = np.ones(n, bool)
    rotations = 0
    for carrier in range(m):
        free[carrier] = False
        target = col_of[carrier]
        movable = free[row_of]
        if not (tight[carrier, :target] & movable[:target]).any():
            continue
        into_col = tight[row_of]
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
        rotations += col != target
        while col != target:
            mover = row_of[col]
            row_of[col], col_of[owner] = owner, col
            owner, col = mover, step[col]
        row_of[target], col_of[owner] = owner, target
    objective = 0.0
    for c in range(m):
        if col_of[c] < k:
            objective += r[c, col_of[c]]
    return tuple(int(c) if c < k else -1 for c in col_of[:m]), rotations, objective


STAIRCASE_RATES = np.array([0.0] + [r for _, r in cg.MODCOD_TABLE])


class TestSinrMatrix:
    def test_elementwise_definition(self):
        p = np.array([2.0, 4.0])
        i_t = np.array([[1.0, 0.0], [3.0, 1.0]])
        s = cg.build_sinr_matrix(p, i_t, i_co=0.5, n0=0.5)
        # scalar oracle: P(k) / (I(m,k) + I_co + N0)
        for m in range(2):
            for k in range(2):
                want = p[k] / (i_t[m, k] + 0.5 + 0.5)
                assert s.values[m, k] == pytest.approx(want, rel=1e-12)

    def test_no_interference_is_snr(self):
        s = cg.build_sinr_matrix(np.array([3.0]), np.zeros((2, 1)), n0=1.0)
        np.testing.assert_allclose(s.values, 3.0)

    def test_shape_and_sign_validation(self):
        with pytest.raises(ConfigurationError):
            cg.build_sinr_matrix(np.ones(3), np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            cg.build_sinr_matrix(np.ones(2), np.zeros((2, 2)), n0=0.0)
        with pytest.raises(ConfigurationError):
            cg.SinrMatrix(values=np.array([[-1.0]]))


class TestRateMatrix:
    def test_shannon(self):
        s = cg.SinrMatrix(values=np.array([[3.0, 15.0]]))
        np.testing.assert_allclose(cg.rate_matrix(s), [[2.0, 4.0]])

    def test_staircase_quantises(self):
        # 7 dB sits between the 6.42 and 8.97 dB operating points
        s = cg.SinrMatrix(values=np.array([[10 ** 0.7]]))
        assert cg.rate_matrix(s, "staircase")[0, 0] == pytest.approx(1.98)

    def test_staircase_zero_below_lowest(self):
        s = cg.SinrMatrix(values=np.array([[10 ** (-0.5)]]))  # -5 dB
        assert cg.rate_matrix(s, "staircase")[0, 0] == 0.0

    def test_staircase_below_shannon(self):
        rng = np.random.default_rng(0)
        s = cg.SinrMatrix(values=rng.uniform(0, 100, (5, 5)))
        stair = cg.rate_matrix(s, "staircase")
        shan = cg.rate_matrix(s, "shannon")
        assert (stair <= shan + 1e-12).all()

    def test_unknown_mapping(self):
        s = cg.SinrMatrix(values=np.ones((1, 1)))
        with pytest.raises(ConfigurationError):
            cg.rate_matrix(s, "cliff")


class TestAssignment:
    def test_diagonal_dominant(self):
        rates = np.eye(4) * 10 + 0.1
        a = cg.assign_hungarian(rates)
        assert a.terminal_of == (0, 1, 2, 3)
        assert a.objective == pytest.approx(40.4)

    def test_all_equal_tie_break_lexicographic(self):
        a = cg.assign_hungarian(np.ones((3, 3)))
        assert a.terminal_of == (0, 1, 2)

    def test_matches_brute_force_6x7(self):
        rng = np.random.default_rng(1)
        rates = rng.uniform(0, 5, (6, 7))
        a = cg.assign_hungarian(rates)
        assert a.objective == pytest.approx(brute_force_best(rates), rel=1e-12)
        assert len(set(a.terminal_of)) == 6          # one-to-one

    def test_more_carriers_than_terminals(self):
        rates = np.array([[5.0], [1.0], [3.0]])      # M=3, K=1
        a = cg.assign_hungarian(rates)
        assert a.terminal_of == (0, -1, -1)
        assert a.objective == pytest.approx(5.0)
        assert a.pairs() == [(0, 0)]

    def test_beats_random_assignments(self):
        rng = np.random.default_rng(2)
        rates = rng.uniform(0, 1, (5, 5))
        a = cg.assign_hungarian(rates)
        for _ in range(1000):
            perm = rng.permutation(5)
            assert rates[np.arange(5), perm].sum() <= a.objective + 1e-12

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        rates = rng.uniform(0, 2, (4, 4))
        a = cg.assign_hungarian(rates)
        b = cg.assign_hungarian(7.5 * rates)
        assert a.terminal_of == b.terminal_of
        assert b.objective == pytest.approx(7.5 * a.objective, rel=1e-12)

    def test_row_shift_invariance(self):
        # adding a constant to one carrier's row cannot change the optimum map
        rng = np.random.default_rng(4)
        rates = rng.uniform(0, 2, (4, 4))
        shifted = rates.copy()
        shifted[2] += 3.0
        a = cg.assign_hungarian(rates)
        b = cg.assign_hungarian(shifted)
        assert a.terminal_of == b.terminal_of

    @given(hnp.arrays(float, (4, 4),
                      elements=st.floats(0, 10, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_optimal_against_enumeration(self, rates):
        a = cg.assign_hungarian(rates)
        assert a.objective == pytest.approx(brute_force_best(rates),
                                            abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 7, 19, 40])
    def test_matches_greedy_oracle_on_exact_ties(self, m):
        # staircase-valued rates: many exactly tied optima, M > K and M < K
        rng = np.random.default_rng(m)
        for k in (1, 3, 8, 20, 40):
            rates = STAIRCASE_RATES[rng.integers(0, 6, (m, k))]
            assert (cg.assign_hungarian(rates).terminal_of
                    == greedy_lex_oracle(rates)), (m, k)

    def test_tie_break_ignores_row_and_column_offsets(self):
        # a constant added to a whole row or column of a square matrix
        # shifts every map's sum alike, so the tied optima stay the same
        rng = np.random.default_rng(9)
        for n in (2, 5, 12, 30):
            rates = rng.integers(0, 3, (n, n)).astype(float)
            shifted = (rates + rng.integers(0, 50, (n, 1))
                       + rng.integers(0, 50, (1, n)))
            want = greedy_lex_oracle(rates)
            assert cg.assign_hungarian(rates).terminal_of == want
            assert cg.assign_hungarian(shifted).terminal_of == want

    def test_matches_greedy_oracle_on_continuous_rates(self):
        rng = np.random.default_rng(11)
        for m, k in [(5, 5), (9, 4), (4, 9), (25, 25), (30, 12), (12, 30)]:
            rates = rng.uniform(0, 6, (m, k))
            assert (cg.assign_hungarian(rates).terminal_of
                    == greedy_lex_oracle(rates)), (m, k)

    def test_matches_greedy_oracle_on_mixed_instances(self):
        # rectangular and tie-rich: staircase, continuous and rounded rates
        rng = np.random.default_rng(12)
        instances = [STAIRCASE_RATES[rng.integers(0, 5, (m, k))]
                     for m, k in [(7, 7), (12, 5), (5, 12), (40, 40), (30, 45)]]
        instances += [rng.uniform(0, 6, (m, k))
                      for m, k in [(9, 4), (4, 9), (33, 20), (20, 33)]]
        instances += [np.round(rng.uniform(0, 3, (m, k)), 1)
                      for m, k in [(15, 15), (25, 10), (10, 25)]]
        for rates in instances:
            a = cg.assign_hungarian(rates)
            assert a.terminal_of == greedy_lex_oracle(rates), rates.shape
            assert a.objective == pytest.approx(lsap_optimum(rates), rel=1e-12)

    def test_screen_matches_per_carrier_loop(self):
        # one screen per rotation against the loop over every carrier:
        # the same map and the same objective bits, on integer,
        # half-integer, continuous and staircase rates, M != K included,
        # plus tied instances built here
        rng = np.random.default_rng(13)
        draws = [lambda m, k: rng.integers(0, 4, (m, k)) * 1.0,
                 lambda m, k: rng.integers(0, 7, (m, k)) / 2.0,
                 lambda m, k: rng.uniform(0, 5, (m, k)),
                 lambda m, k: STAIRCASE_RATES[rng.integers(0, 6, (m, k))]]
        instances = [draws[i % 4](*rng.integers(1, 30, 2)) for i in range(320)]
        for n in (3, 6, 15, 40):
            # all maps tied (row plus column offsets), repeated carriers
            # and terminals, and repeated blocks of a rectangular shape
            instances.append(np.ones((n, n)))
            instances.append(rng.integers(0, 3, (n, 1)) * 1.0
                             + rng.integers(0, 3, (1, n)))
            instances.append(np.kron(np.ones((2, 2)), rng.integers(0, 3, (n, n))))
            instances.append(np.kron(rng.integers(0, 2, (n, n)), np.ones((2, 3))))
        rotated = 0
        for rates in instances:
            want, rotations, objective = per_carrier_tie_break(rates)
            a = cg.assign_hungarian(rates)
            assert a.terminal_of == want, rates.shape
            assert a.objective.hex() == objective.hex(), rates.shape
            rotated += rotations > 0
        assert rotated >= 100                      # the rotations are tested too

    def test_one_assignment_solve(self, monkeypatch):
        calls = []
        solve = cg.linear_sum_assignment

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cg, "linear_sum_assignment", counted)
        rates = STAIRCASE_RATES[np.random.default_rng(6).integers(0, 4, (60, 60))]
        a = cg.assign_hungarian(rates)
        assert len(calls) == 1
        assert a.objective == pytest.approx(lsap_optimum(rates), rel=1e-12)

    def test_near_tie_keeps_the_exact_optimum(self):
        # Carriers 0 and 1 are interference-free, so their rows are
        # identical; carrier 2 is nearly clean and gains delta on terminal
        # 0. The optimum gives terminal 0 to carrier 2: map (1, 2, 0),
        # 4 + delta. Map (0, 1, 2) loses delta, which lies inside the
        # greedy oracle's global tolerance 1e-9 * best but above the
        # one-solve rule's per-edge tolerance 1e-12 * best / n: the greedy
        # oracle drifts to it, the one-solve rule keeps the optimum. A loss
        # at or below 1e-12 * best / n per edge would count as a tie for
        # both.
        delta = 3e-9
        rates = np.array([[2.0, 1.0, 1.0], [2.0, 1.0, 1.0], [2.0 + delta, 1.0, 1.0]])
        best = lsap_optimum(rates)
        assert greedy_lex_oracle(rates) == (0, 1, 2)
        assert sum(rates[i, c] for i, c in enumerate((0, 1, 2))) < best
        a = cg.assign_hungarian(rates)
        assert a.terminal_of == (1, 2, 0)
        assert a.objective == pytest.approx(best, rel=1e-12, abs=0)

    def test_tiny_rate_is_no_tie(self):
        # reduced cost 1e-9 on carrier 0's other terminals: a real rate,
        # far above round-off, so the map must still take it
        rates = np.zeros((4, 4))
        rates[0, 2], rates[1, 0] = 1e-9, 4.0
        a = cg.assign_hungarian(rates)
        assert a.terminal_of[:2] == (2, 0)
        assert a.objective == pytest.approx(brute_force_best(rates),
                                            rel=1e-15, abs=0)

    def test_tight_maps_stay_within_tolerance(self):
        # clean carriers (identical rows) next to carriers with incumbent
        # interference over 10 decades, down to near-ties
        for seed in range(4):
            rng = np.random.default_rng(seed)
            interf = 10 ** rng.uniform(-9, 1, (20, 20))
            interf[:6] = 0.0
            rates = np.log2(1 + rng.uniform(5, 50, 20) / (interf + 1.5))
            best = lsap_optimum(rates)
            a = cg.assign_hungarian(rates)
            assert sorted(a.terminal_of) == list(range(20))
            assert best - 1e-9 * best <= a.objective <= best + 1e-12 * best

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            cg.assign_hungarian(np.ones(3))
        with pytest.raises(ConfigurationError):
            cg.assign_hungarian(np.array([[np.inf]]))


# draw families of square cost matrices for the solver
SOLVER_DRAWS = pytest.mark.parametrize("seed, draw", list(enumerate([
    lambda rng, n: rng.integers(0, 5, (n, n)) * 1.0,          # exact ties
    lambda rng, n: rng.standard_normal((n, n)),
    lambda rng, n: 3.5 - rng.exponential(1e-4, (n, n)),     # near-constant
    lambda rng, n: np.round(rng.random((n, n)) * 1e6)])),     # coarse
    ids=["integer ties", "normal", "near-constant", "coarse 1e6"])


class TestLinearSumAssignment:
    """The numpy solver against scipy's, on square instances."""

    @SOLVER_DRAWS
    def test_matches_scipy_optimum(self, seed, draw):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            n = int(rng.integers(1, 40))
            cost = draw(rng, n)
            cols, _, _ = cg.linear_sum_assignment(cost)
            want_rows, want_cols = linear_sum_assignment(cost)
            assert sorted(cols) == list(range(n))
            got = cost[np.arange(n), cols].sum()
            want = cost[want_rows, want_cols].sum()
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, got, want)

    @SOLVER_DRAWS
    def test_duals_certify_the_matching(self, seed, draw):
        # dual feasibility everywhere and complementary slackness on the
        # matched edges, to round-off: the tie-break's tight edges rest on it
        rng = np.random.default_rng(100 + seed)
        for _ in range(75):
            n = int(rng.integers(1, 40))
            cost = draw(rng, n)
            cols, u, v = cg.linear_sum_assignment(cost)
            reduced = cost - u[:, None] - v
            scale = max(1.0, np.abs(cost).max())
            assert reduced.min() >= -1e-12 * scale, n
            assert np.abs(reduced[np.arange(n), cols]).max() <= 1e-12 * scale, n

    def test_benchmark_sized_instances(self):
        # a tie-rich staircase and a Shannon instance with identical clean rows
        rng = np.random.default_rng(4)
        interf = 10 ** rng.uniform(-3, 2, (150, 150))
        interf[:20] = 0.0
        for rates in (cg.rate_matrix(cg.build_sinr_matrix(
                          np.full(150, 30.0), interf), mapping)
                      for mapping in ("staircase", "shannon")):
            cols, _, _ = cg.linear_sum_assignment(-rates)
            want_rows, want_cols = linear_sum_assignment(rates, maximize=True)
            assert rates[np.arange(150), cols].sum() == pytest.approx(
                rates[want_rows, want_cols].sum(), rel=1e-13, abs=0)

    def test_rejects_bad_input(self):
        for cost in (np.ones((2, 3)), np.ones(3), np.array([[np.nan]])):
            with pytest.raises(ConfigurationError):
                cg.linear_sum_assignment(cost)

    def test_empty(self):
        cols, u, v = cg.linear_sum_assignment(np.zeros((0, 0)))
        assert cols.size == u.size == v.size == 0


class TestThroughputReport:
    def test_gain_factor(self):
        # carriers 0 and 2 are clean: exclusive band 3 + 0, shared 5 + 3
        rates = np.array([[1.0, 3.0], [5.0, 0.0], [0.0, 1.0]])
        interf = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        shared = cg.assign_hungarian(rates)
        assert cg.throughput_report(rates, interf, shared) == (
            pytest.approx(3.0), pytest.approx(8.0 / 3.0))

    def test_zero_baseline_gives_inf(self):
        rates = np.array([[1.0, 3.0], [5.0, 0.0]])
        shared = cg.assign_hungarian(rates)
        none_clean = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cg.throughput_report(rates, none_clean, shared) == (0.0, np.inf)
        all_clean_no_rate = np.zeros((2, 2))
        assert cg.throughput_report(all_clean_no_rate, all_clean_no_rate,
                                    shared) == (0.0, np.inf)


def one_station(**fields):
    """An FsStations of one station at the origin, 10 dBW, boresight 0 deg."""
    return cg.FsStations(**{"x_km": [0.0], "y_km": [0.0], "tx_dbw": [10.0],
                            "azimuth_deg": [0.0], "beamwidth_deg": [30.0],
                            "carrier": [0],
                            **{k: [v] for k, v in fields.items()}})


class TestRem:
    def test_loader_roundtrip(self, tmp_path):
        path = tmp_path / "rem.csv"
        path.write_text(
            "station_id,x_km,y_km,tx_dbw,azimuth_deg,beamwidth_deg\n"
            "0,1.0,2.0,10.0,45.0,20.0\n"
            "5,-3.0,0.5,12.5,180.0,30.0\n"
            "2,0.0,0.0,10.0,-90.0,360.0\n"
            "3,0.0,0.0,10.0,450.0,0.5\n")
        stations = cg.load_rem(path, n_carriers=4)
        assert stations.x_km.tolist() == [1.0, -3.0, 0.0, 0.0]
        assert stations.carrier.tolist() == [0, 1, 2, 3]     # station_id mod 4
        assert stations.tx_dbw[1] == 12.5
        # azimuths are stored in [0, 360)
        assert stations.azimuth_deg.tolist() == [45.0, 180.0, 270.0, 90.0]
        with pytest.raises(ConfigurationError):       # no carrier to occupy
            cg.load_rem(path, n_carriers=0)

    def test_columns_are_read_only_copies(self):
        x = np.array([1.0, 2.0])
        stations = cg.FsStations(x_km=x, y_km=[0.0, 0.0], tx_dbw=[0.0, 0.0],
                                 azimuth_deg=[0.0, 0.0], beamwidth_deg=[9.0, 9.0],
                                 carrier=[0, 1])
        x[0] = 5.0
        assert stations.x_km[0] == 1.0
        with pytest.raises(ValueError):
            stations.x_km[0] = 5.0

    @pytest.mark.parametrize("azimuth, stored", [
        (360.0, 0.0), (-90.0, 270.0), (720.0, 0.0), (-1e-20, 0.0),
        (np.nextafter(360.0, 0.0), np.nextafter(360.0, 0.0)), (0.0, 0.0)])
    def test_azimuth_stored_in_0_360(self, azimuth, stored):
        assert one_station(azimuth_deg=azimuth).azimuth_deg[0] == stored

    @pytest.mark.parametrize("fields", [
        {"beamwidth_deg": 0.0}, {"beamwidth_deg": -20.0},
        {"beamwidth_deg": 720.0}, {"beamwidth_deg": np.nan},
        {"x_km": np.inf}, {"y_km": np.nan}, {"tx_dbw": -np.inf},
        {"azimuth_deg": np.inf}])
    def test_station_no_model_allows(self, fields):
        with pytest.raises(ConfigurationError, match="beamwidth_deg <= 360"):
            one_station(**fields)

    def test_unequal_columns(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            cg.FsStations(x_km=[0.0, 1.0], y_km=[0.0], tx_dbw=[0.0],
                          azimuth_deg=[0.0], beamwidth_deg=[9.0], carrier=[0])

    def test_synthetic_rem_fields(self):
        stations = cg.synthetic_rem(20, 4, 100.0, np.random.default_rng(0))
        assert stations.carrier.shape == (20,)
        assert (np.abs(stations.x_km) <= 50).all()
        assert (np.abs(stations.y_km) <= 50).all()
        assert ((0 <= stations.carrier) & (stations.carrier < 4)).all()

    def test_synthetic_rem_matches_scalar_draws(self):
        # five scalar uniform draws and one integer draw per station, in
        # that order: the same stations and the same generator state after
        def scalar_rem(n_stations, n_carriers, area_km, rng):
            rows = [(float(rng.uniform(-area_km / 2, area_km / 2)),
                     float(rng.uniform(-area_km / 2, area_km / 2)),
                     float(cg.FS_TX_DBW + rng.uniform(-3, 3)),
                     float(rng.uniform(0, 360)),
                     float(rng.uniform(10, 40)),
                     int(rng.integers(n_carriers)))
                    for _ in range(n_stations)]
            return [list(column) for column in zip(*rows)] or [[]] * 6

        fields = ("x_km", "y_km", "tx_dbw", "azimuth_deg", "beamwidth_deg",
                  "carrier")
        for seed, (n, m, area) in enumerate([(400, 200, 50.0), (200, 100, 200.0),
                                             (0, 3, 10.0), (17, 5, 0.0)]):
            got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
            got = cg.synthetic_rem(n, m, area, got_rng)
            want = scalar_rem(n, m, area, want_rng)
            assert [getattr(got, f).tolist() for f in fields] == want
            assert got_rng.random() == want_rng.random()

    def test_interference_in_sector_closed_form(self):
        # terminal on boresight at 2 km: EIRP * (1 km / 2 km)^2
        i_t = cg.interference_table(one_station(carrier=1),
                                    np.array([[2.0, 0.0]]), 3)
        assert i_t[1, 0] == pytest.approx(10.0 * 0.25, rel=1e-12)
        assert i_t[0, 0] == 0.0 and i_t[2, 0] == 0.0

    def test_sector_mask_attenuation(self):
        on = cg.interference_table(one_station(), np.array([[2.0, 0.0]]), 1)
        off = cg.interference_table(one_station(), np.array([[-2.0, 0.0]]), 1)
        assert off[0, 0] == pytest.approx(on[0, 0] * 10 ** (-2.5), rel=1e-12)

    def test_sector_edges_are_inside(self):
        # a 180-degree sector facing +y covers the x axis on both sides
        st_ = one_station(azimuth_deg=90.0, beamwidth_deg=180.0)
        i_t = cg.interference_table(st_, np.array([[2.0, 0.0], [-2.0, 0.0]]), 1)
        assert i_t[0].tolist() == [2.5, 2.5]

    def test_path_loss_clamped_at_reference(self):
        st_ = one_station(tx_dbw=0.0, beamwidth_deg=360.0)
        near = cg.interference_table(st_, np.array([[0.1, 0.0]]), 1)
        at_ref = cg.interference_table(st_, np.array([[1.0, 0.0]]), 1)
        assert near[0, 0] == pytest.approx(at_ref[0, 0], rel=1e-12)

    def test_interference_matches_station_loop(self):
        def station_loop(stations, xy, n_carriers, squared=True):
            # squared: the path-loss factor from d^2 = dx^2 + dy^2, as the
            # table forms it; otherwise from the distance np.hypot gives
            mask_db, ref_km = 25.0, 1.0
            out = np.zeros((n_carriers, xy.shape[0]))
            for x, y, tx_dbw, azimuth, beamwidth, carrier in zip(
                    stations.x_km, stations.y_km, stations.tx_dbw,
                    stations.azimuth_deg, stations.beamwidth_deg,
                    stations.carrier):
                dx, dy = xy[:, 0] - x, xy[:, 1] - y
                if squared:
                    loss = ref_km ** 2 / np.maximum(dx ** 2 + dy ** 2, ref_km ** 2)
                else:
                    loss = (ref_km / np.maximum(np.hypot(dx, dy), ref_km)) ** 2
                az = np.degrees(np.arctan2(dy, dx))
                off = np.abs((az - azimuth + 180) % 360 - 180)
                gain_db = np.where(off <= beamwidth / 2, 0.0, -mask_db)
                out[carrier] += 10 ** ((tx_dbw + gain_db) / 10) * loss
            return out

        rng = np.random.default_rng(8)
        instances = [(cg.synthetic_rem(n_st, m, area, rng),
                      rng.uniform(-area / 2, area / 2, (k, 2)), m)
                     for n_st, m, k, area in [(120, 30, 40, 50.0),
                                              (60, 3, 25, 200.0),
                                              (0, 4, 5, 10.0), (7, 5, 0, 10.0)]]
        # the wrap's edges: terminals on the axes (angles 0, +-90 and 180
        # degrees), boresights 0, 90 and the largest float below 360
        edge = [0.0, 90.0, 180.0, np.nextafter(360.0, 0.0)]
        azimuth = np.repeat(edge, 4)
        instances.append((cg.FsStations(
            x_km=np.zeros(16), y_km=np.zeros(16), tx_dbw=np.full(16, 10.0),
            azimuth_deg=azimuth, beamwidth_deg=np.tile([1.0, 90.0, 180.0, 360.0], 4),
            carrier=np.arange(16) % 2),
            np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0],
                      [-2.0, -1e-300], [-2.0, 1e-300], [3.0, 3.0]]), 2))
        for stations, xy, m in instances:
            got = cg.interference_table(stations, xy, m)
            want = station_loop(stations, xy, m)
            assert got.shape == want.shape
            assert np.array_equal(got, want)       # bit for bit
            # the distance's root and square round differently: the two
            # formulas agree to a few units in the last place
            np.testing.assert_allclose(
                got, station_loop(stations, xy, m, squared=False),
                rtol=1e-15, atol=0)

    def test_end_to_end_shared_band_gain(self):
        # full pipeline: REM -> interference -> SINR -> rates -> assignment
        rng = np.random.default_rng(5)
        stations = cg.synthetic_rem(12, 4, 60.0, rng)
        xy = rng.uniform(-30, 30, (4, 2))
        i_t = cg.interference_table(stations, xy, 4)
        s = cg.build_sinr_matrix(np.full(4, 20.0), i_t)
        rates = cg.rate_matrix(s)
        best = cg.assign_hungarian(rates)
        worst = min(rates[np.arange(4), list(p)].sum()
                    for p in itertools.permutations(range(4)))
        assert best.objective >= worst - 1e-12
        assert sorted(k for k in best.terminal_of) == [0, 1, 2, 3]
