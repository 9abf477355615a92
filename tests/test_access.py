import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from access_reference import hk_corner
from satkit import access as ac
from satkit.scenario import ConfigurationError

# symmetric setup: 0 dB direct gains, -2 dB cross gains
CROSS = 10 ** (-0.2)


def sym_channel(p=10.0):
    return ac.TwoUserChannel(g11=1.0, g21=CROSS, g12=CROSS, g22=1.0,
                             p1=p, p2=p)


def point(r1, r2):
    """A region of one point and no parameters."""
    return ac.RateRegion(np.array([r1]), np.array([r2]), np.empty((1, 0)))


gains = st.floats(0.0, 100.0, allow_nan=False)
powers = st.floats(0.01, 1000.0, allow_nan=False)


@st.composite
def channels(draw):
    return ac.TwoUserChannel(g11=draw(gains), g21=draw(gains),
                             g12=draw(gains), g22=draw(gains),
                             p1=draw(powers), p2=draw(powers))


lam_grids = st.one_of(
    st.sampled_from([1, 2, 21]).map(lambda n: np.linspace(0.0, 1.0, n)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24).map(np.array))


class TestIan:
    def test_no_interference(self):
        ch = ac.TwoUserChannel(g11=3.0, g21=0.0, g12=0.0, g22=7.0,
                               p1=2.0, p2=1.0)
        pt = ac.rate_ian(ch)
        assert pt.r1[0] == pytest.approx(np.log2(7.0))
        assert pt.r2[0] == pytest.approx(np.log2(8.0))

    def test_symmetric_channel(self):
        pt = ac.rate_ian(sym_channel())
        assert pt.r1[0] == pt.r2[0]

    def test_reference_parameters_hand_value(self):
        # log2(1 + 10 / (1 + 10 * 10^-0.2)), evaluated by hand
        pt = ac.rate_ian(sym_channel(10.0))
        assert pt.r1[0] == pytest.approx(1.2437110489108670, abs=1e-12)


class TestScd:
    def test_one_point_per_public_user(self):
        reg = ac.rate_scd(sym_channel())
        assert reg.params.tolist() == [[1.0], [2.0]]

    def test_huge_cross_gain_unconstrained(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.5, g12=1e12, g22=1.0,
                               p1=5.0, p2=5.0)
        pt = ac.rate_scd(ch)
        assert pt.r1[0] == pytest.approx(np.log2(1 + 5.0 / (1 + 2.5)))
        assert pt.r2[0] == pytest.approx(np.log2(6.0))

    def test_zero_cross_gain_kills_public(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.5, g12=0.0, g22=1.0,
                               p1=5.0, p2=5.0)
        assert ac.rate_scd(ch).r1[0] == 0.0

    def test_dominates_ian_in_r2(self):
        # with user 1 public, receiver 2 cancels it and improves its rate
        ch = sym_channel()
        assert ac.rate_scd(ch).r2[0] > ac.rate_ian(ch).r2[0]

    def test_mirror_order(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.3, g12=0.6, g22=0.9,
                               p1=4.0, p2=7.0)
        a = ac.rate_scd(ch)
        b = ac.rate_scd(ch.swapped())
        assert (a.r1[1], a.r2[1]) == (b.r2[0], b.r1[0])


class TestSnd:
    def test_skip_condition_falls_back_to_ian(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=1e-6, g12=1e-6, g22=1.0,
                               p1=10.0, p2=10.0)
        pt = ac.rate_snd(ch)
        ian = ac.rate_ian(ch)
        assert (pt.r1[0], pt.r2[0]) == pytest.approx((ian.r1[0], ian.r2[0]))

    def test_zero_cross_equals_single_user(self):
        ch = ac.TwoUserChannel(g11=2.0, g21=0.0, g12=0.0, g22=3.0,
                               p1=1.0, p2=1.0)
        pt = ac.rate_snd(ch)
        assert pt.r1[0] == pytest.approx(np.log2(3.0))
        assert pt.r2[0] == pytest.approx(np.log2(4.0))

    def test_strong_interference_beats_ian(self):
        for p in (1.0, 10.0, 100.0):
            ch = ac.TwoUserChannel(g11=1.0, g21=2.0, g12=2.0, g22=1.0,
                                   p1=p, p2=p)
            snd = ac.rate_snd(ch)
            ian = ac.rate_ian(ch)
            assert snd.r1[0] >= ian.r1[0] and snd.r2[0] >= ian.r2[0]


class TestFdm:
    def test_half_split_closed_form(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.4, g12=0.4, g22=1.0,
                               p1=6.0, p2=6.0)
        pt = ac.rate_fdm(ch, [0.5])
        assert pt.r1[0] + pt.r2[0] == pytest.approx(np.log2(1 + 12.0))

    def test_beta_to_zero(self):
        ch = sym_channel()
        assert ac.rate_fdm(ch, [1e-9]).r1[0] < 1e-6

    def test_one_point_per_split(self):
        betas = np.array([0.2, 0.5, 0.7])
        reg = ac.rate_fdm(sym_channel(), betas)
        assert reg.params[:, 0].tolist() == betas.tolist()
        assert reg.r1[1] == ac.rate_fdm(sym_channel(), [0.5]).r1[0]

    def test_invalid_beta(self):
        for beta in ([0.0], [0.5, 1.0]):
            with pytest.raises(ConfigurationError):
                ac.rate_fdm(sym_channel(), beta)


class TestHk:
    def test_degenerate_grid_exact_points(self):
        ch = sym_channel()
        reg = ac.hk_region(ch, [0.0, 1.0])
        got = set(zip(np.round(reg.r1, 12), np.round(reg.r2, 12)))
        ian = ac.rate_ian(ch)
        scd = ac.rate_scd(ch)
        ap = hk_corner(ch, 0.0, 0.0)      # all-public point
        want = set(zip(np.round([ian.r1[0], *scd.r1, ap[0]], 12),
                       np.round([ian.r2[0], *scd.r2, ap[1]], 12)))
        assert got == want
        assert len(got) == 4

    def test_zero_cross_collapses_to_rectangle(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.0, g12=0.0, g22=1.0,
                               p1=10.0, p2=10.0)
        reg = ac.hk_region(ch, np.linspace(0, 1, 5))
        r_max = np.log2(11.0)
        assert np.all(reg.r1 <= r_max + 1e-12)
        assert np.all(reg.r2 <= r_max + 1e-12)
        assert ac.frontier_dominates(reg, point(r_max, r_max))

    def test_frontier_dominates_ian_frontier(self):
        regions = ac.region_sweep(sym_channel(1.0),
                                  [1.0, 5.0, 10.0, 50.0],
                                  strategies=("ian", "hk"))
        assert ac.frontier_dominates(regions["hk"], regions["ian"])

    @given(channels(), lam_grids)
    @settings(max_examples=60, deadline=None)
    @example(ac.TwoUserChannel(0.0, 0.0, 0.0, 0.0, 1.0, 1.0),
             np.array([0.0]))
    def test_corners_match_scalar_reference_bit_for_bit(self, ch, lam):
        reg = ac.hk_region(ch, lam)
        want = np.array([(l1, l2, *hk_corner(ch, float(l1), float(l2)))
                         for l1 in lam for l2 in lam])
        got = np.column_stack((reg.params, reg.r1, reg.r2))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @given(channels(), lam_grids)
    @settings(max_examples=50, deadline=None)
    def test_swap_symmetry(self, ch, lam):
        n = len(lam)
        a = ac.hk_region(ch, lam)
        b = ac.hk_region(ch.swapped(), lam)
        # corner (λ1, λ2) of ch against corner (λ2, λ1) of the swapped one
        b_r1 = b.r1.reshape(n, n).T.ravel()
        b_r2 = b.r2.reshape(n, n).T.ravel()
        np.testing.assert_allclose(a.r1, b_r2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.r2, b_r1, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lam", [[0.5, 1.5], [-0.1], [np.nan]])
    def test_power_split_outside_unit_interval(self, lam):
        with pytest.raises(ConfigurationError):
            ac.hk_region(sym_channel(), lam)


class TestStrategyProperties:
    @given(channels())
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry_all_strategies(self, ch):
        sw = ch.swapped()
        for fwd, rev in ((ac.rate_ian(ch), ac.rate_ian(sw)),
                         (ac.rate_fdm(ch, [0.3]), ac.rate_fdm(sw, [0.7])),
                         (ac.rate_snd(ch), ac.rate_snd(sw))):
            np.testing.assert_allclose(fwd.r1, rev.r2, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fwd.r2, rev.r1, rtol=0, atol=1e-12)

    @given(channels(), st.floats(1.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_own_power(self, ch, factor):
        from dataclasses import replace
        bigger = replace(ch, p1=ch.p1 * factor)
        assert ac.rate_ian(bigger).r1[0] >= ac.rate_ian(ch).r1[0] - 1e-12
        assert (ac.rate_fdm(bigger, [0.5]).r1[0]
                >= ac.rate_fdm(ch, [0.5]).r1[0] - 1e-12)
        assert ac.rate_scd(bigger).r1[1] >= ac.rate_scd(ch).r1[1] - 1e-12

    @given(channels())
    @settings(max_examples=40, deadline=None)
    def test_rates_non_negative(self, ch):
        for reg in (ac.rate_ian(ch), ac.rate_scd(ch), ac.rate_snd(ch),
                    ac.rate_fdm(ch, [0.5])):
            assert np.all(reg.r1 >= 0.0) and np.all(reg.r2 >= 0.0)

    @given(channels())
    @settings(max_examples=40, deadline=None)
    def test_ian_inside_hk_region(self, ch):
        reg = ac.hk_region(ch, np.linspace(0, 1, 5))
        assert ac.frontier_dominates(reg, ac.rate_ian(ch))


def brute_force_frontier(r1, r2):
    """O(n²) oracle: no point of other rates is at least as good in both."""
    return [not any(b1 >= a1 and b2 >= a2 and (b1, b2) != (a1, a2)
                    for b1, b2 in zip(r1, r2))
            for a1, a2 in zip(r1, r2)]


# few distinct rates, so that pairs repeat and share R1 or R2
tied_points = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                                 st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                       min_size=1, max_size=40)


class TestParetoFrontier:
    def test_basic(self):
        r1 = np.array([1, 2, 0.5, 0.9])
        r2 = np.array([1, 0.5, 2, 0.9])
        assert ac.pareto_frontier(r1, r2).tolist() == [True, True, True,
                                                       False]

    def test_equal_points_share_their_verdict(self):
        r1 = np.array([2, 1, 0.5, 2, 1, 1])
        r2 = np.array([0.5, 1, 2, 0.5, 0.8, 1])
        assert ac.pareto_frontier(r1, r2).tolist() == [
            True, True, True, True, False, True]

    @given(tied_points)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, pts):
        r1, r2 = np.array(pts).T
        assert ac.pareto_frontier(r1, r2).tolist() == brute_force_frontier(
            r1.tolist(), r2.tolist())

    def test_frontier_is_non_dominated(self):
        rng = np.random.default_rng(0)
        r1, r2 = rng.uniform(0, 5, (2, 50))
        assert ac.pareto_frontier(r1, r2).tolist() == brute_force_frontier(
            r1.tolist(), r2.tolist())

    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=30) | tied_points, st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, coords, rnd):
        r1, r2 = np.array(coords).T
        perm = list(range(len(coords)))
        rnd.shuffle(perm)
        mask = ac.pareto_frontier(r1, r2)
        assert ac.pareto_frontier(r1[perm], r2[perm]).tolist() == \
            mask[perm].tolist()
