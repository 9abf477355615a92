import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit import access as ac
from satkit.scenario import ConfigurationError

# symmetric setup: 0 dB direct gains, -2 dB cross gains
CROSS = 10 ** (-0.2)


def sym_channel(p=10.0):
    return ac.TwoUserChannel(g11=1.0, g21=CROSS, g12=CROSS, g22=1.0,
                             p1=p, p2=p)


gains = st.floats(0.0, 100.0, allow_nan=False)
powers = st.floats(0.01, 1000.0, allow_nan=False)


@st.composite
def channels(draw):
    return ac.TwoUserChannel(g11=draw(gains), g21=draw(gains),
                             g12=draw(gains), g22=draw(gains),
                             p1=draw(powers), p2=draw(powers))


class TestIan:
    def test_no_interference(self):
        ch = ac.TwoUserChannel(g11=3.0, g21=0.0, g12=0.0, g22=7.0,
                               p1=2.0, p2=1.0)
        pt = ac.rate_ian(ch)
        assert pt.r1 == pytest.approx(np.log2(7.0))
        assert pt.r2 == pytest.approx(np.log2(8.0))

    def test_symmetric_channel(self):
        pt = ac.rate_ian(sym_channel())
        assert pt.r1 == pt.r2

    def test_reference_parameters_hand_value(self):
        # log2(1 + 10 / (1 + 10 * 10^-0.2)), evaluated by hand
        pt = ac.rate_ian(sym_channel(10.0))
        assert pt.r1 == pytest.approx(1.2437110489108670, abs=1e-12)


class TestScd:
    def test_huge_cross_gain_unconstrained(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.5, g12=1e12, g22=1.0,
                               p1=5.0, p2=5.0)
        pt = ac.rate_scd(ch, 1)
        assert pt.r1 == pytest.approx(np.log2(1 + 5.0 / (1 + 2.5)))
        assert pt.r2 == pytest.approx(np.log2(6.0))

    def test_zero_cross_gain_kills_public(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.5, g12=0.0, g22=1.0,
                               p1=5.0, p2=5.0)
        assert ac.rate_scd(ch, 1).r1 == 0.0

    def test_dominates_ian_in_r2(self):
        # with user 1 public, receiver 2 cancels it and improves its rate
        ch = sym_channel()
        assert ac.rate_scd(ch, 1).r2 > ac.rate_ian(ch).r2

    def test_mirror_order(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.3, g12=0.6, g22=0.9,
                               p1=4.0, p2=7.0)
        a = ac.rate_scd(ch, 2)
        b = ac.rate_scd(ch.swapped(), 1)
        assert (a.r1, a.r2) == (b.r2, b.r1)


class TestSnd:
    def test_skip_condition_falls_back_to_ian(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=1e-6, g12=1e-6, g22=1.0,
                               p1=10.0, p2=10.0)
        pt = ac.rate_snd(ch)
        ian = ac.rate_ian(ch)
        assert (pt.r1, pt.r2) == pytest.approx((ian.r1, ian.r2))

    def test_zero_cross_equals_single_user(self):
        ch = ac.TwoUserChannel(g11=2.0, g21=0.0, g12=0.0, g22=3.0,
                               p1=1.0, p2=1.0)
        pt = ac.rate_snd(ch)
        assert pt.r1 == pytest.approx(np.log2(3.0))
        assert pt.r2 == pytest.approx(np.log2(4.0))

    def test_strong_interference_beats_ian(self):
        for p in (1.0, 10.0, 100.0):
            ch = ac.TwoUserChannel(g11=1.0, g21=2.0, g12=2.0, g22=1.0,
                                   p1=p, p2=p)
            snd = ac.rate_snd(ch)
            ian = ac.rate_ian(ch)
            assert snd.r1 >= ian.r1 and snd.r2 >= ian.r2


class TestFdm:
    def test_half_split_closed_form(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.4, g12=0.4, g22=1.0,
                               p1=6.0, p2=6.0)
        pt = ac.rate_fdm(ch, 0.5)
        assert pt.r1 + pt.r2 == pytest.approx(np.log2(1 + 12.0))

    def test_beta_to_zero(self):
        ch = sym_channel()
        assert ac.rate_fdm(ch, 1e-9).r1 < 1e-6

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            ac.rate_fdm(sym_channel(), 0.0)


class TestHk:
    def test_degenerate_grid_exact_points(self):
        ch = sym_channel()
        got = {(round(p.r1, 12), round(p.r2, 12))
               for p in ac.hk_region(ch, [0.0, 1.0]).points}
        ian = ac.rate_ian(ch)
        scd1 = ac.rate_scd(ch, 1)
        scd2 = ac.rate_scd(ch, 2)
        ap = ac.hk_corner(ch, 0.0, 0.0)      # all-public point
        want = {(round(p.r1, 12), round(p.r2, 12))
                for p in (ian, scd1, scd2, ap)}
        assert got == want
        assert len(got) == 4

    def test_zero_cross_collapses_to_rectangle(self):
        ch = ac.TwoUserChannel(g11=1.0, g21=0.0, g12=0.0, g22=1.0,
                               p1=10.0, p2=10.0)
        reg = ac.hk_region(ch, np.linspace(0, 1, 5))
        r_max = np.log2(11.0)
        for p in reg.points:
            assert p.r1 <= r_max + 1e-12 and p.r2 <= r_max + 1e-12
        corner = ac.RatePoint(r_max, r_max, "ref")
        assert ac.frontier_dominates(reg.points, [corner])

    def test_frontier_dominates_ian_frontier(self):
        regions = ac.region_sweep(sym_channel(1.0),
                                  [1.0, 5.0, 10.0, 50.0],
                                  strategies=("ian", "hk"))
        assert ac.frontier_dominates(regions["hk"].frontier,
                                     regions["ian"].frontier)

    @given(channels(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_swap_symmetry(self, ch, lam1, lam2):
        a = ac.hk_corner(ch, lam1, lam2)
        b = ac.hk_corner(ch.swapped(), lam2, lam1)
        assert a.r1 == pytest.approx(b.r2, abs=1e-12)
        assert a.r2 == pytest.approx(b.r1, abs=1e-12)


class TestStrategyProperties:
    @given(channels())
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry_all_strategies(self, ch):
        sw = ch.swapped()
        for fwd, rev in ((ac.rate_ian(ch), ac.rate_ian(sw)),
                         (ac.rate_fdm(ch, 0.3), ac.rate_fdm(sw, 0.7)),
                         (ac.rate_snd(ch), ac.rate_snd(sw))):
            assert fwd.r1 == pytest.approx(rev.r2, abs=1e-12)
            assert fwd.r2 == pytest.approx(rev.r1, abs=1e-12)

    @given(channels(), st.floats(1.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_own_power(self, ch, factor):
        from dataclasses import replace
        bigger = replace(ch, p1=ch.p1 * factor)
        assert ac.rate_ian(bigger).r1 >= ac.rate_ian(ch).r1 - 1e-12
        assert ac.rate_fdm(bigger, 0.5).r1 >= ac.rate_fdm(ch, 0.5).r1 - 1e-12
        assert ac.rate_scd(bigger, 2).r1 >= ac.rate_scd(ch, 2).r1 - 1e-12

    @given(channels())
    @settings(max_examples=40, deadline=None)
    def test_rates_non_negative(self, ch):
        for pt in (ac.rate_ian(ch), ac.rate_scd(ch, 1), ac.rate_scd(ch, 2),
                   ac.rate_snd(ch), ac.rate_fdm(ch, 0.5)):
            assert pt.r1 >= 0.0 and pt.r2 >= 0.0

    @given(channels())
    @settings(max_examples=40, deadline=None)
    def test_ian_inside_hk_region(self, ch):
        reg = ac.hk_region(ch, np.linspace(0, 1, 5))
        assert ac.frontier_dominates(reg.points, [ac.rate_ian(ch)])


class TestParetoFrontier:
    def test_basic(self):
        pts = [ac.RatePoint(1, 1, "a"), ac.RatePoint(2, 0.5, "a"),
               ac.RatePoint(0.5, 2, "a"), ac.RatePoint(0.9, 0.9, "a")]
        front = ac.pareto_frontier(pts)
        assert {(p.r1, p.r2) for p in front} == {(1, 1), (2, 0.5), (0.5, 2)}
        assert [p.r1 for p in front] == sorted(p.r1 for p in front)

    def test_reads_its_input_once(self):
        pts = [ac.RatePoint(1, 1, "a"), ac.RatePoint(2, 0.5, "a"),
               ac.RatePoint(0.5, 2, "a"), ac.RatePoint(2, 0.5, "b")]
        front = ac.pareto_frontier(p for p in pts)
        assert front == ac.pareto_frontier(pts)
        assert [(p.r1, p.r2, p.strategy) for p in front] == [
            (0.5, 2, "a"), (1, 1, "a"), (2, 0.5, "a")]  # first of equal points

    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=30), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, coords, rnd):
        pts = [ac.RatePoint(r1, r2, "s") for r1, r2 in coords]
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        a = [(p.r1, p.r2) for p in ac.pareto_frontier(pts)]
        b = [(p.r1, p.r2) for p in ac.pareto_frontier(shuffled)]
        assert a == b

    def test_frontier_is_non_dominated(self):
        rng = np.random.default_rng(0)
        pts = [ac.RatePoint(float(a), float(b), "s")
               for a, b in rng.uniform(0, 5, (50, 2))]
        front = ac.pareto_frontier(pts)
        for p in front:
            assert not any(q.dominates(p) and (q.r1, q.r2) != (p.r1, p.r2)
                           for q in pts)

