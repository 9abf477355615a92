import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit import caching as ca
from satkit.scenario import ConfigurationError


class TestZipfPmf:
    def test_alpha_zero_is_uniform(self):
        np.testing.assert_allclose(ca.PopularityModel(10, 0.0).pmf,
                                   np.full(10, 0.1))

    def test_two_file_alpha_one(self):
        np.testing.assert_allclose(ca.PopularityModel(2, 1.0).pmf,
                                   [2 / 3, 1 / 3], rtol=1e-15)

    def test_normalised_and_non_increasing(self):
        for alpha in (0.0, 0.8, 1.2, 2.5):
            f = ca.PopularityModel(500, alpha).pmf
            assert f.sum() == pytest.approx(1.0, abs=1e-12)
            assert (np.diff(f) <= 1e-15).all()
            assert (f > 0).all()

    def test_larger_alpha_concentrates_head(self):
        f1 = ca.PopularityModel(100, 0.8).pmf
        f2 = ca.PopularityModel(100, 1.6).pmf
        assert f2[0] > f1[0]
        assert f2[:10].sum() > f1[:10].sum()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ca.PopularityModel(0, 1.0)
        with pytest.raises(ConfigurationError):
            ca.PopularityModel(10, -0.5)
        with pytest.raises(ConfigurationError):
            ca.PopularityModel(library_size=10, alpha=-1.0)

    def test_normalizer_matches_pmf(self):
        m = ca.PopularityModel(library_size=50, alpha=1.3)
        assert m.pmf[0] == pytest.approx(1.0 / m.normalizer, rel=1e-12)

    def test_pmf_forms_the_weights_once(self, monkeypatch):
        calls, weights = [], ca.PopularityModel._weights
        monkeypatch.setattr(ca.PopularityModel, "_weights",
                            lambda self: calls.append(1) or weights(self))
        m = ca.PopularityModel(library_size=1000, alpha=1.2)
        f = m.pmf
        assert len(calls) == 1
        w = weights(m)
        np.testing.assert_array_equal(f, w / float(np.sum(w)))
        assert m.normalizer == float(np.sum(w))


def model(alpha=1.2, size=100):
    return ca.PopularityModel(library_size=size, alpha=alpha)


class TestDeliveryTimes:
    def test_pure_unicast_boundary(self):
        # threshold 1: nothing broadcast, T = s*K/R_uc
        p = ca.delivery_plan(model(), 1e6, 50, 3e5, 1e5)
        assert p.t_bc[0] == 0.0
        assert p.t_tot[0] == pytest.approx(1e6 * 50 / 3e5, rel=1e-12)

    def test_pure_broadcast_boundary(self):
        # threshold I+1: everything broadcast, T = s*I/R_bc exactly
        p = ca.delivery_plan(model(size=100), 1e6, 50, 3e5, 1e5)
        assert p.t_uc.size == p.t_bc.size == 101
        assert p.t_uc[100] == 0.0
        assert p.t_tot[100] == 1e6 * 100 / 1e5

    def test_scalar_oracle_mid_threshold(self):
        m = model(alpha=1.0, size=4)
        p = ca.delivery_plan(m, 2.0, 10, 4.0, 8.0)
        f = m.pmf
        want_uc = 2.0 * 10 * (f[2] + f[3]) / 4.0
        want_bc = 2.0 * 2 / 8.0
        assert p.t_uc[2] == pytest.approx(want_uc, rel=1e-12)
        assert p.t_bc[2] == pytest.approx(want_bc, rel=1e-12)

    def test_link_validation(self):
        for link in [(-1.0, 1, 1.0, 1.0), (1.0, 0, 1.0, 1.0),
                     (1.0, 1, 0.0, 1.0), (1.0, 1, 1.0, -2.0)]:
            with pytest.raises(ConfigurationError):
                ca.delivery_plan(model(size=10), *link)


class TestCurveAndOptimum:
    def test_curve_matches_pointwise_evaluation(self):
        # every threshold against a correctly rounded tail sum
        for alpha in (0.0, 0.8, 1.2, 3.0):
            m = model(alpha=alpha, size=300)
            t_tot = ca.delivery_plan(m, 5.0, 12, 2.0, 1.0).t_tot
            assert t_tot.size == 301
            f = m.pmf.tolist()
            for t in range(1, 302):
                want = 5.0 * (12 * math.fsum(f[t - 1:]) / 2.0 + (t - 1) / 1.0)
                assert t_tot[t - 1] == pytest.approx(want, rel=1e-13)

    def test_interior_minimum_reference_parameters(self):
        # K=500 stations, I=100 files, unicast/broadcast rate ratio 3
        m = model(alpha=1.2, size=100)
        i_hat = ca.delivery_plan(m, 1.0, 500, 3.0, 1.0).i_hat
        assert 1 < i_hat < 101
        cont = ca.continuous_threshold(m, 500, 3.0, 1.0)
        assert abs(i_hat - cont) <= 1.0

    def test_threshold_grows_with_station_count(self):
        m = model(alpha=1.2, size=200)
        vals = [ca.delivery_plan(m, 1.0, k, 3.0, 1.0).i_hat
                for k in (1, 10, 100, 1000)]
        assert vals == sorted(vals)
        assert vals[0] == 1              # one station: broadcasting never pays
        assert vals[-1] > vals[0]

    def test_fast_broadcast_prefers_broadcast(self):
        m = model(alpha=0.8, size=50)
        slow_bc = ca.delivery_plan(m, 1.0, 100, 1.0, 0.01).i_hat
        fast_bc = ca.delivery_plan(m, 1.0, 100, 1.0, 100.0).i_hat
        assert fast_bc >= slow_bc
        assert fast_bc == 51             # broadcast everything

    def test_tie_breaks_to_lowest(self):
        # uniform pmf and K/(I R_uc) == 1/R_bc: every threshold costs
        # s*I/R_bc, up to the tails' round-off, so pick threshold 1
        for size in (*range(1, 301), 1000, 3000, 10 ** 4):
            m = model(alpha=0.0, size=size)
            for k, r_uc, r_bc in [(size, 1.0, 1.0), (2 * size, 2.0, 1.0),
                                  (size, 0.5, 0.5), (5 * size, 1.0, 0.2),
                                  (size, 3.0, 3.0)]:
                p = ca.delivery_plan(m, 1.0, k, r_uc, r_bc)
                assert p.i_hat == 1, (size, k)

    @given(st.floats(0.1, 3.0), st.integers(1, 300),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0),
           st.floats(0.5, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_optimum_beats_all_thresholds(self, alpha, k, r_uc, r_bc, s):
        # the lowest threshold within the tie tolerance of the least total
        p = ca.delivery_plan(model(alpha=alpha, size=40), s, k, r_uc, r_bc)
        t = p.t_tot
        gap, tol = t - t.min(), ca.TIE_RTOL * t.min()
        assert gap[p.i_hat - 1] <= tol
        assert (gap[:p.i_hat - 1] > tol).all()

    @given(st.floats(0.5, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_file_size_scale_invariance(self, s):
        m = model(alpha=1.1, size=60)
        assert (ca.delivery_plan(m, s, 80, 3.0, 1.0).i_hat
                == ca.delivery_plan(m, 1.0, 80, 3.0, 1.0).i_hat)

    def test_curve_components_monotone(self):
        # one cumulative sum of positive terms: the tails never rise
        p = ca.delivery_plan(model(alpha=1.2, size=50), 1.0, 30, 3.0, 1.0)
        assert (np.diff(p.t_uc) <= 0).all()
        assert (np.diff(p.t_bc) > 0).all()


class TestContinuousThreshold:
    def test_closed_form_value(self):
        m = model(alpha=1.2, size=500)
        want = (m.normalizer * 3.0 / (500 * 1.0)) ** (-1 / 1.2)
        got = ca.continuous_threshold(m, 500, 3.0, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_first_order_condition(self):
        # at i*, the marginal pmf equals R_uc / (K * R_bc)
        m = model(alpha=1.5, size=1000)
        i_star = ca.continuous_threshold(m, 200, 2.0, 1.0)
        f_at = i_star ** -1.5 / m.normalizer
        assert f_at == pytest.approx(2.0 / (200 * 1.0), rel=1e-12)

    def test_agrees_with_discrete_within_one_rank(self):
        m = model(alpha=1.2, size=500)
        cont = ca.continuous_threshold(m, 500, 3.0, 1.0)
        disc = ca.delivery_plan(m, 1.0, 500, 3.0, 1.0).i_hat
        assert abs(disc - cont) <= 1.0

    def test_requires_positive_alpha(self):
        with pytest.raises(ConfigurationError):
            ca.continuous_threshold(model(alpha=0.0), 10, 1.0, 1.0)
