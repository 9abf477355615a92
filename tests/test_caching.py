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


def model(alpha=1.2, size=100):
    return ca.PopularityModel(library_size=size, alpha=alpha)


class TestDeliveryTimes:
    def test_pure_unicast_boundary(self):
        # threshold 1: nothing broadcast, T = s*K/R_uc
        plan = ca.delivery_times(1, model(), 1e6, 50, 3e5, 1e5)
        assert plan.t_bc == 0.0
        assert plan.t_tot == pytest.approx(1e6 * 50 / 3e5, rel=1e-12)

    def test_pure_broadcast_boundary(self):
        # threshold I+1: everything broadcast, T = s*I/R_bc
        plan = ca.delivery_times(101, model(size=100), 1e6, 50, 3e5, 1e5)
        assert plan.t_uc == pytest.approx(0.0, abs=1e-9)
        assert plan.t_tot == pytest.approx(1e6 * 100 / 1e5, rel=1e-9)

    def test_scalar_oracle_mid_threshold(self):
        m = model(alpha=1.0, size=4)
        plan = ca.delivery_times(3, m, 2.0, 10, 4.0, 8.0)
        f = m.pmf
        want_uc = 2.0 * 10 * (f[2] + f[3]) / 4.0
        want_bc = 2.0 * 2 / 8.0
        assert plan.t_uc == pytest.approx(want_uc, rel=1e-12)
        assert plan.t_bc == pytest.approx(want_bc, rel=1e-12)

    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            ca.delivery_times(0, model(size=10), 1.0, 1, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ca.delivery_times(12, model(size=10), 1.0, 1, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ca.delivery_times(1, model(size=10), -1.0, 1, 1.0, 1.0)


class TestCurveAndOptimum:
    def test_curve_matches_pointwise_evaluation(self):
        m = model(alpha=1.2, size=30)
        curve = ca.total_time_curve(m, 5.0, 12, 2.0, 1.0)
        assert curve.size == 31
        for i_hat in (1, 7, 31):
            plan = ca.delivery_times(i_hat, m, 5.0, 12, 2.0, 1.0)
            assert curve[i_hat - 1] == pytest.approx(plan.t_tot, rel=1e-12)

    def test_interior_minimum_reference_parameters(self):
        # K=500 stations, I=100 files, unicast/broadcast rate ratio 3
        m = model(alpha=1.2, size=100)
        i_hat = ca.optimal_threshold(m, 1.0, 500, 3.0, 1.0)
        assert 1 < i_hat < 101
        cont = ca.continuous_threshold(m, 500, 3.0, 1.0)
        assert abs(i_hat - cont) <= 1.0

    def test_threshold_grows_with_station_count(self):
        m = model(alpha=1.2, size=200)
        vals = [ca.optimal_threshold(m, 1.0, k, 3.0, 1.0)
                for k in (1, 10, 100, 1000)]
        assert vals == sorted(vals)
        assert vals[0] == 1              # one station: broadcasting never pays
        assert vals[-1] > vals[0]

    def test_fast_broadcast_prefers_broadcast(self):
        m = model(alpha=0.8, size=50)
        slow_bc = ca.optimal_threshold(m, 1.0, 100, 1.0, 0.01)
        fast_bc = ca.optimal_threshold(m, 1.0, 100, 1.0, 100.0)
        assert fast_bc >= slow_bc
        assert fast_bc == 51             # broadcast everything

    def test_tie_breaks_to_lowest(self):
        # uniform pmf, K/R_uc == 1/R_bc: curve is flat, pick threshold 1
        m = model(alpha=0.0, size=10)
        assert ca.optimal_threshold(m, 1.0, 10, 10.0, 10.0) == 1

    @given(st.floats(0.1, 3.0), st.integers(1, 300),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0),
           st.floats(0.5, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_optimum_beats_all_thresholds(self, alpha, k, r_uc, r_bc, s):
        m = model(alpha=alpha, size=40)
        best = ca.optimal_threshold(m, s, k, r_uc, r_bc)
        t_best = ca.delivery_times(best, m, s, k, r_uc, r_bc).t_tot
        for i_hat in range(1, 42):
            t = ca.delivery_times(i_hat, m, s, k, r_uc, r_bc).t_tot
            assert t_best <= t + 1e-9 * max(1.0, t)

    @given(st.floats(0.5, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_file_size_scale_invariance(self, s):
        m = model(alpha=1.1, size=60)
        assert (ca.optimal_threshold(m, s, 80, 3.0, 1.0)
                == ca.optimal_threshold(m, 1.0, 80, 3.0, 1.0))

    def test_curve_components_monotone(self):
        m = model(alpha=1.2, size=50)
        plans = [ca.delivery_times(i, m, 1.0, 30, 3.0, 1.0)
                 for i in range(1, 52)]
        t_uc = [p.t_uc for p in plans]
        t_bc = [p.t_bc for p in plans]
        assert all(a >= b - 1e-15 for a, b in zip(t_uc, t_uc[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(t_bc, t_bc[1:]))


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
        disc = ca.optimal_threshold(m, 1.0, 500, 3.0, 1.0)
        assert abs(disc - cont) <= 1.0

    def test_requires_positive_alpha(self):
        with pytest.raises(ConfigurationError):
            ca.continuous_threshold(model(alpha=0.0), 10, 1.0, 1.0)
