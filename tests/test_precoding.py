import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit import cli
from satkit import precoding as pc
from satkit.scenario import (ChannelSet, ConfigurationError, build_channel,
                             default_scenario, draw_users)


def random_channel_set(rng, n_u, k, n):
    h = rng.standard_normal((n_u, k, n)) + 1j * rng.standard_normal((n_u, k, n))
    return ChannelSet(H=h)


def mmse_oracle(h_avg, p):
    """Independent dense-solve oracle for the regularised-inverse precoder."""
    n = h_avg.shape[1]
    gram = h_avg.conj().T @ h_avg + np.eye(n) / p
    w_raw = np.linalg.inv(gram) @ h_avg.conj().T
    beta = np.sqrt(p / max((w_raw @ w_raw.conj().T).diagonal().real))
    return beta * w_raw


def mmse_always_factorised(h_avg, p):
    """The precoder with its conditioning guard's Cholesky run every time."""
    n = h_avg.shape[1]
    gram = h_avg.conj().T @ h_avg + np.eye(n) / p
    try:
        d = np.abs(np.linalg.cholesky(gram).diagonal())
        ill = bool((d.max() / d.min()) ** 2 > pc.COND_LIMIT)
    except np.linalg.LinAlgError:
        ill = True
    if ill:
        gram = gram + 1e-12 * np.eye(n)
    w_raw = np.linalg.solve(gram, h_avg.conj().T)
    return pc.enforce_per_feed(w_raw, p, ill_conditioned=ill)


def check_p2_feasibility(channel_set, precoder, gamma_targets, power_cap):
    """Report SINR-target and per-feed power violations."""
    gamma = np.asarray(gamma_targets, float)
    table = pc.sinr_all(channel_set, precoder)
    bad_sinr = [(k, i, float(table[i, k]))
                for i in range(table.shape[0])
                for k in range(table.shape[1])
                if table[i, k] < gamma[k]]
    fp = precoder.feed_powers()
    bad_feeds = [(n, float(fp[n])) for n in range(len(fp))
                 if fp[n] > power_cap * (1 + 1e-9)]
    return {"feasible": not bad_sinr and not bad_feeds,
            "sinr_violations": bad_sinr, "feed_violations": bad_feeds}


def gram_with_condition(rng, n, cond):
    """A channel whose regularised Gram matrix at P = 1e30 has about ``cond``."""
    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return q
    s = np.sqrt(np.logspace(0.0, -np.log10(cond), n))
    return (unitary() * s) @ unitary().conj().T


class TestAverageChannel:
    def test_singleton_average(self):
        rng = np.random.default_rng(0)
        ch = random_channel_set(rng, 1, 4, 4)
        np.testing.assert_array_equal(pc.average_channel(ch), ch.H[0])

    def test_cancellation(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))
        ch = ChannelSet(H=np.concatenate([h, -h]))
        np.testing.assert_allclose(pc.average_channel(ch), 0.0, atol=1e-15)

    def test_matches_entrywise_mean_oracle(self):
        rng = np.random.default_rng(2)
        ch = random_channel_set(rng, 3, 5, 6)
        expect = np.zeros((5, 6), complex)
        for i in range(3):                 # independent summation oracle
            for k in range(5):
                for n in range(6):
                    expect[k, n] += ch.H[i, k, n] / 3
        np.testing.assert_allclose(pc.average_channel(ch), expect, rtol=1e-14)


class TestMmse:
    def test_identity_channel_scalar_algebra(self):
        # H = I, P = 1: unscaled W = I/2, beta = 2, W = I
        w = pc.mmse_multicast(np.eye(3, dtype=complex), 1.0)
        assert w.beta == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(w.W, np.eye(3), atol=1e-12)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(5)
        for k in (4, 8, 16):
            h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            got = pc.mmse_multicast(h, 2.0).W
            want = mmse_oracle(h, 2.0)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_zf_limit(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        offdiag = []
        for p in (1e2, 1e4, 1e6):
            w = pc.mmse_multicast(h, p)
            hw = h @ w.W
            offdiag.append(np.linalg.norm(hw - np.diag(np.diag(hw))))
        assert offdiag[0] > offdiag[1] > offdiag[2]

    def test_nonfinite_rejected(self):
        h = np.eye(2, dtype=complex)
        h[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            pc.mmse_multicast(h, 1.0)

    def test_ill_conditioned_flagged(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], complex)
        w = pc.mmse_multicast(h, 1e18)
        assert w.ill_conditioned

    def test_guard_against_svd_condition_number(self):
        rng = np.random.default_rng(13)
        flags = []
        for cond in np.logspace(2, 16, 50):
            n = int(rng.integers(2, 13))
            h = gram_with_condition(rng, n, cond)
            p = 1e30
            w = pc.mmse_multicast(h, p)
            gram = h.conj().T @ h + np.eye(n) / p
            # the pivot-ratio guard never flags a well-conditioned matrix
            if w.ill_conditioned:
                assert np.linalg.cond(gram) > pc.COND_LIMIT
            flags.append(w.ill_conditioned)
            x = w.W / w.beta            # solves gram x = h^H
            resid = np.linalg.norm(gram @ x - h.conj().T)
            scale = np.linalg.norm(gram) * np.linalg.norm(x)
            assert resid <= 1e-10 * scale
        assert any(flags) and not all(flags)

    @pytest.mark.parametrize("k, n_u", [(7, 1), (19, 2), (71, 2), (71, 4),
                                        (256, 1), (512, 2)])
    def test_skipped_factorisation_changes_no_bit(self, monkeypatch, k, n_u):
        # the Cholesky runs only where 1 + P ||H||_F^2 reaches the limit
        # below which it surely succeeds and the guard cannot fire
        factorised = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: factorised.append(1) or cholesky(a))
        limit = min(pc.COND_LIMIT / 2, 1 / (8 * k * (k + 1) * np.finfo(float).eps))
        scn = default_scenario(n_beams=k, n_u=n_u)
        for seed in range(3 if k < 256 else 1):
            rng = np.random.default_rng(seed)
            ch = build_channel(scn, draw_users(scn, rng), rng=rng)
            h = pc.average_channel(ch)
            p_edge = (limit - 1) / np.linalg.norm(h) ** 2
            for p in (1e-3, 55.0, p_edge / 2, p_edge * 2, 1e18, 1e30):
                factorised.clear()
                got = pc.mmse_multicast(h, p)
                assert bool(factorised) == (p > p_edge), p
                want = mmse_always_factorised(h, p)
                assert got.W.tobytes() == want.W.tobytes()
                assert (got.beta, got.ill_conditioned) == (want.beta,
                                                           want.ill_conditioned)
                assert (pc.sinr_all(ch, got).tobytes()
                        == pc.sinr_all(ch, want).tobytes())

    def test_guard_flags_match_always_factorised(self):
        rng = np.random.default_rng(14)
        flags = set()
        for cond in np.logspace(2, 16, 30):
            h = gram_with_condition(rng, int(rng.integers(2, 13)), cond)
            for p in (1.0, 1e6, 1e30):
                got, want = pc.mmse_multicast(h, p), mmse_always_factorised(h, p)
                assert got.W.tobytes() == want.W.tobytes()
                assert (got.beta, got.ill_conditioned) == (want.beta,
                                                           want.ill_conditioned)
                flags.add(got.ill_conditioned)
        assert flags == {False, True}

    def test_default_powers_never_factorise(self, monkeypatch, tmp_path):
        def refuse(a):
            raise AssertionError("Cholesky at a default power")
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert cli.main(["precoding-bench", "--out", str(tmp_path)]) == 0
        for k in (71, 256, 512):        # the benchmark's forward-link sizes
            scn = default_scenario(n_beams=k)
            rng = np.random.default_rng(k)
            ch = build_channel(scn, draw_users(scn, rng), rng=rng)
            assert not pc.mmse_multicast(pc.average_channel(ch),
                                         55.0).ill_conditioned


class TestEnforcePerFeed:
    def test_unit_when_already_at_cap(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]], complex)
        assert pc.enforce_per_feed(w, 1.0).beta == pytest.approx(1.0)

    def test_half_when_feed_at_4p(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]], complex)
        assert pc.enforce_per_feed(w, 1.0).beta == pytest.approx(0.5)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cap_binding_and_direction(self, seed):
        rng = np.random.default_rng(seed)
        w_raw = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        p = float(rng.uniform(0.1, 10))
        out = pc.enforce_per_feed(w_raw, p)
        assert abs(out.feed_powers().max() - p) <= 1e-12 * p
        # uniform scaling preserves every column direction
        for j in range(3):
            col = out.W[:, j] / out.beta
            np.testing.assert_allclose(col, w_raw[:, j], rtol=1e-12)


class TestSinrSumRate:
    def test_zero_precoder(self):
        rng = np.random.default_rng(7)
        ch = random_channel_set(rng, 2, 3, 3)
        w = pc.PrecodeMatrix(W=np.zeros((3, 3), complex), beta=1.0)
        assert (pc.sinr_all(ch, w) == 0).all()

    def test_orthogonal_rows_no_interference(self):
        h = np.zeros((1, 2, 2), complex)
        h[0, 0, 0] = 2.0
        h[0, 1, 1] = 3.0
        ch = ChannelSet(H=h)
        w = pc.PrecodeMatrix(W=np.eye(2, dtype=complex), beta=1.0)
        table = pc.sinr_all(ch, w)
        np.testing.assert_allclose(table[0], [4.0, 9.0], rtol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(8)
        for n_u, k, n in ((2, 4, 5), (2, 37, 37)):
            ch = random_channel_set(rng, n_u, k, n)
            w = pc.enforce_per_feed(rng.standard_normal((n, k))
                                    + 1j * rng.standard_normal((n, k)), 3.0)
            table = pc.sinr_all(ch, w)
            for i in range(n_u):               # naive double loop oracle
                for kk in range(k):
                    sig = abs(np.dot(ch.H[i, kk], w.W[:, kk])) ** 2
                    interf = sum(abs(np.dot(ch.H[i, kk], w.W[:, j])) ** 2
                                 for j in range(k) if j != kk)
                    assert table[i, kk] == pytest.approx(sig / (interf + 1),
                                                         rel=1e-12)

    def test_sum_rate_trivia(self):
        sr, per_beam = pc.sum_rate(np.ones((1, 3)))
        assert sr == pytest.approx(3.0)
        table = np.array([[1.0, 3.0], [0.0, 3.0]])
        sr, per_beam = pc.sum_rate(table)
        assert per_beam[0] == 0.0
        assert sr == pytest.approx(2.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sum_rate_monotone_in_sinr(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 10, (3, 4))
        bumped = t.copy()
        i, k = rng.integers(3), rng.integers(4)
        bumped[i, k] += rng.uniform(0, 5)
        assert pc.sum_rate(bumped)[0] >= pc.sum_rate(t)[0] - 1e-12


class TestFeasibilityChecker:
    def test_reports_violations(self):
        rng = np.random.default_rng(9)
        ch = random_channel_set(rng, 1, 3, 3)
        w = pc.mmse_multicast(pc.average_channel(ch), 2.0)
        table = pc.sinr_all(ch, w)
        gamma = table[0] + 1.0      # unreachable targets
        rep = check_p2_feasibility(ch, w, gamma, 2.0)
        assert not rep["feasible"]
        assert len(rep["sinr_violations"]) == 3
        ok = check_p2_feasibility(ch, w, table[0] * 0.5, 2.0)
        assert ok["feasible"]


class TestMmseVsIdentity:
    def test_wins_on_most_instances(self):
        wins = 0
        for seed in range(20):
            scn = default_scenario(16, 1, seed=seed)
            rng = np.random.default_rng(seed)
            ch = build_channel(scn, draw_users(scn, rng), rng=rng)
            srm = pc.sum_rate(pc.sinr_all(
                ch, pc.mmse_multicast(pc.average_channel(ch), 55.0)))[0]
            sri = pc.sum_rate(pc.sinr_all(
                ch, pc.identity_precoder(16, 55.0)))[0]
            wins += srm >= sri
        assert wins >= 18
