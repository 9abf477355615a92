import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import j1, jv

from satkit import scenario as sc


def make_scenario(n_beams=19, n_u=2, seed=0):
    return sc.default_scenario(n_beams, n_u, seed=seed)


def feed0_amplitude(scn, pos):
    """Feed 0's gain amplitude at one position, as every channel sees it."""
    return sc._gain_amplitudes(scn, np.asarray(pos, float)[None, :])[0, 0]


def scipy_taper(u):
    """J1(u)/2u + 36 J3(u)/u^3 from scipy's Bessel functions, 1 at u = 0."""
    us = np.where(u == 0.0, 1.0, u)
    return np.where(u == 0.0, 1.0, j1(us) / (2 * us) + 36.0 * jv(3, us) / us ** 3)


def slant_m(positions):
    return np.hypot(np.linalg.norm(positions, axis=-1), sc.SAT_ALTITUDE_KM) * 1e3


def h_double_loop(scn, users, rng):
    """Channel with the per-(beam, user) row copy, as an oracle."""
    K, Nu = scn.K, scn.N_u
    pos = users.positions.reshape(K * Nu, 2)
    amps = sc._gain_amplitudes(scn, pos)
    psi = rng.uniform(0, 2 * np.pi, (K * Nu, K))
    gains = amps * np.exp(1j * psi)
    denom = 4 * np.pi * (slant_m(pos) / sc.WAVELENGTH_M) * np.sqrt(
        sc.BOLTZMANN * sc.NOISE_TEMP_K * sc.BANDWIDTH_HZ)
    rows = sc.RX_GAIN * gains / denom[:, None]
    h = np.zeros((Nu, K, K), complex)
    for k in range(K):
        for i in range(Nu):
            h[i, k, :] = rows[k * Nu + i]
    return h


def cir_per_sample(scn, colors, n_mc, rng):
    """Average C/I in dB, one sample at a time, as an oracle."""
    ratios = []
    for _ in range(n_mc):
        k = int(rng.integers(scn.K))
        r = sc.BEAM_RADIUS_KM * np.sqrt(rng.uniform())
        ph = rng.uniform(0, 2 * np.pi)
        pos = scn.beam_centers[k] + [r * np.cos(ph), r * np.sin(ph)]
        g = sc._gain_amplitudes(scn, pos[None, :])[0] ** 2
        co = colors == colors[k]
        co[k] = False
        if co.any():
            ratios.append(g[k] / g[co].sum())
    return float(10 * np.log10(np.mean(ratios))) if ratios else np.inf


def spiral_walk(n_beams):
    """The beam spiral one step at a time, as an oracle: ring R starts at
    (R, 0) and takes R steps along each of six directions."""
    coords, ring = [(0, 0)], 1
    while len(coords) < n_beams:
        q, r = ring, 0
        for dq, dr in [(-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)]:
            for _ in range(ring):
                coords.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    return np.array(coords[:n_beams], int)


class TestHexLayout:
    def test_matches_the_step_walk(self):
        # every count from one beam to part-way round the eighth ring
        for n in range(1, 200):
            got = sc.hex_layout(n)
            assert got.dtype == np.dtype(int)
            np.testing.assert_array_equal(got, spiral_walk(n))


class TestScenarioValidation:
    def test_rejects_bad_reuse_factor(self):
        # a factor outside {1,2,3,4} must not fall back to another pattern
        scn = make_scenario()
        for reuse in (5, 0, 2.7):
            with pytest.raises(sc.ConfigurationError):
                sc.reuse_colors(scn, reuse)
            with pytest.raises(sc.ConfigurationError):
                sc.average_cir(scn, reuse, n_mc=10)

    def test_wavelength(self):
        # 20 GHz Ka-band carrier
        assert sc.WAVELENGTH_M == pytest.approx(0.0149896229, rel=1e-9)


class TestBeamGain:
    def test_boresight_maximum(self):
        scn = make_scenario()
        g = feed0_amplitude(scn, scn.feed_centers[0])
        assert g == pytest.approx(sc.BORESIGHT_GAIN)

    def test_3db_point(self):
        # at the 3 dB off-axis angle, |a|^2 = a_max^2 / 2
        scn = make_scenario()
        pos = scn.feed_centers[0] + [sc.BEAM_RADIUS_KM, 0.0]
        g = feed0_amplitude(scn, pos)
        assert abs(g) ** 2 == pytest.approx(sc.BORESIGHT_GAIN ** 2 / 2,
                                            rel=1e-9)

    def test_monotone_to_first_null(self):
        scn = make_scenario()
        null_km = brentq(sc._taper, 3.0, 6.5) / sc._U_3DB * sc.BEAM_RADIUS_KM
        radii = np.linspace(0.0, 0.999 * null_km, 100)
        amps = [abs(feed0_amplitude(scn, scn.feed_centers[0] + [r, 0]))
                for r in radii]
        floor = sc.BORESIGHT_GAIN * 10 ** (sc.SIDELOBE_FLOOR_DB / 20)
        # strictly decreasing until the sidelobe floor clamps, then flat
        assert all(a1 >= a2 for a1, a2 in zip(amps, amps[1:]))
        assert all(a1 > a2 or a1 <= floor
                   for a1, a2 in zip(amps, amps[1:]))

    def test_taper_matches_direct_bessel_formula(self):
        # the series in u^2 over its whole interval, ends and small u included
        u = np.concatenate([np.linspace(0.0, sc._FLOOR_U, 20001),
                            [1e-9, 1e-6, 1e-3, np.nextafter(sc._FLOOR_U, 0.0)],
                            sc._FLOOR_U * (1 - np.linspace(0.0, 1e-6, 101))])
        np.testing.assert_allclose(sc._taper(u), scipy_taper(u), rtol=0, atol=1e-14)

    def test_gain_amplitudes_match_scipy(self):
        # a whole K = 512 layout, plus u = 0 (every feed's own centre) and
        # positions just either side of the floor's cut-off from feed 0
        scn = make_scenario(n_beams=512)
        users = sc.draw_users(scn, np.random.default_rng(9)).positions
        r_cut = sc._FLOOR_U / sc._U_3DB * sc.BEAM_RADIUS_KM
        steps = 1 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])
        edge = scn.feed_centers[0] + np.outer(r_cut * steps, [0.6, 0.8])
        pos = np.concatenate([users.reshape(-1, 2), scn.feed_centers, edge])
        u = sc._U_3DB * np.linalg.norm(pos[:, None] - scn.feed_centers,
                                       axis=2) / sc.BEAM_RADIUS_KM
        assert (u == 0.0).sum() == scn.K
        assert (u[-5:, 0] < sc._FLOOR_U).any()
        assert (u[-5:, 0] >= sc._FLOOR_U).any()
        floor = 10 ** (sc.SIDELOBE_FLOOR_DB / 20)
        np.testing.assert_allclose(
            sc._gain_amplitudes(scn, pos),
            sc.BORESIGHT_GAIN * np.maximum(np.abs(scipy_taper(u)), floor),
            rtol=1e-12, atol=0)

    def test_floor_cutoff_is_bit_identical(self):
        # entries at and beyond the cut-off are the floor exactly, and the
        # taper, from scipy's Bessel functions, is below the floor there
        scn = make_scenario(n_beams=256)
        pos = sc.draw_users(scn, np.random.default_rng(2)).positions.reshape(-1, 2)
        amps = sc._gain_amplitudes(scn, pos)
        u = sc._U_3DB * (np.linalg.norm(pos[:, None] - scn.feed_centers, axis=2)
                         / sc.SAT_ALTITUDE_KM) / sc.THETA_3DB_RAD
        beyond = u >= sc._FLOOR_U
        assert beyond.any() and not beyond.all()
        floor = 10 ** (sc.SIDELOBE_FLOOR_DB / 20)
        np.testing.assert_array_equal(amps[beyond], sc.BORESIGHT_GAIN * floor)
        assert np.abs(scipy_taper(u[beyond])).max() < floor

    def test_floor_cutoff_bounds_the_taper(self):
        floor = 10 ** (sc.SIDELOBE_FLOOR_DB / 20)
        assert 18.0 < sc._FLOOR_U < 18.5
        # beyond the cut-off, where satkit never evaluates it, the taper
        # comes from scipy's Bessel functions
        u = np.linspace(sc._FLOOR_U, 400.0, 400001)
        assert np.abs(j1(u) / (2 * u) + 36.0 * jv(3, u) / u ** 3).max() < floor
        # below the bound's crossing some u is above the floor
        assert np.abs(sc._taper(np.linspace(1.0, 8.0, 7001))).max() > floor
        assert sc._floor_cutoff(1e-6) > sc._FLOOR_U

    def test_sidelobe_floor(self):
        scn = make_scenario()
        far = scn.feed_centers[0] + [40 * sc.BEAM_RADIUS_KM, 0.0]
        g = feed0_amplitude(scn, far)
        floor = sc.BORESIGHT_GAIN * 10 ** (sc.SIDELOBE_FLOOR_DB / 20)
        assert abs(g) >= floor


class TestUsersAndChannel:
    def test_draw_users_inside_footprint(self):
        scn = make_scenario()
        users = sc.draw_users(scn, np.random.default_rng(0))
        assert users.positions.shape == (scn.K, scn.N_u, 2)
        d = np.linalg.norm(users.positions - scn.beam_centers[:, None, :],
                           axis=2)
        assert (d <= sc.BEAM_RADIUS_KM).all()

    def test_unit_substitution_entry_magnitude(self):
        # a user at nadir under its own feed (taper 1) sees the link budget
        # in dB: G_R + G_max - FSPL(d = altitude) - 10 log10(k T B)
        scn = sc.default_scenario(n_beams=1, n_u=1)
        ch = sc.build_channel(scn, sc.UserSet(positions=np.zeros((1, 1, 2))))
        fspl_db = 20 * np.log10(4 * np.pi * sc.SAT_ALTITUDE_KM * 1e3
                                / sc.WAVELENGTH_M)
        noise_dbw = 10 * np.log10(sc.BOLTZMANN * sc.NOISE_TEMP_K
                                  * sc.BANDWIDTH_HZ)
        want_db = 41.7 + 52.0 - fspl_db - noise_dbw
        assert 20 * np.log10(abs(ch.H[0, 0, 0])) == pytest.approx(want_db,
                                                                 abs=1e-9)

    def test_determinism(self):
        scn = make_scenario()
        a = sc.build_channel(scn, sc.draw_users(scn, np.random.default_rng(5)),
                             rng=np.random.default_rng(7))
        b = sc.build_channel(scn, sc.draw_users(scn, np.random.default_rng(5)),
                             rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.H, b.H)

    def test_path_loss_halves_with_double_distance(self):
        # |h| * slant / antenna amplitude is the same for every user and feed
        scn = make_scenario(n_beams=7)
        users = sc.draw_users(scn, np.random.default_rng(6))
        h = sc.build_channel(scn, users, rng=np.random.default_rng(8)).H
        pos = users.positions.transpose(1, 0, 2)             # [i, k]
        amps = sc._gain_amplitudes(scn, pos.reshape(-1, 2)).reshape(h.shape)
        scaled = np.abs(h) * slant_m(pos)[..., None] / amps
        np.testing.assert_allclose(scaled, scaled.flat[0], rtol=1e-12)
        # the users' slant ranges differ, so |h| falls as 1/distance
        assert slant_m(pos).max() > slant_m(pos).min()

    def test_hbar_matches_double_loop_oracle(self):
        scn = make_scenario(n_u=3)
        users = sc.draw_users(scn, np.random.default_rng(3))
        ch = sc.build_channel(scn, users, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(
            ch.H, h_double_loop(scn, users, np.random.default_rng(4)))

    def test_build_channel_peak_memory(self):
        # H, the amplitudes and the phases: no full-size complex temporaries
        scn = make_scenario(n_beams=512)
        users = sc.draw_users(scn, np.random.default_rng(0))
        tracemalloc.start()
        try:
            h = sc.build_channel(scn, users, rng=np.random.default_rng(1)).H
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * h.nbytes, peak / h.nbytes

    def test_dimension_mismatch_rejected(self):
        scn = make_scenario()
        bad = sc.UserSet(positions=np.zeros((scn.K, scn.N_u + 1, 2)))
        with pytest.raises(sc.ConfigurationError):
            sc.build_channel(scn, bad)


class TestReuseAndCir:
    def test_reuse_colors_counts(self):
        scn = make_scenario(n_beams=37)
        for fr in (1, 2, 3, 4):
            colors = sc.reuse_colors(scn, fr)
            assert len(np.unique(colors)) == fr

    def test_adjacent_beams_differ_for_fr4(self):
        scn = make_scenario(n_beams=37)
        colors = sc.reuse_colors(scn, 4)
        centers = scn.beam_centers
        spacing = 2 * sc.BEAM_RADIUS_KM
        for k in range(scn.K):
            d = np.linalg.norm(centers - centers[k], axis=1)
            neighbours = np.nonzero((d > 0) & (d < 1.1 * spacing))[0]
            assert all(colors[n] != colors[k] for n in neighbours)

    def test_single_beam_no_interferers(self):
        scn = sc.default_scenario(n_beams=1, n_u=1)
        assert sc.average_cir(scn, 1) == np.inf

    @pytest.mark.parametrize("k, reuse", [(1, 4), (3, 3), (3, 4), (4, 4)])
    def test_every_beam_alone_in_its_colour(self, k, reuse):
        scn = sc.default_scenario(n_beams=k, n_u=1)
        colors = sc.reuse_colors(scn, reuse)
        assert len(np.unique(colors)) == k
        assert sc.average_cir(scn, reuse) == np.inf

    def test_cir_increases_with_reuse(self):
        scn = make_scenario(n_beams=37)
        vals = [sc.average_cir(scn, fr, n_mc=150,
                               rng=np.random.default_rng(fr))
                for fr in (1, 2, 3, 4)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("pattern", [1, 2, 3, 4, "lone beam"])
    def test_matches_per_sample_oracle(self, pattern):
        scn, reuse = make_scenario(n_beams=37), pattern
        if pattern == "lone beam":          # beam 0 has no co-channel peer
            scn, reuse = make_scenario(n_beams=7), 3
        colors = sc.reuse_colors(scn, reuse)
        if pattern == "lone beam":
            assert colors.tolist() == [0, 1, 2, 1, 2, 1, 2]
        got = sc.average_cir(scn, reuse, n_mc=120,
                             rng=np.random.default_rng(11))
        want = cir_per_sample(scn, colors, 120, np.random.default_rng(11))
        assert got == pytest.approx(want, rel=1e-13)
