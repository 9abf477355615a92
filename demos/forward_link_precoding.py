"""
Multibeam forward link: frequency reuse and multicast precoding
===============================================================

Builds the default 71-beam scenario, measures the average
carrier-to-interference ratio under four frequency-reuse patterns, and
then compares a per-feed-capped MMSE multicast precoder against naive
one-feed-per-beam feeding under full reuse.
"""
import numpy as np

from satkit import precoding
from satkit.scenario import (average_cir, build_channel, default_scenario,
                             draw_users)

# the default scenario: 71 hexagonally packed beams, 2 users per frame
scn = default_scenario(n_beams=71, n_u=2)
print(f"scenario: K={scn.K} beams, one feed each, N_u={scn.N_u} users/frame")

# average C/I improves as fewer neighbours share each colour
print("\nreuse factor vs average C/I:")
for fr in (1, 2, 3, 4):
    cir = average_cir(scn, fr, n_mc=150, rng=np.random.default_rng(fr))
    print(f"  f_r = {fr}:  {cir:6.2f} dB")

# precoding comparison with one user per frame: the frame-averaged
# channel then equals each user's own channel, so the MMSE direction is
# not blurred by averaging over users with independent feed phases
scn = default_scenario(n_beams=71, n_u=1)
rng = np.random.default_rng(7)
channel = build_channel(scn, draw_users(scn, rng), rng=rng)

# precode on the frame-averaged channel with a 55 W per-feed cap
power_w = 55.0
h_avg = precoding.average_channel(channel)
mmse = precoding.mmse_multicast(h_avg, power_w)
naive = precoding.identity_precoder(scn.K, power_w)

for name, w in (("MMSE", mmse), ("identity", naive)):
    total, per_beam = precoding.sum_rate(precoding.sinr_all(channel, w))
    print(f"\n{name} precoder (full reuse):")
    print(f"  sum rate        : {total:8.2f} bit/s/Hz")
    print(f"  per-beam average: {total / scn.K:8.3f} bit/s/Hz")
    print(f"  peak feed power : {np.max(w.feed_powers()):8.2f} W")
