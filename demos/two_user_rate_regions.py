"""
Two-user interference channel: achievable rate regions
======================================================

Compares interference-as-noise, successive decoding, simultaneous
non-unique decoding, FDM and Han-Kobayashi rate splitting on a symmetric
channel (0 dB direct gains, -2 dB cross gains) as the transmit power
grows.
"""
import numpy as np

from satkit import access

cross = 10 ** (-0.2)          # -2 dB cross gain (linear)

print("symmetric rate point per strategy (R1 = R2 by symmetry):\n")
print(f"{'P':>6}  {'IAN':>7}  {'SCD':>7}  {'SND':>7}  {'FDM':>7}  {'HK':>7}")
for p in (1.0, 5.0, 20.0, 100.0):
    ch = access.TwoUserChannel(g11=1.0, g21=cross, g12=cross, g22=1.0,
                               p1=p, p2=p)
    ian = access.rate_ian(ch).r1[0]
    scd = access.rate_scd(ch)               # point 0: user 1 public
    snd = access.rate_snd(ch).r1[0]
    fdm = access.rate_fdm(ch, [0.5]).r1[0]
    # best symmetric HK corner over the power-split grid
    hk = access.hk_region(ch, np.linspace(0, 1, 21))
    print(f"{p:6.0f}  {ian:7.3f}  {min(scd.r1[0], scd.r2[0]):7.3f}"
          f"  {snd:7.3f}  {fdm:7.3f}  {np.minimum(hk.r1, hk.r2).max():7.3f}")

# the HK frontier contains every IAN point: rate splitting never loses
regions = access.region_sweep(
    access.TwoUserChannel(g11=1.0, g21=cross, g12=cross, g22=1.0,
                          p1=1.0, p2=1.0),
    p_values=[1.0, 5.0, 20.0, 100.0], strategies=("ian", "hk"))
dominated = access.frontier_dominates(regions["hk"], regions["ian"])
print(f"\nHK frontier dominates the IAN frontier: {dominated}")
print(f"HK frontier size: {regions['hk'].frontier.sum()} points")
