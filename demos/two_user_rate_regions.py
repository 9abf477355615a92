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
    ian = access.rate_ian(ch)
    scd = access.rate_scd(ch, 1)
    snd = access.rate_snd(ch)
    fdm = access.rate_fdm(ch, 0.5)
    # best symmetric HK corner over the power-split grid
    hk = max(access.hk_region(ch, np.linspace(0, 1, 21)).points,
             key=lambda q: min(q.r1, q.r2))
    print(f"{p:6.0f}  {ian.r1:7.3f}  {min(scd.r1, scd.r2):7.3f}"
          f"  {snd.r1:7.3f}  {fdm.r1:7.3f}  {min(hk.r1, hk.r2):7.3f}")

# the HK frontier contains every IAN point: rate splitting never loses
regions = access.region_sweep(
    access.TwoUserChannel(g11=1.0, g21=cross, g12=cross, g22=1.0,
                          p1=1.0, p2=1.0),
    p_values=[1.0, 5.0, 20.0, 100.0], strategies=("ian", "hk"))
dominated = access.frontier_dominates(regions["hk"].frontier,
                                      regions["ian"].frontier)
print(f"\nHK frontier dominates the IAN frontier: {dominated}")
print(f"HK frontier size: {len(regions['hk'].frontier)} points")
