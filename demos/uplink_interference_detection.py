"""
Onboard interference detection: the ISNR wall
=============================================

Calibrates three energy detectors to a 1% false-alarm rate under 2 dB
noise uncertainty and traces detection probability against the
interference-to-signal-plus-noise ratio. Pilot/data cancellation pushes
the Pd = 0.9 "wall" several dB below the conventional detector's.
"""
from dataclasses import replace

import numpy as np

from satkit import detection

PFA, EPS_DB, N_MC = 0.01, 2.0, 1500
grid = np.arange(-10.0, 7.0, 2.0)

curves = {}
for kind in detection.DETECTOR_KINDS:
    det = detection.DetectorConfig(kind=kind, noise_uncertainty_db=EPS_DB)
    # worst-case calibration keeps Pfa <= target across the uncertainty
    tau = detection.calibrate_threshold(det, PFA, 10000, seed=0)
    curves[kind] = detection.pd_curve(replace(det, threshold=tau), grid,
                                      n_mc=N_MC, seed=0)

header = "  ".join(f"{k:>6}" for k in curves)
print(f"Pd vs ISNR (Pfa = {PFA}, eps = {EPS_DB} dB):\n")
print(f"{'ISNR dB':>8}  {header}")
for i, isnr in enumerate(grid):
    row = "  ".join(f"{curves[k][i]['pd']:6.3f}" for k in curves)
    print(f"{isnr:8.1f}  {row}")

print("\nISNR wall (first Pd = 0.9 crossing):")
for kind, rows in curves.items():
    wall = detection.wall_crossing(rows, 0.9)
    print(f"  {kind:>6}: {wall:6.2f} dB")
