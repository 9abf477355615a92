"""
System-level resource allocation: shared carriers and cached content
====================================================================

Part 1 assigns shared-band carriers to satellite terminals around
incumbent fixed-service stations with the Hungarian solver. Part 2 finds
the broadcast/unicast split that minimises total delivery time under a
Zipf popularity law.
"""
import numpy as np

from satkit import caching, cognitive

# ---------------------------------------------------------- carrier assignment
rng = np.random.default_rng(4)
M, K = 6, 8                                     # carriers x terminals
stations = cognitive.synthetic_rem(12, M, area_km=200.0, rng=rng)
terminals = rng.uniform(-100, 100, (K, 2))

interference = cognitive.interference_table(stations, terminals, M)
sinr = cognitive.build_sinr_matrix(np.full(K, 10 ** 1.2), interference,
                                   i_co=0.5)
rates = cognitive.rate_matrix(sinr)             # Shannon mapping
assignment = cognitive.assign_hungarian(rates)

print("optimal carrier -> terminal map:")
for m, k in assignment.pairs():
    print(f"  carrier {m} -> terminal {k}  ({rates[m, k]:.2f} bit/s/Hz)")
print(f"sum rate: {assignment.objective:.2f} bit/s/Hz")

# baseline: only carriers free of incumbent interference everywhere
exclusive, gain = cognitive.throughput_report(rates, interference, assignment)
print(f"exclusive-band baseline: {exclusive:.2f} bit/s/Hz -> gain x{gain:.2f}")

# ------------------------------------------------------------ caching threshold
print("\nbroadcast/unicast threshold, K=500 stations, I=100 files, "
      "R_uc/R_bc = 3:")
for alpha in (0.8, 1.2, 1.6):
    model = caching.PopularityModel(library_size=100, alpha=alpha)
    plan = caching.delivery_plan(model, 1.0, 500, 3.0, 1.0)
    i_hat = plan.i_hat
    line = (f"  alpha = {alpha}:  broadcast ranks < {i_hat}, "
            f"T_tot = {plan.t_tot[i_hat - 1]:7.2f}")
    if alpha > 1:
        cont = caching.continuous_threshold(model, 500, 3.0, 1.0)
        line += f"  (continuous optimum {cont:.2f})"
    print(line)
