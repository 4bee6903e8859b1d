"""Walk through the Orlicz sequence-norm machinery.

Shows the function Theta(x) = x^2 exp(-1/(2x^2)), its modular, the two
equivalent norms (Luxemburg by bisection, replayed after a secant bracket
and Chandrupatla's method in log delta have located the unit level, Orlicz
by the same search on
psi(x) = x Theta'(x) - Theta(x), the level function of its minimiser),
and the square-root-log growth of the norm of geometric sequences.

Run:  python demos/orlicz_norms.py
"""

import math

import numpy as np

from besovbm import orlicz

th = orlicz.theta()

print("Theta at a few points")
for x in (0.0, 0.5, 1.0, 2.0, 5.0):
    print(f"  Theta({x:>3}) = {orlicz.theta_eval(x):.6f}")

print("\nModular sum_n Theta(a_n / delta) for a = (1, 1):")
for delta in (0.5, 1.0, 2.0, 4.0):
    print(f"  delta = {delta:>3}: modular = {orlicz.modular(th, [1.0, 1.0], delta):.6f}")

print("\nThe Luxemburg norm is the scale where the modular crosses 1:")
rho = orlicz.luxemburg_norm(th, [1.0, 1.0])
print(f"  rho((1,1)) = {rho:.9f}, modular there = {orlicz.modular(th, [1.0, 1.0], rho):.9f}")

print("\nLuxemburg vs Orlicz norm on random sequences (always within a factor 2):")
rng = np.random.default_rng(1)
for _ in range(5):
    w = rng.uniform(0.0, 2.0, size=8)
    lux = orlicz.luxemburg_norm(th, w)
    orl = orlicz.orlicz_norm(th, w)
    print(f"  rho = {lux:.5f}  |.|_Theta = {orl:.5f}  ratio = {orl / lux:.4f}")

print("\nGeometric sequences (alpha^n): the norm grows like sqrt(log 1/(1-alpha)).")
print("  alpha   rho_Theta   sqrt(log 1/(1-a))   ratio")
for alpha in (0.5, 0.7, 0.9, 0.99):
    ratio = orlicz.geometric_rho_ratio(alpha, 100)
    scale = math.sqrt(math.log(1.0 / (1.0 - alpha)))
    print(f"  {alpha:<6}  {ratio * scale:.5f}     {scale:.5f}             {ratio:.5f}")
