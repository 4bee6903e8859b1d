"""Expected suprema of independent Gaussian vectors against the sandwich.

For independent centered Gaussians with first moments m_n and weak
variances sigma_n, E sup_n |xi_n| is pinned between max(rho/3, m) and
m + 3 rho, where rho is the Luxemburg Theta-norm of (sigma_n).  Monte
Carlo estimates land inside the band for every weight profile.

Run:  python demos/gaussian_maxima.py
"""

import math

import numpy as np

from besovbm import maxima
from besovbm.simulate import EnsembleSpec, GaussianVarSpec, RngSeed
from besovbm.spaces import finite_lq, truncated_lp

SCALAR = finite_lq(1, 2.0)


def scalar_ensemble(sigmas):
    return EnsembleSpec(tuple(GaussianVarSpec(SCALAR, (float(s),)) for s in sigmas))


print("K i.i.d. standard Gaussians: the supremum tracks sqrt(2 log K).")
print("  K      estimate   sqrt(2 log K)   band [lower, upper]")
for log2k in (4, 6, 8):
    k = 1 << log2k
    rep = maxima.empirical_sup_mean(scalar_ensemble(np.ones(k)), 5_000, RngSeed(7, 100 * log2k))
    print(f"  {k:<5}  {rep.estimate:.4f}     {math.sqrt(2 * math.log(k)):.4f}          "
          f"[{rep.lower_bound:.4f}, {rep.upper_bound:.4f}]")

print("\nDifferent weight profiles, 10_000 samples each:")
cases = [
    ("geometric 0.9^n, K=200", scalar_ensemble(0.9 ** np.arange(1, 201))),
    ("spike (5, then tiny)", scalar_ensemble([5.0] + [0.05] * 63)),
    ("sup-norm pairs, K=8",
     EnsembleSpec(tuple(GaussianVarSpec(truncated_lp(math.inf, 2), (1.0, 1.0)) for _ in range(8)))),
]
for label, ensemble in cases:
    rep = maxima.empirical_sup_mean(ensemble, 10_000, RngSeed(7, 9000 + len(label)))
    status = "inside" if rep.verdict else "OUTSIDE"
    print(f"  {label:<24} estimate {rep.estimate:.4f} +- {rep.ci_half_width:.4f}  "
          f"band [{rep.lower_bound:.4f}, {rep.upper_bound:.4f}]  -> {status}")

print("\nThe explicit pieces for sigma = (1, 1, ..., 1), K = 64:")
sig = np.ones(64)
m = math.sqrt(2.0 / math.pi)
print(f"  m = E|N(0,1)|          = {m:.5f}")
print(f"  lower max(rho/3, m)    = {maxima.lower_bound(m, sig):.5f}")
print(f"  upper m + 3 rho        = {maxima.upper_bound_mean(m, sig):.5f}")
print(f"  closed-form dominator (p = 3): {maxima.remark_bound(sig, 3.0):.5f}")
