"""Independent brute-force oracles shared across the test modules.

These stay deliberately dumb: grid scans and quadrature only, no bisection
and no code paths shared with the library routines they are used to check.
"""

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm


def luxemburg_grid_scan(phi, weights, n_grid=10_000, rounds=3):
    """Brute-force Luxemburg norm: log-spaced scan for the unit level, refined.

    Scans ``n_grid`` scales per round; each round zooms into the bracketing
    pair of the previous one, so three rounds resolve the crossing to far
    below 1e-6 relative without any root-finding.
    """
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    if w.size == 0:
        return 0.0
    top = float(w.max())
    lo, hi = top / 1000.0, top * 1e4
    for r in range(rounds):
        ds = np.geomspace(lo, hi, n_grid) if r == 0 else np.linspace(lo, hi, n_grid)
        with np.errstate(over="ignore"):
            mods = phi.evaluate(np.outer(1.0 / ds, w)).sum(axis=1)
        i = int(np.argmax(mods <= 1.0))
        lo, hi = ds[max(i - 1, 0)], ds[i]
    return 0.5 * (lo + hi)


def orlicz_grid_min(phi, weights, n_grid=1_000, rounds=4):
    """Brute-force Orlicz norm: minimum of ``(1 + sum phi(k w)) / k`` on zoomed grids.

    The first round scans ``k`` log-spaced over six decades around
    ``1 / max(w)``; each later round scans the neighbours of the previous
    minimiser linearly.  Only the infimand itself is evaluated: no
    root-finding and no derivative of ``phi``.
    """
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    if w.size == 0:
        return 0.0
    k0 = 1.0 / float(w.max())
    lo, hi = k0 / 1000.0, k0 * 1000.0
    best = np.inf
    for r in range(rounds):
        ks = np.geomspace(lo, hi, n_grid) if r == 0 else np.linspace(lo, hi, n_grid)
        with np.errstate(over="ignore"):
            vals = (1.0 + phi.evaluate(np.outer(ks, w)).sum(axis=1)) / ks
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, n_grid - 1)]
    return best


def expected_max_abs_gaussians(k):
    """E max of k independent |N(0,1)| by quadrature on the tail formula."""
    return quad(lambda t: 1.0 - (2.0 * norm.cdf(t) - 1.0) ** k, 0.0, np.inf)[0]


MEDIAN_ABS_NORMAL = float(norm.ppf(0.75))  # median of |N(0,1)|
MEAN_ABS_NORMAL = float(np.sqrt(2.0 / np.pi))
