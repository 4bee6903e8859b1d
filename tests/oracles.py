"""Independent brute-force oracles shared across the test modules.

These stay deliberately dumb: grid scans, quadrature and a plain bisection,
with no code paths shared with the library routines they are used to check.
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


def luxemburg_scale_bisect(f, w, weight=1.0):
    """Smallest ``delta > 0`` with ``weight * sum_n f(w_n / delta) <= 1`` by plain bisection.

    ``f`` is a vectorised nondecreasing function with ``f(0) = 0`` that grows
    past ``1 / weight``, and ``w`` a 1-D array of nonnegative weights.  The
    bracket starts at a tenth of the largest weight, is grown/shrunk
    geometrically, then bisected to the relative width 1e-13 at every scale,
    evaluating ``f`` at every midpoint.  Returns 0 for zero weights, or a sum
    that never exceeds 1 (level set ``(0, inf)``).  On weights in the normal
    float range, ``orlicz.luxemburg_scale`` must return this float bit for bit.
    """
    top = float(np.max(w, initial=0.0))
    if top == 0.0:
        return 0.0

    def excess(delta: float) -> float:
        return weight * float(np.sum(f(w / delta))) - 1.0

    with np.errstate(over="ignore"):
        lo = top / 10.0
        shrink = 0
        while excess(lo) <= 0.0:
            lo *= 0.5
            shrink += 1
            if shrink > 200:
                return 0.0
        hi = 2.0 * lo
        grow = 0
        while excess(hi) > 0.0:
            hi *= 2.0
            grow += 1
            if grow > 200:
                raise ArithmeticError("modular does not drop below the unit level")
        for _ in range(120):  # subnormal w need the cap: their floats lie over 1e-13 apart
            mid = 0.5 * (lo + hi)
            if excess(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * hi:
                break
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


def _theta_family_masked(x, of_square):
    """``of_square(x^2)`` on the positive entries of ``x``, and 0 elsewhere by a mask."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0
    xp = arr[pos]
    out[pos] = of_square(xp * xp)
    return float(out) if out.ndim == 0 else out


def theta_masked(x):
    """``Theta(x) = x^2 exp(-1/(2 x^2))`` with ``Theta(0) = 0`` set by a mask."""
    return _theta_family_masked(x, lambda sq: sq * np.exp(-0.5 / sq))


def theta_psi_masked(x):
    """``x Theta'(x) - Theta(x) = (1 + x^2) exp(-1/(2 x^2))``, 0 at 0 by a mask."""
    return _theta_family_masked(x, lambda sq: (1.0 + sq) * np.exp(-0.5 / sq))


def expected_max_abs_gaussians(k):
    """E max of k independent |N(0,1)| by quadrature on the tail formula."""
    return quad(lambda t: 1.0 - (2.0 * norm.cdf(t) - 1.0) ** k, 0.0, np.inf)[0]


MEDIAN_ABS_NORMAL = float(norm.ppf(0.75))  # median of |N(0,1)|
MEAN_ABS_NORMAL = float(np.sqrt(2.0 / np.pi))
