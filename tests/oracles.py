"""Independent brute-force oracles shared across the test modules.

These stay deliberately dumb: grid scans, quadrature and a plain bisection,
with no code paths shared with the library routines they are used to check.
"""

import math

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


def lq_norm_formula(x, q):
    """``l^q`` norms of the rows of ``x`` by the general formulas, for any length.

    ``max |x_i|`` for q = inf, ``sum |x_i|`` for 1, ``sqrt(sum x_i^2)`` for 2
    and ``(sum |x_i|^q)^(1/q)`` otherwise: the reference for
    ``spaces.space_norm``'s one-coordinate ``|x|``.
    """
    arr = np.asarray(x, dtype=float)
    if math.isinf(q):
        return np.abs(arr).max(axis=-1)
    if q == 1.0:
        return np.abs(arr).sum(axis=-1)
    if q == 2.0:
        return np.sqrt((arr * arr).sum(axis=-1))
    return (np.abs(arr) ** q).sum(axis=-1) ** (1.0 / q)


def expected_max_abs_gaussians(k):
    """E max of k independent |N(0,1)| by quadrature on the tail formula."""
    return quad(lambda t: 1.0 - (2.0 * norm.cdf(t) - 1.0) ** k, 0.0, np.inf)[0]


def _abs_normal_moment(k):
    """E|N(0,1)|^k from double factorials: (k-1)!! for even k, sqrt(2/pi) 2^m m! for k = 2m + 1."""
    if k % 2 == 0:
        return float(math.prod(range(k - 1, 0, -2)))
    m = (k - 1) // 2
    return math.sqrt(2.0 / math.pi) * 2.0**m * math.factorial(m)


def _multinomial_sum(weights, power, term_moment):
    """E (sum_n X_n)^power over every composition of ``power``, with E X_n^j = term_moment(n, j)."""
    total = 0.0

    def expand(n, left, coef):
        nonlocal total
        if n == len(weights) - 1:
            total += coef * term_moment(n, left)
            return
        for j in range(left + 1):
            expand(n + 1, left - j, coef * math.comb(left, j) * term_moment(n, j))

    expand(0, power, 1.0)
    return total


def l1_gaussian_moment(sigma, p):
    """(E (sum_n sigma_n |g_n|)^p)^(1/p) for integer p by the multinomial expansion."""
    w = [float(s) for s in sigma]
    return _multinomial_sum(w, p, lambda n, j: w[n] ** j * _abs_normal_moment(j)) ** (1.0 / p)


def l2_gaussian_moment(sigma, p):
    """(E (sum_n sigma_n^2 g_n^2)^(p/2))^(1/p).

    Even p: the multinomial expansion over the moments ``(2j-1)!! sigma^(2j)``
    of ``sigma^2 g^2``.  p = 1: quadrature of
    ``(2 sqrt(pi))^-1 int (1 - prod_n (1 + 2 t sigma_n^2)^(-1/2)) t^(-3/2) dt``
    in ``u = log t``, split at the centre ``-log(sum sigma^2)``.
    """
    w = [float(s) for s in sigma]
    if p == 1:
        sq = np.asarray(w) ** 2
        centre = -math.log(sq.sum())

        def f(u):
            return -np.expm1(-0.5 * np.log1p(2.0 * np.exp(u) * sq).sum()) * np.exp(-0.5 * u)

        parts = ((centre - 100.0, centre), (centre, centre + 100.0))
        total = sum(quad(f, a, b, limit=500, epsabs=0.0, epsrel=1e-13)[0] for a, b in parts)
        return total / (2.0 * math.sqrt(math.pi))
    return _multinomial_sum(w, p // 2, lambda n, j: w[n] ** (2 * j) * _abs_normal_moment(2 * j)) ** (1.0 / p)


def linf_gaussian_moment(sigma, p):
    """(E max_n |sigma_n g_n|^p)^(1/p) by quadrature of ``p t^(p-1) P(max > t)``.

    ``P(max > t) = 1 - prod_n (1 - 2 sf(t / sigma_n))``, taken as
    ``-expm1(sum log1p(-2 sf))`` so the tail keeps its relative accuracy.
    """
    w = np.asarray([s for s in sigma if s > 0], dtype=float)

    def f(t):
        return p * t ** (p - 1.0) * -np.expm1(np.log1p(-2.0 * norm.sf(t / w)).sum())

    top = float(w.max())
    cuts = [0.0] + [top * (math.sqrt(p) + d) for d in (0.0, 4.0, 12.0, 40.0)]
    total = sum(quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(cuts, cuts[1:]))
    return total ** (1.0 / p)


MEDIAN_ABS_NORMAL = float(norm.ppf(0.75))  # median of |N(0,1)|
MEAN_ABS_NORMAL = float(np.sqrt(2.0 / np.pi))
