"""Young functions, modulars, and the two Orlicz norms of finite sequences.

The central object is the function ``Theta(x) = x^2 exp(-1/(2 x^2))`` whose
Orlicz sequence norm controls expected suprema of Gaussian families, next to
the exponential functions ``PhiBeta(x) = exp(|x|^beta) - 1`` that drive the
path-norm machinery.  Weight sequences are finite 1-D arrays of nonnegative
reals; infinite sequences enter only through truncations whose dropped tail
is numerically negligible (see :func:`geometric_rho_ratio`).

Two norms are computed for a Young function ``Phi`` and a sequence ``a``:

* the Luxemburg norm ``rho_Phi(a) = inf{delta > 0 : sum_n Phi(a_n/delta) <= 1}``,
  found by bracketing and bisection, and
* the Orlicz norm ``|a|_Phi = inf_{delta > 0} (1 + sum_n Phi(delta a_n))/delta``,
  found by a log-spaced grid scan followed by golden-section refinement.

The two are equivalent within a factor two: ``rho <= |.|_Phi <= 2 rho``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "OrliczFunction",
    "theta",
    "phi_beta",
    "theta_eval",
    "as_weights",
    "modular",
    "luxemburg_norm",
    "orlicz_norm",
    "geometric_rho_ratio",
    "luxemburg_scale",
]

#: Absolute tolerance of the Luxemburg bisection (the loop actually refines
#: further, down to ~1e-12 relative, which is free at these problem sizes).
BISECT_TOL = 1e-9

#: Relative bracket tolerance of the Orlicz-norm golden-section refinement.
REFINE_TOL = 1e-8

_GRID_POINTS = 241  # log-spaced minimisation grid over [1e-6, 1e6]


def theta_eval(x):
    """Evaluate ``Theta(x) = x^2 exp(-1/(2 x^2))`` with ``Theta(0) = 0``.

    The singularity at 0 is removable; it is evaluated as exactly 0.
    Accepts scalars or arrays, rejects negative input.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("theta_eval requires nonnegative input")
    out = np.zeros_like(arr)
    pos = arr > 0
    xp = arr[pos]
    out[pos] = xp * xp * np.exp(-0.5 / (xp * xp))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OrliczFunction:
    """A Young-type function together with a vectorised evaluator.

    ``evaluate`` maps nonnegative reals to nonnegative reals elementwise,
    with ``evaluate(0) = 0``, nondecreasing, and unbounded.
    """

    kind: str  # "theta" or "phi_beta"
    evaluate: Callable[[np.ndarray], np.ndarray]
    beta: float | None = None


def theta() -> OrliczFunction:
    """The Gaussian-maximum function ``Theta``."""
    return OrliczFunction("theta", theta_eval)


def phi_beta(beta: float) -> OrliczFunction:
    """The exponential Young function ``PhiBeta(x) = exp(|x|^beta) - 1``."""
    if beta <= 0:
        raise ValueError("beta must be positive")

    def _eval(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = np.expm1(np.abs(arr) ** beta)
        return float(out) if out.ndim == 0 else out

    return OrliczFunction("phi_beta", _eval, beta=beta)


def as_weights(a) -> np.ndarray:
    """Coerce to a 1-D float array of nonnegative finite weights."""
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if arr.ndim != 1:
        raise ValueError("a weight sequence must be one-dimensional")
    if arr.size and (np.any(arr < 0) or not np.all(np.isfinite(arr))):
        raise ValueError("weights must be finite and nonnegative")
    return arr


def modular(phi: OrliczFunction, a, delta: float) -> float:
    """Sum ``sum_n phi(a_n / delta)`` for ``delta > 0``.

    For ``Theta`` this is ``sum_n (a_n^2/delta^2) exp(-delta^2/(2 a_n^2))``.
    The empty sequence gives 0.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    w = as_weights(a)
    if w.size == 0:
        return 0.0
    return float(np.sum(phi.evaluate(w / delta)))


def luxemburg_scale(excess: Callable[[float], float], start: float) -> float:
    """Smallest ``delta > 0`` with ``excess(delta) <= 0``.

    ``excess`` must be (weakly) decreasing in ``delta`` with a unique sign
    change; ``start`` is a positive initial guess.  The bracket is first
    grown/shrunk geometrically and then bisected.  Returns 0 when ``excess``
    never exceeds 0 (the level set is all of ``(0, inf)``).
    """
    lo = float(start)
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
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def luxemburg_norm(phi: OrliczFunction, a) -> float:
    """Luxemburg norm ``inf{delta > 0 : modular(phi, a, delta) <= 1}``.

    Zero and empty sequences have norm 0.  The initial lower bracket is a
    tenth of the largest entry, so the bracketing loop starts strictly above
    the unit level for every unbounded Young function with ``phi(10) > 1``.
    """
    w = as_weights(a)
    w = w[w > 0]
    if w.size == 0:
        return 0.0

    def excess(delta: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(phi.evaluate(w / delta))) - 1.0

    return luxemburg_scale(excess, float(np.max(w)) / 10.0)


def orlicz_norm(phi: OrliczFunction, a) -> float:
    """Orlicz norm ``inf_{delta > 0} (1 + sum_n phi(delta a_n)) / delta``.

    The infimand is not assumed unimodal: a log-spaced scan over
    ``delta in [1e-6, 1e6]`` locates the global basin, and golden-section
    refinement polishes the minimiser.  Zero and empty sequences give 0
    (the objective decays like ``1/delta``).
    """
    w = as_weights(a)
    w = w[w > 0]
    if w.size == 0:
        return 0.0
    grid = np.logspace(-6.0, 6.0, _GRID_POINTS)
    with np.errstate(over="ignore"):
        vals = (1.0 + phi.evaluate(np.outer(grid, w)).sum(axis=1)) / grid
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, _GRID_POINTS - 1)]

    def objective(delta: float) -> float:
        with np.errstate(over="ignore"):
            return (1.0 + float(np.sum(phi.evaluate(delta * w)))) / delta

    return _golden_min(objective, lo, hi)


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > REFINE_TOL * max(1.0, abs(a)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return min(fc, fd, f(mid))


def geometric_rho_ratio(alpha: float, truncation: int) -> float:
    """Luxemburg ``Theta``-norm of ``(alpha^n)_n`` over ``sqrt(log 1/(1-alpha))``.

    ``alpha`` must lie in ``[1/2, 1)``.  The truncation length is extended
    automatically until the first dropped entry is below 1e-12, after which
    the dropped tail cannot move the bisection (its modular terms underflow
    to zero at any relevant scale).
    """
    if not 0.5 <= alpha < 1.0:
        raise ValueError("alpha must lie in [1/2, 1)")
    k_tail = int(math.ceil(math.log(1e-12) / math.log(alpha)))
    k_eff = max(int(truncation), k_tail)
    seq = alpha ** np.arange(1, k_eff + 1)
    return luxemburg_norm(theta(), seq) / math.sqrt(math.log(1.0 / (1.0 - alpha)))
