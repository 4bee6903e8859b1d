"""Young functions, modulars, and the two Orlicz norms of finite sequences.

The central object is the function ``Theta(x) = x^2 exp(-1/(2 x^2))`` whose
Orlicz sequence norm controls expected suprema of Gaussian families, next to
the exponential functions ``PhiBeta(x) = exp(|x|^beta) - 1`` that drive the
path-norm machinery.  Weight sequences are finite 1-D arrays of nonnegative
reals; infinite sequences enter only through truncations whose dropped tail
is numerically negligible (see :func:`geometric_rho_ratio`).

Two norms are computed for a Young function ``Phi`` and a sequence ``a``:

* the Luxemburg norm ``rho_Phi(a) = inf{delta > 0 : sum_n Phi(a_n/delta) <= 1}``,
  and
* the Orlicz norm ``|a|_Phi = inf_{k > 0} (1 + sum_n Phi(k a_n))/k``, whose
  minimiser ``k = 1/d`` has ``d`` the Luxemburg norm of ``a`` under
  ``psi(x) = x Phi'(x) - Phi(x)``.

Both are found by the one search of :func:`luxemburg_scale`: a locate of
the unit level by secant bracketing and Chandrupatla's method in ``log delta``,
then a replay of the geometric bracket and its bisection that evaluates only
the points the located interval leaves undecided.  It returns the bisection's
float, and its relative stop makes both norms homogeneous at every scale.
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


def _theta_family(x, of_square):
    """``of_square(x^2)``, exactly 0 at 0 through ``exp(-0.5 / 0) = 0``.

    Accepts scalars or arrays, rejects negative input.
    """
    arr = np.asarray(x, dtype=float)
    if (arr < 0).any():
        raise ValueError("Theta requires nonnegative input")
    with np.errstate(divide="ignore"):
        out = of_square(arr * arr)
    return float(out) if out.ndim == 0 else out


def theta_eval(x):
    """Evaluate ``Theta(x) = x^2 exp(-1/(2 x^2))`` with ``Theta(0) = 0``.

    The singularity at 0 is removable; it is evaluated as exactly 0.
    Accepts scalars or arrays, rejects negative input.
    """
    return _theta_family(x, lambda sq: sq * np.exp(-0.5 / sq))


@dataclass(frozen=True)
class OrliczFunction:
    """A Young function with vectorised evaluators of itself and of ``psi``.

    ``evaluate`` maps nonnegative reals to nonnegative reals elementwise,
    with ``evaluate(0) = 0``, convex, and unbounded.  ``psi`` evaluates
    ``x phi'(x) - phi(x)``, which is nondecreasing (its derivative is
    ``x phi''(x)``) and unbounded with ``psi(0) = 0``; it is the level
    function of :func:`orlicz_norm`.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]


def _theta_psi(x):
    """``x Theta'(x) - Theta(x) = (1 + x^2) exp(-1/(2 x^2))`` with ``psi(0) = 0``."""
    return _theta_family(x, lambda sq: (1.0 + sq) * np.exp(-0.5 / sq))


def theta() -> OrliczFunction:
    """The Gaussian-maximum function ``Theta``."""
    return OrliczFunction(theta_eval, _theta_psi)


def phi_beta(beta: float) -> OrliczFunction:
    """The exponential Young function ``PhiBeta(x) = exp(|x|^beta) - 1``.

    It is convex, hence a Young function, only for ``beta >= 1``.  With
    ``u = |x|^beta``, ``psi = beta u e^u - (e^u - 1)`` is evaluated as
    ``beta u + (beta u - 1) expm1(u)``, which avoids cancellation near 0.
    """
    if not beta >= 1:
        raise ValueError("beta must be at least 1")

    def _eval(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = np.expm1(np.abs(arr) ** beta)
        return float(out) if out.ndim == 0 else out

    def _psi(x):
        with np.errstate(over="ignore"):
            u = np.abs(np.asarray(x, dtype=float)) ** beta
            bu = beta * u
            out = bu + (bu - 1.0) * np.expm1(u)
        return float(out) if out.ndim == 0 else out

    return OrliczFunction(_eval, _psi)


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


def luxemburg_scale(f: Callable[[np.ndarray], np.ndarray], w: np.ndarray, weight: float = 1.0) -> float:
    """Smallest ``delta > 0`` with ``weight * sum_n f(w_n / delta) <= 1``.

    ``f`` is a vectorised nondecreasing function with ``f(0) = 0`` that grows
    past ``1 / weight``, and ``w`` a 1-D array of nonnegative weights.  The
    weights are scaled by the power of two that brings their peak into
    ``[1/2, 1)``, which is exact and undone at the end, so subnormal weights
    get a nonzero bracket too.  The result is the float that bisecting a
    bracket to the relative width 1e-13 gives, the bracket starting at a tenth
    of the peak and grown/shrunk geometrically.  A locate runs first: secant
    steps in ``u = log delta`` away from a tenth of the peak bracket the unit
    level of ``g(u) = log(weight * sum_n f(w_n e^-u))``, and Chandrupatla's
    method (inverse quadratic interpolation, else bisection in ``u``) narrows
    it to ``(a, b)`` of relative width 1e-14, with ``g`` known positive at
    ``a`` and nonpositive at ``b``.  The bracket loops and the bisection are
    then replayed and evaluate only the points strictly inside ``(a, b)``.
    ``g`` has the sign of the excess ``weight * sum - 1`` and does not
    increase as ``delta`` grows, so every other point takes the side an
    evaluation would give it, and the replay returns the bisection's float
    in about a fifth of its evaluations.  Returns 0 for zero weights, or a
    sum that never exceeds 1 (level set ``(0, inf)``), and ``inf`` or NaN for
    an infinite or NaN peak weight.
    """
    top = float(np.max(w, initial=0.0))
    if top == 0.0:
        return 0.0
    if not math.isfinite(top):
        return top
    e = math.frexp(top)[1]
    w = np.ldexp(w, -e)

    def log_level(delta: float) -> float:
        level = weight * float(f(w / delta).sum())
        if 0.0 < level < math.inf:
            return math.log(level)
        return math.inf if level > 0.0 else -math.inf

    with np.errstate(over="ignore"):
        # Bracket: from x0 and its neighbour, secant steps in u, one to four
        # times the last (twice where g is infinite), up to the last delta
        # the replayed loops would test.
        x0 = math.ldexp(top, -e) / 10.0
        gp = log_level(x0)
        up = gp > 0.0
        end, ratio = (math.ldexp(x0, 201), 2.0) if up else (math.ldexp(x0, -200), 0.5)
        xp, x = x0, x0 * ratio
        gx = log_level(x)
        while (gx > 0.0) == up and x != end:
            k = gx / (gp - gx) if math.isfinite(gp) and math.isfinite(gx) and gp != gx else 2.0
            ratio **= min(max(k, 1.0), 4.0)
            xp, gp = x, gx
            x = min(x * ratio, end) if up else max(x * ratio, end)
            gx = log_level(x)
        if (gx > 0.0) == up:  # the level stays on one side of 1 up to the end
            a, b = (x, math.inf) if up else (0.0, x)
        else:
            # Chandrupatla (Adv. Eng. Software 28, 1997): the newest end n, the other
            # end o, and c, the value n's side held before n; gc NaN makes the
            # first step a secant
            n, gn, o, go, c, gc = x, gx, xp, gp, xp, math.nan
            for _ in range(64):  # about 8 steps; the replay evaluates whatever a cut-off leaves inside (a, b)
                if abs(o - n) <= 1e-14 * max(o, n):
                    break
                s = math.log(o / n)  # u(o) - u(n)
                t = 0.5  # bisection in u, where g is infinite or the interpolation unsafe
                if math.isfinite(gn) and math.isfinite(go):
                    if not math.isfinite(gc):
                        t = gn / (gn - go)
                    else:
                        uc = math.log(c / n)
                        xi, phi = s / (s - uc), (gn - go) / (gc - go)
                        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                            t = gn / (go - gn) * gc / (go - gc) + uc / s * gn / (gc - gn) * go / (gc - go)
                # at least 4e-15 in u from either end: once n has converged,
                # the next point lands past the unit level and closes (a, b)
                tl = 4e-15 / abs(s)
                x = n * math.exp(min(max(t, tl), 1.0 - tl) * s)
                gx = log_level(x)
                if (gx > 0.0) == (gn > 0.0):
                    c, gc = n, gn
                else:
                    c, gc, o, go = o, go, n, gn
                n, gn = x, gx
            a, b = (n, o) if gn > 0.0 else (o, n)

        def above(delta: float) -> bool:
            return delta <= a or (delta < b and log_level(delta) > 0.0)

        lo, shrink = x0, 0
        while not above(lo):
            lo *= 0.5
            shrink += 1
            if shrink > 200:
                return 0.0
        hi, grow = 2.0 * lo, 0
        while above(hi):
            hi *= 2.0
            grow += 1
            if grow > 200:
                raise ArithmeticError("modular does not drop below the unit level")
        for _ in range(120):  # scaled weights stop within about 45 halvings; the cap only bounds the loop
            mid = 0.5 * (lo + hi)
            if above(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * hi:
                break
    return math.ldexp(0.5 * (lo + hi), e)


def luxemburg_norm(phi: OrliczFunction, a) -> float:
    """Luxemburg norm ``inf{delta > 0 : modular(phi, a, delta) <= 1}``.

    Zero and empty sequences have norm 0.
    """
    w = as_weights(a)
    return luxemburg_scale(phi.evaluate, w[w > 0])


def orlicz_norm(phi: OrliczFunction, a) -> float:
    """Orlicz norm ``inf_{k > 0} (1 + sum_n phi(k a_n)) / k``.

    The derivative of the infimand has the sign of ``sum_n psi(k a_n) - 1``
    with ``psi(t) = t phi'(t) - phi(t)`` nondecreasing, so the infimand is
    unimodal and its minimiser is ``k = 1/d`` with ``d`` the Luxemburg
    scale of ``psi`` (the Amemiya / Krasnosel'skii--Rutickii identity, see
    Rao--Ren, *Theory of Orlicz Spaces*, 1991).  Zero and empty sequences
    give 0.
    """
    w = as_weights(a)
    w = w[w > 0]
    d = luxemburg_scale(phi.psi, w)
    if d == 0.0:
        return 0.0
    return d * (1.0 + float(np.sum(phi.evaluate(w / d))))


def geometric_rho_ratio(alpha: float, truncation: int) -> float:
    """Luxemburg ``Theta``-norm of ``(alpha^n)_n`` over ``sqrt(log 1/(1-alpha))``.

    ``alpha`` must lie in ``[1/2, 1)``.  The truncation length is extended
    automatically until the first dropped entry is below 1e-12, after which
    the dropped tail cannot move the Luxemburg search (its modular terms
    underflow to zero at any relevant scale).
    """
    if not 0.5 <= alpha < 1.0:
        raise ValueError("alpha must lie in [1/2, 1)")
    k_tail = int(math.ceil(math.log(1e-12) / math.log(alpha)))
    k_eff = max(int(truncation), k_tail)
    seq = alpha ** np.arange(1, k_eff + 1)
    return luxemburg_norm(theta(), seq) / math.sqrt(math.log(1.0 / (1.0 - alpha)))
