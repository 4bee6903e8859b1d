"""Discretised L^p, Besov, and exponential Orlicz norms of sampled paths.

All integrals are left-endpoint Riemann sums on the path's own dyadic grid;
no interpolation between grid points is attempted, because sampled Brownian
grid values are already exact in law.  The smoothness seminorm weights the
L^p norm of the lag-2^-n difference by 2^(n alpha) and aggregates over the
scales n = 1..n_max in l^q (maximum for q = inf).  The exponential Orlicz
norms take suprema of p^(-1/beta)-weighted L^p quantities over integer p.

The scale cap defaults to depth - 6 so that the difference-norm Riemann sum
at the finest scale still averages at least 64 increments.

Row norms are taken ``NORM_BLOCK`` elements at a time into one preallocated
vector, so no path-sized temporary (differences, absolute values, squares)
is ever allocated.  Each row's norm is computed exactly as in a single
whole-array call, so the blocking never changes a result.

The exponential Orlicz sups stop their integer-p sweep early.  The grid
weight times the number of grid points is at most 1, so each L^p term is at
most its norm vector's peak: ``||f||_{L^p(w)} <= max|f|``.  Every total is
then at most ``B``, the same sum of peaks (``max|W|`` for the L^p norm,
``max|W| + max_n 2^(n alpha) max|Delta_n|`` for the Besov norm), and every
weighted term past p is at most ``(p+1)^(-1/beta) B``.  Each vector's running
powers stop at ``POWER_CAP`` (or the largest reported p, if larger); where
``(POWER_CAP+1)^(-1/beta) B (1 + BOUND_SLACK)`` is at most the sup so far,
that sup is the answer, and otherwise the full sweep is redone.  The result
is bit-identical to the full sweep followed by :func:`p_weighted_sup`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import orlicz
from .simulate import PathSample
from .spaces import row_blocks, space_norm

__all__ = [
    "SCALE_MARGIN",
    "POWER_CAP",
    "default_n_max",
    "BesovParams",
    "NormReport",
    "lp_norm_path",
    "dyadic_increment_lp",
    "besov_seminorm",
    "besov_norm",
    "exp_orlicz_lp_norm",
    "besov_orlicz_norm",
    "luxemburg_function_norm",
    "integer_p_lp_norms",
    "integer_p_besov_totals",
    "p_weighted_sup",
]

SCALE_MARGIN = 6
DEFAULT_P_MAX = 64
# Running powers per norm vector before the early-exit bound is checked, and
# the relative slack that covers rounding in that bound.
POWER_CAP = 32
BOUND_SLACK = 1e-9


def default_n_max(depth: int) -> int:
    """Largest trusted dyadic scale for a path of the given depth."""
    return max(depth - SCALE_MARGIN, 1)


@dataclass(frozen=True)
class BesovParams:
    """Parameters (alpha, p, q, n_max) of a dyadic Besov norm."""

    alpha: float
    p: float
    q: float  # math.inf for the sup form
    n_max: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not (1.0 <= self.p < math.inf):
            raise ValueError("p must lie in [1, inf)")
        if not (self.q >= 1.0):
            raise ValueError("q must lie in [1, inf]")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")


@dataclass(frozen=True)
class NormReport:
    """L^p part, smoothness part, their sum, and the per-scale weighted terms."""

    lp_part: float
    seminorm_part: float
    total: float
    per_scale: tuple  # pairs (n, 2^(n alpha) * difference norm)


def _interval_indices(path: PathSample, sub_interval) -> tuple[int, int]:
    a, b = sub_interval
    n = path.grid_size
    ka, kb = a * n, b * n
    if abs(ka - round(ka)) > 1e-9 or abs(kb - round(kb)) > 1e-9:
        raise ValueError("sub-interval endpoints must align with the dyadic grid")
    ka, kb = int(round(ka)), int(round(kb))
    if not 0 <= ka < kb <= n:
        raise ValueError("sub-interval must be nonempty and contained in [0, 1]")
    return ka, kb


def _row_norms(space, values: np.ndarray, shift: int = 0) -> np.ndarray:
    """Norms of the rows of ``values``, or of ``values[k + shift] - values[k]``.

    With a positive shift there are ``len(values) - shift`` rows.  Computed
    block by block into one output vector.
    """
    rows = values.shape[0] - shift
    out = np.empty(rows)
    for lo, hi in row_blocks(rows, space.dim):
        block = values[lo + shift : hi + shift] - values[lo:hi] if shift else values[lo:hi]
        out[lo:hi] = space_norm(space, block)
    return out


def _reduce_lp(norms: np.ndarray, weight: float, p: float) -> float:
    if math.isinf(p):
        return float(norms.max()) if norms.size else 0.0
    return float((weight * np.sum(norms**p)) ** (1.0 / p))


def lp_norm_path(path: PathSample, p: float, sub_interval=(0.0, 1.0)) -> float:
    """Left-endpoint Riemann L^p norm of t -> |path(t)| over [a, b).

    ``(2^-N sum_{t_k in [a,b)} |values_k|^p)^(1/p)``; the maximum for p = inf.
    """
    if not p >= 1.0:
        raise ValueError("p must lie in [1, inf]")
    ka, kb = _interval_indices(path, sub_interval)
    return _reduce_lp(_row_norms(path.space, path.values[ka:kb]), 2.0**-path.depth, p)


def _increment_norms(path: PathSample, n: int) -> np.ndarray:
    if not 1 <= n <= path.depth:
        raise ValueError("scale n must lie in [1, depth]")
    return _row_norms(path.space, path.values[: path.grid_size], 1 << (path.depth - n))


def dyadic_increment_lp(path: PathSample, n: int, p: float) -> float:
    """L^p norm of t -> |path(t + 2^-n) - path(t)| over [0, 1 - 2^-n).

    Riemann sum over the grid points t_k with t_k + 2^-n <= 1, p-th root
    taken after weighting by the grid step.
    """
    if not p >= 1.0:
        raise ValueError("p must lie in [1, inf]")
    return _reduce_lp(_increment_norms(path, n), 2.0**-path.depth, p)


def _weighted_scale_terms(path: PathSample, alpha: float, p: float, n_max: int) -> np.ndarray:
    return np.array(
        [2.0 ** (n * alpha) * dyadic_increment_lp(path, n, p) for n in range(1, n_max + 1)]
    )


def besov_seminorm(path: PathSample, params: BesovParams) -> float:
    """Dyadic smoothness seminorm: l^q aggregation of the weighted scale terms.

    The n = 0 term vanishes (a unit lag leaves no room inside (0, 1)), so the
    sum runs over n = 1..n_max; q = inf takes the maximum instead.
    """
    return _reduce_lp(_weighted_scale_terms(path, params.alpha, params.p, params.n_max), 1.0, params.q)


def besov_norm(path: PathSample, params: BesovParams) -> NormReport:
    """Full Besov norm: L^p part over (0, 1) plus the smoothness seminorm."""
    lp_part = lp_norm_path(path, params.p)
    terms = _weighted_scale_terms(path, params.alpha, params.p, params.n_max)
    semi = _reduce_lp(terms, 1.0, params.q)
    per_scale = tuple((n, float(t)) for n, t in zip(range(1, params.n_max + 1), terms))
    return NormReport(lp_part, semi, lp_part + semi, per_scale)


def _power_sums(norms: np.ndarray, weight: float, count: int) -> np.ndarray:
    """``(weight sum norms**p)^(1/p)`` for p = 1..count from one running power.

    The running power is updated in place, one multiply per element and power.
    """
    out = np.empty(count)
    run = np.array(norms)
    for p in range(1, count + 1):
        if p > 1:
            np.multiply(run, norms, out=run)
        out[p - 1] = (weight * run.sum()) ** (1.0 / p)
    return out


def _lp_prefix(norms: np.ndarray, weight: float, p_max: int, count: int) -> tuple[np.ndarray, float]:
    """``integer_p_lp_norms(norms, weight, p_max)[:count]``, the same floats, and ``max(norms)``.

    The power-of-two rescale is decided by ``p_max``, not by ``count``, so a
    prefix never differs from the full profile.
    """
    peak = float(np.max(norms, initial=0.0))
    e = math.frexp(peak)[1]
    if abs(e) * p_max > 900:
        return np.ldexp(_power_sums(np.ldexp(norms, -e), weight, count), e), peak
    return _power_sums(norms, weight, count), peak


def integer_p_lp_norms(norms: np.ndarray, weight: float, p_max: int) -> np.ndarray:
    """L^p norms for p = 1..p_max from one pass of running powers.

    The running power ``norms**p`` is updated in place, one multiply per
    element and power.  Where ``max(norms)**p_max`` could leave the float
    range, the norms are first scaled by the power of two ``2^-e`` that
    brings their peak into ``[1/2, 1)``, which is exact and undone at the end.
    This full sweep is the reference that the early-exit sups reproduce.
    """
    return _lp_prefix(norms, weight, p_max, p_max)[0]


def _p_weights(count: int, beta: float) -> np.ndarray:
    if beta <= 0:
        raise ValueError("beta must be positive")
    return np.arange(1, count + 1) ** (-1.0 / beta)


def p_weighted_sup(values, beta: float):
    """``max_p p^(-1/beta) values[..., p - 1]`` over p = 1, 2, ... along the last axis."""
    values = np.asarray(values)
    return np.max(_p_weights(values.shape[-1], beta) * values, axis=-1)


def _capped_sup(weights: np.ndarray, values: np.ndarray, bound) -> float | None:
    """The weighted sup over all ``len(weights)`` exponents, from the first ``len(values)``.

    ``bound`` caps every later value, so the later weighted terms are at most
    ``weights[len(values)] * bound``.  Where that, with a relative slack of
    ``BOUND_SLACK`` for rounding, is at most the sup of the prefix, no later
    term exceeds it and the prefix sup is the whole sup (a zero path settles
    at once).  Where it is not, returns None: a NaN bound never settles the
    sup, and an infinite one only when the prefix sup is infinite too.
    """
    count = len(values)
    sup = np.max(weights[:count] * values)
    if count == len(weights) or weights[count] * bound * (1.0 + BOUND_SLACK) <= sup:
        return sup
    return None


def exp_orlicz_lp_norm(
    path: PathSample, beta: float, p_max: int = DEFAULT_P_MAX, sub_interval=(0.0, 1.0)
) -> float:
    """sup over integer p in [1, p_max] of p^(-1/beta) L^p norm of the path.

    Each L^p norm is at most the peak value norm, since the grid weight times
    the number of grid points is at most 1.  So the running powers stop at
    ``POWER_CAP`` once ``(POWER_CAP + 1)^(-1/beta)`` times the peak lies below
    the sup so far; otherwise the full sweep runs.  The result is the same
    float as ``p_weighted_sup(integer_p_lp_norms(...), beta)``.
    """
    if p_max < 8:
        raise ValueError("p_max must be at least 8")
    ka, kb = _interval_indices(path, sub_interval)
    norms = _row_norms(path.space, path.values[ka:kb])
    weight = 2.0**-path.depth
    weights = _p_weights(p_max, beta)
    lp, peak = _lp_prefix(norms, weight, p_max, min(p_max, POWER_CAP))
    sup = _capped_sup(weights, lp, peak)
    if sup is None:
        sup = np.max(weights * integer_p_lp_norms(norms, weight, p_max))
    return float(sup)


def integer_p_besov_totals(
    path: PathSample,
    alpha: float,
    p_max: int,
    n_max: int | None = None,
    beta: float | None = None,
    p_head: int = 0,
) -> np.ndarray:
    """Besov norms (q = inf) for every integer p = 1..p_max in one sweep.

    Entry p-1 equals ``besov_norm(path, BesovParams(alpha, p, inf, n_max)).total``;
    the increment-norm vectors are shared across p, which is what makes the
    exponential Orlicz--Besov supremum affordable.  This full sweep is the
    reference.

    With ``beta``, returns ``p_head + 1`` numbers instead: the totals for
    p = 1..p_head, then ``sup_p p^(-1/beta) total_p`` over p <= p_max.  These
    are the same floats as the full sweep and ``p_weighted_sup`` give, but
    each norm vector's running powers stop at ``max(POWER_CAP, p_head)``.
    The grid weight times the number of terms is at most 1, so every L^p
    term is at most its vector's peak and every total is at most
    ``B = max|W| + max_n 2^(n alpha) max|Delta_n|``; where the next weight
    times ``B`` stays below the sup so far, no later p can raise it.  Where
    the bound does not settle the sup, the path is redone with the full
    sweep, so the result is bit-identical to it either way.
    """
    if n_max is None:
        n_max = default_n_max(path.depth)
    if beta is None:
        count = p_max
    else:
        weights = _p_weights(p_max, beta)
        count = min(p_max, max(POWER_CAP, p_head))
    weight = 2.0**-path.depth
    lp, bound = _lp_prefix(_row_norms(path.space, path.values[: path.grid_size]), weight, p_max, count)
    sup_terms = np.zeros(count)
    sup_peak = 0.0
    for n in range(1, n_max + 1):
        scale = 2.0 ** (n * alpha)
        d_n, peak = _lp_prefix(_increment_norms(path, n), weight, p_max, count)
        np.maximum(sup_terms, scale * d_n, out=sup_terms)
        sup_peak = np.maximum(sup_peak, scale * peak)  # propagates NaN
    totals = lp + sup_terms
    if beta is None:
        return totals
    sup = _capped_sup(weights, totals, bound + sup_peak)
    if sup is None:
        totals = integer_p_besov_totals(path, alpha, p_max, n_max)
        sup = np.max(weights * totals)
    return np.append(totals[:p_head], sup)


def besov_orlicz_norm(
    path: PathSample,
    alpha: float,
    beta: float,
    p_max: int = DEFAULT_P_MAX,
    n_max: int | None = None,
) -> float:
    """sup over integer p <= p_max of p^(-1/beta) times the B^alpha_{p,inf} norm.

    Served by the early-exit sweep of :func:`integer_p_besov_totals`; the
    same float as ``p_weighted_sup`` of the full profile.
    """
    if p_max < 8:
        raise ValueError("p_max must be at least 8")
    return float(integer_p_besov_totals(path, alpha, p_max, n_max, beta)[-1])


def luxemburg_function_norm(path: PathSample, beta: float) -> float:
    """Luxemburg norm of t -> |path(t)| in the Orlicz space of exp(|x|^beta) - 1.

    ``inf{delta > 0 : 2^-N sum_k PhiBeta(|values_k| / delta) <= 1}`` with the
    left-endpoint sum over [0, 1), found by :func:`orlicz.luxemburg_scale`
    (Illinois locate, then the replayed bisection); ``beta`` must be at least 1.
    """
    phi = orlicz.phi_beta(beta)
    # unfiltered: dropping the zero norms would change np.sum's pairwise order
    norms = _row_norms(path.space, path.values[: path.grid_size])
    return orlicz.luxemburg_scale(phi.evaluate, norms, 2.0**-path.depth)
