"""Discretised L^p, Besov, and exponential Orlicz norms of sampled paths.

All integrals are left-endpoint Riemann sums on the path's own dyadic grid;
no interpolation between grid points is attempted, because sampled Brownian
grid values are already exact in law.  The smoothness seminorm weights the
L^p norm of the lag-2^-n difference by 2^(n alpha) and aggregates over the
scales n = 1..n_max in l^q (maximum for q = inf).  The exponential Orlicz
norms take suprema of p^(-1/beta)-weighted L^p quantities over integer p.

The scale cap defaults to depth - 6 so that the difference-norm Riemann sum
at the finest scale still averages at least 64 increments.  Exponents are
checked by :func:`spaces.check_exponent`, the Orlicz sups by :func:`check_orlicz_sup`.

Row norms are taken ``NORM_BLOCK`` elements at a time into one preallocated
vector, so no path-sized temporary (differences, absolute values, squares)
is ever allocated.  Each row's norm is computed exactly as in a single
whole-array call, so the blocking never changes a result.

Both exponential Orlicz sups run through :func:`integer_p_besov_totals` (the
L^p one as its case with no smoothness scales), which stops the integer-p
sweep early.  Each norm vector's running powers stop at ``c = POWER_CAP``
(or the largest reported p, if larger), and the vector keeps two numbers:
its ``||f||_c`` and its peak ``M``.  Since ``w sum f^p <= M^(p-c) w sum
f^c``, Lyapunov's interpolation inequality ``||f||_p <= ||f||_c^(c/p)
M^(1-c/p)`` bounds every later L^p term, for any grid weight.  Every later
total is then at most that bound for ``W`` plus the largest ``2^(n alpha)``
times that bound for ``Delta_n`` (just the first with no scales).  Where
``p^(-1/beta)`` times this, with a relative slack of ``BOUND_SLACK``, is at
most the sup so far for every p past c, that sup is the answer, and
otherwise the full sweep is redone.  The result is bit-identical to the
full sweep followed by :func:`p_weighted_sup`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import orlicz
from .simulate import PathSample
from .spaces import check_exponent, row_blocks, space_norm

__all__ = [
    "SCALE_MARGIN",
    "POWER_CAP",
    "default_n_max",
    "check_orlicz_sup",
    "BesovParams",
    "NormReport",
    "lp_norm_path",
    "dyadic_increment_lp",
    "scale_terms",
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
# the relative slack that covers rounding in that bound: each computed L^p
# term and bound is off by about (p_max + log2 n) 2^-53, far below 1e-9.
POWER_CAP = 8
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
        check_exponent(self.p, "p", finite=True)
        check_exponent(self.q, "q")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")


@dataclass(frozen=True)
class NormReport:
    """L^p part, smoothness part, their sum, and the per-scale weighted terms."""

    lp_part: float
    seminorm_part: float
    total: float
    per_scale: tuple  # pairs (n, 2^(n alpha) * difference norm)


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
    return float((weight * np.sum(norms if p == 1.0 else norms**p)) ** (1.0 / p))


def lp_norm_path(path: PathSample, p: float) -> float:
    """Left-endpoint Riemann L^p norm of t -> |path(t)| over [0, 1).

    ``(2^-N sum_{t_k < 1} |values_k|^p)^(1/p)``; the maximum for p = inf.
    """
    check_exponent(p)
    return _reduce_lp(_row_norms(path.space, path.values[: path.grid_size]), 2.0**-path.depth, p)


def _increment_norms(path: PathSample, n: int) -> np.ndarray:
    if not 1 <= n <= path.depth:
        raise ValueError("scale n must lie in [1, depth]")
    return _row_norms(path.space, path.values[: path.grid_size], 1 << (path.depth - n))


def dyadic_increment_lp(path: PathSample, n: int, p: float) -> float:
    """L^p norm of t -> |path(t + 2^-n) - path(t)| over [0, 1 - 2^-n).

    Riemann sum over the grid points t_k with t_k + 2^-n <= 1, p-th root
    taken after weighting by the grid step.
    """
    check_exponent(p)
    return _reduce_lp(_increment_norms(path, n), 2.0**-path.depth, p)


def scale_terms(path: PathSample, alpha: float, scales, p_list) -> np.ndarray:
    """``2^(n alpha) ||Delta_n||_{L^p}``: one row per scale n, one column per p.

    Each scale's increment-norm vector is computed once and serves every p;
    entry ``(i, j)`` is the same float as
    ``2^(scales[i] alpha) * dyadic_increment_lp(path, scales[i], p_list[j])``.
    """
    for p in p_list:
        check_exponent(p)
    weight = 2.0**-path.depth
    terms = np.empty((len(scales), len(p_list)))
    for i, n in enumerate(scales):
        norms = _increment_norms(path, n)
        terms[i] = [2.0 ** (n * alpha) * _reduce_lp(norms, weight, p) for p in p_list]
    return terms


def besov_seminorm(path: PathSample, params: BesovParams) -> float:
    """Dyadic smoothness seminorm: l^q aggregation of the weighted scale terms.

    The n = 0 term vanishes (a unit lag leaves no room inside (0, 1)), so the
    sum runs over n = 1..n_max; q = inf takes the maximum instead.
    """
    terms = scale_terms(path, params.alpha, range(1, params.n_max + 1), [params.p])[:, 0]
    return _reduce_lp(terms, 1.0, params.q)


def besov_norm(path: PathSample, params: BesovParams) -> NormReport:
    """Full Besov norm: L^p part over (0, 1) plus the smoothness seminorm."""
    lp_part = lp_norm_path(path, params.p)
    terms = scale_terms(path, params.alpha, range(1, params.n_max + 1), [params.p])[:, 0]
    semi = _reduce_lp(terms, 1.0, params.q)
    per_scale = tuple((n, float(t)) for n, t in zip(range(1, params.n_max + 1), terms))
    return NormReport(lp_part, semi, lp_part + semi, per_scale)


def _power_sums(norms: np.ndarray, weight: float, count: int) -> np.ndarray:
    """``(weight sum norms**p)^(1/p)`` for p = 1..count from one running power.

    The running power starts as ``norms`` itself (read, never written) and
    is allocated at p = 2; after that it is updated in place, one multiply
    per element and power.
    """
    out = np.empty(count)
    run = norms
    for p in range(1, count + 1):
        if p == 2:
            run = norms * norms
        elif p > 2:
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


def check_orlicz_sup(beta: float, p_max: int) -> None:
    """Reject a ``p^(-1/beta)``-weighted sup over p <= p_max unless beta > 0 (not NaN) and p_max >= 8."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    if p_max < 8:
        raise ValueError("p_max must be at least 8")


def _p_weights(count: int, beta: float) -> np.ndarray:
    return np.arange(1, count + 1) ** (-1.0 / beta)


def p_weighted_sup(values, beta: float):
    """``max_p p^(-1/beta) values[..., p - 1]`` over p = 1, 2, ... along the last axis."""
    values = np.asarray(values)
    check_orlicz_sup(beta, values.shape[-1])
    return np.max(_p_weights(values.shape[-1], beta) * values, axis=-1)


def _lyapunov_bounds(ends: np.ndarray, c: int, p_max: int) -> np.ndarray:
    """Bounds on ``||f||_p`` for p = c+1..p_max, one row per ``(||f||_c, max f)`` row of ``ends``.

    ``||f||_c^(c/p) max(f)^(1-c/p)``, Lyapunov's interpolation between L^c
    and L^inf, capped at the peak (itself a bound) so that rounding never
    lifts it above.  A NaN gives NaN, an infinite peak ``inf``, zeros 0.
    """
    theta = c / np.arange(c + 1, p_max + 1)
    norm_c, peak = ends[:, :1], ends[:, 1:]
    return np.minimum(norm_c**theta * peak ** (1.0 - theta), peak)


def exp_orlicz_lp_norm(path: PathSample, beta: float, p_max: int = DEFAULT_P_MAX) -> float:
    """sup over integer p in [1, p_max] of p^(-1/beta) L^p norm of the path.

    The zero-scale case of :func:`integer_p_besov_totals` (no smoothness
    terms), so it takes the early exit stated in the module docstring; the
    same float as ``p_weighted_sup(integer_p_lp_norms(...), beta)``.
    """
    return float(integer_p_besov_totals(path, 0.5, p_max, 0, beta)[-1])


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

    With ``beta`` (see :func:`check_orlicz_sup`), returns ``p_head + 1``
    numbers instead (``0 <= p_head <= p_max``): the totals for p =
    1..p_head, then ``sup_p p^(-1/beta) total_p`` over p <= p_max, by the
    early exit stated in the module docstring.  These are the same floats as the full sweep and
    ``p_weighted_sup`` give.  With ``n_max = 0`` there are no smoothness
    terms and the totals are the L^p norms.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if not 0 <= p_head <= p_max:
        raise ValueError("p_head must lie in [0, p_max]")
    if n_max is None:
        n_max = default_n_max(path.depth)
    if beta is None:
        count = p_max
    else:
        check_orlicz_sup(beta, p_max)
        weights = _p_weights(p_max, beta)
        count = min(p_max, max(POWER_CAP, p_head))
    weight = 2.0**-path.depth
    lp, peak = _lp_prefix(_row_norms(path.space, path.values[: path.grid_size]), weight, p_max, count)
    ends = [(lp[-1], peak)]  # (||f||_count, max f) of each weighted vector
    sup_terms = np.zeros(count)
    for n in range(1, n_max + 1):
        scale = 2.0 ** (n * alpha)
        d_n, peak = _lp_prefix(_increment_norms(path, n), weight, p_max, count)
        np.maximum(sup_terms, scale * d_n, out=sup_terms)
        ends.append((scale * d_n[-1], scale * peak))
    totals = lp + sup_terms
    if beta is None:
        return totals
    sup = np.max(weights[:count] * totals)
    if count < p_max:
        bounds = _lyapunov_bounds(np.array(ends), count, p_max)
        later = bounds[0] + np.max(bounds[1:], axis=0, initial=0.0)
        # A NaN never settles the sup, an infinite bound only an infinite
        # sup, and a zero path settles here.
        if not np.max(weights[count:] * later) * (1.0 + BOUND_SLACK) <= sup:
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

    Served by :func:`integer_p_besov_totals` with the early exit stated in
    the module docstring; the same float as ``p_weighted_sup`` of the full
    profile.
    """
    return float(integer_p_besov_totals(path, alpha, p_max, n_max, beta)[-1])


def luxemburg_function_norm(path: PathSample, beta: float) -> float:
    """Luxemburg norm of t -> |path(t)| in the Orlicz space of exp(|x|^beta) - 1.

    ``inf{delta > 0 : 2^-N sum_k PhiBeta(|values_k| / delta) <= 1}`` with the
    left-endpoint sum over [0, 1), found by :func:`orlicz.luxemburg_scale`
    (a located unit level, then the replayed bracket and bisection; an
    infinite value gives ``inf``, a NaN gives NaN); ``beta`` must be at least 1.
    """
    phi = orlicz.phi_beta(beta)
    # unfiltered: dropping the zero norms would change np.sum's pairwise order
    norms = _row_norms(path.space, path.values[: path.grid_size])
    return orlicz.luxemburg_scale(phi.evaluate, norms, 2.0**-path.depth)
