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


def integer_p_lp_norms(norms: np.ndarray, weight: float, p_max: int) -> np.ndarray:
    """L^p norms for p = 1..p_max from one pass of running powers.

    The running power ``norms**p`` is updated in place, one multiply per
    element and power.
    """
    out = np.empty(p_max)
    run = np.array(norms)
    for p in range(1, p_max + 1):
        if p > 1:
            np.multiply(run, norms, out=run)
        out[p - 1] = (weight * run.sum()) ** (1.0 / p)
    return out


def p_weighted_sup(values, beta: float):
    """``max_p p^(-1/beta) values[..., p - 1]`` over p = 1, 2, ... along the last axis."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    values = np.asarray(values)
    ps = np.arange(1, values.shape[-1] + 1)
    return np.max(ps ** (-1.0 / beta) * values, axis=-1)


def exp_orlicz_lp_norm(
    path: PathSample, beta: float, p_max: int = DEFAULT_P_MAX, sub_interval=(0.0, 1.0)
) -> float:
    """sup over integer p in [1, p_max] of p^(-1/beta) L^p norm of the path."""
    if p_max < 8:
        raise ValueError("p_max must be at least 8")
    ka, kb = _interval_indices(path, sub_interval)
    lp = integer_p_lp_norms(_row_norms(path.space, path.values[ka:kb]), 2.0**-path.depth, p_max)
    return float(p_weighted_sup(lp, beta))


def integer_p_besov_totals(
    path: PathSample, alpha: float, p_max: int, n_max: int | None = None
) -> np.ndarray:
    """Besov norms (q = inf) for every integer p = 1..p_max in one sweep.

    Entry p-1 equals ``besov_norm(path, BesovParams(alpha, p, inf, n_max)).total``;
    the increment-norm vectors are shared across p, which is what makes the
    exponential Orlicz--Besov supremum affordable.
    """
    if n_max is None:
        n_max = default_n_max(path.depth)
    weight = 2.0**-path.depth
    lp = integer_p_lp_norms(_row_norms(path.space, path.values[: path.grid_size]), weight, p_max)
    sup_terms = np.zeros(p_max)
    for n in range(1, n_max + 1):
        d_n = integer_p_lp_norms(_increment_norms(path, n), weight, p_max)
        np.maximum(sup_terms, 2.0 ** (n * alpha) * d_n, out=sup_terms)
    return lp + sup_terms


def besov_orlicz_norm(
    path: PathSample,
    alpha: float,
    beta: float,
    p_max: int = DEFAULT_P_MAX,
    n_max: int | None = None,
) -> float:
    """sup over integer p <= p_max of p^(-1/beta) times the B^alpha_{p,inf} norm."""
    if p_max < 8:
        raise ValueError("p_max must be at least 8")
    return float(p_weighted_sup(integer_p_besov_totals(path, alpha, p_max, n_max), beta))


def luxemburg_function_norm(path: PathSample, beta: float) -> float:
    """Luxemburg norm of t -> |path(t)| in the Orlicz space of exp(|x|^beta) - 1.

    Bisection on ``inf{delta > 0 : 2^-N sum_k PhiBeta(|values_k| / delta) <= 1}``
    with the left-endpoint sum over [0, 1); ``beta`` must be at least 1.
    """
    phi = orlicz.phi_beta(beta)
    # unfiltered: dropping the zero norms would change np.sum's pairwise order
    norms = _row_norms(path.space, path.values[: path.grid_size])
    return orlicz.luxemburg_scale(phi.evaluate, norms, 2.0**-path.depth)
