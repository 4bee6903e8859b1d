"""Bounds and Monte Carlo checks for the expected supremum of Gaussian norms.

For independent centered Gaussian vectors ``xi_n`` with first moments
``m_n = E|xi_n|`` and weak variances ``sigma_n``, the expected supremum
``E sup_n |xi_n|`` is sandwiched by explicit expressions in
``m = sup_n m_n`` and the Luxemburg Theta-norm ``rho`` of ``(sigma_n)``:

    max(rho / 3, m)  <=  E sup_n |xi_n|  <=  m + 3 rho,

with the median variant ``M + 2 rho`` available as a secondary route.
:func:`empirical_sup_mean` estimates the left-hand side by Monte Carlo and
checks it against the bounds; per-variable means are exact
(:func:`simulate.diag_norm_moment`) wherever a closed form exists, and come
from a Monte Carlo pass otherwise.  Each variable is one thread-pool task
drawing its supremum samples, and any mean pass, from two child keys of the
ensemble's seed; each task folds its samples into the running supremum
itself.  ``np.maximum`` and ``max`` are exact, so
the fold order, and with it the number of threads, cannot change the report.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .orlicz import as_weights, luxemburg_norm, theta
from .simulate import (
    NORM_MC_SAMPLES, EnsembleSpec, GaussianVarSpec, RngSeed, diag_norm_moment, mean_ci, mean_norm_mc,
    sampled_norms, worker_count,
)
# ``space_norm`` is not called here; it stays because the benchmark tracer
# (perfbench/spans.py) patches ``maxima.space_norm``.
from .spaces import check_exponent, iw_norm, space_norm  # noqa: F401

__all__ = [
    "EstimateReport",
    "VERDICT_TOL",
    "upper_bound_mean",
    "upper_bound_median",
    "lower_bound",
    "remark_bound",
    "variable_mean",
    "empirical_sup_mean",
]

VERDICT_TOL = 1e-6


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with 95% CI half-width, analytic bounds, and a verdict.

    The verdict passes when the estimate lies in
    ``[lower_bound - ci - tol, upper_bound + ci + tol]``: Monte Carlo noise
    is absorbed by the CI cushion on both ends of the analytic band.
    """

    estimate: float
    ci_half_width: float
    lower_bound: float
    upper_bound: float
    verdict: bool


def _verdict(estimate, ci, lower, upper, tol=VERDICT_TOL) -> bool:
    return (lower - ci - tol) <= estimate <= (upper + ci + tol)


def upper_bound_mean(m: float, sigma) -> float:
    """Mean-based upper bound ``m + 3 rho_Theta(sigma)``."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return m + 3.0 * luxemburg_norm(theta(), sigma)


def upper_bound_median(median: float, sigma) -> float:
    """Median-based upper bound ``M + 2 rho_Theta(sigma)``."""
    if median < 0:
        raise ValueError("the median must be nonnegative")
    return median + 2.0 * luxemburg_norm(theta(), sigma)


def lower_bound(m: float, sigma) -> float:
    """Lower bound ``max(rho_Theta(sigma) / 3, m)`` (independent variables)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return max(m, luxemburg_norm(theta(), sigma) / 3.0)


def remark_bound(sigma, p: float) -> float:
    """Closed-form dominator ``[((p-1)/e)^((p-1)/2) sum sigma_n^(p+1)]^(1/(p+1))``.

    Dominates the Luxemburg Theta-norm for every p in [1, inf), with the
    0^0 = 1 convention at p = 1 (where it reduces to the l^2 norm of sigma).
    """
    check_exponent(p, finite=True)
    w = as_weights(sigma)
    if w.size == 0 or not np.any(w > 0):
        return 0.0
    coef = ((p - 1.0) / math.e) ** ((p - 1.0) / 2.0)  # 0.0 ** 0.0 == 1.0 at p == 1
    return float((coef * np.sum(w ** (p + 1.0))) ** (1.0 / (p + 1.0)))


def variable_mean(spec: GaussianVarSpec, seed: RngSeed | None = None,
                  samples: int = NORM_MC_SAMPLES) -> float:
    """E|xi| for one diagonal Gaussian vector.

    Exact where :func:`simulate.diag_norm_moment` has a closed form (at most
    one nonzero weight, and the ``l^1``, ``l^2`` and ``l^inf`` norms); a
    Monte Carlo mean of ``samples`` draws from the supplied seed otherwise.
    """
    exact = diag_norm_moment(spec.space, spec.sigma, 1.0)
    if exact is not None:
        return exact
    if seed is None:
        raise ValueError("a seed is required for the Monte Carlo mean of a vector variable")
    return mean_norm_mc(spec, seed, samples)


def empirical_sup_mean(ensemble: EnsembleSpec, samples: int, seed: RngSeed) -> EstimateReport:
    """Monte Carlo estimate of ``E sup_n |xi_n|`` with the analytic sandwich.

    One pool task per variable draws its ``samples`` sampled norms, folds
    them into the shared running supremum under a lock, and returns its
    mean.  Both folds are exact, so the report does not depend on the order
    in which tasks finish; at most ``worker_count()`` norm vectors, one per
    running task, are alive at once.  Variable ``i`` draws its norms from
    ``seed.child(i, 0)`` and, where its mean has no closed form, its mean
    pass from ``seed.child(i, 1)``, so no two draws share randomness.  Weak
    variances come from the diagonal closed form.
    """
    if samples < 100:
        raise ValueError("at least 100 samples are required")
    variables = ensemble.variables
    sup = np.zeros(samples)
    lock = threading.Lock()

    def draws(i, var):
        norms = sampled_norms(var.space, var.sigma, samples, seed.child(i, 0))
        with lock:
            np.maximum(sup, norms, out=sup)
        return variable_mean(var, seed.child(i, 1))

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        m = max(pool.map(draws, range(len(variables)), variables))
    estimate, ci = mean_ci(sup)
    sigmas = np.array([iw_norm(var.space, var.sigma) for var in variables])
    lower = lower_bound(m, sigmas)
    upper = upper_bound_mean(m, sigmas)
    return EstimateReport(estimate, ci, lower, upper, _verdict(estimate, ci, lower, upper))
