"""Bounds and Monte Carlo checks for the expected supremum of Gaussian norms.

For independent centered Gaussian vectors ``xi_n`` with first moments
``m_n = E|xi_n|`` and weak variances ``sigma_n``, the expected supremum
``E sup_n |xi_n|`` is sandwiched by explicit expressions in
``m = sup_n m_n`` and the Luxemburg Theta-norm ``rho`` of ``(sigma_n)``:

    max(rho / 3, m)  <=  E sup_n |xi_n|  <=  m + 3 rho,

with the median variant ``M + 2 rho`` available as a secondary route.
:func:`empirical_sup_mean` estimates the left-hand side by Monte Carlo and
checks it against the bounds; per-variable means are computed analytically
in the effectively scalar case and by a Monte Carlo pass otherwise.  Each
variable is one thread-pool task drawing its supremum samples and its mean
pass from two child keys of the ensemble's seed; the results are folded in
variable order, so the report does not depend on the number of threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .orlicz import as_weights, luxemburg_norm, theta
from .simulate import EnsembleSpec, GaussianVarSpec, RngSeed, mean_norm_mc, sampled_norms, worker_count
# ``space_norm`` is not called here; it stays because the benchmark tracer
# (perfbench/spans.py) patches ``maxima.space_norm``.
from .spaces import diag_weak_variance, scalar_weight, space_norm  # noqa: F401

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
MEAN_MC_SAMPLES = 100_000


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

    Dominates the Luxemburg Theta-norm for every p >= 1, with the 0^0 = 1
    convention at p = 1 (where it reduces to the l^2 norm of sigma).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    w = as_weights(sigma)
    if w.size == 0 or not np.any(w > 0):
        return 0.0
    coef = ((p - 1.0) / math.e) ** ((p - 1.0) / 2.0)  # 0.0 ** 0.0 == 1.0 at p == 1
    return float((coef * np.sum(w ** (p + 1.0))) ** (1.0 / (p + 1.0)))


def variable_mean(spec: GaussianVarSpec, seed: RngSeed | None = None,
                  samples: int = MEAN_MC_SAMPLES) -> float:
    """E|xi| for one diagonal Gaussian vector.

    Analytic ``sigma sqrt(2/pi)`` when at most one weight is nonzero (the
    norm is then that weight times a folded standard normal); Monte Carlo
    with the supplied seed otherwise.
    """
    scale = scalar_weight(spec.padded_sigma())
    if scale is not None:
        return scale * math.sqrt(2.0 / math.pi)
    if seed is None:
        raise ValueError("a seed is required for the Monte Carlo mean of a vector variable")
    return mean_norm_mc(spec, seed, samples)


def empirical_sup_mean(ensemble: EnsembleSpec, samples: int, seed: RngSeed) -> EstimateReport:
    """Monte Carlo estimate of ``E sup_n |xi_n|`` with the analytic sandwich.

    One pool task per variable returns its ``samples`` sampled norms and its
    mean; the norms are folded into the running supremum in variable order
    as the results arrive.  Variable ``i`` draws its norms from
    ``seed.child(i, 0)`` and its mean pass from ``seed.child(i, 1)``, so no
    two draws share randomness.  Weak variances come from the diagonal
    closed form.
    """
    if samples < 100:
        raise ValueError("at least 100 samples are required")
    variables = ensemble.variables

    def draws(i, var):
        norms = sampled_norms(var.space, var.sigma, samples, seed.child(i, 0))
        return norms, variable_mean(var, seed.child(i, 1))

    sup = np.zeros(samples)
    means = []
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        for norms, mean in pool.map(draws, range(len(variables)), variables):
            np.maximum(sup, norms, out=sup)
            means.append(mean)
    estimate = float(sup.mean())
    ci = 1.96 * float(sup.std(ddof=1)) / math.sqrt(samples)
    sigmas = np.array([diag_weak_variance(var.space.exponent, var.padded_sigma()) for var in variables])
    m = max(means)
    lower = lower_bound(m, sigmas)
    upper = upper_bound_mean(m, sigmas)
    return EstimateReport(estimate, ci, lower, upper, _verdict(estimate, ci, lower, upper))
