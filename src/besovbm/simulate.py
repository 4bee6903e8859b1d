"""Exact-in-law sampling of diagonal Brownian paths and Gaussian vectors.

Paths live on the dyadic grid ``t_k = k 2^-N`` for a depth ``N``; they are
built from i.i.d. Gaussian increments whose coordinate-n variance per step
is ``2^-N sigma_n^2``, so the grid values carry no discretisation error in
law.  Reproducibility contract: a ``RngSeed`` (seed, stream, key) draws from
the ``SeedSequence`` spawn key ``(stream, *key)``; identical seeds reproduce
identical output bit for bit and distinct keys give independent draws.  Each
sub-task takes its own ``child`` key, so no split of the work across workers
can change a result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .spaces import SpaceSpec, check_exponent, padded_weights, row_blocks, scalar_weight, space_norm

__all__ = [
    "RngSeed",
    "PathSample",
    "GaussianVarSpec",
    "EnsembleSpec",
    "sample_bm",
    "sampled_norms",
    "gaussian_abs_moment",
    "diag_norm_moment",
    "mean_ci",
    "worker_count",
    "MAX_DEPTH",
    "NORM_MC_SAMPLES",
]

MAX_DEPTH = 24  # 2^24 grid points caps memory per path
# Draws of one Monte Carlo norm mean or reference moment, taken only where
# diag_norm_moment has no closed form.
NORM_MC_SAMPLES = 100_000
# Largest power of the moment convolutions of diag_norm_moment: their cost is
# O(dim k^2) time and O(k^2) memory for the k-th power.
MOMENT_POWER_MAX = 256
# Elements of the row-major block of steps that sample_bm draws, scales and
# sums into the coordinate-major path at a time.  A depth-16 path took
# 1.00-1.03 ms at dim 1 and 16.2-16.4 ms at dim 16 with 2^15, against
# 1.29-1.31 and 15.9-16.7 ms with 2^16 and 1.02-1.04 and 16.7-17.2 ms with
# 2^14 (one thread, numpy 2.4).  At dim 1, one whole in-place draw and
# cumsum took 0.99-1.04 ms.
SAMPLE_BLOCK = 2**15


@dataclass(frozen=True)
class RngSeed:
    """Seed, base stream and spawn key for reproducible parallel draws."""

    seed: int
    stream: int = 0
    key: tuple = ()

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        # SeedSequence splits a larger part into 32-bit words, aliasing a longer key
        if not all(0 <= part < 2**32 for part in (self.stream, *self.key)):
            raise ValueError("stream index and key parts must lie in [0, 2^32)")

    def child(self, *parts: int) -> "RngSeed":
        """The seed whose key extends this one's by ``parts``."""
        return RngSeed(self.seed, self.stream, self.key + parts)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *self.key))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class PathSample:
    """A path on the dyadic grid of a given depth, values shaped (2^N + 1, dim).

    ``values`` may have any memory layout.  :func:`sample_bm` returns the
    transpose of a C-ordered ``(dim, 2^N + 1)`` array, so each coordinate's
    path is contiguous; a path read from CSV is row-major.  The norms of
    :mod:`besovbm.besov` give the same floats on both.
    """

    space: SpaceSpec
    depth: int
    values: np.ndarray

    @property
    def grid_size(self) -> int:
        return 1 << self.depth

    def times(self) -> np.ndarray:
        n = self.grid_size
        return np.arange(n + 1) / n


@dataclass(frozen=True)
class GaussianVarSpec:
    """A centered diagonal Gaussian vector ``sum_n sigma_n g_n e_n``."""

    space: SpaceSpec
    sigma: tuple

    def padded_sigma(self) -> np.ndarray:
        return padded_weights(self.space, self.sigma)


@dataclass(frozen=True)
class EnsembleSpec:
    """A finite family of independent diagonal Gaussian vectors."""

    variables: tuple

    def __post_init__(self):
        if len(self.variables) == 0:
            raise ValueError("an ensemble must contain at least one variable")


def sample_bm(space: SpaceSpec, sigma, depth: int, seed: RngSeed) -> PathSample:
    """Sample a diagonal Brownian path on the dyadic grid of the given depth.

    Coordinate n of an increment over one grid step is N(0, 2^-N sigma_n^2);
    the returned values are exact in law at the grid points and start at 0.
    The path is stored coordinate-major, ``(dim, 2^N + 1)`` in C order, and
    ``values`` is its ``(2^N + 1, dim)`` transpose.  The increments are drawn
    row-major, ``SAMPLE_BLOCK`` elements at a time from one stream (so the
    draws are the same numbers as one whole draw), scaled, and summed along
    each coordinate straight into the path.  Each block's first step is
    added to the previous block's last column before the block's ``cumsum``,
    which is the step that sum would take next; so the path holds the
    floats of one ``cumsum`` over all the steps, signed zeros included.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_DEPTH}]")
    scale = padded_weights(space, sigma) * 2.0 ** (-depth / 2.0)
    steps = 1 << depth
    coords = np.empty((space.dim, steps + 1))
    coords[:, 0] = 0.0
    gen = seed.generator()
    rows = max(SAMPLE_BLOCK // space.dim, 1)
    block = np.empty((min(rows, steps), space.dim))
    for lo in range(0, steps, rows):
        hi = min(lo + rows, steps)
        draws = block[: hi - lo]
        gen.standard_normal(out=draws)
        draws *= scale
        if lo:
            draws[0] += coords[:, lo]  # the carry: the sum's next step
        np.cumsum(draws.T, axis=1, out=coords[:, lo + 1 : hi + 1])
    return PathSample(space, depth, coords.T)


def _log_abs_moment(p: float) -> float:
    """log E|N(0,1)|^p = log(2^(p/2) Gamma((p+1)/2) / sqrt(pi)), for p >= 0."""
    return 0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)


def gaussian_abs_moment(p: float) -> float:
    """(E|N(0,1)|^p)^(1/p) = (2^(p/2) Gamma((p+1)/2) / sqrt(pi))^(1/p).

    Evaluated through log-gamma for stability at large p; p lies in [1, inf).
    """
    check_exponent(p, finite=True)
    return math.exp(_log_abs_moment(p) / p)


def _log_sum_moment(log_coeffs: np.ndarray) -> float:
    """log(E S^k / k!) for a sum ``S = sum_n X_n`` of independent ``X_n >= 0``.

    Row n of ``log_coeffs`` holds ``log(E X_n^j / j!)`` for ``j = 0..k``.  The
    binomial convolution of moments is the Cauchy product of these scaled
    sequences; it is taken in logs, so no power overflows at any k.
    """
    k = log_coeffs.shape[1] - 1
    lag = np.subtract.outer(np.arange(k + 1), np.arange(k + 1))  # j - i
    above = lag < 0
    lag[above] = 0
    acc = np.full(k + 1, -np.inf)
    acc[0] = 0.0
    for row in log_coeffs:
        terms = acc + row[lag]  # terms[j, i] = acc[i] + row[j - i]
        terms[above] = -np.inf
        top = terms.max(axis=1)
        acc = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    return float(acc[k])


def _l2_first_moment(w: np.ndarray) -> float:
    """E sqrt(Q) for ``Q = sum_n w_n^2 g_n^2``, with ``max w = 1``.

    ``sqrt(x) = (2 sqrt(pi))^-1 int_0^inf (1 - e^(-tx)) t^(-3/2) dt`` and
    ``E e^(-tQ) = prod_n (1 + 2 t w_n^2)^(-1/2)`` (Imhof 1961).  The
    integrand in ``u = log t`` decays like ``e^(-|u|/2)`` at both ends and
    stays bounded on the strip ``|Im u| <= pi/2``, where ``|1 + 2 t w^2| >= 1``;
    so the trapezoid rule with step 1/4 errs by about ``e^(-4 pi^2)``,
    below rounding, at every dimension.
    """
    sq = w * w
    step = 0.25
    t = np.exp(np.arange(-80.0 - 2.0 * math.log(sq.sum()), 80.0, step))
    laplace = -0.5 * np.log1p(2.0 * np.outer(t, sq)).sum(axis=1)
    return step * float(np.sum(-np.expm1(laplace) / np.sqrt(t))) / (2.0 * math.sqrt(math.pi))


def _linf_moment(w: np.ndarray, p: float) -> float:
    """(E max_n |w_n g_n|^p)^(1/p), with ``max w = 1``.

    ``E X^p = int_0^inf p t^p (1 - prod_n erf(t / (w_n sqrt 2))) dt/t``, by the
    trapezoid rule in ``u = log t``.  ``1 - prod erf`` is taken from the
    ``erfc`` terms, so the far tail keeps its relative accuracy, and the
    sum is taken in logs, so no power overflows.  The range cuts the
    integrand below ``e^-40`` of its mass at both ends.  The peak of the
    integrand in ``u`` narrows like ``1 / sqrt(p)`` and, for many equal
    weights, like ``1 / (2 log D)``; the step follows both, which keeps the
    rule within 1e-12 of one with a third of the step for p up to 1000
    and D up to 4096.
    """
    t_hi = math.sqrt(p) + math.sqrt(2.0 * math.log(w.size)) + 10.0
    u_lo = math.log(0.75) - (42.0 + math.log(p)) / p
    step = 0.5 / (1.0 + math.sqrt(p) + 2.0 * math.log(w.size))
    u = np.arange(u_lo, math.log(t_hi), step)
    x = np.outer(np.exp(u), 1.0 / (w * math.sqrt(2.0)))
    tails = np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)
    with np.errstate(divide="ignore"):
        log_cdf = np.log1p(-tails).sum(axis=1)
        log_terms = p * u + np.log(-np.expm1(log_cdf))
    top = float(log_terms.max())
    log_moment = math.log(p * step) + top + math.log(float(np.exp(log_terms - top).sum()))
    return math.exp(log_moment / p)


def diag_norm_moment(space: SpaceSpec, sigma, p: float) -> float | None:
    """``(E|sum_n sigma_n g_n e_n|^p)^(1/p)`` in closed form, or None.

    * at most one nonzero weight: that weight times ``gaussian_abs_moment(p)``;
    * ``l^1`` at integer p and ``l^2`` at even p: the binomial convolution of
      the moment sequences of ``sigma_n |g_n|`` (resp. ``sigma_n^2 g_n^2``),
      for powers up to ``MOMENT_POWER_MAX``;
    * ``l^2`` at p = 1: Imhof's integral for ``E sqrt(Q)``;
    * ``l^inf`` at any p: the integral of the tail ``1 - prod_n erf``.

    The vector forms run on weights scaled to a largest weight of 1 and scale
    back, so the value is homogeneous in sigma over the whole float range.
    None for every other exponent and p (``l^2`` at odd p > 1, non-integer p
    in ``l^1`` or ``l^2``, ``l^3``); those moments need Monte Carlo.
    Requires p in [1, inf).
    """
    check_exponent(p, finite=True)
    sig = padded_weights(space, sigma)
    scale = scalar_weight(sig)
    if scale is not None:
        return scale * gaussian_abs_moment(p)
    top = float(sig.max())
    w = sig[sig > 0] / top
    q = space.exponent
    if math.isinf(q):
        return top * _linf_moment(w, p)
    if q == 2.0 and p == 1.0:
        return top * _l2_first_moment(w)
    if q in (1.0, 2.0) and float(p).is_integer() and p % q == 0 and p / q <= MOMENT_POWER_MAX:
        r, k = int(q), int(p / q)
        # ||xi||^p = S^k with S = sum_n x_n h_n, x = w^r and h = |g|^r
        j = np.arange(k + 1)
        scaled = np.array([_log_abs_moment(r * i) - math.lgamma(i + 1.0) for i in j])
        log_moment = _log_sum_moment(np.outer(r * np.log(w), j) + scaled) + math.lgamma(k + 1.0)
        return top * math.exp(log_moment / p)
    return None


def mean_ci(values) -> tuple[float, float]:
    """The mean of ``values`` and the half-width of its normal 95 % CI (0 for one value)."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)


def sampled_norms(space: SpaceSpec, sigma, samples: int, seed: RngSeed) -> np.ndarray:
    """Norms of ``samples`` draws of ``sum_n sigma_n g_n e_n`` from one stream.

    Drawn, weighted and normed in row blocks into one vector.  The draws
    follow one another on the stream, so the blocks give the same numbers
    as one whole-batch draw.
    """
    sig = padded_weights(space, sigma)
    gen = seed.generator()
    norms = np.empty(samples)
    for lo, hi in row_blocks(samples, space.dim):
        g = gen.standard_normal((hi - lo, space.dim))
        g *= sig
        norms[lo:hi] = space_norm(space, g)
    return norms


def mean_norm_mc(spec: GaussianVarSpec, seed: RngSeed, samples: int = NORM_MC_SAMPLES) -> float:
    """Monte Carlo estimate of E|xi| for a diagonal Gaussian vector."""
    return float(np.mean(sampled_norms(spec.space, spec.sigma, samples, seed)))


def worker_count() -> int:
    """Threads for independent draws: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
