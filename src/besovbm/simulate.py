"""Exact-in-law sampling of diagonal Brownian paths and Gaussian vectors.

Paths live on the dyadic grid ``t_k = k 2^-N`` for a depth ``N``; they are
built from i.i.d. Gaussian increments whose coordinate-n variance per step
is ``2^-N sigma_n^2``, so the grid values carry no discretisation error in
law.  Reproducibility contract: a ``RngSeed`` is a (seed, stream) pair and
identical pairs reproduce identical output bit for bit, while distinct
stream indices give statistically independent draws.  Sub-experiments are
assigned disjoint stream indices so that any split of the work across
workers cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .spaces import SpaceSpec, padded_weights, space_norm

__all__ = [
    "RngSeed",
    "PathSample",
    "GaussianVarSpec",
    "EnsembleSpec",
    "sample_bm",
    "sample_diag_gaussian",
    "gaussian_abs_moment",
    "MAX_DEPTH",
]

MAX_DEPTH = 24  # 2^24 grid points caps memory per path


@dataclass(frozen=True)
class RngSeed:
    """Seed plus splittable stream index for reproducible parallel draws."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.stream < 0:
            raise ValueError("stream index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(seq)

    def with_stream(self, stream: int) -> "RngSeed":
        return RngSeed(self.seed, stream)


@dataclass(frozen=True)
class PathSample:
    """A path on the dyadic grid of a given depth, values shaped (2^N + 1, dim)."""

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
    The increments are drawn, scaled and summed in place in the output array.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_DEPTH}]")
    scale = padded_weights(space, sigma)
    values = np.empty(((1 << depth) + 1, space.dim))
    values[0] = 0.0
    steps = values[1:]
    seed.generator().standard_normal(out=steps)
    steps *= scale * 2.0 ** (-depth / 2.0)
    np.cumsum(steps, axis=0, out=steps)
    return PathSample(space, depth, values)


def sample_diag_gaussian(spec: GaussianVarSpec, seed: RngSeed) -> np.ndarray:
    """One draw of the diagonal Gaussian vector described by ``spec``."""
    sig = spec.padded_sigma()
    return sig * seed.generator().standard_normal(spec.space.dim)


def gaussian_abs_moment(p: float) -> float:
    """(E|N(0,1)|^p)^(1/p) = (2^(p/2) Gamma((p+1)/2) / sqrt(pi))^(1/p).

    Evaluated through log-gamma for stability at large p; requires p >= 1.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    logm = 0.5 * p * math.log(2.0) + special.gammaln(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)
    return math.exp(logm / p)


def mean_norm_mc(spec: GaussianVarSpec, seed: RngSeed, samples: int = 100_000) -> float:
    """Monte Carlo estimate of E|xi| for a diagonal Gaussian vector."""
    sig = spec.padded_sigma()
    g = seed.generator().standard_normal((samples, spec.space.dim))
    return float(np.mean(space_norm(spec.space, g * sig)))
