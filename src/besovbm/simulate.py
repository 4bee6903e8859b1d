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
from scipy import special

from .spaces import SpaceSpec, padded_weights, row_blocks, space_norm

__all__ = [
    "RngSeed",
    "PathSample",
    "GaussianVarSpec",
    "EnsembleSpec",
    "sample_bm",
    "sample_diag_gaussian",
    "sampled_norms",
    "gaussian_abs_moment",
    "worker_count",
    "MAX_DEPTH",
]

MAX_DEPTH = 24  # 2^24 grid points caps memory per path


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


def mean_norm_mc(spec: GaussianVarSpec, seed: RngSeed, samples: int = 100_000) -> float:
    """Monte Carlo estimate of E|xi| for a diagonal Gaussian vector."""
    return float(np.mean(sampled_norms(spec.space, spec.sigma, samples, seed)))


def worker_count() -> int:
    """Threads for independent draws: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
