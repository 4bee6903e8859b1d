"""Finite sequence-space models, dual nets, and diagonal weak variances.

Two concrete Banach-space models are supported, both finite-dimensional
coordinate spaces under an l^p norm:

* ``finite_lq(dim, q)`` -- R^dim with the l^q norm, ``q in [1, inf]``;
* ``truncated_lp(p, dim)`` -- a D-dimensional truncation of the sequence
  space l^p, used for diagonal Gaussian vectors ``xi = sum_n sigma_n g_n e_n``
  whose weights vanish beyond the truncation.

The two build the same norm (their arguments come in opposite order); no
code branches on ``SpaceSpec.kind``, so the kind and the ``space.kind``
config key only label a space.  :func:`check_exponent` is the one check
that an exponent lies in ``[1, inf]``.

Norming sequences of functionals are replaced by finite dual nets: the
signed canonical coordinate functionals plus random directions normalised
to unit dual norm.  Net density is validated empirically by the norm
recovery checks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .orlicz import as_weights

__all__ = [
    "SpaceSpec",
    "parse_exponent",
    "check_exponent",
    "finite_lq",
    "truncated_lp",
    "padded_weights",
    "scalar_weight",
    "NORM_BLOCK",
    "row_blocks",
    "space_norm",
    "dual_exponent",
    "dual_net",
    "diag_weak_variance",
    "iw_norm",
]


@dataclass(frozen=True)
class SpaceSpec:
    """A coordinate space R^dim carrying the l^exponent norm."""

    kind: str  # "finite_lq" or "truncated_lp"
    exponent: float  # in [1, inf]; math.inf selects the sup norm
    dim: int

    def __post_init__(self):
        if self.kind not in ("finite_lq", "truncated_lp"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        check_exponent(self.exponent, "exponent")


def parse_exponent(text: str) -> float:
    """An exponent from text; ``inf``, ``infinity`` and ``oo`` give math.inf."""
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    return float(text)


def check_exponent(value: float, name: str = "p", finite: bool = False) -> None:
    """Reject an exponent outside ``[1, inf]``, or ``[1, inf)`` when ``finite``, NaN included."""
    if not value >= 1.0 or (finite and math.isinf(value)):
        raise ValueError(f"{name} must lie in [1, inf{')' if finite else ']'}")


def finite_lq(dim: int, q: float) -> SpaceSpec:
    """R^dim under the l^q norm."""
    return SpaceSpec("finite_lq", float(q), int(dim))


def truncated_lp(p: float, dim: int) -> SpaceSpec:
    """D-dimensional truncation of the sequence space l^p."""
    return SpaceSpec("truncated_lp", float(p), int(dim))


def padded_weights(space: SpaceSpec, sigma) -> np.ndarray:
    """The weights ``sigma`` zero-padded to the space's ``dim`` coordinates."""
    w = as_weights(sigma)
    if w.size > space.dim:
        raise ValueError("sigma is longer than the space dimension")
    out = np.zeros(space.dim)
    out[: w.size] = w
    return out


def scalar_weight(sigma) -> float | None:
    """The single nonzero weight if there is at most one (0.0 if none), else None.

    A diagonal Gaussian vector with at most one nonzero weight has the law of
    that weight times a folded standard normal in every l^p norm, so its
    moments are analytic.
    """
    arr = np.asarray(sigma, dtype=float)
    nz = arr[arr > 0]
    if nz.size == 0:
        return 0.0
    if nz.size == 1:
        return float(nz[0])
    return None


# Elements per space_norm call of row_blocks (sampled_norms): small enough
# that a block and its temporaries stay in cache.
NORM_BLOCK = 2**14


def row_blocks(rows: int, dim: int):
    """``(lo, hi)`` row ranges of about ``NORM_BLOCK`` elements covering ``rows``."""
    step = max(NORM_BLOCK // dim, 1)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _pairwise_fold(terms: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Sum of the columns ``lo .. lo + n - 1`` of ``terms`` in numpy's pairwise order.

    numpy sums each row ``x`` of ``n`` items as follows: below 8 items, in
    sequence; up to 128, into 8 accumulators ``r_j = x_j + x_(j+8) + ...``,
    then ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
    items past the last multiple of 8 in sequence; above 128, as the sum of
    the two halves split at ``n / 2`` rounded down to a multiple of 8.  Here
    each item is a whole column, so every step is one vector operation.  The
    columns are folded in place into column ``lo``, which is returned.
    """
    if n > 128:
        half = n // 2
        half -= half % 8
        left = _pairwise_fold(terms, lo, half)
        left += _pairwise_fold(terms, lo + half, n - half)
        return left
    acc = terms[..., lo]
    if n < 8:
        for i in range(lo + 1, lo + n):
            acc += terms[..., i]
        return acc
    stop = lo + n - n % 8
    for i in range(lo + 8, stop, 8):
        terms[..., lo : lo + 8] += terms[..., i : i + 8]
    r = [terms[..., lo + j] for j in range(8)]
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        r[a] += r[b]
    for i in range(stop, lo + n):
        acc += terms[..., i]
    return acc


def _coordinate_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``terms``, each the float of numpy's sum of that row.

    A single vector and a batch of contiguous rows are summed by numpy.
    Where the rows are not contiguous (a coordinate-major batch) numpy's
    own reduction runs down the coordinates one by one, which gives other
    floats from 8 coordinates on, so there the columns are folded in the
    pairwise order instead, overwriting ``terms``.  The fold is not used on
    contiguous rows: it makes numpy calls per column, and a row-major block
    of ``NORM_BLOCK`` elements has short columns.  On such blocks it took
    41 against 22 us for numpy's row sum at dim 16 and 55 against 9 us at
    dim 64 (one thread, numpy 2.4), and its calls per block grow with the
    dim while the columns shrink.
    """
    if terms.ndim == 1 or terms.strides[-1] == terms.itemsize:
        return terms.sum(axis=-1)
    return _pairwise_fold(terms, 0, terms.shape[-1])


def space_norm(space: SpaceSpec, v):
    """l^exponent norm of the coordinates.

    Accepts a single vector of length ``space.dim`` or a batch shaped
    ``(..., dim)``; batches return an array of norms.  Every memory layout of
    a batch gives the same floats as contiguous rows: row-major rows are
    summed by numpy, and any other layout (a coordinate-major block, say)
    by a fold over whole columns in numpy's own pairwise order.

    On one coordinate every l^q norm is ``|x|``, returned exactly.  For
    exponents 1 and inf that is the float the general formulas give; for 2
    it is whenever ``2^-511 <= |x| <= 2^511``, where ``sqrt(x*x)`` rounds
    back to ``|x|``.  Outside that range, and for other exponents, those
    formulas round, underflow to 0 or overflow to inf.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape[-1] != space.dim:
        raise ValueError(f"vector has {arr.shape[-1]} coordinates, space has {space.dim}")
    p = space.exponent
    if space.dim == 1:
        out = np.abs(arr[..., 0])
    elif math.isinf(p):
        # Column-wise: abs writes the coordinate-major (dim, ...) transpose
        # and max(axis=0) folds whole contiguous columns, where max(axis=-1)
        # reduces each short row on its own.  On a 2^14-element block (one
        # thread, numpy 2.4) this takes 37 against 191 us at dim 8, 39
        # against 102 us at dim 16 and 41 against 37 us at dim 64.  A
        # Python loop of np.maximum over the columns is as fast on one
        # thread but pays for its dim calls under the thread pools: two
        # threads took 289 ms for what this does in 164 ms.  The maximum is
        # exact, so the result has the same bits as the row max.
        out = np.abs(np.moveaxis(arr, -1, 0), order="C").max(axis=0)
    elif p == 1.0:
        out = _coordinate_sums(np.abs(arr))
    elif p == 2.0:
        out = np.sqrt(_coordinate_sums(arr * arr))
    else:
        out = _coordinate_sums(np.abs(arr) ** p) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


def dual_exponent(p: float) -> float:
    """Conjugate exponent: 1/p + 1/p' = 1, with 1 <-> inf."""
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def dual_net(space: SpaceSpec, size: int, seed) -> np.ndarray:
    """A ``(size, dim)`` array of functionals of unit dual norm, one per row.

    Signed canonical dual unit vectors plus random unit-dual-norm rows.
    Requires ``size >= 2 * dim``; the first ``2 dim`` rows are ``+e_i`` and
    ``-e_i`` (canonical functionals, dual norm 1 for every exponent), the
    rest are standard-normal directions normalised in the dual norm.
    Deterministic for a fixed seed.
    """
    if size < 2 * space.dim:
        raise ValueError("net size must be at least twice the dimension")
    eye = np.eye(space.dim)
    rows = [eye, -eye]
    extra = size - 2 * space.dim
    if extra:
        g = seed.generator().standard_normal((extra, space.dim))
        dual = replace(space, exponent=dual_exponent(space.exponent))
        norms = np.atleast_1d(space_norm(dual, g))
        rows.append(g / norms[:, None])
    return np.vstack(rows)


def diag_weak_variance(p: float, sigma) -> float:
    """Weak variance of ``xi = sum_n sigma_n g_n e_n`` in l^p.

    Closed form: ``sup_n sigma_n`` for ``p in [2, inf]`` and
    ``(sum_n sigma_n^r)^(1/r)`` with ``r = 2p/(2-p)`` for ``p in [1, 2)``.
    """
    check_exponent(p, "exponent")
    w = as_weights(sigma)
    if w.size == 0:
        return 0.0
    if math.isinf(p) or p >= 2.0:
        return float(w.max())
    r = 2.0 * p / (2.0 - p)
    return float((w**r).sum() ** (1.0 / r))


def iw_norm(space: SpaceSpec, sigma) -> float:
    """Cameron-Martin inclusion norm of the diagonal Brownian motion.

    Equals the weak variance of ``W(1)`` in the ambient space, i.e.
    :func:`diag_weak_variance` at the space's exponent.
    """
    w = as_weights(sigma)
    if w.size > space.dim:
        raise ValueError("sigma is longer than the space dimension")
    return diag_weak_variance(space.exponent, w)
