import math

import numpy as np
import pytest

from besovbm import harness
from besovbm.simulate import (
    EnsembleSpec,
    GaussianVarSpec,
    RngSeed,
    diag_norm_moment,
    gaussian_abs_moment,
    SAMPLE_BLOCK,
    mean_norm_mc,
    sample_bm,
)
from besovbm.spaces import NORM_BLOCK, finite_lq, space_norm, truncated_lp

from tests.oracles import (
    MEAN_ABS_NORMAL,
    expected_max_abs_gaussians,
    l1_gaussian_moment,
    l2_gaussian_moment,
    linf_gaussian_moment,
)

SCALAR = finite_lq(1, 2.0)


def test_path_starts_at_zero_and_has_full_grid():
    path = sample_bm(SCALAR, [1.0], 6, RngSeed(1))
    assert path.values.shape == (65, 1)
    assert np.all(path.values[0] == 0.0)
    assert path.times()[0] == 0.0 and path.times()[-1] == 1.0


def test_zero_sigma_gives_zero_path():
    path = sample_bm(SCALAR, [0.0], 8, RngSeed(2))
    assert np.all(path.values == 0.0)


def test_depth_bounds():
    with pytest.raises(ValueError):
        sample_bm(SCALAR, [1.0], 0, RngSeed(0))
    with pytest.raises(ValueError):
        sample_bm(SCALAR, [1.0], 25, RngSeed(0))


def test_sigma_longer_than_dimension_rejected():
    with pytest.raises(ValueError):
        sample_bm(SCALAR, [1.0, 1.0], 4, RngSeed(0))


def test_reproducibility_bit_identical():
    a = sample_bm(truncated_lp(2.0, 3), [1.0, 0.5, 0.2], 10, RngSeed(99, 5))
    b = sample_bm(truncated_lp(2.0, 3), [1.0, 0.5, 0.2], 10, RngSeed(99, 5))
    assert np.array_equal(a.values, b.values)


def test_distinct_streams_decorrelated():
    n = 5_000
    ends = np.empty((2, n))
    for i in range(n):
        ends[0, i] = sample_bm(SCALAR, [1.0], 4, RngSeed(123, 2 * i)).values[-1, 0]
        ends[1, i] = sample_bm(SCALAR, [1.0], 4, RngSeed(123, 2 * i + 1)).values[-1, 0]
    corr = np.corrcoef(ends[0], ends[1])[0, 1]
    assert abs(corr) < 0.02


def test_terminal_variance_matches_unit_rate():
    n_paths, depth = 10_000, 10
    ends = np.array(
        [sample_bm(SCALAR, [1.0], depth, RngSeed(7, 1 + i)).values[-1, 0] for i in range(n_paths)]
    )
    var = ends.var(ddof=1)
    se = math.sqrt(2.0 / (n_paths - 1))  # relative s.e. of a chi-square mean
    assert abs(var - 1.0) <= 3.0 * se


def test_increment_stationarity_lag_proportional():
    # pooled variance of lag-m increments is proportional to the lag
    depth, n_paths = 8, 10_000
    gen_paths = [sample_bm(SCALAR, [1.0], depth, RngSeed(11, 1 + i)) for i in range(n_paths)]
    values = np.stack([p.values[:, 0] for p in gen_paths])
    for m in (1, 4, 16):
        incr = values[:, m::m] - values[:, :-m:m]
        ratio = incr.var(ddof=1) / (m * 2.0**-depth)
        assert abs(ratio - 1.0) < 0.05


def test_disjoint_increments_uncorrelated():
    depth, n_paths = 8, 10_000
    values = np.stack(
        [sample_bm(SCALAR, [1.0], depth, RngSeed(13, 1 + i)).values[:, 0] for i in range(n_paths)]
    )
    a = values[:, 64] - values[:, 0]
    b = values[:, 192] - values[:, 128]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_mean_norm_scalar_folded_normal():
    spec = GaussianVarSpec(finite_lq(1, 2.0), (1.0,))
    est = mean_norm_mc(spec, RngSeed(21), 100_000)
    se = math.sqrt((1.0 - 2.0 / math.pi) / 100_000)
    assert abs(est - MEAN_ABS_NORMAL) <= 3.0 * se


def test_mean_norm_sup_pair_matches_quadrature():
    spec = GaussianVarSpec(truncated_lp(math.inf, 2), (1.0, 1.0))
    est = mean_norm_mc(spec, RngSeed(22), 100_000)
    oracle = expected_max_abs_gaussians(2)
    assert abs(est - oracle) <= 3.0 * 0.6 / math.sqrt(100_000)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 17])
@pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0, math.inf])
def test_mean_norm_matches_one_shot_draw(dim, exponent):
    space = truncated_lp(exponent, dim)
    sigma = tuple(0.7 ** np.arange(dim))
    samples = 2 * NORM_BLOCK + 3  # a multiple of no block size
    assert samples % max(NORM_BLOCK // dim, 1) != 0
    seed = RngSeed(dim, 9)
    g = seed.generator().standard_normal((samples, dim))
    want = float(np.mean(space_norm(space, g * np.asarray(sigma))))
    assert mean_norm_mc(GaussianVarSpec(space, sigma), seed, samples) == want


def test_gaussian_abs_moment_values():
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, abs=1e-12)
    assert gaussian_abs_moment(1.0) == pytest.approx(MEAN_ABS_NORMAL, abs=1e-12)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0**0.25, abs=1e-12)
    # E|N(0,1)|^p = (p-1)!!, times sqrt(2/pi) for odd p
    for p in range(1, 257):
        closed = (math.prod(range(p - 1, 0, -2)) * (math.sqrt(2.0 / math.pi) if p % 2 else 1.0)) ** (1.0 / p)
        assert abs(gaussian_abs_moment(p) - closed) <= 8 * math.ulp(closed), p
    # nan and inf used to return nan
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            gaussian_abs_moment(p)


def test_gaussian_abs_moment_grows_like_sqrt_p():
    ratios = [gaussian_abs_moment(p) / math.sqrt(p) for p in (4, 16, 64, 256)]
    assert all(0.5 < r < 1.0 for r in ratios)


def test_ensemble_requires_variables():
    with pytest.raises(ValueError):
        EnsembleSpec(())


def test_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(3, -2)
    # a part of 2^32 or more would draw the same bits as a longer key
    with pytest.raises(ValueError):
        RngSeed(3, 2**32)
    with pytest.raises(ValueError):
        RngSeed(3).child(0, 2**32)


@pytest.mark.parametrize("dim", [1, 3, 16, 17, 129])
def test_sample_bm_matches_draw_then_cumsum(dim):
    space = truncated_lp(2.0, dim)
    # a zero weight past the first coordinate: its steps are signed zeros
    sigma = tuple(0.7 ** np.arange(max(dim - 1, 1)))
    seed = RngSeed(20260808, 5)
    # depth 1, and a depth at which the draw blocks split the grid; only at
    # dims 1 and 16 do they divide it
    for depth in (1, 16 if dim in (1, 3, 16) else 12):
        if depth > 1:
            assert SAMPLE_BLOCK // dim < 1 << depth  # more than one draw block
        # reference: a separate row-major increments array, summed into the values
        g = seed.generator().standard_normal((1 << depth, dim))
        g *= np.pad(sigma, (0, dim - len(sigma))) * 2.0 ** (-depth / 2.0)
        values = np.zeros(((1 << depth) + 1, dim))
        np.cumsum(g, axis=0, out=values[1:])
        path = sample_bm(space, sigma, depth, seed)
        assert path.values.T.flags.c_contiguous  # stored coordinate-major
        assert np.ascontiguousarray(path.values).tobytes() == values.tobytes()


# --- exact moments of diagonal Gaussian norms -----------------------------------

PROFILES = {
    "geometric": tuple(0.7 ** np.arange(6)),
    "constant": (0.5, 0.5, 0.5, 0.5),
    "spike": (1.5, 0.1, 0.1),
}
ORACLES = {1.0: l1_gaussian_moment, 2.0: l2_gaussian_moment, math.inf: linf_gaussian_moment}


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("exponent", sorted(ORACLES), ids=lambda q: f"l{q:g}")
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_diag_norm_moment_matches_oracle(profile, exponent, p):
    sigma = PROFILES[profile]
    got = diag_norm_moment(truncated_lp(exponent, len(sigma)), sigma, p)
    assert got == pytest.approx(ORACLES[exponent](sigma, p), rel=1e-10)


@pytest.mark.parametrize("exponent", sorted(ORACLES), ids=lambda q: f"l{q:g}")
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_diag_norm_moment_is_homogeneous(exponent, p):
    sigma = np.array(PROFILES["geometric"])
    space = truncated_lp(exponent, sigma.size)
    unit = diag_norm_moment(space, sigma, p)
    for c in (1e-300, 1e-12, 1e-6, 1e6, 1e12, 1e300):
        assert diag_norm_moment(space, c * sigma, p) == pytest.approx(c * unit, rel=1e-13), c


@pytest.mark.parametrize("exponent", sorted(ORACLES), ids=lambda q: f"l{q:g}")
def test_diag_norm_moment_finite_and_increasing_in_p(exponent):
    # Lyapunov: p -> (E|X|^p)^(1/p) is nondecreasing; the log-space sums keep p = 256 finite
    sigma = PROFILES["geometric"]
    space = truncated_lp(exponent, len(sigma))
    values = [diag_norm_moment(space, sigma, p) for p in (2, 4, 16, 64, 256)]
    assert all(math.isfinite(v) for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_diag_norm_moment_scalar_case_is_the_folded_normal():
    for space, sigma in ((finite_lq(1, 2.0), (1.5,)), (truncated_lp(3.0, 4), (0.0, 1.5, 0.0, 0.0))):
        for p in (1.0, 1.5, 3.0):
            assert diag_norm_moment(space, sigma, p) == 1.5 * gaussian_abs_moment(p)
    assert diag_norm_moment(truncated_lp(2.0, 3), (0.0, 0.0, 0.0), 2) == 0.0


@pytest.mark.parametrize(
    "space, p",
    [(truncated_lp(2.0, 3), 3), (truncated_lp(2.0, 3), 5), (truncated_lp(2.0, 3), 1.5),
     (truncated_lp(1.0, 3), 2.5), (truncated_lp(3.0, 3), 1), (truncated_lp(3.0, 3), 2)],
)
def test_diag_norm_moment_none_without_closed_form(space, p):
    assert diag_norm_moment(space, (1.0, 0.5, 0.25), p) is None


@pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
def test_diag_norm_moment_rejects_p_outside_one_to_inf(p):
    # p = inf used to give a reference of 1 (l^inf Monte Carlo) or nan (one weight)
    for sigma in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            diag_norm_moment(truncated_lp(math.inf, 2), sigma, p)


def test_diag_norm_moment_default_ensemble_means():
    # E|xi| of the first variable of the default vector ensembles c05-c10
    # (scipy.integrate.quad agrees to 6e-13 relative)
    want = {
        "c05-l2-const-32": 1.298043978963,
        "c06-l1-const-16": 1.595769121606,
        "c07-linf-geo-64": 1.350413822551,
        "c08-l2-spike-16": 1.206399797283,
        "c09-linf-pair-8": 2.0 / math.sqrt(math.pi),
        "c10-l1-geo-100": 1.961207910145,
    }
    got = {}
    for econf in harness.default_ensembles()[4:]:
        var = econf.build().variables[0]
        got[econf.config_id] = diag_norm_moment(var.space, var.sigma, 1)
    assert got == pytest.approx(want, abs=1e-12)
