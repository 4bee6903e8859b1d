import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besovbm import besov, harness, orlicz
from besovbm.besov import BesovParams
from besovbm.simulate import PathSample, RngSeed, sample_bm
from besovbm.spaces import NORM_BLOCK, finite_lq, space_norm, truncated_lp

from tests.oracles import luxemburg_scale_bisect

SCALAR = finite_lq(1, 2.0)


def constant_path(value, depth=8, space=SCALAR):
    n = 1 << depth
    return PathSample(space, depth, np.full((n + 1, space.dim), float(value)))


def linear_path(depth=12):
    n = 1 << depth
    return PathSample(SCALAR, depth, (np.arange(n + 1) / n)[:, None])


def bm_path(stream, depth=12, sigma=(1.0,), space=SCALAR, seed=314):
    return sample_bm(space, sigma, depth, RngSeed(seed, stream))


# --- L^p norms ---------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0, 5.0, math.inf])
def test_lp_norm_constant(p):
    assert besov.lp_norm_path(constant_path(0.7), p) == pytest.approx(0.7, rel=1e-12)


def test_lp_norm_linear():
    path = linear_path()
    tol = 2.0**-path.depth
    assert besov.lp_norm_path(path, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=tol)


def test_lp_norm_zero_path():
    assert besov.lp_norm_path(constant_path(0.0), 2.0) == 0.0


# --- dyadic increments --------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_dyadic_increment_linear_closed_form(n, p):
    path = linear_path()
    expected = 2.0**-n * (1.0 - 2.0**-n) ** (1.0 / p)
    assert besov.dyadic_increment_lp(path, n, p) == pytest.approx(expected, rel=1e-12)


def test_dyadic_increment_constant_path():
    assert besov.dyadic_increment_lp(constant_path(3.0), 2, 2.0) == 0.0


def test_dyadic_increment_scale_bounds():
    path = linear_path(depth=6)
    with pytest.raises(ValueError):
        besov.dyadic_increment_lp(path, 0, 2.0)
    with pytest.raises(ValueError):
        besov.dyadic_increment_lp(path, 7, 2.0)


def test_dyadic_increment_bm_mean_near_unit():
    vals = [2.0**4 * besov.dyadic_increment_lp(bm_path(1 + i, depth=16), 8, 2.0) for i in range(200)]
    assert abs(np.mean(vals) - 1.0) < 0.05


@pytest.mark.parametrize("space", [SCALAR, truncated_lp(1.0, 3)], ids=["scalar", "l1"])
def test_scale_terms_equal_weighted_dyadic_increments(space):
    path = bm_path(5, depth=10, sigma=(1.0, 0.5, 0.25)[: space.dim], space=space)
    scales, p_list = (1, 3, 4), (1.0, 2.5, 4.0, math.inf)
    terms = besov.scale_terms(path, 0.3, scales, p_list)
    assert terms.shape == (3, 4)
    for i, n in enumerate(scales):
        for j, p in enumerate(p_list):
            assert terms[i, j] == 2.0 ** (n * 0.3) * besov.dyadic_increment_lp(path, n, p)
    with pytest.raises(ValueError):
        besov.scale_terms(path, 0.5, scales, (2.0, 0.5))


# --- Besov seminorm and norm --------------------------------------------------


def test_seminorm_constant_path_zero():
    params = BesovParams(0.5, 2.0, math.inf, 5)
    assert besov.besov_seminorm(constant_path(2.0), params) == 0.0


def test_seminorm_linear_sup_form():
    params = BesovParams(0.5, 2.0, math.inf, 6)
    assert besov.besov_seminorm(linear_path(), params) == pytest.approx(0.5, rel=1e-12)


def test_seminorm_bm_grows_with_cap():
    path = bm_path(3, depth=14)
    vals = [
        besov.besov_seminorm(path, BesovParams(0.5, 2.0, 2.0, n_max)) for n_max in (4, 6, 8)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_besov_norm_zero_path():
    report = besov.besov_norm(constant_path(0.0), BesovParams(0.5, 2.0, math.inf, 4))
    assert report.total == 0.0 and report.lp_part == 0.0 and report.seminorm_part == 0.0


def test_besov_norm_linear_closed_form():
    path = linear_path()
    report = besov.besov_norm(path, BesovParams(0.5, 2.0, math.inf, 6))
    assert report.total == pytest.approx(1.0 / math.sqrt(3.0) + 0.5, abs=2.0**-path.depth)
    assert report.total == pytest.approx(report.lp_part + report.seminorm_part, rel=1e-15)
    assert len(report.per_scale) == 6


def test_besov_norm_bm_finite_every_path():
    params = BesovParams(0.5, 2.0, math.inf, 10)
    for i in range(50):
        total = besov.besov_norm(bm_path(1 + i, depth=16), params).total
        assert math.isfinite(total) and total > 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        BesovParams(0.0, 2.0, 2.0, 4)
    with pytest.raises(ValueError):
        BesovParams(0.5, 0.9, 2.0, 4)
    with pytest.raises(ValueError):
        BesovParams(0.5, 2.0, 0.5, 4)
    with pytest.raises(ValueError):
        BesovParams(0.5, 2.0, 2.0, 0)


# --- exponential Orlicz norms ---------------------------------------------


def test_exp_orlicz_constant_attained_at_p_one():
    assert besov.exp_orlicz_lp_norm(constant_path(0.8), 2.0) == pytest.approx(0.8, rel=1e-12)


def test_exp_orlicz_zero():
    assert besov.exp_orlicz_lp_norm(constant_path(0.0), 2.0) == 0.0


def test_exp_orlicz_p_max_floor():
    with pytest.raises(ValueError):
        besov.exp_orlicz_lp_norm(constant_path(1.0), 2.0, p_max=4)


def test_exp_orlicz_stabilises_in_p_max():
    for i in range(5):
        path = bm_path(1 + i)
        v64 = besov.exp_orlicz_lp_norm(path, 2.0, 64)
        v128 = besov.exp_orlicz_lp_norm(path, 2.0, 128)
        assert abs(v128 - v64) / v64 < 0.01


@pytest.mark.parametrize("scale", [1e-12, 1e4, 1e12])
def test_exp_orlicz_norms_homogeneous_at_p_max_128(scale):
    # 1e4 * path would overflow x**128 in unscaled power sums
    path = bm_path(3)
    scaled = PathSample(path.space, path.depth, scale * path.values)
    for norm in (
        lambda p: besov.exp_orlicz_lp_norm(p, 2.0, 128),
        lambda p: besov.besov_orlicz_norm(p, 0.5, 2.0, 128),
    ):
        assert norm(scaled) == pytest.approx(scale * norm(path), rel=1e-12, abs=0.0)


def test_besov_orlicz_zero():
    assert besov.besov_orlicz_norm(constant_path(0.0), 0.5, 2.0) == 0.0


def test_besov_orlicz_dominates_single_term():
    path = bm_path(9)
    total_p2 = besov.besov_norm(path, BesovParams(0.5, 2.0, math.inf, besov.default_n_max(path.depth))).total
    assert besov.besov_orlicz_norm(path, 0.5, 2.0) >= 2.0**-0.5 * total_p2 - 1e-12


def test_besov_orlicz_bm_finite():
    for i in range(20):
        val = besov.besov_orlicz_norm(bm_path(1 + i, depth=16), 0.5, 2.0)
        assert math.isfinite(val) and val > 0.0


def test_integer_profile_matches_direct_norms():
    path = bm_path(17)
    totals = besov.integer_p_besov_totals(path, 0.5, 8, 6)
    for p in (1, 2, 5, 8):
        direct = besov.besov_norm(path, BesovParams(0.5, float(p), math.inf, 6)).total
        assert totals[p - 1] == pytest.approx(direct, rel=1e-12)


# --- Luxemburg function norm ----------------------------------------------


def test_luxemburg_function_norm_zero():
    assert besov.luxemburg_function_norm(constant_path(0.0), 2.0) == 0.0


def test_luxemburg_function_norm_constant_closed_form():
    c = 0.7
    expected = c / math.sqrt(math.log(2.0))
    assert besov.luxemburg_function_norm(constant_path(c), 2.0) == pytest.approx(expected, abs=1e-6)


def test_luxemburg_function_norm_beta_floor():
    with pytest.raises(ValueError):
        besov.luxemburg_function_norm(constant_path(1.0), 0.5)


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_luxemburg_function_norm_is_that_of_the_plain_bisection_bitwise(beta, monkeypatch):
    paths = [bm_path(40 + i, depth=10) for i in range(8)]
    paths += [bm_path(60 + i, depth=8, sigma=(1.0, 0.5, 0.25), space=finite_lq(3, 2.0)) for i in range(4)]
    paths += [PathSample(p.space, p.depth, s * p.values) for p in paths[:4] for s in (1e-150, 1e150)]
    got = [besov.luxemburg_function_norm(p, beta) for p in paths]
    monkeypatch.setattr(orlicz, "luxemburg_scale", luxemburg_scale_bisect)
    want = [besov.luxemburg_function_norm(p, beta) for p in paths]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_luxemburg_function_norm_of_a_nonfinite_path(value):
    # an infinite value gives an infinite norm and a NaN a NaN, with no warning
    for space in (SCALAR, finite_lq(3, 2.0)):
        path = constant_path(0.5, depth=6, space=space)
        path.values[5, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = besov.luxemburg_function_norm(path, 2.0)
        assert got == math.inf if value == math.inf else math.isnan(got)


def test_exp_orlicz_below_luxemburg_on_bm():
    for i in range(100):
        path = bm_path(1 + i)
        lhs = besov.exp_orlicz_lp_norm(path, 2.0)
        rhs = besov.luxemburg_function_norm(path, 2.0)
        assert lhs <= rhs + 1e-9


# --- structural properties --------------------------------------------------


def test_path_norm_homogeneity():
    path = bm_path(23)
    scaled = PathSample(path.space, path.depth, 2.5 * path.values)
    params = BesovParams(0.5, 2.0, math.inf, 6)
    pairs = [
        (besov.lp_norm_path(scaled, 2.0), 2.5 * besov.lp_norm_path(path, 2.0)),
        (besov.dyadic_increment_lp(scaled, 4, 2.0), 2.5 * besov.dyadic_increment_lp(path, 4, 2.0)),
        (besov.besov_norm(scaled, params).total, 2.5 * besov.besov_norm(path, params).total),
        (besov.exp_orlicz_lp_norm(scaled, 2.0), 2.5 * besov.exp_orlicz_lp_norm(path, 2.0)),
        (besov.besov_orlicz_norm(scaled, 0.5, 2.0), 2.5 * besov.besov_orlicz_norm(path, 0.5, 2.0)),
        (besov.luxemburg_function_norm(scaled, 2.0), 2.5 * besov.luxemburg_function_norm(path, 2.0)),
    ]
    for got, expected in pairs:
        assert abs(got - expected) / expected < 1e-9


def test_norms_monotone_in_caps():
    path = bm_path(29, depth=14)
    semis = [besov.besov_seminorm(path, BesovParams(0.5, 2.0, math.inf, n)) for n in (2, 4, 6, 8)]
    assert all(a <= b + 1e-15 for a, b in zip(semis, semis[1:]))
    orls = [besov.exp_orlicz_lp_norm(path, 2.0, p_max) for p_max in (8, 16, 32, 64)]
    assert all(a <= b + 1e-15 for a, b in zip(orls, orls[1:]))


def test_embedding_chain_p_term_bound():
    for i in range(10):
        path = bm_path(41 + i, depth=14)
        orlicz_val = besov.besov_orlicz_norm(path, 0.5, 2.0)
        for p in (1, 2, 4):
            total = besov.besov_norm(
                path, BesovParams(0.5, float(p), math.inf, besov.default_n_max(path.depth))
            ).total
            assert total <= math.sqrt(p) * orlicz_val + 1e-9


def test_partial_qsum_growth_separates_bm_from_smooth_paths():
    # rough paths keep accumulating q-sum mass between caps 9 and 12; a
    # smooth path's partial sums have already converged there
    depth, n_lo, n_hi = 18, 9, 12
    grow = []
    for i in range(40):
        path = bm_path(1 + i, depth=depth, seed=424242)
        terms = np.array([2.0 ** (m / 2.0) * besov.dyadic_increment_lp(path, m, 2.0) for m in range(1, n_hi + 1)])
        sums = np.cumsum(terms**2)
        grow.append(sums[n_hi - 1] / sums[n_lo - 1])
    grow = np.array(grow)
    assert np.mean(grow >= 1.2) >= 0.95

    lin = linear_path(depth=depth)
    terms = np.array([2.0 ** (m / 2.0) * besov.dyadic_increment_lp(lin, m, 2.0) for m in range(1, n_hi + 1)])
    sums = np.cumsum(terms**2)
    assert sums[n_hi - 1] / sums[n_lo - 1] < 1.05


@pytest.mark.parametrize("k", [600, -600])
def test_scalar_sup_increment_norm_is_exactly_homogeneous(k):
    # at 2^+-600 the squares of the increments would leave the float range
    path = bm_path(6, depth=10)
    scaled = PathSample(path.space, path.depth, np.ldexp(path.values, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 4, 10):
            got = besov.dyadic_increment_lp(scaled, n, math.inf)
            assert got == math.ldexp(besov.dyadic_increment_lp(path, n, math.inf), k)


# --- row-blocked and in-place kernels against their whole-array references ----


def _reference_power_norms(norms, weight, p_max):
    # allocate-per-power loop
    out = np.empty(p_max)
    run = np.ones_like(norms)
    for p in range(1, p_max + 1):
        run = run * norms
        out[p - 1] = (weight * run.sum()) ** (1.0 / p)
    return out


@pytest.mark.parametrize("size", [1, 7, 4097])
def test_integer_p_lp_norms_matches_allocating_loop(size):
    norms = np.random.default_rng(size).random(size) * 3.0
    before = norms.copy()
    got = besov.integer_p_lp_norms(norms, 2.0**-12, 64)
    assert np.array_equal(got, _reference_power_norms(norms, 2.0**-12, 64))
    assert np.array_equal(norms, before)  # the input is left untouched


BLOCK_DIMS = [1, 3, 16, 17]
BLOCK_EXPONENTS = [1.0, 2.0, 3.0, math.inf]


@pytest.mark.parametrize("dim", BLOCK_DIMS)
@pytest.mark.parametrize("exponent", BLOCK_EXPONENTS)
def test_row_norms_match_whole_array(dim, exponent):
    space = truncated_lp(exponent, dim)
    rows = 2 * NORM_BLOCK + 3  # a multiple of no block size
    assert rows % max(NORM_BLOCK // dim, 1) != 0
    values = np.random.default_rng(dim).standard_normal((rows, dim))
    assert np.array_equal(besov._row_norms(space, values), np.atleast_1d(space_norm(space, values)))
    for shift in (1, 5, NORM_BLOCK + 1):
        whole = space_norm(space, values[shift:] - values[:-shift])
        assert np.array_equal(besov._row_norms(space, values, shift), whole)


@pytest.mark.parametrize("dim", BLOCK_DIMS)
@pytest.mark.parametrize("exponent", BLOCK_EXPONENTS)
def test_increment_and_value_norms_match_whole_array(dim, exponent):
    space = truncated_lp(exponent, dim)
    path = sample_bm(space, tuple(0.8 ** np.arange(dim)), 15, RngSeed(dim, 1))
    n = path.grid_size
    for scale in range(1, path.depth + 1):
        s = 1 << (path.depth - scale)
        whole = np.atleast_1d(space_norm(space, path.values[s:n] - path.values[: n - s]))
        assert np.array_equal(besov._increment_norms(path, scale), whole)
    # integer_p_besov_totals built from whole-array norms and the allocating loop
    weight = 2.0**-path.depth
    lp = _reference_power_norms(space_norm(space, path.values[:n]), weight, 16)
    sup_terms = np.zeros(16)
    for scale in range(1, 10):
        s = 1 << (path.depth - scale)
        d_n = _reference_power_norms(space_norm(space, path.values[s:n] - path.values[: n - s]), weight, 16)
        np.maximum(sup_terms, 2.0 ** (scale * 0.5) * d_n, out=sup_terms)
    assert np.array_equal(besov.integer_p_besov_totals(path, 0.5, 16, 9), lp + sup_terms)


# --- early exit over p against the full sweep ----------------------------------

DIM16_SIGMA = tuple(0.7 ** np.arange(16))
EARLY_EXIT_MODELS = {
    "scalar": (SCALAR, (1.0,)),
    "l2": (truncated_lp(2.0, 16), DIM16_SIGMA),
    "l1": (truncated_lp(1.0, 16), DIM16_SIGMA),
    "linf": (truncated_lp(math.inf, 16), DIM16_SIGMA),
}


def _assert_early_exit_matches(path, betas, p_max, p_head=8):
    """Early-exit sups against the full sweeps followed by p_weighted_sup."""
    n_max = besov.default_n_max(path.depth)
    totals = besov.integer_p_besov_totals(path, 0.5, p_max, n_max)
    lp = besov.integer_p_lp_norms(besov._row_norms(path.space, path.values[: path.grid_size]), 2.0**-path.depth, p_max)
    for beta in betas:
        sup = besov.p_weighted_sup(totals, beta)
        got = besov.integer_p_besov_totals(path, 0.5, p_max, n_max, beta, p_head)
        assert np.array_equal(got, np.append(totals[:p_head], sup), equal_nan=True)
        assert np.array_equal(besov.exp_orlicz_lp_norm(path, beta, p_max), besov.p_weighted_sup(lp, beta), equal_nan=True)
    assert np.array_equal(besov.besov_orlicz_norm(path, 0.5, beta, p_max), sup, equal_nan=True)


@pytest.mark.parametrize("depth", [10, 16])
@pytest.mark.parametrize("model", sorted(EARLY_EXIT_MODELS))
def test_early_exit_sups_equal_the_full_sweep(model, depth):
    space, sigma = EARLY_EXIT_MODELS[model]
    path = sample_bm(space, sigma, depth, RngSeed(271, depth))
    # all but 1.0 take the power-of-two rescale at p_max 64 and 128; at 1e6 the
    # first POWER_CAP powers alone would not need it
    for scale in (1e-12, 1.0, 1e6, 3e9):
        scaled = PathSample(space, depth, scale * path.values)
        for p_max in (8, 64, 128):
            _assert_early_exit_matches(scaled, (1.0, 2.0, 3.0), p_max)


def _spike_path(depth=10):
    # L^p of a 0/1 vector is 2^(-depth/p), which the interpolation bound meets
    # exactly, and the beta = 3 weighted terms peak near p = 19, past the cap of 8
    values = np.zeros(((1 << depth) + 1, 1))
    values[100] = 1.0
    return PathSample(SCALAR, depth, values)


def _recorded_power_counts(monkeypatch):
    counts = []
    real = besov._power_sums

    def counting(norms, weight, count):
        counts.append(count)
        return real(norms, weight, count)

    monkeypatch.setattr(besov, "_power_sums", counting)
    return counts


def test_early_exit_falls_back_to_the_full_sweep(monkeypatch):
    path = _spike_path()
    counts = _recorded_power_counts(monkeypatch)
    besov.besov_orlicz_norm(path, 0.5, 3.0, 128)
    besov.exp_orlicz_lp_norm(path, 3.0, 128)
    # the bound settled neither sup, so both redid the full sweep
    assert counts.count(128) == besov.default_n_max(path.depth) + 2
    monkeypatch.undo()
    for p_max in (64, 128):
        _assert_early_exit_matches(path, (3.0,), p_max)


@pytest.mark.parametrize("space", [SCALAR, truncated_lp(2.0, 4)], ids=["scalar", "l2"])
def test_early_exit_settles_a_zero_path_at_the_cap(space, monkeypatch):
    path = PathSample(space, 10, np.zeros(((1 << 10) + 1, space.dim)))
    counts = _recorded_power_counts(monkeypatch)
    got = (besov.besov_orlicz_norm(path, 0.5, 2.0, 64), besov.exp_orlicz_lp_norm(path, 2.0, 64))
    # a zero sup equals its zero bound, so no vector is swept past the cap
    assert counts == [besov.POWER_CAP] * (besov.default_n_max(path.depth) + 2)
    monkeypatch.undo()
    n_max = besov.default_n_max(path.depth)
    lp = besov.integer_p_lp_norms(besov._row_norms(space, path.values[: path.grid_size]), 2.0**-path.depth, 64)
    full = (
        besov.p_weighted_sup(besov.integer_p_besov_totals(path, 0.5, 64, n_max), 2.0),
        besov.p_weighted_sup(lp, 2.0),
    )
    assert got == full == (0.0, 0.0)


def test_early_exit_propagates_nan():
    path = bm_path(5, depth=10)
    values = path.values.copy()
    values[300, 0] = math.nan
    broken = PathSample(path.space, path.depth, values)
    _assert_early_exit_matches(broken, (2.0,), 64)
    assert math.isnan(besov.besov_orlicz_norm(broken, 0.5, 2.0))


def test_early_exit_stops_the_running_powers_at_the_cap(monkeypatch):
    path = bm_path(7, depth=12)
    counts = _recorded_power_counts(monkeypatch)
    besov.besov_orlicz_norm(path, 0.5, 2.0, 128)
    besov.exp_orlicz_lp_norm(path, 2.0, 128)
    # one sweep per norm vector: the values and n_max increment vectors, then the values
    assert len(counts) == besov.default_n_max(path.depth) + 2
    assert max(counts) <= 8


@pytest.mark.parametrize("seed", [3, 20260808])
def test_default_moments_models_settle_at_eight_powers(seed, monkeypatch):
    cfg = dataclasses.replace(harness.default_config("moments", seed), paths=2)
    assert cfg.depth == 16
    p_ints = harness._integer_exponents(cfg, cfg.p_max)
    n_max = besov.default_n_max(cfg.depth)
    models = [(space, sigma) for _, space, sigma in harness._moment_space_models(cfg)]
    counts = _recorded_power_counts(monkeypatch)
    harness.map_paths(
        cfg, models, lambda path: besov.integer_p_besov_totals(path, 0.5, cfg.p_max, n_max, cfg.beta, max(p_ints))
    )
    # one sweep of 8 running powers per norm vector, and no full sweep
    assert counts == [8] * (len(models) * cfg.paths * (n_max + 1))


def test_integer_p_besov_totals_takes_p_head_from_0_to_p_max():
    path = bm_path(1, depth=10)
    totals = besov.integer_p_besov_totals(path, 0.5, 64, 4)
    got = besov.integer_p_besov_totals(path, 0.5, 64, 4, 2.0, p_head=64)
    assert np.array_equal(got, np.append(totals, besov.p_weighted_sup(totals, 2.0)))
    # 100 used to return 64 head totals, and -1 dropped the last total
    for p_head in (-1, 65, 100):
        with pytest.raises(ValueError, match=r"p_head must lie in \[0, p_max\]"):
            besov.integer_p_besov_totals(path, 0.5, 64, 4, 2.0, p_head=p_head)
    with pytest.raises(ValueError, match="p_max must be at least 1"):
        besov.integer_p_besov_totals(path, 0.5, 0, 4)


@pytest.mark.parametrize("beta, p_max", [(0.0, 64), (-1.0, 64), (math.nan, 64), (2.0, 4)])
def test_every_orlicz_sup_takes_one_rule(beta, p_max):
    path = bm_path(1, depth=10)
    calls = (
        lambda: besov.besov_orlicz_norm(path, 0.5, beta, p_max),
        lambda: besov.exp_orlicz_lp_norm(path, beta, p_max),
        lambda: besov.p_weighted_sup(np.ones(p_max), beta),
    )
    for call in calls:
        with pytest.raises(ValueError, match="beta must be positive|p_max must be at least 8"):
            call()


_NORM_ENTRY = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1e6))


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(_NORM_ENTRY, min_size=1, max_size=200),
    exponent=st.integers(-300, 300),
    c=st.integers(1, 8),
    p_max=st.sampled_from([8, 64, 128]),
)
@example(base=[0.0] * 7 + [1.0], exponent=0, c=8, p_max=128)  # a spike: the bound is exact
@example(base=[0.0] * 8, exponent=0, c=8, p_max=64)
@example(base=[3.0] * 16, exponent=300, c=1, p_max=128)  # a constant at the rescale
def test_lyapunov_bound_caps_every_later_lp_norm(base, exponent, c, p_max):
    norms = np.array(base) * 10.0**exponent
    weight = 2.0 ** -(len(base) - 1).bit_length()  # weight * len <= 1, equal at powers of two
    full = besov.integer_p_lp_norms(norms, weight, p_max)
    peak = float(norms.max())
    bounds = besov._lyapunov_bounds(np.array([[full[c - 1], peak]]), c, p_max)[0]
    assert bounds.shape == (p_max - c,)
    assert np.all(full[c:] <= bounds * (1.0 + besov.BOUND_SLACK))
    assert np.all(bounds <= peak)
