import math
import warnings

import numpy as np
import pytest

from besovbm.simulate import RngSeed
from besovbm.spaces import (
    diag_weak_variance,
    dual_exponent,
    dual_net,
    finite_lq,
    iw_norm,
    space_norm,
    truncated_lp,
)
from tests.oracles import lq_norm_formula


def test_space_norm_values():
    assert space_norm(finite_lq(3, 2.0), [3.0, 4.0, 0.0]) == pytest.approx(5.0)
    assert space_norm(finite_lq(2, math.inf), [-1.0, 0.5]) == pytest.approx(1.0)
    assert space_norm(truncated_lp(1.0, 3), [1.0, 1.0, 1.0]) == pytest.approx(3.0)
    assert space_norm(truncated_lp(1.5, 2), [1.0, 1.0]) == pytest.approx(2.0 ** (1 / 1.5))


def test_space_norm_batch():
    out = space_norm(finite_lq(2, 2.0), np.array([[3.0, 4.0], [0.0, 1.0]]))
    assert np.allclose(out, [5.0, 1.0])


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 17, 64])
@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_sup_norm_matches_row_max(dim, lead):
    x = np.random.default_rng(dim).standard_normal(lead + (dim,))
    flat = x.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = math.inf
    flat[4::12] = -math.inf
    flat[5::13] = math.nan
    if lead:
        x[(0,) * len(lead)] = -0.0  # a row of negative zeros
    want = np.abs(x).max(axis=-1)
    got = space_norm(truncated_lp(math.inf, dim), x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_scalar_space_norm_is_exact_abs(q):
    # x*x underflows or overflows at both ends, and |x|^q is rounded for q = 1.5, 3
    x = np.array([5e-324, 1e-200, 1.0, 1e200, 1.7e308])
    batch = np.concatenate([x, -x])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for space in (finite_lq(1, q), truncated_lp(q, 1)):
            got = space_norm(space, batch)
            assert got.tobytes() == np.concatenate([x, x]).tobytes()
            assert [space_norm(space, [v]) for v in -x] == list(x)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_scalar_space_norm_matches_the_general_formula(q):
    # sqrt(x*x) rounds back to |x| for 2^-511 <= |x| <= 2^511
    rng = np.random.default_rng(15)
    x = np.ldexp(rng.uniform(1.0, 2.0, 20_000), rng.integers(-511, 511, 20_000))
    x[::2] *= -1.0
    special = [2.0**-511, -(2.0**511), math.nan, math.inf, -math.inf, -0.0, 0.0]
    batch = np.concatenate([x, special])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = space_norm(finite_lq(1, q), batch)
        want = lq_norm_formula(batch, q)
    assert got.tobytes() == want.tobytes()


def test_space_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        space_norm(finite_lq(3, 2.0), [1.0, 2.0])


def test_space_validation():
    with pytest.raises(ValueError):
        finite_lq(0, 2.0)
    with pytest.raises(ValueError):
        finite_lq(2, 0.5)
    with pytest.raises(ValueError):
        truncated_lp(math.nan, 2)


def test_dual_exponent_pairs():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0)


def test_dual_net_canonical_rows():
    net = dual_net(finite_lq(2, 2.0), 4, RngSeed(0))
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert net.shape[0] == 4
    assert np.allclose(net, expected)


def test_dual_net_requires_minimum_size():
    with pytest.raises(ValueError):
        dual_net(finite_lq(3, 2.0), 5, RngSeed(0))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_dual_net_rows_have_unit_dual_norm(p):
    space = truncated_lp(p, 4)
    net = dual_net(space, 64, RngSeed(9))
    dual = truncated_lp(dual_exponent(p), 4)
    norms = space_norm(dual, net)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_dual_net_pairings_bounded_by_norm(p):
    space = truncated_lp(p, 4)
    net = dual_net(space, 64, RngSeed(10))
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.standard_normal(4)
        assert np.max(np.abs(net @ v)) <= space_norm(space, v) * (1 + 1e-12) + 1e-12


def test_dual_net_density_recovers_euclidean_norm():
    space = finite_lq(2, 2.0)
    net = dual_net(space, 512, RngSeed(11))
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(2)
        assert np.max(np.abs(net @ v)) >= 0.99 * space_norm(space, v)


def test_dual_net_deterministic():
    a = dual_net(truncated_lp(3.0, 3), 32, RngSeed(21, 4))
    b = dual_net(truncated_lp(3.0, 3), 32, RngSeed(21, 4))
    assert np.array_equal(a, b)


def test_diag_weak_variance_values():
    assert diag_weak_variance(2.0, [0.3, 0.7, 0.5]) == pytest.approx(0.7)
    assert diag_weak_variance(1.0, [3.0, 4.0]) == pytest.approx(5.0)
    assert diag_weak_variance(math.inf, [1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert diag_weak_variance(2.0, []) == 0.0


def test_diag_weak_variance_rejects_small_p():
    with pytest.raises(ValueError):
        diag_weak_variance(0.9, [1.0])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_diag_weak_variance_matches_net_maximisation(p):
    # exact second moments of <xi, x*> over a dense dual net vs closed form
    rng = np.random.default_rng(3)
    for trial in range(6):
        k = int(rng.integers(2, 5))
        sigma = rng.uniform(0.2, 1.5, size=k)
        space = truncated_lp(p, k)
        net = dual_net(space, 1 << 16, RngSeed(500 + trial))
        second = np.sqrt((net**2) @ (sigma**2))
        closed = diag_weak_variance(p, sigma)
        assert abs(float(second.max()) - closed) / closed <= 0.02


def test_iw_norm_values():
    assert iw_norm(finite_lq(2, 2.0), [1.0, 0.0]) == pytest.approx(1.0)
    assert iw_norm(finite_lq(2, 2.0), [0.5, 0.5]) == pytest.approx(0.5)
    assert iw_norm(truncated_lp(1.0, 2), [3.0, 4.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        iw_norm(finite_lq(1, 2.0), [1.0, 1.0])


def test_iw_norm_moment_domination_single_constant():
    # iw * sqrt(p) stays below 2.0 * (E|W(1)|^p)^(1/p) for p = 1..32
    cases = [
        (truncated_lp(2.0, 8), 0.7 ** np.arange(8)),
        (truncated_lp(1.0, 4), np.full(4, 0.5)),
        (truncated_lp(math.inf, 8), 0.9 ** np.arange(8)),
        (finite_lq(1, 2.0), np.array([1.0])),
    ]
    for space, sigma in cases:
        g = RngSeed(77).generator().standard_normal((100_000, space.dim))
        sig = np.zeros(space.dim)
        sig[: len(sigma)] = sigma
        norms = space_norm(space, g * sig)
        iw = iw_norm(space, sigma)
        for p in range(1, 33):
            moment = float(np.mean(norms ** float(p)) ** (1.0 / p))
            assert iw * math.sqrt(p) <= 2.0 * moment
