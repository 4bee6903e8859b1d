import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besovbm import orlicz
from besovbm.maxima import remark_bound

from tests.oracles import (
    luxemburg_grid_scan,
    luxemburg_scale_bisect,
    orlicz_grid_min,
    theta_masked,
    theta_psi_masked,
)

THETA = orlicz.theta()
PHI2 = orlicz.phi_beta(2.0)
LEVEL_FUNCTIONS = {"theta": THETA, "phi1": orlicz.phi_beta(1.0), "phi2": PHI2, "phi3": orlicz.phi_beta(3.0)}

# Frozen by bisection on (1/d^2) exp(-d^2/2) = 1, confirmed by a 2e6-point
# grid scan of the same scalar equation.
RHO_THETA_ONE = 0.8387296480382731


def random_sequences(count, max_len=64, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 2.0, size=int(rng.integers(1, max_len + 1))) for _ in range(count)]


def test_theta_eval_values():
    assert orlicz.theta_eval(0.0) == 0.0
    assert orlicz.theta_eval(1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert orlicz.theta_eval(2.0) == pytest.approx(4.0 * math.exp(-0.125), abs=1e-12)


def test_theta_eval_rejects_negative():
    with pytest.raises(ValueError):
        orlicz.theta_eval(-0.1)
    with pytest.raises(ValueError):
        orlicz.theta_eval(np.array([0.5, -1.0]))


def test_theta_eval_vectorised():
    xs = np.array([0.0, 1.0, 2.0])
    out = orlicz.theta_eval(xs)
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[1] == pytest.approx(math.exp(-0.5))


THETA_EDGES = [0.0, -0.0, 5e-324, 1e-170, 1e-160, 0.1, 0.5, 1.0, 2.0, 1e150, 1e300]


@pytest.mark.parametrize(
    "unmasked, masked", [(orlicz.theta_eval, theta_masked), (THETA.psi, theta_psi_masked)], ids=["theta", "psi"]
)
def test_theta_family_matches_the_masked_formula_bytewise(unmasked, masked):
    rng = np.random.default_rng(29)
    arrays = [np.array(THETA_EDGES)]
    for size in (1, 3, 16, 1000):
        x = 10.0 ** rng.uniform(-330.0, 300.0, size)
        x[rng.random(size) < 0.2] = 0.0
        arrays += [x, rng.uniform(0.0, 3.0, size)]
    with np.errstate(divide="ignore", over="ignore"):
        for x in THETA_EDGES + arrays + [rng.uniform(0.0, 3.0, (4, 5))]:
            got, want = unmasked(x), masked(x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert math.isnan(unmasked(math.nan))  # the mask used to turn nan into 0


def test_evaluators_nondecreasing_and_unbounded():
    for phi, top in ((THETA, 1e4), (PHI2, 10.0)):
        xs = np.geomspace(1e-4, top, 2001)
        vals = phi.evaluate(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert phi.evaluate(0.0) == 0.0
        assert vals[-1] > 1e6


def test_phi_beta_requires_a_convex_function():
    for bad in (0.5, 0.99, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            orlicz.phi_beta(bad)
    assert orlicz.phi_beta(1.0).evaluate(1.0) == pytest.approx(math.e - 1.0)


@pytest.mark.parametrize("beta", [None, 1.0, 1.5, 2.0, 3.0], ids=lambda b: "theta" if b is None else f"beta={b}")
def test_psi_is_x_dphi_minus_phi(beta):
    phi = THETA if beta is None else orlicz.phi_beta(beta)
    xs = np.geomspace(0.05, 3.0, 60)
    h = 1e-6 * xs
    dphi = (phi.evaluate(xs + h) - phi.evaluate(xs - h)) / (2.0 * h)
    np.testing.assert_allclose(phi.psi(xs), xs * dphi - phi.evaluate(xs), rtol=1e-6)
    assert phi.psi(0.0) == 0.0


def test_theta_numerically_convex():
    xs = np.geomspace(1e-4, 1e4, 4001)
    x, y = xs[:-2], xs[2:]
    mid = orlicz.theta_eval(0.5 * (x + y))
    avg = 0.5 * (orlicz.theta_eval(x) + orlicz.theta_eval(y))
    assert np.all(mid <= avg + 1e-12)


def test_modular_values():
    assert orlicz.modular(THETA, [], 1.0) == 0.0
    assert orlicz.modular(THETA, [1.0], 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert orlicz.modular(THETA, [1.0, 1.0], 2.0) == pytest.approx(0.5 * math.exp(-2.0), abs=1e-12)


def test_modular_rejects_bad_delta():
    with pytest.raises(ValueError):
        orlicz.modular(THETA, [1.0], 0.0)
    with pytest.raises(ValueError):
        orlicz.modular(THETA, [1.0], -1.0)


def test_luxemburg_norm_zero_sequences():
    assert orlicz.luxemburg_norm(THETA, []) == 0.0
    assert orlicz.luxemburg_norm(THETA, [0.0, 0.0]) == 0.0


def test_luxemburg_norm_single_one():
    rho = orlicz.luxemburg_norm(THETA, [1.0])
    assert rho == pytest.approx(RHO_THETA_ONE, abs=1e-9)
    # the returned scale sits on the unit level of the modular
    assert orlicz.modular(THETA, [1.0], rho) == pytest.approx(1.0, abs=1e-9)


def test_luxemburg_matches_grid_scan():
    for w in random_sequences(40, seed=11):
        assert orlicz.luxemburg_norm(THETA, w) == pytest.approx(
            luxemburg_grid_scan(THETA, w), abs=1e-7
        )


def test_luxemburg_positive_homogeneity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.uniform(0.1, 2.0, size=12)
        a = orlicz.luxemburg_norm(THETA, 2.5 * w)
        b = 2.5 * orlicz.luxemburg_norm(THETA, w)
        assert abs(a - b) / b < 1e-7


def test_luxemburg_monotone_in_weights():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.0, 1.5, size=10)
        b = a + rng.uniform(0.0, 0.5, size=10)
        assert orlicz.luxemburg_norm(THETA, a) <= orlicz.luxemburg_norm(THETA, b) + 1e-9


@pytest.mark.parametrize("phi", [THETA, PHI2], ids=["theta", "phi2"])
def test_norm_axioms(phi):
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 20))
        a = rng.uniform(0.05, 2.0, size=k)
        b = rng.uniform(0.05, 2.0, size=k)
        c = float(rng.uniform(0.2, 4.0))
        na, nb = orlicz.luxemburg_norm(phi, a), orlicz.luxemburg_norm(phi, b)
        assert abs(orlicz.luxemburg_norm(phi, c * a) - c * na) / (c * na) < 1e-7
        assert orlicz.luxemburg_norm(phi, a + b) <= na + nb + 1e-9


@pytest.mark.parametrize("phi", [THETA, PHI2], ids=["theta", "phi2"])
def test_luxemburg_orlicz_sandwich(phi):
    for w in random_sequences(200, seed=13):
        rho = orlicz.luxemburg_norm(phi, w)
        full = orlicz.orlicz_norm(phi, w)
        assert rho <= full + 1e-6
        assert full <= 2.0 * rho + 1e-6


@pytest.mark.parametrize("phi", [THETA, PHI2], ids=["theta", "phi2"])
def test_orlicz_norm_matches_grid_minimum(phi):
    # the 200 sequences of the acceptance criteria
    for w in random_sequences(200, seed=20260808):
        assert orlicz.orlicz_norm(phi, w) == pytest.approx(orlicz_grid_min(phi, w), rel=1e-9)


# Weight sequences with largest entry 1, so that 10^e is the size of the
# largest weight of the scaled sequence.
UNIT_WEIGHTS = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=16).map(lambda ws: np.array(ws) / max(ws))
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(phi=st.sampled_from([THETA, PHI2]), w=UNIT_WEIGHTS, e=st.floats(-12.0, 12.0))
def test_norms_finite_at_every_scale(phi, w, e):
    for norm in (orlicz.luxemburg_norm, orlicz.orlicz_norm):
        value = norm(phi, 10.0**e * w)
        assert math.isfinite(value) and value > 0.0


@PROPERTY_SETTINGS
@given(phi=st.sampled_from([THETA, PHI2]), w=UNIT_WEIGHTS, e=st.floats(-12.0, 12.0))
@example(phi=THETA, w=np.array([1.0, 0.5]), e=-12.0)
def test_orlicz_norm_sandwich_and_homogeneity_across_scales(phi, w, e):
    s = 10.0**e
    rho, full = orlicz.luxemburg_norm(phi, s * w), orlicz.orlicz_norm(phi, s * w)
    assert rho <= full <= 2.0 * rho
    assert rho == pytest.approx(s * orlicz.luxemburg_norm(phi, w), rel=1e-9, abs=0.0)
    assert full == pytest.approx(s * orlicz.orlicz_norm(phi, w), rel=1e-9, abs=0.0)


def test_orlicz_norm_homogeneity_at_1e_minus_12():
    w = np.array([1.0, 0.5])
    expected = 1e-12 * orlicz.orlicz_norm(THETA, w)
    assert orlicz.orlicz_norm(THETA, 1e-12 * w) == pytest.approx(expected, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kind", ["evaluate", "psi"])
@pytest.mark.parametrize("name", LEVEL_FUNCTIONS)
def test_luxemburg_scale_is_the_plain_bisection_bitwise(name, kind):
    # normal-range weights only: there the power-of-two rescale is exact
    f = getattr(LEVEL_FUNCTIONS[name], kind)
    cases = random_sequences(200, seed=20260808)
    cases += [10.0**e * w for e in range(-300, 301, 25) for w in random_sequences(4, seed=e + 300)]
    for w in cases:
        got, want = orlicz.luxemburg_scale(f, w), luxemburg_scale_bisect(f, w)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("name", LEVEL_FUNCTIONS)
def test_norms_are_those_of_the_plain_bisection_bitwise(name, monkeypatch):
    phi = LEVEL_FUNCTIONS[name]
    seqs = random_sequences(200, seed=20260808)
    got = [(orlicz.luxemburg_norm(phi, w), orlicz.orlicz_norm(phi, w)) for w in seqs]
    monkeypatch.setattr(orlicz, "luxemburg_scale", luxemburg_scale_bisect)
    want = [(orlicz.luxemburg_norm(phi, w), orlicz.orlicz_norm(phi, w)) for w in seqs]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", LEVEL_FUNCTIONS)
def test_solves_average_at_most_15_level_evaluations(name):
    # the plain bisection takes about 50 per solve on these sequences
    phi = LEVEL_FUNCTIONS[name]
    seqs = random_sequences(200, seed=20260808)
    seqs += [s * w for s in (1e-12, 1e12) for w in seqs]
    for norm, kind in ((orlicz.luxemburg_norm, "evaluate"), (orlicz.orlicz_norm, "psi")):
        calls, level = [], getattr(phi, kind)

        def counted(x):
            calls.append(None)
            return level(x)

        for w in seqs:
            norm(dataclasses.replace(phi, **{kind: counted}), w)
        assert len(calls) <= 15 * len(seqs), kind


EDGE_LEVELS = {
    # weighted sum at most 1/2 at every delta: both return 0
    "never-above-one": (lambda x: np.tanh(x) / x.size, 0.5),
    # sum at least 2 at every delta: both raise
    "never-down-to-one": (lambda x: 2.0 + x, 1.0),
    # unit level at 1e-3 |w|_2, below a tenth of the peak: the shrink loop runs
    "root-below-a-tenth": (np.square, 1e-6),
}


@pytest.mark.parametrize("case", EDGE_LEVELS)
def test_edge_outcomes_of_the_replayed_bracket_are_the_plain_bisections(case):
    f, weight = EDGE_LEVELS[case]
    for w in random_sequences(20, seed=11):
        if case == "never-down-to-one":
            for solve in (luxemburg_scale_bisect, orlicz.luxemburg_scale):
                with pytest.raises(ArithmeticError):
                    solve(f, w, weight)
            continue
        got, want = orlicz.luxemburg_scale(f, w, weight), luxemburg_scale_bisect(f, w, weight)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert got == 0.0 if case == "never-above-one" else 0.0 < got < np.max(w) / 10.0


@pytest.mark.parametrize("phi", [THETA, PHI2], ids=["theta", "phi2"])
def test_norms_of_the_smallest_subnormals_are_finite_and_positive(phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in ([5e-324], [1e-323]):
            for norm in (orlicz.luxemburg_norm, orlicz.orlicz_norm):
                value = norm(phi, w)
                assert math.isfinite(value) and value > 0.0


@pytest.mark.parametrize("phi", [THETA, PHI2], ids=["theta", "phi2"])
def test_norms_of_subnormal_weights_stay_homogeneous(phi):
    # the search runs on the weights scaled by a power of two into the normal
    # range, so only the final rounding to a subnormal separates these norms
    s, w = 1e-312, np.array([1.0, 0.5])
    for norm in (orlicz.luxemburg_norm, orlicz.orlicz_norm):
        assert norm(phi, s * w) == pytest.approx(s * norm(phi, w), rel=1e-9, abs=0.0)


def test_orlicz_norm_zero():
    assert orlicz.orlicz_norm(THETA, [0.0, 0.0]) == 0.0
    assert orlicz.orlicz_norm(THETA, []) == 0.0


def test_orlicz_norm_geometric_band():
    alpha, trunc = 0.9, 400
    v = orlicz.orlicz_norm(THETA, alpha ** np.arange(1, trunc + 1))
    scale = math.sqrt(math.log(1.0 / (1.0 - alpha)))
    assert 0.2 <= v / scale <= 5.0


def test_geometric_rho_ratio_reference_band():
    r0 = orlicz.geometric_rho_ratio(0.5, 100)
    assert r0 == pytest.approx(0.518487, abs=1e-4)
    r99 = orlicz.geometric_rho_ratio(0.99, 100)
    assert max(r99, r0) / min(r99, r0) < 2.0


def test_geometric_rho_ratio_truncation_invariance():
    a = orlicz.geometric_rho_ratio(0.9, 200)
    b = orlicz.geometric_rho_ratio(0.9, 400)
    assert abs(a - b) <= 1e-9


def test_geometric_rho_ratio_domain():
    for bad in (0.49, 1.0, 1.2, -0.5):
        with pytest.raises(ValueError):
            orlicz.geometric_rho_ratio(bad, 100)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
def test_remark_bound_dominates_luxemburg(p):
    rng = np.random.default_rng(17)
    for _ in range(40):
        w = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 30)))
        assert orlicz.luxemburg_norm(THETA, w) <= remark_bound(w, p) + 1e-9


def test_weights_validation():
    with pytest.raises(ValueError):
        orlicz.as_weights([[1.0, 2.0]])
    with pytest.raises(ValueError):
        orlicz.as_weights([1.0, -0.5])
    with pytest.raises(ValueError):
        orlicz.as_weights([np.nan])
