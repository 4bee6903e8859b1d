import dataclasses
import math
import threading
import time
import weakref

import numpy as np
import pytest

from besovbm import maxima
from besovbm.orlicz import luxemburg_norm, theta
from besovbm.simulate import EnsembleSpec, GaussianVarSpec, RngSeed
from besovbm.spaces import finite_lq, truncated_lp

from tests.oracles import MEAN_ABS_NORMAL, MEDIAN_ABS_NORMAL, expected_max_abs_gaussians

RHO_ONE = luxemburg_norm(theta(), [1.0])
SCALAR = finite_lq(1, 2.0)


def scalar_ensemble(sigmas):
    return EnsembleSpec(tuple(GaussianVarSpec(SCALAR, (float(s),)) for s in sigmas))


def test_upper_bound_mean_values():
    assert maxima.upper_bound_mean(0.0, [0.0]) == 0.0
    assert maxima.upper_bound_mean(1.0, [1.0]) == pytest.approx(1.0 + 3.0 * RHO_ONE, abs=1e-9)
    with pytest.raises(ValueError):
        maxima.upper_bound_mean(-0.1, [1.0])


def test_upper_bound_mean_homogeneous():
    sigma = np.array([0.4, 0.9, 0.2])
    a = maxima.upper_bound_mean(2.0 * 1.3, 2.0 * sigma)
    b = 2.0 * maxima.upper_bound_mean(1.3, sigma)
    assert a == pytest.approx(b, rel=1e-7)


def test_upper_bound_median_values():
    assert maxima.upper_bound_median(0.0, [0.0]) == 0.0
    expected = MEDIAN_ABS_NORMAL + 2.0 * RHO_ONE
    assert maxima.upper_bound_median(MEDIAN_ABS_NORMAL, [1.0]) == pytest.approx(expected, abs=1e-9)


def test_lower_bound_values():
    assert maxima.lower_bound(0.0, [0.0]) == 0.0
    assert maxima.lower_bound(2.0, [1.0]) == 2.0  # m dominates rho/3 ~ 0.28
    rho100 = luxemburg_norm(theta(), np.ones(100))
    assert maxima.lower_bound(0.0, np.ones(100)) == pytest.approx(rho100 / 3.0, abs=1e-12)


def test_remark_bound_values():
    assert maxima.remark_bound([3.0, 4.0], 1.0) == pytest.approx(5.0, abs=1e-12)
    assert maxima.remark_bound([0.0, 0.0], 3.0) == 0.0
    with pytest.raises(ValueError):
        maxima.remark_bound([1.0], 0.5)


def test_variable_mean_scalar_analytic():
    spec = GaussianVarSpec(SCALAR, (0.8,))
    assert maxima.variable_mean(spec) == pytest.approx(0.8 * MEAN_ABS_NORMAL, abs=1e-12)
    embedded = GaussianVarSpec(truncated_lp(1.0, 4), (0.0, 1.5, 0.0, 0.0))
    assert maxima.variable_mean(embedded) == pytest.approx(1.5 * MEAN_ABS_NORMAL, abs=1e-12)


def test_variable_mean_vector_needs_seed():
    # l^3 has no closed-form mean; l^2 has one and needs no seed
    with pytest.raises(ValueError):
        maxima.variable_mean(GaussianVarSpec(finite_lq(2, 3.0), (1.0, 1.0)))
    assert maxima.variable_mean(GaussianVarSpec(finite_lq(2, 2.0), (1.0, 1.0))) == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=1e-13
    )


def test_empirical_sup_single_scalar():
    report = maxima.empirical_sup_mean(scalar_ensemble([1.0]), 20_000, RngSeed(41))
    assert abs(report.estimate - MEAN_ABS_NORMAL) <= report.ci_half_width
    assert report.lower_bound == pytest.approx(MEAN_ABS_NORMAL, abs=1e-12)
    assert report.verdict


def test_empirical_sup_all_zero():
    report = maxima.empirical_sup_mean(scalar_ensemble([0.0, 0.0]), 500, RngSeed(42))
    assert report.estimate == 0.0 and report.verdict


def test_empirical_sup_pair_matches_quadrature():
    report = maxima.empirical_sup_mean(scalar_ensemble([1.0, 1.0]), 100_000, RngSeed(43))
    assert abs(report.estimate - expected_max_abs_gaussians(2)) <= report.ci_half_width


def test_empirical_sup_requires_samples():
    with pytest.raises(ValueError):
        maxima.empirical_sup_mean(scalar_ensemble([1.0]), 50, RngSeed(0))


def _sup_pass_with_slow_head(monkeypatch, workers):
    """Run a 16-variable l^2 ensemble whose first mean pass sleeps 20 ms.

    Returns the report and the largest number of sampled norm vectors that
    were alive at once.
    """
    ensemble = EnsembleSpec(tuple(
        GaussianVarSpec(truncated_lp(2.0, 3), (1.0, 0.9**k, 0.5)) for k in range(16)
    ))
    real_mean, real_norms = maxima.variable_mean, maxima.sampled_norms
    lock = threading.Lock()
    alive = [0, 0]  # now, peak

    def release():
        with lock:
            alive[0] -= 1

    def tracked_norms(*args):
        norms = real_norms(*args)
        with lock:
            alive[0] += 1
            alive[1] = max(alive)
        weakref.finalize(norms, release)
        return norms

    def slow_head_mean(spec, seed):
        if spec is ensemble.variables[0]:
            time.sleep(0.02)
        return real_mean(spec, seed)

    monkeypatch.setattr(maxima, "worker_count", lambda: workers)
    monkeypatch.setattr(maxima, "sampled_norms", tracked_norms)
    monkeypatch.setattr(maxima, "variable_mean", slow_head_mean)
    report = maxima.empirical_sup_mean(ensemble, 2_000, RngSeed(45))
    return report, alive[1]


def test_sup_pass_holds_one_norm_vector_per_worker(monkeypatch):
    # a bounded queue of finished tasks would keep their vectors behind the slow head
    _, peak = _sup_pass_with_slow_head(monkeypatch, 2)
    assert 1 <= peak <= 2


def test_sup_pass_report_independent_of_completion_order(monkeypatch):
    reports = [_sup_pass_with_slow_head(monkeypatch, workers)[0] for workers in (1, 2)]
    fields = [[np.float64(v).tobytes() for v in dataclasses.astuple(r)[:4]] + [r.verdict] for r in reports]
    assert fields[0] == fields[1]


def test_estimate_monotone_in_prefix_ensembles():
    # shared streams make prefix suprema pathwise monotone
    sigmas = np.full(64, 1.0)
    estimates = [
        maxima.empirical_sup_mean(scalar_ensemble(sigmas[:k]), 2_000, RngSeed(44)).estimate
        for k in (4, 16, 64)
    ]
    assert estimates[0] <= estimates[1] <= estimates[2]


@pytest.mark.parametrize("log2k", [4, 6, 8, 10])
def test_iid_maximum_tracks_sqrt_log(log2k):
    k = 1 << log2k
    report = maxima.empirical_sup_mean(scalar_ensemble(np.ones(k)), 2_000, RngSeed(45))
    ratio = report.estimate / math.sqrt(2.0 * math.log(k))
    assert 0.7 <= ratio <= 1.3


def test_sandwich_check_example_ensembles():
    cases = [
        scalar_ensemble(np.ones(256)),
        scalar_ensemble(0.9 ** np.arange(1, 201)),
        scalar_ensemble([1.0]),
        EnsembleSpec(tuple(GaussianVarSpec(truncated_lp(math.inf, 4), (1.0, 0.7, 0.5, 0.2))
                           for _ in range(12))),
    ]
    for j, ensemble in enumerate(cases):
        report = maxima.empirical_sup_mean(ensemble, 10_000, RngSeed(46, 1000 * j))
        assert report.verdict
        assert report.lower_bound <= report.upper_bound


def test_median_route_bounds_scalar_family():
    # secondary check: empirical medians feed the M + 2 rho bound
    sigmas = 0.95 ** np.arange(1, 41)
    ensemble = scalar_ensemble(sigmas)
    seed = RngSeed(47)
    report = maxima.empirical_sup_mean(ensemble, 20_000, seed)
    gen = RngSeed(47, 900).generator()
    medians = [
        float(np.median(np.abs(gen.standard_normal(20_000)) * s)) for s in sigmas
    ]
    bound = maxima.upper_bound_median(max(medians), sigmas)
    assert report.estimate <= bound + report.ci_half_width + 0.02


def test_verdict_band_logic():
    report = maxima.EstimateReport(1.0, 0.1, 0.5, 2.0, True)
    assert report.verdict
    assert maxima.upper_bound_mean(0.3, [0.2]) >= maxima.lower_bound(0.3, [0.2])
