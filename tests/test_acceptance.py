"""Acceptance gate: one test per quantitative criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Criterion 5 (divergence growth fraction) takes its growth factor from the
linear divergence of a Brownian path's partial q-sums
(``harness.divergence_growth``), halfway between the convergent limit 1 and
the Brownian prediction ``G*``.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from besovbm import besov, harness, orlicz
from besovbm.simulate import RngSeed, gaussian_abs_moment, sample_bm
from besovbm.spaces import finite_lq

from tests.oracles import luxemburg_grid_scan

SEED = 20260808
THETA = orlicz.theta()
PHI2 = orlicz.phi_beta(2.0)


def _report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    return ok


def _sequences():
    rng = np.random.default_rng(SEED)
    return [rng.uniform(0.0, 2.0, size=int(rng.integers(1, 65))) for _ in range(200)]


def test_criterion_01_luxemburg_matches_grid_oracle():
    start = time.perf_counter()
    worst = 0.0
    for w in _sequences():
        worst = max(worst, abs(orlicz.luxemburg_norm(THETA, w) - luxemburg_grid_scan(THETA, w)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert _report(1, ok, f"max |bisection - grid oracle| = {worst:.3e} over 200 sequences "
                          f"({elapsed:.1f}s)")


def test_criterion_02_orlicz_luxemburg_sandwich():
    worst_low, worst_high = 0.0, 0.0
    for w in _sequences():
        for phi in (THETA, PHI2):
            rho = orlicz.luxemburg_norm(phi, w)
            full = orlicz.orlicz_norm(phi, w)
            worst_low = max(worst_low, rho - full)
            worst_high = max(worst_high, full - 2.0 * rho)
    ok = worst_low <= 1e-6 and worst_high <= 1e-6
    assert _report(2, ok, f"rho <= norm <= 2 rho with slacks {worst_low:.2e} / {worst_high:.2e} "
                          f"(Theta and Phi_2, 200 sequences)")


def test_criterion_03_geometric_ratio_band():
    start = time.perf_counter()
    alphas = (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
    ratios = [orlicz.geometric_rho_ratio(a, 100) for a in alphas]
    elapsed = time.perf_counter() - start
    spread = max(ratios) / min(ratios)
    ok = spread < 2.0 and elapsed < 5.0
    assert _report(3, ok, f"rho_Theta((a^n)) / sqrt(log 1/(1-a)) spread = {spread:.3f} "
                          f"over alpha in {alphas} ({elapsed:.1f}s)")


def test_criterion_04_increment_limit_identity():
    start = time.perf_counter()
    refs = {1.0: 0.79788, 2.0: 1.0, 4.0: 1.31607}
    for p, frozen in refs.items():
        assert abs(gaussian_abs_moment(p) - frozen) < 1e-5
    cfg = replace(harness.default_config("bm-limit", SEED), paths=200, scales=(10,),
                  p_list=(1.0, 2.0, 4.0))
    result = harness.run(cfg)
    worst = max(abs(row.ratio - 1.0) for row in result.rows)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 120.0
    assert _report(4, ok, f"200-path mean of 2^(n/2) increment norms at n=10 within "
                          f"{worst:.3%} of the Gaussian moments ({elapsed:.1f}s)")


def test_criterion_05_divergence_growth_fraction():
    cfg = replace(harness.default_config("divergence", SEED), paths=200)
    result = harness.run(cfg)
    frac_row = next(row for row in result.rows if row.params[0] == "growth-fraction")
    mean_row = next(row for row in result.rows if row.params[0] == "mean-growth")
    predicted, factor = harness.divergence_growth(9, 12, 2.0, 2.0)
    assert frac_row.params[1:] == ("n_lo=9", "n_hi=12", f"factor={factor:g}")
    ok = frac_row.estimate >= 0.95
    assert _report(
        5, ok,
        f"fraction of paths with q-sum growth >= {factor:.4f} between caps 9 and 12 is "
        f"{frac_row.estimate:.3f} (mean growth {mean_row.estimate:.3f} against G* = "
        f"{predicted:.4f}); required >= 0.95",
    )


def test_criterion_06_expected_supremum_sandwich():
    start = time.perf_counter()
    cfg = replace(harness.default_config("maximal", SEED), mc_samples=10_000)
    result = harness.run_maximal_experiment(cfg)
    failures = [row.params[0] for row in result.rows if not row.verdict]
    elapsed = time.perf_counter() - start
    ok = len(result.rows) == 10 and not failures and elapsed < 180.0
    assert _report(6, ok, f"10 ensembles inside [max(rho/3, m) - CI, m + 3 rho + CI] "
                          f"(failures: {failures or 'none'}; {elapsed:.1f}s)")


def test_criterion_07_test_functional_and_young_bound():
    discrete, closed = harness.exact_test_functional_moment(finite_lq(1, 2.0), (1.0,), 16, 2)
    moment_ok = abs(closed - 1.0 / 96.0) < 1e-15 and abs(discrete / closed - 1.0) <= 0.02
    cfg = replace(harness.default_config("increment-variance", SEED),
                  scales=(2, 4, 6), p_list=(1.0, 2.0, 4.0))
    result = harness.run(cfg)
    lower_rows = [row for row in result.rows if row.params[2] == "row=net-lower"]
    young_ok = all(row.estimate <= row.reference * (1.0 + 1e-6) for row in lower_rows)
    func_rows = [row for row in result.rows if row.params[2] == "row=test-functional"]
    func_ok = all(abs(row.ratio - 1.0) <= 0.02 for row in func_rows)
    ok = moment_ok and young_ok and func_ok
    assert _report(7, ok, f"window-functional moment {discrete:.6e} vs 1/96 = {1/96:.6e}; "
                          f"net lower bound below the upper value for 9 (c, p) pairs")


def test_criterion_08_small_ball_threshold():
    cfg = replace(harness.default_config("tau", SEED), paths=500, p_list=(1.0, 2.0))
    result = harness.run(cfg)
    mins = {row.params[0]: row.ratio for row in result.rows if row.params[-1] == "kind=min"}
    ok = all(ratio >= 0.9 for ratio in mins.values())
    assert _report(8, ok, f"empirical minimum / c_p over 500 paths: "
                          f"{', '.join(f'{k} -> {v:.3f}' for k, v in sorted(mins.items()))} "
                          f"(required >= 0.9)")


@pytest.fixture(scope="module")
def default_moments():
    """One run of the default ``moments`` config (200 paths) and its seconds.

    Criterion 9 reads it, and criterion 10 takes it as its first ``moments``
    run, so Tier-1 runs that config twice instead of three times.
    """
    cfg = harness.default_config("moments", SEED)
    assert cfg.paths == 200
    start = time.perf_counter()
    result = harness.run(cfg)
    return result, time.perf_counter() - start


def test_criterion_09_moment_ratio_bands(default_moments):
    result, _ = default_moments
    besov_rows = [r for r in result.rows if r.params[-1] == "norm=besov"]
    stab_rows = [r for r in result.rows if r.params[1] == "stability"]
    orl_rows = [r for r in result.rows if r.params[-1] == "norm=besov-orlicz"]
    besov_ok = all(1.0 <= r.ratio <= 6.0 for r in besov_rows)
    stab_ok = all(r.estimate <= 4.0 for r in stab_rows)
    orl_ok = all(1.0 <= r.ratio <= 10.0 for r in orl_rows)
    lo = min(r.ratio for r in besov_rows)
    hi = max(r.ratio for r in besov_rows)
    ok = besov_ok and stab_ok and orl_ok and len(besov_rows) == 16 and len(orl_rows) == 4
    assert _report(9, ok, f"Besov/c_p ratios in [{lo:.2f}, {hi:.2f}] (band [1, 6]), "
                          f"stability <= {max(r.estimate for r in stab_rows):.2f} (cap 4), "
                          f"Orlicz ratios in "
                          f"[{min(r.ratio for r in orl_rows):.2f}, {max(r.ratio for r in orl_rows):.2f}] "
                          f"(band [1, 10])")


def test_criterion_10_full_suite_determinism(tmp_path, default_moments):
    first_moments, moments_s = default_moments
    start = time.perf_counter()
    digests = []
    for run_dir in ("first", "second"):
        blobs = {}
        for experiment in harness.EXPERIMENTS:
            cfg = harness.default_config(experiment, SEED)
            if experiment == "maximal":
                result = harness.run_maximal_experiment(cfg)
                out = harness.emit_maximal_csv(result, tmp_path / run_dir / "maximal.csv")
                blobs["maximal"] = open(out, "rb").read()
            else:
                result = first_moments if (experiment, run_dir) == ("moments", "first") else harness.run(cfg)
                (out,) = harness.emit_report(result, tmp_path / run_dir / experiment, ("csv",))
                blobs[experiment] = open(out, "rb").read()
        digests.append(blobs)
    elapsed = time.perf_counter() - start + moments_s
    identical = all(digests[0][k] == digests[1][k] for k in digests[0])
    ok = identical and elapsed < 600.0
    assert _report(10, ok, f"two full-suite runs produced byte-identical CSVs for "
                           f"{len(digests[0])} experiments in {elapsed:.0f}s total (< 600s)")
