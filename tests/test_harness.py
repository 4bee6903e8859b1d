import json
import math
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from besovbm import besov, harness, maxima
from besovbm.besov import BesovParams
from besovbm.orlicz import luxemburg_norm, theta
from besovbm.simulate import NORM_MC_SAMPLES, PathSample, RngSeed, diag_norm_moment, sample_bm
from besovbm.spaces import diag_weak_variance, finite_lq, space_norm, truncated_lp


def small(experiment, **overrides):
    cfg = harness.default_config(experiment)
    return replace(cfg, **overrides)


# positions in the spawn key (experiment, model, role, index) of a draw
LIMIT = list(harness.EXPERIMENTS).index("bm-limit")
PATH = harness.DRAW_ROLES.index("path")


# --- configuration ------------------------------------------------------------


def test_parse_config_text_roundtrip():
    text = """
    # comment line
    experiment.id = bm-limit
    space.kind = truncated_lp
    space.p = inf
    space.dim = 4
    sigma = 1.0, 0.5, 0.25
    depth = 12
    scales = 5,6
    p.list = 1,2
    mc.paths = 40
    rng.seed = 99
    out.format = csv,svg
    """
    cfg = harness.config_from_mapping("bm-limit", harness.parse_config_text(text))
    assert cfg.space == truncated_lp(math.inf, 4)
    assert cfg.sigma == (1.0, 0.5, 0.25)
    assert cfg.depth == 12 and cfg.scales == (5, 6)
    assert cfg.p_list == (1.0, 2.0)
    assert cfg.paths == 40
    assert cfg.seed == RngSeed(99)
    assert cfg.formats == ("csv", "svg")


def test_readme_config_block_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = [part.split("```", 1)[0] for part in readme.split("```ini\n")[1:]]
    cfg = harness.config_from_mapping("bm-limit", harness.parse_config_text(block))
    assert cfg.experiment == "bm-limit"
    assert cfg.space == truncated_lp(math.inf, 4)
    assert cfg.sigma == (1.0, 0.5, 0.25)
    assert cfg.depth == 16 and cfg.scales == (8, 9, 10)
    assert cfg.p_list == (1.0, 2.0, 4.0)
    assert cfg.paths == 200 and cfg.mc_samples == 10_000
    assert cfg.seed == RngSeed(20260808)
    assert cfg.out_path == "reports/limit" and cfg.formats == ("csv", "json-text")


def test_readme_table_rows_have_the_header_cell_count():
    # GitHub splits table cells at every unescaped pipe, even inside a code span
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    header, rows = None, 0
    for line in readme.splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = len(re.split(r"(?<!\\)\|", line.strip())) - 2
        if header is None:
            header = cells
        assert cells == header, line
        rows += 1
    assert rows == 17  # the module table and the flag table


def test_config_rejects_another_experiment_id():
    with pytest.raises(ValueError, match="experiment.id = tau, not bm-limit"):
        harness.config_from_mapping("bm-limit", {"experiment.id": "tau"})


def test_rng_stream_changes_the_draws():
    rows = []
    for stream in ("0", "7"):
        mapping = {"rng.stream": stream, "mc.paths": "5", "scales": "8", "p.list": "2"}
        cfg = harness.config_from_mapping("bm-limit", mapping)
        assert cfg.seed.stream == int(stream)
        rows.append(harness.run(cfg).rows)
    assert rows[0][0].estimate != rows[1][0].estimate


def test_parse_config_rejects_unknown_keys():
    # the text parser checks syntax only; config_from_mapping checks every key
    mapping = harness.parse_config_text("bogus.key = 3")
    assert mapping == {"bogus.key": "3"}
    with pytest.raises(ValueError, match="bm-limit does not read the config keys bogus.key$"):
        harness.config_from_mapping("bm-limit", mapping)
    with pytest.raises(ValueError, match="duplicate"):
        harness.parse_config_text("depth = 4\ndepth = 5")
    with pytest.raises(ValueError, match="expected"):
        harness.parse_config_text("just some words")


# The config keys each experiment reads (besides experiment.id, rng.* and
# out.*), one key standing for each family, and a value each reader accepts.
KEY_VALUES = {
    "space.dim": "2",
    "sigma": "1.0",
    "depth": "12",
    "scales": "4",
    "q": "2",
    "p.list": "2",
    "beta": "2",
    "p.max": "8",
    "mc.paths": "5",
    "mc.samples": "100",
    "ensemble.a.count": "2",
}
KEYS_READ = {
    "bm-limit": {"space.dim", "sigma", "depth", "scales", "p.list", "mc.paths"},
    "divergence": {"space.dim", "sigma", "depth", "q", "p.list", "mc.paths"},
    "moments": {"sigma", "depth", "p.list", "beta", "p.max", "mc.paths"},
    "tau": {"space.dim", "sigma", "depth", "p.list", "mc.paths"},
    "maximal": {"mc.samples", "ensemble.a.count"},
    "increment-variance": {"space.dim", "sigma", "depth", "scales", "p.list"},
}
# Keys no experiment reads: an unknown space key, an unknown ensemble subkey
# and an ensemble group without a subkey (which used to add a default group).
UNKNOWN_KEYS = {"space.bogus": "3", "ensemble.a.bogus": "3", "ensemble.a": "3", "rng.bogus": "3"}


@pytest.mark.parametrize("experiment", sorted(KEYS_READ))
def test_config_accepts_only_keys_the_experiment_reads(experiment):
    common = {"rng.seed": "3", "rng.stream": "1", "out.path": "x", "out.format": "csv"}
    read = {key: KEY_VALUES[key] for key in KEYS_READ[experiment]}
    harness.config_from_mapping(experiment, {**common, **read, "experiment.id": experiment})
    for key in sorted(set(KEY_VALUES) - KEYS_READ[experiment]):
        with pytest.raises(ValueError, match=f"does not read the config keys {key}$"):
            harness.config_from_mapping(experiment, {**read, key: KEY_VALUES[key]})
    for key, value in UNKNOWN_KEYS.items():
        with pytest.raises(ValueError, match=f"^{experiment} does not read the config keys {key}$"):
            harness.config_from_mapping(experiment, {**read, key: value})


def test_p_list_parses_exponents_like_q():
    cfg = harness.config_from_mapping("increment-variance", {"p.list": "1, 2.5, 1e1, oo, inf, Infinity"})
    assert cfg.p_list == (1.0, 2.5, 10.0, math.inf, math.inf, math.inf)


def test_parse_ensemble_groups():
    text = """
    ensemble.a.space.kind = truncated_lp
    ensemble.a.space.p = 2
    ensemble.a.space.dim = 3
    ensemble.a.sigma = 0.5,0.25,0.1
    ensemble.a.count = 7
    ensemble.a.decay = 0.9
    ensemble.b.sigma = 1.0
    ensemble.b.count = 3
    """
    mapping = harness.parse_config_text(text)
    configs = harness.ensembles_from_mapping(mapping)
    assert [c.config_id for c in configs] == ["a", "b"]
    assert harness.config_from_mapping("maximal", mapping).ensembles == configs
    spec = configs[0].build()
    assert len(spec.variables) == 7
    assert spec.variables[1].sigma == pytest.approx((0.45, 0.225, 0.09))
    assert configs[1].build().variables[0].space.dim == 1


def test_space_kind_is_a_checked_label():
    # every space is l^p on dim coordinates: either kind, at top level or in
    # an ensemble group, gives the config without the key
    flat = {"space.p": "1", "space.dim": "3"}
    group = {"ensemble.a.space.p": "inf", "ensemble.a.space.dim": "2", "ensemble.a.sigma": "1,1"}
    for kind in ("finite_lq", "truncated_lp"):
        with_kind = {**flat, "space.kind": kind}
        assert harness.config_from_mapping("bm-limit", with_kind) == harness.config_from_mapping("bm-limit", flat)
        with_kind = {**group, "ensemble.a.space.kind": kind}
        assert harness.config_from_mapping("maximal", with_kind) == harness.config_from_mapping("maximal", group)
    for experiment, key in (("bm-limit", "space.kind"), ("maximal", "ensemble.a.space.kind")):
        with pytest.raises(ValueError, match="unknown space kind 'bogus'"):
            harness.config_from_mapping(experiment, {key: "bogus"})


@pytest.mark.parametrize("experiment", list(harness.EXPERIMENTS))
def test_registry_is_the_only_source_of_defaults(experiment):
    assert harness.config_from_mapping(experiment, {}) == harness.default_config(experiment)


def test_maximal_defaults_to_the_stock_ensembles():
    assert harness.default_config("maximal").ensembles == harness.default_ensembles()
    mapping = {"ensemble.a.count": "2"}
    assert [e.config_id for e in harness.config_from_mapping("maximal", mapping).ensembles] == ["a"]


def test_default_config_unknown_experiment():
    with pytest.raises(ValueError):
        harness.default_config("nope")


def test_scales_validated_against_depth():
    cfg = small("bm-limit", depth=10, scales=(8,), paths=5)
    with pytest.raises(ValueError, match="trusted range"):
        harness.run(cfg)


# --- bm-limit ------------------------------------------------------------------


def test_limit_experiment_rows_and_verdicts():
    cfg = small("bm-limit", paths=80, scales=(9, 10), p_list=(1.0, 2.0))
    result = harness.run(cfg)
    assert result.experiment == "bm-limit"
    assert len(result.rows) == 4
    assert result.all_pass()
    by_params = {row.params[:2]: row for row in result.rows}
    assert by_params[("n=10", "p=2")].reference == pytest.approx(1.0)
    assert by_params[("n=10", "p=1")].reference == pytest.approx(math.sqrt(2.0 / math.pi))


def test_limit_experiment_zero_sigma():
    cfg = small("bm-limit", sigma=(0.0,), paths=5, scales=(8,), p_list=(2.0,))
    result = harness.run(cfg)
    row = result.rows[0]
    assert row.estimate == 0.0 and row.reference == 0.0 and row.verdict


def test_limit_matches_besov_per_scale_on_same_stream():
    cfg = small("bm-limit", paths=3, scales=(10,), p_list=(2.0,))
    result = harness.run(cfg)
    ys = []
    for i in range(cfg.paths):
        path = sample_bm(cfg.space, cfg.sigma, cfg.depth, cfg.seed.child(LIMIT, 0, PATH, i))
        report = besov.besov_norm(path, BesovParams(0.5, 2.0, math.inf, 10))
        ys.append(dict(report.per_scale)[10])
    assert result.rows[0].estimate == pytest.approx(float(np.mean(ys)), rel=1e-12)


# --- divergence ------------------------------------------------------------------


def test_divergence_requires_finite_q():
    with pytest.raises(ValueError):
        harness.run(small("divergence", q=math.inf))


def test_divergence_partial_sums_grow():
    cfg = small("divergence", paths=40)
    result = harness.run(cfg)
    means = [row.estimate for row in result.rows if row.params[0].startswith("n_max=")]
    assert all(a <= b for a, b in zip(means, means[1:]))
    growth = next(row for row in result.rows if row.params[0] == "mean-growth")
    assert growth.estimate > 1.25
    fraction = next(row for row in result.rows if row.params[0] == "growth-fraction")
    assert 0.0 <= fraction.estimate <= 1.0
    predicted, factor = harness.divergence_growth(9, 12, 2.0, 2.0)
    assert fraction.params[3] == f"factor={factor:g}"
    assert growth.reference == predicted
    assert growth.ratio == pytest.approx(growth.estimate / predicted, rel=1e-12)


def test_divergence_fraction_ci_is_wilson():
    # every path passes at this seed; the Wilson half-width stays honest at 1
    result = harness.run(small("divergence", paths=50))
    fraction = next(row for row in result.rows if row.params[0] == "growth-fraction")
    assert fraction.estimate == 1.0
    assert fraction.ci == pytest.approx(0.035675, abs=1e-6)
    assert harness._wilson_half_width(1.0, 50) == fraction.ci
    assert harness._wilson_half_width(0.0, 50) == fraction.ci
    # the interior agrees with the closed form around the Wilson centre
    z, n, f = 1.96, 40, 0.25
    centre = (f + z * z / (2 * n)) / (1 + z * z / n)
    lo = centre - harness._wilson_half_width(f, n)
    hi = centre + harness._wilson_half_width(f, n)
    assert (n * f - n * lo) ** 2 == pytest.approx(z * z * n * lo * (1 - lo), rel=1e-9)
    assert (n * hi - n * f) ** 2 == pytest.approx(z * z * n * hi * (1 - hi), rel=1e-9)


def test_divergence_rejects_more_than_one_exponent():
    # the probe runs one exponent, so a longer p.list is an error
    with pytest.raises(ValueError, match="one exponent"):
        harness.run(small("divergence", paths=1, depth=14, p_list=(1.0, 2.0, 4.0)))


def test_divergence_single_path_ci_finite():
    result = harness.run(small("divergence", paths=1, depth=14, seed=RngSeed(3)))
    assert all(math.isfinite(row.ci) for row in result.rows)


def test_divergence_growth_prediction():
    # linear growth of the partial sums: G* = 11/8 up to the (1 - 2^-n) window
    predicted, factor = harness.divergence_growth(9, 12, 2.0, 2.0)
    assert predicted == pytest.approx(1.3747, abs=1e-4)
    assert factor == pytest.approx(1.0 + (predicted - 1.0) / 2.0)
    # unweighted terms (p = inf) grow exactly by the ratio of the caps
    assert harness.divergence_growth(9, 12, math.inf, 2.0)[0] == pytest.approx(12 / 9)


@pytest.mark.parametrize(
    "shape",
    [lambda t: t, lambda t: np.sin(2.0 * np.pi * t), lambda t: t**0.75],
    ids=["linear", "sine", "power-3/4"],
)
def test_divergence_factor_rejects_smooth_paths(shape):
    # a convergent q-sum has stopped growing between the caps, so a smooth
    # path stays below the factor that a Brownian path reaches
    depth, n_lo, n_hi, p, q = 18, 9, 12, 2.0, 2.0
    t = np.arange((1 << depth) + 1) / (1 << depth)
    path = PathSample(finite_lq(1, 2.0), depth, shape(t)[:, None])
    terms = besov.scale_terms(path, 0.5, range(1, n_hi + 1), [p])[:, 0]
    sums = np.cumsum(terms**q)
    _, factor = harness.divergence_growth(n_lo, n_hi, p, q)
    assert sums[n_hi - 1] / sums[n_lo - 1] < factor


def test_harness_uses_only_public_besov_names():
    # the drivers call besov's public kernels (scale_terms, integer_p_besov_totals)
    source = Path(harness.__file__).read_text(encoding="utf-8")
    assert "besov._" not in source


# --- moments ----------------------------------------------------------------------


def test_moment_experiment_bands_small_profile():
    cfg = small("moments", paths=25)
    result = harness.run(cfg)
    assert result.all_pass()
    labels = {row.params[0] for row in result.rows}
    assert labels == {"scalar", "l2", "l1", "linf"}
    for row in result.rows:
        if row.params[-1] == "norm=besov":
            assert 1.0 <= row.ratio <= 6.0


def test_moment_experiment_keeps_one_element_sigma():
    cfg = small("moments", sigma=(2.0,), depth=8, paths=2, p_list=(1.0, 2.0), p_max=8)
    refs = {row.params[:2]: row.reference for row in harness.run(cfg).rows}
    for label in ("l2", "l1", "linf"):
        assert refs[label, "p=1"] == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
        assert refs[label, "p=2"] == pytest.approx(2.0, rel=1e-12)


def test_moment_experiment_rejects_p_max_below_8():
    # the Orlicz--Besov sup needs p_max >= 8, as besov_orlicz_norm does
    with pytest.raises(ValueError, match="p_max must be at least 8"):
        harness.run(small("moments", depth=8, paths=2, p_list=(1.0, 2.0), p_max=4))


def test_moment_experiment_rejects_fractional_p():
    with pytest.raises(ValueError):
        harness.run(small("moments", p_list=(1.5,)))


def test_moment_experiment_zero_sigma_vector_rows():
    cfg = small("moments", sigma=(0.0, 0.0), depth=12, paths=10, p_list=(1.0, 2.0))
    result = harness.run(cfg)
    for row in result.rows:
        if row.params[0] in ("l2", "l1", "linf") and row.params[1] != "stability":
            assert row.estimate == 0.0 and row.reference == 0.0 and row.verdict


# --- tau ---------------------------------------------------------------------------


def test_tau_experiment_minimum_and_control():
    cfg = small("tau", depth=12, paths=500)
    result = harness.run(cfg)
    assert result.all_pass()
    mins = [row for row in result.rows if row.params[-1] == "kind=min"]
    controls = [row for row in result.rows if "kind=control" in row.params]
    assert all(row.ratio >= 0.9 for row in mins)
    assert all(row.estimate == 0.0 and row.verdict for row in controls)


def test_tau_requires_500_paths():
    with pytest.raises(ValueError):
        harness.run(small("tau", paths=100))


# --- increment variance ---------------------------------------------------------


def test_discrete_increment_variance_converges_to_two_thirds():
    for depth, j in [(8, 2), (12, 2), (16, 4)]:
        c = 2.0**-j
        value = harness.discrete_increment_integral_variance(depth, j)
        m = 1 << (depth - j)
        expected = c**3 * (2.0 / 3.0 + 1.0 / (3.0 * m * m))
        assert value == pytest.approx(expected, rel=1e-12)


def test_exact_test_functional_moment_scalar_quarter():
    discrete, closed = harness.exact_test_functional_moment(
        harness.finite_lq(1, 2.0), (1.0,), 16, 2
    )
    assert closed == pytest.approx(1.0 / 96.0, rel=1e-12)
    assert abs(discrete / closed - 1.0) < 0.02


def test_increment_variance_rows_scalar():
    result = harness.run(small("increment-variance"))
    assert result.all_pass()
    kinds = {row.params[2] for row in result.rows}
    assert kinds == {"row=test-functional", "row=net-lower", "row=young-upper"}
    for row in result.rows:
        if row.params[2] == "row=net-lower":
            assert row.estimate <= row.reference * (1.0 + 1e-6)


def test_increment_variance_vector_space():
    cfg = small(
        "increment-variance",
        space=truncated_lp(1.0, 3),
        sigma=(0.8, 0.5, 0.2),
        scales=(2, 4),
        p_list=(1.0, 2.0),
    )
    result = harness.run(cfg)
    assert result.all_pass()


def test_increment_variance_zero_sigma():
    result = harness.run(small("increment-variance", sigma=(0.0,), scales=(2,), p_list=(2.0,)))
    assert result.all_pass()
    assert all(row.estimate == 0.0 for row in result.rows)


def test_increment_variance_misaligned_lag():
    with pytest.raises(ValueError):
        harness.run(small("increment-variance", depth=4, scales=(6,)))


# --- maximal -------------------------------------------------------------------


def test_maximal_experiment_default_ensembles_pass():
    cfg = small("maximal", mc_samples=2_000)
    result = harness.run_maximal_experiment(cfg)
    assert len(result.rows) == 10
    assert all(row.verdict for row in result.rows)


def test_maximal_rejects_empty_ensembles(monkeypatch):
    # an empty tuple used to give zero rows and "all verdicts pass"
    monkeypatch.setattr(harness, "empirical_sup_mean", lambda *args: pytest.fail("ran an ensemble"))
    with pytest.raises(ValueError, match="ensembles is empty: maximal needs at least one ensemble"):
        harness.run(replace(harness.default_config("maximal"), ensembles=()))


# --- reports --------------------------------------------------------------------


def test_emit_report_formats_and_determinism(tmp_path):
    cfg = small("bm-limit", paths=10, scales=(8,), p_list=(2.0,))
    result = harness.run(cfg)
    base_a, base_b = tmp_path / "a" / "report", tmp_path / "b" / "report"
    paths_a = harness.emit_report(result, base_a, ("csv", "json-text", "svg"))
    result_again = harness.run(cfg)
    paths_b = harness.emit_report(result_again, base_b, ("csv", "json-text", "svg"))
    for pa, pb in zip(paths_a, paths_b):
        assert open(pa, "rb").read() == open(pb, "rb").read()
    csv_text = open(paths_a[0], "r", encoding="utf-8").read()
    assert csv_text.splitlines()[0] == harness.CSV_HEADER
    assert ",pass" in csv_text or ",fail" in csv_text


def test_emit_report_empty_result(tmp_path):
    result = harness.ExperimentResult("bm-limit", ())
    (csv_path,) = harness.emit_report(result, tmp_path / "empty", ("csv",))
    assert open(csv_path, "r", encoding="utf-8").read() == harness.CSV_HEADER + "\n"


def test_emit_report_unknown_format(tmp_path):
    result = harness.ExperimentResult("bm-limit", ())
    with pytest.raises(ValueError):
        harness.emit_report(result, tmp_path / "x", ("parquet",))


def test_emit_maximal_csv(tmp_path):
    cfg = small("maximal", mc_samples=500, ensembles=harness.default_ensembles()[:2])
    result = harness.run_maximal_experiment(cfg)
    out = harness.emit_maximal_csv(result, tmp_path / "maximal.csv")
    lines = open(out, "r", encoding="utf-8").read().splitlines()
    assert lines[0] == harness.MAXIMAL_CSV_HEADER
    assert len(lines) == 3 and lines[1].startswith("c01-")


def test_svg_output_is_deterministic(tmp_path):
    cfg = small("bm-limit", paths=8, scales=(8, 9), p_list=(2.0,))
    blobs = []
    for run_dir in ("r1", "r2"):
        result = harness.run(cfg)
        (svg,) = harness.emit_report(result, tmp_path / run_dir / "plot", ("svg",))
        blobs.append(open(svg, "rb").read())
    assert blobs[0] == blobs[1]
    assert blobs[0].startswith(b"<svg")


# --- reference moments and the per-path pool -------------------------------------


def _one_shot_moments(space, sigma, seed, p_values):
    """The Monte Carlo moments from the whole 1e5 x dim batch in one draw."""
    g = seed.generator().standard_normal((NORM_MC_SAMPLES, space.dim))
    norms = space_norm(space, g * np.asarray(sigma))
    return {p: float(np.mean(norms**p) ** (1.0 / p)) for p in p_values}


# exponents without a closed-form moment, so every reference is drawn
@pytest.mark.parametrize("space", [truncated_lp(3.0, 3), truncated_lp(1.5, 16), truncated_lp(4.0, 17)])
def test_reference_moments_match_one_shot_draw(space):
    sigma = tuple(0.7 ** np.arange(space.dim))
    seed = RngSeed(3, 500_001)
    want = _one_shot_moments(space, sigma, seed, (1.0, 2.0, 4.0, 8.0))
    assert harness._reference_moments(space, sigma, (1, 2, 4, 8), seed) == want


def test_reference_moments_draw_only_the_missing_exponents(monkeypatch):
    space, sigma, seed = truncated_lp(2.0, 3), (1.0, 0.7, 0.49), RngSeed(3, 500_002)
    # l^2 has no closed form at odd p > 1: only p = 3 comes from the draw
    refs = harness._reference_moments(space, sigma, (1, 2, 3, 4), seed)
    assert list(refs) == [1.0, 2.0, 3.0, 4.0]
    assert refs[3.0] == _one_shot_moments(space, sigma, seed, (3.0,))[3.0]
    for p in (1.0, 2.0, 4.0):
        assert refs[p] == diag_norm_moment(space, sigma, p)

    def no_draws(*args):
        raise AssertionError("an exact reference drew samples")

    monkeypatch.setattr(harness, "sampled_norms", no_draws)
    assert harness._reference_moments(space, sigma, (1, 2, 4), seed) == {p: refs[p] for p in (1.0, 2.0, 4.0)}


def _bounded(fn, seconds=120.0):
    """Run ``fn`` in a thread with a deadline and a short switch interval."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # handed to the caller below
            out["error"] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(seconds)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), f"did not finish within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_moments_report_independent_of_worker_count(tmp_path, monkeypatch):
    cfg = small("moments", paths=4, depth=12)
    reports = []
    for workers in (1, 3):  # serial, and more threads than a two-core machine has
        monkeypatch.setattr(harness, "worker_count", lambda: workers)
        result = _bounded(lambda: harness.run(cfg))
        (path,) = harness.emit_report(result, tmp_path / f"moments-{workers}")
        with open(path, "rb") as handle:
            reports.append(handle.read())
    assert reports[0] == reports[1]


def test_moments_path_task_error_reaches_caller(monkeypatch):
    real = harness.integer_p_besov_totals

    def failing(path, *args):
        if math.isinf(path.space.exponent):
            raise RuntimeError("injected path failure")
        return real(path, *args)

    monkeypatch.setattr(harness, "integer_p_besov_totals", failing)
    monkeypatch.setattr(harness, "worker_count", lambda: 3)
    with pytest.raises(RuntimeError, match="injected path failure"):
        _bounded(lambda: harness.run(small("moments", paths=4, depth=12)))


# c04 scalar, c06 l^1, c08 l^2 and c09 l^inf: every mean exact
SMALL_ENSEMBLES = tuple(harness.default_ensembles()[k] for k in (3, 5, 7, 8))


def test_maximal_report_independent_of_worker_count(tmp_path, monkeypatch):
    cfg = small("maximal", mc_samples=2_000, ensembles=SMALL_ENSEMBLES)
    reports = []
    for workers in (1, 3):  # serial, and more threads than a two-core machine has
        monkeypatch.setattr(maxima, "worker_count", lambda: workers)
        result = _bounded(lambda: harness.run(cfg))
        (path,) = harness.emit_report(result, tmp_path / f"maximal-{workers}")
        with open(path, "rb") as handle:
            reports.append(handle.read())
    assert reports[0] == reports[1]


def test_maximal_keys_never_repeat(monkeypatch):
    # 1000 variables used to reach the next ensemble's integer stream
    keys = []

    def norms(space, sigma, samples, seed):
        keys.append((seed.stream, *seed.key))
        return np.zeros(samples)

    def mean(spec, seed, samples):
        keys.append((seed.stream, *seed.key))
        return 1.0

    monkeypatch.setattr(maxima, "sampled_norms", norms)
    monkeypatch.setattr(maxima, "mean_norm_mc", mean)
    space = truncated_lp(3.0, 2)  # no closed-form mean: every variable draws a mean pass
    ensembles = (harness.EnsembleConfig("many", space, (1.0, 0.5), 1000),
                 harness.EnsembleConfig("next", space, (1.0, 0.5), 3))
    harness.run_maximal_experiment(small("maximal", mc_samples=100, ensembles=ensembles))
    assert len(keys) == 2 * 1003
    assert len(set(keys)) == len(keys)


def test_maximal_lower_bounds_are_exact():
    # every default ensemble has a closed-form mean, so no row's lower bound carries Monte Carlo noise
    result = harness.run(harness.default_config("maximal", 3))
    for econf, row in zip(harness.default_ensembles(), result.rows):
        variables = econf.build().variables
        m = max(diag_norm_moment(var.space, var.sigma, 1) for var in variables)
        sigmas = [diag_weak_variance(var.space.exponent, var.sigma) for var in variables]  # sigma fills dim
        assert row.lower == max(m, luxemburg_norm(theta(), sigmas) / 3.0), row.params
        assert row.lower - row.ci <= row.estimate <= row.reference + row.ci, row.params


def test_maximal_json_recomputes_verdicts(tmp_path):
    result = harness.run_maximal_experiment(small("maximal", mc_samples=500, ensembles=SMALL_ENSEMBLES))
    below = harness.ResultRow(("below",), 0.5, 0.01, 2.0, False, lower=1.0)  # under its lower bound
    result = replace(result, rows=result.rows + (below,))
    (path,) = harness.emit_report(result, tmp_path / "maximal", ("json-text",))
    with open(path, "r", encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    for row in rows:
        lower, upper, ci, tol = row["lower"], row["reference"], row["ci"], maxima.VERDICT_TOL
        recomputed = lower - ci - tol <= row["estimate"] <= upper + ci + tol
        assert ("pass" if recomputed else "fail") == row["verdict"]
    assert rows[-1]["verdict"] == "fail"


def test_maximal_mean_pass_error_reaches_caller(monkeypatch):
    # l^3 has no closed-form mean, so its variables run the Monte Carlo mean pass
    l3 = harness.EnsembleConfig("l3-geo-8", truncated_lp(3.0, 4), (1.0, 0.7, 0.5, 0.3), 8)

    def failing(spec, seed, samples):
        raise RuntimeError("injected mean pass failure")

    monkeypatch.setattr(maxima, "mean_norm_mc", failing)
    monkeypatch.setattr(maxima, "worker_count", lambda: 3)
    ensembles = SMALL_ENSEMBLES + (l3,)
    with pytest.raises(RuntimeError, match="injected mean pass failure"):
        _bounded(lambda: harness.run(small("maximal", mc_samples=2_000, ensembles=ensembles)))


# --- the per-path driver ----------------------------------------------------------

MODELS = ((finite_lq(1, 2.0), (1.0,)), (truncated_lp(2.0, 3), (1.0, 0.5, 0.25)))


def test_map_paths_stream_layout():
    cfg = small("bm-limit", paths=3, depth=10)

    def statistic(path):
        return besov.dyadic_increment_lp(path, 4, 2.0)

    got = harness.map_paths(cfg, MODELS, statistic)
    for s, (space, sigma) in enumerate(MODELS):
        seeds = [cfg.seed.child(LIMIT, s, PATH, i) for i in range(cfg.paths)]
        assert got[s] == [statistic(sample_bm(space, sigma, cfg.depth, seed)) for seed in seeds]


def test_map_paths_independent_of_worker_count():
    cfg = small("bm-limit", paths=6, depth=12)

    def statistic(path):
        return besov._increment_norms(path, 5)

    serial, pooled = (
        _bounded(lambda: harness.map_paths(cfg, MODELS, statistic, workers=workers)) for workers in (1, 3)
    )
    assert np.array_equal(np.array(serial), np.array(pooled))


def test_map_paths_serial_error_reaches_caller():
    def failing(path):
        raise RuntimeError("injected path failure")

    with pytest.raises(RuntimeError, match="injected path failure"):
        harness.map_paths(small("bm-limit", paths=2, depth=8), MODELS, failing)
