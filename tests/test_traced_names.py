"""The benchmark tracer in ``perfbench/spans.py`` patches besovbm names by
attribute.  Installing it here turns a rename in ``src/`` that would crash a
traced benchmark run into a failing test."""

import importlib.util
import pathlib
from dataclasses import replace

import pytest

from besovbm import harness

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    original = harness.sample_bm
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert harness.sample_bm is not original
    finally:
        tracer.uninstall()
    assert harness.sample_bm is original


# Tiny runs that call every hook the experiments reach, so a hook whose
# signature no longer matches its target fails here, and so does a registry
# record that binds its driver before the tracer patches it.
TRACED_RUNS = {
    "bm-limit": (dict(paths=2, depth=10, scales=(4,)), "besov.increment_norms"),
    "divergence": (dict(paths=2, depth=14), "besov.increment_norms"),
    "moments": (dict(paths=2, depth=10, p_max=8), "besov.integer_p_besov_totals"),
    "tau": (dict(depth=8), "besov.integer_p_besov_totals"),
    "maximal": (dict(mc_samples=200, ensembles=harness.default_ensembles()[8:9]), "maxima.variable_mean"),
    "increment-variance": ({}, "spaces.space_norm"),
}


def test_traced_runs_cover_every_experiment():
    assert set(TRACED_RUNS) == set(harness.EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(TRACED_RUNS))
def test_traced_run_completes(experiment):
    overrides, layer = TRACED_RUNS[experiment]
    cfg = replace(harness.default_config(experiment), **overrides)
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        result = harness.run(cfg)
    finally:
        tracer.uninstall()
    assert result.rows
    names = {span[0] for span in tracer.spans}
    assert {"harness.driver", "spaces.space_norm", layer} <= names
