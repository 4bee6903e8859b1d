"""The benchmark tracer in ``perfbench/spans.py`` patches besovbm names by
attribute.  Installing it here turns a rename in ``src/`` that would crash a
traced benchmark run into a failing test."""

import importlib.util
import pathlib

from besovbm import harness

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = harness.sample_bm
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert harness.sample_bm is not original
    finally:
        tracer.uninstall()
    assert harness.sample_bm is original
