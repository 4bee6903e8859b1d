"""Layer tracing from outside the library.

:func:`install` replaces the module-level names that besovbm callers resolve
at call time (``harness.sample_bm``, ``besov.integer_p_lp_norms``,
``besov.space_norm``, ...) with wrappers that record one span per call:
``(name, start, end, parent)``, kept in memory and written out at the end.
Work counters (computed bytes, multiplies, normal draws, Young-function
evaluations) are recorded at the same boundaries.  Nothing inside
``src/besovbm`` changes; :meth:`Tracer.uninstall` restores every name.

A layer's self time is its span's duration minus the durations of its
direct child spans, so the self times of all spans in a round add up to the
duration of the round's root spans.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

HARNESS_DRIVERS = (
    "run_limit_experiment",
    "run_divergence_experiment",
    "run_moment_experiment",
    "run_tau_experiment",
    "run_increment_variance_experiment",
    "run_maximal_experiment",
)


class Tracer:
    """Spans and work counters for the rounds of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.rounds = []  # (first span, end span, counter delta, wall seconds)
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                counts.update(before(*args, **kwargs))
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                counts.update(after(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, before):
        counts = self.counts

        def counted(*args, **kwargs):
            counts.update(before(*args, **kwargs))
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _counting_factory(self, factory):
        """Young-function factory whose ``evaluate`` counts its calls."""
        counts = self.counts

        def make(*args, **kwargs):
            phi = factory(*args, **kwargs)
            evaluate = phi.evaluate

            def counted(x):
                counts["orlicz.evaluate.calls"] += 1
                return evaluate(x)

            return dataclasses.replace(phi, evaluate=counted)

        make.__wrapped__ = factory
        return make

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def span(self, module, attr, name, before=None, after=None):
        self._patch(module, attr, self._wrap(name, getattr(module, attr), before, after))

    def count(self, module, attr, before):
        self._patch(module, attr, self._counted(getattr(module, attr), before))

    def count_evaluations(self, module, attr):
        self._patch(module, attr, self._counting_factory(getattr(module, attr)))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def round(self):
        """Mark the spans and counts of one round; records its wall time."""
        first, counts_before = len(self.spans), Counter(self.counts)
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        delta = Counter(self.counts)
        delta.subtract(counts_before)
        self.rounds.append((first, len(self.spans), delta, wall))

    def round_stats(self):
        """Per round: calls and self seconds per span name, plus the counters.

        Also ``trace.accounted_frac``, the summed self time of every span in
        the round over the round's wall time.
        """
        out = []
        for first, end, delta, wall in self.rounds:
            child = Counter()
            for name, start, stop, parent in self.spans[first:end]:
                if parent >= first:
                    child[parent] += stop - start
            stats = Counter()
            for index in range(first, end):
                name, start, stop, _ = self.spans[index]
                self_s = (stop - start) - child[index]
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += self_s
                stats["trace.accounted_frac"] += self_s / wall
            stats.update(delta)
            out.append(stats)
        return out

    def median_stats(self, keys):
        per_round = self.round_stats()
        return {key: statistics.median(stats.get(key, 0.0) for stats in per_round) for key in keys}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _sample_bm_mb(space, sigma, depth, seed):
    # increments (2^N x dim) plus path values ((2^N + 1) x dim), float64
    return {"simulate.sample_bm.mb_computed": (2 * (1 << depth) + 1) * space.dim * 8 / 1e6}


def _space_norm_elements(space, v):
    return {"spaces.space_norm.elements": int(np.size(v))}


def _power_sum_mults(norms, weight, p_max):
    # one multiply per element per power in the running-power loop
    return {"besov.integer_p_lp_norms.mults_computed": int(norms.size) * int(p_max)}


def _sup_pass_draws(ensemble, samples, seed):
    return {"maxima.normal_draws_computed": int(samples) * sum(v.space.dim for v in ensemble.variables)}


def _mean_pass_draws(default_samples):
    def draws(spec, seed, samples=default_samples):
        return {"maxima.normal_draws_computed": int(samples) * spec.space.dim}

    return draws


def _bytes_written(result):
    paths = [result] if isinstance(result, str) else result
    return {"harness.emit.bytes": sum(os.path.getsize(p) for p in paths)}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of besovbm with ``tracer``."""
    from besovbm import besov, cli, harness, maxima, orlicz, simulate, spaces

    for module in (harness, cli):
        tracer.span(module, "sample_bm", "simulate.sample_bm", before=_sample_bm_mb)
    for module in (besov, simulate, maxima, spaces):
        tracer.span(module, "space_norm", "spaces.space_norm", before=_space_norm_elements)
    tracer.span(besov, "integer_p_lp_norms", "besov.integer_p_lp_norms", before=_power_sum_mults)
    for module in (besov, harness):
        tracer.span(module, "integer_p_besov_totals", "besov.integer_p_besov_totals")
    tracer.span(besov, "_increment_norms", "besov.increment_norms")
    tracer.span(besov, "dyadic_increment_lp", "besov.dyadic_increment_lp")
    for module in (harness, maxima):
        tracer.span(module, "empirical_sup_mean", "maxima.empirical_sup_mean", before=_sup_pass_draws)
    tracer.span(maxima, "variable_mean", "maxima.variable_mean")
    samples = inspect.signature(maxima.mean_norm_mc).parameters["samples"].default
    tracer.count(maxima, "mean_norm_mc", _mean_pass_draws(samples))
    for module in (orlicz, maxima):
        tracer.span(module, "luxemburg_norm", "orlicz.luxemburg_norm")
    tracer.span(orlicz, "orlicz_norm", "orlicz.orlicz_norm")
    for module, attr in ((orlicz, "theta"), (orlicz, "phi_beta"), (maxima, "theta")):
        tracer.count_evaluations(module, attr)
    for attr in HARNESS_DRIVERS:
        tracer.span(harness, attr, "harness.driver")
    for attr in ("emit_report", "emit_maximal_csv"):
        tracer.span(harness, attr, "harness.emit", after=_bytes_written)
    tracer.span(cli, "main", "cli.main")
