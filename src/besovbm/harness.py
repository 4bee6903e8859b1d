"""Experiment drivers: desk-scale statistical checks of the norm machinery.

Each driver consumes an :class:`ExperimentConfig` and returns an
:class:`ExperimentResult` whose rows carry (params, estimate, ci, reference,
verdict), and ``maximal`` rows also carry the lower bound of the sandwich.
A row's ratio is derived from its estimate and reference, never stored.
Every verdict is recomputable from the emitted numbers alone.  Reports are
written as CSV (fixed header), a structured-text (JSON) mirror, and an
optional SVG plot.  Full determinism: identical configs,
including the seed, give byte-identical report files.

Each experiment is one :class:`Experiment` record in :data:`EXPERIMENTS`;
the defaults, the dispatch, the config-key check and the CLI all read it.

The path experiments (bm-limit, divergence, moments, tau) sample their
paths and take a per-path statistic through one driver, :func:`map_paths`,
and trust scales up to the one cap of :func:`_trusted_n_max`, ``depth - 6``.
Every draw takes its seed from :func:`_draw_seed`, a child of the config's
seed keyed by (experiment, model, role, index), so no two draws share
randomness and the partition of work across workers cannot change a result.

Two stages run on a thread pool of :func:`worker_count` threads: the paths
of the moment experiment (see :func:`run_moment_experiment`), returned in
path order, and the per-variable passes of the maximal experiment (see
:func:`besovbm.maxima.empirical_sup_mean`), whose folds are exact in any
order.  So no report depends on the number of workers.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import besov
from .besov import integer_p_besov_totals
from .maxima import empirical_sup_mean
from .simulate import (
    GaussianVarSpec,
    EnsembleSpec,
    NORM_MC_SAMPLES,
    PathSample,
    RngSeed,
    diag_norm_moment,
    mean_ci,
    sample_bm,
    sampled_norms,
    worker_count,
)
from .spaces import (
    SpaceSpec,
    dual_exponent,
    dual_net,
    finite_lq,
    iw_norm,
    padded_weights,
    parse_exponent,
    truncated_lp,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ResultRow",
    "EnsembleConfig",
    "default_config",
    "default_ensembles",
    "parse_config_file",
    "parse_config_text",
    "config_from_mapping",
    "ensembles_from_mapping",
    "run",
    "map_paths",
    "run_limit_experiment",
    "run_divergence_experiment",
    "divergence_growth",
    "run_moment_experiment",
    "run_tau_experiment",
    "run_increment_variance_experiment",
    "run_maximal_experiment",
    "exact_test_functional_moment",
    "emit_report",
    "emit_maximal_csv",
    "Experiment",
    "EXPERIMENTS",
]

DEFAULT_SEED = 20260808

# Verdict tolerances, frozen with the acceptance bands.
LIMIT_RTOL = 0.02
# The divergence threshold sits this share of the way from the convergent
# limit 1 to the linear-divergence prediction (see ``divergence_growth``).
GROWTH_SHARE = 0.5
GROWTH_FRACTION = 0.95
TAU_SLACK = 0.9
TEST_FUNCTIONAL_RTOL = 0.02
YOUNG_TOL = 1e-6
BESOV_RATIO_BAND = (1.0, 6.0)
BESOV_STABILITY_MAX = 4.0
ORLICZ_RATIO_BAND = (1.0, 10.0)

# What a draw is for.  A draw's key holds the positions of its experiment in
# EXPERIMENTS and of its role here, so appending to either keeps every
# existing key.
DRAW_ROLES = ("path", "reference", "dual-net", "ensemble")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    space: SpaceSpec = field(default_factory=lambda: finite_lq(1, 2.0))
    sigma: tuple = (1.0,)
    depth: int = 16
    scales: tuple = ()
    p_list: tuple = ()
    q: float = 2.0
    beta: float = 2.0
    p_max: int = 64
    paths: int = 200
    mc_samples: int = 10_000
    seed: RngSeed = field(default_factory=lambda: RngSeed(DEFAULT_SEED))
    out_path: str | None = None
    formats: tuple = ("csv",)
    ensembles: tuple = ()  # maximal's EnsembleConfigs; empty means default_ensembles()


@dataclass(frozen=True)
class EnsembleConfig:
    """One named ensemble: ``count`` variables on a common space.

    Variable n (1-based) has weights ``sigma * decay**(n-1)``; a decay of 1
    gives identically distributed variables, several groups can be merged by
    running the maximal experiment over multiple configs.
    """

    config_id: str
    space: SpaceSpec
    sigma: tuple
    count: int
    decay: float = 1.0

    def build(self) -> EnsembleSpec:
        base = np.asarray(self.sigma, dtype=float)
        variables = tuple(
            GaussianVarSpec(self.space, tuple(base * self.decay ** (n - 1)))
            for n in range(1, self.count + 1)
        )
        return EnsembleSpec(variables)


def _geometric_sigma(dim: int = 16, ratio: float = 0.7) -> tuple:
    return tuple(ratio ** np.arange(dim))


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    ``driver`` runs a config; ``defaults`` are the :class:`ExperimentConfig`
    fields it sets over the dataclass defaults; ``keys`` are the config keys
    it reads besides experiment.id, rng.* and out.*, where "space.*" and
    "ensemble.*" stand for every key under the prefix.
    """

    help: str
    driver: Callable[[ExperimentConfig], ExperimentResult]
    defaults: dict
    keys: frozenset


# Append only: an experiment's position is part of every draw's key (see
# _draw_seed).  Each driver is looked up when it runs, not when the record is
# built, so a name patched on this module is the one that runs.
EXPERIMENTS = {
    "bm-limit": Experiment(
        "scaled dyadic increment norms against the moment of |W(1)|",
        lambda cfg: run_limit_experiment(cfg),
        dict(p_list=(1.0, 2.0, 4.0)),
        frozenset({"space.*", "sigma", "depth", "scales", "p.list", "mc.paths"}),
    ),
    "divergence": Experiment(
        "growth of partial q-sums of the smoothness seminorm",
        lambda cfg: run_divergence_experiment(cfg),
        dict(depth=18, q=2.0, p_list=(2.0,)),
        frozenset({"space.*", "sigma", "depth", "q", "p.list", "mc.paths"}),
    ),
    "moments": Experiment(
        "first moments of Besov and Orlicz-Besov path norms",
        lambda cfg: run_moment_experiment(cfg),
        dict(sigma=_geometric_sigma(), p_list=(1.0, 2.0, 4.0, 8.0)),
        frozenset({"sigma", "depth", "p.list", "beta", "p.max", "mc.paths"}),
    ),
    "tau": Experiment(
        "empirical minimum of the Besov norm (small-ball probe)",
        lambda cfg: run_tau_experiment(cfg),
        dict(paths=500, p_list=(1.0, 2.0)),
        frozenset({"space.*", "sigma", "depth", "p.list", "mc.paths"}),
    ),
    "maximal": Experiment(
        "expected-supremum sandwich for Gaussian ensembles",
        lambda cfg: run_maximal_experiment(cfg),
        {},
        frozenset({"mc.samples", "ensemble.*"}),
    ),
    "increment-variance": Experiment(
        "weak variance of lag-c increments in L^p",
        lambda cfg: run_increment_variance_experiment(cfg),
        dict(scales=(2, 4, 6), p_list=(1.0, 2.0, 4.0)),
        frozenset({"space.*", "sigma", "depth", "scales", "p.list"}),
    ),
}


def _experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}") from None


def default_config(experiment: str, seed: int = DEFAULT_SEED) -> ExperimentConfig:
    """Desk-scale defaults: depth 16, a few hundred paths, dimensions <= 16."""
    return ExperimentConfig(experiment, seed=RngSeed(seed), **_experiment(experiment).defaults)


def _parse_list(text: str, convert) -> tuple:
    """The comma-separated items of ``text``, blanks skipped, each converted."""
    return tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())


# Config key -> (ExperimentConfig field, parser of the key's text).
_CONFIG_FIELDS = {
    "sigma": ("sigma", lambda text: _parse_list(text, float)),
    "depth": ("depth", int),
    "scales": ("scales", lambda text: _parse_list(text, lambda tok: int(float(tok)))),
    "p.list": ("p_list", lambda text: _parse_list(text, float)),
    "q": ("q", parse_exponent),
    "beta": ("beta", float),
    "p.max": ("p_max", int),
    "mc.paths": ("paths", int),
    "mc.samples": ("mc_samples", int),
    "out.path": ("out_path", str),
    "out.format": ("formats", lambda text: _parse_list(text, str)),
}
# The keys that pick the defaults or build a space or a seed from several parts.
_CONFIG_SCALARS = {
    "experiment.id",
    "space.kind",
    "space.p",
    "space.dim",
    "rng.seed",
    "rng.stream",
    *_CONFIG_FIELDS,
}
_ENSEMBLE_SUBKEYS = {"space.kind", "space.p", "space.dim", "sigma", "count", "decay"}


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` config format with dotted keys.

    Blank lines and ``#`` comments are skipped; unknown keys are errors.
    """
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in mapping:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key in _CONFIG_SCALARS:
            mapping[key] = value
            continue
        parts = key.split(".")
        if parts[0] == "ensemble" and len(parts) >= 3 and ".".join(parts[2:]) in _ENSEMBLE_SUBKEYS:
            mapping[key] = value
            continue
        raise ValueError(f"line {lineno}: unknown config key {key!r}")
    return mapping


def parse_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def _space_from_mapping(mapping: dict, prefix: str, fallback: SpaceSpec) -> SpaceSpec:
    kind = mapping.get(prefix + "kind")
    p = mapping.get(prefix + "p")
    dim = mapping.get(prefix + "dim")
    if kind is None and p is None and dim is None:
        return fallback
    return SpaceSpec(
        kind or fallback.kind,
        parse_exponent(p) if p is not None else fallback.exponent,
        int(dim) if dim is not None else fallback.dim,
    )


def config_from_mapping(experiment: str, mapping: dict, seed: int = DEFAULT_SEED) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from parsed config keys.

    A key the chosen experiment never reads is an error, and so is an
    ``experiment.id`` that names another experiment.
    """
    if mapping.get("experiment.id", experiment) != experiment:
        raise ValueError(f"the config sets experiment.id = {mapping['experiment.id']}, not {experiment}")
    cfg = default_config(experiment, seed)
    reads = EXPERIMENTS[experiment].keys | {"experiment.id", "rng.*", "out.*"}
    unread = [key for key in sorted(mapping) if key not in reads and key.split(".")[0] + ".*" not in reads]
    if unread:
        raise ValueError(f"{experiment} does not read the config keys {', '.join(unread)}")
    return replace(
        cfg,
        space=_space_from_mapping(mapping, "space.", cfg.space),
        seed=RngSeed(int(mapping.get("rng.seed", cfg.seed.seed)), int(mapping.get("rng.stream", 0))),
        ensembles=ensembles_from_mapping(mapping),
        **{name: parse(mapping[key]) for key, (name, parse) in _CONFIG_FIELDS.items() if key in mapping},
    )


def ensembles_from_mapping(mapping: dict) -> tuple:
    """Collect ``ensemble.<id>.*`` groups into :class:`EnsembleConfig` objects."""
    groups: dict = {}
    for key, value in mapping.items():
        parts = key.split(".")
        if parts[0] != "ensemble":
            continue
        groups.setdefault(parts[1], {})[".".join(parts[2:])] = value
    configs = []
    for config_id in sorted(groups):
        sub = groups[config_id]
        space = _space_from_mapping(sub, "space.", finite_lq(1, 2.0))
        sigma = _parse_list(sub["sigma"], float) if "sigma" in sub else (1.0,)
        count = int(sub.get("count", 1))
        decay = float(sub.get("decay", 1.0))
        configs.append(EnsembleConfig(config_id, space, sigma, count, decay))
    return tuple(configs)


def default_ensembles() -> tuple:
    """Ten stock ensembles: constant, geometric, and spike weight profiles
    on l^1, l^2 and l^inf spaces with up to 256 variables."""
    inf = math.inf
    return (
        EnsembleConfig("c01-scalar-iid-256", finite_lq(1, 2.0), (1.0,), 256),
        EnsembleConfig("c02-scalar-geo-200", finite_lq(1, 2.0), (0.9,), 200, decay=0.9),
        EnsembleConfig("c03-scalar-const-128", finite_lq(1, 2.0), (0.3,), 128),
        EnsembleConfig("c04-scalar-spike", finite_lq(1, 2.0), (5.0,), 64, decay=0.5),
        EnsembleConfig("c05-l2-const-32", truncated_lp(2.0, 8), _geometric_sigma(8, 0.7), 32),
        EnsembleConfig("c06-l1-const-16", truncated_lp(1.0, 4), (0.5, 0.5, 0.5, 0.5), 16),
        EnsembleConfig("c07-linf-geo-64", truncated_lp(inf, 8), _geometric_sigma(8, 0.9), 64, decay=0.97),
        EnsembleConfig("c08-l2-spike-16", truncated_lp(2.0, 2), (1.5, 0.1), 16, decay=0.95),
        EnsembleConfig("c09-linf-pair-8", truncated_lp(inf, 2), (1.0, 1.0), 8),
        EnsembleConfig("c10-l1-geo-100", truncated_lp(1.0, 8), _geometric_sigma(8, 0.6), 100, decay=0.98),
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    params: tuple  # up to four short "key=value" strings
    estimate: float
    ci: float
    reference: float | None
    verdict: bool
    lower: float | None = None  # the maximal experiment's lower bound (reference is the upper)

    @property
    def ratio(self) -> float | None:
        return None if self.reference is None else _ratio(self.estimate, self.reference)


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    rows: tuple

    def all_pass(self) -> bool:
        return all(row.verdict for row in self.rows)


def _ratio(estimate: float, reference: float) -> float:
    if reference > 0:
        return estimate / reference
    return 1.0 if estimate == 0.0 else math.inf


def _wilson_half_width(frac: float, n: int) -> float:
    """Half-width of the 95 % Wilson score interval for a binomial fraction.

    Unlike the Wald interval it keeps a nonzero width at fractions 0 and 1.
    """
    z2 = 1.96 * 1.96
    return 1.96 * math.sqrt(frac * (1.0 - frac) / n + z2 / (4.0 * n * n)) / (1.0 + z2 / n)


def _reference_moments(space, sigma, p_values, seed) -> dict:
    """c_p = (E|W(1)|^p)^(1/p) for each requested p, plus p = 1.

    Exact wherever :func:`simulate.diag_norm_moment` has a closed form; the
    rest come from one Monte Carlo batch of ``NORM_MC_SAMPLES`` draws of
    W(1) from ``seed``, drawn only if some p needs it.
    """
    wanted = sorted(set(float(p) for p in p_values) | {1.0})
    refs = {p: diag_norm_moment(space, sigma, p) for p in wanted}
    missing = [p for p, ref in refs.items() if ref is None]
    if missing:
        norms = sampled_norms(space, sigma, NORM_MC_SAMPLES, seed)
        refs.update({p: float(np.mean(norms**p) ** (1.0 / p)) for p in missing})
    return refs


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _draw_seed(cfg: ExperimentConfig, model: int, role: str, index: int = 0) -> RngSeed:
    """The seed of one draw: ``cfg.seed`` extended by ``(experiment, model, role, index)``."""
    return cfg.seed.child(list(EXPERIMENTS).index(cfg.experiment), model, DRAW_ROLES.index(role), index)


def map_paths(cfg: ExperimentConfig, models, statistic, workers: int = 1) -> list:
    """``statistic(path)`` for ``cfg.paths`` paths of each ``(space, sigma)`` model.

    Returns one list per model, in path order.  Path ``i`` of model ``s``
    draws from ``_draw_seed(cfg, s, "path", i)``.  With more than one worker the
    paths run on a thread pool (numpy releases the interpreter lock inside
    its kernels); values and exceptions come back in path order either way,
    so the result does not depend on the worker count.
    """
    if cfg.paths < 1:
        raise ValueError("at least one path is required")
    tasks = [(s, i) for s in range(len(models)) for i in range(cfg.paths)]

    def draw(task):
        s, i = task
        space, sigma = models[s]
        return sample_bm(space, sigma, cfg.depth, _draw_seed(cfg, s, "path", i))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(lambda task: statistic(draw(task)), tasks))
    else:
        values = []
        for task in tasks:
            # The previous path stays alive while the next one is drawn.
            # Freeing it first, as statistic(draw(task)) does, raised the
            # minor page faults of a divergence run (50 paths, depth 18) from
            # 198 k to 346 k and its wall time from 1.17 to 1.34 s.
            path = draw(task)
            values.append(statistic(path))
    return [values[s * cfg.paths : (s + 1) * cfg.paths] for s in range(len(models))]


def _trusted_n_max(depth: int) -> int:
    """The largest trusted scale of a path of this depth; a depth that leaves none is an error."""
    if depth <= besov.SCALE_MARGIN:
        raise ValueError(f"depth {depth} leaves no trusted scale: it must exceed {besov.SCALE_MARGIN}")
    return besov.default_n_max(depth)


def _integer_exponents(cfg: ExperimentConfig, p_cap: float = math.inf) -> list:
    """The config's exponents as ints; each must be an integer in [1, p_cap]."""
    p_ints = [int(round(p)) for p in cfg.p_list]
    if any(abs(p - k) > 1e-12 or not 1 <= k <= p_cap for p, k in zip(cfg.p_list, p_ints)):
        raise ValueError(f"{cfg.experiment} exponents must be integers in [1, {p_cap:g}]")
    return p_ints


def run_limit_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Scaled dyadic increment norms against the moment of |W(1)|.

    For each scale n and exponent p, the mean over paths of
    ``Y = 2^(n/2) * dyadic_increment_lp(path, n, p)`` is compared with
    ``c_p = (E|W(1)|^p)^(1/p)``; a row passes when the ratio is within 2%.
    Without ``scales``, the three highest trusted scales run (8-10 at depth 16).
    """
    cap = _trusted_n_max(cfg.depth)
    scales = cfg.scales or tuple(range(max(1, cap - 2), cap + 1))
    bad = [n for n in scales if not 1 <= n <= cap]
    if bad:
        raise ValueError(f"scales {bad} exceed the trusted range [1, {cap}]")
    refs = _reference_moments(cfg.space, cfg.sigma, cfg.p_list, _draw_seed(cfg, 0, "reference"))

    (samples,) = map_paths(
        cfg, [(cfg.space, cfg.sigma)], lambda path: besov.scale_terms(path, 0.5, scales, cfg.p_list)
    )
    samples = np.array(samples)
    rows = []
    for a, n in enumerate(scales):
        for b, p in enumerate(cfg.p_list):
            estimate, ci = mean_ci(samples[:, a, b])
            ref = refs[float(p)]
            verdict = abs(_ratio(estimate, ref) - 1.0) <= LIMIT_RTOL
            rows.append(
                ResultRow(
                    (f"n={n}", f"p={p:g}", f"t={2.0**-n:.8g}"),
                    estimate,
                    ci,
                    ref,
                    verdict,
                )
            )
    return ExperimentResult("bm-limit", tuple(rows))


def divergence_growth(n_lo: int, n_hi: int, p: float, q: float) -> tuple:
    """Predicted partial q-sum growth of a Brownian path and the verdict factor.

    On the Riemann grid ``E T_n^p = (1 - 2^-n) c_p^p`` exactly for the
    weighted scale term ``T_n = 2^(n/2) |Delta_n W|_p``, and ``T_n`` tends to
    its mean almost surely, so the partial sums ``S(N) = sum_{n<=N} T_n^q``
    grow linearly in the cap with weights ``w_n = (1 - 2^-n)^(q/p)``.  The
    growth ``S(n_hi) / S(n_lo)`` of a Brownian path therefore concentrates at
    ``G* = sum_{n<=n_hi} w_n / sum_{n<=n_lo} w_n`` while that of a convergent
    (smooth) path tends to 1.  Returns ``(G*, 1 + GROWTH_SHARE * (G* - 1))``.
    """
    w = (1.0 - 2.0 ** -np.arange(1, n_hi + 1)) ** (q / p)
    predicted = float(w.sum() / w[:n_lo].sum())
    return predicted, 1.0 + GROWTH_SHARE * (predicted - 1.0)


def run_divergence_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Partial l^q sums of the weighted scale terms as the cap grows.

    The terms are taken at the one exponent of ``p.list``.

    Emits the mean partial q-sum seminorm for every cap n, then the fraction
    of paths whose partial q-sum grows by at least the factor of
    :func:`divergence_growth` between the caps ``depth/2`` and ``depth - 6``;
    that row's verdict requires the fraction to reach ``GROWTH_FRACTION`` and
    its ci is the half-width of the 95 % Wilson score interval.  A
    convergent (smooth) path makes the growth row fail, which is the intended
    discrimination.  The last row compares the mean growth with the
    linear-divergence prediction ``G*``.
    """
    besov.check_q(cfg.q)
    if math.isinf(cfg.q):
        raise ValueError("the divergence probe needs a finite q")
    n_lo = cfg.depth // 2
    n_hi = _trusted_n_max(cfg.depth)
    if n_lo >= n_hi:
        raise ValueError("depth too small for the divergence probe")
    if len(cfg.p_list) != 1:
        raise ValueError("the divergence probe takes one exponent in p.list")
    (p,) = cfg.p_list

    def statistic(path):
        sums = np.cumsum(besov.scale_terms(path, 0.5, range(1, n_hi + 1), [p])[:, 0] ** cfg.q)
        partial = [sums[n - 1] ** (1.0 / cfg.q) for n in range(1, n_hi + 1)]
        return partial + [_ratio(float(sums[n_hi - 1]), float(sums[n_lo - 1]))]

    (values,) = map_paths(cfg, [(cfg.space, cfg.sigma)], statistic)
    values = np.array(values).reshape(cfg.paths, n_hi + 1)
    rows = []
    for n in range(1, n_hi + 1):
        estimate, ci = mean_ci(values[:, n - 1])
        rows.append(ResultRow((f"n_max={n}", f"p={p:g}", f"q={cfg.q:g}"), estimate, ci, None, True))
    predicted, factor = divergence_growth(n_lo, n_hi, p, cfg.q)
    growth = values[:, n_hi]
    frac = float(np.mean(growth >= factor))
    rows.append(
        ResultRow(
            ("growth-fraction", f"n_lo={n_lo}", f"n_hi={n_hi}", f"factor={factor:g}"),
            frac,
            _wilson_half_width(frac, len(growth)),
            GROWTH_FRACTION,
            frac >= GROWTH_FRACTION,
        )
    )
    mean_growth, ci = mean_ci(growth)
    rows.append(
        ResultRow(
            ("mean-growth", f"n_lo={n_lo}", f"n_hi={n_hi}"),
            mean_growth,
            ci,
            predicted,
            True,
        )
    )
    return ExperimentResult("divergence", tuple(rows))


def _moment_space_models(cfg: ExperimentConfig) -> tuple:
    dim = len(cfg.sigma)
    return (
        ("scalar", finite_lq(1, 2.0), (1.0,)),
        ("l2", truncated_lp(2.0, dim), cfg.sigma),
        ("l1", truncated_lp(1.0, dim), cfg.sigma),
        ("linf", truncated_lp(math.inf, dim), cfg.sigma),
    )


def run_moment_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """First moments of Besov and exponential Orlicz--Besov path norms.

    Across the four space models (scalar, diagonal l^2 / l^1 / l^inf), the
    mean Besov norm at each integer p is compared with c_p (band [1, 6] and
    max/min stability across p at most 4), and the mean Orlicz--Besov norm
    at beta = 2 is compared with E|W(1)| (band [1, 10]).
    """
    if cfg.paths < 2:
        raise ValueError("at least two paths are required")
    p_ints = _integer_exponents(cfg, cfg.p_max)
    n_max = _trusted_n_max(cfg.depth)
    models = _moment_space_models(cfg)
    # Only this experiment pools its paths.  Pooling bm-limit, divergence and
    # tau as well (2 vCPUs, 24-s benchmark runs, seeds 31-33) cut the
    # scalar-paths wall time from 3.73 to 2.57 s but raised its CPU time
    # from 3.73 to 4.45 s (+19 %) and its peak RSS from 63.9 to 73.6 MB
    # (+15 %); with MALLOC_ARENA_MAX=1 the peak stayed at 73.9 MB, so the
    # cost is the second path in flight, not allocator retention.  These
    # numbers predate the one-coordinate branch of space_norm, which made
    # the serial scalar paths about a quarter faster.
    # Per path: the Besov totals for p = 1..max(p_ints), then the weighted
    # sup over p <= p_max, from the early-exit sweep.
    heads = np.array(
        map_paths(
            cfg,
            [(space, sigma) for _, space, sigma in models],
            lambda path: integer_p_besov_totals(path, 0.5, cfg.p_max, n_max, cfg.beta, max(p_ints)),
            workers=worker_count(),
        )
    )
    rows = []
    for s, (label, space, sigma) in enumerate(models):
        refs = _reference_moments(space, sigma, p_ints, _draw_seed(cfg, s, "reference"))
        totals = heads[s][:, [p - 1 for p in p_ints]]
        orlicz_vals = heads[s][:, -1]
        ratios = []
        for j, p in enumerate(p_ints):
            estimate, ci = mean_ci(totals[:, j])
            ref = refs[float(p)]
            ratio = _ratio(estimate, ref)
            ratios.append(ratio)
            verdict = BESOV_RATIO_BAND[0] <= ratio <= BESOV_RATIO_BAND[1]
            rows.append(ResultRow((label, f"p={p}", "norm=besov"), estimate, ci, ref, verdict))
        stability = max(ratios) / min(ratios)
        rows.append(
            ResultRow(
                (label, "stability", f"p_set={'/'.join(str(p) for p in p_ints)}"),
                stability,
                0.0,
                BESOV_STABILITY_MAX,
                stability <= BESOV_STABILITY_MAX,
            )
        )
        estimate, ci = mean_ci(orlicz_vals)
        ref = refs[1.0]
        ratio = _ratio(estimate, ref)
        verdict = ORLICZ_RATIO_BAND[0] <= ratio <= ORLICZ_RATIO_BAND[1]
        rows.append(ResultRow((label, f"beta={cfg.beta:g}", "norm=besov-orlicz"), estimate, ci, ref, verdict))
    return ExperimentResult("moments", tuple(rows))


def run_tau_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Empirical minimum of the Besov norm over many paths against c_p.

    The smallest sampled ``B^(1/2)_{p,inf}`` norm must stay above
    ``TAU_SLACK * c_p`` (slack covers discretisation and the finite scale
    cap).  A deterministic zero path is injected as a control row; it passes
    when its norm is correctly flagged as violating the band.
    """
    if cfg.paths < 500:
        raise ValueError("the tau probe needs at least 500 paths")
    p_ints = _integer_exponents(cfg)
    p_max = max(p_ints)
    n_max = _trusted_n_max(cfg.depth)
    refs = _reference_moments(cfg.space, cfg.sigma, p_ints, _draw_seed(cfg, 0, "reference"))

    def statistic(path):
        profile = integer_p_besov_totals(path, 0.5, p_max, n_max)
        return [profile[p - 1] for p in p_ints]

    (totals,) = map_paths(cfg, [(cfg.space, cfg.sigma)], statistic)
    totals = np.array(totals)
    rows = []
    for j, p in enumerate(p_ints):
        minimum = float(totals[:, j].min())
        ref = refs[float(p)]
        ratio = _ratio(minimum, ref)
        rows.append(
            ResultRow((f"p={p}", f"paths={cfg.paths}", "kind=min"), minimum, 0.0, ref, ratio >= TAU_SLACK)
        )
    zero = PathSample(cfg.space, cfg.depth, np.zeros(((1 << cfg.depth) + 1, cfg.space.dim)))
    for p, norm in zip(p_ints, map(float, statistic(zero))):
        ref = refs[float(p)]
        ratio = _ratio(norm, ref)
        rows.append(
            ResultRow((f"p={p}", "kind=control", "path=zero"), norm, 0.0, ref, ratio < TAU_SLACK)
        )
    return ExperimentResult("tau", tuple(rows))


def discrete_increment_integral_variance(depth: int, j: int) -> float:
    """Variance of ``2^-N sum_{t_k in I} (B(t_k + c) - B(t_k))`` for c = 2^-j.

    ``B`` is standard scalar Brownian motion and ``I`` an aligned interval of
    length c; stationarity of the increments makes every aligned placement
    equivalent.  Computed by aggregating the covariances
    ``cov = max(0, c - |t_k - t_l|)`` over pair distances, which tends to
    ``(2/3) c^3`` as the grid refines.
    """
    if not 1 <= j <= depth:
        raise ValueError("need 1 <= j <= depth so that c = 2^-j is on the grid")
    m = 1 << (depth - j)
    h = 2.0**-depth
    c = 2.0**-j
    d = np.arange(m, dtype=float)
    counts = np.where(d == 0, float(m), 2.0 * (m - d))
    return float(h * h * np.sum(counts * (c - d * h)))


def exact_test_functional_moment(space, sigma, depth, j) -> tuple[float, float]:
    """Exact discrete and limiting second moments of the window functional.

    The functional pairs the lag-c increment of the diagonal Brownian motion
    with ``1_I (x) x*`` for an interval of length ``c = 2^-j``, where ``x*``
    is the unit coordinate vector at the largest weight.  Returns
    ``(discrete, closed)`` where ``closed = (2/3) c^3 |i_W^* x*|^2`` and
    ``|i_W^* x*|^2 = sum_n sigma_n^2 (x*_n)^2``.
    """
    sig = padded_weights(space, sigma)
    xs = np.zeros(space.dim)
    xs[int(np.argmax(sig))] = 1.0
    coupling = float(np.sum(sig**2 * xs**2))
    var_a = discrete_increment_integral_variance(depth, j)
    c = 2.0**-j
    return var_a * coupling, (2.0 / 3.0) * c**3 * coupling


def run_increment_variance_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Weak variance of the lag-c increment process in L^p, three-row check.

    Per (c, p): the test-functional value (exact discrete second moment of
    the window functional, normalised by the functional's L^p' norm) against
    its closed form ``sqrt(2/3) c^(3/2) |i_W^* x*| / (|x*| c^(1/p'))``; the
    net lower bound (the same value maximised over a dual net); and the
    convolution upper value ``c^(1/2 + 1/p) |i_W|``.  The lower bound must
    not exceed the upper value, and the test functional must match its
    closed form within 2%.  Each lag ``c = 2^-j`` takes its ``j`` from
    ``scales``, which must be nonempty with every ``j`` in ``[1, depth]``;
    every ``p`` must be at least 1.
    """
    if not cfg.scales:
        raise ValueError("scales is empty: increment-variance needs at least one lag")
    if not all(p >= 1.0 for p in cfg.p_list):
        raise ValueError("p must be at least 1")
    net = dual_net(cfg.space, max(64, 2 * cfg.space.dim), _draw_seed(cfg, 0, "dual-net"))
    sig = padded_weights(cfg.space, cfg.sigma)
    net_coupling = float(np.max(np.sqrt((net**2) @ (sig**2))))
    iw = iw_norm(cfg.space, cfg.sigma)
    rows = []
    for j in map(int, cfg.scales):
        c = 2.0**-j
        var_a = discrete_increment_integral_variance(cfg.depth, j)
        discrete_raw, closed_raw = exact_test_functional_moment(cfg.space, cfg.sigma, cfg.depth, j)
        for p in cfg.p_list:
            pprime = dual_exponent(p)
            window = c ** (1.0 / pprime) if not math.isinf(pprime) else 1.0
            estimate = math.sqrt(discrete_raw) / window
            reference = math.sqrt(closed_raw) / window
            verdict = abs(_ratio(estimate, reference) - 1.0) <= TEST_FUNCTIONAL_RTOL
            rows.append(
                ResultRow((f"c=2^-{j}", f"p={p:g}", "row=test-functional"), estimate, 0.0, reference, verdict)
            )
            young = c ** (0.5 + 1.0 / p) * iw
            lower = math.sqrt(var_a) * net_coupling / window
            rows.append(
                ResultRow(
                    (f"c=2^-{j}", f"p={p:g}", "row=net-lower"),
                    lower,
                    0.0,
                    young,
                    _ratio(lower, young) <= 1.0 + YOUNG_TOL,
                )
            )
            rows.append(
                ResultRow((f"c=2^-{j}", f"p={p:g}", "row=young-upper"), young, 0.0, young, True)
            )
    return ExperimentResult("increment-variance", tuple(rows))


def run_maximal_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Monte Carlo check of the expected-supremum sandwich per ensemble.

    Runs ``cfg.ensembles``, or :func:`default_ensembles` where that is empty.
    Returns one row per ensemble, in order: the estimate of ``E sup_n |xi_n|``
    with its ci, the upper bound as the reference and the lower bound as
    ``lower``.  Ensemble ``k`` draws from ``_draw_seed(cfg, k, "ensemble")``:
    appending a configuration leaves the others unchanged, while removing or
    reordering one moves the keys of those after it.
    """
    rows = []
    for k, econf in enumerate(cfg.ensembles or default_ensembles()):
        report = empirical_sup_mean(econf.build(), cfg.mc_samples, _draw_seed(cfg, k, "ensemble"))
        rows.append(
            ResultRow(
                (econf.config_id,),
                report.estimate,
                report.ci_half_width,
                report.upper_bound,
                report.verdict,
                report.lower_bound,
            )
        )
    return ExperimentResult("maximal", tuple(rows))


def run(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the registered driver of ``cfg.experiment``.

    An experiment that reads ``p.list`` rejects an empty one before it draws.
    """
    record = _experiment(cfg.experiment)
    if not cfg.p_list and "p.list" in record.keys:
        raise ValueError(f"p.list is empty: {cfg.experiment} needs at least one exponent")
    return record.driver(cfg)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_HEADER = "experiment,param_1,param_2,param_3,param_4,estimate,ci,reference,ratio,verdict"
MAXIMAL_CSV_HEADER = "config_id,estimate,ci,lower,upper,verdict"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return format(float(x), ".12g")


def _csv_lines(result: ExperimentResult):
    """The standard layout, or config_id, estimate, ci, lower, upper, verdict for maximal."""
    maximal = result.experiment == "maximal"
    yield MAXIMAL_CSV_HEADER if maximal else CSV_HEADER
    for row in result.rows:
        if maximal:
            cells = [row.params[0], _fmt(row.estimate), _fmt(row.ci), _fmt(row.lower), _fmt(row.reference)]
        else:
            params = list(row.params)[:4] + [""] * (4 - min(len(row.params), 4))
            cells = [result.experiment, *params, _fmt(row.estimate), _fmt(row.ci), _fmt(row.reference),
                     _fmt(row.ratio)]
        yield ",".join([*cells, "pass" if row.verdict else "fail"])


def _json_payload(result: ExperimentResult) -> dict:
    return {
        "experiment": result.experiment,
        "all_pass": result.all_pass(),
        "rows": [
            {
                "params": list(row.params),
                "estimate": row.estimate,
                "ci": row.ci,
                "reference": row.reference,
                "lower": row.lower,
                "ratio": row.ratio,
                "verdict": "pass" if row.verdict else "fail",
            }
            for row in result.rows
        ],
    }


def _svg_text(result: ExperimentResult) -> str:
    """Minimal deterministic line/scatter plot of estimates and references.

    The x coordinate is the numeric tail of each row's first ``key=value``
    parameter when available, else the row index.
    """
    width, height, margin = 720, 440, 60
    pts = []
    for idx, row in enumerate(result.rows):
        x = float(idx)
        if row.params:
            tail = row.params[0].rpartition("=")[2]
            try:
                x = float(tail)
            except ValueError:
                x = float(idx)
        pts.append((x, row.estimate, row.reference))
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="30" font-family="monospace" font-size="16">{result.experiment}</text>',
    ]
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts] + [p[2] for p in pts if p[2] is not None]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def sx(x):
            return margin + (x - x_lo) / x_span * (width - 2 * margin)

        def sy(y):
            return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

        est = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, _ in pts)
        body.append(f'<polyline points="{est}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
        for x, y, _ in pts:
            body.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
        ref_pts = [(x, r) for x, _, r in pts if r is not None]
        if ref_pts:
            ref = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in ref_pts)
            body.append(
                f'<polyline points="{ref}" fill="none" stroke="darkorange" '
                f'stroke-width="1.5" stroke-dasharray="6,4"/>'
            )
        body.append(
            f'<text x="{margin}" y="{height - 20}" font-family="monospace" font-size="12">'
            f"estimate (solid) vs reference (dashed)</text>"
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"


def emit_report(result: ExperimentResult, out_base, formats=("csv",)) -> list:
    """Write the result in the requested formats next to ``out_base``.

    ``csv`` writes ``<out_base>.csv`` with a fixed header (``maximal`` has
    its own, with lower and upper bound columns), ``json-text``
    a structured-text mirror ``<out_base>.json``, ``svg`` a line/scatter
    plot ``<out_base>.svg``.  Output is byte-identical for identical
    results.  I/O failures propagate with the path in the message.
    """
    out_base = os.fspath(out_base)
    parent = os.path.dirname(out_base)
    if parent:
        os.makedirs(parent, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = out_base + ".csv"
            payload = "\n".join(_csv_lines(result)) + "\n"
        elif fmt == "json-text":
            path = out_base + ".json"
            payload = json.dumps(_json_payload(result), indent=2, sort_keys=True) + "\n"
        elif fmt == "svg":
            path = out_base + ".svg"
            payload = _svg_text(result)
        else:
            raise ValueError(f"unknown report format {fmt!r}")
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(payload)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
        written.append(path)
    return written


def emit_maximal_csv(result: ExperimentResult, path) -> str:
    """Write the maximal experiment's CSV report for ``result`` to ``path``.

    ``.csv`` is appended when ``path`` lacks it; returns the written path.
    """
    (written,) = emit_report(result, os.fspath(path).removesuffix(".csv"), ("csv",))
    return written
