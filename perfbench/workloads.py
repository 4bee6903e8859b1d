"""The benchmark's four workloads: inputs from a seed, one round, its checks.

A round is a workload's fixed unit of work.  ``run_round`` makes only the
program's calls and is what gets timed; ``check`` inspects what the round
produced afterwards, untimed.  Every operation of a round (one CLI
experiment, or one norm evaluation) is checked, and an operation fails when
any of its checks fails.  Each failed check is reported as a tag.

Tags listed in ``KNOWN_DEFECTS`` come from defects of the library that are
recorded in the README and ROADMAP.  They are counted like any other failure;
they only do not make a run incorrect.  A tag outside that list (a crash, a
non-deterministic report, a wrong reference, a failing verdict anywhere
else, any failure at unit scale) does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from besovbm import besov, cli, orlicz, simulate, spaces

KNOWN_DEFECTS = frozenset({
    # criterion 5: the growth-factor threshold is unattainable (top-level README)
    "verdict:divergence:growth-fraction",
    # orlicz_norm scans a delta grid that is not scaled to the weights
    "orlicz_norm:sandwich",
    "orlicz_norm:homogeneity",
    "orlicz_norm:nonfinite",
    # integer-p power sums overflow: no normalisation before taking powers
    "power_sum:nonfinite",
    "power_sum:homogeneity",
    # the Luxemburg bisection stops on an absolute width below unit scale
    "luxemburg_norm:homogeneity",
})

STANDARD_HEADER = "experiment,param_1,param_2,param_3,param_4,estimate,ci,reference,ratio,verdict"
MAXIMAL_HEADER = "config_id,estimate,ci,lower,upper,verdict"
REL_TOL = 1e-6  # homogeneity and sandwich slack, as in the acceptance criteria
CSV_TOL = 1e-9  # report cells carry 12 significant digits


@dataclass
class Checked:
    """Outcome of checking one round."""

    ops: int
    failed_ops: int
    tags: list  # one entry per failed check


def cli_seed(seed: int) -> int:
    """The experiment seed handed to the CLI for a benchmark seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def gaussian_moment(p: float) -> float:
    """(E|N(0,1)|^p)^(1/p), the analytic reference of every scalar experiment."""
    return math.exp((0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)) / p)


def _close(value: float, target: float, tol: float = REL_TOL) -> bool:
    return math.isfinite(value) and math.isfinite(target) and abs(value - target) <= tol * abs(target)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tally(per_op: list) -> Checked:
    tags = [tag for op in per_op for tag in op]
    return Checked(len(per_op), sum(1 for op in per_op if op), tags)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One experiment run through ``cli.main``."""

    label: str
    args: tuple
    rows: int  # report rows the experiment must emit
    work: int  # paths or ensemble variables it completes


@dataclass(frozen=True)
class Invocation:
    command: Command
    argv: tuple
    report: str


TINY_MAXIMAL_CONFIG = """\
ensemble.a-scalar.sigma = 1.0
ensemble.a-scalar.count = 16
ensemble.b-linf.space.kind = truncated_lp
ensemble.b-linf.space.p = inf
ensemble.b-linf.space.dim = 2
ensemble.b-linf.sigma = 1.0, 1.0
ensemble.b-linf.count = 4
"""


class CliWorkload:
    reference_scaled = False  # see reference.py

    def __init__(self, work_unit, full, tiny):
        self.work_unit = work_unit
        self.commands = {False: full, True: tiny}

    def build(self, seed: int, run_dir: str, tiny: bool) -> list:
        config = os.path.join(run_dir, "maximal-tiny.cfg")
        if tiny and any(c.label == "maximal" for c in self.commands[True]):
            os.makedirs(run_dir, exist_ok=True)
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(TINY_MAXIMAL_CONFIG)
        out = []
        for command in self.commands[tiny]:
            base = os.path.join(run_dir, command.label)
            args = tuple(config if a == "{config}" else a for a in command.args)
            argv = args + ("--seed", str(cli_seed(seed)), "--out", base, "--format", "csv")
            out.append(Invocation(command, argv, base + ".csv"))
        return out

    def work(self, inputs) -> int:
        return sum(inv.command.work for inv in inputs)

    def run_round(self, inputs) -> list:
        codes = []
        for inv in inputs:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(list(inv.argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    code = f"exit-{exc.code}"
                except Exception as exc:  # a crash is a counted failure
                    code = f"exception-{type(exc).__name__}"
            codes.append(code)
        return codes

    def check(self, inputs, codes, digests) -> Checked:
        per_op = []
        for inv, code in zip(inputs, codes):
            label = inv.command.label
            if code not in (0, 1):
                per_op.append([f"crash:{label}:{code}"])
                continue
            try:
                with open(inv.report, "rb") as handle:
                    data = handle.read()
            except OSError:
                per_op.append([f"report-missing:{label}"])
                continue
            digest = _digest(data)
            tags = [] if digests.setdefault(label, digest) == digest else [f"determinism:{label}"]
            lines = data.decode("utf-8").splitlines()
            check_rows = _check_maximal if label == "maximal" else _check_standard
            verdicts = check_rows(label, lines, tags)
            if len(verdicts) != inv.command.rows:
                tags.append(f"rows:{label}")
            if (code == 0) != all(verdicts):
                tags.append(f"exit-code:{label}")
            per_op.append(tags)
        return _tally(per_op)


def _cell(text: str):
    return float(text) if text else None


def _scalar_exponent(label: str, params: list):
    """The p whose analytic moment is the row's reference, or None."""
    if label == "moments":
        if params[0] != "scalar":
            return None
        if "norm=besov-orlicz" in params:
            return 1.0
    elif label not in ("bm-limit", "tau"):
        return None
    for param in params:
        if param.startswith("p="):
            return float(param[2:])
    return None


def _check_standard(label: str, lines: list, tags: list) -> list:
    if not lines or lines[0] != STANDARD_HEADER:
        tags.append(f"header:{label}")
        return []
    verdicts = []
    for line in lines[1:]:
        cells = line.split(",")
        params = cells[1:5]
        row = f"{label}:{params[0]}"
        estimate, ci, reference, ratio = (_cell(c) for c in cells[5:9])
        if not all(math.isfinite(v) for v in (estimate, ci, reference, ratio) if v is not None):
            tags.append(f"nonfinite:{row}")
        elif reference and ratio is not None and not _close(ratio, estimate / reference, CSV_TOL):
            tags.append(f"ratio:{row}")
        p = _scalar_exponent(label, params)
        if p is not None and not _close(reference or 0.0, gaussian_moment(p), CSV_TOL):
            tags.append(f"reference:{row}")
        verdicts.append(cells[9] == "pass")
        if cells[9] != "pass":
            tags.append(f"verdict:{row}")
    return verdicts


def _check_maximal(label: str, lines: list, tags: list) -> list:
    if not lines or lines[0] != MAXIMAL_HEADER:
        tags.append(f"header:{label}")
        return []
    verdicts = []
    for line in lines[1:]:
        cells = line.split(",")
        row = f"{label}:{cells[0]}"
        estimate, ci, lower, upper = (float(c) for c in cells[1:5])
        passed = cells[5] == "pass"
        if not all(math.isfinite(v) for v in (estimate, ci, lower, upper)) or not 0.0 <= lower <= upper:
            tags.append(f"bounds:{row}")
        elif passed != (lower - ci - 1e-6 <= estimate <= upper + ci + 1e-6):
            tags.append(f"verdict-recomputed:{row}")
        verdicts.append(passed)
        if not passed:
            tags.append(f"verdict:{row}")
    return verdicts


# ---------------------------------------------------------------------------
# Orlicz norms across scales
# ---------------------------------------------------------------------------

SEQUENCE_SCALES = 10.0 ** np.arange(-12, 13)
PATH_SCALES = 10.0 ** np.array([-12, -8, -4, -2, 0, 2, 4, 8, 12])
BETA = 2.0
P_MAX = 128
PATH_PEAK = 3.0  # 100 * 3 lies past the overflow of x**128 (about 256)


@dataclass(frozen=True)
class OrliczInputs:
    sequences: list  # per sequence, its copies scaled by each of SEQUENCE_SCALES
    paths: list  # per path, its copies scaled by each of PATH_SCALES


class OrliczWorkload:
    work_unit = "norm evaluations"
    reference_scaled = True  # interpreter-bound small calls, see reference.py

    def build(self, seed: int, run_dir: str, tiny: bool) -> OrliczInputs:
        rng = np.random.default_rng(seed)
        lengths = (1, 64) if tiny else (1, 2, 4, 8, 16, 32, 64)
        # The seed orders each sequence's weights; their values are fixed, so
        # every seed does the same solver work and meets the same defects.
        weights = [rng.permutation(10.0 ** np.linspace(-3.0, 0.0, n)) for n in lengths]
        depth = 9 if tiny else 12
        models = [(spaces.finite_lq(1, 2.0), (1.0,))] * (1 if tiny else 2)
        if not tiny:
            models.append((spaces.truncated_lp(2.0, 4), (1.0, 0.5, 0.25, 0.125)))
        paths = [
            simulate.sample_bm(space, sigma, depth, simulate.RngSeed(seed, k))
            for k, (space, sigma) in enumerate(models)
        ]
        # Each path is rescaled to the peak value norm PATH_PEAK, so every seed
        # meets the p_max 128 overflow at the same scales.
        peaks = [float(np.max(spaces.space_norm(p.space, p.values))) for p in paths]
        return OrliczInputs(
            [[s * w for s in SEQUENCE_SCALES] for w in weights],
            [
                [simulate.PathSample(p.space, p.depth, (s * PATH_PEAK / peak) * p.values) for s in PATH_SCALES]
                for p, peak in zip(paths, peaks)
            ],
        )

    def work(self, inputs) -> int:
        return 4 * len(inputs.sequences) * len(SEQUENCE_SCALES) + 2 * len(inputs.paths) * len(PATH_SCALES)

    def run_round(self, inputs):
        errors = {}

        def call(key, fn, *args):
            try:
                return fn(*args)
            except Exception as exc:  # a crash is a counted failure
                errors[key] = type(exc).__name__
                return math.nan

        phis = (orlicz.theta(), orlicz.phi_beta(BETA))
        seq = np.empty((len(phis), len(inputs.sequences), len(SEQUENCE_SCALES), 2))
        for i, phi in enumerate(phis):
            for j, scaled in enumerate(inputs.sequences):
                for k, a in enumerate(scaled):
                    seq[i, j, k, 0] = call(("seq", i, j, k, 0), orlicz.luxemburg_norm, phi, a)
                    seq[i, j, k, 1] = call(("seq", i, j, k, 1), orlicz.orlicz_norm, phi, a)
        path = np.empty((len(inputs.paths), len(PATH_SCALES), 2))
        for m, scaled in enumerate(inputs.paths):
            for k, p in enumerate(scaled):
                path[m, k, 0] = call(("path", m, k, 0), besov.exp_orlicz_lp_norm, p, BETA, P_MAX)
                path[m, k, 1] = call(("path", m, k, 1), besov.besov_orlicz_norm, p, 0.5, BETA, P_MAX)
        return seq, path, errors

    def check(self, inputs, output, digests) -> Checked:
        seq, path, errors = output
        digest = _digest(seq.tobytes() + path.tobytes())
        per_op = [] if digests.setdefault("values", digest) == digest else [["determinism:values"]]
        unit = int(np.flatnonzero(SEQUENCE_SCALES == 1.0)[0])
        for i, j, k in np.ndindex(seq.shape[:3]):
            prefix = "unit-scale:" if k == unit else ""
            lux, full = seq[i, j, k]
            lux_tags, full_tags = [], []
            if ("seq", i, j, k, 0) in errors:
                lux_tags.append(f"exception:luxemburg_norm:{errors['seq', i, j, k, 0]}")
            elif not (math.isfinite(lux) and lux > 0.0):
                lux_tags.append(prefix + "luxemburg_norm:nonfinite")
            elif not _close(lux, SEQUENCE_SCALES[k] * seq[i, j, unit, 0]):
                lux_tags.append(prefix + "luxemburg_norm:homogeneity")
            if ("seq", i, j, k, 1) in errors:
                full_tags.append(f"exception:orlicz_norm:{errors['seq', i, j, k, 1]}")
            elif not math.isfinite(full):
                full_tags.append(prefix + "orlicz_norm:nonfinite")
            else:
                if not lux * (1.0 - REL_TOL) <= full <= 2.0 * lux * (1.0 + REL_TOL):
                    full_tags.append(prefix + "orlicz_norm:sandwich")
                if not _close(full, SEQUENCE_SCALES[k] * seq[i, j, unit, 1]):
                    full_tags.append(prefix + "orlicz_norm:homogeneity")
            per_op += [lux_tags, full_tags]
        unit = int(np.flatnonzero(PATH_SCALES == 1.0)[0])
        for (m, k, f), value in np.ndenumerate(path):
            prefix = "unit-scale:" if k == unit else ""
            if ("path", m, k, f) in errors:
                per_op.append([f"exception:path_norm:{errors['path', m, k, f]}"])
            elif not math.isfinite(value):
                per_op.append([prefix + "power_sum:nonfinite"])
            elif not _close(value, PATH_SCALES[k] * path[m, unit, f]):
                per_op.append([prefix + "power_sum:homogeneity"])
            else:
                per_op.append([])
        return _tally(per_op)


WORKLOADS = {
    "moments-dim16": CliWorkload(
        "paths",
        full=(Command("moments", ("moments", "--paths", "4"), 24, 16),),
        tiny=(Command("moments", ("moments", "--paths", "2", "--depth", "10"), 24, 8),),
    ),
    "scalar-paths": CliWorkload(
        "paths",
        full=(
            Command("bm-limit", ("bm-limit",), 9, 200),
            Command("divergence", ("divergence", "--paths", "50"), 14, 50),
            Command("tau", ("tau",), 4, 500),
        ),
        tiny=(
            Command("bm-limit", ("bm-limit", "--paths", "50"), 9, 50),
            Command("divergence", ("divergence", "--paths", "5", "--depth", "14"), 10, 5),
            Command("tau", ("tau", "--depth", "12"), 4, 500),
        ),
    ),
    "gaussian-maxima": CliWorkload(
        "ensemble variables",
        full=(Command("maximal", ("maximal",), 10, 884),),
        tiny=(Command("maximal", ("maximal", "--samples", "1000", "--config", "{config}"), 2, 20),),
    ),
    "orlicz-scales": OrliczWorkload(),
}
