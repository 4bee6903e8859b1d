"""Command-line front end.

Subcommands: ``rho`` (Luxemburg sequence norms), ``besov-norm`` (path norms
from a CSV or an internally sampled path), and one subcommand per entry of
:data:`besovbm.harness.EXPERIMENTS`: ``bm-limit``, ``divergence``,
``moments``, ``tau``, ``maximal``, ``increment-variance``.  Shared flags:
``--config`` (flat key = value file) and ``--seed``, ``--samples``,
``--paths``, ``--depth``, ``--out``, ``--format``, each of which overrides
one config key (see :data:`EXPERIMENT_FLAG_KEYS`); a key or flag the
chosen experiment never reads is an error.  The exit code is 0 iff every
verdict passes, and 2 on an error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import besov, harness, orlicz
from .simulate import PathSample, RngSeed, sample_bm
from .spaces import SpaceSpec, parse_exponent

# Experiment flag (argparse dest) -> the config key it overrides.
EXPERIMENT_FLAG_KEYS = {
    "seed": "rng.seed",
    "samples": "mc.samples",
    "paths": "mc.paths",
    "depth": "depth",
    "out": "out.path",
    "format": "out.format",
}


def _read_sequence(args) -> np.ndarray:
    if args.sequence is not None:
        return np.array(harness._parse_list(args.sequence, float))
    if args.sequence_file is not None:
        with open(args.sequence_file, "r", encoding="utf-8") as handle:
            return np.array([float(line) for line in handle if line.strip()])
    raise SystemExit("error: provide --sequence or --sequence-file")


def _cmd_rho(args) -> int:
    phi = orlicz.theta() if args.function == "theta" else orlicz.phi_beta(args.beta)
    value = orlicz.luxemburg_norm(phi, _read_sequence(args))
    print(format(value, ".12g"))
    return 0


def write_path_csv(path: PathSample, out) -> None:
    """Dump a sampled path as CSV with columns k, t, coord_1..coord_d."""
    d = path.space.dim
    header = "k,t," + ",".join(f"coord_{i + 1}" for i in range(d))
    times = path.times()
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for k in range(path.grid_size + 1):
            coords = ",".join(format(v, ".17g") for v in path.values[k])
            handle.write(f"{k},{format(times[k], '.12g')},{coords}\n")


def read_path_csv(source, kind="finite_lq", exponent=2.0, dim=None) -> PathSample:
    """Rebuild a PathSample from the k,t,coord_1..coord_d CSV format; d fixes the space's dim."""
    with open(source, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if header[:2] != ["k", "t"]:
            raise ValueError("path CSV must start with columns k,t")
        if dim not in (None, len(header) - 2):
            raise ValueError(f"the path CSV has {len(header) - 2} coordinate columns, not the space dimension {dim}")
        space = SpaceSpec(kind, exponent, len(header) - 2)
        rows = [line.strip().split(",") for line in handle if line.strip()]
    values = np.array([[float(c) for c in row[2:]] for row in rows])
    depth = (len(rows) - 1).bit_length() - 1
    if depth < 1 or (1 << depth) + 1 != len(rows):
        raise ValueError(f"path CSV must contain 2^depth + 1 grid rows with depth >= 1, not {len(rows)}")
    return PathSample(space, depth, values)


def _cmd_besov_norm(args) -> int:
    exponent = parse_exponent(args.space_p)
    if args.path_csv:
        path = read_path_csv(args.path_csv, args.space_kind, exponent, args.space_dim)
    else:
        space = SpaceSpec(args.space_kind, exponent, 1 if args.space_dim is None else args.space_dim)
        sigma = harness._parse_list(args.sigma, float)
        path = sample_bm(space, sigma, args.depth, RngSeed(args.seed, args.stream))
        if args.dump_path:
            write_path_csv(path, args.dump_path)
    n_max = besov.default_n_max(path.depth) if args.n_max is None else args.n_max
    params = besov.BesovParams(args.alpha, args.p, parse_exponent(args.q), n_max)
    report = besov.besov_norm(path, params)
    payload = {
        "alpha": args.alpha,
        "p": args.p,
        "q": "inf" if math.isinf(params.q) else params.q,
        "n_max": n_max,
        "lp_part": report.lp_part,
        "seminorm_part": report.seminorm_part,
        "total": report.total,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.per_scale_csv:
        with open(args.per_scale_csv, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("n,weighted_increment_norm\n")
            for n, term in report.per_scale:
                handle.write(f"{n},{format(term, '.12g')}\n")
    return 0


def _cmd_experiment(args) -> int:
    mapping = harness.parse_config_file(args.config) if args.config else {}
    for flag, key in EXPERIMENT_FLAG_KEYS.items():
        if getattr(args, flag) is not None:
            mapping[key] = str(getattr(args, flag))
    cfg = harness.config_from_mapping(args.experiment, mapping)
    result = harness.run(cfg)
    if cfg.out_path:
        harness.emit_report(result, cfg.out_path, cfg.formats)
    for row in result.rows:
        status = "PASS" if row.verdict else "FAIL"
        label = " ".join(row.params)
        ref = "" if row.reference is None else f" ref={harness._fmt(row.reference)}"
        print(f"{status} {result.experiment} {label}: estimate={harness._fmt(row.estimate)}{ref}")
    print(f"{result.experiment}: {'all verdicts pass' if result.all_pass() else 'verdict failures present'}")
    return 0 if result.all_pass() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="besovbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rho = sub.add_parser("rho", help="Luxemburg norm of a weight sequence")
    rho.add_argument("--function", choices=("theta", "phi-beta"), default="theta")
    rho.add_argument("--beta", type=float, default=2.0)
    rho.add_argument("--sequence", help="comma-separated weights")
    rho.add_argument("--sequence-file", help="file with one real per line")
    rho.set_defaults(func=_cmd_rho)

    bn = sub.add_parser("besov-norm", help="Besov norm of a path (CSV or sampled)")
    bn.add_argument("--path-csv", help="read the path from a k,t,coord CSV")
    bn.add_argument("--alpha", type=float, default=0.5)
    bn.add_argument("--p", type=float, default=2.0)
    bn.add_argument("--q", default="inf")
    bn.add_argument("--n-max", type=int, default=None)
    bn.add_argument("--depth", type=int, default=16)
    bn.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    bn.add_argument("--stream", type=int, default=1)
    bn.add_argument("--sigma", default="1.0")
    bn.add_argument("--space-kind", choices=("finite_lq", "truncated_lp"), default="finite_lq")
    bn.add_argument("--space-p", default="2")
    bn.add_argument("--space-dim", type=int, default=None, help="1 when sampling; a CSV's header sets it")
    bn.add_argument("--per-scale-csv", help="write the per-scale weighted terms")
    bn.add_argument("--dump-path", help="dump the sampled path as CSV")
    bn.set_defaults(func=_cmd_besov_norm)

    for name, record in harness.EXPERIMENTS.items():
        exp = sub.add_parser(name, help=record.help)
        exp.add_argument("--config", help="flat key = value config file")
        exp.add_argument("--seed", type=int, default=None)
        exp.add_argument("--samples", type=int, default=None)
        exp.add_argument("--paths", type=int, default=None)
        exp.add_argument("--depth", type=int, default=None)
        exp.add_argument("--out", default=None, help="report base path (no extension)")
        exp.add_argument("--format", default=None, help="comma list of csv,json-text,svg")
        exp.set_defaults(func=_cmd_experiment, experiment=name)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
