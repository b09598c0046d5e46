"""Command-line surface: ``run``, ``synth``, and ``verify`` subcommands.

Exit codes map error families to stable categories so callers can branch
without parsing messages:

    0  success, also when the reader of stdout closes it early
    1  unexpected internal error, a TypeError or KeyError among them
    2  usage or configuration error
    3  ingest error (unreadable file, parse failure, calendar gaps) or any
       other file-system failure, such as an artifact that cannot be written
    4  window infeasibility (a degenerate scoring window scores NaN)
    5  numerical failure (a fit's design or coefficients that overflow,
       overflowing features, divergent synthetic orbit)
    6  schema version mismatch

Every failure also writes a single machine-readable JSON line to stderr:
``{"category": ..., "error": ..., "message": ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ._version import __version__
from .detect import DetectorConfig
from .errors import (DivergentOrbitError, EmptySeriesError, GapError,
                     InfeasibleWindowError, NumericalFailureError, ParseError,
                     SchemaMismatchError, check_int)
from .evaluate import ProtocolConfig
from .ingest import GAP_POLICIES
from .report import (RunConfig, TRUTH_SCHEMA_VERSION, bucket_text,
                     dumps_canonical, load_report, load_truth, parse_bucket,
                     run_artifact_paths, run_from_config, verify_detection,
                     write_json_atomic, write_run_artifacts, write_series_csv)
from .synth import (SPLICE_MAP_R, SPLICE_MAP_SCALE, SPLICE_NOISE,
                    PolyMapSpec, RandomWalkSpec, SplicedSpec, generate,
                    logistic_splice)

# The value of each synth setting left off the command line; --noise-sigma's
# depends on --kind, and the other flags have none.
_SYNTH_DEFAULTS = {"sigma": 1.0, "x0": RandomWalkSpec.x0, "dim": 1,
                   "bound": PolyMapSpec.bound, "map_r": SPLICE_MAP_R,
                   "map_scale": SPLICE_MAP_SCALE}

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_WINDOW = 4
EXIT_NUMERICAL = 5
EXIT_SCHEMA = 6

_ERROR_MAP: tuple[tuple[type | tuple[type, ...], int, str], ...] = (
    (SchemaMismatchError, EXIT_SCHEMA, "schema"),
    ((NumericalFailureError, DivergentOrbitError, OverflowError,
      FloatingPointError), EXIT_NUMERICAL, "numerical"),
    (InfeasibleWindowError, EXIT_WINDOW, "window"),
    ((ParseError, EmptySeriesError, GapError, OSError, UnicodeDecodeError,
      json.JSONDecodeError), EXIT_INGEST, "ingest"),
    (ValueError, EXIT_USAGE, "config"),
)


def _classify_error(exc: BaseException) -> tuple[int, str]:
    for types, code, category in _ERROR_MAP:
        if isinstance(exc, types):
            return code, category
    return EXIT_INTERNAL, "internal"


def _emit_error(exc: BaseException) -> int:
    code, category = _classify_error(exc)
    line = json.dumps({"category": category,
                       "error": type(exc).__name__,
                       "message": str(exc)})
    print(line, file=sys.stderr)
    return code


class UsageError(ValueError):
    """A command line the parser refuses, with the parser's reason."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its errors instead of printing usage
    text and exiting; the subcommands' parsers are of its class too."""

    def error(self, message: str) -> None:
        raise UsageError(message)


def _out_dir(text: str) -> str:
    """An ``--out`` path that is a directory or can be made one: the
    nearest of it and its parents that exists, a dangling link included,
    must be a directory."""
    for path in (Path(text), *Path(text).parents):
        if os.path.lexists(path):
            if not path.is_dir():
                raise argparse.ArgumentTypeError(f"{path} is not a directory")
            break
    return text


def _refuse_directories(paths) -> None:
    """A usage error if an artifact path is a directory, which the
    artifact's rename could not replace; checked before any work."""
    for path in paths:
        if path.is_dir() and not path.is_symlink():
            raise UsageError(f"argument --out: {path} is a directory")


def _parse_float_list(text: str) -> tuple[float, ...]:
    """The floats of a comma-separated list; spaces may surround an item
    but not split one."""
    values = []
    for item in (item.strip() for item in text.split(",")):
        if not item:
            raise argparse.ArgumentTypeError(
                f"empty item in numeric list {text!r}")
        if " " in item:
            raise argparse.ArgumentTypeError(
                f"space inside item {item!r} of numeric list {text!r}")
        try:
            values.append(float(item))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"item {item!r} of numeric list {text!r} is not a number"
            ) from None
    return tuple(values)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxentcast",
        description=("Delay-embedding polynomial forecasting with "
                     "predictability-regime detection."))
    parser.add_argument("--version", action="version",
                        version=f"maxentcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig(input_path="")
    protocol, detector = defaults.protocol, defaults.detector
    run = sub.add_parser(
        "run", help="fit, forecast, score, and detect on a CSV series")
    run.add_argument("--input", required=True, help="input CSV path")
    run.add_argument("--date-col", default=defaults.date_col,
                     help="date column (default %(default)s)")
    run.add_argument("--value-col", default=defaults.value_col,
                     help="value column (default %(default)s)")
    run.add_argument("--date-format", default=defaults.date_format,
                     help="strptime pattern (default %(default)s)")
    run.add_argument("--gap-policy", default=defaults.gap_policy,
                     choices=GAP_POLICIES, help="(default %(default)s)")
    run.add_argument("--d", type=int, default=protocol.dim, dest="dim",
                     help="embedding dimension (default %(default)s)")
    run.add_argument("--delta", type=int, default=protocol.lag, dest="lag",
                     help="lag between delay components (default %(default)s)")
    run.add_argument("--np", type=int, default=protocol.degree, dest="degree",
                     help="polynomial degree (default %(default)s)")
    run.add_argument("--fit-window", type=int, default=protocol.fit_window,
                     help="number of fit constraints M (default %(default)s)")
    run.add_argument("--anticipation", type=int, action="append",
                     metavar="T",
                     help="forecast horizon, repeatable (default "
                          + " ".join(map(str, protocol.anticipation)) + ")")
    run.add_argument("--bucket", default=bucket_text(protocol.bucketing),
                     help="'year' or 'window:N' (default %(default)s)")
    run.add_argument("--theta", type=float, default=detector.theta,
                     help="detector ratio threshold (default %(default)s)")
    run.add_argument("--min-run", type=int, default=detector.min_run,
                     help="consecutive flagged windows (default %(default)s)")
    run.add_argument("--rank-tol", type=float, default=defaults.rank_tolerance,
                     help="singular-value cutoff (default %(default)s)")
    run.add_argument("--standardize", action="store_true",
                     help="z-score feature columns before the fit")
    run.add_argument("--out", type=_out_dir, default=defaults.out_dir,
                     help="output directory (default %(default)s)")

    synth = sub.add_parser(
        "synth", help="generate a synthetic series with ground truth")
    synth.add_argument("--kind", required=True,
                       choices=("walk", "map", "spliced"))
    synth.add_argument("--n", type=int, required=True,
                       help="total series length")
    synth.add_argument("--seed", type=int, required=True,
                       help="generator seed (required; no ambient entropy)")
    # Each setting defaults to None here, so that _synth_settings can tell
    # a flag given from one left out; the defaults it fills in are shown.
    synth.add_argument("--sigma", type=float,
                       help="walk increment scale (walk and spliced; "
                            f"default {_SYNTH_DEFAULTS['sigma']})")
    synth.add_argument("--x0", type=float,
                       help="walk starting level (walk and spliced; "
                            f"default {_SYNTH_DEFAULTS['x0']})")
    synth.add_argument("--dim", type=int,
                       help="map memory depth (map, and spliced with "
                            f"--coeffs; default {_SYNTH_DEFAULTS['dim']})")
    synth.add_argument("--coeffs", type=_parse_float_list,
                       metavar="C0,C1,...",
                       help="map coefficients in monomial order (map and "
                            "spliced)")
    synth.add_argument("--init", type=_parse_float_list,
                       metavar="V1,V2,...",
                       help="map initial values, most recent first (map only)")
    synth.add_argument("--noise-sigma", type=float,
                       help="map observation noise scale (map and spliced; "
                            f"default 0 for map, {SPLICE_NOISE} x sigma for "
                            "spliced)")
    synth.add_argument("--bound", type=float,
                       help="divergence bound for map orbits (map and "
                            f"spliced; default {_SYNTH_DEFAULTS['bound']})")
    synth.add_argument("--splice", type=int,
                       help="walk length before the deterministic segment "
                            "(spliced only)")
    synth.add_argument("--map-r", type=float,
                       help="logistic parameter for the auto map (spliced "
                            "without --coeffs; default "
                            f"{_SYNTH_DEFAULTS['map_r']})")
    synth.add_argument("--map-scale", type=float,
                       help="auto map amplitude in units of sigma (spliced "
                            "without --coeffs; default "
                            f"{_SYNTH_DEFAULTS['map_scale']})")
    synth.add_argument("--out", type=_out_dir, default=".",
                       help="output directory")

    verify = sub.add_parser(
        "verify", help="compare a run report against synth ground truth")
    verify.add_argument("--report", required=True, help="report.json path")
    verify.add_argument("--truth", required=True, help="truth.json path")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The run's config, every setting checked; a flag left out takes the
    RunConfig default, which the parser's defaults are read from."""
    anticipation = args.anticipation or ProtocolConfig().anticipation
    protocol = ProtocolConfig(dim=args.dim, degree=args.degree,
                              fit_window=args.fit_window,
                              anticipation=anticipation,
                              bucketing=parse_bucket(args.bucket),
                              lag=args.lag)
    return RunConfig(
        input_path=args.input, date_col=args.date_col,
        value_col=args.value_col, date_format=args.date_format,
        gap_policy=args.gap_policy, protocol=protocol,
        detector=DetectorConfig(theta=args.theta, min_run=args.min_run),
        rank_tolerance=args.rank_tol, standardize=args.standardize,
        out_dir=args.out)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _run_config(args)
    _refuse_directories(run_artifact_paths(
        config.out_dir, config.protocol.anticipation).values())
    result = run_from_config(config)
    paths = write_run_artifacts(result)
    for key in sorted(paths):
        print(f"wrote {paths[key]}")
    return EXIT_OK


# The synth settings that --kind walk, map and spliced read, by argparse
# dest, besides --n, --seed and --out.  A splice also reads the flags of its
# map: --coeffs and --dim, or without --coeffs, --map-r and --map-scale.
_SYNTH_READS = {
    "walk": ("sigma", "x0"),
    "map": ("dim", "coeffs", "init", "noise_sigma", "bound"),
    "spliced": ("sigma", "x0", "splice", "noise_sigma", "bound"),
}


def _synth_settings(args: argparse.Namespace) -> None:
    """Refuse a synth flag that --kind does not read, as a usage error that
    names it; then give each setting left out its default."""
    reads, what = set(_SYNTH_READS[args.kind]), f"--kind {args.kind}"
    if args.kind == "spliced":
        with_coeffs = args.coeffs is not None
        reads |= {"coeffs", "dim"} if with_coeffs else {"map_r", "map_scale"}
        what += " with --coeffs" if with_coeffs else " without --coeffs"
    for dest in ("sigma", "x0", "dim", "coeffs", "init", "noise_sigma",
                 "bound", "splice", "map_r", "map_scale"):
        if dest not in reads and getattr(args, dest) is not None:
            raise UsageError(f"argument --{dest.replace('_', '-')}: "
                             f"{what} does not read it")
    for dest, value in _SYNTH_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _cmd_synth(args: argparse.Namespace) -> int:
    _synth_settings(args)
    series_path = Path(args.out) / "series.csv"
    truth_path = Path(args.out) / "truth.json"
    _refuse_directories((series_path, truth_path))
    truth: dict = {"schema_version": TRUTH_SCHEMA_VERSION, "kind": args.kind,
                   "n": args.n, "seed": args.seed, "changepoint_index": None}
    if args.kind == "walk":
        spec = RandomWalkSpec(n=args.n, sigma=args.sigma, x0=args.x0,
                              seed=args.seed)
        truth["params"] = {"sigma": args.sigma, "x0": args.x0}
    elif args.kind == "map":
        if args.coeffs is None or args.init is None:
            raise ValueError("--kind map needs --coeffs and --init")
        check_int("dim", args.dim)
        if len(args.init) != args.dim:
            raise ValueError(f"--init needs exactly {args.dim} values")
        noise = (PolyMapSpec.noise_sigma if args.noise_sigma is None
                 else args.noise_sigma)
        spec = PolyMapSpec(n=args.n, dim=args.dim, coefficients=args.coeffs,
                           init=args.init, noise_sigma=noise,
                           seed=args.seed, bound=args.bound)
        truth["params"] = {"dim": args.dim, "coefficients": list(args.coeffs),
                           "init": list(args.init), "noise_sigma": noise}
    else:
        if args.splice is None:
            raise ValueError("--kind spliced needs --splice")
        check_int("n", args.n, 2)
        if not 1 <= args.splice < args.n:
            raise ValueError(f"--splice must lie in [1, {args.n - 1}], "
                             f"got {args.splice}")
        walk = RandomWalkSpec(n=args.splice, sigma=args.sigma, x0=args.x0,
                              seed=args.seed)
        noise = (SPLICE_NOISE * args.sigma if args.noise_sigma is None
                 else args.noise_sigma)
        if args.coeffs is None:
            spec = logistic_splice(walk, args.n - args.splice, noise,
                                   args.map_r, args.map_scale, args.bound)
        else:
            spec = SplicedSpec(walk, PolyMapSpec(
                n=args.n - args.splice, dim=args.dim,
                coefficients=args.coeffs, noise_sigma=noise,
                seed=args.seed + 1, bound=args.bound))
        map_spec = spec.second
        truth["changepoint_index"] = spec.splice_index
        truth["params"] = {
            "walk": {"sigma": args.sigma, "x0": args.x0, "n": args.splice},
            "map": {"dim": map_spec.dim,
                    "coefficients": list(map_spec.coefficients),
                    "noise_sigma": noise, "seed": map_spec.seed},
        }

    series = generate(spec)
    write_series_csv(series_path, series)
    write_json_atomic(truth_path, truth)
    print(f"wrote {series_path}")
    print(f"wrote {truth_path}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    payload = load_report(args.report)
    truth = load_truth(args.truth)
    result = verify_detection(payload, truth)
    print(dumps_canonical(result))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:  # --help or --version has printed its text
        return EXIT_OK
    except UsageError as exc:
        return _emit_error(exc)
    commands = {"run": _cmd_run, "synth": _cmd_synth, "verify": _cmd_verify}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, and the command did its work; with
        # stdout on devnull, the flush at exit cannot fail (exit code 120).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except BaseException as exc:  # noqa: BLE001 - CLI boundary
        if isinstance(exc, KeyboardInterrupt):
            raise
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
