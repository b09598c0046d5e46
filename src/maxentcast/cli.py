"""Command-line surface: ``run``, ``synth``, and ``verify`` subcommands.

Exit codes map error families to stable categories so callers can branch
without parsing messages:

    0  success, also when the reader of stdout closes it early
    1  unexpected internal error
    2  usage or configuration error
    3  ingest error (unreadable file, parse failure, calendar gaps)
    4  window infeasibility or degenerate scoring window
    5  numerical failure (singular fit, overflowing features,
       divergent synthetic orbit)
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
from .errors import (DegenerateMatrixError, DegenerateWindowError,
                     DimensionMismatchError, DivergentOrbitError,
                     EmptySeriesError, GapError, InfeasibleWindowError,
                     MaxentcastError, NumericalFailureError, ParseError,
                     SchemaMismatchError)
from .evaluate import ProtocolConfig
from .ingest import GAP_POLICIES
from .report import (RunConfig, TRUTH_SCHEMA_VERSION, bucket_text,
                     dumps_canonical, load_report, load_truth, parse_bucket,
                     run_from_config, verify_detection, write_json_atomic,
                     write_run_artifacts, write_series_csv)
from .synth import (SPLICE_MAP_R, SPLICE_MAP_SCALE, PolyMapSpec,
                    RandomWalkSpec, SplicedSpec, generate, logistic_splice)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_WINDOW = 4
EXIT_NUMERICAL = 5
EXIT_SCHEMA = 6

_ERROR_MAP: tuple[tuple[type | tuple[type, ...], int, str], ...] = (
    (SchemaMismatchError, EXIT_SCHEMA, "schema"),
    ((DegenerateMatrixError, NumericalFailureError, DivergentOrbitError,
      OverflowError, FloatingPointError), EXIT_NUMERICAL, "numerical"),
    ((InfeasibleWindowError, DegenerateWindowError), EXIT_WINDOW, "window"),
    ((ParseError, EmptySeriesError, GapError, FileNotFoundError,
      IsADirectoryError, PermissionError, UnicodeDecodeError,
      json.JSONDecodeError), EXIT_INGEST, "ingest"),
    ((DimensionMismatchError, ValueError, TypeError, KeyError),
     EXIT_USAGE, "config"),
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


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [p for p in text.replace(" ", "").split(",") if p]
    if not items:
        raise ValueError(f"empty numeric list {text!r}")
    return tuple(float(p) for p in items)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    run.add_argument("--out", default=defaults.out_dir,
                     help="output directory (default %(default)s)")

    synth = sub.add_parser(
        "synth", help="generate a synthetic series with ground truth")
    synth.add_argument("--kind", required=True,
                       choices=("walk", "map", "spliced"))
    synth.add_argument("--n", type=int, required=True,
                       help="total series length")
    synth.add_argument("--seed", type=int, required=True,
                       help="generator seed (required; no ambient entropy)")
    synth.add_argument("--sigma", type=float, default=1.0,
                       help="walk increment scale (default 1.0)")
    synth.add_argument("--x0", type=float, default=RandomWalkSpec.x0,
                       help="walk starting level (default %(default)s)")
    synth.add_argument("--dim", type=int, default=1,
                       help="map memory depth (default 1)")
    synth.add_argument("--coeffs", type=_parse_float_list, default=None,
                       metavar="C0,C1,...",
                       help="map coefficients in monomial order")
    synth.add_argument("--init", type=_parse_float_list, default=None,
                       metavar="V1,V2,...",
                       help="map initial values, most recent first")
    synth.add_argument("--noise-sigma", type=float, default=None,
                       help="map observation noise scale (default 0 for "
                            "map, 0.01 x sigma for spliced)")
    synth.add_argument("--bound", type=float, default=PolyMapSpec.bound,
                       help="divergence bound for map orbits "
                            "(default %(default)s)")
    synth.add_argument("--splice", type=int, default=None,
                       help="walk length before the deterministic segment "
                            "(spliced only)")
    synth.add_argument("--map-r", type=float, default=SPLICE_MAP_R,
                       help="logistic parameter for the auto map "
                            "(spliced without --coeffs; default %(default)s)")
    synth.add_argument("--map-scale", type=float, default=SPLICE_MAP_SCALE,
                       help="auto map amplitude in units of sigma "
                            "(default %(default)s)")
    synth.add_argument("--out", default=".", help="output directory")

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
    result = run_from_config(_run_config(args))
    paths = write_run_artifacts(result)
    for key in sorted(paths):
        print(f"wrote {paths[key]}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    truth: dict = {"schema_version": TRUTH_SCHEMA_VERSION, "kind": args.kind,
                   "n": args.n, "seed": args.seed, "changepoint_index": None}
    if args.kind == "walk":
        spec = RandomWalkSpec(n=args.n, sigma=args.sigma, x0=args.x0,
                              seed=args.seed)
        truth["params"] = {"sigma": args.sigma, "x0": args.x0}
    elif args.kind == "map":
        if args.coeffs is None or args.init is None:
            raise ValueError("--kind map needs --coeffs and --init")
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
        walk = RandomWalkSpec(n=args.splice, sigma=args.sigma, x0=args.x0,
                              seed=args.seed)
        noise = (0.01 * args.sigma if args.noise_sigma is None
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
    out_dir = Path(args.out)
    series_path = out_dir / "series.csv"
    truth_path = out_dir / "truth.json"
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        if code not in (0, EXIT_OK):
            print(json.dumps({"category": "config", "error": "UsageError",
                              "message": "invalid command line"}),
                  file=sys.stderr)
            return EXIT_USAGE
        return EXIT_OK
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
