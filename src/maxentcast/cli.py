"""Command-line surface: ``run``, ``synth``, and ``verify`` subcommands.

Exit codes map error families to stable categories so callers can branch
without parsing messages:

    0  success
    1  unexpected internal error
    2  usage or configuration error
    3  ingest error (unreadable file, parse failure, calendar gaps)
    4  window infeasibility or degenerate scoring window
    5  numerical failure (singular fit, divergent synthetic orbit)
    6  schema version mismatch

Every failure also writes a single machine-readable JSON line to stderr:
``{"category": ..., "error": ..., "message": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .errors import (DegenerateMatrixError, DegenerateWindowError,
                     DimensionMismatchError, DivergentOrbitError,
                     EmptySeriesError, GapError, InfeasibleWindowError,
                     MaxentcastError, NumericalFailureError, ParseError,
                     SchemaMismatchError)
from .ingest import GAP_POLICIES
from .report import (RunConfig, TRUTH_SCHEMA_VERSION, dumps_canonical,
                     format_csv_rows, load_report, load_truth,
                     run_from_config, verify_detection, write_json_atomic,
                     write_text_atomic)
from .synth import (PolyMapSpec, RandomWalkSpec, gen_spliced, generate,
                    logistic_map_coefficients, rescale_map_coefficients)
from .synth import _walk_values as _raw_walk_values

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

    run = sub.add_parser(
        "run", help="fit, forecast, score, and detect on a CSV series")
    run.add_argument("--input", required=True, help="input CSV path")
    run.add_argument("--date-col", default="date")
    run.add_argument("--value-col", default="value")
    run.add_argument("--date-format", default="%Y-%m-%d")
    run.add_argument("--gap-policy", default="ffill", choices=GAP_POLICIES)
    run.add_argument("--d", type=int, default=4, dest="dim",
                     help="embedding dimension (default 4)")
    run.add_argument("--delta", type=int, default=1, dest="lag",
                     help="time lag between delay components (default 1)")
    run.add_argument("--np", type=int, default=2, dest="degree",
                     help="polynomial degree (default 2)")
    run.add_argument("--fit-window", type=int, default=700,
                     help="number of fit constraints M (default 700)")
    run.add_argument("--anticipation", type=int, action="append",
                     metavar="T",
                     help="forecast horizon, repeatable "
                          "(default 7 10 13 16)")
    run.add_argument("--bucket", default="year",
                     help="'year' or 'window:N' (default year)")
    run.add_argument("--theta", type=float, default=0.5,
                     help="detector ratio threshold (default 0.5)")
    run.add_argument("--min-run", type=int, default=2,
                     help="minimum consecutive flagged windows (default 2)")
    run.add_argument("--rank-tol", type=float, default=1e-10,
                     help="relative singular-value cutoff (default 1e-10)")
    run.add_argument("--standardize", action="store_true",
                     help="z-score feature columns before the fit")
    run.add_argument("--out", default=".", help="output directory")

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
    synth.add_argument("--x0", type=float, default=0.0,
                       help="walk starting level (default 0.0)")
    synth.add_argument("--dim", type=int, default=1,
                       help="map memory depth (default 1)")
    synth.add_argument("--coeffs", type=_parse_float_list, default=None,
                       metavar="C0,C1,...",
                       help="map coefficients in monomial order")
    synth.add_argument("--init", type=_parse_float_list, default=None,
                       metavar="V1,V2,...",
                       help="map initial values, most recent first")
    synth.add_argument("--noise-sigma", type=float, default=0.0,
                       help="map observation noise scale (default 0)")
    synth.add_argument("--bound", type=float, default=1e6,
                       help="divergence bound for map orbits")
    synth.add_argument("--splice", type=int, default=None,
                       help="walk length before the deterministic segment "
                            "(spliced only)")
    synth.add_argument("--map-r", type=float, default=3.59,
                       help="logistic parameter for the auto map "
                            "(spliced without --coeffs; default 3.59)")
    synth.add_argument("--map-scale", type=float, default=60.0,
                       help="auto map amplitude in units of sigma "
                            "(default 60)")
    synth.add_argument("--name", default=None, help="series name")
    synth.add_argument("--out", default=".", help="output directory")

    verify = sub.add_parser(
        "verify", help="compare a run report against synth ground truth")
    verify.add_argument("--report", required=True, help="report.json path")
    verify.add_argument("--truth", required=True, help="truth.json path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    anticipation = tuple(args.anticipation) if args.anticipation \
        else (7, 10, 13, 16)
    config = RunConfig(
        input_path=args.input, date_col=args.date_col,
        value_col=args.value_col, date_format=args.date_format,
        gap_policy=args.gap_policy, dim=args.dim, lag=args.lag,
        degree=args.degree, fit_window=args.fit_window,
        anticipation=anticipation, bucket=args.bucket, theta=args.theta,
        min_run=args.min_run, rank_tolerance=args.rank_tol,
        standardize=args.standardize, out_dir=args.out)
    result = run_from_config(config)
    from .report import write_run_artifacts
    paths = write_run_artifacts(result)
    for key in sorted(paths):
        print(f"wrote {paths[key]}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    name = args.name or args.kind
    truth: dict = {"schema_version": TRUTH_SCHEMA_VERSION, "kind": args.kind,
                   "n": args.n, "seed": args.seed}
    if args.kind == "walk":
        spec = RandomWalkSpec(n=args.n, sigma=args.sigma, x0=args.x0,
                              seed=args.seed)
        series = generate(spec, name=name)
        truth["changepoint_index"] = None
        truth["params"] = {"sigma": args.sigma, "x0": args.x0}
    elif args.kind == "map":
        if args.coeffs is None or args.init is None:
            raise ValueError("--kind map needs --coeffs and --init")
        if len(args.init) != args.dim:
            raise ValueError(f"--init needs exactly {args.dim} values")
        spec = PolyMapSpec(n=args.n, dim=args.dim, coefficients=args.coeffs,
                           init=args.init, noise_sigma=args.noise_sigma,
                           seed=args.seed, bound=args.bound)
        series = generate(spec, name=name)
        truth["changepoint_index"] = None
        truth["params"] = {"dim": args.dim, "coefficients": list(args.coeffs),
                           "init": list(args.init),
                           "noise_sigma": args.noise_sigma}
    else:
        if args.splice is None:
            raise ValueError("--kind spliced needs --splice")
        if not 1 <= args.splice < args.n:
            raise ValueError("--splice must be inside the series")
        walk = RandomWalkSpec(n=args.splice, sigma=args.sigma, x0=args.x0,
                              seed=args.seed)
        if args.coeffs is not None:
            coeffs, dim = args.coeffs, args.dim
        else:
            # Two-band chaotic segment placed at the walk's final level so
            # the deterministic half continues from where the walk stops.
            walk_end = float(_raw_walk_values(args.splice, args.sigma,
                                              args.x0, args.seed)[-1])
            scale = args.map_scale * args.sigma
            level = walk_end - 0.5 * scale
            coeffs = rescale_map_coefficients(
                logistic_map_coefficients(args.map_r), 1, level, scale)
            dim = 1
        noise = args.noise_sigma if args.noise_sigma else 0.01 * args.sigma
        map_spec = PolyMapSpec(n=args.n - args.splice, dim=dim,
                               coefficients=coeffs, noise_sigma=noise,
                               seed=args.seed + 1, bound=args.bound)
        spliced = gen_spliced(walk, map_spec, args.splice)
        series = spliced.series.with_name(name)
        truth["changepoint_index"] = spliced.changepoint
        truth["params"] = {
            "walk": {"sigma": args.sigma, "x0": args.x0, "n": args.splice},
            "map": {"dim": dim, "coefficients": list(coeffs),
                    "noise_sigma": noise, "seed": args.seed + 1},
        }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series_path = out_dir / "series.csv"
    truth_path = out_dir / "truth.json"
    write_text_atomic(series_path, format_csv_rows(
        "date,value", [d.isoformat() for d in series.dates], series.values))
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
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise ValueError(f"unknown command {args.command!r}")
    except BaseException as exc:  # noqa: BLE001 - CLI boundary
        if isinstance(exc, KeyboardInterrupt):
            raise
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
