"""Delay-embedding polynomial forecasting with predictability-regime detection.

The pipeline: ingest a daily series, embed it into delay vectors, fit a
full polynomial map by the minimum-norm (pseudoinverse) least-squares
estimate, score rolling out-of-sample windows against a matched-horizon
naive baseline, and flag stretches where the series becomes anomalously
predictable.
"""

from . import rng
from ._version import __version__
from .design import (EmbedConfig, count_coefficients, embed, feature_matrix,
                     monomial_labels, monomial_terms)
from .detect import (DetectorConfig, Regime, RegimeLabel, changepoints,
                     classify, detection_outcome)
from .errors import (DivergentOrbitError, EmptySeriesError, GapError,
                     InfeasibleWindowError, MaxentcastError,
                     NumericalFailureError, ParseError, SchemaMismatchError)
from .evaluate import (ErrorWindow, ForecastTrack, PredictabilityReport,
                       ProtocolConfig, WindowBuckets, YearBuckets,
                       error_by_period, run_protocol)
from .ingest import GAP_POLICIES, TimeSeries, clean, load_csv
from .model import (FitDiagnostics, FittedModel, ForecastFrame, fit,
                    fit_batch, forecast_batch, forecast_series)
from .report import (REPORT_SCHEMA_VERSION, TRUTH_SCHEMA_VERSION, RunConfig,
                     RunResult, build_payload, build_report_doc,
                     dumps_canonical, forecast_csv_text, load_report,
                     load_truth, parse_bucket, run_from_config,
                     summary_csv_text, verify_detection, write_forecast_csvs,
                     write_json_atomic, write_run_artifacts, write_text_atomic)
from .synth import (PolyMapSpec, RandomWalkSpec, SplicedSeries, SplicedSpec,
                    gen_random_walk, gen_spliced, generate,
                    logistic_map_coefficients, logistic_splice,
                    rescale_map_coefficients)

__all__ = [
    "EmbedConfig", "count_coefficients", "embed", "feature_matrix",
    "monomial_labels", "monomial_terms",
    "DetectorConfig", "Regime", "RegimeLabel", "changepoints", "classify",
    "detection_outcome",
    "DivergentOrbitError", "EmptySeriesError", "GapError",
    "InfeasibleWindowError", "MaxentcastError", "NumericalFailureError",
    "ParseError", "SchemaMismatchError",
    "ErrorWindow", "ForecastTrack", "PredictabilityReport", "ProtocolConfig",
    "WindowBuckets", "YearBuckets", "error_by_period", "run_protocol",
    "GAP_POLICIES", "TimeSeries", "clean", "load_csv",
    "FitDiagnostics", "FittedModel", "ForecastFrame", "fit", "fit_batch",
    "forecast_batch", "forecast_series",
    "REPORT_SCHEMA_VERSION", "TRUTH_SCHEMA_VERSION", "RunConfig", "RunResult",
    "build_payload", "build_report_doc", "dumps_canonical",
    "forecast_csv_text", "load_report", "load_truth", "parse_bucket",
    "run_from_config", "summary_csv_text", "verify_detection",
    "write_forecast_csvs", "write_json_atomic", "write_run_artifacts",
    "write_text_atomic",
    "PolyMapSpec", "RandomWalkSpec", "SplicedSeries", "SplicedSpec",
    "gen_random_walk", "gen_spliced", "generate",
    "logistic_map_coefficients", "logistic_splice",
    "rescale_map_coefficients",
    "rng", "__version__",
]
