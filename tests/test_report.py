"""Report payload, artifact writing, and detection-verification tests."""

import json
import math
import os
import stat
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from maxentcast import (RunConfig, SchemaMismatchError, WindowBuckets,
                        YearBuckets, build_payload, build_report_doc,
                        detect_tracks, dumps_canonical, forecast_csv_text,
                        gen_random_walk, load_report, load_truth,
                        parse_bucket, run_from_config, summary_csv_text,
                        verify_detection, write_json_atomic,
                        write_run_artifacts, write_text_atomic)
from maxentcast.report import bucket_text


def write_series_csv(path: Path, series) -> None:
    lines = ["date,value"]
    for day, v in zip(series.dates, series.values):
        lines.append(f"{day.isoformat()},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def walk_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "walk.csv"
    write_series_csv(path, gen_random_walk(120, 1.0, seed=5, name="walk"))
    return path


def small_config(walk_csv, out_dir) -> RunConfig:
    return RunConfig(input_path=str(walk_csv), dim=1, degree=1,
                     fit_window=20, anticipation=(1, 3),
                     bucket="window:25", out_dir=str(out_dir))


# ------------------------------------------------------------- bucketing

def test_parse_bucket():
    assert isinstance(parse_bucket("year"), YearBuckets)
    wb = parse_bucket("window:125")
    assert isinstance(wb, WindowBuckets) and wb.width == 125
    for bad in ("monthly", "window:abc", "window:", "Window:10", ""):
        with pytest.raises(ValueError):
            parse_bucket(bad)


def test_bucket_text_round_trip():
    for text in ("year", "window:7", "window:125"):
        assert bucket_text(parse_bucket(text)) == text


# ----------------------------------------------------------- canonical json

def test_dumps_canonical_key_order_and_types():
    a = dumps_canonical({"b": 1, "a": (1, 2)})
    b = dumps_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [1, 2], "b": 1}


def test_dumps_canonical_nonfinite_to_null():
    text = dumps_canonical({"x": math.nan, "y": math.inf, "z": -math.inf})
    assert json.loads(text) == {"x": None, "y": None, "z": None}


def test_dumps_canonical_dates_to_iso():
    from datetime import date
    text = dumps_canonical({"d": date(2006, 8, 15)})
    assert json.loads(text) == {"d": "2006-08-15"}


# ---------------------------------------------------------- atomic writes

def test_write_text_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "sub" / "out.txt"
    write_text_atomic(target, "hello\n")
    assert target.read_text() == "hello\n"
    write_text_atomic(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]


def test_write_text_atomic_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_text_atomic(tmp_path / "a.txt", "x\n")
        os.umask(0o002)
        write_text_atomic(tmp_path / "b.txt", "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "b.txt").stat().st_mode) == 0o664


def test_write_json_atomic_round_trips(tmp_path):
    target = tmp_path / "doc.json"
    write_json_atomic(target, {"k": [1.5, None]})
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"k": [1.5, None]}


# -------------------------------------------------------------- RunConfig

def test_run_config_defaults():
    cfg = RunConfig(input_path="x.csv")
    assert cfg.dim == 4 and cfg.lag == 1 and cfg.degree == 2
    assert cfg.fit_window == 700
    assert cfg.anticipation == (7, 10, 13, 16)
    assert cfg.bucket == "year"
    assert cfg.theta == 0.5 and cfg.min_run == 2
    assert cfg.rank_tolerance == 1e-10
    proto = cfg.protocol()
    assert (proto.dim, proto.degree, proto.fit_window) == (4, 2, 700)
    assert isinstance(proto.bucketing, YearBuckets)
    det = cfg.detector()
    assert (det.theta, det.min_run) == (0.5, 2)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(input_path="x.csv", gap_policy="interpolate")
    with pytest.raises(ValueError):
        RunConfig(input_path="x.csv", bucket="window:zero")


def test_run_config_payload_echoes_every_field():
    cfg = RunConfig(input_path="x.csv", anticipation=[2, 4])
    payload = cfg.to_payload()
    assert payload["anticipation"] == [2, 4]
    assert cfg.anticipation == (2, 4)
    assert set(payload) == {
        "input_path", "date_col", "value_col", "date_format", "gap_policy",
        "dim", "lag", "degree", "fit_window", "anticipation", "bucket",
        "theta", "min_run", "rank_tolerance", "standardize", "out_dir"}


# ---------------------------------------------------------- full pipeline

def test_payload_is_deterministic(walk_csv, tmp_path):
    cfg = small_config(walk_csv, tmp_path)
    first = dumps_canonical(build_payload(run_from_config(cfg)))
    second = dumps_canonical(build_payload(run_from_config(cfg)))
    assert first == second


def test_payload_shape(walk_csv, tmp_path):
    cfg = small_config(walk_csv, tmp_path)
    result = run_from_config(cfg)
    payload = build_payload(result)
    assert payload["schema_version"] == 1
    assert payload["config"] == cfg.to_payload()
    assert payload["series"]["n"] == 120
    assert payload["series"]["first_date"] == "2000-01-01"
    assert [t["horizon"] for t in payload["tracks"]] == [1, 3]
    for track in payload["tracks"]:
        assert track["n_forecasts"] == sum(w["n_points"]
                                           for w in track["windows"])
        assert len(track["detection"]["labels"]) == len(track["windows"])
        for w in track["windows"]:
            assert w["end_index"] >= w["start_index"]
        for cp in track["detection"]["changepoints"]:
            assert track["detection"]["labels"][cp["window_index"]]


def test_payload_counts_filled_business_days(tmp_path):
    days = np.busday_offset("2000-01-03", np.arange(120), roll="forward")
    values = gen_random_walk(120, 1.0, seed=5).values.tolist()
    left_out = {30, 61, 90}
    rows = [f"{d},{v!r}" for k, (d, v) in enumerate(zip(days.astype(str), values))
            if k not in left_out]
    path = tmp_path / "gappy.csv"
    path.write_text("date,value\n" + "\n".join(rows) + "\n")
    for policy, filled in (("ffill", 3), ("drop", 0)):
        cfg = RunConfig(input_path=str(path), dim=1, degree=1, fit_window=20,
                        anticipation=(1, 3), bucket="window:25",
                        gap_policy=policy, out_dir=str(tmp_path))
        series = build_payload(run_from_config(cfg))["series"]
        assert series["n_interpolated"] == filled
        assert series["n"] == 117 + filled


def test_report_doc_meta(walk_csv, tmp_path):
    cfg = small_config(walk_csv, tmp_path)
    payload = build_payload(run_from_config(cfg))
    doc = build_report_doc(payload)
    assert set(doc) == {"meta", "payload"}
    assert doc["payload"] is payload
    datetime.fromisoformat(doc["meta"]["created_utc"])
    assert doc["meta"]["generator"].startswith("maxentcast ")


def test_write_run_artifacts(walk_csv, tmp_path):
    cfg = small_config(walk_csv, tmp_path / "run")
    result = run_from_config(cfg)
    paths = write_run_artifacts(result)
    assert set(paths) == {"report", "forecast_T1", "forecast_T3", "summary"}
    payload = load_report(paths["report"])
    assert payload == build_payload(result)

    for track in result.report.tracks:
        csv_path = paths[f"forecast_T{track.horizon}"]
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "date,actual,predicted"
        assert len(lines) - 1 == track.frame.times.size
        day, actual, predicted = lines[1].split(",")
        datetime.fromisoformat(day)
        assert float(actual) == track.frame.actual[0]
        assert float(predicted) == track.frame.predicted[0]

    summary_lines = paths["summary"].read_text().strip().split("\n")
    assert summary_lines[0] == "period,T,rel_mse,baseline"
    n_windows = sum(len(t.windows) for t in result.report.tracks)
    assert len(summary_lines) - 1 == n_windows


def test_forecast_csv_floats_round_trip(walk_csv, tmp_path):
    cfg = small_config(walk_csv, tmp_path)
    result = run_from_config(cfg)
    frame = result.report.tracks[0].frame
    date_text = [d.isoformat() for d in result.series.dates]
    lines = forecast_csv_text(frame, date_text).strip().split("\n")[1:]
    for line, actual, predicted in zip(lines, frame.actual, frame.predicted):
        _, a_txt, p_txt = line.split(",")
        assert float(a_txt) == actual
        assert float(p_txt) == predicted


def test_summary_csv_blank_fields_for_degenerate_windows():
    window = SimpleNamespace(label="w000", rel_mse=math.nan,
                             baseline_rel_mse=math.nan)
    report = SimpleNamespace(tracks=[SimpleNamespace(horizon=7,
                                                     windows=[window])])
    assert summary_csv_text(report) == "period,T,rel_mse,baseline\nw000,7,,\n"


def test_detect_tracks_aligns_with_windows(walk_csv, tmp_path):
    cfg = small_config(walk_csv, tmp_path)
    result = run_from_config(cfg)
    for track, detection in zip(result.report.tracks, result.detections):
        assert detection.horizon == track.horizon
        assert len(detection.labels) == len(track.windows)
        for i in detection.changepoint_indices:
            assert 0 <= i < len(track.windows)


# ----------------------------------------------------------- file loading

def test_load_report_rejects_other_schema(tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"meta": {}, "payload": {"schema_version": 2}}))
    with pytest.raises(SchemaMismatchError):
        load_report(p)
    p.write_text(json.dumps({"results": []}))
    with pytest.raises(SchemaMismatchError):
        load_report(p)


def test_load_truth_rejects_other_schema(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"schema_version": 1, "kind": "random_walk",
                             "changepoint_index": None}))
    assert load_truth(p)["kind"] == "random_walk"
    p.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(SchemaMismatchError):
        load_truth(p)


# ------------------------------------------------------------ verification

def fake_payload(flag_sets, window_ends=(99, 199, 299, 399)):
    """One-track payloads with PREDICTABLE flags at the given window indexes."""
    tracks = []
    for flags in flag_sets:
        windows = [{"end_index": e} for e in window_ends]
        labels = [{"regime": "PREDICTABLE" if k in flags else "STOCHASTIC"}
                  for k in range(len(window_ends))]
        tracks.append({"horizon": 7, "windows": windows,
                       "detection": {"labels": labels}})
    return {"tracks": tracks}


def test_verify_exact_hit():
    out = verify_detection(fake_payload([{2}]),
                           {"changepoint_index": 250})
    assert out["hit"] is True
    assert out["false_flags"] == 0
    track = out["tracks"][0]
    assert track["truth_window"] == 2
    assert track["localization_error"] == 0


def test_verify_late_hit_and_early_false_flag():
    out = verify_detection(fake_payload([{0, 3}]),
                           {"changepoint_index": 250})
    track = out["tracks"][0]
    assert track["hit"] is True
    assert track["false_flags"] == 1
    assert track["localization_error"] == 0 - 2  # earliest flag minus truth


def test_verify_miss():
    out = verify_detection(fake_payload([set()]),
                           {"changepoint_index": 250})
    assert out["hit"] is False
    assert out["tracks"][0]["localization_error"] is None
    assert out["false_flags"] == 0


def test_verify_no_changepoint_truth():
    out = verify_detection(fake_payload([{1, 2}]),
                           {"changepoint_index": None})
    assert out["hit"] is None
    assert out["false_flags"] == 2
    assert out["tracks"][0]["hit"] is None


def test_verify_truth_beyond_coverage():
    out = verify_detection(fake_payload([{1}]),
                           {"changepoint_index": 5000})
    track = out["tracks"][0]
    assert track["truth_window"] is None
    assert track["hit"] is False
    assert out["false_flags"] == 1


def test_verify_any_track_hit_wins():
    payload = fake_payload([set(), {3}])
    out = verify_detection(payload, {"changepoint_index": 250})
    assert out["hit"] is True
    assert [t["hit"] for t in out["tracks"]] == [False, True]
