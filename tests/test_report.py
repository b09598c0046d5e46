"""Report payload, artifact writing, and detection-verification tests."""

import dataclasses
import json
import math
import os
import stat
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference_io
from maxentcast import (DetectorConfig, ForecastFrame, ProtocolConfig,
                        RunConfig, SchemaMismatchError, WindowBuckets,
                        YearBuckets, build_payload, build_report_doc,
                        detect_tracks, dumps_canonical, gen_random_walk,
                        load_report, load_truth, parse_bucket,
                        run_from_config, summary_csv_text, verify_detection,
                        write_forecast_csvs, write_json_atomic,
                        write_run_artifacts, write_text_atomic)
from maxentcast import report as report_module
from maxentcast.cli import main as cli_main
from maxentcast.report import atomic_writer, bucket_text

from conftest import daily_series


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


SMALL_PROTOCOL = ProtocolConfig(dim=1, degree=1, fit_window=20,
                                anticipation=(1, 3),
                                bucketing=WindowBuckets(25))


def small_config(walk_csv, out_dir) -> RunConfig:
    return RunConfig(input_path=str(walk_csv), protocol=SMALL_PROTOCOL,
                     out_dir=str(out_dir))


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


def test_dumps_canonical_is_json_dumps_of_the_sanitized_object():
    from collections import OrderedDict
    from datetime import date
    from types import MappingProxyType
    obj = {"f": [1.5, -0.0, math.nan, np.float64(2.5), (True, None, 3)],
           "m": MappingProxyType({"z": date(2006, 8, 15), 2: "two"}),
           "o": OrderedDict(b=[{"x": math.inf}], a=False),
           "d": datetime(2006, 8, 15, 12, 30)}
    plain = {"f": [1.5, -0.0, None, 2.5, [True, None, 3]],
             "m": {"z": "2006-08-15", "2": "two"},
             "o": {"b": [{"x": None}], "a": False},
             "d": "2006-08-15T12:30:00"}
    text = json.dumps(plain, sort_keys=True, indent=2, allow_nan=False)
    assert dumps_canonical(obj) == text
    assert dumps_canonical("x") == '"x"'


def test_write_json_atomic_streams_dumps_canonical(tmp_path):
    doc = {"rows": [{"k": i, "v": i / 7} for i in range(20_000)]}
    write_json_atomic(tmp_path / "big.json", doc)
    assert ((tmp_path / "big.json").read_text(encoding="utf-8")
            == dumps_canonical(doc) + "\n")


# ---------------------------------------------------------- atomic writes

def test_write_text_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "sub" / "out.txt"
    write_text_atomic(target, "hello\n")
    assert target.read_text() == "hello\n"
    write_text_atomic(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]


def test_write_text_atomic_writes_long_text_whole(tmp_path):
    # longer than one encoded slice, with two-byte characters throughout
    text = "ab\u00e9\n" * 400_000
    write_text_atomic(tmp_path / "long.txt", text)
    assert (tmp_path / "long.txt").read_bytes() == text.encode("utf-8")


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
    proto = cfg.protocol
    assert (proto.dim, proto.lag, proto.degree) == (4, 1, 2)
    assert proto.fit_window == 700
    assert proto.anticipation == (7, 10, 13, 16)
    assert isinstance(proto.bucketing, YearBuckets)
    assert (cfg.detector.theta, cfg.detector.min_run) == (0.5, 2)
    assert cfg.rank_tolerance == 1e-10
    assert (cfg.date_col, cfg.value_col, cfg.date_format,
            cfg.gap_policy) == ("date", "value", "%Y-%m-%d", "ffill")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(input_path="x.csv", gap_policy="interpolate")
    for tolerance in (0.0, 1.0, 2.0, math.nan):
        with pytest.raises(ValueError):
            RunConfig(input_path="x.csv", rank_tolerance=tolerance)


def test_run_config_payload_echoes_every_field():
    cfg = RunConfig(input_path="x.csv",
                    protocol=ProtocolConfig(anticipation=[2, 4],
                                            bucketing=WindowBuckets(30)),
                    detector=DetectorConfig(theta=0.25, min_run=3))
    payload = cfg.to_payload()
    assert payload["anticipation"] == [2, 4]
    assert payload["bucket"] == "window:30"
    assert (payload["theta"], payload["min_run"]) == (0.25, 3)
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
        cfg = RunConfig(input_path=str(path), protocol=SMALL_PROTOCOL,
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
    frames = [track.frame for track in result.report.tracks]
    paths = write_forecast_csvs(tmp_path, frames, result.series.values)
    for frame, path in zip(frames, paths):
        lines = path.read_text().strip().split("\n")[1:]
        assert len(lines) == len(frame)
        for j, line in enumerate(lines):
            day, a_txt, p_txt = line.split(",")
            assert day == frame.target_date(j).isoformat()
            assert float(a_txt) == frame.actual[j]
            assert float(p_txt) == frame.predicted[j]


# ------------------------------------------------------ streamed artifacts

def assert_artifacts_match_reference(result, paths) -> None:
    """Every forecast CSV is the reference writer's text, summary.csv is
    summary_csv_text, and report.json is dumps_canonical of its document."""
    for track in result.report.tracks:
        text = paths[f"forecast_T{track.horizon}"].read_text(encoding="utf-8")
        assert text == reference_io.forecast_csv_text(track.frame)
    assert (paths["summary"].read_text(encoding="utf-8")
            == summary_csv_text(result.report))
    text = paths["report"].read_text(encoding="utf-8")
    doc = {"meta": json.loads(text)["meta"], "payload": build_payload(result)}
    assert text == dumps_canonical(doc) + "\n"


LONG_PROTOCOL = ProtocolConfig(dim=2, degree=1, fit_window=300,
                               anticipation=(1, 7, 16),
                               bucketing=WindowBuckets(250))


@pytest.fixture(scope="module")
def long_walk_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "long.csv"
    # long enough that every forecast file spans over two write chunks
    write_series_csv(path, gen_random_walk(3 * report_module._CHUNK_ROWS, 1.0,
                                           seed=8, name="long"))
    return path


def test_artifacts_match_reference_in_one_chunk(walk_csv, tmp_path):
    result = run_from_config(small_config(walk_csv, tmp_path / "run"))
    assert len(result.series) < report_module._CHUNK_ROWS
    assert_artifacts_match_reference(result, write_run_artifacts(result))


def test_artifacts_match_reference_over_chunks(long_walk_csv, tmp_path):
    cfg = RunConfig(input_path=str(long_walk_csv), protocol=LONG_PROTOCOL,
                    out_dir=str(tmp_path / "run"))
    result = run_from_config(cfg)
    lengths = [len(track.frame) for track in result.report.tracks]
    assert (len(set(lengths)) == 3
            and min(lengths) > 2 * report_module._CHUNK_ROWS)
    assert_artifacts_match_reference(result, write_run_artifacts(result))


def test_day_first_cli_run_matches_reference(tmp_path, capsys):
    walk = gen_random_walk(2_500, 1.0, seed=12, name="dayfirst")
    path = tmp_path / "dayfirst.csv"
    path.write_text("date,value\n" + "".join(
        f"{d:%d/%m/%Y},{float(v)!r}\n" for d, v in zip(walk.dates, walk.values)))
    out = tmp_path / "run"
    assert cli_main(["run", "--input", str(path), "--date-format", "%d/%m/%Y",
                     "--d", "2", "--np", "1", "--fit-window", "300",
                     "--anticipation", "7", "--anticipation", "13",
                     "--bucket", "window:250", "--out", str(out)]) == 0
    cfg = RunConfig(input_path=str(path), date_format="%d/%m/%Y",
                    protocol=ProtocolConfig(dim=2, degree=1, fit_window=300,
                                            anticipation=(7, 13),
                                            bucketing=WindowBuckets(250)),
                    out_dir=str(out))
    paths = {"report": out / "report.json", "summary": out / "summary.csv",
             "forecast_T7": out / "forecast_T7.csv",
             "forecast_T13": out / "forecast_T13.csv"}
    assert_artifacts_match_reference(run_from_config(cfg), paths)


def test_failed_walk_leaves_old_files(long_walk_csv, tmp_path, monkeypatch):
    cfg = RunConfig(input_path=str(long_walk_csv), protocol=LONG_PROTOCOL,
                    out_dir=str(tmp_path))
    result = run_from_config(cfg)
    paths = write_run_artifacts(result)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []

    def fail_on_second_chunk(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("disk on fire")
        return format_chunk(*args)

    format_chunk = report_module.forecast_csv_text
    monkeypatch.setattr(report_module, "forecast_csv_text",
                        fail_on_second_chunk)
    frames = [track.frame for track in result.report.tracks]
    # frames that differ from the ones written, so a partial write would show
    shifted = [dataclasses.replace(f, predicted=f.predicted + 1.0)
               for f in frames]
    with pytest.raises(RuntimeError, match="disk on fire"):
        write_forecast_csvs(tmp_path, shifted, result.series.values)
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not list(tmp_path.glob("*.tmp"))
    assert set(before) == {p.name for p in paths.values()}


def test_forecast_csvs_refuse_frames_they_cannot_stream(tmp_path):
    values = np.arange(10.0)
    dates = daily_series(values).dates

    def frame(times, actual, series_dates=dates):
        times = np.asarray(times)
        return ForecastFrame(times=times, target_times=times + 1,
                             series_dates=series_dates, actual=actual,
                             predicted=np.zeros(times.size), horizon=1)

    good = frame([0, 1, 2], values[1:4])
    gappy = frame([0, 2, 4], values[[1, 3, 5]])
    wrong = frame([0, 1, 2], values[1:4] + 0.5)
    negative_zero = frame([-1, 0], np.array([-0.0, 1.0]))
    other = frame([0, 1, 2], values[1:4],
                  daily_series(values, start=dates[0].replace(year=2001)).dates)
    for frames, message in (([gappy], "consecutive"),
                            ([wrong], "actual values"),
                            ([negative_zero], "actual values"),
                            ([good, other], "one series")):
        with pytest.raises(ValueError, match=message):
            write_forecast_csvs(tmp_path, frames, values)
        assert list(tmp_path.iterdir()) == []
    [path] = write_forecast_csvs(tmp_path, [good], values)
    assert path.read_text() == reference_io.forecast_csv_text(good)


def test_atomic_writer_removes_its_temp_file_on_error(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_writer(target) as fh:
            fh.write(b"new")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


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

def fake_payload(flag_sets, window_ends=(99, 199, 299, 399), first_start=0):
    """One-track payloads with PREDICTABLE flags at the given window indexes."""
    starts = (first_start, *(e + 1 for e in window_ends[:-1]))
    tracks = []
    for flags in flag_sets:
        windows = [{"start_index": s, "end_index": e}
                   for s, e in zip(starts, window_ends)]
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


def test_verify_truth_before_coverage():
    # forecast targets start at 707; a changepoint at 100 is not in window 0
    out = verify_detection(fake_payload([{0, 2}], window_ends=(831, 956, 1081),
                                        first_start=707),
                           {"changepoint_index": 100})
    track = out["tracks"][0]
    assert track["truth_window"] is None
    assert track["hit"] is False
    assert track["localization_error"] is None
    assert out["hit"] is False
    assert out["false_flags"] == 2


def test_verify_any_track_hit_wins():
    payload = fake_payload([set(), {3}])
    out = verify_detection(payload, {"changepoint_index": 250})
    assert out["hit"] is True
    assert [t["hit"] for t in out["tracks"]] == [False, True]
