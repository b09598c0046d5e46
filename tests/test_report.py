"""Report payload, artifact writing, and detection-verification tests."""

import dataclasses
import json
import math
import os
import stat
from datetime import date, datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference_io
from maxentcast import (DetectorConfig, ForecastFrame, ProtocolConfig,
                        RunConfig, SchemaMismatchError, WindowBuckets,
                        YearBuckets, build_payload, build_report_doc,
                        changepoints, clean, dumps_canonical, gen_random_walk,
                        load_csv, load_report, load_truth, parse_bucket,
                        run_from_config, summary_csv_text, verify_detection,
                        write_forecast_csvs, write_json_atomic,
                        write_run_artifacts, write_text_atomic)
from maxentcast import report as report_module
from maxentcast.cli import main as cli_main
from maxentcast.report import atomic_writer, bucket_text

from conftest import daily_series


def write_series_csv(path: Path, series) -> None:
    lines = ["date,value"]
    for day, v in zip(series.days.tolist(), series.values):
        lines.append(f"{date.fromordinal(day).isoformat()},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def walk_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "walk.csv"
    write_series_csv(path, gen_random_walk(120, 1.0, seed=5))
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
    a = dumps_canonical({"b": 1, "a": [1, 2.5, "x", True, None]})
    b = dumps_canonical({"a": [1, 2.5, "x", True, None], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert json.loads(a) == {"a": [1, 2.5, "x", True, None], "b": 1}


def test_dumps_canonical_nonfinite_to_null():
    text = dumps_canonical({"x": math.nan, "y": math.inf, "z": -math.inf})
    assert json.loads(text) == {"x": None, "y": None, "z": None}


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


def test_run_config_stores_json_values(walk_csv, tmp_path):
    # path-like paths and NumPy floats are stored as the str and float the
    # payload holds, so the report can be written
    cfg = RunConfig(input_path=walk_csv, protocol=SMALL_PROTOCOL,
                    detector=DetectorConfig(theta=np.float64(0.5)),
                    rank_tolerance=np.float64(0.2), out_dir=tmp_path / "run")
    assert (type(cfg.input_path), type(cfg.out_dir)) == (str, str)
    assert (type(cfg.rank_tolerance), type(cfg.detector.theta)) == (float, float)
    assert cfg == RunConfig(input_path=str(walk_csv), protocol=SMALL_PROTOCOL,
                            rank_tolerance=0.2, out_dir=str(tmp_path / "run"))
    paths = write_run_artifacts(run_from_config(cfg))
    config = load_report(paths["report"])["config"]
    assert (config["input_path"], config["out_dir"]) == (
        str(walk_csv), str(tmp_path / "run"))
    assert (config["rank_tolerance"], config["theta"]) == (0.2, 0.5)


def test_run_config_stores_a_numpy_bool_standardize_as_a_bool(walk_csv,
                                                              tmp_path):
    cfg = RunConfig(input_path=walk_csv, protocol=SMALL_PROTOCOL,
                    standardize=np.True_, out_dir=tmp_path / "run")
    assert type(cfg.standardize) is bool and cfg.standardize
    paths = write_run_artifacts(run_from_config(cfg))
    assert load_report(paths["report"])["config"]["standardize"] is True
    assert '"standardize": true' in Path(paths["report"]).read_text()


@pytest.mark.parametrize("value", [1, 0, "yes", None, 1.0, np.int64(1)])
def test_run_config_refuses_a_standardize_that_is_not_a_bool(value):
    with pytest.raises(ValueError, match="standardize must be a bool"):
        RunConfig(input_path="x.csv", standardize=value)


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


def test_payload_dates_are_the_input_dates_at_each_index(tmp_path):
    # under "drop", series row i is data row i of the file; business days
    # with days left out keep the dates from following the index
    days = np.busday_offset("2000-01-03", np.arange(400), roll="forward")
    dates = [d for k, d in enumerate(days.astype(str).tolist()) if k % 7 != 3]
    values = gen_random_walk(len(dates), 1.0, seed=5).values.tolist()
    path = tmp_path / "gappy.csv"
    path.write_text("date,value\n" + "".join(
        f"{d},{v!r}\n" for d, v in zip(dates, values)))
    cfg = RunConfig(input_path=str(path), protocol=SMALL_PROTOCOL,
                    gap_policy="drop", out_dir=str(tmp_path),
                    detector=DetectorConfig(theta=0.99, min_run=1))
    payload = build_payload(run_from_config(cfg))
    series = payload["series"]
    assert (series["first_date"], series["last_date"]) == (dates[0], dates[-1])
    n_changepoints = 0
    for track in payload["tracks"]:
        windows = track["windows"]
        for w in windows:
            assert (w["start_date"], w["end_date"]) == (
                dates[w["start_index"]], dates[w["end_index"]])
        for cp in track["detection"]["changepoints"]:
            assert cp["date"] == windows[cp["window_index"]]["start_date"]
            n_changepoints += 1
    assert n_changepoints


def test_payload_dates_are_the_standard_library_iso_dates():
    # every day of years 1-1000 (the zero-padded years), a seeded sample up
    # to the last day a series may hold, and that day itself
    last = date(9999, 12, 31).toordinal()
    ordinals = np.concatenate([
        np.arange(1, date(1001, 1, 1).toordinal()),
        np.random.default_rng(28).integers(1, last, 20_000, endpoint=True),
        [last]])
    assert report_module._iso_dates(ordinals) == [
        date.fromordinal(o).isoformat() for o in ordinals.tolist()]


def test_run_before_year_1000_dates_its_payload_by_series_days(tmp_path):
    # a Sunday row, then business days with three left out and filled,
    # across the turn of the year 1000
    days = np.busday_offset("0999-12-02", np.arange(400), roll="forward")
    dates = ["0999-12-01"] + [d for k, d in enumerate(days.astype(str).tolist())
                              if k not in (5, 40, 41)]
    values = gen_random_walk(len(dates), 1.0, seed=5).values.tolist()
    path = tmp_path / "early.csv"
    path.write_text("date,value\n" + "".join(
        f"{d},{v!r}\n" for d, v in zip(dates, values)))
    out = tmp_path / "run"
    assert cli_main(["run", "--input", str(path), "--d", "1", "--np", "1",
                     "--fit-window", "20", "--anticipation", "1",
                     "--anticipation", "3", "--bucket", "window:25",
                     "--theta", "0.99", "--min-run", "1",
                     "--out", str(out)]) == 0
    iso = [date.fromordinal(d).isoformat()
           for d in clean(load_csv(path)).days.tolist()]
    payload = load_report(out / "report.json")
    series = payload["series"]
    assert (series["first_date"], series["last_date"]) == (iso[0], iso[-1])
    assert (series["first_date"], series["n"]) == ("0999-12-01", len(iso))
    n_changepoints = 0
    for track in payload["tracks"]:
        windows = track["windows"]
        for w in windows:
            assert (w["start_date"], w["end_date"]) == (
                iso[w["start_index"]], iso[w["end_index"]])
        for cp in track["detection"]["changepoints"]:
            assert cp["date"] == iso[windows[cp["window_index"]]["start_index"]]
            n_changepoints += 1
    assert n_changepoints


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


def test_report_meta_records_the_blas_thread_settings(walk_csv, tmp_path,
                                                      monkeypatch):
    result = run_from_config(small_config(walk_csv, tmp_path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    set_path = write_run_artifacts(result)["report"]
    set_doc = json.loads(set_path.read_text(encoding="utf-8"))
    assert set_doc["meta"]["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": None}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    unset_doc = build_report_doc(build_payload(result))
    assert unset_doc["meta"]["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": None}
    # meta only: the payload is the same whatever the settings
    assert dumps_canonical(set_doc["payload"]) == dumps_canonical(
        unset_doc["payload"])


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
        assert len(lines) - 1 == len(track.frame)
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
    paths = write_forecast_csvs(tmp_path, frames)
    days = result.series.days
    for frame, path in zip(frames, paths):
        lines = path.read_text().strip().split("\n")[1:]
        assert len(lines) == len(frame)
        for j, line in enumerate(lines):
            day, a_txt, p_txt = line.split(",")
            target = frame.first + frame.horizon + j
            assert day == date.fromordinal(int(days[target])).isoformat()
            assert float(a_txt) == frame.actual[j]
            assert float(p_txt) == frame.predicted[j]


# ------------------------------------------------------ streamed artifacts

def assert_artifacts_match_reference(result, paths) -> None:
    """Every forecast CSV is the reference writer's text, summary.csv is
    summary_csv_text, and report.json is the reference encoder's text of
    its document."""
    for track in result.report.tracks:
        text = paths[f"forecast_T{track.horizon}"].read_text(encoding="utf-8")
        assert text == reference_io.forecast_csv_text(track.frame)
    assert (paths["summary"].read_text(encoding="utf-8")
            == summary_csv_text(result.report))
    text = paths["report"].read_text(encoding="utf-8")
    doc = {"meta": json.loads(text)["meta"], "payload": build_payload(result)}
    assert text == reference_io.dumps_canonical(doc) + "\n"


LONG_PROTOCOL = ProtocolConfig(dim=2, degree=1, fit_window=300,
                               anticipation=(1, 7, 16),
                               bucketing=WindowBuckets(250))


@pytest.fixture(scope="module")
def long_walk_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "long.csv"
    # long enough that every forecast file spans over two write chunks
    write_series_csv(path, gen_random_walk(3 * report_module._CHUNK_ROWS, 1.0,
                                           seed=8))
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
    walk = gen_random_walk(2_500, 1.0, seed=12)
    path = tmp_path / "dayfirst.csv"
    path.write_text("date,value\n" + "".join(
        f"{date.fromordinal(d):%d/%m/%Y},{float(v)!r}\n"
        for d, v in zip(walk.days.tolist(), walk.values)))
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
        write_forecast_csvs(tmp_path, shifted)
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not list(tmp_path.glob("*.tmp"))
    assert set(before) == {p.name for p in paths.values()}


def test_forecast_csvs_refuse_frames_they_cannot_stream(tmp_path):
    # frames of two series objects, even with equal rows, are refused
    values = np.arange(10.0)
    good = ForecastFrame(series=daily_series(values), first=0, horizon=1,
                         predicted=np.zeros(3))
    other = dataclasses.replace(good, series=daily_series(values))
    with pytest.raises(ValueError, match="one series"):
        write_forecast_csvs(tmp_path, [good, other])
    assert list(tmp_path.iterdir()) == []
    [path] = write_forecast_csvs(tmp_path, [good])
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


def test_run_labels_align_with_windows(walk_csv, tmp_path):
    cfg = small_config(walk_csv, tmp_path)
    result = run_from_config(cfg)
    assert len(result.labels) == len(result.report.tracks)
    payload = build_payload(result)
    for track, labels, doc in zip(result.report.tracks, result.labels,
                                  payload["tracks"]):
        assert len(labels) == len(track.windows)
        assert [lab["window"] for lab in doc["detection"]["labels"]] == [
            w.label for w in track.windows]
        assert [cp["window_index"] for cp in doc["detection"]["changepoints"]
                ] == changepoints(labels)


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


def verified(hit, *tracks):
    """A verify result: the run's hit, and each track's horizon-7 entry
    from (hit, false_flags, localization_error[, truth_window])."""
    entries = [dict(zip(("hit", "false_flags", "localization_error",
                         "truth_window"), t), horizon=7) for t in tracks]
    return {"hit": hit, "false_flags": sum(t[1] for t in tracks),
            "tracks": entries}


def test_verify_exact_hit():
    out = verify_detection(fake_payload([{2}]),
                           {"changepoint_index": 250})
    assert out == verified(True, (True, 0, 0, 2))


def test_verify_late_hit_and_early_false_flag():
    # the localization error is the earliest flag less the truth window
    out = verify_detection(fake_payload([{0, 3}]),
                           {"changepoint_index": 250})
    assert out == verified(True, (True, 1, 0 - 2, 2))


def test_verify_miss():
    out = verify_detection(fake_payload([set()]),
                           {"changepoint_index": 250})
    assert out == verified(False, (False, 0, None, 2))


def test_verify_no_changepoint_truth():
    # without a changepoint no track has a truth_window key
    out = verify_detection(fake_payload([{1, 2}]),
                           {"changepoint_index": None})
    assert out == verified(None, (None, 2, None))


def test_verify_truth_beyond_coverage():
    out = verify_detection(fake_payload([{1}]),
                           {"changepoint_index": 5000})
    assert out == verified(False, (False, 1, None, None))


def test_verify_truth_before_coverage():
    # forecast targets start at 707; a changepoint at 100 is not in window 0
    out = verify_detection(fake_payload([{0, 2}], window_ends=(831, 956, 1081),
                                        first_start=707),
                           {"changepoint_index": 100})
    assert out == verified(False, (False, 2, None, None))


def test_verify_any_track_hit_wins():
    payload = fake_payload([set(), {3}])
    out = verify_detection(payload, {"changepoint_index": 250})
    assert out == verified(True, (False, 0, None, 2), (True, 0, 1, 2))


@pytest.mark.parametrize("labels", [
    # unrefused, the third label reads as a hit in a window that is not there
    ["STOCHASTIC", "STOCHASTIC", "PREDICTABLE"],
    ["PREDICTABLE"]])
def test_verify_refuses_a_track_without_one_label_per_window(labels):
    payload = fake_payload([set()], window_ends=(99, 199))
    payload["tracks"][0]["detection"]["labels"] = [{"regime": r}
                                                   for r in labels]
    for truth in (150, None):
        with pytest.raises(SchemaMismatchError, match="labels for 2 windows"):
            verify_detection(payload, {"changepoint_index": truth})


@pytest.mark.parametrize("path, value", [
    (("tracks", 0), []), (("tracks", 0, "horizon"), "7"),
    (("tracks", 0, "windows", 1, "start_index"), False),
    (("tracks", 0, "detection"), []),
    (("tracks", 0, "detection", "labels", 2, "regime"), 1)])
def test_verify_refuses_a_value_of_the_wrong_json_type(path, value):
    # with a changepoint and without one
    for truth in (250, None):
        payload = fake_payload([{2}])
        *parents, key = path
        node = payload
        for step in parents:
            node = node[step]
        node[key] = value
        with pytest.raises(SchemaMismatchError):
            verify_detection(payload, {"changepoint_index": truth})
