"""The fast text I/O paths against the reference implementations.

``reference_io`` keeps the straightforward row-by-row versions of
``load_csv``, ``clean`` and the CSV writers.  Every case here runs both and
requires the same series, the same exception type, message and line
number, or the same bytes.
"""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io as ref
from maxentcast import (GAP_POLICIES, ForecastFrame, ProtocolConfig,
                        RandomWalkSpec, TimeSeries, WindowBuckets, clean,
                        generate, load_csv, run_protocol,
                        write_forecast_csvs)
from maxentcast import ingest
from maxentcast.cli import main
from maxentcast.errors import ParseError
from maxentcast.report import _CHUNK_ROWS

MONDAY = date(2000, 1, 3)


def outcome(fn, *args, **kwargs):
    """What a call did: its result, or its exception's type, text and line."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "line_no", None),
                getattr(exc, "when", None))
    if isinstance(result, TimeSeries):
        assert result.days.dtype == np.int64
        return ("series", result.name, result.days.tobytes(),
                result.values.dtype, result.values.tobytes())
    return ("value", result)


def assert_same_load(path, **kwargs):
    expected = outcome(ref.load_csv, path, **kwargs)
    assert outcome(load_csv, path, **kwargs) == expected
    return expected


def assert_same_clean(series):
    for policy in GAP_POLICIES:
        assert outcome(clean, series, policy) == outcome(ref.clean, series, policy)


def write_lines(tmp_path, lines, name="in.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ------------------------------------------------------------------ load_csv

@pytest.mark.parametrize("lines, kwargs", [
    (["date,value", "2000-01-04,2", "2000-01-03,1", "2000-01-05,3"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04,2", "2000-01-03,3"], {}),
    (["date,value", "2000-01-03,1", "2000-01-08,2", "2000-01-10,3"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04,", "2000-01-05,3"], {}),
    (["date,value", "2000-01-03,nan", "2000-01-04,inf"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04,n/a"], {}),
    (["date,value", "2000-1-3,1", "2000-1-4,2"], {}),
    (["date,value", "2000-01-03,1", "20000104,2"], {}),
    (["date,value", "2000-01-03,1", "2000-02-30,2"], {}),
    (["date,value", "0000-01-03,1", "2000-01-04,2"], {}),
    (["date,value", " 2000-01-03 , 1 ", "2000-01-04,2"], {}),
    (["date,value", "2000-01-03,1", "", "", "2000-01-04,2", "", "x,3"], {}),
    (["date,value", "", "2000-01-03,1", "", "2000-01-03,2"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04"], {}),
    (["date,value", "2000-01-03", "2000-01-04,2"], {}),
    (["date,value,date", "2000-01-03,1,2000-01-05", "2000-01-04,2,2000-01-06"], {}),
    (["date,value,date", "2000-01-03,1,2000-01-05", "2000-01-04,2"], {}),
    (["value,x,date", "1,a,2000-01-04", "2,b,2000-01-03,extra,fields"], {}),
    (["day,value", "2000-01-03,1"], {}),
    (["", "date,value", "2000-01-03,1"], {}),
    (["date,value"], {}),
    (["date,value", "2000-01-03,1", "2000-01-04,1e400"], {}),
    (["when,rate", "03/01/2000,1", "4/1/2000,2", "2000-01-05,3"],
     {"date_col": "when", "value_col": "rate", "date_format": "%d/%m/%Y"}),
    (["when,rate", "03/01/2000,1", "04/01/2000,2"],
     {"date_col": "when", "value_col": "rate", "date_format": "%d/%m/%Y"}),
    (["date,value", "2000-01-03 00:00,1", "2000-01-04 00:00,2"],
     {"date_format": "%Y-%m-%d %H:%M"}),
    (["date,value", '"2000-01-03",1', '"2000-01-04","2"'], {}),
    (["date,value", "２０００-01-03,1", "2000-01-04,2"], {}),
])
def test_load_csv_cases(tmp_path, lines, kwargs):
    assert_same_load(write_lines(tmp_path, lines), **kwargs)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    expected = assert_same_load(path)
    assert expected[0] == "raised"


def _seeded_rows(seed, n=3000):
    """Business days with some left out, weekend rows and a shuffle."""
    rng = np.random.default_rng(seed)
    first = MONDAY.toordinal()
    ordinals = np.arange(first, first + n * 7 // 5)
    keep = ((ordinals - 1) % 7 < 5) & (rng.random(ordinals.size) > 0.02)
    keep |= rng.random(ordinals.size) < 0.01  # a few weekend rows
    days = [date.fromordinal(int(o)) for o in ordinals[keep]]
    values = rng.standard_normal(len(days)).cumsum()
    rows = [f"{d.isoformat()},{v!r}" for d, v in zip(days, values.tolist())]
    order = rng.permutation(len(rows)) if seed % 2 else np.arange(len(rows))
    return [rows[k] for k in order]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_load_and_clean_seeded(tmp_path, seed):
    rows = _seeded_rows(seed)
    path = write_lines(tmp_path, ["date,value", *rows])
    kind, *_ = assert_same_load(path)
    assert kind == "series"
    series = load_csv(path)
    assert_same_clean(series)
    dup = write_lines(tmp_path, ["date,value", *rows, rows[len(rows) // 2]],
                      name="dup.csv")
    assert assert_same_load(dup)[0] == "raised"


DATE_TEXT = st.one_of(
    st.dates(date(1999, 12, 20), date(2000, 2, 10)).map(date.isoformat),
    st.sampled_from(["2000-1-3", "20000103", "2000-02-30", "2000-13-01",
                     " 2000-01-04", "", "x"]),
)
VALUE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["", "nan", "-inf", "n/a", "1_0", " 2 "]),
)
ROW = st.one_of(
    st.tuples(DATE_TEXT, VALUE_TEXT).map(",".join),
    st.just(""),
    DATE_TEXT,
    st.tuples(DATE_TEXT, VALUE_TEXT, DATE_TEXT).map(",".join),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROW, max_size=25),
       header=st.sampled_from(["date,value", "value,date", "date,value,date"]))
def test_load_csv_matches_reference(tmp_path_factory, rows, header):
    path = write_lines(tmp_path_factory.mktemp("h"), [header, *rows])
    assert_same_load(path)


@settings(max_examples=60, deadline=None)
@given(days=st.lists(st.dates(date(2000, 1, 1), date(2000, 3, 1)),
                     min_size=2, max_size=40, unique=True))
def test_load_csv_matches_reference_day_first(tmp_path_factory, days):
    rows = [f"{d.day}/{d.month:02d}/{d.year},{k}" for k, d in enumerate(days)]
    path = write_lines(tmp_path_factory.mktemp("h"), ["date,value", *rows])
    assert_same_load(path, date_format="%d/%m/%Y")


# Raw files for both tokenizers.  A file of ASCII "\n"-ended lines without
# quotes is split by load_csv itself; CR or CRLF endings, a quoted field or
# a non-ASCII character send it through csv.reader.  str.strip removes
# "\x0b", "\x0c" and "\x1c" to "\x1f" around a field; bytes.strip and
# float do not remove the last four.
PAD = st.one_of(st.just(""), st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f",
                                      min_size=1, max_size=2))
GOOD_DATE = st.dates(date(1999, 12, 27), date(2001, 1, 31)).map(date.isoformat)
ODD_DATE = st.sampled_from(["2000-1-3", "2000-02-30", "20000103", "0000-01-03",
                            "2000-13-01", "", "x"])
GOOD_VALUE = st.floats(allow_nan=False, allow_infinity=False,
                       width=32).map(repr)
ODD_VALUE = st.sampled_from(["", "nan", "inf", "-inf", "NaN", "n/a", "1_0",
                             "1,5", "1e400"])
WIDE = st.sampled_from(["２０００-01-03", "１", "2000-01-0３"])
OTHER = st.sampled_from(["", "a", "q,r", "b\nc"])
HEADERS = ["date,value", "value,date", "date,value,date",
           "x,date,value,value", "date, value"]


@st.composite
def raw_csv(draw):
    """The text of a CSV file in one of several layouts."""
    quoted = draw(st.booleans())
    endings = draw(st.sampled_from([["\n"], ["\n"], ["\r\n"],
                                    ["\n", "\r\n", "\r"]]))
    odd, padded, wide = (draw(st.sampled_from([False, False, True]))
                         for _ in range(3))
    header = draw(st.sampled_from(HEADERS))
    names = header.split(",")
    cores = {"date": GOOD_DATE, "value": GOOD_VALUE}
    if odd:
        cores = {"date": st.one_of(GOOD_DATE, ODD_DATE),
                 "value": st.one_of(GOOD_VALUE, ODD_VALUE)}
    if wide:
        cores = {name: st.one_of(core, core, WIDE)
                 for name, core in cores.items()}

    def field(name):
        text = draw(cores.get(name, OTHER))
        if padded:
            text = draw(PAD) + text + draw(PAD)
        if quoted and draw(st.booleans()):
            return '"' + text.replace('"', '""') + '"'
        return text.replace("\n", " ")

    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["full"] * 6 + ["short", "long",
                                                     "blank"]))
        if shape == "blank":
            lines.append("")
            continue
        fields = [field(name) for name in names]
        if shape == "short":
            fields = fields[:draw(st.integers(1, len(fields) - 1))]
        elif shape == "long":
            fields.append(field("value"))
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(endings)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _tokenizers(monkeypatch):
    """Count the chunks each tokenizer yields while the test runs."""
    used = {"split": 0, "reader": 0}
    for name, key in (("_split_chunks", "split"), ("_reader_chunks", "reader")):
        original = getattr(ingest, name)

        def counted(*args, _original=original, _key=key):
            for chunk in _original(*args):
                used[_key] += 1
                yield chunk

        monkeypatch.setattr(ingest, name, counted)
    return used


@settings(max_examples=400, deadline=None)
@given(text=raw_csv())
def test_both_tokenizers_match_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("raw") / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_load(path)


def test_plain_files_take_the_split_tokenizer(tmp_path, monkeypatch):
    used = _tokenizers(monkeypatch)
    rows = ["2000-01-03,1", "2000-01-04,2"]
    assert_same_load(write_lines(tmp_path, ["date,value", *rows]))
    assert used == {"split": 1, "reader": 0}
    for text in ("date,value\r\n2000-01-03,1\r\n2000-01-04,2\r\n",
                 'date,value\n"2000-01-03",1\n2000-01-04,2\n',
                 "date,value\n2000-01-03,1\n2000-01-04,２\n"):
        used.update(split=0, reader=0)
        path = tmp_path / "other.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_load(path)
        assert used["split"] == 0 and used["reader"] > 0


def _day_lines(n):
    """n fixed-width lines on consecutive days, 21 bytes each."""
    first = MONDAY.toordinal()
    return [f"{date.fromordinal(first + k).isoformat()},{10 + k % 90}.{k:06d}"
            for k in range(n)]


def _chunk_edges(monkeypatch, path):
    """The first and last line of each chunk load_csv parses."""
    edges = []
    original = ingest._parse_fields

    def spy(chunk, *args):
        edges.append((int(chunk.lines[0]), int(chunk.lines[-1])))
        return original(chunk, *args)

    monkeypatch.setattr(ingest, "_parse_fields", spy)
    try:
        load_csv(path)
    except ParseError:
        pass
    monkeypatch.setattr(ingest, "_parse_fields", original)
    return edges


def _edit(lines, line_no, kind):
    """Break file line line_no (the header is line 1) without changing its
    width, so every chunk keeps its lines."""
    k = line_no - 2
    day, value = lines[k].split(",")
    if kind == "bad value":
        value = "x" * len(value)
    elif kind == "bad date":
        day = day[:5] + "13" + day[7:]
    else:  # a duplicate of the line before
        day = lines[k - 1].split(",")[0]
    lines[k] = f"{day},{value}"


@pytest.mark.parametrize("crlf", [False, True])
@pytest.mark.parametrize("kind", ["bad value", "bad date", "duplicate"])
@pytest.mark.parametrize("edge", [0, 1])
def test_errors_on_chunk_edges_match_reference(tmp_path, monkeypatch, crlf,
                                               kind, edge):
    monkeypatch.setattr(ingest, "_PARSE_CHUNK_BYTES", 300)
    monkeypatch.setattr(ingest, "_PARSE_CHUNK_ROWS", 16)
    end = "\r\n" if crlf else "\n"
    lines = _day_lines(100)
    path = tmp_path / "in.csv"
    path.write_bytes(("date,value" + end + end.join(lines) + end).encode())
    edges = _chunk_edges(monkeypatch, path)
    assert len(edges) > 3 and edges[0][0] == 2
    assert all(a[1] < b[0] for a, b in zip(edges, edges[1:]))
    for chunk in (1, len(edges) - 2):
        line_no = edges[chunk][edge]
        broken = list(lines)
        _edit(broken, line_no, kind)
        path.write_bytes(("date,value" + end + end.join(broken) + end)
                         .encode())
        seen = _chunk_edges(monkeypatch, path)
        assert seen == edges[:len(seen)]  # the edit moved no chunk edge
        result = assert_same_load(path)
        assert result[0] == "raised" and result[3] == line_no


def test_errors_on_full_size_chunk_edges(tmp_path, monkeypatch):
    lines = _day_lines(110_000)
    path = tmp_path / "in.csv"
    path.write_text("date,value\n" + "\n".join(lines) + "\n")
    edges = _chunk_edges(monkeypatch, path)
    assert len(edges) == 3
    for kind, line_no in (("bad value", edges[1][0]),
                          ("bad date", edges[0][1]),
                          ("duplicate", edges[1][0])):
        broken = list(lines)
        _edit(broken, line_no, kind)
        path.write_text("date,value\n" + "\n".join(broken) + "\n")
        seen = _chunk_edges(monkeypatch, path)
        assert seen == edges[:len(seen)]  # the edit moved no chunk edge
        result = assert_same_load(path)
        assert result[0] == "raised" and result[3] == line_no


# --------------------------------------------------------------------- clean

@pytest.mark.parametrize("offsets, values", [
    ([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0]),
    ([0, 3, 7, 8], [1.0, 2.0, 3.0, 4.0]),            # a gap over a weekend
    ([0, 5, 6, 7], [1.0, 2.0, 3.0, 4.0]),            # weekend rows after a gap
    ([4, 6, 12], [1.0, 2.0, 3.0]),                   # Friday, Sunday, Saturday
    ([-2, 0, 1], [1.0, 2.0, 3.0]),                   # a leading weekend row
    ([0, 1, 9], [1.0, -2.0, 3.0]),                   # five absent days
    ([0, 14], [-0.0, 5e-324]),
    ([4, 5], [1.0, 2.0]),                             # Friday, Saturday
])
def test_clean_cases(offsets, values):
    days = MONDAY.toordinal() + np.array(offsets)
    assert_same_clean(TimeSeries("t", days, np.array(values)))


@settings(max_examples=120, deadline=None)
@given(days=st.lists(st.integers(0, 60), min_size=2, max_size=40, unique=True),
       values=st.lists(st.floats(-50, 50), min_size=40, max_size=40))
def test_clean_matches_reference(days, values):
    days.sort()
    series_days = date(1999, 12, 30).toordinal() + np.array(days)
    assert_same_clean(TimeSeries("t", series_days, np.array(values[:len(days)])))


# ---------------------------------------------------------------- CSV output

@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2 * 1024 + 7,
                               _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                               2 * _CHUNK_ROWS + 7])
def test_forecast_csv_matches_reference(n, tmp_path):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    # a series holds only finite values; a prediction may be any float
    values[:5] = [-0.0, 5e-324, 1.7976931348623157e308, -2.5e-308, 0.1][:n]
    predicted = -values
    predicted[5:8] = [math.inf, -math.inf, math.nan][:max(n - 5, 0)]
    # three series rows come before the frame's first target
    series = TimeSeries("t", MONDAY.toordinal() + np.arange(n + 3),
                        np.concatenate([rng.standard_normal(3), values]))
    frame = ForecastFrame(series=series, first=0, horizon=3,
                          predicted=predicted)
    [path] = write_forecast_csvs(tmp_path, [frame])
    assert path.name == "forecast_T3.csv"
    assert path.read_text(encoding="utf-8") == ref.forecast_csv_text(frame)


def test_forecast_csv_of_a_run_matches_reference(tmp_path):
    walk = generate(RandomWalkSpec(n=3000, sigma=1.0, seed=11))
    report = run_protocol(walk, ProtocolConfig(dim=2, degree=1, fit_window=300,
                                               anticipation=(7, 16),
                                               bucketing=WindowBuckets(250)))
    frames = [track.frame for track in report.tracks]
    paths = write_forecast_csvs(tmp_path, frames)
    for frame, path in zip(frames, paths):
        assert path.read_text(encoding="utf-8") == ref.forecast_csv_text(frame)


@pytest.mark.parametrize("kind, extra", [
    ("walk", []),
    ("spliced", ["--splice", "1500"]),
    ("map", ["--coeffs", "0,3.7,-3.7", "--init", "0.3"]),  # values in (0, 1)
])
def test_synth_csv_matches_reference(tmp_path, capsys, kind, extra):
    assert main(["synth", "--kind", kind, "--n", "2500", "--seed", "4",
                 "--out", str(tmp_path), *extra]) == 0
    written = (tmp_path / "series.csv").read_text(encoding="utf-8")
    series = load_csv(tmp_path / "series.csv")
    assert written == ref.series_csv_text(series)
