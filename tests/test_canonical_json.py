"""The JSON writer against the standard library's ``indent=2`` encoder.

``reference_io.dumps_canonical`` sanitizes a copy of the object and hands
it to ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``.
``dumps_canonical`` and ``write_json_atomic`` must give the same text on
any JSON value (dicts with str keys, lists, str, int, float, bool and
None), raise a ``TypeError`` on anything else, and write the same bytes
end to end through the command line.
"""

import math
import re
from contextlib import contextmanager
from datetime import date, datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from maxentcast import Regime, dumps_canonical, write_json_atomic
from maxentcast import report as report_module
from maxentcast.cli import main
from test_cli import big_walk_csv


TRICKY = ["%", "%s", "%%(x)s", '"', "\\", "\x00", "\x1f", "\n\t", "é",
          " ", "\U0001f600", "1", "True", "None", ""]

floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([-0.0, math.nan, math.inf, -math.inf,
                                    1e160, 5e-324]))
texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY))
ints = st.one_of(st.integers(-10, 10), st.integers(-2**70, 2**70))
leaves = st.one_of(st.none(), st.booleans(), ints, floats, texts)

# Columns of one type, of mixed types, and of lists and dicts, which send
# their batch through the per-item recursion.
COLUMNS = [floats, st.one_of(floats, st.none()), ints,
           st.one_of(ints, st.booleans()), st.booleans(), texts, leaves,
           st.lists(ints, max_size=2),
           st.dictionaries(texts, ints, max_size=2)]


@st.composite
def record_lists(draw):
    """Lists of dicts that mostly share one key set; some rows drop a key
    or add one part way through."""
    names = draw(st.lists(texts, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(COLUMNS)) for _ in names]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = {name: draw(kind) for name, kind in zip(names, kinds)}
        change = draw(st.sampled_from(["same"] * 4 + ["drop", "add"]))
        if change == "drop" and row:
            row.pop(draw(st.sampled_from(sorted(row))))
        elif change == "add":
            row[draw(texts)] = draw(leaves)
        rows.append(row)
    return rows


nested = st.recursive(
    st.one_of(leaves, record_lists()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40)


def assert_same_text(obj, tmp_path):
    expected = reference_io.dumps_canonical(obj)
    assert dumps_canonical(obj) == expected
    write_json_atomic(tmp_path / "doc.json", obj)
    assert (tmp_path / "doc.json").read_bytes() == (expected + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(obj=nested, rows=st.integers(1, 4))
def test_writer_matches_the_standard_encoder(tmp_path_factory, obj, rows):
    # small batches, so lists split into several batches
    with mock.patch.object(report_module, "_JSON_BATCH_ROWS", rows):
        assert_same_text(obj, tmp_path_factory.mktemp("json"))


def test_writer_matches_on_named_shapes(tmp_path):
    obj = {
        "floats": [1.5, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e160],
        "scalars": [0, -1, 2**70, True, False, None],
        "keys": [{"1": "one", "10": "ten", "9": "nine", "": "empty"},
                 {"True": True, "None": None, "true": "str"}],
        "%s": {'"': "\x00é%", "": [], "{}": {}},
        "records": [{"a": 1, "b": math.nan}, {"a": True, "b": None},
                    {"a": 2, "b": [1]}, {"a": 3}, {"a": 4, "c": 5}],
        "templated": [{"%s": 1, "b%": 2.5, "%(x)s": "%d"}] * 3,
    }
    assert_same_text(obj, tmp_path)
    for shape in ([], {}, [{}], [[]], "x", 0, None, math.nan):
        assert_same_text(shape, tmp_path)


def test_flat_records_are_written_a_batch_at_a_time():
    # 1,100 flat records are three template pieces of 512, 512 and 76
    # records; a nested value sends only its own batch through the per-item
    # recursion
    mixed = [1.5, math.nan, -0.0, 7, True, None, "%s"]
    rows = [{"x": [2.5, math.nan, -0.0, -math.inf][i % 4], "n": i - 550,
             "ok": i % 3 == 0, "s": f"r{i}%", "none": None,
             "mixed": mixed[i % len(mixed)]} for i in range(1100)]

    def piece(batch):
        return reference_io.dumps_canonical(batch)[len("[\n  "):-len("\n]")]

    sep = ",\n  "
    flat = [piece(rows[:512]), piece(rows[512:1024]), piece(rows[1024:])]
    assert list(report_module._json_pieces(rows)) == [
        "[\n  ", flat[0], sep, flat[1], sep, flat[2], "\n]"]
    rows[600]["s"] = ["nested"]
    pieces = list(report_module._json_pieces(rows))
    assert pieces[:3] == ["[\n  ", flat[0], sep]
    assert pieces[-3:] == [sep, flat[2], "\n]"]
    assert len(pieces) > 6 + 512
    assert "".join(pieces) == reference_io.dumps_canonical(rows)


def assert_writer_refuses(obj, tmp_path):
    """Both writers raise a TypeError on obj, and no file is left."""
    with pytest.raises(TypeError) as got:
        dumps_canonical(obj)
    with pytest.raises(TypeError):
        write_json_atomic(tmp_path / "bad.json", obj)
    assert list(tmp_path.iterdir()) == []
    return got.value


# The first five leaves the standard library's encoder refuses too; the
# rest it would write, but none is one of JSON's own types.
@pytest.mark.parametrize("leaf", [object(), np.int64(1), np.bool_(True),
                                  {1, 2}, b"bytes", (1, 2), date(2006, 8, 15),
                                  datetime(2006, 8, 15, 12, 30),
                                  np.float64(2.5), Regime.PREDICTABLE])
@pytest.mark.parametrize("where", [
    lambda v: v,
    lambda v: {"k": v},
    lambda v: [1.0, v],
    lambda v: [{"a": 1, "b": 2.0}] * 3 + [{"a": 1, "b": v}],
])
def test_unsupported_leaf_is_type_error(leaf, where, tmp_path):
    got = assert_writer_refuses(where(leaf), tmp_path)
    assert str(got) == (f"Object of type {type(leaf).__name__} "
                        "is not JSON serializable")


@pytest.mark.parametrize("obj", [
    {1: "int"}, {"a": 1, 2: "int"}, {None: 1}, {Regime.PREDICTABLE: 1},
    [{"a": {2.5: 1}}], [{"a": 1}] * 3 + [{"a": 1, 1: 2}],
])
def test_key_that_is_not_a_str_is_type_error(obj, tmp_path):
    assert_writer_refuses(obj, tmp_path)


# ------------------------------------------------------------- end to end

def oracle_pieces(obj, level=0):
    yield reference_io.dumps_canonical(obj)


def cli_files(capsys, out, argvs):
    """Run each command line and return its standard output and the JSON
    files it wrote under out, with ``created_utc`` blanked and out named
    ``<out>``."""
    for argv in argvs:
        assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    files = {p.relative_to(out).as_posix(): re.sub(
                 rb'"created_utc": "[^"]*"', b'"created_utc": ""',
                 p.read_bytes()).replace(str(out).encode(), b"<out>")
             for p in sorted(out.rglob("*.json"))}
    return files, stdout


def assert_cli_bytes_match_oracle(capsys, tmp_path, argvs):
    runs = {}
    for name in ("new", "oracle"):
        out = tmp_path / name
        lines = [[arg.replace("{out}", str(out)) for arg in argv]
                 for argv in argvs]
        with mock.patch.object(report_module, "_json_pieces",
                               report_module._json_pieces if name == "new"
                               else oracle_pieces):
            runs[name] = cli_files(capsys, out, lines)
    assert runs["new"][0], "no JSON file was written"
    assert runs["new"] == runs["oracle"]


def test_cli_json_matches_oracle_over_several_batches(capsys, tmp_path):
    # 675 windows per track: each list spans two row batches, and the
    # report several writes
    assert_cli_bytes_match_oracle(capsys, tmp_path, [
        ["synth", "--kind", "spliced", "--n", "3000", "--splice", "2000",
         "--seed", "4", "--out", "{out}/data"],
        ["run", "--input", "{out}/data/series.csv", "--d", "2", "--np", "1",
         "--fit-window", "300", "--anticipation", "7", "--anticipation", "13",
         "--bucket", "window:4", "--standardize", "--rank-tol", "0.2",
         "--out", "{out}/run"],
        ["verify", "--report", "{out}/run/report.json",
         "--truth", "{out}/data/truth.json"],
    ])
    report = (tmp_path / "new" / "run" / "report.json").read_text()
    windows = report.count('"baseline_rel_mse"')
    assert windows > 2 * report_module._JSON_BATCH_ROWS


class WriteLog:
    """A file handle that records the size of each write."""

    def __init__(self, fh):
        self.fh, self.sizes = fh, []

    def write(self, data):
        self.sizes.append(len(data))
        return self.fh.write(data)


def test_report_is_written_a_piece_at_a_time(capsys, tmp_path, monkeypatch):
    # 1,350 windows per track: the whole text is never held at once, so
    # no write holds more than a quarter of the file
    logs = {}
    atomic_writer = report_module.atomic_writer

    @contextmanager
    def logged_writer(path):
        with atomic_writer(path) as fh:
            yield logs.setdefault(Path(path).name, WriteLog(fh))

    monkeypatch.setattr(report_module, "atomic_writer", logged_writer)
    for argv in (["synth", "--kind", "spliced", "--n", "3000", "--splice",
                  "2000", "--seed", "4", "--out", str(tmp_path / "data")],
                 ["run", "--input", str(tmp_path / "data" / "series.csv"),
                  "--d", "2", "--np", "1", "--fit-window", "300",
                  "--anticipation", "7", "--anticipation", "13",
                  "--bucket", "window:2", "--out", str(tmp_path / "run")]):
        assert main(argv) == 0
    report = (tmp_path / "run" / "report.json").read_bytes()
    windows = report.count(b'"baseline_rel_mse"')
    assert windows > 4 * report_module._JSON_BATCH_ROWS
    sizes = logs["report.json"].sizes
    assert sum(sizes) == len(report)
    assert len(sizes) > 1 and max(sizes) <= len(report) / 4


def test_cli_json_matches_oracle_with_degenerate_windows(capsys, tmp_path,
                                                         write_csv):
    # flat stretches make windows whose actual values do not vary
    walk = np.cumsum(np.random.default_rng(2).standard_normal(600))
    values = np.concatenate([walk, np.full(200, 3.25),
                             np.linspace(0.0, 1.0, 200)])
    days = np.busday_offset(np.datetime64("2000-01-03"),
                            np.arange(values.size), roll="forward")
    path = write_csv([f"{d},{float(v)!r}"
                      for d, v in zip(np.datetime_as_string(days), values)])
    assert_cli_bytes_match_oracle(capsys, tmp_path, [
        ["run", "--input", str(path), "--d", "2", "--np", "1",
         "--fit-window", "300", "--bucket", "window:50", "--out", "{out}"],
    ])
    report = (tmp_path / "new" / "report.json").read_text()
    assert '"degenerate": true' in report and '"rel_mse": null' in report


def test_cli_json_matches_oracle_near_overflow(capsys, tmp_path, write_csv):
    assert_cli_bytes_match_oracle(capsys, tmp_path, [
        ["run", "--input", str(big_walk_csv(write_csv)), "--np", "1",
         "--out", "{out}"],
    ])


def test_synth_truth_matches_oracle(capsys, tmp_path):
    assert_cli_bytes_match_oracle(capsys, tmp_path, [
        ["synth", "--kind", "walk", "--n", "50", "--seed", "3",
         "--out", "{out}/walk"],
        ["synth", "--kind", "spliced", "--n", "400", "--splice", "300",
         "--seed", "2", "--out", "{out}/spliced"],
        ["synth", "--kind", "map", "--n", "10", "--seed", "0", "--dim", "1",
         "--coeffs", "0,1", "--init", "0.7", "--out", "{out}/map"],
    ])
