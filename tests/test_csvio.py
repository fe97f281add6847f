import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simthresh.csvio import _cell, format_csv, read_csv, read_lines, write_csv
from simthresh.evaluation import RunScores, write_metric_report
from simthresh.neighbors import NeighborCurve, read_curve_csv, write_curve_csv
from simthresh.threshold import ThresholdResult, write_threshold_csv
from simthresh.uncertainty import (
    HistogramConfig,
    SimilarityHistogram,
    UncertaintyCurve,
    write_histogram_csv,
    write_uncertainty_csv,
)


class TestCodec:
    @pytest.mark.parametrize("value, text", [
        (np.float64(0.1), "0.1"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.int64(5), "5"),
        (np.bool_(True), "True"),
        (True, "True"),
        (7, "7"),
        (0.25, "0.25"),
        (float("-inf"), "-inf"),
        (None, ""),
    ], ids=["float64", "float32", "int64", "numpy-bool", "bool", "int", "float", "float-inf", "none"])
    def test_cell(self, value, text):
        # csvio tells floats from integers without importing numpy; numpy's scalars must write as before.
        assert _cell(value) == text

    def test_layout(self):
        text = format_csv(["name", "x", "n", "gap"], [("a", 0.1, 3, None), ("b", np.float64(1e-300), 0, 2.5)],
                          ["source=test"])
        assert text == "# source=test\nname,x,n,gap\na,0.1,3,\nb,1e-300,0,2.5\n"

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        values = [1 / 3, -0.0, 1e-17, 12345.678901234567]
        write_csv(path, ["i", "v", "blank"], [(i, v, None) for i, v in enumerate(values)], ["k=v", "n=2"])
        comments, rows = read_csv(path)
        assert comments == ["k=v", "n=2"]
        assert [float(r["v"]) for r in rows] == values
        assert [r["blank"] for r in rows] == [""] * len(values)

    def test_skips_blank_lines_and_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a=1\n\na,b\n\n1,2\n# late\n3,4\n")
        comments, rows = read_csv(str(path))
        assert comments == ["a=1", "late"]
        assert rows == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]


# Python 3.10's csv module fails on NUL ("line contains NUL"), which read_csv reports with the file and line
TEXT = st.text(st.characters(blacklist_categories=("Cs",),  # surrogates have no UTF-8 form
                             blacklist_characters="\x00" if sys.version_info < (3, 11) else ""), max_size=6)


@st.composite
def tables(draw):
    """Comments, a header of distinct names and rows of its width, over any text (comments: one trimmed line)."""
    header = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(TEXT, min_size=len(header), max_size=len(header)), max_size=4))
    comments = draw(st.lists(TEXT.map(str.strip).filter(lambda c: "\n" not in c), max_size=2))
    return comments, header, rows


@settings(max_examples=300, deadline=None)
@given(tables())
def test_any_table_reads_back(tmp_path_factory, table):
    # a comma, a double quote, a line break, a leading '#' or whitespace, or a lone empty field once read back wrong
    comments, header, rows = table
    path = tmp_path_factory.getbasetemp() / "any_table.csv"
    path.write_text(format_csv(header, rows, comments), encoding="utf-8", newline="")
    assert read_csv(str(path)) == (comments, [dict(zip(header, row)) for row in rows])


@pytest.mark.parametrize("text, lineno, message", [
    ('a,b\n"x"y,1\n', 2, "',' expected after '\"'"),
    ('a,b\n1,2\n"x,1\n', 3, "unexpected end of data"),
], ids=["text-after-quote", "unclosed-quote"])
def test_malformed_quoting_names_file_and_line(tmp_path, text, lineno, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        read_csv(str(path))
    assert str(excinfo.value) == f"{path}:{lineno}: {message}"


def _uncertainty(path):
    config = HistogramConfig(bin_count=2)
    write_uncertainty_csv(UncertaintyCurve(config, np.array([1, 0]), np.array([0.5, np.nan])), path)


def _histogram(path):
    write_histogram_csv(SimilarityHistogram(HistogramConfig(bin_count=2), np.array([1, 2])), path)


def _curve(path):
    write_curve_csv(NeighborCurve(grid=np.array([0.0, 1.0]), expected=np.array([2.0, 1.0]), term="x"), path)


def _threshold(path):
    write_threshold_csv([ThresholdResult(300, 0.7, 0.6, 0.8)], path)


def _metric_report(path):
    write_metric_report(path, [RunScores("map", {"1": 0.5, "2": 0.25})])


READERS = {
    "uncertainty": (_uncertainty, read_csv, 4),
    "histogram": (_histogram, read_csv, 3),
    "curve": (_curve, read_curve_csv, 4),
    "threshold": (_threshold, read_csv, 4),
    "metric_report": (_metric_report, read_csv, 2),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_malformed_row_names_file_and_line(tmp_path, kind):
    write, read, fields = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    write(str(path))
    read(str(path))  # the file as written reads back
    lines = path.read_text().splitlines() + [",".join(["1"] * (fields + 1))]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        read(str(path))
    assert str(excinfo.value) == f"{path}:{len(lines)}: expected {fields} fields, got {fields + 1}"


@pytest.mark.parametrize("kind", sorted(READERS))
def test_non_utf8_line_names_file_and_line(tmp_path, kind):
    write, read, _ = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    write(str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + b"\xff\xfe" + lines[-1])
    with pytest.raises(ValueError) as excinfo:
        read(str(path))
    assert str(excinfo.value) == f"{path}:{len(lines)}: not valid UTF-8"


@pytest.mark.parametrize("kind", sorted(READERS))
def test_byte_order_mark_reads_like_the_plain_file(tmp_path, kind):
    write, read, _ = READERS[kind]
    path, marked = tmp_path / f"{kind}.csv", tmp_path / f"bom_{kind}.csv"
    write(str(path))
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert repr(read(str(marked))) == repr(read(str(path)))


def test_read_lines_skips_only_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("\ufeffa\n\ufeffb\n".encode())
    assert list(read_lines(str(path))) == [(1, "a\n"), (2, "\ufeffb\n")]


def test_read_lines_splits_at_newline_only(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a\r\nb\rc\u2028d\ne".encode())
    assert list(read_lines(str(path))) == [(1, "a\r\n"), (2, "b\rc\u2028d\n"), (3, "e")]


def test_read_lines_names_bad_line_past_the_first_decoded_block(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"ok\n" * 5000 + b"\xe2\x82\n" + b"ok\n")
    with pytest.raises(ValueError) as excinfo:
        list(read_lines(str(path)))
    assert str(excinfo.value) == f"{path}:5001: not valid UTF-8"
