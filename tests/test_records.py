"""The strict CSV and JSON record layer shared by every file format."""

import math
import re
import struct

import numpy as np
import pytest
from helpers import reference_read_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from innscore._records import read_columns, read_json, read_rows, write_json, write_rows

COLUMNS = {"id": int, "x": float, "tag": str}


def test_rows_roundtrip_skipping_blank_lines(tmp_path):
    path = write_rows(tmp_path / "t.csv", ["id", "x1", "x2", "tag"],
                      [["1", "0.5", "-2.0", "a"], ["2", "1e-3", "3", "b"]])
    path.write_text(path.read_text().replace("\n", "\n\n", 1) + "\r\n  \n")
    names, rows = read_rows(path, ["id", "x1", "x2", "tag"], COLUMNS)
    assert names == ["id", "x1", "x2", "tag"]
    assert rows == [(3, [1, 0.5, -2.0, "a"]), (4, [2, 1e-3, 3.0, "b"])]


@pytest.mark.parametrize("text, shown", [
    ("id,tag\n1,a\n", "line 1: header 'id,tag', expected 'id,x1,tag'"),
    ("", "line 1: header '', expected"),
    ("id,x1,tag\n", "line 2: no rows after the header"),
    ("id,x1,tag\n1,0.5,a\n2,0.5\n", "line 3: expected 3 fields, got 2 fields"),
    ("id,x1,tag\n1,0.5,a\n2.5,0.5,b\n", "line 3: invalid literal for int"),
    ("id,x1,tag\n1,NaN,a\n", "line 2: 'NaN' is not a finite number"),
])
def test_rows_rejected_by_line(tmp_path, text, shown):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=shown) as err:
        read_rows(path, ["id", "x1", "tag"], COLUMNS)
    assert str(err.value).startswith(f"{path}: line ")


def test_undecodable_byte_named_by_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"id,x1,tag\n1,0.5,a\n2,0.5,\xff\n")
    with pytest.raises(ValueError, match="line 3: not UTF-8 text"):
        read_rows(path, ["id", "x1", "tag"], COLUMNS)
    with pytest.raises(ValueError, match="line 3: not UTF-8 text"):
        read_json(path, {})


def test_header_from_the_file_shape(tmp_path):
    path = write_rows(tmp_path / "t.csv", ["id", "x1", "x2", "x3"], [["7", "1", "2", "3"]])
    names, rows = read_rows(path, lambda names: ["id"] + [f"x{j}" for j in range(1, len(names))],
                            COLUMNS)
    assert len(names) == 4 and rows == [(2, [7, 1.0, 2.0, 3.0])]


def test_json_roundtrip_and_rejections(tmp_path):
    path = write_json(tmp_path / "o.json", {"b": [1, None], "a": 2})
    assert path.read_text() == '{\n  "a": 2,\n  "b": [\n    1,\n    null\n  ]\n}\n'
    assert read_json(path, {"a": int, "b": (list, type(None))}) == {"a": 2, "b": [1, None]}
    for text, required, shown in (
        ('{"a": 2,\n "b": }', {"a": int}, "line 2: Expecting value"),
        ('"a"', {"a": int}, "line 1: a JSON str, not an object"),
        ('{"b": 1}', {"a": int}, "line 1: the object has no 'a' key"),
        ('{\n"a": true}', {"a": int}, "line 2: 'a' is True, not int"),
        ('{"a": 20.0}', {"a": int}, "line 1: 'a' is 20.0, not int"),
        ('{"b": 5}', {"b": (str, type(None))}, "line 1: 'b' is 5, not str or null"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=shown):
            read_json(path, required)
    # nan and infinities are not JSON: refused before the file is touched
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float")):
            write_json(path, {"a": [1.0, bad]})
        assert path.read_text() == '{"b": 5}'


# cells written as a dataset's writer writes them, and the spellings `float` and `int` accept
_FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # 17-digit values, +-0.0
    st.integers(1, 2**52 - 1).map(lambda m: repr(struct.unpack("<d", struct.pack("<q", m))[0])),
    st.sampled_from(["0", "-0", "1e-320", "4.9e-324", "1_0.5", " 1.5", "+5", "1E3", "\u0661.5",
                     "1.7976931348623157e308", "0.1000000000000000055511151231257827",
                     "2.5\u2028", "\x853", "\x0c1"]),  # str.splitlines would split at these
)
_INT_CELLS = st.one_of(st.integers(-2**63, 2**63 - 1).map(str),
                       st.sampled_from(["+5", " 7", "0007", "1_000", "\u0661"]))
_BAD_CELLS = st.sampled_from(["", "abc", "nan", "-inf", "1e400", "0x1F", "1__0", "1,2", "\u2028"])
_BAD_INT_CELLS = st.sampled_from(["1.5", "1e3", str(2**63), str(-2**63 - 1)])
_COLUMNS = {"id": int, "f": float, "label": int}


@st.composite
def _table(draw):
    """(file text, header) of a valid table of 1-12 rows, with CRLF, CR and blank lines."""
    d = draw(st.integers(1, 3))
    header = ["id", *(f"f{j}" for j in range(d)), "label"]
    kinds = [int, *[float] * d, int]
    rows = draw(st.lists(st.tuples(*(_INT_CELLS if kind is int else _FLOAT_CELLS
                                     for kind in kinds)), min_size=1, max_size=12))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    blanks = draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=3))
    for blank in blanks:
        lines.insert(draw(st.integers(1, len(lines))), blank)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    last = draw(st.booleans())  # a newline after the last line, or none
    text = "".join(line + end for line, end in zip(lines, ends))
    return (text if last else text[: -len(ends[-1])]), header


def _write(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(max_examples=150, deadline=None)
@given(table=_table())
def test_columns_equal_the_row_oracle_bit_for_bit(tmp_path_factory, table):
    text, header = table
    path = _write(tmp_path_factory, text)
    names, want = reference_read_rows(path, header, _COLUMNS)
    got_names, lines, columns = read_columns(path, header, _COLUMNS)
    assert got_names == names and lines.tolist() == [lineno for lineno, _ in want]
    for j, column in enumerate(columns):
        cells = [row[j] for _, row in want]
        assert column.dtype == (np.float64 if 0 < j < len(names) - 1 else np.int64)
        assert column.tobytes() == np.array(cells, dtype=column.dtype).tobytes()
        if column.dtype == np.float64:  # the signs of zeros too
            assert [math.copysign(1, v) for v in column.tolist()] == \
                [math.copysign(1, v) for v in cells]


@settings(max_examples=150, deadline=None)
@given(table=_table(), data=st.data())
def test_one_bad_cell_gives_the_oracle_error(tmp_path_factory, table, data):
    """A bad cell, or a changed field count, on any line: the same message as the oracle."""
    text, header = table
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [i for i, line in enumerate(lines) if i and line.strip()]
    i = data.draw(st.sampled_from(rows))
    cells = lines[i].split(",")
    j = data.draw(st.integers(0, len(cells) - 1))
    edit = data.draw(st.sampled_from(["cell", "drop", "extra"]))
    if edit == "cell":  # the first and last columns hold ints
        cells[j] = data.draw(_BAD_CELLS | _BAD_INT_CELLS if j in (0, len(cells) - 1)
                             else _BAD_CELLS)
    elif edit == "drop":
        del cells[j]
    else:
        cells.insert(j, "0")
    lines[i] = ",".join(cells)
    path = _write(tmp_path_factory, "\n".join(lines))
    with pytest.raises(ValueError) as want:
        reference_read_rows(path, header, _COLUMNS)
    with pytest.raises(ValueError) as got:
        read_columns(path, header, _COLUMNS)
    assert str(got.value) == str(want.value)
