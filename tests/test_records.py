"""The strict CSV and JSON record layer shared by every file format."""

import re

import pytest

from innscore._records import read_json, read_rows, write_json, write_rows

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
