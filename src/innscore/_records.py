"""Strict text records: every CSV and JSON file innscore reads or writes.

A CSV file is a header line of column names and one comma-separated line
per row; a JSON file is one object, written with sorted keys. Every
reader rejection is a ValueError naming the path and the line. Standard
library only: the CLI imports it before --threads sets the BLAS variables.
"""

import io
import json
import math


def _text(path):
    """The file decoded as UTF-8; a byte that does not decode is named by its line."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None


def _finite(cell):
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def _int64(cell):
    value = int(cell)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{cell!r} is outside the int64 range")
    return value


def read_rows(path, header, columns):
    """(header names, [(line number, parsed cells)]) of a CSV file with rows.

    header: the column names, or a function from the file's names to the
    names its shape requires. columns: the parser of each name's cells, by
    the name without its trailing digits; `float` cells must be finite and
    `int` cells must fit in int64.
    """
    lines = io.StringIO(_text(path), newline=None)
    names = lines.readline().strip().split(",")
    expected = list(header(names) if callable(header) else header)
    if names != expected:
        raise ValueError(f"{path}: line 1: header {','.join(names)!r}, "
                         f"expected {','.join(expected)!r}")
    parsers = [columns[name.rstrip("0123456789")] for name in names]
    parsers = [{float: _finite, int: _int64}.get(parse, parse) for parse in parsers]
    rows = []
    lineno = 1
    for lineno, line in enumerate(lines, 2):
        if not line.strip():
            continue
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(names):
            raise ValueError(f"{path}: line {lineno}: expected {len(names)} fields, "
                             f"got {len(cells)} fields, the header has {len(names)}")
        try:
            rows.append((lineno, [parse(cell) for parse, cell in zip(parsers, cells)]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: line {lineno + 1}: no rows after the header")
    return names, rows


def write_rows(path, header, rows):
    """Write the header names and one line per row of already formatted cells."""
    return write_lines(path, header, (",".join(cells) + "\n" for cells in rows))


def write_lines(path, header, text):
    """Write the header names, then the pieces of already formatted text, each
    one or more whole lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(text)
    return path


def write_json(path, obj):
    """Write `obj` as strict JSON; a nan or infinite float is a ValueError naming the path."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def read_json(path, required_keys):
    """The JSON object in `path`, holding each key of required_keys with a
    value of exactly its type or one of its tuple of types (a bool is no int)."""
    text = _text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: line 1: a JSON {type(obj).__name__}, not an object")
    for key, types in required_keys.items():
        if key not in obj:
            raise ValueError(f"{path}: line 1: the object has no {key!r} key")
        types = types if isinstance(types, tuple) else (types,)
        if type(obj[key]) not in types:
            line = text.count("\n", 0, max(0, text.find(json.dumps(key)))) + 1
            wanted = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"{path}: line {line}: {key!r} is {obj[key]!r}, not {wanted}")
    return obj
