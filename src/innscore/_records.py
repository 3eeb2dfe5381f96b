"""Strict text records: every CSV and JSON file innscore reads or writes.

A CSV file is a header line of column names and one comma-separated line
per row; a JSON file is one object, written with sorted keys. Every
reader rejection is a ValueError naming the path and the line. The CSV
readers import numpy when called, not at import: the CLI imports this
module before --threads sets the BLAS variables.
"""

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


def read_columns(path, header, columns):
    """(header names, line numbers, columns) of a CSV file with rows: an
    int64 array of each row's line number, and an array of each column.

    header: the column names, or a function from the file's names to the
    names its shape requires. columns: the type of each name's cells, by
    the name without its trailing digits: `float` cells are parsed as
    `float` parses them and must be finite, `int` cells as `int` does and
    must fit in int64, `str` cells stay text. Lines end at \\n, \\r\\n or
    \\r, and blank lines are skipped. A rejection names the first bad line,
    and on it the first bad field.
    """
    import numpy as np  # here, not above: see the module notes

    text = _text(path).replace("\r\n", "\n").replace("\r", "\n")
    lines = text.removesuffix("\n").split("\n")
    names = lines[0].strip().split(",")
    expected = list(header(names) if callable(header) else header)
    if names != expected:
        raise ValueError(f"{path}: line 1: header {','.join(names)!r}, "
                         f"expected {','.join(expected)!r}")
    rows = [(lineno, line) for lineno, line in enumerate(lines[1:], 2) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: line {len(lines) + 1}: no rows after the header")
    width = len(names)
    short = next((r for r, (_, line) in enumerate(rows) if line.count(",") != width - 1),
                 len(rows))  # the rows before it have every field
    cells = ",".join(line for _, line in rows[:short]).split(",") if short else []
    kinds = [columns[name.rstrip("0123456789")] for name in names]
    values = [_array(np, cells[j::width], kind) for j, kind in enumerate(kinds)]
    if any(column is None for column in values):  # name the first bad cell, in reading order
        parsers = [{float: _finite, int: _int64}.get(kind, kind) for kind in kinds]
        for r in range(short):
            try:
                for parse, cell in zip(parsers, cells[r * width : (r + 1) * width]):
                    parse(cell)
            except ValueError as exc:
                raise ValueError(f"{path}: line {rows[r][0]}: {exc}") from None
    if short < len(rows):
        lineno, line = rows[short]
        raise ValueError(f"{path}: line {lineno}: expected {width} fields, got "
                         f"{line.count(',') + 1} fields, the header has {width}")
    return names, np.array([lineno for lineno, _ in rows]), values


def _array(np, cells, kind):
    """The column `cells` as one array of `kind`, or None when a cell is not
    a finite float or an int64 as `kind` asks."""
    try:
        column = np.array(cells, dtype={float: np.float64, int: np.int64}.get(kind, str))
    except (ValueError, OverflowError):  # past int64, numpy raises OverflowError
        return None
    return column if kind is not float or np.isfinite(column).all() else None


def check_unique(path, ids, lines):
    """Reject an id that repeats: the ValueError names the first of `lines`
    whose id is on an earlier one, and that earlier line."""
    import numpy as np

    order = np.argsort(ids, kind="stable")  # equal ids in line order
    sorted_ids = ids[order]
    repeats = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if repeats.size:
        row = repeats.min()
        first = order[np.searchsorted(sorted_ids, ids[row])]
        raise ValueError(f"{path}: line {lines[row]}: id {ids[row]} already on line {lines[first]}")


def read_rows(path, header, columns):
    """(header names, [(line number, cells)]) of a CSV file read by
    `read_columns`, a row of Python values each."""
    names, lines, values = read_columns(path, header, columns)
    return names, list(zip(lines.tolist(), map(list, zip(*(v.tolist() for v in values)))))


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
