"""Text I/O shared by the trace, shaving and device modules: the CSV writer
for numeric columns and the field checks of the JSON config loaders."""

from __future__ import annotations

import math
from dataclasses import MISSING, fields

import numpy as np

# Rows per block of the CSV writer.  Each column of a block is formatted
# once per distinct value, and only one block's strings are held at once.
CSV_BLOCK_ROWS = 8192


def _column_text(col: np.ndarray) -> list:
    """repr of every value of an 8-byte numeric block, calling repr once per
    distinct bit pattern.  Keying on bits keeps -0.0 apart from 0.0.  A
    block without repeats is formatted cell by cell: there is nothing to
    save, and the lookup would cost time."""
    bits = col.view(np.int64)
    ordered = np.sort(bits)    # np.unique (numpy 2.4) is ~15x slower on a block
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if distinct.size == bits.size:
        return list(map(repr, col.tolist()))
    texts = np.array(list(map(repr, distinct.view(col.dtype).tolist())), dtype=object)
    return texts[np.searchsorted(distinct, bits)].tolist()


def _csv_chunks(header_lines, columns):
    yield "".join(line + "\n" for line in header_lines)
    n = len(columns[0])
    for start in range(0, n, CSV_BLOCK_ROWS):
        cells = [_column_text(col[start:start + CSV_BLOCK_ROWS]) for col in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _write_text(dest, chunks) -> None:
    """Write text chunks to a text stream, a binary stream (UTF-8) or the
    file at path dest."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    chunks = iter(chunks)
    first = next(chunks, "")
    try:
        dest.write(first)
    except TypeError:
        dest.write(first.encode("utf-8"))
        for chunk in chunks:
            dest.write(chunk.encode("utf-8"))
    else:
        dest.writelines(chunks)


def write_columns_csv(dest, header_lines, columns) -> None:
    """Write the header lines, then one row per index of the columns, every
    value as its repr.  The columns are 1-D, of equal length and of an
    8-byte numeric dtype (float64, or int64 for an integer column)."""
    columns = [np.ascontiguousarray(col) for col in columns]
    _write_text(dest, _csv_chunks(header_lines, columns))


def is_number(value) -> bool:
    """True for a JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_json_fields(cls, data: dict, what: str) -> None:
    """Raise ValueError naming the fields of a JSON object that the
    dataclass cls does not declare or requires and lacks, or the first
    field whose value is not the JSON number its annotation asks for.
    Float fields must also be finite."""
    declared = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = {name for name, f in declared.items()
               if f.default is MISSING and f.default_factory is MISSING} - set(data)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")
    for name, value in data.items():
        kind = declared[name].type
        if kind == "int" and not (is_number(value) and isinstance(value, int)):
            raise ValueError(f"{what} field {name!r} must be an integer, got {value!r}")
        if kind == "float" or (kind == "float | None" and value is not None):
            if not is_number(value):
                raise ValueError(f"{what} field {name!r} must be a number, got {value!r}")
            # json reads NaN and Infinity, and NaN passes every one-sided
            # bound a dataclass checks.
            if not math.isfinite(value):
                raise ValueError(f"{what} field {name!r} must be finite, got {value!r}")
