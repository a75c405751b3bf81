"""Text I/O shared by every powershave file format, and the field checks
shared by the config dataclasses and their JSON loaders.

Every writer has the shape writer(obj, dest), and every trace or config
loader takes a source; dest and source are a path or a stream, and
write_text and read_text are the only code that tells them apart.  A path
is opened with newline="", so it gets the same bytes as a text or binary
stream.

Every number read from text, in a trace, a grid CSV or a CLI flag, keeps
one rule (plain): it is ASCII and holds no '_'; within that, it is
what float() or int() accepts.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from importlib import resources

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


def _csv_chunks(header_lines, columns, texts):
    yield "".join(line + "\n" for line in header_lines)
    n = len(columns[0])
    for start in range(0, n, CSV_BLOCK_ROWS):
        cells = [texts[i](col[start:start + CSV_BLOCK_ROWS], start) if i in texts
                 else _column_text(col[start:start + CSV_BLOCK_ROWS])
                 for i, col in enumerate(columns)]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_text(dest, chunks) -> None:
    """Write text chunks to a text stream, a binary stream (UTF-8) or the
    file at path dest."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
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


def write_columns_csv(dest, header_lines, columns, texts=None) -> None:
    """Write the header lines, then one row per index of the columns, every
    value as its repr.  The columns are 1-D, of equal length and of an
    8-byte numeric dtype (float64, or int64 for an integer column).

    texts may map a column's index to a function text(block, start) that
    returns the repr of each value of block, that column's rows from
    start on, faster than repr would."""
    columns = [np.ascontiguousarray(col) for col in columns]
    write_text(dest, _csv_chunks(header_lines, columns, texts or {}))


def write_json(obj, dest, sort_keys: bool = True) -> None:
    """obj as JSON indented by 2, with a trailing newline.  NaN and the
    infinities raise ValueError: they are not JSON."""
    text = json.dumps(obj, indent=2, sort_keys=sort_keys, allow_nan=False)
    write_text(dest, [text + "\n"])


def read_text(source) -> str:
    """The text of a stream or of the file at path source; bytes are
    decoded as UTF-8."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    return raw.decode("utf-8") if isinstance(raw, bytes) else raw


def read_package_data(name: str, load):
    """load(stream) of the file data/<name> shipped inside the package."""
    with resources.files(__package__).joinpath(f"data/{name}").open("rb") as fh:
        return load(fh)


def plain(text: str) -> str:
    """text, if it keeps the number rule: ASCII with no '_'.  float() and
    int() alone also read '1_0' as 10, other scripts' digits (Arabic-Indic
    '١٢' as 12) and non-ASCII spaces around a number.  ValueError
    otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected a plain number (ASCII, no '_'), got {text!r}")
    return text


def plain_float(text: str) -> float:
    """float(text) under the number rule."""
    return float(plain(text))


def plain_int(text: str) -> int:
    """int(text) under the number rule."""
    return int(plain(text))


def plain_numbers(fields, what: str, kind=plain_float, first: int = 1) -> tuple:
    """kind (plain_float or plain_int) of each text in fields.  A text it
    refuses raises ValueError naming what and the text's position,
    counted from first."""
    values = []
    for pos, text in enumerate(fields, first):
        try:
            values.append(kind(text))
        except ValueError as exc:
            raise ValueError(f"{what} {pos}: {exc}") from None
    return tuple(values)


def read_json_object(source, what: str, error=ValueError) -> dict:
    """The JSON object in source (see read_text).  Raises error, naming
    what, for text that is not JSON or whose value is not an object."""
    try:
        data = json.loads(read_text(source))
    except json.JSONDecodeError as exc:
        raise error(f"bad {what} JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object")
    return data


def is_number(value) -> bool:
    """True for a JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:      # an int beyond the float range
        return False


def check_finite(obj) -> None:
    """Raise ValueError naming the first float field of the dataclass obj
    that holds NaN, an infinity or an int too large for a float, and store
    an int held in a float field as float(int), so that equal configs
    write equal bytes.  NaN passes every one-sided bound, so each config
    dataclass calls this before its own checks."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float", "float | None") and value is not None:
            if not _is_finite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if isinstance(value, int):
                object.__setattr__(obj, f.name, float(value))


def check_json_fields(cls, data: dict, what: str) -> None:
    """Raise ValueError naming the fields of a JSON object that the
    dataclass cls does not declare or requires and lacks, or the first
    field whose value is not the JSON number its annotation asks for.
    Finiteness is the dataclass's own check."""
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
