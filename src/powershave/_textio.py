"""Text I/O shared by every powershave file format, the one JSON codec of
the config dataclasses, and the one rule of every number the library
takes (number_field): a finite Python number of its type, never a bool,
with a sign where one is declared.  Every record dataclass keeps it on
its number fields (check_fields, the sign from the field's metadata
POSITIVE or NON_NEGATIVE), every public function on its number
arguments, and increasing_numbers on each value of a strictly
increasing list (a grid axis, histogram bin edges); only range and
cross-value checks are written by hand.

Every writer has the shape writer(obj, dest), and every trace or config
loader takes a source; dest and source are a path or a stream.  write_text
is the one writer and read_blocks the one reader (read_text joins its
blocks), which reads READ_SIZE characters at a time for every caller:
they are the only code that tells paths, text streams and binary streams
apart, and that encodes or decodes UTF-8.  A path is read and written
as a binary stream, so it holds the same bytes as one.  The CLI's
hashing sink is a binary stream: write_text encodes every writer's text
for it.

read_config is the one reader of every JSON record (the synth config,
the sim config, a device spec, the grid), and _config checks each level
of a record, the top one and every nested config, in one function.  It
refuses, in this order and naming the record (a nested one by its
field): text that is not UTF-8 or not JSON, a value that is not an
object, unknown fields, then missing required ones; each value is the
dataclass's own check.

Every number read from text, in a trace, a grid CSV or a CLI flag, keeps
one rule (plain): it is ASCII and holds no '_'; within that, it is
what float() or int() accepts.  A number in a list of fields (a grid CSV
row, the --bins edges, the parts of a sweep axis) must also be finite,
and is refused by its position (plain_numbers).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, fields, is_dataclass
from importlib import resources

import numpy as np

# Rows per block of the CSV writer.  Each column of a block is formatted
# once per distinct value, and only one block's tables are held at once.
CSV_BLOCK_ROWS = 8192
# Rows per chunk of text the CSV writer builds and yields: only one chunk's
# cell strings and rows are held at once.
CSV_CHUNK_ROWS = 1024
# Characters (bytes from a binary source) that read_blocks reads at a
# time, for every reader: it bounds the text a trace load holds at once.
READ_SIZE = 1 << 18


def _column_text(col: np.ndarray):
    """The cell source of an 8-byte numeric block: a function cells(a, b)
    that returns the repr of each value of col[a:b].  repr is called once
    per distinct bit pattern of the block, keyed on bits so that -0.0
    stays apart from 0.0; the source holds those texts and each row's
    index into them.  A block without repeats is formatted cell by cell:
    there is nothing to save, and the lookup would cost time."""
    bits = col.view(np.int64)
    ordered = np.sort(bits)    # np.unique (numpy 2.4) is ~15x slower on a block
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if distinct.size == bits.size:
        return lambda a, b: list(map(repr, col[a:b].tolist()))
    texts = np.array(list(map(repr, distinct.view(col.dtype).tolist())), dtype=object)
    index = np.searchsorted(distinct, bits)
    return lambda a, b: texts[index[a:b]].tolist()


def _csv_chunks(header_lines, columns, texts):
    yield "".join(line + "\n" for line in header_lines)
    n = len(columns[0])
    for start in range(0, n, CSV_BLOCK_ROWS):
        size = min(CSV_BLOCK_ROWS, n - start)
        cells = [texts[i](col[start:start + size], start) if i in texts
                 else _column_text(col[start:start + size])
                 for i, col in enumerate(columns)]
        for a in range(0, size, CSV_CHUNK_ROWS):
            rows = zip(*[cell(a, a + CSV_CHUNK_ROWS) for cell in cells])
            yield "\n".join(map(",".join, rows)) + "\n"
        # Dropped before the next block's tables are built.
        del cells


def write_text(dest, chunks) -> None:
    """Write text chunks to a text stream, or as UTF-8 to a binary stream
    or the file at path dest, which is written as a binary stream."""
    if not hasattr(dest, "write"):
        with open(dest, "wb") as fh:
            return write_text(fh, chunks)
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
    returns the cell source of block, that column's rows from start on, in
    place of _column_text's: cells(a, b), the repr of each value of
    block[a:b], built faster than repr would.  text runs once per block:
    its array code costs more per call than per row."""
    columns = [np.ascontiguousarray(col) for col in columns]
    write_text(dest, _csv_chunks(header_lines, columns, texts or {}))


def write_json(obj, dest, sort_keys: bool = True) -> None:
    """obj as JSON indented by 2, with a trailing newline.  NaN and the
    infinities raise ValueError: they are not JSON."""
    text = json.dumps(obj, indent=2, sort_keys=sort_keys, allow_nan=False)
    write_text(dest, [text + "\n"])


def read_blocks(source):
    """Yield the text of a text or binary stream, or of the file at path
    source, in blocks, reading READ_SIZE characters (bytes for a binary
    source) at a time.  Every block but the last ends just after a '\n',
    so each holds whole lines.  Reads with no '\n' are held until one
    comes, each scanned once, so only a source with no '\n' is held
    whole.

    A block of bytes is decoded as UTF-8 whole: UTF-8 never puts the byte
    of '\n' inside a character, so a cut just after it cuts none.  A byte
    that is not UTF-8 raises UnicodeDecodeError from its block, so the
    error's object[:start] decodes to the text between the last block
    yielded and the bad byte."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            yield from read_blocks(fh)
        return
    held = []
    while data := source.read(READ_SIZE):
        cut = data.rfind(b"\n" if isinstance(data, bytes) else "\n") + 1
        if cut:
            block = _decoded(data[:0].join([*held, data[:cut]]))
            held = [data[cut:]]
            # Only the block is held while the caller works on it.
            del data
            yield block
        else:
            held.append(data)
    # data is the empty read that ended the source, "" or b"".
    if block := data.join(held):
        yield _decoded(block)


def _decoded(block):
    return block.decode("utf-8") if isinstance(block, bytes) else block


def not_utf8(exc: UnicodeDecodeError, lines_before: int) -> str:
    """The refusal of a byte that is not UTF-8, naming its line as
    splitlines() counts them: "line N: not UTF-8 text (byte 0xff: invalid
    start byte)".  exc is raised by read_blocks after it yielded blocks of
    lines_before lines."""
    # '?' stands for the bad byte, so that its line is counted even where
    # the text before it ends with a line break.
    before = exc.object[:exc.start].decode("utf-8") + "?"
    return (f"line {lines_before + len(before.splitlines())}: not UTF-8 text "
            f"(byte {exc.object[exc.start]:#04x}: {exc.reason})")


def read_text(source, what: str) -> str:
    """The text of a stream or of the file at path source (read_blocks,
    joined).  A byte that is not UTF-8 raises ValueError naming what and
    the byte's line (not_utf8)."""
    blocks = []
    try:
        for block in read_blocks(source):
            blocks.append(block)
    except UnicodeDecodeError as exc:
        lines = sum(len(block.splitlines()) for block in blocks)
        raise ValueError(f"{what} {not_utf8(exc, lines)}") from None
    return "".join(blocks)


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
    """kind (plain_float or plain_int) of each text in fields, each a
    finite number.  A text kind refuses, or a float that is not finite,
    raises ValueError naming what and the text's position, counted from
    first: "grid CSV row 1 column 2: expected a finite number, got
    'nan'"."""
    values = []
    for pos, text in enumerate(fields, first):
        try:
            value = kind(text)
            # Only a float can be non-finite; an int beyond the float range
            # would make isfinite raise OverflowError.
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {text!r}")
        except ValueError as exc:
            raise ValueError(f"{what} {pos}: {exc}") from None
        values.append(value)
    return tuple(values)


def _config(cls, data, what: str):
    """The dataclass cls from the JSON value data, refused as read_config
    says; a field whose default is a config is read the same way, named
    by its field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = {name for name, f in declared.items()
               if f.default is MISSING and f.default_factory is MISSING} - set(data)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")
    return cls(**{f.name: _config(type(f.default), data[f.name], f.name)
                  if is_dataclass(f.default) else data[f.name]
                  for f in fields(cls) if f.name in data})


def read_config(cls, source, what: str):
    """The config dataclass cls from the JSON object in source, in the form
    write_config writes; the one reader of every JSON record.  A field
    that the object lacks takes its default.  Raises ValueError, in this
    order, for text that is not UTF-8 ("<what> line N: not UTF-8 text"),
    text that is not JSON ("bad <what> JSON: ..."), a value that is not an
    object ("<what> must be a JSON object"), an unknown field ("unknown
    <what> fields: [...]"), a missing required one ("missing <what>
    fields: [...]"); then each nested config is read the same way, named
    by its field, before any value the dataclass itself refuses."""
    try:
        data = json.loads(read_text(source, what))
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad {what} JSON: {exc}") from None
    return _config(cls, data, what)


def _config_dict(obj) -> dict:
    return {f.name: _config_dict(value) if is_dataclass(value) else value
            for f in fields(obj) if (value := getattr(obj, f.name)) is not None}


def write_config(obj, dest, sort_keys: bool = True) -> None:
    """The fields of the config dataclass obj as a JSON object; a field
    that holds a config is a nested object, and a field that holds None
    is left out, so a ThresholdSpec holds only its set field."""
    write_json(_config_dict(obj), dest, sort_keys)


# Field metadata for a number field's sign, which check_fields keeps:
# field(default=..., metadata=POSITIVE).
POSITIVE = {"sign": "positive"}
NON_NEGATIVE = {"sign": "non-negative"}
_SIGN_HOLDS = {"positive": lambda x: x > 0, "non-negative": lambda x: x >= 0}


def number_field(name: str, value, kind=float, sign=None):
    """value as a Python kind (int or float): an integral number for int, a
    finite real number for float, never a bool; with sign "positive" also
    > 0, with "non-negative" also >= 0.  Raises ValueError naming name
    otherwise.  The one rule of every number the library takes: a
    dataclass field (check_fields) and a function's number argument."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        number = kind(value)
        finite = kind is int or math.isfinite(number)
    except OverflowError:      # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if sign and not _SIGN_HOLDS[sign](number):
        raise ValueError(f"{name} must be {sign}, got {value!r}")
    return number


def increasing_numbers(name: str, values, fewest: int) -> tuple:
    """values as a tuple of Python floats: at least fewest of them, each
    kept to number_field under "<name> values", strictly increasing.
    Raises ValueError naming name otherwise."""
    try:
        if isinstance(values, str):
            raise TypeError
        items = list(values)
    except TypeError:          # a number, a 0-d array
        raise ValueError(f"{name} must be a list of numbers, got {values!r}") from None
    vals = tuple(number_field(f"{name} values", v) for v in items)
    if len(vals) < fewest:
        raise ValueError(f"{name} must hold at least {fewest} "
                         f"value{'s' * (fewest > 1)}, got {len(vals)}")
    for a, b in zip(vals, vals[1:]):
        if b <= a:
            raise ValueError(f"{name} must be strictly increasing, got {b!r} after {a!r}")
    return vals


def check_fields(obj) -> None:
    """Hold every int and float field of the dataclass obj to number_field,
    with the sign of its metadata (POSITIVE or NON_NEGATIVE) if any, and
    store the Python number it returns, so that equal records write equal
    bytes; a float | None field may also hold None.  Fields are checked in
    declaration order.  NaN passes every one-sided bound and number_field
    refuses it, so each dataclass calls this before its own cross-field
    checks."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", "float") or f.type == "float | None" and value is not None:
            kind = int if f.type == "int" else float
            object.__setattr__(obj, f.name, number_field(
                f.name, value, kind, f.metadata.get("sign")))
