"""Text formats for update streams and colorings.

Stream file: UTF-8 text, one item per line.

    header   n <N>              exactly once, before every update
    degree   delta <D>          at most once, after the header
    update   + <u> <v>          insert edge {u, v}
             - <u> <v>          delete edge {u, v}
    blank or whitespace-only lines, and comments (first non-blank
    character `#`), are skipped.

Tokens are separated by whitespace; a line may carry leading and
trailing whitespace.  Lines end at the breaks of `str.splitlines`: LF,
CRLF, lone CR, VT, FF, FS, GS, RS, NEL (U+0085), LS (U+2028) and PS
(U+2029).  Every integer is read by `int()` (decimal, an optional sign,
`_` separators and any Unicode decimal digits) and must lie in the
signed 64-bit range; N and D must be nonnegative.  Anything else raises
StreamFormatError, naming the line where there is one.

Parsing checks syntax only.  Whether the updates form a legal stream
(no self loop, vertices in [1, N], and each edge's multiplicity staying
in {0, 1}) is the one legality rule, `graph.legal_final_edges`, which
`color` and `verify` both apply; the CLI exits 2 on any illegal stream.

Coloring file: UTF-8 text, one line `<vertex> <color>` per vertex,
ascending, one for every vertex 1..n, with the same line breaks, blank
lines and comments.  Its integers are read by `int()` without a range.

Both formats are read by one table reader, `_table`.  The grammar makes
a stream's first line that is not blank or a comment its header, so the
stream parser reads that line first and hands the rest to `_table`.  The
reader walks the buffer in blocks of whole lines, about 64 KiB each, as
views of one numpy array over the bytes.  In each block, lines of the
bulk form (`[+-] <digits> <digits>` for streams, `<digits> <digits>` for
colorings; single spaces, at most 18 digits per number) are decoded in
bulk into int64 columns, and empty lines and lines starting `#` are
dropped.  Every other line goes through the format's per-line rule,
which gives the same result.  Line numbers carry over from block to
block, and each block's rows are written in line order into one
preallocated table with room for a row per line, so the reader's
temporaries scale with the block and not with the file.  The table is
int32 until a block holds a value outside int32, so a stream whose
vertices fit costs 12 bytes per update; it is widened to int64 then, and
to Python ints past int64 (which only a coloring file may hold).

The scan knows LF breaks only, so a buffer with any other break is first
put in one LF form with the same lines (`_lf`): CRLF becomes LF, and if
a CR or another break is still left, the lines of `str.splitlines` on
the original text are joined by LF (the replaced bytes would read
"a\\r\\r\\nb" as two lines, not three).  An LF buffer is scanned as given.

Both formats are written by one writer, `_lines`, which lays out 2^16
lines at a time in a byte table with numpy; `dumps_stream` and
`dumps_coloring` emit LF endings so output bytes are platform
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import StreamFormatError
from .graph import PartialColoring, UpdateView


@dataclass(frozen=True)
class StreamFile:
    """A parsed stream; `updates` is an EdgeUpdate view over the parsed
    (sign, u, v) table, int32 when every value fits and int64 otherwise
    (any sequence of (sign, u, v) given here is converted to an int64 one)."""

    n: int
    delta: int | None
    updates: UpdateView

    def __post_init__(self):
        object.__setattr__(self, "updates", UpdateView.of(self.updates))


_INT64 = range(-(1 << 63), 1 << 63)
_INT32 = np.iinfo(np.int32)
# line breaks of str.splitlines besides LF and CRLF, in ASCII and UTF-8
_ASCII_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_UTF8_BREAKS = _ASCII_BREAKS + (b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")
# 18 decimal digits always fit in int64
_BULK_DIGITS = 18
# lines per `_lines` buffer, which keeps its temporaries to a few MB
_LINES = 1 << 16
# bytes per parse block (see `_table`).  On the n = 2000, delta = 300
# benchmark stream (150k updates, 1.6 MB) `read_stream` traced a 6.7 MB
# peak with 2^16, of which 5.2 MB are the file and the output, against
# 31.9 MB for one whole-buffer scan; 2^18 peaked at 10.9 MB, and 2^14
# saved 1.1 MB but took a third longer (2-vCPU x86 VM).
_BLOCK_BYTES = 1 << 16
_PLUS, _MINUS, _SPACE, _LF, _ZERO, _HASH = b"+- \n0#"


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8", "surrogatepass")
        lineno = len((head + "x").splitlines())
        raise StreamFormatError(f"line {lineno}: not UTF-8 text") from exc


def _lf(data: bytes) -> bytes:
    """`data`, checked to be UTF-8, with the same lines all ending in LF."""
    ascii_only = data.isascii()
    if not ascii_only:
        _utf8(data)  # names the first line that is not UTF-8
    # an LF buffer is scanned as given: `in` finds no CR in a 1.6 MB stream
    # in 0.04 ms, bytes.replace no CRLF in 3.6 ms (2-vCPU x86 VM)
    lf = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    other_breaks = _ASCII_BREAKS if ascii_only else _UTF8_BREAKS
    if b"\r" in lf or any(b in lf for b in other_breaks):
        text = data.decode("utf-8", "surrogatepass")
        lf = "\n".join(text.splitlines()).encode("utf-8", "surrogatepass")
    return lf


def _digits(buf: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Decimal values of the digit runs buf[first : first + count]."""
    value = np.zeros(first.shape[0], dtype=np.int64)
    last = buf.shape[0] - 1
    for k in range(int(count.max(initial=0))):
        digit = buf[np.minimum(first + k, last)] - _ZERO
        value = np.where(k < count, value * 10 + digit, value)
    return value


def _scan_block(buf: np.ndarray, before: int, lead: int):
    """Split one block, whose first line is line `before + 1`, into
    lines and decode the lines `<lead><digits> <digits>` in bulk, where
    the lead is `+ ` or `- ` if `lead` is 2 and nothing if it is 0.

    Returns their line numbers; their int64 columns (the sign, if `lead`
    is 2, then both numbers); every other line that is not empty and
    does not start with `#` as (line number, text); and the number of
    lines before the next block.
    """
    size = buf.shape[0]
    breaks = np.flatnonzero(buf == _LF)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [size]))
    if starts[-1] == size:  # a final break ends the last line
        starts, ends = starts[:-1], ends[:-1]

    # candidates hold at least `<lead>1 2`, and a lead of 2 is `+ ` or `- `
    cand = np.flatnonzero(ends - starts >= lead + 3)
    s = starts[cand]
    if lead:
        keep = ((buf[s] == _PLUS) | (buf[s] == _MINUS)) & (buf[s + 1] == _SPACE)
        cand, s = cand[keep], s[keep]
    e = ends[cand]
    # positions of the non-digit bytes inside candidate lines only (so
    # junk or comment lines cost no memory here), then two sentinels.  A
    # bulk line has its first digit at s + lead, one space between the
    # numbers, and no other non-digit before its end e.
    in_cand = np.zeros(starts.shape[0], dtype=bool)
    in_cand[cand] = True
    nondigit = buf - _ZERO > 9
    width = np.diff(starts, append=size)  # each line with its break
    nondigit &= np.repeat(in_cand, width)
    nd = np.concatenate((np.flatnonzero(nondigit), [size, size]))
    j = np.searchsorted(nd, s + lead)
    mid = nd[j]
    ulen = mid - s - lead
    vlen = e - mid - 1
    ok = (buf[np.minimum(mid, size - 1)] == _SPACE) & (nd[j + 1] >= e)
    ok &= (ulen >= 1) & (ulen <= _BULK_DIGITS) & (vlen >= 1) & (vlen <= _BULK_DIGITS)
    bulk_idx = cand[ok]
    s, mid, ulen, vlen = s[ok], mid[ok], ulen[ok], vlen[ok]
    cols = (_digits(buf, s + lead, ulen), _digits(buf, mid + 1, vlen))
    if lead:
        cols = (np.where(buf[s] == _PLUS, 1, -1).astype(np.int64), *cols)

    # the per-line rule skips empty lines and lines starting `#` anyway
    rest = (ends > starts) & (buf[starts] != _HASH)
    rest[bulk_idx] = False
    # gathered with their LF breaks, the only breaks in the block
    text = buf[np.repeat(rest, width)].tobytes().decode("utf-8", "surrogatepass")
    lines = zip((np.flatnonzero(rest) + (before + 1)).tolist(), text.splitlines())
    return bulk_idx + (before + 1), cols, lines, before + starts.shape[0]


def _cannot_parse(lineno: int, raw: str) -> StreamFormatError:
    return StreamFormatError(f"line {lineno}: cannot parse {raw!r}")


def _table(lf: bytes, start: int, before: int, lead: int, rule: Callable) -> np.ndarray:
    """The values of the lines of the LF buffer `lf` from byte `start` on,
    the first of them line `before + 1`, in line order as one table with
    a row per field, (sign, u, v) if `lead` is 2 and two numbers if it
    is 0, and a column per line that gives values.

    Bulk lines are decoded by `_scan_block`.  Every other line that is
    not blank or a comment goes to `rule(lineno, tokens)`, which returns
    the line's values or None, or raises; a ValueError names the line as
    one that cannot be parsed.  The table is int32 while every value
    fits; the first block with a value that does not widens it to int64,
    and one with a value past int64 to Python ints (object dtype).

    The buffer is walked in blocks of the whole lines that start in the
    next _BLOCK_BYTES bytes: a block ends right after an LF or at the end
    of the data, and a longer line is a block of its own.  Blocks are
    views of one array over `lf`.
    """
    buf = np.frombuffer(lf, dtype=np.uint8)
    # counted in blocks: bytes.count takes 8x as long
    capacity = 1 + sum(
        int(np.count_nonzero(buf[at : at + _BLOCK_BYTES] == _LF))
        for at in range(start, len(lf), _BLOCK_BYTES)
    )
    # at most one column per line
    out = np.empty((3 if lead else 2, capacity), dtype=np.int32)
    filled = 0
    while start < len(lf):
        end = lf.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
        if end <= start:  # no break in the window: the line runs on
            end = lf.find(b"\n", start + _BLOCK_BYTES) + 1 or len(lf)
        linenos, cols, lines, before = _scan_block(buf[start:end], before, lead)
        start = end
        rows = []  # (line number, *values) of the per-line rule's lines
        for lineno, raw in lines:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                values = rule(lineno, parts)
            except ValueError as exc:
                raise _cannot_parse(lineno, raw) from exc
            if values is not None:
                rows.append((lineno, *values))
        if rows:  # merge them with the bulk lines in line order
            try:
                extra = np.array(rows, dtype=np.int64)
            except OverflowError:  # a number past int64
                extra = np.array(rows, dtype=object)
            order = np.argsort(np.concatenate((linenos, extra[:, 0])))
            cols = [np.concatenate((col, extra[:, c]))[order] for c, col in enumerate(cols, 1)]
        out = _widened(out, cols)
        count = cols[0].shape[0]
        for row, col in zip(out, cols):
            row[filled : filled + count] = col
        filled += count
    return out[:, :filled]


def _widened(table: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """`table`, or a copy of it wide enough for the values in `cols`: int64
    once some value leaves int32, object once some column is object."""
    if table.dtype != object and any(col.dtype == object for col in cols):
        return table.astype(object)
    if table.dtype == np.int32 and any(
        col.size and (col.min() < _INT32.min or col.max() > _INT32.max) for col in cols
    ):
        return table.astype(np.int64)
    return table


def _int64(token: str) -> int:
    value = int(token)
    if value not in _INT64:
        raise ValueError
    return value


def _parse(data: bytes) -> StreamFile:
    """The stream parser; see the module docstring for the grammar."""
    lf = _lf(data)
    # the first line that is not blank or a comment is the header
    start = lineno = 0
    while start < len(lf):
        end = lf.find(b"\n", start) + 1 or len(lf) + 1
        raw = lf[start : end - 1].decode("utf-8", "surrogatepass")
        start, lineno = end, lineno + 1
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            break
    else:
        raise StreamFormatError("missing `n <N>` header")
    try:
        if parts[0] != "n" or len(parts) != 2:
            raise ValueError
        n = _int64(parts[1])
    except ValueError as exc:
        raise _cannot_parse(lineno, raw) from exc

    delta: int | None = None

    def update(lineno: int, parts: list[str]) -> tuple[int, int, int] | None:
        nonlocal delta
        if parts[0] == "delta" and delta is None and len(parts) == 2:
            delta = _int64(parts[1])
            return None
        if parts[0] not in ("+", "-") or len(parts) != 3:
            raise ValueError
        return 1 if parts[0] == "+" else -1, _int64(parts[1]), _int64(parts[2])

    signs, us, vs = _table(lf, start, lineno, 2, update)
    if n < 0:
        raise StreamFormatError("n must be nonnegative")
    if delta is not None and delta < 0:
        raise StreamFormatError("delta must be nonnegative")
    return StreamFile(n, delta, UpdateView(signs, us, vs))


def loads_stream(text: str) -> StreamFile:
    return _parse(text.encode("utf-8", "surrogatepass"))


def dumps_stream(n: int, updates, delta: int | None = None) -> str:
    view = UpdateView.of(updates)
    text = [f"n {n}\n", "" if delta is None else f"delta {delta}\n"]
    for at in range(0, len(view), _LINES):
        part = slice(at, at + _LINES)
        text.append(_lines(view.us[part], view.vs[part], view.signs[part]))
    return "".join(text)


def _lines(us: np.ndarray, vs: np.ndarray, signs: np.ndarray | None = None) -> str:
    """One `<u> <v>` line with LF per entry, after a `+ ` or `- ` column
    when `signs` is given, laid out in one byte table with a row per
    line; 0 bytes pad the number columns."""
    space = np.full((us.shape[0], 1), _SPACE, dtype=np.uint8)
    cols = (_decimal(us), space, _decimal(vs), np.full_like(space, _LF))
    if signs is not None:
        cols = (np.where(signs == 1, _PLUS, _MINUS).astype(np.uint8)[:, None], space, *cols)
    table = np.concatenate(cols, axis=1).ravel()
    return table[table != 0].tobytes().decode("ascii")


def _decimal(values: np.ndarray) -> np.ndarray:
    """Integer values that fit int64 in decimal, one right-aligned row
    each, 0 bytes before."""
    negative = values < 0
    # as int64 first: an int32 value's bits read as uint64 would be wrong
    mag = values.astype(np.int64).view(np.uint64)
    np.negative(mag, out=mag, where=negative)  # |int64 min| = 2^63 fits
    width = len(str(mag.max(initial=0))) + bool(negative.any())
    out = np.zeros((values.shape[0], width), dtype=np.uint8)
    minus, pad = np.uint8(_MINUS), np.uint8(0)
    for col in range(width - 1, -1, -1):  # the last digit first
        has_digit = mag > 0 if col < width - 1 else True
        tens = mag // 10  # a floor division by a constant, far cheaper than %
        digit = (mag - tens * 10).astype(np.uint8) + np.uint8(_ZERO)
        out[:, col] = np.where(has_digit, digit, np.where(negative, minus, pad))
        negative &= has_digit  # one `-`, right before the first digit
        mag = tens
    return out


def read_stream(path: str | Path) -> StreamFile:
    return _parse(Path(path).read_bytes())


def _vertex_color(lineno: int, parts: list[str]) -> tuple[int, int]:
    if len(parts) != 2:
        raise StreamFormatError(f"line {lineno}: expected `<vertex> <color>`")
    return int(parts[0]), int(parts[1])


def _coloring(data: bytes) -> PartialColoring:
    """The coloring parser; palette is the largest color present."""
    vertices, colors = _table(_lf(data), 0, 0, 0, _vertex_color)
    n = colors.shape[0]
    if not n:
        raise StreamFormatError("empty coloring file")
    # the first row out of order or with a color below 1
    bad = vertices != np.arange(1, n + 1)
    bad |= colors < 1
    at = int(np.argmax(bad))
    if bad[at]:
        v, c = int(vertices[at]), int(colors[at])
        if v != at + 1:
            raise StreamFormatError(
                f"vertex lines must be 1..{n} ascending; saw {v} at position {at + 1}"
            )
        raise StreamFormatError(f"vertex {v}: color {c} is not positive")
    return PartialColoring(n, int(colors.max()), np.concatenate(([0], colors)))


def loads_coloring(text: str) -> PartialColoring:
    return _coloring(text.encode("utf-8", "surrogatepass"))


def dumps_coloring(coloring: PartialColoring) -> str:
    coloring.require_total()
    colors = coloring.array
    if colors.dtype == object:  # colors past int64 stay Python ints
        return "".join(f"{v} {c}\n" for v, c in enumerate(colors.tolist()[1:], 1))
    n = coloring.n
    return "".join(
        _lines(np.arange(at, min(at + _LINES, n + 1)), colors[at : at + _LINES])
        for at in range(1, n + 1, _LINES)
    )


def read_coloring(path: str | Path) -> PartialColoring:
    return _coloring(Path(path).read_bytes())
