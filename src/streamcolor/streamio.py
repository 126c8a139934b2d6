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

The parser walks the buffer in blocks of whole lines, about 64 KiB each,
as views of one numpy array over the bytes.  In each block, lines of the
form `[+-] <digits> <digits>`, single spaces, at most 18 digits per
vertex, are decoded in bulk into int64 (sign, u, v), and empty lines and
lines starting `#` are dropped.  Every other line goes through the
per-line rule, which gives the same result.  Line numbers and the first
bulk update (named if the header comes after it) carry over from block
to block, and each block's updates are written in line order into one
preallocated int64 table with room for an update per line, so the
parser's temporaries scale with the block and not with the stream.

The scan knows LF breaks only, so a buffer with any other break is first
put in one LF form with the same lines: CRLF becomes LF, and if a CR or
another break is still left, the lines of `str.splitlines` on the
original text are joined by LF (the replaced bytes would read
"a\r\r\nb" as two lines, not three).  An LF buffer is scanned as given.

Coloring file: UTF-8 text, one line `<vertex> <color>` per vertex,
ascending, one for every vertex 1..n.  `dumps_stream` and
`dumps_coloring` emit LF endings so output bytes are platform
independent.  `dumps_stream` lays its update lines out with numpy, one
byte table per 2^16 updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import StreamFormatError
from .graph import EdgeUpdate, PartialColoring, UpdateView


@dataclass(frozen=True)
class StreamFile:
    """A parsed stream; `updates` is an EdgeUpdate view over int64 arrays
    (any sequence of (sign, u, v) given here is converted to one)."""

    n: int
    delta: int | None
    updates: UpdateView

    def __post_init__(self):
        object.__setattr__(self, "updates", UpdateView.of(self.updates))


_INT64 = range(-(1 << 63), 1 << 63)
# line breaks of str.splitlines besides LF and CRLF, in ASCII and UTF-8
_ASCII_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_UTF8_BREAKS = _ASCII_BREAKS + (b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")
# 18 decimal digits always fit in int64
_BULK_DIGITS = 18
# updates per `_lines` buffer, which keeps its temporaries to a few MB
_LINES = 1 << 16
# bytes per parse block (see `_scan`).  On the n = 2000, delta = 300
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


def _digits(buf: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Decimal values of the digit runs buf[first : first + count]."""
    value = np.zeros(first.shape[0], dtype=np.int64)
    last = buf.shape[0] - 1
    for k in range(int(count.max(initial=0))):
        digit = buf[np.minimum(first + k, last)] - _ZERO
        value = np.where(k < count, value * 10 + digit, value)
    return value


def _scan(data: bytes) -> Iterator[tuple[tuple, Iterable[tuple[int, str]]]]:
    """Decode an LF buffer block by block with `_scan_block`.

    A block holds the whole lines that start in the next _BLOCK_BYTES
    bytes: it ends right after an LF or at the end of the data, and a
    longer line is a block of its own.  Blocks are views of one array
    over `data`.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    start = before = 0
    while start < len(data):
        end = data.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
        if end <= start:  # no break in the window: the line runs on
            end = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        bulk, lines, before = _scan_block(buf[start:end], before)
        yield bulk, lines
        start = end


def _scan_block(buf: np.ndarray, before: int):
    """Split one block, whose first line is line `before + 1`, into
    lines and decode the lines `[+-] <digits> <digits>` in bulk.

    Returns their line numbers, int64 (sign, u, v) arrays and the text of
    the first one; then every other line that is not empty and does not
    start with `#` as (line number, text); then the number of lines
    before the next block.
    """
    size = buf.shape[0]
    breaks = np.flatnonzero(buf == _LF)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [size]))
    if starts[-1] == size:  # a final break ends the last line
        starts, ends = starts[:-1], ends[:-1]

    # candidates start with `+ ` or `- ` and hold at least `+ 1 2`
    cand = np.flatnonzero(ends - starts >= 5)
    s = starts[cand]
    keep = ((buf[s] == _PLUS) | (buf[s] == _MINUS)) & (buf[s + 1] == _SPACE)
    cand, s, e = cand[keep], s[keep], ends[cand[keep]]
    # positions of the non-digit bytes inside candidate lines only (so
    # junk or comment lines cost no memory here), then two sentinels.  A
    # bulk line has its sign at s, a space at s + 1, one space between
    # the vertices, and no other before its end e.
    in_cand = np.zeros(starts.shape[0], dtype=bool)
    in_cand[cand] = True
    nondigit = buf - _ZERO > 9
    width = np.diff(starts, append=size)  # each line with its break
    nondigit &= np.repeat(in_cand, width)
    nd = np.concatenate((np.flatnonzero(nondigit), [size, size]))
    j = np.searchsorted(nd, s)
    mid = nd[j + 2]
    ulen = mid - s - 2
    vlen = e - mid - 1
    ok = (buf[np.minimum(mid, size - 1)] == _SPACE) & (nd[j + 3] >= e)
    ok &= (ulen >= 1) & (ulen <= _BULK_DIGITS) & (vlen >= 1) & (vlen <= _BULK_DIGITS)
    bulk_idx = cand[ok]
    s, mid, ulen, vlen = s[ok], mid[ok], ulen[ok], vlen[ok]
    bulk = (
        bulk_idx + (before + 1),
        np.where(buf[s] == _PLUS, 1, -1).astype(np.int64),
        _digits(buf, s + 2, ulen),
        _digits(buf, mid + 1, vlen),
        buf[s[0] : e[ok][0]].tobytes().decode() if s.size else "",
    )

    # the per-line rule skips empty lines and lines starting `#` anyway
    rest = (ends > starts) & (buf[starts] != _HASH)
    rest[bulk_idx] = False
    # gathered with their LF breaks, the only breaks in the block
    text = buf[np.repeat(rest, width)].tobytes().decode("utf-8", "surrogatepass")
    lines = zip((np.flatnonzero(rest) + (before + 1)).tolist(), text.splitlines())
    return bulk, lines, before + starts.shape[0]


def _int64(token: str) -> int:
    value = int(token)
    if value not in _INT64:
        raise ValueError
    return value


def _parse(data: bytes) -> StreamFile:
    """The stream parser; see the module docstring for the grammar."""
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
        del text
    blocks = _scan(lf)
    # counted in blocks: bytes.count takes 8x as long
    buf = np.frombuffer(lf, dtype=np.uint8)
    capacity = 1 + sum(
        int(np.count_nonzero(buf[at : at + _BLOCK_BYTES] == _LF))
        for at in range(0, len(lf), _BLOCK_BYTES)
    )

    def cannot_parse(lineno: int, raw: str) -> StreamFormatError:
        return StreamFormatError(f"line {lineno}: cannot parse {raw!r}")

    n: int | None = None
    delta: int | None = None
    first_bulk: tuple[int, str] | None = None  # line number and text
    # (sign, u, v) rows, at most one update per line
    out = np.empty((3, capacity), dtype=np.int64)
    filled = 0
    for (bulk_lineno, signs, us, vs, first_text), lines in blocks:
        if first_bulk is None and bulk_lineno.size:
            first_bulk = (int(bulk_lineno[0]), first_text)
        rows: list[int] = []  # (line number, sign, u, v) of per-line updates
        for lineno, raw in lines:
            if n is None and first_bulk is not None and first_bulk[0] < lineno:
                raise cannot_parse(*first_bulk)
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "n":
                    if n is not None or len(parts) != 2:
                        raise ValueError
                    n = _int64(parts[1])
                elif parts[0] == "delta":
                    if delta is not None or n is None or len(parts) != 2:
                        raise ValueError
                    delta = _int64(parts[1])
                elif parts[0] in ("+", "-"):
                    if n is None or len(parts) != 3:
                        raise ValueError
                    u, v = int(parts[1]), int(parts[2])
                    if u not in _INT64 or v not in _INT64:
                        raise ValueError
                    rows += (lineno, 1 if parts[0] == "+" else -1, u, v)
                else:
                    raise ValueError
            except ValueError as exc:
                raise cannot_parse(lineno, raw) from exc
        if n is None and first_bulk is not None:  # the header comes too late
            raise cannot_parse(*first_bulk)
        fields = (signs, us, vs)
        if rows:  # merge the block's per-line updates into line order
            extra = np.array(rows, dtype=np.int64).reshape(-1, 4)
            order = np.argsort(np.concatenate((bulk_lineno, extra[:, 0])))
            fields = tuple(
                np.concatenate((col, extra[:, c]))[order] for c, col in enumerate(fields, 1)
            )
        count = fields[0].shape[0]
        for row, col in zip(out, fields):
            row[filled : filled + count] = col
        filled += count
    if n is None:
        raise StreamFormatError("missing `n <N>` header")
    if n < 0:
        raise StreamFormatError("n must be nonnegative")
    if delta is not None and delta < 0:
        raise StreamFormatError("delta must be nonnegative")
    return StreamFile(n, delta, UpdateView(*out[:, :filled]))


def loads_stream(text: str) -> StreamFile:
    return _parse(text.encode("utf-8", "surrogatepass"))


def dumps_stream(n: int, updates, delta: int | None = None) -> str:
    view = UpdateView.of(updates)
    text = [f"n {n}\n", "" if delta is None else f"delta {delta}\n"]
    for at in range(0, len(view), _LINES):
        part = slice(at, at + _LINES)
        text.append(_lines(view.signs[part], view.us[part], view.vs[part]))
    return "".join(text)


def _lines(signs: np.ndarray, us: np.ndarray, vs: np.ndarray) -> str:
    """One `<+|-> <u> <v>` line with LF per update, laid out in one byte
    table with a row per update; 0 bytes pad the vertex columns."""
    sign = np.where(signs == 1, _PLUS, _MINUS).astype(np.uint8)[:, None]
    space = np.full_like(sign, _SPACE)
    table = np.concatenate(
        (sign, space, _decimal(us), space, _decimal(vs), np.full_like(sign, _LF)), axis=1
    ).ravel()
    return table[table != 0].tobytes().decode("ascii")


def _decimal(values: np.ndarray) -> np.ndarray:
    """int64 values in decimal, one right-aligned row each, 0 bytes before."""
    negative = values < 0
    mag = values.view(np.uint64).copy()
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


def loads_coloring(text: str) -> PartialColoring:
    """Parse a coloring file; palette is the largest color present."""
    rows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StreamFormatError(f"line {lineno}: expected `<vertex> <color>`")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: cannot parse {raw!r}") from exc
    if not rows:
        raise StreamFormatError("empty coloring file")
    n = len(rows)
    colors: list[int] = []
    for expected, (v, c) in enumerate(rows, start=1):
        if v != expected:
            raise StreamFormatError(
                f"vertex lines must be 1..{n} ascending; saw {v} at position {expected}"
            )
        if c < 1:
            raise StreamFormatError(f"vertex {v}: color {c} is not positive")
        colors.append(c)
    return PartialColoring(n, max(colors), colors)


def dumps_coloring(coloring: PartialColoring) -> str:
    coloring.require_total()
    cols = coloring.array.tolist()
    return "\n".join(f"{v} {cols[v]}" for v in range(1, coloring.n + 1)) + "\n"


def read_coloring(path: str | Path) -> PartialColoring:
    return loads_coloring(_utf8(Path(path).read_bytes()))
