"""Round-trip and validation tests for the text stream / coloring formats."""

import contextlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamcolor import streamio
from streamcolor.errors import StreamFormatError
from streamcolor.graph import EdgeUpdate, PartialColoring
from streamcolor.streamio import (
    StreamFile,
    dumps_coloring,
    dumps_stream,
    loads_coloring,
    loads_stream,
    read_coloring,
    read_stream,
)

SAMPLE = """\
# a small stream
n 5
delta 2
+ 1 2
+ 4 5
- 1 2
+ 2 3
"""


def test_loads_stream_sample():
    sf = loads_stream(SAMPLE)
    assert sf.n == 5
    assert sf.delta == 2
    assert sf.updates == (
        EdgeUpdate(1, 1, 2),
        EdgeUpdate(1, 4, 5),
        EdgeUpdate(-1, 1, 2),
        EdgeUpdate(1, 2, 3),
    )


def test_loads_stream_without_delta():
    sf = loads_stream("n 3\n+ 1 2\n")
    assert sf.delta is None
    assert sf.updates == (EdgeUpdate(1, 1, 2),)


def test_dumps_then_loads_is_identity():
    sf = loads_stream(SAMPLE)
    assert loads_stream(dumps_stream(sf.n, sf.updates, sf.delta)) == sf


_MALFORMED = [
    "",  # missing header
    "+ 1 2\nn 3\n",  # update before header
    "n -1\n",
    "n 3\nn 3\n",  # duplicate header
    "delta 2\nn 3\n",  # delta before header
    "n 3\ndelta -1\n",
    "n 3\ndelta 2\ndelta 2\n",
    "n 3\n* 1 2\n",  # unknown op
    "n 3\n+ 1\n",  # wrong arity
    "n 3\n+ 1 2 3\n",
    "n 3\n+ a b\n",
    "n x\n",
]


@pytest.mark.parametrize("text", _MALFORMED)
def test_loads_stream_rejects_malformed(text):
    with pytest.raises(StreamFormatError):
        loads_stream(text)


def test_parser_is_syntax_only():
    # range and legality problems surface at materialize time, not parse time
    sf = loads_stream("n 3\n+ 1 7\n")
    assert sf.updates == (EdgeUpdate(1, 1, 7),)


def test_comments_and_blank_lines_ignored():
    sf = loads_stream("\n# hi\nn 2\n\n  # indented comment\n+ 1 2\n")
    assert sf.updates == (EdgeUpdate(1, 1, 2),)


def test_file_roundtrip(tmp_path):
    path = tmp_path / "s.txt"
    text = dumps_stream(4, [EdgeUpdate(1, 1, 4)], delta=3)
    assert "\r" not in text  # unix newlines
    path.write_bytes(text.encode())
    assert read_stream(path) == StreamFile(4, 3, (EdgeUpdate(1, 1, 4),))


updates_strategy = st.lists(
    st.tuples(
        st.sampled_from([1, -1]),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    ).filter(lambda t: t[1] != t[2]),
    max_size=30,
)


@given(updates_strategy, st.one_of(st.none(), st.integers(min_value=0, max_value=9)))
@settings(max_examples=80)
def test_stream_roundtrip_property(raw, delta):
    ups = tuple(EdgeUpdate(*t) for t in raw)
    assert loads_stream(dumps_stream(9, ups, delta)) == StreamFile(9, delta, ups)


@given(
    st.lists(
        st.tuples(
            st.integers(-2, 2),
            st.integers(-(1 << 63), (1 << 63) - 1),
            st.integers(-(1 << 63), (1 << 63) - 1),
        ),
        max_size=30,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10**30)),
)
@example([(1, -(1 << 63), (1 << 63) - 1), (-1, 0, -9), (0, 10**18, -(10**17))], None)
@settings(max_examples=80)
def test_dumps_stream_matches_per_line_format(raw, delta):
    # reference: one f-string per line; any int64 vertex and any sign
    lines = ["n 7"] + ([] if delta is None else [f"delta {delta}"])
    lines += [f"{'+' if s == 1 else '-'} {u} {v}" for s, u, v in raw]
    assert dumps_stream(7, raw, delta) == "\n".join(lines) + "\n"


@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, -1]),
            st.integers(-(1 << 31), (1 << 31) - 1),
            st.integers(-(1 << 31), (1 << 31) - 1),
        ),
        max_size=30,
    )
)
@example([(1, 1, (1 << 31) - 1), (-1, -(1 << 31), 7), (1, 0, -3)])
@settings(max_examples=60)
def test_parsed_int32_table_round_trips(raw):
    # the writer reads an int32 table's values, not its bits as uint64
    text = "n 7\n" + "".join(f"{'+' if s == 1 else '-'} {u} {v}\n" for s, u, v in raw)
    sf = loads_stream(text)
    assert sf.updates.us.dtype == np.int32
    assert dumps_stream(sf.n, sf.updates) == text


def test_coloring_roundtrip():
    c = PartialColoring(3, 2, [2, 1, 2])
    text = dumps_coloring(c)
    assert text == "1 2\n2 1\n3 2\n"
    back = loads_coloring(text)
    assert back.colors() == (2, 1, 2)
    assert back.palette == 2


def test_dumps_coloring_requires_total():
    from streamcolor.errors import UncoloredVertexError

    with pytest.raises(UncoloredVertexError):
        dumps_coloring(PartialColoring(2, 2, [1, None]))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 1\n3 2\n",  # gap
        "2 1\n1 2\n",  # out of order
        "1 0\n",  # colors are positive
        "1 1 9\n",  # arity
        "1 x\n",
    ],
)
def test_loads_coloring_rejects_malformed(text):
    with pytest.raises(StreamFormatError):
        loads_coloring(text)


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=25))
@settings(max_examples=80)
def test_coloring_roundtrip_property(colors):
    c = PartialColoring(len(colors), max(colors), colors)
    assert loads_coloring(dumps_coloring(c)).colors() == c.colors()


def _loads_stream_per_line(text: str):
    """The per-line stream parser as it stood before the bulk scan, kept
    as the oracle for `loads_stream`; returns (n, delta, updates)."""
    n = None
    delta = None
    updates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "n":
                if n is not None or len(parts) != 2:
                    raise ValueError
                n = int(parts[1])
            elif parts[0] == "delta":
                if delta is not None or n is None or len(parts) != 2:
                    raise ValueError
                delta = int(parts[1])
            elif parts[0] in ("+", "-"):
                if n is None or len(parts) != 3:
                    raise ValueError
                sign = 1 if parts[0] == "+" else -1
                updates.append(EdgeUpdate(sign, int(parts[1]), int(parts[2])))
            else:
                raise ValueError
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: cannot parse {raw!r}") from exc
    if n is None:
        raise StreamFormatError("missing `n <N>` header")
    if n < 0:
        raise StreamFormatError("n must be nonnegative")
    if delta is not None and delta < 0:
        raise StreamFormatError("delta must be nonnegative")
    return n, delta, tuple(updates)


_token = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.integers(min_value=0, max_value=2**62).map(str),
    st.sampled_from(["007", "+4", "-2", "1_0", "٣", "१२", "x", "", "n", "delta", "#"]),
)
_line = st.one_of(
    st.tuples(st.sampled_from(["+", "-"]), _token, _token).map(" ".join),
    st.tuples(st.sampled_from(["n", "delta"]), _token).map(" ".join),
    st.lists(_token, max_size=4).map(" ".join),
    st.sampled_from(
        ["", "   ", "# note", "\t# tab note", "+\t1\t2", " + 1 2 ", "+  1 2", "+  3", "- 3 ", "+1 2"]
    ),
    st.text(max_size=6),
)
_update_line = st.tuples(
    st.sampled_from(["+", "-"]),
    st.integers(min_value=0, max_value=12).map(str),
    st.integers(min_value=0, max_value=12).map(str),
).map(" ".join)
_break = st.sampled_from(["\n", "\r\n", "\r", "\x0b", " ", "\x85"])


@st.composite
def _stream_texts(draw):
    # four in five lines are well-formed updates
    kinds = st.integers(0, 4).flatmap(lambda k: _update_line if k else _line)
    lines = draw(st.lists(kinds, max_size=12))
    where = draw(st.sampled_from(["top", "top", "top", "anywhere", "none"]))
    if where != "none":
        at = 0 if where == "top" else draw(st.integers(0, len(lines)))
        lines.insert(at, "n 9")
    breaks = draw(st.lists(_break, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):  # mostly plain LF, which takes the bulk scan
        breaks = ["\n"] * len(lines)
    text = "".join(a + b for a, b in zip(lines, breaks))
    return text if draw(st.booleans()) else text.rstrip("\n")


_ORACLE_EXAMPLES = [
    "n 3\n+  34\n+ 1 2\n",
    "n 3\r\n+ 1 2\r\n- 1 2\r\n+ 2 3 \r\n+ 2 x\r\n",
    "# c\n+ 1 2\nn 3\n",
    "n 3\n+ 1 2\n+ 1 2 3\n+ 0002 3",
    "#c\r\n\r\n n 9\r\n#\r\n + 1 2 \r\n\t# t\r\n+ 2 3\r\n #\r\n",
    # a CR before a CRLF ends an empty line, so the bad line is line 5
    "n 3\r\r\n+ 1 2\r\n- 1 2\r\n+ 1 x\r\n",
]


def _oracle_examples(test):
    for text in reversed(_ORACLE_EXAMPLES):
        test = example(text=text)(test)
    return test


def _assert_matches_oracle(text):
    # integers beyond the signed 64-bit range are a parse error now
    assume(not re.search(r"[\d_]{19,}", text))
    try:
        expected = _loads_stream_per_line(text)
    except StreamFormatError as exc:
        with pytest.raises(StreamFormatError) as got:
            loads_stream(text)
        assert str(got.value) == str(exc)
        return
    sf = loads_stream(text)
    assert (sf.n, sf.delta, tuple(sf.updates)) == expected
    assert len(sf.updates) == len(expected[2])


@given(text=_stream_texts())
@_oracle_examples
@settings(max_examples=400, deadline=None)
def test_bulk_parser_matches_per_line_oracle(text):
    _assert_matches_oracle(text)


# parse block sizes that cut the test texts into many blocks: a block
# then holds one line, a few lines, or a line cut short by the window
_TINY_BLOCKS = [1, 5, 64]


@contextlib.contextmanager
def _tiny(block):
    """Parse in blocks of `block` bytes."""
    with mock.patch.object(streamio, "_BLOCK_BYTES", block):
        yield


@pytest.mark.parametrize("block", _TINY_BLOCKS)
@given(text=_stream_texts())
@_oracle_examples
@settings(max_examples=400, deadline=None)
def test_bulk_parser_matches_per_line_oracle_in_tiny_blocks(block, text):
    with _tiny(block):
        _assert_matches_oracle(text)


def _parsed(text):
    """(n, delta, updates) of `text`, or the message of its parse error."""
    try:
        sf = loads_stream(text)
    except StreamFormatError as exc:
        return str(exc)
    return sf.n, sf.delta, tuple(sf.updates)


_PINNED_TEXTS = [
    SAMPLE,
    "n 3\n+ 1 2\n",
    "\n# hi\nn 2\n\n  # indented comment\n+ 1 2\n",
    "n 3\n+ 1 7\n",
    "# c\n+ 007 2\nn 3\n",
    "n 4\r\ndelta 2\r\n+ 1 2\r\n+\t3 4\r\n\r\n- 1 2\r\n",
    "n 9223372036854775807\n+ 1 9223372036854775807\n- -9223372036854775808 1\n",
    "n 3\n+ 1 9223372036854775808\n",
    "n 3\n- -9223372036854775809 2\n",
    "n 3\ndelta 99999999999999999999\n",
    "n 9223372036854775808\n",
    "n 3\n# \u00e9\n+ \u0663 2\n+ 1 2\n",
    "n 3\r+ 1 2\r- 1 2\x0b+ 2 3\u2028+ 1 x\n",
    *_MALFORMED,
]


@pytest.mark.parametrize("block", _TINY_BLOCKS)
def test_pinned_texts_parse_alike_in_tiny_blocks(block):
    expected = [_parsed(text) for text in _PINNED_TEXTS]
    with _tiny(block):
        assert [_parsed(text) for text in _PINNED_TEXTS] == expected


def _in_blocks(text, blocks):
    """`_parsed(text)` at each parse block size in `blocks`, checked equal
    to the per-line oracle."""
    try:
        expected = _loads_stream_per_line(text)
    except StreamFormatError as exc:
        expected = str(exc)
    for block in blocks:
        with _tiny(block):
            assert _parsed(text) == expected, block
    return expected


def test_crlf_split_by_the_block_window():
    # a window ends between the CR and the LF of some line at most sizes
    text = "n 30\r\n+ 1 2\r\n- 1 2\r\n+ 10 20\r\n"
    got = _in_blocks(text, range(1, 40))
    assert got == (30, None, ((1, 1, 2), (-1, 1, 2), (1, 10, 20)))


def test_header_delta_comment_and_junk_in_later_blocks():
    # the 71-byte first line fills a 64-byte block on its own
    lead = "#" * 70 + "\n"
    text = lead + "n 4\n+ 1 2\n# c\ndelta 3\n+ 3 4\n"
    assert _in_blocks(text, [5, 64]) == (4, 3, ((1, 1, 2), (1, 3, 4)))
    junk = lead + "n 4\n" + "+ 1 2\n- 1 2\n" * 10 + "+ 1 x\n"
    assert _in_blocks(junk, [5, 64]) == "line 23: cannot parse '+ 1 x'"


def test_update_before_header_in_a_later_block():
    text = "# c\n" * 20 + "+ 1 2\n" + "n 3\n"
    assert _in_blocks(text, _TINY_BLOCKS) == "line 21: cannot parse '+ 1 2'"
    # the update and the header in the same later block
    text = "#" * 70 + "\n+ 1 2\nn 3\n"
    assert _in_blocks(text, _TINY_BLOCKS) == "line 2: cannot parse '+ 1 2'"


def test_last_line_without_a_break():
    for text in ("n 3\n+ 1 2\n- 1 2", "n 3\r\n+ 1 2\r\n- 1 2", "n 3\n+ 1 2\nn 4"):
        _in_blocks(text, _TINY_BLOCKS)
    assert _in_blocks("n 3\n+ 1 2\n- 1 2", _TINY_BLOCKS)[2] == ((1, 1, 2), (-1, 1, 2))


def test_block_without_candidate_lines():
    # the second 64-byte block holds only comments and blank lines
    text = "n 3\n" + "+ 1 2\n- 1 2\n" * 4 + "#" * 60 + "\n\n\n  \n" + "+ 2 3\n"
    assert _in_blocks(text, [64]) == (3, None, ((1, 1, 2), (-1, 1, 2)) * 4 + ((1, 2, 3),))


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 9223372036854775808\n", "line 1: cannot parse 'n 9223372036854775808'"),
        ("n 3\ndelta 99999999999999999999\n", "line 2: cannot parse 'delta 99999999999999999999'"),
        ("n 3\n+ 1 9223372036854775808\n", "line 2: cannot parse '+ 1 9223372036854775808'"),
        ("n 3\n- -9223372036854775809 2\n", "line 2: cannot parse '- -9223372036854775809 2'"),
    ],
)
def test_integers_must_fit_int64(text, message):
    with pytest.raises(StreamFormatError) as got:
        loads_stream(text)
    assert str(got.value) == message


def test_int64_extremes_parse():
    sf = loads_stream("n 9223372036854775807\n+ 1 9223372036854775807\n- -9223372036854775808 1\n")
    assert tuple(sf.updates) == (
        EdgeUpdate(1, 1, 2**63 - 1),
        EdgeUpdate(-1, -(2**63), 1),
    )


def test_update_before_header_names_its_line():
    with pytest.raises(StreamFormatError, match=r"^line 2: cannot parse '\+ 007 2'$"):
        loads_stream("# c\n+ 007 2\nn 3\n")


def test_crlf_and_mixed_lines(tmp_path):
    text = "n 4\r\ndelta 2\r\n+ 1 2\r\n+\t3 4\r\n\r\n- 1 2\r\n"
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.encode())
    expected = StreamFile(
        4, 2, (EdgeUpdate(1, 1, 2), EdgeUpdate(1, 3, 4), EdgeUpdate(-1, 1, 2))
    )
    assert read_stream(path) == loads_stream(text) == expected


def test_invalid_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"n 3\n+ 1 2\n# \xff\n")
    for read in (read_stream, read_coloring):
        with pytest.raises(StreamFormatError, match="^line 3: not UTF-8 text$"):
            read(path)


def test_updates_view_is_sized_and_indexed():
    sf = loads_stream(SAMPLE)
    assert len(sf.updates) == 4
    assert sf.updates[2] == EdgeUpdate(-1, 1, 2)
    # the parsed table is int32 while every value fits
    assert sf.updates.signs.dtype == sf.updates.us.dtype == sf.updates.vs.dtype == np.int32
    assert not sf.updates.us.flags.writeable


# more than one parse block of updates whose values fit int32
_FILLER_LINES = streamio._BLOCK_BYTES // 6 + 10
_FILLER = "+ 1 2\n" * _FILLER_LINES


def test_vertex_at_int32_max_keeps_the_table_int32():
    sf = loads_stream(f"n 3\n{_FILLER}+ 1 {2**31 - 1}\n- {-(2**31)} 2\n")
    assert sf.updates.us.dtype == sf.updates.vs.dtype == np.int32
    assert sf.updates[-2] == EdgeUpdate(1, 1, 2**31 - 1)
    assert sf.updates[-1] == EdgeUpdate(-1, -(2**31), 2)


# a bulk line, then lines that go through the per-line rule
@pytest.mark.parametrize("late", ["+ 1 2147483648", "+\t1 2147483648", "- -2147483649 3"])
def test_vertex_past_int32_in_a_later_block_widens_the_table(late):
    text = f"n 3\n{_FILLER}{late}\n+ 2 3\n"
    sf = loads_stream(text)
    assert sf.updates.signs.dtype == sf.updates.us.dtype == sf.updates.vs.dtype == np.int64
    sign, u, v = late.split()
    assert len(sf.updates) == _FILLER_LINES + 2
    assert sf.updates[0] == EdgeUpdate(1, 1, 2)
    assert sf.updates[-2] == EdgeUpdate(1 if sign == "+" else -1, int(u), int(v))
    assert sf.updates[-1] == EdgeUpdate(1, 2, 3)
    # lines after the widening keep their numbers
    with pytest.raises(StreamFormatError) as got:
        loads_stream(text + "+ 2 x\n")
    assert str(got.value) == f"line {_FILLER_LINES + 4}: cannot parse '+ 2 x'"


def test_number_past_int64_gives_object_dtype():
    lines = [f"{v} 1" for v in range(1, _FILLER_LINES)] + [f"{_FILLER_LINES} {2**64}"]
    text = "\n".join(lines) + "\n"
    table = streamio._table(text.encode(), 0, 0, 0, streamio._vertex_color)
    assert table.dtype == object
    assert table[:, -2:].tolist() == [[_FILLER_LINES - 1, _FILLER_LINES], [1, 2**64]]
    coloring = loads_coloring(text)
    assert coloring.array.dtype == object
    assert coloring.color_of(_FILLER_LINES) == 2**64
    # a stream still names the line of a number past int64
    with pytest.raises(StreamFormatError) as got:
        loads_stream(f"n 3\n{_FILLER}+ 1 {2**64}\n")
    assert str(got.value) == f"line {_FILLER_LINES + 2}: cannot parse '+ 1 {2**64}'"


def _loads_coloring_per_line(text: str) -> PartialColoring:
    """The per-line coloring reader as it stood before the table reader,
    kept as the oracle for `loads_coloring`."""
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


# colors in int64 with up to 18 digits (the bulk form), with 19 digits,
# and past int64
_color = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=(1 << 63) - 1),
    st.integers(min_value=1 << 63, max_value=10**25),
)
_color_token = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    _color.map(str),
    st.integers(min_value=-(10**25), max_value=-1).map(str),
    st.sampled_from(["007", "+4", "-2", "1_0", "٣", "१२", "x", "", "#", "0"]),
)
_coloring_line = st.one_of(
    st.tuples(_color_token, _color_token).map(" ".join),
    st.lists(_color_token, max_size=3).map(" ".join),
    st.sampled_from(["", "   ", "# note", "\t# tab note", "1\t2", " 1 1 ", "1  1", "11", "1 1 1"]),
    st.text(max_size=6),
)
_coloring_break = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x85", " "])


@st.composite
def _coloring_texts(draw):
    # mostly a well-formed file, with a few lines padded, moved, dropped
    # or put in between
    lines = [f"{v} {c}" for v, c in enumerate(draw(st.lists(_color, max_size=12)), 1)]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["pad", "insert", "drop", "move"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "insert" or not lines:
            lines.insert(at, draw(_coloring_line))
        elif edit == "pad":
            pad = st.sampled_from(["", " ", "\t", "  \t"])
            lines[at] = draw(pad) + lines[at].replace(" ", draw(pad) + " ") + draw(pad)
        elif edit == "drop":
            del lines[at]
        else:
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(at))
    breaks = draw(st.lists(_coloring_break, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):  # mostly plain LF, which takes the bulk scan
        breaks = ["\n"] * len(lines)
    text = "".join(a + b for a, b in zip(lines, breaks))
    return text if draw(st.booleans()) else text.rstrip("\n")


def _read_coloring(loads, text):
    """(n, palette, colors) that `loads` reads from `text`, or the message
    of its error; the palette must be a Python int."""
    try:
        c = loads(text)
    except StreamFormatError as exc:
        return str(exc)
    assert type(c.palette) is int
    return c.n, c.palette, c.colors()


_COLORING_EXAMPLES = [
    "1 1\r\n2 2\r\n3 1\r\n",
    "1 1\x0b2 2\n3 1\n",
    "# c\n\n\t1\t3 \n2 +4\n3 1_0\n4 ٣\n",
    "1 99999999999999999999\n2 1\n",
    "1 1\n2 -99999999999999999999\n",
    "99999999999999999999 1\n",
    "1 1000000000000000000\n2 999999999999999999\n",
    "1 1\n3 2\n",
    "2 1\n1 2\n",
    "1 0\n2 0\n",
    "1 1\n2 2 2\n",
]


@pytest.mark.parametrize("block", [None, *_TINY_BLOCKS])
@given(text=_coloring_texts())
@settings(max_examples=300, deadline=None)
def test_coloring_reader_matches_per_line_oracle(block, text):
    expected = _read_coloring(_loads_coloring_per_line, text)
    with _tiny(block) if block else contextlib.nullcontext():
        assert _read_coloring(loads_coloring, text) == expected


@pytest.mark.parametrize("block", [None, *_TINY_BLOCKS])
@pytest.mark.parametrize("text", _COLORING_EXAMPLES)
def test_coloring_examples_read_as_the_oracle_reads_them(block, text):
    expected = _read_coloring(_loads_coloring_per_line, text)
    with _tiny(block) if block else contextlib.nullcontext():
        assert _read_coloring(loads_coloring, text) == expected


@given(st.lists(_color, min_size=1, max_size=30))
@example([1, (1 << 63) - 1, 10**18])
@example([1 << 63, 1])
@settings(max_examples=80)
def test_dumps_coloring_matches_per_line_format(colors):
    # reference: one f-string per line; int64 colors and colors past it
    c = PartialColoring(len(colors), max(colors), colors)
    text = "".join(f"{v} {color}\n" for v, color in enumerate(colors, 1))
    for lines in (streamio._LINES, 1, 7):  # 2^16 lines per byte table, or a few
        with mock.patch.object(streamio, "_LINES", lines):
            assert dumps_coloring(c) == text
    assert loads_coloring(text) == c
