"""Round-trip and validation tests for the text stream / coloring formats."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "text",
    [
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
    ],
)
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


@given(_stream_texts())
@example("n 3\n+  34\n+ 1 2\n")
@example("n 3\r\n+ 1 2\r\n- 1 2\r\n+ 2 3 \r\n+ 2 x\r\n")
@example("# c\n+ 1 2\nn 3\n")
@example("n 3\n+ 1 2\n+ 1 2 3\n+ 0002 3")
@example("#c\r\n\r\n n 9\r\n#\r\n + 1 2 \r\n\t# t\r\n+ 2 3\r\n #\r\n")
@settings(max_examples=400, deadline=None)
def test_bulk_parser_matches_per_line_oracle(text):
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
    assert sf.updates.signs.dtype == np.int64
    assert not sf.updates.us.flags.writeable
