"""Memory regression tests for the stream front end and the counter bank.

The parser and the legality rule work in fixed-size blocks or in place,
so their traced peaks stay near the arrays they return.  Each test runs
one of them on a generated n = 2000, delta = 300 stream (150k updates,
1.6 MB of text).  The parser reads the file a block at a time, so it is
bounded by the table it fills and ALLOWANCE: it peaks at 3.2 MB, with
room for 272k rows of int16 (1.6 MB; the 150k rows it keeps are 0.9 MB,
6 bytes per update) and the temporaries of one 64 KiB block.  With the
whole file read first it peaked at 4.8 MB on an int32 table, at 6.6 MB
on an int64 one, and at 31.9 MB as one whole-buffer scan.  The legality
rule sorts an insertion-only stream's edge keys in place, and they
become the final lo ends, so it is bounded by the final arrays plus a
byte per update: it peaks at 2.40 MB, 0.5 KB above the final arrays.
The stable argsort it runs only when a key repeats peaked at 3.6 MB
here, with its order array and sorted keys, and the first legality rule
at 11.4 MB.

The passes read the parsed table as it is, so the first replay, which
runs the legality rule, leaves less than 1 MiB traced behind it.  A
cached (lo, hi) copy of the ends held 2.4 MB here.  It takes the rule's
verdict only, on int32 keys, so it peaks at its keys and a byte per
update: 0.75 MB, 3 KB above them.  Building the final edges it threw
away peaked at 2.40 MB.

`verify` takes the stream's legality verdict on the narrowest keys,
then replays only the updates the storage rule keeps with the coloring
as classes: those of monochromatic edges.  On this stream, with the
coloring `color --unknown-delta` writes or a random 40-coloring, its
check peaks at its int32 verdict keys and a byte per update: 0.72 MiB
(753.6 KB), 3.6 KB above them.  At n = 100,000, with 50k generated
insertions, the keys are int64 and it peaks at 452.0 KB, 2.0 KB above
8 bytes and a byte per update.  Building the whole final graph first,
and checking each final edge, peaked at 2.50 and 2.93 MiB here and at
0.93 MiB at n = 100,000.

The iterative colorer's first counter bank, over an all-zero base, and
a bank over a real base, the coloring of the iterative colorer's second
round, are each bounded by an eighth of ALLOWANCE.  A bank is one fold
over the stream's blocks of graph.BLOCK (2^12) updates: it gathers a
block's endpoint colors and masks, and sweeps the block's free pairs and
mixed columns in work buffers built once per bank, so its temporaries do
not grow with the stream, and an insert-only batch takes no mask of its
signs.  The two peak at 0.266 and 0.326 MB.  With that mask they
peaked at 0.417 and 0.477 MB, and with the free pairs and mixed columns
of 2^14-update gathers concatenated into stream-sized arrays and swept
2^12 columns at a time at 0.415 and 0.518 MB.  With sweep blocks of
2^16 columns the first bank peaked at 2.6 MB (2.5 MiB) on an int32
table, and at 3.2 MB on an int64 one, and with gathers of 2^16 edges the
bank over a real base peaked at 1.5 MB.  Forming the inverses for the
whole stream first peaked at 5.1 MB (4.9 MiB), building the endpoint
colors, masks and copies of a real base at 11.3 MB (10.8 MiB), and
gathering them for the whole stream at once at 3.2 MB.

Each colorer's per-vertex state is bounded by 150 bytes per vertex on a
three-edge stream with n = 200,000 and delta = 2.  With colorings held
as tuples and greedy extension run over adjacency sets, two_pass_coloring,
iterative_coloring and two_pass_unknown_delta peaked at 312, 290 and 312
bytes per vertex; with one vertex-indexed color array through greedy,
the product and the rounds they peak at 60, 62 and 60.  A `color` child
of each, on the same three edges with n = 2,000,000, is held to
VERTEX_STATE_BYTES per vertex of peak RSS above one with n = 10: it
reads 41.3, 43.3 and 41.2.

A dynamic storage pass lists its decode candidates within
CANDIDATE_BYTES each, the figure its cap is computed from.  On one class
of 1000 vertices, all marked or a tenth marked, the lister peaks at 49
bytes per candidate; holding the pair index arrays through the encoding
peaked at 65, and listing every (marked, member) pair first at 83 with
all marked.

The coloring file is written and read through byte tables, so writing
or reading a 12-color coloring of n = 200,000 vertices stays within 48
bytes per vertex: 22.6 and 36.7 traced (28.7 to read when the table had
room for exactly one row per line, counted in the whole text first).
One f-string per line peaked at 81.5 to write, and a per-line reader at
156.9 to read.
"""

import importlib.util
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from streamcolor import cli
from streamcolor.counters import CounterBank
from streamcolor.engine import (
    CANDIDATE_BYTES,
    VERTEX_STATE_BYTES,
    StreamSource,
    _candidates,
    iterative_coloring,
    two_pass_coloring,
    two_pass_unknown_delta,
)
from streamcolor.generator import generate_stream
from streamcolor.graph import EdgeUpdate, PartialColoring, legal_final_edges
from streamcolor.hashfam import extension_family
from streamcolor.streamio import dumps_coloring, dumps_stream, loads_coloring, read_stream

ALLOWANCE = 4 << 20
# the block temporaries of a pass that works a block of updates at a time
SMALL_ALLOWANCE = 1 << 16


@pytest.fixture(scope="module")
def dense_stream(tmp_path_factory):
    sf = generate_stream(2000, 300, seed=1)
    path = tmp_path_factory.mktemp("memory") / "dense.txt"
    path.write_text(dumps_stream(sf.n, sf.updates, sf.delta))
    return path


def _traced(fn):
    """fn's result, its traced peak and the traced memory still held after
    it returns, both above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return out, peak, held


def _traced_peak(fn):
    """fn's result and the traced peak above what was live before it."""
    return _traced(fn)[:2]


def test_read_stream_peak_is_its_output_and_file(dense_stream):
    sf, peak = _traced_peak(lambda: read_stream(dense_stream))
    assert len(sf.updates) == 150000
    # the rows are views of one table, int16 here: 6 bytes per update
    table = sf.updates.us.base
    assert table is sf.updates.signs.base and table.dtype == np.int16
    # the file is read a block at a time, so it adds nothing
    assert peak < table.nbytes + ALLOWANCE


def test_read_stream_of_lone_cr_breaks_peak_is_its_output(dense_stream, tmp_path):
    # a file with no LF is still read a block at a time, cut at lone CRs
    path = tmp_path / "dense_cr.txt"
    path.write_bytes(dense_stream.read_bytes().replace(b"\n", b"\r"))
    sf, peak = _traced_peak(lambda: read_stream(path))
    assert sf == read_stream(dense_stream)
    assert peak < sf.updates.us.base.nbytes + ALLOWANCE


def test_legal_final_edges_peak_is_its_output(dense_stream):
    sf = read_stream(dense_stream)
    (final_lo, final_hi), peak = _traced_peak(
        lambda: legal_final_edges(sf.n, sf.updates.signs, sf.updates.us, sf.updates.vs)
    )
    assert final_lo.size == 150000
    # the sorted keys become the final lo ends in place; beside them only
    # a byte mask per update, and no 8-byte order array
    assert peak < final_lo.nbytes + final_hi.nbytes + final_lo.size


def test_first_replay_peak_is_its_keys(dense_stream):
    src = StreamSource.from_stream_file(read_stream(dense_stream))
    m = len(src.updates)
    arrays, peak = _traced_peak(src.replay_arrays)
    assert arrays[0].size == m
    # the legality verdict: the int32 edge keys of vertices below 46341,
    # sorted in place, and a byte mask per update; no final edges
    assert peak < 4 * m + m + SMALL_ALLOWANCE


def test_replay_holds_no_copy_of_the_stream(dense_stream):
    src = StreamSource.from_stream_file(read_stream(dense_stream))
    arrays, _, held = _traced(src.replay_arrays)
    assert arrays[0].size == 150000
    assert held < 1 << 20


def _verify_peak(sf, coloring):
    """`verify`'s exit code and the traced peak of its check, with the
    stream and coloring already read."""
    args = cli._parser().parse_args(["verify", "--quiet", "--in", "s", "--coloring", "c"])
    with (
        mock.patch.object(cli, "read_stream", lambda path: sf),
        mock.patch.object(cli, "read_coloring", lambda path: coloring),
        mock.patch("sys.stderr"),
    ):
        return _traced_peak(lambda: cli.cmd_verify(args))


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "random"])
def test_verify_peak_is_its_verdict_keys(dense_stream, proper):
    sf = read_stream(dense_stream)
    m = len(sf.updates)
    if proper:
        coloring = two_pass_unknown_delta(StreamSource.from_stream_file(sf)).coloring
    else:
        colors = np.random.default_rng(1).integers(1, 41, sf.n + 1)
        colors[0] = 0
        coloring = PartialColoring(sf.n, 40, colors)
    code, peak = _verify_peak(sf, coloring)
    assert code == (0 if proper else 5)
    # the int32 legality keys and a byte per update; no final edges
    assert peak < 4 * m + m + SMALL_ALLOWANCE


def test_verify_peak_at_int64_keys_is_its_verdict_keys():
    n = 100_000
    sf = generate_stream(n, 8, seed=1, edge_target=50_000)
    m = len(sf.updates)
    assert m > 45_000 and max(sf.updates.us.max(), sf.updates.vs.max()) > 46_340
    colors = np.random.default_rng(1).integers(1, 41, n + 1)
    colors[0] = 0
    code, peak = _verify_peak(sf, PartialColoring(n, 40, colors))
    assert code == 5
    # vertices above 46340 key into int64: 8 bytes and a byte per update
    assert peak < 8 * m + m + SMALL_ALLOWANCE


def test_first_iterative_bank_peak_is_bounded(dense_stream):
    sf = read_stream(dense_stream)
    us, vs, signs = sf.updates.us, sf.updates.vs, sf.updates.signs
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    fam = extension_family(sf.n, sf.delta)
    base = PartialColoring(sf.n, fam.palette)
    bank, peak = _traced_peak(lambda: CounterBank.from_arrays(fam, base, lo, hi, signs))
    assert bank.counts[0] == lo.size  # member 0 colors every edge alike
    assert peak < ALLOWANCE // 8


def test_bank_over_a_real_base_peak_is_bounded(dense_stream):
    sf = read_stream(dense_stream)
    fam = extension_family(sf.n, sf.delta)
    # the coloring the iterative colorer banks over in its second round
    base = iterative_coloring(StreamSource.from_stream_file(sf), sf.delta).phase_colorings[0]
    assert 0 < base.colored_count() < sf.n
    updates = sf.updates
    bank, peak = _traced_peak(
        lambda: CounterBank.from_arrays(fam, base, updates.us, updates.vs, updates.signs)
    )
    assert bank.counts.sum() > 0
    assert peak < ALLOWANCE // 8


@pytest.mark.parametrize(
    "colorer",
    [
        lambda src: two_pass_coloring(src, 2),
        lambda src: iterative_coloring(src, 2),
        two_pass_unknown_delta,
    ],
    ids=["two-pass", "iterative", "unknown-delta"],
)
def test_colorer_peak_per_vertex_is_bounded(colorer):
    n = 200_000
    edges = [EdgeUpdate(1, 1, 2), EdgeUpdate(1, 2, 3), EdgeUpdate(1, 4, 5)]
    src = StreamSource(n, edges)
    report, peak = _traced_peak(lambda: colorer(src))
    assert report.coloring.is_total
    assert peak < 150 * n


_TOOL = Path(__file__).resolve().parents[1] / "tools" / "child_rss.py"
_spec = importlib.util.spec_from_file_location("child_rss", _TOOL)
child_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(child_rss)


@pytest.mark.parametrize(
    "flags",
    [("--alg", "two-pass"), ("--alg", "iterative"), ("--unknown-delta",)],
    ids=["two-pass", "iterative", "unknown-delta"],
)
def test_color_child_per_vertex_state_is_within_vertex_state_bytes(tmp_path, flags):
    # the peak RSS of a `color` child with n = 2,000,000 above one with
    # n = 10, on the same three edges, per vertex
    peaks = {}
    for n in (10, 2_000_000):
        stream = tmp_path / f"s{n}.txt"
        stream.write_text(f"n {n}\ndelta 2\n+ 1 2\n+ 2 3\n+ 4 5\n")
        out = tmp_path / f"c{n}.txt"
        argv = ["color", "--in", str(stream), "--out", str(out), *flags]
        run = child_rss.child(_TOOL.parents[1], argv)
        assert run.exit_code == 0
        peaks[n] = run.rss_bytes
    assert (peaks[2_000_000] - peaks[10]) / 2_000_000 <= VERTEX_STATE_BYTES


@pytest.mark.parametrize("every", [1, 10], ids=["all-marked", "tenth-marked"])
def test_candidate_peak_is_within_candidate_bytes(every):
    n = 1000
    classes = np.ones(n + 1, dtype=np.int64)
    classes[0] = 0
    marked = np.arange(n + 1) % every == 0
    marked[0] = False
    t = int(marked.sum())
    cands, peak = _traced_peak(lambda: _candidates(classes, marked))
    assert cands.size == t * n - t * (t + 1) // 2
    assert peak <= cands.size * CANDIDATE_BYTES


def test_coloring_file_peak_per_vertex_is_bounded():
    n = 200_000
    colors = np.arange(n + 1) % 12 + 1
    colors[0] = 0
    coloring = PartialColoring(n, 12, colors)
    text, peak = _traced_peak(lambda: dumps_coloring(coloring))
    assert peak < 48 * n
    back, peak = _traced_peak(lambda: loads_coloring(text))
    assert back == coloring
    assert peak < 48 * n
