"""Memory regression tests for the stream front end and the counter bank.

The parser and the legality rule work in fixed-size blocks or in place,
so their traced peaks stay near the arrays they return.  Each test runs
one of them on a generated n = 2000, delta = 300 stream (150k updates,
1.6 MB of text).  The parser is bounded by the table it fills, the file
bytes and ALLOWANCE: it peaks at 4.8 MB with the int32 table (1.8 MB,
12 bytes per update), at 6.6 MB when the table was int64, and at 31.9 MB
as one whole-buffer scan.  The legality rule sorts an insertion-only
stream's edge keys in place, and they become the final lo ends, so it is
bounded by the final arrays plus a byte per update: it peaks at 2.40 MB,
3 KB above the final arrays.  The stable argsort it runs only when a key
repeats peaked at 3.6 MB here, with its order array and sorted keys, and
the first legality rule at 11.4 MB.

The passes read the parsed table as it is, so the first replay, which
runs the legality rule, leaves less than 1 MiB traced behind it.  A
cached (lo, hi) copy of the ends held 2.4 MB here.

The iterative colorer's first counter bank, over an all-zero base, is
bounded by ALLOWANCE: the kernel forms its per-edge inverses in column
blocks of fixed width, so its temporaries do not grow with the stream.
It peaks at 2.6 MB (2.5 MiB), and at 3.2 MB on an int64 table.  Forming
the inverses for the whole stream first peaked at 5.1 MB (4.9 MiB), and
building the endpoint colors, masks and copies of a real base at 11.3 MB
(10.8 MiB).  A bank over a real base, the coloring of the iterative
colorer's second round, forms its endpoint colors and masks one block of
edges at a time and is bounded by half of ALLOWANCE: it peaks at 1.5 MB.
Gathering them for the whole stream at once peaked at 3.2 MB.

Each colorer's per-vertex state is bounded by 150 bytes per vertex on a
three-edge stream with n = 200,000 and delta = 2.  With colorings held
as tuples and greedy extension run over adjacency sets, two_pass_coloring,
iterative_coloring and two_pass_unknown_delta peaked at 312, 290 and 312
bytes per vertex; with one vertex-indexed color array through greedy,
the product and the rounds they peak at 68, 70 and 68.

A dynamic storage pass lists its decode candidates within
CANDIDATE_BYTES each, the figure its cap is computed from.  On one class
of 1000 vertices, all marked or a tenth marked, the lister peaks at 49
bytes per candidate; holding the pair index arrays through the encoding
peaked at 65, and listing every (marked, member) pair first at 83 with
all marked.

The coloring file is written and read through byte tables, so writing
or reading a 12-color coloring of n = 200,000 vertices stays within 48
bytes per vertex: 22.6 and 32.8 traced.  One f-string per line peaked at
81.5 to write, and a per-line reader at 156.9 to read.
"""

import tracemalloc

import numpy as np
import pytest

from streamcolor.counters import CounterBank
from streamcolor.engine import (
    CANDIDATE_BYTES,
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
    # the rows are views of one table, int32 here: 12 bytes per update
    table = sf.updates.us.base
    assert table is sf.updates.signs.base and table.dtype == np.int32
    assert peak < table.nbytes + dense_stream.stat().st_size + ALLOWANCE


def test_legal_final_edges_peak_is_its_output(dense_stream):
    sf = read_stream(dense_stream)
    (final_lo, final_hi), peak = _traced_peak(
        lambda: legal_final_edges(sf.n, sf.updates.signs, sf.updates.us, sf.updates.vs)
    )
    assert final_lo.size == 150000
    # the sorted keys become the final lo ends in place; beside them only
    # a byte mask per update, and no 8-byte order array
    assert peak < final_lo.nbytes + final_hi.nbytes + final_lo.size


def test_replay_holds_no_copy_of_the_stream(dense_stream):
    src = StreamSource.from_stream_file(read_stream(dense_stream))
    arrays, _, held = _traced(src.replay_arrays)
    assert arrays[0].size == 150000
    assert held < 1 << 20


def test_first_iterative_bank_peak_is_bounded(dense_stream):
    sf = read_stream(dense_stream)
    us, vs, signs = sf.updates.us, sf.updates.vs, sf.updates.signs
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    fam = extension_family(sf.n, sf.delta)
    base = PartialColoring(sf.n, fam.palette)
    bank, peak = _traced_peak(lambda: CounterBank.from_arrays(fam, base, lo, hi, signs))
    assert bank.counts[0] == lo.size  # member 0 colors every edge alike
    assert peak < ALLOWANCE


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
    assert peak < ALLOWANCE // 2


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
