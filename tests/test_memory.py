"""Memory regression tests for the stream front end and the counter bank.

The parser and the legality rule work in fixed-size blocks or in place,
so their traced peaks stay near the arrays they return.  Each test runs
one of them on a generated n = 2000, delta = 300 stream (150k updates,
1.6 MB of text) and bounds its tracemalloc peak by the output arrays,
plus the file bytes for the parser, plus ALLOWANCE.  The whole-buffer
parser peaked at 31.9 MB here and the old legality rule at 11.4 MB, well
above these bounds.

The iterative colorer's first counter bank, over an all-zero base, is
bounded by six int64 arrays of the stream's length (7.2 MB).  Taking
that base as no base, the bank peaks at 5.1 MB (4.9 MiB); building the
endpoint colors, masks and copies of a real base peaked at 11.3 MB
(10.8 MiB).
"""

import tracemalloc

import numpy as np
import pytest

from streamcolor.counters import CounterBank
from streamcolor.generator import generate_stream
from streamcolor.graph import legal_final_edges
from streamcolor.hashfam import extension_family
from streamcolor.streamio import dumps_stream, read_stream

ALLOWANCE = 4 << 20


@pytest.fixture(scope="module")
def dense_stream(tmp_path_factory):
    sf = generate_stream(2000, 300, seed=1)
    path = tmp_path_factory.mktemp("memory") / "dense.txt"
    path.write_text(dumps_stream(sf.n, sf.updates, sf.delta))
    return path


def _traced_peak(fn):
    """fn's result and the traced peak above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def test_read_stream_peak_is_its_output_and_file(dense_stream):
    sf, peak = _traced_peak(lambda: read_stream(dense_stream))
    m = len(sf.updates)
    assert m == 150000
    output = 3 * 8 * m
    assert peak < output + dense_stream.stat().st_size + ALLOWANCE


def test_legal_final_edges_peak_is_its_output(dense_stream):
    sf = read_stream(dense_stream)
    us, vs = sf.updates.us, sf.updates.vs
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    (final_lo, final_hi), peak = _traced_peak(
        lambda: legal_final_edges(sf.n, sf.updates.signs, lo, hi)
    )
    assert final_lo.size == 150000
    assert peak < final_lo.nbytes + final_hi.nbytes + ALLOWANCE


def test_first_iterative_bank_peak_is_bounded(dense_stream):
    sf = read_stream(dense_stream)
    us, vs, signs = sf.updates.us, sf.updates.vs, sf.updates.signs
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    fam = extension_family(sf.n, sf.delta)
    base = np.zeros(sf.n + 1, dtype=np.int64)
    bank, peak = _traced_peak(lambda: CounterBank.from_arrays(fam, base, lo, hi, signs))
    assert bank.counts[0] == lo.size  # member 0 colors every edge alike
    assert peak < 6 * lo.nbytes
