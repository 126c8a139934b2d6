"""In-process span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around the public
entry point of each streamcolor layer, by patching each name where its
caller looks it up (the ``streamcolor.cli`` and ``streamcolor.engine``
module globals and a few class attributes).  Nothing under ``src/`` is
changed.  Spans and counts stay in memory; the caller writes them out
when the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# span name of every colorer entry point the CLI calls
COLORER = "engine.colorer"


class Tracer:
    """Spans as [name, start, end, parent index] plus summed counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def keep_max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def self_times(self, first: int = 0, last: int | None = None) -> Counter:
        """Summed self time per span name over spans[first:last].

        Self time is a span's duration minus that of its direct children.
        The slice must start at a root span or at a span boundary between
        roots, so every child in it has its parent in it too.
        """
        spans = self.spans[first:last]
        out: Counter = Counter()
        for name, start, end, parent in spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out


def _count_read_stream(t: Tracer, args, kwargs, out) -> None:
    t.counts["streamio.read_stream_updates"] += len(out.updates)


def _count_from_arrays(t: Tracer, args, kwargs, out) -> None:
    # the classmethod's function sees (cls, family, base, us, vs, signs)
    t.counts["counters.from_arrays_calls"] += 1
    t.counts["counters.edges_in"] += len(args[3])
    t.counts["counters.entries"] += out.entry_count()


def _count_update_batch(t: Tracer, args, kwargs, out) -> None:
    t.counts["recovery.sketch_k_total"] += args[0].k


def _count_decode(t: Tracer, args, kwargs, out) -> None:
    from streamcolor.recovery import edge_universe

    sketch = args[0]
    candidates = kwargs.get("candidates", args[1] if len(args) > 1 else None)
    size = edge_universe(sketch.n) if candidates is None else len(candidates)
    t.counts["recovery.decode_candidates"] += size
    t.counts["recovery.decoded_edges"] += len(out)


def _model_words(report) -> int:
    """Words the streaming algorithm holds, from the public report fields:
    2 per stored edge, 1 per counter, 2 per sketch budget unit (2k field
    elements per sketch), plus the 2n color and degree arrays."""
    return (
        2 * report.peak_stored_edges
        + report.counter_entries
        + 2 * sum(report.sketch_budgets)
        + 2 * report.n
    )


def _count_colorer(t: Tracer, args, kwargs, out) -> None:
    t.counts["engine.passes"] += out.passes
    t.keep_max("engine.stored_edges", out.peak_stored_edges)
    t.keep_max("engine.model_words", _model_words(out))


def _patch_points():
    """(owner, attribute, span name, count hook) for every traced entry."""
    from streamcolor import cli, engine
    from streamcolor.counters import CounterBank
    from streamcolor.engine import StreamSource
    from streamcolor.recovery import SparseRecoverySketch

    return [
        (cli, "read_stream", "streamio.read_stream", _count_read_stream),
        (cli, "read_coloring", "streamio.read_coloring", None),
        (cli, "dumps_coloring", "streamio.dumps_coloring", None),
        (cli, "dumps_stream", "streamio.dumps_stream", None),
        (cli, "materialize", "graph.materialize", None),
        (cli, "validate_proper", "graph.validate_proper", None),
        (cli, "generate_stream", "generator.generate_stream", None),
        (cli, "two_pass_coloring", COLORER, _count_colorer),
        (cli, "iterative_coloring", COLORER, _count_colorer),
        (cli, "two_pass_unknown_delta", COLORER, _count_colorer),
        (engine, "greedy_extend", "graph.greedy_extend", None),
        (StreamSource, "replay_arrays", "engine.replay_arrays", None),
        (CounterBank, "from_arrays", "counters.from_arrays", _count_from_arrays),
        (SparseRecoverySketch, "update_batch", "recovery.update_batch", _count_update_batch),
        (SparseRecoverySketch, "decode", "recovery.decode", _count_decode),
    ]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, out)
        return out

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every layer entry point through `tracer` while active."""
    saved = []
    try:
        for owner, attr, name, hook in _patch_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                traced = _wrap(tracer, name, original.__func__, hook)
                setattr(owner, attr, classmethod(traced))
            else:
                setattr(owner, attr, _wrap(tracer, name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
