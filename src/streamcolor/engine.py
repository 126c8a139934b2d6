"""Deterministic semi-streaming coloring algorithms.

Two algorithms over edge streams on vertices 1..n with max degree at
most delta:

* two_pass_coloring: pass 1 counts, per hash colorer, how many stream
  edges it leaves monochromatic and keeps the argmin member; pass 2
  stores that member's monochromatic edges (at most 4n of them), colors
  the stored subgraph greedily with delta + 1 colors, and outputs the
  product coloring over at most delta * (delta + 1) colors.

* iterative_coloring: repeatedly extends a partial coloring by the best
  member of a 6*delta-palette family, storing at most n0/3 monochromatic
  edges per round (n0 = currently uncolored), until at most n/delta
  vertices remain; a final pass stores their incident edges (at most n)
  and greedy-colors them inside the same palette.  Colors used: at most
  max(6 * delta, 1); rounds: at most ceil(log_{3/2} delta) + 1.

* two_pass_unknown_delta: like two_pass_coloring but pass 1 also
  measures the true max degree and maintains a counter bank per
  power-of-two palette guess, then commits to the smallest guess that
  is at least the true degree.  Both two-pass entry points run one
  body, `_two_pass`.

Both algorithms repeat one step, `_round`: bank the family over a base
coloring in one pass, take the argmin member, extend the base by it, and
store the extension's monochromatic edges in the next pass.  The
two-pass colorer runs it once, over an empty base; the iterative colorer
once per round.

Every "store edges" phase (two-pass pass 2, each round's second pass,
the iterative final pass) is one routine, `_stored_subgraph`, under the
storage rule `graph.keep_mask`: keep the final edges whose ends have
equal `classes` and at least one `marked` end.  A round passes the
extension's colors as classes and marks every vertex; the final pass
puts every vertex in one class and marks the uncolored ones.  The rule
keeps every update of an edge or none, so insertion-only streams take
the kept updates' final edges through the legality rule, as `verify`
does with the coloring as classes.  Dynamic streams (insertions and
deletions) store through a deterministic sparse-recovery sketch there,
decoded over the same rule's pairs among the survivors' ends; decoded
edge sets equal what an insertion-only run on the final graph would
store, so outputs are identical byte for byte.

A pass is one replay of the stream; the StreamSource counts replays so
reports cannot misstate pass usage.  Space accounting in reports covers
the algorithm's own state: stored edges, counter entries, sketch field
elements, plus the O(n) degree array and one color per vertex.  On
dynamic streams each storage pass also sums an O(n) net-degree array
over its kept updates; its positive entries mark the survivors' ends,
from which decode draws its candidates.  Every coloring, from a family
member's colors through the iterative rounds, greedy extension and the
product, is one vertex-indexed array held by a `PartialColoring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .counters import CounterBank, argmin_counter
from .errors import (
    DegreeViolationError,
    IllegalUpdateError,
    MonoBudgetExceededError,
    NonTerminationError,
    TooLargeError,
    UsageError,
)
from .graph import (
    MAX_VERTEX,
    EdgeUpdate,
    Graph,
    PartialColoring,
    UpdateView,
    greedy_extend,
    keep_mask,
    legal_final_edges,
)
from .hashfam import ColoringFamily, basic_family, extension_family
from .recovery import SparseRecoverySketch, edge_encode_array
from .streamio import StreamFile


# bytes of per-vertex state a `color` run holds at its peak, rounded up:
# the degree and color arrays, the greedy step's CSR form and the
# coloring's output text.  A `color` child on a three-edge stream with
# n = 2,000,000 peaked 43.3 bytes per vertex above an n = 10 run with
# --alg iterative and 41.2-41.3 with --alg two-pass or --unknown-delta;
# tests/test_memory.py holds each colorer to this figure.  A dynamic
# colorer's sketch is not counted here.
VERTEX_STATE_BYTES = 50
# the most per-vertex state a colorer may ask for (2 GiB): n <= 42949672.
# A dynamic colorer's decode candidates are held to the same cap.
MAX_VERTEX_STATE_BYTES = 1 << 31
# traced bytes per decode candidate, rounded up: listing the candidates
# and taking their encodings for `decode` peaked at 49.0 bytes each for
# one class of 1000 or 3000 vertices, all marked (as with every vertex
# uncolored in the final pass) or a tenth marked, and at 17.0 bytes each
# for 16 classes of 1250 vertices, all marked
CANDIDATE_BYTES = 56


class StreamSource:
    """Replayable edge-update sequence with declared n.

    The stream is held once, as the parsed (sign, u, v) table (in the
    first of int16, int32 and int64 that holds every value), and every
    replay yields those arrays unchanged, in their dtype; nothing orders
    an update's ends, since every pass reads u and v alike.  `replays`
    counts how many passes have been taken over the source.  n must
    leave the colorers' per-vertex state within MAX_VERTEX_STATE_BYTES,
    which is checked here, before any of it is allocated.
    """

    def __init__(self, n: int, updates: Iterable[EdgeUpdate]):
        if n < 1:
            raise UsageError("stream needs n >= 1")
        if n > MAX_VERTEX:
            # the engine keys edges in int64 and holds arrays indexed by vertex
            raise TooLargeError(f"n = {n} is above MAX_VERTEX = {MAX_VERTEX}")
        if n * VERTEX_STATE_BYTES > MAX_VERTEX_STATE_BYTES:
            raise TooLargeError(
                f"n = {n} needs about {n * VERTEX_STATE_BYTES} bytes of per-vertex "
                f"state, above the cap of {MAX_VERTEX_STATE_BYTES} bytes"
            )
        self.n = n
        self.updates = UpdateView.of(updates)
        self.replays = 0
        self._checked = False

    @classmethod
    def from_stream_file(cls, sf: StreamFile) -> "StreamSource":
        return cls(sf.n, sf.updates)

    @classmethod
    def from_graph(cls, g: Graph) -> "StreamSource":
        lo, hi = g.edge_arrays()
        return cls(g.n, UpdateView(np.ones_like(lo), lo, hi))

    def replay_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass, returned as the read-only (us, vs, signs) arrays the
        stream was parsed into, each update's ends as written.

        The first call checks the stream against the legality rule
        (`graph.legal_final_edges`), taking its verdict only; every call
        is counted as a pass.  No copy is made: the passes read the one
        table the parser filled.
        """
        self.replays += 1
        if not self._checked:
            updates = self.updates
            legal_final_edges(self.n, updates.signs, updates.us, updates.vs, final=False)
            self._checked = True
        return self.updates.us, self.updates.vs, self.updates.signs


@dataclass
class RunReport:
    """Everything a run discloses: output plus resource accounting."""

    algorithm: str
    n: int
    delta: int
    palette_bound: int
    passes: int
    coloring: PartialColoring
    chosen_members: list[int] = field(default_factory=list)
    iterations: int = 0
    peak_stored_edges: int = 0
    counter_entries: int = 0
    selected_delta: int | None = None
    sketch_budgets: list[int] = field(default_factory=list)
    phase_uncolored: list[int] = field(default_factory=list)
    phase_stored: list[int] = field(default_factory=list)
    phase_colorings: list[PartialColoring] = field(default_factory=list)
    final_stored_edges: int | None = None

    def max_color_used(self) -> int:
        return int(self.coloring.array.max())

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "delta": self.delta,
            "selected_delta": self.selected_delta,
            "palette_bound": self.palette_bound,
            "max_color_used": self.max_color_used(),
            "passes": self.passes,
            "iterations": self.iterations,
            "chosen_members": list(self.chosen_members),
            "peak_stored_edges": self.peak_stored_edges,
            "final_stored_edges": self.final_stored_edges,
            "counter_entries": self.counter_entries,
            "sketch_budgets": list(self.sketch_budgets),
            "phase_uncolored": list(self.phase_uncolored),
            "phase_stored": list(self.phase_stored),
        }


def _degree_array(n: int, us, vs, signs) -> np.ndarray:
    """Net degree of each vertex: each end counts 1, and each end of a
    deletion 2 less.  Adding scalars keeps np.add.at on its fast path;
    adding int32 signs to the int64 degrees took a casting path 30 times
    slower, and np.bincount would hold a second array of n + 1 counts."""
    deg = np.zeros(n + 1, dtype=np.int64)
    # an insert-only stream takes no byte mask of its signs, as in
    # `counters.collision_index_counts`: its deletions are an empty view
    deleted = signs < 0 if signs.min(initial=1) < 0 else slice(0)
    for ends in (us, vs):
        np.add.at(deg, ends, 1)
        np.add.at(deg, ends[deleted], -2)
    return deg


def _first_pass_checks(src: StreamSource, delta: int | None, dynamic: bool):
    """Read one pass; enforce stream legality, the stream mode and the
    degree bound.

    Returns (arrays, true max degree).  Degrees are those of the final
    graph, so dynamic streams may exceed delta transiently.
    """
    us, vs, signs = src.replay_arrays()
    if not dynamic and signs.min(initial=0) < 0:
        raise IllegalUpdateError(
            "deletions present; insertion-only mode cannot process them"
        )
    deg = _degree_array(src.n, us, vs, signs)
    true_delta = int(deg.max()) if deg.size else 0
    if delta is not None and true_delta > delta:
        offender = int(np.argmax(deg))
        raise DegreeViolationError(
            f"vertex {offender} has degree {int(deg[offender])} > delta {delta}"
        )
    return (us, vs, signs), true_delta


def _candidates(classes: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Encodings of all vertex pairs with equal classes other than 0 and
    at least one marked end (index 0 ignored), each listed once, in no set
    order.  Raises TooLargeError before listing any pair if they would
    pass MAX_VERTEX_STATE_BYTES."""
    n = classes.shape[0] - 1
    verts = np.flatnonzero(classes[1:]) + 1
    # by class, each class's marked members first: a pair has a marked end
    # exactly when its first end is marked
    verts = verts[np.lexsort((~marked[verts], classes[verts]))]
    starts = np.flatnonzero(np.diff(classes[verts], prepend=0))
    sizes = np.diff(starts, append=verts.size)
    tops = np.add.reduceat(marked[verts], starts)
    # a class of s members, t of them marked: t * s - t * (t + 1) / 2 pairs
    count = int((tops * sizes - tops * (tops + 1) // 2).sum())
    if count * CANDIDATE_BYTES > MAX_VERTEX_STATE_BYTES:
        raise TooLargeError(
            f"{count} decode candidates need about {count * CANDIDATE_BYTES} "
            f"bytes, above the cap of {MAX_VERTEX_STATE_BYTES} bytes"
        )
    parts = [np.empty(0, dtype=np.int64)]
    for start, s, t in zip(starts.tolist(), sizes.tolist(), tops.tolist()):
        members = verts[start : start + s]
        i, j = np.triu_indices(t, 1, s)
        ends = members[i], members[j]
        del i, j  # so they do not outlive the encoding's temporaries
        parts.append(edge_encode_array(*ends, n))
    return np.concatenate(parts)


def _stored_subgraph(
    n: int,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    classes: np.ndarray,
    marked: np.ndarray,
    dynamic: bool,
    sketch_k: int,
    report: RunReport,
) -> Graph:
    """Storage phase shared by every colorer: the final graph's edges whose
    ends have equal `classes` and at least one `marked` end.  `classes`
    and `marked` are vertex-indexed; every class is positive.

    The updates are kept by `graph.keep_mask`, which keeps every update
    of an edge or none, so the kept updates are a legal stream whose
    final edges are the stored ones.  Insertion-only streams take them
    through the legality rule, `legal_final_edges`; dynamic streams feed
    the kept updates to a sparse-recovery sketch of budget `sketch_k` and
    decode it over the same rule's pairs among the survivors' ends, the
    vertices of positive net degree over the kept updates.  Each kept
    edge's net multiplicity is its final one, so the candidates hold
    every survivor.
    """
    keep = keep_mask(classes, marked, arrays[0], arrays[1])
    us, vs, signs = (a[keep] for a in arrays)
    if not dynamic:
        return Graph._from_sorted_arrays(n, *legal_final_edges(n, signs, us, vs))
    sketch = SparseRecoverySketch.empty(n, sketch_k)
    sketch.update_batch(signs, us, vs)
    report.sketch_budgets.append(sketch_k)
    ends = _degree_array(n, us, vs, signs) > 0
    # decode lists the survivors sorted by encoding, i.e. by (lo, hi)
    decoded = sketch.decode(candidates=_candidates(np.where(ends, classes, 0), marked))
    return Graph._from_sorted_arrays(n, *np.array(decoded, dtype=np.int64).reshape(-1, 2).T)


def _passes(
    src: StreamSource, first: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The colorer's passes in order, as (us, vs, signs) arrays: `first`,
    the pass `_first_pass_checks` read, then one replay per pass."""
    yield first
    while True:
        yield src.replay_arrays()


def _round(
    fam: ColoringFamily,
    base: PartialColoring,
    passes: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]],
    dynamic: bool,
    sketch_k: int,
    report: RunReport,
) -> tuple[np.ndarray, Graph]:
    """One extension round, shared by both colorers: on one pass, bank
    `fam` over `base` and take the argmin member; on the next, store the
    monochromatic edges of `base` extended by that member.

    Returns the extension's colors and the stored subgraph.
    """
    bank = CounterBank.from_arrays(fam, base, *next(passes))
    i_star = argmin_counter(bank)
    report.chosen_members.append(i_star)
    ext = np.where(base.array > 0, base.array, fam.member(i_star).colors_array())
    everyone = np.ones(base.n + 1, dtype=bool)
    sub = _stored_subgraph(base.n, next(passes), ext, everyone, dynamic, sketch_k, report)
    return ext, sub


def _two_pass(
    src: StreamSource, delta: int | None, dynamic: bool, algorithm: str
) -> RunReport:
    """The two-pass body: one round over an empty base.  `delta` None
    selects the smallest power-of-two guess at least the true max degree
    measured in pass 1."""
    n = src.n
    start_passes = src.replays
    arrays, true_delta = _first_pass_checks(src, delta, dynamic)
    selected, guesses = None, 1
    if delta is None:
        # the grid of guesses is 1, 2, 4, ..., up to the first at least n
        delta = selected = 1 << (max(true_delta, 1) - 1).bit_length()
        guesses = (n - 1).bit_length() + 1
    # only the committed guess's argmin is consumed, so only its bank is built
    fam = basic_family(n, delta)
    palette = max(delta, 1) * (delta + 1)
    empty = PartialColoring(n, 1)
    report = RunReport(
        algorithm=algorithm,
        n=n,
        delta=delta,
        palette_bound=palette,
        passes=0,
        coloring=empty,
        counter_entries=fam.p * guesses,
        selected_delta=selected,
    )

    colors, sub = _round(fam, empty, _passes(src, arrays), dynamic, 4 * n, report)
    if sub.m > 4 * n:
        raise MonoBudgetExceededError(
            f"{sub.m} monochromatic edges exceed the 4n = {4 * n} budget"
        )

    greedy = greedy_extend(sub, PartialColoring(n, delta + 1))
    # product color: member block of delta + 1 colors, greedy color inside
    # it.  Colors reach the palette, so past int64 they are exact ints
    member_cols = colors.astype(object) if palette >= 1 << 63 else colors
    cols = (member_cols - 1) * (delta + 1) + greedy.array
    cols[0] = 0
    report.coloring = PartialColoring(n, palette, cols)
    report.peak_stored_edges = sub.m
    report.passes = src.replays - start_passes
    return report


def two_pass_coloring(
    src: StreamSource, delta: int, *, dynamic: bool = False
) -> RunReport:
    """Two passes, at most delta * (delta + 1) colors, 4n stored edges."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return _two_pass(src, delta, dynamic, "two-pass")


def _ceil_log_3_2(x: int) -> int:
    """Smallest t with (3/2)^t >= x, for x >= 1. Exact integer arithmetic."""
    t = 0
    num, den = 1, 1  # (3/2)^t as 3^t / 2^t
    while num < x * den:
        t += 1
        num *= 3
        den *= 2
    return t


def iterative_coloring(
    src: StreamSource, delta: int, *, dynamic: bool = False
) -> RunReport:
    """O(log delta) passes, at most max(6 * delta, 1) colors."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    n = src.n
    start_passes = src.replays
    arrays = _first_pass_checks(src, delta, dynamic)[0]
    fam = extension_family(n, delta)
    palette = fam.palette
    coloring = PartialColoring(n, palette)
    # proven round bound is ceil(log_{3/2} delta) + 1; the runtime guard
    # allows one extra round before declaring non-termination
    guard_rounds = _ceil_log_3_2(max(delta, 1)) + 2

    report = RunReport(
        algorithm="iterative",
        n=n,
        delta=delta,
        palette_bound=palette,
        passes=0,
        coloring=coloring,
        counter_entries=fam.p,
    )

    passes = _passes(src, arrays)
    n0 = n
    while n0 * delta > n:
        if report.iterations >= guard_rounds:
            raise NonTerminationError(
                f"exceeded the round guard of {guard_rounds}"
            )
        report.phase_uncolored.append(n0)

        ext, sub = _round(fam, coloring, passes, dynamic, max(1, n0), report)
        if 3 * sub.m > n0:
            raise MonoBudgetExceededError(
                f"round {report.iterations + 1}: {sub.m} monochromatic "
                f"edges exceed the n0/3 = {n0}/3 budget"
            )
        report.phase_stored.append(sub.m)
        report.peak_stored_edges = max(report.peak_stored_edges, sub.m)

        # endpoints of stored edges stay uncolored; the rest take ext
        free = coloring.array == 0
        free[np.concatenate(sub.edge_arrays())] = False
        coloring = PartialColoring(n, palette, np.where(free, ext, coloring.array))
        n0 = n - coloring.colored_count()
        report.iterations += 1
        report.phase_colorings.append(coloring)

    # final pass: every vertex in one class, the uncolored ones marked, so
    # it stores every edge with an uncolored end: at most n edges, so the
    # sketch budget is n
    unc = coloring.array == 0
    unc[0] = False
    sub = _stored_subgraph(
        n, next(passes), np.ones(n + 1, dtype=bool), unc, dynamic, n, report
    )
    if sub.m > n:
        raise MonoBudgetExceededError(
            f"final round stored {sub.m} edges, above the n = {n} budget"
        )
    report.final_stored_edges = sub.m
    report.peak_stored_edges = max(report.peak_stored_edges, sub.m)

    coloring = greedy_extend(sub, coloring)
    report.coloring = coloring
    report.phase_colorings.append(coloring)
    report.passes = src.replays - start_passes
    return report


def two_pass_unknown_delta(src: StreamSource, *, dynamic: bool = False) -> RunReport:
    """Two passes without a declared degree bound.

    Pass 1 keeps a counter bank per power-of-two palette guess and also
    measures the true max degree; the smallest guess at least that
    degree is committed for pass 2, so the guess is within a factor two.

    The report's `counter_entries` is model space: the p x |grid|
    counters the streaming algorithm holds in pass 1.  This process
    materializes only the selected guess's bank of p counters.
    """
    return _two_pass(src, None, dynamic, "two-pass-unknown-delta")


def run_dynamic(src: StreamSource, delta: int, which: str) -> RunReport:
    """Dynamic-stream entry point; `which` is `two-pass` or `iterative`."""
    if which == "two-pass":
        return two_pass_coloring(src, delta, dynamic=True)
    if which == "iterative":
        return iterative_coloring(src, delta, dynamic=True)
    if which == "two-pass-unknown-delta":
        return two_pass_unknown_delta(src, dynamic=True)
    raise ValueError(f"unknown algorithm {which!r}")
