"""Graphs, edge-update streams, and partial colorings.

Vertices are the integers 1..n.  Edges are unordered pairs stored as
normalized tuples (u, v) with u < v.  A partial coloring maps each
vertex to a color in [1, palette] or to None (unassigned).

An update sequence is held as three int64 arrays (sign, u, v);
`UpdateView` shows them as `EdgeUpdate` tuples.  `legal_final_edges`
is the one stream-legality rule: the colorers and `materialize` both
check streams through it.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    EqualVerticesError,
    IllegalUpdateError,
    PaletteExhaustedError,
    TooLargeError,
    UncoloredVertexError,
)

Edge = tuple[int, int]

# the largest vertex id whose edges key into one int64:
# lo * (MAX_VERTEX + 1) + hi < 2^63 for 1 <= lo < hi <= MAX_VERTEX
MAX_VERTEX = 3037000499


class EdgeUpdate(NamedTuple):
    """One stream token: sign +1 inserts the edge, -1 deletes it."""

    sign: int
    u: int
    v: int


def normalize_edge(u: int, v: int) -> Edge:
    """Return (min, max); reject self loops."""
    if u == v:
        raise EqualVerticesError(f"self pair ({u}, {v})")
    return (u, v) if u < v else (v, u)


def _check_vertex(v: int, n: int) -> None:
    if not 1 <= v <= n:
        raise IllegalUpdateError(f"vertex {v} outside [1, {n}]")


class UpdateView(SequenceABC):
    """Read-only `EdgeUpdate` sequence over int64 (sign, u, v) arrays.

    Length and indexing are O(1); iteration builds the tuples as it goes.
    Equal to any sequence holding the same updates in the same order.
    """

    __slots__ = ("signs", "us", "vs")

    def __init__(self, signs: np.ndarray, us: np.ndarray, vs: np.ndarray):
        for arr in (signs, us, vs):
            arr.setflags(write=False)
        self.signs = signs
        self.us = us
        self.vs = vs

    @classmethod
    def of(cls, updates: Iterable) -> "UpdateView":
        """View of `updates`, an UpdateView or an iterable of (sign, u, v)."""
        if isinstance(updates, cls):
            return updates
        rows = [tuple(upd) for upd in updates]
        try:
            table = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        except OverflowError as exc:
            raise IllegalUpdateError("update value outside the int64 range") from exc
        return cls(*(np.ascontiguousarray(col) for col in table.T))

    def __len__(self) -> int:
        return self.signs.shape[0]

    def __getitem__(self, i: int) -> EdgeUpdate:
        return EdgeUpdate(int(self.signs[i]), int(self.us[i]), int(self.vs[i]))

    def __iter__(self) -> Iterator[EdgeUpdate]:
        rows = zip(self.signs.tolist(), self.us.tolist(), self.vs.tolist())
        return map(EdgeUpdate._make, rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, UpdateView):
            return (
                np.array_equal(self.signs, other.signs)
                and np.array_equal(self.us, other.us)
                and np.array_equal(self.vs, other.vs)
            )
        if isinstance(other, SequenceABC) and not isinstance(other, str):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"UpdateView(m={len(self)})"


class Graph:
    """Immutable simple graph on vertices 1..n."""

    __slots__ = ("n", "_edges", "_arrays", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("n must be nonnegative")
        normalized = set()
        for u, v in edges:
            e = normalize_edge(u, v)
            _check_vertex(e[0], n)
            _check_vertex(e[1], n)
            normalized.add(e)
        self.n = n
        self._edges: frozenset[Edge] | None = frozenset(normalized)
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._adj: list[set[int]] | None = None

    @classmethod
    def _from_sorted_arrays(cls, n: int, lo: np.ndarray, hi: np.ndarray) -> "Graph":
        """Graph over distinct in-range edges given as (lo, hi) arrays in
        sorted order; the edge set is built on first use."""
        g = cls.__new__(cls)
        g.n = n
        g._edges = None
        g._arrays = (lo, hi)
        g._adj = None
        return g

    @property
    def edges(self) -> frozenset[Edge]:
        if self._edges is None:
            lo, hi = self._arrays
            self._edges = frozenset(zip(lo.tolist(), hi.tolist()))
        return self._edges

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges as (lo, hi) int64 arrays, in sorted order."""
        if self._arrays is None:
            pairs = np.array(sorted(self._edges), dtype=np.int64).reshape(-1, 2)
            self._arrays = (pairs[:, 0].copy(), pairs[:, 1].copy())
        return self._arrays

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    @property
    def m(self) -> int:
        if self._arrays is not None:
            return self._arrays[0].shape[0]
        return len(self._edges)

    def edges_sorted(self) -> list[Edge]:
        lo, hi = self.edge_arrays()
        return list(zip(lo.tolist(), hi.tolist()))

    def adjacency(self) -> list[set[int]]:
        """Neighbor sets indexed by vertex (index 0 unused)."""
        if self._adj is None:
            adj: list[set[int]] = [set() for _ in range(self.n + 1)]
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges



def max_degree(g: Graph) -> int:
    """Largest vertex degree; 0 for an edgeless graph."""
    adj = g.adjacency()
    return max((len(adj[v]) for v in range(1, g.n + 1)), default=0)


def complete_graph(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def legal_final_edges(
    n: int, signs: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The stream-legality rule; returns the final edge set.

    Takes each update (sign, u, v) as sign, lo = min(u, v) and
    hi = max(u, v).  A stream on vertices 1..n is legal when every update
    has u != v, both vertices in [1, n] and sign +1 or -1, and every
    edge's running multiplicity stays in {0, 1}: no duplicate insertion,
    no deletion of an absent edge.  The first offending update in stream
    order raises IllegalUpdateError, naming the first of these checks it
    fails.  The final edges come back as (lo, hi) int64 arrays in sorted
    order.

    The multiplicity check sorts the updates stably by edge.  With signs
    of +1 and -1, an edge's multiplicity stays in {0, 1} exactly when its
    run of updates alternates +1, -1, +1, ..., and its final
    multiplicity is 1 when the run ends on +1.  The steps work in place
    where they can, so the temporaries peak at about three int64 words
    per update: the edge keys, their sort order and the sorted keys.
    """
    bad = lo == hi
    bad |= lo < 1
    bad |= hi > n
    bad |= (signs != 1) & (signs != -1)
    first = int(np.argmax(bad)) if bad.any() else len(signs)
    del bad
    # updates before the first malformed one decide any earlier violation
    base = int(hi[:first].max(initial=0)) + 1
    if base > MAX_VERTEX + 1:
        raise TooLargeError(f"vertex {base - 1} is above MAX_VERTEX = {MAX_VERTEX}")
    keys = lo[:first] * base
    keys += hi[:first]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    insert = (signs[:first] == 1)[order]
    # same[i]: update i continues the run of update i - 1
    same = keys[1:] == keys[:-1]
    # an update breaks the rule when its sign repeats the one before it in
    # its run; a run starts as if after a deletion
    wrong = np.zeros(keys.size, dtype=bool)
    np.logical_and(insert[:-1], same, out=wrong[1:])
    np.equal(wrong, insert, out=wrong)
    if wrong.any():
        first = int(order[wrong].min())
    if first < len(signs):
        _raise_illegal(n, int(signs[first]), int(lo[first]), int(hi[first]))
    del order
    # the last update of each run is +1 where the edge is in the final graph
    insert[:-1] &= ~same
    final = keys[insert]
    del keys
    return np.divmod(final, base)


def _raise_illegal(n: int, sign: int, u: int, v: int) -> None:
    """Raise the error for one update that breaks the legality rule."""
    if u == v:
        raise IllegalUpdateError(f"self pair ({u}, {v})")
    e = normalize_edge(u, v)
    _check_vertex(e[0], n)
    _check_vertex(e[1], n)
    if sign == 1:
        raise IllegalUpdateError(f"duplicate insertion of {e}")
    if sign == -1:
        raise IllegalUpdateError(f"deletion of absent edge {e}")
    raise IllegalUpdateError(f"bad sign {sign}")


def materialize(n: int, updates: Iterable[EdgeUpdate]) -> Graph:
    """Replay a signed update sequence into its final graph.

    Raises IllegalUpdateError on the first update that breaks the
    legality rule of `legal_final_edges`.
    """
    view = UpdateView.of(updates)
    lo, hi = np.minimum(view.us, view.vs), np.maximum(view.us, view.vs)
    return Graph._from_sorted_arrays(n, *legal_final_edges(n, view.signs, lo, hi))


class PartialColoring:
    """Assignment of colors in [1, palette] to a subset of 1..n.

    Immutable by convention: builders return new objects.
    """

    __slots__ = ("n", "palette", "_colors")

    def __init__(self, n: int, palette: int, colors: Sequence[int | None] | None = None):
        if palette < 1:
            raise ValueError("palette must be at least 1")
        if colors is None:
            cols: tuple[int | None, ...] = (None,) * n
        else:
            if len(colors) != n:
                raise ValueError(f"expected {n} colors, got {len(colors)}")
            for c in colors:
                if c is not None and not 1 <= c <= palette:
                    raise ValueError(f"color {c} outside [1, {palette}]")
            cols = tuple(colors)
        self.n = n
        self.palette = palette
        self._colors = cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialColoring)
            and self.n == other.n
            and self.palette == other.palette
            and self._colors == other._colors
        )

    def __hash__(self) -> int:
        return hash((self.n, self.palette, self._colors))

    def __repr__(self) -> str:
        done = sum(1 for c in self._colors if c is not None)
        return f"PartialColoring(n={self.n}, palette={self.palette}, colored={done})"

    def color_of(self, v: int) -> int | None:
        _check_vertex(v, self.n)
        return self._colors[v - 1]

    __getitem__ = color_of

    def colors(self) -> tuple[int | None, ...]:
        """Colors for vertices 1..n in order (None = unassigned)."""
        return self._colors

    @property
    def is_total(self) -> bool:
        return all(c is not None for c in self._colors)

    def uncolored(self) -> list[int]:
        return [v for v in range(1, self.n + 1) if self._colors[v - 1] is None]

    def colored_count(self) -> int:
        return sum(1 for c in self._colors if c is not None)

    def require_total(self) -> None:
        for v in range(1, self.n + 1):
            if self._colors[v - 1] is None:
                raise UncoloredVertexError(f"vertex {v} has no color")


def validate_proper(g: Graph, coloring: PartialColoring) -> list[Edge]:
    """Monochromatic edges of a total coloring, sorted; empty means proper."""
    coloring.require_total()
    try:
        cols = np.array(coloring.colors(), dtype=np.int64)
    except OverflowError:  # colors past int64 compare as Python ints
        cols = np.array(coloring.colors(), dtype=object)
    lo, hi = g.edge_arrays()
    mono = cols[lo - 1] == cols[hi - 1]
    return list(zip(lo[mono].tolist(), hi[mono].tolist()))


def validate_partial(g: Graph, coloring: PartialColoring) -> list[Edge]:
    """Monochromatic edges among colored endpoints, sorted; empty means
    the partial coloring is proper on its colored set."""
    cols = coloring.colors()
    bad = []
    for u, v in g.edges:
        cu, cv = cols[u - 1], cols[v - 1]
        if cu is not None and cu == cv:
            bad.append((u, v))
    return sorted(bad)


def greedy_extend(
    g: Graph,
    coloring: PartialColoring,
    order: Iterable[int] | None = None,
) -> PartialColoring:
    """First-fit extension: give each target the smallest color unused by
    its already-colored neighbors.

    Targets default to every uncolored vertex in ascending order; an
    explicit order must list uncolored vertices only.  Raises
    PaletteExhaustedError when no color in [1, palette] is free.
    """
    cols = list(coloring.colors())
    targets = list(order) if order is not None else coloring.uncolored()
    adj = g.adjacency()
    for v in targets:
        _check_vertex(v, g.n)
        if cols[v - 1] is not None:
            raise ValueError(f"target vertex {v} already colored")
        used = {cols[w - 1] for w in adj[v] if cols[w - 1] is not None}
        c = 1
        while c in used:
            c += 1
        if c > coloring.palette:
            raise PaletteExhaustedError(
                f"vertex {v}: no free color in [1, {coloring.palette}]"
            )
        cols[v - 1] = c
    return PartialColoring(g.n, coloring.palette, cols)


def color_classes(coloring: PartialColoring) -> dict[int, list[int]]:
    """Map color -> sorted vertices with that color (unassigned skipped)."""
    classes: dict[int, list[int]] = {}
    for v in range(1, coloring.n + 1):
        c = coloring.color_of(v)
        if c is not None:
            classes.setdefault(c, []).append(v)
    return classes
