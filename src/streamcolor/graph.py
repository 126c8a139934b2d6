"""Graphs, edge-update streams, and partial colorings.

Vertices are the integers 1..n.  Edges are unordered pairs, normalized
as (u, v) with u < v; a graph holds its edges as sorted int64 arrays of
their u and v ends.  A partial coloring maps each vertex to a color in
[1, palette] or leaves it unassigned.  It holds one read-only array
indexed by vertex, index 0 unused and 0 meaning unassigned: int64 when
every color fits in int64, exact Python ints (object dtype) otherwise.
The colorers, the counter kernel, greedy extension and the validators
all read that array as it is.

An update sequence is held as three integer arrays (sign, u, v) of one
dtype: the first of int16, int32 and int64 that holds every value, as
the stream parser fills them, or int64 as `UpdateView.of` builds them.
`UpdateView` shows them as `EdgeUpdate` tuples.  `legal_final_edges` is
the one stream-legality rule: the colorers and `materialize` both check
streams through it.
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

# updates or edges per block of the edge keys and of the validators
_BLOCK = 1 << 14
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
    """Read-only `EdgeUpdate` sequence over (sign, u, v) integer arrays;
    `of` builds them as int64.

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
    """Immutable simple graph on vertices 1..n, held as its edges' (lo, hi)
    int64 arrays, lo < hi, in sorted order."""

    __slots__ = ("n", "_lo", "_hi")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("n must be nonnegative")
        normalized = set()
        for u, v in edges:
            e = normalize_edge(u, v)
            _check_vertex(e[0], n)
            _check_vertex(e[1], n)
            normalized.add(e)
        pairs = np.array(sorted(normalized), dtype=np.int64).reshape(-1, 2)
        self.n = n
        self._lo, self._hi = pairs.T.copy()

    @classmethod
    def _from_sorted_arrays(cls, n: int, lo: np.ndarray, hi: np.ndarray) -> "Graph":
        """Graph over distinct in-range edges given as (lo, hi) int64
        arrays in sorted order, taken without a check or a copy."""
        g = cls.__new__(cls)
        g.n = n
        g._lo, g._hi = lo, hi
        return g

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.edges_sorted())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges as (lo, hi) int64 arrays, in sorted order."""
        return self._lo, self._hi

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._lo, other._lo)
            and np.array_equal(self._hi, other._hi)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._lo.tobytes(), self._hi.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return self._lo.shape[0]

    def edges_sorted(self) -> list[Edge]:
        return list(zip(self._lo.tolist(), self._hi.tolist()))

    def adjacency(self) -> list[set[int]]:
        """Neighbor sets indexed by vertex (index 0 unused)."""
        adj: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v in self.edges_sorted():
            adj[u].add(v)
            adj[v].add(u)
        return adj


def max_degree(g: Graph) -> int:
    """Largest vertex degree; 0 for an edgeless graph."""
    lo, hi = g.edge_arrays()
    return int(np.bincount(np.concatenate((lo, hi)), minlength=1).max())


def complete_graph(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def legal_final_edges(
    n: int, signs: np.ndarray, us: np.ndarray, vs: np.ndarray, *, final: bool = True
) -> tuple[np.ndarray, np.ndarray] | None:
    """The stream-legality rule; returns the final edge set, or None if
    `final` is False and only the verdict is wanted.

    Takes each update (sign, u, v) as the three arrays hold it, with u and
    v in either order.  A stream on vertices 1..n is legal when every
    update has u != v, both vertices in [1, n] and sign +1 or -1, and
    every edge's running multiplicity stays in {0, 1}: no duplicate
    insertion, no deletion of an absent edge.  The first offending update
    in stream order raises IllegalUpdateError, naming the first of these
    checks it fails.  The arrays may be of any integer dtype.  The final
    edges come back as (lo, hi) int64 arrays, lo < hi, in sorted order.

    The multiplicity check reads the edge keys min(u, v) * base + max(u,
    v), formed a block of updates at a time into one array: int64 when
    the final edges are wanted, since the sorted keys become their lo
    ends in place, and otherwise the narrowest of int16, int32 and int64
    that holds base^2 (int32 for vertices up to 46340).  When every sign
    is +1, the stream is legal exactly when no two keys are equal, and
    the keys sorted are its final edges; so the keys are sorted in place,
    and the steps below run only when some key repeats.  Then the rule
    sorts the updates stably by key.  With signs of +1 and -1, an edge's
    multiplicity stays in {0, 1} exactly when its run of updates
    alternates +1, -1, +1, ..., and its final multiplicity is 1 when the
    run ends on +1.  The steps work in place where they can, so an
    insertion-only stream's temporaries peak at its keys and a byte per
    update, with the final ends' second array, an int64 word per update,
    when they are wanted; a stream with deletions adds the keys' sort
    order and the sorted keys.
    """
    bad = us == vs
    for ends in (us, vs):
        bad |= ends < 1
        bad |= ends > n
    bad |= (signs != 1) & (signs != -1)
    first = int(np.argmax(bad)) if bad.any() else len(signs)
    del bad
    # updates before the first malformed one decide any earlier violation
    base = max(int(us[:first].max(initial=0)), int(vs[:first].max(initial=0))) + 1
    if base > MAX_VERTEX + 1:
        raise TooLargeError(f"vertex {base - 1} is above MAX_VERTEX = {MAX_VERTEX}")
    # every key is below base^2; as the final lo ends the keys are int64
    fits = [t for t in (np.int16, np.int32) if base * base <= np.iinfo(t).max + 1]
    key_dtype = fits[0] if fits and not final else np.int64
    keys = _edge_keys(us[:first], vs[:first], base, key_dtype)
    if signs[:first].min(initial=1) == 1:  # insertions only
        keys.sort()
        if not (keys[1:] == keys[:-1]).any():
            if first < len(signs):
                _raise_illegal(n, int(signs[first]), int(us[first]), int(vs[first]))
            return _split_keys(keys, base) if final else None
        # a repeated edge: find its first offender in stream order below
        keys = _edge_keys(us[:first], vs[:first], base, key_dtype)
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
        _raise_illegal(n, int(signs[first]), int(us[first]), int(vs[first]))
    if not final:
        return None
    del order
    # the last update of each run is +1 where the edge is in the final graph
    insert[:-1] &= ~same
    final_keys = keys[insert]
    del keys
    return _split_keys(final_keys, base)


def _edge_keys(us: np.ndarray, vs: np.ndarray, base: int, dtype) -> np.ndarray:
    """The keys min(u, v) * base + max(u, v) in `dtype`, which must hold
    base^2 - 1, formed a block at a time, whatever the ends' dtype."""
    keys = np.empty(us.shape[0], dtype=dtype)
    for at in range(0, keys.size, _BLOCK):
        u, v, key = us[at : at + _BLOCK], vs[at : at + _BLOCK], keys[at : at + _BLOCK]
        np.minimum(u, v, out=key, casting="unsafe")
        key *= base
        key += np.maximum(u, v)
    return keys


def _split_keys(keys: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) ends of int64 edge keys, lo taking over `keys` in
    place: np.divmod would hold a third array of edges."""
    hi = keys % base
    keys //= base
    return keys, hi


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
    return Graph._from_sorted_arrays(n, *legal_final_edges(n, view.signs, view.us, view.vs))


class PartialColoring:
    """Assignment of colors in [1, palette] to a subset of 1..n.

    `colors` is None (nothing assigned), a sequence of n colors with None
    for unassigned, or an array indexed by vertex with index 0 unused and
    0 for unassigned.  The constructor is the one place that picks the
    array's dtype: int64 when every color fits in int64, Python ints
    (object dtype) otherwise.  `array` is that array, read-only; an array
    argument of that dtype is taken over without a copy and made
    read-only.
    """

    __slots__ = ("n", "palette", "array")

    def __init__(
        self, n: int, palette: int, colors: Sequence[int | None] | np.ndarray | None = None
    ):
        if palette < 1:
            raise ValueError("palette must be at least 1")
        if colors is None:
            colors = np.zeros(n + 1, dtype=np.int64)
        elif not isinstance(colors, np.ndarray):
            if len(colors) != n:
                raise ValueError(f"expected {n} colors, got {len(colors)}")
            if 0 in colors:
                raise ValueError(f"color 0 outside [1, {palette}]")
            colors = [0, *(0 if c is None else c for c in colors)]
        try:
            arr = np.asarray(colors, dtype=np.int64)
        except OverflowError:  # a color past int64 stays an exact Python int
            arr = np.asarray(colors, dtype=object)
        if arr.shape != (n + 1,) or arr[0] != 0:
            raise ValueError(f"expected {n} colors indexed 1..{n}")
        bad = (arr < 0) | (arr > palette)
        if bad.any():
            raise ValueError(f"color {arr[np.argmax(bad)]} outside [1, {palette}]")
        arr.setflags(write=False)
        self.n = n
        self.palette = palette
        self.array = arr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialColoring)
            and self.n == other.n
            and self.palette == other.palette
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.palette, self.colors()))

    def __repr__(self) -> str:
        done = self.colored_count()
        return f"PartialColoring(n={self.n}, palette={self.palette}, colored={done})"

    def color_of(self, v: int) -> int | None:
        _check_vertex(v, self.n)
        return self.array.item(v) or None

    __getitem__ = color_of

    def colors(self) -> tuple[int | None, ...]:
        """Colors for vertices 1..n in order (None = unassigned)."""
        return tuple(c or None for c in self.array[1:].tolist())

    @property
    def is_total(self) -> bool:
        return bool(self.array[1:].all())

    def uncolored(self) -> list[int]:
        return (np.flatnonzero(self.array[1:] == 0) + 1).tolist()

    def colored_count(self) -> int:
        return int(np.count_nonzero(self.array))

    def require_total(self) -> None:
        if not self.is_total:
            v = int(np.argmin(self.array[1:] != 0)) + 1
            raise UncoloredVertexError(f"vertex {v} has no color")


def _monochromatic(g: Graph, coloring: PartialColoring) -> list[Edge]:
    """Edges of g whose endpoints share a color, sorted; uncolored
    endpoints share none.  The ends' colors are gathered a block of
    edges at a time."""
    cols = coloring.array
    lo, hi = g.edge_arrays()
    mono = np.empty(lo.size, dtype=bool)
    for at in range(0, lo.size, _BLOCK):
        cu = cols[lo[at : at + _BLOCK]]
        np.logical_and(cu == cols[hi[at : at + _BLOCK]], cu != 0, out=mono[at : at + _BLOCK])
    return list(zip(lo[mono].tolist(), hi[mono].tolist()))


def validate_proper(g: Graph, coloring: PartialColoring) -> list[Edge]:
    """Monochromatic edges of a total coloring, sorted; empty means proper."""
    coloring.require_total()
    return _monochromatic(g, coloring)


def validate_partial(g: Graph, coloring: PartialColoring) -> list[Edge]:
    """Monochromatic edges among colored endpoints, sorted; empty means
    the partial coloring is proper on its colored set."""
    return _monochromatic(g, coloring)


def greedy_extend(g: Graph, coloring: PartialColoring) -> PartialColoring:
    """First-fit extension: give each uncolored vertex, in ascending
    order, the smallest color unused by its already-colored neighbors.

    Raises PaletteExhaustedError when no color in [1, palette] is free.
    """
    cols = coloring.array.copy()
    lo, hi = g.edge_arrays()
    ends = np.concatenate((lo, hi))
    deg = np.bincount(ends, minlength=g.n + 1)
    targets = cols == 0
    targets[0] = False
    # first-fit gives color 1 to a vertex with no neighbor in g
    cols[targets & (deg == 0)] = 1
    looped = np.flatnonzero(targets & (deg > 0))
    # g in CSR form: the neighbors of v are nbr[stop[v] - deg[v] : stop[v]]
    nbr = np.concatenate((hi, lo))[np.argsort(ends, kind="stable")].tolist()
    stop = np.cumsum(deg)
    col = cols.tolist()
    for v, d, e in zip(looped.tolist(), deg[looped].tolist(), stop[looped].tolist()):
        used = {col[w] for w in nbr[e - d : e]}
        c = 1
        while c in used:
            c += 1
        if c > coloring.palette:
            raise PaletteExhaustedError(
                f"vertex {v}: no free color in [1, {coloring.palette}]"
            )
        col[v] = c
    cols[looped] = [col[v] for v in looped.tolist()]
    return PartialColoring(g.n, coloring.palette, cols)


def color_classes(coloring: PartialColoring) -> dict[int, list[int]]:
    """Map color -> sorted vertices with that color (unassigned skipped),
    keyed in the order of each color's first vertex."""
    cols = coloring.array
    classes: dict[int, list[int]] = {}
    for v in np.flatnonzero(cols).tolist():
        classes.setdefault(cols.item(v), []).append(v)
    return classes
