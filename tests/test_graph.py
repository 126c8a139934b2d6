"""Tests for graphs, updates, colorings, and the greedy extender."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor.errors import (
    EqualVerticesError,
    IllegalUpdateError,
    PaletteExhaustedError,
    TooLargeError,
    UncoloredVertexError,
)
from streamcolor.graph import (
    MAX_VERTEX,
    EdgeUpdate,
    Graph,
    PartialColoring,
    color_classes,
    complete_graph,
    greedy_extend,
    legal_final_edges,
    materialize,
    max_degree,
    normalize_edge,
    validate_partial,
    validate_proper,
)


def edges_strategy(n, max_edges=40):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if not pairs:
        return st.just([])
    return st.lists(st.sampled_from(pairs), max_size=max_edges, unique=True)


def test_normalize_edge_orders_and_rejects_loops():
    assert normalize_edge(5, 2) == (2, 5)
    assert normalize_edge(2, 5) == (2, 5)
    with pytest.raises(EqualVerticesError):
        normalize_edge(3, 3)


def test_graph_basics():
    g = Graph(4, [(2, 1), (3, 4)])
    assert g.edges == {(1, 2), (3, 4)}
    assert g.m == 2
    assert g.adjacency()[1] == {2}
    assert g.adjacency()[3] == {4}
    assert max_degree(g) == 1


def test_graph_rejects_bad_vertices():
    with pytest.raises(IllegalUpdateError):
        Graph(3, [(1, 4)])
    with pytest.raises(EqualVerticesError):
        Graph(3, [(2, 2)])


def test_max_degree_examples():
    assert max_degree(Graph(5)) == 0
    assert max_degree(Graph(3, [(1, 2), (2, 3), (1, 3)])) == 2
    star = Graph(5, [(1, v) for v in range(2, 6)])
    assert max_degree(star) == 4


def test_complete_graph():
    g = complete_graph(4)
    assert g.m == 6
    assert max_degree(g) == 3
    assert max_degree(complete_graph(1)) == 0


def test_materialize_insert_delete():
    ups = [EdgeUpdate(1, 1, 2), EdgeUpdate(1, 3, 4), EdgeUpdate(-1, 1, 2)]
    g = materialize(4, ups)
    assert g.edges_sorted() == [(3, 4)]


def test_materialize_rejects_duplicate_insert():
    ups = [EdgeUpdate(1, 1, 2), EdgeUpdate(1, 2, 1)]
    with pytest.raises(IllegalUpdateError):
        materialize(3, ups)


def test_materialize_rejects_absent_delete():
    with pytest.raises(IllegalUpdateError):
        materialize(3, [EdgeUpdate(-1, 1, 2)])


def test_materialize_rejects_out_of_range_and_loops():
    with pytest.raises(IllegalUpdateError):
        materialize(3, [EdgeUpdate(1, 0, 2)])
    with pytest.raises(IllegalUpdateError):
        materialize(3, [EdgeUpdate(1, 1, 4)])
    with pytest.raises(IllegalUpdateError):
        materialize(3, [EdgeUpdate(1, 2, 2)])


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=60)
def test_materialize_order_of_independent_edges_is_irrelevant(n, data):
    edges = data.draw(edges_strategy(n, max_edges=10))
    fwd = [EdgeUpdate(1, u, v) for u, v in edges]
    rev = list(reversed(fwd))
    assert materialize(n, fwd) == materialize(n, rev)


def _materialize_loop(n, updates):
    """The update-by-update replay that `materialize` used before the
    sort-based legality rule, kept as its reference."""
    present = set()
    for sign, u, v in updates:
        try:
            e = normalize_edge(u, v)
        except EqualVerticesError as exc:
            raise IllegalUpdateError(str(exc)) from exc
        for w in e:
            if not 1 <= w <= n:
                raise IllegalUpdateError(f"vertex {w} outside [1, {n}]")
        if sign == 1:
            if e in present:
                raise IllegalUpdateError(f"duplicate insertion of {e}")
            present.add(e)
        elif sign == -1:
            if e not in present:
                raise IllegalUpdateError(f"deletion of absent edge {e}")
            present.remove(e)
        else:
            raise IllegalUpdateError(f"bad sign {sign}")
    return sorted(present)


_any_update = st.tuples(
    st.sampled_from([1, 1, 1, -1, -1, 0, 2]),
    st.integers(min_value=-1, max_value=6),
    st.integers(min_value=-1, max_value=6),
)


@given(st.integers(min_value=0, max_value=5), st.lists(_any_update, max_size=25))
@settings(max_examples=400)
def test_legality_rule_matches_sequential_replay(n, raw):
    ups = [EdgeUpdate(*t) for t in raw]
    try:
        expected = _materialize_loop(n, ups)
    except IllegalUpdateError as exc:
        with pytest.raises(IllegalUpdateError) as got:
            materialize(n, ups)
        assert str(got.value) == str(exc)
        sgn, us, vs = (np.array(c, dtype=np.int64) for c in zip(*raw))
        with pytest.raises(IllegalUpdateError) as got:
            legal_final_edges(n, sgn, np.minimum(us, vs), np.maximum(us, vs))
        assert str(got.value) == str(exc)
        return
    g = materialize(n, ups)
    assert g.edges_sorted() == expected
    assert g.edges == frozenset(expected)
    assert g.m == len(expected)


@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=300)
def test_insertion_only_legality_matches_sequential_replay(n, data):
    # distinct insertions, copies of some of them planted anywhere (the
    # in-place sort finds a repeat and falls back to the stable one), and
    # at times one malformed update
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    raw = [(1, *e) for e in data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20))]
    for _ in range(data.draw(st.integers(0, 3)) if raw else 0):
        sign, u, v = raw[data.draw(st.integers(0, len(raw) - 1))]
        copy = (sign, v, u) if data.draw(st.booleans()) else (sign, u, v)
        raw.insert(data.draw(st.integers(0, len(raw))), copy)
    bad = data.draw(st.sampled_from([None, (1, 2, 2), (1, 0, 1), (1, 1, n + 1), (2, 1, 2)]))
    if bad is not None:
        raw.insert(data.draw(st.integers(0, len(raw))), bad)
    try:
        expected = _materialize_loop(n, [EdgeUpdate(*t) for t in raw])
    except IllegalUpdateError as exc:
        expected = str(exc)
    for dtype in (np.int32, np.int64):
        sgn, us, vs = np.array(raw, dtype=dtype).reshape(-1, 3).T
        try:
            lo, hi = legal_final_edges(n, sgn, us, vs)
        except IllegalUpdateError as exc:
            assert str(exc) == expected
            continue
        assert lo.dtype == hi.dtype == np.int64
        assert list(zip(lo.tolist(), hi.tolist())) == expected


@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=100)
def test_legality_rule_on_legal_dynamic_streams(n, data):
    # legal streams of insertions and deletions, with edges reinserted
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    present, ups = set(), []
    for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=30)):
        sign = -1 if (u, v) in present else 1
        (present.discard if sign < 0 else present.add)((u, v))
        ups.append(EdgeUpdate(sign, *data.draw(st.sampled_from([(u, v), (v, u)]))))
    assert materialize(n, ups).edges_sorted() == sorted(present)


def test_legality_rule_reports_first_offender_in_stream_order():
    # the duplicate of (1, 2) at index 2 comes before the self loop at 3
    ups = [EdgeUpdate(1, 1, 2), EdgeUpdate(1, 3, 4), EdgeUpdate(1, 2, 1), EdgeUpdate(1, 4, 4)]
    with pytest.raises(IllegalUpdateError, match=r"^duplicate insertion of \(1, 2\)$"):
        materialize(4, ups)
    with pytest.raises(IllegalUpdateError, match=r"^self pair \(4, 4\)$"):
        materialize(4, ups[1:])


def test_legality_rule_keys_vertex_ids_up_to_max_vertex():
    top = MAX_VERTEX
    # the largest key, of the edge (top - 1, top), fits; one more vertex would not
    assert (top - 1) * (top + 1) + top < 2**63 <= top * (top + 2) + top + 1
    g = materialize(top, [EdgeUpdate(1, top, top - 1), EdgeUpdate(1, 1, top)])
    assert g.edges_sorted() == [(1, top), (top - 1, top)]
    with pytest.raises(TooLargeError):
        materialize(top + 1, [EdgeUpdate(1, 1, top + 1)])


def test_validate_proper_colors_beyond_int64():
    g = Graph(3, [(1, 2), (2, 3)])
    c = PartialColoring(3, 2**70, [2**70, 2**70, 1])
    assert validate_proper(g, c) == [(1, 2)]


def test_partial_coloring_accessors():
    c = PartialColoring(4, 3, [1, None, 2, 1])
    assert c.color_of(1) == 1
    assert c[2] is None
    assert c.uncolored() == [2]
    assert not c.is_total
    with pytest.raises(UncoloredVertexError):
        c.require_total()


def test_partial_coloring_rejects_out_of_palette():
    with pytest.raises(ValueError):
        PartialColoring(2, 3, [1, 4])
    with pytest.raises(ValueError):
        PartialColoring(2, 0, [None, None])


def test_partial_coloring_array_form():
    c = PartialColoring(3, 4, [4, None, 1])
    assert c.array.dtype == np.int64 and c.array.tolist() == [0, 4, 0, 1]
    assert not c.array.flags.writeable
    assert PartialColoring(3, 4, np.array([0, 4, 0, 1])) == c
    # exact ints only where a color does not fit in int64
    big = PartialColoring(2, 2**70, [2**70, 1])
    assert big.array.dtype == object and big.colors() == (2**70, 1)
    assert PartialColoring(2, 2**70, [3, 1]).array.dtype == np.int64
    with pytest.raises(ValueError):
        PartialColoring(3, 4, np.array([1, 4, 0, 1]))  # index 0 is unused
    with pytest.raises(ValueError):
        PartialColoring(3, 4, np.array([0, 4, 0]))
    with pytest.raises(ValueError):
        PartialColoring(2, 3, [0, 1])


def test_validate_proper_triangle():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    bad = PartialColoring(3, 2, [1, 1, 2])
    assert validate_proper(g, bad) == [(1, 2)]
    good = PartialColoring(3, 3, [1, 2, 3])
    assert validate_proper(g, good) == []


def test_validators_over_many_blocks_match_a_per_edge_check():
    # more edges than one block of the validators, some of them
    # monochromatic in every block, some with an uncolored end
    rng = np.random.default_rng(5)
    n = 3000
    pairs = rng.integers(1, n + 1, size=(60000, 2))
    g = Graph(n, {tuple(sorted(p)) for p in pairs.tolist() if p[0] != p[1]})
    assert g.m > 3 << 14
    colors = rng.integers(1, 40, size=n).tolist()
    want = [(u, v) for u, v in g.edges_sorted() if colors[u - 1] == colors[v - 1]]
    assert len(want) > 100
    assert validate_proper(g, PartialColoring(n, 40, colors)) == want
    partial = [None if v % 7 == 0 else c for v, c in enumerate(colors, 1)]
    want = [(u, v) for u, v in want if u % 7 and v % 7]
    assert validate_partial(g, PartialColoring(n, 40, partial)) == want


def test_validate_proper_requires_total():
    g = Graph(2, [(1, 2)])
    with pytest.raises(UncoloredVertexError):
        validate_proper(g, PartialColoring(2, 2, [1, None]))


def test_validate_partial_ignores_uncolored():
    g = Graph(3, [(1, 2), (2, 3)])
    assert validate_partial(g, PartialColoring(3, 2, [1, None, 1])) == []
    assert validate_partial(g, PartialColoring(3, 2, [1, 1, None])) == [(1, 2)]
    assert validate_partial(g, PartialColoring(3, 2)) == []


def test_greedy_path_uses_first_fit():
    # path 1-2-3 colored in vertex order gives colors 1,2,1
    g = Graph(3, [(1, 2), (2, 3)])
    c = greedy_extend(g, PartialColoring(3, 3))
    assert c.colors() == (1, 2, 1)


def test_greedy_single_vertex():
    c = greedy_extend(Graph(1), PartialColoring(1, 1))
    assert c.colors() == (1,)


def test_greedy_respects_preassigned():
    g = Graph(3, [(1, 2), (2, 3)])
    start = PartialColoring(3, 3, [None, 1, None])
    c = greedy_extend(g, start)
    assert c.color_of(2) == 1
    assert validate_proper(g, c) == []


def test_greedy_exhausts_palette_on_k4():
    g = complete_graph(4)
    with pytest.raises(PaletteExhaustedError) as ei:
        greedy_extend(g, PartialColoring(4, 3))
    assert "4" in str(ei.value)


@given(st.integers(min_value=1, max_value=9), st.data())
@settings(max_examples=80)
def test_greedy_is_proper_within_degree_plus_one(n, data):
    edges = data.draw(edges_strategy(n))
    g = Graph(n, edges)
    palette = max_degree(g) + 1
    c = greedy_extend(g, PartialColoring(n, palette))
    assert c.is_total
    assert validate_proper(g, c) == []
    assert validate_partial(g, c) == []


def first_fit_reference(g, coloring):
    """First-fit over adjacency sets, one uncolored vertex at a time in
    ascending order: the loop greedy_extend must agree with."""
    cols = list(coloring.colors())
    adj = g.adjacency()
    for v in coloring.uncolored():
        used = {cols[w - 1] for w in adj[v] if cols[w - 1] is not None}
        c = min(set(range(1, len(used) + 2)) - used)
        if c > coloring.palette:
            raise PaletteExhaustedError(f"vertex {v}: no free color in [1, {coloring.palette}]")
        cols[v - 1] = c
    return PartialColoring(g.n, coloring.palette, cols)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=150)
def test_greedy_matches_first_fit_reference(n, data):
    # partial colorings that need not be proper, and palettes small
    # enough to run out
    g = Graph(n, data.draw(edges_strategy(n)))
    palette = data.draw(st.integers(min_value=1, max_value=5))
    cols = data.draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=1, max_value=palette)),
            min_size=n,
            max_size=n,
        )
    )
    start = PartialColoring(n, palette, cols)
    try:
        want = first_fit_reference(g, start)
    except PaletteExhaustedError as exc:
        with pytest.raises(PaletteExhaustedError) as got:
            greedy_extend(g, start)
        assert str(got.value) == str(exc)
    else:
        assert greedy_extend(g, start) == want


def test_color_classes():
    c = PartialColoring(4, 2, [2, 1, 2, None])
    assert color_classes(c) == {1: [2], 2: [1, 3]}


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=60)
def test_graph_equality_ignores_edge_order(n, data):
    edges = data.draw(edges_strategy(n, max_edges=12))
    g1 = Graph(n, edges)
    g2 = Graph(n, list(reversed(edges)))
    assert g1 == g2
    assert hash(g1) == hash(g2)
