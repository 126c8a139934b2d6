"""End-to-end tests for the streaming coloring algorithms."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import engine, graph
from streamcolor.counters import collision_index_counts
from streamcolor.engine import (
    RunReport,
    StreamSource,
    _candidates,
    _ceil_log_3_2,
    _stored_subgraph,
    iterative_coloring,
    run_dynamic,
    two_pass_coloring,
    two_pass_unknown_delta,
)
from streamcolor.errors import (
    DegreeViolationError,
    IllegalUpdateError,
    StreamColorError,
    TooLargeError,
)
from streamcolor.generator import generate_stream
from streamcolor.graph import (
    EdgeUpdate,
    Graph,
    PartialColoring,
    UpdateView,
    materialize,
    max_degree,
    validate_partial,
    validate_proper,
)
from streamcolor.hashfam import ColoringFamily
from streamcolor.recovery import edge_encode
from streamcolor.streamio import dumps_coloring


def source_of(edges, n):
    return StreamSource(n, [EdgeUpdate(1, u, v) for u, v in edges])


def test_ceil_log_examples():
    assert _ceil_log_3_2(1) == 0
    assert _ceil_log_3_2(2) == 2  # (3/2)^2 = 2.25 >= 2
    assert _ceil_log_3_2(8) == 6
    for x in range(1, 200):
        t = _ceil_log_3_2(x)
        assert (3**t) >= x * (2**t)
        if t:
            assert 3 ** (t - 1) < x * 2 ** (t - 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_encodings_match_pair_loops(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    # class 0 marks a vertex that is not a survivor's end
    classes = [0] + data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    marked = [False] + data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    expected = sorted(
        edge_encode(u, v, n)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if classes[u] == classes[v] != 0 and (marked[u] or marked[v])
    )
    classes, marked = np.array(classes, dtype=np.int64), np.array(marked)
    # listed once each, in no set order
    assert sorted(_candidates(classes, marked).tolist()) == expected
    # the count the candidate guard computes before listing any pair: the
    # cap is inclusive, and one byte less refuses that many candidates
    need = len(expected) * engine.CANDIDATE_BYTES
    with mock.patch.object(engine, "MAX_VERTEX_STATE_BYTES", need):
        _candidates(classes, marked)
    if expected:
        with mock.patch.object(engine, "MAX_VERTEX_STATE_BYTES", need - 1):
            with pytest.raises(TooLargeError, match=f"^{len(expected)} decode candidates"):
                _candidates(classes, marked)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dynamic_storage_equals_storage_of_the_final_graph(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    # toggling an edge inserts it when absent and deletes it when present,
    # so the stream is legal
    present, updates = set(), []
    for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=40)):
        sign = -1 if (u, v) in present else 1
        present ^= {(u, v)}
        updates.append(EdgeUpdate(sign, u, v))
    classes = np.array([0] + data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    marked = np.array([False] + data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))

    def stored(src, dynamic):
        report = RunReport("test", n, 0, 1, 0, PartialColoring(n, 1))
        sub = _stored_subgraph(
            n, src.replay_arrays(), classes, marked, dynamic, max(1, len(present)), report
        )
        return [a.tolist() for a in sub.edge_arrays()]

    final = StreamSource(n, [EdgeUpdate(1, u, v) for u, v in sorted(present)])
    assert stored(StreamSource(n, updates), True) == stored(final, False)


def _run_recording_storage(colorer, src):
    """colorer(src)'s coloring text, report JSON and every stored subgraph's
    edge arrays, or the error it raised."""
    stored = []

    def record(*args):
        sub = real(*args)
        stored.append([a.tolist() for a in sub.edge_arrays()])
        return sub

    real = engine._stored_subgraph
    with mock.patch.object(engine, "_stored_subgraph", record):
        try:
            report = colorer(src)
        except StreamColorError as exc:
            return type(exc), str(exc), stored
    return dumps_coloring(report.coloring), json.dumps(report.to_json_dict()), stored


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_flipping_update_ends_changes_no_output(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    dynamic = data.draw(st.booleans())
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    drawn = data.draw(st.lists(st.sampled_from(pairs), max_size=30, unique=not dynamic))
    present, updates = set(), []
    for u, v in drawn:
        sign = -1 if (u, v) in present else 1
        present ^= {(u, v)}
        updates.append(EdgeUpdate(sign, u, v))
    flips = data.draw(st.lists(st.booleans(), min_size=len(updates), max_size=len(updates)))
    flipped = [
        EdgeUpdate(s, v, u) if f else EdgeUpdate(s, u, v) for (s, u, v), f in zip(updates, flips)
    ]
    delta = max_degree(Graph(n, present))
    for colorer in (
        lambda src: two_pass_coloring(src, delta, dynamic=dynamic),
        lambda src: iterative_coloring(src, delta, dynamic=dynamic),
        lambda src: two_pass_unknown_delta(src, dynamic=dynamic),
    ):
        as_written = _run_recording_storage(colorer, StreamSource(n, updates))
        assert _run_recording_storage(colorer, StreamSource(n, flipped)) == as_written


def _with_dtype(updates, dtype):
    view = UpdateView.of(updates)
    return UpdateView(*(col.astype(dtype) for col in (view.signs, view.us, view.vs)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_int32_and_int64_tables_give_one_output(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    dynamic = data.draw(st.booleans())
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    drawn = data.draw(st.lists(st.sampled_from(pairs), max_size=30, unique=not dynamic))
    present, updates = set(), []
    for u, v in drawn:
        sign = -1 if (u, v) in present else 1
        present ^= {(u, v)}
        updates.append(EdgeUpdate(sign, *data.draw(st.sampled_from([(u, v), (v, u)]))))
    delta = max_degree(Graph(n, present))
    for colorer in (
        lambda src: two_pass_coloring(src, delta, dynamic=dynamic),
        lambda src: iterative_coloring(src, delta, dynamic=dynamic),
        lambda src: two_pass_unknown_delta(src, dynamic=dynamic),
    ):
        wide = _run_recording_storage(colorer, StreamSource(n, _with_dtype(updates, np.int64)))
        for dtype in (np.int16, np.int32):
            narrow = _run_recording_storage(colorer, StreamSource(n, _with_dtype(updates, dtype)))
            assert narrow == wide


@pytest.mark.parametrize(
    "colorer",
    [
        lambda src: two_pass_coloring(src, 300),
        lambda src: iterative_coloring(src, 300),
        two_pass_unknown_delta,
    ],
    ids=["two-pass", "iterative", "unknown-delta"],
)
def test_int32_and_int64_tables_give_one_output_over_many_blocks(colorer):
    # 150k updates, so the blocked passes take many blocks, and the
    # iterative colorer's second round banks over a real base
    sf = generate_stream(2000, 300, seed=1)
    assert len(sf.updates) > 2 << 16
    wide = _run_recording_storage(colorer, StreamSource(sf.n, _with_dtype(sf.updates, np.int64)))
    assert isinstance(wide[0], str)  # a coloring, not an error
    for dtype in (np.int16, np.int32):
        narrow = _run_recording_storage(colorer, StreamSource(sf.n, _with_dtype(sf.updates, dtype)))
        assert narrow == wide


def _materialized(n, updates, coloring):
    """The final graph's edge arrays and `coloring`'s monochromatic edges
    on it, or the error `materialize` raised."""
    try:
        g = materialize(n, updates)
    except StreamColorError as exc:
        return type(exc), str(exc)
    return [a.tolist() for a in g.edge_arrays()], validate_proper(g, coloring)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_size_changes_no_output(data):
    # every per-update loop reads graph.BLOCK through graph.blocks, so one
    # update per block, a few, and the whole stream in one must all agree
    n = data.draw(st.integers(min_value=2, max_value=40))
    dynamic = data.draw(st.booleans())
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    size = data.draw(st.integers(1, min(60, len(pairs))))
    drawn = data.draw(st.lists(st.sampled_from(pairs), min_size=size, max_size=size, unique=True))
    if dynamic:
        # the same edges drawn again, so the stream deletes and reinserts
        drawn = data.draw(st.lists(st.sampled_from(drawn), min_size=size, max_size=2 * size))
    present, updates = set(), []
    for u, v in drawn:
        sign = -1 if (u, v) in present else 1
        present ^= {(u, v)}
        updates.append(EdgeUpdate(sign, *data.draw(st.sampled_from([(u, v), (v, u)]))))
    if updates and data.draw(st.sampled_from([False, False, True])):
        # an update repeated at once repeats its sign in its run: illegal
        at = data.draw(st.integers(0, len(updates) - 1))
        updates.insert(at, updates[at])
    # a declared delta below the true degree is a degree violation, and one
    # far above it leaves the iterative colorer rounds over a real base
    delta = max(0, max_degree(Graph(n, present)) + data.draw(st.sampled_from([-1, 0, 0, 8])))
    colors = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    coloring = PartialColoring(n, 3, colors)
    colorers = (
        lambda src: two_pass_coloring(src, delta, dynamic=dynamic),
        lambda src: iterative_coloring(src, delta, dynamic=dynamic),
        lambda src: two_pass_unknown_delta(src, dynamic=dynamic),
    )
    # a bank over a drawn base, which the colorers reach only on denser
    # streams; colors past the palette are fixed ends no member gives
    family = ColoringFamily(n, data.draw(st.sampled_from([1, 2, 5])))
    base = [0] + data.draw(st.lists(st.integers(0, family.palette + 1), min_size=n, max_size=n))
    view = UpdateView.of(updates)

    def outputs():
        return (
            [_run_recording_storage(c, StreamSource(n, updates)) for c in colorers],
            _materialized(n, updates, coloring),
            collision_index_counts(family, np.array(base), view.us, view.vs, view.signs).tolist(),
        )

    want = outputs()
    for block in (1, 7, len(updates) + 1):
        with mock.patch.object(graph, "BLOCK", block):
            assert outputs() == want


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_degree_array_matches_signed_add_at(dtype):
    n, m = 50, 2000
    rng = np.random.default_rng(2)
    us, vs = rng.integers(1, n + 1, size=(2, m)).astype(dtype)
    signs = np.where(rng.random(m) < 0.3, -1, 1).astype(dtype)
    want = np.zeros(n + 1, dtype=np.int64)
    np.add.at(want, us, signs)
    np.add.at(want, vs, signs)
    assert np.array_equal(engine._degree_array(n, us, vs, signs), want)


class TestTwoPass:
    def test_edgeless(self):
        report = two_pass_coloring(source_of([], 7), delta=3)
        assert report.passes == 2
        assert report.coloring.is_total
        assert validate_proper(Graph(7), report.coloring) == []
        assert report.peak_stored_edges == 0

    def test_triangle(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        report = two_pass_coloring(StreamSource.from_graph(g), delta=2)
        assert validate_proper(g, report.coloring) == []
        assert report.max_color_used() <= 6
        assert report.palette_bound == 6
        assert report.passes == 2

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n,delta", [(60, 5), (200, 8), (150, 2)])
    def test_random_graphs(self, n, delta, seed):
        sf = generate_stream(n, delta, seed=seed)
        src = StreamSource.from_stream_file(sf)
        report = two_pass_coloring(src, delta)
        g = materialize(sf.n, sf.updates)
        assert validate_proper(g, report.coloring) == []
        assert report.max_color_used() <= delta * (delta + 1)
        assert report.passes == 2
        assert report.peak_stored_edges <= 4 * n
        assert report.counter_entries <= 2 * n
        assert len(report.chosen_members) == 1

    def test_degree_violation_detected(self):
        src = source_of([(1, 2), (1, 3), (1, 4)], 4)
        with pytest.raises(DegreeViolationError):
            two_pass_coloring(src, delta=2)

    def test_rejects_deletions_in_insertion_only_mode(self):
        src = StreamSource(4, [EdgeUpdate(1, 1, 2), EdgeUpdate(-1, 1, 2)])
        with pytest.raises(IllegalUpdateError):
            two_pass_coloring(src, delta=2)

    @pytest.mark.parametrize(
        "edges,delta,expected",
        [
            (
                [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6)],
                10**10,
                [10000000002, 20000000003, 30000000004,
                 40000000005, 50000000006, 60000000007],
            ),
            (
                [(1, 2), (2, 3)],
                2**62,
                [4611686018427387906, 9223372036854775811, 13835058055282163716,
                 18446744073709551621, 23058430092136939526, 27670116110564327431],
            ),
        ],
    )
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_product_coloring_exact_past_int64(self, edges, delta, expected, dynamic):
        # product colors (member color - 1) * (delta + 1) + greedy color
        # pass 2^63 here and must stay exact Python ints
        report = two_pass_coloring(source_of(edges, 6), delta, dynamic=dynamic)
        assert list(report.coloring.colors()) == expected
        assert validate_proper(Graph(6, edges), report.coloring) == []


class TestIterative:
    def test_edgeless(self):
        report = iterative_coloring(source_of([], 9), delta=2)
        assert report.coloring.is_total
        assert validate_proper(Graph(9), report.coloring) == []
        assert report.max_color_used() <= 12

    def test_star(self):
        star = Graph(9, [(1, v) for v in range(2, 10)])
        report = iterative_coloring(StreamSource.from_graph(star), delta=8)
        assert validate_proper(star, report.coloring) == []
        assert report.max_color_used() <= 48
        assert report.passes <= 2 * _ceil_log_3_2(8) + 1

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,delta", [(100, 4), (200, 8), (90, 2), (120, 16)])
    def test_random_graphs_with_phase_invariants(self, n, delta, seed):
        sf = generate_stream(n, delta, seed=seed)
        src = StreamSource.from_stream_file(sf)
        report = iterative_coloring(src, delta)
        g = materialize(sf.n, sf.updates)

        assert validate_proper(g, report.coloring) == []
        assert report.max_color_used() <= max(6 * delta, 1)
        assert report.iterations <= _ceil_log_3_2(delta) + 1
        assert report.passes <= 2 * (_ceil_log_3_2(delta) + 1) + 1
        assert report.passes == 2 * report.iterations + 1

        # per-round budget and geometric contraction of the uncolored set
        uncol = report.phase_uncolored
        for i, (n0, stored) in enumerate(zip(uncol, report.phase_stored)):
            assert 3 * stored <= n0
            nxt = uncol[i + 1] if i + 1 < len(uncol) else None
            if nxt is not None:
                assert 3 * nxt <= 2 * n0
        if uncol:
            assert report.final_stored_edges is not None
            assert report.final_stored_edges <= n

        # partial coloring stays proper after every phase
        for phase in report.phase_colorings:
            assert validate_partial(g, phase) == []

    def test_delta_one_matching(self):
        g = Graph(6, [(1, 4), (2, 5), (3, 6)])
        report = iterative_coloring(StreamSource.from_graph(g), delta=1)
        assert validate_proper(g, report.coloring) == []
        assert report.max_color_used() <= 6

    @pytest.mark.parametrize("delta", [0, 1])
    def test_zero_rounds_still_check_the_stream(self, delta):
        # n * delta <= n: no round runs and the checked first pass is the
        # final pass
        edges = [(1, 4), (2, 5), (3, 6)] if delta else []
        report = iterative_coloring(source_of(edges, 6), delta)
        assert report.iterations == 0
        assert report.passes == 1
        assert validate_proper(Graph(6, edges), report.coloring) == []

        deletion = StreamSource(4, [EdgeUpdate(1, 1, 2), EdgeUpdate(-1, 1, 2)])
        with pytest.raises(IllegalUpdateError):
            iterative_coloring(deletion, delta)
        # vertex 1 has degree delta + 1
        star = source_of([(1, v) for v in range(2, delta + 3)], 4)
        with pytest.raises(DegreeViolationError):
            iterative_coloring(star, delta)


class TestUnknownDelta:
    def test_power_of_two_selection(self):
        # true max degree 5 -> guess 8
        star5 = Graph(6, [(1, v) for v in range(2, 7)])
        report = two_pass_unknown_delta(StreamSource.from_graph(star5))
        assert report.selected_delta == 8
        assert report.passes == 2
        assert validate_proper(star5, report.coloring) == []
        assert report.max_color_used() <= 8 * 9

    def test_exact_power_kept(self):
        star8 = Graph(9, [(1, v) for v in range(2, 10)])
        report = two_pass_unknown_delta(StreamSource.from_graph(star8))
        assert report.selected_delta == 8

    def test_triangle(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        report = two_pass_unknown_delta(StreamSource.from_graph(g))
        assert report.selected_delta == 2
        assert validate_proper(g, report.coloring) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_guess_within_factor_two(self, seed):
        sf = generate_stream(80, 7, seed=seed)
        src = StreamSource.from_stream_file(sf)
        report = two_pass_unknown_delta(src)
        true_delta = max_degree(materialize(sf.n, sf.updates))
        assert true_delta >= 1
        assert true_delta <= report.selected_delta < 2 * true_delta
        g = materialize(sf.n, sf.updates)
        assert validate_proper(g, report.coloring) == []
        sel = report.selected_delta
        assert report.max_color_used() <= sel * (sel + 1)
        grid_size = math.ceil(math.log2(80)) + 1
        assert report.counter_entries <= 2 * 80 * grid_size


class TestDynamic:
    def test_insert_insert_delete_example(self):
        ups = [EdgeUpdate(1, 1, 2), EdgeUpdate(1, 3, 4), EdgeUpdate(-1, 1, 2)]
        final = materialize(4, ups)
        assert final.edges_sorted() == [(3, 4)]
        for which in ("two-pass", "iterative"):
            dyn = run_dynamic(StreamSource(4, ups), 1, which)
            ins = (
                two_pass_coloring(StreamSource.from_graph(final), 1)
                if which == "two-pass"
                else iterative_coloring(StreamSource.from_graph(final), 1)
            )
            assert dumps_coloring(dyn.coloring) == dumps_coloring(ins.coloring)
            assert dyn.passes == ins.passes

    def test_insert_all_then_delete_all(self):
        edges = [(1, 2), (2, 3), (3, 4), (4, 5)]
        ups = [EdgeUpdate(1, u, v) for u, v in edges]
        ups += [EdgeUpdate(-1, u, v) for u, v in reversed(edges)]
        dyn = run_dynamic(StreamSource(5, ups), 2, "two-pass")
        empty = two_pass_coloring(source_of([], 5), 2)
        assert dumps_coloring(dyn.coloring) == dumps_coloring(empty.coloring)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("which", ["two-pass", "iterative"])
    def test_matches_insertion_only_on_final_graph(self, which, seed):
        sf = generate_stream(40, 4, seed=seed, deletion_fraction=0.3)
        final = materialize(sf.n, sf.updates)
        dyn = run_dynamic(StreamSource.from_stream_file(sf), 4, which)
        ins_src = StreamSource.from_graph(final)
        ins = (
            two_pass_coloring(ins_src, 4)
            if which == "two-pass"
            else iterative_coloring(ins_src, 4)
        )
        assert dumps_coloring(dyn.coloring) == dumps_coloring(ins.coloring)
        assert dyn.passes == ins.passes
        assert dyn.chosen_members == ins.chosen_members
        # every storage phase went through a sketch of the declared budget
        assert dyn.sketch_budgets
        if which == "two-pass":
            assert dyn.sketch_budgets == [4 * sf.n]

    def test_unknown_delta_dynamic(self):
        sf = generate_stream(30, 3, seed=9, deletion_fraction=0.25)
        final = materialize(sf.n, sf.updates)
        dyn = run_dynamic(StreamSource.from_stream_file(sf), 3, "two-pass-unknown-delta")
        ins = two_pass_unknown_delta(StreamSource.from_graph(final))
        assert dumps_coloring(dyn.coloring) == dumps_coloring(ins.coloring)
        assert dyn.selected_delta == ins.selected_delta

    def test_unknown_algorithm_name(self):
        with pytest.raises(ValueError):
            run_dynamic(source_of([], 3), 1, "zig-zag")


class TestStreamSource:
    def test_replays_are_counted(self):
        src = source_of([(1, 2)], 3)
        assert src.replays == 0
        src.replay_arrays()
        src.replay_arrays()
        assert src.replays == 2

    def test_replay_is_identical(self):
        src = source_of([(2, 1), (2, 3)], 3)
        first = [arr.copy() for arr in src.replay_arrays()]
        second = src.replay_arrays()
        # the stream as written: (us, vs, signs), ends in the order given
        assert [arr.tolist() for arr in first] == [[2, 2], [1, 3], [1, 1]]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_from_graph_sorted(self):
        g = Graph(4, [(3, 4), (1, 2)])
        src = StreamSource.from_graph(g)
        assert list(src.updates) == [(1, 1, 2), (1, 3, 4)]

    def test_materialized_validates(self):
        src = StreamSource(3, [EdgeUpdate(-1, 1, 2)])
        with pytest.raises(IllegalUpdateError):
            materialize(src.n, src.updates)

    def test_replay_arrays_rejects_garbage(self):
        with pytest.raises(IllegalUpdateError):
            StreamSource(3, [EdgeUpdate(1, 1, 9)]).replay_arrays()
        with pytest.raises(IllegalUpdateError):
            StreamSource(3, [EdgeUpdate(1, 2, 2)]).replay_arrays()
        with pytest.raises(IllegalUpdateError):
            StreamSource(3, [EdgeUpdate(7, 1, 2)]).replay_arrays()

    def test_report_json_shape(self):
        report = two_pass_coloring(source_of([(1, 2)], 3), 1)
        d = report.to_json_dict()
        assert d["passes"] == 2
        assert d["algorithm"] == "two-pass"
        assert isinstance(d["chosen_members"], list)
