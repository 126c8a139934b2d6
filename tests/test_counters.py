"""Tests for the per-member monochromatic counters.

The batched kernel is checked against member_collision_mask, which is
itself checked against direct color evaluation, so the two
implementations vouch for each other only through the slow literal one.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamcolor import counters
from streamcolor.counters import (
    CounterBank,
    _modinv_table,
    argmin_counter,
    collision_index_counts,
    member_collision_mask,
)
from streamcolor.errors import NegativeCounterError
from streamcolor.graph import PartialColoring
from streamcolor.hashfam import ColoringFamily, basic_family, extension_family


def literal_mask(family, base_colors, u, v):
    """Loop-free-of-cleverness reference for member_collision_mask."""
    out = []
    for member in family:
        cu = (
            int(base_colors[u])
            if base_colors is not None and base_colors[u] > 0
            else member.color(u)
        )
        cv = (
            int(base_colors[v])
            if base_colors is not None and base_colors[v] > 0
            else member.color(v)
        )
        out.append(cu == cv)
    return np.array(out)


def random_case(draw, max_n=24, max_palette=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    palette = draw(st.integers(min_value=1, max_value=max_palette))
    fam = ColoringFamily(n, palette)
    with_base = draw(st.booleans())
    base = None
    if with_base:
        # 0 is unassigned; colors above the palette, some of them above p,
        # are ones no member gives
        cols = draw(
            st.lists(
                st.one_of(
                    st.just(0),
                    st.integers(min_value=1, max_value=palette),
                    st.integers(min_value=1, max_value=max(palette, fam.p) + 2),
                ),
                min_size=n,
                max_size=n,
            )
        )
        base = np.array([0, *cols], dtype=np.int64)
    return fam, base


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mask_matches_literal_evaluation(data):
    fam, base_arr = random_case(data.draw)
    u = data.draw(st.integers(min_value=1, max_value=fam.n - 1))
    v = data.draw(st.integers(min_value=u + 1, max_value=fam.n))
    got = member_collision_mask(fam, base_arr, u, v)
    assert got.shape == (fam.p,)
    assert (got == literal_mask(fam, base_arr, u, v)).all()


@st.composite
def kernel_batches(draw):
    """(family, base color array, edges, signs) for the kernel oracle."""
    fam, base = random_case(draw)
    pairs = [(u, v) for u in range(1, fam.n + 1) for v in range(u + 1, fam.n + 1)]
    idx = draw(st.lists(st.integers(min_value=0, max_value=len(pairs) - 1), max_size=30))
    # inserts for every drawn pair, deletions for a prefix-safe subset
    edges = [pairs[i] for i in idx]
    sign_list = [1] * len(edges)
    for e in list(edges):
        if draw(st.booleans()):
            edges.append(e)
            sign_list.append(-1)
    return fam, base, edges, sign_list


# all-zero bases, which the kernel takes as no base: insert-only, then
# with deletions
_ZERO_BASE_EDGES = [(1, 2), (2, 5), (3, 9), (4, 7), (1, 8)]


@given(kernel_batches())
@example((ColoringFamily(9, 3), np.zeros(10, dtype=np.int64), _ZERO_BASE_EDGES, [1] * 5))
@example(
    (
        ColoringFamily(9, 3),
        np.zeros(10, dtype=np.int64),
        _ZERO_BASE_EDGES + [(2, 5), (4, 7)],
        [1] * 5 + [-1, -1],
    )
)
# vertex 2 fixed to color 5, which no member of palette 3 gives
@example((ColoringFamily(10, 3), np.array([0, 0, 5] + [0] * 8), [(1, 2)], [1]))
@settings(max_examples=120, deadline=None)
def test_batched_kernel_matches_mask_oracle(case):
    fam, base_arr, edges, sign_list = case
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    signs = np.array(sign_list, dtype=np.int64)

    got = collision_index_counts(fam, base_arr, us, vs, signs)

    want = np.zeros(fam.p, dtype=np.int64)
    for (u, v), s in zip(edges, sign_list):
        want += s * member_collision_mask(fam, base_arr, u, v)
    assert (got == want).all()


def test_kernel_handles_empty_batch():
    fam = basic_family(10, 3)
    empty = np.array([], dtype=np.int64)
    got = collision_index_counts(fam, None, empty, empty, empty)
    assert got.shape == (11,) and not got.any()


def test_member_zero_counts_everything():
    # a=0 colors every vertex alike, so its counter equals the edge count;
    # with a palette of p = 13 or more no other member colors a pair alike
    us = np.array([1, 2, 3, 9], dtype=np.int64)
    vs = np.array([5, 6, 4, 11], dtype=np.int64)
    signs = np.ones(4, dtype=np.int64)
    for palette in (4, 13, 40):
        fam = ColoringFamily(12, palette)
        counts = collision_index_counts(fam, None, us, vs, signs)
        assert counts[0] == 4
        if palette >= fam.p:
            assert not counts[1:].any()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_without_base_is_mirror_symmetric(data):
    # members a and p - a color every pair alike or unlike together
    n = data.draw(st.integers(min_value=2, max_value=300))
    fam = ColoringFamily(n, data.draw(st.integers(min_value=1, max_value=400)))
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n - 1),
                st.integers(min_value=1, max_value=n - 1),
                st.sampled_from([1, -1]),
            ),
            max_size=40,
        )
    )
    us, steps, signs = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    vs = np.minimum(us + steps, n)  # above u, since u < n
    counts = collision_index_counts(fam, None, us, vs, signs)
    assert (counts[1:] == counts[:0:-1]).all()


@pytest.mark.parametrize("with_base", [False, True])
def test_int64_kernel_matches_mask_oracle(with_base):
    # p = 50021 has p^2 >= 2^31, so the sweep runs on int64
    fam = basic_family(50000, 7)
    assert fam.p == 50021
    rng = np.random.default_rng(5)
    us = rng.integers(1, 25000, size=14)
    vs = us + rng.integers(1, 25000, size=14)
    # every third edge is deleted again
    us = np.concatenate([us, us[::3]])
    vs = np.concatenate([vs, vs[::3]])
    signs = np.concatenate([np.ones(14, np.int64), -np.ones(5, np.int64)])
    base_arr = None
    if with_base:
        base_arr = rng.integers(1, 8, size=fam.n + 1)
        base_arr[rng.random(fam.n + 1) < 0.5] = 0

    got = collision_index_counts(fam, base_arr, us, vs, signs)

    want = np.zeros(fam.p, dtype=np.int64)
    for u, v, s in zip(us.tolist(), vs.tolist(), signs.tolist()):
        want += s * member_collision_mask(fam, base_arr, u, v)
    assert (got == want).all()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_kernel_over_a_base_counts_as_its_small_batches_do(dtype):
    # 150k signed edges, whose endpoint colors over the base are formed a
    # graph.BLOCK of edges at a time: the counts are linear in the edges,
    # so they equal the sum over batches of 1000, whatever the arrays' dtype
    fam = extension_family(400, 8)
    rng = np.random.default_rng(11)
    m = 150_000
    us = rng.integers(1, fam.n + 1, size=m)
    vs = (us - 1 + rng.integers(1, fam.n, size=m)) % fam.n + 1
    signs = np.where(rng.random(m) < 0.2, -1, 1)
    base_arr = rng.integers(1, fam.palette + 3, size=fam.n + 1)
    base_arr[rng.random(fam.n + 1) < 0.5] = 0
    base_arr[0] = 0
    want = sum(
        collision_index_counts(fam, base_arr, *(a[at : at + 1000] for a in (us, vs, signs)))
        for at in range(0, m, 1000)
    )
    got = collision_index_counts(fam, base_arr, *(a.astype(dtype) for a in (us, vs, signs)))
    assert (got == want).all()


@pytest.mark.parametrize("palette, tables", [(1, 0), (3, 1)])
def test_signed_bank_builds_one_inverse_table(palette, tables):
    # the insertions and the deletions share it, and a palette of 1 sweeps
    # nothing, so it builds none
    fam = ColoringFamily(20, palette)
    us, vs, signs = np.array([[1, 2, 3, 1], [5, 6, 7, 5], [1, 1, 1, -1]])
    with mock.patch.object(counters, "_modinv_table", wraps=_modinv_table) as table:
        got = collision_index_counts(fam, None, us, vs, signs)
    assert table.call_count == tables
    assert (got == collision_index_counts(fam, None, us[1:3], vs[1:3], signs[1:3])).all()


@pytest.mark.parametrize("p, upto", [(2, 1), (13, 12), (8009, 8000), (50021, 50000)])
def test_modinv_table_matches_pow(p, upto):
    # 50021^2 >= 2^31: the square-and-multiply products need int64
    inv = _modinv_table(p, upto)
    assert inv.tolist() == [0] + [pow(i, -1, p) for i in range(1, upto + 1)]


def test_both_colored_equal_hits_every_member():
    fam = extension_family(8, 1)
    base = PartialColoring(8, 6, [2, 2] + [None] * 6)
    counts = collision_index_counts(
        fam,
        base.array,
        np.array([1], dtype=np.int64),
        np.array([2], dtype=np.int64),
        np.array([1], dtype=np.int64),
    )
    assert (counts == 1).all()


def signed_bank(fam, updates):
    """One bank over a batch of (sign, u, v) updates, with no base."""
    signs, us, vs = np.array(updates, dtype=np.int64).T
    return CounterBank.from_arrays(fam, None, us, vs, signs)


def test_update_example_frozen():
    # inserting (1,2) at n=10, palette 3 leaves member a=7 unchanged
    # because C_7(1) = 2 and C_7(2) = 1 differ
    fam = basic_family(10, 3)
    assert fam.member(7).color(1) == 2
    assert fam.member(7).color(2) == 1
    bank = signed_bank(fam, [(1, 1, 2)])
    assert bank.counts[7] == 0
    # and the members that do collide on (1,2) are exactly a = 0, 3, 8
    assert list(np.flatnonzero(bank.counts)) == [0, 3, 8]


def test_insert_then_delete_restores_counters():
    fam = basic_family(9, 2)
    snapshot = signed_bank(fam, [(1, 3, 7), (1, 2, 7)]).counts
    bank = signed_bank(fam, [(1, 3, 7), (1, 2, 7), (1, 4, 9), (-1, 4, 9)])
    assert (bank.counts == snapshot).all()


def test_from_arrays_rejects_net_negative():
    fam = basic_family(9, 2)
    us = np.array([3], dtype=np.int64)
    vs = np.array([7], dtype=np.int64)
    signs = np.array([-1], dtype=np.int64)
    with pytest.raises(NegativeCounterError):
        CounterBank.from_arrays(fam, None, us, vs, signs)


def test_argmin_tie_breaks_to_smallest_index():
    fam = basic_family(2, 1)  # p = 3, three members
    bank = CounterBank(fam, np.array([5, 3, 3], dtype=np.int64))
    assert argmin_counter(bank) == 1
    bank = CounterBank(fam, np.array([2, 2, 2], dtype=np.int64))
    assert argmin_counter(bank) == 0


def test_argmin_single_counter():
    fam = basic_family(1, 1)  # p = 2
    bank = CounterBank(fam, np.array([4, 9], dtype=np.int64))
    assert argmin_counter(bank) == 0
    assert bank.entry_count() == 2
