"""Tests for the seeded stream generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamcolor import generator
from streamcolor.cli import main
from streamcolor.errors import TooLargeError
from streamcolor.generator import generate_graph, generate_stream
from streamcolor.graph import MAX_VERTEX, UpdateView, materialize, max_degree
from streamcolor.prng import SplitMix64
from streamcolor.streamio import StreamFile, dumps_stream


def scalar_generate_stream(
    n, delta, seed, *, edge_target=None, density=None, deletion_fraction=0.0
):
    """Reference: the generator's rule one attempt at a time, on Python
    ints and sets (arguments are assumed valid)."""
    cap = n * delta // 2
    if edge_target is None:
        target = cap // 2 if density is None else int(density * cap)
    else:
        target = edge_target
    target = max(0, min(target, cap, n * (n - 1) // 2))

    rng = SplitMix64(seed)
    degree = [0] * (n + 1)
    present = set()
    inserts = []
    attempts = 30 * target + 100
    while len(inserts) < target and attempts > 0:
        attempts -= 1
        u = rng.below(n) + 1
        v = rng.below(n) + 1
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in present or degree[e[0]] >= delta or degree[e[1]] >= delta:
            continue
        present.add(e)
        degree[e[0]] += 1
        degree[e[1]] += 1
        inserts.append(e)

    m = len(inserts)
    delete_count = int(deletion_fraction * m)
    keys = list(range(0, 2 * m, 2))
    rows = list(range(m))
    for i in rng.sample_indices(delete_count, m) if delete_count else []:
        keys.append(2 * rng.randint(i + 1, m) - 1)
        rows.append(i)
    order = np.argsort(np.array(keys, dtype=np.int64), kind="stable")
    pairs = np.array(inserts, dtype=np.int64).reshape(m, 2)
    pairs = pairs[np.array(rows, dtype=np.int64)[order]]
    signs = np.where(order < m, 1, -1).astype(np.int64)
    return StreamFile(n, delta, UpdateView(signs, pairs[:, 0].copy(), pairs[:, 1].copy()))


def _stream_bytes(sf):
    return dumps_stream(sf.n, sf.updates, sf.delta).encode()


@st.composite
def generator_args(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    delta = draw(st.one_of(st.integers(0, 4), st.integers(0, n + 5), st.just(10**20)))
    seed = draw(st.one_of(st.integers(0, (1 << 64) - 1), st.integers(1 << 64, 1 << 80)))
    cap = n * min(delta, n) // 2  # no int64 overflow for delta = 10**20
    target = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries({"edge_target": st.integers(0, cap + 5)}),
            st.fixed_dictionaries({"density": st.floats(0.0, 1.0)}),
            st.just({"edge_target": cap}),  # tight: conflicts inside a round
        )
    )
    fraction = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)))
    return n, delta, seed, dict(target or {}, deletion_fraction=fraction)


@given(
    generator_args(),
    st.sampled_from([generator._BLOCK, 251]),
    st.sampled_from([generator._F_STEPS, 1]),
)
@example((60, 2, 1, {"edge_target": 60}), generator._BLOCK, generator._F_STEPS)
@example((60, 2, 2, {"edge_target": 60, "deletion_fraction": 0.5}), generator._BLOCK, 1)
@example((200, 3, 3, {"edge_target": 300}), 7, 1)
@example((5, 10**20, 1 << 64, {"deletion_fraction": 1.0}), generator._BLOCK, 1)
@settings(max_examples=60, deadline=None)
def test_bulk_matches_scalar_oracle(args, block, f_steps):
    # short rounds put many round boundaries, and one F step per round
    # commits only up to each degree conflict, inside small streams; a
    # tight cap (target = n·delta/2) makes conflicts that cascade
    n, delta, seed, kwargs = args
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "_BLOCK", block)
        mp.setattr(generator, "_F_STEPS", f_steps)
        bulk = generate_stream(n, delta, seed, **kwargs)
    assert _stream_bytes(bulk) == _stream_bytes(
        scalar_generate_stream(n, delta, seed, **kwargs)
    )


def test_bulk_matches_scalar_oracle_across_rounds():
    # 120000 targeted edges take more than one round of _BLOCK attempts
    args = (1200, 400, 7)
    assert 120000 > generator._BLOCK * 0.9
    bulk = generate_stream(*args, deletion_fraction=0.25)
    assert _stream_bytes(bulk) == _stream_bytes(
        scalar_generate_stream(*args, deletion_fraction=0.25)
    )


# sha256 of `generate` output for the benchmark's workload shapes (flags
# as in perfbench/run.py), pinned from the one-attempt-at-a-time generator
PINNED_GENERATE = {
    ("sparse", 1): "e675589ee5738d18a06d208449244a92d6f4760a4ba4ce8844923239acc3ae67",
    ("sparse", 2): "0f3a4da637fc920271b2ce5aa9d48680a0525cb4d5281fd2ba3175fa9c431fbe",
    ("dense", 1): "7fead64fdb2652bb1586889728fa56c3f24727ed8ad3ac98419aa3112f47dfb5",
    ("dense", 2): "8cec397e3c9cf7fde1dd40240cdb0a56f89c5f11ca958189a5f04c4e5e1d4ef9",
    ("dynamic", 1): "ba6219ad47f380943f4d8b6902ab7990d7c5cfeaedcb2f0b0d9cc71e28edfea0",
    ("dynamic", 2): "4c9eeff57afd5b766fbfdd16a253acd9f76bcc66f770f4021c1a60443da8b660",
}
WORKLOAD_FLAGS = {
    "sparse": ("--n", "8000", "--delta", "32"),
    "dense": ("--n", "2000", "--delta", "300"),
    "dynamic": ("--n", "1760", "--delta", "16", "--density", "0.1", "--dynamic", "0.2"),
}


@pytest.mark.parametrize("workload,seed", sorted(PINNED_GENERATE))
def test_generate_bytes_pinned(tmp_path, workload, seed):
    out = tmp_path / "g.stream"
    argv = ["generate", "--seed", str(seed), *WORKLOAD_FLAGS[workload], "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_GENERATE[workload, seed]


def test_same_seed_same_stream():
    a = generate_stream(40, 5, seed=123, deletion_fraction=0.3)
    b = generate_stream(40, 5, seed=123, deletion_fraction=0.3)
    assert a == b


def test_different_seeds_differ():
    a = generate_stream(40, 5, seed=1)
    b = generate_stream(40, 5, seed=2)
    assert a != b


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n,delta", [(10, 2), (37, 4), (100, 9)])
def test_degree_cap_respected(n, delta, seed):
    sf = generate_stream(n, delta, seed=seed)
    g = materialize(sf.n, sf.updates)
    assert max_degree(g) <= delta
    assert sf.delta == delta


def test_edge_target_hit_when_sparse():
    sf = generate_stream(200, 6, seed=5, edge_target=50)
    assert sum(1 for u in sf.updates if u.sign == 1) == 50


def test_default_target_is_half_cap():
    sf = generate_stream(100, 4, seed=9)
    inserts = sum(1 for u in sf.updates if u.sign == 1)
    assert inserts == 100  # n * delta / 2 / 2


@pytest.mark.parametrize("seed", range(6))
def test_deletions_are_legal_and_counted(seed):
    sf = generate_stream(60, 6, seed=seed, deletion_fraction=0.3)
    inserts = sum(1 for u in sf.updates if u.sign == 1)
    deletes = sum(1 for u in sf.updates if u.sign == -1)
    assert deletes == int(0.3 * inserts)
    g = materialize(sf.n, sf.updates)  # raises if any deletion is illegal
    assert g.m == inserts - deletes
    assert max_degree(g) <= 6


def test_delete_everything():
    sf = generate_stream(30, 4, seed=2, deletion_fraction=1.0)
    g = materialize(sf.n, sf.updates)
    assert g.m == 0


def test_zero_delta_gives_empty_stream():
    sf = generate_stream(12, 0, seed=7)
    assert sf.updates == ()


def test_generate_graph_shortcut():
    g = generate_graph(25, 3, seed=11)
    sf = generate_stream(25, 3, seed=11)
    assert g == materialize(sf.n, sf.updates)


def test_argument_validation():
    with pytest.raises(ValueError):
        generate_stream(0, 3, seed=1)
    with pytest.raises(ValueError):
        generate_stream(5, -1, seed=1)
    with pytest.raises(ValueError):
        generate_stream(5, 2, seed=1, deletion_fraction=1.5)
    with pytest.raises(ValueError):
        generate_stream(5, 2, seed=1, edge_target=3, density=0.5)
    with pytest.raises(TooLargeError, match="above MAX_VERTEX"):
        generate_stream(MAX_VERTEX + 1, 2, seed=1, edge_target=1)


@pytest.mark.parametrize("deletion_fraction", [0.0, 0.5])
def test_degree_bound_above_n_stops_at_the_complete_graph(
    monkeypatch, deletion_fraction
):
    # a target past the n(n-1)/2 vertex pairs must not keep drawing: the
    # rule allows up to 30 attempts per targeted edge.  Draws are counted
    # where they are made, one by one or a block at a time.
    class Budgeted(SplitMix64):
        left = 2000

        @staticmethod
        def spend(count):
            Budgeted.left -= count
            assert Budgeted.left >= 0, "generator kept drawing"

        def next_u64(self):
            Budgeted.spend(1)
            return super().next_u64()

        def block(self, count):
            Budgeted.spend(count)
            return super().block(count)

    monkeypatch.setattr(generator, "SplitMix64", Budgeted)
    sf = generate_stream(5, 10**20, seed=3, deletion_fraction=deletion_fraction)
    assert Budgeted.left < 2000  # the draws were counted
    inserts = sum(1 for u in sf.updates if u.sign == 1)
    assert inserts == 10  # all of K5
    assert materialize(sf.n, sf.updates).m == inserts - int(deletion_fraction * 10)
