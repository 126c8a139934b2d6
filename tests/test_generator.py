"""Tests for the seeded stream generator."""

import pytest

from streamcolor import generator
from streamcolor.generator import generate_graph, generate_stream
from streamcolor.graph import materialize, max_degree
from streamcolor.prng import SplitMix64


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


@pytest.mark.parametrize("deletion_fraction", [0.0, 0.5])
def test_degree_bound_above_n_stops_at_the_complete_graph(
    monkeypatch, deletion_fraction
):
    # a target past the n(n-1)/2 vertex pairs must not keep drawing: the
    # rejection loop makes up to 30 draws per targeted edge
    class Budgeted(SplitMix64):
        left = 2000

        def next_u64(self):
            Budgeted.left -= 1
            assert Budgeted.left >= 0, "generator kept drawing"
            return super().next_u64()

    monkeypatch.setattr(generator, "SplitMix64", Budgeted)
    sf = generate_stream(5, 10**20, seed=3, deletion_fraction=deletion_fraction)
    inserts = sum(1 for u in sf.updates if u.sign == 1)
    assert inserts == 10  # all of K5
    assert materialize(sf.n, sf.updates).m == inserts - int(deletion_fraction * 10)
