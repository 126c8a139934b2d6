"""Tests for deterministic sparse recovery of edge sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import recovery
from streamcolor.errors import (
    EqualVerticesError,
    OutOfRangeError,
    RecoveryFailedError,
)
from streamcolor.hashfam import is_prime, smallest_prime_above
from streamcolor.recovery import (
    SparseRecoverySketch,
    _Fq,
    edge_decode,
    edge_encode,
    edge_universe,
    field_modulus,
)


def test_edge_encode_examples():
    assert edge_encode(1, 2, 5) == 1
    assert edge_encode(4, 5, 5) == 10
    assert edge_encode(2, 4, 5) == 6
    assert edge_encode(4, 2, 5) == 6  # orientation-free


def test_edge_universe():
    assert edge_universe(5) == 10
    assert edge_universe(2) == 1


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=40)
def test_encode_decode_inverse(n):
    seen = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            x = edge_encode(u, v, n)
            assert 1 <= x <= edge_universe(n)
            assert edge_decode(x, n) == (u, v)
            seen.add(x)
    assert seen == set(range(1, edge_universe(n) + 1))


def test_encode_decode_range_errors():
    with pytest.raises(OutOfRangeError):
        edge_encode(1, 9, 5)
    with pytest.raises(OutOfRangeError):
        edge_encode(0, 3, 5)
    with pytest.raises(OutOfRangeError):
        edge_decode(0, 5)
    with pytest.raises(OutOfRangeError):
        edge_decode(11, 5)


@given(st.integers(min_value=2, max_value=120))
@settings(max_examples=40)
def test_field_modulus_dominates_universe_square(n):
    q = field_modulus(n)
    assert is_prime(q)
    assert q > edge_universe(n) ** 2


@pytest.mark.parametrize(
    "q",
    [
        2,
        3,
        65521,
        (1 << 31) - 1,
        (1 << 40) + 15,
        (1 << 45) + 59,
        smallest_prime_above(2**50),
        (1 << 61) - 1,  # the largest int64 field: 31 limbs of 2 bits
        smallest_prime_above(2**61),  # 62 bits: Python ints
    ],
)
def test_field_multiply_matches_python_ints(q):
    fq = _Fq(q)
    rng = np.random.default_rng(7)
    a = rng.integers(0, q, size=200)
    b = rng.integers(0, q, size=200)
    a[:2] = b[:2] = q - 1  # the largest terms of the one-step reduction
    got = fq.mul_split(fq.asarray(a.tolist()), fq.split(fq.asarray(b.tolist())))
    want = [(int(x) * int(y)) % q for x, y in zip(a, b)]
    assert [int(g) for g in got] == want
    assert int(fq.sums(fq.asarray(want), 0)) == sum(want) % q
    # the fused Horner step of decode: a * b + add, reduced once
    for add in (1, q // 2, q - 1):
        got = fq.mul_split(fq.asarray(a.tolist()), fq.split(fq.asarray(b.tolist())), add)
        assert [int(g) for g in got] == [(int(x) * int(y) + add) % q for x, y in zip(a, b)]


def test_sum_of_many_values_near_the_largest_int64_modulus():
    # 2^20 values near q would overflow one int64 sum at q >= 2^43
    q = (1 << 61) - 1
    fq = _Fq(q)
    assert fq.dtype == np.int64
    i = np.arange((1 << 20) + 3, dtype=np.int64)
    values = np.where(i % 3 == 0, -(q - 1 - i), q - 1 - i)
    assert int(fq.sums(values, 0)) == sum(values.tolist()) % q


def feed(sketch, updates):
    """Apply (sign, u, v) updates to the sketch as one batch."""
    signs, us, vs = np.array(updates, dtype=np.int64).reshape(-1, 3).T
    sketch.update_batch(signs, us, vs)


def brute_survivors(updates):
    mult = {}
    for sign, u, v in updates:
        e = (min(u, v), max(u, v))
        mult[e] = mult.get(e, 0) + sign
        if mult[e] == 0:
            del mult[e]
    assert all(c == 1 for c in mult.values())
    return sorted(mult)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_roundtrip_within_budget(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    k = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = data.draw(
        st.lists(st.sampled_from(pairs), max_size=min(k, len(pairs)), unique=True)
    )
    churn = data.draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    ups = [(1, u, v) for u, v in keep]
    for u, v in churn:
        first = -1 if (u, v) in keep else 1
        ups.append((first, u, v))
        ups.append((-first, u, v))

    sketch = SparseRecoverySketch.empty(n, k)
    feed(sketch, ups)
    assert sketch.decode() == brute_survivors(ups)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_roundtrip_above_41_bit_field(data):
    # n >= 1730 puts q above 41 bits; the field stays on int64 there
    n = data.draw(st.integers(min_value=1730, max_value=2100))
    k = data.draw(st.integers(min_value=1, max_value=12))
    pair = (
        st.tuples(st.integers(1, n), st.integers(1, n))
        .filter(lambda e: e[0] != e[1])
        .map(lambda e: (min(e), max(e)))
    )
    keep = data.draw(st.lists(pair, max_size=k, unique=True))
    churn = data.draw(st.lists(pair, max_size=6, unique=True))
    decoys = data.draw(st.lists(pair, max_size=20))
    ups = [(1, u, v) for u, v in keep]
    for u, v in churn:
        first = -1 if (u, v) in keep else 1
        ups.append((first, u, v))
        ups.append((-first, u, v))

    sketch = SparseRecoverySketch.empty(n, k)
    assert sketch.syndromes.dtype == np.int64
    feed(sketch, ups)
    want = brute_survivors(ups)
    cands = keep + churn + decoys
    assert sketch.decode(candidates=cands) == want
    encoded = np.array([edge_encode(u, v, n) for u, v in cands], dtype=np.int64)
    assert sketch.decode(candidates=encoded) == want


@pytest.mark.parametrize("block", [1, 7, 1 << 18])
def test_blocked_arithmetic_matches_python_ints(monkeypatch, block):
    # block boundaries in power sums, Berlekamp-Massey and root search
    monkeypatch.setattr(recovery, "_BLOCK_ELEMS", block)
    n, k = 1800, 9
    q = field_modulus(n)
    keep = [(1, 2), (5, 1800), (17, 944), (1799, 1800)]
    churn = [(3, 4), (5, 1800)]
    ups = [(1, u, v) for u, v in keep]
    ups += [(-1, 3, 4), (1, 3, 4), (-1, 5, 1800), (1, 5, 1800)]
    sketch = SparseRecoverySketch.empty(n, k)
    sketch.update_batch(
        np.array([s for s, _, _ in ups]),
        np.array([u for _, u, _ in ups]),
        np.array([v for _, _, v in ups]),
    )
    want = [
        sum(s * pow(edge_encode(u, v, n), j, q) for s, u, v in ups) % q
        for j in range(1, 2 * k + 1)
    ]
    assert sketch.syndromes.tolist() == want
    cands = keep + churn + [(u, u + 1) for u in range(100, 120)]
    assert sketch.decode(candidates=cands) == brute_survivors(ups)


@pytest.mark.parametrize(
    "cands, error",
    [
        ([(1, 2), (3, 11)], OutOfRangeError),
        ([(0, 2), (1, 2)], OutOfRangeError),
        ([(1, 2), (4, 4)], EqualVerticesError),
        (np.array([1, 46], dtype=np.int64), OutOfRangeError),
        (np.array([0, 1], dtype=np.int64), OutOfRangeError),
    ],
)
def test_candidates_outside_universe_raise(cands, error):
    sketch = SparseRecoverySketch.empty(10, 2)
    feed(sketch, [(1, 1, 2)])
    with pytest.raises(error):
        sketch.decode(candidates=cands)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_overfull_never_lies(data):
    # more survivors than the budget: decode must either raise or be right
    n = data.draw(st.integers(min_value=4, max_value=20))
    k = data.draw(st.integers(min_value=1, max_value=4))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = data.draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=k + 1,
            max_size=min(3 * k + 2, len(pairs)),
            unique=True,
        )
    )
    sketch = SparseRecoverySketch.empty(n, k)
    feed(sketch, [(1, u, v) for u, v in keep])
    try:
        got = sketch.decode()
    except RecoveryFailedError:
        return
    assert got == sorted(keep)


@pytest.mark.parametrize("multiplicity", [2, 3, -1, -2])
def test_survivor_of_other_net_multiplicity_fails(multiplicity):
    # decode re-checks only the first `deg` syndromes; a survivor whose
    # net multiplicity is not 1 must still fail that check
    sketch = SparseRecoverySketch.empty(10, 3)
    sign = 1 if multiplicity > 0 else -1
    feed(sketch, [(1, 4, 7)] + [(sign, 1, 2)] * abs(multiplicity))
    with pytest.raises(RecoveryFailedError, match="syndrome 1 mismatch after decode"):
        sketch.decode()


def test_empty_sketch_decodes_empty():
    sketch = SparseRecoverySketch.empty(6, 3)
    assert sketch.decode() == []
    assert sketch.size_field_elements == 6


def test_update_batch_equals_single_updates():
    a = SparseRecoverySketch.empty(9, 4)
    b = SparseRecoverySketch.empty(9, 4)
    ups = [(1, 1, 2), (1, 5, 3), (-1, 2, 1), (1, 8, 9)]
    for update in ups:
        feed(a, [update])
    b.update_batch(
        np.array([s for s, _, _ in ups]),
        np.array([u for _, u, _ in ups]),
        np.array([v for _, _, v in ups]),
    )
    assert [int(x) for x in a.syndromes] == [int(x) for x in b.syndromes]


def test_merge_is_addition_of_streams():
    left = SparseRecoverySketch.empty(8, 3)
    right = SparseRecoverySketch.empty(8, 3)
    feed(left, [(1, 1, 2), (1, 3, 4)])
    feed(right, [(1, 5, 6), (-1, 3, 4)])
    merged = left.merge(right)
    assert merged.decode() == [(1, 2), (5, 6)]


def test_merge_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        SparseRecoverySketch.empty(8, 3).merge(SparseRecoverySketch.empty(8, 4))
    with pytest.raises(ValueError):
        SparseRecoverySketch.empty(8, 3).merge(SparseRecoverySketch.empty(9, 3))


def test_candidate_restriction_finds_support():
    sketch = SparseRecoverySketch.empty(10, 3)
    feed(sketch, [(1, 1, 2), (1, 4, 7), (1, 9, 10)])
    cands = [(1, 2), (4, 7), (9, 10), (2, 3), (5, 6)]
    assert sketch.decode(candidates=cands) == [(1, 2), (4, 7), (9, 10)]


def test_candidate_restriction_missing_root_fails_loudly():
    sketch = SparseRecoverySketch.empty(10, 3)
    feed(sketch, [(1, 1, 2), (1, 4, 7)])
    with pytest.raises(RecoveryFailedError):
        sketch.decode(candidates=[(1, 2), (5, 6)])


def test_int64_limb_multiply_roundtrip_at_n_2000():
    # q is above 41 bits, where a single int64 product would overflow;
    # the object field starts at n = 55110 (see the limb-cutover test below)
    n = 2000
    q = field_modulus(n)
    assert q.bit_length() > 41
    sketch = SparseRecoverySketch.empty(n, 2)
    feed(sketch, [(1, 1999, 2000), (1, 1, 2)])
    assert sketch.decode(candidates=[(1, 2), (5, 9), (1999, 2000)]) == [
        (1, 2),
        (1999, 2000),
    ]


@pytest.mark.parametrize(
    "n, dtype", [(55109, np.int64), (55110, object), (70000, object)]
)
def test_roundtrip_on_both_sides_of_the_limb_cutover(n, dtype):
    # q has 61 bits (31 limbs) up to n = 55109 and 62 bits (62 limbs) above
    sketch = SparseRecoverySketch.empty(n, 3)
    assert sketch.syndromes.dtype == dtype
    feed(sketch, [(1, 1, 2), (1, n - 1, n), (1, 5, 9), (-1, 5, 9)])
    cands = [(1, 2), (5, 9), (n - 1, n), (3, 40000)]
    assert sketch.decode(candidates=cands) == [(1, 2), (n - 1, n)]
