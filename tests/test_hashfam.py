"""Tests for the modular hash coloring families."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor.counters import member_collision_mask
from streamcolor.errors import EqualVerticesError
from streamcolor.hashfam import (
    ColoringFamily,
    basic_family,
    extension_family,
    is_prime,
    smallest_prime_above,
)


def collision_probability(family, u, v):
    """Exact fraction of members coloring u and v alike."""
    mask = member_collision_mask(family, None, u, v)
    return Fraction(int(np.count_nonzero(mask)), family.p)


def naive_is_prime(x):
    return x >= 2 and all(x % f for f in range(2, x))


def test_smallest_prime_above_examples():
    assert smallest_prime_above(10) == 11
    assert smallest_prime_above(13) == 17
    assert smallest_prime_above(1) == 2


def test_smallest_prime_above_leaves_no_prime_below():
    # exhaustive check of the "no prime in between" contract at small n
    for n in range(1, 200):
        p = smallest_prime_above(n)
        assert naive_is_prime(p)
        assert all(not naive_is_prime(x) for x in range(n + 1, p))


def test_family_size_stays_below_twice_n():
    for n in range(1, 5001):
        p = smallest_prime_above(n)
        assert n < p < 2 * n or (n == 1 and p == 2)
        assert is_prime(p)


def test_is_prime_agrees_with_naive():
    for x in range(0, 5000):
        assert is_prime(x) == naive_is_prime(x)


@pytest.mark.parametrize(
    "x",
    [
        561,  # Carmichael numbers
        1105,
        41041,
        825265,
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        (2**31 - 1) * (2**61 - 1),
    ],
)
def test_is_prime_rejects_pseudoprimes(x):
    assert not is_prime(x)


@pytest.mark.parametrize("x", [2**31 - 1, 1_000_000_007, 999_999_999_989, 2**61 - 1])
def test_is_prime_accepts_large_primes(x):
    assert is_prime(x)


def test_basic_family_shape():
    fam = basic_family(10, 3)
    assert fam.p == 11
    assert len(fam) == 11
    assert fam.palette == 3


def test_member_evaluation_examples():
    fam = basic_family(10, 3)
    # ((7*4 mod 11) mod 3) + 1 = (6 mod 3) + 1 = 1
    assert fam.member(7).color(4) == 1
    # a=0 sends everything to color 1
    assert all(fam.member(0).color(v) == 1 for v in range(1, 11))


def test_extension_family_shape():
    fam = extension_family(10, 2)
    assert fam.palette == 12
    assert len(fam) == 11
    # ((1*7 mod 11) mod 12) + 1 = 8
    assert fam.member(1).color(7) == 8


def test_zero_delta_degenerates_to_single_color():
    fam = basic_family(5, 0)
    assert fam.palette == 1
    assert extension_family(5, 0).palette == 1
    assert all(c == 1 for c in fam.member(3).as_coloring().colors())


def test_member_index_range():
    fam = basic_family(10, 3)
    with pytest.raises(ValueError):
        fam.member(11)
    with pytest.raises(ValueError):
        fam.member(-1)


@given(
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=40),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_colors_stay_in_palette(n, palette, data):
    fam = ColoringFamily(n, palette)
    a = data.draw(st.integers(min_value=0, max_value=fam.p - 1))
    member = fam.member(a)
    for v in range(1, n + 1):
        assert 1 <= member.color(v) <= palette
    arr = member.colors_array()
    assert arr[0] == 0
    assert [int(x) for x in arr[1:]] == [member.color(v) for v in range(1, n + 1)]


def test_collision_probability_exact_example():
    fam = basic_family(10, 3)
    got = collision_probability(fam, 1, 2)
    assert got == Fraction(3, 11)
    assert got <= Fraction(2, 3)


def test_extension_collision_bound_at_delta_two():
    fam = extension_family(10, 2)
    for u in range(1, 11):
        for v in range(u + 1, 11):
            assert collision_probability(fam, u, v) <= Fraction(1, 6)


def test_collision_probability_rejects_equal_vertices():
    with pytest.raises(EqualVerticesError):
        collision_probability(basic_family(10, 3), 4, 4)


@given(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=1, max_value=50),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_collision_probability_overcount_bound(n, palette, data):
    # provable for every (n, palette): collision count over the family is
    # at most 2*floor((p-1)/palette) + 1, i.e. probability <= 2/k + 1/p
    fam = ColoringFamily(n, palette)
    u = data.draw(st.integers(min_value=1, max_value=n - 1))
    v = data.draw(st.integers(min_value=u + 1, max_value=n))
    prob = collision_probability(fam, u, v)
    assert prob <= Fraction(2 * ((fam.p - 1) // palette) + 1, fam.p)
    assert prob >= Fraction(1, fam.p)  # a=0 always collides


@given(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=1, max_value=150),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_nonconstant_members_collide_at_most_two_over_palette(n, palette, data):
    # members a = 1..p-1 give distinct nonzero differences a*(u-v) mod p,
    # and a collision needs that difference or p minus it to be a
    # multiple of palette: at most 2*floor((p-1)/palette) members, so a
    # fraction of at most 2/palette, and none once palette >= p
    fam = ColoringFamily(n, palette)
    u = data.draw(st.integers(min_value=1, max_value=n - 1))
    v = data.draw(st.integers(min_value=u + 1, max_value=n))
    mask = member_collision_mask(fam, None, u, v)
    assert mask[0]  # the constant member a = 0
    hits = int(np.count_nonzero(mask[1:]))
    assert hits <= 2 * ((fam.p - 1) // palette)  # 0 once palette >= p
    assert Fraction(hits, fam.p - 1) <= Fraction(2, palette)


@given(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=1, max_value=50),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_color_hit_probability_bound(n, palette, data):
    # for u != 0 the map a -> a*u mod p is a bijection, so a fixed color
    # is hit by at most ceil(p / palette) members
    fam = ColoringFamily(n, palette)
    u = data.draw(st.integers(min_value=1, max_value=n))
    c = data.draw(st.integers(min_value=1, max_value=palette))
    hits = sum(member.color(u) == c for member in fam)
    prob = Fraction(hits, fam.p)
    assert prob <= Fraction(-(-fam.p // palette), fam.p)
