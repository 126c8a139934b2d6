"""Tests for the deterministic pseudo-random generator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor.prng import SplitMix64, splitmix64_next

MASK = (1 << 64) - 1


def reference_step(state):
    """Independent transcription of the splitmix64 reference algorithm."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z = z ^ (z >> 31)
    return state, z


def test_known_vector_seed_zero():
    # first five outputs of the published reference stream for seed 0
    r = SplitMix64(0)
    outs = [r.next_u64() for _ in range(5)]
    assert outs == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


@given(st.integers(min_value=0, max_value=MASK))
def test_matches_reference_step(seed):
    state, out = splitmix64_next(seed)
    ref_state, ref_out = reference_step(seed)
    assert state == ref_state
    assert out == ref_out


@given(st.integers(min_value=0, max_value=MASK))
def test_generator_is_replayable(seed):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


@given(
    st.integers(min_value=0, max_value=MASK),
    st.integers(min_value=1, max_value=10**9),
)
def test_below_range(seed, bound):
    r = SplitMix64(seed)
    for _ in range(20):
        assert 0 <= r.below(bound) < bound


def test_below_one_is_zero():
    r = SplitMix64(12345)
    assert all(r.below(1) == 0 for _ in range(50))


def test_below_rejects_nonpositive():
    r = SplitMix64(0)
    with pytest.raises(ValueError):
        r.below(0)


@given(st.integers(min_value=0, max_value=MASK))
def test_randint_inclusive(seed):
    r = SplitMix64(seed)
    seen = {r.randint(3, 5) for _ in range(200)}
    assert seen == {3, 4, 5}


def test_chance_exact_extremes():
    r = SplitMix64(7)
    assert all(r.chance(Fraction(1, 1)) for _ in range(30))
    assert not any(r.chance(Fraction(0, 1)) for _ in range(30))


def test_chance_frequency_is_plausible():
    # crude sanity check, exact distributional tests live with the lab
    r = SplitMix64(99)
    hits = sum(r.chance(Fraction(1, 4)) for _ in range(4000))
    assert 800 <= hits <= 1200


@given(
    st.integers(min_value=0, max_value=MASK),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60)
def test_sample_indices(seed, pool, want):
    if want > pool:
        return
    r = SplitMix64(seed)
    picked = r.sample_indices(want, pool)
    assert picked == sorted(picked)
    assert len(set(picked)) == len(picked) == want
    assert all(0 <= i < pool for i in picked)


def test_sample_indices_rejects_oversample():
    with pytest.raises(ValueError):
        SplitMix64(0).sample_indices(3, 2)


# gamma is about 0.62 * 2^64, so the state wraps past 2^64 at least every
# second step of a block; seeds at and above 2^64 keep their low 64 bits
@pytest.mark.parametrize("seed", [0, MASK, 1 << 64, (7 << 64) + 12345])
def test_block_matches_repeated_next_u64(seed):
    bulk = SplitMix64(seed)
    one = SplitMix64(seed)
    assert bulk.block(0).dtype == np.uint64 and bulk.block(0).size == 0
    out = bulk.block(40)
    assert bulk.state == seed & MASK  # a block does not advance
    assert out.tolist() == [one.next_u64() for _ in range(40)]
    bulk.skip(40)
    assert bulk.state == one.state
    bulk.skip(0)
    assert bulk.state == one.state


@pytest.mark.parametrize("bound", [1, 3, 1000, (1 << 63) + 1, MASK])
@pytest.mark.parametrize("seed", [0, 99, (1 << 64) + 3])
def test_below_block_matches_repeated_below(seed, bound):
    # 2^63 + 1 rejects about half of all draws
    bulk = SplitMix64(seed)
    one = SplitMix64(seed)
    values, ends = bulk.below_block(bound, 400)
    assert bulk.state == seed & MASK
    assert values.tolist() == [one.below(bound) for _ in range(values.size)]
    assert ends.tolist() == sorted(set(ends.tolist())) and ends[-1] <= 400
    if bound == (1 << 63) + 1:
        assert 100 < values.size < 300
    bulk.skip(int(ends[-1]))
    assert bulk.state == one.state
    assert bulk.below_block(bound, 0)[0].size == 0


def test_bulk_below_rejects_bounds_out_of_range():
    r = SplitMix64(0)
    for bound in (0, 1 << 64):
        with pytest.raises(ValueError):
            r.below_block(bound, 3)
