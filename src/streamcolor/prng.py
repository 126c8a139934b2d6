"""Deterministic pseudo-randomness for generators, corpora, and sampling.

Everything random in this package flows through SplitMix64 so that runs
are reproducible bit-for-bit across platforms and Python versions.  The
generator is the standard splitmix64 step:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output = z XOR (z >> 31)

Bounded draws use rejection below the largest multiple of the bound, so
`below` and `chance` are exactly uniform, not approximately.

The state after i steps is seed + i·γ mod 2^64, so output i (i = 1, 2,
...) is the mix of seed + i·γ alone.  `block` computes many outputs at
once in uint64 arithmetic, and `skip` moves the state past as many
draws as the caller used; `below_block` gives the values of repeated
`below` calls in bulk, counting every draw that the rejection
discards, so a bulk caller stays on the very sequence the scalar calls
would read.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance one splitmix64 step; return (new_state, output)."""
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return state, z ^ (z >> 31)


class SplitMix64:
    """Stateful wrapper around the splitmix64 sequence for one seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state, out = splitmix64_next(self.state)
        return out

    def block(self, count: int) -> np.ndarray:
        """The next `count` outputs as uint64, without advancing."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)  # uint64 arrays wrap mod 2^64
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MUL1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MUL2)
        z ^= z >> np.uint64(31)
        return z

    def skip(self, draws: int) -> None:
        """Advance past `draws` outputs, as that many `next_u64` would."""
        self.state = (self.state + draws * _GAMMA) & _MASK

    def below_block(self, bound: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """What repeated `below(bound)` returns from the next `count`
        draws, without advancing.

        Returns the values as uint64 and, for each, the number of draws
        through it, rejected ones included: after using the first k
        values, `skip(ends[k - 1])` puts the state where k `below` calls
        would have left it.  `bound` lies in [1, 2^64).
        """
        if not 0 < bound <= _MASK:
            raise ValueError("bound must lie in [1, 2^64)")
        raw = self.block(count)
        # the greatest draw `below` accepts
        top = np.uint64(_MASK - (1 << 64) % bound)
        ends = np.flatnonzero(raw <= top) + 1
        return raw[ends - 1] % np.uint64(bound), ends

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound). Exact via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def chance(self, p: Fraction) -> bool:
        """True with probability exactly p (0 <= p <= 1)."""
        if p < 0 or p > 1:
            raise ValueError("probability out of [0, 1]")
        if p == 1:
            return True
        if p == 0:
            return False
        return self.below(p.denominator) < p.numerator

    def sample_indices(self, count: int, universe: int) -> list[int]:
        """Draw `count` distinct indices from range(universe), sorted."""
        if count > universe:
            raise ValueError("sample larger than universe")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.below(universe))
        return sorted(chosen)
