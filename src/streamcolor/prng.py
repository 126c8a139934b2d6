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
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance one splitmix64 step; return (new_state, output)."""
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


class SplitMix64:
    """Stateful wrapper around the splitmix64 sequence for one seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state, out = splitmix64_next(self.state)
        return out

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
