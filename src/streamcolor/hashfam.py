"""Near-universal coloring families built from modular hashing.

A colorer with multiplier a maps vertex v to ((a * v) mod p) mod palette,
then shifts to 1-based colors.  p is the smallest prime above n, so the
family has exactly p members (a = 0..p-1) and p < 2n.  Each member is
reconstructible from (n, palette, a) alone, which is what lets streaming
passes share a colorer in O(log n) bits.

Two palettes are used by the streaming algorithms: `basic_family` colors
with max(delta, 1) colors, `extension_family` with max(6 * delta, 1).

Guarantees, for any pair u != v in 1..n and any palette k:

* member a = 0 is the constant coloring (every vertex gets color 1), so
  it colors every pair alike;
* over the non-constant members a = 1..p-1, at most 2*floor((p-1)/k) of
  them color the pair alike, i.e. a fraction of at most 2/k, and none
  do when k >= p.  Each such a gives a distinct nonzero difference
  a*(u-v) mod p, and a collision needs that difference or its
  complement to p to be a multiple of k;
* over the whole family, the fraction of members that
  `counters.member_collision_mask` marks for the pair is therefore at
  most 2/k + 1/p;
* members a and p - a (1 <= a < p) color every pair alike or unlike
  together: (p - a) * v mod p = p - (a * v mod p) for every v in 1..n,
  and x == y (mod k) iff p - x == p - y (mod k).  The batched counter
  kernel sweeps one of the two progressions above and mirrors it.

The 4n and n0/3 storage budgets rest on the 2/k fraction: the minimum
counter over the family is at most the minimum over its non-constant
members, so member 0 cannot weaken them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import PartialColoring


# the first 13 primes: as Miller-Rabin bases they decide every x below
# 3.3 * 10^24 exactly (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(x: int) -> bool:
    """Miller-Rabin with the fixed bases 2..41: exact below 3.3 * 10^24,
    a strong probable-prime test above."""
    if x < 2:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def smallest_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = max(n, 1) + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class HashColorer:
    """One family member: v -> ((a * v) mod p) mod palette + 1."""

    n: int
    palette: int
    p: int
    a: int

    def color(self, v: int) -> int:
        return ((self.a * v) % self.p) % self.palette + 1

    def colors_array(self) -> np.ndarray:
        """Colors of vertices 1..n as int64, index 0 unused (=0)."""
        v = np.arange(self.n + 1, dtype=np.int64)
        # a palette of p or more leaves (a * v) mod p < p unchanged, and
        # may not fit in int64
        out = ((self.a * v) % self.p) % min(self.palette, self.p) + 1
        out[0] = 0
        return out

    def as_coloring(self) -> PartialColoring:
        return PartialColoring(self.n, self.palette, self.colors_array())

@dataclass(frozen=True)
class ColoringFamily:
    """All p colorers sharing one modulus and palette."""

    n: int
    palette: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("family needs n >= 1")
        if self.palette < 1:
            raise ValueError("palette must be at least 1")
        object.__setattr__(self, "_p", smallest_prime_above(self.n))

    @property
    def p(self) -> int:
        return self._p  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return self.p

    def member(self, a: int) -> HashColorer:
        if not 0 <= a < self.p:
            raise ValueError(f"member index {a} outside [0, {self.p})")
        return HashColorer(self.n, self.palette, self.p, a)

    def __iter__(self):
        return (self.member(a) for a in range(self.p))


def basic_family(n: int, delta: int) -> ColoringFamily:
    """Palette max(delta, 1) family used by the two-pass algorithm."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return ColoringFamily(n, max(delta, 1))


def extension_family(n: int, delta: int) -> ColoringFamily:
    """Palette max(6 * delta, 1) family used to extend partial colorings."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return ColoringFamily(n, max(6 * delta, 1))
