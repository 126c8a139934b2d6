"""Random subgraph distributions with rejection and exact enumeration.

A distribution keeps each base edge independently with probability p and
rejects any draw whose maximum degree reaches 2*p*d.  Draws are addressed
by index so that sample i is reproducible without generating samples
0..i-1.  At desk scale the accepted support can be enumerated exactly,
with probabilities renormalized over the accepted subsets as Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from ..errors import OutOfRangeError, RejectionOverflowError, TooLargeError
from ..graph import Edge, Graph, max_degree
from ..prng import SplitMix64, splitmix64_next

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_RETRY_CAP = 1000

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

_POP16 = (
    np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8))
    .reshape(-1, 16)
    .sum(axis=1, dtype=np.uint8)
)
_FILTER_CHUNK = 1 << 20


def _popcount_u32(a: np.ndarray) -> np.ndarray:
    return _POP16[a & np.uint32(0xFFFF)] + _POP16[a >> np.uint32(16)]


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class RandomGraphDistribution:
    """Subgraphs of ``base`` with edge probability p, degree cutoff 2*p*d."""

    base: Graph
    p: Fraction
    d: Fraction
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "d", Fraction(self.d))
        if not (0 < self.p < 1):
            raise OutOfRangeError(f"edge probability must lie in (0,1), got {self.p}")
        if self.d < 1:
            raise OutOfRangeError(f"degree parameter must be >= 1, got {self.d}")
        if not (0 <= self.seed <= _MASK64):
            raise OutOfRangeError("seed must fit in 64 bits")
        if self.base.n < 1:
            raise OutOfRangeError("base graph needs n >= 1")

    @property
    def degree_cutoff(self) -> Fraction:
        """Draws with max degree >= this value are rejected."""
        return 2 * self.p * self.d

    @property
    def max_kept_degree(self) -> int:
        """Largest integer degree that survives the strict cutoff."""
        return _ceil_fraction(self.degree_cutoff) - 1

    def hypotheses_ok(self) -> bool:
        """d >= max(base degree, 4*ln(2n)/p), the regime where rejection
        is provably rare and the compression bound applies.  p * d is an
        exact Fraction, so neither converts to float."""
        if self.d < max_degree(self.base):
            return False
        return self.p * self.d >= 4 * math.log(2 * self.base.n)

    def _draw_rng(self, index: int) -> SplitMix64:
        if index < 0:
            raise ValueError("draw index must be nonnegative")
        mixed = (self.seed + index * _GAMMA) & _MASK64
        _, out = splitmix64_next(mixed)
        return SplitMix64(out)

    def sample_with_attempts(
        self, index: int = 0, *, retry_cap: int = DEFAULT_RETRY_CAP
    ) -> tuple[Graph, int]:
        """Draw sample ``index``; returns (graph, number of attempts)."""
        rng = self._draw_rng(index)
        edges = self.base.edges_sorted()
        limit = self.max_kept_degree
        for attempt in range(1, retry_cap + 1):
            kept = tuple(e for e in edges if rng.chance(self.p))
            g = Graph(self.base.n, kept)
            if max_degree(g) <= limit:
                return g, attempt
        raise RejectionOverflowError(
            f"draw {index} rejected {retry_cap} times (cutoff {self.degree_cutoff})"
        )

    def sample(self, index: int = 0, *, retry_cap: int = DEFAULT_RETRY_CAP) -> Graph:
        graph, _ = self.sample_with_attempts(index, retry_cap=retry_cap)
        return graph


def edge_mask(rank: dict[Edge, int], g: Graph) -> int:
    """Bitmask of g's edges, bit ``rank[e]`` for edge e."""
    mask = 0
    for e in g.edges_sorted():
        i = rank.get(e)
        if i is None:
            raise ValueError(f"edge {e} is not a base edge")
        mask |= 1 << i
    return mask


@dataclass(frozen=True, eq=False)
class SupportTable:
    """Accepted subsets of the base edge set, as bitmasks over edge rank.

    Bit i of a mask corresponds to ``edges[i]``.  Probabilities are exact
    and depend only on the popcount of the mask.
    """

    base: Graph
    edges: tuple[Edge, ...]
    masks: np.ndarray
    acceptance: Fraction
    weights: tuple[Fraction, ...]
    _edge_rank: dict[Edge, int] = field(repr=False)

    def __len__(self) -> int:
        return int(self.masks.size)

    def edges_of(self, mask: int) -> tuple[Edge, ...]:
        """The edges of subset ``mask``, sorted."""
        return tuple(e for i, e in enumerate(self.edges) if mask >> i & 1)

    def graph(self, mask: int) -> Graph:
        return Graph(self.base.n, self.edges_of(mask))

    def mask_of(self, g: Graph) -> int:
        if g.n != self.base.n:
            raise ValueError("graph is over a different vertex count")
        return edge_mask(self._edge_rank, g)

    def contains(self, mask: int) -> bool:
        # masks are built in ascending order, so membership is a bisect
        i = int(np.searchsorted(self.masks, mask))
        return i < self.masks.size and int(self.masks[i]) == mask

    def probability(self, mask: int) -> Fraction:
        if not self.contains(mask):
            return Fraction(0)
        return self.weights[int(mask).bit_count()] / self.acceptance

    def iter_graphs(self) -> Iterator[tuple[Graph, Fraction]]:
        for mask in self.masks.tolist():
            yield self.graph(mask), self.probability(mask)


def support_table(
    dist: RandomGraphDistribution, *, cap: int = DEFAULT_ENUM_CAP
) -> SupportTable:
    """Enumerate every accepted subset with exact probabilities."""
    m = dist.base.m
    if 1 << m > cap:
        raise TooLargeError(f"2^{m} subsets exceed the enumeration cap of {cap}")
    edges = tuple(dist.base.edges_sorted())
    limit = dist.max_kept_degree

    if limit >= max_degree(dist.base):
        masks = np.arange(1 << m, dtype=np.uint32)
    else:
        incidence = [
            np.uint32(sum(1 << i for i, e in enumerate(edges) if v in e))
            for v in range(1, dist.base.n + 1)
        ]
        incidence = [inc for inc in incidence if int(inc).bit_count() > limit]
        accepted = []
        for start in range(0, 1 << m, _FILTER_CHUNK):
            chunk = np.arange(
                start, min(start + _FILTER_CHUNK, 1 << m), dtype=np.uint32
            )
            ok = np.ones(chunk.shape, dtype=bool)
            for inc in incidence:
                np.logical_and(ok, _popcount_u32(chunk & inc) <= limit, out=ok)
            accepted.append(chunk[ok])
        masks = np.concatenate(accepted) if accepted else np.empty(0, np.uint32)

    p, q = dist.p, 1 - dist.p
    weights = tuple(p**j * q ** (m - j) for j in range(m + 1))
    pops = _popcount_u32(masks)
    counts = np.bincount(pops, minlength=m + 1)
    acceptance = sum(
        (weights[j] * int(counts[j]) for j in range(m + 1) if counts[j]),
        start=Fraction(0),
    )
    return SupportTable(
        base=dist.base,
        edges=edges,
        masks=masks,
        acceptance=acceptance,
        weights=weights,
        _edge_rank={e: i for i, e in enumerate(edges)},
    )


def enumerate_support(
    dist: RandomGraphDistribution, *, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[Graph, Fraction]]:
    """All accepted subgraphs with renormalized exact probabilities."""
    return list(support_table(dist, cap=cap).iter_graphs())
