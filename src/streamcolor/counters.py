"""Per-member monochromatic-edge counters for a coloring family.

A CounterBank holds one integer counter per family member a, counting
the (signed) number of stream edges that member colors monochromatically.
When a base partial coloring is attached, each member is read as the
extension of the base: assigned vertices keep their base color, the
member colors the rest.

The batch builder avoids the obvious O(p * m) loop.  For an edge (u, v)
with both endpoints free, member a is monochromatic iff
D = a * (u - v) mod p lands in one of two arithmetic progressions
(multiples of the palette k, or values congruent to p mod k) with a side
condition on x = a * u mod p; enumerating the ~2p/k candidate D values
and mapping each back through a = D * (u - v)^-1 mod p costs
O(m * p / k) total.  Edges with one assigned endpoint of color c admit
only members with a * w mod p congruent to c - 1 mod k, again ~p/k
candidates.  Edges with both endpoints assigned hit every member or none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeCounterError
from .graph import EdgeUpdate, PartialColoring, normalize_edge
from .hashfam import ColoringFamily

# broadcast work per chunk: 2^18 int64 elements keep each temporary at
# 2 MB; at n = 8000, delta = 32 this ran faster than 2^22 (0.51-0.62 s
# against 0.67-0.84 s per two-pass bank)
_CHUNK_ELEMS = 1 << 18


def base_color_array(
    base: PartialColoring | np.ndarray | None, n: int
) -> np.ndarray | None:
    """Base colors as int64 indexed by vertex, 0 meaning unassigned; an
    array base is already in that form and comes back unchanged."""
    if base is None or isinstance(base, np.ndarray):
        return base
    arr = np.zeros(base.n + 1, dtype=np.int64)
    for v, c in enumerate(base.colors(), start=1):
        if c is not None:
            arr[v] = c
    return arr


def _modinv_table(p: int, upto: int) -> np.ndarray:
    """inv[i] = i^-1 mod p for i = 1..upto (upto < p, p prime)."""
    inv = np.zeros(upto + 1, dtype=np.int64)
    inv[1] = 1
    for i in range(2, upto + 1):
        inv[i] = (p - p // i) * inv[p % i] % p
    return inv


def _bincount_signed(
    counts: np.ndarray, idx: np.ndarray, sgn: np.ndarray | None
) -> None:
    """Add each sign to counts[idx]; sgn None means every sign is +1."""
    p = counts.shape[0]
    if sgn is None:
        counts += np.bincount(idx, minlength=p)
        return
    pos = idx[sgn > 0]
    if pos.size:
        counts += np.bincount(pos, minlength=p)
    neg = idx[sgn < 0]
    if neg.size:
        counts -= np.bincount(neg, minlength=p)


def _accumulate_free_pairs(
    counts: np.ndarray,
    p: int,
    k: int,
    inv: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    signs: np.ndarray,
) -> None:
    """Edges with both endpoints uncolored."""
    if us.size == 0:
        return
    if k == 1:
        counts += int(signs.sum())
        return
    diff = us - vs
    winv = np.where(diff > 0, inv[np.abs(diff)], (p - inv[np.abs(diff)]) % p)
    m = us.size
    rows = max(1, _CHUNK_ELEMS // m)
    inserts_only = bool((signs > 0).all())

    def sweep(dvals: np.ndarray, wrap: bool) -> None:
        for lo in range(0, dvals.size, rows):
            d = dvals[lo : lo + rows, None]
            a = d * winv[None, :] % p
            x = a * us[None, :] % p
            hit = (x < d) if wrap else (x >= d)
            sgn = None
            if not inserts_only:
                sgn = np.broadcast_to(signs[None, :], hit.shape)[hit]
            _bincount_signed(counts, a[hit], sgn)

    sweep(np.arange(0, p, k, dtype=np.int64), wrap=False)
    r = p % k
    if r != 0:
        sweep(np.arange(r, p, k, dtype=np.int64), wrap=True)


def _accumulate_mixed_pairs(
    counts: np.ndarray,
    p: int,
    k: int,
    inv: np.ndarray,
    free: np.ndarray,
    colors: np.ndarray,
    signs: np.ndarray,
) -> None:
    """Edges with exactly one uncolored endpoint (`free`), the other fixed
    to `colors`.  Member a hits iff a * free mod p == colors - 1 (mod k)."""
    if free.size == 0:
        return
    winv = inv[free]
    cm1 = colors - 1
    inserts_only = bool((signs > 0).all())
    for j in range((p - 1) // k + 1):
        x = cm1 + j * k
        valid = x < p
        if not valid.any():
            break
        a = x[valid] * winv[valid] % p
        _bincount_signed(counts, a, None if inserts_only else signs[valid])


def collision_index_counts(
    family: ColoringFamily,
    base_colors: np.ndarray | None,
    us: np.ndarray,
    vs: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray:
    """Signed monochromatic-edge count per member for a batch of edges."""
    # colors are below p, so a palette above p acts as p
    p, k = family.p, min(family.palette, family.p)
    counts = np.zeros(p, dtype=np.int64)
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    signs = np.asarray(signs, dtype=np.int64)
    if us.size == 0:
        return counts
    inv = _modinv_table(p, family.n)
    if base_colors is None:
        _accumulate_free_pairs(counts, p, k, inv, us, vs, signs)
        return counts

    cu = base_colors[us]
    cv = base_colors[vs]
    both = (cu > 0) & (cv > 0)
    # fully assigned edges hit every member or none
    counts += int(signs[both & (cu == cv)].sum())
    neither = (cu == 0) & (cv == 0)
    _accumulate_free_pairs(counts, p, k, inv, us[neither], vs[neither], signs[neither])
    mixed = ~both & ~neither
    free = np.where(cu[mixed] == 0, us[mixed], vs[mixed])
    fixed_color = np.maximum(cu[mixed], cv[mixed])
    _accumulate_mixed_pairs(counts, p, k, inv, free, fixed_color, signs[mixed])
    return counts


def member_collision_mask(
    family: ColoringFamily,
    base_colors: np.ndarray | None,
    u: int,
    v: int,
) -> np.ndarray:
    """Boolean mask over members: does member a color (u, v) alike?

    Direct O(p) evaluation, used for single updates and as an oracle
    for the batched kernel.
    """
    normalize_edge(u, v)
    # colors are below p, so a palette above p acts as p
    p, k = family.p, min(family.palette, family.p)
    a = np.arange(p, dtype=np.int64)

    def endpoint_colors(w: int) -> np.ndarray:
        if base_colors is not None and base_colors[w] > 0:
            return np.full(p, base_colors[w], dtype=np.int64)
        return (a * w % p) % k + 1

    return endpoint_colors(u) == endpoint_colors(v)


@dataclass(frozen=True)
class CounterBank:
    """Counter vector over one family, optionally over a base coloring.

    The base is a PartialColoring or its `base_color_array` form; the bank
    keeps it as given, so an array base must not change afterwards.
    """

    family: ColoringFamily
    base: PartialColoring | np.ndarray | None
    counts: np.ndarray

    @classmethod
    def empty(cls, family: ColoringFamily, base: PartialColoring | None = None):
        return cls(family, base, np.zeros(family.p, dtype=np.int64))

    @classmethod
    def from_arrays(
        cls,
        family: ColoringFamily,
        base: PartialColoring | np.ndarray | None,
        us: np.ndarray,
        vs: np.ndarray,
        signs: np.ndarray,
    ) -> "CounterBank":
        base_arr = base_color_array(base, family.n)
        counts = collision_index_counts(family, base_arr, us, vs, signs)
        if (counts < 0).any():
            member = int(np.argmax(counts < 0))
            raise NegativeCounterError(f"counter for member {member} went negative")
        return cls(family, base, counts)

    def entry_count(self) -> int:
        return int(self.counts.shape[0])


def counters_update(bank: CounterBank, update: EdgeUpdate) -> CounterBank:
    """Apply one signed edge update; returns a new bank.

    Raises NegativeCounterError if any counter would drop below zero.
    """
    base_arr = base_color_array(bank.base, bank.family.n)
    mask = member_collision_mask(bank.family, base_arr, update.u, update.v)
    counts = bank.counts + update.sign * mask.astype(np.int64)
    if (counts < 0).any():
        member = int(np.argmax(counts < 0))
        raise NegativeCounterError(f"counter for member {member} went negative")
    return CounterBank(bank.family, bank.base, counts)


def argmin_counter(bank: CounterBank) -> int:
    """Member index with the smallest count; ties break to the smallest a."""
    return int(np.argmin(bank.counts))
