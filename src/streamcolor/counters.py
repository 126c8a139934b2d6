"""Per-member monochromatic-edge counters for a coloring family.

A CounterBank holds one integer counter per family member a, counting
the (signed) number of stream edges that member colors monochromatically.
When a base partial coloring is attached, each member is read as the
extension of the base: assigned vertices keep their base color, the
member colors the rest.

The batch builder avoids the obvious O(p * m) loop.  For an edge (u, v)
with both endpoints free, write x = a * u mod p and D = a * (u - v) mod p.
Member a colors the edge alike iff D is a multiple of the palette k and
x >= D, or D is congruent to p mod k and x < D.  Only the first
progression is swept: each of its ~p/k values D maps back to one member
a = D * (u - v)^-1 mod p, which counts when x >= D, so the sweep costs
O(m * p / k).  The second progression is its mirror.  Members a and
p - a (a >= 1) color every pair alike or unlike together (see hashfam),
and member a meets the second condition exactly when p - a meets the
first, so member a >= 1 gets the sweep's counts at a and at p - a.

An edge with one free end f and the other fixed to color c is one more
column of the same sweep, (u, v) = (f, 0) with a start r = (c - 1) *
f^-1 mod p added to each a.  Then a * f = c - 1 + D (mod p), and the
hit test a * f mod p >= D passes exactly when c - 1 + D < p, with no
wrap, so the sweep counts once each member that gives f color c.  Its
counts are not mirrored.  No member gives a color above k, so a fixed end with such a
color never hits.  Edges with both endpoints assigned hit every member or
none, and with a palette of 1 every other edge hits every member.

The counts are linear in the updates, so a batch with deletions is
counted as two unsigned batches, its insertions and its deletions, and
the second count is subtracted from the first; an insert-only batch is
counted once, on the arrays as given.  A base with no assigned vertex is
taken as no base, so the iterative colorer's first round, whose base is
all zero, sweeps the edge arrays as given and builds no endpoint colors
or masks.

A bank is one fold over its batch, graph.BLOCK updates at a time, read
in the dtype they are held in (int16, int32 or int64): each block's end
colors over the base are gathered, its fully assigned edges counted and
its free pairs and mixed columns swept, so no temporary grows with the
batch.  The free pairs' hits gather in one vector, mirrored once at the
end.  The sweep reduces every product as t - (t // p) * p, on int32
while p^2 < 2^31 and on int64 above, in work buffers that the bank
builds once, with its inverse table, and shares between its insertions
and deletions.  Each step covers as many rows of D as fill the buffers:
at most 2^16 cells, and at most the ceil(p / k) rows there are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import NegativeCounterError
from .graph import PartialColoring, normalize_edge
from .hashfam import ColoringFamily

# cells per sweep step, at most.  On a 2-vCPU Xeon VM with numpy 2.4.6, at
# n = 8000, delta = 32, a two-pass bank took 0.08-0.09 s with steps of
# 2^16 against 0.10-0.11 s with 2^14 or 2^18.  Residues are t - (t // p) * p
# because numpy divides an array by a scalar much faster with `//` than
# with `%`: 0.39 against 2.41 ns per int32 element, 0.89 against 3.96 ns
# per int64 element.
_CHUNK_ELEMS = 1 << 16


def _modinv_table(p: int, upto: int) -> np.ndarray:
    """inv[i] = i^-1 mod p for i = 1..upto (upto < p, p prime), as the
    Fermat power i^(p - 2) mod p; inv[0] = 0.  The squarings need
    p^2 < 2^63, as the kernel's own products do."""
    base = np.arange(upto + 1, dtype=np.int64)
    inv = np.ones(upto + 1, dtype=np.int64)
    inv[0] = 0
    e = p - 2
    while e:
        if e & 1:
            inv *= base
            inv %= p
        e >>= 1
        if e:
            base *= base
            base %= p
    return inv


def _work(p: int, k: int, n: int, columns: int) -> tuple:
    """The sweep's inverse table, in the sweep's dtype, its D values and
    its work buffers, sized for sweeps of at most `columns` columns."""
    dtype = np.int32 if p * p < 1 << 31 else np.int64
    inv = _modinv_table(p, n).astype(dtype, copy=False)
    dvals = np.arange(0, p, k, dtype=dtype)
    size = columns * min(max(1, _CHUNK_ELEMS // columns), dvals.size)
    return inv, dvals, (*(np.empty(size, dtype=dtype) for _ in range(3)), np.empty(size, bool))


def _sweep(
    counts: np.ndarray,
    p: int,
    work: tuple,
    us: np.ndarray,
    vs: np.ndarray,
    colors: np.ndarray | None = None,
) -> None:
    """Add to `counts` the sweep's hits on the columns (us, vs): for each
    D = 0, k, 2k, ... < p, member a = D * (u - v)^-1 + r mod p counts when
    a * u mod p >= D.  The start r is 0 for a free pair; a mixed column
    (f, 0) has r = (c - 1) * f^-1 mod p for its fixed end's color c in
    `colors`.  `work` is what `_work` built, for at least us.size columns."""
    if us.size == 0:
        return
    inv, dvals, bufs = work
    w = us.size
    # (u - v)^-1 mod p, the start and u for each column
    diff = us - vs
    wcol = inv[np.abs(diff)]
    wcol = np.where(diff > 0, wcol, (p - wcol) % p)
    ucol = us.astype(inv.dtype, copy=False)
    if colors is not None:
        # (c - 1) * wcol < k * p <= p^2 fits the dtype
        rcol = colors.astype(inv.dtype) - 1
        rcol *= wcol
        rcol %= p
    rows = bufs[0].size // w
    for r0 in range(0, dvals.size, rows):
        d = dvals[r0 : r0 + rows, None]
        a, q, x, hit = (buf[: d.size * w].reshape(d.size, w) for buf in bufs)
        # a = d * wcol + r mod p; the sum is below p^2
        np.multiply(d, wcol, out=a)
        if colors is not None:
            a += rcol
        np.floor_divide(a, p, out=q)
        q *= p
        a -= q
        # q = a * u mod p, the member's residue at u
        np.multiply(a, ucol, out=q)
        np.floor_divide(q, p, out=x)
        x *= p
        q -= x
        np.greater_equal(q, d, out=hit)
        # about half of a free pair's mask is set, at random; on such a
        # mask np.compress gathers 4x faster than a[hit]
        counts += np.bincount(np.compress(hit.ravel(), a.ravel()), minlength=p)


def collision_index_counts(
    family: ColoringFamily,
    base_colors: np.ndarray | None,
    us: np.ndarray,
    vs: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray:
    """Signed monochromatic-edge count per member for a batch of edges
    with signs +1 and -1, read in the dtype their arrays have."""
    us, vs, signs = np.asarray(us), np.asarray(vs), np.asarray(signs)
    # colors are below p, so a palette above p acts as p
    p, k = family.p, min(family.palette, family.p)
    # a block of updates gives each sweep at most graph.BLOCK columns; with
    # a palette of 1 nothing is swept
    columns = min(us.size, graph.BLOCK) or 1
    work = None if k == 1 else _work(p, k, family.n, columns)
    # a base with no assigned vertex leaves every edge free
    if base_colors is not None and not base_colors.any():
        base_colors = None
    # an insert-only batch is checked without an m-byte mask of its signs,
    # which raised `color` children's peak RSS through heap fragmentation
    if signs.min(initial=1) > 0:
        return _unsigned_counts(p, k, work, base_colors, us, vs)
    # the insertions' counts less the deletions', each an unsigned batch
    insert = signs > 0
    delete = ~insert
    return _unsigned_counts(p, k, work, base_colors, us[insert], vs[insert]) - _unsigned_counts(
        p, k, work, base_colors, us[delete], vs[delete]
    )


def _unsigned_counts(
    p: int,
    k: int,
    work: tuple | None,
    base_colors: np.ndarray | None,
    us: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """Monochromatic-edge count per member for a batch of insertions,
    folded over its blocks of updates."""
    counts = np.zeros(p, dtype=np.int64)
    half = np.zeros(p, dtype=np.int64)
    # the mixed pairs' free ends and fixed colors
    free = fixed = us[:0]
    for u, v in graph.blocks(us, vs):
        if base_colors is not None:
            cu, cv = base_colors[u], base_colors[v]
            # fully assigned edges hit every member or none
            counts += np.count_nonzero((cu == cv) & (cu > 0))
            # one end free, the other fixed to a color some member gives
            mixed = ((cu == 0) != (cv == 0)) & (cu <= k) & (cv <= k)
            free, fixed = np.where(cu[mixed] == 0, u[mixed], v[mixed]), cu[mixed] + cv[mixed]
            neither = (cu == 0) & (cv == 0)
            u, v = u[neither], v[neither]
        if work is None:
            # every member colors every free vertex 1
            counts += u.size + free.size
            continue
        _sweep(half, p, work, u, v)
        # a mixed pair is the column (f, 0) with its start
        _sweep(counts, p, work, free, np.broadcast_to(0, free.shape), fixed)
    counts += half
    if p % k != 0:
        # member a >= 1 also hits where member p - a did
        counts[1:] += half[:0:-1]
    return counts


def member_collision_mask(
    family: ColoringFamily,
    base_colors: np.ndarray | None,
    u: int,
    v: int,
) -> np.ndarray:
    """Boolean mask over members: does member a color (u, v) alike?

    Direct O(p) evaluation, the oracle for the batched kernel.
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
    """Counter vector over one family, counted over a base coloring or none."""

    family: ColoringFamily
    counts: np.ndarray

    @classmethod
    def empty(cls, family: ColoringFamily):
        return cls(family, np.zeros(family.p, dtype=np.int64))

    @classmethod
    def from_arrays(
        cls,
        family: ColoringFamily,
        base: PartialColoring | None,
        us: np.ndarray,
        vs: np.ndarray,
        signs: np.ndarray,
    ) -> "CounterBank":
        base_arr = None if base is None else base.array
        counts = collision_index_counts(family, base_arr, us, vs, signs)
        if (counts < 0).any():
            member = int(np.argmax(counts < 0))
            raise NegativeCounterError(f"counter for member {member} went negative")
        return cls(family, counts)

    def entry_count(self) -> int:
        return int(self.counts.shape[0])


def argmin_counter(bank: CounterBank) -> int:
    """Member index with the smallest count; ties break to the smallest a."""
    return int(np.argmin(bank.counts))
