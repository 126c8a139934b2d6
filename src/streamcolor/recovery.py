"""Deterministic k-sparse recovery of edge sets from signed streams.

Edges are encoded as integers 1..n(n-1)/2 (row-major upper triangle).
A sketch of budget k keeps the 2k power sums

    S_j = sum over updates of sign * x^j   (mod q),  j = 1..2k,

over a prime field with q above the square of the universe size.  If at
most k edges survive (each with net multiplicity one), the sequence
S_1..S_2k obeys a linear recurrence of order t = #survivors whose
connection polynomial has the survivor encodings as roots.  Decoding
finds that recurrence (Berlekamp-Massey), extracts the roots, and then
re-verifies every syndrome; any mismatch raises RecoveryFailedError
rather than returning an unverified answer.

q is proven prime while it is below psi_13 = 3317044064679887385961981,
where `is_prime` is exact: up to n = 1,908,547
(q = 3317042156941750605711571).  From n = 1,908,548 on
(q = 3317049108922776865694911) q is a strong probable prime.

Field arithmetic runs on int64 arrays for every q < 2^61, i.e. for
n <= 55109; larger universes use arrays of Python ints (see _Fq).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OutOfRangeError, RecoveryFailedError
from .graph import Edge, normalize_edge
from .hashfam import smallest_prime_above

# elements per int64 work block (512 KiB), so temporaries stay small.  On
# the n = 1760 dynamic benchmark stream, in-process two-pass --dynamic
# took a median 0.066 s with 2^16 (0.063 s with 2^17 or 2^18, 0.093 s with
# 2^14), and a `color` child peaked at 35.7 MB RSS against 38.3 MB with
# 2^17 and 41.4 MB with 2^18 (2-vCPU x86 VM).  With `%` reductions and
# 2^18 blocks it took 0.11-0.13 s.
_BLOCK_ELEMS = 1 << 16
# most limbs per int64 product.  At n = 50000 (61-bit q, 31 limbs) int64
# update_batch and decode ran in about half the time of Python ints; at
# n = 60000 (62-bit q, 62 limbs) update_batch tied and peak RSS rose 12 MB,
# so Python ints take over from there (2-vCPU x86 VM).
_MAX_LIMBS = 31


def edge_universe(n: int) -> int:
    return n * (n - 1) // 2


def edge_encode(u: int, v: int, n: int) -> int:
    """Position of (u, v) in the row-major upper triangle, 1-based."""
    u, v = normalize_edge(u, v)
    if not (1 <= u and v <= n):
        raise OutOfRangeError(f"edge ({u}, {v}) outside universe n={n}")
    return (u - 1) * (2 * n - u) // 2 + (v - u)


def edge_encode_array(us: np.ndarray, vs: np.ndarray, n: int) -> np.ndarray:
    """edge_encode over int64 endpoint arrays; a bad pair raises the error
    edge_encode raises for the first such pair."""
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    bad = (lo == hi) | (lo < 1) | (hi > n)
    if bad.any():
        i = int(np.argmax(bad))
        edge_encode(int(us[i]), int(vs[i]), n)
    return (lo - 1) * (2 * n - lo) // 2 + (hi - lo)


def edge_decode(x: int, n: int) -> Edge:
    """Inverse of edge_encode."""
    if not 1 <= x <= edge_universe(n):
        raise OutOfRangeError(f"encoding {x} outside [1, {edge_universe(n)}]")
    lo, hi = 1, n - 1
    # largest u with offset(u) < x, offset(u) = (u-1)(2n-u)/2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mid - 1) * (2 * n - mid) // 2 < x:
            lo = mid
        else:
            hi = mid - 1
    u = lo
    v = x - (u - 1) * (2 * n - u) // 2 + u
    return (u, v)


@lru_cache(maxsize=64)
def field_modulus(n: int) -> int:
    """Smallest prime above the square of the edge-universe size."""
    u = edge_universe(n)
    return smallest_prime_above(max(1, u * u))


class _Fq:
    """Vectorized arithmetic mod q, on int64 while that is the faster way.

    A product a * b is formed by Horner's rule over the limbs of b, each
    w = 63 - bits(q) bits wide:  r = ((r << w) + a * limb) mod q.  Both
    terms stay below 2^63, so the step runs on uint64 views of the int64
    arrays.  It reduces t as t - (t // q) * q, because numpy divides an
    array by a scalar much faster with `//` than with `%`.  The largest b
    sets the limb count, and one limb (a plain a * b mod q) covers every
    q < 2^31.  The limb count grows as q nears 2^62; once a full-size
    product needs more than _MAX_LIMBS limbs, arrays hold Python integers
    instead, reduced with `%`.
    """

    def __init__(self, q: int):
        self.q = q
        bits = q.bit_length()
        self.w = 63 - bits
        if self.w >= 1 and -(-bits // self.w) <= _MAX_LIMBS:
            self.dtype: type | np.dtype = np.int64
            # values lie in (-q, q), so this many sum inside int64
            self.sum_chunk = (2**63 - 1) // q
        else:
            self.dtype = object
            self.sum_chunk = sys.maxsize

    def asarray(self, values) -> np.ndarray:
        return np.array(values, dtype=self.dtype)

    def zeros(self, size: int) -> np.ndarray:
        if self.dtype is object:
            return np.array([0] * size, dtype=object)
        return np.zeros(size, dtype=np.int64)

    def split(self, b: np.ndarray) -> list[np.ndarray]:
        """Limbs of b (entries in [0, q)), most significant first."""
        if self.dtype is object:
            return [b]
        w = self.w
        top = int(b.max()).bit_length() if b.size else 0
        count = max(1, -(-top // w))
        mask = (1 << w) - 1
        return [b >> (w * (count - 1))] + [
            (b >> (w * i)) & mask for i in range(count - 2, -1, -1)
        ]

    def mul_split(
        self, a: np.ndarray, limbs: list[np.ndarray], add: int = 0
    ) -> np.ndarray:
        """(a * b + add) mod q, with b given as split(b); a and add in [0, q)."""
        if self.dtype is object:
            return (a * limbs[0] + add) % self.q
        q, w = np.uint64(self.q), np.uint64(self.w)
        a = a.view(np.uint64)
        r = a * limbs[0].view(np.uint64)
        for limb in limbs[1:]:
            r -= r // q * q
            r <<= w
            r += a * limb.view(np.uint64)
        if add:  # below 2^64 still: (q - 1) * 2^(w + 1) bounds the sum
            r += np.uint64(add)
        r -= r // q * q
        return r.view(np.int64)

    def sums(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Sums mod q along `axis` of values in (-q, q), chunked so every
        partial sum fits in int64."""
        q, step = self.q, self.sum_chunk
        v = np.moveaxis(values, axis, 0)
        total = v[:step].sum(axis=0) % q
        for lo in range(step, v.shape[0], step):
            total = (total + v[lo : lo + step].sum(axis=0) % q) % q
        return total

    def powers(self, x: np.ndarray, count: int) -> np.ndarray:
        """Matrix with out[i, j] = x[i]^(j+1) for j < count, by doubling:
        columns have..2*have-1 are columns 0..have-1 times x^have."""
        out = np.empty((x.size, count), dtype=self.dtype)
        out[:, 0] = x
        have = 1
        while have < count:
            step = min(have, count - have)
            limbs = self.split(out[:, have - 1 : have])
            out[:, have : have + step] = self.mul_split(out[:, :step], limbs)
            have += step
        return out


def _power_sums(fq: _Fq, x: np.ndarray, signs: np.ndarray, count: int) -> np.ndarray:
    """[sum_i signs[i] * x[i]^j mod q for j = 1..count], signs in {1, -1},
    built in blocks of at most _BLOCK_ELEMS powers."""
    total = fq.zeros(count)
    rows = max(1, _BLOCK_ELEMS // count)
    for lo in range(0, x.size, rows):
        pw = fq.powers(x[lo : lo + rows], count)
        total = (total + fq.sums(pw * signs[lo : lo + rows, None], 0)) % fq.q
    return total


def _zero_run(seq: np.ndarray, conn: list[int], start: int, fq: _Fq) -> int:
    """Number of consecutive positions from `start` whose discrepancy
    seq[i] + c1*seq[i-1] + ... + cL*seq[i-L] is zero, checked in blocks."""
    width = len(conn)
    limbs = fq.split(fq.asarray(conn[::-1]))
    windows = sliding_window_view(seq, width)  # row r ends at position r + L
    rows = max(1, _BLOCK_ELEMS // width)
    pos = start
    while pos < seq.size:
        block = windows[pos - width + 1 : pos - width + 1 + rows]
        nonzero = np.flatnonzero(fq.sums(fq.mul_split(block, limbs), 1))
        if nonzero.size:
            return pos - start + int(nonzero[0])
        pos += block.shape[0]
    return pos - start


def _berlekamp_massey(seq: np.ndarray, fq: _Fq) -> list[int]:
    """Shortest connection polynomial [1, c1..cL] with
    seq[i] + c1*seq[i-1] + ... + cL*seq[i-L] = 0 for all valid i.

    Steps run on Python ints over the current L + 1 coefficients.  The
    polynomial stays fixed while discrepancies are zero, so after each
    zero discrepancy the run of zeros ahead is skipped in int64 blocks.
    """
    q = fq.q
    s = seq.tolist()
    c, b = [1], [1]
    L, m, bb = 0, 1, 1
    i = 0
    while i < len(s):
        d = (s[i] + sum(map(mul, c[1 : L + 1], reversed(s[i - L : i])))) % q
        if d == 0:
            conn = (c + [0] * L)[: L + 1]
            skip = 1 + _zero_run(seq, conn, i + 1, fq)
            m += skip
            i += skip
            continue
        coef = d * pow(bb, -1, q) % q
        new = c + [0] * (m + len(b) - len(c))
        for j, bj in enumerate(b):
            new[m + j] = (new[m + j] - coef * bj) % q
        if 2 * L <= i:
            L, b, bb, m = i + 1 - L, c, d, 1
        else:
            m += 1
        c = new
        i += 1
    return (c + [0] * L)[: L + 1]


@dataclass
class SparseRecoverySketch:
    """Mergeable linear sketch recovering up to k surviving edges."""

    n: int
    k: int
    q: int
    syndromes: np.ndarray

    @classmethod
    def empty(cls, n: int, k: int) -> "SparseRecoverySketch":
        if k < 1:
            raise ValueError("sketch budget k must be at least 1")
        q = field_modulus(n)
        fq = _Fq(q)
        return cls(n, k, q, fq.zeros(2 * k))

    @property
    def size_field_elements(self) -> int:
        return 2 * self.k

    def _fq(self) -> _Fq:
        return _Fq(self.q)

    def update_batch(self, signs, us, vs) -> None:
        signs = np.asarray(signs, dtype=np.int64)
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.size == 0:
            return
        fq = self._fq()
        x = fq.asarray(edge_encode_array(us, vs, self.n))
        sums = _power_sums(fq, x, np.where(signs == 1, 1, -1), 2 * self.k)
        self.syndromes[:] = (self.syndromes + sums) % self.q

    def merge(self, other: "SparseRecoverySketch") -> "SparseRecoverySketch":
        if (self.n, self.k, self.q) != (other.n, other.k, other.q):
            raise ValueError("sketch shape mismatch")
        return SparseRecoverySketch(
            self.n, self.k, self.q, (self.syndromes + other.syndromes) % self.q
        )

    def decode(self, candidates=None) -> list[Edge]:
        """Recover the surviving edge set, sorted by encoding.

        `candidates` optionally restricts root extraction to a superset
        of the possible survivors, given as vertex pairs or as a 1-D
        array of edge encodings, in any order and repeats allowed; default
        is the full universe.  Every returned set is re-verified against
        all 2k syndromes; RecoveryFailedError otherwise.
        """
        fq = self._fq()
        if not np.any(self.syndromes):
            return []
        conn = _berlekamp_massey(self.syndromes, fq)
        deg = len(conn) - 1
        if deg == 0:
            raise RecoveryFailedError("nonzero syndromes with empty recurrence")

        cand_enc = self._candidate_encodings(candidates)
        found = [np.empty(0, dtype=np.int64)]
        for lo in range(0, cand_enc.size, _BLOCK_ELEMS):
            block = cand_enc[lo : lo + _BLOCK_ELEMS]
            limbs = fq.split(fq.asarray(block))
            # reversed connection polynomial has survivor encodings as roots
            acc = fq.asarray(np.ones(block.size, dtype=np.int64))
            for coef in conn[1:]:
                acc = fq.mul_split(acc, limbs, coef)
            found.append(block[np.asarray(acc == 0, dtype=bool)])
        # sorted, and a candidate listed twice is one root
        roots = np.unique(np.concatenate(found))
        if roots.size != deg:
            raise RecoveryFailedError(
                f"recurrence of order {deg} but {roots.size} roots found"
            )

        # mandatory verification: power sums of the decoded set must
        # reproduce every stored syndrome.  The first `deg` suffice: the
        # deg distinct roots make
        # x^deg + c1 x^(deg-1) + ... + c_deg split as the product of
        # (x - r) over the roots r, so their power sums P_j obey
        # P_j + c1 P_(j-1) + ... + c_deg P_(j-deg) = 0 for j > deg, the
        # recurrence Berlekamp-Massey verified on all 2k syndromes S_j.
        # Once P_j = S_j for j <= deg, induction gives P_j = S_j up to
        # 2k, and a first mismatch, if any, is at some j <= deg.
        check = min(deg, 2 * self.k)
        sums = _power_sums(
            fq, fq.asarray(roots), np.ones(roots.size, dtype=np.int64), check
        )
        mismatch = np.flatnonzero(sums != self.syndromes[:check])
        if mismatch.size:
            raise RecoveryFailedError(
                f"syndrome {int(mismatch[0]) + 1} mismatch after decode"
            )
        return [edge_decode(int(r), self.n) for r in roots.tolist()]

    def _candidate_encodings(self, candidates) -> np.ndarray:
        """Encodings of `candidates` (see decode), in the order given."""
        universe = edge_universe(self.n)
        if candidates is None:
            return np.arange(1, universe + 1, dtype=np.int64)
        cand = np.asarray(candidates, dtype=np.int64)
        if cand.ndim == 2:
            cand = edge_encode_array(cand[:, 0], cand[:, 1], self.n)
        elif cand.size and not (1 <= cand.min() and cand.max() <= universe):
            raise OutOfRangeError(f"candidate encodings outside [1, {universe}]")
        return cand
