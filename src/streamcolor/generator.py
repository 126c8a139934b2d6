"""Seeded random streams with a max-degree cap.

Generation is fully determined by (n, delta, edge target, deletion
fraction, seed).  The rule is sequential: each attempt draws a uniform
vertex pair (u, v) with two `below(n)` calls and inserts the edge unless
it is a self loop, is already in, or would push a degree past delta;
attempts stop at the edge target or after 30 per targeted edge (plus
100).  For dynamic streams, a chosen fraction of the inserted edges is
deleted again; each deletion is spliced at a seeded position after its
insertion, so replays see one fixed interleaving.

The rule is applied in bulk, a round of up to `_BLOCK` attempts at a
time, and gives the bytes the one-attempt-at-a-time loop gives:

- Self loops, edges already in before the round, edges at a vertex
  already at the cap, and later repeats of a pair within the round are
  rejected whatever else happens in the round (degrees only grow, so a
  repeat whose first draw failed on a degree fails too).
- What is left, the candidates, is accepted in draw order while both
  ends stay below the cap.  Whether a candidate is accepted depends
  only on which earlier ones were, through the running degrees of its
  two ends, so the accepted set A is the one fixed point of
  F(S) = {c : both ends of c have, counting the members of S before c,
  degree below the cap}.  F is computed for all candidates at once from
  one sort of their ends by vertex.  Start from S = all candidates and
  iterate.  If S agrees with A on the candidates before c, F(S) agrees
  with A on c; so if S and F(S) agree up to c, both agree with A there,
  and F(S) is exact up to and including its first difference from S.
  After the first step that is the round's first degree conflict; once
  two iterates agree, the whole round is exact.  A round takes at most
  `_F_STEPS` steps and then commits its exact prefix only.
- The round's commit is cut at the attempt that reaches the edge
  target, and the generator skips the draws of the committed attempts
  only, so the next round reads the very draws the loop would.

Deletions are few, so they are drawn one at a time from the state the
rounds leave, which is the state the loop leaves.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLargeError
from .graph import MAX_VERTEX, Graph, UpdateView, materialize
from .prng import SplitMix64
from .streamio import StreamFile

# attempts drawn per round: long enough to amortize numpy's per-call
# cost, short enough that a round's arrays stay a few MB
_BLOCK = 1 << 17
# F iterations per round before the round commits its exact prefix only
_F_STEPS = 16


def generate_stream(
    n: int,
    delta: int,
    seed: int,
    *,
    edge_target: int | None = None,
    density: float | None = None,
    deletion_fraction: float = 0.0,
) -> StreamFile:
    """Build a seeded stream whose final graph has max degree <= delta.

    `edge_target` asks for an absolute number of insertions; `density`
    for a fraction of n * delta / 2.  Both are upper targets, capped at
    n * delta / 2 and at the n * (n - 1) / 2 vertex pairs: if the
    degree cap makes a draw impossible the builder stops early after a
    bounded number of rejected attempts.  n is at most `MAX_VERTEX`, so
    every edge keys into one int64.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_VERTEX:
        raise TooLargeError(f"n = {n} is above MAX_VERTEX = {MAX_VERTEX}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not 0.0 <= deletion_fraction <= 1.0:
        raise ValueError("deletion fraction must lie in [0, 1]")
    if edge_target is not None and density is not None:
        raise ValueError("give edge_target or density, not both")
    cap = n * delta // 2
    if edge_target is None:
        # any density above 1 asks for the cap, and a huge one would
        # overflow the product's conversion to int
        target = cap // 2 if density is None else int(min(density, 1.0) * cap)
    else:
        target = edge_target
    # no more insertions than vertex pairs, so draws stop once all are in
    target = max(0, min(target, cap, n * (n - 1) // 2))

    rng = SplitMix64(seed)
    # a degree never passes n - 1, so a cap above n changes nothing; the
    # clipped cap keeps the degree arithmetic in int64
    lo, hi = _insertions(n, min(delta, n), target, rng)
    m = lo.shape[0]
    delete_count = int(deletion_fraction * m)
    # event keys: insertion i sits at 2i, a deletion draws an odd key
    # after its insertion; a stable sort keeps the draw order on ties
    rows = np.arange(m)
    keys = 2 * rows
    if delete_count:
        chosen = rng.sample_indices(delete_count, m)
        after = [rng.randint(i + 1, m) for i in chosen]
        keys = np.concatenate((keys, 2 * np.array(after, dtype=np.int64) - 1))
        rows = np.concatenate((rows, np.array(chosen, dtype=np.int64)))
    order = np.argsort(keys, kind="stable")
    rows = rows[order]
    signs = np.where(order < m, 1, -1).astype(np.int64)
    return StreamFile(n, delta, UpdateView(signs, lo[rows], hi[rows]))


def _insertions(
    n: int, delta: int, target: int, rng: SplitMix64
) -> tuple[np.ndarray, np.ndarray]:
    """The accepted edges (lo, hi), lo < hi, in insertion order."""
    degree = np.zeros(n + 1, dtype=np.int64)
    # sorted keys lo·(n+1)+hi of the edges in, then one above every key
    present = np.array([np.iinfo(np.int64).max])
    los = [np.empty(0, dtype=np.int64)]
    his = los[:]
    accepted = 0
    attempts = 30 * target + 100
    rate = 1.0  # edges per attempt in the last round
    while accepted < target and attempts > 0:
        # 1.25 times the attempts that the edges still wanted take at
        # the last round's rate, so a small target draws little; rounds
        # of any length give the same edges
        want = min(_BLOCK, attempts, int((target - accepted) * 1.25 / rate) + 64)
        # two draws an attempt; the spare ones cover `below`'s rejections
        values, ends = rng.below_block(n, 2 * want + 64)
        pairs = min(want, values.shape[0] // 2)
        u = values[0 : 2 * pairs : 2].astype(np.int64) + 1
        v = values[1 : 2 * pairs : 2].astype(np.int64) + 1
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * (n + 1) + hi
        cand = np.flatnonzero((lo != hi) & (degree[lo] < delta) & (degree[hi] < delta))
        # the first draw of each pair that is not in yet
        by_key = cand[np.argsort(key[cand])]
        keys = key[by_key]
        head = np.ones(keys.shape[0], dtype=bool)
        head[1:] = keys[1:] != keys[:-1]
        first = np.minimum.reduceat(by_key, np.flatnonzero(head)) if head.size else by_key
        keys = keys[head]
        cand = np.sort(first[present[np.searchsorted(present, keys)] != keys])

        take, decided = _degree_rule(lo[cand], hi[cand], degree, delta)
        done = pairs if decided == cand.shape[0] else int(cand[decided - 1]) + 1
        cand = cand[:decided][take]
        if cand.shape[0] >= target - accepted:
            cand = cand[: target - accepted]
            done = int(cand[-1]) + 1
        rng.skip(int(ends[2 * done - 1]))
        attempts -= done
        rate = max(cand.shape[0], 1) / done
        accepted += cand.shape[0]
        los.append(lo[cand])
        his.append(hi[cand])
        np.add.at(degree, los[-1], 1)
        np.add.at(degree, his[-1], 1)
        new = np.sort(key[cand])
        present = np.insert(present, np.searchsorted(present, new), new)
    return np.concatenate(los), np.concatenate(his)


def _degree_rule(
    lo: np.ndarray, hi: np.ndarray, degree: np.ndarray, delta: int
) -> tuple[np.ndarray, int]:
    """Which candidates, in draw order, the loop accepts while both ends
    stay below delta: (take, decided), exact for the first `decided`
    candidates.  See the module docstring for why the iteration is exact."""
    count = lo.shape[0]
    ends = np.stack((lo, hi), axis=1).ravel()  # candidate c at 2c, 2c + 1
    # by vertex, draw order within: the keys are distinct, so any sort
    # gives this order (n·2^18 stays far below 2^63)
    order = np.argsort(ends * (2 * count) + np.arange(2 * count))
    vertex = ends[order]
    head = np.ones(2 * count, dtype=bool)
    head[1:] = vertex[1:] != vertex[:-1]
    run_head = np.flatnonzero(head)[np.cumsum(head) - 1]
    owner = order >> 1
    room = delta - degree[vertex]
    take = np.ones(count, dtype=bool)
    for _ in range(_F_STEPS):
        held = take[owner]
        before = np.cumsum(held) - held  # accepted ends earlier in the run ...
        before -= before[run_head]  # ... of this vertex
        ok = np.empty(2 * count, dtype=bool)
        ok[order] = before < room
        step = ok[0::2] & ok[1::2]
        differ = np.flatnonzero(step != take)
        if differ.shape[0] == 0:
            return take, count
        take = step
    first = int(differ[0]) + 1
    return take[:first], first


def generate_graph(n: int, delta: int, seed: int, edge_target: int | None = None) -> Graph:
    """Final graph of a seeded insertion-only stream."""
    sf = generate_stream(n, delta, seed, edge_target=edge_target)
    return materialize(sf.n, sf.updates)
