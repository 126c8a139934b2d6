"""Seeded random streams with a max-degree cap.

Generation is fully determined by (n, delta, edge target, deletion
fraction, seed): edges are drawn as uniform vertex pairs, rejecting
self loops, repeats, and anything that would push a degree past delta.
For dynamic streams, a chosen fraction of the inserted edges is deleted
again; each deletion is spliced at a seeded position after its
insertion, so replays see one fixed interleaving.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, UpdateView, materialize
from .prng import SplitMix64
from .streamio import StreamFile


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
    bounded number of rejected attempts.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not 0.0 <= deletion_fraction <= 1.0:
        raise ValueError("deletion fraction must lie in [0, 1]")
    if edge_target is not None and density is not None:
        raise ValueError("give edge_target or density, not both")
    cap = n * delta // 2
    if edge_target is None:
        target = cap // 2 if density is None else int(density * cap)
    else:
        target = edge_target
    # no more insertions than vertex pairs, so draws stop once all are in
    target = max(0, min(target, cap, n * (n - 1) // 2))

    rng = SplitMix64(seed)
    degree = [0] * (n + 1)
    present: set[tuple[int, int]] = set()
    inserts: list[tuple[int, int]] = []
    attempts = 30 * target + 100
    while len(inserts) < target and attempts > 0:
        attempts -= 1
        u = rng.below(n) + 1
        v = rng.below(n) + 1
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in present or degree[e[0]] >= delta or degree[e[1]] >= delta:
            continue
        present.add(e)
        degree[e[0]] += 1
        degree[e[1]] += 1
        inserts.append(e)

    m = len(inserts)
    delete_count = int(deletion_fraction * m)
    # event keys: insertion i sits at 2i, a deletion draws an odd key
    # after its insertion; a stable sort keeps the draw order on ties
    keys = list(range(0, 2 * m, 2))
    rows = list(range(m))
    for i in rng.sample_indices(delete_count, m) if delete_count else []:
        keys.append(2 * rng.randint(i + 1, m) - 1)
        rows.append(i)
    order = np.argsort(np.array(keys, dtype=np.int64), kind="stable")
    pairs = np.array(inserts, dtype=np.int64).reshape(m, 2)
    pairs = pairs[np.array(rows, dtype=np.int64)[order]]
    signs = np.where(order < m, 1, -1).astype(np.int64)
    return StreamFile(n, delta, UpdateView(signs, pairs[:, 0].copy(), pairs[:, 1].copy()))


def generate_graph(n: int, delta: int, seed: int, edge_target: int | None = None) -> Graph:
    """Final graph of a seeded insertion-only stream."""
    sf = generate_stream(n, delta, seed, edge_target=edge_target)
    return materialize(sf.n, sf.updates)
