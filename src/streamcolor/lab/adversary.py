"""Adaptive hard-input construction against a game strategy, at desk scale.

Level i samples player i's share from the current base graph, groups the
support by what the player would write given the blackboard so far, picks
the summary whose class misses the fewest base edges, prunes vertices
with too many missing edges, and recurses on the missing graph.  After k
levels the chosen representatives are replayed through the game and every
same-colored surviving pair is checked against the final missing set.
A level's grouping, argmin, missing set and ceiling are the compression
lemma's own (`partition`, `fewest_missing`, `missing_edges`,
`missing_bound` in `compression`), applied to the level's messages.

Two views of each level's messages are kept.  The accounting view
truncates or pads messages to the s-bit budget, which is the width the
missing-edge ceiling ln2*(s+1)/p is stated for.  The behavioral view
keeps raw messages, which is what later players actually read and what
the replay reproduces.  For the final level the same-color check groups
the support by the entire output coloring, the grouping for which the
containment claim is literally true: if a same-colored surviving pair is
not in that class's missing set, some consistent input contains the pair
as an edge while receiving the same coloring, so replaying it must fail
validation.  The harness hunts that input down the level chain and
returns it as a concrete counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from ..errors import ImproperOutputError, InfeasibleLevelError
from ..graph import Edge, Graph, color_classes, complete_graph, normalize_edge
from .compression import fewest_missing, missing_bound, missing_edges, partition
from .distribution import (
    DEFAULT_ENUM_CAP,
    RandomGraphDistribution,
    SupportTable,
    support_table,
)
from .game import GameSpec, GameTranscript, Strategy, final_message, run_game
from .lnscaled import LnScaled
from .schedule import schedule


def fit_bits(message: str, bits: int) -> str:
    """Truncate or zero-pad a message to exactly ``bits`` characters."""
    if message.strip("01"):
        raise ValueError("messages must be 0/1 strings")
    if len(message) >= bits:
        return message[:bits]
    return message + "0" * (bits - len(message))


@dataclass(frozen=True)
class AdversaryLevel:
    """Accounting for one level, all on the s-bit view."""

    index: int
    v_size: int
    base_edge_count: int
    support_size: int
    labels_used: int
    chosen_label: str
    miss_count: int
    miss_bound: float
    miss_bound_holds: bool
    removed: tuple[int, ...]
    vsize_bound_holds: bool


@dataclass(frozen=True)
class Counterexample:
    """A consistent input on which the strategy's coloring is improper."""

    pair: Edge | None
    level: int | None
    shares: tuple[tuple[Edge, ...], ...]
    violations: tuple[Edge, ...]


@dataclass(frozen=True)
class AdversaryReport:
    n: int
    delta: int
    k: int
    s: int
    p: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    final_prune_threshold: LnScaled
    levels: tuple[AdversaryLevel, ...]
    v_sizes: tuple[int, ...]
    surviving: tuple[int, ...]
    shares: tuple[tuple[Edge, ...], ...]
    transcript: GameTranscript | None
    replay_proper: bool
    exact_miss_count: int
    same_color_pairs_checked: int
    same_color_ok: bool
    counterexample: Counterexample | None

    @property
    def bounds_hold(self) -> bool:
        return all(
            lvl.miss_bound_holds and lvl.vsize_bound_holds for lvl in self.levels
        )


@dataclass(frozen=True)
class _LevelState:
    """What the counterexample hunt needs to revisit a level: its support,
    the chosen label, and the view that labels a share in that grouping."""

    table: SupportTable
    label: str
    view: Callable[[tuple[Edge, ...]], str]


def _player_message(
    strategy: Strategy, spec: GameSpec, index: int, history: tuple[str, ...]
) -> Callable[[tuple[Edge, ...]], str]:
    """What player ``index`` writes for a share after ``history``; the last
    player's message is its final coloring."""
    if index < spec.k:
        return lambda share: strategy.message(spec, index, share, history)
    return lambda share: final_message(strategy.output(spec, share, history))


def _default_parameters(
    n: int, delta: int, k: int, s: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    sched = schedule(n, delta, k, s)
    if any(value.power != 0 for value in sched.p + sched.d):
        raise ValueError(
            "derived levels beyond the first are irrational; "
            "pass explicit rational p and d overrides for k >= 2"
        )
    return (
        tuple(value.coeff for value in sched.p),
        tuple(value.coeff for value in sched.d),
    )


def run_adversary(
    strategy: Strategy,
    n: int,
    delta: int,
    k: int,
    s: int,
    *,
    p: Sequence[Fraction] | None = None,
    d: Sequence[Fraction] | None = None,
    seed: int = 0,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> AdversaryReport:
    """Execute the k-level construction and the confirming replay.

    ``p`` and ``d`` override the derived per-level parameters with exact
    rationals (required for k >= 2, where the derived values carry ln2
    factors).  ``d`` may carry one extra entry used as the final pruning
    threshold; otherwise that threshold is derived from the recursion.
    The game promise requires delta at least the sum of the per-level
    degree cutoffs, else the replay can reject its own input.
    """
    spec = GameSpec(n, delta, k)
    if s < 1:
        raise ValueError("summary budget s must be at least 1")
    if (p is None) != (d is None):
        raise ValueError("override p and d together")
    final_threshold: LnScaled | None = None
    if p is None:
        p_levels, d_levels = _default_parameters(n, delta, k, s)
    else:
        p_levels = tuple(Fraction(x) for x in p)
        d_all = tuple(Fraction(x) for x in d)
        if len(p_levels) != k or len(d_all) not in (k, k + 1):
            raise ValueError(f"need {k} probabilities and {k} or {k + 1} thresholds")
        d_levels = d_all[:k]
        if len(d_all) == k + 1:
            final_threshold = LnScaled.of(d_all[k])
    if final_threshold is None:
        # one more turn of the recursion: d_{k+1} = 2*ln2*(s+1)*2k/(p_k*n)
        final_threshold = LnScaled(
            Fraction(2 * (s + 1) * 2 * k) / (p_levels[-1] * n), 1
        )

    vertices = tuple(range(1, n + 1))
    base = complete_graph(n)
    v_sizes = [n]
    messages: list[str] = []
    chosen_shares: list[tuple[Edge, ...]] = []
    levels: list[AdversaryLevel] = []
    states: list[_LevelState] = []

    for li in range(k):
        index = li + 1
        dist = RandomGraphDistribution(base, p_levels[li], d_levels[li], seed)
        table = support_table(dist, cap=enum_cap)
        if len(table) == 0:
            raise InfeasibleLevelError(f"level {index} support is empty")
        message = _player_message(strategy, spec, index, tuple(messages))
        # levels below k stream their messages; the last level's are
        # partitioned twice, as fitted and as raw labels
        raw = (message(table.edges_of(mask)) for mask in table.masks.tolist())
        if index == k:
            raw = list(raw)
        fitted = partition(table, (fit_bits(msg, s) for msg in raw))
        chosen, miss_count = fewest_missing(table, fitted)
        ceiling = missing_bound(s, p_levels[li])

        rep_share = table.edges_of(fitted[chosen].smallest_mask)
        chosen_shares.append(rep_share)
        messages.append(message(rep_share))
        if index < k:
            states.append(
                _LevelState(table, chosen, lambda share, m=message: fit_bits(m(share), s))
            )
        else:
            states.append(_LevelState(table, messages[-1], message))
            exact_miss = missing_edges(
                table, partition(table, raw)[messages[-1]].union_mask
            )

        miss_edges = missing_edges(table, fitted[chosen].union_mask)
        threshold = (
            LnScaled.of(d_levels[li + 1]) if index < k else final_threshold
        )
        miss_degree = {v: 0 for v in vertices}
        for u, v in miss_edges:
            miss_degree[u] += 1
            miss_degree[v] += 1
        survivors = tuple(
            v for v in vertices if LnScaled.of(miss_degree[v]) <= threshold
        )
        removed = tuple(sorted(set(vertices) - set(survivors)))

        levels.append(
            AdversaryLevel(
                index=index,
                v_size=len(vertices),
                base_edge_count=len(table.edges),
                support_size=len(table),
                labels_used=len(fitted),
                chosen_label=chosen,
                miss_count=miss_count,
                miss_bound=ceiling.to_float(),
                miss_bound_holds=LnScaled.of(miss_count) <= ceiling,
                removed=removed,
                vsize_bound_holds=2 * k * len(removed) <= n,
            )
        )
        v_sizes.append(len(survivors))
        survivor_set = set(survivors)
        base = Graph(
            n, (e for e in miss_edges if e[0] in survivor_set and e[1] in survivor_set)
        )
        vertices = survivors

    shares = tuple(chosen_shares)
    transcript: GameTranscript | None = None
    counterexample: Counterexample | None = None
    replay_proper = False
    same_color_ok = False
    pairs_checked = 0
    try:
        transcript = run_game(strategy, spec, shares)
        replay_proper = True
    except ImproperOutputError as err:
        transcript = err.transcript
        counterexample = Counterexample(
            pair=None, level=None, shares=shares, violations=tuple(err.violations)
        )

    if replay_proper:
        assert transcript is not None
        for i, (got, want) in enumerate(zip(transcript.messages, messages), 1):
            if got != want:
                raise AssertionError(f"replayed message {i} diverged")

        surviving_set = set(vertices)
        violating_pair = None
        for members in color_classes(transcript.coloring).values():
            alive = [v for v in members if v in surviving_set]
            for u, v in combinations(alive, 2):
                pairs_checked += 1
                if normalize_edge(u, v) not in exact_miss:
                    violating_pair = normalize_edge(u, v)
                    break
            if violating_pair:
                break

        if violating_pair is None:
            same_color_ok = True
        else:
            counterexample = _exhibit_counterexample(
                strategy, spec, shares, states, violating_pair
            )

    return AdversaryReport(
        n=n,
        delta=delta,
        k=k,
        s=s,
        p=p_levels,
        d=d_levels,
        final_prune_threshold=final_threshold,
        levels=tuple(levels),
        v_sizes=tuple(v_sizes),
        surviving=tuple(vertices),
        shares=shares,
        transcript=transcript,
        replay_proper=replay_proper,
        exact_miss_count=len(exact_miss),
        same_color_pairs_checked=pairs_checked,
        same_color_ok=same_color_ok,
        counterexample=counterexample,
    )


def _exhibit_counterexample(
    strategy: Strategy,
    spec: GameSpec,
    shares: tuple[tuple[Edge, ...], ...],
    states: list[_LevelState],
    pair: Edge,
) -> Counterexample:
    """Swap one share for a same-class graph containing ``pair``.

    The deepest level whose base still holds the pair is the one whose
    class must contain a witness: deeper bases are subsets of each miss
    set along the chain, so had the pair been missed there too, it would
    have survived into the next base.
    """
    k = len(states)
    level = None
    for i in range(k, 0, -1):
        if pair in states[i - 1].table._edge_rank:
            level = i
            break
    if level is None:
        raise AssertionError(f"pair {pair} is outside even the first base graph")

    state = states[level - 1]
    table = state.table
    bit = table._edge_rank[pair]
    witness = None
    for mask in table.masks.tolist():
        if mask >> bit & 1:
            share = table.edges_of(mask)
            if state.view(share) == state.label:
                witness = share
                break
    if witness is None:
        raise AssertionError(
            f"pair {pair} outside the missing set has no witness at level {level}"
        )
    counter_shares = shares[: level - 1] + (witness,) + shares[level:]
    try:
        run_game(strategy, spec, counter_shares)
    except ImproperOutputError as err:
        return Counterexample(
            pair=pair,
            level=level,
            shares=counter_shares,
            violations=tuple(err.violations),
        )
    raise AssertionError(
        f"witness for pair {pair} at level {level} replayed proper; "
        "the strategy is inconsistent within a message class"
    )
