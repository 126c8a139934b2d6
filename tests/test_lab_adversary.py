"""Tests for the adaptive hard-input construction."""

from fractions import Fraction

import pytest

from streamcolor.graph import Graph, PartialColoring, complete_graph, validate_proper
from streamcolor.lab.adversary import Counterexample, fit_bits, run_adversary
from streamcolor.lab.compression import CompressionScheme, check_compression_lemma
from streamcolor.lab.distribution import RandomGraphDistribution, support_table
from streamcolor.lab.game import (
    ConstantColorStrategy,
    DistinctColorsStrategy,
    GameSpec,
    ParityMessageStrategy,
    Strategy,
    final_message,
)
from streamcolor.lab.lnscaled import LnScaled

HALF = Fraction(1, 2)


class PeekEdgeStrategy(Strategy):
    """Announces whether its share meets a watched edge set, colors distinct.

    The negative class misses exactly the watched edges, which makes the
    next level's base graph non-trivial.
    """

    name = "peek-edge"

    def __init__(self, watched=((1, 2),), colors=None):
        self.watched = {tuple(e) for e in watched}
        self.colors = colors

    def message(self, spec, index, share, history):
        return "1" if self.watched & set(share) else "0"

    def output(self, spec, share, history):
        if self.colors is not None:
            return PartialColoring(spec.n, max(self.colors), list(self.colors))
        return PartialColoring(spec.n, spec.n, list(range(1, spec.n + 1)))


def test_fit_bits():
    assert fit_bits("1011", 2) == "10"
    assert fit_bits("1", 3) == "100"
    assert fit_bits("", 2) == "00"
    assert fit_bits("10", 2) == "10"
    with pytest.raises(ValueError):
        fit_bits("2", 2)


def test_override_validation():
    with pytest.raises(ValueError, match="together"):
        run_adversary(DistinctColorsStrategy(), 4, 3, 1, 1, p=[HALF])
    with pytest.raises(ValueError, match="thresholds"):
        run_adversary(
            DistinctColorsStrategy(), 4, 3, 2, 1, p=[HALF], d=[Fraction(2)]
        )
    with pytest.raises(ValueError, match="at least 1"):
        run_adversary(DistinctColorsStrategy(), 4, 3, 1, 0, p=[HALF], d=[Fraction(2)])


def test_default_parameters_require_rational_levels():
    # beyond one level the derived schedule carries ln2 factors
    with pytest.raises(ValueError, match="rational"):
        run_adversary(DistinctColorsStrategy(), 8, 2, 2, 4)


def test_default_parameters_single_level():
    report = run_adversary(DistinctColorsStrategy(), 4, 2, 1, 4)
    assert report.p == (Fraction(1, 4),)
    assert report.d == (Fraction(4),)
    assert report.replay_proper and report.same_color_ok
    assert report.counterexample is None


def test_single_level_proper_strategy_passes():
    report = run_adversary(
        DistinctColorsStrategy(), 4, 3, 1, 2, p=[HALF], d=[Fraction(6)], seed=1
    )
    assert report.bounds_hold
    assert report.replay_proper
    assert report.same_color_ok
    assert report.exact_miss_count == 0  # distinct output: one class, full cover
    assert report.v_sizes == (4, 4)
    assert len(report.levels) == 1
    assert report.levels[0].support_size == 64


def test_single_level_matches_compression_view():
    # the level-1 accounting is exactly the summary checker's view when
    # the summary is the (truncated) final message
    strategy = DistinctColorsStrategy()
    report = run_adversary(
        strategy, 4, 3, 1, 2, p=[HALF], d=[Fraction(6)], seed=1
    )
    dist = RandomGraphDistribution(Graph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]), HALF, Fraction(6), seed=1)
    from streamcolor.lab.compression import constant_scheme

    # distinct-colors writes one fixed coloring, i.e. a constant summary
    check = check_compression_lemma(dist, constant_scheme(2))
    assert report.levels[0].miss_count == check["min_missing"]
    assert report.levels[0].miss_bound == check["bound"]


def test_two_level_matches_compression_view():
    # each level's accounting is the summary checker's view when the
    # summary is that level's fitted message
    strategy = PeekEdgeStrategy([(1, 2)])
    p, d = [Fraction(3, 4), HALF], [Fraction(1), Fraction(2), Fraction(5)]
    report = run_adversary(strategy, 4, 3, 2, 2, p=p, d=d, seed=0)
    spec = GameSpec(4, 3, 2)
    history = report.transcript.messages[:1]
    levels = [
        # level 1 samples K4; its chosen class misses only the watched edge
        (complete_graph(4), lambda share: strategy.message(spec, 1, share, ())),
        (Graph(4, [(1, 2)]), lambda share: final_message(strategy.output(spec, share, history))),
    ]
    for lvl, p_i, d_i, (base, message) in zip(report.levels, p, d, levels):
        dist = RandomGraphDistribution(base, p_i, d_i, seed=0)
        table = support_table(dist)
        scheme = CompressionScheme(
            bits=2,
            label=lambda mask, table=table, message=message: fit_bits(
                message(table.edges_of(mask)), 2
            ),
        )
        check = check_compression_lemma(dist, scheme)
        assert lvl.base_edge_count == base.m
        assert lvl.chosen_label == check["argmin_label"]
        assert lvl.miss_count == check["min_missing"]
        assert lvl.labels_used == check["labels_used"]
        assert lvl.miss_bound == check["bound"]


def test_single_level_constant_strategy_yields_counterexample():
    report = run_adversary(
        ConstantColorStrategy(), 4, 3, 1, 2, p=[HALF], d=[Fraction(6)], seed=1
    )
    assert report.replay_proper  # representative share is the empty graph
    assert not report.same_color_ok
    ce = report.counterexample
    assert isinstance(ce, Counterexample)
    assert ce.pair == (1, 2)
    assert ce.level == 1
    assert ce.pair in ce.violations
    # the exhibited input really is miscolored by the strategy
    union = Graph(4, [e for share in ce.shares for e in share])
    coloring = PartialColoring(4, 1, [1, 1, 1, 1])
    assert validate_proper(union, coloring) == [ce.pair]


def test_two_level_run_with_parity_messages():
    report = run_adversary(
        ParityMessageStrategy(),
        6,
        5,
        2,
        2,
        p=[HALF, HALF],
        d=[Fraction(6), Fraction(4)],
        seed=3,
    )
    assert report.bounds_hold
    assert report.replay_proper
    assert report.same_color_ok
    assert report.v_sizes == (6, 6, 6)
    assert len(report.levels) == 2
    assert [lvl.index for lvl in report.levels] == [1, 2]
    assert len(report.shares) == 2
    assert report.transcript is not None


def test_two_level_nontrivial_second_base():
    # class "0" misses the watched edge, so level 2 samples from it
    report = run_adversary(
        PeekEdgeStrategy([(1, 2)]),
        4,
        3,
        2,
        2,
        p=[Fraction(3, 4), HALF],
        d=[Fraction(1), Fraction(2), Fraction(5)],
        seed=0,
    )
    assert report.levels[0].chosen_label == "00"
    assert report.levels[0].miss_count == 1
    assert report.levels[1].base_edge_count == 1
    assert report.levels[1].support_size == 2
    assert report.replay_proper and report.same_color_ok
    assert report.final_prune_threshold == LnScaled.of(5)


def test_two_level_counterexample_at_final_level():
    class PeekConstant(PeekEdgeStrategy):
        name = "peek-constant"

        def output(self, spec, share, history):
            return PartialColoring(spec.n, 1, [1] * spec.n)

    report = run_adversary(
        PeekConstant([(1, 2)]),
        4,
        3,
        2,
        2,
        p=[Fraction(3, 4), HALF],
        d=[Fraction(1), Fraction(2), Fraction(5)],
        seed=0,
    )
    assert report.replay_proper  # representatives are empty graphs
    assert not report.same_color_ok
    ce = report.counterexample
    assert ce is not None
    assert ce.pair == (1, 2)
    assert ce.level == 2  # the watched edge is the final base graph
    assert ce.pair in ce.violations


def test_two_level_counterexample_at_first_level():
    # colors 1,3 alike and 2,4 alike; (1,2) is properly colored, so the
    # violating pair (1,3) lives outside the final base and the witness
    # hunt must walk back to level 1
    report = run_adversary(
        PeekEdgeStrategy([(1, 2)], colors=[1, 2, 1, 2]),
        4,
        3,
        2,
        2,
        p=[Fraction(3, 4), HALF],
        d=[Fraction(1), Fraction(2), Fraction(5)],
        seed=0,
    )
    assert not report.same_color_ok
    ce = report.counterexample
    assert ce is not None
    assert ce.pair == (1, 3)
    assert ce.level == 1
    assert ce.pair in ce.violations


def test_pruning_accounting():
    # watching two edges at vertex 1 gives it missing degree 2, above the
    # next threshold of 1, so it is pruned while its neighbors survive
    report = run_adversary(
        PeekEdgeStrategy([(1, 2), (1, 3)]),
        4,
        3,
        2,
        2,
        p=[Fraction(3, 4), HALF],
        d=[Fraction(1), Fraction(1), Fraction(5)],
        seed=0,
    )
    assert report.levels[0].miss_count == 2
    assert report.levels[0].removed == (1,)
    assert report.levels[0].vsize_bound_holds  # 2k * 1 = 4 <= n = 4
    assert report.bounds_hold
    assert report.v_sizes == (4, 3, 3)
    assert report.levels[1].base_edge_count == 0
    assert set(report.surviving) == {2, 3, 4}


def test_miss_bound_accounting_single_level():
    report = run_adversary(
        ConstantColorStrategy(), 4, 3, 1, 2, p=[HALF], d=[Fraction(6)], seed=1
    )
    lvl = report.levels[0]
    # constant output: one class covering the whole support
    assert lvl.labels_used == 1
    assert lvl.miss_count == 0
    assert lvl.miss_bound == pytest.approx(float(LnScaled(Fraction(3) / HALF, 1).to_float()))
    assert lvl.miss_bound_holds


def test_report_is_deterministic():
    kwargs = dict(p=[HALF, HALF], d=[Fraction(6), Fraction(4)], seed=9)
    a = run_adversary(DistinctColorsStrategy(), 6, 5, 2, 2, **kwargs)
    b = run_adversary(DistinctColorsStrategy(), 6, 5, 2, 2, **kwargs)
    assert a.v_sizes == b.v_sizes
    assert a.shares == b.shares
    assert a.transcript.messages == b.transcript.messages


def test_counterexample_shares_stay_disjoint_and_within_degree():
    class PeekConstant(PeekEdgeStrategy):
        name = "peek-constant"

        def output(self, spec, share, history):
            return PartialColoring(spec.n, 1, [1] * spec.n)

    report = run_adversary(
        PeekConstant([(1, 2)]),
        4,
        3,
        2,
        2,
        p=[Fraction(3, 4), HALF],
        d=[Fraction(1), Fraction(2), Fraction(5)],
        seed=0,
    )
    ce = report.counterexample
    seen = set()
    for share in ce.shares:
        for e in share:
            assert e not in seen
            seen.add(e)
