"""Tests for the blackboard coloring game and its strategies."""

import pytest

import numpy as np

from streamcolor.counters import member_collision_mask
from streamcolor.errors import DegreeViolationError, ImproperOutputError
from streamcolor.graph import Graph, PartialColoring, greedy_extend, validate_proper
from streamcolor.hashfam import basic_family
from streamcolor.lab.game import (
    ConstantColorStrategy,
    CounterPassAlgorithm,
    DistinctColorsStrategy,
    ForwardMemoryStrategy,
    GameSpec,
    ParityMessageStrategy,
    ProductStrategy,
    StoreAllEdgesAlgorithm,
    Strategy,
    bits_text,
    coloring_from_message,
    decode_colors,
    encode_colors,
    run_game,
    text_bits,
)

C4_SHARES = (((1, 2), (3, 4)), ((2, 3), (1, 4)))
C4_SPEC = GameSpec(n=4, delta=2, k=2)


def test_spec_validation():
    with pytest.raises(ValueError):
        GameSpec(0, 1, 1)
    with pytest.raises(ValueError):
        GameSpec(4, -1, 1)
    with pytest.raises(ValueError):
        GameSpec(4, 1, 0)


def test_text_bits_roundtrip():
    for text in ["", "a", "1 2\n3 4\n", "palette 7"]:
        bits = text_bits(text)
        assert set(bits) <= {"0", "1"}
        assert len(bits) % 8 == 0
        assert bits_text(bits) == text


def test_bits_text_rejects_partial_bytes():
    with pytest.raises(ValueError):
        bits_text("0101010")


def test_encode_decode_colors_roundtrip():
    for palette in [1, 2, 3, 4, 7, 8]:
        colors = [1 + (i * 3) % palette for i in range(10)]
        bits = encode_colors(colors, palette)
        assert decode_colors(bits, 10, palette) == colors


def test_encode_colors_validates_range():
    with pytest.raises(ValueError):
        encode_colors([0], 4)
    with pytest.raises(ValueError):
        encode_colors([5], 4)


def test_decode_colors_validates_length_and_range():
    with pytest.raises(ValueError):
        decode_colors("01", 4, 4)
    # 000 decodes to color 0, below the palette floor
    with pytest.raises(ValueError):
        decode_colors("000" * 4, 4, 4)


def test_share_validation_count():
    with pytest.raises(ValueError):
        run_game(DistinctColorsStrategy(), C4_SPEC, (((1, 2),),))


def test_share_validation_overlap():
    shares = (((1, 2),), ((2, 1),))
    with pytest.raises(ValueError, match="appears in shares"):
        run_game(DistinctColorsStrategy(), C4_SPEC, shares)


def test_share_validation_vertex_range():
    shares = (((1, 9),), ((2, 3),))
    with pytest.raises(ValueError, match="outside vertex range"):
        run_game(DistinctColorsStrategy(), C4_SPEC, shares)


def test_share_validation_degree_promise():
    star = tuple((1, v) for v in range(2, 5))
    with pytest.raises(DegreeViolationError, match="exceeds promised"):
        run_game(DistinctColorsStrategy(), C4_SPEC, (star, ()))


def test_share_self_loop_rejected():
    with pytest.raises(Exception):
        run_game(DistinctColorsStrategy(), C4_SPEC, (((1, 1),), ()))


def test_product_strategy_on_cycle():
    transcript = run_game(ProductStrategy(), C4_SPEC, C4_SHARES)
    palette = ProductStrategy.share_palette(C4_SPEC)
    assert palette == 2
    assert transcript.coloring.palette == palette**2
    union = Graph(4, [e for share in C4_SHARES for e in share])
    assert validate_proper(union, transcript.coloring) == []
    assert transcript.cost_bits == max(len(m) for m in transcript.messages)
    assert len(transcript.messages) == 2


def test_product_messages_do_not_leak_other_shares():
    strategy = ProductStrategy()
    msg_a = strategy.message(C4_SPEC, 1, C4_SHARES[0], ())
    # changing the second share cannot alter the first message
    other = (((2, 3),),)
    transcript = run_game(strategy, C4_SPEC, (C4_SHARES[0], other[0]))
    assert transcript.messages[0] == msg_a


def test_distinct_strategy_always_proper():
    transcript = run_game(DistinctColorsStrategy(), C4_SPEC, C4_SHARES)
    assert len(set(transcript.coloring.colors())) == 4
    assert transcript.messages[0] == ""


def test_parity_strategy_messages():
    spec = GameSpec(5, 4, 3)
    shares = (((1, 2), (3, 4)), ((1, 3),), ((2, 5),))
    transcript = run_game(ParityMessageStrategy(), spec, shares)
    assert transcript.messages[0] == "0"
    assert transcript.messages[1] == "1"


def test_constant_strategy_raises_with_transcript():
    with pytest.raises(ImproperOutputError) as exc:
        run_game(ConstantColorStrategy(), C4_SPEC, C4_SHARES)
    err = exc.value
    assert err.violations
    assert all(edge in {e for sh in C4_SHARES for e in sh} for edge in err.violations)
    assert err.transcript.strategy_name == "constant"
    assert err.transcript.coloring.colors() == (1, 1, 1, 1)


def test_constant_strategy_proper_on_empty_input():
    transcript = run_game(ConstantColorStrategy(), C4_SPEC, ((), ()))
    assert transcript.coloring.palette == 1


def test_non_binary_message_rejected():
    class Chatty(Strategy):
        name = "chatty"

        def message(self, spec, index, share, history):
            return "hello"

        def output(self, spec, share, history):
            return PartialColoring(spec.n, spec.n, list(range(1, spec.n + 1)))

    with pytest.raises(ValueError, match="non-binary"):
        run_game(Chatty(), C4_SPEC, C4_SHARES)


def test_final_message_encodes_the_coloring():
    transcript = run_game(DistinctColorsStrategy(), C4_SPEC, C4_SHARES)
    decoded = coloring_from_message(transcript.messages[-1], n=4)
    assert decoded == transcript.coloring


def test_coloring_from_message_checks_vertex_count():
    transcript = run_game(DistinctColorsStrategy(), C4_SPEC, C4_SHARES)
    with pytest.raises(ValueError):
        coloring_from_message(transcript.messages[-1], n=5)


def test_forward_memory_matches_offline_greedy():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 5)]
    spec = GameSpec(5, 4, 3)
    shares = (tuple(edges[:2]), tuple(edges[2:4]), tuple(edges[4:]))
    strategy = ForwardMemoryStrategy(StoreAllEdgesAlgorithm())
    transcript = run_game(strategy, spec, shares)
    offline = greedy_extend(Graph(5, edges), PartialColoring(5, 5))
    assert transcript.coloring == offline
    assert validate_proper(Graph(5, edges), transcript.coloring) == []


def test_forward_memory_message_is_the_edge_list():
    spec = GameSpec(4, 2, 2)
    strategy = ForwardMemoryStrategy(StoreAllEdgesAlgorithm())
    transcript = run_game(strategy, spec, C4_SHARES)
    assert bits_text(transcript.messages[0]) == "1 2\n3 4\n"


def test_counter_pass_state_forwarding_matches_single_stream():
    spec = GameSpec(6, 4, 2)
    shares = (((1, 2), (3, 4)), ((2, 3), (5, 6)))
    alg = CounterPassAlgorithm()

    state = alg.ingest(alg.start(spec.n, spec.delta), shares[0])
    forwarded = alg.decode(alg.encode(state), spec.n, spec.delta)
    forwarded = alg.ingest(forwarded, shares[1])

    # every member's count is its number of alike-colored union edges
    family = basic_family(spec.n, spec.delta)
    direct = np.zeros(family.p, dtype=np.int64)
    for u, v in shares[0] + shares[1]:
        direct += member_collision_mask(family, None, u, v)
    assert list(forwarded.counts) == list(direct)


def test_counter_pass_decode_validates_parameters():
    alg = CounterPassAlgorithm()
    state = alg.start(6, 4)
    bits = alg.encode(state)
    with pytest.raises(ValueError):
        alg.decode(bits, 7, 4)


def test_transcript_json_shape():
    transcript = run_game(ProductStrategy(), C4_SPEC, C4_SHARES)
    data = transcript.to_json_dict()
    assert data["n"] == 4 and data["k"] == 2
    assert data["strategy"] == "product"
    assert data["share_sizes"] == [2, 2]
    assert data["cost_bits"] == transcript.cost_bits
    assert data["proper"] is True
    assert data["message_bits"] == [len(m) for m in transcript.messages]


def test_run_game_is_deterministic():
    a = run_game(ProductStrategy(), C4_SPEC, C4_SHARES)
    b = run_game(ProductStrategy(), C4_SPEC, C4_SHARES)
    assert a.messages == b.messages
    assert a.coloring == b.coloring
