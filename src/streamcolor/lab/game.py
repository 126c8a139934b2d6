"""Blackboard coloring game: k players, one message each, last writes
the coloring.

Player i sees only its own edge share and the messages written so far,
and appends one bit string.  Player k's message is the final coloring.
The cost of a run is the largest single message in bits.  Strategies are
plain objects so tests can perturb shares and check that earlier
messages cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..counters import CounterBank, argmin_counter
from ..errors import (
    DegreeViolationError,
    ImproperOutputError,
    PaletteExhaustedError,
    UsageError,
)
from ..graph import (
    Edge,
    Graph,
    PartialColoring,
    greedy_extend,
    max_degree,
    normalize_edge,
    validate_proper,
)
from ..hashfam import basic_family
from ..streamio import dumps_coloring, loads_coloring
from .schedule import MAX_LEVELS


@dataclass(frozen=True)
class GameSpec:
    """Public parameters every player knows up front; k is at most the
    schedule's MAX_LEVELS."""

    n: int
    delta: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.delta < 0 or self.k < 1:
            raise UsageError("need n >= 1, delta >= 0, k >= 1")
        if self.k > MAX_LEVELS:
            raise UsageError(f"k = {self.k} is above the limit of {MAX_LEVELS}")


@dataclass(frozen=True)
class GameTranscript:
    spec: GameSpec
    strategy_name: str
    shares: tuple[tuple[Edge, ...], ...]
    messages: tuple[str, ...]
    coloring: PartialColoring
    cost_bits: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "delta": self.spec.delta,
            "k": self.spec.k,
            "strategy": self.strategy_name,
            "share_sizes": [len(share) for share in self.shares],
            "message_bits": [len(m) for m in self.messages],
            "cost_bits": self.cost_bits,
            "palette": self.coloring.palette,
            "colors_used": len(set(self.coloring.colors())),
            "proper": True,
        }


class Strategy:
    """Interface: intermediate players emit bits, the last one colors."""

    name = "abstract"

    def message(
        self, spec: GameSpec, index: int, share: tuple[Edge, ...], history: tuple[str, ...]
    ) -> str:
        raise NotImplementedError

    def output(
        self, spec: GameSpec, share: tuple[Edge, ...], history: tuple[str, ...]
    ) -> PartialColoring:
        raise NotImplementedError


def text_bits(text: str) -> str:
    """UTF-8 bytes rendered as a 0/1 string, most significant bit first."""
    return "".join(format(b, "08b") for b in text.encode("utf-8"))


def final_message(coloring: PartialColoring) -> str:
    """The last player's message: the coloring file's text as bits."""
    return text_bits(dumps_coloring(coloring))


def bits_text(bits: str) -> str:
    if len(bits) % 8:
        raise ValueError("bit string length must be a multiple of 8")
    data = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    return data.decode("utf-8")


def encode_colors(colors: Sequence[int], palette: int) -> str:
    """Fixed-width binary block per vertex color."""
    width = max(1, palette.bit_length())
    out = []
    for c in colors:
        if not 1 <= c <= palette:
            raise ValueError(f"color {c} outside palette [1, {palette}]")
        out.append(format(c, f"0{width}b"))
    return "".join(out)


def decode_colors(bits: str, n: int, palette: int) -> list[int]:
    width = max(1, palette.bit_length())
    if len(bits) != n * width:
        raise ValueError(f"expected {n * width} bits, got {len(bits)}")
    colors = [int(bits[i * width : (i + 1) * width], 2) for i in range(n)]
    for c in colors:
        if not 1 <= c <= palette:
            raise ValueError(f"decoded color {c} outside palette [1, {palette}]")
    return colors


def _normalized_shares(
    spec: GameSpec, shares: Sequence[Sequence[Edge]]
) -> tuple[tuple[tuple[Edge, ...], ...], Graph]:
    if len(shares) != spec.k:
        raise UsageError(f"expected {spec.k} shares, got {len(shares)}")
    seen: dict[Edge, int] = {}
    cleaned = []
    for idx, share in enumerate(shares, start=1):
        edges = sorted({normalize_edge(u, v) for u, v in share})
        for e in edges:
            if e[1] > spec.n:
                raise UsageError(f"edge {e} outside vertex range 1..{spec.n}")
            if e in seen:
                raise UsageError(f"edge {e} appears in shares {seen[e]} and {idx}")
            seen[e] = idx
        cleaned.append(tuple(edges))
    union = Graph(spec.n, seen.keys())
    if max_degree(union) > spec.delta:
        raise DegreeViolationError(
            f"union max degree {max_degree(union)} exceeds promised {spec.delta}"
        )
    return tuple(cleaned), union


def run_game(
    strategy: Strategy, spec: GameSpec, shares: Sequence[Sequence[Edge]]
) -> GameTranscript:
    """Drive one run; raises ImproperOutputError on a bad final coloring.

    The raised error carries ``transcript`` and ``violations`` so callers
    can inspect what the players actually wrote.
    """
    cleaned, union = _normalized_shares(spec, shares)
    history: list[str] = []
    for i in range(1, spec.k):
        msg = strategy.message(spec, i, cleaned[i - 1], tuple(history))
        if not isinstance(msg, str) or msg.strip("01"):
            raise ValueError(f"player {i} wrote a non-binary message")
        history.append(msg)
    coloring = strategy.output(spec, cleaned[spec.k - 1], tuple(history))
    coloring.require_total()
    messages = tuple(history) + (final_message(coloring),)
    transcript = GameTranscript(
        spec=spec,
        strategy_name=strategy.name,
        shares=cleaned,
        messages=messages,
        coloring=coloring,
        cost_bits=max(len(m) for m in messages),
    )
    violations = validate_proper(union, coloring)
    if violations:
        err = ImproperOutputError(
            f"strategy {strategy.name!r} miscolored {len(violations)} edges, "
            f"first {violations[0]}"
        )
        err.transcript = transcript
        err.violations = violations
        raise err
    return transcript


class ProductStrategy(Strategy):
    """Each player properly colors its own share with a small palette and
    publishes it; the last player outputs the coordinate-product color.

    The share palette of delta // k + 1 colors fits any share of degree
    at most delta // k.  A share of higher degree that greedy cannot fit
    into it is outside what this strategy handles: UsageError, naming
    the share, its degree and the palette.
    """

    name = "product"

    @staticmethod
    def share_palette(spec: GameSpec) -> int:
        return spec.delta // spec.k + 1

    def _color_share(
        self, spec: GameSpec, index: int, share: tuple[Edge, ...]
    ) -> PartialColoring:
        g = Graph(spec.n, share)
        palette = self.share_palette(spec)
        try:
            return greedy_extend(g, PartialColoring(spec.n, palette))
        except PaletteExhaustedError as exc:
            raise UsageError(
                f"share {index} has degree {max_degree(g)}, above delta // k = "
                f"{palette - 1}; it does not fit the product strategy's share "
                f"palette [1, {palette}]"
            ) from exc

    def message(self, spec, index, share, history):
        own = self._color_share(spec, index, share)
        return encode_colors(own.colors(), self.share_palette(spec))

    def output(self, spec, share, history):
        palette = self.share_palette(spec)
        coordinates = [decode_colors(bits, spec.n, palette) for bits in history]
        coordinates.append(list(self._color_share(spec, spec.k, share).colors()))
        combined = []
        for v in range(spec.n):
            code, scale = 0, 1
            for coord in coordinates:
                code += (coord[v] - 1) * scale
                scale *= palette
            combined.append(code + 1)
        return PartialColoring(spec.n, palette**spec.k, combined)


class DistinctColorsStrategy(Strategy):
    """Sends nothing and colors every vertex differently; always proper."""

    name = "distinct"

    def message(self, spec, index, share, history):
        return ""

    def output(self, spec, share, history):
        return PartialColoring(spec.n, spec.n, list(range(1, spec.n + 1)))


class ConstantColorStrategy(Strategy):
    """Colors everything alike; improper on any input with an edge."""

    name = "constant"

    def message(self, spec, index, share, history):
        return ""

    def output(self, spec, share, history):
        return PartialColoring(spec.n, 1, [1] * spec.n)


class ParityMessageStrategy(Strategy):
    """Writes its share's edge-count parity, then colors all-distinct.

    Messages actually depend on the share (unlike the distinct-colors
    baseline) while staying within any budget of at least one bit.
    """

    name = "parity-distinct"

    def message(self, spec, index, share, history):
        return str(len(share) % 2)

    def output(self, spec, share, history):
        return PartialColoring(spec.n, spec.n, list(range(1, spec.n + 1)))


class OnePassAlgorithm:
    """A streaming procedure whose whole state can cross the blackboard.

    A player ingests its whole share at once: `ingest` takes the state so
    far and the share's edges and returns the next state.
    """

    name = "abstract"

    def start(self, n: int, delta: int):
        raise NotImplementedError

    def ingest(self, state, share: Sequence[Edge]):
        raise NotImplementedError

    def encode(self, state) -> str:
        raise NotImplementedError

    def decode(self, bits: str, n: int, delta: int):
        raise NotImplementedError

    def finish(self, state, n: int, delta: int) -> PartialColoring:
        raise NotImplementedError


class StoreAllEdgesAlgorithm(OnePassAlgorithm):
    """Keeps every edge; finishing colors greedily with delta+1 colors.

    Forwarding this state is the send-all-edges baseline: the message is
    simply the edge list seen so far.
    """

    name = "store-all-edges"

    def start(self, n, delta):
        return frozenset()

    def ingest(self, state, share):
        return state | {normalize_edge(u, v) for u, v in share}

    def encode(self, state):
        lines = "".join(f"{u} {v}\n" for u, v in sorted(state))
        return text_bits(lines)

    def decode(self, bits, n, delta):
        edges = set()
        for line in bits_text(bits).splitlines():
            u, v = line.split()
            edges.add(normalize_edge(int(u), int(v)))
        return frozenset(edges)

    def finish(self, state, n, delta):
        g = Graph(n, state)
        return greedy_extend(g, PartialColoring(n, delta + 1))


class CounterPassAlgorithm(OnePassAlgorithm):
    """The counter pass as a forwardable state.

    Finishing returns the member with the fewest monochromatic edges;
    that coloring is generally not proper, so this wrapper is for
    studying the state-forwarding reduction, not for winning the game.
    A share is counted in one batch through `CounterBank.from_arrays`;
    the counts are linear, so the forwarded state equals one bank over
    the union of the shares.
    """

    name = "counter-pass"

    def start(self, n, delta):
        return CounterBank.empty(basic_family(n, delta))

    def ingest(self, state, share):
        edges = np.array([normalize_edge(u, v) for u, v in share], dtype=np.int64)
        us, vs = edges.reshape(-1, 2).T
        ones = np.ones(us.size, dtype=np.int64)
        batch = CounterBank.from_arrays(state.family, None, us, vs, ones)
        return CounterBank(state.family, state.counts + batch.counts)

    def encode(self, state):
        counts = " ".join(str(int(c)) for c in state.counts)
        return text_bits(f"{state.family.n} {state.family.palette} {counts}\n")

    def decode(self, bits, n, delta):
        fields = bits_text(bits).split()
        state_n, palette = int(fields[0]), int(fields[1])
        family = basic_family(n, delta)
        if state_n != family.n or palette != family.palette:
            raise ValueError("forwarded counter state has mismatched parameters")
        counts = [int(c) for c in fields[2:]]
        if len(counts) != family.p:
            raise ValueError("forwarded counter state has the wrong width")
        bank = CounterBank.empty(family)
        bank.counts[:] = counts
        return bank

    def finish(self, state, n, delta):
        return state.family.member(argmin_counter(state)).as_coloring()


class ForwardMemoryStrategy(Strategy):
    """Runs a one-pass procedure across players by forwarding its state."""

    def __init__(self, algorithm: OnePassAlgorithm):
        self.algorithm = algorithm
        self.name = f"forward-memory[{algorithm.name}]"

    def _advance(self, spec, share, history):
        alg = self.algorithm
        if history:
            state = alg.decode(history[-1], spec.n, spec.delta)
        else:
            state = alg.start(spec.n, spec.delta)
        return alg.ingest(state, share)

    def message(self, spec, index, share, history):
        return self.algorithm.encode(self._advance(spec, share, history))

    def output(self, spec, share, history):
        state = self._advance(spec, share, history)
        return self.algorithm.finish(state, spec.n, spec.delta)


def coloring_from_message(bits: str, n: int | None = None) -> PartialColoring:
    """Decode a final game message back into a coloring."""
    coloring = loads_coloring(bits_text(bits))
    if n is not None and coloring.n != n:
        raise ValueError(f"message colors {coloring.n} vertices, expected {n}")
    return coloring
