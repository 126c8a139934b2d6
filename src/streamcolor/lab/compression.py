"""Summaries of sampled graphs and the missing-edge bound.

A compression scheme maps each graph in a distribution's support, given
as its subset bitmask over base edge rank, to a fixed-width bit string of
at most MAX_SUMMARY_BITS bits.  For each summary value, the missing set
is the set of base edges contained in no graph with that summary; the
checker verifies that some non-empty summary class misses at most
ln2 * (bits + 1) / p base edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..errors import StreamFormatError, TooLargeError, UsageError
from ..graph import Edge
from ..prng import splitmix64_next
from ..streamio import _lf
from .distribution import (
    DEFAULT_ENUM_CAP,
    RandomGraphDistribution,
    SupportTable,
    _GAMMA,
    _MASK64,
    _popcount_u32,
    support_table,
)
from .lnscaled import LnScaled

DEFAULT_LABELING_CAP = 20
# widest summary a scheme may emit; 64 bits already label every subset of
# a base at the enumeration cap (2^24 subsets) injectively
MAX_SUMMARY_BITS = 64


@dataclass(frozen=True)
class CompressionScheme:
    """Deterministic map from subset bitmasks over base edge rank to
    ``bits``-wide bit strings."""

    bits: int
    label: Callable[[int], str]
    name: str = "custom"

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_SUMMARY_BITS:
            raise ValueError(f"summary width must lie in [1, {MAX_SUMMARY_BITS}] bits")

    def apply(self, mask: int) -> str:
        out = self.label(mask)
        if not isinstance(out, str) or len(out) != self.bits:
            raise ValueError(
                f"scheme {self.name!r} must emit exactly {self.bits} bits"
            )
        if out.strip("01"):
            raise ValueError(f"scheme {self.name!r} emitted non-binary characters")
        return out


def _bit_string(value: int, bits: int) -> str:
    return format(value & ((1 << bits) - 1), f"0{bits}b")


def parity_scheme(bits: int = 1) -> CompressionScheme:
    """Summary = edge-count parity, zero-padded to ``bits``."""
    return CompressionScheme(
        bits, lambda mask: _bit_string(mask.bit_count() % 2, bits), "parity"
    )


def identity_scheme(bits: int) -> CompressionScheme:
    """Summary = low ``bits`` of the subset bitmask over base edge rank."""
    return CompressionScheme(bits, lambda mask: _bit_string(mask, bits), "identity")


def constant_scheme(bits: int, value: str | None = None) -> CompressionScheme:
    """Every graph maps to one fixed summary."""
    fixed = "0" * bits if value is None else value
    return CompressionScheme(bits, lambda mask: fixed, "constant")


def random_scheme(bits: int, seed: int) -> CompressionScheme:
    """Pseudorandom but deterministic labels keyed by the subset bitmask."""

    def from_mask(mask: int) -> str:
        _, out = splitmix64_next((seed + (mask + 1) * _GAMMA) & _MASK64)
        return _bit_string(out, bits)

    return CompressionScheme(bits, from_mask, f"random[{seed}]")


def scheme_from_file(path, *, bits: int | None = None) -> CompressionScheme:
    """Load an explicit mask -> summary map.

    Line format: ``<graph-bitmask-hex> <summary-bits>``; blank lines and
    lines starting with ``#`` are skipped.
    """
    mapping: dict[int, str] = {}
    # lines end at every break a stream or coloring file knows, and text
    # that is not UTF-8 fails with its line number; `_lf` passes encoded
    # surrogates, as stream files do, so the decode must pass them too
    text = _lf(Path(path).read_bytes()).decode("utf-8", "surrogatepass")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StreamFormatError(
                f"{path}:{lineno}: expected '<mask-hex> <summary-bits>'"
            )
        try:
            mask = int(parts[0], 16)
        except ValueError:
            raise StreamFormatError(
                f"{path}:{lineno}: bad hexadecimal mask {parts[0]!r}"
            ) from None
        summary = parts[1]
        if summary.strip("01"):
            raise StreamFormatError(
                f"{path}:{lineno}: summary must be a 0/1 string"
            )
        if bits is None:
            bits = len(summary)
        if len(summary) != bits:
            raise StreamFormatError(
                f"{path}:{lineno}: summary width {len(summary)} != {bits}"
            )
        if mask in mapping and mapping[mask] != summary:
            raise StreamFormatError(
                f"{path}:{lineno}: conflicting summaries for mask {mask:#x}"
            )
        mapping[mask] = summary
    if bits is None or not mapping:
        raise StreamFormatError(f"{path}: no scheme entries found")

    def from_mask(mask: int) -> str:
        try:
            return mapping[mask]
        except KeyError:
            raise UsageError(f"scheme file has no entry for mask {mask:#x}") from None

    return CompressionScheme(bits, from_mask, "file")


@dataclass(frozen=True)
class LabelClass:
    """One summary value's preimage, reduced to covering statistics."""

    label: str
    count: int
    probability: Fraction
    union_mask: int
    smallest_mask: int


@dataclass(frozen=True)
class MissingGraph:
    """Base edges contained in no support graph with the given summary."""

    label: str
    edges: frozenset[Edge]
    preimage_size: int


def partition(table: SupportTable, labels: Iterable[str]) -> dict[str, LabelClass]:
    """Group the support by summary value; ``labels`` runs aligned with
    ``table.masks``."""
    stats: dict[str, list] = {}
    for mask, label in zip(table.masks.tolist(), labels):
        entry = stats.get(label)
        if entry is None:
            # masks ascend, so a class's first mask is its smallest
            entry = stats[label] = [0, 0, mask, [0] * len(table.weights)]
        entry[0] += 1
        entry[1] |= mask
        entry[3][mask.bit_count()] += 1
    # a mask's probability depends only on its popcount
    return {
        label: LabelClass(
            label,
            count,
            sum(w * c for w, c in zip(table.weights, pops)) / table.acceptance,
            union,
            smallest,
        )
        for label, (count, union, smallest, pops) in sorted(stats.items())
    }


def label_partition(
    table: SupportTable, scheme: CompressionScheme
) -> dict[str, LabelClass]:
    """Group the support by summary value."""
    return partition(table, map(scheme.apply, table.masks.tolist()))


def fewest_missing(table: SupportTable, part: dict[str, LabelClass]) -> tuple[str, int]:
    """The class missing the fewest base edges, as (label, missing count);
    ties go to the smallest label."""
    m = len(table.edges)
    missing, label = min(
        (m - cls.union_mask.bit_count(), label) for label, cls in part.items()
    )
    return label, missing


def missing_edges(table: SupportTable, union_mask: int) -> frozenset[Edge]:
    """Base edges outside ``union_mask``."""
    return frozenset(
        e for i, e in enumerate(table.edges) if not union_mask >> i & 1
    )


def missing_graph(
    dist: RandomGraphDistribution,
    scheme: CompressionScheme,
    label: str,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> MissingGraph:
    """Exact missing set for one summary value.

    A summary no support graph maps to misses every base edge vacuously.
    """
    table = support_table(dist, cap=cap)
    part = label_partition(table, scheme)
    cls = part.get(label)
    if cls is None:
        return MissingGraph(label, frozenset(table.edges), 0)
    return MissingGraph(label, missing_edges(table, cls.union_mask), cls.count)


def missing_bound(bits: int, p: Fraction) -> LnScaled:
    """The guaranteed ceiling ln2 * (bits + 1) / p, kept exact."""
    return LnScaled(Fraction(bits + 1) / Fraction(p), 1)


def check_compression_lemma(
    dist: RandomGraphDistribution,
    scheme: CompressionScheme,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> dict:
    """Minimum missing count over used summaries versus the ceiling.

    ``holds`` is decided by exact comparison of min_missing * p against
    ln2 * (bits + 1); ``bound`` is the float rendering of the ceiling.
    Summaries with empty preimage are not eligible: the guarantee is
    about a summary that actually receives probability mass.
    """
    table = support_table(dist, cap=cap)
    part = label_partition(table, scheme)
    best_label, best_missing = fewest_missing(table, part)
    ceiling = missing_bound(scheme.bits, dist.p)
    return {
        "min_missing": best_missing,
        "bound": ceiling.to_float(),
        "holds": LnScaled.of(best_missing) <= ceiling,
        "hypotheses_ok": dist.hypotheses_ok(),
        "labels_used": len(part),
        "argmin_label": best_label,
    }


@dataclass(frozen=True)
class TwoLabelingReport:
    """Worst case over every 2-labeling of the support."""

    support_size: int
    worst_min_missing: int
    worst_labeling_mask: int
    bound: float
    holds: bool


def worst_two_labeling(
    dist: RandomGraphDistribution,
    *,
    cap: int = DEFAULT_ENUM_CAP,
    labeling_cap: int = DEFAULT_LABELING_CAP,
) -> TwoLabelingReport:
    """Exhaust all 1-bit schemes; report the one maximizing min missing.

    Labelings are encoded as subsets S of the support (bit t set means
    support graph t gets summary "1").  The score of a labeling is the
    smaller missing count among its non-empty classes.
    """
    table = support_table(dist, cap=cap)
    t = len(table)
    if t > labeling_cap:
        raise TooLargeError(f"2^{t} labelings exceed the cap of 2^{labeling_cap}")
    m = len(table.edges)
    gmasks = table.masks.astype(np.uint32)

    union = np.zeros(1 << t, dtype=np.uint32)
    for i in range(t):
        blk = 1 << i
        union[blk : 2 * blk] = union[:blk] | gmasks[i]
    missing = (m - _popcount_u32(union)).astype(np.int64)

    idx = np.arange(1 << t)
    scores = np.minimum(missing[idx], missing[((1 << t) - 1) ^ idx])
    # a constant labeling has a single non-empty class: the whole support
    scores[0] = scores[-1] = missing[-1]
    worst = int(scores.max())
    ceiling = missing_bound(1, dist.p)
    return TwoLabelingReport(
        support_size=t,
        worst_min_missing=worst,
        worst_labeling_mask=int(scores.argmax()),
        bound=ceiling.to_float(),
        holds=LnScaled.of(worst) <= ceiling,
    )
