"""Tests for graph summaries and the missing-edge ceiling."""

import math
from fractions import Fraction

import pytest

from streamcolor.errors import StreamFormatError, TooLargeError
from streamcolor.graph import Graph, complete_graph
from streamcolor.lab.compression import (
    MAX_SUMMARY_BITS,
    CompressionScheme,
    check_compression_lemma,
    constant_scheme,
    fewest_missing,
    identity_scheme,
    label_partition,
    missing_bound,
    missing_edges,
    missing_graph,
    parity_scheme,
    partition,
    random_scheme,
    scheme_from_file,
    worst_two_labeling,
)
from streamcolor.lab.distribution import (
    RandomGraphDistribution,
    support_table,
)
from streamcolor.lab.lnscaled import LnScaled

HALF = Fraction(1, 2)


def triangle_dist(p=HALF, d=Fraction(10)):
    return RandomGraphDistribution(complete_graph(3), p, d)


def test_scheme_width_validation():
    with pytest.raises(ValueError):
        CompressionScheme(bits=0, label=lambda mask: "")
    with pytest.raises(ValueError):
        CompressionScheme(bits=MAX_SUMMARY_BITS + 1, label=lambda mask: "")
    bad = CompressionScheme(bits=2, label=lambda mask: "1")
    with pytest.raises(ValueError):
        bad.apply(0b1)
    nonbinary = CompressionScheme(bits=2, label=lambda mask: "2x")
    with pytest.raises(ValueError):
        nonbinary.apply(0b1)


def test_parity_scheme_labels():
    scheme = parity_scheme()
    assert scheme.apply(0) == "0"
    assert scheme.apply(0b1) == "1"
    assert scheme.apply(0b101) == "0"
    wide = parity_scheme(bits=3)
    assert wide.apply(0b100) == "001"


def test_identity_scheme_is_injective_at_full_width():
    base = complete_graph(3)
    dist = RandomGraphDistribution(base, HALF, Fraction(10))
    table = support_table(dist)
    scheme = identity_scheme(3)
    labels = {scheme.apply(mask) for mask in table.masks.tolist()}
    assert len(labels) == 8


def test_label_partition_counts_and_mass():
    dist = triangle_dist()
    table = support_table(dist)
    part = label_partition(table, parity_scheme())
    assert set(part) == {"0", "1"}
    assert part["0"].count == 4 and part["1"].count == 4
    assert part["0"].probability == HALF
    assert part["0"].smallest_mask == 0
    assert part["1"].smallest_mask == 1
    # two disjoint... any two distinct pairs cover all three edges
    assert part["0"].union_mask == 0b111
    assert part["1"].union_mask == 0b111


def test_missing_graph_single_edge_identity():
    base = Graph(2, [(1, 2)])
    dist = RandomGraphDistribution(base, Fraction(1, 3), Fraction(5))
    scheme = identity_scheme(1)
    hit = missing_graph(dist, scheme, "1")
    assert hit.edges == frozenset() and hit.preimage_size == 1
    miss = missing_graph(dist, scheme, "0")
    # only the empty graph announces "0", so the edge is missing
    assert miss.edges == {(1, 2)} and miss.preimage_size == 1


def test_missing_graph_unused_label_misses_everything():
    dist = triangle_dist()
    got = missing_graph(dist, constant_scheme(2), "11")
    assert got.preimage_size == 0
    assert got.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_constant_scheme_misses_nothing_on_full_support():
    dist = triangle_dist()
    report = check_compression_lemma(dist, constant_scheme(1))
    assert report["min_missing"] == 0
    assert report["labels_used"] == 1
    assert report["holds"]


def test_identity_collisions_after_truncation():
    # conditioned triangle support: empty graph and the three single edges;
    # 2-bit identity merges the empty graph with the mask-4 edge
    dist = triangle_dist(p=Fraction(3, 4), d=Fraction(1))
    table = support_table(dist)
    part = label_partition(table, identity_scheme(2))
    assert part["00"].count == 2
    assert part["00"].union_mask == 0b100
    got = missing_graph(dist, identity_scheme(2), "00")
    assert got.edges == {(1, 2), (1, 3)}


def test_fewest_missing_ties_go_to_the_smallest_label():
    # support: the empty graph and the three single edges; each class
    # below covers one edge and misses two
    table = support_table(triangle_dist(p=Fraction(3, 4), d=Fraction(1)))
    assert table.masks.tolist() == [0, 1, 2, 4]
    part = partition(table, ["11", "11", "10", "01"])
    assert fewest_missing(table, part) == ("01", 2)
    assert missing_edges(table, part["01"].union_mask) == {(1, 2), (1, 3)}
    # a smaller miss count beats a smaller label
    part = partition(table, ["1", "1", "1", "0"])
    assert fewest_missing(table, part) == ("1", 1)


def test_missing_bound_exact_form():
    assert missing_bound(1, HALF) == LnScaled(Fraction(4), 1)
    assert missing_bound(3, Fraction(2, 5)) == LnScaled(Fraction(10), 1)
    assert missing_bound(1, HALF).to_float() == pytest.approx(4 * math.log(2))


def test_check_compression_lemma_report_shape():
    report = check_compression_lemma(triangle_dist(), parity_scheme())
    assert set(report) == {
        "min_missing",
        "bound",
        "holds",
        "hypotheses_ok",
        "labels_used",
        "argmin_label",
    }
    assert report["min_missing"] == 0
    assert report["bound"] == pytest.approx(4 * math.log(2))
    assert report["holds"] is True


def test_lemma_check_against_bruteforce_over_schemes():
    # independent recomputation of min-missing for several schemes
    base = Graph(4, [(1, 2), (2, 3), (3, 4)])
    dist = RandomGraphDistribution(base, HALF, Fraction(10))
    table = support_table(dist)
    schemes = [
        parity_scheme(),
        identity_scheme(2),
        constant_scheme(2),
        random_scheme(2, seed=9),
    ]
    for scheme in schemes:
        by_label: dict[str, set] = {}
        for mask in table.masks.tolist():
            edges = set(table.graph(mask).edges_sorted())
            by_label.setdefault(scheme.apply(mask), set()).update(edges)
        want = min(len(set(base.edges_sorted()) - seen) for seen in by_label.values())
        report = check_compression_lemma(dist, scheme)
        assert report["min_missing"] == want
        assert report["labels_used"] == len(by_label)


def test_random_scheme_deterministic_per_seed():
    a = random_scheme(8, seed=3)
    b = random_scheme(8, seed=3)
    c = random_scheme(8, seed=4)
    table = support_table(triangle_dist())
    labels_a = [a.apply(m) for m in table.masks.tolist()]
    labels_b = [b.apply(m) for m in table.masks.tolist()]
    labels_c = [c.apply(m) for m in table.masks.tolist()]
    assert labels_a == labels_b
    assert labels_a != labels_c


def test_worst_two_labeling_matches_bruteforce():
    base = Graph(4, [(1, 2), (2, 3), (3, 4)])
    dist = RandomGraphDistribution(base, HALF, Fraction(10))
    table = support_table(dist)
    t = len(table)
    edge_sets = [set(table.graph(m).edges_sorted()) for m in table.masks.tolist()]
    all_edges = set(base.edges_sorted())

    def score(labeling: int) -> int:
        classes = [set(), set()]
        used = [False, False]
        for i in range(t):
            side = labeling >> i & 1
            classes[side].update(edge_sets[i])
            used[side] = True
        return min(
            len(all_edges - classes[side]) for side in (0, 1) if used[side]
        )

    want = max(score(lab) for lab in range(1 << t))
    got = worst_two_labeling(dist)
    assert got.worst_min_missing == want
    assert got.support_size == t
    assert score(got.worst_labeling_mask) == want
    assert got.holds == (LnScaled.of(want) <= missing_bound(1, HALF))


def test_worst_two_labeling_respects_cap():
    dist = RandomGraphDistribution(complete_graph(4), HALF, Fraction(10))
    with pytest.raises(TooLargeError):
        worst_two_labeling(dist, labeling_cap=5)


def test_scheme_from_file_roundtrip(tmp_path):
    path = tmp_path / "scheme.txt"
    path.write_text("# demo\n0 00\n1 01\n2 01\n4 11\n\n7 10\n")
    scheme = scheme_from_file(path)
    assert scheme.bits == 2
    assert scheme.apply(0) == "00"
    assert scheme.apply(4) == "11"
    with pytest.raises(ValueError):
        scheme.apply(5)  # no entry


def test_scheme_file_reads_encoded_surrogates_as_stream_files_do(tmp_path):
    # the stream reader accepts a UTF-8-encoded lone surrogate in a comment
    path = tmp_path / "surrogate.txt"
    path.write_bytes(b"# \xed\xa0\x80\n0 0\n1 1\n")
    assert scheme_from_file(path).apply(1) == "1"


def test_scheme_from_file_errors(tmp_path):
    bad_parts = tmp_path / "a.txt"
    bad_parts.write_text("0 01 extra\n")
    with pytest.raises(StreamFormatError):
        scheme_from_file(bad_parts)

    bad_hex = tmp_path / "b.txt"
    bad_hex.write_text("zz 01\n")
    with pytest.raises(StreamFormatError):
        scheme_from_file(bad_hex)

    bad_bits = tmp_path / "c.txt"
    bad_bits.write_text("0 01\n1 011\n")
    with pytest.raises(StreamFormatError):
        scheme_from_file(bad_bits)

    conflict = tmp_path / "d.txt"
    conflict.write_text("3 01\n3 10\n")
    with pytest.raises(StreamFormatError):
        scheme_from_file(conflict)

    empty = tmp_path / "e.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(StreamFormatError):
        scheme_from_file(empty)

    nonbinary = tmp_path / "f.txt"
    nonbinary.write_text("0 02\n")
    with pytest.raises(StreamFormatError):
        scheme_from_file(nonbinary)


def test_scheme_from_file_duplicate_consistent_is_fine(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("5 10\n5 10\n")
    scheme = scheme_from_file(path)
    assert scheme.apply(5) == "10"


def test_lemma_holds_across_random_schemes_under_hypotheses():
    # hypotheses satisfied: d >= base degree and d >= 4 ln(2n) / p
    n = 5
    base = complete_graph(n)
    p = Fraction(3, 4)
    d = Fraction(13)
    dist = RandomGraphDistribution(base, p, d)
    assert dist.hypotheses_ok()
    for seed in range(25):
        report = check_compression_lemma(dist, random_scheme(2, seed=seed))
        assert report["holds"], f"seed {seed}: {report}"
