"""Verification suites: references, scans, probes, identities, and replay."""

import functools
import hashlib
import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from specmatch import (
    FamilySpec,
    Graph,
    ParameterError,
    barrier_family,
    char_poly,
    complete_graph,
    corollary_comparison,
    distance_matrix,
    distance_spectral_radius,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    extremal_family,
    family_partition,
    has_fractional_pm_exhaustive,
    has_perfect_matching,
    identity_suite,
    is_connected,
    is_k_connected,
    join,
    lemma_suites,
    matches_clique_join,
    odd_components,
    parse_graph6,
    pm_threshold_scan,
    probe_extremal_bound,
    quotient_matrix,
    random_connected_graph,
    replay_violation,
    threshold_reference,
    verify_extremal_family,
    verify_ordering_chain,
    wiener_index,
    write_graph6,
)
import specmatch.harness as harness
from specmatch.graphs import _adjacency_matrices, canonical_parts
from specmatch.harness import CHECKS, SuiteReport, check_probe_sample
from specmatch.quotient import CertifiedRoot, family_quartic_root


def test_threshold_reference_closed_forms():
    root4 = threshold_reference(4)
    assert isinstance(root4, CertifiedRoot)
    assert abs(root4.value - (2 + math.sqrt(7))) < 1e-9
    root6 = threshold_reference(6)
    assert abs(root6.value - (7 + math.sqrt(57)) / 2) < 1e-9
    root8 = threshold_reference(8)
    assert abs(root8.value - (5 + math.sqrt(24))) < 1e-9
    root10 = threshold_reference(10)
    assert root10.width <= 1e-10
    assert root10.value > 2 + math.sqrt(7)


def test_threshold_root_is_isolated_once_per_order():
    import specmatch.quotient as quotient

    pm_threshold_scan(8, chunk=(3, 4096))
    misses = quotient._isolate_saturated_root.cache_info().misses
    again = pm_threshold_scan(8, chunk=(5, 4096))
    root = threshold_reference(8)
    assert quotient._isolate_saturated_root.cache_info().misses == misses
    assert again.extras["reference_mu"] == [float(root.lo), float(root.hi)]


def test_threshold_reference_validation():
    for n in (-2, 0, 2, 3, 5, 65):
        with pytest.raises(ParameterError):
            threshold_reference(n)
    # past the graph cap the root still needs no graph
    for n in (66, 100):
        root = threshold_reference(n)
        assert root.lo < root.hi and root.width <= 1e-10


def _reference_graph(n):
    # the threshold graph built by joins and unions, with its equitable
    # partition: K_{n/2-1} v (n/2+1)K_1 for n <= 8, else K_1 v (K_{n-3} u 2K_1)
    if n <= 8:
        hub = n // 2 - 1
        g = join(complete_graph(hub), empty_graph(n // 2 + 1))
        return g, [list(range(hub)), list(range(hub, n))]
    g = join(complete_graph(1), disjoint_union(complete_graph(n - 3), empty_graph(2)))
    return g, [[0], list(range(1, n - 2)), [n - 2, n - 1]]


def test_threshold_reference_is_the_graph_route_root():
    # the graph-free root brackets the root of the threshold graph's distance
    # quotient inside [2W/n, max transmission], and the graph's eigensolve
    for n in range(4, 65, 2):
        g, cells = _reference_graph(n)
        assert not has_perfect_matching(g) and is_connected(g)
        dist = distance_matrix(g)
        poly = char_poly(quotient_matrix(dist.tolist(), cells))
        root = threshold_reference(n)
        assert Fraction(int(dist.sum()), n) <= root.lo < root.hi <= int(dist.sum(axis=1).max())
        assert poly(root.lo) <= 0 < poly(root.hi) or poly(root.hi) == 0, n
        assert root.lo - 1e-9 <= np.linalg.eigvalsh(dist).max() <= root.hi + 1e-9, n
        if n >= 10:
            ref = parse_graph6(harness._scan_constants(n)[0])
            assert matches_clique_join(ref, *harness._reference_parts(n))
            assert not has_perfect_matching(ref)
    # the brackets the graph quotient's Descartes bisection isolated, to the bit
    assert (threshold_reference(8).lo, threshold_reference(8).hi) == (
        Fraction(170063172617, 17179869184),
        Fraction(340126345237, 34359738368),
    )
    assert (threshold_reference(64).lo, threshold_reference(64).hi) == (
        Fraction(2405123207203187, 35184372088832),
        Fraction(300640400900631, 4398046511104),
    )
    # the layout of the labeled scan's reference is unchanged
    for n, g6 in ((4, "Cs"), (6, "E}r?"), (8, "G~zfF?")):
        assert harness._scan_constants(n)[0] == g6 == write_graph6(_reference_graph(n)[0])


def test_verify_extremal_family_passes():
    report = verify_extremal_family(14, 1)
    assert report.passed
    assert report.cases == 7
    assert report.extras["certificate"] == {"vertices": [0], "odd_components": 3}
    assert report.extras["exhaustive_deficiency"] == 2
    est_lo = report.extras["mu_estimate"][1]
    root_hi = report.extras["quartic_root"][2]
    assert abs(est_lo - root_hi) < 1e-6

    # the exhaustive oracles run up to their cap, n = 16, and not above it
    report16 = verify_extremal_family(16, 1)
    assert report16.passed and report16.cases == 7
    assert report16.extras["exhaustive_deficiency"] == 2
    report22 = verify_extremal_family(22, 2)
    assert report22.passed
    assert report22.cases == 6
    assert "exhaustive_deficiency" not in report22.extras
    assert report22.extras["certificate"]["vertices"] == [0, 1]


def test_verify_extremal_family_every_admissible_order():
    # k universal vertices settle both connectivity tests at once, even at k = 7
    for k in range(1, 8):
        for n in range(8 * k + 6, 65, 2):
            t0 = time.perf_counter()
            report = verify_extremal_family(n, k)
            assert report.passed, (n, k)
            assert time.perf_counter() - t0 < 1.0, (n, k)


def test_verify_extremal_family_validation():
    with pytest.raises(ParameterError):
        verify_extremal_family(12, 1)  # below 8k+6
    with pytest.raises(ParameterError):
        verify_extremal_family(15, 1)
    with pytest.raises(ParameterError):
        verify_extremal_family(22, 3)


def test_verify_extremal_family_report_shape():
    report = verify_extremal_family(14, 1)
    payload = report.to_dict()
    assert payload["suite"] == "theorem13-family"
    assert payload["passed"] is True
    assert "seconds" in payload
    assert "seconds" not in report.to_dict(include_timing=False)


def test_ordering_chain_equality_case():
    report = verify_ordering_chain(FamilySpec(14, 1, (1, 3, 9)), k=1)
    assert report.passed
    assert report.cases == 1
    assert report.extras["equality_case"] is True


def test_ordering_chain_strict_cases():
    report = verify_ordering_chain(FamilySpec(18, 2, (3, 3, 3, 7)), k=2)
    assert report.passed
    assert report.cases == 1
    assert report.extras["equality_case"] is False
    assert report.extras["mu"]["given"] > report.extras["mu"]["canonical"]

    # hub strictly larger than the connectivity target adds the threshold leg
    report = verify_ordering_chain(FamilySpec(22, 2, (1, 1, 3, 15)), k=1)
    assert report.passed
    assert report.cases == 2
    assert report.extras["equality_case"] is True
    assert report.extras["mu"]["canonical"] > report.extras["mu"]["threshold"]

    report = verify_ordering_chain(FamilySpec(22, 2, (1, 3, 3, 13)), k=1)
    assert report.passed
    assert report.cases == 2
    assert report.extras["equality_case"] is False


def test_threshold_graphs_are_read_off_their_exact_roots(monkeypatch):
    # every graph of the chain and of the corollary is a saturated spec, ordered
    # on its quotient against the other's exact root: nothing is eigensolved
    import specmatch.harness as harness

    calls = []
    solve = harness.distance_spectral_radius
    monkeypatch.setattr(
        harness, "distance_spectral_radius", lambda *a, **kw: calls.append(a) or solve(*a, **kw)
    )
    assert verify_ordering_chain(FamilySpec(22, 2, (1, 1, 3, 15)), k=1).passed
    assert len(calls) == 0
    assert corollary_comparison(14, 40).passed
    assert len(calls) == 0


def test_spec_orderings_run_with_no_eigensolver(monkeypatch):
    import specmatch.harness as harness

    def no_solve(*args, **kwargs):
        raise AssertionError("a hub-and-cliques graph was eigensolved")

    monkeypatch.setattr(harness, "distance_spectral_radius", no_solve)
    for spec, k in (
        (FamilySpec(18, 2, (3, 3, 3, 7)), 2),
        (FamilySpec(22, 2, (1, 1, 3, 15)), 1),
        (FamilySpec(22, 2, (1, 3, 3, 13)), 1),
    ):
        assert verify_ordering_chain(spec, k=k).passed
    assert corollary_comparison(14, 64).passed
    assert lemma_suites(0, monotonicity_graphs=0, ordering_specs=50).passed


def test_ordering_chain_validation():
    with pytest.raises(ParameterError):
        verify_ordering_chain(FamilySpec(14, 1, (1, 3, 9)), k=2)  # k > s
    with pytest.raises(ParameterError):
        verify_ordering_chain(FamilySpec(14, 2, (3, 9)), k=1)  # q < s+2
    with pytest.raises(ParameterError):
        verify_ordering_chain(FamilySpec(14, 1, (1, 1, 3, 9)), k=1)  # part s+1 is 1
    with pytest.raises(ParameterError, match="6k\\+6"):
        verify_ordering_chain(FamilySpec(10, 2, (1, 1, 3, 3)), k=1)  # threshold leg, n < 6k+6
    # the same n admits a chain with no threshold leg, and any leg when explored
    assert verify_ordering_chain(FamilySpec(10, 1, (1, 3, 5)), k=1).passed
    report = verify_ordering_chain(FamilySpec(10, 2, (1, 1, 3, 3)), k=1, exploratory=True)
    assert report.extras["exploratory"] and not report.passed
    assert verify_ordering_chain(FamilySpec(12, 2, (1, 1, 3, 5)), k=1).passed  # n = 6k+6


def test_scan_n4_exhaustive_counts():
    report = pm_threshold_scan(4)
    assert report.passed
    assert report.cases == 38
    assert report.extras["masks_scanned"] == 64
    assert report.extras["edge_cutoff"] == 2
    assert report.extras["no_pm_connected"] == 4
    assert report.extras["extremal_matches"] == 4
    assert report.extras["eigensolves"] == 0
    assert report.extras["reference_g6"] == "Cs"


def test_scan_n4_chunks_partition_the_work():
    full = pm_threshold_scan(4)
    merged = {}
    cases = 0
    for i in range(3):
        part = pm_threshold_scan(4, chunk=(i, 3))
        assert part.passed
        cases += part.cases
        for key in ("connected", "no_pm_connected", "extremal_matches", "eigensolves"):
            merged[key] = merged.get(key, 0) + part.extras[key]
    assert cases == full.cases
    for key, val in merged.items():
        assert val == full.extras[key]


def test_scan_n6_exhaustive_counts():
    report = pm_threshold_scan(6)
    assert report.passed
    assert report.cases == 26704
    assert report.extras["no_pm_connected"] == 2406
    assert report.extras["extremal_matches"] == 15
    assert report.extras["eigensolves"] == 0
    pruned = report.extras["wiener_mask_pruned"] + report.extras["wiener_exact_pruned"]
    assert pruned == 2406 - 15


def _per_graph_counts(n, chunk, edge_cutoff):
    # the reference the scan's table prefilter must match: one graph at a time
    connected = no_pm = light = 0
    for g in enumerate_graphs(n, chunk=chunk):
        if is_connected(g):
            connected += 1
            if not has_perfect_matching(g):
                no_pm += 1
                light += g.edge_count() <= edge_cutoff
    return connected, no_pm, light


def _scan_counts(report):
    x = report.extras
    return x["connected"], x["no_pm_connected"], x["wiener_mask_pruned"]


def test_scan_n6_unaligned_chunks_match_per_graph_counts():
    for i in range(7):
        report = pm_threshold_scan(6, chunk=(i, 7))
        assert report.passed
        expected = _per_graph_counts(6, (i, 7), report.extras["edge_cutoff"])
        assert _scan_counts(report) == expected


def test_scan_n8_ranges_across_table_rows_match_per_graph_counts():
    # ~1000-mask ranges that straddle a multiple of 2^13, where the high
    # (inner-graph) half of the mask changes inside the range
    total, parts = 1 << 28, 268435
    for boundary in (5 << 13, 12345 << 13, 1 << 27, (1 << 28) - (3 << 13)):
        i = boundary * parts // total
        start, stop = total * i // parts, total * (i + 1) // parts
        assert start < boundary < stop and start % (1 << 13)
        report = pm_threshold_scan(8, chunk=(i, parts))
        assert report.passed
        assert report.extras["masks_scanned"] == stop - start
        expected = _per_graph_counts(8, (i, parts), report.extras["edge_cutoff"])
        assert _scan_counts(report) == expected


def test_scan_n8_whole_block_equals_its_unaligned_parts():
    # chunk (c, 1024) is one untrimmed 2^18-mask block, the path the benchmark
    # times; its thirds end 5,461 and 2,730 masks into a table row, on the
    # trimmed path the per-graph tests pin
    for c in (0, 417, 1023):
        whole = pm_threshold_scan(8, chunk=(c, 1024))
        parts = [pm_threshold_scan(8, chunk=(3 * c + j, 3072)) for j in range(3)]
        assert whole.passed and all(part.passed for part in parts)
        assert whole.extras["no_pm_connected"] > 0
        assert whole.cases == sum(part.cases for part in parts)
        for key, val in whole.extras.items():
            if key not in ("reference_g6", "reference_mu", "edge_cutoff"):
                assert val == sum(part.extras[key] for part in parts), key


def _range_counts(n, start, stop, cutoff):
    # per-graph reference over the masks [start, stop), as _per_graph_counts
    pairs = list(itertools.combinations(range(n), 2))
    connected = no_pm = light = 0
    for mask in range(start, stop):
        g = harness._graph_from_mask(n, mask, pairs)
        if is_connected(g):
            connected += 1
            if not has_perfect_matching(g):
                no_pm += 1
                light += g.edge_count() <= cutoff
    return connected, no_pm, light


def test_packed_scan_ranges_cut_inside_words_match_per_graph_counts():
    # n = 8 rows are 8192 masks in 128 words: ranges that start or stop 1, 63,
    # 64 or 65 masks into a row, and one inside a single word, on rows from a
    # sparse to the complete inner graph
    m_max = harness._scan_constants(8)[2]
    no_pm = light = 0
    for row in (5, 12345, 20000, (1 << 15) - 1):
        base = row << 13
        ranges = [(base + off, base + off + 200) for off in (1, 63, 64, 65)]
        ranges += [(base + off - 200, base + off) for off in (1, 63, 64, 65)]
        for start, stop in ranges + [(base + 70, base + 120)]:
            got = SuiteReport("theorem11", {})
            harness._scan_range(got, 8, start, stop, m_max)
            assert got.violations == []
            expected = _range_counts(8, start, stop, m_max)
            assert _scan_counts(got) == expected
            no_pm, light = no_pm + expected[1], light + expected[2]
    assert 0 < light < no_pm  # both the mask prune and the chain are reached


def test_packed_scan_edge_cutoffs_clip_at_both_ends():
    # heavy_low is indexed by the cutoff minus the inner edge count, clipped
    # to 0..2n-3: the inner graph 20000 has 5 edges, so these cutoffs index
    # below, inside and above the table
    start = (20000 << 13) + 63
    for cutoff in (-1, 3, 12, 25):
        got = SuiteReport("theorem11", {})
        harness._scan_range(got, 8, start, start + 200, cutoff)
        assert got.violations == []
        expected = _range_counts(8, start, start + 200, cutoff)
        assert _scan_counts(got) == expected


def test_scan_n4_single_mask_chunks_match_per_graph_counts():
    for mask in range(64):
        report = pm_threshold_scan(4, chunk=(mask, 64))
        assert report.passed
        expected = _per_graph_counts(4, (mask, 64), report.extras["edge_cutoff"])
        assert _scan_counts(report) == expected


def test_packed_scan_tables_have_zero_padding():
    # a row holds 2^(2n-3) low values: 32 bits of one word at n = 4
    for n in (4, 6, 8):
        _, connected, sizes, unions, _, heavy_low, _ = harness._scan_tables(n)
        row_len = 1 << (2 * n - 3)
        for table in (connected, unions, heavy_low):
            assert table.dtype == np.uint64 and table.shape[1] == -(-row_len // 64)
            bits = np.unpackbits(table.view(np.uint8), axis=1, bitorder="little")
            assert not bits[:, row_len:].any()
        assert sizes.tolist() == [int(b.sum()) for b in np.unpackbits(connected.view(np.uint8), axis=1)]


def test_scan_runs_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity is Linux-only: the scan must not reach for it
    runs = ((4, (0, 1)), (6, (0, 1)), (8, (15, 1024)))
    expected = [pm_threshold_scan(n, chunk=c).to_dict(include_timing=False) for n, c in runs]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for (n, chunk), report in zip(runs, expected):
        assert pm_threshold_scan(n, chunk=chunk).to_dict(include_timing=False) == report


def test_scan_progress_counts_up_to_the_masks_scanned():
    # a ~1000-mask n=8 range that straddles the table row 5 << 13
    straddling = ((5 << 13) * 268435 >> 28, 268435)
    runs = [(6, (i, 7)) for i in range(7)] + [(8, (15, 1024)), (8, straddling)]
    for n, chunk in runs:
        calls = []
        report = pm_threshold_scan(n, chunk=chunk, progress=lambda *a: calls.append(a))
        scanned = report.extras["masks_scanned"]
        done = [d for d, _ in calls]
        assert calls and all(total == scanned for _, total in calls)
        assert done == sorted(done) and done[-1] == scanned


def test_scan_extras_are_plain_json_numbers():
    for n, chunk in ((4, (0, 1)), (6, (0, 1)), (8, (15, 1024))):
        report = pm_threshold_scan(n, chunk=chunk)
        numbers = [v for v in report.extras.values() if isinstance(v, (int, np.integer))]
        assert numbers and all(type(v) is int for v in numbers)
        assert type(report.cases) is int
        json.dumps(report.to_dict())


def test_scan_validation():
    for n in (7, 11, 2, 66):
        with pytest.raises(ParameterError, match="4 <= n <= 64"):
            pm_threshold_scan(n)
    with pytest.raises(ParameterError):
        pm_threshold_scan(4, chunk=(3, 3))
    with pytest.raises(ParameterError, match="one chunk"):
        pm_threshold_scan(10, chunk=(3, 3))
    with pytest.raises(TypeError):
        pm_threshold_scan(10, variant="large")


def _saturated_specs(n):
    return list(harness._specs(n))


def test_ordering_sweep_is_every_noncanonical_spec_by_order():
    # an independent count: multisets of q >= s+2 odd parts summing to n - s,
    # at most s of them 1, other than the canonical shape, against the sweep
    # through n = 20 (which a default lemma_suites run decides whole); past
    # s ones every part is >= 3, so q <= s + (n - 2s) / 3
    def brute(n):
        specs = []
        for s in range(1, n // 2):
            for q in range(s + 2, s + (n - 2 * s) // 3 + 1):
                for parts in itertools.combinations_with_replacement(range(1, n, 2), q):
                    if sum(parts) == n - s and parts.count(1) <= s:
                        if parts != canonical_parts(n, s, q):
                            specs.append((n, s, parts))
        return sorted(specs)

    swept = list(itertools.takewhile(lambda spec: spec[0] <= 20, harness._ordering_sweep()))
    assert swept == sorted(swept)
    counts = [sum(1 for spec in swept if spec[0] == n) for n in range(10, 21, 2)]
    assert counts == [1, 3, 7, 14, 25, 42]
    assert swept == [spec for n in range(4, 21, 2) for spec in brute(n)]


@functools.cache
def _partitions(m, r):
    # partitions of m into at most r parts
    if m == 0:
        return 1
    if r == 0:
        return 0
    return _partitions(m, r - 1) + (_partitions(m - r, r) if m >= r else 0)


def test_ordering_sweep_size_is_an_independent_count():
    # q odd parts summing to n - s, j <= s of them 1: the other q - j are
    # 3 + 2a with the a a partition of (n - s - 3q + 2j) / 2 into at most q - j
    # parts, and q = n - s mod 2; the canonical shape is one of them when its
    # largest part n - 3q + s + 3 is at least 3
    total = 0
    for n in range(10, harness.VERTEX_CAP + 1, 2):
        for s in range(1, n // 2):
            for q in range(s + 2, n - s + 1, 2):
                for j in range(min(s, q) + 1):
                    if (twice := n - s - 3 * q + 2 * j) >= 0:
                        total += _partitions(twice // 2, q - j)
                total -= n + s >= 3 * q
    assert total == harness._ORDERING_SWEEP_SIZE == 174_877
    assert sum(1 for _ in harness._ordering_sweep()) == harness._ORDERING_SWEEP_SIZE


def test_lemma_suites_reject_more_ordering_specs_than_the_sweep_has(monkeypatch):
    def decided(*args, **kwargs):
        raise AssertionError("decided a case before checking ordering_specs")

    for name in ("corollary_comparison", "_check_family_ordering", "_edge_stack"):
        monkeypatch.setattr(harness, name, decided)
    with pytest.raises(ParameterError, match="ordering_specs <= 174877, got 0, 174878"):
        lemma_suites(0, 0, 174_878)


def _merged_cells(spec):
    # the hub, then all parts of one order as one cell, orders ascending
    blocks = family_partition(spec)
    return [blocks[0]] + [
        [v for block, m in zip(blocks[1:], spec.parts) if m == size for v in block]
        for size in sorted(set(spec.parts))
    ]


def test_saturated_quotient_and_verdict_match_the_graph():
    # every spec up to n = 14: the merged quotient is the distance quotient of
    # the graph itself, and the exact verdict against a bracket agrees with
    # the graph's float bracket wherever the brackets separate
    decided = {"greater": 0, "less": 0}
    for n in range(4, 15, 2):
        root = threshold_reference(n)
        for s, parts in _saturated_specs(n):
            spec = FamilySpec(n, s, parts)
            g = barrier_family(spec)
            rows = harness._saturated_quotient(s, parts)
            q = quotient_matrix(distance_matrix(g).tolist(), _merged_cells(spec))
            assert [[Fraction(x) for x in row] for row in rows] == [list(r) for r in q]
            est = distance_spectral_radius(g)
            points = [Fraction(t) for t in range(int(est.lo) - 1, int(est.hi) + 3)]
            for ref in [root] + [CertifiedRoot(float(t), t, t) for t in points]:
                if est.lo > ref.hi:
                    assert harness._minor_certificate(rows, ref.hi) is not None
                    decided["greater"] += 1
                elif est.hi < ref.lo:
                    assert harness._minor_certificate(rows, ref.lo) is None
                    decided["less"] += 1
    assert all(count > 50 for count in decided.values()), decided


def test_saturated_reduction_names_the_scan_minimizer():
    for n, chunk in ((4, (0, 1)), (6, (0, 1)), (8, (15, 1024))):
        report = SuiteReport("theorem11", {"n": n})
        harness._saturated_order_scan(report, n, threshold_reference(n))
        assert report.passed and report.cases == len(_saturated_specs(n))
        assert report.extras == {"certified_above": report.cases - 1, "threshold_matches": 1}
        scan_reference = parse_graph6(pm_threshold_scan(n, chunk=chunk).extras["reference_g6"])
        assert matches_clique_join(scan_reference, *harness._reference_parts(n))


def test_scan_above_eight_is_the_saturated_reduction():
    report = pm_threshold_scan(10)
    assert report.to_dict(include_timing=False) == {
        "suite": "theorem11",
        "params": {"n": 10, "chunk": "0/1"},
        "cases": 7,
        "passed": True,
        "violations": [],
        "extras": {
            "reference_g6": "Ise[{}^fw",
            "reference_mu": report.extras["reference_mu"],
            "certified_above": 6,
            "threshold_matches": 1,
        },
    }
    root = threshold_reference(10)
    assert report.extras["reference_mu"] == [float(root.lo), float(root.hi)]


def test_saturated_violation_replays_by_the_exact_pivot(monkeypatch):
    # a reference bracket between the two smallest non-threshold radii at n = 10
    # fails the smallest spec (and the threshold spec, which lies below it)
    threshold = harness._reference_parts(10)
    radii = sorted(
        (distance_spectral_radius(barrier_family(FamilySpec(10, s, parts))).value, s, parts)
        for s, parts in _saturated_specs(10)
        if (s, parts) != threshold
    )
    t = Fraction((radii[0][0] + radii[1][0]) / 2)
    report = SuiteReport("theorem11", {"n": 10})
    harness._saturated_order_scan(report, 10, CertifiedRoot(float(t), t, t))
    assert report.cases == 7 and report.extras == {"certified_above": 5, "threshold_matches": 0}
    failed = {(v["data"]["s"], tuple(v["data"]["parts"])): v for v in report.violations}
    _, s, parts = radii[0]
    assert set(failed) == {threshold, (s, parts)}
    violation = failed[(s, parts)]
    assert violation["check"] == "saturated-order"
    assert parse_graph6(violation["witness"]) == barrier_family(FamilySpec(10, s, parts))
    assert violation["data"]["reference"] == [str(t), str(t)]

    pivots = []
    certificate = harness._minor_certificate
    monkeypatch.setattr(
        harness, "_minor_certificate", lambda *a: pivots.append(a) or certificate(*a)
    )
    monkeypatch.setattr(harness, "distance_spectral_radius", None)  # no eigensolve
    assert replay_violation(violation) is True and pivots
    del violation["data"]["reference"]  # the true threshold root
    assert replay_violation(violation) is False


def test_probe_within_proven_range():
    report = probe_extremal_bound(14, 1, trials=60, seed=2)
    assert report.passed
    assert report.cases == 60
    assert report.extras["attempts"] >= 60
    assert set(report.extras["rejected"]) == {
        "template", "connectivity", "fractional", "perfect",
    }
    assert "exploratory" not in report.extras


# sha256 of the graph6 strings of the first 200 draws for seeds 0-2, recorded
# from the edge-list sampler that the bit-row one replaced
SAMPLER_DIGESTS = {
    (14, 1): "be6fdce70a23a6956b28f8a87fa87d2ef4472a146af323e04a1c97510c1e82be",
    (22, 2): "ec62d9659efb63975b00b4d4a52227f85fc5b15506ee4ef3cf7ad393058d2fe4",
}


@pytest.mark.parametrize("n,k", sorted(SAMPLER_DIGESTS))
def test_barrier_sampler_draws_are_frozen(n, k):
    lines = []
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(200):
            sample = harness._random_barrier_graph(rng, n, k)
            if sample is None:
                lines.append("-")
                continue
            g, hub = sample
            lines.append(write_graph6(g))
            # the hub is a Tutte set of the sample: vertices 0..s-1, s >= k
            assert hub == (1 << hub.bit_count()) - 1 and hub.bit_count() >= k
            assert odd_components(g, hub) >= hub.bit_count() + 2
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SAMPLER_DIGESTS[n, k]


def test_probe_accepts_only_samples_meeting_the_hypotheses(monkeypatch):
    accepted = []

    def collect(g, *args, **kwargs):
        accepted.append(g)
        return check_probe_sample(g, *args, **kwargs)

    blossom_calls = []
    monkeypatch.setattr(harness, "check_probe_sample", collect)
    monkeypatch.setattr(harness, "has_perfect_matching", blossom_calls.append)
    report = probe_extremal_bound(14, 1, 300, seed=4)
    assert report.passed and len(accepted) == report.cases == 300
    assert blossom_calls == []  # every template hub certified its sample
    for g in accepted:
        assert not has_perfect_matching(g)
        assert is_k_connected(g, 1)
    # the exhaustive oracle costs about 40 ms a graph at n = 14
    for g in accepted[::10]:
        assert has_fractional_pm_exhaustive(g)


def test_probe_asks_the_blossom_when_the_hub_does_not_certify(monkeypatch):
    # hand the probe an empty hub: the blossom must decide every sample, and
    # the K_14 slipped in every third draw has a perfect matching
    draw = harness._random_barrier_graph
    draws = 0
    blossom_calls = []

    def no_barrier(rng, n, k):
        nonlocal draws
        draws += 1
        if draws % 3 == 0:
            return complete_graph(n), 0
        sample = draw(rng, n, k)
        return None if sample is None else (sample[0], 0)

    def blossom(g):
        blossom_calls.append(g)
        return has_perfect_matching(g)

    monkeypatch.setattr(harness, "_random_barrier_graph", no_barrier)
    monkeypatch.setattr(harness, "has_perfect_matching", blossom)
    report = probe_extremal_bound(14, 1, 40, seed=6)
    assert report.passed and report.cases == 40
    assert report.extras["rejected"]["perfect"] == draws // 3 > 0
    templated = draws - report.extras["rejected"]["template"]
    assert len(blossom_calls) == templated - report.extras["rejected"]["connectivity"]


def test_probe_validation():
    with pytest.raises(ParameterError):
        probe_extremal_bound(10, 1, trials=5)  # below 8k+6 without the flag
    with pytest.raises(ParameterError):
        probe_extremal_bound(13, 1, trials=5)
    with pytest.raises(ParameterError):
        probe_extremal_bound(14, 0, trials=5)


def test_suites_reject_empty_trials():
    # a verifier must not pass with nothing checked
    for trials in (0, -5):
        with pytest.raises(ParameterError, match="trials"):
            probe_extremal_bound(14, 1, trials=trials)


def test_lemma_and_identity_suites_reject_counts_that_check_nothing():
    for kwargs in (
        {"ks": (), "k_top": 0},
        {"ks": (1,), "grid_span": -2, "k_top": 0},
        {"ks": (0,)},
        {"ks": (1, -1)},
        {"k_top": -1},
    ):
        with pytest.raises(ParameterError):
            identity_suite(**kwargs)
    for kwargs in ({"monotonicity_graphs": -1}, {"ordering_specs": -4}):
        with pytest.raises(ParameterError, match="counts >= 0"):
            lemma_suites(0, **kwargs)
    # the smallest suites still run and check something
    assert identity_suite(ks=(), k_top=1).cases == 2
    assert identity_suite(ks=(1,), grid_span=0, k_top=0).cases > 0
    small = lemma_suites(0, 0, 0, (14, 14))
    assert small.passed and small.cases == 1


def test_reduction_scan_rejects_chunks():
    # the reduction above n = 8 decides every spec in one pass: a chunk would
    # split nothing
    with pytest.raises(ParameterError, match="one chunk"):
        pm_threshold_scan(10, chunk=(1, 4))


def test_scan_rejects_thread_counts_other_than_one():
    # both the exhaustive scan and the reduction run in one process
    for n in (4, 8, 10):
        for threads in (0, 2, -2):
            with pytest.raises(ParameterError, match="one process"):
                pm_threshold_scan(n, threads=threads)


def test_probe_exploratory_finds_genuine_violations():
    # below the proven range the bound actually fails; the recorded witnesses
    # must replay as real violations, not artifacts of loose tolerances
    report = probe_extremal_bound(10, 1, trials=150, seed=3, exploratory=True)
    assert report.extras["exploratory"] is True
    assert not report.passed
    violation = report.violations[0]
    assert violation["check"] == "probe-order"
    assert replay_violation(violation) is True
    # each is certified: the exact bracket lies wholly below the threshold root
    assert all(v["data"]["certified"] is True for v in report.violations)


@pytest.mark.parametrize("n,k,trials", [(14, 1, 300), (22, 2, 200), (10, 1, 300)])
def test_probe_floor_decides_as_the_full_bracket(monkeypatch, n, k, trials):
    # the exact floor 2W/n decides most samples with one radius call; the
    # verdict is the one the default-tol bracket gives, and a violation still
    # carries that bracket
    samples = []
    monkeypatch.setattr(
        harness, "check_probe_sample", lambda g, *a: samples.append(g) or check_probe_sample(g, *a)
    )
    report = probe_extremal_bound(n, k, trials, seed=9, exploratory=n < 8 * k + 6)
    monkeypatch.undo()
    calls = []

    def counted(g, *args):
        calls.append(args)
        return distance_spectral_radius(g, *args)

    monkeypatch.setattr(harness, "distance_spectral_radius", counted)
    ref = family_quartic_root(n, k)
    one_call = violations = 0
    for g in samples:
        calls.clear()
        violation = check_probe_sample(g, k, ref)
        above = distance_spectral_radius(g).lo > ref.hi
        assert (violation is None) == (above or matches_clique_join(g, k, canonical_parts(n, k)))
        if len(calls) == 1:
            assert 2 * wiener_index(g) > g.n * ref.hi
            one_call += 1
        else:
            assert calls == [(math.inf,), ()]
        if violation is not None:
            lo, hi = map(Fraction, violation["data"]["estimate_exact"])
            assert hi - lo <= Fraction(1e-10) and replay_violation(violation)
            violations += 1
    assert len(samples) == report.cases == trials
    stages = (report.extras["floor_decided"], report.extras["eigensolves"])
    assert stages == (one_call, trials - one_call)
    assert violations == len(report.violations)
    if n == 10:  # below the proven range both stages decide, and some samples fail
        assert 0 < one_call < trials and violations > 0


def test_check_probe_sample_contract():
    ref = family_quartic_root(14, 1)
    assert check_probe_sample(extremal_family(14, 1), 1, ref) is None
    above = barrier_family(FamilySpec(14, 1, (1, 5, 7)))
    assert check_probe_sample(above, 1, ref) is None
    below = complete_graph(14)
    violation = check_probe_sample(below, 1, ref)
    assert violation["check"] == "probe-order"
    assert violation["data"]["estimate"][1] < float(ref.lo)
    # K_14's radius is 13 exactly, far below the root, so the violation is certified
    assert violation["data"]["estimate_exact"] == ["13", "13"]
    assert violation["data"]["certified"] is True


def test_replay_rejects_malformed_records():
    with pytest.raises(ParameterError):
        replay_violation({"check": "unheard-of", "witness": "Cs", "data": {}})
    with pytest.raises(ParameterError):
        replay_violation({"check": "probe-order", "witness": None, "data": {}})
    # 5 singletons and a 5-clique leave the 6-part canonical shape a clique of -3
    data = {"n": 11, "s": 1, "parts": [1, 1, 1, 1, 1, 5]}
    with pytest.raises(ParameterError):
        replay_violation({"check": "family-ordering", "witness": "Cs", "data": data})
    # an edge record names two distinct vertices of its witness
    for edge in ([2, 2], [0, 4], [-1, 2]):
        record = {"check": "edge-monotonicity", "witness": "Cs", "data": {"edge": edge}}
        with pytest.raises(ParameterError, match="invalid edge"):
            replay_violation(record)


def test_edge_monotonicity_rejects_an_edge_already_in_g():
    # "adding" an edge G has leaves G unchanged: no claim of the lemma, so no
    # violation either; the suite's stack holds only missing edges
    g = extremal_family(14, 1)
    record = {"check": "edge-monotonicity", "witness": write_graph6(g), "data": {"edge": [0, 1]}}
    with pytest.raises(ParameterError, match="invalid edge"):
        replay_violation(record)
    with pytest.raises(ParameterError, match="invalid edge"):
        harness._check_edge_monotonicity(g, (1, 0))
    assert harness._check_edge_monotonicity(g, (1, 2)) is None


def test_replayers_return_false_on_healthy_witnesses():
    star6 = join(complete_graph(1), empty_graph(5))
    records = [
        {
            "check": "threshold-order",
            "witness": write_graph6(star6),
            "data": {"n": 6, "tol": 1e-9},
        },
        {
            "check": "probe-order",
            "witness": write_graph6(extremal_family(14, 1)),
            "data": {"n": 14, "k": 1, "tol": 1e-8},
        },
        {
            "check": "edge-monotonicity",
            "witness": write_graph6(Graph(4, [(0, 1), (1, 2), (2, 3)])),
            "data": {"edge": [0, 2], "tol": 1e-9},
        },
        {
            "check": "family-ordering",
            "witness": write_graph6(barrier_family(FamilySpec(14, 1, (1, 5, 7)))),
            "data": {"n": 14, "s": 1, "parts": [1, 5, 7], "tol": 1e-8},
        },
        {
            "check": "corollary-order",
            "witness": write_graph6(extremal_family(14, 1)),
            "data": {"n": 14, "tol": 1e-8},
        },
    ]
    for record in records:
        assert replay_violation(record) is False, record["check"]


_FRAC14 = extremal_family(14, 1)  # also the canonical shape for n=14, s=1
_ABOVE14 = barrier_family(FamilySpec(14, 1, (1, 5, 7)))
_PLAIN14 = barrier_family(FamilySpec(14, 1, (1, 1, 11)))
_P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])

# check -> (witness, data) of a record that must not replay as a violation
HEALTHY = {
    "exact-connectivity": (_FRAC14, {"k": 1}),
    "fractional-pm": (_FRAC14, {}),
    "tutte-certificate": (_FRAC14, {"k": 1}),
    "exhaustive-oracles": (_FRAC14, {}),
    "quartic-agreement": (_FRAC14, {"k": 1}),
    "wiener-closed-form": (_FRAC14, {"k": 1}),
    "radius-floor": (_FRAC14, {"k": 1}),
    "chain-equality": (_FRAC14, {"n": 14, "s": 1, "parts": [1, 3, 9]}),
    "chain-canonical": (_ABOVE14, {"n": 14, "s": 1, "parts": [1, 5, 7]}),
    "chain-threshold": (
        barrier_family(FamilySpec(22, 2, (1, 1, 3, 15))),
        {"n": 22, "s": 2, "k": 1},
    ),
    # K_6 has a perfect matching, so it lies outside the theorem's hypotheses
    "threshold-order": (complete_graph(6), {}),
    "saturated-order": (_ABOVE14, {"n": 14, "s": 1, "parts": [1, 5, 7]}),
    "probe-order": (_FRAC14, {"k": 1}),
    "corollary-order": (_FRAC14, {"n": 14}),
    "edge-monotonicity": (_P4, {"edge": [0, 2]}),
    "family-ordering": (_ABOVE14, {"n": 14, "s": 1, "parts": [1, 5, 7]}),
}

# check -> (witness, data) that fails: a wrong witness, or a degenerate record
# that compares a graph against itself
FAILING = {
    "exact-connectivity": (complete_graph(14), {"k": 1}),
    "fractional-pm": (join(complete_graph(1), empty_graph(3)), {}),
    "tutte-certificate": (complete_graph(4), {"k": 1}),
    "exhaustive-oracles": (complete_graph(4), {}),
    "quartic-agreement": (complete_graph(14), {"k": 1}),
    "wiener-closed-form": (complete_graph(14), {"k": 1}),
    "radius-floor": (complete_graph(14), {"k": 1}),
    # the equality case claimed for a graph that is not the canonical shape
    "chain-equality": (_ABOVE14, {"n": 14, "s": 1, "parts": [1, 3, 9]}),
    "chain-canonical": (_FRAC14, {"n": 14, "s": 1, "parts": [1, 5, 7]}),
    "chain-threshold": (extremal_family(22, 1), {"n": 22, "s": 2, "k": 1}),
    # the star K_1 v 5K_1, held against the order-8 threshold by
    # _foreign_threshold: at its own order no graph fails (Theorem 11)
    "threshold-order": (join(complete_graph(1), empty_graph(5)), {}),
    # a reference bracket far above the graph's radius
    "saturated-order": (_ABOVE14, {"n": 14, "s": 1, "parts": [1, 5, 7], "reference": ["99", "99"]}),
    "probe-order": (complete_graph(14), {"k": 1}),
    "corollary-order": (_PLAIN14, {"n": 14}),
    # a missing edge, on the stack that _lost_edge doctors: the lemma holds for
    # every missing edge of a connected graph, and one G has is rejected
    "edge-monotonicity": (_P4, {"edge": [0, 3]}),
    "family-ordering": (_FRAC14, {"n": 14, "s": 1, "parts": [1, 5, 7]}),
}


def test_check_table_covers_every_witness_check():
    assert len(CHECKS) == 16
    assert set(HEALTHY) == set(CHECKS) == set(FAILING)


def _foreign_threshold(monkeypatch):
    """Hold every threshold-order check against the threshold of two more
    vertices; the check reads the order from its graph, so no graph fails
    against its own order's threshold."""
    real = harness.threshold_reference
    monkeypatch.setattr(harness, "threshold_reference", lambda n: real(n + 2))


def _lost_edge(monkeypatch):
    """Drop an edge from 0 to the last vertex from its copy in _edge_stack, so
    that G + uv keeps D(G) and the edge-monotonicity check fails on it."""
    real = harness._edge_stack

    def lossy(g, edges=None):
        pairs, stack = real(g, edges)
        for i, edge in enumerate(pairs, 1):
            if edge == (0, g.n - 1):
                stack[i] = stack[0]
        return pairs, stack

    monkeypatch.setattr(harness, "_edge_stack", lossy)


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_table_replays(check, monkeypatch):
    _foreign_threshold(monkeypatch)
    _lost_edge(monkeypatch)
    g, data = HEALTHY[check]
    assert CHECKS[check](g, **data) is None
    record = {"check": check, "witness": write_graph6(g), "detail": "", "data": data}
    assert replay_violation(record) is False
    g, data = FAILING[check]
    violation = CHECKS[check](g, **data)
    assert violation["check"] == check
    assert parse_graph6(violation["witness"]) == g
    assert replay_violation(violation) is True


# records of the exact spec orderings that fail on the spec alone: a spec equal
# to a reference that admits no equality, or a witness that is not the graph
# of its spec
SPEC_FAILING = {
    "family-ordering": (_FRAC14, {"n": 14, "s": 1, "parts": [1, 3, 9]}, "not certified"),
    "chain-threshold": (extremal_family(22, 1), {"n": 22, "s": 1, "k": 1}, "not certified"),
    "saturated-order": (_FRAC14, {"n": 14, "s": 1, "parts": [1, 5, 7]}, "witness is not"),
}


@pytest.mark.parametrize("check", sorted(SPEC_FAILING))
def test_spec_orderings_fail_equal_specs_and_foreign_witnesses(check):
    g, data, reason = SPEC_FAILING[check]
    violation = CHECKS[check](g, **data)
    assert violation["check"] == check and reason in violation["detail"]
    assert parse_graph6(violation["witness"]) == g
    assert replay_violation(violation) is True


def _small_lemmas():
    return lemma_suites(
        seed=0, monotonicity_graphs=2, ordering_specs=2, corollary_span=(14, 14)
    )


# suite runs that decide each check, through the predicate registered for it
SUITE_RUNS = {
    "exact-connectivity": lambda: [verify_extremal_family(14, 1)],
    "fractional-pm": lambda: [verify_extremal_family(14, 1)],
    "tutte-certificate": lambda: [verify_extremal_family(14, 1)],
    "exhaustive-oracles": lambda: [verify_extremal_family(14, 1)],
    "quartic-agreement": lambda: [verify_extremal_family(14, 1)],
    "wiener-closed-form": lambda: [verify_extremal_family(14, 1)],
    "radius-floor": lambda: [verify_extremal_family(14, 1)],
    "chain-equality": lambda: [verify_ordering_chain(FamilySpec(14, 1, (1, 3, 9)), k=1)],
    "chain-canonical": lambda: [verify_ordering_chain(FamilySpec(18, 2, (3, 3, 3, 7)), k=2)],
    "chain-threshold": lambda: [verify_ordering_chain(FamilySpec(22, 2, (1, 1, 3, 15)), k=1)],
    "threshold-order": lambda: [pm_threshold_scan(4)],
    "saturated-order": lambda: [pm_threshold_scan(10)],
    "probe-order": lambda: [probe_extremal_bound(14, 1, trials=3)],
    "corollary-order": lambda: [corollary_comparison(14, 14), _small_lemmas()],
    "edge-monotonicity": lambda: [_small_lemmas()],
    "family-ordering": lambda: [_small_lemmas()],
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_suites_decide_through_the_check_table(check, monkeypatch):
    import specmatch.harness as harness

    def always_fails(g, *args, **kwargs):
        # the saturated-graph reduction passes no graph: it builds one only to record
        witness = None if g is None else write_graph6(g)
        return {"check": check, "witness": witness, "detail": "stub", "data": {}}

    monkeypatch.setattr(harness, CHECKS[check].__name__, always_fails)
    for report in SUITE_RUNS[check]():
        assert any(v["detail"] == "stub" for v in report.violations), report.suite


def test_lemma_suites_decide_every_ordering_spec_through_n_40():
    report = lemma_suites(0, monotonicity_graphs=0, ordering_specs=6151)
    assert report.passed
    assert report.cases == 6151 + report.extras["edge_checks"] + 14
    assert report.extras["ordering_complete_through"] == 40
    # the default run is whole through n = 20 (92 specs), then 8 at n = 22
    for specs, through in ((0, 8), (92, 20), (100, 20), (6150, 38)):
        small = lemma_suites(0, monotonicity_graphs=0, ordering_specs=specs, corollary_span=(14, 14))
        assert small.extras["ordering_complete_through"] == through, specs


def test_lemma_suites_small_run():
    report = lemma_suites(
        seed=0,
        monotonicity_graphs=6,
        ordering_specs=6,
        corollary_span=(14, 16),
    )
    assert report.passed
    assert report.cases == report.extras["edge_checks"] + 6 + 2
    margins = report.extras["corollary_margins"]
    assert set(margins) == {14, 16}
    assert all(m > 0 for m in margins.values())


def test_edge_monotonicity_replays_records_that_carry_tol(monkeypatch):
    # records written while these checks took a tolerance carry "tol"; the
    # predicates take none and replay drops the key
    _foreign_threshold(monkeypatch)
    _lost_edge(monkeypatch)
    for check in ("edge-monotonicity", "probe-order", "quartic-agreement", "threshold-order"):
        for (g, data), fails in ((HEALTHY[check], False), (FAILING[check], True)):
            record = {"check": check, "witness": write_graph6(g), "detail": "",
                      "data": {**data, "tol": 1e-9}}
            assert replay_violation(record) is fails, check
            if fails:
                assert "tol" not in CHECKS[check](g, **data)["data"], check


def test_edge_monotonicity_agrees_with_the_eigensolver():
    # the exact distance-dominance certificate against the float solves it
    # replaced: every missing edge passes both ways
    rng = random.Random(20)
    pairs = 0
    for _ in range(100):
        n = rng.randrange(5, 15)
        g = random_connected_graph(rng, n)
        missing = [[u, v] for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v)]
        est_g = distance_spectral_radius(g)
        for edge in missing:
            assert harness._check_edge_monotonicity(g, edge) is None
            est_h = distance_spectral_radius(Graph(n, [*g.edges(), edge]))
            assert est_g.lo > est_h.hi, (write_graph6(g), edge)
        pairs += len(missing)
    assert pairs > 1000


def test_lemma_suites_solves_each_random_graph_once(monkeypatch):
    stacks, solves = [], []
    distances, eigh = harness._distance_matrices, np.linalg.eigh
    monkeypatch.setattr(
        harness,
        "_distance_matrices",
        lambda adjacency: stacks.append(len(adjacency)) or distances(adjacency),
    )
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solves.append(a.shape) or eigh(a))

    def no_solve(*args, **kwargs):
        raise AssertionError("a lemma graph was eigensolved")

    monkeypatch.setattr(harness, "distance_spectral_radius", no_solve)
    report = lemma_suites(3, monotonicity_graphs=7, ordering_specs=2, corollary_span=(14, 16))
    assert report.passed
    # one stack of G and every G + uv per graph, and no eigensolve at all
    assert sum(stacks) == 7 + report.extras["edge_checks"]
    assert len(stacks) == 7
    assert solves == []


def test_lemma_suites_decide_each_stack_with_one_dominance_test(monkeypatch):
    tests = []
    dominated = harness._dominated
    monkeypatch.setattr(
        harness, "_dominated", lambda h, g: tests.append(h.shape) or dominated(h, g)
    )
    report = lemma_suites(5, monotonicity_graphs=9, ordering_specs=0, corollary_span=(14, 14))
    assert report.passed
    # one call per random graph, over the stack of every G + uv at once
    assert len(tests) == 9 and all(len(shape) == 3 for shape in tests)
    assert sum(shape[0] for shape in tests) == report.extras["edge_checks"]


def _graph(adjacency):
    """The graph of a 0/1 adjacency matrix."""
    n = len(adjacency)
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if adjacency[u, v]])


def test_edge_stack_equals_the_stack_of_graphs():
    # copies of G's matrix with uv and vu set are, bit for bit, the matrices
    # of G + uv built as graphs, for every missing pair in combinations order;
    # the pair that replay builds is the same two slices
    rng = random.Random(24)
    graphs = [complete_graph(n) for n in (2, 5, 14)]
    graphs += [Graph(n, [(v, v + 1) for v in range(n - 1)]) for n in (2, 7, 14)]
    for n in range(2, 15):
        for _ in range(6):
            p = rng.random()
            pairs = itertools.combinations(range(n), 2)
            graphs.append(Graph(n, [uv for uv in pairs if rng.random() < p]))
    for g in graphs:
        missing = [uv for uv in itertools.combinations(range(g.n), 2) if not g.has_edge(*uv)]
        reference = _adjacency_matrices([g] + [Graph(g.n, [*g.edges(), uv]) for uv in missing])
        edges, stack = harness._edge_stack(g)
        assert edges == missing
        assert stack.dtype == reference.dtype and stack.shape == reference.shape
        assert stack.tobytes() == np.ascontiguousarray(reference).tobytes()
        for i, edge in enumerate(missing):
            pair_edges, pair = harness._edge_stack(g, [edge])
            assert pair_edges == [edge] and pair.tobytes() == stack[[0, i + 1]].tobytes()


def test_doctored_stack_records_exactly_that_edge(monkeypatch):
    # the first stack's last slice, G + uv for G's last missing edge, is set
    # to D(G): D(G + uv) == D(G) is not dominated, so only that edge fails
    kwargs = dict(seed=4, monotonicity_graphs=5, ordering_specs=2, corollary_span=(14, 14))
    clean = lemma_suites(**kwargs)
    distances = harness._distance_matrices
    doctored = []

    def doctor(adjacency):
        dists = distances(adjacency)
        if not doctored:
            doctored.extend(_graph(a) for a in (adjacency[0], adjacency[-1]))
        g, h = doctored
        graphs = [_graph(a) for a in adjacency]
        if g in graphs and h in graphs:
            dists[graphs.index(h)] = dists[graphs.index(g)]
        return dists

    monkeypatch.setattr(harness, "_distance_matrices", doctor)
    report = lemma_suites(**kwargs)
    g, h = doctored
    [violation] = report.violations
    assert violation["check"] == "edge-monotonicity"
    assert violation["witness"] == write_graph6(g)
    u, v = violation["data"]["edge"]
    assert not g.has_edge(u, v) and Graph(g.n, [*g.edges(), (u, v)]) == h
    assert report.cases == clean.cases
    assert report.extras["edge_checks"] == clean.extras["edge_checks"]
    # the record replays through the same predicate: it fails on the doctored
    # distances and passes on the true ones
    assert replay_violation(violation) is True
    monkeypatch.undo()
    assert replay_violation(violation) is False


def test_identity_suite_records_exactly_a_wrong_hub_gap(monkeypatch):
    # hub_gap_coefficient off by one (in q^3 units) at one (s, n, k): the
    # integer checks have no rounding to hide it, and no other case moves
    clean = identity_suite()
    gap = harness.hub_gap_coefficient
    monkeypatch.setattr(
        harness,
        "hub_gap_coefficient",
        lambda s, n, k, mu, q=1: gap(s, n, k, mu, q) + ((s, n, k) == (3, 22, 2)),
    )
    report = identity_suite()
    assert report.cases == clean.cases and clean.passed
    [violation] = report.violations
    assert violation["check"] == "hub-gap-factorization"
    assert violation["data"] == {"n": 22, "k": 2, "s": 3}


def test_lemma_suites_deterministic():
    kwargs = dict(
        seed=9,
        monotonicity_graphs=4,
        ordering_specs=4,
        corollary_span=(14, 14),
    )
    a = lemma_suites(**kwargs).to_dict(include_timing=False)
    b = lemma_suites(**kwargs).to_dict(include_timing=False)
    assert a == b
    assert a["passed"]


def test_corollary_comparison_window():
    report = corollary_comparison(14, 20)
    assert report.passed
    assert report.cases == 4
    assert all(m > 0 for m in report.extras["margins"].values())
    with pytest.raises(ParameterError):
        corollary_comparison(12, 20)
    with pytest.raises(ParameterError):
        corollary_comparison(15, 20)
    with pytest.raises(ParameterError):
        corollary_comparison(20, 14)


def test_corollary_span_is_rejected_before_any_eigensolve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the corollary span was checked")

    monkeypatch.setattr(harness, "distance_spectral_radius", no_solve)
    for span in ((14, 66), (13, 40), (20, 14), (14, 41)):
        with pytest.raises(ParameterError, match="n_lo <= n_hi <= 64"):
            lemma_suites(0, corollary_span=span)
    with pytest.raises(ParameterError, match="n_lo <= n_hi <= 64"):
        corollary_comparison(14, 66)


def test_identity_suite_exact_counts():
    report = identity_suite(ks=(1,), grid_span=4, k_top=5)
    assert report.passed
    # 3 grid points at 10 checks each, plus 2 checks per k up to 5
    assert report.cases == 3 * 10 + 2 * 5


def test_identity_suite_isolates_each_root_once():
    import specmatch.quotient as quotient

    first = identity_suite().to_dict(include_timing=False)
    misses = quotient._isolate_saturated_root.cache_info().misses
    assert identity_suite().to_dict(include_timing=False) == first
    assert quotient._isolate_saturated_root.cache_info().misses == misses


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(3, connected_only=True)) == 4
    assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 38
    chunks = [
        {write_graph6(g) for g in enumerate_graphs(4, chunk=(i, 4))} for i in range(4)
    ]
    assert sum(len(c) for c in chunks) == 64
    full = {write_graph6(g) for g in enumerate_graphs(4)}
    assert set().union(*chunks) == full


def test_enumerate_validation():
    with pytest.raises(ParameterError):
        list(enumerate_graphs(9))
    with pytest.raises(ParameterError):
        list(enumerate_graphs(0))
    with pytest.raises(ParameterError):
        list(enumerate_graphs(4, chunk=(4, 4)))


def test_random_connected_graph_contract():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 10)
        g = random_connected_graph(rng, n)
        assert g.n == n
        assert is_connected(g)
    with pytest.raises(ParameterError):
        random_connected_graph(rng, 0)
