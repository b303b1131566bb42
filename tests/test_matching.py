"""Matching decisions and certificates against independent brute-force oracles."""

import random
from fractions import Fraction

import pytest

from specmatch import (
    FractionalWitness,
    Graph,
    IsolationCertificate,
    Matching,
    ParameterError,
    TutteCertificate,
    complete_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    extremal_family,
    fractional_certificate,
    has_fractional_pm,
    has_fractional_pm_exhaustive,
    has_perfect_matching,
    has_pm_bruteforce,
    isolated_count,
    join,
    matching_certificate,
    matching_number,
    max_matching,
    odd_components,
    tutte_deficiency_bruteforce,
    write_graph6,
)
from specmatch.matching import _cover_matching


def _random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_max_matching_known_graphs():
    assert matching_number(complete_graph(6)) == 3
    assert matching_number(complete_graph(7)) == 3
    assert matching_number(_cycle(5)) == 2
    assert matching_number(_cycle(8)) == 4
    assert matching_number(empty_graph(9)) == 0
    # Petersen graph has a perfect matching
    petersen = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    assert has_perfect_matching(petersen)


def test_blossom_needs_odd_cycle_contraction():
    # two triangles bridged: greedy picks inside, augmenting must cross blossoms
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    m = max_matching(g)
    assert len(m) == 3
    assert m.holds_for(g)
    assert {v for edge in m.edges for v in edge} == set(range(6))


def test_matching_validity_and_mask():
    g = complete_graph(5)
    m = max_matching(g)
    assert m.holds_for(g)
    assert len({v for edge in m.edges for v in edge}) == 2 * len(m)
    assert not m.holds_for(empty_graph(5))


def _checked_matching_certificate(g):
    # the matching and the Tutte set both hold, and Tutte-Berge ties them
    m, cert = matching_certificate(g)
    assert m.holds_for(g)
    if cert is None:
        assert 2 * len(m) == g.n
    else:
        assert cert.holds_for(g)
        assert cert.deficiency == g.n - 2 * len(m)
    return m, cert


def test_blossom_against_bruteforce():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randrange(1, 13)
        g = _random_graph(rng, n, rng.uniform(0.05, 0.95))
        m = max_matching(g)
        assert m.holds_for(g)
        # Tutte-Berge: nu(G) = (n - max over S of (o(G-S) - |S|)) / 2
        assert len(m) == (g.n - tutte_deficiency_bruteforce(g)[0]) // 2
        assert _checked_matching_certificate(g)[0] == m


def test_perfect_matching_agrees_with_dp_oracle():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.choice([4, 6, 8, 10, 12])
        g = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        assert has_perfect_matching(g) == has_pm_bruteforce(g)
        assert (_checked_matching_certificate(g)[1] is None) == has_pm_bruteforce(g)


def test_bruteforce_caps():
    with pytest.raises(ParameterError):
        has_pm_bruteforce(empty_graph(17))
    with pytest.raises(ParameterError):
        tutte_deficiency_bruteforce(empty_graph(17))
    with pytest.raises(ParameterError):
        has_fractional_pm_exhaustive(empty_graph(17))


def test_matching_certificate_none_when_pm_exists():
    for g in (complete_graph(6), _cycle(8)):
        m, cert = matching_certificate(g)
        assert cert is None
        assert 2 * len(m) == g.n and m.holds_for(g)


def test_matching_certificate_on_extremal_families():
    for n, k in ((14, 1), (22, 2), (30, 3)):
        g = extremal_family(n, k)
        m, cert = matching_certificate(g)
        assert m.holds_for(g) and len(m) == n // 2 - 1
        # the hub is the unique inclusion-minimal violator for these graphs
        assert cert.vertex_mask == (1 << k) - 1
        assert cert.odd_count == k + 2
        assert cert.deficiency == 2
        assert cert.holds_for(g)
        # even order: o(G-S) and |S| share parity, so the surplus is even
        assert cert.deficiency >= 2 and cert.deficiency % 2 == 0


def test_matching_certificate_is_tutte_berge_tight():
    # the Gallai-Edmonds set attains the maximum deficiency over all subsets,
    # which Tutte-Berge equates with n - 2*nu; odd orders included
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randrange(1, 13)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.7))
        m, cert = _checked_matching_certificate(g)
        if has_pm_bruteforce(g):
            assert cert is None
            continue
        assert cert.deficiency == tutte_deficiency_bruteforce(g)[0] == g.n - 2 * matching_number(g)
        assert len(m) == matching_number(g)


def test_matching_certificate_checks_tutte_berge(monkeypatch):
    # the deficiency must equal the number of exposed vertices; the check is
    # explicit, so it also runs under python -O
    import specmatch.matching

    star = join(complete_graph(1), empty_graph(4))
    monkeypatch.setattr(specmatch.matching, "odd_components", lambda g, mask: 0)
    with pytest.raises(RuntimeError):
        matching_certificate(star)


def test_tutte_deficiency_matches_berge():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(2, 12)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.8))
        deficiency, mask = tutte_deficiency_bruteforce(g)
        assert deficiency == n - 2 * matching_number(g)
        assert odd_components(g, mask) - mask.bit_count() == deficiency


def _tutte_deficiency_reference(g):
    # one component search per S, scanned in increasing mask order
    best = (-(g.n + 1), 0)
    for mask in range(1 << g.n):
        d = odd_components(g, mask) - mask.bit_count()
        if d > best[0]:
            best = (d, mask)
    return best


def test_tutte_deficiency_equals_reference_loop():
    # same deficiency and the same first maximizing S
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    rng = random.Random(43)
    graphs += [_random_graph(rng, rng.randrange(1, 13), rng.uniform(0.05, 0.9)) for _ in range(300)]
    graphs += [_random_graph(rng, n, rng.uniform(0.1, 0.6)) for n in (13, 13, 14, 14)]
    for g in graphs:
        assert tutte_deficiency_bruteforce(g) == _tutte_deficiency_reference(g), write_graph6(g)
    # the n = 16 cap, with the exact first maximizing S
    assert tutte_deficiency_bruteforce(empty_graph(16)) == (16, 0)
    assert tutte_deficiency_bruteforce(complete_graph(16)) == (0, 0)
    assert tutte_deficiency_bruteforce(Graph(16, [(2 * i, 2 * i + 1) for i in range(8)])) == (0, 0)
    assert tutte_deficiency_bruteforce(join(complete_graph(1), empty_graph(15))) == (14, 0b1)
    assert tutte_deficiency_bruteforce(extremal_family(16, 1)) == (2, 0b1)


def test_matching_certificate_above_oracle_cap():
    g = extremal_family(30, 3)
    cert = matching_certificate(g)[1]
    assert cert.vertex_mask == 0b111
    assert cert.holds_for(g)
    # a plain odd-order-style obstruction: K1 u K29
    h = Graph(30, [(u, v) for u in range(1, 30) for v in range(u + 1, 30)])
    cert = matching_certificate(h)[1]
    assert cert.vertex_mask == 0
    assert cert.odd_count == 2
    assert cert.holds_for(h)


def test_fractional_c5_gets_half_weights():
    c5 = _cycle(5)
    assert not has_perfect_matching(c5)
    assert has_fractional_pm(c5)
    witness = fractional_certificate(c5)
    assert isinstance(witness, FractionalWitness)
    assert witness.holds_for(c5)
    assert all(w == Fraction(1, 2) for _, w in witness.weights)


def test_fractional_star_violator_is_center():
    star = join(complete_graph(1), empty_graph(4))
    assert not has_fractional_pm(star)
    cert = fractional_certificate(star)
    assert isinstance(cert, IsolationCertificate)
    assert cert.vertex_mask == 0b1 and cert.vertices() == [0]
    assert isolated_count(star, cert.vertex_mask) == cert.isolated == 4
    assert cert.holds_for(star)
    assert not IsolationCertificate(0b1, 3).holds_for(star)
    assert not cert.holds_for(complete_graph(5))


def test_extremal_family_has_fractional_pm():
    for n, k in ((14, 1), (22, 2), (30, 3)):
        g = extremal_family(n, k)
        assert not has_perfect_matching(g)
        assert has_fractional_pm(g)
        witness = fractional_certificate(g)
        assert isinstance(witness, FractionalWitness)
        assert witness.holds_for(g)
        assert all(w in (Fraction(1, 2), Fraction(1)) for _, w in witness.weights)


def test_pm_implies_fractional_pm():
    rng = random.Random(51)
    for _ in range(200):
        n = rng.choice([4, 6, 8, 10])
        g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        if has_perfect_matching(g):
            assert has_fractional_pm(g)
            assert isinstance(fractional_certificate(g), FractionalWitness)


def test_fractional_against_exhaustive_oracle():
    rng = random.Random(52)
    for _ in range(400):
        n = rng.randrange(1, 13)
        g = _random_graph(rng, n, rng.uniform(0.05, 0.95))
        expected = has_fractional_pm_exhaustive(g)
        assert has_fractional_pm(g) == expected
        cert = fractional_certificate(g)
        assert isinstance(cert, FractionalWitness) == expected
        assert cert.holds_for(g)
        if not expected:
            assert isolated_count(g, cert.vertex_mask) > cert.vertex_mask.bit_count()
        _checked_matching_certificate(g)


def _kuhn_reference(g, lookahead=True):
    # Kuhn on the double cover by has_edge loops: searches by increasing
    # degree, a visited list, neighbours in increasing order; with lookahead a
    # search first takes its lowest unmatched neighbour
    match_right = [-1] * g.n
    match_left = [-1] * g.n

    def try_augment(v, visited):
        for u in range(g.n):
            if lookahead and g.has_edge(v, u) and match_right[u] == -1:
                match_right[u] = v
                match_left[v] = u
                return True
        for u in range(g.n):
            if g.has_edge(v, u) and not visited[u]:
                visited[u] = True
                if match_right[u] == -1 or try_augment(match_right[u], visited):
                    match_right[u] = v
                    match_left[v] = u
                    return True
        return False

    for v in sorted(range(g.n), key=g.degree):
        if match_left[v] == -1:
            try_augment(v, [False] * g.n)
    return match_left, match_right


def test_cover_matching_equals_lookahead_kuhn():
    rng = random.Random(53)
    graphs = [complete_graph(n) for n in range(31)] + [empty_graph(n) for n in range(31)]
    for n in range(31):
        graphs += [_random_graph(rng, n, rng.uniform(0.05, 0.6)) for _ in range(8)]
    for g in graphs:
        match_left, match_right = _cover_matching(g)
        assert (match_left, match_right) == _kuhn_reference(g), write_graph6(g)
        # as large as plain Kuhn's, and perfect exactly when the oracle says so
        assert match_left.count(-1) == _kuhn_reference(g, lookahead=False)[0].count(-1)
        if g.n <= 12:
            assert (-1 not in match_left) == has_fractional_pm_exhaustive(g), write_graph6(g)


def test_cover_matching_recurses_when_the_lookahead_is_blocked():
    # the path 0-1-3-4-2-5 is searched from 0, 5, 1, 2, 3, 4; lookahead alone
    # matches 0, 5, 1, 2 to 1, 2, 0, 4 and leaves 3 with both neighbours taken,
    # so 3 takes 4 from 2, which moves on to the free 5
    g = Graph(6, [(0, 1), (1, 3), (3, 4), (4, 2), (2, 5)])
    assert _cover_matching(g) == ([1, 0, 5, 4, 3, 2], [1, 0, 5, 4, 3, 2])
    assert _cover_matching(g) == _kuhn_reference(g)


def test_witness_rejects_wrong_graph():
    c5 = _cycle(5)
    witness = fractional_certificate(c5)
    assert not witness.holds_for(complete_graph(4))  # C4 and both chords
    bad = FractionalWitness((((0, 1), Fraction(2)),))
    assert not bad.holds_for(complete_graph(2))


def _witness(weights):
    return FractionalWitness(tuple(weights.items()))


def test_witness_sums_exactly_in_integers():
    k4 = complete_graph(4)
    edges = list(k4.edges())
    assert _witness(dict.fromkeys(edges, Fraction(1, 3))).holds_for(k4)  # not half-integral
    assert _witness({(0, 1): 1, (2, 3): 1}).holds_for(k4)  # int weights
    assert not _witness({(0, 1): 1, (2, 3): Fraction(1, 2)}).holds_for(k4)
    assert not _witness({(0, 1): 1}).holds_for(complete_graph(3))  # vertex 2 uncovered
    # denominators 2 and 3 scale by 6: a triangle at 1/2 beside a K_4 at 1/3
    both = disjoint_union(complete_graph(3), k4)
    mixed = {(u, v): Fraction(1, 2 if v < 3 else 3) for u, v in both.edges()}
    assert _witness(mixed).holds_for(both)
    # every vertex sums to 1, but a weight leaves [0, 1]: 2 and -1 round C_4,
    # and -1/2 on a perfect matching of K_4 with 3/4 on the other four edges
    c4 = _cycle(4)
    assert not _witness({(0, 1): 2, (1, 2): -1, (2, 3): 2, (0, 3): -1}).holds_for(c4)
    negative = {e: Fraction(-1, 2) if e in ((0, 1), (2, 3)) else Fraction(3, 4) for e in edges}
    assert not _witness(negative).holds_for(k4)
    # a missing edge: the chord (0, 2) of C_4
    assert not _witness({(0, 2): 1, (1, 3): 1}).holds_for(c4)
    # one edge of the triangle off 1/2 by 2^-60 puts two vertex sums at 1 +- 2^-60
    triangle = complete_graph(3)
    for eps in (Fraction(1, 2**60), -Fraction(1, 2**60)):
        weights = dict.fromkeys(triangle.edges(), Fraction(1, 2))
        assert _witness(weights).holds_for(triangle)
        weights[0, 1] += eps
        assert not _witness(weights).holds_for(triangle)


def test_fractional_certificate_checks_duality(monkeypatch):
    # the returned set must isolate more than |S| vertices; the check is
    # explicit, so it also runs under python -O
    import specmatch.matching

    star = join(complete_graph(1), empty_graph(4))
    monkeypatch.setattr(specmatch.matching, "isolated_count", lambda g, mask: 0)
    with pytest.raises(RuntimeError):
        fractional_certificate(star)


def test_empty_graph_edge_cases():
    assert has_fractional_pm(Graph(0))
    assert fractional_certificate(Graph(0)) == FractionalWitness(())
    assert matching_certificate(Graph(0)) == (Matching(frozenset()), None)
    assert has_perfect_matching(Graph(0))


def test_certificates_reject_vertices_outside_the_graph():
    # an index past either end is no vertex of G; -1 must not wrap to n-1
    k2 = complete_graph(2)
    for edge in ((-1, 0), (0, -1), (5, 0), (0, 5), (2, 1)):
        assert not k2.has_edge(*edge)
        assert not Matching(frozenset({edge})).holds_for(k2)
        assert not FractionalWitness(((edge, Fraction(1)),)).holds_for(k2)
    star = join(complete_graph(1), empty_graph(4))  # centre 0 isolates 4 leaves
    assert TutteCertificate(0b1, 4).holds_for(star)
    assert IsolationCertificate(0b1, 4).holds_for(star)
    for outside in (1 << 5, 1 << 40, -1 << 5):
        assert not TutteCertificate(0b1 | outside, 4).holds_for(star)
        assert not IsolationCertificate(0b1 | outside, 4).holds_for(star)
