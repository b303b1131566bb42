"""Distance spectra: certified brackets against closed forms and dense eigensolves."""

import math
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

import specmatch.harness
import specmatch.spectra

from specmatch import (
    CertifiedRoot,
    DisconnectedError,
    Graph,
    ParameterError,
    SpectralEstimate,
    complete_graph,
    disjoint_union,
    distance_matrix,
    distance_spectral_radius,
    empty_graph,
    enumerate_graphs,
    extremal_family,
    join,
    probe_extremal_bound,
    universal_mask,
    wiener_index,
)
from specmatch.graphs import _adjacency_matrices
from specmatch.quotient import _minor_certificate, family_quartic_root


def _random_connected(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    extra = rng.randrange(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


def _path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_distance_matrix_path():
    d = distance_matrix(_path(4))
    expected = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    assert d.tolist() == expected
    assert wiener_index(_path(4)) == 10


def test_distance_matrix_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        distance_matrix(disjoint_union(complete_graph(2), complete_graph(2)))
    with pytest.raises(DisconnectedError):
        distance_matrix(empty_graph(3))
    with pytest.raises(DisconnectedError):
        distance_matrix(Graph(2))
    with pytest.raises(DisconnectedError):
        distance_matrix(disjoint_union(complete_graph(5), complete_graph(1)))
    rng = random.Random(11)
    for n in (3, 9, 17, 40, 64):
        g = disjoint_union(_random_connected(rng, n - 1), complete_graph(1))
        with pytest.raises(DisconnectedError):
            distance_matrix(g)


def _bfs_distances(g):
    """Reference all-pairs distances: a plain queue BFS from every source."""
    dist = [[-1] * g.n for _ in range(g.n)]
    for s in range(g.n):
        dist[s][s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in range(g.n):
                if g.has_edge(u, v) and dist[s][v] < 0:
                    dist[s][v] = dist[s][u] + 1
                    queue.append(v)
    return dist


def test_distance_matrix_matches_per_source_bfs():
    rng = random.Random(5)
    graphs = [complete_graph(1), _path(64), complete_graph(64)]
    graphs += [_random_connected(rng, n) for n in range(2, 65)]
    for g in graphs:
        d = distance_matrix(g)
        assert d.dtype == np.int64
        assert d.tolist() == _bfs_distances(g), g.n
    assert distance_matrix(_path(64)).max() == 63


def test_wiener_known_values():
    assert wiener_index(complete_graph(5)) == 10
    assert wiener_index(_cycle(6)) == 27
    assert wiener_index(extremal_family(14, 1)) == 130
    # closed form for the minimizing family: (n^2 + (2k+5)n - 3k^2 - 13k - 18) / 2
    for n, k in ((14, 1), (16, 1), (22, 2), (30, 3)):
        expected = (n * n + (2 * k + 5) * n - 3 * k * k - 13 * k - 18) // 2
        assert wiener_index(extremal_family(n, k)) == expected


def test_wiener_lower_bound_is_exact_fraction():
    g = extremal_family(14, 1)
    bound = Fraction(2 * wiener_index(g), g.n)
    assert bound == Fraction(260, 14)
    est = distance_spectral_radius(g)
    assert est.lo >= Fraction(260, 14)


def test_complete_graph_is_transmission_regular():
    # distance matrix of K_n is J - I with top eigenvalue n-1; bracket collapses
    for n in (2, 5, 9):
        est = distance_spectral_radius(complete_graph(n))
        assert (est.lo, est.hi, est.value, est.iterations) == (n - 1, n - 1, n - 1, 0)


def test_path3_closed_form():
    # D = [[0,1,2],[1,0,1],[2,1,0]] has largest eigenvalue 1 + sqrt(3)
    est = distance_spectral_radius(_path(3), tol=1e-11)
    assert abs(est.value - (1 + math.sqrt(3))) <= 1e-9


def test_cycle4_closed_form():
    est = distance_spectral_radius(_cycle(4))
    assert abs(est.value - 4.0) <= 1e-10
    assert est.width <= 1e-10


def test_estimate_invariants():
    est = distance_spectral_radius(extremal_family(14, 1), tol=1e-10)
    assert float(est.lo) <= est.value <= float(est.hi)
    assert est.width <= 1e-10
    assert est.iterations >= 1
    # frozen reference value for the n=14, k=1 minimizer
    assert abs(est.value - 19.063334136323355) <= 1e-9


def test_bracket_contains_dense_eigensolve():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 12)
        g = _random_connected(rng, n)
        est = distance_spectral_radius(g, tol=1e-10)
        dense = float(np.linalg.eigvalsh(distance_matrix(g).astype(float)).max())
        assert est.lo - 1e-9 <= dense <= est.hi + 1e-9
        assert abs(est.value - dense) <= 1e-8


def test_parameter_validation(monkeypatch):
    with pytest.raises(ParameterError):
        distance_spectral_radius(complete_graph(1))
    with pytest.raises(ParameterError):
        distance_spectral_radius(complete_graph(4), tol=1e-13)
    with pytest.raises(ParameterError):
        distance_spectral_radius(complete_graph(4), tol=float("nan"))
    # a tolerance below the first bracket's width takes one step; one above
    # it, an infinite one too, returns that bracket [2W/n, max transmission]
    # with no step and no eigensolve
    assert distance_spectral_radius(_path(9), tol=1.0).iterations == 1
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))
    for tol in (1e6, math.inf):
        est = distance_spectral_radius(_path(9), tol=tol)
        assert (est.lo, est.hi) == (Fraction(2 * 120, 9), 36)
        assert (est.iterations, est.value, est.wiener) == (0, float(Fraction(240, 9)), 120)
    assert eighs == []


def _fields(est):
    return (est.value, est.lo, est.hi, est.iterations, est.wiener)


def _reference_fields(dist, tol):
    """The same certificate for one distance matrix (lists of ints) in plain
    Python: [2W/n, max transmission] when it meets tol, else the float Perron
    vector scaled to positive ints and exact Collatz-Wielandt steps over
    Fractions inside it."""
    lo, hi = Fraction(sum(map(sum, dist)), len(dist)), Fraction(max(map(sum, dist)))
    if hi - lo <= Fraction(tol):
        return (float(lo), lo, hi, 0, sum(map(sum, dist)) // 2)
    values, vectors = np.linalg.eigh(np.array(dist, dtype=float))
    v = [abs(c) for c in vectors[:, -1].tolist()]
    x = [int(c * 2.0**50 / max(v)) + 1 for c in v]
    iterations = 0
    while True:
        y = [sum(d * c for d, c in zip(row, x)) for row in dist]
        iterations += 1
        ratios = [Fraction(p, q) for p, q in zip(y, x)]
        lo, hi = max(lo, min(ratios)), min(hi, max(ratios))
        if hi - lo <= Fraction(tol):
            break
        x = y
    value = min(max(float(values[-1]), float(lo)), float(hi))
    return (value, lo, hi, iterations, sum(map(sum, dist)) // 2)


def _floor_fields(dist):
    """The first bracket [2W/n, max transmission] of one distance matrix (lists
    of ints), as distance_spectral_radius returns it at tol = inf."""
    lo, hi = Fraction(sum(map(sum, dist)), len(dist)), Fraction(max(map(sum, dist)))
    return (float(lo), lo, hi, 0, sum(map(sum, dist)) // 2)


def test_universal_vertex_floor_equals_the_bfs_floor():
    # a universal vertex bounds the diameter by 2, so the first bracket is read
    # off the degrees; it equals the BFS's on every labeled graph with a
    # universal vertex up to n = 6
    graphs = 0
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            if universal_mask(g):
                floor = _floor_fields(distance_matrix(g).tolist())
                assert _fields(distance_spectral_radius(g, math.inf)) == floor, g.rows
                graphs += 1
    assert graphs == 1 + 4 + 23 + 256 + 5319


@pytest.mark.parametrize("n,k", [(14, 1), (22, 2), (30, 3)])
def test_probe_samples_floor_equals_the_bfs_floor(monkeypatch, n, k):
    samples = []
    check = specmatch.harness.check_probe_sample
    monkeypatch.setattr(
        specmatch.harness, "check_probe_sample", lambda g, *a: samples.append(g) or check(g, *a)
    )
    probe_extremal_bound(n, k, 200, seed=5)
    assert len(samples) == 200
    universal = sum(1 for g in samples if universal_mask(g))
    assert 0 < universal < 200, universal
    for g in samples:
        floor = _floor_fields(distance_matrix(g).tolist())
        assert _fields(distance_spectral_radius(g, math.inf)) == floor, g.rows


def test_distances_built_only_when_needed(monkeypatch):
    # a graph with a universal vertex builds D only for eigh; any other graph
    # builds it once, up front
    calls = []
    bfs = specmatch.spectra._distance_matrices
    monkeypatch.setattr(
        specmatch.spectra, "_distance_matrices", lambda a: calls.append(a.shape) or bfs(a)
    )

    def solve(g, *tol):
        calls.clear()
        return distance_spectral_radius(g, *tol), len(calls)

    star = join(complete_graph(1), empty_graph(7))
    for g in (star, extremal_family(14, 1), extremal_family(30, 3)):
        est, built = solve(g, math.inf)
        assert (built, est.iterations) == (0, 0)
    est, built = solve(complete_graph(9))
    assert (built, est.lo, est.hi, est.iterations) == (0, 8, 8, 0)
    est, built = solve(star)
    assert (built, est.iterations) == (1, 1)
    assert _fields(est) == _reference_fields(distance_matrix(star).tolist(), 1e-10)
    for g in (_path(9), _cycle(8)):
        est, built = solve(g, math.inf)
        assert (built, est.iterations) == (1, 0)
        assert _fields(est) == _floor_fields(distance_matrix(g).tolist())


def _stacked_distances(graphs):
    """Each graph's distance matrix as lists, sliced from one stacked BFS."""
    dists = specmatch.spectra._distance_matrices(_adjacency_matrices(graphs))
    return [dist.astype(np.int64).tolist() for dist in dists]


def test_stacked_radii_equal_single_solves():
    # the certificate of a slice of one stacked BFS is exactly the one a graph
    # gets alone, and both equal the plain-Python reference
    rng = random.Random(17)
    for n in range(2, 41):
        graphs = [_random_connected(rng, n) for _ in range(6)]
        stacked = _stacked_distances(graphs)
        for tol in (1e-8, 1e-12):
            estimates = [distance_spectral_radius(g, tol) for g in graphs]
            assert [e.wiener for e in estimates] == [wiener_index(g) for g in graphs]
            single = [_fields(e) for e in estimates]
            assert single == [_reference_fields(dist, tol) for dist in stacked], (n, tol)
            alone = [_reference_fields(distance_matrix(g).tolist(), tol) for g in graphs]
            assert single == alone, (n, tol)


def test_stack_mixing_fast_and_slow_convergers():
    # long paths need more exact steps at 1e-12 than K_n, whose closed first
    # bracket needs none; a slow graph in the stack does not change the
    # certificate of a fast one
    rng = random.Random(23)
    steps = set()
    for n in (34, 37, 38, 40, 64):
        graphs = [complete_graph(n), _path(n), _random_connected(rng, n), _cycle(n), _path(n)]
        graphs += [_random_connected(rng, n) for _ in range(4)]
        stacked = [_reference_fields(dist, 1e-12) for dist in _stacked_distances(graphs)]
        assert stacked == [_fields(distance_spectral_radius(g, 1e-12)) for g in graphs], n
        assert stacked[0][3] == 0 < stacked[1][3], n
        steps |= {fields[3] for fields in stacked}
    assert len(steps) >= 3


def test_stacked_radii_reject_bad_input():
    with pytest.raises(DisconnectedError):
        distance_spectral_radius(disjoint_union(complete_graph(2), complete_graph(3)))
    with pytest.raises(DisconnectedError):
        _stacked_distances([_path(5), disjoint_union(complete_graph(2), complete_graph(3))])


def _assert_bracket_proved_by_minors(g, tol=1e-10):
    # an independent exact check on D itself, which is symmetric: no leading
    # minor of hi I - D proves rho > hi, and rho > lo has a minor unless lo is
    # the floor 2W/n or the bracket is closed
    dist = distance_matrix(g).tolist()
    est = distance_spectral_radius(g, tol)
    assert _minor_certificate(dist, est.hi) is None
    floor = Fraction(2 * est.wiener, g.n)
    assert est.lo in (floor, est.hi) or _minor_certificate(dist, est.lo) is not None
    return est


def test_brackets_are_proved_by_leading_minors():
    rng = random.Random(29)
    for n in range(2, 21):
        for _ in range(5):
            _assert_bracket_proved_by_minors(_random_connected(rng, n))
        _assert_bracket_proved_by_minors(complete_graph(n))
        _assert_bracket_proved_by_minors(join(complete_graph(1), empty_graph(n - 1)))
        if n >= 3:
            _assert_bracket_proved_by_minors(_cycle(n))
    est = _assert_bracket_proved_by_minors(_path(64), tol=1e-12)
    assert est.width <= 1e-12 and est.iterations > 1


def test_brackets_contain_exact_family_roots():
    # 294 cases: each bracket must hold the exact quartic root, and be no
    # wider than requested; the exact root is the oracle, not a float eigvalsh
    cases = 0
    for k in range(1, 8):
        for n in range(8 * k + 6, 65, 2):
            g = extremal_family(n, k)
            root = family_quartic_root(n, k, width=Fraction(1, 10**20))
            for tol in (1e-8, 1e-10, 1e-12):
                est = distance_spectral_radius(g, tol=tol)
                assert est.lo <= root.hi and root.lo <= est.hi, (n, k, tol)
                assert est.width <= tol, (n, k, tol)
                cases += 1
    assert cases == 294


def test_long_path_converges_at_the_tightest_tolerance():
    # P64 (diameter 63) is the slowest graph at n <= 64; started at the Perron
    # vector, even its exact bracket closes in a few steps
    est = distance_spectral_radius(_path(64), tol=1e-12)
    assert est.width <= 1e-12
    assert est.iterations <= 8


def test_compare_estimates_orderings():
    # one radius is strictly above another only when the brackets separate
    a = SpectralEstimate(value=5.0, lo=4.9, hi=5.1, iterations=1)
    b = SpectralEstimate(value=3.0, lo=2.9, hi=3.1, iterations=1)
    assert a.lo > b.hi and not b.lo > a.hi
    overlapping = SpectralEstimate(value=5.0, lo=5.0, hi=5.2, iterations=1)
    assert not a.lo > overlapping.hi and not overlapping.lo > a.hi
    # an exact root is read exactly: the double 0.1 lies just above 1/10, but
    # float(Fraction(1, 10)) == 0.1, so through the float the brackets touch
    est = SpectralEstimate(value=0.2, lo=0.1, hi=0.3, iterations=1)
    root = CertifiedRoot(value=0.075, lo=Fraction(1, 20), hi=Fraction(1, 10))
    assert est.lo > root.hi and not est.lo > float(root.hi)
    assert root.hi < est.lo


def test_compare_mu_known_pairs():
    # a radius is strictly above another only when the brackets separate
    def greater(g, h):
        return distance_spectral_radius(g).lo > distance_spectral_radius(h).hi

    # removing edges increases every distance, so mu goes up strictly
    assert greater(_path(4), complete_graph(4))
    assert not greater(complete_graph(4), _path(4))
    g = extremal_family(14, 1)
    assert not greater(g, g)
    # the k=1 minimizer sits strictly below this non-matching competitor
    competitor = join(complete_graph(2), disjoint_union(
        empty_graph(2), disjoint_union(complete_graph(3), complete_graph(7))))
    assert greater(competitor, g)
