"""Graph type, family constructors, set operations, and text formats."""

import itertools
import random

import numpy as np
import pytest

from specmatch import (
    CapacityError,
    FamilySpec,
    FractionalWitness,
    Graph,
    Graph6Error,
    ParameterError,
    barrier_family,
    complete_graph,
    components,
    disjoint_union,
    empty_graph,
    extremal_family,
    extremal_partition,
    family_partition,
    fractional_certificate,
    has_fractional_pm,
    is_connected,
    is_k_connected,
    isolated_count,
    join,
    mask_from_vertices,
    matches_clique_join,
    odd_component_counts,
    odd_components,
    parse_edge_list,
    parse_graph6,
    universal_mask,
    vertices_from_mask,
    write_edge_list,
    write_graph6,
)
import specmatch.harness as harness
from specmatch.graphs import _popcounts


def _random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def _components_oracle(g, removed=()):
    # set-based flood fill, independent of the bit-row machinery
    remaining = set(range(g.n)) - set(removed)
    comps = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in list(remaining):
                if g.has_edge(u, w):
                    remaining.remove(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.n == 4
    assert g.edge_count() == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_construction_validation():
    with pytest.raises(ParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph(3, [(0, 3)])
    with pytest.raises(CapacityError):
        Graph(65)
    with pytest.raises(CapacityError):
        complete_graph(65)
    with pytest.raises(ParameterError):
        Graph.from_rows([0b010, 0b000, 0b000])  # asymmetric


def _first_asymmetric_pair(rows):
    # the per-bit scan that from_rows replaced: first (v, u) in row-major order
    for v, row in enumerate(rows):
        for u in range(len(rows)):
            if row >> u & 1 and not rows[u] >> v & 1:
                return (v, u)
    return None


def test_from_rows_names_the_first_asymmetric_pair():
    rng = random.Random(11)
    for n in range(1, 65):
        rows = list(_random_graph(rng, n, rng.random()).rows)
        assert Graph.from_rows(rows).rows == tuple(rows)
        for _ in range(4 if n > 1 else 0):
            v, u = rng.sample(range(n), 2)
            bent = list(rows)
            bent[v] ^= 1 << u  # one bit flipped leaves (v, u) or (u, v) one-sided
            with pytest.raises(ParameterError) as err:
                Graph.from_rows(bent)
            assert str(err.value) == "asymmetric adjacency at ({},{})".format(
                *_first_asymmetric_pair(bent)
            )
        with pytest.raises(ParameterError, match="beyond"):
            Graph.from_rows(rows[:-1] + [rows[-1] | 1 << n])
        loop = rng.randrange(n)
        with pytest.raises(ParameterError, match=f"loop at vertex {loop}"):
            Graph.from_rows(rows[:loop] + [rows[loop] | 1 << loop] + rows[loop + 1:])
    with pytest.raises(ParameterError, match="beyond"):
        Graph.from_rows([-1, 0])


@pytest.mark.parametrize("n,k,draws", [(14, 1, 300), (22, 2, 100)])
def test_probe_draws_carry_their_certificates_and_reject_bent_copies(n, k, draws):
    rng = random.Random(38)
    bend = random.Random(n)
    kinds = set()
    for _ in range(draws):
        sample = harness._random_barrier_graph(rng, n, k)
        if sample is None:
            continue
        g = sample[0]
        cert = fractional_certificate(g)
        assert cert.holds_for(g), write_graph6(g)
        assert isinstance(cert, FractionalWitness) == has_fractional_pm(g)
        kinds.add(type(cert))
        bent = list(g.rows)
        for pair in bend.sample(list(itertools.combinations(range(n), 2)), 3):
            v, u = bend.sample(pair, 2)
            bent[v] ^= 1 << u  # three one-sided pairs; the message names the first
        with pytest.raises(ParameterError) as err:
            Graph.from_rows(bent)
        assert str(err.value) == "asymmetric adjacency at ({},{})".format(
            *_first_asymmetric_pair(bent)
        )
    assert len(kinds) == 2  # draws with and without a fractional perfect matching


def test_graph_equality_and_hash_follow_the_rows():
    g = Graph(3, [(0, 1)])
    h = Graph(3, [*g.edges(), (1, 2)])
    assert h.edge_count() == 2
    assert g.edge_count() == 1
    assert g != h
    assert Graph(3, [(2, 1), (1, 0)]) == h and hash(Graph(3, [(2, 1), (1, 0)])) == hash(h)
    assert Graph.from_rows(h.rows) == h


def test_complete_and_empty():
    assert complete_graph(1).edge_count() == 0
    assert complete_graph(3).edge_count() == 3
    assert complete_graph(9).edge_count() == 36
    assert empty_graph(5).edge_count() == 0
    assert all(complete_graph(6).degree(v) == 5 for v in range(6))


def test_union_and_join_counts():
    g = disjoint_union(complete_graph(3), complete_graph(4))
    assert g.n == 7
    assert g.edge_count() == 3 + 6
    h = join(complete_graph(2), empty_graph(4))
    assert h.n == 6
    assert h.edge_count() == 1 + 8


def test_join_edge_count_property():
    rng = random.Random(11)
    for _ in range(30):
        a = _random_graph(rng, rng.randrange(1, 7), rng.random())
        b = _random_graph(rng, rng.randrange(1, 7), rng.random())
        j = join(a, b)
        assert j.n == a.n + b.n
        assert j.edge_count() == a.edge_count() + b.edge_count() + a.n * b.n
        u = disjoint_union(a, b)
        assert u.edge_count() == a.edge_count() + b.edge_count()


def test_capacity_on_combinations():
    with pytest.raises(CapacityError):
        join(complete_graph(40), complete_graph(30))


def test_family_spec_validation():
    FamilySpec(14, 1, (1, 3, 9))
    with pytest.raises(ParameterError):
        FamilySpec(14, 1, (1, 3, 8))  # even part
    with pytest.raises(ParameterError):
        FamilySpec(14, 1, (3, 1, 9))  # not nondecreasing
    with pytest.raises(ParameterError):
        FamilySpec(14, 1, (1, 3, 7))  # wrong total
    with pytest.raises(ParameterError):
        FamilySpec(14, -1, (1, 3, 11))


def test_extremal_family_shape():
    g = extremal_family(14, 1)
    assert g.n == 14
    # hub 1 vertex joined to 13 others, plus C(9,2) + 3 internal edges
    assert g.edge_count() == 13 + 36 + 3
    assert g == barrier_family(FamilySpec(14, 1, (1, 3, 9)))
    assert universal_mask(g) == 1

    h = extremal_family(22, 2)
    assert h.n == 22
    assert universal_mask(h) == 0b11
    assert odd_components(h, 0b11) == 4


def test_barrier_family_rows_match_joined_cliques():
    # rows written directly against the public join / union / clique chain,
    # on every 12th spec of the family-ordering sweep through n = 40
    from specmatch.harness import _ordering_sweep

    def reference(spec):
        inner = complete_graph(spec.parts[0])
        for p in spec.parts[1:]:
            inner = disjoint_union(inner, complete_graph(p))
        return join(complete_graph(spec.s), inner) if spec.s else inner

    sweep = itertools.takewhile(lambda spec: spec[0] <= 40, _ordering_sweep())
    specs = [FamilySpec(*spec) for spec in itertools.islice(sweep, 0, None, 12)]
    assert len(specs) >= 500 and any(spec.q >= spec.s + 4 for spec in specs)
    swept = len(specs)
    specs += [
        FamilySpec(n, k, (1,) * k + (3, n - 2 * k - 3))
        for k in range(1, 8)
        for n in range(2 * k + 6, 65, 2)
    ]
    specs += [FamilySpec(1, 0, (1,)), FamilySpec(9, 0, (1, 3, 5)), FamilySpec(64, 0, (1, 63))]
    for spec in specs:
        assert barrier_family(spec).rows == reference(spec).rows, spec
    assert barrier_family(specs[swept]) == extremal_family(8, 1)
    with pytest.raises(CapacityError):
        barrier_family(FamilySpec(65, 2, (1, 1, 61)))


def test_barrier_family_checks_the_cap_before_building(monkeypatch):
    # rows are n-bit ints, so an order past the cap must fail before any is built
    import specmatch.graphs as graphs

    def no_build(spec):
        raise AssertionError("a spec past the cap was laid out")

    monkeypatch.setattr(graphs, "family_partition", no_build)
    with pytest.raises(CapacityError):
        barrier_family(FamilySpec(65, 2, (1, 1, 61)))


def test_extremal_family_validation():
    with pytest.raises(ParameterError):
        extremal_family(13, 1)
    with pytest.raises(ParameterError):
        extremal_family(7, 1)
    with pytest.raises(ParameterError):
        extremal_family(14, 0)


def test_partitions_cover_everything():
    blocks = extremal_partition(14, 1)
    assert [len(b) for b in blocks] == [1, 1, 3, 9]
    assert sorted(v for b in blocks for v in b) == list(range(14))
    spec = FamilySpec(18, 2, (3, 3, 3, 7))
    blocks = family_partition(spec)
    assert [len(b) for b in blocks] == [2, 3, 3, 3, 7]
    assert sorted(v for b in blocks for v in b) == list(range(18))


def test_components_against_oracle():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randrange(1, 11)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.7))
        removed = [v for v in range(n) if rng.random() < 0.25]
        got = {frozenset(vertices_from_mask(c)) for c in components(g, mask_from_vertices(removed))}
        assert got == set(_components_oracle(g, removed))
        assert is_connected(g) == (len(_components_oracle(g)) <= 1)
        # G - S for the sampled S and for S = V, where nothing is left
        for cut in (removed, range(n)):
            assert is_connected(g, mask_from_vertices(cut)) == (len(_components_oracle(g, cut)) <= 1)


def test_odd_components_and_isolated():
    g = extremal_family(14, 1)
    assert odd_components(g, 0b1) == 3
    assert isolated_count(g, 0b1) == 1
    assert odd_components(g, 0) == 0
    assert isolated_count(complete_graph(5), 0) == 0
    star = join(complete_graph(1), empty_graph(3))
    assert isolated_count(star, 0b1) == 3
    hub_and_cliques = barrier_family(FamilySpec(14, 1, (1, 1, 11)))
    assert odd_components(hub_and_cliques, 0b1) == 3
    assert isolated_count(hub_and_cliques, 0b1) == 2


def test_odd_component_counts_against_odd_components():
    rng = random.Random(15)
    graphs = [Graph(0), Graph(1), complete_graph(2), complete_graph(7), empty_graph(6)]
    graphs += [_random_graph(rng, rng.randrange(1, 11), rng.uniform(0.05, 0.8)) for _ in range(60)]
    # up to the n = 16 cap of the mask tables
    graphs += [empty_graph(16), complete_graph(16), Graph(16, [(2 * i, 2 * i + 1) for i in range(8)])]
    graphs += [_random_graph(rng, n, rng.uniform(0.1, 0.6)) for n in (13, 14, 15, 16)]
    for g in graphs:
        odd = odd_component_counts(g)
        assert len(odd) == 1 << g.n
        # every mask up to n = 14, 2,000 sampled masks above
        ts = list(range(1 << g.n)) if g.n <= 14 else rng.sample(range(1 << g.n), 2000)
        assert odd[ts].tolist() == [odd_components(g, g.full_mask ^ t) for t in ts]
    assert odd_component_counts(empty_graph(6))[0b101101] == 4
    assert odd_component_counts(empty_graph(16))[-1] == 16
    with pytest.raises(ParameterError, match="capped at n=16, got 17"):
        odd_component_counts(empty_graph(17))


def test_popcount_table_counts_every_mask():
    # the shared table behind the odd-component and deficiency tables
    for n in range(17):
        pop = _popcounts(n)
        assert pop.dtype == np.uint8 and not pop.flags.writeable and _popcounts(n) is pop
        assert pop.tolist() == [bin(t).count("1") for t in range(1 << n)], n


def test_k_connectivity_known_cases():
    assert is_k_connected(complete_graph(5), 4)
    assert not is_k_connected(complete_graph(5), 5)
    g = extremal_family(14, 1)
    assert is_k_connected(g, 1)
    assert not is_k_connected(g, 2)
    h = extremal_family(22, 2)
    assert is_k_connected(h, 2)
    assert not is_k_connected(h, 3)
    with pytest.raises(ParameterError):
        is_k_connected(g, 0)


def test_k_connectivity_against_oracle():
    """Exhaustive deletion oracle over the set-based component count, on
    random graphs and on relabelled random graphs joined to 1-3 universal
    vertices, which every searched separator contains."""
    from itertools import combinations

    rng = random.Random(23)
    graphs = [_random_graph(rng, rng.randrange(3, 9), rng.uniform(0.2, 0.9)) for _ in range(80)]
    for _ in range(120):
        g = join(complete_graph(rng.randrange(1, 4)), _random_graph(rng, rng.randrange(1, 8), rng.random()))
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    for g in graphs:
        for k in range(1, 6):
            expected = g.n > k and all(
                len(_components_oracle(g, s)) <= 1
                for size in range(k)
                for s in combinations(range(g.n), size)
            )
            assert is_k_connected(g, k) == expected, (write_graph6(g), k)


def test_structural_family_match():
    g = extremal_family(14, 1)
    assert matches_clique_join(g, 1, (1, 3, 9))
    assert not matches_clique_join(g, 1, (1, 1, 11))
    assert not matches_clique_join(g, 2, (1, 3, 8))
    assert matches_clique_join(extremal_family(30, 3), 3, (1, 1, 1, 3, 21))
    # near miss: drop one big-clique edge and the components are not cliques
    h = Graph(14, [e for e in g.edges() if e != (5, 6)])
    assert not matches_clique_join(h, 1, (1, 3, 9))
    with pytest.raises(ParameterError):
        matches_clique_join(g, 1, (13,))


def test_graph6_known_values():
    assert write_graph6(complete_graph(3)) == "Bw"
    star = parse_graph6("D?{")
    assert star.n == 5
    assert sorted(star.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


def test_graph6_round_trip():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randrange(1, 17)
        g = _random_graph(rng, n, rng.random())
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_long_form():
    for n in (63, 64):
        g = Graph(n, [(0, n - 1), (1, 2)])
        text = write_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error):
        parse_graph6("B\x1f")
    with pytest.raises(Graph6Error):
        parse_graph6("Bww")  # payload too long
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # payload missing
    with pytest.raises(Graph6Error):
        parse_graph6("A\x7f")


def test_edge_list_round_trip():
    g = extremal_family(14, 1)
    assert parse_edge_list(write_edge_list(g)) == g
    text = "# comment\n0 1\n\n2 3  # trailing note\n"
    h = parse_edge_list(text)
    assert h.n == 4 and h.edge_count() == 2
    pinned = parse_edge_list("# n=6\n0 1\n")
    assert pinned.n == 6
    with pytest.raises(ParameterError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ParameterError):
        parse_edge_list("0 x\n")
