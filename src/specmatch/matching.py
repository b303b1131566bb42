"""Perfect and fractional matching decisions with verifiable certificates.

Maximum matchings come from Edmonds' blossom algorithm. A graph with no
perfect matching is explained by a Tutte certificate: a vertex set S with
o(G-S) > |S| (for even order, o(G-S) >= |S|+2 by parity). The same blossom
search yields it as the Gallai-Edmonds set, whose deficiency o(G-S) - |S|
equals n - 2*nu, so it is Tutte-Berge tight. Fractional perfect
matchings are decided on the bipartite double cover and certified either by a
half-integral weighting or by a set S with more than |S| isolated vertices in
G-S. Exponential brute-force oracles back all of it at small order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    _BRUTE_CAP,
    Graph,
    ParameterError,
    _iter_bits,
    _popcounts,
    isolated_count,
    odd_component_counts,
    odd_components,
    vertices_from_mask,
)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges of a host graph."""

    edges: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.edges)

    def holds_for(self, g: Graph) -> bool:
        seen = 0
        for u, v in self.edges:
            if not g.has_edge(u, v):
                return False
            pair = 1 << u | 1 << v
            if seen & pair:
                return False
            seen |= pair
        return True


@dataclass(frozen=True)
class TutteCertificate:
    """Vertex set S (as a mask) with o(G-S) > |S|; proof that no perfect matching exists."""

    vertex_mask: int
    odd_count: int

    @property
    def size(self) -> int:
        return self.vertex_mask.bit_count()

    @property
    def deficiency(self) -> int:
        return self.odd_count - self.size

    def vertices(self) -> list[int]:
        return vertices_from_mask(self.vertex_mask)

    def holds_for(self, g: Graph) -> bool:
        if self.vertex_mask & ~g.full_mask:  # a vertex outside 0..n-1
            return False
        return odd_components(g, self.vertex_mask) == self.odd_count and self.deficiency >= 1


@dataclass(frozen=True)
class IsolationCertificate:
    """Vertex set S (as a mask) with i(G-S) > |S|; proof that no fractional perfect matching exists."""

    vertex_mask: int
    isolated: int

    def vertices(self) -> list[int]:
        return vertices_from_mask(self.vertex_mask)

    def holds_for(self, g: Graph) -> bool:
        if self.vertex_mask & ~g.full_mask:  # a vertex outside 0..n-1
            return False
        return isolated_count(g, self.vertex_mask) == self.isolated > self.vertex_mask.bit_count()


# ---------------------------------------------------------------------------
# maximum matching (blossom contraction)


def max_matching(g: Graph) -> Matching:
    """Maximum matching via repeated augmentation with blossom contraction, O(n^3)."""
    n = g.n
    match = [-1] * n
    # greedy warm start saves most augmentation rounds
    for v in range(n):
        if match[v] == -1:
            for u in _iter_bits(g.rows[v]):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for root in range(n):
        if match[root] == -1:
            _augment_from(g, match, root)
    edges = frozenset((v, match[v]) for v in range(n) if match[v] > v)
    return Matching(edges)


def _augment_from(g: Graph, match: list[int], root: int) -> list[int] | None:
    """Augment `match` along a path from the exposed `root` and return None, or
    return the outer vertices of the search tree when no augmenting path exists."""
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    in_tree[root] = True
    queue = [root]

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, stop: int, child: int, flag: list[bool]):
        while base[v] != stop:
            flag[base[v]] = True
            flag[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in _iter_bits(g.rows[v]):
            if base[u] == base[v] or match[v] == u:
                continue
            if u == root or (match[u] != -1 and parent[match[u]] != -1):
                # odd cycle: contract the blossom at the common base
                stop = lowest_common_base(v, u)
                flag = [False] * n
                mark_path(v, stop, u, flag)
                mark_path(u, stop, v, flag)
                for w in range(n):
                    if flag[base[w]]:
                        base[w] = stop
                        if not in_tree[w]:
                            in_tree[w] = True
                            queue.append(w)
            elif parent[u] == -1 and u != root:
                parent[u] = v
                if match[u] == -1:
                    # augmenting path found; flip it
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return None
                w = match[u]
                if not in_tree[w]:
                    in_tree[w] = True
                    queue.append(w)
    return queue


def matching_number(g: Graph) -> int:
    return len(max_matching(g))


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and 2 * len(max_matching(g)) == g.n


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the blossom code path)


def has_pm_bruteforce(g: Graph) -> bool:
    """Perfect matching decision by subset dynamic programming; n <= 16."""
    n = g.n
    if n > _BRUTE_CAP:
        raise ParameterError(f"brute force capped at n={_BRUTE_CAP}, got {n}")
    if n % 2:
        return False
    full = g.full_mask
    reachable = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        if mask == full:
            return True
        free = ~mask & full
        v = (free & -free).bit_length() - 1
        for u in _iter_bits(g.rows[v] & free):
            nxt = mask | 1 << v | 1 << u
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return False


def tutte_deficiency_bruteforce(g: Graph) -> tuple[int, int]:
    """(max over S of o(G-S) - |S|, first maximizing S in mask order); n <= 16.

    Exhaustive over all 2^n sets S in one table pass: o(G-S) is entry V - S
    of `odd_component_counts(g)`, so the reversed table lines up with S.
    """
    deficiency = odd_component_counts(g)[::-1] - _popcounts(g.n)
    best = int(deficiency.argmax())
    return int(deficiency[best]), best


# ---------------------------------------------------------------------------
# Tutte certificates


def matching_certificate(g: Graph) -> tuple[Matching, TutteCertificate | None]:
    """A maximum matching of G, and a certificate that G has no perfect
    matching, or None if the matching is perfect.

    The blossom search is rerun from every vertex that the matching leaves
    exposed. None of these searches can augment, so each returns the
    vertices joined to its root by an even alternating path; their union is
    D, and A = N(D) \\ D is the Gallai-Edmonds set, a Tutte set of maximum
    deficiency n - 2*nu (Lovasz & Plummer, Matching Theory, 1986, ch. 3).
    The deficiency is checked against the number of exposed vertices, which
    by Tutte-Berge also proves the matching maximum.
    """
    matching = max_matching(g)
    match = [-1] * g.n
    for u, v in matching.edges:
        match[u] = v
        match[v] = u
    exposed = [v for v in range(g.n) if match[v] == -1]
    if not exposed:
        return matching, None
    even = 0
    reached = 0
    for root in exposed:
        outer = _augment_from(g, match, root)
        if outer is None:
            raise RuntimeError("blossom search augmented a maximum matching")
        for v in outer:
            even |= 1 << v
            reached |= g.rows[v]
    tutte_set = reached & ~even
    cert = TutteCertificate(tutte_set, odd_components(g, tutte_set))
    if cert.deficiency != len(exposed):
        raise RuntimeError("Gallai-Edmonds set is not Tutte-Berge tight")
    return matching, cert


# ---------------------------------------------------------------------------
# fractional perfect matchings via the bipartite double cover


def _cover_matching(g: Graph) -> tuple[list[int], list[int]]:
    """Maximum matching of the double cover (left u -- right v iff uv in E) by Kuhn's
    algorithm, as the lists (match_left, match_right), -1 if exposed. One search per left
    vertex, by degree, takes its lowest exposed neighbour if any (Duff's lookahead, 1981),
    else recurses through its unvisited ones: matched stays matched, so still maximum."""
    n = g.n
    rows = g.rows
    match_right = [-1] * n  # right vertex -> left vertex
    match_left = [-1] * n
    exposed = (1 << n) - 1  # right vertices not yet matched
    visited = 0  # right vertices seen by the current search

    def try_augment(v: int) -> bool:
        nonlocal exposed, visited
        while free := rows[v] & exposed or rows[v] & ~visited:
            low = free & -free
            visited |= low
            u = low.bit_length() - 1
            if low & exposed or try_augment(match_right[u]):
                exposed &= ~low
                match_right[u] = v
                match_left[v] = u
                return True
        return False

    for v in sorted(range(n), key=g.degree):
        visited = 0
        try_augment(v)
    return match_left, match_right


def has_fractional_pm(g: Graph) -> bool:
    """True iff G admits edge weights in [0,1] summing to exactly 1 at every vertex.

    Equivalent to the bipartite double cover having a perfect matching, and to
    i(G-S) <= |S| for every vertex set S.
    """
    return -1 not in _cover_matching(g)[0]


@dataclass(frozen=True)
class FractionalWitness:
    """Edge weights in [0, 1] summing to 1 at each vertex, checked in integers."""

    weights: tuple[tuple[tuple[int, int], Fraction], ...]

    def holds_for(self, g: Graph) -> bool:
        scale = 1
        for den in {w.denominator for _, w in self.weights}:  # folded, no argument tuple
            scale = math.lcm(scale, den)
        sums = [0] * g.n
        for (u, v), w in self.weights:
            num, den = w.numerator, w.denominator
            if not g.has_edge(u, v) or not 0 <= num <= den:
                return False
            share = num * (scale // den)
            sums[u] += share
            sums[v] += share
        return sums.count(scale) == g.n


def fractional_certificate(g: Graph) -> FractionalWitness | IsolationCertificate:
    """Half-integral witness of a fractional perfect matching, or a set S with
    i(G-S) > |S| proving there is none, from one matching of the double cover.

    A perfect cover matching sigma gives edge uv the weight (1/2) * [sigma(u) = v]
    + (1/2) * [sigma(v) = u], in {1/2, 1}: pairs that agree in both directions
    give 1, and the rest decompose into even cycles of weight 1/2. Otherwise S
    is the set of right vertices reached from the exposed left ones along
    alternating paths, and the reached left vertices outside S are isolated in
    G-S: by Koenig duality more than |S| of them. A right vertex is reached once
    and its partner is never exposed, so no left vertex is pushed twice.
    """
    match_left, match_right = _cover_matching(g)
    exposed = [v for v in range(g.n) if match_left[v] == -1]
    if not exposed:
        edges = sorted({(min(u, v), max(u, v)) for v, u in enumerate(match_left)})
        weights = (Fraction((match_left[u] == v) + (match_left[v] == u), 2) for u, v in edges)
        return FractionalWitness(tuple(zip(edges, weights)))
    right_reached = 0
    stack = exposed
    while stack:
        v = stack.pop()
        for u in _iter_bits(g.rows[v] & ~right_reached):
            right_reached |= 1 << u
            if match_right[u] != -1:
                stack.append(match_right[u])
    cert = IsolationCertificate(right_reached, isolated_count(g, right_reached))
    if cert.isolated <= right_reached.bit_count():
        raise RuntimeError("alternating-path set does not violate i(G-S) <= |S|")
    return cert


def has_fractional_pm_exhaustive(g: Graph) -> bool:
    """Oracle: check i(G-S) <= |S| over all 2^n subsets; n <= 16."""
    if g.n > _BRUTE_CAP:
        raise ParameterError(f"brute force capped at n={_BRUTE_CAP}, got {g.n}")
    for mask in range(1 << g.n):
        if isolated_count(g, mask) > mask.bit_count():
            return False
    return True
