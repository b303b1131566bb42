"""Simple undirected graphs as bit rows, clique-join families, and graph6 I/O.

Vertices are labeled 0..n-1 and vertex sets are plain int bitmasks, which keeps
neighborhood operations O(1) and makes exhaustive subset scans cheap.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

VERTEX_CAP = 64
_BRUTE_CAP = 16  # order cap of the exponential subset tables and oracles
_TRANSPOSE_SWAPS = [  # (shift, mask) of Graph.from_rows: a column times a row pattern
    (63 * j, sum(1 << u for u in range(64) if u & j) * sum(1 << 64 * v for v in range(64) if not v & j))
    for j in (32, 16, 8, 4, 2, 1)
]
_DIAGONAL = sum(1 << 65 * v for v in range(64))  # the loop bits (v, v) of that matrix


class CapacityError(ValueError):
    """Requested graph order exceeds the vertex cap."""


class ParameterError(ValueError):
    """Invalid construction parameters (parity, range, or family constraints)."""


class Graph6Error(ValueError):
    """Malformed graph6 text; `offset` points at the offending character."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from_vertices(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_from_mask(mask: int) -> list[int]:
    return list(_iter_bits(mask))


def _adjacency_matrices(graphs: list["Graph"]) -> np.ndarray:
    """0/1 uint8 adjacency matrices, shape (m, n, n), of m graphs of one order n."""
    n = graphs[0].n
    rows = np.array([g.rows for g in graphs], dtype="<u8").reshape(len(graphs), n)
    bits = np.unpackbits(rows.view(np.uint8), bitorder="little")  # n <= VERTEX_CAP = 64
    return bits.reshape(len(graphs), n, 64)[:, :, :n]


class Graph:
    """Immutable simple graph; adjacency stored as one n-bit row per vertex."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ParameterError(f"vertex count must be nonnegative, got {n}")
        if n > VERTEX_CAP:
            raise CapacityError(f"order {n} exceeds cap {VERTEX_CAP}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        """Symmetry is checked on one int A, row v at bit 64v of a 64 x 64 bit matrix,
        transposed by six delta swaps: for j = 32, ..., 1 each bit (v, u) with bit j
        clear in v and set in u trades places with (v + j, u - j), 63j bits higher. The
        lowest bit of A & ~A^T, divmod 64, is the first one-sided (v, u) row-major.
        Loops are A's diagonal bits 65v; min and max catch rows outside [0, 2^n)."""
        rows = tuple(rows)
        g = object.__new__(cls)
        g.n = len(rows)
        g.rows = rows
        if g.n > VERTEX_CAP:
            raise CapacityError(f"order {g.n} exceeds cap {VERTEX_CAP}")
        full = (1 << g.n) - 1
        if rows and (min(rows) < 0 or max(rows) > full):  # a loop may come first
            for v, row in enumerate(rows):
                if row & ~full:
                    raise ParameterError(f"row {v} has bits beyond n={g.n}")
                if row >> v & 1:
                    raise ParameterError(f"loop at vertex {v}")
        t = a = int.from_bytes(struct.pack(f"<{g.n}Q", *rows), "little")
        if loops := a & _DIAGONAL:
            raise ParameterError(f"loop at vertex {((loops & -loops).bit_length() - 1) // 65}")
        for shift, mask in _TRANSPOSE_SWAPS:
            t ^= (d := (t ^ t >> shift) & mask) ^ d << shift
        if asymmetric := a & ~t:  # row-major: the first v, then its first u
            v, u = divmod((asymmetric & -asymmetric).bit_length() - 1, 64)
            raise ParameterError(f"asymmetric adjacency at ({v},{u})")
        return g

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _iter_bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# ---------------------------------------------------------------------------
# constructors


def complete_graph(n: int) -> Graph:
    """K_n: every unordered pair adjacent."""
    if n < 0:
        raise ParameterError(f"vertex count must be nonnegative, got {n}")
    if n > VERTEX_CAP:
        raise CapacityError(f"order {n} exceeds cap {VERTEX_CAP}")
    full = (1 << n) - 1
    return Graph.from_rows(full ^ (1 << v) for v in range(n))


def empty_graph(n: int) -> Graph:
    """n isolated vertices."""
    return Graph(n)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G together with a relabeled copy of H (H's labels shifted by |G|)."""
    n = g.n + h.n
    if n > VERTEX_CAP:
        raise CapacityError(f"combined order {n} exceeds cap {VERTEX_CAP}")
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return Graph.from_rows(rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all |G|*|H| cross edges."""
    n = g.n + h.n
    if n > VERTEX_CAP:
        raise CapacityError(f"combined order {n} exceeds cap {VERTEX_CAP}")
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    rows = [row | h_mask for row in g.rows]
    rows += [(row << g.n) | g_mask for row in h.rows]
    return Graph.from_rows(rows)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of a hub-and-cliques graph K_s v (K_{n1} u ... u K_{nq}).

    `parts` are the clique orders, each odd, listed nondecreasing; the hub has
    s vertices and s + sum(parts) = n.
    """

    n: int
    s: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.s < 0:
            raise ParameterError(f"hub size must be nonnegative, got {self.s}")
        if not self.parts:
            raise ParameterError("parts must be nonempty")
        for p in self.parts:
            if p < 1 or p % 2 == 0:
                raise ParameterError(f"part orders must be odd and >= 1, got {p}")
        if any(a > b for a, b in zip(self.parts, self.parts[1:])):
            raise ParameterError(f"parts must be nondecreasing, got {self.parts}")
        if self.s + sum(self.parts) != self.n:
            raise ParameterError(
                f"s + sum(parts) = {self.s + sum(self.parts)} != n = {self.n}"
            )

    @property
    def q(self) -> int:
        return len(self.parts)


def barrier_family(spec: FamilySpec) -> Graph:
    """K_s v (K_{n1} u ... u K_{nq}), vertices laid out [hub | part 1 | ... | part q].

    Deleting the hub leaves q odd cliques, so for q >= s+2 the hub is a Tutte
    barrier and the graph has no perfect matching.
    """
    if spec.n > VERTEX_CAP:  # before any row: each is an n-bit int
        raise CapacityError(f"order {spec.n} exceeds cap {VERTEX_CAP}")
    hub = (1 << spec.s) - 1
    rows = []
    for block in family_partition(spec):  # a hub vertex sees all, a part vertex its part and hub
        seen = (1 << spec.n) - 1 if block[0] < spec.s else mask_from_vertices(block) | hub
        rows += [seen ^ (1 << v) for v in block]
    return Graph.from_rows(rows)


def family_partition(spec: FamilySpec) -> list[list[int]]:
    """Positional partition [hub, part 1, ..., part q]; equitable for the distance matrix."""
    blocks = []
    start = 0
    for size in (spec.s, *spec.parts):
        if size:
            blocks.append(list(range(start, start + size)))
        start += size
    return blocks


def canonical_parts(n: int, s: int, q: int | None = None) -> tuple[int, ...]:
    """Clique orders of the canonical shape of order n with an s-vertex hub
    and q parts: s singletons, q-s-1 triangles and one clique of the rest.
    The default q = s+2 gives K_s v (sK_1 u K_3 u K_{n-2s-3}). Callers
    validate n, s and q."""
    q = s + 2 if q is None else q
    return (1,) * s + (3,) * (q - s - 1) + (n - 3 * q + s + 3,)


def extremal_family(n: int, k: int) -> Graph:
    """K_k v (kK_1 u K_3 u K_{n-2k-3}), laid out [hub | kK_1 | K_3 | K_{n-2k-3}].

    Among k-connected even-order graphs with a fractional perfect matching
    but no perfect matching, this is the unique one of minimum distance
    spectral radius: a radius at or below this threshold forces a perfect
    matching in every other such graph. Deleting the hub leaves k+2 odd
    components.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if n % 2:
        raise ParameterError(f"order must be even, got {n}")
    if n < 2 * k + 6:
        raise ParameterError(f"need n >= 2k+6 = {2 * k + 6}, got {n}")
    return barrier_family(FamilySpec(n, k, canonical_parts(n, k)))


def extremal_partition(n: int, s: int) -> list[list[int]]:
    """4-block positional partition [hub | sK_1 | K_3 | K_{n-2s-3}] (K_1 parts merged)."""
    if s < 1 or n < 2 * s + 6:
        raise ParameterError(f"need hub size s >= 1 and n >= 2s+6, got n={n}, s={s}")
    return [
        list(range(0, s)),
        list(range(s, 2 * s)),
        list(range(2 * s, 2 * s + 3)),
        list(range(2 * s + 3, n)),
    ]


# ---------------------------------------------------------------------------
# connectivity and components


def _component(rows: list[int], avail: int) -> int:
    """The component of the lowest vertex of the mask `avail` in G[avail],
    by a frontier BFS; 0 when `avail` is empty."""
    comp = 0
    frontier = avail & -avail
    while frontier:
        comp |= frontier
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & avail & ~comp
    return comp


def components(g: Graph, excluded: int = 0) -> list[int]:
    """Connected components of G minus the `excluded` vertex mask, as masks."""
    avail = g.full_mask & ~excluded
    comps = []
    while avail:
        comp = _component(g.rows, avail)
        comps.append(comp)
        avail &= ~comp
    return comps


def is_connected(g: Graph, excluded: int = 0) -> bool:
    """True iff G minus the `excluded` vertex mask has at most one component."""
    avail = g.full_mask & ~excluded
    return _component(g.rows, avail) == avail


def odd_components(g: Graph, removed: int) -> int:
    """o(G-S): number of odd-order components after deleting the mask S."""
    return sum(1 for comp in components(g, removed) if comp.bit_count() % 2)


@functools.cache
def _popcounts(n: int) -> np.ndarray:
    """|T| for every vertex mask T < 2^n, uint8."""
    pop = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    pop.setflags(write=False)  # one cached table is shared by every caller
    return pop


def odd_component_counts(g: Graph) -> np.ndarray:
    """o(G[T]) for every vertex mask T, int8 indexed by T; whole-table passes, n <= 16.

    reach[T] = N(T) doubles on the top vertex. The component C of T's lowest
    vertex grows for all T at once, C <- (C | N(C)) & T, until no entry changes;
    o(G[T]) = |C| mod 2 + o(G[T - C]) is summed along T -> T - C -> ... -> 0 by
    pointer doubling."""
    n = g.n
    if n > _BRUTE_CAP:
        raise ParameterError(f"subset DP capped at n={_BRUTE_CAP}, got {n}")
    # intp masks: every gather indexes with them directly, with no conversion
    reach = np.zeros(1 << n, dtype=np.intp)
    for v, row in enumerate(g.rows):
        reach[1 << v : 2 << v] = reach[: 1 << v] | row
    masks = np.arange(1 << n, dtype=np.intp)
    comp, grown = masks, masks & -masks  # grown starts at the lowest vertex
    while not np.array_equal(grown, comp):
        comp, grown = grown, (grown | reach[grown]) & masks
    odd = (_popcounts(n)[comp] & 1).view(np.int8)
    rest = masks ^ comp
    while rest.any():
        odd = odd + odd[rest]
        rest = rest[rest]
    return odd


def isolated_count(g: Graph, removed: int) -> int:
    """i(G-S): vertices outside S whose whole neighborhood lies inside S."""
    keep = g.full_mask & ~removed
    return sum(1 for v in _iter_bits(keep) if g.rows[v] & keep == 0)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff |V| > k and no vertex set of size < k disconnects G.

    Only separators that contain every universal vertex are searched. A set
    that misses a universal vertex u leaves u adjacent to everything that
    remains, so it cannot separate. The other vertices' subsets of size below
    k - |hub| are tried exhaustively; none are left once |hub| >= k.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if g.n <= k:
        return False
    hub = universal_mask(g)
    for size in range(k - hub.bit_count()):
        for combo in itertools.combinations(vertices_from_mask(g.full_mask & ~hub), size):
            if not is_connected(g, hub | mask_from_vertices(combo)):
                return False
    return True


def universal_mask(g: Graph) -> int:
    """Mask of vertices adjacent to every other vertex."""
    full = g.full_mask
    mask = 0
    for v, row in enumerate(g.rows):
        if row | 1 << v == full:
            mask |= 1 << v
    return mask


def matches_clique_join(g: Graph, s: int, parts: Iterable[int]) -> bool:
    """Is G isomorphic to K_s v (K_{n1} u ... u K_{nq})?

    Structural decision, exact for q >= 2: the hub is then precisely the set
    of universal vertices, and the rest must split into cliques with the given
    order multiset. Works at any order.
    """
    parts = sorted(parts)
    if len(parts) < 2:
        raise ParameterError("structural test needs at least two parts")
    if g.n != s + sum(parts):
        return False
    hub = universal_mask(g)
    if hub.bit_count() != s:
        return False
    comps = components(g, hub)
    if sorted(c.bit_count() for c in comps) != parts:
        return False
    for comp in comps:
        size = comp.bit_count()
        for v in _iter_bits(comp):
            if (g.rows[v] & comp).bit_count() != size - 1:
                return False
    return True


# ---------------------------------------------------------------------------
# graph6 and edge-list text formats


def write_graph6(g: Graph) -> str:
    """Standard graph6 encoding: N(n) header, upper-triangle bits column-major."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> sh & 63) + 63) for sh in (12, 6, 0))
    out = []
    acc = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (g.rows[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return head + "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; raises Graph6Error with the byte offset on bad input."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", offset=0)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} out of graph6 range", offset=i)
    if s[0] == "~":
        if len(s) < 4:
            raise Graph6Error("truncated order field", offset=len(s))
        if s[1] == "~":
            raise Graph6Error("8-byte order field not supported", offset=1)
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
        body_offset = 4
    else:
        n = ord(s[0]) - 63
        body = s[1:]
        body_offset = 1
    if n > VERTEX_CAP:
        raise Graph6Error(f"order {n} exceeds cap {VERTEX_CAP}", offset=0)
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"expected {expected} payload chars for n={n}, got {len(body)}",
            offset=body_offset + min(len(body), expected),
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend(val >> sh & 1 for sh in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", offset=len(s) - 1)
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits[idx]:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            idx += 1
    return Graph.from_rows(rows)


def write_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines (0-indexed, '#' comments); order defaults to max label + 1.

    A "# n=<count>" comment pins the order explicitly.
    """
    n = None
    edges = []
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)
        if len(line) == 2 and n is None:
            comment = line[1].strip()
            if comment.startswith("n="):
                try:
                    n = int(comment[2:])
                except ValueError:
                    pass
        line = line[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParameterError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParameterError(f"line {lineno}: non-integer vertex in {raw!r}")
        if u < 0 or v < 0:
            raise ParameterError(f"line {lineno}: negative vertex label")
        edges.append((u, v))
        max_v = max(max_v, u, v)
    if n is None:
        n = max_v + 1
    return Graph(n, edges)
