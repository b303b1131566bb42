"""Verification suites: threshold scans, family structure checks, probes.

Each suite returns a SuiteReport whose `violations` list is empty exactly
when every checked instance satisfied its predicate. Every check that has a
witness graph is decided by one predicate, registered in CHECKS under the
check's name: it returns a violation record (the witness in graph6 form plus
the parameters of the check) or None. The suites call the predicates, and
replay_violation calls the same predicate on a recorded witness. A graph's
radius is held strictly above a threshold graph's exact root only when its
exact bracket clears the root's: est.lo > root.hi compares two Fractions, and
a violation records whether it is certified (est.hi < root.lo) or undecided
(the brackets overlap). Edge monotonicity is decided by exact distance
dominance, and every ordering of two hub-and-cliques graphs, the
saturated-graph reduction included, on exact leading minors of the
graph-free quotients in quotient.py.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import (
    _BRUTE_CAP,
    VERTEX_CAP,
    FamilySpec,
    Graph,
    ParameterError,
    _adjacency_matrices,
    barrier_family,
    canonical_parts,
    extremal_family,
    is_connected,
    is_k_connected,
    matches_clique_join,
    odd_components,
    parse_graph6,
    write_graph6,
)
from .matching import (
    FractionalWitness,
    has_fractional_pm,
    has_fractional_pm_exhaustive,
    has_perfect_matching,
    has_pm_bruteforce,
    matching_certificate,
    tutte_deficiency_bruteforce,
)
from .quotient import (
    CertifiedRoot,
    _minor_certificate,
    _saturated_quotient,
    _saturated_root,
    _specs,
    family_quartic,
    family_quartic_root,
    gap_bound_at_radius_floor,
    gap_bound_cubic,
    gap_bound_cubic_deriv,
    gap_bound_floor_deriv,
    hub_gap_coefficient,
)
from .spectra import _distance_matrices, distance_spectral_radius, wiener_index

_BLOCK_BITS = 18
# stages of the threshold-order chain after the scan's table prefilter;
# wiener_exact_pruned stays at 0 only because perfbench's Scan8 funnel sums it
_FUNNEL_KEYS = ("wiener_exact_pruned", "extremal_matches", "eigensolves", "strictly_greater")
_PROBE_KEYS = ("floor_decided", "eigensolves")
_ONE, _HALF = Fraction(1), Fraction(1, 2)  # the probe witnesses' edge weights
_ORDERING_SWEEP_SIZE = 174_877  # specs _ordering_sweep yields, counted in its test
ENUMERATE_CAP = 8


@dataclass
class SuiteReport:
    """Outcome of one verification suite; passed iff no violations."""

    suite: str
    params: dict
    cases: int = 0
    violations: list[dict] = field(default_factory=list)
    seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "params": self.params,
            "cases": self.cases,
            "passed": self.passed,
            "violations": self.violations,
            "extras": self.extras,
        }
        if include_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


def _violation(check: str, witness: Graph | None, detail: str, **data) -> dict:
    return {
        "check": check,
        "witness": write_graph6(witness) if witness is not None else None,
        "detail": detail,
        "data": data,
    }


def _below(est, ref: CertifiedRoot) -> dict:
    """Data of a bracket `est` not above `ref`: floats, exact ends, est.hi < ref.lo."""
    return {
        "estimate": [float(est.lo), float(est.hi)],
        "estimate_exact": [str(est.lo), str(est.hi)],
        "reference_hi": float(ref.hi),
        "certified": est.hi < ref.lo,
    }


def _record(report: SuiteReport, violation: dict | None) -> None:
    report.cases += 1
    if violation is not None:
        report.violations.append(violation)


# ---------------------------------------------------------------------------
# random corpora


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Erdos-Renyi G(n, p) with p drawn from U[0.2, 0.8], conditioned on connectivity."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    while True:
        prob = rng.uniform(0.2, 0.8)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < prob
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g


# ---------------------------------------------------------------------------
# threshold references


def threshold_reference(n: int) -> CertifiedRoot:
    """Exact radius bracket of the minimum-radius connected graph of even order
    n without a perfect matching, K_{n/2-1} v (n/2+1)K_1 for n <= 8 and
    K_1 v (K_{n-3} u 2K_1) for n >= 10: its saturated spec's root, isolated
    once per order by _saturated_root, so no graph is built at any n."""
    if n < 4 or n % 2:
        raise ParameterError(f"even order >= 4 required, got {n}")
    return _saturated_root(*_reference_parts(n))


def _reference_parts(n: int) -> tuple[int, tuple[int, ...]]:
    """The threshold graph of order n as a saturated spec (s, parts)."""
    if n <= 8:
        return n // 2 - 1, (1,) * (n // 2 + 1)
    return 1, (1, 1, n - 3)


# ---------------------------------------------------------------------------
# extremal family structure suite


def _check_exact_connectivity(g: Graph, k: int) -> dict | None:
    if is_k_connected(g, k) and not is_k_connected(g, k + 1):
        return None
    return _violation("exact-connectivity", g, f"connectivity != {k}", n=g.n, k=k)


def _check_fractional_pm(g: Graph) -> dict | None:
    if has_fractional_pm(g):
        return None
    return _violation("fractional-pm", g, "no fractional perfect matching", n=g.n)


def _check_tutte_set(g: Graph, k: int, cert=None) -> dict | None:
    """The k-vertex hub is the Gallai-Edmonds Tutte set, leaving k+2 odd components."""
    # None is also the answer for a graph with a perfect matching: searching
    # again then only repeats a check that fails either way
    cert = matching_certificate(g)[1] if cert is None else cert
    if cert is None:
        detail = f"expected certificate, got {cert}"
    elif cert.vertex_mask != (1 << k) - 1 or cert.odd_count != k + 2:
        detail = (
            f"expected hub with {k + 2} odd components, got "
            f"S={cert.vertices()}, o={cert.odd_count}"
        )
    else:
        return None
    return _violation("tutte-certificate", g, detail, n=g.n, k=k)


def _check_exhaustive_oracles(g: Graph, deficiency=None) -> dict | None:
    deficiency = tutte_deficiency_bruteforce(g)[0] if deficiency is None else deficiency
    if not has_pm_bruteforce(g) and has_fractional_pm_exhaustive(g) and deficiency == 2:
        return None
    return _violation("exhaustive-oracles", g, "subset oracles disagree", n=g.n)


def _check_quartic_agreement(g: Graph, k: int, est=None) -> dict | None:
    est = distance_spectral_radius(g) if est is None else est
    root = family_quartic_root(g.n, k)
    if est.lo <= root.hi and root.lo <= est.hi:
        return None
    detail = f"radius bracket [{est.lo}, {est.hi}] misses quartic root [{root.lo}, {root.hi}]"
    return _violation("quartic-agreement", g, detail, n=g.n, k=k)


def _check_wiener_closed_form(g: Graph, k: int, wiener=None) -> dict | None:
    n = g.n
    wiener = wiener_index(g) if wiener is None else wiener
    closed_form = (n * n + (2 * k + 5) * n - 3 * k * k - 13 * k - 18) // 2
    if wiener == closed_form:
        return None
    return _violation("wiener-closed-form", g, f"W={wiener} != {closed_form}", n=n, k=k)


def _check_radius_floor(g: Graph, k: int, wiener=None) -> dict | None:
    """Exact certificates: the quartic negative at n+k+3 puts the root above
    it, and 2W/n > n+k+3 keeps the whole bisection bracket above as well."""
    n = g.n
    floor = n + k + 3
    wiener = wiener_index(g) if wiener is None else wiener
    root = family_quartic_root(n, k)
    if family_quartic(n, k)(floor) < 0 and Fraction(2 * wiener, n) > floor and root.lo > floor:
        return None
    return _violation("radius-floor", g, f"radius not certified above {floor}", n=n, k=k)


def verify_extremal_family(n: int, k: int) -> SuiteReport:
    """Checks the claimed properties of K_k v (kK_1 u K_3 u K_{n-2k-3}):
    exact connectivity k, a fractional perfect matching, no perfect matching
    with the hub as Tutte certificate (k+2 odd components), a radius bracket
    meeting the quartic root's, and radius strictly above n+k+3; at n <= 16
    the exhaustive oracles confirm the matching verdicts and deficiency 2.
    """
    if k < 1 or n % 2 or n < 8 * k + 6:
        raise ParameterError(f"need k >= 1 and even n >= 8k+6, got n={n}, k={k}")
    t0 = time.perf_counter()
    report = SuiteReport("theorem13-family", {"n": n, "k": k})
    g = extremal_family(n, k)

    _record(report, _check_exact_connectivity(g, k))
    _record(report, _check_fractional_pm(g))
    cert = matching_certificate(g)[1]
    if cert is not None:
        report.extras["certificate"] = {
            "vertices": cert.vertices(),
            "odd_components": cert.odd_count,
        }
    _record(report, _check_tutte_set(g, k, cert))

    if n <= _BRUTE_CAP:
        deficiency, _ = tutte_deficiency_bruteforce(g)
        _record(report, _check_exhaustive_oracles(g, deficiency))
        report.extras["exhaustive_deficiency"] = deficiency

    est = distance_spectral_radius(g)
    root = family_quartic_root(n, k)
    report.extras["mu_estimate"] = [est.value, float(est.lo), float(est.hi)]
    report.extras["quartic_root"] = [root.value, float(root.lo), float(root.hi)]
    _record(report, _check_quartic_agreement(g, k, est))

    _record(report, _check_wiener_closed_form(g, k, est.wiener))
    _record(report, _check_radius_floor(g, k, est.wiener))

    report.seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# ordering chain suite


def _check_spec_order(
    check: str, g: Graph | None, n: int, spec, ref, equal=False, reference=None, **data
) -> dict | None:
    """The graph of spec = (s, parts), K_s v (K_{n1} u ... u K_{nq}) of order n,
    lies strictly above the exact root of the reference spec `ref`, or, where
    `equal` allows it, is `ref` with its root in (lo, hi]. Decided on the
    spec's quotient by _minor_certificate, with no graph and no eigensolve:
    the one body behind every ordering of two hub-and-cliques graphs. A bracket
    `reference` (lo, hi) replaces the root's and is recorded. A witness g must
    be the spec's graph; g=None builds it only to record a violation."""
    root = _saturated_root(*ref)
    lo, hi = map(Fraction, reference or (root.lo, root.hi))
    above = functools.partial(_minor_certificate, _saturated_quotient(*spec))
    if g is not None and not matches_clique_join(g, *spec):
        detail = "witness is not the graph of its spec"
    elif (above(lo) and not above(hi)) if equal and spec == ref else above(hi):
        return None
    else:
        detail = "not certified above the reference root, nor an admitted equality"
    g = barrier_family(FamilySpec(n, *spec)) if g is None else g
    if reference is not None:
        data["reference"] = [str(lo), str(hi)]
    return _violation(check, g, detail, n=n, **data)


def _check_chain_canonical(g: Graph | None, n: int, s: int, parts: list[int]) -> dict | None:
    """First leg of the ordering chain: K_s v (K_{n1} u ... u K_{nq}) is strictly
    above the canonical shape K_s v (sK_1 u K_3 u K_{n-2s-3}) ("chain-canonical"),
    or is that shape ("chain-equality")."""
    spec, canonical = (s, tuple(parts)), (s, canonical_parts(n, s))
    check = "chain-equality" if spec == canonical else "chain-canonical"
    return _check_spec_order(check, g, n, spec, canonical, True, s=s, parts=list(parts))


def _check_chain_threshold(g: Graph | None, n: int, s: int, k: int) -> dict | None:
    """Second leg: the canonical s-hub shape is strictly above the k-hub
    threshold graph, the canonical k-hub shape."""
    spec, ref = (s, canonical_parts(n, s)), (k, canonical_parts(n, k))
    return _check_spec_order("chain-threshold", g, n, spec, ref, s=s, k=k)


def verify_ordering_chain(spec: FamilySpec, k: int, exploratory: bool = False) -> SuiteReport:
    """Orders mu along the chain: an arbitrary valid hub-and-cliques graph sits
    strictly above the canonical shape K_s v (sK_1 u K_3 u K_{n-2s-3}) (equal
    only when it already is that shape), which for s >= k+1 sits strictly
    above the k-hub threshold graph. Every leg is decided exactly on the
    specs' quotients; no graph is built unless a leg fails. Below n = 6k+6 the
    threshold leg can fail, and it runs only when `exploratory` (flagged).
    """
    n, s, q = spec.n, spec.s, spec.q
    if k < 1 or s < k:
        raise ParameterError(f"need 1 <= k <= s, got k={k}, s={s}")
    if q < s + 2:
        raise ParameterError(f"need at least s+2 parts, got q={q}")
    if spec.parts[s] < 3:
        raise ParameterError(f"part {s + 1} must have >= 3 vertices, got {spec.parts[s]}")
    if n < 2 * k + 6:
        raise ParameterError(f"need n >= 2k+6 for the threshold graph, got {n}")
    if s >= k + 1 and n < 6 * k + 6 and not exploratory:
        raise ParameterError(f"threshold leg needs n >= 6k+6={6 * k + 6} (or exploratory), got {n}")

    t0 = time.perf_counter()
    report = SuiteReport("ordering-chain", {"n": n, "s": s, "parts": list(spec.parts), "k": k})
    if exploratory:
        report.extras["exploratory"] = True
    canonical = canonical_parts(n, s)
    report.extras["equality_case"] = spec.parts == canonical
    mu = report.extras["mu"] = {
        "given": _saturated_root(s, spec.parts).value,
        "canonical": _saturated_root(s, canonical).value,
    }
    _record(report, _check_chain_canonical(None, n, s, list(spec.parts)))

    if s >= k + 1:
        mu["threshold"] = _saturated_root(k, canonical_parts(n, k)).value
        _record(report, _check_chain_threshold(None, n, s, k))

    report.seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Theorem 11: exhaustive scan and saturated-graph reduction


def _graph_from_mask(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph:
    rows = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        mask ^= low
    return Graph.from_rows(rows)


def _check_threshold_order(g: Graph, ref=None, counts=None, admitted=False) -> dict | None:
    """Theorem 11 for one graph: if g is connected without a perfect matching
    (taken as given when `admitted`), its radius is strictly above the
    threshold graph's exact root `ref`, or g is the threshold graph. The
    structural match, the eigensolve with its exact 2W/n floor, and the
    bracket comparison run in turn; `counts` tallies the stage that decided g."""
    if not admitted and (not is_connected(g) or has_perfect_matching(g)):
        return None
    ref = threshold_reference(g.n) if ref is None else ref
    counts = dict.fromkeys(_FUNNEL_KEYS, 0) if counts is None else counts
    if matches_clique_join(g, *_reference_parts(g.n)):
        counts["extremal_matches"] += 1
        return None
    est = distance_spectral_radius(g)
    counts["eigensolves"] += 1
    if est.lo > ref.hi:
        counts["strictly_greater"] += 1
        return None
    detail = "no perfect matching yet radius not above the threshold"
    return _violation("threshold-order", g, detail, n=g.n, **_below(est, ref))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bool rows as uint64 words, bit i at bit i % 8 of uint8 byte i // 8; zero padded."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.pad(packed, [(0, 0), (0, -packed.shape[1] % 8)]).view(np.uint64)


@functools.cache
def _scan_tables(n: int) -> tuple[np.ndarray, ...]:
    """Bit-packed tables deciding connectivity, perfect matching and edge count
    for every edge mask on n <= 8 vertices, 64 masks per uint64 word.

    A mask splits into its low 2n-3 bits, the pairs that touch {0, 1} in
    combinations order ((0,1), then (0,j), then (1,j)), and its high bits,
    the graph H induced on the inner vertices {2..n-1}. Let A and B be the
    inner neighbourhoods of 0 and 1.
    - G is connected iff A u B meets every component of H, and 01 is an
      edge or some component meets both A and B.
    - G has a perfect matching iff 0 and 1 are matched to a partner set X
      and H - X has one: X is empty when 01 is an edge, and X = {u, w} for
      distinct inner u in A, w in B.
    A row is a set of low values, packed by _pack. For high bits `hi`: H's
    partition index partition[hi]; connected[partition] and its size; the low
    values offering a partner set in byte k of the set index that H - X matches,
    unions[byte_index[k, hi]]; heavy_low[t], the low values with more than t
    edges (t = 0 also for t < 0: low value 0 is never connected); high_edges[hi].
    """
    m = n - 2
    full = (1 << m) - 1
    inner_pairs = list(itertools.combinations(range(m), 2))
    high = np.arange(1 << len(inner_pairs), dtype=np.uint16)
    low = np.arange(1 << (2 * m + 1), dtype=np.uint16)
    # edge[j, hi]: inner pair j is an edge of H
    edge = np.array([(high >> j) & 1 for j in range(len(inner_pairs))], dtype=np.uint8)

    # components of H: grow each vertex's closed neighbourhood until it
    # spans paths of length m - 1
    reach = np.repeat((1 << np.arange(m, dtype=np.uint8))[:, None], high.size, axis=1)
    for (u, w), bit in zip(inner_pairs, edge):
        reach[u] |= bit << w
        reach[w] |= bit << u
    for _ in range((m - 1).bit_length()):
        for u in range(m):
            reach |= ((reach >> u) & 1) * reach[u]
    # a component is named by its lowest vertex, and the names in base m key
    # H's partition (by lookup: np.unique's sort leaves ~2 MB resident);
    # hits[p, x] = components of partition p that the inner vertex set x meets
    lowest = np.array([(x & -x).bit_length() - 1 for x in range(1 << m)], dtype=np.int32)
    key = sum(lowest[reach[v]] * m**v for v in range(m))
    seen = np.zeros(m**m, dtype=bool)
    seen[key] = True
    partition, codes = (np.cumsum(seen, dtype=np.uint16) - 1)[key], np.flatnonzero(seen)
    comp = (1 << np.stack([codes // m**v % m for v in range(m)], axis=1)).astype(np.uint8)
    members = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    hits = np.bitwise_or.reduce(comp[:, None, :] * members, axis=2)
    # low bits in C order (B, A, 01), hits[:, -1] = all; 16 partitions a block to save memory
    blocks = []
    for h in np.split(hits, range(16, len(hits), 16)):
        covered = (h[:, None, :] | h[:, :, None]) == h[:, -1:, None]
        both = covered & ((h[:, None, :] & h[:, :, None]) != 0)
        blocks.append(_pack(np.stack([both, covered], -1).reshape(len(h), -1)))
    connected = np.concatenate(blocks)

    # pm[s]: H restricted to the even vertex set s has a perfect matching; one
    # array, freed whole after the build, whose odd rows are never written
    pm = np.zeros((1 << m, high.size), dtype=np.uint8)
    pm[0] = 1
    for s in range(3, full + 1):
        if s.bit_count() % 2:
            continue
        v = (s & -s).bit_length() - 1
        for w in range(v + 1, m):
            if s >> w & 1:
                pm[s] |= edge[inner_pairs.index((v, w))] & pm[s ^ (1 << v) ^ (1 << w)]
    # partner set j is inner pair j, or X empty last; offers[j] are the low values
    # that give it, and row 256k + x of unions ORs the offers of byte k's bits x
    a, b = (low >> 1) & full, low >> (m + 1)
    offers = [((a >> u) & (b >> w) | (a >> w) & (b >> u)) & 1 for u, w in inner_pairs]
    offers = _pack(np.array(offers + [low & 1], dtype=bool))
    matchable = [pm[full ^ (1 << u) ^ (1 << w)] for u, w in inner_pairs] + [pm[full]]
    unions = np.zeros((-(-len(offers) // 8) * 256, offers.shape[1]), dtype=np.uint64)
    byte_index = np.repeat(np.arange(0, len(unions), 256, dtype=np.uint16)[:, None], high.size, 1)
    for j, (offer, ok) in enumerate(zip(offers, matchable)):
        unions[256 * (j // 8) + np.flatnonzero(np.arange(256) >> (j % 8) & 1)] |= offer
        byte_index[j // 8] += ok.astype(np.uint16) << (j % 8)
    heavy_low = _pack(np.bitwise_count(low) > np.arange(2 * m + 2)[:, None])
    sizes = np.bitwise_count(connected).sum(axis=1)
    high_edges = np.bitwise_count(high).astype(np.int16)  # signed: the cutoff may be -1
    return partition.astype(np.uint8), connected, sizes, unions, byte_index, heavy_low, high_edges


def _scan_range(
    report: SuiteReport,
    n: int,
    start: int,
    stop: int,
    m_max: int,
    progress: Callable[[int, int], None] | None = None,
) -> None:
    """Scan edge-set masks in [start, stop) into `report`: bit-packed table
    prefilters, then the threshold-order chain against threshold_reference(n)
    for the connected no-matching survivors with more than m_max edges.

    A mask is (high << (2n-3)) + low, high the inner graph on {2..n-1} and low
    the 2n-3 pairs that touch {0, 1} (see _scan_tables). Blocks of whole rows,
    one per high value with 64 low values to a word, are decided by row gathers
    and word-wide ANDs and ORs. np.bitwise_count counts the no-matching masks,
    and the connected ones only in a row cut by [start, stop)."""
    pairs = list(itertools.combinations(range(n), 2))
    ref = _scan_constants(n)[1]
    partition, conn_rows, conn_count, unions, byte_index, heavy_low, high_edges = _scan_tables(n)
    low_bits = 2 * n - 3
    row_len = 1 << low_bits
    block_rows = 1 << (_BLOCK_BITS - low_bits)

    counts = dict.fromkeys(("connected", "no_pm_connected", "wiener_mask_pruned", *_FUNNEL_KEYS), 0)
    row_stop = -(-stop >> low_bits)
    for h0 in range(start >> low_bits, row_stop, block_rows):
        highs = np.arange(h0, min(h0 + block_rows, row_stop))
        parts = partition[highs]
        connected, row_counts = conn_rows[parts], conn_count[parts]
        base, last = h0 << low_bits, int(highs[-1]) << low_bits
        if start > base or stop < last + row_len:
            connected[:1] &= _pack(np.arange(row_len)[None] >= start - base)
            connected[-1:] &= _pack(np.arange(row_len)[None] < stop - last)
            row_counts[[0, -1]] = np.bitwise_count(connected[[0, -1]]).sum(axis=1)
        interesting = connected & ~np.bitwise_or.reduce(unions[byte_index[:, highs]])
        budget = np.minimum(np.maximum(m_max - high_edges[highs], 0), low_bits)
        heavy = interesting & heavy_low[budget]
        no_pm = int(np.bitwise_count(interesting).sum())
        survivors = ()
        if heavy.any():
            rows, cols = np.nonzero(heavy)
            bits = np.unpackbits(heavy[rows, cols, None].view(np.uint8), axis=1, bitorder="little")
            word, bit = np.nonzero(bits)
            survivors = base + (rows[word] << low_bits) + (cols[word] << 6) + bit
        counts["connected"] += int(row_counts.sum())
        counts["no_pm_connected"] += no_pm
        counts["wiener_mask_pruned"] += no_pm - len(survivors)
        for mask in survivors:
            g = _graph_from_mask(n, int(mask), pairs)
            violation = _check_threshold_order(g, ref=ref, counts=counts, admitted=True)
            if violation is not None:
                report.violations.append(violation)
        if progress is not None:
            progress(min((h0 + highs.size) << low_bits, stop) - start, stop - start)
    report.cases += counts["connected"]
    report.extras.update(counts)


@functools.cache
def _scan_constants(n: int) -> tuple[str, CertifiedRoot, int]:
    """Threshold graph6 (barrier_family layout), root, and edge cutoff m_max: at
    most m_max edges give 2W/n > threshold, as W >= 2 C(n,2) - m."""
    g6 = write_graph6(barrier_family(FamilySpec(n, *_reference_parts(n))))
    root = threshold_reference(n)
    bound = (Fraction(2 * n * (n - 1)) - n * root.hi) / 2
    return g6, root, (bound.numerator - 1) // bound.denominator if bound > 0 else -1


def pm_threshold_scan(
    n: int,
    chunk: tuple[int, int] = (0, 1),
    threads: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> SuiteReport:
    """Theorem 11 at even n <= 64: every connected graph of order n with no
    perfect matching has radius strictly above the threshold graph, or is it.

    The scan runs in one process, so `threads` takes only 1. n <= ENUMERATE_CAP
    scans every labeled graph (chunkable; `progress` gets the masks done).
    Larger n reduce to finitely many graphs. Saturating a Tutte set S
    (o(G - S) >= |S| + 2), each component of G - S and every S-to-rest pair,
    folding even components into an odd one and merging surplus odd parts
    three at a time gives a spanning H = K_s v (K_{n1} u ... u K_{n_{s+2}}),
    s >= 1, n_i odd, without a perfect matching (Lovasz & Plummer, Matching
    Theory, 1986). If G != H, D(G) >= D(H) and unequal, so mu(G) > mu(H) by
    Perron-Frobenius. Each H is decided exactly on its quotient by
    _minor_certificate (Berman & Plemmons, 1994, ch. 6) against
    threshold_reference(n), itself the root of the threshold spec's quotient.
    A spec's graph is built only to record it.
    """
    if n < 4 or n % 2 or n > VERTEX_CAP:
        raise ParameterError(f"even order 4 <= n <= {VERTEX_CAP} required, got {n}")
    if threads != 1:
        raise ParameterError(f"the scan runs in one process, got threads={threads}")
    t0 = time.perf_counter()
    ref_g6, ref_root, m_max = _scan_constants(n)
    report = SuiteReport("theorem11", {"n": n, "chunk": f"{chunk[0]}/{chunk[1]}"})
    report.extras.update(reference_g6=ref_g6, reference_mu=[float(ref_root.lo), float(ref_root.hi)])
    if n > ENUMERATE_CAP:
        if tuple(chunk) != (0, 1):
            raise ParameterError("the saturated-graph reduction runs as one chunk")
        _saturated_order_scan(report, n, ref_root)
    else:
        start, stop = _chunk_range(1 << (n * (n - 1) // 2), chunk)
        _scan_range(report, n, start, stop, m_max, progress)
        report.extras.update(masks_scanned=stop - start, edge_cutoff=m_max)
    report.seconds = time.perf_counter() - t0
    return report


def _check_saturated_order(
    g: Graph | None, n: int, s: int, parts: list[int], reference=None
) -> dict | None:
    """K_s v (K_{n1} u ... u K_{nq}) of order n is strictly above the threshold
    root's bracket `reference` (lo, hi), or is the threshold graph with its
    root in (lo, hi]."""
    spec = (s, tuple(parts))
    return _check_spec_order(
        "saturated-order", g, n, spec, _reference_parts(n), True, reference, s=s, parts=list(parts)
    )


def _saturated_order_scan(report: SuiteReport, n: int, root: CertifiedRoot) -> None:
    """_check_saturated_order on every spec (s >= 1, s + 2 odd parts) of order n."""
    threshold, counts = _reference_parts(n), {"certified_above": 0, "threshold_matches": 0}
    for s, parts in _specs(n):
        violation = _check_saturated_order(None, n, s, parts, (root.lo, root.hi))
        _record(report, violation)
        if violation is None:
            counts["threshold_matches" if (s, parts) == threshold else "certified_above"] += 1
    report.extras.update(counts)


# ---------------------------------------------------------------------------
# randomized probes of the fractional-matching threshold


@functools.cache
def _probe_specs(n: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The specs (s, parts) the probe draws from: those of _specs(n, fractional=True)
    with k <= s <= k + 2, that is s + 2 odd parts, at most s of them 1."""
    specs = itertools.takewhile(lambda spec: spec[0] <= k + 2, _specs(n, fractional=True))
    return tuple(spec for spec in specs if spec[0] >= k)


def _random_barrier_graph(
    rng: random.Random, n: int, k: int
) -> tuple[Graph, int, FractionalWitness]:
    """(G, S, w): a random G built around a Tutte barrier S, the hub 0..s-1 of a spec
    (s, parts) drawn from _probe_specs, and a fractional perfect matching w of G.
    Singleton parts are matched to hub vertices (weight 1), larger parts lie on
    Hamiltonian cycles (weight 1/2), the last through the hub vertices left over.
    The s+2 odd parts forbid a perfect matching, and the hub, usually universal,
    keeps G k-connected."""
    s, parts = rng.choice(_probe_specs(n, k))
    rows = [0] * n

    def join(pairs, p):  # each pair an edge with probability p
        for u, v in pairs:
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u

    join(itertools.combinations(range(s), 2), rng.uniform(0.5, 1.0))
    ones = parts.count(1)
    weights = [((u, s + u), _ONE) for u in range(ones)]
    base = s + ones
    for size in parts[ones:]:
        order = list(range(base, base + size))
        rng.shuffle(order)
        if base + size == n:
            order += range(ones, s)  # the hub vertices left over
        weights += (((u, v) if u < v else (v, u), _HALF) for u, v in zip(order[-1:] + order, order))
        join(itertools.combinations(range(base, base + size), 2), rng.uniform(0.3, 0.9))
        base += size
    for (u, v), _ in weights:  # the witness's edges are in G whatever the draws
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    hub = (1 << s) - 1
    if rng.random() < 0.25:  # drop about a tenth of the hub's cross edges
        join(itertools.product(range(s), range(s, n)), 0.9)
    else:  # join the hub to every other vertex
        rows = [row | (hub if v >= s else (1 << n) - 1 - hub) for v, row in enumerate(rows)]
    return Graph.from_rows(rows), hub, FractionalWitness(tuple(weights))


def check_probe_sample(g: Graph, k: int, ref_root=None, counts=None) -> dict | None:
    """Predicate behind the probe suite (check "probe-order"): a valid sample
    must have radius strictly above the threshold root, unless it is the
    threshold graph itself. Returns a violation record or None. The exact
    floor 2W/n (the bracket at tol = inf, no eigensolve) decides first, the
    default-tol bracket the rest; `counts` tallies the stage that decided."""
    ref_root = family_quartic_root(g.n, k) if ref_root is None else ref_root
    counts = dict.fromkeys(_PROBE_KEYS, 0) if counts is None else counts
    if distance_spectral_radius(g, math.inf).lo > ref_root.hi:
        counts["floor_decided"] += 1
        return None
    est = distance_spectral_radius(g)
    counts["eigensolves"] += 1
    if est.lo > ref_root.hi or matches_clique_join(g, k, canonical_parts(g.n, k)):
        return None
    detail = "valid sample with radius not above the threshold"
    return _violation("probe-order", g, detail, n=g.n, k=k, **_below(est, ref_root))


def probe_extremal_bound(
    n: int,
    k: int,
    trials: int,
    seed: int = 0,
    exploratory: bool = False,
) -> SuiteReport:
    """Sample k-connected even-order graphs with a fractional but no perfect
    matching and assert each has radius strictly above the threshold graph.

    Samples come from randomized barrier templates and are counted once the
    three hypotheses hold. No perfect matching is proved by the template's
    Tutte set, the hub S with o(G-S) >= |S|+2, and the blossom decides only
    when S does not certify; the fractional perfect matching by the witness
    the sampler builds with the graph. With exploratory=True, orders below the
    proven range 8k+6 are admitted and failures are expected to be possible;
    the report is flagged accordingly. extras "floor_decided" and "eigensolves"
    split the cases by check_probe_sample's deciding stage.
    """
    if k < 1 or n % 2 or n < 2 * k + 6:
        raise ParameterError(f"need even n >= 2k+6 and k >= 1, got n={n}, k={k}")
    if n < 8 * k + 6 and not exploratory:
        raise ParameterError(
            f"n={n} below proven range 8k+6={8 * k + 6}; pass exploratory=True to probe anyway"
        )
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = SuiteReport("probe13", {"n": n, "k": k, "trials": trials, "seed": seed})
    if exploratory:
        report.extras["exploratory"] = True
    ref_root = family_quartic_root(n, k)
    report.extras["reference_mu"] = [float(ref_root.lo), float(ref_root.hi)]
    rejected = {"connectivity": 0, "perfect": 0}
    counts = dict.fromkeys(_PROBE_KEYS, 0)
    attempts = 0
    attempt_cap = 200 * trials + 1000
    while report.cases < trials:
        if attempts >= attempt_cap:
            raise RuntimeError(
                f"sampler stalled after {attempts} attempts "
                f"({report.cases}/{trials} valid samples)"
            )
        attempts += 1
        g, hub, witness = _random_barrier_graph(rng, n, k)
        if not is_k_connected(g, k):
            rejected["connectivity"] += 1
            continue
        if odd_components(g, hub) < hub.bit_count() + 2 and has_perfect_matching(g):
            rejected["perfect"] += 1
            continue
        if not witness.holds_for(g):
            raise RuntimeError("sampler built a fractional witness that does not hold")
        _record(report, check_probe_sample(g, k, ref_root, counts))
    report.extras["attempts"] = attempts
    report.extras["rejected"] = rejected
    report.extras.update(counts)
    report.seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# lemma suites


def _check_corollary_order(g: Graph | None, n: int) -> dict | None:
    """The fractional threshold graph of order n, the canonical 1-hub shape, is
    strictly above the exact root of the plain threshold graph
    K_1 v (K_{n-3} u 2K_1), which is the Theorem 11 reference for n >= 10."""
    spec = (1, canonical_parts(n, 1))
    return _check_spec_order("corollary-order", g, n, spec, _reference_parts(n))


def corollary_comparison(n_lo: int = 14, n_hi: int = 40) -> SuiteReport:
    """The fractional threshold graph K_1 v (K_1 u K_3 u K_{n-5}) must sit
    strictly above the plain threshold graph K_1 v (K_{n-3} u 2K_1), decided
    exactly on their quotients; each margin is the gap between the exact
    root brackets."""
    if n_lo < 14 or n_lo % 2 or n_hi % 2 or n_hi < n_lo or n_hi > VERTEX_CAP:
        raise ParameterError(f"need even 14 <= n_lo <= n_hi <= {VERTEX_CAP}, got [{n_lo}, {n_hi}]")
    t0 = time.perf_counter()
    report = SuiteReport("corollary14", {"n_lo": n_lo, "n_hi": n_hi})
    margins = {}
    for n in range(n_lo, n_hi + 1, 2):
        margins[n] = float(family_quartic_root(n, 1).lo - threshold_reference(n).hi)
        _record(report, _check_corollary_order(None, n))
    report.extras["margins"] = margins
    report.seconds = time.perf_counter() - t0
    return report


def _dominated(dist_h: np.ndarray, dist_g: np.ndarray) -> np.ndarray:
    """D(H) <= D(G) entrywise with some entry lower, for each H of a stack."""
    return (dist_h <= dist_g).all(axis=(-2, -1)) & (dist_h < dist_g).any(axis=(-2, -1))


def _edge_stack(g: Graph, edges=None) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The edges uv, by default every pair missing from G in combinations
    order, and the (1 + m, n, n) stack of 0/1 adjacency matrices of G and of
    each G + uv: copies of G's own matrix with entries uv and vu set to 1."""
    adjacency = _adjacency_matrices([g])
    if edges is None:  # row-major, so the upper triangle is in combinations order
        us, vs = np.nonzero(adjacency[0] == 0)
        us, vs = us[us < vs], vs[us < vs]
    else:
        us, vs = np.array(edges).T
    stack = np.repeat(adjacency, len(us) + 1, axis=0)
    copies = np.arange(1, len(us) + 1)
    stack[copies, us, vs] = stack[copies, vs, us] = 1
    return list(zip(us.tolist(), vs.tolist())), stack


def _check_edge_monotonicity(g: Graph, edge: Sequence[int], dominated=None) -> dict | None:
    """Adding the missing edge uv strictly lowers the radius: D(G + uv) <= D(G)
    entrywise with some entry lower (no path lengthens, d(u, v) drops to 1),
    and D(G) is irreducible for G connected, n >= 2, so rho drops strictly by
    Perron-Frobenius (Berman & Plemmons, 1994, ch. 2, Wielandt's theorem)."""
    u, v = edge
    if dominated is None:
        if u == v or not (0 <= u < g.n and 0 <= v < g.n) or g.has_edge(u, v):
            raise ParameterError(f"invalid edge ({u},{v}): not a pair missing from G")
        dist_g, dist_h = _distance_matrices(_edge_stack(g, [edge])[1])
        dominated = _dominated(dist_h, dist_g)
    if dominated:
        return None
    detail = "D(G + uv) is not entrywise at most D(G) with some entry lower"
    return _violation("edge-monotonicity", g, detail, edge=[u, v])


def _check_family_ordering(g: Graph | None, n: int, s: int, parts: list[int]) -> dict | None:
    """K_s v (K_{n1} u ... u K_{nq}) is strictly above the same hub joined to
    s singletons, q-s-1 triangles and one large clique."""
    spec, ref = (s, tuple(parts)), (s, canonical_parts(n, s, len(parts)))
    return _check_spec_order("family-ordering", g, n, spec, ref, s=s, parts=list(parts))


def _ordering_sweep() -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(n, s, parts), by n, of every spec that family ordering compares with
    its canonical shape: even order 10..64 (no lower order has one), q >= s+2
    parts, at most s of them 1, and not canonical_parts(n, s, q) itself."""
    for n in range(10, VERTEX_CAP + 1, 2):
        specs = _specs(n, every_q=True, fractional=True)
        yield from ((n, s, p) for s, p in specs if p != canonical_parts(n, s, len(p)))


def lemma_suites(
    seed: int = 0,
    monotonicity_graphs: int = 200,
    ordering_specs: int = 100,
    corollary_span: tuple[int, int] = (14, 40),
) -> SuiteReport:
    """Exact checks of the supporting inequalities, with no eigensolve.

    Adding an edge to a random graph strictly lowers the radius: one dominance
    test over the stacked BFS of G and every G + uv. The first `ordering_specs` of
    the 174,877 specs of _ordering_sweep sit strictly above their canonical shape,
    whole through extras "ordering_complete_through" (n = 20 at 100, 40 at 6,151), and
    the two thresholds compare on even orders in `corollary_span`, on quotients.
    """
    if min(monotonicity_graphs, ordering_specs) < 0 or ordering_specs > _ORDERING_SWEEP_SIZE:
        raise ParameterError(f"need counts >= 0 and ordering_specs <= {_ORDERING_SWEEP_SIZE}, "
                             f"got {monotonicity_graphs}, {ordering_specs}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = SuiteReport(
        "lemmas",
        {
            "seed": seed,
            "monotonicity_graphs": monotonicity_graphs,
            "ordering_specs": ordering_specs,
            "corollary_span": list(corollary_span),
        },
    )
    corollary = corollary_comparison(*corollary_span)  # checks the span before any other work
    edge_checks = 0
    for _ in range(monotonicity_graphs):
        n = rng.randrange(5, 15)  # orders 5..14
        g = random_connected_graph(rng, n)
        missing, stack = _edge_stack(g)
        dists = _distance_matrices(stack)
        for edge, dominated in zip(missing, _dominated(dists[1:], dists[0]).tolist()):
            _record(report, _check_edge_monotonicity(g, edge, dominated))
        edge_checks += len(missing)
    report.extras["edge_checks"] = edge_checks

    sweep = _ordering_sweep()
    for n, s, parts in itertools.islice(sweep, ordering_specs):
        _record(report, _check_family_ordering(None, n, s, list(parts)))
    # the first spec left undecided, if any, opens the first order not complete
    report.extras["ordering_complete_through"] = next(sweep, (VERTEX_CAP + 2,))[0] - 2

    report.cases += corollary.cases
    report.violations.extend(corollary.violations)
    report.extras["corollary_margins"] = corollary.extras["margins"]

    report.seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# exact identity suite for the quartic coefficient chain


def identity_suite(
    ks: tuple[int, ...] = (1, 2, 3), grid_span: int = 20, k_top: int = 50
) -> SuiteReport:
    """Exact checks of the scalar chain behind the ordering argument.

    On each grid point (k, even n in [8k+6, 8k+6+grid_span]): the quartic
    difference across hub sizes factors through hub_gap_coefficient; twice
    its value at s=(n-6)/2 is gap_bound_cubic; the cubic at mu=n+k+3 matches
    the expanded form, is negative, and both it and the cubic's tail are
    certified decreasing. All arithmetic is exact, in ints: at mu = p/q every
    value is scaled by a power of q > 0, so each identity holds with equality
    and each sign is an exact comparison.
    """
    if min(grid_span, k_top) < 0 or min(ks, default=1) < 1 or not (ks or k_top):
        got = f"ks={ks}, grid_span={grid_span}, k_top={k_top}"
        raise ParameterError(f"need every k >= 1, spans >= 0 and at least one case, got {got}")
    t0 = time.perf_counter()
    report = SuiteReport("identities", {"ks": list(ks), "grid_span": grid_span, "k_top": k_top})

    def check(name: str, ok: bool, **data):
        report.cases += 1
        if not ok:
            report.violations.append(_violation(name, None, name, **data))

    for k in ks:
        for n in range(8 * k + 6, 8 * k + 6 + grid_span + 1, 2):
            root = family_quartic_root(n, k, width=Fraction(1, 10**12))
            # mu = p/q = root.lo, exact and certified within 1e-12 of the radius
            p, q = root.lo.numerator, root.lo.denominator
            half_n = (n - 6) // 2  # n is even
            # q^4 quartic(n, k)(mu), and q^3 the gap at each s = k .. (n-6)/2
            base = family_quartic(n, k).numerator(p, q)
            gaps = [hub_gap_coefficient(s, n, k, p, q) for s in range(k, half_n + 1)]
            for s in range(k, min(k + 4, half_n + 1)):
                diff = family_quartic(n, s).numerator(p, q) - base
                check("hub-gap-factorization", diff == (s - k) * q * gaps[s - k], n=n, k=k, s=s)
            check("gap-cubic-equivalence", 2 * gaps[-1] == gap_bound_cubic(p, n, k, q), n=n, k=k)
            floor = n + k + 3
            check(
                "cubic-at-floor",
                gap_bound_cubic(floor, n, k) == gap_bound_at_radius_floor(n, k),
                n=n, k=k,
            )
            check("floor-negative", gap_bound_at_radius_floor(n, k) < 0, n=n, k=k)
            # parabola vertex beyond (n-6)/2 makes the gap increasing in s:
            # V / (2 (2 mu + 8)) > half_n, times 2 (2 mu + 8) q^2 > 0 (mu > 0)
            vertex_num = 5 * p * p + (n - 2 * k + 16) * p * q + (4 * n - 8 * k - 4) * q * q
            check("gap-vertex", vertex_num > half_n * 2 * (2 * p + 8 * q) * q, n=n, k=k)
            check("gap-increasing", all(a < b for a, b in zip(gaps, gaps[1:])), n=n, k=k)
            # cubic decreasing past the floor: derivative negative there and
            # concave beyond, so negative on the whole tail
            check(
                "cubic-decreasing",
                gap_bound_cubic_deriv(floor, n, k) < 0 and -10 * n + 8 * k - 32 < 0,
                n=n, k=k,
            )
    for k in range(1, k_top + 1):
        value = gap_bound_at_radius_floor(8 * k + 6, k)
        check(
            "floor-closed-form",
            value == -36 * k**3 + 110 * k * k - 120 * k - 402 and value < 0,
            k=k,
        )
        # the expanded cubic falls as n grows past 8k+6: derivative negative
        # at the left end and concave in n
        check("floor-decreasing", gap_bound_floor_deriv(8 * k + 6, k) < 0, k=k)
    report.seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# enumeration and replay


def _chunk_range(total: int, chunk: tuple[int, int]) -> tuple[int, int]:
    """Start and stop of chunk (index, count) of the items 0..total-1."""
    ci, cm = chunk
    if cm < 1:
        raise ParameterError(f"chunk count must be positive, got {cm}")
    if not 0 <= ci < cm:
        raise ParameterError(f"chunk index {ci} outside 0..{cm - 1}")
    return total * ci // cm, total * (ci + 1) // cm


def enumerate_graphs(
    n: int, connected_only: bool = False, chunk: tuple[int, int] = (0, 1)
) -> Iterator[Graph]:
    """All labeled graphs on n vertices in edge-mask order; n <= 8."""
    if n < 1 or n > ENUMERATE_CAP:
        raise ParameterError(f"enumeration supports 1 <= n <= {ENUMERATE_CAP}, got {n}")
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(*_chunk_range(1 << len(pairs), chunk)):
        g = _graph_from_mask(n, mask, pairs)
        if connected_only and not is_connected(g):
            continue
        yield g


CHECKS: dict[str, Callable[..., dict | None]] = {
    "exact-connectivity": _check_exact_connectivity,
    "fractional-pm": _check_fractional_pm,
    "tutte-certificate": _check_tutte_set,
    "exhaustive-oracles": _check_exhaustive_oracles,
    "quartic-agreement": _check_quartic_agreement,
    "wiener-closed-form": _check_wiener_closed_form,
    "radius-floor": _check_radius_floor,
    "chain-equality": _check_chain_canonical,
    "chain-canonical": _check_chain_canonical,
    "chain-threshold": _check_chain_threshold,
    "threshold-order": _check_threshold_order,
    "saturated-order": _check_saturated_order,
    "probe-order": check_probe_sample,
    "corollary-order": _check_corollary_order,
    "edge-monotonicity": _check_edge_monotonicity,
    "family-ordering": _check_family_ordering,
}


def replay_violation(violation: dict) -> bool:
    """Re-run the recorded check on its witness; True iff it still fails.

    The predicate gets the fields of `data` that it names as parameters;
    values a suite passed in to avoid solving a graph twice are recomputed.
    """
    check = CHECKS.get(violation["check"])
    if check is None:
        raise ParameterError(f"no predicate registered for check {violation['check']!r}")
    if violation["witness"] is None:
        raise ParameterError("violation carries no witness graph")
    g = parse_graph6(violation["witness"])
    params = inspect.signature(check).parameters
    args = {key: value for key, value in violation["data"].items() if key in params}
    return check(g, **args) is not None
