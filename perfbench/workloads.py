"""The four benchmark workloads, each driven only through specmatch's public API.

A workload turns the benchmark seed into an endless, reproducible sequence of
rounds. `run_round` times the library calls of one round, checks their
verdicts outside the timed region and returns a Round. Rerunning a round must
give the same `fingerprint`: the benchmark compares the untraced and the
traced window round by round, and the scan reruns its first chunk.

Library functions are looked up on the package at call time (`sm.name`), so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

import specmatch as sm

clock = time.perf_counter


@dataclass
class Round:
    units: int
    failed: int
    seconds: float
    fingerprint: tuple
    problems: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # per graph, oracles only
    counters: dict = field(default_factory=dict)


class Workload:
    """Interface the runner drives: `rounds()` yields round inputs from the
    seed, `warmup()` is the untimed pass before the window, `run_round(x)`
    returns a Round and `extra_checks(window)` runs untimed checks after it."""

    name: str
    unit: str  # what one unit of units_per_s is

    def extra_checks(self, window: list[Round]) -> list[str]:
        return []


def _report_problems(report, label: str) -> list[str]:
    if report.passed:
        return []
    return [f"{label}: {len(report.violations)} violations, first {report.violations[0]}"]


class Scan8(Workload):
    """Exhaustive n=8 threshold scan over seeded chunks of 2^18 masks.

    A chunk of 2^28 / 1024 masks is exactly one vectorized block of the scan,
    so the prefilter does the same work per mask as in a whole-range scan,
    while a 10 s window still holds dozens of rounds for a steady median.
    """

    name = "scan8"
    unit = "masks scanned"
    CHUNKS = 1024
    STRATA = 256
    SUBRANGES = 1 << 18  # cross-check granularity: 1024 masks per sub-range

    def __init__(self, seed: int):
        rng = random.Random(seed)
        per = self.CHUNKS // self.STRATA
        self.chunks = [s * per + rng.randrange(per) for s in range(self.STRATA)]
        rng.shuffle(self.chunks)
        self.warm_chunk = rng.randrange(4096)
        quarter = self.SUBRANGES // 4
        self.subranges = [q * quarter + rng.randrange(quarter) for q in range(4)]

    def rounds(self):
        return itertools.cycle(self.chunks)

    def warmup(self) -> None:
        sm.pm_threshold_scan(8, chunk=(self.warm_chunk, 4096))

    def run_round(self, ci: int) -> Round:
        t0 = clock()
        report = sm.pm_threshold_scan(8, chunk=(ci, self.CHUNKS), threads=1)
        seconds = clock() - t0
        x = report.extras
        masks = (1 << 28) // self.CHUNKS
        problems = _report_problems(report, f"chunk {ci}")
        if x["masks_scanned"] != masks:
            problems.append(f"chunk {ci}: scanned {x['masks_scanned']} masks, expected {masks}")
        if report.cases != x["connected"]:
            problems.append(f"chunk {ci}: cases {report.cases} != connected {x['connected']}")
        funnel = (
            x["wiener_mask_pruned"] + x["wiener_exact_pruned"] + x["extremal_matches"]
            + x["eigensolves"]
        )
        if funnel != x["no_pm_connected"]:
            problems.append(f"chunk {ci}: funnel {funnel} != no_pm_connected {x['no_pm_connected']}")
        if x["eigensolves"] != x["strictly_greater"]:
            problems.append(f"chunk {ci}: eigensolves {x['eigensolves']} not all strictly greater")
        return Round(
            units=masks,
            failed=masks if problems else 0,
            seconds=seconds,
            fingerprint=(ci, x["connected"], x["extremal_matches"], x["eigensolves"]),
            problems=problems,
            counters={"eigensolves": x["eigensolves"]},
        )

    def extra_checks(self, window: list[Round]) -> list[str]:
        """Untimed: the first chunk repeats its funnel counts exactly, and on
        small sub-ranges the vectorized prefilter agrees with per-graph
        enumeration, is_connected and blossom matching."""
        problems = []
        first = window[0]
        again = self.run_round(first.fingerprint[0])
        if again.fingerprint != first.fingerprint:
            problems.append(f"scan counts did not repeat: {first.fingerprint} vs {again.fingerprint}")
        for sub in self.subranges:
            chunk = (sub, self.SUBRANGES)
            report = sm.pm_threshold_scan(8, chunk=chunk)
            connected = no_pm = 0
            for g in sm.enumerate_graphs(8, chunk=chunk):
                if sm.is_connected(g):
                    connected += 1
                    no_pm += not sm.has_perfect_matching(g)
            got = (report.extras["connected"], report.extras["no_pm_connected"])
            if got != (connected, no_pm) or not report.passed:
                problems.append(f"sub-range {chunk}: scan {got} vs per-graph {(connected, no_pm)}")
        return problems


class Probe(Workload):
    """probe13 certification path at (n, k) = (14, 1) and (22, 2)."""

    name = "probe"
    unit = "valid samples"
    PLAN = ((14, 1, 400), (22, 2, 40))

    def __init__(self, seed: int):
        self.seed = seed

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            yield tuple(rng.getrandbits(31) for _ in self.PLAN)

    def warmup(self) -> None:
        for (n, k, trials), s in zip(self.PLAN, next(self.rounds())):
            sm.probe_extremal_bound(n, k, max(2, trials // 50), seed=s)

    def run_round(self, seeds: tuple[int, ...]) -> Round:
        seconds = 0.0
        units = failed = attempts = 0
        problems: list[str] = []
        fingerprint = []
        for (n, k, trials), s in zip(self.PLAN, seeds):
            t0 = clock()
            report = sm.probe_extremal_bound(n, k, trials, seed=s)
            seconds += clock() - t0
            label = f"probe({n},{k},{trials},seed={s})"
            problems += _report_problems(report, label)
            rejected = sum(report.extras["rejected"].values())
            if report.cases != trials or report.extras["attempts"] != report.cases + rejected:
                problems.append(f"{label}: cases {report.cases}, attempts {report.extras['attempts']}")
            units += report.cases
            failed += len(report.violations)
            attempts += report.extras["attempts"]
            fingerprint.append((report.cases, report.extras["attempts"]))
        return Round(
            units=units,
            failed=failed,
            seconds=seconds,
            fingerprint=tuple(fingerprint),
            problems=problems,
            counters={"attempts": attempts},
        )


class Lemmas(Workload):
    """lemma_suites(seed) followed by the exact identity_suite()."""

    name = "lemmas"
    unit = "suite cases"

    def __init__(self, seed: int):
        self.seed = seed

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            yield rng.getrandbits(31)

    def warmup(self) -> None:
        s = next(self.rounds())
        sm.lemma_suites(s, monotonicity_graphs=4, ordering_specs=4, corollary_span=(14, 16))
        sm.identity_suite(ks=(1,), grid_span=2, k_top=2)

    def run_round(self, s: int) -> Round:
        t0 = clock()
        lemmas = sm.lemma_suites(s)
        identities = sm.identity_suite()
        seconds = clock() - t0
        problems = _report_problems(lemmas, f"lemma_suites({s})")
        problems += _report_problems(identities, "identity_suite()")
        if lemmas.cases <= 0 or identities.cases <= 0:
            problems.append(f"empty suite: {lemmas.cases} + {identities.cases} cases")
        return Round(
            units=lemmas.cases + identities.cases,
            failed=len(lemmas.violations) + len(identities.violations),
            seconds=seconds,
            fingerprint=(lemmas.cases, lemmas.extras["edge_checks"], identities.cases),
            problems=problems,
        )


def _random_graph(rng: random.Random, n: int):
    p = rng.uniform(0.05, 0.95)
    return sm.Graph(n, [uv for uv in itertools.combinations(range(n), 2) if rng.random() < p])


class Oracles(Workload):
    """Matching decisions against the exponential brute-force oracles.

    A round checks one G(n, p) graph of every order 1..12 with the perfect
    matching oracles and one graph with the fractional oracles, its order
    cycling through 1..14. Fixing the order mix per round keeps the cost of
    a round steady across seeds; the seed draws p and the edges.
    """

    name = "oracles"
    unit = "graphs checked"
    PM_ORDERS = range(1, 13)
    FRACTIONAL_ORDERS = 14

    def __init__(self, seed: int):
        self.seed = seed

    def rounds(self):
        rng = random.Random(self.seed)
        for r in itertools.count():
            graphs = [("pm", _random_graph(rng, n)) for n in self.PM_ORDERS]
            graphs.append(("fractional", _random_graph(rng, 1 + r % self.FRACTIONAL_ORDERS)))
            yield graphs

    def warmup(self) -> None:
        self.run_round(next(self.rounds()))

    def run_round(self, graphs) -> Round:
        seconds = 0.0
        failed = 0
        problems: list[str] = []
        latencies = []
        fingerprint = []
        for kind, g in graphs:
            t0 = clock()
            try:
                if kind == "pm":
                    nu = sm.matching_number(g)
                    deficiency, _ = sm.tutte_deficiency_bruteforce(g)
                    verdict = (nu, deficiency, sm.has_perfect_matching(g), sm.has_pm_bruteforce(g))
                    ok = verdict[2] == verdict[3] and deficiency == g.n - 2 * nu
                else:
                    verdict = (sm.has_fractional_pm(g), sm.has_fractional_pm_exhaustive(g))
                    ok = verdict[0] == verdict[1]
            except Exception as exc:  # a raising oracle is a failed unit, not a crash
                verdict, ok = (repr(exc),), False
            dt = clock() - t0
            seconds += dt
            latencies.append(dt)
            fingerprint.append(verdict)
            if not ok:
                failed += 1
                problems.append(f"{kind} oracles disagree on {sm.write_graph6(g)}: {verdict}")
        return Round(
            units=len(graphs),
            failed=failed,
            seconds=seconds,
            fingerprint=tuple(fingerprint),
            problems=problems,
            latencies=latencies,
        )


WORKLOADS = {w.name: w for w in (Scan8, Probe, Lemmas, Oracles)}
