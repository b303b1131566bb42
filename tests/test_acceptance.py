"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <k>: PASS/FAIL" line (visible under
pytest -s); the assertion carries the same verdict.
"""

import random
import time
from fractions import Fraction

from specmatch import (
    Graph,
    char_poly,
    distance_matrix,
    distance_spectral_radius,
    extremal_family,
    extremal_partition,
    family_quartic,
    family_quartic_root,
    has_fractional_pm,
    has_fractional_pm_exhaustive,
    has_perfect_matching,
    has_pm_bruteforce,
    identity_suite,
    lemma_suites,
    matching_number,
    pm_threshold_scan,
    probe_extremal_bound,
    quotient_matrix,
    tutte_deficiency_bruteforce,
    verify_extremal_family,
    wiener_index,
)


def _verdict(num: int, ok: bool, t0: float, detail: str = "") -> str:
    elapsed = time.perf_counter() - t0
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    return line


def _random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def test_criterion_1_quotient_coefficient_identity():
    t0 = time.perf_counter()
    mismatches = []
    for s in range(1, 7):
        for n in range(2 * s + 6, 61, 2):
            dist = distance_matrix(extremal_family(n, s)).tolist()
            q = quotient_matrix(dist, extremal_partition(n, s))
            if char_poly(q) != family_quartic(n, s):
                mismatches.append((n, s))
    line = _verdict(1, not mismatches, t0, f"mismatches at {mismatches}")
    assert not mismatches, line


def test_criterion_2_radius_matches_quartic_root():
    t0 = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        for n in range(8 * k + 6, 8 * k + 27, 2):
            est = distance_spectral_radius(extremal_family(n, k), tol=1e-8)
            root = family_quartic_root(n, k)
            if abs(est.value - root.value) > 1e-6:
                failures.append((n, k, est.value, root.value))
    spot = family_quartic(14, 1).coefficients == (1, -10, -153, -368, -172)
    spot_root = family_quartic_root(14, 1)
    spot = spot and Fraction(130, 7) < spot_root.lo and spot_root.hi <= 25
    ok = not failures and spot
    line = _verdict(2, ok, t0, f"spot={spot} failures={failures[:3]}")
    assert ok, line


def test_criterion_3_extremal_family_structure():
    t0 = time.perf_counter()
    reports = [
        verify_extremal_family(n, k)
        for n, k in ((14, 1), (22, 2), (30, 3))
    ]
    ok = all(r.passed for r in reports)
    detail = "; ".join(
        f"(n={r.params['n']},k={r.params['k']}): {len(r.violations)} violations"
        for r in reports
    )
    line = _verdict(3, ok, t0, detail)
    assert ok, line


def test_criterion_4_exhaustive_small_order_scan():
    t0 = time.perf_counter()
    r4 = pm_threshold_scan(4)
    r6 = pm_threshold_scan(6)
    ok = r4.passed and r4.cases == 38 and r6.passed and r6.cases == 26704
    line = _verdict(
        4, ok, t0,
        f"n=4: {r4.cases} cases {len(r4.violations)} violations; "
        f"n=6: {r6.cases} cases {len(r6.violations)} violations",
    )
    assert ok, line


def test_criterion_4_exhaustive_scan_n8():
    t0 = time.perf_counter()
    report = pm_threshold_scan(8)
    # 251548592 is the labeled connected graph count at n=8; the 56 threshold
    # copies are the C(8,3) hub choices of K_3 v 5K_1
    ok = (
        report.passed
        and report.cases == 251548592
        and report.extras["extremal_matches"] == 56
    )
    line = _verdict(
        4, ok, t0,
        f"n=8: {report.cases} cases {len(report.violations)} violations",
    )
    print(f"  n=8 extras: {report.extras}")
    assert ok, line


def test_criterion_4_saturated_reduction_n10_to_64():
    # above n = 8 the scan is the saturated-graph reduction: every spec
    # (s, parts) is decided by an exact pivot sign, 53,650 of them in all
    t0 = time.perf_counter()
    reports = [pm_threshold_scan(n) for n in range(10, 65, 2)]
    ok = (
        all(r.passed for r in reports)
        and all(r.extras["threshold_matches"] == 1 for r in reports)
        and all(r.extras["certified_above"] == r.cases - 1 for r in reports)
        and sum(r.cases for r in reports) == 53650
    )
    failed = [r.params["n"] for r in reports if not r.passed]
    line = _verdict(4, ok, t0, f"failing orders: {failed}")
    assert ok, line


def test_criterion_5_proof_chain_identities():
    t0 = time.perf_counter()
    report = identity_suite(ks=(1, 2, 3), grid_span=20, k_top=50)
    ok = report.passed
    line = _verdict(5, ok, t0, f"{len(report.violations)} violations")
    assert ok, line


def test_criterion_6_wiener_closed_form_and_radius_floor():
    t0 = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        for n in range(8 * k + 6, 8 * k + 27, 2):
            g = extremal_family(n, k)
            closed = (n * n + (2 * k + 5) * n - 3 * k * k - 13 * k - 18) // 2
            if wiener_index(g) != closed:
                failures.append(("wiener", n, k))
            if not family_quartic_root(n, k).lo > n + k + 3:
                failures.append(("floor", n, k))
    spot = wiener_index(extremal_family(14, 1)) == 130
    ok = not failures and spot
    line = _verdict(6, ok, t0, f"spot={spot} failures={failures}")
    assert ok, line


def test_criterion_7_lemma_suites():
    t0 = time.perf_counter()
    report = lemma_suites(seed=0)
    ok = report.passed
    line = _verdict(
        7, ok, t0,
        f"{report.cases} cases, {len(report.violations)} violations",
    )
    assert ok, line


def test_criterion_8_oracle_equivalences():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    pm_disagreements = 0
    for _ in range(10**4):
        n = rng.randrange(1, 13)
        g = _random_graph(rng, n, rng.uniform(0.05, 0.95))
        nu = matching_number(g)
        deficiency, _ = tutte_deficiency_bruteforce(g)
        if has_perfect_matching(g) != has_pm_bruteforce(g):
            pm_disagreements += 1
        elif deficiency != n - 2 * nu:
            pm_disagreements += 1
    frac_disagreements = 0
    for _ in range(10**3):
        n = rng.randrange(1, 15)
        g = _random_graph(rng, n, rng.uniform(0.05, 0.95))
        if has_fractional_pm(g) != has_fractional_pm_exhaustive(g):
            frac_disagreements += 1
    ok = pm_disagreements == 0 and frac_disagreements == 0
    line = _verdict(
        8, ok, t0,
        f"pm disagreements={pm_disagreements}, fractional={frac_disagreements}",
    )
    assert ok, line


def test_criterion_9_theorem_probes():
    t0 = time.perf_counter()
    r1 = probe_extremal_bound(14, 1, trials=10**4, seed=0)
    r2 = probe_extremal_bound(22, 2, trials=10**3, seed=0)
    ok = r1.passed and r2.passed
    line = _verdict(
        9, ok, t0,
        f"(14,1): {len(r1.violations)} violations over {r1.cases}; "
        f"(22,2): {len(r2.violations)} violations over {r2.cases}",
    )
    assert ok, line
