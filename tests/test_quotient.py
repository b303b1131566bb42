"""Exact quotient algebra: equitable partitions, char polys, certified roots."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from specmatch import (
    ExactPolynomial,
    ParameterError,
    char_poly,
    complete_graph,
    disjoint_union,
    distance_matrix,
    empty_graph,
    extremal_family,
    extremal_partition,
    family_quartic,
    family_quartic_root,
    gap_bound_at_radius_floor,
    gap_bound_cubic,
    gap_bound_cubic_deriv,
    gap_bound_floor_deriv,
    hub_gap_coefficient,
    join,
    quotient_matrix,
    wiener_index,
)
from specmatch.graphs import canonical_parts
from specmatch.harness import _reference_parts
from specmatch.quotient import (
    DEFAULT_ROOT_WIDTH,
    _minor_certificate,
    _saturated_quotient,
    _saturated_root,
)


def _det(matrix):
    """Fraction Gaussian elimination with partial pivoting; local oracle."""
    m = [[Fraction(v) for v in row] for row in matrix]
    t = len(m)
    det = Fraction(1)
    for col in range(t):
        pivot = next((r for r in range(col, t) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, t):
            factor = m[r][col] * inv
            for c in range(col, t):
                m[r][c] -= factor * m[col][c]
    return det


def _char_poly_oracle_value(entries, x):
    t = len(entries)
    shifted = [
        [Fraction(x) * (i == j) - Fraction(entries[i][j]) for j in range(t)]
        for i in range(t)
    ]
    return _det(shifted)


def test_equitable_recognition():
    dist = distance_matrix(extremal_family(14, 1)).tolist()
    assert len(quotient_matrix(dist, extremal_partition(14, 1))) == 4
    # moving a singleton in with the triangle breaks equitability
    bad = [[0], [1, 2], [3, 4], list(range(5, 14))]
    with pytest.raises(ParameterError, match="not equitable"):
        quotient_matrix(dist, bad)


def test_partition_validation():
    dist = distance_matrix(complete_graph(4)).tolist()
    with pytest.raises(ParameterError):
        quotient_matrix(dist, [[0, 1], [2]])  # misses vertex 3
    with pytest.raises(ParameterError):
        quotient_matrix(dist, [[0, 1], [1, 2, 3]])  # duplicate
    with pytest.raises(ParameterError):
        quotient_matrix(dist, [[0, 1], [], [2, 3]])  # empty block
    with pytest.raises(ParameterError):
        quotient_matrix(dist, [[0, 1], [2, 5]])  # out of range


def test_quotient_rows_for_reference_family():
    dist = distance_matrix(extremal_family(14, 1)).tolist()
    q = quotient_matrix(dist, extremal_partition(14, 1))
    assert len(q) == 4 and all(type(x) is int for row in q for x in row)
    expected = ((0, 1, 3, 9), (1, 0, 6, 18), (1, 2, 2, 18), (1, 2, 6, 8))
    assert q == expected
    # block row sums are the transmissions of the block representatives
    assert [sum(row) for row in q] == [13, 25, 23, 17]


def test_quotient_rejects_non_equitable():
    dist = distance_matrix(extremal_family(14, 1)).tolist()
    with pytest.raises(ParameterError):
        quotient_matrix(dist, [[0], [1, 2], [3, 4], list(range(5, 14))])


def test_char_poly_against_determinant_oracle():
    dist = distance_matrix(extremal_family(14, 1)).tolist()
    q = quotient_matrix(dist, extremal_partition(14, 1))
    poly = char_poly(q)
    assert poly.degree == 4
    for x in (-3, -1, 0, 1, 2, 7, 20, Fraction(19, 3)):
        assert poly(x) == _char_poly_oracle_value(q, x)


def test_char_poly_random_matrices():
    rng = random.Random(13)
    for _ in range(25):
        t = rng.randrange(1, 6)
        entries = [[rng.randrange(-5, 6) for _ in range(t)] for _ in range(t)]
        poly = char_poly(entries)
        assert poly.degree == t
        assert poly.coefficients[0] == 1
        assert all(type(c) is int for c in poly.coefficients)
        for x in (-2, 0, 3, Fraction(1, 2)):
            assert poly(x) == _char_poly_oracle_value(entries, x)
        # numpy ints are integers too
        assert char_poly(np.array(entries, dtype=np.int64)) == poly


def test_char_poly_rejects_non_square():
    with pytest.raises(ParameterError):
        char_poly([[1, 2, 3], [4, 5, 6]])
    # entries must be integers: no Fraction, float or float array
    for entries in ([[0, Fraction(1, 2)], [1, 5]], [[1.0]], np.eye(2)):
        with pytest.raises(ParameterError, match="must be integers"):
            char_poly(entries)


def test_quotient_char_poly_matches_closed_form():
    for n, s in ((14, 1), (16, 1), (20, 2), (22, 2), (30, 3), (40, 4)):
        dist = distance_matrix(extremal_family(n, s)).tolist()
        q = quotient_matrix(dist, extremal_partition(n, s))
        assert char_poly(q) == family_quartic(n, s)


def test_family_quartic_frozen_coefficients():
    assert family_quartic(14, 1).coefficients == (1, -10, -153, -368, -172)
    with pytest.raises(ParameterError):
        family_quartic(14, 0)
    with pytest.raises(ParameterError):
        family_quartic(13, 4)


def test_exact_polynomial_basics():
    p = ExactPolynomial((1, -3, 2))  # (x-1)(x-2)
    assert p.degree == 2
    assert p(1) == 0 and p(2) == 0 and p(3) == 2
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert p.coefficients == (1, -3, 2)
    assert ExactPolynomial(tuple(np.array([1, -3, 2]))) == p
    with pytest.raises(ParameterError):
        ExactPolynomial(())
    for coefficients in ((1, Fraction(1, 2)), (1.0, 2), (Fraction(3),)):
        with pytest.raises(ParameterError, match="must be integers"):
            ExactPolynomial(coefficients)


def _naive_horner(p, x):
    acc = p.coefficients[0]
    for c in p.coefficients[1:]:
        acc = acc * x + c
    return acc


def _assert_exact_value(p, x):
    value = p(x)
    assert type(value) is Fraction and value == _naive_horner(p, Fraction(x))
    # lowest terms: the Fraction built from the integer Horner sum is reduced
    assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


def test_exact_polynomial_evaluates_in_lowest_terms():
    rng = random.Random(21)
    points = [0, -1, 7, -13, Fraction(-5, 3), Fraction(1, 2**40), Fraction(-(2**40) - 1, 2**40 - 3)]
    for _ in range(60):
        degree = rng.randrange(0, 7)
        coefficients = [
            rng.randrange(-99, 100) * rng.choice((1, 2, 6, 35, 2**40 + 15)) for _ in range(degree + 1)
        ]
        p = ExactPolynomial(tuple(coefficients))
        x = Fraction(rng.randrange(-(2**41), 2**41), rng.randrange(1, 2**40))
        for point in points + [x, -x]:
            _assert_exact_value(p, point)
    # a value that must cancel: the Horner sum shares factors with q^d
    p = ExactPolynomial((6, -18, 12))  # 6(x-1)(x-2)
    assert p(Fraction(1, 2)) == Fraction(9, 2) and p(2) == 0 and p(-1) == 36


def test_family_quartic_root_rejects_nonpositive_width():
    # exact bisection to a width <= 0 would never terminate
    for width in (0, Fraction(-1), Fraction(-1, 10)):
        with pytest.raises(ParameterError, match="width"):
            family_quartic_root(14, 1, width=width)


def test_family_quartic_root_reference_value():
    root = family_quartic_root(14, 1)
    assert abs(root.value - 19.063334136) < 1e-8
    assert root.width <= Fraction(1, 10**10)
    assert root.lo > Fraction(2 * wiener_index(extremal_family(14, 1)), 14)
    poly = family_quartic(14, 1)
    assert poly(root.lo) < 0 < poly(root.hi)


def test_family_quartic_root_tracks_power_iteration():
    from specmatch import distance_spectral_radius

    for n, s in ((14, 1), (22, 2), (30, 3)):
        root = family_quartic_root(n, s)
        est = distance_spectral_radius(extremal_family(n, s), tol=1e-10)
        assert abs(root.value - est.value) < 1e-8


def test_family_quartic_root_is_the_saturated_root():
    # family_quartic_root is the saturated spec's root: the closed-form quartic
    # changes sign across its bracket (or vanishes at hi) and the graph's
    # eigensolve lies in it, also at odd n and at n = 2s + 6, where the two
    # K_3 cells merge into one 3 x 3 quotient
    def assert_brackets(n, s, root):
        p = family_quartic(n, s)
        assert p(root.lo) <= 0 < p(root.hi) or p(root.hi) == 0, (n, s)
        rest = disjoint_union(complete_graph(3), complete_graph(n - 2 * s - 3))
        graph = join(complete_graph(s), disjoint_union(empty_graph(s), rest))
        rho = np.linalg.eigvalsh(distance_matrix(graph)).max()
        assert root.lo - 1e-9 <= rho <= root.hi + 1e-9, (n, s)

    pairs = [(n, s) for n in range(8, 41, 2) for s in range(1, (n - 6) // 2 + 1)]
    assert len(pairs) == 153
    odd = [(n, s) for n in range(7, 42, 2) for s in range(1, (n - 6) // 2 + 1)]
    grid = [(n, k) for k in (1, 2, 3) for n in range(8 * k + 6, 8 * k + 27, 2)]
    width = Fraction(1, 10**12)
    cases = [(p, DEFAULT_ROOT_WIDTH) for p in pairs + odd] + [(p, width) for p in grid + odd]
    for (n, s), w in cases:
        root = family_quartic_root(n, s, w)
        assert root.width <= w
        assert_brackets(n, s, root)
        assert root == _saturated_root(s, (1,) * s + (3, n - 2 * s - 3), w)
    # the brackets the closed-form quartic's Descartes bisection isolated, to the bit
    assert (family_quartic_root(14, 1).lo, family_quartic_root(14, 1).hi) == (
        Fraction(573134776675, 30064771072),
        Fraction(9170156426845, 481036337152),
    )
    root = family_quartic_root(22, 2, width)
    assert (root.lo, root.hi) == (
        Fraction(5703466671236739, 193514046488576),
        Fraction(2851733335618433, 96757023244288),
    )
    assert len(_saturated_quotient(2, (1, 1, 3, 3))) == 3
    # (n, s) is checked before any root work, with family_quartic's messages
    for n, s, message in ((14, 0, "hub size must be positive"), (13, 4, "need n >= 2s\\+6")):
        with pytest.raises(ParameterError, match=message):
            family_quartic_root(n, s)


def test_saturated_root_isolates_each_spec_once_however_called():
    # family_quartic_root passes the width by position, other callers leave
    # it out or list the parts in another order: one cache entry serves all
    import specmatch.quotient as quotient

    quotient._isolate_saturated_root.cache_clear()
    root = family_quartic_root(14, 1)
    assert _saturated_root(1, (1, 3, 9)) is root
    info = quotient._isolate_saturated_root.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert _saturated_root(1, (9, 1, 3), DEFAULT_ROOT_WIDTH) is root
    assert quotient._isolate_saturated_root.cache_info().misses == 1


def test_saturated_brackets_are_proved_by_leading_minors():
    # every canonical shape with n <= 40 and every threshold shape: rho <= hi
    # by no minor at hi, and rho > lo by a minor unless lo is the floor 2W/n
    specs = [
        (s, canonical_parts(n, s, q))
        for n in range(5, 41)
        for s in range(1, n)
        for q in range(s + 2, n + 1)
        if canonical_parts(n, s, q)[-1] >= 3
    ]
    specs += [_reference_parts(n) for n in range(4, 65, 2)]
    for width in (Fraction(1, 10**10), Fraction(1, 10**12)):
        for spec in specs:
            root, rows = _saturated_root(*spec, width), _saturated_quotient(*spec)
            sizes = [spec[0]] + rows[0][1:]
            floor = Fraction(sum(m * sum(row) for m, row in zip(sizes, rows)), sum(sizes))
            assert _minor_certificate(rows, root.hi) is None, spec
            assert root.lo == floor or _minor_certificate(rows, root.lo) is not None, spec
            assert root.width <= width


def test_saturated_root_brackets_a_root_a_midpoint_hits():
    # rho = 23 of K_8 v 10K_1 is a bisection midpoint: hi lands on it, and lo
    # stays a proved lower bound just below
    root = _saturated_root(8, (1,) * 10)
    assert (root.lo, root.hi) == (23 - Fraction(1, 2**34), 23)
    rows = _saturated_quotient(8, (1,) * 10)
    assert _minor_certificate(rows, Fraction(23)) is None
    assert _minor_certificate(rows, root.lo) is not None


def test_saturated_spec_takes_parts_in_any_order_and_rejects_empty_cells():
    # a replayed record may list its parts in any order: the quotient is the multiset's
    assert _saturated_quotient(1, (3, 1, 5, 1, 3)) == _saturated_quotient(1, (1, 1, 3, 3, 5))
    for s, parts in ((1, (1, 3, -3)), (1, (0, 3, 5)), (0, (1, 3, 5))):
        with pytest.raises(ParameterError, match="s >= 1 and parts >= 1"):
            _saturated_root(s, parts)


def test_hub_gap_factorization_exact():
    rng = random.Random(17)
    for _ in range(50):
        k = rng.randrange(1, 5)
        s = k + rng.randrange(0, 4)
        n = 2 * s + 6 + 2 * rng.randrange(0, 10)
        x = Fraction(rng.randrange(-50, 400), rng.randrange(1, 9))
        lhs = family_quartic(n, s)(x) - family_quartic(n, k)(x)
        assert lhs == (s - k) * hub_gap_coefficient(s, n, k, x)


def test_homogeneous_forms_equal_the_fraction_forms():
    # at ints p and q > 0 each form is q^d f(p/q) exactly, f's value at the
    # Fraction p/q scaled: negative p, q = 1 (f(p) itself) and 60-bit q
    rng = random.Random(24)
    generic = char_poly([[0, 2], [3, 5]])
    for i in range(300):
        k = rng.randrange(1, 6)
        s = k + rng.randrange(0, 5)
        n = 2 * s + 6 + 2 * rng.randrange(0, 12)
        p = rng.randrange(-(2**62), 2**62)
        q = (1, rng.randrange(1, 2**60), rng.randrange(1, 50))[i % 3]
        mu = Fraction(p, q)
        assert hub_gap_coefficient(s, n, k, p, q) == q**3 * hub_gap_coefficient(s, n, k, mu)
        assert gap_bound_cubic(p, n, k, q) == q**3 * gap_bound_cubic(mu, n, k)
        assert family_quartic(n, s).numerator(p, q) == q**4 * family_quartic(n, s)(mu)
        assert generic.numerator(p, q) == q**2 * generic(mu)
        if q == 1:
            assert hub_gap_coefficient(s, n, k, p, 1) == hub_gap_coefficient(s, n, k, p)
            assert family_quartic(n, s).numerator(p) == family_quartic(n, s)(p)
        # the default q = 1 stays generic over floats
        x = float(rng.randrange(-400, 400)) / 8
        exact = hub_gap_coefficient(s, n, k, Fraction(x))
        assert math.isclose(hub_gap_coefficient(s, n, k, x), exact, rel_tol=1e-12, abs_tol=1e-6)
        exact = gap_bound_cubic(Fraction(x), n, k)
        assert math.isclose(gap_bound_cubic(x, n, k), exact, rel_tol=1e-12, abs_tol=1e-6)


def test_gap_bound_cubic_is_doubled_extreme_hub():
    rng = random.Random(18)
    for _ in range(50):
        k = rng.randrange(1, 5)
        n = 2 * k + 8 + 2 * rng.randrange(0, 12)
        mu = Fraction(rng.randrange(0, 300), rng.randrange(1, 7))
        s_extreme = Fraction(n - 6, 2)
        assert gap_bound_cubic(mu, n, k) == 2 * hub_gap_coefficient(s_extreme, n, k, mu)


def _derivative(p):
    d = p.degree
    return ExactPolynomial(tuple(c * (d - i) for i, c in enumerate(p.coefficients[:-1])))


def test_gap_bound_cubic_derivative_consistent():
    rng = random.Random(19)
    for _ in range(30):
        k = rng.randrange(1, 5)
        n = 2 * k + 8 + 2 * rng.randrange(0, 12)
        cubic = ExactPolynomial(
            (
                -2,
                n + 10 * k + 2,
                8 * n - 4 * k * k + 44 * k - 8,
                16 * n - 16 * k * k + 40 * k - 48,
            )
        )
        mu = Fraction(rng.randrange(0, 200), rng.randrange(1, 7))
        assert cubic(mu) == gap_bound_cubic(mu, n, k)
        assert _derivative(cubic)(mu) == gap_bound_cubic_deriv(mu, n, k)


def test_radius_floor_values():
    assert gap_bound_at_radius_floor(14, 1) == -448
    for k in range(1, 8):
        n = 8 * k + 6
        assert gap_bound_at_radius_floor(n, k) == -36 * k**3 + 110 * k * k - 120 * k - 402
        assert gap_bound_at_radius_floor(n, k) < 0
    for n in range(14, 60, 2):
        for k in range(1, (n - 6) // 8 + 1):
            assert gap_bound_at_radius_floor(n, k) == gap_bound_cubic(n + k + 3, n, k)


def test_radius_floor_derivative_consistent():
    for k in range(1, 5):
        floor_poly = ExactPolynomial(
            (
                -1,
                6 * k - 2,
                11 * k * k + 86 * k - 1,
                4 * k**3 + 60 * k * k + 212 * k - 108,
            )
        )
        for n in range(8 * k + 6, 8 * k + 30, 2):
            assert floor_poly(n) == gap_bound_at_radius_floor(n, k)
            assert _derivative(floor_poly)(n) == gap_bound_floor_deriv(n, k)
            assert gap_bound_floor_deriv(n, k) < 0
