"""Exact quotient algebra: equitable partitions, char polys, certified roots."""

import math
import random
from fractions import Fraction

import pytest

from specmatch import (
    BracketError,
    ExactPolynomial,
    ParameterError,
    char_poly,
    complete_graph,
    distance_matrix,
    extremal_family,
    extremal_partition,
    family_quartic,
    family_quartic_root,
    gap_bound_at_radius_floor,
    gap_bound_cubic,
    gap_bound_cubic_deriv,
    gap_bound_floor_deriv,
    hub_gap_coefficient,
    largest_root,
    quotient_matrix,
    wiener_index,
)
from specmatch.quotient import DEFAULT_ROOT_WIDTH, _saturated_quotient, _saturated_root


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
    assert len(q) == 4 and all(type(x) is Fraction for row in q for x in row)
    expected = [[0, 1, 3, 9], [1, 0, 6, 18], [1, 2, 2, 18], [1, 2, 6, 8]]
    assert [[int(v) for v in row] for row in q] == expected
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
    # integer entries, then rational ones: the integer recurrence on dQ has
    # to come back to det(xI - Q) through the scale d = lcm of denominators
    rng = random.Random(13)
    for trial in range(75):
        t = rng.randrange(1, 6)
        if trial < 25:
            entries = [[rng.randrange(-5, 6) for _ in range(t)] for _ in range(t)]
        else:
            entries = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 13)) for _ in range(t)] for _ in range(t)]
        poly = char_poly(entries)
        assert poly.degree == t
        assert poly.coefficients[0] == 1
        for x in (-2, 0, 3, Fraction(1, 2)):
            assert poly(x) == _char_poly_oracle_value(entries, x)


def test_char_poly_rejects_non_square():
    with pytest.raises(ParameterError):
        char_poly([[1, 2, 3], [4, 5, 6]])


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
    with pytest.raises(ParameterError):
        ExactPolynomial(())


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
            Fraction(rng.randrange(-99, 100), rng.choice((1, 2, 6, 35, 2**40 + 15)))
            for _ in range(degree + 1)
        ]
        p = ExactPolynomial(tuple(coefficients))
        x = Fraction(rng.randrange(-(2**41), 2**41), rng.randrange(1, 2**40))
        for point in points + [x, -x]:
            _assert_exact_value(p, point)
    # a value that must cancel: the scaled sum shares factors with L q^d
    p = ExactPolynomial((Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)))  # (x-1)(x-2)/6
    assert p(Fraction(1, 2)) == Fraction(1, 8) and p(2) == 0 and p(-1) == 1
    # a char_poly of a rational matrix has non-integer coefficients
    q = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-7, 5)]]
    poly = char_poly(q)
    assert any(c.denominator > 1 for c in poly.coefficients)
    for x in (0, -4, Fraction(-3, 7), Fraction(5, 2**40)):
        _assert_exact_value(poly, x)
        assert poly(x) == _char_poly_oracle_value(q, x)


def test_largest_root_known_quadratic():
    p = ExactPolynomial((1, 0, -2))  # x^2 - 2
    root = largest_root(p, 0, 2, width=Fraction(1, 10**12))
    assert root.lo <= root.hi
    assert root.width <= Fraction(1, 10**12)
    assert abs(root.value - 2**0.5) < 1e-11
    assert root.lo * root.lo <= 2 <= root.hi * root.hi


def test_largest_root_picks_rightmost():
    p = ExactPolynomial((1, -10, 35, -50, 24))  # (x-1)(x-2)(x-3)(x-4)
    root = largest_root(p, 0, 5)
    assert root.lo <= 4 <= root.hi
    assert root.width <= Fraction(1, 10**10)


def test_largest_root_exact_hit_at_endpoint():
    p = ExactPolynomial((1, -3, 2))
    root = largest_root(p, 0, 2)
    assert root.lo == root.hi == 2
    assert root.value == 2.0


def test_largest_root_bracket_errors():
    p = ExactPolynomial((1, -4, 3))  # roots 1, 3
    with pytest.raises(BracketError):
        largest_root(p, 0, 2)  # poly(2) < 0: largest root above bracket
    with pytest.raises(BracketError):
        largest_root(ExactPolynomial((1, 0, 1)), 0, 2)  # no real roots
    with pytest.raises(BracketError):
        largest_root(p, 0, 1)  # poly(1) == 0, yet the root 3 lies above
    with pytest.raises(BracketError):
        # a double root: p never changes sign, so no bracket is certified
        largest_root(ExactPolynomial((9, -6, 1)), 0, 1)
    with pytest.raises(ParameterError):
        largest_root(p, 3, 1)
    with pytest.raises(ParameterError):
        largest_root(ExactPolynomial((5,)), 0, 1)


def _from_roots(roots, lead=1):
    coefficients = [Fraction(lead)]
    for r in roots:
        coefficients = [a - r * b for a, b in zip(coefficients + [0], [0] + coefficients)]
    return ExactPolynomial(tuple(coefficients))


def test_largest_root_sees_a_close_pair_above_a_positive_midpoint():
    # p > 0 at the first midpoint 2, below the pair 3001/1000 < 3002/1000
    p = _from_roots((1, Fraction(3001, 1000), Fraction(3002, 1000)))
    assert p(2) > 0
    root = largest_root(p, 0, 4)
    assert root.lo <= Fraction(3002, 1000) <= root.hi
    assert root.width <= Fraction(1, 10**10)


def test_largest_root_hits_a_root_above_a_lower_exact_root():
    # 2(x-1)(x-3)(x-7/2): the negative stretch (3, 7/2) lies above the root 1
    root = largest_root(ExactPolynomial((2, -15, 34, -21)), 0, 4)
    assert root.lo == root.hi == Fraction(7, 2)


def test_largest_root_on_random_rational_roots():
    # products of linear factors with a simple largest root: close pairs
    # (wider apart than `width`), repeated lower roots, and brackets that
    # start or end on a root
    rng = random.Random(11)
    width = Fraction(1, 10**10)
    for trial in range(400):
        roots = list({Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in range(rng.randrange(1, 5))})
        if trial % 3 == 1:
            roots.append(max(roots) + Fraction(1, rng.choice((10**3, 10**5, 10**9))))
        elif trial % 3 == 2:
            roots += [min(roots)] * 2
        top = max(roots)
        p = _from_roots(roots, lead=rng.choice((1, -3, Fraction(1, 2))))
        # lo == top or lo on a lower root gives p(lo) == 0; hi == top gives p(hi) == 0
        lo = rng.choice([top - 5, top - Fraction(1, 7), *roots])
        hi = top + rng.choice((0, Fraction(1, 3), 2))
        root = largest_root(p, lo, hi, width=width)
        assert root.lo <= top <= root.hi
        assert root.width <= width
        assert p(root.lo) * p.coefficients[0] <= 0 <= p(root.hi) * p.coefficients[0]


def test_largest_root_rejects_nonpositive_width():
    # exact bisection to a width <= 0 would never terminate
    p = ExactPolynomial((1, 0, -2))
    for width in (0, Fraction(-1)):
        with pytest.raises(ParameterError, match="width"):
            largest_root(p, 0, 2, width=width)
    with pytest.raises(ParameterError):
        family_quartic_root(14, 1, width=Fraction(-1, 10))


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
    # family_quartic_root is the saturated spec's root; the closed-form route
    # it replaced (the quartic over [2W/n, 2n - s - 2] in closed form) stays
    # here as the reference and isolates the same bracket, also at odd n and
    # at n = 2s + 6, where the two K_3 cells merge into one 3 x 3 quotient
    def closed_form_root(n, s, w):
        lo = Fraction(n * n + (2 * s + 5) * n - 3 * s * s - 13 * s - 18, n)
        return largest_root(family_quartic(n, s), lo, 2 * n - s - 2, w)

    pairs = [(n, s) for n in range(8, 41, 2) for s in range(1, (n - 6) // 2 + 1)]
    assert len(pairs) == 153
    odd = [(n, s) for n in range(7, 42, 2) for s in range(1, (n - 6) // 2 + 1)]
    grid = [(n, k) for k in (1, 2, 3) for n in range(8 * k + 6, 8 * k + 27, 2)]
    width = Fraction(1, 10**12)
    cases = [(p, DEFAULT_ROOT_WIDTH) for p in pairs + odd] + [(p, width) for p in grid + odd]
    for (n, s), w in cases:
        root, expected = family_quartic_root(n, s, w), closed_form_root(n, s, w)
        assert (root.lo, root.hi) == (expected.lo, expected.hi), (n, s, w)
        assert root == _saturated_root(s, (1,) * s + (3, n - 2 * s - 3), w)
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
    halving = char_poly([[0, Fraction(1, 2)], [Fraction(1, 3), 5]])  # lcm L = 6
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
        assert halving.numerator(p, q) == 6 * q**2 * halving(mu)
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
                Fraction(-2),
                Fraction(n + 10 * k + 2),
                Fraction(8 * n - 4 * k * k + 44 * k - 8),
                Fraction(16 * n - 16 * k * k + 40 * k - 48),
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
                Fraction(-1),
                Fraction(6 * k - 2),
                Fraction(11 * k * k + 86 * k - 1),
                Fraction(4 * k**3 + 60 * k * k + 212 * k - 108),
            )
        )
        for n in range(8 * k + 6, 8 * k + 30, 2):
            assert floor_poly(n) == gap_bound_at_radius_floor(n, k)
            assert _derivative(floor_poly)(n) == gap_bound_floor_deriv(n, k)
            assert gap_bound_floor_deriv(n, k) < 0
