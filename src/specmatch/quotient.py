"""Exact quotient-matrix algebra in integers.

An equitable partition of a symmetric integer matrix yields a small quotient
whose spectrum embeds in the full one; in particular the Perron value of the
distance matrix equals the largest eigenvalue of the quotient. Everything
here is exact: integer entries, Faddeev-LeVerrier characteristic
polynomials, and bisection with rational endpoints whose root brackets are
proved by the leading principal minors of tI - Q, so comparisons against
the exact radius brackets of spectra.py are exact too.

A saturated spec (s, parts), the graph K_s v (K_{n1} u ... u K_{nq}), needs
no graph: its quotient, its root and its order against a rational t (by the
leading principal minors of tI - Q) all come from the spec alone. Every
hub-and-cliques root, `family_quartic_root` too, is a saturated spec's root.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .graphs import ParameterError, canonical_parts

DEFAULT_ROOT_WIDTH = Fraction(1, 10**10)


def _as_blocks(partition: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    seen = [False] * n
    blocks = []
    for block in partition:
        cells = list(block)
        if not cells:
            raise ParameterError("empty partition block")
        for v in cells:
            if not 0 <= v < n:
                raise ParameterError(f"vertex {v} out of range for n={n}")
            if seen[v]:
                raise ParameterError(f"vertex {v} appears in two blocks")
            seen[v] = True
        blocks.append(cells)
    if not all(seen):
        missing = [v for v in range(n) if not seen[v]]
        raise ParameterError(f"partition misses vertices {missing}")
    return blocks


def quotient_matrix(
    matrix: Sequence[Sequence[int]], partition: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Rows of the block quotient of an equitable partition, in ints: entry
    (i,j) is the common row sum from block i into block j.

    Raises ParameterError when the partition is not equitable for the matrix,
    since the quotient only carries spectral information in that case.
    """
    matrix = [_as_ints(row, "matrix entries") for row in matrix]
    blocks = _as_blocks(partition, len(matrix))
    rows = []
    for cells in blocks:
        row = []
        for other in blocks:
            sums = {sum(matrix[v][u] for u in other) for v in cells}
            if len(sums) > 1:
                raise ParameterError("partition is not equitable for this matrix")
            row.append(sums.pop())
        rows.append(tuple(row))
    return tuple(rows)


def _as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as Python ints (numpy ints too); ParameterError for any other."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ParameterError(f"{what} must be integers") from None


@dataclass(frozen=True)
class ExactPolynomial:
    """Univariate polynomial with integer coefficients, highest degree first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = _as_ints(self.coefficients, "polynomial coefficients")
        if not coeffs:
            raise ParameterError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def numerator(self, p: int, q: int = 1) -> int:
        """q^d poly(p/q) at ints p, q by Horner in integers."""
        acc, power = 0, 1
        for c in self.coefficients:
            acc = acc * p + c * power
            power *= q
        return acc

    def __call__(self, x: Fraction | int) -> Fraction:
        """Exact value at x = p/q: numerator(p, q) over q^d, one Fraction."""
        q = x.denominator
        return Fraction(self.numerator(x.numerator, q), q**self.degree)


def char_poly(q: Iterable[Iterable]) -> ExactPolynomial:
    """Monic det(xI - Q) of a square integer matrix by Faddeev-LeVerrier: each
    c_k = -tr(Q M_{k-1})/k divides exactly."""
    a = [list(_as_ints(row, "matrix entries")) for row in q]
    t = len(a)
    if any(len(row) != t for row in a):
        raise ParameterError("matrix must be square")
    coeffs = [1]
    # M_0 = I; M_k = Q M_{k-1} + c_k I, c_k = -tr(Q M_{k-1})/k
    am = [row[:] for row in a]
    for k in range(1, t + 1):
        c = -sum(am[i][i] for i in range(t)) // k
        coeffs.append(c)
        for i in range(t):
            am[i][i] += c
        cols = list(zip(*am))
        am = [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
    return ExactPolynomial(tuple(coeffs))


def _check_family(n: int, s: int) -> None:
    if s < 1:
        raise ParameterError(f"hub size must be positive, got {s}")
    if n < 2 * s + 6:
        raise ParameterError(f"need n >= 2s+6 = {2 * s + 6}, got {n}")


def family_quartic(n: int, s: int) -> ExactPolynomial:
    """Characteristic polynomial of the 4-block distance quotient of
    K_s v (sK_1 u K_3 u K_{n-2s-3}), with integer coefficients.

    The same closed form also arises for hub size s inside the wider family
    with a fixed connectivity target, which is what makes the coefficient
    difference linear in the hub gap (see hub_gap_coefficient).
    """
    _check_family(n, s)
    return ExactPolynomial(
        (
            1,
            -(n + s - 5),
            -((2 * s + 13) * n - 5 * s * s - 16 * s - 36),
            (s * s - 7 * s - 32) * n - 2 * s**3 + 16 * s * s + 62 * s + 88,
            (4 * s * s - 2 * s - 20) * n - 8 * s**3 - 4 * s * s + 36 * s + 56,
        )
    )


@dataclass(frozen=True)
class CertifiedRoot:
    """Largest real root enclosed in [lo, hi] with exact rational endpoints."""

    value: float
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def family_quartic_root(n: int, s: int, width: Fraction = DEFAULT_ROOT_WIDTH) -> CertifiedRoot:
    """Largest root of family_quartic(n, s), isolated as the saturated spec
    (s, (1^s, 3, n-2s-3)) over [2W/n, max transmission], once per process."""
    _check_family(n, s)
    return _saturated_root(s, canonical_parts(n, s), width)


# ---------------------------------------------------------------------------
# saturated specs: K_s v (K_{n1} u ... u K_{nq}) as a quotient, with no graph


def _specs(n: int, every_q=False, fractional=False) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Saturated specs (s, parts) of order n, s >= 1 and s + 2 nondecreasing odd
    parts, by s, then parts lexicographically. `every_q` admits every q >= s + 2,
    `fractional` at most s parts 1 (a fractional perfect matching). parts() puts
    `fewest` parts >= low (more, for every_q), at most `ones` of them 1."""

    def parts(total: int, fewest: int, ones: int, low: int) -> Iterator[tuple[int, ...]]:
        low = low if ones else max(low, 3)
        if fewest > 1 or every_q:
            for part in range(low, total // max(fewest, 2) + 1, 2):
                for rest in parts(total - part, fewest - 1, ones - (part == 1), part):
                    yield (part, *rest)
        if fewest <= 1 and total >= low and total % 2:
            yield (total,)

    for s in range(1, n // 2):
        yield from ((s, p) for p in parts(n - s, s + 2, s if fractional else n, 1))


def _saturated_quotient(s: int, parts: tuple[int, ...]) -> list[list[int]]:
    """Distance quotient of K_s v (K_{n1} u ... u K_{nq}) on the hub and one
    cell per part order m, holding all c_m parts of that order; the parts
    may come in any order."""
    cells = [(m, len(list(same))) for m, same in itertools.groupby(sorted(parts))]
    rows = [[s - 1] + [c * m for m, c in cells]]
    for m, c in cells:
        rows.append([s] + [m - 1 + 2 * (c - 1) * m if m2 == m else 2 * c2 * m2 for m2, c2 in cells])
    return rows


def _saturated_root(s: int, parts: tuple[int, ...], width=DEFAULT_ROOT_WIDTH) -> CertifiedRoot:
    """Distance spectral radius of K_s v (K_{n1} u ... u K_{nq}), isolated
    over [2W/n, max transmission] once per process, multiset of parts and
    width, however a call spells them. A row sum of the quotient is each
    cell's transmission, and 2W/n is their mean."""
    # a Fraction key would cost a Fraction.__hash__ on every cached lookup
    return _isolate_saturated_root(s, tuple(sorted(parts)), *width.as_integer_ratio())


@functools.cache
def _isolate_saturated_root(s: int, parts: tuple[int, ...], num: int, den: int) -> CertifiedRoot:
    if s < 1 or min(parts) < 1:
        raise ParameterError(f"need hub size s >= 1 and parts >= 1, got s={s}, parts={parts}")
    if num <= 0:
        raise ParameterError(f"root width must be positive, got {Fraction(num, den)}")
    rows = _saturated_quotient(s, parts)
    sizes = [s] + rows[0][1:]  # the hub is at distance 1 from every other cell
    sums = [sum(row) for row in rows]
    # the bracket is [a/v, b/v] in integers; each halving doubles v
    v = sum(sizes)
    a, b = sum(size * t for size, t in zip(sizes, sums)), max(sums) * v
    while (b - a) * den > num * v:
        mid, a, b, v = a + b, 2 * a, 2 * b, 2 * v
        if _minor_certificate(rows, Fraction(mid, v)) is None:
            b = mid  # rho <= mid
        else:
            a = mid  # rho > mid
    lo, hi = Fraction(a, v), Fraction(b, v)
    return CertifiedRoot(value=float((lo + hi) / 2), lo=lo, hi=hi)


def _minor_certificate(rows: list[list[int]], t: Fraction) -> int | None:
    """Order of the first leading principal minor of uI - vQ (t = u/v) that
    proves rho(Q) > t by being <= 0 (or < 0 for the determinant), else None,
    which proves rho(Q) <= t: the one exact order test on quotients, behind
    _isolate_saturated_root's bisection and every ordering in harness.
    Q is similar to a symmetric matrix through diag(sqrt(cell sizes)), which
    keeps every leading principal minor. By Sylvester's criterion all are
    positive iff t > rho(Q); the proper ones positive and the determinant 0
    give t = rho(Q) by interlacing, and hold there as the Perron vector is
    positive (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, 1994, ch. 6). The minors are the pivots of fraction-free
    Bareiss elimination in ints."""
    u, v, size, prev = t.numerator, t.denominator, len(rows), 1
    a = [[u * (i == j) - v * x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    for k in range(size):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and k < size - 1):
            return k + 1
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return None


# ---------------------------------------------------------------------------
# scalar functions behind the ordering argument
#
# All are closed-form polynomials, exact on int/Fraction inputs and generic
# over floats. The two cubics in mu also take q (default 1) and return
# q^3 f(mu/q), homogenised: at mu = p/q a caller passes the ints p and q and
# decides an identity or a sign in ints, as q^3 > 0. At q = 1 that is f(mu).


def hub_gap_coefficient(s, n: int, k: int, mu, q=1):
    """Quadratic-in-s factor linking the quartics of hub sizes s and k:
    quartic(n,s)(x) - quartic(n,k)(x) == (s - k) * hub_gap_coefficient(s, n, k, x).
    """
    c2 = 5 * s - 2 * n + 5 * k + 16
    c1 = (n - 2 * k + 16 - 2 * s) * s + (k - 7) * n - 2 * k * k + 16 * k + 62
    c0 = (4 * n - 8 * k - 4 - 8 * s) * s + (4 * k - 2) * n - 8 * k * k - 4 * k + 36
    return ((c2 * q - mu) * mu + c1 * q * q) * mu + c0 * q**3


def gap_bound_cubic(mu, n: int, k: int, q=1):
    """Cubic in mu equal to twice the hub gap coefficient at the extreme hub
    size s = (n-6)/2; negative values force the strict spectral ordering."""
    return (
        -2 * mu**3
        + (n + 10 * k + 2) * mu * mu * q
        + (8 * n - 4 * k * k + 44 * k - 8) * mu * q * q
        + (16 * n - 16 * k * k + 40 * k - 48) * q**3
    )


def gap_bound_cubic_deriv(mu, n: int, k: int):
    return -6 * mu * mu + 2 * (n + 10 * k + 2) * mu + 8 * n - 4 * k * k + 44 * k - 8


def gap_bound_at_radius_floor(n: int, k: int) -> int:
    """gap_bound_cubic evaluated at mu = n+k+3, expanded as a cubic in n."""
    return (
        -(n**3)
        + (6 * k - 2) * n * n
        + (11 * k * k + 86 * k - 1) * n
        + 4 * k**3
        + 60 * k * k
        + 212 * k
        - 108
    )


def gap_bound_floor_deriv(n: int, k: int) -> int:
    """d/dn of gap_bound_at_radius_floor; negative on the relevant range."""
    return -3 * n * n + 2 * (6 * k - 2) * n + 11 * k * k + 86 * k - 1
