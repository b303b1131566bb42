"""Exact quotient-matrix algebra over the rationals.

An equitable partition of a symmetric integer matrix yields a small quotient
whose spectrum embeds in the full one; in particular the Perron value of the
distance matrix equals the largest eigenvalue of the quotient. Everything
here is exact: Fraction entries, Faddeev-LeVerrier characteristic
polynomials, and bisection with rational endpoints and sign-certified
brackets, so downstream comparisons against float estimates inherit hard
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import ParameterError

MESH_POINTS = 64
DEFAULT_ROOT_WIDTH = Fraction(1, 10**10)


class BracketError(ValueError):
    """Bracket does not isolate the largest root (wrong signs or a root above)."""


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


@dataclass(frozen=True)
class QuotientMatrix:
    """Block-averaged matrix of an equitable partition; entries are exact Fractions."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def t(self) -> int:
        return len(self.entries)

    def row_sums(self) -> list[Fraction]:
        return [sum(row) for row in self.entries]


def quotient_matrix(
    matrix: Sequence[Sequence[int]], partition: Sequence[Sequence[int]]
) -> QuotientMatrix:
    """Entry (i,j) is the common row sum from block i into block j.

    Raises ParameterError when the partition is not equitable for the matrix,
    since the quotient only carries spectral information in that case.
    """
    n = len(matrix)
    blocks = _as_blocks(partition, n)
    rows = []
    for cells in blocks:
        row = []
        for other in blocks:
            sums = {sum(int(matrix[v][u]) for u in other) for v in cells}
            if len(sums) > 1:
                raise ParameterError("partition is not equitable for this matrix")
            row.append(Fraction(sums.pop()))
        rows.append(tuple(row))
    return QuotientMatrix(tuple(rows))


@dataclass(frozen=True)
class ExactPolynomial:
    """Univariate polynomial with exact coefficients, highest degree first."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if not coeffs:
            raise ParameterError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = self.coefficients[0] if not isinstance(x, float) else float(self.coefficients[0])
        for c in self.coefficients[1:]:
            acc = acc * x + (c if not isinstance(x, float) else float(c))
        return acc

    def derivative(self) -> "ExactPolynomial":
        d = self.degree
        if d == 0:
            return ExactPolynomial((Fraction(0),))
        return ExactPolynomial(
            tuple(c * (d - i) for i, c in enumerate(self.coefficients[:-1]))
        )

    def integer_coefficients(self) -> tuple[int, ...]:
        if any(c.denominator != 1 for c in self.coefficients):
            raise ParameterError("coefficients are not integral")
        return tuple(c.numerator for c in self.coefficients)


def char_poly(q: QuotientMatrix | Iterable[Iterable]) -> ExactPolynomial:
    """Monic characteristic polynomial det(xI - Q) by Faddeev-LeVerrier, exact."""
    entries = q.entries if isinstance(q, QuotientMatrix) else tuple(
        tuple(Fraction(v) for v in row) for row in q
    )
    t = len(entries)
    for row in entries:
        if len(row) != t:
            raise ParameterError("matrix must be square")
    coeffs = [Fraction(1)]
    # M_0 = I; M_k = Q M_{k-1} + c_{k-1} I, c_k = -tr(Q M_k)/k
    m = [[Fraction(int(i == j)) for j in range(t)] for i in range(t)]
    for k in range(1, t + 1):
        qm = [
            [sum(entries[i][l] * m[l][j] for l in range(t)) for j in range(t)]
            for i in range(t)
        ]
        c = -sum(qm[i][i] for i in range(t)) / k
        coeffs.append(c)
        for i in range(t):
            qm[i][i] += c
        m = qm
    return ExactPolynomial(tuple(coeffs))


def family_quartic(n: int, s: int) -> ExactPolynomial:
    """Characteristic polynomial of the 4-block distance quotient of
    K_s v (sK_1 u K_3 u K_{n-2s-3}), with integer coefficients.

    The same closed form also arises for hub size s inside the wider family
    with a fixed connectivity target, which is what makes the coefficient
    difference linear in the hub gap (see hub_gap_coefficient).
    """
    if s < 1:
        raise ParameterError(f"hub size must be positive, got {s}")
    if n < 2 * s + 6:
        raise ParameterError(f"need n >= 2s+6 = {2 * s + 6}, got {n}")
    return ExactPolynomial(
        (
            Fraction(1),
            Fraction(-(n + s - 5)),
            Fraction(-((2 * s + 13) * n - 5 * s * s - 16 * s - 36)),
            Fraction((s * s - 7 * s - 32) * n - 2 * s**3 + 16 * s * s + 62 * s + 88),
            Fraction((4 * s * s - 2 * s - 20) * n - 8 * s**3 - 4 * s * s + 36 * s + 56),
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


def largest_root(
    poly: ExactPolynomial,
    lo: Fraction | int,
    hi: Fraction | int,
    width: Fraction = DEFAULT_ROOT_WIDTH,
    mesh: int = MESH_POINTS,
) -> CertifiedRoot:
    """Isolate the largest root of `poly` in [lo, hi] by exact-sign bisection.

    Requires the largest root to lie in the bracket: poly must be positive at
    hi (or zero, making hi the root) and a sign change must exist. After
    bisection, positivity of poly at `mesh` rational points strictly between
    the root bracket and hi certifies that no larger root hides above;
    BracketError otherwise.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ParameterError(f"empty bracket [{lo}, {hi}]")
    if width <= 0:
        raise ParameterError(f"root width must be positive, got {width}")
    if poly.degree < 1:
        raise ParameterError("constant polynomial has no roots")
    f_hi = poly(hi)
    if f_hi < 0:
        raise BracketError(f"poly({hi}) < 0: largest root lies above the bracket")
    top = hi
    if f_hi == 0:
        root_lo = root_hi = hi
    else:
        f_lo = poly(lo)
        if f_lo > 0:
            # no sign change at the ends; scan for a negative interior point
            found = None
            for i in range(1, mesh + 1):
                x = lo + (hi - lo) * i / (mesh + 1)
                if poly(x) < 0:
                    found = x
            if found is None:
                raise BracketError("no sign change inside the bracket")
            lo = found
        elif f_lo == 0:
            lo_bumped = lo + (hi - lo) / (mesh + 1)
            if poly(lo_bumped) < 0:
                lo = lo_bumped
            # else the root at lo may be the largest; bisection degenerates below
        root_lo, root_hi = lo, hi
        while root_hi - root_lo > width:
            mid = (root_lo + root_hi) / 2
            f_mid = poly(mid)
            if f_mid > 0:
                root_hi = mid
            elif f_mid < 0:
                root_lo = mid
            else:
                root_lo = root_hi = mid
                break
    if root_hi < top:
        step = (top - root_hi) / (mesh + 1)
        for i in range(1, mesh + 1):
            if poly(root_hi + step * i) <= 0:
                raise BracketError("sign change above the candidate: not the largest root")
    return CertifiedRoot(value=float((root_lo + root_hi) / 2), lo=root_lo, hi=root_hi)


def family_quartic_root(n: int, s: int, width: Fraction = DEFAULT_ROOT_WIDTH) -> CertifiedRoot:
    """Largest quartic root over the canonical bracket [2W/n, max transmission]."""
    poly = family_quartic(n, s)
    lo = Fraction(n * n + (2 * s + 5) * n - 3 * s * s - 13 * s - 18, n)
    hi = Fraction(2 * n - s - 2)
    return largest_root(poly, lo, hi, width=width)


# ---------------------------------------------------------------------------
# scalar functions behind the ordering argument
#
# All four are closed-form polynomials in their arguments; they stay exact on
# int/Fraction inputs and fall back to floats transparently.


def hub_gap_coefficient(s, n: int, k: int, mu):
    """Quadratic-in-s factor linking the quartics of hub sizes s and k:
    quartic(n,s)(x) - quartic(n,k)(x) == (s - k) * hub_gap_coefficient(s, n, k, x).
    """
    return (
        -(2 * mu + 8) * s * s
        + (5 * mu * mu + (n - 2 * k + 16) * mu + 4 * n - 8 * k - 4) * s
        - mu**3
        - (2 * n - 5 * k - 16) * mu * mu
        + ((k - 7) * n - 2 * k * k + 16 * k + 62) * mu
        + (4 * k - 2) * n
        - 8 * k * k
        - 4 * k
        + 36
    )


def gap_bound_cubic(mu, n: int, k: int):
    """Cubic in mu equal to twice the hub gap coefficient at the extreme hub
    size s = (n-6)/2; negative values force the strict spectral ordering."""
    return (
        -2 * mu**3
        + (n + 10 * k + 2) * mu * mu
        + (8 * n - 4 * k * k + 44 * k - 8) * mu
        + 16 * n
        - 16 * k * k
        + 40 * k
        - 48
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
