"""Distance matrices and certified distance spectral radius estimates.

The spectral radius of the (nonnegative, irreducible) distance matrix is
bracketed by Collatz-Wielandt ratios: for any positive vector x,
min_v (Dx)_v / x_v <= mu <= max_v (Dx)_v / x_v. Power iteration started at
the LAPACK Perron vector tightens the bracket, usually in one step, so every
estimate carries a rigorous enclosure rather than a bare float. Comparisons
between two graphs are decided only when the brackets separate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, ParameterError

MIN_TOL = 1e-12
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 10**6


class DisconnectedError(ValueError):
    """Distance matrix requested for a disconnected graph."""


class ConvergenceError(RuntimeError):
    """Bracket failed to reach the requested width; carries the last enclosure."""

    def __init__(self, lo: float, hi: float, iterations: int):
        super().__init__(
            f"bracket [{lo!r}, {hi!r}] wider than tolerance after {iterations} iterations"
        )
        self.lo = lo
        self.hi = hi
        self.iterations = iterations


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest path distances as an int matrix, by a BFS over all
    sources at once: the radius-d balls grow by one matrix product per radius,
    B_{d+1} = min(B_d (A + I), 1). Once B_D holds every vertex, d(u, v) is the
    number of radii d < D whose ball around u misses v: D - sum_{d<D} B_d."""
    n = g.n
    if n < 1:
        raise ParameterError("distance matrix needs at least one vertex")
    width = (n + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for row in g.rows)
    bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")
    ball = np.eye(n)
    closed = bits.reshape(n, 8 * width)[:, :n] + ball
    reached = np.zeros((n, n))
    for radius in range(n):
        if ball.all():
            return (radius - reached).astype(np.int64)
        reached += ball
        np.minimum(ball @ closed, 1.0, out=ball)
    raise DisconnectedError("vertex 0 does not reach every vertex")


def wiener_index(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs."""
    return int(distance_matrix(g).sum()) // 2


def mu_lower_bound_wiener(g: Graph) -> Fraction:
    """Exact bound mu(G) >= 2W(G)/n (Rayleigh quotient of the all-ones vector)."""
    if g.n < 1:
        raise ParameterError("bound needs at least one vertex")
    return Fraction(2 * wiener_index(g), g.n)


@dataclass(frozen=True)
class SpectralEstimate:
    """Point estimate of the distance spectral radius with a rigorous bracket.

    `lo <= mu <= hi` holds exactly (up to float rounding of the ratio
    computations); `value` is the Rayleigh quotient of the final iterate and
    `residual` its infinity-norm eigen-residual.
    """

    value: float
    residual: float
    lo: float
    hi: float
    iterations: int

    @property
    def width(self) -> float:
        return self.hi - self.lo


def distance_spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """Power iteration with Collatz-Wielandt brackets, started at x = |v| for
    the top eigenvector v of a dense `eigh`.

    The start only sets how fast the bracket closes, not whether it holds: for
    any positive x the per-step bracket [min ratio, max ratio] contains mu, so
    the running intersection narrows monotonically; iteration stops when its
    width drops to `tol`, or with ConvergenceError after MAX_ITERATIONS steps.
    The exact 2W/n lower bound clamps the floor.
    """
    if g.n < 2:
        raise ParameterError(f"spectral radius needs n >= 2, got n={g.n}")
    if not tol >= MIN_TOL:
        raise ParameterError(f"tolerance must be at least {MIN_TOL:g}, got {tol!r}")
    dist = distance_matrix(g).astype(np.float64)
    # 2W/n is exact here: distances are small ints, the sum is exact in binary
    wiener_floor = float(Fraction(int(dist.sum()), g.n))
    x = np.abs(np.linalg.eigh(dist)[1][:, -1])
    lo = wiener_floor
    hi = float(dist.sum(axis=1).max())
    iterations = 0
    while iterations < MAX_ITERATIONS:
        y = dist @ x
        iterations += 1
        ratios = y / x
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        x = y / np.linalg.norm(y)
        if hi - lo <= tol:
            break
    else:
        raise ConvergenceError(lo, hi, iterations)
    dx = dist @ x
    value = min(max(float(x @ dx), lo), hi)
    residual = float(np.abs(dx - value * x).max())
    return SpectralEstimate(value=value, residual=residual, lo=lo, hi=hi, iterations=iterations)


class Ordering(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    INDETERMINATE = "indeterminate"


def compare_estimates(a, b) -> Ordering:
    """Strict comparison of two radii, decided only by disjoint brackets; ties
    are indeterminate.

    Each side is any bracket with `lo` and `hi`: a SpectralEstimate (floats)
    or a quotient.CertifiedRoot (Fractions). Python compares a float with a
    Fraction exactly, so an estimate held against an exact root is decided on
    the exact value of the root's endpoint, never on its rounding to a float.
    """
    if a.lo > b.hi:
        return Ordering.GREATER
    if a.hi < b.lo:
        return Ordering.LESS
    return Ordering.INDETERMINATE
