"""Distance matrices and certified distance spectral radius estimates.

The spectral radius of the (nonnegative, irreducible) distance matrix is
bracketed by Collatz-Wielandt ratios: for any positive vector x,
min_v (Dx)_v / x_v <= mu <= max_v (Dx)_v / x_v. Power iteration started at
the LAPACK Perron vector tightens the bracket, usually in one step, so every
estimate carries a rigorous enclosure rather than a bare float. The BFS runs
on a stack of 0/1 adjacency matrices of one order, since at small n numpy's
per-call overhead outweighs the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, ParameterError, _adjacency_matrices

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


def _distance_matrices(adjacency: np.ndarray) -> np.ndarray:
    """Float (m, n, n) distances from a stack of m 0/1 adjacency matrices A of
    one order n, by a BFS over all sources at once: the radius-d balls grow by
    one stacked matrix product per radius, B_{d+1} = min(B_d (A + I), 1). Once
    every B_D is full, d(u, v) is the number of radii d < D whose ball around u
    misses v."""
    n = adjacency.shape[-1]
    eye = np.eye(n)
    ball = closed = adjacency + eye  # B_1
    reached = np.zeros(closed.shape)
    reached += eye  # B_0
    for radius in range(1, n + 1):
        if ball.all():
            return radius - reached  # D - sum_{d<D} B_d, also past a graph's own D
        reached += ball
        ball = np.minimum(ball @ closed, 1.0)
    raise DisconnectedError("some vertex does not reach every vertex")


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest path distances as an int matrix (see _distance_matrices)."""
    if g.n < 1:
        raise ParameterError("distance matrix needs at least one vertex")
    return _distance_matrices(_adjacency_matrices([g]))[0].astype(np.int64)


def wiener_index(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs."""
    return int(distance_matrix(g).sum()) // 2


@dataclass(frozen=True)
class SpectralEstimate:
    """Point estimate of the distance spectral radius with a rigorous bracket.

    `lo <= mu <= hi` holds exactly (up to float rounding of the ratio
    computations); `value` is the Rayleigh quotient of the final iterate and
    `residual` its infinity-norm eigen-residual. `wiener` is the exact Wiener
    index of the distance matrix solved (None on a bracket built by hand).
    """

    value: float
    residual: float
    lo: float
    hi: float
    iterations: int
    wiener: int | None = None

    @property
    def width(self) -> float:
        return self.hi - self.lo


def distance_spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """The certified radius of a connected graph of order n >= 2: power
    iteration from x = |v| for the top eigenvector v of its distance matrix,
    keeping the running intersection of Collatz-Wielandt brackets above the
    exact 2W/n floor until the width drops to `tol`. A bracket still wider
    after MAX_ITERATIONS steps raises ConvergenceError with the bracket."""
    if g.n < 2:
        raise ParameterError(f"distance spectral radius needs order n >= 2, got order {g.n}")
    if not tol >= MIN_TOL:
        raise ParameterError(f"tolerance must be at least {MIN_TOL:g}, got {tol!r}")
    return _radius(_distance_matrices(_adjacency_matrices([g]))[0], tol)


def _radius(dist: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """distance_spectral_radius on one (n, n) matrix from _distance_matrices, n >= 2."""
    row_sums = dist.sum(axis=1)
    twice_wiener = row_sums.sum()
    lo = float(twice_wiener / len(dist))  # IEEE division of exact ints: float(Fraction(2W, n))
    hi = float(row_sums.max())
    x = np.abs(np.linalg.eigh(dist)[1][:, -1])
    for steps in range(1, MAX_ITERATIONS + 1):
        y = dist @ x
        ratios = y / x
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        x = y / math.sqrt(y @ y)
        if hi - lo <= tol:
            dx = dist @ x
            value = min(max(float(x @ dx), lo), hi)
            residual = float(np.abs(dx - value * x).max())
            return SpectralEstimate(value, residual, lo, hi, steps, int(twice_wiener) // 2)
    raise ConvergenceError(lo, hi, MAX_ITERATIONS)
