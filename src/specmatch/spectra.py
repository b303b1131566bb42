"""Distance matrices and certified distance spectral radius estimates.

The spectral radius of the (nonnegative, irreducible) distance matrix is
bracketed by Collatz-Wielandt ratios: for any positive vector x,
min_v (Dx)_v / x_v <= mu <= max_v (Dx)_v / x_v. Power iteration started at
the LAPACK Perron vector tightens the bracket, usually in one step, so every
estimate carries a rigorous enclosure rather than a bare float. Graphs of one
order are solved as one stack, since at small n numpy's per-call overhead
outweighs the arithmetic. Comparisons between two graphs are decided only when
the brackets separate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress

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


def _distance_matrices(graphs: list[Graph]) -> np.ndarray:
    """Float (m, n, n) distances of m graphs of one order n, by a BFS over all
    sources at once: the radius-d balls grow by one stacked matrix product per
    radius, B_{d+1} = min(B_d (A + I), 1). Once every B_D is full, d(u, v) is
    the number of radii d < D whose ball around u misses v."""
    n = graphs[0].n
    eye = np.eye(n)
    ball = closed = _adjacency_matrices(graphs) + eye  # B_1
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
    return _distance_matrices([g])[0].astype(np.int64)


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
    """The certified radius of one graph: distance_spectral_radii([g], tol)[0]."""
    return distance_spectral_radii([g], tol)[0]


def distance_spectral_radii(
    graphs: list[Graph], tol: float = DEFAULT_TOL
) -> list[SpectralEstimate]:
    """One estimate per graph of one order n >= 2, from one stacked BFS and
    `eigh`: power iteration from x = |v| for the top eigenvector v of each
    distance matrix, keeping the running intersection of Collatz-Wielandt
    brackets above the exact 2W/n floor. A graph stops stepping once its width
    drops to `tol`, so it gets the estimate it gets alone; one still wider
    after MAX_ITERATIONS steps raises ConvergenceError with its bracket."""
    if not graphs or any(g.n != graphs[0].n for g in graphs):
        raise ParameterError(f"need graphs of one order, got orders {[g.n for g in graphs]}")
    n = graphs[0].n
    if n < 2:
        raise ParameterError(f"distance spectral radius needs order n >= 2, got order {n}")
    if not tol >= MIN_TOL:
        raise ParameterError(f"tolerance must be at least {MIN_TOL:g}, got {tol!r}")
    return _stacked_radii(_distance_matrices(graphs), tol)


def _stacked_radii(dist: np.ndarray, tol: float) -> list[SpectralEstimate]:
    """distance_spectral_radii on a (m, n, n) stack from _distance_matrices, n >= 2."""
    n = dist.shape[1]
    row_sums = dist.sum(axis=2, keepdims=True)
    # (m, 1, 1) brackets; IEEE division of exact ints gives float(Fraction(2W, n))
    lo = row_sums.sum(axis=1, keepdims=True) / n
    hi = row_sums.max(axis=1, keepdims=True)
    x = np.abs(np.linalg.eigh(dist)[1][..., -1:])
    estimates: list[SpectralEstimate] = [None] * len(dist)
    live = range(len(dist))  # the graphs still stepping, whose rows dist, x, lo, hi hold
    for steps in range(1, MAX_ITERATIONS + 1):
        y = dist @ x
        ratios = y / x
        np.maximum(lo, ratios.min(axis=1, keepdims=True), out=lo)
        np.minimum(hi, ratios.max(axis=1, keepdims=True), out=hi)
        # a stacked matmul rounds each dot product as the 1-D `a @ b` does
        x = y / np.sqrt(y.transpose(0, 2, 1) @ y)
        busy = [width > tol for width in (hi - lo).ravel().tolist()]
        if not any(busy):
            _finish(estimates, live, dist, x, lo, hi, steps)
            return estimates
        if not all(busy):
            done = [not b for b in busy]
            _finish(estimates, compress(live, done), dist[done], x[done], lo[done], hi[done], steps)
            live = list(compress(live, busy))
            dist, x, lo, hi = dist[busy], x[busy], lo[busy], hi[busy]
    raise ConvergenceError(float(lo[0, 0, 0]), float(hi[0, 0, 0]), MAX_ITERATIONS)


def _finish(estimates: list, live, dist, x, lo, hi, iterations: int) -> None:
    """Write the estimates of the graphs `live`, which stopped together."""
    dx = dist @ x
    value = np.minimum(np.maximum(x.transpose(0, 2, 1) @ dx, lo), hi)
    residual = np.abs(dx - value * x).max(axis=1)
    columns = (c.ravel().tolist() for c in (value, residual, lo, hi, dist.sum(axis=(1, 2))))
    for i, v, r, a, b, twice_wiener in zip(live, *columns):
        estimates[i] = SpectralEstimate(v, r, a, b, iterations, int(twice_wiener) // 2)


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
