"""Distance matrices and exact certificates of the distance spectral radius.

LAPACK's Perron vector only proposes a positive integer vector x; one exact
matvec proves the bracket min_v (Dx)_v / x_v <= mu <= max_v (Dx)_v / x_v.
The BFS runs on a stack of 0/1 adjacency matrices of one order, since at
small n numpy's per-call overhead outweighs the arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, ParameterError, _adjacency_matrices, universal_mask

MIN_TOL = 1e-12
DEFAULT_TOL = 1e-10


class DisconnectedError(ValueError):
    """Distance matrix requested for a disconnected graph."""


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
    """The distance spectral radius mu with an exact bracket.

    `lo <= mu <= hi` holds exactly for the Fractions lo and hi; `value` is the
    float eigenvalue of LAPACK clamped into [float(lo), float(hi)], or float(lo)
    when `iterations`, the number of exact matvecs behind the bracket, is 0 and
    no eigensolve ran. `wiener` is the exact Wiener index of G (None on a
    bracket built by hand).
    """

    value: float
    lo: Fraction
    hi: Fraction
    iterations: int
    wiener: int | None = None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def distance_spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """The certified radius of a connected graph of order n >= 2: a bracket
    of width at most `tol` with exact rational ends.

    The first bracket, [2W/n, max transmission], holds by the Rayleigh
    quotient and by Collatz-Wielandt (below) at x = 1. With a universal
    vertex G has diameter <= 2, so the transmissions are read off the degrees,
    2(n - 1) - deg v, and the BFS builds D only if eigh runs. If the bracket
    meets `tol` (always at tol = inf; at the default tol only when all
    transmissions are equal, as in K_n and C_n, and it is closed at mu), it is
    returned with iterations = 0, value = float(2W/n) and no eigensolve. Otherwise
    eigh(D)'s top eigenvector v proposes x = floor(|v| 2^50 / max|v|) + 1;
    y = Dx in int64 is exact (row sums < 2^11 at VERTEX_CAP keep y < 2^61),
    and the bracket narrows to the extreme ratios y_i/x_i by
    cross-multiplication in ints. While wider than `tol`, x <- y and one
    more exact step runs in Python ints, with no cap:
    - Collatz-Wielandt: for D >= 0 irreducible and any x > 0,
      min_i (Dx)_i/x_i <= rho <= max_i (Dx)_i/x_i; x need only be positive,
      not an eigenvector (Berman & Plemmons, Nonnegative Matrices in the
      Mathematical Sciences, 1994, ch. 2).
    - For n >= 3 the support of D is K_n, which has odd cycles, so D is
      primitive: the exact ratios of D^k x converge to rho from any x > 0,
      and any tol > 0 is reached.
    - Measured at 1e-12: paths take 2-3 steps, random graphs 1-2; at the
      default 1e-10, random graphs up to n = 64 close in one.
    """
    if g.n < 2:
        raise ParameterError(f"distance spectral radius needs order n >= 2, got order {g.n}")
    if not tol >= MIN_TOL:
        raise ParameterError(f"tolerance must be at least {MIN_TOL:g}, got {tol!r}")
    if universal_mask(g):  # diameter <= 2: D = 2(J - I) - A, Tr(v) = 2(n - 1) - deg v
        dist = None
        transmissions = [2 * (g.n - 1) - row.bit_count() for row in g.rows]
    else:
        dist = _distance_matrices(_adjacency_matrices([g]))[0]
        transmissions = dist.astype(np.int64).sum(axis=1).tolist()
    twice_wiener = sum(transmissions)
    # a width is below the largest transmission, < 2^11, so tol = inf reads as 2^11
    tol_p, tol_q = float(min(tol, 2048)).as_integer_ratio()
    # the bracket is [lo_p/lo_q, hi_p/hi_q] in ints
    lo_p, lo_q, hi_p, hi_q = twice_wiener, g.n, max(transmissions), 1
    top = lo_p / lo_q  # int / int rounds once; the clamp below keeps it without eigh
    iterations = 0
    while (hi_p * lo_q - lo_p * hi_q) * tol_q > tol_p * hi_q * lo_q:
        if iterations:
            xs, ys = ys, [sum(map(operator.mul, row, ys)) for row in rows.tolist()]
        else:
            if dist is None:
                dist = _distance_matrices(_adjacency_matrices([g]))[0]
            rows = dist.astype(np.int64)
            values, vectors = np.linalg.eigh(dist)
            top = float(values[-1])
            v = np.abs(vectors[:, -1])
            x = (v * 2.0**50 / v.max()).astype(np.int64) + 1
            xs, ys = x.tolist(), (rows @ x).tolist()
        iterations += 1
        min_p = max_p = ys[0]
        min_q = max_q = xs[0]
        for p, q in zip(ys, xs):
            if p * min_q < min_p * q:
                min_p, min_q = p, q
            elif p * max_q > max_p * q:
                max_p, max_q = p, q
        if min_p * lo_q > lo_p * min_q:
            lo_p, lo_q = min_p, min_q
        if max_p * hi_q < hi_p * max_q:
            hi_p, hi_q = max_p, max_q
    value = min(max(top, lo_p / lo_q), hi_p / hi_q)
    lo, hi = Fraction(lo_p, lo_q), Fraction(hi_p, hi_q)
    return SpectralEstimate(value, lo, hi, iterations, twice_wiener // 2)
