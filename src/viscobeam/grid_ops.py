"""Uniform spatial grid, difference operators and discrete norms.

Interior vectors hold values at the nodes x_1..x_{J-1} of the unit
interval.  The hinged end conditions close the stencils algebraically:
W_0 = W_J = 0 and the odd ghost extension W_{-1} = -W_1,
W_{J+1} = -W_{J-1}.  Under that closure the 5-point fourth difference is
exactly the square of the Dirichlet second difference, which is what makes
the discrete energy argument (summation by parts) work.  Ghost values are
never materialized.

The Dirichlet second difference is diagonalized by the orthonormal
DST-I: D2 = S diag(lambda) S with S = :func:`sine_transform` (its own
inverse) and lambda from :func:`second_difference_eigenvalues`, so the
hinged D4 = S diag(lambda^2) S.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.fft import dst


@dataclass(frozen=True)
class Grid:
    """Uniform grid with J subintervals on [0, 1]; h = 1/J."""

    J: int

    def __post_init__(self):
        if self.J < 4:
            raise ValueError(
                f"need J >= 4 so the biharmonic stencil has an unclipped row "
                f"(got J={self.J})")

    @property
    def h(self) -> float:
        return 1.0 / self.J

    @property
    def x(self) -> np.ndarray:
        """Interior nodes x_j = j*h, j = 1..J-1."""
        return self.h * np.arange(1, self.J)

    @property
    def n_interior(self) -> int:
        return self.J - 1


def _check_length(W: np.ndarray, grid: Grid) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.shape != (grid.n_interior,):
        raise ValueError(
            f"interior vector has shape {W.shape}, expected ({grid.n_interior},)")
    return W


def second_difference(W, grid: Grid) -> np.ndarray:
    """Second difference quotient with zero boundary values.

    Neighbours are summed before the centre term is subtracted, which makes
    the operator commute with the mirror j -> J-j exactly in floating point.
    """
    W = _check_length(W, grid)
    padded = np.zeros(grid.n_interior + 2)
    padded[1:-1] = W
    return ((padded[2:] + padded[:-2]) - 2.0 * W) / grid.h**2


def fourth_difference(W, grid: Grid) -> np.ndarray:
    """Fourth difference quotient with the odd ghost extension.

    Equals second_difference applied twice; mirror-equivariant exactly (see
    second_difference).
    """
    W = _check_length(W, grid)
    m = grid.n_interior
    padded = np.zeros(m + 4)
    padded[2:-2] = W
    padded[0] = -W[0]
    padded[-1] = -W[-1]
    return ((padded[4:] + padded[:-4])
            - 4.0 * (padded[3:-1] + padded[1:-3])
            + 6.0 * padded[2:-2]) / grid.h**4


def inner(V, W, grid: Grid) -> float:
    """Discrete L2 inner product h * sum_j V_j W_j."""
    V = _check_length(V, grid)
    W = _check_length(W, grid)
    return float(grid.h * np.dot(V, W))


def norm(W, grid: Grid) -> float:
    """Discrete L2 norm."""
    W = _check_length(W, grid)
    return math.sqrt(grid.h * (W @ W))


def max_norm(W) -> float:
    W = np.asarray(W, dtype=float)
    return float(np.max(np.abs(W))) if W.size else 0.0


def sine_transform(W) -> np.ndarray:
    """Orthonormal DST-I along the last axis; symmetric and its own inverse.

    Maps interior values to coefficients in the sine eigenbasis of the
    hinged difference operators and back.  Orthonormality makes
    ``norm(W) == sqrt(h) * ||sine_transform(W)||``.
    """
    return dst(np.asarray(W, dtype=float), type=1, norm="ortho")


def second_difference_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues lambda_k = -(4/h^2) sin^2(k pi / 2J), k = 1..J-1, of D2.

    Mode k is the sine_transform basis vector k; squaring gives the
    eigenvalues of the hinged fourth difference.
    """
    k = np.arange(1, grid.J)
    return -4.0 / grid.h**2 * np.sin(0.5 * np.pi * k / grid.J) ** 2
