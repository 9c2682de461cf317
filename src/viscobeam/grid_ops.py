"""Uniform spatial grid, discrete norm and the sine basis of the operators.

Interior vectors hold values at the nodes x_1..x_{J-1} of the unit
interval.  The hinged end conditions are W_0 = W_J = 0 and the odd ghost
extension W_{-1} = -W_1, W_{J+1} = -W_{J-1}.  Under that closure the
5-point fourth difference D4 is exactly the square of the Dirichlet second
difference D2, which is what makes the discrete energy argument (summation
by parts) work.

Both operators are diagonal in the orthonormal DST-I basis:
D2 = S diag(lambda) S with S = :func:`sine_transform` (its own inverse)
and lambda from :func:`second_difference_eigenvalues`, so D4 =
S diag(lambda^2) S.  S is read off numpy's real FFT of the vector
zero-padded to length 2J (one zero before it, J after it).  The solver
applies the operators only in that form; the stencils themselves serve as
test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .kernel import ConfigurationError, require_integer


@dataclass(frozen=True)
class Grid:
    """Uniform grid with J subintervals on [0, 1]; h = 1/J."""

    J: int

    def __post_init__(self):
        J = self.J
        require_integer(J, "grid J")
        if J < 4:
            raise ConfigurationError(
                f"need J >= 4 so the biharmonic stencil has an unclipped row "
                f"(got J={J})")

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


def norm(W, grid: Grid) -> float:
    """Discrete L2 norm."""
    W = np.asarray(W, dtype=float)
    if W.shape != (grid.n_interior,):
        raise ValueError(
            f"interior vector has shape {W.shape}, expected ({grid.n_interior},)")
    return math.sqrt(grid.h * (W @ W))


def sine_transform(W) -> np.ndarray:
    """Orthonormal DST-I along the last axis; symmetric and its own inverse.

    Maps interior values to coefficients in the sine eigenbasis of the
    hinged difference operators and back.  Orthonormality makes
    ``norm(W) == sqrt(h) * ||sine_transform(W)||``.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[-1]
    padded = np.zeros(W.shape[:-1] + (2 * n + 2,))
    padded[..., 1:n + 1] = W
    return -math.sqrt(2.0 / (n + 1)) * np.fft.rfft(padded).imag[..., 1:n + 1]


def second_difference_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues lambda_k = -(4/h^2) sin^2(k pi / 2J), k = 1..J-1, of D2.

    Mode k is the sine_transform basis vector k; squaring gives the
    eigenvalues of the hinged fourth difference.
    """
    k = np.arange(1, grid.J)
    return -4.0 / grid.h**2 * np.sin(0.5 * np.pi * k / grid.J) ** 2
