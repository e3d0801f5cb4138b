"""Uniform 1-D grid, Neumann Laplacian, and trapezoidal quadrature.

The spatial domain is a closed interval discretized by ``nx`` equispaced
nodes. Diffusion uses the standard three-point stencil closed at both ends
by ghost-point mirroring, which keeps the operator second-order accurate
and exactly negative semidefinite against the trapezoidal inner product.
Quadrature is the composite trapezoidal rule so that the discrete
integration-by-parts identity (``green_identity_residual``) holds to
O(dx^2) for smooth no-flux fields.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Grid1D",
    "laplacian_neumann",
    "gradient_central",
    "integrate",
    "mean_value",
    "green_identity_residual",
]


@dataclass(frozen=True)
class Grid1D:
    """Equispaced nodes x_min + i*dx for i = 0..nx-1."""

    x_min: float
    x_max: float
    nx: int

    def __post_init__(self) -> None:
        if self.nx < 3:
            raise ValueError(f"nx: need at least 3 nodes, got {self.nx}")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max: must exceed x_min ({self.x_max} <= {self.x_min})")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


def laplacian_neumann(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Second difference with mirror (ghost-point) closure at both ends.

    Interior: (u[i-1] - 2 u[i] + u[i+1]) / dx^2.  Boundaries reflect the
    first interior node (u[-1] := u[1], u[nx] := u[nx-2]), so constants are
    annihilated exactly and the no-flux condition is built into the stencil.
    Along the last axis, so a stack of fields is differenced row by row.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    dx2 = grid.dx * grid.dx
    # (u[i-1] - 2 u[i] + u[i+1]) / dx2, summed in that order, in one pass
    # over the rows laid end to end; each row's two ends are then set apart
    flat = u.reshape(-1)
    mid = np.multiply(flat[1:-1], -2.0, out=out.reshape(-1)[1:-1])
    mid += flat[:-2]
    mid += flat[2:]
    mid /= dx2
    out[..., 0] = 2.0 * (u[..., 1] - u[..., 0]) / dx2
    out[..., -1] = 2.0 * (u[..., -2] - u[..., -1]) / dx2
    return out


def gradient_central(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Central differences in the interior, one-sided at the boundaries;
    along the last axis, so a stack of fields is differenced row by row."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * grid.dx)
    out[..., 0] = (u[..., 1] - u[..., 0]) / grid.dx
    out[..., -1] = (u[..., -1] - u[..., -2]) / grid.dx
    return out


def integrate(grid: Grid1D, u: np.ndarray):
    """Composite trapezoidal rule along the last axis; exact for affine fields.

    Summation order is fixed (one np.add.reduce, as np.sum, over the
    interior of each row), so repeated runs are bit-reproducible and a stack
    of fields integrates row by row to the same bits as each field alone.
    """
    u = np.asarray(u, dtype=float)
    return grid.dx * (0.5 * (u[..., 0] + u[..., -1]) + np.add.reduce(u[..., 1:-1], axis=-1))


def mean_value(grid: Grid1D, u: np.ndarray) -> float:
    """Quadrature mean, integrate(u) / |domain|."""
    return integrate(grid, u) / grid.length


def green_identity_residual(
    grid: Grid1D,
    u: np.ndarray,
    p: Callable[[np.ndarray], np.ndarray],
    p_prime: Callable[[np.ndarray], np.ndarray],
    *,
    neumann_rel_tol: float = 0.05,
) -> float:
    """Residual of the discrete integration-by-parts identity.

    Returns |integrate(p(u) * lap(u)) + integrate(p'(u) * grad(u)^2)|.
    For smooth fields with vanishing boundary slope both integrals cancel
    up to O(dx^2).  When the one-sided boundary gradient is not small
    relative to the interior gradient scale the identity is not expected
    to hold and a RuntimeWarning is issued.
    """
    u = np.asarray(u, dtype=float)
    g = gradient_central(grid, u)
    interior_scale = float(np.max(np.abs(g[1:-1]))) if grid.nx > 2 else 0.0
    boundary_slope = max(abs(g[0]), abs(g[-1]))
    if boundary_slope > neumann_rel_tol * max(1e-300, interior_scale):
        warnings.warn(
            "field does not satisfy the discrete no-flux condition; "
            f"boundary slope {boundary_slope:.3g} vs interior scale {interior_scale:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    lhs = integrate(grid, np.asarray(p(u), dtype=float) * laplacian_neumann(grid, u))
    rhs = integrate(grid, np.asarray(p_prime(u), dtype=float) * g * g)
    return abs(lhs + rhs)
