"""Uniform 1-D grid, Neumann Laplacian, and trapezoidal quadrature.

The spatial domain is a closed interval discretized by ``nx`` equispaced
nodes. Diffusion uses the standard three-point stencil closed at both ends
by ghost-point mirroring, which keeps the operator second-order accurate
and exactly negative semidefinite against the trapezoidal inner product.
Quadrature is the composite trapezoidal rule so that the discrete
integration-by-parts identity holds to O(dx^2) for smooth no-flux fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "laplacian_neumann",
    "gradient_central",
    "integrate",
    "mean_value",
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
        # written so that NaN fails each test
        if not -math.inf < self.x_min < math.inf:
            raise ValueError(f"x_min: must be finite, got {self.x_min}")
        if not -math.inf < self.x_max < math.inf:
            raise ValueError(f"x_max: must be finite, got {self.x_max}")
        if not self.length < math.inf:
            raise ValueError(f"x_max: the span x_max - x_min must be finite, got {self.length}")

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
    Along the last axis, so a stack of fields is differenced row by row, by a
    one-off ``_bind_laplacian``; the solver's step plan binds its buffer once.
    """
    u = np.asarray(u, dtype=float)
    return _bind_laplacian(grid, u, np.empty(u.shape))()


def _bind_laplacian(grid: Grid1D, u: np.ndarray, out: np.ndarray):
    """A call that writes ``laplacian_neumann`` of what ``u`` then holds into
    ``out`` by ufuncs with positional outs, the stencil's views and its -2, 2
    and dx^2 (as 0-d float64 operands) bound once; ``u`` (else copied now)
    and ``out`` are C-contiguous, of one shape, and do not overlap."""
    minus_two, two, dx2 = (np.array(c) for c in (-2.0, 2.0, grid.dx * grid.dx))
    # u[i-1] - 2 u[i] + u[i+1], summed in that order, in one pass over the
    # rows laid end to end; each row's two ends are then set apart, and every
    # entry is divided by dx2 once, at the end
    flat = u.reshape(-1)
    centre, left, right, mid = flat[1:-1], flat[:-2], flat[2:], out.reshape(-1)[1:-1]
    n = u.shape[-1] - 1  # both ends of each row at once; with nx = 3, u[1] is the inner node of both
    inner, ends, out_ends = u[..., 1 : n : max(n - 2, 1)], u[..., ::n], out[..., ::n]

    def apply() -> np.ndarray:
        np.add(np.add(np.multiply(centre, minus_two, mid), left, mid), right, mid)
        np.multiply(np.subtract(inner, ends, out_ends), two, out_ends)  # 2 (u[1] - u[0]), and its mirror
        return np.divide(out, dx2, out)

    return apply


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

