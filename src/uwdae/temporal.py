"""Uniform time grids, hat bases and their exact Gram matrices.

The three sparse tridiagonal (K+1) x (K+1) matrices hold the pairwise L2
products of the piecewise-linear nodal basis and of its derivatives:

* ``Kt[k,l] = <sigma_k', sigma_l'>``   (stiffness)
* ``Lt[k,l] = <sigma_k,  sigma_l>``    (mass)
* ``Ot[k,l] = <sigma_k', sigma_l>``    (transport)

All entries are closed-form for uniform grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch

__all__ = [
    "TimeGrid",
    "GramTriplet",
    "build_grams",
    "sample_on_grid",
    "prolongation_matrix",
    "hat_values",
    "hat_derivative_values",
]

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_K = T with dt = T/K."""

    T: float
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("need at least one time interval")
        if not self.T > 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.K

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.K + 1) * self.dt

    def refine(self, factor: int) -> "TimeGrid":
        return TimeGrid(T=self.T, K=self.K * int(factor))


@dataclass(frozen=True)
class GramTriplet:
    Kt: sp.csr_matrix
    Lt: sp.csr_matrix
    Ot: sp.csr_matrix


def build_grams(grid: TimeGrid) -> GramTriplet:
    K, dt = grid.K, grid.dt
    main = np.full(K + 1, 2 * dt / 3.0)
    main[0] = main[-1] = dt / 3.0
    Lt = _tridiag(main, dt / 6.0, dt / 6.0)

    main = np.full(K + 1, 2.0 / dt)
    main[0] = main[-1] = 1.0 / dt
    Kt = _tridiag(main, -1.0 / dt, -1.0 / dt)

    main = np.zeros(K + 1)
    main[0], main[-1] = -0.5, 0.5
    Ot = _tridiag(main, -0.5, 0.5)  # super-diagonal -1/2, sub-diagonal +1/2
    return GramTriplet(Kt=Kt, Lt=Lt, Ot=Ot)


def _tridiag(main, upper, lower) -> sp.csr_matrix:
    return sp.diags([lower, main, upper], [-1, 0, 1], shape=(len(main),) * 2, format="csr")


def sample_on_grid(fun, grid: TimeGrid) -> np.ndarray:
    """Nodal samples (f(t_0), ..., f(t_K)); shape (n, K+1) or (K+1,)."""
    return np.asarray(fun(grid.nodes), dtype=float)


def prolongation_matrix(coarse: TimeGrid, fine: TimeGrid) -> sp.csr_matrix:
    """Interpolation of the coarse hat expansion at the fine nodes.

    Shape (K_fine+1, K_coarse+1); exact on shared nodes.
    """
    if abs(coarse.T - fine.T) > 1e-12 * max(coarse.T, fine.T):
        raise GridMismatch(
            f"horizons differ: coarse T={coarse.T}, fine T={fine.T}"
        )
    rows, cols, vals = _hat_eval_coo(coarse, fine.nodes)
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(fine.K + 1, coarse.K + 1)
    )


def hat_values(grid: TimeGrid, t: np.ndarray) -> sp.csr_matrix:
    """Sparse (len(t), K+1) matrix of hat-function values sigma_k(t)."""
    rows, cols, vals = _hat_eval_coo(grid, np.asarray(t, dtype=float))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(np.atleast_1d(t)), grid.K + 1))


def _node_coordinate(grid: TimeGrid, t: np.ndarray) -> np.ndarray:
    """t/dt, snapped to the nearest node within its round-off 8 eps max(1, t/dt)."""
    s = t / grid.dt
    k = np.rint(s)
    return np.where(np.abs(s - k) <= 8 * np.finfo(float).eps * np.maximum(1.0, s), k, s)


def _hat_eval_coo(grid: TimeGrid, t: np.ndarray):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = _node_coordinate(grid, t)
    cell = np.clip(np.floor(s).astype(int), 0, grid.K - 1)
    local = s - cell
    idx = np.arange(len(t))
    rows = np.concatenate([idx, idx])
    cols = np.concatenate([cell, cell + 1])
    vals = np.concatenate([1.0 - local, local])
    return rows, cols, vals


def hat_derivative_values(grid: TimeGrid, t: np.ndarray) -> sp.csr_matrix:
    """Sparse (len(t), K+1) matrix of derivative values sigma_k'(t).

    Derivatives are piecewise constant; at interior grid nodes the average
    of the one-sided limits is returned.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    dt, K = grid.dt, grid.K
    s = _node_coordinate(grid, t)
    k = np.floor(s).astype(int)
    node = (s == k) & (k > 0) & (k < K)
    cell = np.clip(k, 0, K - 1)
    left = np.where(node, k - 1, cell)
    right = np.where(node, k + 1, cell + 1)
    slope = np.where(node, 0.5 / dt, 1.0 / dt)
    idx = np.arange(len(t))
    return sp.csr_matrix(
        (np.concatenate([-slope, slope]), (np.concatenate([idx, idx]), np.concatenate([left, right]))),
        shape=(len(t), K + 1),
    )
