"""Detailed ultraweak Petrov-Galerkin solver and residual error estimator.

The trial basis is implied: each coefficient weighs the image of a test
hat function under the adjoint operator -E^T d/dt - A^T.  A solution is
therefore fully described by its coefficient vector, the grid and the
kernel basis of E^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationFailure, GridMismatch, OutOfDomain, StepSingular
from .assembly import (
    RhsOperator,
    StiffnessMatrix,
    assemble_rhs_operator,
    assemble_stiffness,
    vectorize_samples,
)
from .system_model import DaeSystem, KernelBasis, kernel_basis, sample_rhs
from .temporal import (
    TimeGrid,
    build_grams,
    hat_derivative_values,
    hat_values,
    prolongation_matrix,
)

__all__ = [
    "BandedCholesky",
    "DetailedSolution",
    "DetailedOperator",
    "solve_detailed",
    "evaluate_state",
    "l2_norm",
    "l2_error",
    "l2_difference",
    "estimator_detailed",
    "implicit_euler_reference",
    "output_trajectory",
    "gauss_points",
]

# Normwise backward-error gate of every detailed solve, in max norms.  A
# banded Cholesky solve is backward stable, |dB| <~ (3w+2) u |R^T||R| for
# half-bandwidth w and unit round-off u: 1e-12 covers bands up to w ~ 3000
# and sits over three orders above the measured 2.6e-16 (RLC, K = 4096) and
# 7.5e-18 (Stokes-like m_g = 8).  A wrong factor or corrupted data gives
# O(1); unlike a relative residual, the gate does not grow with cond(B) ~ K^2.
BACKWARD_TOL = 1e-12


def gauss_points(order: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


class BandedCholesky:
    """LAPACK banded Cholesky (pbtrf) of a sparse SPD matrix.

    The half-bandwidth is read from the sparsity pattern; it is at most 2n
    in the time-node-major layout.  Factorizing is the SPD certificate.
    """

    def __init__(self, M: sp.spmatrix):
        lower = sp.tril(M, format="coo")
        lower.sum_duplicates()
        offset = lower.row - lower.col
        self.bandwidth = int(offset.max(initial=0))
        ab = np.zeros((self.bandwidth + 1, M.shape[0]))
        ab[offset, lower.col] = lower.data
        try:
            self._cb = la.cholesky_banded(ab, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailure(f"Cholesky factorization failed: {exc}") from exc
        self.norm1 = float(spla.norm(M, 1))  # also the max norm: M is symmetric

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (dim,) or several (dim, k)."""
        b = np.asarray(b, dtype=float)
        return la.cho_solve_banded((self._cb, True), b, check_finite=False)

    def check(self, residual: np.ndarray, x: np.ndarray, b: np.ndarray) -> None:
        """Raise unless ||M x - b|| <= tol (||M|| ||x|| + ||b||) in every column."""
        amax = lambda v: np.abs(v).max(axis=0)
        eta = amax(residual) / (self.norm1 * amax(x) + amax(b) + np.finfo(float).tiny)
        if not np.all(eta <= BACKWARD_TOL):
            raise FactorizationFailure(f"backward error {np.max(eta):.2e} > {BACKWARD_TOL}")


class DetailedOperator:
    """Caches the assembled system for one (system, parameter-of-A, grid).

    For fully linear systems the stiffness matrix is parameter independent
    and one operator serves every parameter value.
    """

    def __init__(
        self,
        sys: DaeSystem,
        grid: TimeGrid,
        mu=None,
        V: KernelBasis | None = None,
    ):
        self.sys = sys
        self.grid = grid
        self.mu_A = np.zeros(1) if mu is None else np.atleast_1d(np.asarray(mu, float))
        self.V = V if V is not None else kernel_basis(sys.E)
        grams = build_grams(grid)
        self.stiffness: StiffnessMatrix = assemble_stiffness(
            sys, self.mu_A, grid, self.V, grams
        )
        self.rhs_op: RhsOperator = assemble_rhs_operator(grid, sys.n, self.V, grams)

    @cached_property
    def factor(self) -> BandedCholesky:
        return BandedCholesky(self.stiffness.matrix)

    @property
    def dim(self) -> int:
        return self.stiffness.dim

    def rhs_vector(self, mu) -> np.ndarray:
        samples = sample_rhs(self.sys.rhs, mu, self.grid.nodes)
        return self.rhs_op.apply(vectorize_samples(samples))

    def solve_load(self, load: np.ndarray, mu=None) -> "DetailedSolution":
        coeffs = self.factor.solve(load)
        self.factor.check(self.stiffness.matrix @ coeffs - load, coeffs, load)
        return DetailedSolution(
            coeffs=coeffs,
            grid=self.grid,
            V=self.V,
            mu=self.mu_A if mu is None else np.atleast_1d(np.asarray(mu, float)),
            sys=self.sys,
            op=self,
        )

    def solve(self, mu=None) -> "DetailedSolution":
        mu = self.mu_A if mu is None else mu
        return self.solve_load(self.rhs_vector(mu), mu=mu)


@dataclass(frozen=True)
class DetailedSolution:
    """Coefficients of the ultraweak approximation in the implied trial basis."""

    coeffs: np.ndarray
    grid: TimeGrid
    V: KernelBasis
    mu: np.ndarray
    sys: DaeSystem
    op: DetailedOperator

    @property
    def test_node_values(self) -> np.ndarray:
        """Nodal values (n, K+1) of the matching test function y with x = B* y."""
        n, K = self.sys.n, self.grid.K
        Y = np.zeros((n, K + 1))
        Y[:, :K] = self.coeffs[: n * K].reshape(K, n).T
        if self.V.d > 0:
            Y[:, K] = self.V.V @ self.coeffs[n * K :]
        return Y

    def prolonged_coeffs(self, fine: TimeGrid) -> np.ndarray:
        """Coefficients of the same test function y on a nested refinement.

        The fine nodal values are the coarse hat expansion at the fine
        nodes; the kernel coefficients at the shared last node carry over.
        """
        K = self.grid.K
        if fine.K % K:
            raise GridMismatch(f"grid with K={fine.K} does not refine K={K}")
        Yf = prolongation_matrix(self.grid, fine) @ self.test_node_values.T
        return np.concatenate([Yf[:-1].ravel(), self.coeffs[self.sys.n * K :]])


def solve_detailed(sys: DaeSystem, mu, grid: TimeGrid) -> DetailedSolution:
    """One-shot detailed solve; assembles, factorizes and solves."""
    return DetailedOperator(sys, grid, mu=mu).solve(mu)


def evaluate_state(sol: DetailedSolution, times) -> np.ndarray:
    """Evaluate the trial expansion at the query times; shape (n, len(times)).

    At grid nodes (where the piecewise state jumps) the average of the
    one-sided limits is returned.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    T = sol.grid.T
    if np.any(t < -1e-12 * T) or np.any(t > T * (1 + 1e-12)):
        raise OutOfDomain(f"query times outside [0, {T}]")
    t = np.clip(t, 0.0, T)
    Yt = sol.test_node_values.T
    yvals = (hat_values(sol.grid, t) @ Yt).T
    ydot = (hat_derivative_values(sol.grid, t) @ Yt).T
    E = sol.sys.E.tocsr()
    A = sol.sys.A_at(sol.mu)
    return -(E.T @ ydot) - (A.T @ yvals)


def l2_norm(sol: DetailedSolution) -> float:
    """Exact L2 norm via the Gram identity of the stiffness matrix."""
    c = sol.coeffs
    return float(np.sqrt(max(c @ (sol.op.stiffness.matrix @ c), 0.0)))


def l2_error(sol: DetailedSolution, reference, quad_order: int = 4) -> float:
    """Composite Gauss quadrature of ||x - reference|| over the grid cells.

    ``reference`` maps times (k,) to values (n, k).
    """
    x, w = gauss_points(quad_order)
    dt, K = sol.grid.dt, sol.grid.K
    pts = (sol.grid.nodes[:-1, None] + dt * x[None, :]).ravel()
    wts = np.tile(dt * w, K)
    diff = evaluate_state(sol, pts) - np.atleast_2d(np.asarray(reference(pts), float))
    return float(np.sqrt(np.sum(wts * np.sum(diff**2, axis=0))))


def l2_difference(fine: DetailedSolution, coarse: DetailedSolution) -> float:
    """Exact L2 distance of two solutions on nested grids.

    The coarse test function is prolonged to the fine grid; the distance
    of the trial functions is the fine stiffness norm of the coefficient
    difference.  Coincident grids are the refinement-1 case.
    """
    if fine.sys is not coarse.sys or not np.array_equal(fine.mu, coarse.mu):
        raise ValueError("l2_difference needs two solutions of one system at one parameter")
    w = fine.coeffs - coarse.prolonged_coeffs(fine.grid)
    return float(np.sqrt(max(w @ (fine.op.stiffness.matrix @ w), 0.0)))


def estimator_detailed(
    sol: DetailedSolution, refinement: int = 2, corrected: bool = True
) -> float:
    """Residual dual norm over the test space on a refined grid.

    The raw value (``corrected=False``) is the sup of the residual over
    the refined test space: a lower bound of the true dual norm, monotone
    increasing in the refinement.  For nested grids it equals the L2
    distance between the solutions on the two grids, so under first-order
    convergence it saturates at sqrt(1 - 1/refinement^2) of the true
    error; the default applies that saturation correction.  Refinement 1
    reproduces Galerkin orthogonality (zero residual) and serves as a
    testing backdoor.

    Every coarse trial function is the image of its test function, which
    the fine test space contains, so the residual is f_f - B_f J c with J
    the test-space prolongation.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    fine = DetailedOperator(sol.sys, sol.grid.refine(refinement), mu=sol.mu, V=sol.V)
    rho = fine.rhs_vector(sol.mu) - fine.stiffness.matrix @ sol.prolonged_coeffs(fine.grid)
    w = fine.solve_load(rho).coeffs
    raw = float(np.sqrt(max(rho @ w, 0.0)))
    if corrected and refinement > 1:
        return raw / np.sqrt(1.0 - 1.0 / refinement**2)
    return raw


def implicit_euler_reference(sys: DaeSystem, mu, grid: TimeGrid) -> np.ndarray:
    """Implicit Euler baseline from a homogeneous start; shape (n, K+1)."""
    E = sys.E.tocsc()
    A = sys.A_at(mu).tocsc()
    dt = grid.dt
    M = (E - dt * A).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        raise StepSingular(f"step matrix E - dt*A is singular: {exc}") from exc
    f = sample_rhs(sys.rhs, mu, grid.nodes)
    X = np.zeros((sys.n, grid.K + 1))
    for k in range(1, grid.K + 1):
        X[:, k] = lu.solve(E @ X[:, k - 1] + dt * f[:, k])
    return X


def output_trajectory(sol: DetailedSolution, C: np.ndarray | None = None):
    """Outputs C x at cell midpoints; returns (times, values (p, K))."""
    if C is None:
        C = sol.sys.output_matrix
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[1] != sol.sys.n:
        raise ValueError(
            f"output matrix has {C.shape[1]} columns, state dimension is {sol.sys.n}"
        )
    nodes = sol.grid.nodes
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return mids, C @ evaluate_state(sol, mids)
