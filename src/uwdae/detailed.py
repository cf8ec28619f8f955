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
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dtrmm, dtrsm

from .errors import FactorizationFailure, GridMismatch, OutOfDomain
from .assembly import SpaceTimeOperator, assemble_stiffness, vectorize_samples
from .system_model import DaeSystem, KernelBasis, kernel_basis, sample_rhs
from .temporal import (
    TimeGrid,
    hat_derivative_values,
    hat_values,
    prolongation_matrix,
)

__all__ = [
    "BandedCholesky",
    "uses_blocked_sweep",
    "DetailedSolution",
    "DetailedOperator",
    "solve_detailed",
    "evaluate_state",
    "l2_norm",
    "l2_error",
    "l2_difference",
    "estimator_detailed",
    "l2_quadrature",
]

# Normwise backward-error gate of every detailed solve, in max norms.  A
# banded Cholesky solve is backward stable, |dB| <~ (3w+2) u |R^T||R| for
# half-bandwidth w and unit round-off u: 1e-12 covers bands up to w ~ 3000
# and sits over three orders above the measured 2.6e-16 (RLC, K = 4096) and
# 7.5e-18 (Stokes-like m_g = 8).  A wrong factor or corrupted data gives
# O(1); unlike a relative residual, the gate does not grow with cond(B) ~ K^2.
BACKWARD_TOL = 1e-12

# A multi-column solve takes the blocked level-3 sweep from this many
# right-hand sides on a band at least this wide, LAPACK pbtrs otherwise.
# pbtrs reads the whole band twice per column; the sweep reads it twice in
# all but makes four BLAS calls from Python per w x w block, dim / w of
# them, so narrow bands (RLC's w = 7) never gain.  Crossovers measured with
# OpenBLAS on two cores are recorded in CHANGES.md.
BLOCKED_MIN_COLUMNS = 16
BLOCKED_MIN_BANDWIDTH = 64


def uses_blocked_sweep(columns: int, bandwidth: int) -> bool:
    """Whether a solve with this many right-hand sides takes the blocked sweep."""
    return columns >= BLOCKED_MIN_COLUMNS and bandwidth >= BLOCKED_MIN_BANDWIDTH


def l2_quadrature(f, grid: TimeGrid, order: int) -> float:
    """Composite Gauss-Legendre quadrature of ||f||, f mapping times (k,) to
    values (n, k), over the grid cells with ``order`` points per cell."""
    x, w = np.polynomial.legendre.leggauss(order)
    pts = (grid.nodes[:-1, None] + grid.dt * (0.5 * (x + 1.0))[None, :]).ravel()
    wts = np.tile(grid.dt * (0.5 * w), grid.K)
    vals = np.atleast_2d(np.asarray(f(pts), dtype=float))
    return float(np.sqrt(np.sum(wts * np.sum(vals**2, axis=0))))


class BandedCholesky:
    """LAPACK banded Cholesky (pbtrf) of SPD M from its lower band[o, j] = M[j+o, j].

    A Fortran-ordered band is factored in place, so ``norm1`` = ||M||_1 comes
    from the caller.  Factorizing is the SPD certificate.  With a state order
    ``perm`` (length n), unknown perm[i] of each of the first ``nodes`` blocks
    of n is unknown i of the band; ``solve`` permutes, so callers see M.
    """

    def __init__(self, band: np.ndarray, norm1: float, perm=None, nodes: int = 0):
        self.norm1, self.perm, self.nodes = norm1, perm, nodes  # also the max norm: M is symmetric
        self.bandwidth = band.shape[0] - 1
        try:
            self._cb = la.cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailure(f"Cholesky factorization failed: {exc}") from exc

    def _permute(self, b: np.ndarray, order: np.ndarray) -> np.ndarray:
        """b with the unknowns of each of the first ``nodes`` blocks taken in ``order``."""
        nodal, shape = self.nodes * order.size, (self.nodes, order.size, -1)
        out = np.empty(b.shape)
        out[nodal:] = b[nodal:]
        np.take(b[:nodal].reshape(shape), order, axis=1, out=out[:nodal].reshape(shape))
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (dim,) or several (dim, k)."""
        b = np.asarray(b, dtype=float)
        if self.perm is not None:
            b = self._permute(b, self.perm)
        if uses_blocked_sweep(1 if b.ndim == 1 else b.shape[1], self.bandwidth):
            y = self.solve_blocked(b.reshape(b.shape[0], -1)).reshape(b.shape)
        else:
            y = la.cho_solve_banded((self._cb, True), b, check_finite=False)
        return y if self.perm is None else self._permute(y, np.argsort(self.perm))

    def solve_blocked(self, b: np.ndarray) -> np.ndarray:
        """Solve L L^T y = b for b (dim, k), in the factor's own ordering.

        With w the half-bandwidth, L is block bidiagonal in w x w blocks:
        lower-triangular diagonal blocks D_i and upper-triangular coupling
        blocks C_i below them.  In the Fortran-ordered band storage
        L[i, j] = flat[j w + i], so both are contiguous w*w runs of
        ``flat``, read as zero-copy matrices with leading dimension w; their
        unused triangles hold other band entries, which TRSM and TRMM never
        read.  Forward sweep X_i <- D_i^-1 (X_i - C_{i-1} X_{i-1}), backward
        sweep X_i <- D_i^-T (X_i - C_i^T X_{i+1}).  The coupling products use
        TRMM, not GEMM: with two OpenBLAS threads, alternating GEMM and TRSM
        made the sweep twenty times slower.
        """
        w = self.bandwidth
        dim, k = b.shape
        nblk = -(-dim // w)
        last = dim - (nblk - 1) * w  # rows of the last, possibly partial, block
        flat = self._cb.reshape(-1, order="F")
        windows = sliding_window_view(flat, w * w)
        view = lambda start: windows[start].reshape(w, w, order="F")
        D = [view(i * w * (w + 1)) for i in range(nblk - 1)]
        C = [view(i * w * (w + 1) + w) for i in range(nblk - 2)]
        # the last block is padded to w rows: its diagonal block with an
        # identity, its coupling block (a masked copy) with zero rows, so the
        # padding stays zero and is never read into the other blocks
        start = (nblk - 1) * w * (w + 1)
        D_last = np.eye(w)
        D_last[:last, :last] = np.tril(
            sliding_window_view(flat, w * last)[start].reshape(w, last, order="F")[:last]
        )
        D.append(D_last)
        if nblk > 1:
            C_last = np.triu(view((nblk - 2) * w * (w + 1) + w))
            C_last[last:] = 0.0
            C.append(C_last)
        # one C-ordered (k, w) slab per block: block i is X[i].T, F-contiguous
        X = np.zeros((nblk, w, k))
        X.reshape(-1, k)[:dim] = b
        X = np.ascontiguousarray(X.transpose(0, 2, 1))
        for i in range(nblk):
            Xi = X[i].T
            if i:
                Xi -= dtrmm(1.0, C[i - 1], X[i - 1].T)
            Xi[...] = dtrsm(1.0, D[i], Xi, lower=1, overwrite_b=True)
        for i in reversed(range(nblk)):
            Xi = X[i].T
            if i < nblk - 1:
                Xi -= dtrmm(1.0, C[i], X[i + 1].T, trans_a=1)
            Xi[...] = dtrsm(1.0, D[i], Xi, lower=1, trans_a=1, overwrite_b=True)
        return X.transpose(0, 2, 1).reshape(nblk * w, k)[:dim]

    def check(self, residual: np.ndarray, x: np.ndarray, b: np.ndarray) -> None:
        """Raise unless ||M x - b|| <= tol (||M|| ||x|| + ||b||) in every column."""
        amax = lambda v: np.abs(v).max(axis=0)
        eta = amax(residual) / (self.norm1 * amax(x) + amax(b) + np.finfo(float).tiny)
        if not np.all(eta <= BACKWARD_TOL):
            raise FactorizationFailure(f"backward error {np.max(eta):.2e} > {BACKWARD_TOL}")


class DetailedOperator:
    """Caches the assembled system for one (system, parameter-of-A, grid).

    For fully linear systems the stiffness is parameter independent and
    one operator serves every parameter value.
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
        self.stiffness: SpaceTimeOperator = assemble_stiffness(sys, self.mu_A, grid, self.V)

    @cached_property
    def factor(self) -> BandedCholesky:
        B = self.stiffness
        perm = B.ordering()
        return BandedCholesky(B.band(perm), B.norm1, perm=perm, nodes=self.grid.K)

    @property
    def dim(self) -> int:
        return self.stiffness.dim

    @cached_property
    def initial_loads(self) -> np.ndarray:
        """Load columns (dim, Q) of the initial-value terms x0_q.

        Integrating (E x', y) by parts against test functions with
        E^T y(T) = 0 leaves (E x0, y(0)) on the right-hand side.  Of the hat
        functions only sigma_0 is nonzero at t = 0, with sigma_0(0) = 1, so
        column q is E x0_q on the node-0 block and zero elsewhere.
        """
        x0 = self.sys.x0
        cols = np.zeros((self.dim, 0 if x0 is None else x0.Q))
        if x0 is not None:
            X0 = np.column_stack([np.asarray(v, dtype=float).ravel() for _, v in x0.terms])
            cols[: self.sys.n] = self.sys.E @ X0
        return cols

    def rhs_vector(self, mu) -> np.ndarray:
        samples = sample_rhs(self.sys.rhs, mu, self.grid.nodes)
        load = self.stiffness.load(vectorize_samples(samples))
        if self.sys.x0 is not None:
            load += self.initial_loads @ self.sys.x0.theta_vector(mu)
        return load

    def _parameter(self, mu) -> np.ndarray:
        """The parameter of a solve: any for a parameter-independent A, else mu_A."""
        if mu is None:
            return self.mu_A
        mu = np.atleast_1d(np.asarray(mu, float))
        if not self.sys.parameter_independent_A and not np.array_equal(mu, self.mu_A):
            raise ValueError(
                f"operator assembled at mu={self.mu_A.tolist()} cannot solve at "
                f"mu={mu.tolist()}: A depends on the parameter"
            )
        return mu

    def solve_load(self, load: np.ndarray, mu=None) -> "DetailedSolution":
        mu = self._parameter(mu)
        coeffs = self.factor.solve(load)
        self.factor.check(self.stiffness @ coeffs - load, coeffs, load)
        return DetailedSolution(coeffs=coeffs, mu=mu, op=self)

    def solve(self, mu=None) -> "DetailedSolution":
        mu = self._parameter(mu)
        return self.solve_load(self.rhs_vector(mu), mu=mu)


@dataclass(frozen=True)
class DetailedSolution:
    """Coefficients of the ultraweak approximation in the implied trial basis;
    the grid, kernel basis and system are those of the operator."""

    coeffs: np.ndarray
    mu: np.ndarray
    op: DetailedOperator

    grid = property(lambda self: self.op.grid)
    V = property(lambda self: self.op.V)
    sys = property(lambda self: self.op.sys)

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
    return float(np.sqrt(max(c @ (sol.op.stiffness @ c), 0.0)))


def l2_error(sol: DetailedSolution, reference, quad_order: int = 4) -> float:
    """Composite Gauss quadrature of ||x - reference|| over the grid cells.

    ``reference`` maps times (k,) to values (n, k).
    """
    diff = lambda t: evaluate_state(sol, t) - np.atleast_2d(np.asarray(reference(t), float))
    return l2_quadrature(diff, sol.grid, quad_order)


def l2_difference(fine: DetailedSolution, coarse: DetailedSolution) -> float:
    """Exact L2 distance of two solutions on nested grids.

    The coarse test function is prolonged to the fine grid; the distance
    of the trial functions is the fine stiffness norm of the coefficient
    difference.  Coincident grids are the refinement-1 case.
    """
    if fine.sys is not coarse.sys or not np.array_equal(fine.mu, coarse.mu):
        raise ValueError("l2_difference needs two solutions of one system at one parameter")
    w = fine.coeffs - coarse.prolonged_coeffs(fine.grid)
    return float(np.sqrt(max(w @ (fine.op.stiffness @ w), 0.0)))


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
    the test-space prolongation; its dual norm is the fine stiffness norm
    of c_f - J c for the fine solution c_f.  That is what is computed: the
    residual is a small difference of vectors of size ||B_f|| ||c||, whose
    round-off B_f^-1 amplifies by cond(B_f) ~ K^2.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    fine = DetailedOperator(sol.sys, sol.grid.refine(refinement), mu=sol.mu, V=sol.V)
    raw = l2_difference(fine.solve(sol.mu), sol)
    if corrected and refinement > 1:
        return raw / np.sqrt(1.0 - 1.0 / refinement**2)
    return raw
