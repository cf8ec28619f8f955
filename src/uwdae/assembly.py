"""Petrov-Galerkin stiffness and right-hand-side assembly.

Vectorization convention is time-node-major throughout: the unknown with
index k*n + i belongs to time node k (k = 0..K-1) and state component i;
the trailing d unknowns are the kernel-direction functions attached to
the last node.  Sample vectors of length n*(K+1) follow the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import SingularAssembly
from .system_model import DaeSystem, KernelBasis
from .temporal import GramTriplet, TimeGrid, build_grams, prolong_control

__all__ = [
    "StiffnessMatrix",
    "RhsOperator",
    "assemble_stiffness",
    "assemble_rhs_operator",
    "assemble_control_rhs",
    "vectorize_samples",
]


@dataclass(frozen=True)
class StiffnessMatrix:
    """Sparse SPD Gram matrix of the implied trial basis, in blocks.

    ``matrix`` is the monolithic (nK+d) x (nK+d) operator, built once on
    first access; the four blocks are kept for inspection and testing.
    """

    B11: sp.csr_matrix
    B12: sp.csr_matrix
    B21: sp.csr_matrix
    B22: sp.csr_matrix
    grid: TimeGrid
    n: int
    d: int

    @property
    def dim(self) -> int:
        return self.n * self.grid.K + self.d

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        if self.d == 0:
            return self.B11
        return sp.bmat([[self.B11, self.B12], [self.B21, self.B22]], format="csr")


@dataclass(frozen=True)
class RhsOperator:
    """Maps nodal sample vectors (length n(K+1)) to load vectors f^N.

    ``F`` has shape (n(K+1), nK+d); the load vector is F^T @ samples.
    """

    F: sp.csr_matrix
    grid: TimeGrid
    n: int
    V: KernelBasis

    def apply(self, samples: np.ndarray) -> np.ndarray:
        samples = np.asarray(samples, dtype=float).ravel()
        if samples.size != self.F.shape[0]:
            raise ValueError(
                f"sample vector has length {samples.size}, "
                f"expected {self.F.shape[0]}"
            )
        return self.F.T @ samples


def vectorize_samples(values: np.ndarray) -> np.ndarray:
    """Flatten (n, K+1) nodal values into the time-node-major layout."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return values.T.ravel()


def assemble_stiffness(
    sys: DaeSystem,
    mu,
    grid: TimeGrid,
    V: KernelBasis,
    grams: GramTriplet | None = None,
) -> StiffnessMatrix:
    """Assemble the stiffness matrix from Kronecker blocks at one parameter."""
    grams = build_grams(grid) if grams is None else grams
    E = sp.csr_matrix(sys.E)
    A = sys.A_at(mu)
    Vd = V.V
    d = V.d

    EEt = (E @ E.T).tocsr()
    EAt = (E @ A.T).tocsr()
    AEt = EAt.T.tocsr()
    AAt = (A @ A.T).tocsr()

    K11, K12, K21, K22 = grams.blocks("Kt")
    L11, L12, L21, L22 = grams.blocks("Lt")
    O11, O12, O21, O22 = grams.blocks("Ot")

    B11 = (
        sp.kron(K11, EEt) + sp.kron(O11, EAt) + sp.kron(O11.T, AEt) + sp.kron(L11, AAt)
    ).tocsr()

    if d > 0:
        AtV = A.T @ Vd  # dense n x d
        EAtV = E @ AtV
        AAtV = A @ AtV
        B12 = (sp.kron(O12, sp.csr_matrix(EAtV)) + sp.kron(L12, sp.csr_matrix(AAtV))).tocsr()
        B21 = (sp.kron(O12.T, sp.csr_matrix(EAtV.T)) + sp.kron(L21, sp.csr_matrix(AAtV.T))).tocsr()
        B22 = sp.csr_matrix(L22[0, 0] * (Vd.T @ AAtV))
    else:
        n = sys.n
        B12 = sp.csr_matrix((n * grid.K, 0))
        B21 = sp.csr_matrix((0, n * grid.K))
        B22 = sp.csr_matrix((0, 0))

    out = StiffnessMatrix(B11=B11, B12=B12, B21=B21, B22=B22, grid=grid, n=sys.n, d=d)
    _check_symmetry(out)
    return out


def _check_symmetry(B: StiffnessMatrix) -> None:
    M = B.matrix
    asym = abs(M - M.T).max() if M.nnz else 0.0
    scale = abs(M).max() if M.nnz else 1.0
    if scale > 0 and asym > 1e-12 * scale:
        raise SingularAssembly(
            f"assembled matrix is not symmetric (relative asymmetry {asym/scale:.2e})"
        )


def assemble_rhs_operator(
    grid: TimeGrid, n: int, V: KernelBasis, grams: GramTriplet | None = None
) -> RhsOperator:
    """Build the operator mapping nodal samples of f to the load vector.

    Row j of F^T holds <sigma_k e_i, psi_j> for every sample slot (k, i),
    so F^T @ samples integrates the hat interpolant of f against every
    test function.
    """
    Lt = (build_grams(grid) if grams is None else grams).Lt
    K = grid.K
    Id = sp.identity(n, format="csr")
    top = sp.kron(Lt[:, :K].T, Id)  # (nK) x n(K+1)
    if V.d > 0:
        bottom = sp.kron(Lt[:, K:].T, sp.csr_matrix(V.V.T))
        Ft = sp.vstack([top, bottom], format="csr")
    else:
        Ft = top.tocsr()
    return RhsOperator(F=Ft.T.tocsr(), grid=grid, n=n, V=V)


def assemble_control_rhs(
    sys: DaeSystem,
    rhs_op: RhsOperator,
    control_samples: np.ndarray | None = None,
    control_grid: TimeGrid | None = None,
    z_terms: np.ndarray | None = None,
) -> np.ndarray:
    """Load vector for a fully linear system f = B u + sum_q z_q.

    ``control_samples`` has shape (m, K_u+1) (or (K_u+1,) for m = 1) on
    ``control_grid``; ``z_terms`` is a list/array of nodal sample blocks
    (n, K+1) on the state grid.
    """
    grid = rhs_op.grid
    total = np.zeros(rhs_op.F.shape[1])
    if control_samples is not None:
        if sys.control_matrix is None:
            raise ValueError("system has no control matrix")
        B = np.asarray(sys.control_matrix, dtype=float)
        u = np.atleast_2d(np.asarray(control_samples, dtype=float))
        if u.shape[0] != B.shape[1]:
            raise ValueError(
                f"control samples have {u.shape[0]} rows, control matrix "
                f"expects {B.shape[1]}"
            )
        if control_grid is None or control_grid.K == grid.K:
            u_fine = u
        else:
            u_fine = prolong_control(u, control_grid, grid)
        nodal = B @ u_fine  # (n, K+1)
        total += rhs_op.apply(vectorize_samples(nodal))
    if z_terms is not None:
        for z in z_terms:
            total += rhs_op.apply(vectorize_samples(z))
    return total
