"""Petrov-Galerkin stiffness and load operators in Kronecker form.

Vectorization is time-node-major: unknown k*n + i belongs to time node k
(k = 0..K-1) and state component i; the trailing d unknowns are the kernel
functions at the last node.  Samples of length n(K+1) follow the same layout.
The stiffness is never formed as an nK x nK matrix: its nodal block (k, l) is
sum_t T_t[k, l] S_t for T = (Kt, Ot, Ot^T, Lt) and S = (EE^T, EA^T, AE^T,
AA^T), block tridiagonal with three distinct block rows on the uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .system_model import DaeSystem, KernelBasis
from .temporal import GramTriplet, TimeGrid, build_grams

__all__ = [
    "RhsOperator",
    "SpaceTimeOperator",
    "assemble_stiffness",
    "assemble_rhs_operator",
    "vectorize_samples",
]

# Entries of x per sparse product over interior nodes: many nodes at once for
# few columns, one node for many, so that the operand stays in cache.
PRODUCT_CHUNK = 1 << 14


@dataclass(frozen=True)
class RhsOperator:
    """Maps nodal samples of f to loads <sigma_k e_i, f_h> for the hat interpolant
    f_h: row k of Lt on component i, and V^T of Lt's last row for the kernel."""

    grid: TimeGrid
    n: int
    V: KernelBasis
    grams: GramTriplet

    @property
    def dim(self) -> int:
        return self.n * self.grid.K + self.V.d

    def load(self, samples: np.ndarray) -> np.ndarray:
        """Loads (dim, ...) of samples (n(K+1), ...), batched over trailing axes."""
        samples = np.asarray(samples, dtype=float)
        n, K = self.n, self.grid.K
        if samples.shape[0] != n * (K + 1):
            raise ValueError(f"sample vector has length {samples.shape[0]}, expected {n * (K + 1)}")
        mass = self.grams.Lt @ samples.reshape(K + 1, -1)  # (K+1, n k)
        kernel = np.einsum("id,ik->dk", self.V.V, mass[K].reshape(n, -1))
        nodal = mass[:K].reshape(n * K, -1)
        return np.concatenate([nodal, kernel]).reshape((self.dim,) + samples.shape[1:])


@dataclass(frozen=True)
class SpaceTimeOperator(RhsOperator):
    """The SPD stiffness B of one system, parameter and grid, by its block rows.

    ``rows`` act on contiguous windows of unknowns: node 0 (n x 2n, nodes 0
    and 1), an interior node k (n x 3n, nodes k-1..k+1), the last node with
    the kernel unknowns ((n+d) x (2n+d); all of B when K = 1).  Product, band
    and norm are all read off them: factor and gate see B to the last bit.
    """

    rows: tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]

    @cached_property
    def norm1(self) -> float:
        """||B||_1, the largest absolute row sum (B is symmetric)."""
        K = self.grid.K
        used = self.rows if K > 2 else self.rows[::2] if K == 2 else self.rows[2:]
        return max(float(np.asarray(abs(M).sum(axis=1)).max(initial=0.0)) for M in used)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """B x for x (dim,) or (dim, k), summed in the order of a CSR row of B."""
        x = np.asarray(x, dtype=float)
        n, K = self.n, self.grid.K
        xs = x.reshape(self.dim, -1)
        c = xs.shape[1]
        first, interior, last = self.rows
        y = np.empty((self.dim, c))
        y[n * (K - 1) :] = last @ xs[n * max(K - 2, 0) :]
        if K > 1:
            y[:n] = first @ xs[: 2 * n]
        row, col = xs.strides
        step = max(1, PRODUCT_CHUNK // (n * c))
        for k in range(1, K - 1, step):  # windows of nodes k-1..k+1, side by side
            m = min(step, K - 1 - k)
            window = as_strided(xs[n * (k - 1) :], (3 * n, m, c), (row, n * row, col))
            Y = (interior @ window.reshape(3 * n, m * c)).reshape(n, m, c)
            y[n * k : n * (k + m)].reshape(m, n, c)[...] = Y.transpose(1, 0, 2)
        return y.reshape(x.shape)

    def _tiles(self, perm: np.ndarray | None) -> list[np.ndarray]:
        """Band tiles (rows, w+1) of the block rows in state order perm: entry
        B[r, r + o] of a row at column o, w the largest offset of all three."""
        n, d, K = self.n, self.V.d, self.grid.K
        p = np.arange(n) if perm is None else perm

        def at(nodes, extra):  # positions: `nodes` node blocks in state order p, then `extra`
            order = np.append(n * np.arange(nodes)[:, None] + p, nodes * n + np.arange(extra))
            return np.argsort(order)

        # rows, columns and the column of row 0's diagonal, per block row
        specs = [(at(1, 0), at(2, 0), 0), (at(1, 0), at(3, 0), n)]
        specs.append((at(1, d), at(min(K, 2), d), n * (K > 1)))
        blocks = [M.tocoo() for M in self.rows]
        rows = [r[M.row] for M, (r, _, _) in zip(blocks, specs)]
        offsets = [c[M.col] - diag - row for M, row, (_, c, diag) in zip(blocks, rows, specs)]
        w = max(int(o.max(initial=0)) for o in offsets)
        tiles = [np.zeros((M.shape[0], w + 1)) for M in blocks]
        for tile, M, row, o in zip(tiles, blocks, rows, offsets):
            tile[row[o >= 0], o[o >= 0]] = M.data[o >= 0]
        return tiles

    def ordering(self) -> np.ndarray | None:
        """Reverse Cuthill-McKee order of the state at every node, if it narrows the band."""
        n = self.n
        entries = []  # the n x n node blocks of each row's first n rows, overlaid
        for M in map(sp.coo_matrix, self.rows):
            on = (M.row < n) & (M.col < M.shape[1] // n * n) & (M.data != 0)
            entries.append((M.row[on], M.col[on] % n))
        row, col = map(np.concatenate, zip(*entries))
        pattern = sp.csr_matrix((np.ones(row.size), (row, col)), shape=(n, n))
        p = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
        return p if self._tiles(p)[0].shape[1] < self._tiles(None)[0].shape[1] else None

    def band(self, perm: np.ndarray | None = None) -> np.ndarray:
        """Lower LAPACK band (w+1, dim) of B, Fortran-ordered, state order perm at every node.

        Band column r holds B[r + o, r] = B[r, r + o] in row o.  In Fortran
        order the columns are C-ordered rows of w+1, so the columns of a node
        are one tile cut from its block row, and the interior tile repeats.
        """
        n, K = self.n, self.grid.K
        first, interior, last = self._tiles(perm)
        ab = np.zeros((first.shape[1], self.dim), order="F")
        columns = ab.T  # (dim, w+1), C-ordered
        columns[n : n * (K - 1)].reshape(-1, *interior.shape)[...] = interior
        columns[n * (K - 1) :] = last
        if K > 1:
            columns[:n] = first
        return ab


def vectorize_samples(values: np.ndarray) -> np.ndarray:
    """Flatten (n, K+1) nodal values into the time-node-major layout."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return values.T.ravel()


def assemble_stiffness(sys: DaeSystem, mu, grid: TimeGrid, V: KernelBasis) -> SpaceTimeOperator:
    """The block rows of the stiffness at one parameter."""
    grams = build_grams(grid)
    E, A = sp.csr_matrix(sys.E), sys.A_at(mu)
    EEt, EAt, AAt = (E @ E.T).tocsr(), (E @ A.T).tocsr(), (A @ A.T).tocsr()
    spatial = (EEt, EAt, EAt.T.tocsr(), AAt)
    temporal = (grams.Kt, grams.Ot, grams.Ot.T, grams.Lt)
    K, n, SV = grid.K, sys.n, [S @ V.V for S in spatial]
    block = lambda k, l: sum(T[k, l] * S for T, S in zip(temporal, spatial)).tocsr()
    # the diagonal blocks are symmetric to the last bit: a diagonal entry of
    # Ot scales EA^T + AE^T summed once, and V^T S V is averaged with its transpose
    symmetric = ((grams.Kt, EEt), (grams.Ot, (EAt + EAt.T).tocsr()), (grams.Lt, AAt))
    diagonal_block = lambda k: sum(T[k, k] * S for T, S in symmetric).tocsr()
    first, diagonal = diagonal_block(0), diagonal_block(K - 1)
    lower = block(1, 0) if K > 1 else sp.csr_matrix((n, n))
    coupling = sum(T[K - 1, K] * sv for T, sv in zip(temporal, SV)).reshape(n, V.d)
    kernel = sum(T[K, K] * np.einsum("id,ie->de", V.V, S @ V.V) for T, S in symmetric)
    kernel = 0.5 * (kernel + kernel.T)
    # the last node with the kernel unknowns: a symmetric (n+d) x (n+d) block
    # at column m, right of the coupling to node K-2
    m, d = n * (K > 1), V.d
    square = [(0, m, diagonal), (0, m + n, coupling), (n, m, coupling.T), (n, m + n, kernel)]
    rows = (
        _join((n, 2 * n), [(0, 0, first), (0, n, lower.T)]),
        _join((n, 3 * n), [(0, 0, lower), (0, n, diagonal), (0, 2 * n, lower.T)]),
        _join((n + d, m + n + d), [(0, 0, lower)] * (K > 1) + square),
    )
    return SpaceTimeOperator(grid=grid, n=n, V=V, grams=grams, rows=rows)


def _join(shape, blocks) -> sp.csr_matrix:
    """The CSR matrix of ``shape`` with sparse or dense blocks at (top row,
    left column), listed in column order within each row."""
    coo = [(top, left, sp.coo_matrix(M)) for top, left, M in blocks]
    data = np.concatenate([M.data for _, _, M in coo])
    row = np.concatenate([M.row + top for top, _, M in coo])
    col = np.concatenate([M.col + left for _, left, M in coo])
    return sp.csr_matrix((data, (row, col)), shape=shape)


def assemble_rhs_operator(grid: TimeGrid, n: int, V: KernelBasis) -> RhsOperator:
    """The load map of one grid: nodal samples of f to the load vector."""
    return RhsOperator(grid=grid, n=n, V=V, grams=build_grams(grid))
