"""Independent numerical oracles used by the test suite.

Everything here is written against the mathematical definitions only:
hat functions are evaluated from scratch, all integrals (the temporal Grams
among them) use composite Gauss quadrature and thetas are evaluated term by
term, so these routines share no code with the package internals they are
meant to check; they read a system's matrices through ``DaeSystem.A_at``.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from uwdae.errors import ParameterDimensionMismatch, UwdaeError


class StepSingular(UwdaeError):
    """Implicit Euler step matrix (E - dt*A) is singular."""


def theta_value(t, mu) -> float:
    """theta(mu) of one ThetaExpression, term by term with true powers."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if len(t.exponents) > mu.size:
        raise ParameterDimensionMismatch(
            f"theta uses {len(t.exponents)} components, parameter has dimension {mu.size}"
        )
    out = t.coeff
    for i, e in enumerate(t.exponents):
        if e:
            out *= float(mu[i]) ** e
    return out if t.func is None else out * float(t.func(mu))


def gauss_on_cells(nodes: np.ndarray, order: int):
    """Composite Gauss points/weights over consecutive cells of a grid."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    a, b = nodes[:-1], nodes[1:]
    h = b - a
    pts = (a[:, None] + np.outer(h, x)).ravel()
    wts = np.outer(h, w).ravel()
    return pts, wts


def hat(k: int, K: int, dt: float, t: np.ndarray) -> np.ndarray:
    """Nodal hat function sigma_k on the uniform grid, evaluated pointwise."""
    return np.clip(1.0 - np.abs(t / dt - k), 0.0, None)


def hat_dot(k: int, K: int, dt: float, t: np.ndarray) -> np.ndarray:
    """Derivative of sigma_k away from the grid nodes (quadrature use only)."""
    out = np.zeros_like(t)
    left = (t > (k - 1) * dt) & (t < k * dt)
    right = (t > k * dt) & (t < (k + 1) * dt)
    out[left] = 1.0 / dt
    out[right] = -1.0 / dt
    return out


def trial_functions(sys, mu, grid, V, t: np.ndarray) -> np.ndarray:
    """Values of every implied trial function at the query times.

    Returns shape (dim, n, len(t)) with dim = n*K + d, index k*n + i for
    the hat at node k in component i, trailing d kernel functions at the
    last node.
    """
    n, K, dt = sys.n, grid.K, grid.dt
    E = sys.E.toarray()
    A = sys.A_at(mu).toarray()
    d = V.V.shape[1]
    out = np.zeros((n * K + d, n, len(t)))
    for k in range(K):
        s = hat(k, K, dt, t)
        sd = hat_dot(k, K, dt, t)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            out[k * n + i] = -np.outer(E.T @ e, sd) - np.outer(A.T @ e, s)
    s = hat(K, K, dt, t)
    sd = hat_dot(K, K, dt, t)
    for j in range(d):
        v = V.V[:, j]
        out[n * K + j] = -np.outer(E.T @ v, sd) - np.outer(A.T @ v, s)
    return out


def trial_gram(sys, mu, grid, V, order: int = 2) -> np.ndarray:
    """L2 Gram matrix of the implied trial basis by quadrature.

    Two Gauss points per cell are exact for the piecewise-quadratic
    integrands of piecewise-linear data.
    """
    pts, wts = gauss_on_cells(grid.nodes, order)
    xi = trial_functions(sys, mu, grid, V, pts)
    return np.einsum("ait,t,bit->ab", xi, wts, xi)


def cross_grams(basis_grid, test_grid):
    """Cross Gram matrices between hat bases on two grids of one horizon.

    Returns (Kx, O1, O2, Lx), each (K_b+1) x (K_t+1), with
    Kx[k,l] = <sigma_k_b', sigma_l_t'>, O1[k,l] = <sigma_k_b', sigma_l_t>,
    O2[k,l] = <sigma_k_b, sigma_l_t'>, Lx[k,l] = <sigma_k_b, sigma_l_t>.
    Two Gauss points per cell of the union grid are exact for the
    piecewise-quadratic integrands.
    """
    pts, wts = gauss_on_cells(np.union1d(basis_grid.nodes, test_grid.nodes), 2)

    def tables(grid):
        ks = range(grid.K + 1)
        H = np.array([hat(k, grid.K, grid.dt, pts) for k in ks])
        D = np.array([hat_dot(k, grid.K, grid.dt, pts) for k in ks])
        return H, D

    Hb, Db = tables(basis_grid)
    Ht, Dt = tables(test_grid)
    return (Db * wts) @ Dt.T, (Db * wts) @ Ht.T, (Hb * wts) @ Dt.T, (Hb * wts) @ Ht.T


def cross_stiffness(sys, mu, basis_grid, test_grid, V) -> np.ndarray:
    """L2 products of trial functions on two grids of one horizon.

    Entry (j, i) is <xi_i on basis_grid, xi_j on test_grid>, by two Gauss
    points per cell of the union grid; coincident grids give trial_gram.
    """
    pts, wts = gauss_on_cells(np.union1d(basis_grid.nodes, test_grid.nodes), 2)
    xb = trial_functions(sys, mu, basis_grid, V, pts)
    xt = trial_functions(sys, mu, test_grid, V, pts)
    return np.einsum("ait,t,bit->ba", xb, wts, xt)


def moment_vector(sys, mu, grid, V, reference, order: int = 10) -> np.ndarray:
    """Quadrature of <x*, xi_j> for every trial function."""
    pts, wts = gauss_on_cells(grid.nodes, order)
    xi = trial_functions(sys, mu, grid, V, pts)
    ref = np.atleast_2d(np.asarray(reference(pts), dtype=float))
    return np.einsum("ait,t,it->a", xi, wts, ref)


def l2_error_oracle(sys, sol_eval, reference, grid, order: int = 8) -> float:
    """Composite-Gauss L2 distance between two time functions (n, t)."""
    pts, wts = gauss_on_cells(grid.nodes, order)
    diff = np.atleast_2d(sol_eval(pts)) - np.atleast_2d(reference(pts))
    return float(np.sqrt(np.sum(wts * np.sum(diff**2, axis=0))))


def random_sparse_system(rng, n: int, K: int, rank: int | None = None):
    """Random dense-ish DAE with E of prescribed rank; returns (sys, grid).

    Kept tiny (n <= 5, K <= 8) so the dense quadrature oracle stays fast.
    """
    from uwdae import AffineOperator, DaeSystem, TimeGrid
    from uwdae.system_model import theta_constant

    if rank is None:
        rank = int(rng.integers(0, n + 1))
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    W = np.linalg.qr(rng.standard_normal((n, n)))[0]
    svals = np.zeros(n)
    svals[:rank] = 0.5 + rng.random(rank)
    E = sp.csr_matrix(U @ np.diag(svals) @ W.T)
    A = sp.csr_matrix(rng.standard_normal((n, n)))

    def rhs(t, _w=rng.standard_normal(n)):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.outer(_w, np.sin(t + 0.3))

    sys = DaeSystem(
        n=n,
        E=E,
        A=AffineOperator(terms=((theta_constant(1.0), A),)),
        rhs=AffineOperator(terms=((theta_constant(1.0), rhs),)),
        x0=None,
        T=1.0,
    )
    return sys, TimeGrid(T=1.0, K=K)


def kron_stiffness(sys, mu, grid, V) -> sp.csr_matrix:
    """The stiffness as one (nK+d) x (nK+d) CSR matrix from Kronecker sums.

    The temporal Grams are split off at the last node: B11 couples the nodal
    unknowns, B12/B21 the nodal and the kernel unknowns, B22 the kernel ones.
    """
    Kt, Ot, _, Lt = map(sp.csr_matrix, cross_grams(grid, grid))
    E = sp.csr_matrix(sys.E)
    A = sys.A_at(mu)
    EEt, EAt, AAt = E @ E.T, E @ A.T, A @ A.T
    K11, O11, L11 = Kt[:-1, :-1], Ot[:-1, :-1], Lt[:-1, :-1]
    B11 = sp.kron(K11, EEt) + sp.kron(O11, EAt) + sp.kron(O11.T, EAt.T) + sp.kron(L11, AAt)
    if V.d == 0:
        return B11.tocsr()
    EAtV = sp.csr_matrix(E @ (A.T @ V.V))
    AAtV = sp.csr_matrix(A @ (A.T @ V.V))
    B12 = sp.kron(Ot[:-1, -1:], EAtV) + sp.kron(Lt[:-1, -1:], AAtV)
    B22 = sp.csr_matrix(Lt[-1, -1] * (V.V.T @ (A @ (A.T @ V.V))))
    return sp.bmat([[B11, B12], [B12.T, B22]], format="csr")


def kron_load_matrix(grid, n: int, V) -> sp.csr_matrix:
    """(nK+d) x n(K+1) matrix mapping time-node-major nodal samples to loads."""
    Lt = sp.csr_matrix(cross_grams(grid, grid)[3])
    K = grid.K
    top = sp.kron(Lt[:K], sp.identity(n))
    return sp.vstack([top, sp.kron(Lt[K:], sp.csr_matrix(V.V.T))], format="csr")


def lower_band(M) -> np.ndarray:
    """LAPACK lower band storage (w+1, dim), Fortran-ordered, of a symmetric matrix."""
    M = np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float)
    dim = M.shape[0]
    rows, cols = np.nonzero(np.tril(M))
    w = int((rows - cols).max(initial=0))
    ab = np.zeros((w + 1, dim), order="F")
    ab[rows - cols, cols] = M[rows, cols]
    return ab


def mirror_band(ab) -> np.ndarray:
    """Dense symmetric matrix whose lower band storage is ab."""
    w, dim = ab.shape[0] - 1, ab.shape[1]
    M = np.zeros((dim, dim))
    for o in range(w + 1):
        idx = np.arange(dim - o)
        M[idx + o, idx] = ab[o, : dim - o]
        M[idx, idx + o] = ab[o, : dim - o]
    return M


def implicit_euler_reference(sys, mu, grid) -> np.ndarray:
    """Implicit Euler baseline from x0(mu), or from rest without x0; shape (n, K+1)."""
    E = sys.E.tocsc()
    A = sys.A_at(mu).tocsc()
    dt = grid.dt
    M = (E - dt * A).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        raise StepSingular(f"step matrix E - dt*A is singular: {exc}") from exc
    f = sum(theta_value(t, mu) * np.atleast_2d(g(grid.nodes)) for t, g in sys.rhs.terms)
    X = np.zeros((sys.n, grid.K + 1))
    if sys.x0 is not None:
        X[:, 0] = sum(theta_value(t, mu) * np.ravel(v) for t, v in sys.x0.terms)
    for k in range(1, grid.K + 1):
        X[:, k] = lu.solve(E @ X[:, k - 1] + dt * f[:, k])
    return X
