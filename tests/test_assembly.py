"""Tests for the Kronecker space-time operator: product, band and load map."""

import numpy as np
import pytest
import scipy.sparse as sp

from uwdae import AffineOperator, DaeSystem, TimeGrid, build_grams, kernel_basis
from uwdae.assembly import assemble_rhs_operator, assemble_stiffness, vectorize_samples
from uwdae.bench import RlcParams, StokesLikeParams, make_rlc, make_stokes_like
from uwdae.detailed import DetailedOperator
from uwdae.rbm import control_rhs_family
from uwdae.system_model import theta_constant
from uwdae.temporal import prolongation_matrix

import oracles
from conftest import make_algebraic, make_scalar_ode


def make_integrator() -> DaeSystem:
    """x' = f: E = 1, A = 0, so d = 0 and B is the derivative Gram."""
    sys = make_scalar_ode()
    return DaeSystem(
        n=1,
        E=sys.E,
        A=AffineOperator(terms=((theta_constant(1.0), sp.csr_matrix((1, 1))),)),
        rhs=sys.rhs,
        x0=None,
        T=1.0,
    )


SYSTEMS = {
    "scalar": make_scalar_ode,
    "algebraic": make_algebraic,
    "integrator": make_integrator,
    "rlc": lambda: make_rlc(RlcParams()),
    "stokes": lambda: make_stokes_like(StokesLikeParams(m_g=4)),
}


def _dense(op):
    """The stiffness applied to the identity."""
    return op @ np.eye(op.dim)


def _node_order(op, perm):
    """Unknown order of a band built in state order perm."""
    K, n = op.grid.K, op.n
    nodal = (n * np.arange(K)[:, None] + perm[None, :]).ravel()
    return np.concatenate([nodal, np.arange(n * K, op.dim)])


def test_algebraic_stiffness_is_mass_matrix():
    # E = 0, A = [1]: all Kronecker terms collapse onto the temporal mass
    sys = make_algebraic()
    grid = TimeGrid(T=1.0, K=2)
    B = assemble_stiffness(sys, None, grid, kernel_basis(sys.E))
    Lt = build_grams(grid).Lt.toarray()
    assert B.dim == 3 and B.V.d == 1
    assert np.allclose(_dense(B), Lt, atol=1e-15)
    assert np.isclose(_dense(B)[2, 2], grid.dt / 3.0)


def test_integrator_stiffness_is_derivative_gram():
    grid = TimeGrid(T=1.0, K=4)
    B = assemble_stiffness(make_integrator(), None, grid, kernel_basis(make_integrator().E))
    assert B.V.d == 0
    assert B.dim == 4
    Kt = build_grams(grid).Kt.toarray()
    assert np.allclose(_dense(B), Kt[:4, :4], atol=1e-13)


def test_rlc_dimension_and_spd():
    sys = make_rlc(RlcParams())
    grid = TimeGrid(T=sys.T, K=16)
    B = assemble_stiffness(sys, None, grid, kernel_basis(sys.E))
    assert B.dim == 4 * 16 + 2 == 66
    M = _dense(B)
    assert np.allclose(M, M.T, atol=1e-14 * np.abs(M).max())
    assert np.linalg.eigvalsh(M).min() > 0


def test_stiffness_matches_quadrature_gram():
    rng = np.random.default_rng(7)
    sys, grid = oracles.random_sparse_system(rng, n=3, K=4, rank=2)
    V = kernel_basis(sys.E)
    B = assemble_stiffness(sys, None, grid, V)
    G = oracles.trial_gram(sys, None, grid, V)
    for M in (_dense(B), oracles.mirror_band(B.band())):
        assert np.abs(M - G).max() <= 1e-10 * np.abs(G).max()


def test_block_consistency():
    # the band, the product and the norm are read off the same blocks by
    # separate code; they describe one matrix, symmetric to the last bit
    rlc = make_rlc(RlcParams())
    cases = [
        oracles.random_sparse_system(np.random.default_rng(3), n=4, K=3, rank=2),
        (rlc, TimeGrid(T=rlc.T, K=5)),
    ]
    for sys, grid in cases:
        B = assemble_stiffness(sys, None, grid, kernel_basis(sys.E))
        M = _dense(B)
        assert B.n == 4 and B.V.d == 2
        assert np.array_equal(M, M.T)
        assert np.array_equal(oracles.mirror_band(B.band()), M)
        assert abs(B.norm1 - np.abs(M).sum(axis=0).max()) <= 1e-14 * np.abs(M).max()


@pytest.mark.parametrize("K", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_band_and_product_match_kronecker_oracle(name, K):
    sys = SYSTEMS[name]()
    grid = TimeGrid(T=sys.T, K=K)
    V = kernel_basis(sys.E)
    B = assemble_stiffness(sys, None, grid, V)
    M = oracles.kron_stiffness(sys, None, grid, V).toarray()
    scale = np.abs(M).max()
    assert B.V.d == V.d and (V.d > 0) == (name in ("algebraic", "rlc", "stokes"))
    assert abs(B.norm1 - np.abs(M).sum(axis=0).max()) <= 1e-14 * scale
    orders = [None, np.arange(sys.n)[::-1].copy()]
    if B.ordering() is not None:
        orders.append(B.ordering())
    for perm in orders:
        idx = np.arange(B.dim) if perm is None else _node_order(B, perm)
        got = oracles.mirror_band(B.band(perm))
        assert np.abs(got - M[np.ix_(idx, idx)]).max() <= 1e-14 * scale
    rng = np.random.default_rng(K)
    for columns in (1, 40):
        x = rng.standard_normal((B.dim, columns))
        want = M @ x
        assert np.abs(B @ x - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(B @ x[:, 0] - want[:, 0]).max() <= 1e-14 * np.abs(want).max()


def test_asymmetric_diagonal_block_is_refused():
    # the band stores the upper half of each block row only: an entry below a
    # diagonal block's diagonal enters the product and not the factor, and the
    # backward-error gate refuses the solve
    import dataclasses

    from uwdae.errors import FactorizationFailure

    for sys, K in ((make_rlc(RlcParams()), 64), (make_stokes_like(StokesLikeParams(m_g=4)), 20)):
        op = DetailedOperator(sys, TimeGrid(T=sys.T, K=K))
        B, n, factor = op.stiffness, sys.n, op.factor
        p = np.arange(n) if factor.perm is None else factor.perm
        scale = max(abs(M).max() for M in B.rows)
        for i, diagonal in enumerate((0, n, n)):  # column of the diagonal block
            M = B.rows[i].tolil()
            M[p[1], diagonal + p[0]] += 1e-6 * scale  # (1, 0) in the band's state order
            rows = B.rows[:i] + (M.tocsr(),) + B.rows[i + 1 :]
            op.stiffness = dataclasses.replace(B, rows=rows)
            assert np.array_equal(op.stiffness.band(factor.perm), B.band(factor.perm))
            with pytest.raises(FactorizationFailure, match="backward error"):
                op.solve()


def test_rhs_operator_scalar_algebraic_is_mass():
    sys = make_algebraic()
    grid = TimeGrid(T=1.0, K=2)
    V = kernel_basis(sys.E)
    op = assemble_rhs_operator(grid, 1, V)
    Lt = build_grams(grid).Lt.toarray()
    # V = [+-1]; fold the sign into the comparison
    expect = Lt.copy()
    expect[2] *= V.V[0, 0]
    assert np.allclose(op.load(np.eye(3)), expect, atol=1e-15)


def test_rhs_zero_samples():
    V = kernel_basis(make_scalar_ode().E)
    op = assemble_rhs_operator(TimeGrid(T=1.0, K=5), 1, V)
    assert np.array_equal(op.load(np.zeros(6)), np.zeros(5))


def test_rhs_matches_quadrature():
    rng = np.random.default_rng(11)
    sys, _ = oracles.random_sparse_system(rng, n=3, K=5, rank=1)
    grid = TimeGrid(T=1.0, K=5)
    V = kernel_basis(sys.E)
    op = assemble_rhs_operator(grid, 3, V)
    samples = rng.standard_normal((3, 6))
    got = op.load(vectorize_samples(samples))

    # oracle: integrate the hat interpolant against every test function
    pts, wts = oracles.gauss_on_cells(grid.nodes, 2)
    H = np.array([oracles.hat(k, 5, grid.dt, pts) for k in range(6)])
    interp = samples @ H  # (3, pts)
    expect = np.zeros(3 * 5 + V.d)
    for k in range(5):
        s = H[k]
        for i in range(3):
            expect[k * 3 + i] = np.sum(wts * s * interp[i])
    for j in range(V.d):
        expect[15 + j] = np.sum(wts * H[5] * (V.V[:, j] @ interp))
    assert np.abs(got - expect).max() < 1e-13


@pytest.mark.parametrize("K", [1, 2, 7])
def test_load_map_matches_kronecker_oracle_batched(K):
    sys = make_rlc(RlcParams())
    grid = TimeGrid(T=sys.T, K=K)
    V = kernel_basis(sys.E)
    op = assemble_stiffness(sys, None, grid, V)
    F = oracles.kron_load_matrix(grid, sys.n, V)
    samples = np.random.default_rng(K).standard_normal((sys.n * (K + 1), 5))
    want = F @ samples
    got = op.load(samples)
    assert got.shape == (op.dim, 5)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.allclose(op.load(samples[:, 3]), got[:, 3], rtol=0, atol=0)


def test_vectorize_samples_layout():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])  # n=2, K+1=2
    assert np.array_equal(vectorize_samples(vals), [1.0, 3.0, 2.0, 4.0])


# -- control loads -----------------------------------------------------------


def _stokes_tiny():
    return make_stokes_like(StokesLikeParams(m_g=3))


def _control_load(op, u):
    """The load of the control samples u (K+1,) on the state grid, directly."""
    return op.stiffness.load(vectorize_samples(op.sys.control_matrix @ u[None, :]))


def test_control_rhs_zero():
    op = DetailedOperator(_stokes_tiny(), TimeGrid(T=1.0, K=4))
    family = control_rhs_family(op)
    Ku = op.grid.K
    assert np.array_equal(_control_load(op, np.zeros(Ku + 1)), np.zeros(op.dim))
    assert np.array_equal(family.Ftilde[:, : Ku + 1] @ np.zeros(Ku + 1), np.zeros(op.dim))


def test_control_rhs_superposition():
    # a constant control is the sum of the per-node control columns
    op = DetailedOperator(_stokes_tiny(), TimeGrid(T=1.0, K=4))
    family = control_rhs_family(op)
    Ku = op.grid.K
    f = _control_load(op, np.ones(Ku + 1))
    assert np.allclose(family.Ftilde[:, : Ku + 1].sum(axis=1), f, atol=1e-14)
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal((2, Ku + 1))
    assert np.allclose(
        _control_load(op, 2.0 * u - v), 2.0 * _control_load(op, u) - _control_load(op, v), atol=1e-13
    )


def test_control_rhs_path_equivalence():
    # coarse control through the family's columns vs manual prolongation
    sys = _stokes_tiny()
    grid = TimeGrid(T=1.0, K=8)
    coarse = TimeGrid(T=1.0, K=4)
    op = DetailedOperator(sys, grid)
    family = control_rhs_family(op, control_grid=coarse)
    u = np.random.default_rng(5).standard_normal(coarse.K + 1)
    f1 = family.Ftilde[:, : coarse.K + 1] @ u
    f2 = _control_load(op, prolongation_matrix(coarse, grid) @ u)
    assert np.allclose(f1, f2, atol=1e-13)


def test_control_rhs_dimension_check():
    op = DetailedOperator(_stokes_tiny(), TimeGrid(T=1.0, K=4))
    n, K = op.sys.n, op.grid.K
    with pytest.raises(ValueError, match="expected"):
        op.stiffness.load(np.zeros(n * K))
    with pytest.raises(ValueError, match="expected"):
        op.stiffness.load(np.zeros((n * (K + 2), 3)))
