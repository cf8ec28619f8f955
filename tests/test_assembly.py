"""Tests for the Kronecker stiffness and right-hand-side assembly."""

import numpy as np
import pytest

from uwdae import TimeGrid, build_grams, kernel_basis
from uwdae.assembly import (
    assemble_control_rhs,
    assemble_rhs_operator,
    assemble_stiffness,
    vectorize_samples,
)
from uwdae.bench import RlcParams, make_rlc

import oracles
from conftest import make_algebraic, make_scalar_ode


def test_algebraic_stiffness_is_mass_matrix():
    # E = 0, A = [1]: all Kronecker terms collapse onto the temporal mass
    sys = make_algebraic()
    grid = TimeGrid(T=1.0, K=2)
    V = kernel_basis(sys.E)
    B = assemble_stiffness(sys, None, grid, V)
    Lt = build_grams(grid).Lt.toarray()
    assert np.allclose(B.matrix.toarray(), Lt, atol=1e-15)
    assert B.B11.shape == (2, 2) and B.B22.shape == (1, 1)
    assert np.isclose(B.B22[0, 0], grid.dt / 3.0)


def test_integrator_stiffness_is_derivative_gram():
    sys = make_scalar_ode()
    # strip A to zero: pure integrator, d = 0
    import scipy.sparse as sp
    from uwdae import AffineOperator, DaeSystem
    from uwdae.system_model import theta_constant

    pure = DaeSystem(
        n=1,
        E=sys.E,
        A=AffineOperator(terms=((theta_constant(1.0), sp.csr_matrix((1, 1))),)),
        rhs=sys.rhs,
        x0=None,
        T=1.0,
    )
    grid = TimeGrid(T=1.0, K=4)
    V = kernel_basis(pure.E)
    B = assemble_stiffness(pure, None, grid, V)
    assert V.d == 0
    assert B.dim == 4
    Kt = build_grams(grid).Kt.toarray()
    assert np.allclose(B.matrix.toarray(), Kt[:4, :4], atol=1e-13)


def test_rlc_dimension_and_spd():
    sys = make_rlc(RlcParams())
    grid = TimeGrid(T=sys.T, K=16)
    V = kernel_basis(sys.E)
    B = assemble_stiffness(sys, None, grid, V)
    assert B.dim == 4 * 16 + 2 == 66
    M = B.matrix.toarray()
    assert np.allclose(M, M.T, atol=1e-14 * np.abs(M).max())
    assert np.linalg.eigvalsh(M).min() > 0


def test_stiffness_matches_quadrature_gram():
    rng = np.random.default_rng(7)
    sys, grid = oracles.random_sparse_system(rng, n=3, K=4, rank=2)
    V = kernel_basis(sys.E)
    B = assemble_stiffness(sys, None, grid, V).matrix.toarray()
    G = oracles.trial_gram(sys, None, grid, V)
    assert np.abs(B - G).max() <= 1e-10 * np.abs(G).max()


def test_block_consistency():
    rng = np.random.default_rng(3)
    sys, grid = oracles.random_sparse_system(rng, n=4, K=3, rank=2)
    V = kernel_basis(sys.E)
    B = assemble_stiffness(sys, None, grid, V)
    import scipy.sparse as sp

    mono = sp.bmat([[B.B11, B.B12], [B.B21, B.B22]], format="csr")
    assert (B.matrix != mono).nnz == 0
    assert B.matrix is B.matrix  # built once, not on every access


def test_rhs_operator_scalar_algebraic_is_mass():
    sys = make_algebraic()
    grid = TimeGrid(T=1.0, K=2)
    V = kernel_basis(sys.E)
    op = assemble_rhs_operator(grid, 1, V)
    Lt = build_grams(grid).Lt.toarray()
    # V = [+-1]; fold the sign into the comparison
    sign = V.V[0, 0]
    expect = Lt.copy()
    expect[:, 2] *= sign
    assert np.allclose(op.F.toarray(), expect, atol=1e-15)
    shared = assemble_rhs_operator(grid, 1, V, build_grams(grid))
    assert (shared.F != op.F).nnz == 0


def test_rhs_zero_samples():
    V = kernel_basis(make_scalar_ode().E)
    op = assemble_rhs_operator(TimeGrid(T=1.0, K=5), 1, V)
    assert np.array_equal(op.apply(np.zeros(6)), np.zeros(5))


def test_rhs_matches_quadrature():
    rng = np.random.default_rng(11)
    sys, _ = oracles.random_sparse_system(rng, n=3, K=5, rank=1)
    grid = TimeGrid(T=1.0, K=5)
    V = kernel_basis(sys.E)
    op = assemble_rhs_operator(grid, 3, V)
    samples = rng.standard_normal((3, 6))
    got = op.apply(vectorize_samples(samples))

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


def test_vectorize_samples_layout():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])  # n=2, K+1=2
    assert np.array_equal(vectorize_samples(vals), [1.0, 3.0, 2.0, 4.0])


# -- control rhs path --------------------------------------------------------


def _stokes_tiny():
    from uwdae.bench import StokesLikeParams, make_stokes_like

    return make_stokes_like(StokesLikeParams(m_g=3))


def test_control_rhs_zero():
    sys = _stokes_tiny()
    grid = TimeGrid(T=1.0, K=4)
    from uwdae.detailed import DetailedOperator

    op = DetailedOperator(sys, grid)
    u = np.zeros(grid.K + 1)
    f = assemble_control_rhs(sys, op.rhs_op, control_samples=u)
    assert np.array_equal(f, np.zeros(op.dim))


def test_control_rhs_superposition():
    sys = _stokes_tiny()
    grid = TimeGrid(T=1.0, K=4)
    from uwdae.assembly import vectorize_samples
    from uwdae.detailed import DetailedOperator

    op = DetailedOperator(sys, grid)
    u = np.ones(grid.K + 1)
    f = assemble_control_rhs(sys, op.rhs_op, control_samples=u)
    nodal = np.repeat(sys.control_matrix, grid.K + 1, axis=1)
    expect = op.rhs_op.apply(vectorize_samples(nodal))
    assert np.allclose(f, expect, atol=1e-14)


def test_control_rhs_path_equivalence():
    # coarse control assembled directly vs manual prolongation + plain path
    sys = _stokes_tiny()
    grid = TimeGrid(T=1.0, K=8)
    coarse = TimeGrid(T=1.0, K=4)
    from uwdae.detailed import DetailedOperator
    from uwdae.temporal import prolong_control

    op = DetailedOperator(sys, grid)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(coarse.K + 1)
    f1 = assemble_control_rhs(
        sys, op.rhs_op, control_samples=u, control_grid=coarse
    )
    u_fine = prolong_control(u, coarse, grid)
    f2 = assemble_control_rhs(sys, op.rhs_op, control_samples=u_fine)
    assert np.allclose(f1, f2, atol=1e-13)


def test_control_rhs_dimension_check():
    sys = _stokes_tiny()
    grid = TimeGrid(T=1.0, K=4)
    from uwdae.detailed import DetailedOperator

    op = DetailedOperator(sys, grid)
    with pytest.raises(ValueError):
        assemble_control_rhs(
            sys, op.rhs_op, control_samples=np.zeros((2, grid.K + 1))
        )
