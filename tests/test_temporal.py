"""Tests for time grids, hat Grams and cross-grid operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwdae import TimeGrid, build_grams, sample_on_grid
from uwdae.errors import GridMismatch
from uwdae.temporal import (
    hat_derivative_values,
    hat_values,
    prolongation_matrix,
)

import oracles


def test_grid_nodes():
    grid = TimeGrid(T=1.0, K=4)
    assert grid.dt == 0.25
    assert np.allclose(grid.nodes, [0, 0.25, 0.5, 0.75, 1.0])
    assert grid.nodes[-1] == grid.T


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, K=0)
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, K=4)


def test_grams_frozen_k2():
    g = build_grams(TimeGrid(T=1.0, K=2))  # dt = 0.5
    Lt = np.array([[1 / 6, 1 / 12, 0], [1 / 12, 1 / 3, 1 / 12], [0, 1 / 12, 1 / 6]])
    Kt = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
    Ot = np.array([[-0.5, -0.5, 0.0], [0.5, 0.0, -0.5], [0.0, 0.5, 0.5]])
    assert np.allclose(g.Lt.toarray(), Lt, atol=1e-15)
    assert np.allclose(g.Kt.toarray(), Kt, atol=1e-15)
    assert np.allclose(g.Ot.toarray(), Ot, atol=1e-15)


@given(K=st.integers(1, 40), T=st.floats(0.1, 20, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_gram_identities(K, T):
    grid = TimeGrid(T=T, K=K)
    g = build_grams(grid)
    dt = grid.dt
    # constants are in the kernel of the derivative Gram
    assert np.abs(g.Kt.toarray().sum(axis=1)).max() < 1e-11 / dt
    # row sums of the mass matrix are the integrals of the hats
    sums = g.Lt.toarray().sum(axis=1)
    expect = np.full(K + 1, dt)
    expect[0] = expect[-1] = dt / 2
    assert np.allclose(sums, expect, atol=1e-14 * max(1.0, dt))
    # integration by parts on hats
    bdry = np.zeros((K + 1, K + 1))
    bdry[0, 0], bdry[-1, -1] = -1.0, 1.0
    assert np.array_equal((g.Ot + g.Ot.T).toarray(), bdry)


def test_grams_match_quadrature():
    grid = TimeGrid(T=2.3, K=7)
    g = build_grams(grid)
    pts, wts = oracles.gauss_on_cells(grid.nodes, 2)
    H = np.array([oracles.hat(k, grid.K, grid.dt, pts) for k in range(grid.K + 1)])
    D = np.array([oracles.hat_dot(k, grid.K, grid.dt, pts) for k in range(grid.K + 1)])
    assert np.allclose(g.Lt.toarray(), (H * wts) @ H.T, rtol=1e-14, atol=1e-15)
    assert np.allclose(g.Kt.toarray(), (D * wts) @ D.T, rtol=1e-14, atol=1e-12)
    assert np.allclose(g.Ot.toarray(), (D * wts) @ H.T, rtol=1e-14, atol=1e-14)


def test_sample_on_grid_linear():
    got = sample_on_grid(lambda t: np.asarray(t), TimeGrid(T=1.0, K=2))
    assert np.allclose(got, [0.0, 0.5, 1.0])


def test_sample_smooth_source_pattern():
    T = 4 * np.pi
    grid = TimeGrid(T=T, K=8)
    got = sample_on_grid(lambda t: np.sin(4 * np.pi * np.asarray(t) / T), grid)
    assert np.allclose(got, [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0], atol=1e-12)


def test_sample_disc_source_signs():
    grid = TimeGrid(T=1.0, K=8)
    got = sample_on_grid(
        lambda t: np.sign(np.cos(4 * np.pi * np.asarray(t))), grid
    )
    expect = np.sign(np.cos(4 * np.pi * grid.nodes))
    assert np.array_equal(got, expect)


# -- prolongation ------------------------------------------------------------


def test_prolong_identity():
    grid = TimeGrid(T=1.0, K=5)
    u = np.arange(6.0)
    assert np.allclose(prolongation_matrix(grid, grid) @ u, u, atol=1e-13)


def test_prolong_linear_interp():
    coarse, fine = TimeGrid(T=1.0, K=1), TimeGrid(T=1.0, K=2)
    assert np.allclose(prolongation_matrix(coarse, fine) @ np.array([0.0, 1.0]), [0, 0.5, 1])


def test_prolong_horizon_mismatch():
    with pytest.raises(GridMismatch):
        prolongation_matrix(TimeGrid(T=1.0, K=2), TimeGrid(T=2.0, K=4))


@given(seed=st.integers(0, 100), Ku=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_prolongation_preserves_inner_products(seed, Ku):
    # coarse hat expansion and its fine-grid re-expansion are the same
    # function when K is a multiple of K_u, so all pairings agree
    rng = np.random.default_rng(seed)
    coarse, fine = TimeGrid(T=1.0, K=Ku), TimeGrid(T=1.0, K=4 * Ku)
    u = rng.standard_normal(Ku + 1)
    u_fine = prolongation_matrix(coarse, fine) @ u
    pts, wts = oracles.gauss_on_cells(fine.nodes, 2)
    Hc = np.array([oracles.hat(k, coarse.K, coarse.dt, pts) for k in range(Ku + 1)])
    Hf = np.array(
        [oracles.hat(k, fine.K, fine.dt, pts) for k in range(fine.K + 1)]
    )
    for j in range(fine.K + 1):
        a = np.sum(wts * (u @ Hc) * Hf[j])
        b = np.sum(wts * (u_fine @ Hf) * Hf[j])
        assert abs(a - b) < 1e-13


# -- pointwise hat evaluation ------------------------------------------------


def test_hat_values_partition_of_unity():
    grid = TimeGrid(T=1.0, K=6)
    t = np.linspace(0, 1, 101)
    H = hat_values(grid, t).toarray()
    assert np.allclose(H.sum(axis=1), 1.0, atol=1e-13)
    assert H.min() >= 0


def test_hat_derivative_node_average():
    grid = TimeGrid(T=1.0, K=2)
    # at the interior node the one-sided slopes of sigma_1 are +2 and -2
    D = hat_derivative_values(grid, np.array([0.5])).toarray()
    assert abs(D[0, 1]) < 1e-12
    assert np.isclose(D[0, 0], -1.0) and np.isclose(D[0, 2], 1.0)


def test_hat_derivative_classifies_nodes_at_large_k():
    # Gauss-4 points 0.069 cells from node 60000 lie inside their cells;
    # only the node itself gets the average of the one-sided slopes
    grid = TimeGrid(T=4 * np.pi, K=65536)
    k, x = 60000, np.polynomial.legendre.leggauss(4)[0][0] * 0.5 + 0.5  # 0.0694
    t = np.array([(k - x) * grid.dt, (k + x) * grid.dt, grid.nodes[k]])
    D = hat_derivative_values(grid, t)
    s = 1.0 / grid.dt
    expect = [([k - 1, k], [-s, s]), ([k, k + 1], [-s, s]), ([k - 1, k + 1], [-s / 2, s / 2])]
    for row, (cols, vals) in zip(D, expect):
        assert sorted(row.indices.tolist()) == cols
        assert np.allclose(row.toarray()[0, cols], vals, rtol=1e-14, atol=0)


# -- cross grams -------------------------------------------------------------


def test_cross_grams_coincident_grids():
    grid = TimeGrid(T=1.5, K=5)
    g = build_grams(grid)
    Kx, O1, O2, Lx = oracles.cross_grams(grid, grid)
    assert np.allclose(Kx, g.Kt.toarray(), atol=1e-12)
    assert np.allclose(Lx, g.Lt.toarray(), atol=1e-14)
    assert np.allclose(O1, g.Ot.toarray(), atol=1e-13)
    assert np.allclose(O2, g.Ot.T.toarray(), atol=1e-13)


def test_cross_grams_nested_refinement():
    # a coarse hat is the prolonged sum of fine hats, so every cross Gram
    # is P^T times the fine Gram: the temporal form of B_f J
    coarse, fine = TimeGrid(T=1.0, K=3), TimeGrid(T=1.0, K=6)
    Kx, O1, O2, Lx = oracles.cross_grams(coarse, fine)
    Pt = prolongation_matrix(coarse, fine).T
    g = build_grams(fine)
    assert np.allclose(Lx, (Pt @ g.Lt).toarray(), atol=1e-14)
    assert np.allclose(Kx, (Pt @ g.Kt).toarray(), atol=1e-12)
    assert np.allclose(O1, (Pt @ g.Ot).toarray(), atol=1e-13)
    assert np.allclose(O2, (Pt @ g.Ot.T).toarray(), atol=1e-13)
