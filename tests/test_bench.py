"""Tests for benchmark generators, analytic references and studies."""

from dataclasses import replace

import numpy as np
import pytest

from uwdae import AffineOperator, TimeGrid, kernel_basis, validate_system
from uwdae.bench import (
    RlcParams,
    StokesLikeParams,
    convergence_study,
    fit_loglog_slope,
    make_rlc,
    make_stokes_like,
    rlc_analytic,
    rlc_disc_source,
    rlc_smooth_source,
    timereduction_study,
)
from uwdae.detailed import evaluate_state, solve_detailed
from uwdae.system_model import theta_constant


def test_rlc_matrices_golden():
    sys = make_rlc(RlcParams(R=2.0, L=3.0, C=4.0))
    assert np.allclose(sys.E.toarray(), np.diag([1.0, 1.0, 0.0, 0.0]))
    A = sys.A_at(None).toarray()
    expect = np.array(
        [
            [0.0, 0.0, 1.0 / 3.0, 0.0],
            [0.25, 0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 1.0],
        ]
    )
    assert np.allclose(A, expect)


def test_rlc_structure():
    sys = make_rlc(RlcParams())
    assert validate_system(sys) == []
    V = kernel_basis(sys.E).V
    assert V.shape[1] == 2
    # index 1: V^T A V (d x d, V spans ker E^T = ker E) is nonsingular
    assert np.linalg.matrix_rank(V.T @ (sys.A_at(None) @ V)) == 2


def test_rlc_params_validation():
    with pytest.raises(ValueError):
        RlcParams(R=-1.0)
    with pytest.raises(ValueError):
        RlcParams(T=0.0)


def test_rlc_sources():
    p = RlcParams()
    t = np.linspace(0, p.T, 9)
    assert np.allclose(rlc_smooth_source(p)(t), np.sin(4 * np.pi * t / p.T))
    assert np.array_equal(
        rlc_disc_source(p)(t), np.sign(np.cos(4 * np.pi * t / p.T))
    )


def test_rlc_analytic_initial_rest():
    p = RlcParams()
    assert np.abs(rlc_analytic(p, [0.0])).max() < 1e-12


def test_rlc_analytic_satisfies_dae():
    p = RlcParams(R=1.3, L=0.7, C=2.1, T=4 * np.pi)
    sys = make_rlc(p)
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, p.T, 100)
    h = 1e-6
    x = rlc_analytic(p, t)
    xdot = (rlc_analytic(p, t + h) - rlc_analytic(p, t - h)) / (2 * h)
    E = sys.E.toarray()
    A = sys.A_at(None).toarray()
    from uwdae.system_model import sample_rhs

    f = sample_rhs(sys.rhs, None, t)
    resid = E @ xdot - A @ x - f
    assert np.abs(resid).max() < 1e-7  # limited by the finite difference


def test_rlc_voltage_sum_law():
    p = RlcParams()
    t = np.linspace(0, p.T, 57)
    x = rlc_analytic(p, t)
    assert np.abs(x[1] + x[2] + x[3] - np.sin(4 * np.pi * t / p.T)).max() < 1e-12


def test_stokes_structure():
    p = StokesLikeParams(m_g=4)
    sys = make_stokes_like(p)
    n_vel = 2 * 4 * 3
    n_pr = 16 - 1
    assert sys.n == n_vel + n_pr
    V = kernel_basis(sys.E).V
    assert V.shape[1] == n_pr
    assert validate_system(sys) == []
    # index > 1: V^T A V is the zero pressure block
    assert np.linalg.matrix_rank(V.T @ (sys.A_at(None) @ V)) == 0


def test_stokes_params_validation():
    with pytest.raises(ValueError):
        StokesLikeParams(m_g=1)
    with pytest.raises(ValueError):
        StokesLikeParams(nu=0.0)


def test_stokes_saddle_structure():
    # pressure coupling is the transpose of the divergence block and has
    # full row rank (one independent constraint per retained pressure cell)
    p = StokesLikeParams(m_g=4)
    sys = make_stokes_like(p)
    n_vel = 2 * 4 * 3
    A = sys.A_at(None).toarray()
    D = A[n_vel:, :n_vel]
    G = A[:n_vel, n_vel:]
    assert np.abs(D - G.T).max() == 0.0
    assert np.linalg.matrix_rank(D) == 15
    # constraint rows carry no time derivative
    assert np.abs(sys.E.toarray()[n_vel:]).max() == 0.0


def test_stokes_constraint_residual_decreases():
    # the algebraic constraint holds weakly; its pointwise residual
    # shrinks under time refinement
    from uwdae.system_model import sample_rhs

    p = StokesLikeParams(m_g=4)
    sys = make_stokes_like(p)
    n_vel = 2 * 4 * 3
    A = sys.A_at(None).toarray()
    rms = []
    for K in (32, 128):
        sol = solve_detailed(sys, None, TimeGrid(T=sys.T, K=K))
        mids = 0.5 * (sol.grid.nodes[:-1] + sol.grid.nodes[1:])
        x = evaluate_state(sol, mids)
        f = sample_rhs(sys.rhs, None, mids)
        r = A[n_vel:, :n_vel] @ x[:n_vel] + f[n_vel:]
        rms.append(np.linalg.norm(r) / np.sqrt(K))
    assert rms[1] < 0.8 * rms[0]


def test_fit_loglog_slope():
    K = np.array([10, 20, 40, 80])
    assert abs(fit_loglog_slope(K, 3.0 / K) + 1.0) < 1e-12


def test_convergence_study_scalar_ode():
    from conftest import make_scalar_ode, scalar_ode_exact

    rows, slope = convergence_study(
        make_scalar_ode(), scalar_ode_exact, [32, 64, 128, 256]
    )
    assert -1.1 < slope < -0.9
    for _, err, est in rows:
        assert 0.9 <= est / err <= 1.1


def test_timereduction_monotone():
    sys = make_stokes_like(StokesLikeParams(m_g=3))
    rows = timereduction_study(sys, 32, [4, 8, 16, 32], n_controls=4, seed=2)
    errs = [e for _, e in rows]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-10  # K_u = K row, solver tolerance


def test_timereduction_applies_rhs_coefficients():
    # the rhs term with theta = 2 and its sampler doubled are one problem
    sys = make_stokes_like(StokesLikeParams(m_g=3))
    ((_, f),) = sys.rhs.terms
    twice = replace(sys, rhs=AffineOperator(terms=((theta_constant(2.0), f),)))
    doubled = replace(sys, rhs=AffineOperator.constant(lambda t: 2.0 * f(t)))
    rows = timereduction_study(twice, 32, [4, 8, 16], n_controls=4, seed=2)
    want = timereduction_study(doubled, 32, [4, 8, 16], n_controls=4, seed=2)
    assert [k for k, _ in rows] == [k for k, _ in want]
    assert np.allclose([e for _, e in rows], [e for _, e in want], rtol=1e-10, atol=0)
