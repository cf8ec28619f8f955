"""Tests for the detailed solver, state evaluation and error estimator."""

import numpy as np
import pytest
import scipy.sparse as sp

from uwdae import TimeGrid
from uwdae import detailed
from uwdae.detailed import (
    BLOCKED_MIN_COLUMNS,
    BandedCholesky,
    DetailedOperator,
    estimator_detailed,
    evaluate_state,
    l2_difference,
    l2_error,
    l2_norm,
    solve_detailed,
    uses_blocked_sweep,
)
from uwdae.errors import FactorizationFailure, GridMismatch, OutOfDomain

import oracles
from conftest import decay_exact, make_algebraic, make_decay, make_scalar_ode, scalar_ode_exact

EXACT_NORM = np.sqrt(-0.5 + 2.0 / np.e - 0.5 / np.e**2)  # ||1 - e^-t|| on (0,1)


def test_algebraic_exact():
    sol = solve_detailed(make_algebraic(), None, TimeGrid(T=1.0, K=8))
    assert l2_error(sol, lambda t: -np.atleast_1d(t)[None, :]) < 1e-12


def test_algebraic_pointwise():
    sol = solve_detailed(make_algebraic(), None, TimeGrid(T=1.0, K=8))
    assert abs(evaluate_state(sol, [0.25])[0, 0] + 0.25) < 1e-12


def test_scalar_ode_error_bound():
    sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=512))
    rel = l2_error(sol, scalar_ode_exact) / EXACT_NORM
    assert rel <= 2e-2


def test_scalar_ode_first_order():
    errs = []
    for K in (64, 128, 256):
        sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=K))
        errs.append(l2_error(sol, scalar_ode_exact))
    rates = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(1.8 < r < 2.2 for r in rates)


def test_midpoint_values_converge():
    # pointwise error at fixed times is not monotone step to step (the
    # sample point moves within its cell), so compare across a 4x refinement
    t = np.array([0.1303, 0.5511, 0.917])
    devs = []
    for K in (64, 256):
        sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=K))
        devs.append(np.abs(evaluate_state(sol, t) - scalar_ode_exact(t)).max())
    assert devs[1] < 0.5 * devs[0]


def test_zero_coeffs_zero_state():
    from dataclasses import replace

    sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=8))
    zero = replace(sol, coeffs=np.zeros_like(sol.coeffs))
    assert np.array_equal(evaluate_state(zero, [0.3, 0.9]), np.zeros((1, 2)))


def test_evaluate_out_of_domain():
    sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=8))
    with pytest.raises(OutOfDomain):
        evaluate_state(sol, [1.5])


def test_galerkin_orthogonality():
    sys = make_scalar_ode()
    grid = TimeGrid(T=1.0, K=32)
    op = DetailedOperator(sys, grid)
    sol = op.solve(None)
    res = op.stiffness @ sol.coeffs - op.rhs_vector(None)
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(op.rhs_vector(None))


def test_l2_norm_gram_identity():
    sys = make_scalar_ode()
    grid = TimeGrid(T=1.0, K=16)
    op = DetailedOperator(sys, grid)
    e1 = np.zeros(op.dim)
    e1[0] = 1.0
    sol = op.solve_load(op.stiffness @ e1)
    assert np.isclose(l2_norm(sol), np.sqrt((op.stiffness @ e1)[0]))


def test_l2_norm_matches_quadrature():
    sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=64))
    direct = oracles.l2_error_oracle(
        None,
        lambda t: evaluate_state(sol, t),
        lambda t: np.zeros((1, len(np.atleast_1d(t)))),
        sol.grid,
    )
    assert abs(l2_norm(sol) - direct) < 1e-10


# -- banded Cholesky factor -------------------------------------------------


def _random_banded_spd(rng, dim, w):
    """Sparse SPD matrix with half-bandwidth exactly w."""
    offsets = range(-w, w + 1)
    M = sp.diags([rng.standard_normal(dim - abs(k)) for k in offsets], list(offsets))
    M = M + M.T
    return (M + sp.identity(dim) * (2.0 * abs(M).sum(axis=1).max())).tocsr()


def test_banded_cholesky_matches_dense_solve():
    rng = np.random.default_rng(11)
    M = _random_banded_spd(rng, 40, 3)
    factor = BandedCholesky(oracles.lower_band(M), np.abs(M.toarray()).sum(axis=0).max())
    assert factor.bandwidth == 3
    b = rng.standard_normal((40, 5))
    expect = np.linalg.solve(M.toarray(), b)
    assert np.allclose(factor.solve(b), expect, rtol=1e-12, atol=0)
    assert np.allclose(factor.solve(b[:, 2]), expect[:, 2], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([1.0, -1.0, 1.0]),  # symmetric indefinite
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # singular
        np.zeros((3, 3)),
    ],
    ids=["indefinite", "singular", "zero"],
)
def test_banded_cholesky_certifies_positive_definiteness(matrix):
    with pytest.raises(FactorizationFailure, match="not positive definite"):
        BandedCholesky(oracles.lower_band(matrix), 1.0)


def test_stiffness_half_bandwidth_at_most_2n():
    from uwdae.bench import RlcParams, make_rlc

    sys = make_rlc(RlcParams())
    op = DetailedOperator(sys, TimeGrid(T=sys.T, K=64))
    assert op.factor.bandwidth <= 2 * sys.n


def test_solve_gate_rejects_mismatched_factor():
    op = DetailedOperator(make_scalar_ode(), TimeGrid(T=1.0, K=16))
    op.factor = BandedCholesky(2.0 * op.stiffness.band(), 2.0 * op.stiffness.norm1)
    with pytest.raises(FactorizationFailure, match="backward error"):
        op.solve(None)


def test_solve_gate_rejects_mismatched_factor_blocked(monkeypatch):
    # the single-column solve of a narrow band, forced through the blocked sweep
    monkeypatch.setattr(detailed, "BLOCKED_MIN_COLUMNS", 1)
    monkeypatch.setattr(detailed, "BLOCKED_MIN_BANDWIDTH", 1)
    op = DetailedOperator(make_scalar_ode(), TimeGrid(T=1.0, K=16))
    op.factor = BandedCholesky(2.0 * op.stiffness.band(), 2.0 * op.stiffness.norm1)
    assert uses_blocked_sweep(1, op.factor.bandwidth)
    with pytest.raises(FactorizationFailure, match="backward error"):
        op.solve(None)


def test_solve_gate_rejects_mismatched_permuted_factor():
    from uwdae.bench import StokesLikeParams, make_stokes_like

    sys = make_stokes_like(StokesLikeParams(m_g=4))
    op = DetailedOperator(sys, TimeGrid(T=sys.T, K=6))
    perm = op.stiffness.ordering()
    assert perm is not None
    B = op.stiffness
    op.factor = BandedCholesky(2.0 * B.band(perm), 2.0 * B.norm1, perm=perm, nodes=op.grid.K)
    with pytest.raises(FactorizationFailure, match="backward error"):
        op.solve()


@pytest.mark.parametrize("w, dim", [(1, 41), (3, 40), (17, 120), (70, 300)])
def test_blocked_sweep_matches_dense_solve(w, dim):
    # dim is not a multiple of w (but for w = 1), so the partial last block
    # is hit; column counts lie on both sides of the pbtrs/blocked crossover
    rng = np.random.default_rng(w)
    M = _random_banded_spd(rng, dim, w)
    factor = BandedCholesky(oracles.lower_band(M), np.abs(M.toarray()).sum(axis=0).max())
    assert factor.bandwidth == w
    for k in (1, BLOCKED_MIN_COLUMNS - 1, BLOCKED_MIN_COLUMNS, 40):
        b = rng.standard_normal((dim, k))
        expect = np.linalg.solve(M.toarray(), b)
        scale = np.abs(expect).max(axis=0)
        for got in (factor.solve_blocked(b), factor.solve(b)):
            assert np.all(np.abs(got - expect).max(axis=0) <= 1e-12 * scale)


def test_band_ordering_keeps_the_solution():
    from uwdae.bench import StokesLikeParams, make_stokes_like

    sys = make_stokes_like(StokesLikeParams(m_g=4))
    op = DetailedOperator(sys, TimeGrid(T=sys.T, K=20))
    plain = DetailedOperator(sys, op.grid)
    plain.factor = BandedCholesky(plain.stiffness.band(), plain.stiffness.norm1)
    assert op.factor.perm is not None and plain.factor.perm is None
    assert op.factor.bandwidth < plain.factor.bandwidth
    a, b = l2_norm(op.solve()), l2_norm(plain.solve())
    assert abs(a - b) <= 1e-10 * b


def test_band_ordering_narrows_stokes_band(stokes_op):
    # 302 in the generator's velocity-then-pressure order
    assert stokes_op.factor.bandwidth < 302


def test_band_ordering_skipped_when_it_does_not_narrow():
    from uwdae.bench import RlcParams, make_rlc

    sys = make_rlc(RlcParams())
    factor = DetailedOperator(sys, TimeGrid(T=sys.T, K=64)).factor
    assert factor.bandwidth == 7
    assert factor.perm is None


def test_solve_rejects_foreign_parameter_of_A():
    # x' = -mu x + 1, x(0) = 0: the operator holds A at its own mu only
    import dataclasses

    from uwdae import AffineOperator, theta_component

    sys = dataclasses.replace(
        make_scalar_ode(),
        A=AffineOperator(terms=((theta_component(0), sp.csr_matrix([[-1.0]])),)),
    )
    grid = TimeGrid(T=1.0, K=256)
    exact = lambda t: ((1.0 - np.exp(-3.0 * np.atleast_1d(t))) / 3.0)[None, :]
    op = DetailedOperator(sys, grid)
    with pytest.raises(ValueError, match="A depends on the parameter"):
        op.solve([3.0])
    with pytest.raises(ValueError, match="A depends on the parameter"):
        op.solve_load(op.rhs_vector([3.0]), mu=[3.0])
    assert l2_error(DetailedOperator(sys, grid, mu=[3.0]).solve([3.0]), exact) < 1e-3


def test_solve_accepts_any_parameter_for_constant_A():
    op = DetailedOperator(make_scalar_ode(), TimeGrid(T=1.0, K=16))
    sol = op.solve([5.0])
    assert np.array_equal(sol.mu, [5.0])


def test_solve_gate_accepts_zero_load():
    op = DetailedOperator(make_scalar_ode(), TimeGrid(T=1.0, K=16))
    assert not np.any(op.solve_load(np.zeros(op.dim)).coeffs)


def test_rlc_fine_grid_solves_and_converges():
    # K = 4096 was refused by a fixed relative-residual gate (1.33e-10 >
    # 1e-10) although cond(B) ~ K^2 is harmless for a backward-stable solve
    from uwdae.bench import RlcParams, make_rlc, rlc_analytic

    p = RlcParams()
    sys = make_rlc(p)
    exact = lambda t: rlc_analytic(p, t)
    errs = [l2_error(solve_detailed(sys, None, TimeGrid(T=p.T, K=K)), exact) for K in (2048, 4096)]
    assert errs[1] < errs[0] / 1.5


# -- estimator ---------------------------------------------------------------


def test_estimator_refinement_one_backdoor():
    sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=32))
    assert estimator_detailed(sol, refinement=1) <= 1e-10


def test_estimator_matches_error_within_ten_percent():
    for K in (32, 128):
        sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=K))
        err = l2_error(sol, scalar_ode_exact)
        est = estimator_detailed(sol, refinement=2)
        assert abs(est - err) <= 0.1 * err


def test_estimator_raw_sup_monotone():
    sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=32))
    r2 = estimator_detailed(sol, refinement=2, corrected=False)
    r4 = estimator_detailed(sol, refinement=4, corrected=False)
    assert r4 >= r2


def test_estimator_raw_equals_nested_solution_distance():
    # over a nested refined test grid the residual dual norm is exactly
    # the L2 distance between the two Petrov-Galerkin solutions
    sys = make_scalar_ode()
    coarse = solve_detailed(sys, None, TimeGrid(T=1.0, K=16))
    fine = solve_detailed(sys, None, TimeGrid(T=1.0, K=32))
    raw = estimator_detailed(coarse, refinement=2, corrected=False)
    assert abs(raw - l2_difference(fine, coarse)) < 1e-10


@pytest.mark.parametrize("system", ["rlc", "scalar"])
def test_prolongation_reproduces_cross_stiffness(system):
    # B_f J equals the quadrature products of coarse and fine trial functions
    from dataclasses import replace

    from uwdae import kernel_basis
    from uwdae.bench import RlcParams, make_rlc

    sys = make_rlc(RlcParams()) if system == "rlc" else make_scalar_ode()
    coarse = solve_detailed(sys, None, TimeGrid(T=sys.T, K=6))
    assert coarse.V.d == (2 if system == "rlc" else 0)
    for r in (2, 3):
        fine = DetailedOperator(sys, coarse.grid.refine(r))
        J = np.column_stack(
            [replace(coarse, coeffs=e).prolonged_coeffs(fine.grid) for e in np.eye(coarse.coeffs.size)]
        )
        got = fine.stiffness @ J
        want = oracles.cross_stiffness(sys, None, coarse.grid, fine.grid, kernel_basis(sys.E))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_l2_difference_matches_quadrature():
    from uwdae.bench import RlcParams, make_rlc

    for sys in (make_rlc(RlcParams()), make_scalar_ode()):
        coarse = solve_detailed(sys, None, TimeGrid(T=sys.T, K=12))
        fine = solve_detailed(sys, None, TimeGrid(T=sys.T, K=36))
        want = l2_error(fine, lambda t: evaluate_state(coarse, t), quad_order=2)
        assert abs(l2_difference(fine, coarse) - want) <= 1e-10 * want
        assert l2_difference(coarse, coarse) == 0.0


def test_l2_difference_rejects_unnested_or_foreign_solutions():
    sys = make_scalar_ode()
    a = solve_detailed(sys, None, TimeGrid(T=1.0, K=10))
    with pytest.raises(GridMismatch):
        l2_difference(solve_detailed(sys, None, TimeGrid(T=1.0, K=15)), a)
    with pytest.raises(ValueError):
        l2_difference(solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=20)), a)


def test_rlc_large_k_error_and_estimator():
    # K = 16384 puts Gauss points within 1e-5 k cells of nodes past k ~ 7000
    from uwdae.bench import RlcParams, make_rlc, rlc_analytic

    p = RlcParams()
    sol = solve_detailed(make_rlc(p), None, TimeGrid(T=p.T, K=16384))
    exact = lambda t: rlc_analytic(p, t)
    err4 = l2_error(sol, exact, quad_order=4)
    err8 = l2_error(sol, exact, quad_order=8)
    assert abs(err4 - err8) <= 1e-10 * err8
    assert abs(estimator_detailed(sol) / err8 - 1.0) <= 1e-3


def test_raw_estimator_matches_quadrature_at_large_k():
    # the residual form f_2K - B_2K J c lost 2e-8 relative here to
    # cancellation amplified by cond(B) ~ K^2; the difference form does not
    from uwdae.bench import RlcParams, make_rlc

    p = RlcParams()
    sys = make_rlc(p)
    sol = solve_detailed(sys, None, TimeGrid(T=p.T, K=16384))
    fine = solve_detailed(sys, None, sol.grid.refine(2))
    quad = l2_error(fine, lambda t: evaluate_state(sol, t), quad_order=4)
    raw = estimator_detailed(sol, corrected=False)
    assert abs(raw / quad - 1.0) <= 1e-9


def test_estimator_rejects_bad_refinement():
    sol = solve_detailed(make_scalar_ode(), None, TimeGrid(T=1.0, K=8))
    with pytest.raises(ValueError):
        estimator_detailed(sol, refinement=0)


# -- best approximation ------------------------------------------------------


def test_best_approximation_property():
    from uwdae import kernel_basis

    sys = make_scalar_ode()
    grid = TimeGrid(T=1.0, K=128)
    V = kernel_basis(sys.E)
    op = DetailedOperator(sys, grid)
    sol = op.solve(None)
    err_pg = l2_error(sol, scalar_ode_exact, quad_order=8)
    # L2 projection of the exact solution onto the trial space
    m = oracles.moment_vector(sys, None, grid, V, lambda t: scalar_ode_exact(t))
    proj = op.solve_load(m)
    err_proj = l2_error(proj, scalar_ode_exact, quad_order=8)
    assert abs(err_pg - err_proj) <= 1e-8 * err_proj


# -- initial values ----------------------------------------------------------
# x(0) = x0 enters the load as E x0 on the node-0 test functions, so the
# computed state is x itself: for the decay x' = -x, x(0) = 1, exp(-t)


def test_initial_value_best_approximation():
    from uwdae import kernel_basis

    sys = make_decay()
    grid = TimeGrid(T=1.0, K=128)
    op = DetailedOperator(sys, grid)
    sol = op.solve(None)
    m = oracles.moment_vector(sys, None, grid, kernel_basis(sys.E), decay_exact)
    proj = op.solve_load(m)
    dev = np.abs(sol.coeffs - proj.coeffs).max() / np.abs(proj.coeffs).max()
    assert dev <= 1e-8
    err_pg = l2_error(sol, decay_exact, quad_order=8)
    err_proj = l2_error(proj, decay_exact, quad_order=8)
    assert abs(err_pg - err_proj) <= 1e-8 * err_proj


def test_initial_value_error_first_order():
    sol = solve_detailed(make_decay(), None, TimeGrid(T=1.0, K=256))
    assert l2_error(sol, decay_exact) <= 3e-4  # measured 2.65e-4


def test_initial_value_estimator_is_the_error():
    sol = solve_detailed(make_decay(), None, TimeGrid(T=1.0, K=64))
    assert abs(estimator_detailed(sol) / l2_error(sol, decay_exact) - 1.0) <= 1e-3


def test_initial_value_enters_through_E_only():
    # index-1 pencil x1' = -x1, 0 = -x2: a component of x0 in ker E changes
    # nothing, the differential one starts the decay
    from uwdae import AffineOperator, DaeSystem
    from uwdae.system_model import constant_sampler, theta_constant

    def system(x0):
        return DaeSystem(
            n=2,
            E=sp.csr_matrix(np.diag([1.0, 0.0])),
            A=AffineOperator.constant(sp.csr_matrix(-np.eye(2))),
            rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([0.0, 0.0])),)),
            x0=AffineOperator(terms=((theta_constant(1.0), np.array(x0)),)),
            T=1.0,
        )

    grid = TimeGrid(T=1.0, K=64)
    sol = solve_detailed(system([1.0, 5.0]), None, grid)
    assert np.array_equal(sol.coeffs, solve_detailed(system([1.0, 0.0]), None, grid).coeffs)
    exact = lambda t: np.vstack([decay_exact(t), np.zeros((1, np.size(t)))])
    assert l2_error(sol, exact) <= 2e-3  # decay alone: 1.06e-3 at K = 64


# -- implicit Euler baseline -------------------------------------------------


def test_euler_scalar_closed_form():
    grid = TimeGrid(T=1.0, K=50)
    X = oracles.implicit_euler_reference(make_scalar_ode(), None, grid)
    k = np.arange(51)
    expect = 1.0 - (1.0 + grid.dt) ** (-k.astype(float))
    assert np.abs(X[0] - expect).max() < 1e-12
    # the decay starts from x0 = 1
    X = oracles.implicit_euler_reference(make_decay(), None, grid)
    assert np.abs(X[0] - (1.0 - expect)).max() < 1e-12


def test_euler_algebraic_collapse():
    grid = TimeGrid(T=1.0, K=10)
    X = oracles.implicit_euler_reference(make_algebraic(), None, grid)
    assert np.abs(X[0, 1:] + grid.nodes[1:]).max() < 1e-13


def test_euler_rlc_tracks_analytic():
    from uwdae.bench import RlcParams, make_rlc, rlc_analytic

    p = RlcParams()
    grid = TimeGrid(T=p.T, K=1000)
    X = oracles.implicit_euler_reference(make_rlc(p), None, grid)
    ref = rlc_analytic(p, grid.nodes)
    amp = np.abs(ref).max()
    # measured constant is 1.4e-2 of amplitude at K=1000 (first order)
    assert np.abs(X - ref).max() <= 2e-2 * amp


def test_euler_singular_step():
    from uwdae import AffineOperator, DaeSystem
    from uwdae.system_model import constant_sampler, theta_constant

    grid = TimeGrid(T=1.0, K=4)
    sys = DaeSystem(
        n=1,
        E=sp.csr_matrix((1, 1)),
        A=AffineOperator.constant(sp.csr_matrix((1, 1))),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([1.0])),)),
        x0=None,
        T=1.0,
    )
    with pytest.raises(oracles.StepSingular):
        oracles.implicit_euler_reference(sys, None, grid)


# -- outputs -----------------------------------------------------------------


def test_output_dimension_check():
    # outputs C x are formed by `uwdae solve` after validate_system has
    # checked C against the state dimension
    from dataclasses import replace

    from uwdae.system_model import validate_system

    sys = make_scalar_ode()
    assert validate_system(replace(sys, output_matrix=np.eye(1))) == []
    diags = validate_system(replace(sys, output_matrix=np.zeros((1, 3))))
    assert diags == ["output matrix has 3 columns, expected 1"]
