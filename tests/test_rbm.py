"""Tests for the weak greedy reduction and the online certification."""

import numpy as np
import pytest

from uwdae import TimeGrid
from uwdae.detailed import BandedCholesky, DetailedOperator, l2_norm
from uwdae.errors import DegenerateTraining, FactorizationFailure, ParameterDimensionMismatch
from uwdae.rbm import (
    TrainingSet,
    control_rhs_family,
    estimator_online,
    greedy,
    lift,
    lift_solution,
    load_model,
    reduced_solve,
    save_model,
)
from uwdae.system_model import sample_rhs_terms


def test_training_set_reproducible():
    a = TrainingSet.uniform(3, 10, seed=42)
    b = TrainingSet.uniform(3, 10, seed=42)
    assert np.array_equal(a.parameters, b.parameters)
    assert len(a) == 10


def test_control_family_shapes(stokes_op, stokes_family):
    Ku = stokes_op.grid.K
    assert stokes_family.Qf == 1 * (Ku + 1) + 1  # m(K_u+1) control slots + 1 rhs term
    assert stokes_family.parameter_dim == Ku + 1
    assert stokes_family.Ftilde.shape == (stokes_op.dim, stokes_family.Qf)


def test_family_load_matches_assembly(stokes_op, stokes_family):
    from uwdae.assembly import vectorize_samples

    rng = np.random.default_rng(1)
    mu = rng.standard_normal(stokes_family.parameter_dim)
    sys, grid = stokes_op.sys, stokes_op.grid
    nodal = sys.control_matrix @ mu[None, :] + sum(sample_rhs_terms(sys.rhs, grid.nodes))
    direct = stokes_op.stiffness.load(vectorize_samples(nodal))
    assert np.allclose(stokes_family.load(mu), direct, atol=1e-12)


def test_family_load_batch_matches_single(stokes_family):
    mus = np.random.default_rng(4).uniform(-1.0, 1.0, (7, stokes_family.parameter_dim))
    F = stokes_family.load(mus)
    assert F.shape == (stokes_family.Ftilde.shape[0], 7)
    singles = np.column_stack([stokes_family.load(mu) for mu in mus])
    assert np.abs(F - singles).max() <= 1e-15 * np.abs(singles).max()


def test_family_load_carries_parameter_dependent_initial_value():
    # an x0 term with theta = 2 mu_0 mu_1 is one more load column, its theta
    # shifted past the control slots like the rhs terms
    from dataclasses import replace

    from uwdae.bench import StokesLikeParams, make_stokes_like
    from uwdae.system_model import AffineOperator, theta_monomial

    base = make_stokes_like(StokesLikeParams(m_g=3))
    x0 = np.random.default_rng(6).standard_normal(base.n)
    sys = replace(base, x0=AffineOperator(terms=((theta_monomial(2.0, (1, 1)), x0),)))
    grid = TimeGrid(T=sys.T, K=8)
    op = DetailedOperator(sys, grid)
    family = control_rhs_family(op, control_grid=TimeGrid(T=sys.T, K=4))
    assert family.Qf == 5 + 1 + 1 and family.parameter_dim == 5 + 2
    mu = np.array([0.7, -1.3])
    want = op.rhs_vector(mu)
    got = family.load(np.concatenate([np.zeros(5), mu]))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the initial value adds 2 mu_0 mu_1 E x0 on the node-0 block, nothing else
    added = want - DetailedOperator(base, grid).rhs_vector(mu)
    assert np.allclose(added[: sys.n], 2.0 * mu[0] * mu[1] * (sys.E @ x0), rtol=1e-13, atol=0)
    assert not np.any(added[sys.n :])


def test_greedy_immediate_termination(stokes_op, stokes_family, stokes_training):
    model, history = greedy(
        stokes_op, stokes_family, stokes_training, eps=1e9, n_max=10
    )
    assert model.N == 1
    assert history[-1][0] == 1 and history[-1][1] == -1


def test_greedy_monotone_history(stokes_greedy):
    _, history = stokes_greedy
    errs = [h[2] for h in history]
    assert all(a >= b - 1e-12 * errs[0] for a, b in zip(errs, errs[1:]))


def test_greedy_exactness_dropoff(stokes_greedy):
    _, history = stokes_greedy
    errs = [h[2] for h in history]
    assert errs[-1] <= 1e-8 * errs[0]


def test_greedy_deterministic(stokes_op, stokes_family, stokes_training):
    m1, h1 = greedy(stokes_op, stokes_family, stokes_training, eps=0.0, n_max=6)
    m2, h2 = greedy(stokes_op, stokes_family, stokes_training, eps=0.0, n_max=6)
    assert np.array_equal(m1.basis.S_N, m2.basis.S_N)
    assert h1 == h2


def test_greedy_degenerate_training():
    # pure control family (no intrinsic source): every load vanishes at mu = 0
    import scipy.sparse as sp

    from uwdae.system_model import (
        AffineOperator,
        DaeSystem,
        constant_sampler,
        theta_constant,
    )

    sys = DaeSystem(
        n=1,
        E=sp.identity(1, format="csr"),
        A=AffineOperator.constant(sp.csr_matrix([[-1.0]])),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([0.0])),)),
        x0=None,
        T=1.0,
        control_matrix=np.array([[1.0]]),
    )
    op = DetailedOperator(sys, TimeGrid(T=1.0, K=8))
    family = control_rhs_family(op)
    zero = TrainingSet(parameters=np.zeros((4, family.parameter_dim)), rng_seed=0)
    with pytest.raises(DegenerateTraining):
        greedy(op, family, zero, eps=0.0, n_max=3)


def test_greedy_checks_riesz_solves(stokes_system):
    # a factor of another matrix must not pass as the Riesz representers
    op = DetailedOperator(stokes_system, TimeGrid(T=stokes_system.T, K=8))
    family = control_rhs_family(op)
    op.factor = BandedCholesky(2.0 * op.stiffness.band(), 2.0 * op.stiffness.norm1)
    train = TrainingSet.uniform(family.parameter_dim, 5, seed=0)
    with pytest.raises(FactorizationFailure, match="backward error"):
        greedy(op, family, train, eps=0.0, n_max=3)


def test_greedy_checks_blocked_riesz_solves(stokes_system):
    # Q_f = 17 columns on the unordered band of 302: the blocked sweep
    from uwdae.detailed import uses_blocked_sweep

    op = DetailedOperator(stokes_system, TimeGrid(T=stokes_system.T, K=16))
    family = control_rhs_family(op)
    op.factor = BandedCholesky(2.0 * op.stiffness.band(), 2.0 * op.stiffness.norm1)
    assert uses_blocked_sweep(family.Qf, op.factor.bandwidth)
    train = TrainingSet.uniform(family.parameter_dim, 5, seed=0)
    with pytest.raises(FactorizationFailure, match="backward error"):
        greedy(op, family, train, eps=0.0, n_max=3)


def test_greedy_skips_round_off_directions():
    # the control loads span Q_f - 1 dimensions (one nodal pattern is
    # invisible to the test space); on this small grid the leftover training
    # residual is round-off above the dependence tolerance, and a basis
    # vector normalized from it would break orthonormality
    from uwdae.bench import StokesLikeParams, make_stokes_like

    sys = make_stokes_like(StokesLikeParams(m_g=3))
    op = DetailedOperator(sys, TimeGrid(T=sys.T, K=8))
    family = control_rhs_family(op)
    train = TrainingSet.uniform(family.parameter_dim, 20, seed=0)
    model, _ = greedy(op, family, train, eps=0.0, n_max=family.Qf)
    W, G = model.basis.coords, model.riesz_gram
    assert model.N == family.Qf - 1
    assert np.abs(W.T @ G @ W - np.eye(model.N)).max() <= 1e-10


def test_basis_orthonormal(stokes_greedy, stokes_op):
    model, _ = stokes_greedy
    B = stokes_op.stiffness
    gram = model.basis.Eta.T @ (B @ model.basis.Eta)
    # re-expanding through the Riesz columns loses about a digit relative
    # to the coordinate-space Gram, hence the looser bound than in
    # test_reduced_stiffness_is_identity
    assert np.abs(gram - np.eye(model.N)).max() <= 1e-9


def test_reduced_stiffness_is_identity(stokes_greedy):
    # the reduced stiffness matrix is the Gram of the coordinates in the
    # Riesz-column Gram; the online solve relies on it being the identity
    model, _ = stokes_greedy
    W, G = model.basis.coords, model.riesz_gram
    assert np.abs(W.T @ G @ W - np.eye(model.N)).max() <= 1e-10


def test_snapshot_reproduction(stokes_greedy, stokes_op, stokes_family):
    model, _ = stokes_greedy
    B = stokes_op.stiffness
    mu = model.basis.S_N[0]
    x_N = reduced_solve(model, mu)
    coeffs = stokes_op.factor.solve(stokes_family.load(mu))
    diff = coeffs - lift(model, x_N)
    err = np.sqrt(max(diff @ (B @ diff), 0.0))
    assert err <= 1e-8 * np.sqrt(coeffs @ (B @ coeffs))
    assert estimator_online(model, mu, x_N) <= 1e-8


def test_reduced_zero_load(stokes_greedy, stokes_op, stokes_family):
    # zero controls leave the initial-velocity load A x0 alone; the reduced
    # solution is its Galerkin projection: the residual is orthogonal to
    # the reduced test space
    model, _ = stokes_greedy
    mu = np.zeros(model.parameter_dim)
    x_N = reduced_solve(model, mu)
    f = stokes_family.load(mu)
    Eta = model.basis.Eta
    resid = Eta.T @ (f - stokes_op.stiffness @ lift(model, x_N))
    assert np.linalg.norm(x_N) > 0
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(Eta.T @ f)


def test_error_residual_identity(stokes_greedy, stokes_op, stokes_family):
    model, _ = stokes_greedy
    B = stokes_op.stiffness
    val = TrainingSet.uniform(stokes_family.parameter_dim, 30, seed=77)
    for N in (1, 5, 10):
        sub = model.truncate(N)
        for mu in val.parameters:
            x_N = reduced_solve(sub, mu)
            est = estimator_online(sub, mu, x_N)
            coeffs = stokes_op.factor.solve(stokes_family.load(mu))
            diff = coeffs - lift(sub, x_N)
            err = np.sqrt(max(diff @ (B @ diff), 0.0))
            nrm = np.sqrt(coeffs @ (B @ coeffs))
            assert abs(err - est) <= 1e-6 * nrm


def test_estimator_matches_direct_dual_norm(stokes_greedy, stokes_op, stokes_family):
    model, _ = stokes_greedy
    sub = model.truncate(8)
    rng = np.random.default_rng(9)
    mu = rng.uniform(-1, 1, stokes_family.parameter_dim)
    x_N = reduced_solve(sub, mu)
    est = estimator_online(sub, mu, x_N)
    rho = stokes_family.load(mu) - stokes_op.stiffness @ lift(sub, x_N)
    direct = np.sqrt(max(rho @ stokes_op.factor.solve(rho), 0.0))
    assert abs(est - direct) <= 1e-6 * max(direct, 1e-30)


def test_offline_online_consistency(stokes_greedy, stokes_op, stokes_family):
    model, _ = stokes_greedy
    rng = np.random.default_rng(12)
    mu = rng.uniform(-1, 1, stokes_family.parameter_dim)
    online = model.rhs_offline.T @ model.theta_vector(mu)
    scratch = model.basis.Eta.T @ stokes_family.load(mu)
    assert np.abs(online - scratch).max() <= 1e-8 * max(np.abs(scratch).max(), 1.0)


def test_batched_online_matches_single_queries(stokes_greedy, stokes_family):
    # one call on a (M, P) batch is M single queries, to round-off; N = 10 keeps
    # Delta_N (0.01-0.07) well above its round-off floor of ~1e-16
    model = stokes_greedy[0].truncate(10)
    mus = np.random.default_rng(21).uniform(-1.0, 1.0, (10_000, model.parameter_dim))
    X = reduced_solve(model, mus)
    deltas = estimator_online(model, mus, X)
    assert X.shape == (10_000, 10) and deltas.shape == (10_000,)
    singles = [reduced_solve(model, mu) for mu in mus]
    single_deltas = [estimator_online(model, mu, x) for mu, x in zip(mus, singles)]
    assert all(isinstance(d, float) for d in single_deltas)
    assert np.abs(X - singles).max() <= 1e-14 * np.abs(X).max()
    assert np.abs(deltas - single_deltas).max() <= 1e-14 * deltas.max()
    Theta = stokes_family.theta_vector(mus[:100])
    assert np.array_equal(Theta, [stokes_family.theta_vector(mu) for mu in mus[:100]])


def test_online_refuses_short_parameter(stokes_greedy):
    model = stokes_greedy[0]
    for mu in (np.ones(model.parameter_dim - 1), np.ones((3, model.parameter_dim - 1))):
        with pytest.raises(ParameterDimensionMismatch):
            reduced_solve(model, mu)


def test_lift_basics(stokes_greedy):
    model, _ = stokes_greedy
    assert np.array_equal(lift(model, np.zeros(model.N)), np.zeros(model.basis.Eta.shape[0]))
    e2 = np.zeros(model.N)
    e2[2] = 1.0
    assert np.array_equal(lift(model, e2), model.basis.Eta[:, 2])


def test_lift_norm_consistency(stokes_greedy, stokes_op):
    model, _ = stokes_greedy
    rng = np.random.default_rng(4)
    x_N = rng.standard_normal(model.N)
    sol = lift_solution(model, x_N, stokes_op, np.zeros(model.parameter_dim))
    assert abs(l2_norm(sol) - np.linalg.norm(x_N)) <= 1e-7 * np.linalg.norm(x_N)


def test_truncate_bounds(stokes_greedy):
    model, _ = stokes_greedy
    with pytest.raises(ValueError):
        model.truncate(0)
    with pytest.raises(ValueError):
        model.truncate(model.N + 1)


def test_persistence_roundtrip(stokes_greedy, tmp_path):
    model, _ = stokes_greedy
    save_model(model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    rng = np.random.default_rng(123)
    for _ in range(20):
        mu = rng.uniform(-1, 1, model.parameter_dim)
        x_a = reduced_solve(model, mu)
        x_b = reduced_solve(loaded, mu)
        assert np.abs(x_a - x_b).max() <= 1e-12
        d_a = estimator_online(model, mu, x_a)
        d_b = estimator_online(loaded, mu, x_b)
        assert abs(d_a - d_b) <= 1e-12 * max(d_a, 1.0)


def test_load_rejects_wrong_schema(tmp_path, stokes_greedy):
    import json

    model, _ = stokes_greedy
    save_model(model, tmp_path / "model")
    hdr = json.loads((tmp_path / "model" / "header.json").read_text())
    hdr["schema"] = "bogus"
    (tmp_path / "model" / "header.json").write_text(json.dumps(hdr))
    with pytest.raises(ValueError):
        load_model(tmp_path / "model")


def test_load_model_ignores_stored_reduced_matrix(stokes_greedy, tmp_path):
    # older versions also wrote the reduced stiffness matrix and solved with it
    model, _ = stokes_greedy
    path = tmp_path / "model"
    save_model(model, path)
    W, G = model.basis.coords, model.riesz_gram
    B_N = W.T @ G @ W
    np.save(path / "B_N.npy", B_N)
    loaded = load_model(path)
    rng = np.random.default_rng(31)
    for _ in range(5):
        mu = rng.uniform(-1, 1, model.parameter_dim)
        x_a, x_b = reduced_solve(model, mu), reduced_solve(loaded, mu)
        assert np.array_equal(x_a, x_b)
        assert estimator_online(model, mu, x_a) == estimator_online(loaded, mu, x_b)
        x_old = np.linalg.solve(B_N, model.rhs_offline.T @ model.theta_vector(mu))
        assert np.abs(x_old - x_b).max() <= 1e-10 * np.abs(x_old).max()


def test_load_model_rejects_non_orthonormal_basis(stokes_greedy, tmp_path):
    model, _ = stokes_greedy
    path = tmp_path / "model"
    save_model(model, path)
    # a basis 1e-6 off orthonormal: coords^T G coords = (1 + 1e-6)^2 I
    np.save(path / "coords.npy", (1.0 + 1e-6) * model.basis.coords)
    with pytest.raises(ValueError, match="not orthonormal"):
        load_model(path)
