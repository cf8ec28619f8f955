"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The report lines are collected in REPORT_LINES and echoed by a
terminal-summary hook in conftest, so they appear once at the end of the
run regardless of pytest's output capturing.
"""

import time

import numpy as np

from uwdae import TimeGrid, kernel_basis
from uwdae.assembly import assemble_stiffness
from uwdae.bench import (
    RlcParams,
    make_rlc,
    rlc_analytic,
    rlc_disc_source,
    timereduction_study,
)
from uwdae.detailed import (
    DetailedOperator,
    estimator_detailed,
    evaluate_state,
    l2_difference,
    l2_error,
    solve_detailed,
)
from uwdae.rbm import (
    TrainingSet,
    estimator_online,
    lift,
    load_model,
    reduced_solve,
    save_model,
)

import oracles
from conftest import decay_exact, make_decay, make_scalar_ode, scalar_ode_exact


REPORT_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    REPORT_LINES.append(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _slope(K_list, values):
    return float(np.polyfit(np.log(K_list), np.log(values), 1)[0])


def test_criterion_01_gram_identity():
    """Assembled stiffness equals the quadrature L2 Gram of trial functions."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 6))
        K = int(rng.integers(1, 9))
        sysm, grid = oracles.random_sparse_system(rng, n=n, K=K)
        V = kernel_basis(sysm.E)
        op = assemble_stiffness(sysm, None, grid, V)
        B = op @ np.eye(op.dim)
        G = oracles.trial_gram(sysm, None, grid, V)
        worst = max(worst, np.abs(B - G).max() / max(np.abs(G).max(), 1e-30))
    dt = time.perf_counter() - t0
    _report(
        1,
        "optimal-stability Gram identity",
        worst <= 1e-10 and dt < 10.0,
        f"worst rel dev {worst:.2e} over 20 systems, {dt:.1f}s",
    )


def test_criterion_02_error_residual_identity_detailed():
    """Refinement-2 estimator tracks the true error; both decay at rate 1."""
    t0 = time.perf_counter()
    sysm = make_scalar_ode()
    ref_norm = np.sqrt(-0.5 + 2.0 / np.e - 0.5 / np.e**2)
    K_list = [32, 64, 128, 256, 512]
    errs, ests = [], []
    for K in K_list:
        sol = solve_detailed(sysm, None, TimeGrid(T=1.0, K=K))
        errs.append(l2_error(sol, scalar_ode_exact) / ref_norm)
        ests.append(estimator_detailed(sol, refinement=2) / ref_norm)
    ratios = [e / t for e, t in zip(ests, errs)]
    s_err, s_est = _slope(K_list, errs), _slope(K_list, ests)
    ok = (
        all(abs(r - 1.0) <= 0.1 for r in ratios)
        and abs(s_err + 1.0) <= 0.1
        and abs(s_est + 1.0) <= 0.1
    )
    dt = time.perf_counter() - t0
    _report(
        2,
        "error-residual identity, detailed level",
        ok and dt < 30.0,
        f"est/err in [{min(ratios):.4f}, {max(ratios):.4f}], "
        f"slopes {s_err:.3f}/{s_est:.3f}, {dt:.1f}s",
    )


def test_criterion_03_rlc_first_order():
    """RLC with the smooth source converges at first order."""
    t0 = time.perf_counter()
    p = RlcParams()
    sysm = make_rlc(p)
    K_list = [64, 128, 256, 512, 1024]
    errs = []
    for K in K_list:
        grid = TimeGrid(T=p.T, K=K)
        sol = solve_detailed(sysm, None, grid)
        ref = lambda t: rlc_analytic(p, t)
        nrm = oracles.l2_error_oracle(
            None, ref, lambda t: np.zeros((4, len(np.atleast_1d(t)))), grid
        )
        errs.append(l2_error(sol, ref, quad_order=6) / nrm)
    s = _slope(K_list, errs)
    dt = time.perf_counter() - t0
    _report(
        3,
        "RLC first-order convergence",
        abs(s + 1.0) <= 0.15 and dt < 60.0,
        f"slope {s:.3f}, errors {errs[0]:.2e} -> {errs[-1]:.2e}, {dt:.1f}s",
    )


def test_criterion_04_discontinuous_source_robustness():
    """Grid-doubling differences decrease strictly for the square-wave source."""
    t0 = time.perf_counter()
    p = RlcParams()
    sysm = make_rlc(p, source=rlc_disc_source(p))
    sols = {
        K: solve_detailed(sysm, None, TimeGrid(T=p.T, K=K))
        for K in (128, 256, 512, 1024, 2048)
    }
    diffs = [l2_difference(sols[2 * K], sols[K]) for K in (128, 256, 512, 1024)]
    ok = all(a > b for a, b in zip(diffs, diffs[1:]))
    dt = time.perf_counter() - t0
    _report(
        4,
        "discontinuous source robustness",
        ok and dt < 60.0,
        "doubling diffs " + " > ".join(f"{d:.3e}" for d in diffs) + f", {dt:.1f}s",
    )


def test_criterion_05_rb_error_identity(stokes_op, stokes_family, stokes_greedy):
    """Reduced estimator equals the true detailed-vs-reduced error."""
    t0 = time.perf_counter()
    model, _ = stokes_greedy
    B = stokes_op.stiffness
    val = TrainingSet.uniform(stokes_family.parameter_dim, 100, seed=2025)
    # the control loads span a 76-dim space (one nodal pattern per control
    # is invisible to the test space), so the basis saturates at N = 76;
    # the terminal check runs at that saturation size
    sizes = [1, 5, 10, min(stokes_family.Qf, model.N)]
    worst = 0.0
    for N in sizes:
        sub = model.truncate(N)
        for mu in val.parameters:
            x_N = reduced_solve(sub, mu)
            est = estimator_online(sub, mu, x_N)
            coeffs = stokes_op.factor.solve(stokes_family.load(mu))
            diff = coeffs - lift(sub, x_N)
            err = np.sqrt(max(diff @ (B @ diff), 0.0))
            nrm = np.sqrt(max(coeffs @ (B @ coeffs), 0.0))
            worst = max(worst, abs(err - est) / nrm)
    dt = time.perf_counter() - t0
    _report(
        5,
        "RB error identity",
        worst <= 1e-6 and dt < 300.0,
        f"worst |err-est|/norm {worst:.2e} over 100 params x N in {sizes}, {dt:.1f}s",
    )


def test_criterion_06_greedy_exactness_dropoff(stokes_greedy):
    """Max training error drops below 1e-8 of its initial value at N = Q_f."""
    t0 = time.perf_counter()
    _, history = stokes_greedy
    errs = [h[2] for h in history]
    monotone = all(a >= b - 1e-12 * errs[0] for a, b in zip(errs, errs[1:]))
    ok = errs[-1] <= 1e-8 * errs[0] and monotone
    dt = time.perf_counter() - t0
    _report(
        6,
        "greedy exactness drop-off",
        ok and dt < 600.0,
        f"init {errs[0]:.3e} final {errs[-1]:.3e} "
        f"(ratio {errs[-1]/errs[0]:.1e}), monotone={monotone}, {dt:.1f}s",
    )


def test_criterion_07_control_grid_reduction(stokes_system):
    """Coarse control error decreases in K_u and vanishes at K_u = K."""
    t0 = time.perf_counter()
    rows = timereduction_study(
        stokes_system, 100, [10, 25, 50, 100], n_controls=6, seed=1
    )
    errs = [e for _, e in rows]
    ok = all(a >= b for a, b in zip(errs, errs[1:])) and errs[-1] <= 1e-10
    dt = time.perf_counter() - t0
    _report(
        7,
        "control-grid reduction",
        ok and dt < 300.0,
        "max errs " + " >= ".join(f"{e:.3e}" for e in errs) + f", {dt:.1f}s",
    )


def test_criterion_08_best_approximation():
    """Petrov-Galerkin error equals the L2-projection error of the solution."""
    t0 = time.perf_counter()
    sysm = make_scalar_ode()
    grid = TimeGrid(T=1.0, K=128)
    V = kernel_basis(sysm.E)
    op = DetailedOperator(sysm, grid)
    sol = op.solve(None)
    err_pg = l2_error(sol, scalar_ode_exact, quad_order=8)
    m = oracles.moment_vector(sysm, None, grid, V, lambda t: scalar_ode_exact(t))
    proj = op.solve_load(m)
    err_proj = l2_error(proj, scalar_ode_exact, quad_order=8)
    dev = abs(err_pg - err_proj) / err_proj
    dt = time.perf_counter() - t0
    _report(
        8,
        "best-approximation property",
        dev <= 1e-8 and dt < 5.0,
        f"|err_pg - err_proj|/err_proj = {dev:.2e}, {dt:.1f}s",
    )


def test_criterion_09_homogenization_roundtrip():
    """The initial value enters the load as E x0: the solve reproduces exp(-t)
    at first order and follows implicit Euler from x0."""
    t0 = time.perf_counter()
    decay = make_decay()
    errs = []
    for K in (64, 128, 256):
        sol = solve_detailed(decay, None, TimeGrid(T=1.0, K=K))
        errs.append(l2_error(sol, decay_exact))
    rates = [errs[i] / errs[i + 1] for i in range(2)]
    first_order = all(1.8 < r < 2.2 for r in rates)

    grid = TimeGrid(T=1.0, K=256)
    sol = solve_detailed(decay, None, grid)
    euler = oracles.implicit_euler_reference(decay, None, grid)
    t_in = grid.nodes[1:-1]
    dev = np.abs(evaluate_state(sol, t_in) - euler[:, 1:-1]).max()
    ok = first_order and dev <= 5.0 * grid.dt
    dt = time.perf_counter() - t0
    _report(
        9,
        "initial value as load",
        ok and dt < 5.0,
        f"errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
        f"euler nodal dev {dev:.2e}, {dt:.1f}s",
    )


def test_criterion_10_persistence_determinism(stokes_greedy, tmp_path):
    """Saved and reloaded model reproduces online outputs to 1e-12."""
    t0 = time.perf_counter()
    model, _ = stokes_greedy
    save_model(model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    rng = np.random.default_rng(55)
    worst_x, worst_d = 0.0, 0.0
    for _ in range(20):
        mu = rng.uniform(-1, 1, model.parameter_dim)
        x_a, x_b = reduced_solve(model, mu), reduced_solve(loaded, mu)
        worst_x = max(worst_x, np.abs(x_a - x_b).max())
        d_a = estimator_online(model, mu, x_a)
        d_b = estimator_online(loaded, mu, x_b)
        worst_d = max(worst_d, abs(d_a - d_b))
    ok = worst_x <= 1e-12 and worst_d <= 1e-12
    dt = time.perf_counter() - t0
    _report(
        10,
        "persistence determinism",
        ok and dt < 30.0,
        f"max |dx| {worst_x:.1e}, max |dDelta| {worst_d:.1e} over 20 params, {dt:.1f}s",
    )
