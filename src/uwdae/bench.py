"""Benchmark system generators, analytic references and study drivers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .detailed import (
    DetailedOperator,
    estimator_detailed,
    l2_difference,
    l2_error,
    l2_norm,
    l2_quadrature,
)
from .rbm import control_rhs_family
from .system_model import (
    AffineOperator,
    DaeSystem,
    constant_sampler,
    theta_constant,
)
from .temporal import TimeGrid

__all__ = [
    "RlcParams",
    "StokesLikeParams",
    "make_rlc",
    "rlc_smooth_source",
    "rlc_disc_source",
    "rlc_analytic",
    "make_stokes_like",
    "convergence_study",
    "timereduction_study",
    "smooth_random_controls",
]


# ---------------------------------------------------------------------------
# serial RLC circuit


@dataclass(frozen=True)
class RlcParams:
    R: float = 1.0
    L: float = 1.0
    C: float = 1.0
    T: float = 4.0 * np.pi

    def __post_init__(self):
        if min(self.R, self.L, self.C) <= 0:
            raise ValueError("R, L, C must be positive")
        if self.T <= 0:
            raise ValueError("horizon must be positive")


def rlc_smooth_source(p: RlcParams):
    omega = 4.0 * np.pi / p.T
    return lambda t: np.sin(omega * np.asarray(t, dtype=float))


def rlc_disc_source(p: RlcParams):
    omega = 4.0 * np.pi / p.T
    return lambda t: np.sign(np.cos(omega * np.asarray(t, dtype=float)))


def make_rlc(p: RlcParams, source=None) -> DaeSystem:
    """Serial RLC circuit; state (current, V_C, V_L, V_R), index 1, d = 2."""
    if source is None:
        source = rlc_smooth_source(p)
    E = sp.csr_matrix(np.diag([1.0, 1.0, 0.0, 0.0]))
    A = np.array(
        [
            [0.0, 0.0, 1.0 / p.L, 0.0],
            [1.0 / p.C, 0.0, 0.0, 0.0],
            [p.R, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 1.0],
        ]
    )

    def rhs(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((4, t.size))
        out[3] = -np.asarray(source(t))
        return out

    return DaeSystem(
        n=4,
        E=E,
        A=AffineOperator.constant(sp.csr_matrix(A)),
        rhs=AffineOperator(terms=((theta_constant(1.0), rhs),)),
        x0=None,
        T=p.T,
    )


def rlc_analytic(p: RlcParams, t) -> np.ndarray:
    """Closed-form solution for the sinusoidal source from a rest start.

    Eliminating the algebraic variables yields a damped oscillator for
    the current, L i'' + R i' + i/C = omega cos(omega t), with
    i(0) = i'(0) = 0; the voltages follow algebraically.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    omega = 4.0 * np.pi / p.T
    alpha = 1.0 / p.C - p.L * omega**2
    denom = alpha**2 + (p.R * omega) ** 2
    a = alpha * omega / denom
    b = p.R * omega**2 / denom

    roots = np.roots([p.L, p.R, 1.0 / p.C]).astype(complex)
    s1, s2 = roots
    if abs(s1 - s2) > 1e-9 * max(abs(s1), abs(s2), 1.0):
        # distinct roots: i_h = c1 e^{s1 t} + c2 e^{s2 t}
        M = np.array([[1.0, 1.0], [s1, s2]], dtype=complex)
        c1, c2 = np.linalg.solve(M, np.array([-a, -omega * b], dtype=complex))
        e1, e2 = np.exp(s1 * t), np.exp(s2 * t)
        i_h = c1 * e1 + c2 * e2
        di_h = c1 * s1 * e1 + c2 * s2 * e2
    else:
        # repeated root: i_h = (c1 + c2 t) e^{s t}
        s = s1
        c1 = -a
        c2 = -omega * b - c1 * s
        i_h = (c1 + c2 * t) * np.exp(s * t)
        di_h = (c2 + s * (c1 + c2 * t)) * np.exp(s * t)

    sin, cos = np.sin(omega * t), np.cos(omega * t)
    i = a * cos + b * sin + i_h.real
    di = -a * omega * sin + b * omega * cos + di_h.real
    v_l = p.L * di
    v_r = p.R * i
    v_c = sin - v_l - v_r
    return np.vstack([i, v_c, v_l, v_r])


# ---------------------------------------------------------------------------
# synthetic Stokes-like saddle-point DAE


@dataclass(frozen=True)
class StokesLikeParams:
    m_g: int = 8
    nu: float = 1.0
    T: float = 1.0
    input_cell: int = 0
    output_cell: int = -1

    def __post_init__(self):
        if self.m_g < 2:
            raise ValueError("need at least a 2x2 grid")
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")


def make_stokes_like(p: StokesLikeParams) -> DaeSystem:
    """Semi-discrete Stokes on a staggered m_g x m_g MAC grid, index 2.

    Velocities live on interior edges, pressures on cells with one cell
    grounded (removed) so the pencil stays regular.  E is the identity on
    the velocity block and zero on the pressure block, so d equals the
    number of retained pressure unknowns.
    """
    m = p.m_g
    h = 1.0 / m
    nu_x = (m - 1) * m  # u-velocities on vertical interior edges
    nu_y = m * (m - 1)  # v-velocities on horizontal interior edges
    n_vel = nu_x + nu_y
    n_pr = m * m - 1  # one pressure cell grounded
    n = n_vel + n_pr

    def uidx(i, j):  # i in 0..m-2, j in 0..m-1
        return i * m + j

    def vidx(i, j):  # i in 0..m-1, j in 0..m-2
        return nu_x + i * (m - 1) + j

    def pidx(i, j):  # cell (i, j), cell (0, 0) grounded
        k = i * m + j
        return None if k == 0 else n_vel + k - 1

    lap = sp.lil_matrix((n_vel, n_vel))
    G = sp.lil_matrix((n_vel, n_pr))  # discrete pressure gradient

    # u-momentum on edge between cells (i, j) and (i+1, j)
    for i in range(m - 1):
        for j in range(m):
            r = uidx(i, j)
            lap[r, r] = -4.0
            for ii, jj in ((i - 1, j), (i + 1, j)):
                if 0 <= ii < m - 1:
                    lap[r, uidx(ii, jj)] = 1.0
            for ii, jj in ((i, j - 1), (i, j + 1)):
                if 0 <= jj < m:
                    lap[r, uidx(ii, jj)] = 1.0
            for cell, sgn in (((i + 1, j), -1.0), ((i, j), 1.0)):
                c = pidx(*cell)
                if c is not None:
                    G[r, c - n_vel] = sgn / h
    # v-momentum on edge between cells (i, j) and (i, j+1)
    for i in range(m):
        for j in range(m - 1):
            r = vidx(i, j)
            lap[r, r] = -4.0
            for ii, jj in ((i, j - 1), (i, j + 1)):
                if 0 <= jj < m - 1:
                    lap[r, vidx(ii, jj)] = 1.0
            for ii, jj in ((i - 1, j), (i + 1, j)):
                if 0 <= ii < m:
                    lap[r, vidx(ii, jj)] = 1.0
            for cell, sgn in (((i, j + 1), -1.0), ((i, j), 1.0)):
                c = pidx(*cell)
                if c is not None:
                    G[r, c - n_vel] = sgn / h

    lap = (p.nu / h**2) * lap.tocsr()
    G = G.tocsr()
    A = sp.bmat([[lap, G], [G.T, None]], format="csr")
    E = sp.block_diag(
        [sp.identity(n_vel), sp.csr_matrix((n_pr, n_pr))], format="csr"
    )

    B = np.zeros((n, 1))
    B[p.input_cell % n_vel, 0] = 1.0
    C = np.zeros((1, n))
    C[0, p.output_cell % n_vel] = 1.0

    # smooth nonzero initial velocity x0 of E x' = A x, entered as the
    # constant load A x0 of the shifted state x - x0, which starts at rest
    x0 = np.zeros(n)
    for i in range(m - 1):
        for j in range(m):
            x0[uidx(i, j)] = np.sin(np.pi * (i + 1) * h) * np.sin(np.pi * (j + 0.5) * h)

    return DaeSystem(
        n=n,
        E=E,
        A=AffineOperator.constant(A),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler(A @ x0)),)),
        x0=None,
        T=p.T,
        control_matrix=B,
        output_matrix=C,
    )


# ---------------------------------------------------------------------------
# studies


def convergence_study(sys: DaeSystem, reference, K_list, mu=None, refinement: int = 2):
    """Error/estimator table over grid sizes.

    ``reference`` maps times to exact states (n, k).  Returns a list of
    rows (K, rel_err, rel_est) plus the fitted log-log slope of the error.
    """
    rows = []
    for K in K_list:
        grid = TimeGrid(T=sys.T, K=int(K))
        sol = DetailedOperator(sys, grid, mu=mu).solve(mu)
        ref_norm = l2_quadrature(reference, grid, 6)
        err = l2_error(sol, reference, quad_order=6) / ref_norm
        est = estimator_detailed(sol, refinement=refinement) / ref_norm
        rows.append((int(K), err, est))
    slope = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    return rows, slope


def fit_loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def smooth_random_controls(grid: TimeGrid, count: int, seed: int, modes: int = 3):
    """Random low-frequency controls sampled at the grid nodes; (count, K+1)."""
    rng = np.random.default_rng(seed)
    t = grid.nodes / grid.T
    out = np.zeros((count, grid.K + 1))
    for i in range(count):
        coeffs = rng.standard_normal(modes)
        for k, c in enumerate(coeffs):
            out[i] += c * np.sin(np.pi * (k + 1) * t)
        out[i] += rng.standard_normal() * 0.5
    return out


def timereduction_study(
    sys: DaeSystem, K: int, Ku_list, n_controls: int = 10, seed: int = 0
):
    """Max relative state error of coarse-sampled controls vs full resolution.

    For each K_u, every test control is sampled at the K_u + 1 nodes of a
    coarse grid and enters through the reduced basis load family, i.e. as
    its coarse hat interpolant; the error is measured against the same
    control sampled at all K + 1 nodes.  The system's own rhs terms enter
    at parameter 0.  Returns rows (Ku, max_rel_err).
    """
    if sys.control_matrix is None:
        raise ValueError("system has no control matrix")
    grid = TimeGrid(T=sys.T, K=int(K))
    op = DetailedOperator(sys, grid)
    m = sys.control_matrix.shape[1]

    def solve(Ku):
        family = control_rhs_family(op, control_grid=TimeGrid(T=sys.T, K=Ku))
        u = smooth_random_controls(family.control_grid, n_controls * m, seed)
        mu = np.zeros((n_controls, family.parameter_dim))
        mu[:, : m * (Ku + 1)] = u.reshape(n_controls, m * (Ku + 1))
        return [op.solve_load(load) for load in family.load(mu).T]

    full_sols = solve(grid.K)
    rows = []
    for Ku in map(int, Ku_list):
        max_err = 0.0
        for sol, ref_sol in zip(solve(Ku), full_sols):
            denom = l2_norm(ref_sol)
            err = l2_difference(sol, ref_sol) / denom if denom > 0 else 0.0
            max_err = max(max_err, err)
        rows.append((Ku, max_err))
    return rows
