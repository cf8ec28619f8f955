"""Weak greedy reduced basis construction with exact online certification.

Restricted to fully linear systems (parameter-independent A): the
stiffness matrix, trial and test spaces are then parameter independent,
the reduced basis is orthonormalized in the test-space topology and the
online error estimator satisfies an exact error-residual identity.

The online phase takes one parameter (P,) or a batch (M, P): theta(mu) of a
batch is one evaluation of the compiled ``ThetaTable``, the rest BLAS products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import DegenerateTraining
from .detailed import DetailedOperator, DetailedSolution
from .system_model import (
    CompiledThetas,
    ThetaExpression,
    sample_rhs_terms,
    theta_component,
    theta_from_dict,
    theta_shift,
    theta_to_dict,
)
from .temporal import TimeGrid, prolongation_matrix

__all__ = [
    "TrainingSet",
    "AffineRhsFamily",
    "control_rhs_family",
    "ReducedBasis",
    "ReducedModel",
    "greedy",
    "reduced_solve",
    "estimator_online",
    "lift",
    "save_model",
    "load_model",
]

ORTH_REJECT_TOL = 1e-10
# A saved basis is accepted when coords^T G coords is the identity to this
# bound; greedy bases measure 1e-12 and below (Stokes-like m_g = 8, N = 76).
ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class TrainingSet:
    """Reproducible set of parameter vectors."""

    parameters: np.ndarray  # (count, P)
    rng_seed: int

    @staticmethod
    def uniform(dim: int, count: int, seed: int, low=-1.0, high=1.0) -> "TrainingSet":
        rng = np.random.default_rng(seed)
        return TrainingSet(parameters=rng.uniform(low, high, size=(count, dim)), rng_seed=seed)

    def __len__(self) -> int:
        return self.parameters.shape[0]


@dataclass(frozen=True)
class AffineRhsFamily(CompiledThetas):
    """Affine load decomposition f^N(mu) = sum_q theta_q(mu) * Ftilde[:, q]."""

    Ftilde: np.ndarray  # (dim, Q_f)
    thetas: tuple[ThetaExpression, ...]
    control_grid: TimeGrid | None = None  # nodes of the control samples, if any

    @property
    def Qf(self) -> int:
        return self.Ftilde.shape[1]

    @property
    def parameter_dim(self) -> int:
        """Components the thetas read, at least one."""
        return max(self.theta_vector.dim, 1)

    def load(self, mu) -> np.ndarray:
        """f^N(mu), (dim,) for a parameter (P,) and (dim, M) for a batch (M, P)."""
        return _mm(self.Ftilde, self.theta_vector(mu).T)


def control_rhs_family(
    op: DetailedOperator, control_grid: TimeGrid | None = None
) -> AffineRhsFamily:
    """Affine load family of a fully linear system.

    The parameter vector stacks the m*(K_u+1) nodal control samples (none
    without a control matrix) with the parameter of the system's own
    right-hand-side and initial-value terms.  One affine term per control
    sample slot, one per system rhs term and one per initial-value term
    (its column of ``op.initial_loads``).
    """
    sys, grid = op.sys, op.grid
    if not sys.parameter_independent_A:
        raise ValueError("reduced pipeline requires parameter-independent A")
    terms = []  # nodal samples (K+1, n, q) of the affine terms
    thetas: list[ThetaExpression] = []
    if sys.control_matrix is None:
        control_grid = None
    else:
        control_grid = grid if control_grid is None else control_grid
        B = np.asarray(sys.control_matrix, dtype=float)
        Ku = control_grid.K
        P = prolongation_matrix(control_grid, grid).toarray()  # (K+1, Ku+1)
        # term j*(Ku+1) + k: control j at control node k, B[:, j] P[:, k]
        terms.append(np.einsum("ij,lk->lijk", B, P).reshape(grid.K + 1, sys.n, -1))
        thetas.extend(theta_component(q) for q in range(B.shape[1] * (Ku + 1)))
    P1 = len(thetas)
    terms.append(np.stack([v.T for v in sample_rhs_terms(sys.rhs, grid.nodes)], axis=-1))
    thetas.extend(theta_shift(theta, P1) for theta in sys.rhs.thetas)
    samples = np.concatenate(terms, axis=-1)
    Ftilde = op.stiffness.load(samples.reshape(-1, len(thetas)))
    if sys.x0 is not None:
        Ftilde = np.hstack([Ftilde, op.initial_loads])
        thetas.extend(theta_shift(theta, P1) for theta in sys.x0.thetas)
    return AffineRhsFamily(
        Ftilde=Ftilde,
        thetas=tuple(thetas),
        control_grid=control_grid,
    )


@dataclass(frozen=True)
class ReducedBasis:
    """Test-space coefficients of the reduced basis, Y-orthonormal columns.

    ``coords`` expresses each basis column in the Riesz columns of the
    affine load terms (Eta = R @ coords), so coords^T G coords = I for the
    Riesz-column Gram G; the online estimator works in these coordinates
    so that the residual norm is evaluated without catastrophic
    cancellation at snapshot parameters.
    """

    Eta: np.ndarray  # (dim, N)
    S_N: np.ndarray  # (N, P) chosen parameters
    coords: np.ndarray  # (Q_f, N)

    @property
    def N(self) -> int:
        return self.Eta.shape[1]


@dataclass(frozen=True)
class ReducedModel(CompiledThetas):
    """Online data of a reduced basis.

    The basis is orthonormal in the test-space topology, so the reduced
    stiffness matrix is the identity and the reduced solution is the
    vector of load-basis products, rhs_offline^T theta(mu).
    """

    basis: ReducedBasis
    rhs_offline: np.ndarray  # (Q_f, N) products of rhs terms with basis
    riesz_gram: np.ndarray  # (Q_f, Q_f) Gram of rhs Riesz representers
    thetas: tuple[ThetaExpression, ...]
    parameter_dim: int
    grid: TimeGrid
    rng_seed: int = 0
    control_grid: TimeGrid | None = None  # nodes of the control samples in mu

    @property
    def N(self) -> int:
        return self.basis.N

    @property
    def Qf(self) -> int:
        return self.rhs_offline.shape[0]

    def truncate(self, N: int) -> "ReducedModel":
        """Sub-model spanned by the first N greedy basis functions."""
        if not 1 <= N <= self.N:
            raise ValueError(f"N must be in 1..{self.N}")
        return ReducedModel(
            basis=ReducedBasis(
                Eta=self.basis.Eta[:, :N],
                S_N=self.basis.S_N[:N],
                coords=self.basis.coords[:, :N],
            ),
            rhs_offline=self.rhs_offline[:, :N],
            riesz_gram=self.riesz_gram,
            thetas=self.thetas,
            parameter_dim=self.parameter_dim,
            grid=self.grid,
            rng_seed=self.rng_seed,
            control_grid=self.control_grid,
        )


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on scipy's BLAS, which factors the band: numpy's own OpenBLAS threads
    spin ~0.1 s after a large product, and a factorization started then ran twice
    as long on two cores.  C-ordered operands go in transposed, uncopied."""
    if a.ndim < 2 or b.ndim < 2:
        return a @ b
    ta, tb = a.flags.c_contiguous, b.flags.c_contiguous
    return dgemm(1.0, a.T if ta else a, b.T if tb else b, trans_a=ta, trans_b=tb)


def _residual_norms(Theta: np.ndarray, W: np.ndarray, X: np.ndarray, G: np.ndarray):
    """Delta_N: the G-norm of theta - W x, x the reduced solution.

    Theta and X hold one parameter per row, or are single vectors.  The
    residual coordinate vector in the Riesz columns is formed first, so
    the quadratic form stays nonnegative and cancels cleanly when a load
    lies in the reduced span.
    """
    Y = Theta - _mm(X, W.T)
    return np.sqrt(np.maximum(np.einsum("...j,...j->...", _mm(Y, G), Y), 0.0))


def greedy(
    op: DetailedOperator,
    family: AffineRhsFamily,
    train: TrainingSet,
    eps: float,
    n_max: int,
):
    """Weak greedy basis construction.

    Returns (model, history); history rows are (N, index of the next
    chosen training parameter or -1, max training estimator at size N).
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    Ftilde, factor = family.Ftilde, op.factor
    R = factor.solve(Ftilde)
    BR = op.stiffness @ R
    factor.check(BR - Ftilde, R, Ftilde)
    # Gram of the Riesz columns in the test-space topology; all offline
    # estimator data derives from this one matrix so the error-residual
    # identity cancels cleanly at snapshot parameters
    G = _mm(R.T, BR)
    G = 0.5 * (G + G.T)
    Theta = family.theta_vector(train.parameters)

    load_norm2 = np.einsum("ij,jk,ik->i", Theta, _mm(Ftilde.T, Ftilde), Theta)
    if not np.any(load_norm2 > 0):
        raise DegenerateTraining("all training load vectors vanish")
    first = int(np.argmax(load_norm2))
    # round-off of a computed quadratic form v^T G v is about this times |v|^2
    floor = np.finfo(float).eps * np.linalg.norm(G, 2)

    def _extend(W: np.ndarray, idx: int) -> np.ndarray | None:
        v = Theta[idx].copy()
        orig = np.sqrt(max(v @ (G @ v), 0.0))
        if orig == 0.0:
            return None
        for _ in range(2):  # modified Gram-Schmidt, re-orthogonalized once
            if W.shape[1]:
                v = v - W @ (W.T @ (G @ v))
        nrm = np.sqrt(max(v @ (G @ v), 0.0))
        # a dependent candidate, or one whose G-norm is round-off: normalizing
        # the latter would break the orthonormality the online solve relies on
        if nrm < ORTH_REJECT_TOL * orig or nrm**2 <= floor * (v @ v):
            return None
        return np.column_stack([W, v / nrm])

    W = _extend(np.zeros((family.Qf, 0)), first)
    if W is None:
        raise DegenerateTraining("initial snapshot has zero norm")
    chosen: list[int] = [first]
    history: list[tuple[int, int, float]] = []

    while True:
        deltas = _residual_norms(Theta, W, _mm(Theta, _mm(G, W)), G)
        max_err = float(deltas.max())
        N = W.shape[1]
        if N >= n_max or max_err <= eps:
            history.append((N, -1, max_err))
            break
        order = np.argsort(-deltas, kind="stable")
        pick = -1
        for idx in order:
            idx = int(idx)
            if idx in chosen:
                continue
            new_w = _extend(W, idx)
            if new_w is not None:
                W = new_w
                chosen.append(idx)
                pick = idx
                break
        history.append((N, pick, max_err))
        if pick < 0:
            break

    model = ReducedModel(
        basis=ReducedBasis(Eta=_mm(R, W), S_N=train.parameters[chosen], coords=W),
        rhs_offline=_mm(G, W),
        riesz_gram=G,
        thetas=family.thetas,
        parameter_dim=family.parameter_dim,
        grid=op.grid,
        rng_seed=train.rng_seed,
        control_grid=family.control_grid,
    )
    return model, history


def reduced_solve(model: ReducedModel, mu) -> np.ndarray:
    """Reduced solution, (N,) or (M, N) for mu (P,) or (M, P); the reduced system is I."""
    return _mm(model.theta_vector(mu), model.rhs_offline)


def estimator_online(model: ReducedModel, mu, x_N: np.ndarray):
    """Certified estimate of the detailed-vs-reduced L2 error: a float for a
    parameter (P,) and x_N (N,), an (M,) array for a batch (M, P) and (M, N).

    Exact error-residual identity up to round-off; tiny negative values
    from cancellation are clamped to zero.
    """
    x_N = np.asarray(x_N, dtype=float)
    theta = model.theta_vector(mu)
    # [()] turns the 0-d result of one parameter into a (float) scalar
    return _residual_norms(theta, model.basis.coords, x_N, model.riesz_gram)[()]


def lift(model: ReducedModel, x_N: np.ndarray) -> np.ndarray:
    """Coefficients of the lifted reduced solution in the detailed trial basis."""
    return model.basis.Eta @ np.asarray(x_N, dtype=float)


def lift_solution(model: ReducedModel, x_N, op: DetailedOperator, mu) -> DetailedSolution:
    return DetailedSolution(lift(model, x_N), np.atleast_1d(np.asarray(mu, dtype=float)), op)


# ---------------------------------------------------------------------------
# persistence


def save_model(model: ReducedModel, directory) -> None:
    """Persist the reduced model as a directory of JSON header + npy payloads."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": "uwdae-reduced-model-v1",
        "N": model.N,
        "Qf": model.Qf,
        "parameter_dim": model.parameter_dim,
        "grid": {"T": model.grid.T, "K": model.grid.K},
        "rng_seed": model.rng_seed,
        "thetas": [theta_to_dict(t) for t in model.thetas],
    }
    if model.control_grid is not None:
        header["control_grid"] = {"T": model.control_grid.T, "K": model.control_grid.K}
    (path / "header.json").write_text(json.dumps(header, indent=2))
    np.save(path / "Eta.npy", model.basis.Eta)
    np.save(path / "S_N.npy", model.basis.S_N)
    np.save(path / "coords.npy", model.basis.coords)
    np.save(path / "rhs_offline.npy", model.rhs_offline)
    np.save(path / "riesz_gram.npy", model.riesz_gram)


def load_model(directory) -> ReducedModel:
    """Read a saved model; files it does not use are ignored.

    Older versions also stored the reduced stiffness matrix, or stored no
    control grid; such directories still load.  The online solve relies on
    the basis being orthonormal, so a model whose coordinates are not
    orthonormal in the Riesz-column Gram to ORTHONORMAL_TOL is rejected.
    """
    path = Path(directory)
    header = json.loads((path / "header.json").read_text())
    if header.get("schema") != "uwdae-reduced-model-v1":
        raise ValueError(f"unrecognized model schema in {path}")
    coords = np.load(path / "coords.npy")
    riesz_gram = np.load(path / "riesz_gram.npy")
    dev = np.abs(coords.T @ riesz_gram @ coords - np.eye(coords.shape[1])).max(initial=0.0)
    if not dev <= ORTHONORMAL_TOL:
        raise ValueError(
            f"{path}: basis is not orthonormal (max |coords^T G coords - I| = {dev:.2e})"
        )
    cg = header.get("control_grid")
    return ReducedModel(
        basis=ReducedBasis(
            Eta=np.load(path / "Eta.npy"),
            S_N=np.load(path / "S_N.npy"),
            coords=coords,
        ),
        rhs_offline=np.load(path / "rhs_offline.npy"),
        riesz_gram=riesz_gram,
        thetas=tuple(theta_from_dict(d) for d in header["thetas"]),
        parameter_dim=header["parameter_dim"],
        grid=TimeGrid(T=header["grid"]["T"], K=header["grid"]["K"]),
        rng_seed=header["rng_seed"],
        control_grid=None if cg is None else TimeGrid(T=cg["T"], K=cg["K"]),
    )
