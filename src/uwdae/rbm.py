"""Weak greedy reduced basis construction with exact online certification.

Restricted to fully linear systems (parameter-independent A): the
stiffness matrix, trial and test spaces are then parameter independent,
the reduced basis is orthonormalized in the test-space topology and the
online error estimator satisfies an exact error-residual identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateTraining, SingularReducedSystem
from .assembly import vectorize_samples
from .detailed import DetailedOperator, DetailedSolution
from .system_model import (
    ThetaExpression,
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


@dataclass(frozen=True)
class TrainingSet:
    """Reproducible set of parameter vectors."""

    parameters: np.ndarray  # (count, P)
    rng_seed: int
    spec: dict

    @staticmethod
    def uniform(dim: int, count: int, seed: int, low=-1.0, high=1.0) -> "TrainingSet":
        rng = np.random.default_rng(seed)
        params = rng.uniform(low, high, size=(count, dim))
        return TrainingSet(
            parameters=params,
            rng_seed=seed,
            spec={"kind": "uniform", "dim": dim, "count": count, "low": low, "high": high},
        )

    def __len__(self) -> int:
        return self.parameters.shape[0]


@dataclass(frozen=True)
class AffineRhsFamily:
    """Affine load decomposition f^N(mu) = sum_q theta_q(mu) * Ftilde[:, q]."""

    Ftilde: np.ndarray  # (dim, Q_f)
    thetas: tuple[ThetaExpression, ...]
    parameter_dim: int

    @property
    def Qf(self) -> int:
        return self.Ftilde.shape[1]

    def theta_vector(self, mu) -> np.ndarray:
        return np.array([t(mu) for t in self.thetas])

    def load(self, mu) -> np.ndarray:
        return self.Ftilde @ self.theta_vector(mu)


def control_rhs_family(
    op: DetailedOperator, control_grid: TimeGrid | None = None
) -> AffineRhsFamily:
    """Affine family for a fully linear system with control-sample parameters.

    The parameter vector stacks the m*(K_u+1) nodal control samples with
    the parameter of the system's own right-hand-side terms (e.g. the
    homogenized initial condition).  One affine term per control sample
    slot plus one per system rhs term.
    """
    sys, grid = op.sys, op.grid
    if sys.control_matrix is None:
        raise ValueError("system has no control matrix")
    if not sys.parameter_independent_A:
        raise ValueError("reduced pipeline requires parameter-independent A")
    if control_grid is None:
        control_grid = grid
    B = np.asarray(sys.control_matrix, dtype=float)
    m = B.shape[1]
    Ku = control_grid.K
    P = prolongation_matrix(control_grid, grid).toarray()  # (K+1, Ku+1)
    cols = []
    thetas: list[ThetaExpression] = []
    for j in range(m):
        for k in range(Ku + 1):
            nodal = np.outer(B[:, j], P[:, k])  # (n, K+1)
            cols.append(op.rhs_op.apply(vectorize_samples(nodal)))
            thetas.append(theta_component(j * (Ku + 1) + k))
    P1 = m * (Ku + 1)
    for theta, f in sys.rhs.terms:
        samples = np.asarray(f(grid.nodes), dtype=float)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        cols.append(op.rhs_op.apply(vectorize_samples(samples)))
        thetas.append(theta_shift(theta, P1))
    p2 = max((t.min_parameter_dim() - P1 for t in thetas[P1:]), default=0)
    return AffineRhsFamily(
        Ftilde=np.column_stack(cols),
        thetas=tuple(thetas),
        parameter_dim=P1 + max(p2, 0),
    )


def rhs_family_from_system(op: DetailedOperator) -> AffineRhsFamily:
    """Affine family straight from the system's rhs decomposition."""
    sys, grid = op.sys, op.grid
    cols = []
    thetas = []
    for theta, f in sys.rhs.terms:
        samples = np.asarray(f(grid.nodes), dtype=float)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        cols.append(op.rhs_op.apply(vectorize_samples(samples)))
        thetas.append(theta)
    P = max((t.min_parameter_dim() for t in thetas), default=0)
    return AffineRhsFamily(
        Ftilde=np.column_stack(cols), thetas=tuple(thetas), parameter_dim=max(P, 1)
    )


@dataclass(frozen=True)
class ReducedBasis:
    """Test-space coefficients of the reduced basis, Y-orthonormal columns.

    ``coords`` expresses each basis column in the Riesz columns of the
    affine load terms (Eta = R @ coords); the online estimator works in
    these coordinates so that the residual norm is evaluated without
    catastrophic cancellation at snapshot parameters.
    """

    Eta: np.ndarray  # (dim, N)
    S_N: np.ndarray  # (N, P) chosen parameters
    coords: np.ndarray  # (Q_f, N)

    @property
    def N(self) -> int:
        return self.Eta.shape[1]


@dataclass(frozen=True)
class ReducedModel:
    basis: ReducedBasis
    B_N: np.ndarray  # (N, N), identity for orthonormal bases
    rhs_offline: np.ndarray  # (Q_f, N) products of rhs terms with basis
    riesz_gram: np.ndarray  # (Q_f, Q_f) Gram of rhs Riesz representers
    thetas: tuple[ThetaExpression, ...]
    parameter_dim: int
    grid: TimeGrid
    rng_seed: int = 0

    @property
    def N(self) -> int:
        return self.basis.N

    @property
    def Qf(self) -> int:
        return self.rhs_offline.shape[0]

    def theta_vector(self, mu) -> np.ndarray:
        return np.array([t(mu) for t in self.thetas])

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
            B_N=self.B_N[:N, :N],
            rhs_offline=self.rhs_offline[:, :N],
            riesz_gram=self.riesz_gram,
            thetas=self.thetas,
            parameter_dim=self.parameter_dim,
            grid=self.grid,
            rng_seed=self.rng_seed,
        )


def _sweep_estimators(Theta: np.ndarray, G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Vectorized Delta_N over rows of Theta, in Riesz-column coordinates.

    The residual coordinate vector theta - W (W^T G theta) is formed
    first, so the quadratic form stays nonnegative and cancels cleanly
    when a load lies in the reduced span.
    """
    if W.size:
        Y = Theta - (Theta @ (G @ W)) @ W.T
    else:
        Y = Theta
    return np.sqrt(np.clip(np.einsum("ij,jk,ik->i", Y, G, Y), 0.0, None))


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
    BR = op.stiffness.matrix @ R
    factor.check(BR - Ftilde, R, Ftilde)
    # Gram of the Riesz columns in the test-space topology; all offline
    # estimator data derives from this one matrix so the error-residual
    # identity cancels cleanly at snapshot parameters
    G = R.T @ BR
    G = 0.5 * (G + G.T)
    Theta = np.array([family.theta_vector(mu) for mu in train.parameters])

    load_norm2 = np.einsum("ij,jk,ik->i", Theta, Ftilde.T @ Ftilde, Theta)
    if not np.any(load_norm2 > 0):
        raise DegenerateTraining("all training load vectors vanish")
    first = int(np.argmax(load_norm2))

    def _extend(W: np.ndarray, idx: int) -> np.ndarray | None:
        v = Theta[idx].copy()
        orig = np.sqrt(max(v @ (G @ v), 0.0))
        if orig == 0.0:
            return None
        for _ in range(2):  # modified Gram-Schmidt, re-orthogonalized once
            if W.shape[1]:
                v = v - W @ (W.T @ (G @ v))
        nrm = np.sqrt(max(v @ (G @ v), 0.0))
        if nrm < ORTH_REJECT_TOL * orig:
            return None
        return np.column_stack([W, v / nrm])

    W = _extend(np.zeros((family.Qf, 0)), first)
    if W is None:
        raise DegenerateTraining("initial snapshot has zero norm")
    chosen: list[int] = [first]
    history: list[tuple[int, int, float]] = []

    while True:
        deltas = _sweep_estimators(Theta, G, W)
        max_err = float(deltas.max())
        N = W.shape[1]
        if N == 1 and max_err == 0.0:
            raise DegenerateTraining("all training estimators vanish at N = 1")
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

    GW = G @ W
    model = ReducedModel(
        basis=ReducedBasis(Eta=R @ W, S_N=train.parameters[chosen], coords=W),
        B_N=W.T @ GW,
        rhs_offline=GW,
        riesz_gram=G,
        thetas=family.thetas,
        parameter_dim=family.parameter_dim,
        grid=op.grid,
        rng_seed=train.rng_seed,
    )
    return model, history


def reduced_solve(model: ReducedModel, mu) -> np.ndarray:
    """Solve the N x N reduced system for one parameter."""
    f_N = model.rhs_offline.T @ model.theta_vector(mu)
    try:
        return np.linalg.solve(model.B_N, f_N)
    except np.linalg.LinAlgError as exc:
        raise SingularReducedSystem(str(exc)) from exc


def estimator_online(model: ReducedModel, mu, x_N: np.ndarray) -> float:
    """Certified estimate of the detailed-vs-reduced L2 error.

    Exact error-residual identity up to round-off; tiny negative values
    from cancellation are clamped to zero.
    """
    theta = model.theta_vector(mu)
    x_N = np.asarray(x_N, dtype=float)
    y = theta - model.basis.coords @ x_N  # residual in Riesz-column coords
    val = y @ model.riesz_gram @ y
    return float(np.sqrt(max(val, 0.0)))


def lift(model: ReducedModel, x_N: np.ndarray) -> np.ndarray:
    """Coefficients of the lifted reduced solution in the detailed trial basis."""
    return model.basis.Eta @ np.asarray(x_N, dtype=float)


def lift_solution(model: ReducedModel, x_N, op: DetailedOperator, mu) -> DetailedSolution:
    return DetailedSolution(
        coeffs=lift(model, x_N),
        grid=op.grid,
        V=op.V,
        mu=np.atleast_1d(np.asarray(mu, dtype=float)),
        sys=op.sys,
        op=op,
    )


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
    (path / "header.json").write_text(json.dumps(header, indent=2))
    np.save(path / "Eta.npy", model.basis.Eta)
    np.save(path / "S_N.npy", model.basis.S_N)
    np.save(path / "coords.npy", model.basis.coords)
    np.save(path / "B_N.npy", model.B_N)
    np.save(path / "rhs_offline.npy", model.rhs_offline)
    np.save(path / "riesz_gram.npy", model.riesz_gram)


def load_model(directory) -> ReducedModel:
    path = Path(directory)
    header = json.loads((path / "header.json").read_text())
    if header.get("schema") != "uwdae-reduced-model-v1":
        raise ValueError(f"unrecognized model schema in {path}")
    return ReducedModel(
        basis=ReducedBasis(
            Eta=np.load(path / "Eta.npy"),
            S_N=np.load(path / "S_N.npy"),
            coords=np.load(path / "coords.npy"),
        ),
        B_N=np.load(path / "B_N.npy"),
        rhs_offline=np.load(path / "rhs_offline.npy"),
        riesz_gram=np.load(path / "riesz_gram.npy"),
        thetas=tuple(theta_from_dict(d) for d in header["thetas"]),
        parameter_dim=header["parameter_dim"],
        grid=TimeGrid(T=header["grid"]["T"], K=header["grid"]["K"]),
        rng_seed=header["rng_seed"],
    )
