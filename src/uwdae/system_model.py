"""Parameterized DAE systems with affine data decompositions.

A system is the tuple (E, A_mu, f_mu, x0_mu) with optional control/output
matrices.  Parameter dependence enters only through scalar coefficient
functions (theta expressions) multiplying fixed matrices, vectors or
time-sample sources.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import ParameterDimensionMismatch, UwdaeError

__all__ = [
    "ThetaExpression",
    "theta_constant",
    "theta_component",
    "theta_monomial",
    "theta_callable",
    "theta_to_dict",
    "theta_from_dict",
    "theta_shift",
    "ThetaTable",
    "AffineOperator",
    "DaeSystem",
    "KernelBasis",
    "validate_system",
    "kernel_basis",
    "affine_eval",
    "sample_rhs",
    "sample_rhs_terms",
]

DEFAULT_RANK_TOL = 1e-10


# ---------------------------------------------------------------------------
# theta expressions


@dataclass(frozen=True)
class ThetaExpression:
    """Scalar coefficient function of the parameter vector, a plain record:

        theta(mu) = coeff * prod_i mu[i]**exponents[i] * func(mu)

    with the factor func(mu) only when ``func`` is set.  A theta reads as
    many components of mu as it lists exponents.  Without ``func`` it is
    serializable (``theta_to_dict``); ``func`` is the escape hatch, one
    Python call per parameter.  The constructors check their input, and
    ``ThetaTable`` is the one evaluator.
    """

    coeff: float = 1.0
    exponents: tuple[int, ...] = ()
    func: Callable[[np.ndarray], float] | None = None


def _finite(value, what: str) -> float:
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _count(value, what: str) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0:
        return int(value)
    raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")


def theta_constant(c: float) -> ThetaExpression:
    return ThetaExpression(coeff=_finite(c, "theta value"))


def theta_component(j: int) -> ThetaExpression:
    return ThetaExpression(exponents=(0,) * _count(j, "component index") + (1,))


def theta_monomial(coeff: float, exponents: Sequence[int]) -> ThetaExpression:
    if not isinstance(exponents, (list, tuple, np.ndarray)):
        raise ValueError(f"monomial exponents must be a list, got {exponents!r}")
    exponents = tuple(_count(e, "monomial exponent") for e in exponents)
    return ThetaExpression(_finite(coeff, "monomial coefficient"), exponents)


def theta_callable(func: Callable[[np.ndarray], float]) -> ThetaExpression:
    return ThetaExpression(func=func)


def theta_to_dict(t: ThetaExpression) -> dict:
    """JSON form: ``constant`` without exponents, ``component`` for coefficient 1
    on one component, ``monomial`` otherwise."""
    if t.func is not None:
        raise ValueError("a theta with a Python function is not serializable")
    e = t.exponents
    if not e:
        return {"type": "constant", "value": t.coeff}
    if t.coeff == 1.0 and e[-1] == 1 and not any(e[:-1]):
        return {"type": "component", "index": len(e) - 1}
    return {"type": "monomial", "coeff": t.coeff, "exponents": list(e)}


def theta_from_dict(d: dict) -> ThetaExpression:
    """Inverse of ``theta_to_dict``; a malformed entry raises ValueError."""
    kind = d.get("type") if isinstance(d, dict) else None
    try:
        if kind == "constant":
            return theta_constant(d["value"])
        if kind == "component":
            return theta_component(d["index"])
        if kind == "monomial":
            return theta_monomial(d["coeff"], d["exponents"])
    except KeyError as exc:
        raise ValueError(f"{kind} theta has no field {exc}") from exc
    raise ValueError(f"not a theta: {d!r}")


def theta_shift(t: ThetaExpression, offset: int) -> ThetaExpression:
    """Re-index a theta to act on a parameter subvector starting at offset."""
    if offset == 0:
        return t
    func = None if t.func is None else (lambda mu, f=t.func: f(np.asarray(mu)[offset:]))
    return ThetaExpression(t.coeff, (0,) * offset + t.exponents, func)


@dataclass(frozen=True)
class ThetaTable:
    """Thetas compiled to theta_q(mu) = coeff[q] * prod_j ext[idx[q, j]].

    ext is mu's first ``dim`` components followed by 1.0: an exponent e
    repeats its component's index e times, and padding points at the 1.0.
    ``calls`` are the (q, func) of the thetas with a function, multiplied
    into their columns one Python call per parameter.
    """

    coeff: np.ndarray  # (Q,)
    idx: np.ndarray  # (Q, D)
    dim: int  # components a theta reads; a shorter parameter is refused
    calls: tuple[tuple[int, Callable[[np.ndarray], float]], ...]

    @staticmethod
    def compile(thetas: Sequence[ThetaExpression]) -> "ThetaTable":
        dim = max((len(t.exponents) for t in thetas), default=0)
        factors = [np.repeat(np.arange(len(t.exponents)), t.exponents) for t in thetas]
        idx = np.full((len(thetas), max(map(len, factors), default=0)), dim, dtype=np.intp)
        for row, f in zip(idx, factors):
            row[: len(f)] = f
        coeff = np.array([t.coeff for t in thetas], dtype=float)
        calls = tuple((q, t.func) for q, t in enumerate(thetas) if t.func is not None)
        return ThetaTable(coeff=coeff, idx=idx, dim=dim, calls=calls)

    def __call__(self, mu) -> np.ndarray:
        """theta(mu), (Q,) for a parameter (P,) and (M, Q) for a batch (M, P)."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu.shape[-1] < self.dim:
            msg = f"thetas use {self.dim} components, parameter has dimension {mu.shape[-1]}"
            raise ParameterDimensionMismatch(msg)
        ext = np.concatenate([mu[..., : self.dim], np.ones(mu.shape[:-1] + (1,))], axis=-1)
        out = self.coeff * ext[..., self.idx].prod(axis=-1)
        for q, f in self.calls:
            out[..., q] *= np.apply_along_axis(f, -1, mu)
        return out


class CompiledThetas:
    """Mixin for a class with ``thetas``: the ``ThetaTable`` compiled on first use."""

    @cached_property
    def theta_vector(self) -> ThetaTable:
        """theta(mu) of ``thetas``, (Q,) for a parameter (P,) and (M, Q) for a
        batch (M, P)."""
        return ThetaTable.compile(self.thetas)


# ---------------------------------------------------------------------------
# affine operators

TimeSampler = Callable[[np.ndarray], np.ndarray]
"""Vectorized map from times (shape (k,)) to samples (shape (n, k))."""


@dataclass(frozen=True)
class AffineOperator(CompiledThetas):
    """Affine decomposition sum_q theta_q(mu) * M_q.

    Payloads are sparse/dense matrices, vectors, or (for right-hand sides)
    vectorized time samplers ``t -> values``.
    """

    terms: tuple[tuple[ThetaExpression, object], ...]

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("affine operator needs at least one term")

    @property
    def Q(self) -> int:
        return len(self.terms)

    @property
    def thetas(self) -> list[ThetaExpression]:
        return [t for t, _ in self.terms]

    @staticmethod
    def constant(payload) -> "AffineOperator":
        return AffineOperator(terms=((theta_constant(1.0), payload),))


def affine_eval(op: AffineOperator, mu) -> np.ndarray | sp.spmatrix:
    """Assemble sum_q theta_q(mu) * M_q for matrix/vector payloads."""
    out = None
    for c, (_, m) in zip(op.theta_vector(mu), op.terms):
        contrib = m * c if sp.issparse(m) else c * np.asarray(m, dtype=float)
        out = contrib if out is None else out + contrib
    return out


def sample_rhs_terms(op: AffineOperator, times: np.ndarray) -> list[np.ndarray]:
    """Samples f_q(t_k) of every time-sampled term, each of shape (n, len(times))."""
    times = np.asarray(times, dtype=float)
    return [np.atleast_2d(np.asarray(f(times), dtype=float)) for _, f in op.terms]


def sample_rhs(op: AffineOperator, mu, times: np.ndarray) -> np.ndarray:
    """Evaluate a time-sampled affine right-hand side at the given nodes.

    Returns an (n, len(times)) array of sum_q theta_q(mu) f_q(t_k).
    """
    samples = sample_rhs_terms(op, times)
    return sum(c * vals for c, vals in zip(op.theta_vector(mu), samples))


def constant_sampler(vec: np.ndarray) -> TimeSampler:
    vec = np.asarray(vec, dtype=float).ravel()
    return lambda t: np.repeat(vec[:, None], np.asarray(t).size, axis=1)


def pw_linear_sampler(t_nodes: np.ndarray, values: np.ndarray) -> TimeSampler:
    """Piecewise-linear interpolant of samples values (n, len(t_nodes))."""

    def sampler(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.vstack([np.interp(t, t_nodes, comp) for comp in values])

    return sampler


# ---------------------------------------------------------------------------
# the system tuple


@dataclass(frozen=True)
class DaeSystem:
    """Linear constant-coefficient DAE E x' - A_mu x = f_mu, E x(0) = E x0_mu.

    Only E x0 is prescribed: the initial value enters the ultraweak load,
    not the trial space (``DetailedOperator.initial_loads``).
    """

    n: int
    E: sp.spmatrix
    A: AffineOperator
    rhs: AffineOperator
    x0: AffineOperator | None
    T: float
    control_matrix: np.ndarray | None = None
    output_matrix: np.ndarray | None = None

    def A_at(self, mu) -> sp.spmatrix:
        M = affine_eval(self.A, mu)
        return sp.csr_matrix(M) if not sp.issparse(M) else M.tocsr()

    @property
    def parameter_independent_A(self) -> bool:
        return all(t.func is None and not any(t.exponents) for t in self.A.thetas)


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of ker(E^T) as columns of V (n x d)."""

    V: np.ndarray
    d: int


# ---------------------------------------------------------------------------
# operations


def validate_system(sys: DaeSystem) -> list[str]:
    """Collect structural defects; an empty list means the system is valid."""
    diags: list[str] = []
    n = sys.n
    if sys.E.shape != (n, n):
        diags.append(f"E has shape {sys.E.shape}, expected ({n}, {n})")
    for q, (_, M) in enumerate(sys.A.terms):
        shape = getattr(M, "shape", None)
        if shape != (n, n):
            diags.append(f"A term {q} has shape {shape}, expected ({n}, {n})")
        elif not _allfinite(M):
            diags.append(f"A term {q} has nonfinite entries")
    if sys.A.Q < 1:
        diags.append("A has no affine terms")
    if sys.x0 is not None:
        for q, (_, v) in enumerate(sys.x0.terms):
            v = np.asarray(v)
            if v.shape not in ((n,), (n, 1)):
                diags.append(f"x0 term {q} has shape {v.shape}, expected ({n},)")
            elif not np.all(np.isfinite(v)):
                diags.append(f"x0 term {q} has nonfinite entries")
    if not (sys.T > 0):
        diags.append(f"horizon T = {sys.T} must be positive")
    if not _allfinite(sys.E):
        diags.append("E has nonfinite entries")
    if sys.control_matrix is not None and sys.control_matrix.shape[0] != n:
        diags.append(
            f"control matrix has {sys.control_matrix.shape[0]} rows, expected {n}"
        )
    if sys.output_matrix is not None and sys.output_matrix.shape[1] != n:
        diags.append(
            f"output matrix has {sys.output_matrix.shape[1]} columns, expected {n}"
        )
    diags.extend(_consistency_warning(sys))
    return diags


def _allfinite(M) -> bool:
    data = M.data if sp.issparse(M) else np.asarray(M)
    return bool(np.all(np.isfinite(data)))


def _consistency_warning(sys: DaeSystem) -> list[str]:
    # Heuristic only: the continuous theory assumes x0 consistent with f(0+).
    # Checked at mu = 0 to keep the diagnostic parameter-free.
    if sys.x0 is None:
        return []
    try:
        mu = np.zeros(max(op.theta_vector.dim for op in (sys.A, sys.x0, sys.rhs)) or 1)
        x0 = np.asarray(affine_eval(sys.x0, mu)).ravel()
        if x0.shape != (sys.n,) or not np.any(x0):
            return []
        A = sys.A_at(mu).toarray()
        f0 = sample_rhs(sys.rhs, mu, np.array([0.0]))[:, 0]
        E = sys.E.toarray()
        target = A @ x0 + f0
        sol, res, *_ = np.linalg.lstsq(E, target, rcond=None)
        residual = np.linalg.norm(E @ sol - target)
        scale = max(np.linalg.norm(target), 1.0)
        if residual > 1e-8 * scale:
            return [
                "warning: initial value appears inconsistent with f(0+) "
                f"(least-squares residual {residual:.2e})"
            ]
    except (UwdaeError, ValueError, TypeError) as exc:  # thetas, samplers, lstsq
        return [f"warning: consistency check skipped: {type(exc).__name__}: {exc}"]
    return []


def kernel_basis(E: sp.spmatrix, tol: float = DEFAULT_RANK_TOL) -> KernelBasis:
    """Orthonormal basis of ker(E^T) via SVD of E^T.

    Singular values below tol * sigma_max count as zero.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    Et = (E.T).toarray() if sp.issparse(E) else np.asarray(E, dtype=float).T
    n = Et.shape[0]
    _, s, Wt = la.svd(Et)  # scipy's LAPACK: the library that factors the band
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    d = n - rank
    V = Wt[rank:].T.copy() if d > 0 else np.zeros((n, 0))
    return KernelBasis(V=V, d=d)
