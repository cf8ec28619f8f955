"""Tests for parameterized system types, thetas, validation and kernel bases."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from uwdae import (
    AffineOperator,
    DaeSystem,
    TimeGrid,
    affine_eval,
    kernel_basis,
    solve_detailed,
    validate_system,
)
from uwdae.errors import (
    FactorizationFailure,
    ParameterDimensionMismatch,
)
from uwdae.system_model import (
    ThetaExpression,
    ThetaTable,
    constant_sampler,
    sample_rhs,
    theta_callable,
    theta_component,
    theta_constant,
    theta_from_dict,
    theta_monomial,
    theta_shift,
    theta_to_dict,
)
from conftest import make_scalar_ode
import oracles

from uwdae.bench import StokesLikeParams, make_rlc, make_stokes_like, RlcParams


# -- theta expressions -------------------------------------------------------


def _theta(t, mu) -> float:
    """theta(mu) of one expression through the table, the package's evaluator."""
    return float(ThetaTable.compile((t,))(mu)[0])


def test_theta_evaluation():
    mu = np.array([2.0, 3.0])
    assert _theta(theta_constant(5.0), mu) == 5.0
    assert _theta(theta_component(1), mu) == 3.0
    assert _theta(theta_monomial(2.0, (1, 2)), mu) == 2.0 * 2.0 * 9.0
    assert _theta(theta_callable(lambda m: m[0] - m[1]), mu) == -1.0
    # the record: a component is coefficient 1 on one exponent
    assert theta_component(1) == ThetaExpression(1.0, (0, 1))
    assert theta_monomial(5.0, ()) == theta_constant(5.0)


def test_theta_component_out_of_range():
    with pytest.raises(ParameterDimensionMismatch):
        _theta(theta_component(3), np.array([1.0]))
    with pytest.raises(ParameterDimensionMismatch):
        oracles.theta_value(theta_component(3), np.array([1.0]))


def test_theta_serialization_roundtrip():
    mu = np.arange(1.0, 6.0)
    for t in (theta_constant(2.5), theta_component(4), theta_monomial(1.5, (0, 2))):
        back = theta_from_dict(theta_to_dict(t))
        assert back == t
        assert _theta(back, mu) == oracles.theta_value(t, mu)
    # each constructor's JSON form
    assert theta_to_dict(theta_constant(2.5)) == {"type": "constant", "value": 2.5}
    assert theta_to_dict(theta_component(4)) == {"type": "component", "index": 4}
    assert theta_to_dict(theta_monomial(1.5, (0, 2))) == {
        "type": "monomial",
        "coeff": 1.5,
        "exponents": [0, 2],
    }


def test_theta_shift_reindexes():
    mu = np.array([0.0, 0.0, 7.0])
    assert _theta(theta_shift(theta_component(0), 2), mu) == 7.0
    assert _theta(theta_shift(theta_monomial(2.0, (1,)), 2), mu) == 14.0
    assert _theta(theta_shift(theta_constant(4.0), 2), mu) == 4.0
    assert _theta(theta_shift(theta_callable(lambda m: m[0] + 1.0), 2), mu) == 8.0
    assert theta_shift(theta_component(0), 2) == theta_component(2)


def _mixed_thetas():
    return (
        theta_constant(-2.5),
        theta_component(3),
        theta_monomial(0.5, (2, 0, 3)),
        theta_shift(theta_monomial(2.0, (1, 2)), 1),
        theta_shift(theta_component(0), 2),
        theta_monomial(-3.0, (0, 1, 2)),
        theta_callable(lambda mu: np.sin(mu[0]) + mu[-1]),
        theta_constant(0.0),
        ThetaExpression(1.5, (1,), lambda mu: mu[-1] ** 2),
    )


def test_theta_table_matches_expressions():
    thetas = _mixed_thetas()
    table = ThetaTable.compile(thetas)
    assert [q for q, _ in table.calls] == [6, 8]  # only the functions leave the table
    assert table.dim == 4 and table.idx.shape == (9, 5)
    mus = np.random.default_rng(4).uniform(-2.0, 2.0, (50, 6))
    want = np.array([[oracles.theta_value(t, mu) for t in thetas] for mu in mus])
    # exponents >= 2 are products instead of powers: equal to round-off
    assert np.allclose(table(mus), want, rtol=1e-15, atol=0.0)
    for mu, row in zip(mus[:5], want):
        assert table(mu).shape == (9,)
        assert np.allclose(table(mu), row, rtol=1e-15, atol=0.0)
    # constants, components and lone functions are copied, not computed
    exact = [0, 1, 4, 6, 7]
    assert np.array_equal(table(mus)[:, exact], want[:, exact])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.text(max_size=3)
    | st.floats(-1e3, 1e3) | st.sampled_from([float("nan"), float("inf"), 1.5]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_NUMBER = st.floats(-1e3, 1e3) | st.integers(-1000, 1000) | st.just(10**400) | _JSON
_COUNT = st.integers(0, 4) | _JSON
# each field is well-formed or arbitrary JSON; a missing field comes from the
# arbitrary dictionaries
_THETA_DICTS = st.one_of(
    st.fixed_dictionaries({"type": st.just("constant"), "value": _NUMBER}),
    st.fixed_dictionaries({"type": st.just("component"), "index": _COUNT}),
    st.fixed_dictionaries(
        {
            "type": st.just("monomial"),
            "coeff": _NUMBER,
            "exponents": st.lists(_COUNT, max_size=4) | _JSON,
        }
    ),
    st.dictionaries(st.sampled_from(["type", "value", "index", "coeff", "exponents"]), _JSON),
    _JSON,
)


def _valid_theta_dict(d) -> bool:
    """The manifest grammar, written out independently of the parser."""
    count = lambda v: type(v) is int and v >= 0
    big = float(np.finfo(float).max)
    number = lambda v: type(v) in (int, float) and -big <= v <= big  # NaN fails too
    if not isinstance(d, dict):
        return False
    kind = d.get("type")
    if kind == "constant":
        return number(d.get("value"))
    if kind == "component":
        return count(d.get("index"))
    return (
        kind == "monomial"
        and number(d.get("coeff"))
        and type(d.get("exponents")) is list
        and all(map(count, d["exponents"]))
    )


@given(_THETA_DICTS, st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_theta_grammar_fuzz(d, seed):
    # a dict is either refused with a ValueError, or it is a theta that
    # survives the JSON round trip and that the table evaluates as the oracle
    try:
        t = theta_from_dict(d)
    except ValueError:
        assert not _valid_theta_dict(d)
        return
    assert _valid_theta_dict(d)
    assert theta_from_dict(theta_to_dict(t)) == t
    mu = np.random.default_rng(seed).uniform(-2.0, 2.0, len(t.exponents) + 1)
    assert np.isclose(_theta(t, mu), oracles.theta_value(t, mu), rtol=1e-13, atol=1e-300)


def test_zero_exponent_monomial_is_parameter_independent():
    sys = make_scalar_ode()
    A = sys.A.terms[0][1]
    for theta in (theta_constant(2.0), theta_monomial(2.0, (0, 0))):
        assert replace(sys, A=AffineOperator(terms=((theta, A),))).parameter_independent_A
    for theta in (theta_monomial(2.0, (0, 1)), theta_callable(lambda mu: 2.0)):
        assert not replace(sys, A=AffineOperator(terms=((theta, A),))).parameter_independent_A


def test_theta_table_without_callables_or_factors():
    table = ThetaTable.compile((theta_constant(3.0), theta_constant(-1.0)))
    assert table.dim == 0 and table.idx.shape == (2, 0) and table.calls == ()
    assert np.array_equal(table(np.zeros(2)), [3.0, -1.0])
    assert np.array_equal(table(np.zeros((4, 1))), np.tile([3.0, -1.0], (4, 1)))


def test_theta_table_rejects_short_parameter():
    table = ThetaTable.compile(_mixed_thetas())
    for mu in (np.ones(3), np.ones((7, 3))):
        with pytest.raises(ParameterDimensionMismatch, match="parameter has dimension 3"):
            table(mu)
    # a monomial needs as many components as it lists exponents, as in the oracle
    with pytest.raises(ParameterDimensionMismatch):
        ThetaTable.compile((theta_monomial(1.0, (1, 0, 0)),))(np.ones(2))
    with pytest.raises(ParameterDimensionMismatch):
        oracles.theta_value(theta_monomial(1.0, (1, 0, 0)), np.ones(2))


# -- affine operators --------------------------------------------------------


def test_affine_eval_single_constant_term():
    M = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    op = AffineOperator.constant(M)
    out = affine_eval(op, np.zeros(1))
    assert np.allclose(out.toarray(), M.toarray())


def test_affine_eval_linearity():
    M1 = sp.identity(2, format="csr")
    M2 = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    op = AffineOperator(
        terms=((theta_component(0), M1), (theta_constant(1.0), M2))
    )
    out = affine_eval(op, np.array([2.0])).toarray()
    assert np.allclose(out, 2.0 * M1.toarray() + M2.toarray())


@given(
    c1=st.floats(-5, 5, allow_nan=False),
    c2=st.floats(-5, 5, allow_nan=False),
    mu=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_affine_eval_superposition(c1, c2, mu):
    M1 = np.array([[1.0, 0.5], [0.0, 2.0]])
    M2 = np.array([[0.0, 1.0], [1.0, -1.0]])
    op = AffineOperator(
        terms=(
            (theta_monomial(c1, (1,)), M1),
            (theta_constant(c2), M2),
        )
    )
    out = affine_eval(op, np.array([mu]))
    assert np.allclose(out, c1 * mu * M1 + c2 * M2, atol=1e-12)


def test_control_sample_rhs_matches_direct_product():
    # nodal control samples as parameter components reproduce B u(t_k)
    rng = np.random.default_rng(0)
    B = rng.standard_normal((3, 2))
    grid = TimeGrid(T=1.0, K=4)
    u = rng.standard_normal((2, grid.K + 1))
    terms = []
    for j in range(2):
        for k in range(grid.K + 1):
            def f(t, _col=B[:, j], _k=k, _grid=grid):
                t = np.atleast_1d(np.asarray(t, dtype=float))
                s = np.clip(1.0 - np.abs(t / _grid.dt - _k), 0.0, None)
                return np.outer(_col, s)
            terms.append((theta_component(j * (grid.K + 1) + k), f))
    op = AffineOperator(terms=tuple(terms))
    mu = u.ravel()
    got = sample_rhs(op, mu, grid.nodes)
    assert np.allclose(got, B @ u, atol=1e-12)


# -- validate_system ---------------------------------------------------------


def test_validate_rlc_clean():
    assert validate_system(make_rlc(RlcParams())) == []


def test_validate_dimension_mismatch():
    sys = make_scalar_ode()
    bad = DaeSystem(
        n=3,
        E=sys.E,
        A=AffineOperator.constant(sp.identity(4, format="csr")),
        rhs=sys.rhs,
        x0=None,
        T=1.0,
    )
    diags = validate_system(bad)
    assert any("shape" in d for d in diags)


def test_validate_bad_horizon():
    sys = make_scalar_ode()
    bad = DaeSystem(n=1, E=sys.E, A=sys.A, rhs=sys.rhs, x0=None, T=0.0)
    diags = validate_system(bad)
    assert any("horizon" in d for d in diags)


def test_validate_inconsistent_x0_warns():
    # E = 0 forces x = -f; x0 = 1 with f(0) = 0 is inconsistent
    sys = DaeSystem(
        n=1,
        E=sp.csr_matrix((1, 1)),
        A=AffineOperator.constant(sp.identity(1, format="csr")),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([0.0])),)),
        x0=AffineOperator(terms=((theta_constant(1.0), np.array([1.0])),)),
        T=1.0,
    )
    diags = validate_system(sys)
    assert any(d.startswith("warning") for d in diags)


def test_validate_consistency_check_reports_failing_sampler():
    def broken(t):
        raise ValueError("sampler broke")

    sys = DaeSystem(
        n=1,
        E=sp.csr_matrix((1, 1)),
        A=AffineOperator.constant(sp.identity(1, format="csr")),
        rhs=AffineOperator(terms=((theta_constant(1.0), broken),)),
        x0=AffineOperator(terms=((theta_constant(1.0), np.array([1.0])),)),
        T=1.0,
    )
    diags = validate_system(sys)
    assert diags == [
        "warning: consistency check skipped: ValueError: sampler broke"
    ]


# -- kernel_basis ------------------------------------------------------------


def test_kernel_basis_rlc():
    V = kernel_basis(sp.csr_matrix(np.diag([1.0, 1.0, 0.0, 0.0])))
    assert V.d == 2
    # spans e3, e4
    P = V.V @ V.V.T
    expected = np.diag([0.0, 0.0, 1.0, 1.0])
    assert np.allclose(P, expected, atol=1e-12)


def test_kernel_basis_identity():
    V = kernel_basis(sp.identity(3, format="csr"))
    assert V.d == 0
    assert V.V.shape == (3, 0)


def test_kernel_basis_zero_matrix():
    V = kernel_basis(sp.csr_matrix((1, 1)))
    assert V.d == 1
    assert abs(abs(V.V[0, 0]) - 1.0) < 1e-14


@given(seed=st.integers(0, 1000), n=st.integers(1, 5), rank=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_kernel_basis_invariants(seed, n, rank):
    rank = min(rank, n)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    W = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.zeros(n)
    s[:rank] = 0.5 + rng.random(rank)
    E = sp.csr_matrix(U @ np.diag(s) @ W.T)
    kb = kernel_basis(E)
    assert kb.d == n - rank
    scale = abs(E).max() if E.nnz else 1.0
    if kb.d > 0:
        assert np.abs(E.T @ kb.V).max() <= 1e-10 * max(scale, 1.0)
        assert np.abs(kb.V.T @ kb.V - np.eye(kb.d)).max() <= 1e-12


# -- pencil index ------------------------------------------------------------
# E is symmetric in every case here, so V from kernel_basis spans ker E as well
# as ker E^T, and the pencil has index 1 iff the d x d matrix V^T A V is
# nonsingular; d = 0 is an ODE.


def _kernel_rank(sys) -> tuple[int, int]:
    """(d, rank of V^T A V)."""
    V = kernel_basis(sys.E).V
    return V.shape[1], int(np.linalg.matrix_rank(V.T @ (sys.A_at(None) @ V)))


def test_pencil_rlc_index_one():
    assert _kernel_rank(make_rlc(RlcParams())) == (2, 2)


def test_pencil_ode_index_zero(scalar_ode):
    assert _kernel_rank(scalar_ode) == (0, 0)


def test_pencil_canonical_index_one():
    sys = DaeSystem(
        n=2,
        E=sp.csr_matrix(np.diag([1.0, 0.0])),
        A=AffineOperator.constant(sp.csr_matrix(-np.eye(2))),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([0, 0])),)),
        x0=None,
        T=1.0,
    )
    assert _kernel_rank(sys) == (1, 1)


def test_pencil_stokes_index_two():
    # the pressure block of A is zero: index > 1
    assert _kernel_rank(make_stokes_like(StokesLikeParams(m_g=3))) == (8, 0)


def test_pencil_irregular_raises():
    # E = 0 and A singular: det(lambda E - A) == 0 identically, and the
    # stiffness is singular, so the Cholesky certificate fails
    sys = DaeSystem(
        n=2,
        E=sp.csr_matrix((2, 2)),
        A=AffineOperator.constant(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([0, 0])),)),
        x0=None,
        T=1.0,
    )
    with pytest.raises(FactorizationFailure, match="not positive definite"):
        solve_detailed(sys, None, TimeGrid(T=1.0, K=8))
