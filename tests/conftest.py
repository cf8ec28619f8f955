"""Shared fixtures: small closed-form systems and the Stokes-like model.

The Stokes-like greedy model is expensive to build, so it is constructed
once per session and shared by the reduced-basis and acceptance tests.
"""

import sys as _sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

_sys.path.insert(0, str(Path(__file__).parent))

from uwdae import (
    AffineOperator,
    DaeSystem,
    TimeGrid,
)
from uwdae.bench import RlcParams, make_rlc, make_stokes_like, StokesLikeParams
from uwdae.detailed import DetailedOperator
from uwdae.rbm import TrainingSet, control_rhs_family, greedy
from uwdae.system_model import constant_sampler, theta_constant


def make_scalar_ode(T: float = 1.0) -> DaeSystem:
    """x' + x = 1, x(0) = 0; exact solution 1 - exp(-t)."""

    def rhs(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.ones((1, t.size))

    return DaeSystem(
        n=1,
        E=sp.csr_matrix(np.array([[1.0]])),
        A=AffineOperator(terms=((theta_constant(1.0), sp.csr_matrix([[-1.0]])),)),
        rhs=AffineOperator(terms=((theta_constant(1.0), rhs),)),
        x0=None,
        T=T,
    )


def scalar_ode_exact(t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return (1.0 - np.exp(-t))[None, :]


def make_decay() -> DaeSystem:
    """x' + x = 0, x(0) = 1; exact solution exp(-t)."""
    return DaeSystem(
        n=1,
        E=sp.identity(1, format="csr"),
        A=AffineOperator.constant(sp.csr_matrix([[-1.0]])),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([0.0])),)),
        x0=AffineOperator(terms=((theta_constant(1.0), np.array([1.0])),)),
        T=1.0,
    )


def decay_exact(t):
    return np.exp(-np.atleast_1d(np.asarray(t, dtype=float)))[None, :]


def make_algebraic() -> DaeSystem:
    """0 = x + t, i.e. E = 0, A = [1], f(t) = t; solution x = -t."""

    def rhs(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return t[None, :]

    return DaeSystem(
        n=1,
        E=sp.csr_matrix((1, 1)),
        A=AffineOperator(terms=((theta_constant(1.0), sp.csr_matrix([[1.0]])),)),
        rhs=AffineOperator(terms=((theta_constant(1.0), rhs),)),
        x0=None,
        T=1.0,
    )


@pytest.fixture
def scalar_ode():
    return make_scalar_ode()


@pytest.fixture
def algebraic():
    return make_algebraic()


@pytest.fixture
def rlc_params():
    return RlcParams()


@pytest.fixture
def rlc(rlc_params):
    return make_rlc(rlc_params)


# -- session-scoped Stokes-like reduced-basis pipeline ----------------------

STOKES_K = 75
STOKES_TRAIN = 120
STOKES_SEED = 3


@pytest.fixture(scope="session")
def stokes_system():
    return make_stokes_like(StokesLikeParams(m_g=8))


@pytest.fixture(scope="session")
def stokes_op(stokes_system):
    return DetailedOperator(stokes_system, TimeGrid(T=stokes_system.T, K=STOKES_K))


@pytest.fixture(scope="session")
def stokes_family(stokes_op):
    return control_rhs_family(stokes_op, control_grid=stokes_op.grid)


@pytest.fixture(scope="session")
def stokes_training(stokes_family):
    return TrainingSet.uniform(stokes_family.parameter_dim, STOKES_TRAIN, STOKES_SEED)


@pytest.fixture(scope="session")
def stokes_greedy(stokes_op, stokes_family, stokes_training):
    """Full greedy run with eps = 0 up to N_max = Q_f; (model, history)."""
    return greedy(
        stokes_op, stokes_family, stokes_training, eps=0.0, n_max=stokes_family.Qf
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance report lines at the end of the run."""
    mod = _sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance report")
        for line in lines:
            terminalreporter.write_line(line)
