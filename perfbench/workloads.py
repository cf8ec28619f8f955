"""The three benchmark workloads, written against the public uwdae API.

Each workload has the same shape:

* ``setup(tr)`` builds the system and operator (and, for ``stokes-online``,
  the persisted model) and returns a set-up stage time or None;
* ``inputs()`` yields the input of each operation, drawn from the seed;
* ``operation(x, tr)`` is one timed operation; it returns its output and a
  stage value that ``headline`` turns into ``certify_s`` / ``offline_s``;
* ``check(out, tr)`` verifies an output, untimed, and returns an error
  message or None;
* ``sweep(tr)`` calls the layers the operation does not reach, once per
  traced run, so that every layer is timed with this workload's arguments.

Only names the project keeps are called: no ``SpdFactor``,
``cross_stiffness``, ``cross_grams``, ``StiffnessMatrix`` blocks or ``B_N``.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import time

import numpy as np

from uwdae import (
    DetailedOperator,
    TimeGrid,
    assemble_rhs_operator,
    assemble_stiffness,
    build_grams,
    estimator_detailed,
    evaluate_state,
    kernel_basis,
    l2_error,
    l2_norm,
)
from uwdae.bench import RlcParams, StokesLikeParams, make_rlc, make_stokes_like, rlc_analytic
from uwdae.errors import UwdaeError
from uwdae.rbm import (
    TrainingSet,
    control_rhs_family,
    estimator_online,
    greedy,
    lift,
    load_model,
    reduced_solve,
    save_model,
)

N_TRAIN = 120  # training parameters of every greedy run
SWEEP_QUERIES = 1000  # online queries in the stokes-offline sweep: enough for a p99


def _midpoints(grid: TimeGrid) -> np.ndarray:
    nodes = grid.nodes
    return 0.5 * (nodes[:-1] + nodes[1:])


def _sweep_lower_layers(tr, sys, grid: TimeGrid) -> None:
    """Time kernel basis, temporal Grams (at K and 2K) and assembly once each.

    The memory spans repeat a call under tracemalloc, whose cost would
    otherwise inflate the timed call.
    """
    with tr.span("system_model.kernel_basis"):
        V = kernel_basis(sys.E)
    for name, g in (("temporal.build_grams", grid), ("temporal.build_grams_2k", grid.refine(2))):
        with tr.span(name):
            build_grams(g)
        with tr.span(name, memory=True):
            build_grams(g)
    mu = np.zeros(1)  # the parameter DetailedOperator assembles with by default
    with tr.span("assembly.assemble_stiffness"):
        assemble_stiffness(sys, mu, grid, V)
    with tr.span("assembly.assemble_stiffness", memory=True):
        assemble_stiffness(sys, mu, grid, V)
    with tr.span("assembly.assemble_rhs_operator"):
        assemble_rhs_operator(grid, sys.n, V)


class RlcCertify:
    """RLC circuit (n=4, index 1, d=2), smooth source, K=2048.

    One operation = DetailedOperator -> solve -> estimator_detailed ->
    evaluate_state at the cell midpoints.  The system is fixed and the
    seed draws nothing: every operation repeats the same solve.
    """

    name = "rlc-certify"
    K = 2048
    PROBE_K = 4096
    REFINEMENT = 2
    RATIO_TOL = 1e-3

    def __init__(self, seed: int, workdir):
        self.params = RlcParams()
        self.last_error = None

    def _exact(self, t):
        return rlc_analytic(self.params, t)

    def setup(self, tr):
        with tr.span("bench.make_rlc"):
            self.sys = make_rlc(self.params)
        self.grid = TimeGrid(T=self.sys.T, K=self.K)
        self.mids = _midpoints(self.grid)
        with tr.span("detailed.DetailedOperator"):
            self.detailed = DetailedOperator(self.sys, self.grid)
        return None

    def inputs(self):
        return itertools.repeat(None)

    def operation(self, _, tr):
        t0 = time.perf_counter()
        with tr.span("detailed.DetailedOperator"):
            op = DetailedOperator(self.sys, self.grid)
        # a fresh operator: solve() = load + solve_load with lazy factorization
        with tr.span("detailed.solve_load.first"):
            sol = op.solve()
        solved = time.perf_counter() - t0
        with tr.span("detailed.estimator_detailed"):
            est = estimator_detailed(sol, refinement=self.REFINEMENT)
        with tr.span("detailed.evaluate_state"):
            traj = evaluate_state(sol, self.mids)
        return (sol, est, traj), solved

    def check(self, out, tr):
        sol, est, traj = out
        if traj.shape != (self.sys.n, self.K) or not np.all(np.isfinite(traj)):
            return f"trajectory has shape {traj.shape} or non-finite values"
        with tr.span("detailed.l2_error"):
            err = l2_error(sol, self._exact)
        self.last_error = err
        ratio = est / err
        if not abs(ratio - 1.0) <= self.RATIO_TOL:
            return f"estimator/error = {ratio:.6f}, not within {self.RATIO_TOL} of 1"
        return None

    def headline(self, lat, stages, setup_stages):
        """certify_s: the whole operation; offline_s: system -> detailed solution."""
        return statistics.median(lat), statistics.median(stages)

    def sweep(self, tr):
        _sweep_lower_layers(tr, self.sys, self.grid)
        with tr.span("detailed.solve_load.first"):
            sol = self.detailed.solve()
        with tr.span("detailed.solve_load"):
            self.detailed.solve()
        with tr.span("detailed.estimator_detailed", memory=True):
            estimator_detailed(sol, refinement=self.REFINEMENT)

    def probe(self):
        """One detailed solve at K=4096: a refinement the solver must take.

        Returns (record, check failure or None).  A refusal by the solver
        is a failed operation, not a failed check.
        """
        grid = TimeGrid(T=self.sys.T, K=self.PROBE_K)
        try:
            sol = DetailedOperator(self.sys, grid).solve()
        except UwdaeError as exc:
            return {"K": self.PROBE_K, "ok": False, "error": type(exc).__name__, "message": str(exc)}, None
        err = l2_error(sol, self._exact)
        record = {"K": self.PROBE_K, "ok": True, "l2_error": err}
        # first-order convergence: doubling K must cut the error well below K's
        if self.last_error is not None and not err < self.last_error / 1.5:
            return record, f"K={self.PROBE_K} error {err:.3e} not below K={self.K} error {self.last_error:.3e} / 1.5"
        return record, None

    def sizes(self):
        return {"n": self.sys.n, "K": self.K, "dim": self.detailed.dim, "probe_K": self.PROBE_K}

    def layer_extras(self, stages):
        return {"detailed.dim": self.detailed.dim}


class _Stokes:
    """Stokes-like MAC system m_g=8 (n=175), K=75, a control sample per node."""

    M_G = 8
    K = 75

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def _build(self, tr, train_seed: int):
        with tr.span("bench.make_stokes_like"):
            self.sys = make_stokes_like(StokesLikeParams(m_g=self.M_G))
        self.grid = TimeGrid(T=self.sys.T, K=self.K)
        with tr.span("detailed.DetailedOperator"):
            self.detailed = DetailedOperator(self.sys, self.grid)
        with tr.span("rbm.control_rhs_family"):
            self.family = control_rhs_family(self.detailed)
        self.train = TrainingSet.uniform(self.family.parameter_dim, N_TRAIN, seed=train_seed)

    def _sweep_stokes(self, tr, model, queries):
        """Lower layers, a fresh factorization, online queries and persistence."""
        _sweep_lower_layers(tr, self.sys, self.grid)
        with tr.span("detailed.DetailedOperator"):
            op = DetailedOperator(self.sys, self.grid)
        load = self.family.load(self.train.parameters[0])
        with tr.span("detailed.solve_load.first"):
            sol = op.solve_load(load)
        with tr.span("detailed.solve_load"):
            op.solve_load(load)
        with tr.span("detailed.evaluate_state"):
            evaluate_state(sol, _midpoints(self.grid))
        deltas = []
        for mu in queries:
            with tr.span("rbm.reduced_solve"):
                x_N = reduced_solve(model, mu)
            with tr.span("rbm.estimator_online"):
                deltas.append(estimator_online(model, mu, x_N))
        path = self.workdir / "sweep-model"
        with tr.span("rbm.save_model"):
            save_model(model, path)
        with tr.span("rbm.load_model"):
            load_model(path)
        return deltas

    def sizes(self):
        return {
            "n": self.sys.n,
            "K": self.K,
            "dim": self.detailed.dim,
            "Q_f": self.family.Qf,
            "P": self.family.parameter_dim,
            "N": self.model.N,
        }

    def probe(self):
        return None


class StokesOffline(_Stokes):
    """One operation = fresh DetailedOperator -> control_rhs_family -> greedy(1e-8)."""

    name = "stokes-offline"
    EPS = 1e-8

    def setup(self, tr):
        self._build(tr, train_seed=self.seed)
        return None

    def inputs(self):
        return itertools.repeat(None)

    def operation(self, _, tr):
        with tr.span("detailed.DetailedOperator"):
            op = DetailedOperator(self.sys, self.grid)
        with tr.span("rbm.control_rhs_family"):
            family = control_rhs_family(op)
        t0 = time.perf_counter()
        with tr.span("rbm.greedy"):
            model, history = greedy(op, family, self.train, eps=self.EPS, n_max=family.Qf)
        return (model, history, family.Qf), time.perf_counter() - t0

    def check(self, out, tr):
        model, history, qf = out
        self.model, self.history = model, history
        final = history[-1][2]
        if not final <= self.EPS:
            return f"final max training Delta {final:.3e} > {self.EPS}"
        if not model.N <= qf:
            return f"N = {model.N} exceeds Q_f = {qf}"
        return None

    def headline(self, lat, stages, setup_stages):
        """certify_s: the greedy (factor, Riesz solves, sweeps); offline_s: the operation."""
        return statistics.median(stages), statistics.median(lat)

    def sweep(self, tr):
        rng = np.random.default_rng([self.seed, 1])
        queries = rng.uniform(-1.0, 1.0, size=(SWEEP_QUERIES, self.family.parameter_dim))
        self.sweep_deltas = self._sweep_stokes(tr, self.model, queries)

    def layer_extras(self, stages):
        certified = sum(d <= StokesOnline.EPS for d in self.sweep_deltas)
        return {
            "detailed.dim": self.detailed.dim,
            "rbm.greedy.N": self.model.N,
            "rbm.greedy.steps": len(self.history),
            "rbm.riesz_solves": self.family.Qf,
            "rbm.certified_share": certified / len(self.sweep_deltas),
        }


class StokesOnline(_Stokes):
    """Certified online queries with a detailed fallback, one at a time.

    Set-up runs the greedy to eps=1e-2, then save_model -> load_model as
    ``uwdae rbsolve`` does.  A query is reduced_solve + estimator_online;
    one whose Delta_N exceeds eps is answered by a detailed solve_load on
    the operator's cached factor.
    """

    name = "stokes-online"
    EPS = 1e-2
    REL_TOL = 1e-6
    BLOCK = 1024  # queries drawn per rng call
    # The model is the deployed artifact and stays fixed; the seed draws the
    # queries.  With 120 training parameters the fallback share swings from
    # 0.7% to 6.8% across training seeds, and it sets throughput and p99.
    TRAIN_SEED = 0

    def setup(self, tr):
        t0 = time.perf_counter()
        self._build(tr, train_seed=self.TRAIN_SEED)
        with tr.span("rbm.greedy"):
            model, self.history = greedy(
                self.detailed, self.family, self.train, eps=self.EPS, n_max=self.family.Qf
            )
        offline = time.perf_counter() - t0
        path = self.workdir / "model"
        with tr.span("rbm.save_model"):
            save_model(model, path)
        with tr.span("rbm.load_model"):
            self.model = load_model(path)
        return offline

    def inputs(self):
        rng = np.random.default_rng([self.seed, 2])
        while True:
            yield from rng.uniform(-1.0, 1.0, size=(self.BLOCK, self.family.parameter_dim))

    def operation(self, mu, tr):
        with tr.span("rbm.reduced_solve"):
            x_N = reduced_solve(self.model, mu)
        with tr.span("rbm.estimator_online"):
            delta = estimator_online(self.model, mu, x_N)
        if delta <= self.EPS:
            return (x_N, delta, None), False
        with tr.span("detailed.solve_load"):
            sol = self.detailed.solve_load(self.family.load(mu))
        return (x_N, delta, sol), True

    def check(self, out, tr):
        x_N, delta, sol = out
        if not np.isfinite(delta) or not np.all(np.isfinite(x_N)):
            return "non-finite reduced solution or Delta_N"
        if sol is None:
            return None
        # the fallback's detailed solution gives the true reduction error
        err = l2_norm(dataclasses.replace(sol, coeffs=sol.coeffs - lift(self.model, x_N)))
        if not abs(delta - err) <= self.REL_TOL * err:
            return f"Delta_N {delta:.9e} != true error {err:.9e} (rel tol {self.REL_TOL})"
        return None

    def headline(self, lat, stages, setup_stages):
        """certify_s: a fallback query; offline_s: system -> certified model in set-up."""
        fallbacks = [t for t, fell_back in zip(lat, stages) if fell_back]
        return statistics.median(fallbacks), statistics.median(setup_stages)

    def sweep(self, tr):
        self._sweep_stokes(tr, self.model, [])

    def layer_extras(self, stages):
        return {
            "detailed.dim": self.detailed.dim,
            "rbm.greedy.N": self.model.N,
            "rbm.greedy.steps": len(self.history),
            "rbm.riesz_solves": self.family.Qf,
            "rbm.certified_share": 1.0 - sum(stages) / len(stages),
        }


WORKLOADS = {w.name: w for w in (RlcCertify, StokesOffline, StokesOnline)}
