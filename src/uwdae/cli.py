"""Command-line front end.

Subcommands: solve, convergence, greedy, reduce, rbsolve.
Exit codes: 0 success, 2 input/validation failure, 3 numerical failure.
Validation warnings go to stderr, each line starting "warning:".
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from . import bench
from .errors import FactorizationFailure, ManifestError, ParameterDimensionMismatch, UwdaeError
from .detailed import (
    DetailedOperator,
    estimator_detailed,
    evaluate_state,
    l2_norm,
)
from .manifest import load_manifest, read_control_csv
from .rbm import (
    TrainingSet,
    control_rhs_family,
    estimator_online,
    greedy,
    load_model,
    reduced_solve,
    save_model,
)
from .system_model import AffineOperator, pw_linear_sampler, theta_constant, validate_system
from .temporal import TimeGrid

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _parse_mu(text: str | None) -> np.ndarray | None:
    if text is None:
        return None
    return np.array([float(x) for x in text.split(",") if x.strip()])


def _write_trajectory(path: Path, times, values, prefix: str = "x"):
    values = np.atleast_2d(values)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"{prefix}_{i+1}" for i in range(values.shape[0])])
        for k, t in enumerate(times):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in values[:, k]])


def _summary(path: Path, **fields):
    path.write_text(json.dumps(fields, indent=2))


def _with_control(sys, path):
    """The system with the control B u(t) as one more constant-coefficient rhs term.

    u is the piecewise-linear interpolant of the CSV samples, so solves,
    residuals and estimators on any grid see the same load.
    """
    if sys.control_matrix is None:
        raise ManifestError("--control given, but the system has no control matrix")
    t_u, u = read_control_csv(path)
    B = np.asarray(sys.control_matrix, dtype=float)
    if u.shape[0] != B.shape[1]:
        raise ManifestError(
            f"{path}: {u.shape[0]} control columns, control matrix expects {B.shape[1]}"
        )
    u_of_t = pw_linear_sampler(t_u, u)
    term = (theta_constant(1.0), lambda t: B @ u_of_t(t))
    return replace(sys, rhs=AffineOperator(terms=sys.rhs.terms + (term,)))


def _load_validated(path):
    """(system, header) of a manifest; a hard validation diagnostic is an
    input error, warnings go to stderr."""
    sys, doc = load_manifest(path)
    diags = validate_system(sys)
    hard = [d for d in diags if not d.startswith("warning")]
    if hard:
        raise ManifestError("validation failed:\n  " + "\n  ".join(hard))
    for d in diags:
        print(d, file=_sys.stderr)
    return sys, doc


def cmd_solve(args) -> int:
    sys, doc = _load_validated(args.manifest)
    K = args.K or doc.get("grid", {}).get("K")
    if not K:
        print("no grid size: pass --K or set grid.K in the manifest", file=_sys.stderr)
        return EXIT_INPUT
    if args.control:
        sys = _with_control(sys, args.control)
    grid = TimeGrid(T=sys.T, K=int(K))
    mu = _parse_mu(args.mu)
    t0 = time.perf_counter()
    op = DetailedOperator(sys, grid, mu=mu)
    sol = op.solve(mu)
    residual = float(np.linalg.norm(op.stiffness @ sol.coeffs - op.rhs_vector(sol.mu)))
    delta = estimator_detailed(sol, refinement=args.refine)
    wall_ms = 1000.0 * (time.perf_counter() - t0)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    states = evaluate_state(sol, mids)
    _write_trajectory(out / "trajectory.csv", mids, states)
    if sys.output_matrix is not None:
        _write_trajectory(out / "outputs.csv", mids, sys.output_matrix @ states, "y")
    _summary(out / "summary.json", dims=op.dim, residual=residual, estimator=delta, wall_ms=wall_ms)
    if args.export_system:
        band = op.stiffness.band()  # mirrored: the lower triangle plus its transpose
        lower = sp.dia_matrix((band, -np.arange(band.shape[0])), shape=(op.dim, op.dim))
        scipy.io.mmwrite(str(out / "BN.mtx"), lower + sp.tril(lower, -1).T)
        scipy.io.mmwrite(str(out / "fN.mtx"), op.rhs_vector(sol.mu)[:, None])
    norm = l2_norm(sol)
    print(f"dims={op.dim} residual={residual:.3e} estimator={delta:.3e} " f"l2_norm={norm:.6e}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    if args.bench == "rlc":
        p = bench.RlcParams(R=args.R, L=args.L, C=args.C, T=args.T)
        sys = bench.make_rlc(p)
        reference = lambda t: bench.rlc_analytic(p, t)
    else:
        print(f"unknown benchmark {args.bench!r}", file=_sys.stderr)
        return EXIT_INPUT
    K_list = [int(k) for k in args.K_list.split(",")]
    rows, slope = bench.convergence_study(sys, reference, K_list, refinement=args.refine)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "convergence.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K", "rel_err", "rel_est"])
        for row in rows:
            w.writerow([row[0], repr(float(row[1])), repr(float(row[2]))])
    print(f"fitted log-log slope: {slope:.3f}")
    return EXIT_OK


def _bench_or_manifest(args):
    """The system of ``--bench stokes`` or ``--manifest``."""
    if args.bench == "stokes":
        return bench.make_stokes_like(bench.StokesLikeParams(m_g=args.mg, T=args.T))
    if args.manifest:
        return _load_validated(args.manifest)[0]
    raise ManifestError("pass --manifest or --bench stokes")


def cmd_greedy(args) -> int:
    sys = _bench_or_manifest(args)
    op = DetailedOperator(sys, TimeGrid(T=sys.T, K=args.K))
    family = control_rhs_family(op, control_grid=TimeGrid(T=sys.T, K=args.Ku or args.K))
    train = TrainingSet.uniform(family.parameter_dim, args.ntrain, args.seed)
    n_max = args.nmax or family.Qf
    t0 = time.perf_counter()
    model, history = greedy(op, family, train, eps=args.eps, n_max=n_max)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    out = Path(args.out)
    save_model(model, out / "model")
    with open(out / "history.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "max_train_err"])
        for N, _, err in history:
            w.writerow([N, repr(float(err))])
    print(
        f"greedy finished: N={model.N} Qf={model.Qf} "
        f"final_max_err={history[-1][2]:.3e} wall_ms={wall_ms:.0f}"
    )
    return EXIT_OK


def cmd_reduce(args) -> int:
    Ku_list = [int(k) for k in args.Ku_list.split(",")]
    rows = bench.timereduction_study(_bench_or_manifest(args), args.K, Ku_list, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "timereduction.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["Ku", "max_rel_err"])
        for ku, err in rows:
            w.writerow([ku, repr(float(err))])
    for ku, err in rows:
        print(f"Ku={ku:5d}  max_rel_err={err:.3e}")
    return EXIT_OK


def cmd_rbsolve(args) -> int:
    model = load_model(args.model)
    mu = _parse_mu(args.mu)
    if mu is None and args.control:
        if model.control_grid is None:
            print(f"{args.model} records no control grid; pass --mu", file=_sys.stderr)
            return EXIT_INPUT
        t_u, u = read_control_csv(args.control)
        mu = pw_linear_sampler(t_u, u)(model.control_grid.nodes).ravel()
    if mu is None:
        print("pass --mu or --control", file=_sys.stderr)
        return EXIT_INPUT
    if mu.size != model.parameter_dim:
        print(
            f"parameter has dimension {mu.size}, model expects {model.parameter_dim}",
            file=_sys.stderr,
        )
        return EXIT_INPUT
    t0 = time.perf_counter()
    x_N = reduced_solve(model, mu)
    delta = estimator_online(model, mu, x_N)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    print(f"x_N = {np.array2string(x_N, precision=6, max_line_width=100)}")
    print(f"Delta_N = {delta:.6e}")
    print(f"wall_ms = {wall_ms:.3f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        np.save(out / "x_N.npy", x_N)
        _summary(out / "summary.json", dims=model.N, estimator=delta, wall_ms=wall_ms)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uwdae", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="detailed ultraweak solve from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--mu", default=None, help="comma-separated parameter vector")
    p.add_argument("--control", default=None, help="CSV control samples (t,u_1..u_m)")
    p.add_argument("--refine", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--export-system", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convergence", help="error/estimator convergence study")
    p.add_argument("--bench", default="rlc")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--T", type=float, default=4.0 * np.pi)
    p.add_argument("--K-list", default="64,128,256,512")
    p.add_argument("--refine", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("greedy", help="weak greedy reduced basis training")
    p.add_argument("--manifest", default=None)
    p.add_argument("--bench", default=None)
    p.add_argument("--mg", type=int, default=8)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--Ku", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--ntrain", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("reduce", help="control-grid reduction study")
    p.add_argument("--manifest", default=None)
    p.add_argument("--bench", default=None)
    p.add_argument("--mg", type=int, default=8)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--Ku-list", default="10,25,50,100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("rbsolve", help="online reduced solve from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--control", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rbsolve)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, ParameterDimensionMismatch, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except FactorizationFailure as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except UwdaeError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
