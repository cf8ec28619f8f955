"""End-to-end tests of the command-line interface (in-process)."""

import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from uwdae import AffineOperator, DaeSystem, TimeGrid, kernel_basis
from uwdae.assembly import vectorize_samples
from uwdae.bench import RlcParams, StokesLikeParams, make_rlc, make_stokes_like
from uwdae.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from uwdae.detailed import DetailedOperator, l2_difference, l2_norm
from uwdae.manifest import load_manifest, write_manifest
from uwdae.system_model import constant_sampler, sample_rhs_terms, theta_constant

import oracles
from conftest import make_algebraic, make_decay


@pytest.fixture
def rlc_manifest(tmp_path):
    write_manifest(make_rlc(RlcParams()), tmp_path / "rlc", grid_K=64)
    return tmp_path / "rlc"


@pytest.fixture
def stokes_manifest(tmp_path):
    write_manifest(make_stokes_like(StokesLikeParams(m_g=4)), tmp_path / "stokes", grid_K=40)
    return tmp_path / "stokes"


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def test_solve_rlc(rlc_manifest, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["solve", "--manifest", str(rlc_manifest), "--K", "100", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, data = _read_csv(out / "trajectory.csv")
    assert header == ["t", "x_1", "x_2", "x_3", "x_4"]
    assert data.shape == (100, 5)
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"dims", "residual", "estimator", "wall_ms"}
    assert summary["dims"] == 4 * 100 + 2


def test_solve_writes_outputs(stokes_manifest, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--manifest", str(stokes_manifest), "--out", str(out)]) == EXIT_OK
    _, traj = _read_csv(out / "trajectory.csv")
    header, outputs = _read_csv(out / "outputs.csv")
    assert header == ["t", "y_1"]
    assert np.array_equal(outputs[:, 0], traj[:, 0])
    C = load_manifest(stokes_manifest)[0].output_matrix
    want = (C @ traj[:, 1:].T).T
    assert np.abs(outputs[:, 1:] - want).max() <= 1e-15 * np.abs(want).max()


def test_solve_prints_validation_warning(tmp_path, capsys):
    # E = 0 forces x = -f = 0, so x0 = 1 is inconsistent: a warning, not an error
    sys = DaeSystem(
        n=1,
        E=sp.csr_matrix((1, 1)),
        A=AffineOperator.constant(sp.identity(1, format="csr")),
        rhs=AffineOperator(terms=((theta_constant(1.0), constant_sampler([0.0])),)),
        x0=AffineOperator(terms=((theta_constant(1.0), np.array([1.0])),)),
        T=1.0,
    )
    write_manifest(sys, tmp_path / "inconsistent", grid_K=8)
    args = ["solve", "--manifest", str(tmp_path / "inconsistent"), "--out", str(tmp_path / "o")]
    assert main(args) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("warning: initial value appears inconsistent with f(0+)")


def test_solve_decay_manifest_starts_from_x0(tmp_path):
    # x' = -x, x(0) = 1: the written trajectory is exp(-t), not x = 0
    write_manifest(make_decay(), tmp_path / "decay")
    out = tmp_path / "out"
    args = ["solve", "--manifest", str(tmp_path / "decay"), "--K", "64", "--out", str(out)]
    assert main(args) == EXIT_OK
    _, data = _read_csv(out / "trajectory.csv")
    assert np.abs(data[:, 1] - np.exp(-data[:, 0])).max() <= 2e-3


def test_short_parameter_is_input_error(rlc_manifest, tmp_path, capsys):
    path = rlc_manifest / "manifest.json"
    doc = json.loads(path.read_text())
    doc["rhs"][0]["theta"] = {"type": "component", "index": 3}
    path.write_text(json.dumps(doc))
    args = ["solve", "--manifest", str(rlc_manifest), "--mu", "1", "--out", str(tmp_path / "o")]
    assert main(args) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: thetas use 4 components, parameter has dimension 1")


def test_every_manifest_command_validates(tmp_path, capsys):
    # a NaN in A is refused before any solve, by solve, greedy and reduce alike
    import scipy.io

    write_manifest(make_stokes_like(StokesLikeParams(m_g=3)), tmp_path / "nan", grid_K=8)
    A = sp.coo_matrix(scipy.io.mmread(str(tmp_path / "nan" / "A0.mtx")))
    A.data[0] = np.nan
    scipy.io.mmwrite(str(tmp_path / "nan" / "A0.mtx"), A)
    manifest = ["--manifest", str(tmp_path / "nan"), "--out", str(tmp_path / "o")]
    for args in (["solve"], ["greedy", "--K", "8"], ["reduce", "--K", "8", "--Ku-list", "4,8"]):
        assert main(args + manifest) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "A term 0 has nonfinite entries" in err and "backward error" not in err


def test_solve_missing_manifest(tmp_path, capsys):
    code = main(
        ["solve", "--manifest", str(tmp_path / "none"), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_INPUT
    assert "none" in capsys.readouterr().err


def test_solve_algebraic_manifest(tmp_path):
    write_manifest(make_algebraic(), tmp_path / "alg", grid_K=32)
    out = tmp_path / "out"
    assert main(["solve", "--manifest", str(tmp_path / "alg"), "--out", str(out)]) == EXIT_OK
    _, data = _read_csv(out / "trajectory.csv")
    # E = 0 forces x = -f = -t at the sampled midpoints
    assert np.abs(data[:, 1] + data[:, 0]).max() < 1e-10


def test_solve_export_system(rlc_manifest, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "solve",
            "--manifest",
            str(rlc_manifest),
            "--K",
            "16",
            "--out",
            str(out),
            "--export-system",
        ]
    )
    assert code == EXIT_OK
    import scipy.io

    B = scipy.io.mmread(str(out / "BN.mtx")).toarray()
    assert B.shape == (66, 66)
    sys, _ = load_manifest(rlc_manifest)
    grid = TimeGrid(T=sys.T, K=16)
    want = oracles.kron_stiffness(sys, np.zeros(1), grid, kernel_basis(sys.E)).toarray()
    assert np.abs(B - want).max() <= 1e-14 * np.abs(want).max()


def test_solve_indefinite_stiffness_exits_numerical(rlc_manifest, tmp_path, capsys, monkeypatch):
    # a negated (negative definite) stiffness fails the Cholesky certificate
    import dataclasses

    import uwdae.detailed

    assemble = uwdae.detailed.assemble_stiffness

    def negated(*args, **kwargs):
        B = assemble(*args, **kwargs)
        return dataclasses.replace(B, rows=tuple(-M for M in B.rows))

    monkeypatch.setattr(uwdae.detailed, "assemble_stiffness", negated)
    code = main(["solve", "--manifest", str(rlc_manifest), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "not positive definite" in err
    assert "Traceback" not in err


def test_solve_control_certificates(stokes_manifest, tmp_path):
    # residual and estimator must belong to the load with the control in it
    t_u = np.linspace(0.0, 1.0, 11)
    u = 50.0 * np.sin(3.0 * t_u)
    csv_path = tmp_path / "u.csv"
    np.savetxt(csv_path, np.column_stack([t_u, u]), delimiter=",", header="t,u_1", comments="")
    out = tmp_path / "out"
    args = ["solve", "--manifest", str(stokes_manifest), "--control", str(csv_path)]
    assert main(args + ["--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())

    sys, _ = load_manifest(stokes_manifest)
    sols, loads = {}, {}
    for K in (40, 80):
        grid = TimeGrid(T=sys.T, K=K)
        op = DetailedOperator(sys, grid)
        nodal = sys.control_matrix @ np.interp(grid.nodes, t_u, u)[None, :]
        nodal = nodal + sum(sample_rhs_terms(sys.rhs, grid.nodes))
        loads[K] = op.stiffness.load(vectorize_samples(nodal))
        sols[K] = op.solve_load(loads[K])
    assert summary["residual"] <= 1e-9 * np.linalg.norm(loads[40])
    # raw refinement-2 estimator = L2 distance of the nested K and 2K solves
    diff = l2_difference(sols[80], sols[40])
    assert abs(summary["estimator"] * np.sqrt(0.75) - diff) <= 1e-8 * diff


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0.0,1.0\n0.5,nan\n1.0,2.0\n", "non-finite"),
        ("0.0,1.0\n0.6,2.0\n0.5,3.0\n1.0,4.0\n", "strictly increasing"),
    ],
    ids=["nan", "non-increasing"],
)
def test_solve_rejects_bad_control_csv(stokes_manifest, tmp_path, capsys, rows, message):
    csv_path = tmp_path / "u.csv"
    csv_path.write_text("t,u_1\n" + rows)
    args = ["solve", "--manifest", str(stokes_manifest), "--control", str(csv_path)]
    assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv"
    code = main(
        ["convergence", "--bench", "rlc", "--K-list", "64,128,256", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, data = _read_csv(out / "convergence.csv")
    assert header == ["K", "rel_err", "rel_est"]
    assert data.shape == (3, 3)
    assert data[1, 1] < data[0, 1]  # error decreases with K
    assert "slope" in capsys.readouterr().out


def test_convergence_unknown_bench(tmp_path, capsys):
    code = main(["convergence", "--bench", "nope", "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT


def test_greedy_reduce_rbsolve_pipeline(tmp_path, capsys):
    out = tmp_path / "greedy"
    code = main(
        [
            "greedy",
            "--bench",
            "stokes",
            "--mg",
            "3",
            "--K",
            "12",
            "--ntrain",
            "40",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    header, data = _read_csv(out / "history.csv")
    assert header == ["N", "max_train_err"]
    assert data[-1, 1] <= 1e-8 * data[0, 1]

    # online solve from the persisted model at a random parameter
    hdr = json.loads((out / "model" / "header.json").read_text())
    rng = np.random.default_rng(0)
    mu = rng.uniform(-1, 1, hdr["parameter_dim"])
    code = main(
        [
            "rbsolve",
            "--model",
            str(out / "model"),
            "--mu",
            ",".join(repr(float(v)) for v in mu),
            "--out",
            str(tmp_path / "rb"),
        ]
    )
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "Delta_N" in text
    x_N = np.load(tmp_path / "rb" / "x_N.npy")
    assert x_N.shape == (hdr["N"],)


def test_greedy_manifest_without_control(rlc_manifest, tmp_path, capsys):
    # one rhs term and no control: a one-dimensional load family, and the
    # single reduced coefficient is the L2 norm of the detailed solution
    out = tmp_path / "greedy"
    args = ["greedy", "--manifest", str(rlc_manifest), "--K", "64", "--out", str(out)]
    assert main(args) == EXIT_OK
    hdr = json.loads((out / "model" / "header.json").read_text())
    assert (hdr["N"], hdr["Qf"], hdr["parameter_dim"]) == (1, 1, 1)
    rb = tmp_path / "rb"
    args = ["rbsolve", "--model", str(out / "model"), "--mu", "0", "--out", str(rb)]
    assert main(args) == EXIT_OK
    sys, _ = load_manifest(rlc_manifest)
    norm = l2_norm(DetailedOperator(sys, TimeGrid(T=sys.T, K=64)).solve())
    x_N = np.load(rb / "x_N.npy")
    assert x_N.shape == (1,)
    assert abs(x_N[0] - norm) <= 1e-10 * norm


def test_rbsolve_summary_reports_no_residual(rlc_manifest, tmp_path):
    # rbsolve computes no residual, so its summary must not print one
    out, rb = tmp_path / "greedy", tmp_path / "rb"
    assert main(["greedy", "--manifest", str(rlc_manifest), "--K", "16", "--out", str(out)]) == EXIT_OK
    assert main(["rbsolve", "--model", str(out / "model"), "--mu", "0", "--out", str(rb)]) == EXIT_OK
    summary = json.loads((rb / "summary.json").read_text())
    assert set(summary) == {"dims", "estimator", "wall_ms"}


def test_greedy_rejects_parameter_dependent_A(tmp_path, capsys):
    import dataclasses

    import scipy.sparse as sp

    from uwdae import AffineOperator, theta_component, theta_constant

    from conftest import make_scalar_ode

    sys = make_scalar_ode()
    minus_one = sp.csr_matrix([[-1.0]])
    A = AffineOperator(((theta_constant(1.0), minus_one), (theta_component(0), minus_one)))
    write_manifest(dataclasses.replace(sys, A=A), tmp_path / "pdep", grid_K=16)
    args = ["greedy", "--manifest", str(tmp_path / "pdep"), "--K", "16"]
    assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "parameter-independent A" in err
    assert "Traceback" not in err


MALFORMED_THETAS = [
    ({"type": "monomial", "coeff": 1, "exponents": [1.5]}, "must be a nonnegative integer, got 1.5"),
    ({"type": "monomial", "coeff": 1, "exponents": [-1]}, "must be a nonnegative integer, got -1"),
    ({"type": "component", "index": "x"}, "component index must be a nonnegative integer"),
    ([{"type": "constant", "value": 1.0}], "not a theta"),
    ({"type": "constant"}, "constant theta has no field 'value'"),
]


@pytest.mark.parametrize("command", ["solve", "greedy"])
@pytest.mark.parametrize("theta, message", MALFORMED_THETAS)
def test_malformed_manifest_theta_is_input_error(
    rlc_manifest, tmp_path, capsys, command, theta, message
):
    # every command refuses the same thetas, with exit 2 and no traceback
    path = rlc_manifest / "manifest.json"
    doc = json.loads(path.read_text())
    doc["rhs"][0]["theta"] = theta
    path.write_text(json.dumps(doc))
    args = [command, "--manifest", str(rlc_manifest), "--K", "16", "--out", str(tmp_path / "out")]
    assert main(args + (["--mu", "2"] if command == "solve" else [])) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert "manifest.json" in err


@pytest.mark.parametrize("theta, message", MALFORMED_THETAS)
def test_malformed_model_theta_is_input_error(rlc_manifest, tmp_path, capsys, theta, message):
    out = tmp_path / "greedy"
    args = ["greedy", "--manifest", str(rlc_manifest), "--K", "16", "--out", str(out)]
    assert main(args) == EXIT_OK
    path = out / "model" / "header.json"
    hdr = json.loads(path.read_text())
    hdr["thetas"][0] = theta
    path.write_text(json.dumps(hdr))
    assert main(["rbsolve", "--model", str(out / "model"), "--mu", "1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


def test_rbsolve_dimension_mismatch(tmp_path, capsys):
    out = tmp_path / "greedy"
    main(
        [
            "greedy",
            "--bench",
            "stokes",
            "--mg",
            "3",
            "--K",
            "8",
            "--ntrain",
            "20",
            "--out",
            str(out),
        ]
    )
    code = main(["rbsolve", "--model", str(out / "model"), "--mu", "1.0,2.0"])
    assert code == EXIT_INPUT
    assert "parameter has dimension 2" in capsys.readouterr().err


def test_reduce_command(tmp_path, capsys):
    out = tmp_path / "red"
    code = main(
        [
            "reduce",
            "--bench",
            "stokes",
            "--mg",
            "3",
            "--K",
            "16",
            "--Ku-list",
            "4,8,16",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    header, data = _read_csv(out / "timereduction.csv")
    assert header == ["Ku", "max_rel_err"]
    errs = data[:, 1]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-10


@pytest.fixture
def stokes_model(tmp_path):
    out = tmp_path / "greedy"
    args = ["greedy", "--bench", "stokes", "--mg", "3", "--K", "8", "--ntrain", "20"]
    assert main(args + ["--out", str(out)]) == EXIT_OK
    return out / "model"


def _rbsolve_control(model, tmp_path, name, t_u, u):
    csv_path = tmp_path / f"{name}.csv"
    np.savetxt(csv_path, np.column_stack([t_u, u]), delimiter=",", header="t,u_1", comments="")
    rb = tmp_path / name
    assert main(["rbsolve", "--model", str(model), "--control", str(csv_path), "--out", str(rb)]) == EXIT_OK
    return np.load(rb / "x_N.npy")


def test_rbsolve_control_reads_time_column(stokes_model, tmp_path):
    # the samples are interpolated onto the model's control nodes, so the
    # same values at other times are another control
    u = np.random.default_rng(0).uniform(-1.0, 1.0, 9)
    x_unit = _rbsolve_control(stokes_model, tmp_path, "unit", np.linspace(0.0, 1.0, 9), u)
    x_early = _rbsolve_control(stokes_model, tmp_path, "early", np.linspace(0.0, 0.1, 9), u)
    assert not np.allclose(x_unit, x_early)
    # samples at the control nodes are the nodal parameter vector itself
    rb = tmp_path / "mu"
    mu = ",".join(repr(float(v)) for v in u)
    assert main(["rbsolve", "--model", str(stokes_model), "--mu", mu, "--out", str(rb)]) == EXIT_OK
    assert np.allclose(np.load(rb / "x_N.npy"), x_unit, rtol=1e-12, atol=0)


def test_model_header_thetas_keep_their_json(stokes_model):
    # one component per control node, then the rhs term A x0 of the initial
    # velocity: a coefficient 1 shifted past the controls, a monomial of zero
    # exponents
    thetas = json.loads((stokes_model / "header.json").read_text())["thetas"]
    assert thetas[:9] == [{"type": "component", "index": k} for k in range(9)]
    assert thetas[9:] == [{"type": "monomial", "coeff": 1.0, "exponents": [0] * 9}]


def test_rbsolve_control_needs_control_grid(stokes_model, tmp_path, capsys):
    # a model saved without a control grid loads for --mu, but cannot place
    # the samples of a control file
    header_path = stokes_model / "header.json"
    header = json.loads(header_path.read_text())
    del header["control_grid"]
    header_path.write_text(json.dumps(header))
    csv_path = tmp_path / "u.csv"
    csv_path.write_text("t,u_1\n0.0,1.0\n1.0,2.0\n")
    assert main(["rbsolve", "--model", str(stokes_model), "--control", str(csv_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "no control grid" in err
    assert "Traceback" not in err
    mu = ",".join(["0.5"] * header["parameter_dim"])
    assert main(["rbsolve", "--model", str(stokes_model), "--mu", mu]) == EXIT_OK


def test_readme_commands_parse():
    # every `uwdae ...` line of the README's sh blocks is a valid command line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("uwdae ")]
    commands = [build_parser().parse_args(shlex.split(ln, comments=True)[1:]).command for ln in lines]
    assert {"solve", "convergence", "greedy", "reduce", "rbsolve"} <= set(commands)
