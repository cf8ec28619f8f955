"""End-to-end tests of the command-line interface (in-process)."""

import csv
import json

import numpy as np
import pytest

from uwdae.bench import RlcParams, make_rlc
from uwdae.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from uwdae.manifest import write_manifest

from conftest import make_algebraic


@pytest.fixture
def rlc_manifest(tmp_path):
    write_manifest(make_rlc(RlcParams()), tmp_path / "rlc", grid_K=64)
    return tmp_path / "rlc"


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

    B = scipy.io.mmread(str(out / "BN.mtx"))
    assert B.shape == (66, 66)


def test_solve_indefinite_stiffness_exits_numerical(rlc_manifest, tmp_path, capsys, monkeypatch):
    # a negated (negative definite) stiffness fails the Cholesky certificate
    import dataclasses

    import uwdae.detailed

    assemble = uwdae.detailed.assemble_stiffness

    def negated(*args, **kwargs):
        B = assemble(*args, **kwargs)
        return dataclasses.replace(B, B11=-B.B11, B12=-B.B12, B21=-B.B21, B22=-B.B22)

    monkeypatch.setattr(uwdae.detailed, "assemble_stiffness", negated)
    code = main(["solve", "--manifest", str(rlc_manifest), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "not positive definite" in err
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
