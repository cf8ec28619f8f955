"""Tests for manifest serialization of systems."""

import json

import numpy as np
import pytest

from uwdae import TimeGrid
from uwdae.bench import RlcParams, make_rlc
from uwdae.errors import ManifestError
from uwdae.manifest import load_manifest, read_control_csv, write_manifest
from uwdae.system_model import sample_rhs


def test_roundtrip_rlc(tmp_path):
    sys = make_rlc(RlcParams())
    write_manifest(sys, tmp_path / "rlc", grid_K=64)
    loaded, doc = load_manifest(tmp_path / "rlc")
    assert loaded.n == 4
    assert loaded.T == sys.T
    assert doc["grid"]["K"] == 64
    assert np.allclose(loaded.E.toarray(), sys.E.toarray())
    assert np.allclose(
        loaded.A.terms[0][1].toarray(), sys.A.terms[0][1].toarray()
    )
    t = np.linspace(0, sys.T, 33)
    # tabulated rhs is pw-linear on 1024 cells; agreement is approximate
    assert np.abs(
        sample_rhs(loaded.rhs, None, t) - sample_rhs(sys.rhs, None, t)
    ).max() < 1e-5


def test_roundtrip_preserves_solution(tmp_path):
    sys = make_rlc(RlcParams())
    write_manifest(sys, tmp_path / "rlc")
    loaded, _ = load_manifest(tmp_path / "rlc")
    from uwdae.detailed import l2_norm, solve_detailed

    grid = TimeGrid(T=sys.T, K=64)
    a = solve_detailed(sys, None, grid)
    b = solve_detailed(loaded, None, grid)
    assert abs(l2_norm(a) - l2_norm(b)) < 1e-6 * l2_norm(a)


def test_missing_manifest(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "nope")


def test_missing_matrix_file(tmp_path):
    sys = make_rlc(RlcParams())
    write_manifest(sys, tmp_path / "rlc")
    (tmp_path / "rlc" / "E.mtx").unlink()
    with pytest.raises(ManifestError, match="E.mtx"):
        load_manifest(tmp_path / "rlc")


def test_bad_schema(tmp_path):
    sys = make_rlc(RlcParams())
    write_manifest(sys, tmp_path / "rlc")
    doc = json.loads((tmp_path / "rlc" / "manifest.json").read_text())
    doc["schema"] = "other"
    (tmp_path / "rlc" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="schema"):
        load_manifest(tmp_path / "rlc")


def test_invalid_json(tmp_path):
    d = tmp_path / "rlc"
    d.mkdir()
    (d / "manifest.json").write_text("{not json")
    with pytest.raises(ManifestError, match="JSON"):
        load_manifest(d)


@pytest.mark.parametrize(
    "field, value",
    [("A", [["A0.mtx"]]), ("n", None), ("T", "long")],
)
def test_malformed_field(tmp_path, field, value):
    sys = make_rlc(RlcParams())
    write_manifest(sys, tmp_path / "rlc")
    doc = json.loads((tmp_path / "rlc" / "manifest.json").read_text())
    doc[field] = value
    (tmp_path / "rlc" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="manifest.json"):
        load_manifest(tmp_path / "rlc")


def test_control_csv(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("t,u_1\n0.0,1.5\n0.5,2.5\n1.0,3.5\n")
    t, u = read_control_csv(path)
    assert np.allclose(t, [0.0, 0.5, 1.0])
    assert np.allclose(u, [[1.5, 2.5, 3.5]])


def test_control_csv_missing(tmp_path):
    with pytest.raises(ManifestError):
        read_control_csv(tmp_path / "u.csv")
