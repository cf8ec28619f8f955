"""System manifests: JSON header + Matrix-Market matrices + CSV samples.

A manifest directory describes one parameterized DAE: the JSON document
references .mtx files for E, the affine A terms, initial-value vectors
and optional control/output matrices; right-hand-side terms are CSV time
samples (columns t, f_1..f_n) interpolated piecewise linearly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import ManifestError
from .system_model import (
    AffineOperator,
    DaeSystem,
    pw_linear_sampler,
    sample_rhs_terms,
    theta_from_dict,
    theta_to_dict,
)

__all__ = ["load_manifest", "write_manifest", "read_control_csv"]

SCHEMA = "uwdae-manifest-v1"


def _read_matrix(path: Path) -> sp.csr_matrix:
    if not path.exists():
        raise ManifestError(f"matrix file not found: {path}")
    return sp.csr_matrix(scipy.io.mmread(str(path)))


def _read_vector(path: Path) -> np.ndarray:
    if not path.exists():
        raise ManifestError(f"vector file not found: {path}")
    v = np.asarray(scipy.io.mmread(str(path)))
    if sp.issparse(v):
        v = v.toarray()
    return np.asarray(v, dtype=float).ravel()


def _read_time_table(path: Path, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """CSV with a header row and columns t, v_1..v_k -> (t, (k, len(t)))."""
    if not path.exists():
        raise ManifestError(f"{kind} file not found: {path}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ManifestError(f"{path}: non-finite value")
    if np.any(np.diff(data[:, 0]) <= 0):
        raise ManifestError(f"{path}: sample times must be strictly increasing")
    return data[:, 0], data[:, 1:].T


def _read_samples_csv(path: Path, n: int):
    """CSV columns t, f_1..f_n -> vectorized pw-linear sampler."""
    t_nodes, values = _read_time_table(path, "sample")
    if values.shape[0] != n:
        raise ManifestError(
            f"{path}: expected {n + 1} columns (t, f_1..f_{n}), got {values.shape[0] + 1}"
        )
    return pw_linear_sampler(t_nodes, values)


def load_manifest(path) -> tuple[DaeSystem, dict]:
    """Load a system manifest; returns (system, raw header dict)."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if doc.get("schema") != SCHEMA:
        raise ManifestError(
            f"{path}: unrecognized schema tag {doc.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    base = path.parent
    try:
        n = int(doc["n"])
        T = float(doc["T"])
        E = _read_matrix(base / doc["E"])
        A_terms = tuple(
            (theta_from_dict(term["theta"]), _read_matrix(base / term["matrix"]))
            for term in doc["A"]
        )
        rhs_terms = tuple(
            (theta_from_dict(term["theta"]), _read_samples_csv(base / term["samples"], n))
            for term in doc["rhs"]
        )
        x0 = None
        if doc.get("x0"):
            x0 = AffineOperator(
                terms=tuple(
                    (theta_from_dict(term["theta"]), _read_vector(base / term["vector"]))
                    for term in doc["x0"]
                )
            )
        control = (
            _read_matrix(base / doc["control_matrix"]).toarray()
            if doc.get("control_matrix")
            else None
        )
        output = (
            _read_matrix(base / doc["output_matrix"]).toarray()
            if doc.get("output_matrix")
            else None
        )
    except KeyError as exc:
        raise ManifestError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:  # malformed fields, thetas among them
        raise ManifestError(f"{path}: {exc}") from exc
    sys = DaeSystem(
        n=n,
        E=E,
        A=AffineOperator(terms=A_terms),
        rhs=AffineOperator(terms=rhs_terms),
        x0=x0,
        T=T,
        control_matrix=control,
        output_matrix=output,
    )
    return sys, doc


def write_manifest(sys: DaeSystem, directory, grid_K: int | None = None) -> Path:
    """Serialize a system into a manifest directory.

    Right-hand-side samplers are tabulated on a fine uniform grid (1024
    cells) so the round trip preserves any pw-linear source exactly on
    coarser grids.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"schema": SCHEMA, "n": sys.n, "T": sys.T}
    scipy.io.mmwrite(str(directory / "E.mtx"), sp.coo_matrix(sys.E))
    doc["E"] = "E.mtx"
    doc["A"] = []
    for q, (theta, M) in enumerate(sys.A.terms):
        name = f"A{q}.mtx"
        scipy.io.mmwrite(str(directory / name), sp.coo_matrix(M))
        doc["A"].append({"theta": theta_to_dict(theta), "matrix": name})
    doc["rhs"] = []
    t_tab = np.linspace(0.0, sys.T, 1025)
    terms = zip(sys.rhs.thetas, sample_rhs_terms(sys.rhs, t_tab))
    for q, (theta, vals) in enumerate(terms):
        name = f"f{q}.csv"
        with open(directory / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"f_{i+1}" for i in range(sys.n)])
            for k, t in enumerate(t_tab):
                w.writerow([repr(float(t))] + [repr(float(v)) for v in vals[:, k]])
        doc["rhs"].append({"theta": theta_to_dict(theta), "samples": name})
    if sys.x0 is not None:
        doc["x0"] = []
        for q, (theta, v) in enumerate(sys.x0.terms):
            name = f"x0_{q}.mtx"
            scipy.io.mmwrite(str(directory / name), np.asarray(v, dtype=float)[:, None])
            doc["x0"].append({"theta": theta_to_dict(theta), "vector": name})
    if sys.control_matrix is not None:
        scipy.io.mmwrite(str(directory / "B.mtx"), np.asarray(sys.control_matrix))
        doc["control_matrix"] = "B.mtx"
    if sys.output_matrix is not None:
        scipy.io.mmwrite(str(directory / "C.mtx"), np.asarray(sys.output_matrix))
        doc["output_matrix"] = "C.mtx"
    if grid_K is not None:
        doc["grid"] = {"K": int(grid_K)}
    out = directory / "manifest.json"
    out.write_text(json.dumps(doc, indent=2))
    return out


def read_control_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Control sample file with columns t, u_1..u_m; returns (t, (m, len(t))).

    Values must be finite and times strictly increasing.
    """
    return _read_time_table(Path(path), "control")
