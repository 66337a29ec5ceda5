"""Result persistence: CSV summaries, a small binary array format, JSON.

The binary format is deliberately minimal: magic ``SMP1``, then version,
kind and shape as little-endian uint32, then the payload as little-endian
float64.  One array per file.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from .bsde import BsdeSolution
from .forward import PathEnsemble
from .reports import VerificationReport

Array = np.ndarray

MAGIC = b"SMP1"
FORMAT_VERSION = 1

KIND_GENERIC = 0
KIND_STATES = 1
KIND_CONTROLS = 2
KIND_COSTATE = 3
KIND_Z = 4


def write_array(path, arr: Array, kind: int = KIND_GENERIC) -> None:
    # asarray keeps a 0-d shape; tobytes() writes C order whatever the layout
    arr = np.asarray(arr, dtype="<f8")
    header = np.array([FORMAT_VERSION, kind, arr.ndim, *arr.shape], dtype="<u4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.tobytes())
        fh.write(arr.tobytes())


def read_array(path):
    """Read one array file; returns (kind, array).  Bad files raise IOError."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise IOError(f"{path}: not an SMP1 array file")
        version, kind, ndim = (int(v) for v in _read_exactly(fh, 3, "<u4", path))
        if version != FORMAT_VERSION:
            raise IOError(f"{path}: unsupported format version {version}")
        shape = tuple(int(v) for v in _read_exactly(fh, ndim, "<u4", path))
        data = _read_exactly(fh, int(np.prod(shape)), "<f8", path)
    return kind, data.reshape(shape).copy()


def _read_exactly(fh, count: int, dtype: str, path) -> Array:
    size = count * np.dtype(dtype).itemsize
    raw = fh.read(size)
    if len(raw) != size:
        raise IOError(f"{path}: file ends inside its header or payload")
    return np.frombuffer(raw, dtype=dtype)


def save_ensemble(prefix, ensemble: PathEnsemble) -> List[Path]:
    """Write states and controls next to each other; returns the paths."""
    prefix = Path(prefix)
    paths = [
        prefix.with_name(prefix.name + "_states.smp"),
        prefix.with_name(prefix.name + "_controls.smp"),
    ]
    write_array(paths[0], ensemble.states, KIND_STATES)
    write_array(paths[1], ensemble.controls, KIND_CONTROLS)
    return paths


def save_costates(prefix, solution: BsdeSolution) -> List[Path]:
    prefix = Path(prefix)
    paths = [
        prefix.with_name(prefix.name + "_y.smp"),
        prefix.with_name(prefix.name + "_z.smp"),
    ]
    write_array(paths[0], solution.Y, KIND_COSTATE)
    write_array(paths[1], solution.Z, KIND_Z)
    return paths


def write_curves_csv(path, curves: Dict[str, Array]) -> None:
    """Column-per-curve CSV; shorter curves leave trailing cells empty."""
    names = sorted(curves)
    cols = [np.atleast_1d(np.asarray(curves[k])) for k in names]
    length = max((c.shape[0] for c in cols), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(length):
            writer.writerow(
                [repr(float(c[i])) if i < c.shape[0] else "" for c in cols]
            )


def write_paths_csv(path, ensemble: PathEnsemble, max_paths: int = 100) -> None:
    """Long-format trajectory dump of the first ``max_paths`` paths."""
    P = min(ensemble.n_paths, max_paths)
    n = ensemble.state_dim
    k = ensemble.controls.shape[2]
    header = ["path", "step", "time"]
    header += [f"x{j}" for j in range(n)]
    header += [f"u{j}" for j in range(k)]
    # csv writes a float as its repr, so rows of Python floats keep every digit
    times = ensemble.grid.times().tolist()
    states = ensemble.states[:P].tolist()
    controls = ensemble.controls[:P].tolist()
    # the terminal node has no control
    blank = [""] * k
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in range(P):
            writer.writerows(
                [p, i, t, *x, *u]
                for i, (t, x, u) in enumerate(zip(times, states[p], controls[p] + [blank]))
            )


def write_reports_csv(path, reports: List[VerificationReport]) -> None:
    fields = ["check", "status", "statistic", "tolerance", "n_samples", "standard_error", "notes"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for r in reports:
            d = r.to_dict()
            writer.writerow([d.get(f, "") for f in fields])


def jsonable(obj):
    """Coerce numpy containers and scalars into JSON-ready structures."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_results_json(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    With identical payloads this writes identical bytes, which is what the
    reproducibility check diffs (after dropping the metadata block).
    """
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")
