"""Result persistence: CSV summaries, a small binary array format, JSON.

The binary format is deliberately minimal: magic ``SMP1``, then version,
kind and shape as little-endian uint32, then the payload as little-endian
float64.  One array per file.  Tables that are not stored (an ensemble's
controls, the costate's Z) are computed for their dump a block of paths at
a time, and no whole table is ever held; the costate's Y is the one table a
dump keeps, from its backward pass.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from .bsde import BsdeSolution
from .forward import ROW_ALIGN, PathEnsemble, time_major
from .reports import VerificationReport

Array = np.ndarray

MAGIC = b"SMP1"
FORMAT_VERSION = 1

KIND_GENERIC = 0
KIND_STATES = 1
KIND_CONTROLS = 2
KIND_COSTATE = 3
KIND_Z = 4

WRITE_BLOCK_BYTES = 1 << 20
# steps per tile when a time-major block is copied to C order for its write
COPY_TILE_STEPS = 16
# the block size of a table computed for its dump: each block costs one
# evaluation per step, so its blocks are larger than the copies written
COMPUTED_BLOCK_BYTES = 16 << 20


def write_array(path, arr: Array, kind: int = KIND_GENERIC) -> None:
    # asarray keeps a 0-d shape
    arr = np.asarray(arr, dtype="<f8")
    rows = np.atleast_1d(arr)
    write_rows(path, arr.shape, kind, lambda block: rows[block], WRITE_BLOCK_BYTES)


def write_rows(
    path, shape: tuple, kind: int, rows_of: Callable[[slice], Array], block_bytes: int | None = None
) -> None:
    """Write an array of ``shape`` that ``rows_of(rows)`` hands out a slice of
    leading rows at a time.

    The slices hold about ``block_bytes`` (default ``COMPUTED_BLOCK_BYTES``)
    and start at multiples of ``ROW_ALIGN`` rows, so a surface evaluated on
    a block gives the rows of a full-width evaluation to the bit (see
    :func:`smpsolve.forward._row_chunks`).  The payload is C order
    whatever the layout of a block: a C-contiguous block is written as it
    is, any other ``WRITE_BLOCK_BYTES`` at a time through one reused
    buffer, so a time-major block is never copied whole.
    """
    block_bytes = COMPUTED_BLOCK_BYTES if block_bytes is None else block_bytes
    header = np.array([FORMAT_VERSION, kind, len(shape), *shape], dtype="<u4")
    n_rows = shape[0] if shape else 1
    row_bytes = max(8 * math.prod(shape[1:]), 1)
    block = max(ROW_ALIGN, block_bytes // row_bytes // ROW_ALIGN * ROW_ALIGN)
    copy = max(1, WRITE_BLOCK_BYTES // row_bytes)
    buffer = None
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.tobytes())
        for start in range(0, n_rows, block):
            rows = rows_of(slice(start, start + block))
            if rows.flags.c_contiguous and rows.dtype == "<f8":
                fh.write(rows.data)
            else:
                if buffer is None:
                    buffer = np.empty((copy, *shape[1:]), dtype="<f8")
                for part in range(0, len(rows), copy):
                    fh.write(_copy_tiled(rows[part : part + copy], buffer).data)
            # released before the next block is computed, not after
            del rows


def _copy_tiled(rows: Array, buffer: Array) -> Array:
    """``rows`` copied into the leading rows of the C-order ``buffer``.

    Rows of a time-major block lie one step apart in memory, so a row by
    row copy reads each step's stretch of rows once per row.  Tiles of
    ``COPY_TILE_STEPS`` steps across all the rows read each stretch once,
    while it is in cache.
    """
    out = buffer[: len(rows)]
    if rows.ndim < 2:
        out[...] = rows
        return out
    for s in range(0, rows.shape[1], COPY_TILE_STEPS):
        out[:, s : s + COPY_TILE_STEPS] = rows[:, s : s + COPY_TILE_STEPS]
    return out


def _by_step(steps: int, at: Callable[[int], Array]) -> Array:
    """The (rows, steps, ...) block, time-major, whose step i is ``at(i)``."""
    first = at(0)
    block = time_major(first.shape[0], steps, *first.shape[1:])
    block[:, 0] = first
    for i in range(1, steps):
        block[:, i] = at(i)
    return block


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
    """Write states and controls next to each other; returns the paths.

    The ensemble keeps no controls table: the (P, N, k) controls are
    recomputed (:meth:`PathEnsemble.control`) a block of paths at a time.
    """
    prefix = Path(prefix)
    paths = [
        prefix.with_name(prefix.name + "_states.smp"),
        prefix.with_name(prefix.name + "_controls.smp"),
    ]
    write_array(paths[0], ensemble.states, KIND_STATES)
    shape = (ensemble.n_paths, ensemble.grid.steps, ensemble.domain.dim)
    write_rows(
        paths[1], shape, KIND_CONTROLS, lambda rows: _by_step(shape[1], lambda i: ensemble.control(i, rows))
    )
    return paths


def save_costates(prefix, solution: BsdeSolution, Y: Array) -> List[Path]:
    """Write Y and Z; returns the paths.

    The solution keeps no Y table: ``Y`` is the (P, N+1, n) table a
    :class:`~smpsolve.bsde.CostateTable` kept from its backward pass.  Nor
    does it keep a Z table, so the (P, N, n, d) table is evaluated from
    :meth:`BsdeSolution.z_at` at the states of the paths it was solved on, a
    block of paths at a time, only for the write.
    """
    states = solution.ensemble.states
    P, steps, n = states.shape[0], solution.grid.steps, states.shape[2]
    if np.shape(Y) != (P, steps + 1, n):
        raise ValueError("Y must be the (n_paths, steps + 1, state_dim) table of the solve")
    prefix = Path(prefix)
    paths = [
        prefix.with_name(prefix.name + "_y.smp"),
        prefix.with_name(prefix.name + "_z.smp"),
    ]
    write_array(paths[0], Y, KIND_COSTATE)
    shape = (P, steps, n, solution.z_coeffs[0].shape[1] // n)
    write_rows(
        paths[1], shape, KIND_Z, lambda rows: _by_step(steps, lambda i: solution.z_at(i, states[rows, i, :]))
    )
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
    k = ensemble.domain.dim
    steps = ensemble.grid.steps
    header = ["path", "step", "time"]
    header += [f"x{j}" for j in range(n)]
    header += [f"u{j}" for j in range(k)]
    controls = _by_step(steps, lambda i: ensemble.control(i, slice(0, P)))
    # the rows csv.writer would write: each float as its repr, which keeps
    # every digit and never needs quoting, and CRLF line ends.  The step and
    # time cells are the same on every path, and the repr of a path's whole
    # list of rows gives the rest in one call
    steps_times = [f"{i},{t!r}," for i, t in enumerate(ensemble.grid.times().tolist())]
    # the terminal node has no control, and its k cells stay empty
    blank = "," * k
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for p in range(P):
            cells = np.concatenate([ensemble.states[p, :steps], controls[p]], axis=1).tolist()
            cells.append(ensemble.states[p, steps].tolist())
            rows = repr(cells)[2:-2].replace(", ", ",").split("],[")
            rows[-1] += blank
            fh.write("".join(f"{p},{at}{row}\r\n" for at, row in zip(steps_times, rows)))


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
