"""Binary state snapshots and CSV trace persistence.

Snapshot layout: magic ``ELSNAP1\\n``, an ASCII header (dim, cells and
spacing per axis, the boundary condition, always ``periodic``, time), a
``data`` marker, then little-endian 8-byte floats in node-major row-major
order, ``grid.shape + (3,)``: v (3 components), d (3 components), p
(1 component).  Fields are component-major in memory, so the vectors are
transposed as they are written and read.  Round trips are bit-exact.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import fields

import numpy as np

from .dynamics import State
from .energetics import EnergyTrace, RelativeTrace
from .grid import Grid, ScalarField, VectorField

MAGIC = b"ELSNAP1\n"
#: The keys of a snapshot header, in the order write_snapshot writes them.
HEADER_KEYS = ("dim", "n", "h", "bc", "time")

#: CSV column order for trace files: the fields of EnergyTrace, then those of
#: RelativeTrace after their shared ``t``, then the energy-law residual.
TRACE_COLUMNS = tuple(dict.fromkeys(
    [f.name for trace in (EnergyTrace, RelativeTrace) for f in fields(trace)] + ["residual_energy"]
))


class SnapshotError(IOError):
    """Malformed, truncated, or non-finite snapshot file."""


def check_trace_path(path: str) -> str:
    """``path``, if a trace file can be written there: a path that is not
    empty, not a directory, in a directory that exists; else ValueError."""
    if not path:
        raise ValueError("empty path")
    if os.path.isdir(path):
        raise ValueError(f"{path} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"{path}: no directory {directory}")
    return path


def check_snapshot_dir(path: str) -> str:
    """``path``, if snapshots can be written there: a path that is not
    empty, and a directory or one that can be made, its nearest existing
    ancestor a directory; else ValueError."""
    if not path:
        raise ValueError("empty path")
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValueError(f"{path}: {existing} is not a directory")
    return path


def _atomic_write(path: str, *chunks):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".snap-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(state: State, path: str):
    """Stream magic, header and arrays into the file: the vectors as
    node-major copies, the pressure as it is if it is C-contiguous ``<f8``."""
    grid = state.v.grid
    if not math.isfinite(state.t):
        raise SnapshotError(f"{path}: refusing to write non-finite time {state.t!r}")
    header = (
        f"dim {grid.dim}\n"
        f"n {' '.join(str(v) for v in grid.n)}\n"
        f"h {' '.join(repr(v) for v in grid.h)}\n"
        "bc periodic\n"
        f"time {state.t!r}\n"
        "data\n"
    ).encode("ascii")
    arrays = [
        np.ascontiguousarray(np.moveaxis(state.v.values, 0, -1), dtype="<f8"),
        np.ascontiguousarray(np.moveaxis(state.d.values, 0, -1), dtype="<f8"),
        np.ascontiguousarray(state.p.values, dtype="<f8"),
    ]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise SnapshotError(f"{path}: refusing to write non-finite values")
    _atomic_write(path, MAGIC, header, *arrays)


def read_snapshot(path: str) -> State:
    """The state in the file: the header is decoded from the bytes before the
    ``data`` marker and the payload read in place after it.  A header that
    is not ASCII, or gives a key twice or one not in HEADER_KEYS, is refused."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise SnapshotError(f"{path}: bad magic, not a snapshot file")
    marker = b"data\n"
    idx = blob.find(marker, len(MAGIC))
    if idx < 0:
        raise SnapshotError(f"{path}: missing data marker")
    # a byte that is not ASCII reads as a lone surrogate, which no check accepts
    header, offset = blob[len(MAGIC):idx].decode("ascii", "surrogateescape"), idx + len(marker)

    fields = {}  # each key that write_snapshot writes, once
    for key, _, value in (line.partition(" ") for line in header.splitlines()):
        if key not in HEADER_KEYS or key in fields:
            raise SnapshotError(f"{path}: {'repeated' if key in fields else 'unknown'} header key {key!r}")
        fields[key] = value
    try:
        dim = int(fields["dim"])
        n = tuple(int(v) for v in fields["n"].split())
        h = tuple(float(v) for v in fields["h"].split())
        bc = fields["bc"]
        t = float(fields["time"])
    except (KeyError, ValueError) as exc:
        raise SnapshotError(f"{path}: malformed header ({exc})")
    if bc != "periodic":
        raise SnapshotError(f"{path}: unsupported boundary condition {bc!r}")
    if len(n) != dim or len(h) != dim:
        raise SnapshotError(f"{path}: header axis counts disagree with dim")
    if not math.isfinite(t):
        raise SnapshotError(f"{path}: non-finite time {t!r}")
    try:
        grid = Grid(n=n, h=h)
    except ValueError as exc:
        raise SnapshotError(f"{path}: malformed header ({exc})")

    count = grid.cell_count
    expected = (3 * count + 3 * count + count) * 8
    if len(blob) - offset != expected:
        raise SnapshotError(
            f"{path}: truncated or oversized payload ({len(blob) - offset} bytes, expected {expected})"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=offset)
    if not np.all(np.isfinite(flat)):
        raise SnapshotError(f"{path}: non-finite values in payload")
    v, d = (np.moveaxis(flat[i * count: (i + 3) * count].reshape(grid.shape + (3,)), -1, 0) for i in (0, 3))
    p = flat[6 * count:].reshape(grid.shape)
    return State(
        t=t,
        v=VectorField(grid, v.copy()),
        d=VectorField(grid, d.copy()),
        p=ScalarField(grid, p.copy()),
    )


# ---------------------------------------------------------------------------
# CSV traces (17 significant digits for exact double round trips)
# ---------------------------------------------------------------------------

def write_trace_csv(
    path: str,
    energy: EnergyTrace | None = None,
    relative: RelativeTrace | None = None,
    residual=None,
):
    if energy is None and relative is None:
        raise ValueError("need at least one trace to write")
    lengths = {name: len(trace.t) for name, trace in (("energy", energy), ("relative", relative))
               if trace is not None}
    if residual is not None:
        lengths["residual"] = len(residual)
    if len(set(lengths.values())) > 1:
        raise ValueError("traces of different lengths: " + ", ".join(f"{k} {n}" for k, n in lengths.items()))
    n = len(energy.t) if energy is not None else len(relative.t)
    cols = dict.fromkeys(TRACE_COLUMNS, np.zeros(n))
    for trace in (energy, relative):
        if trace is not None:
            cols.update((f.name, getattr(trace, f.name)) for f in fields(trace))
    if residual is not None:
        cols["residual_energy"] = np.asarray(residual)

    # each row's Python floats format as the numpy scalars did
    row = ",".join(["%.17g"] * len(TRACE_COLUMNS))
    table = np.column_stack([cols[name] for name in TRACE_COLUMNS])
    lines = [",".join(TRACE_COLUMNS)] + [row % tuple(values.tolist()) for values in table]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_trace_csv(path: str) -> dict:
    """The columns of a trace file, TRACE_COLUMNS in order; a row that is
    not one float per column is a SnapshotError naming the file and line."""
    # a byte that is not ASCII reads as a lone surrogate, which no float or column name matches
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise SnapshotError(f"{path}: unexpected trace columns {header}")
        rows = []
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(TRACE_COLUMNS):
                raise SnapshotError(f"{path}: line {number}: {len(cells)} values, expected {len(TRACE_COLUMNS)}")
            try:
                rows.append([float(v) for v in cells])
            except ValueError as exc:
                raise SnapshotError(f"{path}: line {number}: {exc}") from None
    data = np.array(rows).reshape(len(rows), len(TRACE_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}
