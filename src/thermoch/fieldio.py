"""Binary and columnar on-disk formats for lattice fields.

Binary layout (little-endian throughout):
    magic   4 bytes  b"THCH"
    version u32      == 1
    dim     u32
    n       u32
    box_len f64
    data    n^dim f64, C-order (row-major over the grid)

The columnar exports are gnuplot-ready: `x value` rows in 1d, `x y value`
rows with blank lines between x-blocks in 2d.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Field, GridSpec

MAGIC = b"THCH"
VERSION = 1

_HEADER = struct.Struct("<4sIIId")


class FieldIOError(IOError):
    """Raised for malformed field files (bad magic/version/grid/shape, or
    non-finite values)."""


def write_field(path: str | Path, f: Field) -> None:
    g = f.grid
    header = _HEADER.pack(MAGIC, VERSION, g.dim, g.n, g.box_len)
    data = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + data)


def read_field(path: str | Path) -> Field:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FieldIOError(f"{path}: truncated header")
    magic, version, dim, n, box_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldIOError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FieldIOError(f"{path}: unsupported version {version}")
    try:
        grid = GridSpec(dim=int(dim), n=int(n), box_len=float(box_len))
        expect = _HEADER.size + 8 * grid.size
        if len(raw) != expect:
            raise FieldIOError(f"{path}: expected {expect} bytes, got {len(raw)}")
        values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(grid.shape)
        return Field(grid, values.copy())
    except ValueError as exc:  # an invalid header grid or a non-finite payload
        raise FieldIOError(f"{path}: {exc}") from None


def write_plot(path: str | Path, f: Field) -> None:
    """Gnuplot-ready columns; 3d fields emit the z=0 slice."""
    g = f.grid
    xs = [repr(x) for x in (np.arange(g.n) * g.h).tolist()]
    plane = f.values if g.dim < 3 else f.values[:, :, 0]
    with open(path, "w") as fh:
        if g.dim == 1:
            fh.writelines(f"{x} {v!r}\n" for x, v in zip(xs, plane.tolist()))
            return
        for xi, row in zip(xs, plane.tolist()):
            fh.writelines([*(f"{xi} {xj} {v!r}\n" for xj, v in zip(xs, row)), "\n"])
