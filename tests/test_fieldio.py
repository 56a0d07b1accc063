"""On-disk field formats: binary round trip, error reporting, plot columns."""

import math
import struct

import numpy as np
import pytest

from spectral_oracle import malformed_field_files
from thermoch.fieldio import (
    MAGIC,
    VERSION,
    FieldIOError,
    read_field,
    write_field,
    write_plot,
)
from thermoch.grid import Field, GridSpec


def random_field(dim: int, n: int, seed: int) -> Field:
    grid = GridSpec(dim=dim, n=n, box_len=2.0 * math.pi)
    rng = np.random.default_rng(seed)
    return Field(grid, rng.normal(size=grid.shape))


class TestBinaryFormat:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_round_trip_is_bit_exact(self, tmp_path, dim, n):
        f = random_field(dim, n, seed=dim)
        path = tmp_path / "f.bin"
        write_field(path, f)
        g = read_field(path)
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_layout_is_the_documented_struct(self, tmp_path):
        f = random_field(1, 8, seed=1)
        path = tmp_path / "f.bin"
        write_field(path, f)
        raw = path.read_bytes()
        magic, version, dim, n, box_len = struct.unpack_from("<4sIIId", raw)
        assert (magic, version, dim, n) == (MAGIC, VERSION, 1, 8)
        assert box_len == f.grid.box_len
        assert len(raw) == struct.calcsize("<4sIIId") + 8 * 8
        first = struct.unpack_from("<d", raw, struct.calcsize("<4sIIId"))[0]
        assert first == f.values[0]

    def test_bad_magic_rejected(self, tmp_path):
        f = random_field(1, 8, seed=2)
        path = tmp_path / "f.bin"
        write_field(path, f)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldIOError, match="magic"):
            read_field(path)

    def test_unsupported_version_rejected(self, tmp_path):
        f = random_field(1, 8, seed=3)
        path = tmp_path / "f.bin"
        write_field(path, f)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldIOError, match="version 99"):
            read_field(path)

    def test_truncated_payload_rejected(self, tmp_path):
        f = random_field(2, 16, seed=4)
        path = tmp_path / "f.bin"
        write_field(path, f)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FieldIOError, match="expected"):
            read_field(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"TH")
        with pytest.raises(FieldIOError, match="truncated"):
            read_field(path)

    @pytest.mark.parametrize(
        "name,match",
        [("n12.bin", "power of two"), ("dim0.bin", "dim must be"), ("nan.bin", "non-finite")],
    )
    def test_invalid_grid_or_payload_rejected(self, tmp_path, name, match):
        path = malformed_field_files(tmp_path)[name]
        with pytest.raises(FieldIOError, match=match) as err:
            read_field(path)
        assert str(path) in str(err.value)
        if name == "nan.bin":  # the payload's last value is the NaN
            assert "non-finite value nan at index (7,)" in str(err.value)

    def test_read_result_is_writable_copy(self, tmp_path):
        f = random_field(1, 8, seed=5)
        path = tmp_path / "f.bin"
        write_field(path, f)
        g = read_field(path)
        g.values[0] = 42.0  # must not raise: not a read-only buffer view


class TestColumnarFormats:
    def test_plot_1d_two_columns(self, tmp_path):
        f = random_field(1, 8, seed=7)
        path = tmp_path / "f.dat"
        write_plot(path, f)
        lines = path.read_text().splitlines()
        assert len(lines) == 8
        x, v = (float(s) for s in lines[3].split())
        assert x == 3 * f.grid.h
        assert v == f.values[3]

    def test_plot_2d_blocks_separated_by_blank_lines(self, tmp_path):
        f = random_field(2, 8, seed=8)
        path = tmp_path / "f.dat"
        write_plot(path, f)
        blocks = path.read_text().split("\n\n")
        blocks = [b for b in blocks if b.strip()]
        assert len(blocks) == 8
        row = blocks[2].splitlines()[5].split()
        assert [float(row[0]), float(row[1])] == [2 * f.grid.h, 5 * f.grid.h]
        assert float(row[2]) == f.values[2, 5]

    def test_plot_3d_emits_z0_slice(self, tmp_path):
        f = random_field(3, 8, seed=9)
        path = tmp_path / "f.dat"
        write_plot(path, f)
        row = path.read_text().split("\n\n")[0].splitlines()[1].split()
        assert float(row[2]) == f.values[0, 1, 0]

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_plot_bytes_equal_per_point_formatting(self, tmp_path, dim, n):
        grid = GridSpec(dim=dim, n=n, box_len=0.7)
        rng = np.random.default_rng(10 + dim)
        values = rng.normal(size=grid.shape) * 10.0 ** rng.integers(-300, 300, grid.shape)
        values.flat[:3] = (-0.0, 0.1, 1e16)
        f = Field(grid, values)
        path = tmp_path / "f.dat"
        write_plot(path, f)
        assert path.read_bytes() == per_point_plot(f).encode()


def per_point_plot(f: Field) -> str:
    """The columns write_plot writes, formatted point by point."""
    g = f.grid
    x = np.arange(g.n) * g.h
    if g.dim == 1:
        return "".join(f"{float(x[i])!r} {float(f.values[i])!r}\n" for i in range(g.n))
    plane = f.values if g.dim == 2 else f.values[:, :, 0]
    out = []
    for i in range(g.n):
        for j in range(g.n):
            out.append(f"{float(x[i])!r} {float(x[j])!r} {float(plane[i, j])!r}\n")
        out.append("\n")
    return "".join(out)
