"""Real scalar fields sampled on regular 3-D grids, zero outside the box,
and their versioned binary (F3DB) and text (F3DT) files.  Files store the
payload x-fastest, as FDTD exports do; README's "Field files" section
gives the readers' layout, memory bound and text blocks.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import FieldFormatError, InputError

BINARY_MAGIC = b"F3DB"
TEXT_MAGIC = "F3DT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHH3I3d3d")  # magic, version, pad, dims, spacing, origin
_TEXT_CHUNK = 1 << 13  # values formatted per write of a text payload
_TEXT_BLOCK = 1 << 10  # payload lines parsed per block of a text read
_PROBE_LINES = 64  # a block's first lines: if they hold at most
_PROBE_DISTINCT = 8  # this many distinct lines, the block parses via a memo


@dataclass(frozen=True)
class ScalarField3D:
    """Real scalar samples on a regular 3-D grid."""

    values: np.ndarray = field(repr=False)
    spacing: tuple
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3:
            raise InputError(f"values must be 3-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise InputError("field contains non-finite values")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(0.0 < s < np.inf for s in spacing):
            raise InputError(f"spacing must be three finite numbers > 0, got {self.spacing}")
        origin = tuple(float(o) for o in self.origin)
        if len(origin) != 3 or not np.isfinite(origin).all():
            raise InputError(f"origin must be three finite numbers, got {self.origin}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self):
        return self.values.shape

    def axis(self, dim):
        n = self.values.shape[dim]
        return self.origin[dim] + self.spacing[dim] * np.arange(n)

    def congruent(self, other):
        return (self.values.shape == other.values.shape
                and np.allclose(self.spacing, other.spacing, rtol=1e-12, atol=0.0)
                and np.allclose(self.origin, other.origin, rtol=1e-12,
                                atol=1e-12 * max(self.spacing)))

    def scaled(self, factor):
        return ScalarField3D(values=self.values * factor, spacing=self.spacing,
                             origin=self.origin)


def trapezoid3(values, spacing):
    """Trapezoidal quadrature on the full grid, deterministic summation."""
    wx, wy, wz = (_trapezoid_weights(n) for n in values.shape)
    total = np.einsum("i,j,k,ijk->", wx, wy, wz, values)
    return float(total) * spacing[0] * spacing[1] * spacing[2]


def _trapezoid_weights(n):
    w = np.ones(n)
    if n > 1:
        w[0] = w[-1] = 0.5
    return w


def write_field(field3d, path, fmt="binary"):
    """Serialize the field; fmt is "binary" or "text".

    The payload is written from one x-fastest view of the values, which
    copies nothing for the Fortran-order arrays the readers return.
    """
    payload = np.asarray(field3d.values, dtype="<f8").ravel(order="F")
    nx, ny, nz = field3d.shape
    if fmt == "binary":
        header = _HEADER.pack(BINARY_MAGIC, FORMAT_VERSION, 0, nx, ny, nz,
                              *field3d.spacing, *field3d.origin)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload.data)
    elif fmt == "text":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{TEXT_MAGIC} {FORMAT_VERSION}\n{nx} {ny} {nz}\n")
            for triple in (field3d.spacing, field3d.origin):
                fh.write(" ".join(map(repr, triple)) + "\n")
            for start in range(0, payload.size, _TEXT_CHUNK):
                chunk = payload[start:start + _TEXT_CHUNK].tolist()
                fh.write("".join(f"{v!r}\n" for v in chunk))
    else:
        raise InputError(f"unknown field format {fmt!r}")


def read_field(path):
    """Load a field file, sniffing binary vs text by its magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == BINARY_MAGIC:
        return _read_binary(path)
    if head[:len(TEXT_MAGIC)] == TEXT_MAGIC.encode("ascii"):
        return _read_text(path)
    raise FieldFormatError(
        f"{path}: unrecognized magic {head!r} (expected {BINARY_MAGIC!r} or "
        f"{TEXT_MAGIC!r})", offset=0)


def _read_binary(path):
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FieldFormatError(
                f"{path}: truncated header ({len(raw)} of {_HEADER.size} bytes)",
                offset=len(raw))
        magic, version, _pad, nx, ny, nz, dx, dy, dz, ox, oy, oz = _HEADER.unpack(raw)
        if version != FORMAT_VERSION:
            raise FieldFormatError(
                f"{path}: unsupported format version {version}", offset=4)
        if min(nx, ny, nz) < 1:
            raise FieldFormatError(
                f"{path}: invalid dimensions {(nx, ny, nz)}", offset=8)
        expect = nx * ny * nz * 8
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got != expect:
            raise FieldFormatError(f"{path}: " + (
                f"truncated payload ({got} of {expect} bytes)" if got < expect
                else "trailing bytes after payload"),
                offset=_HEADER.size + min(got, expect))
        # the payload is read straight into the final array: x-fastest, so
        # its (nx, ny, nz) view is in Fortran order
        flat = np.empty(nx * ny * nz, dtype="<f8")
        with memoryview(flat).cast("B") as buf:
            fh.readinto(buf)
    try:
        return ScalarField3D(values=flat.reshape((nx, ny, nz), order="F"),
                             spacing=(dx, dy, dz), origin=(ox, oy, oz))
    except InputError as exc:
        raise FieldFormatError(f"{path}: {exc}", offset=8) from exc


class _FloatMemo(dict):
    """float() of each line looked up, parsed the first time it is seen."""

    def __missing__(self, line):
        value = self[line] = float(line)
        return value


def _read_text(path):
    with open(path, "rb") as fh:
        def next_line():
            at = fh.tell()
            line = fh.readline()
            if not line:
                raise FieldFormatError(f"{path}: unexpected end of file",
                                       offset=at)
            return line.decode("ascii", errors="replace").strip(), at

        line, at = next_line()
        parts = line.split()
        if len(parts) != 2 or parts[0] != TEXT_MAGIC:
            raise FieldFormatError(f"{path}: bad text header {line!r}", offset=at)
        if parts[1] != str(FORMAT_VERSION):
            raise FieldFormatError(
                f"{path}: unsupported format version {parts[1]}", offset=at)

        def parse(kind, count, conv):
            line, at = next_line()
            items = line.split()
            if len(items) != count:
                raise FieldFormatError(
                    f"{path}: expected {count} {kind} entries, got {line!r}",
                    offset=at)
            try:
                return [conv(x) for x in items]
            except ValueError as exc:
                raise FieldFormatError(f"{path}: bad {kind} line {line!r}",
                                       offset=at) from exc

        nx, ny, nz = parse("dimension", 3, int)
        if min(nx, ny, nz) < 1:
            raise FieldFormatError(f"{path}: invalid dimensions {(nx, ny, nz)}",
                                   offset=fh.tell())
        spacing = parse("spacing", 3, float)
        origin = parse("origin", 3, float)
        expect = nx * ny * nz
        payload_at = fh.tell()
        size = os.fstat(fh.fileno()).st_size
        if size - payload_at < 2 * expect - 1:  # a digit and a separator each
            raise FieldFormatError(f"{path}: truncated payload ({size - payload_at} "
                                   f"bytes cannot hold {expect} values)", offset=size)
        values = np.empty(expect)
        try:
            # one value per line, as write_field writes, parsed in C a block
            # at a time; a block whose first lines repeat few values (a
            # material map) calls float() once per distinct line, and after
            # a block of one line repeated, the next block is first compared
            # with that line repeated: if equal, one float() fills it
            same = None
            for start in range(0, expect, _TEXT_BLOCK):
                count = min(_TEXT_BLOCK, expect - start)
                if same is not None:
                    at = fh.tell()
                    if fh.read(len(same) * count) == same * count:
                        values[start:start + count] = float(same)
                        continue
                    fh.seek(at)
                lines = list(islice(fh, count))
                few = len(set(lines[:_PROBE_LINES])) <= _PROBE_DISTINCT
                memo = _FloatMemo()
                values[start:start + count] = np.fromiter(
                    map(memo.__getitem__ if few else float, lines), float,
                    count=count)
                same = lines[0] if len(memo) == 1 else None
        except ValueError:
            # several tokens or none on a line, or a malformed payload: the
            # token parser accepts the general layout and locates any error
            fh.seek(payload_at)
            got = 0
            while got < expect:
                line, at = next_line()
                for tok in line.split():
                    if got >= expect:
                        raise FieldFormatError(
                            f"{path}: more than {expect} values", offset=at)
                    try:
                        values[got] = float(tok)
                    except ValueError as exc:
                        raise FieldFormatError(
                            f"{path}: bad value {tok!r} at index {got}",
                            offset=at) from exc
                    got += 1
        offset = fh.tell()
        rest = fh.read()
    if rest.strip():
        # trailing content: report the start of its first non-blank line
        lead = len(rest) - len(rest.lstrip())
        raise FieldFormatError(f"{path}: content after the {expect} values",
                               offset=offset + rest.rfind(b"\n", 0, lead) + 1)
    try:
        # the Fortran-order view, as _read_binary gives: both readers return
        # one layout, so trapezoid3 sums in one order for either format
        return ScalarField3D(values=values.reshape((nx, ny, nz), order="F"),
                             spacing=tuple(spacing), origin=tuple(origin))
    except InputError as exc:
        raise FieldFormatError(f"{path}: {exc}", offset=offset) from exc
