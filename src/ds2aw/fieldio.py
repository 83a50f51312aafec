"""The Field type and its two file formats: CSV for plotting, raw binary
for lossless compare.

Binary layout (little-endian): magic "DS2F", u32 version, u32 nx, u32 ny,
f64 L_x, f64 L_y, f64 t, then nx*ny complex128 samples row-major
(u[iy][ix], iy outer).
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OutputError


@dataclass
class Field:
    """Doubly-periodic complex samples of u at one time.

    u[iy, ix] = u(ix * L_x / nx, iy * L_y / ny, t), with (ny, nx) the
    shape of u.
    """

    L_x: float
    L_y: float
    t: float
    u: np.ndarray

    @property
    def nx(self) -> int:
        return self.u.shape[1]

    @property
    def ny(self) -> int:
        return self.u.shape[0]


MAGIC = b"DS2F"
VERSION = 1
_HEADER = struct.Struct("<4sIIIddd")


def write_field_bin(field: Field, path) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(
                _HEADER.pack(
                    MAGIC, VERSION, field.nx, field.ny, field.L_x, field.L_y, field.t
                )
            )
            fh.write(np.ascontiguousarray(field.u, dtype="<c16").tobytes())
    except OSError as err:
        raise OutputError("io", f"cannot write {path}: {err}") from err


def read_field_bin(path) -> Field:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise OutputError("io", f"cannot read {path}: {err}") from err
    if len(raw) < _HEADER.size:
        raise OutputError("io", f"{path}: truncated header")
    magic, version, nx, ny, L_x, L_y, t = _HEADER.unpack_from(raw)
    if magic != MAGIC or version != VERSION:
        raise OutputError("io", f"{path}: not a DS2F v{VERSION} file")
    expect = _HEADER.size + 16 * nx * ny
    if len(raw) != expect:
        raise OutputError("io", f"{path}: expected {expect} bytes, got {len(raw)}")
    u = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(ny, nx)
    return Field(L_x, L_y, t, u.astype(complex))


def write_field_csv(field: Field, path) -> None:
    """One row per sample, iy outer, each number written as its repr.

    Each coordinate is formatted once per column or row.  Each grid row is
    written as one chunk, so memory holds one row's text, not the file's.
    A grid row with the same bits as the one before it (a y-independent
    field) reuses that row's value text; only its y is formatted.
    """
    # plain floats: a numpy scalar's repr is not a number
    dx = float(field.L_x) / field.nx
    dy = float(field.L_y) / field.ny
    xs = [f"{ix * dx!r}," for ix in range(field.nx)]
    # a row's text is y.join(pieces): x_0, then each sample's values ended
    # by the next x, so the pieces hold no y and serve every equal row
    next_xs = xs[1:] + [""]
    u = np.asarray(field.u, dtype=complex)
    last = None
    try:
        with open(path, "w", newline="") as fh:
            fh.write("x,y,re_u,im_u,abs_u\n")
            for iy in range(field.ny):
                # bits, not ==: 0.0 and -0.0 print differently
                bits = u[iy].tobytes()
                if bits != last:
                    last = bits
                    re, im = u[iy].real.tolist(), u[iy].imag.tolist()
                    # hypot gives inf where abs(complex) raises on overflow
                    mods = map(math.hypot, re, im)
                    pieces = [xs[0]]
                    pieces += [
                        f"{r!r},{i!r},{m!r}\n{x}" for r, i, m, x in zip(re, im, mods, next_xs)
                    ]
                fh.write(f"{iy * dy!r},".join(pieces))
    except OSError as err:
        raise OutputError("io", f"cannot write {path}: {err}") from err


# every byte but the two separators, for bytes.translate to delete
_NOT_SEPARATOR = bytes(range(256)).translate(None, b",\n")


def read_field_csv(path, L_x: float, L_y: float, nx: int, ny: int, t: float) -> Field:
    """Rebuild a Field from CSV; grid shape must be supplied (CSV keeps none).

    Every line, the header's included, must hold exactly 5 columns, and
    nx * ny rows must follow the header; only re_u and im_u are converted
    to numbers.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise OutputError("io", f"cannot read {path}: {err}") from err
    # loadtxt with usecols ignores missing or extra columns, so count them
    # here: ",,,,\n" per line; the last newline may be missing
    separators = raw.translate(None, _NOT_SEPARATOR).removesuffix(b"\n")
    if separators != (b",,,,\n" * (nx * ny + 1))[:-1]:
        raise OutputError("io", f"{path}: expected {nx * ny} rows of 5 columns")
    try:
        rows = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)
    except ValueError as err:
        raise OutputError("io", f"{path}: malformed CSV: {err}") from err
    if rows.shape != (nx * ny, 2):
        raise OutputError("io", f"{path}: expected {nx * ny} rows, got {rows.shape[0]}")
    u = np.empty(nx * ny, dtype=complex)
    u.real, u.imag = rows[:, 0], rows[:, 1]
    return Field(L_x, L_y, t, u.reshape(ny, nx))
