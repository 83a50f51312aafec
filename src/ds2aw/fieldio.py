"""Field export/import: CSV for plotting, raw binary for lossless compare.

Binary layout (little-endian): magic "DS2F", u32 version, u32 nx, u32 ny,
f64 L_x, f64 L_y, f64 t, then nx*ny complex128 samples row-major
(u[iy][ix], iy outer).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import OutputError
from .fieldgen import Field

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
    """
    # plain floats: a numpy scalar's repr is not a number
    dx = float(field.L_x) / field.nx
    dy = float(field.L_y) / field.ny
    xs = [f"{ix * dx!r}," for ix in range(field.nx)]
    u = np.asarray(field.u, dtype=complex)
    try:
        with open(path, "w", newline="") as fh:
            fh.write("x,y,re_u,im_u,abs_u\n")
            for iy in range(field.ny):
                y = f"{iy * dy!r},"
                re, im = u[iy].real.tolist(), u[iy].imag.tolist()
                # hypot gives inf where abs(complex) raises on overflow
                mods = map(math.hypot, re, im)
                fh.write("".join([
                    f"{x}{y}{r!r},{i!r},{m!r}\n" for x, r, i, m in zip(xs, re, im, mods)
                ]))
    except OSError as err:
        raise OutputError("io", f"cannot write {path}: {err}") from err


def read_field_csv(path, L_x: float, L_y: float, nx: int, ny: int, t: float) -> Field:
    """Rebuild a Field from CSV; grid shape must be supplied (CSV keeps none)."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as err:
        raise OutputError("io", f"cannot read {path}: {err}") from err
    except ValueError as err:
        raise OutputError("io", f"{path}: malformed CSV: {err}") from err
    if rows.shape != (nx * ny, 5):
        raise OutputError(
            "io", f"{path}: expected {nx * ny} rows of 5 columns, got shape {rows.shape}"
        )
    u = np.empty(nx * ny, dtype=complex)
    u.real, u.imag = rows[:, 2], rows[:, 3]
    return Field(L_x, L_y, t, u.reshape(ny, nx))
