"""References computed apart from the program under test.

Nothing here imports ds2aw.  The Cauchy datum, growth rates and the
Akhmediev-breather peak are closed forms; the split-step integrator is a
separate implementation of the DS2 Strang scheme; the field-file readers
follow the formats documented in the top-level README.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Case:
    """One Cauchy problem u(x, y, 0) = a + eps v0 on a torus grid.

    ``harmonics`` holds (n_x, n_y, c) with v0 = sum c exp(i(k_x x + k_y y)),
    k = (2 pi n_x / L_x, 2 pi n_y / L_y).
    """

    L_x: float
    L_y: float
    eps: float
    harmonics: tuple
    nx: int
    ny: int
    times: tuple
    a: float = 1.0
    dt: float = 1e-3

    def config(self, fmt: str) -> dict:
        """The run configuration document the CLI reads."""
        return {
            "schema": 1,
            "L_x": self.L_x,
            "L_y": self.L_y,
            "a": self.a,
            "eps": self.eps,
            "perturbation": {
                "harmonics": [
                    {"n_x": n_x, "n_y": n_y, "c": [c.real, c.imag]}
                    for n_x, n_y, c in self.harmonics
                ]
            },
            "grid": [self.nx, self.ny],
            "times": list(self.times),
            "dt": self.dt,
            "theta": {"M": "adaptive", "tail_tol": 1e-10},
            "outputs": {"directory": None, "format": fmt},
        }

    def wavevector(self, n_x: int, n_y: int) -> tuple[float, float]:
        return 2.0 * math.pi * n_x / self.L_x, 2.0 * math.pi * n_y / self.L_y

    def datum(self, ny: int | None = None) -> np.ndarray:
        """a + eps v0 on the grid, shape (ny, nx); ny = 1 gives one row."""
        ny = self.ny if ny is None else ny
        x = np.arange(self.nx) * (self.L_x / self.nx)
        y = np.arange(ny) * (self.L_y / self.ny)
        X, Y = np.meshgrid(x, y, indexing="xy")
        v0 = np.zeros(X.shape, dtype=complex)
        for n_x, n_y, c in self.harmonics:
            kx, ky = self.wavevector(n_x, n_y)
            v0 += complex(c) * np.exp(1j * (kx * X + ky * Y))
        return self.a + self.eps * v0


def growth_rate(kx: float, ky: float, a: float) -> float:
    """Linear growth rate of harmonic (kx, ky) on the background a.

    Linearising u = a(1 + p + i s) gives p_tt = kappa (4 a^2 Q - kappa) p
    with kappa = kx^2 - ky^2 and Q = kappa / |k|^2; 0 for stable modes.
    """
    kappa = kx * kx - ky * ky
    k2 = kx * kx + ky * ky
    s2 = kappa * (4.0 * a * a * kappa / k2 - kappa)
    return math.sqrt(s2) if s2 > 0.0 else 0.0


def first_appearance(case: Case) -> float:
    """log(a / eps) / sigma_max: when an eps-size mode reaches order one."""
    sigma = max(growth_rate(*case.wavevector(n_x, n_y), case.a)
                for n_x, n_y, _ in case.harmonics)
    return math.log(case.a / case.eps) / sigma


def akhmediev_peak(k: float, a: float, c: float = 1.0) -> float:
    """Largest |u| of the Akhmediev breather of wavenumber k on background a.

    At its peak time the breather is a (cos 2phi + s c) / (1 - s c) with
    s = sin phi = sqrt(1 - k^2 / 4a^2) and c = cos(k (x - x0)), so the peak
    is a (1 + 2 s) at c = 1.  On a grid, pass the largest sampled c.
    """
    s = math.sqrt(1.0 - k * k / (4.0 * a * a))
    return a * (1.0 - 2.0 * s * s + s * c) / (1.0 - s * c)


def akhmediev_peak_time(k: float, a: float, eps: float) -> float:
    """Time of the first peak for u(x, 0) = a + eps cos(k (x - x0)).

    The growing part of the linearised datum, (eps / 2a)(1 + i tan phi)
    e^{sigma t} cos(k x) with cos phi = k / 2a, is matched to the t -> -inf
    tail 2 sin(2 phi) e^{i phi} e^{sigma (t - t0)} cos(k x) of the breather.
    """
    cphi = k / (2.0 * a)
    sphi = math.sqrt(1.0 - cphi * cphi)
    sigma = k * math.sqrt(4.0 * a * a - k * k)
    return math.log(8.0 * sphi * cphi * cphi * a / eps) / sigma


def split_step(u0: np.ndarray, L_x: float, L_y: float, times, dt: float) -> list:
    """Strang splitting for i u_t + u_xx - u_yy + 2 q u = 0 with the
    zero-mean q = F^-1[(kx^2 - ky^2)/|k|^2 F|u|^2]; samples at ``times``.

    One grid row (ny = 1) integrates the y-independent reduction, focusing
    NLS with the gauge term -2 <|u|^2> u.
    """
    ny, nx = u0.shape
    kx = 2.0 * np.pi * np.fft.fftfreq(nx, L_x / nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, L_y / ny)
    KX, KY = np.meshgrid(kx, ky, indexing="xy")
    kappa = KX * KX - KY * KY
    k2 = KX * KX + KY * KY
    k2[0, 0] = 1.0
    Q = kappa / k2
    Q[0, 0] = 0.0
    u = np.array(u0, dtype=complex)
    now, out = 0.0, []
    for target in times:
        n = int(math.ceil((target - now) / dt - 1e-12))
        if n > 0:
            h = (target - now) / n
            lin = np.exp(-1j * h * kappa)
            for _ in range(n):
                u = u * np.exp(1j * h * np.fft.ifft2(Q * np.fft.fft2(np.abs(u) ** 2)).real)
                u = np.fft.ifft2(lin * np.fft.fft2(u))
                u = u * np.exp(1j * h * np.fft.ifft2(Q * np.fft.fft2(np.abs(u) ** 2)).real)
        now = target
        out.append(u.copy())
    return out


@dataclass
class Snapshot:
    t: float
    u: np.ndarray


_DS2F = struct.Struct("<4sIIIddd")


def read_bin(path: Path) -> Snapshot:
    """DS2F: magic, u32 version/nx/ny, f64 L_x/L_y/t, complex128 row-major."""
    raw = path.read_bytes()
    magic, version, nx, ny, _, _, t = _DS2F.unpack_from(raw)
    if magic != b"DS2F" or version != 1 or len(raw) != _DS2F.size + 16 * nx * ny:
        raise ValueError(f"{path.name}: not a DS2F v1 field of {nx}x{ny}")
    u = np.frombuffer(raw, dtype="<c16", offset=_DS2F.size).reshape(ny, nx)
    return Snapshot(t, u.astype(complex))


def read_csv(path: Path, nx: int, ny: int, t: float) -> Snapshot:
    """CSV with header x,y,re_u,im_u,abs_u, one row per sample, iy outer."""
    cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if cols.shape != (nx * ny, 5):
        raise ValueError(f"{path.name}: expected {nx * ny} rows of 5 columns")
    u = (cols[:, 2] + 1j * cols[:, 3]).reshape(ny, nx)
    return Snapshot(t, u)


def read_run(run_dir: Path, nx: int, ny: int, kind: str) -> list[Snapshot]:
    """The snapshots of one evolve run, from its manifest, in ``kind``
    ("bin" or "csv") format.  A bin snapshot carries the time in its header,
    a CSV one the time in the manifest."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if kind == "bin":
        return [read_bin(run_dir / e["bin"]) for e in manifest["files"]]
    return [read_csv(run_dir / e["csv"], nx, ny, e["t"]) for e in manifest["files"]]
