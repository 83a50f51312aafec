"""Run configuration: a versioned JSON document.

Complex numbers are written as two-element [re, im] arrays.  The
perturbation is either a list of harmonics {n_x, n_y, c} (synthesized on
the run grid) or a grid_file holding v0 samples in the DS2F binary format.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .fieldio import read_field_bin
from .theta import TAIL_TOLERANCE

SCHEMA_VERSION = 1

FORMATS = ("csv", "bin", "both")


@dataclass
class RunConfig:
    L_x: float
    L_y: float
    eps: float
    a: float = 1.0
    harmonics: list[tuple[int, int, complex]] = field(default_factory=list)
    grid_file: str | None = None
    nx: int = 64
    ny: int = 64
    times: list[float] = field(default_factory=lambda: [0.0])
    dt: float = 1e-3
    theta_tail_tol: float = TAIL_TOLERANCE
    out_format: str = "both"

    def validate(self) -> None:
        numbers = [("L_x", self.L_x), ("L_y", self.L_y), ("a", self.a), ("eps", self.eps),
                   ("dt", self.dt), ("theta tail_tol", self.theta_tail_tol)]
        numbers += [("times", t) for t in self.times]
        numbers += [(f"harmonic ({n_x}, {n_y}) c", c) for n_x, n_y, c in self.harmonics]
        for name, v in numbers:
            if not cmath.isfinite(v):
                raise ConfigError("config-parse", f"{name} must be finite, got {v}")
        if self.L_x <= 0 or self.L_y <= 0:
            raise ConfigError("invalid-period", "periods must be positive")
        if self.a <= 0:
            raise ConfigError("config-parse", "background a must be positive")
        if self.eps <= 0:
            raise ConfigError("config-parse", "eps must be positive")
        if not self.harmonics and not self.grid_file:
            raise ConfigError(
                "config-parse", "perturbation needs harmonics or a grid_file"
            )
        if self.harmonics and self.grid_file:
            raise ConfigError(
                "config-parse", "perturbation: give harmonics or grid_file, not both"
            )
        for n_x, n_y, _ in self.harmonics:
            if n_x == 0 and n_y == 0:
                raise ConfigError(
                    "config-parse", "harmonic (0, 0) violates the zero-mean gauge"
                )
        if self.nx < 8 or self.ny < 8:
            raise ConfigError("config-parse", "grid must be at least 8x8")
        if list(self.times) != sorted(self.times):
            raise ConfigError("config-parse", "times must be sorted non-decreasing")
        if self.dt <= 0:
            raise ConfigError("config-parse", "dt must be positive")
        if self.theta_tail_tol <= 0:
            raise ConfigError("config-parse", "theta tail_tol must be positive")
        if self.out_format not in FORMATS:
            raise ConfigError("config-parse", f"format must be one of {FORMATS}")

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "L_x": self.L_x,
            "L_y": self.L_y,
            "a": self.a,
            "eps": self.eps,
            "perturbation": (
                {"grid_file": self.grid_file}
                if self.grid_file
                else {
                    "harmonics": [
                        {"n_x": nx_, "n_y": ny_, "c": [c.real, c.imag]}
                        for nx_, ny_, c in self.harmonics
                    ]
                }
            ),
            "grid": [self.nx, self.ny],
            "times": list(self.times),
            "dt": self.dt,
            "theta": {"tail_tol": self.theta_tail_tol},
            "outputs": {"format": self.out_format},
        }

    def v0_grid(self) -> np.ndarray:
        """Perturbation samples on the run grid, in the convention
        v0 = sum_n c_n exp(i(k_x x + k_y y))."""
        if self.grid_file:
            f = read_field_bin(self.grid_file)
            if (f.nx, f.ny) != (self.nx, self.ny):
                raise ConfigError(
                    "config-parse",
                    f"grid_file is {f.nx}x{f.ny}, config grid is {self.nx}x{self.ny}",
                )
            if not np.all(np.isfinite(f.u)):
                msg = f"grid_file {self.grid_file} has non-finite samples"
                raise ConfigError("config-parse", msg)
            return np.asarray(f.u, dtype=complex)
        ix = np.arange(self.nx)
        iy = np.arange(self.ny)
        IX, IY = np.meshgrid(ix, iy, indexing="xy")
        v0 = np.zeros((self.ny, self.nx), dtype=complex)
        for n_x, n_y, c in self.harmonics:
            v0 += c * np.exp(2j * np.pi * (n_x * IX / self.nx + n_y * IY / self.ny))
        return v0


def _parse_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError("config-parse", f"complex values must be [re, im], got {v!r}")


def _integer(v) -> int:
    """A JSON integer; a float, a string or a boolean is refused."""
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _object(value, where: str) -> dict:
    """A config object; null stands for an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError("config-parse", f"{where} must be an object, got {value!r}")
    return value


def config_from_dict(doc: dict) -> RunConfig:
    doc = _object(doc, "config")
    try:
        if doc.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                "config-parse", f"unsupported schema {doc.get('schema')!r}"
            )
        pert = _object(doc.get("perturbation"), "perturbation")
        harmonics = [
            (_integer(h["n_x"]), _integer(h["n_y"]), _parse_complex(h["c"]))
            for h in pert.get("harmonics", [])
        ]
        nx, ny = map(_integer, doc.get("grid", [64, 64]))
        theta_doc = _object(doc.get("theta"), "theta")
        if theta_doc.get("M", "adaptive") != "adaptive":
            raise ConfigError("config-parse", 'theta M must be "adaptive"')
        outputs = _object(doc.get("outputs"), "outputs")
        if outputs.get("directory") is not None:
            raise ConfigError("config-parse", "outputs directory must be null; "
                              "the output directory is given by --out")
        cfg = RunConfig(
            L_x=float(doc["L_x"]),
            L_y=float(doc["L_y"]),
            a=float(doc.get("a", 1.0)),
            eps=float(doc["eps"]),
            harmonics=harmonics,
            grid_file=pert.get("grid_file"),
            nx=nx, ny=ny,
            times=[float(t) for t in doc.get("times", [0.0])],
            dt=float(doc.get("dt", 1e-3)),
            theta_tail_tol=float(theta_doc.get("tail_tol", TAIL_TOLERANCE)),
            out_format=outputs.get("format", "both"),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError("config-parse", f"bad config field: {err}") from err
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError("config-parse", f"cannot read config {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            "config-parse", f"{path}:{err.lineno}:{err.colno}: {err.msg}"
        ) from err
    return config_from_dict(doc)


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
