"""Run configuration: a versioned JSON document.

Complex numbers are written as two-element [re, im] arrays.  The
perturbation is either a list of harmonics {n_x, n_y, c} (synthesized on
the run grid) or a grid_file holding v0 samples in the DS2F binary format.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .fieldio import read_field_bin
from .theta import TAIL_TOLERANCE

SCHEMA_VERSION = 1

FORMATS = ("csv", "bin", "both")


@dataclass
class RunConfig:
    """A run configuration, read and checked by ``config_from_dict``."""

    L_x: float
    L_y: float
    eps: float
    a: float
    harmonics: list[tuple[int, int, complex]]
    grid_file: str | None
    nx: int
    ny: int
    times: list[float]
    dt: float
    theta_tail_tol: float
    out_format: str

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
        """Perturbation samples on the run grid and box, in the convention
        v0 = sum_n c_n exp(i(k_x x + k_y y))."""
        if self.grid_file:
            f = read_field_bin(self.grid_file)
            if (f.nx, f.ny) != (self.nx, self.ny):
                raise ConfigError(
                    "config-parse",
                    f"grid_file is {f.nx}x{f.ny}, config grid is {self.nx}x{self.ny}",
                )
            if (f.L_x, f.L_y) != (self.L_x, self.L_y):
                msg = f"grid_file box is {f.L_x} x {f.L_y}, config box is {self.L_x} x {self.L_y}"
                raise ConfigError("config-parse", msg)
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


def _integer(v, name: str) -> int:
    """A JSON integer; a float, a string or a boolean is refused."""
    if type(v) is not int:
        raise TypeError(f"{name} must be an integer, got {v!r}")
    return v


def _number(v, name: str) -> float:
    """A finite JSON number; a string, a boolean, NaN or infinity is refused."""
    # abs(v) <= max is false for NaN, infinity and an int too large for a float
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise TypeError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _complex(v, name: str) -> complex:
    """[re, im], two finite JSON numbers."""
    if type(v) is not list or len(v) != 2:
        raise TypeError(f"{name} must be [re, im], got {v!r}")
    return complex(_number(v[0], name), _number(v[1], name))


def _object(value, where: str, keys: tuple) -> dict:
    """A config object with no key outside ``keys``; null stands for an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError("config-parse", f"{where} must be an object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError("config-parse", f"{where} has unknown key {key!r}")
    return value


def config_from_dict(doc: dict) -> RunConfig:
    """Read and check a run document; the defaults of a run are stated here."""
    doc = _object(doc, "config", ("schema", "L_x", "L_y", "a", "eps", "perturbation", "grid",
                                  "times", "dt", "theta", "outputs"))
    try:
        if _integer(doc.get("schema"), "schema") != SCHEMA_VERSION:
            raise ConfigError("config-parse", f"unsupported schema {doc['schema']!r}")
        pert = _object(doc.get("perturbation"), "perturbation", ("harmonics", "grid_file"))
        harmonics = []
        for h in pert.get("harmonics", []):
            h = _object(h, "harmonic", ("n_x", "n_y", "c"))
            harmonics.append((_integer(h["n_x"], "n_x"), _integer(h["n_y"], "n_y"),
                              _complex(h["c"], "harmonic c")))
        grid_file = pert.get("grid_file")
        if not isinstance(grid_file, (str, type(None))):
            raise TypeError(f"grid_file must be a string, got {grid_file!r}")
        nx, ny = (_integer(n, "grid") for n in doc.get("grid", [64, 64]))
        theta_doc = _object(doc.get("theta"), "theta", ("M", "tail_tol"))
        if theta_doc.get("M", "adaptive") != "adaptive":
            raise ConfigError("config-parse", 'theta M must be "adaptive"')
        outputs = _object(doc.get("outputs"), "outputs", ("directory", "format"))
        if outputs.get("directory") is not None:
            raise ConfigError("config-parse", "outputs directory must be null; "
                              "the output directory is given by --out")
        cfg = RunConfig(
            L_x=_number(doc["L_x"], "L_x"),
            L_y=_number(doc["L_y"], "L_y"),
            eps=_number(doc["eps"], "eps"),
            a=_number(doc.get("a", 1.0), "a"),
            harmonics=harmonics,
            grid_file=grid_file,
            nx=nx, ny=ny,
            times=[_number(t, "times") for t in doc.get("times", [0.0])],
            dt=_number(doc.get("dt", 1e-3), "dt"),
            theta_tail_tol=_number(theta_doc.get("tail_tol", TAIL_TOLERANCE), "theta tail_tol"),
            out_format=outputs.get("format", "both"),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError("config-parse", f"bad config field: {err}") from err
    if cfg.L_x <= 0 or cfg.L_y <= 0:
        raise ConfigError("invalid-period", "periods must be positive")
    for name, v in [("background a", cfg.a), ("eps", cfg.eps), ("dt", cfg.dt),
                    ("theta tail_tol", cfg.theta_tail_tol)]:
        if v <= 0:
            raise ConfigError("config-parse", f"{name} must be positive")
    if not harmonics and not grid_file:
        raise ConfigError("config-parse", "perturbation needs harmonics or a grid_file")
    if harmonics and grid_file:
        raise ConfigError("config-parse", "perturbation: give harmonics or grid_file, not both")
    if any(n_x == 0 and n_y == 0 for n_x, n_y, _ in harmonics):
        raise ConfigError("config-parse", "harmonic (0, 0) violates the zero-mean gauge")
    if nx < 8 or ny < 8:
        raise ConfigError("config-parse", "grid must be at least 8x8")
    if cfg.times != sorted(cfg.times):
        raise ConfigError("config-parse", "times must be sorted non-decreasing")
    if cfg.out_format not in FORMATS:
        raise ConfigError("config-parse", f"format must be one of {FORMATS}")
    return cfg


def read_json(path, what: str):
    """The JSON document in a ``what`` ("config" or "manifest") file, decoded
    from its bytes as RFC 8259 allows.  A file that cannot be read, decoded or
    parsed is config-parse; once read, at ``path:line:col`` (1:1 if json has none)."""
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as err:
        raise ConfigError("config-parse", f"cannot read {what} {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("config-parse", f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except (ValueError, RecursionError) as err:
        # bytes not UTF-8 (placed at the bad byte), an integer past the digit limit, deep nesting
        raw, at = getattr(err, "object", b""), getattr(err, "start", 0)
        line, col = raw.count(b"\n", 0, at) + 1, at - raw.rfind(b"\n", 0, at)
        raise ConfigError("config-parse", f"{path}:{line}:{col}: {err}") from err


def load_config(path) -> RunConfig:
    return config_from_dict(read_json(path, "config"))


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
