"""Command-line pipeline: analyze -> spectrum -> evolve -> compare.

Subcommands
-----------
analyze     mode census and genericity report for the configured periods
spectrum    full leading-order spectral data as JSON (with diagnostics)
evolve-fg   sample the finite-gap field at the configured times
evolve-ref  integrate the same Cauchy problem with the split-step solver
compare     per-time error metrics between two evolve runs

Exit codes: 0 ok, 2 config, 3 genericity, 4 degenerate spectrum,
5 numeric failure, 6 io.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import curve, fieldgen, fieldio, refsolver
from .config import FORMATS, RunConfig, config_hash, load_config
from .errors import ConfigError, DS2Error
from .modes import check_genericity, enumerate_modes


def _encode(obj):
    """JSON of a dataclass (its fields), an array (a list), a complex ([re, im])."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _emit(doc: dict, out_path: Path | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=_encode)
    if out_path is None:
        print(text)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text + "\n")


def cmd_analyze(cfg: RunConfig, out_dir: Path | None) -> int:
    modes = enumerate_modes(cfg.L_x, cfg.L_y, cfg.a)
    report = check_genericity(cfg.L_x, cfg.L_y, cfg.a)
    doc = {
        "config_hash": config_hash(cfg),
        "modes": modes,
        "unstable_count": sum(1 for m in modes if m.unstable),
        "genericity": report.to_dict(),
    }
    _emit(doc, out_dir / "analyze.json" if out_dir else None)
    return 0 if report.ok else 3


def _diagnostics(sd: curve.SpectralData) -> dict:
    res = 0.0
    wt_delta = 0.0
    for idx, p in enumerate(sd.pairs):
        k = complex(p.mode.k_x, p.mode.k_y)
        res = max(res, abs((p.tau_2 - p.tau_1) - k))
        res = max(res, abs((1.0 / p.tau_2 - 1.0 / p.tau_1) - k.conjugate()))
        sigma = abs(p.mode.sigma) * sd.a * sd.a
        wt_delta = max(wt_delta, abs(abs(sd.W_t[idx]) - sigma))
    return {
        "resonance_residual_max": res,
        "wt_sigma_delta_max": wt_delta,
        "reality_residual_max": curve.reality_residual(sd),
        "period_matrix_asymmetry": float(np.max(np.abs(sd.B - sd.B.T))),
    }


def _build_sd(cfg: RunConfig) -> curve.SpectralData:
    return curve.build_spectral_data(
        cfg.L_x, cfg.L_y, cfg.eps, cfg.v0_grid(), a=cfg.a
    )


def cmd_spectrum(cfg: RunConfig, out_dir: Path | None) -> int:
    sd = _build_sd(cfg)
    doc = {**_encode(sd), "config_hash": config_hash(cfg), "diagnostics": _diagnostics(sd)}
    _emit(doc, out_dir / "spectrum.json" if out_dir else None)
    return 0


def _write_run(
    cfg: RunConfig, fields: list[fieldgen.Field], out_dir: Path, prefix: str, fmt: str
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, f in enumerate(fields):
        entry: dict = {"t": f.t}
        if fmt in ("bin", "both"):
            name = f"{prefix}_{i:04d}.bin"
            fieldio.write_field_bin(f, out_dir / name)
            entry["bin"] = name
        if fmt in ("csv", "both"):
            name = f"{prefix}_{i:04d}.csv"
            fieldio.write_field_csv(f, out_dir / name)
            entry["csv"] = name
        entries.append(entry)
    manifest = {
        "command": f"evolve-{prefix}",
        "schema": 1,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "grid": [cfg.nx, cfg.ny],
        "L_x": cfg.L_x,
        "L_y": cfg.L_y,
        "times": [f.t for f in fields],
        "format": fmt,
        "files": entries,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def cmd_evolve_fg(cfg: RunConfig, out_dir: Path, fmt: str) -> int:
    sd = _build_sd(cfg)
    params = fieldgen.default_theta_params(sd, cfg.times, cfg.theta_tail_tol)
    fields = fieldgen.evaluate_grid(cfg.times, cfg.nx, cfg.ny, sd, params)
    _write_run(cfg, fields, out_dir, "fg", fmt)
    return 0


def cmd_evolve_ref(cfg: RunConfig, out_dir: Path, fmt: str) -> int:
    u0 = fieldgen.make_cauchy_field(cfg.L_x, cfg.L_y, cfg.a, cfg.eps, cfg.v0_grid())
    fields = refsolver.evolve(u0, cfg.times, cfg.dt)
    _write_run(cfg, fields, out_dir, "ref", fmt)
    return 0


def _load_run(path: Path) -> tuple[dict, Path]:
    mpath = path / "manifest.json" if path.is_dir() else path
    try:
        manifest = json.loads(mpath.read_text())
    except OSError as err:
        raise ConfigError("config-parse", f"cannot read manifest {mpath}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("config-parse", f"{mpath}: {err.msg}") from err
    _require(manifest, ("grid", "times", "files"), mpath)
    grid, times, files = manifest["grid"], manifest["times"], manifest["files"]
    if not (isinstance(grid, list) and len(grid) == 2
            and all(type(n) is int and n > 0 for n in grid)):
        raise ConfigError("config-parse", f"{mpath}: grid {grid!r} is not two positive ints")
    if not (isinstance(times, list) and isinstance(files, list) and len(times) == len(files)):
        raise ConfigError("config-parse", f"{mpath}: times and files are not lists of equal length")
    return manifest, mpath.parent


def _require(doc, keys, where) -> None:
    """Raise config-parse naming the first of ``keys`` that ``doc`` lacks."""
    missing = [k for k in keys if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise ConfigError("config-parse", f"{where}: manifest lacks key {missing[0]!r}")


def _load_field(entry: dict, base: Path, manifest: dict) -> fieldgen.Field:
    if "bin" in entry:
        return fieldio.read_field_bin(base / entry["bin"])
    _require(entry, ("csv", "t"), base)
    _require(manifest, ("L_x", "L_y"), base)
    nx, ny = manifest["grid"]
    return fieldio.read_field_csv(
        base / entry["csv"], manifest["L_x"], manifest["L_y"], nx, ny, entry["t"]
    )


def cmd_compare(run_a: Path, run_b: Path, out_path: Path | None) -> int:
    man_a, base_a = _load_run(run_a)
    man_b, base_b = _load_run(run_b)
    if man_a["grid"] != man_b["grid"]:
        raise ConfigError(
            "grid-mismatch", f"grids differ: {man_a['grid']} vs {man_b['grid']}"
        )
    ta, tb = man_a["times"], man_b["times"]
    if len(ta) != len(tb) or any(abs(x - y) > 1e-9 for x, y in zip(ta, tb)):
        raise ConfigError("time-mismatch", "snapshot times differ between runs")
    times, rel_l2, rel_linf, max_a, max_b = [], [], [], [], []
    for ea, eb in zip(man_a["files"], man_b["files"]):
        fa = _load_field(ea, base_a, man_a)
        fb = _load_field(eb, base_b, man_b)
        diff = fa.u - fb.u
        nb = np.linalg.norm(fb.u)
        times.append(fa.t)
        rel_l2.append(float(np.linalg.norm(diff) / max(nb, 1e-300)))
        rel_linf.append(float(np.abs(diff).max() / max(np.abs(fb.u).max(), 1e-300)))
        max_a.append(float(np.abs(fa.u).max()))
        max_b.append(float(np.abs(fb.u).max()))
    doc = {
        "times": times,
        "rel_l2": rel_l2,
        "rel_linf": rel_linf,
        "max_abs_a": max_a,
        "max_abs_b": max_b,
    }
    _emit(doc, out_path)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ds2aw", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, evolve=False):
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", required=evolve, help="output directory")
        if evolve:
            sp.add_argument(
                "--format", choices=FORMATS, default=None,
                help="field file format (default: config outputs.format)",
            )

    common(sub.add_parser("analyze", help="mode census and genericity report"))
    common(sub.add_parser("spectrum", help="spectral data JSON"))
    common(sub.add_parser("evolve-fg", help="finite-gap snapshots"), evolve=True)
    common(sub.add_parser("evolve-ref", help="reference-solver snapshots"), evolve=True)
    cp = sub.add_parser("compare", help="error metrics between two runs")
    cp.add_argument("run_a", help="manifest (dir or file) of the first run")
    cp.add_argument("run_b", help="manifest (dir or file) of the second run")
    cp.add_argument("--out", default=None, help="metrics JSON path (default stdout)")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "compare":
            out = Path(args.out) if args.out else None
            return cmd_compare(Path(args.run_a), Path(args.run_b), out)
        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else (
            Path(cfg.out_dir) if cfg.out_dir else None
        )
        if args.command == "analyze":
            return cmd_analyze(cfg, out_dir)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out_dir)
        fmt = args.format or cfg.out_format
        if args.command == "evolve-fg":
            return cmd_evolve_fg(cfg, out_dir, fmt)
        return cmd_evolve_ref(cfg, out_dir, fmt)
    except DS2Error as err:
        json.dump(
            {"error": err.code, "message": err.message, "exit_code": err.exit_code},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
