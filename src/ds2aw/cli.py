"""Command-line pipeline: analyze -> spectrum -> evolve -> compare.

Subcommands
-----------
analyze     mode census and genericity report for the configured periods
spectrum    full leading-order spectral data as JSON, with eps_max and
            lambda_min(P)
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
from .config import FORMATS, RunConfig, config_from_dict, config_hash, load_config, read_json
from .errors import ConfigError, DS2Error, OutputError
from .modes import check_genericity


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
    report = check_genericity(cfg.L_x, cfg.L_y, cfg.a)
    doc = {
        "config_hash": config_hash(cfg),
        "modes": report.modes,
        "unstable_count": sum(1 for m in report.modes if m.unstable),
        "genericity": report.to_dict(),
    }
    _emit(doc, out_dir / "analyze.json" if out_dir else None)
    return 0 if report.ok else 3


def _build_sd(cfg: RunConfig) -> curve.SpectralData:
    return curve.build_spectral_data(
        cfg.L_x, cfg.L_y, cfg.eps, cfg.v0_grid(), a=cfg.a
    )


def cmd_spectrum(cfg: RunConfig, out_dir: Path | None) -> int:
    sd = _build_sd(cfg)
    eps_max, lambda_min_P = curve.regime(sd)
    regime = {"eps_max": eps_max, "lambda_min_P": lambda_min_P}
    doc = {**_encode(sd), "config_hash": config_hash(cfg), "regime": regime}
    _emit(doc, out_dir / "spectrum.json" if out_dir else None)
    return 0


def _write_run(
    cfg: RunConfig, fields: list[fieldio.Field], out_dir: Path, prefix: str, fmt: str
) -> None:
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
        "schema": 2,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "files": entries,
    }
    _emit(manifest, out_dir / "manifest.json")


def cmd_evolve_fg(cfg: RunConfig, out_dir: Path, fmt: str) -> int:
    sd = _build_sd(cfg)
    # after the datum, so a bad config leaves no directory, and before the
    # compute, so an unwritable --out fails at once (as in cmd_evolve_ref)
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = fieldgen.evaluate_grid(cfg.times, cfg.nx, cfg.ny, sd, cfg.theta_tail_tol)
    _write_run(cfg, fields, out_dir, "fg", fmt)
    return 0


def cmd_evolve_ref(cfg: RunConfig, out_dir: Path, fmt: str) -> int:
    u0 = fieldio.Field(cfg.L_x, cfg.L_y, 0.0, cfg.a + cfg.eps * cfg.v0_grid())
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = refsolver.evolve(u0, cfg.times, cfg.dt)
    _write_run(cfg, fields, out_dir, "ref", fmt)
    return 0


def _load_run(path: Path) -> tuple[RunConfig, list, Path]:
    """A run's config, parsed, and its one file entry per configured time."""
    mpath = path / "manifest.json" if path.is_dir() else path
    manifest = read_json(mpath, "manifest")
    for key in ("config", "files"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise ConfigError("config-parse", f"{mpath}: manifest lacks key {key!r}")
    try:
        cfg = config_from_dict(manifest["config"])
    except ConfigError as err:
        raise ConfigError(err.code, f"{mpath}: {err.message}") from err
    files = manifest["files"]
    if not (isinstance(files, list) and len(files) == len(cfg.times)
            and all(isinstance(e, dict) and ("bin" in e or "csv" in e)
                    and all(type(e.get(k, "")) is str for k in ("bin", "csv"))
                    and type(e.get("t", 0.0)) in (int, float) for e in files)):
        raise ConfigError("config-parse", f"{mpath}: files is not a list of one object per "
                          "configured time with string file names and a number t")
    return cfg, files, mpath.parent


def _load_field(entry: dict, base: Path, cfg: RunConfig, t: float) -> fieldio.Field:
    if "bin" in entry:
        path = base / entry["bin"]
        field = fieldio.read_field_bin(path)
        if (field.L_x, field.L_y) != (cfg.L_x, cfg.L_y):
            raise ConfigError("grid-mismatch", f"{path}: box {field.L_x} x {field.L_y}, "
                              f"configured {cfg.L_x} x {cfg.L_y}")
    else:
        path = base / entry["csv"]
        field = fieldio.read_field_csv(path, cfg.L_x, cfg.L_y, cfg.nx, cfg.ny, t)
    if field.u.shape != (cfg.ny, cfg.nx):
        raise ConfigError("grid-mismatch",
                          f"{path}: {field.nx}x{field.ny} field, grid {cfg.nx}x{cfg.ny}")
    if not abs(field.t - t) <= 1e-9:  # a NaN header time is a mismatch too
        raise ConfigError("time-mismatch", f"{path}: field t = {field.t}, configured t = {t}")
    if not np.all(np.isfinite(field.u)):
        raise OutputError("io", f"{path}: non-finite sample")
    return field


def cmd_compare(run_a: Path, run_b: Path, out_path: Path | None) -> int:
    cfg_a, files_a, base_a = _load_run(run_a)
    cfg_b, files_b, base_b = _load_run(run_b)
    if (cfg_a.nx, cfg_a.ny) != (cfg_b.nx, cfg_b.ny):
        raise ConfigError("grid-mismatch", f"grids differ: {cfg_a.nx}x{cfg_a.ny} "
                          f"vs {cfg_b.nx}x{cfg_b.ny}")
    if (cfg_a.L_x, cfg_a.L_y) != (cfg_b.L_x, cfg_b.L_y):
        raise ConfigError("grid-mismatch", f"boxes differ: {cfg_a.L_x} x {cfg_a.L_y} "
                          f"vs {cfg_b.L_x} x {cfg_b.L_y}")
    ta, tb = cfg_a.times, cfg_b.times
    if len(ta) != len(tb) or any(abs(x - y) > 1e-9 for x, y in zip(ta, tb)):
        raise ConfigError("time-mismatch", "snapshot times differ between runs")
    times, rel_l2, rel_linf, max_a, max_b = [], [], [], [], []
    for ea, eb, t_a, t_b in zip(files_a, files_b, ta, tb):
        fa = _load_field(ea, base_a, cfg_a, t_a)
        fb = _load_field(eb, base_b, cfg_b, t_b)
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
        out = Path(args.out) if args.out else None
        if args.command == "compare":
            return cmd_compare(Path(args.run_a), Path(args.run_b), out)
        cfg = load_config(args.config)
        if args.command == "analyze":
            return cmd_analyze(cfg, out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out)
        fmt = args.format or cfg.out_format
        if args.command == "evolve-fg":
            return cmd_evolve_fg(cfg, out, fmt)
        return cmd_evolve_ref(cfg, out, fmt)
    except (DS2Error, OSError) as err:
        if isinstance(err, OSError):  # a file the CLI writes: --out under a file, a full disk
            err = OutputError("io", str(err))
        json.dump(
            {"error": err.code, "message": err.message, "exit_code": err.exit_code},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
