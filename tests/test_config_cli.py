"""Config round-trip, CLI subcommands, file formats, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ds2aw.cli import main
from ds2aw.config import RunConfig, config_from_dict, config_hash
from ds2aw.errors import ConfigError, OutputError
from ds2aw.curve import build_spectral_data
from ds2aw.fieldgen import Field, evaluate_grid, first_appearance_estimate, make_cauchy_field
from ds2aw.fieldio import read_field_bin, read_field_csv, write_field_bin, write_field_csv

from conftest import (
    COLLIDE_LY,
    FOURMODE_LX,
    FOURMODE_LY,
    FOURMODE_TERMS,
    SINGLE_LX,
    SINGLE_LY,
    cosine_grid,
    harmonic_grid,
)

SRC = Path(__file__).resolve().parents[1] / "src"

_CONFIG_SEQ = iter(range(10_000))


def single_mode_config(tmp_path, **overrides):
    doc = {
        "schema": 1,
        "L_x": SINGLE_LX,
        "L_y": SINGLE_LY,
        "a": 1.0,
        "eps": 1e-2,
        "perturbation": {
            "harmonics": [
                {"n_x": 1, "n_y": 0, "c": [0.5, 0.0]},
                {"n_x": -1, "n_y": 0, "c": [0.5, 0.0]},
            ]
        },
        "grid": [32, 32],
        "times": [0.0, 0.3],
        "dt": 1e-3,
        "theta": {"M": "adaptive", "tail_tol": 1e-10},
        "outputs": {"directory": None, "format": "both"},
    }
    doc.update(overrides)
    path = tmp_path / f"config_{next(_CONFIG_SEQ):04d}.json"
    path.write_text(json.dumps(doc))
    return path, doc


def four_mode_config(tmp_path, **overrides):
    harmonics = [
        {"n_x": 1, "n_y": 0, "c": [0.35, 0.0]},
        {"n_x": -1, "n_y": 0, "c": [0.35, 0.0]},
        {"n_x": 0, "n_y": 1, "c": [0.25, 0.0]},
        {"n_x": 0, "n_y": -1, "c": [0.25, 0.0]},
        {"n_x": 1, "n_y": 1, "c": [0.15, 0.1]},
        {"n_x": -1, "n_y": -1, "c": [0.15, -0.1]},
        {"n_x": 1, "n_y": -1, "c": [0.12, 0.0]},
        {"n_x": -1, "n_y": 1, "c": [0.08, 0.0]},
    ]
    return single_mode_config(
        tmp_path,
        L_x=FOURMODE_LX,
        L_y=FOURMODE_LY,
        perturbation={"harmonics": harmonics},
        **overrides,
    )


def test_config_round_trip(tmp_path):
    path, _ = single_mode_config(tmp_path)
    from ds2aw.config import load_config

    cfg = load_config(path)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_config_hash_sensitivity(tmp_path):
    path, doc = single_mode_config(tmp_path)
    from ds2aw.config import load_config

    base = config_hash(load_config(path))
    assert base == config_hash(load_config(path))
    for field, value in [
        ("eps", 2e-2),
        ("L_x", 5.0),
        ("dt", 2e-3),
        ("grid", [64, 64]),
        ("times", [0.0, 0.4]),
    ]:
        p2, _ = single_mode_config(tmp_path, **{field: value})
        assert config_hash(load_config(p2)) != base


def test_config_rejects_zero_harmonic(tmp_path):
    with pytest.raises(ConfigError):
        config_from_dict(
            {
                "schema": 1,
                "L_x": 1.0,
                "L_y": 1.0,
                "eps": 1e-2,
                "perturbation": {"harmonics": [{"n_x": 0, "n_y": 0, "c": [1, 0]}]},
            }
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "override",
    [
        {"dt": NAN},
        {"a": NAN},
        {"L_x": INF},
        {"times": [0.0, INF]},
        {"eps": NAN},
        {"perturbation": {"harmonics": [{"n_x": 1, "n_y": 0, "c": [NAN, 0.0]}]}},
        {"theta": {"M": "adaptive", "tail_tol": 0.0}},
        {"theta": {"M": "adaptive", "tail_tol": -1.0}},
        {"theta": {"M": True, "tail_tol": 1e-10}},
        {"theta": {"M": 3, "tail_tol": 1e-10}},
    ],
    ids=["dt-nan", "a-nan", "Lx-inf", "time-inf", "eps-nan", "c-nan",
         "tol-zero", "tol-negative", "M-bool", "M-int"],
)
def test_config_rejects_non_finite_and_out_of_range(tmp_path, capsys, override):
    path, _ = single_mode_config(tmp_path, **override)
    assert main(["spectrum", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-parse"


@pytest.mark.parametrize(
    "doc",
    [{"theta": 3}, {"perturbation": []}, {"outputs": [1]}, [1, 2]],
    ids=["theta-int", "perturbation-list", "outputs-list", "top-level-list"],
)
def test_config_non_object_section_rejected(tmp_path, capsys, doc):
    if isinstance(doc, dict):
        path, _ = single_mode_config(tmp_path, **doc)
    else:
        path = tmp_path / "list.json"
        path.write_text(json.dumps(doc))
    assert main(["spectrum", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-parse"


def test_analyze_four_mode(tmp_path, capsys):
    path, _ = four_mode_config(tmp_path)
    assert main(["analyze", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    unstable = [(m["n_x"], m["n_y"]) for m in doc["modes"] if m["unstable"]]
    classes = {(nx, ny) for nx, ny in unstable if (nx, ny) >= (-nx, -ny)}
    assert classes == {(1, 0), (0, 1), (1, 1), (1, -1)}
    assert doc["genericity"]["ok"] is True


def test_analyze_nongeneric_exit_code(tmp_path, capsys):
    path, _ = single_mode_config(tmp_path, L_x=math.pi, L_y=2 * math.pi)
    assert main(["analyze", "--config", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["genericity"]["ok"] is False


def test_collision_exits_genericity(tmp_path, capsys):
    path, _ = single_mode_config(tmp_path, L_x=4.0, L_y=COLLIDE_LY)
    assert main(["analyze", "--config", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)["genericity"]
    assert len(report["multiplicity_violations"]) == 6
    assert main(["spectrum", "--config", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "genericity"


def test_missing_perturbation_is_config_error(tmp_path, capsys):
    path, _ = single_mode_config(tmp_path, perturbation={"harmonics": []})
    assert main(["analyze", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse"


def test_spectrum_single_mode(tmp_path, capsys):
    path, _ = single_mode_config(tmp_path)
    assert main(["spectrum", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["g"] == 2
    assert len(doc["pairs"]) == 2
    assert doc["diagnostics"]["resonance_residual_max"] < 1e-10
    assert doc["diagnostics"]["wt_sigma_delta_max"] < 1e-10
    # complex numbers serialized as [re, im]
    assert isinstance(doc["W_t"][0], list) and len(doc["W_t"][0]) == 2


def test_spectrum_eps_halving_shifts_diagonal(tmp_path, capsys):
    p1, _ = single_mode_config(tmp_path)
    assert main(["spectrum", "--config", str(p1)]) == 0
    b1 = json.loads(capsys.readouterr().out)["B"][0][0][0]
    p2, _ = single_mode_config(tmp_path, eps=5e-3)
    assert main(["spectrum", "--config", str(p2)]) == 0
    b2 = json.loads(capsys.readouterr().out)["B"][0][0][0]
    assert b2 - b1 == pytest.approx(-2.0 * math.log(2.0), abs=1e-10)


def test_spectrum_degenerate_harmonic_exit_code(tmp_path, capsys):
    path, _ = single_mode_config(
        tmp_path,
        perturbation={"harmonics": [{"n_x": 1, "n_y": 0, "c": [0.0, 0.0]}]},
    )
    assert main(["spectrum", "--config", str(path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "degenerate-mode"


def test_degenerate_mode_named_once(tmp_path, capsys):
    # the four-mode torus excited on (1, 0) only: (0, 1) gets no perturbation
    path, _ = single_mode_config(tmp_path, L_x=FOURMODE_LX, L_y=FOURMODE_LY)
    assert main(["spectrum", "--config", str(path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "degenerate-mode"
    assert err["message"].count("mode") == 1 and "mode (0, 1)" in err["message"]


def test_evolve_fg_t0_matches_cauchy_data(tmp_path):
    path, _ = single_mode_config(tmp_path, times=[0.0])
    out = tmp_path / "fg"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    field = read_field_bin(out / manifest["files"][0]["bin"])
    x = np.arange(32) * (SINGLE_LX / 32)
    X = np.meshgrid(x, np.arange(32) * (SINGLE_LY / 32), indexing="xy")[0]
    target = 1.0 + 1e-2 * np.cos(1.2 * X)
    assert np.abs(field.u - target).max() < 10 * (1e-2) ** 2


def test_evolve_determinism_bitwise(tmp_path):
    path, _ = single_mode_config(tmp_path)
    for cmd, prefix in [("evolve-fg", "fg"), ("evolve-ref", "ref")]:
        d1, d2 = tmp_path / f"{prefix}1", tmp_path / f"{prefix}2"
        assert main([cmd, "--config", str(path), "--out", str(d1)]) == 0
        assert main([cmd, "--config", str(path), "--out", str(d2)]) == 0
        for i in range(2):
            b1 = (d1 / f"{prefix}_{i:04d}.bin").read_bytes()
            b2 = (d2 / f"{prefix}_{i:04d}.bin").read_bytes()
            assert b1 == b2


def test_evolve_fg_nan_exits_numeric(tmp_path, capsys):
    # at 40 T1 the four-mode 128^2 grid passes within 6.8e-7 e^C of a theta
    # zero, where the dropped in-box terms exceed tail_tol * min|theta| (by a
    # factor 1.15): a coded numeric failure naming its sample, not a
    # field file
    v0 = harmonic_grid(32, 32, FOURMODE_TERMS)
    t = 40.0 * first_appearance_estimate(build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1e-2, v0))
    path, _ = four_mode_config(tmp_path, times=[t], grid=[128, 128])
    out = tmp_path / "fg"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out)]) == 5
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "truncation-insufficient" and err["exit_code"] == 5
    assert re.search(rf"at \(x, y, t\) = \([^,]+, [^,]+, {t:.6g}\)$", err["message"])
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "config, L, terms",
    [(single_mode_config, (SINGLE_LX, SINGLE_LY), [(1, 0, 0.5), (-1, 0, 0.5)]),
     (four_mode_config, (FOURMODE_LX, FOURMODE_LY), FOURMODE_TERMS)],
    ids=["genus2", "genus8"],
)
def test_evolve_fg_late_times(tmp_path, config, L, terms):
    # offsets reduced into the lattice cell: 20 and 40 T1 are computable and
    # certified (the field failed from 20 T1 at genus 2 and 8 T1 at genus 8)
    T1 = first_appearance_estimate(build_spectral_data(*L, 1e-2, harmonic_grid(32, 32, terms)))
    path, _ = config(tmp_path, grid=[16, 16], times=[20.0 * T1, 40.0 * T1])
    out = tmp_path / "fg"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "bin"]) == 0
    for i in range(2):
        f = read_field_bin(out / f"fg_{i:04d}.bin")
        assert np.all(np.isfinite(f.u)) and 0.5 < np.abs(f.u).max() < 40.0


def test_evolve_ref_nan_exits_numeric(tmp_path, capsys):
    # one NaN in the grid_file datum: the solver's first step fails closed
    v0 = np.zeros((32, 32), dtype=complex)
    v0[3, 4] = np.nan
    grid = tmp_path / "v0.bin"
    write_field_bin(Field(SINGLE_LX, SINGLE_LY, 0.0, v0), grid)
    path, _ = single_mode_config(tmp_path, perturbation={"grid_file": str(grid)})
    out = tmp_path / "ref"
    assert main(["evolve-ref", "--config", str(path), "--out", str(out)]) == 5
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "nan-detected" and err["exit_code"] == 5
    assert "t = 0.001 " in err["message"]
    assert not out.exists() or not any(out.iterdir())


def test_evolve_ref_any_grid_size(tmp_path):
    # the solver takes any grid the config accepts, as evolve-fg does
    path, _ = single_mode_config(tmp_path, grid=[48, 48])
    for cmd in ("evolve-fg", "evolve-ref"):
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / cmd)]) == 0


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_flags_rejected(tmp_path, flag):
    path, _ = single_mode_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["evolve-fg", "--config", str(path), "--out", str(tmp_path / "o"), flag, "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("cmd", ["analyze", "spectrum"])
def test_format_only_on_evolve_commands(tmp_path, cmd):
    # analyze and spectrum write no field files, so they take no --format
    path, _ = single_mode_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main([cmd, "--config", str(path), "--format", "csv"])
    assert err.value.code == 2


def test_compare_self_is_zero(tmp_path, capsys):
    path, _ = single_mode_config(tmp_path, times=[0.0, 0.2])
    out = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out)]) == 0
    assert main(["compare", str(out), str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rel_l2"] == [0.0, 0.0]
    assert doc["rel_linf"] == [0.0, 0.0]


def test_compare_fg_vs_ref_small(tmp_path, capsys):
    path, _ = single_mode_config(tmp_path, times=[0.0, 0.3])
    fg, ref = tmp_path / "fg", tmp_path / "ref"
    assert main(["evolve-fg", "--config", str(path), "--out", str(fg)]) == 0
    assert main(["evolve-ref", "--config", str(path), "--out", str(ref)]) == 0
    assert main(["compare", str(fg), str(ref)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["times"] == [0.0, 0.3]
    assert all(e < 5e-4 for e in doc["rel_linf"])


def test_compare_grid_mismatch(tmp_path, capsys):
    p1, _ = single_mode_config(tmp_path, times=[0.0])
    out1 = tmp_path / "a"
    assert main(["evolve-fg", "--config", str(p1), "--out", str(out1)]) == 0
    p2, _ = single_mode_config(tmp_path, grid=[64, 64], times=[0.0])
    out2 = tmp_path / "b"
    assert main(["evolve-fg", "--config", str(p2), "--out", str(out2)]) == 0
    assert main(["compare", str(out1), str(out2)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "grid-mismatch"


def test_compare_time_mismatch(tmp_path, capsys):
    p1, _ = single_mode_config(tmp_path, times=[0.0])
    p2, _ = single_mode_config(tmp_path, times=[0.1])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["evolve-fg", "--config", str(p1), "--out", str(out1)]) == 0
    assert main(["evolve-fg", "--config", str(p2), "--out", str(out2)]) == 0
    assert main(["compare", str(out1), str(out2)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "time-mismatch"


@pytest.mark.parametrize(
    "edit, code",
    [
        (lambda f: Field(f.L_x, f.L_y, f.t, f.u[:1]), "grid-mismatch"),
        (lambda f: Field(f.L_x, f.L_y, f.t + 0.5, f.u), "time-mismatch"),
    ],
    ids=["one-row-file", "later-file"],
)
def test_compare_file_disagrees_with_manifest(tmp_path, capsys, edit, code):
    # the manifest says 8x8 at t = 0, but the file holds another grid (a 1x8
    # row broadcasts against 8x8, so unchecked it compared as equal) or time
    path, _ = single_mode_config(tmp_path, grid=[8, 8], times=[0.0])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "bin"]) == 0
    write_field_bin(edit(read_field_bin(out_b / "fg_0000.bin")), out_b / "fg_0000.bin")
    assert main(["compare", str(out_a), str(out_b)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == code and "fg_0000.bin" in err["message"]


def test_compare_manifest_missing_key(tmp_path, capsys):
    path, _ = single_mode_config(tmp_path, times=[0.0])
    out = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["files"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", str(out), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse" and "'files'" in err["message"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(files=m["files"][:1]),
        lambda m: m.update(grid=16),
        lambda m: m.update(grid=[16, 0]),
        lambda m: m.update(files=["fg_0000.bin", "fg_0001.bin"]),
        lambda m: m.update(times=[0.0, "0.3"]),
        lambda m: m["files"][0].update(bin=5),
        lambda m: m["files"][1].update(csv=None),
        lambda m: m["files"][1].update(t="x"),
    ],
    ids=["truncated-files", "scalar-grid", "zero-grid", "name-files", "string-time",
         "int-bin-name", "null-csv-name", "string-entry-time"],
)
def test_compare_manifest_bad_shape(tmp_path, capsys, edit):
    path, _ = single_mode_config(tmp_path, grid=[16, 16], times=[0.0, 0.3])
    out = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "csv"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", str(out), str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-parse"


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    u = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
    f = Field(2.5, 3.5, 0.7, u)
    path = tmp_path / "f.bin"
    write_field_bin(f, path)
    g = read_field_bin(path)
    assert (g.nx, g.ny, g.t) == (8, 16, 0.7)
    assert (g.L_x, g.L_y) == (2.5, 3.5)
    assert np.array_equal(g.u, u)


def test_field_shape_is_the_sample_shape(tmp_path):
    # no shape argument to disagree with u: all 256 samples round-trip
    u = np.arange(256.0).reshape(16, 16) + 1j
    f = Field(2.0, 2.0, 0.0, u)
    assert (f.nx, f.ny) == (16, 16)
    with pytest.raises(AttributeError):
        f.nx = 8
    write_field_bin(f, tmp_path / "f.bin")
    write_field_csv(f, tmp_path / "f.csv")
    assert np.array_equal(read_field_bin(tmp_path / "f.bin").u, u)
    assert np.array_equal(read_field_csv(tmp_path / "f.csv", 2.0, 2.0, 16, 16, 0.0).u, u)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(32)
    u = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    f = Field(2.0, 2.0, 0.1, u)
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    g = read_field_csv(path, 2.0, 2.0, 8, 8, 0.1)
    assert np.abs(g.u - u).max() == 0.0
    header = path.read_text().splitlines()[0]
    assert header == "x,y,re_u,im_u,abs_u"


def test_csv_numpy_typed_periods(tmp_path):
    # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
    L_x, L_y = np.float64(SINGLE_LX), np.float64(SINGLE_LY)
    v0 = cosine_grid(16, 16)
    sd = build_spectral_data(L_x, L_y, 1e-2, v0)
    fields = evaluate_grid([0.0], 16, 16, sd) + [make_cauchy_field(L_x, L_y, 1.0, 1e-2, v0)]
    for i, f in enumerate(fields):
        path = tmp_path / f"f{i}.csv"
        write_field_csv(f, path)
        g = read_field_csv(path, L_x, L_y, 16, 16, f.t)
        assert np.array_equal(g.u, f.u)
        x = np.loadtxt(path, delimiter=",", skiprows=1)[:2, 0]
        assert x.tolist() == [0.0, float(L_x) / 16]


def test_csv_modulus_overflow(tmp_path):
    # |u| overflows though both parts are finite: abs_u reads inf, u stays exact
    big = np.finfo(float).max
    u = np.array([[big + 1j * big, 1e300 + 1j * big]])
    path = tmp_path / "f.csv"
    write_field_csv(Field(1.0, 1.0, 0.0, u), path)
    g = read_field_csv(path, 1.0, 1.0, 2, 1, 0.0)
    assert g.u.tobytes() == u.tobytes()
    assert np.loadtxt(path, delimiter=",", skiprows=1)[:, 4].tolist() == [np.inf, big]


def reference_csv(field):
    """The CSV text written one sample at a time, every number a repr."""
    lines = ["x,y,re_u,im_u,abs_u\n"]
    dx = float(field.L_x) / field.nx
    dy = float(field.L_y) / field.ny
    for iy in range(field.ny):
        for ix in range(field.nx):
            v = complex(field.u[iy, ix])
            mod = math.hypot(v.real, v.imag)
            lines.append(f"{ix * dx!r},{iy * dy!r},{v.real!r},{v.imag!r},{mod!r}\n")
    return "".join(lines)


def test_csv_matches_per_sample_reference(tmp_path):
    # a non-square grid, signed zeros, the smallest subnormal, a large
    # integer-valued float, NaN and infinite parts, an overflowing modulus,
    # and a real-valued field
    big = np.finfo(float).max
    rng = np.random.default_rng(33)
    u = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    u.flat[:7] = [-0.0, complex(0.0, -0.0), 5e-324, 1e16 - 1e16j,
                  big + 1j * big, 1e300 + 1j * big, complex(np.nan, -np.inf)]
    real = np.arange(6.0).reshape(2, 3)
    for f in (Field(np.float64(2.5), 3.7, 0.1, u), Field(1.0, 2.0, 0.0, real)):
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        assert path.read_bytes() == reference_csv(f).encode()


def test_corrupt_csv_rejected(tmp_path, capsys):
    f = Field(2.0, 2.0, 0.0, np.ones((8, 8), dtype=complex))
    good = tmp_path / "good.csv"
    write_field_csv(f, good)
    lines = good.read_text().splitlines()
    short = lines[:5] + ["0.0,0.25,1.0"] + lines[6:]
    word = lines[:5] + ["0.0,0.25,one,0.0,1.0"] + lines[6:]
    for name, rows in [("short", short), ("word", word), ("one", ["x,y,re_u,im_u,abs_u", "0,0,1"])]:
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join(rows) + "\n")
        n = 1 if name == "one" else 8
        with pytest.raises(OutputError) as err:
            read_field_csv(bad, 2.0, 2.0, n, n, 0.0)
        assert err.value.code == "io"

    # compare on a CSV run with a malformed row exits with the io code
    path, _ = single_mode_config(tmp_path, times=[0.0])
    out = tmp_path / "csvrun"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "csv"]) == 0
    csv = out / "fg_0000.csv"
    rows = csv.read_text().splitlines()
    rows[7] = "0,0,1"
    csv.write_text("\n".join(rows) + "\n")
    assert main(["compare", str(out), str(out)]) == 6
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io" and err["exit_code"] == 6


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(OutputError) as err:
        read_field_bin(path)
    assert err.value.code == "io"


def test_format_flag_csv_only(tmp_path):
    path, _ = single_mode_config(tmp_path, times=[0.0])
    out = tmp_path / "csvrun"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "csv"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "csv" in manifest["files"][0] and "bin" not in manifest["files"][0]


def run_python(args, blas_threads):
    """Run ``python args`` on the package in src/, with OPENBLAS_NUM_THREADS
    set to ``blas_threads`` or, for None, removed from the environment."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PROBE = """
import json, os
import ds2aw.cli
import numpy
status = "/proc/self/status"
threads = None
if os.path.exists(status):
    threads = [int(l.split()[1]) for l in open(status) if l.startswith("Threads:")][0]
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def test_cli_import_pins_openblas_to_one_thread():
    # importing the package before numpy sets the variable, so OpenBLAS
    # starts no worker thread to spin beside the main one
    value, threads = json.loads(run_python(["-c", PROBE], None))
    assert value == "1"
    if threads is None:
        pytest.skip("no /proc/self/status to count threads")
    assert threads == 1


def test_user_openblas_setting_wins():
    value, _ = json.loads(run_python(["-c", PROBE], "2"))
    assert value == "2"


def test_openblas_pin_changes_no_bit(tmp_path):
    # genus-8 evolve-fg with a two-thread pool and with the pin: the same
    # field files, byte for byte
    path, _ = four_mode_config(tmp_path, grid=[32, 32], times=[0.0, 1.0, 2.0])
    files = []
    for threads in ("2", None):
        out = tmp_path / f"threads-{threads}"
        run_python(["-m", "ds2aw.cli", "evolve-fg", "--config", str(path), "--out", str(out),
                    "--format", "bin"], threads)
        files.append({f.name: f.read_bytes() for f in out.glob("*.bin")})
    assert len(files[0]) == 3 and files[0] == files[1]
