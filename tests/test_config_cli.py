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

from ds2aw import fieldgen, refsolver
from ds2aw.cli import main
from ds2aw.config import RunConfig, config_from_dict, config_hash
from ds2aw.errors import ConfigError, OutputError
from ds2aw.curve import build_spectral_data, regime
from ds2aw.fieldgen import evaluate_grid, first_appearance_estimate
from ds2aw.fieldio import Field, read_field_bin, read_field_csv, write_field_bin, write_field_csv

from conftest import (
    COLLIDE_LY,
    FOURMODE_LX,
    FOURMODE_LY,
    FOURMODE_TERMS,
    SINGLE_LX,
    SINGLE_LY,
    cosine_grid,
    count_censuses,
    harmonic_grid,
    reference_csv,
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
        **{"L_x": FOURMODE_LX, "L_y": FOURMODE_LY, "perturbation": {"harmonics": harmonics},
           **overrides},
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


def test_manifest_names_no_theta_radius(tmp_path):
    # the theta truncation has no box radius to record; "M": "adaptive" is
    # still read, and a config with it hashes like one without
    path, doc = single_mode_config(tmp_path, times=[0.0])
    out = tmp_path / "fg"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "bin"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["theta"] == {"tail_tol": 1e-10}
    bare = config_from_dict({**doc, "theta": {"tail_tol": 1e-10}})
    assert config_hash(bare) == config_hash(config_from_dict(doc)) == manifest["config_hash"]


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


@pytest.mark.parametrize(
    "override",
    [
        {"perturbation": {"harmonics": [{"n_x": 1.7, "n_y": 0, "c": [0.5, 0.0]}]}},
        {"perturbation": {"harmonics": [{"n_x": "1", "n_y": 0, "c": [0.5, 0.0]}]}},
        {"perturbation": {"harmonics": [{"n_x": 1, "n_y": True, "c": [0.5, 0.0]}]}},
        {"grid": [128.7, 128]},
        {"grid": [32, "32"]},
        {"grid": [True, 32]},
        {"grid": [32, 32, 32]},
        {"grid": [32]},
    ],
    ids=["float-n_x", "string-n_x", "bool-n_y", "float-grid", "string-grid", "bool-grid",
         "three-grid", "one-grid"],
)
def test_config_integer_fields_are_integers(tmp_path, capsys, override):
    # int() would read 1.7 as 1 and a three-entry grid as its first two
    path, _ = single_mode_config(tmp_path, **override)
    assert main(["spectrum", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse" and "bad config field" in err["message"]


def _harmonic_c(c):
    return {"perturbation": {"harmonics": [{"n_x": 1, "n_y": 0, "c": c}]}}


@pytest.mark.parametrize(
    "override, text",
    [
        ({"L_x": "5.2"}, "L_x must be a finite number"),
        ({"L_x": 10**400}, "L_x must be a finite number"),
        ({"a": True}, "a must be a finite number"),
        ({"eps": True}, "eps must be a finite number"),
        ({"times": ["0.3"]}, "times must be a finite number"),
        ({"dt": "1e-3"}, "dt must be a finite number"),
        ({"theta": {"M": "adaptive", "tail_tol": "1e-10"}}, "tail_tol must be a finite number"),
        (_harmonic_c(["0.5", 0]), "harmonic c must be a finite number"),
        (_harmonic_c(0.5), "harmonic c must be [re, im]"),
        (_harmonic_c(True), "harmonic c must be [re, im]"),
        (_harmonic_c([0.5, 0, 0]), "harmonic c must be [re, im]"),
        ({"perturbation": {"grid_file": 5}}, "grid_file must be a string"),
        ({"perturbation": {"grid_file": True}}, "grid_file must be a string"),
        ({"perturbation": {"grid_file": ["a"]}}, "grid_file must be a string"),
        ({"schema": True}, "schema must be an integer"),
        ({"schema": 1.0}, "schema must be an integer"),
    ],
    ids=["string-L_x", "huge-int-L_x", "bool-a", "bool-eps", "string-time", "string-dt",
         "string-tail_tol", "string-c", "bare-number-c", "bool-c", "three-c",
         "int-grid_file", "bool-grid_file", "list-grid_file", "bool-schema", "float-schema"],
)
def test_config_number_fields_are_numbers(tmp_path, capsys, override, text):
    # float() would read "5.2" as 5.2 and true as 1.0, and true == 1.0 == 1
    # would pass the schema check; a grid_file that is no string would fail
    # inside the file reader, after the config was taken
    path, _ = single_mode_config(tmp_path, **override)
    assert main(["spectrum", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse" and "bad config field" in err["message"]
    assert text in err["message"]


@pytest.mark.parametrize(
    "override, where, key",
    [
        ({"dT": 1e-3}, "config", "dT"),
        ({"perturbation": {"grid_fil": "v0.bin"}}, "perturbation", "grid_fil"),
        ({"perturbation": {"harmonics": [{"n_x": 1, "n_y": 0, "c": [0.5, 0.0], "C": 1}]}},
         "harmonic", "C"),
        ({"theta": {"M": "adaptive", "tail_tl": 1e-12}}, "theta", "tail_tl"),
        ({"outputs": {"directory": None, "fromat": "bin"}}, "outputs", "fromat"),
    ],
    ids=["top-level", "perturbation", "harmonic", "theta", "outputs"],
)
def test_config_unknown_keys_refused(tmp_path, capsys, override, where, key):
    # a misspelled key would otherwise leave its default in force
    path, _ = single_mode_config(tmp_path, **override)
    assert main(["spectrum", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse"
    assert err["message"] == f"{where} has unknown key {key!r}"


@pytest.mark.parametrize("cmd", ["analyze", "evolve-fg"])
def test_config_output_directory_only_null(tmp_path, capsys, cmd):
    # --out is the one way to name the output directory
    path, _ = single_mode_config(tmp_path, outputs={"directory": str(tmp_path / "o"),
                                                    "format": "both"})
    assert main([cmd, "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse" and "--out" in err["message"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "run").exists()


def bad_config(tmp_path, case):
    """A single-mode config file that fails to load in the way ``case`` names."""
    grid = tmp_path / "v0.bin"  # 16^2 samples against the config's 32^2 grid
    write_field_bin(Field(SINGLE_LX, SINGLE_LY, 0.0, cosine_grid(16, 16)), grid)
    boxed = tmp_path / "v0_box.bin"  # the config's 32^2 grid, sampled on another box
    write_field_bin(Field(99.0, 77.0, 5.0, cosine_grid(32, 32)), boxed)
    both = {"harmonics": [{"n_x": 1, "n_y": 0, "c": [0.5, 0.0]}], "grid_file": str(grid)}
    overrides = {
        "period": {"L_x": 0.0},
        "background": {"a": 0.0},
        "eps": {"eps": -1e-2},
        "small-grid": {"grid": [32, 4]},
        "unsorted-times": {"times": [0.3, 0.0]},
        "dt": {"dt": 0.0},
        "format": {"outputs": {"format": "png"}},
        "harmonics-and-grid-file": {"perturbation": both},
        "grid-file-shape": {"perturbation": {"grid_file": str(grid)}},
        "grid-file-box": {"perturbation": {"grid_file": str(boxed)}},
        "schema": {"schema": 2},
    }
    path, doc = single_mode_config(tmp_path, **overrides.get(case, {}))
    if case == "missing-key":
        del doc["eps"]
        path.write_text(json.dumps(doc))
    elif case == "not-json":
        path.write_text(json.dumps(doc)[:-1])
    elif case == "not-utf8":  # 0x80 starts no UTF-8 character and no BOM
        path.write_bytes(b"\x80" + json.dumps(doc).encode())
    elif case == "huge-integer":
        path.write_text(json.dumps(doc).replace('"eps": 0.01', '"eps": ' + "1" * 5000))
    elif case == "deep-nesting":
        path.write_text("[" * 100_000 + "]" * 100_000)
    elif case == "unreadable":
        path.unlink()
    return path


CONFIG_FAULTS = [
    ("period", "invalid-period", "periods must be positive"),
    ("background", "config-parse", "background a must be positive"),
    ("eps", "config-parse", "eps must be positive"),
    ("small-grid", "config-parse", "at least 8x8"),
    ("unsorted-times", "config-parse", "times must be sorted"),
    ("dt", "config-parse", "dt must be positive"),
    ("format", "config-parse", "format must be one of"),
    ("harmonics-and-grid-file", "config-parse", "not both"),
    ("grid-file-shape", "config-parse", "grid_file is 16x16, config grid is 32x32"),
    ("grid-file-box", "config-parse",
     f"grid_file box is 99.0 x 77.0, config box is {SINGLE_LX} x {SINGLE_LY}"),
    ("schema", "config-parse", "unsupported schema 2"),
    ("missing-key", "config-parse", "bad config field: 'eps'"),
    ("not-json", "config-parse", ".json:1:"),
    ("not-utf8", "config-parse", ".json:1:1: 'utf-8' codec can't decode byte 0x80"),
    ("huge-integer", "config-parse", "integer string conversion"),
    ("deep-nesting", "config-parse", "maximum recursion depth"),
    ("unreadable", "config-parse", "cannot read config"),
]


@pytest.mark.parametrize("case, code, text", CONFIG_FAULTS, ids=[f[0] for f in CONFIG_FAULTS])
def test_config_coded_failures(tmp_path, capsys, case, code, text):
    # spectrum loads the file, validates it and samples the datum
    path = bad_config(tmp_path, case)
    assert main(["spectrum", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == code and err["exit_code"] == 2 and text in err["message"]


def test_analyze_four_mode(tmp_path, capsys):
    path, _ = four_mode_config(tmp_path)
    assert main(["analyze", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    unstable = [(m["n_x"], m["n_y"]) for m in doc["modes"] if m["unstable"]]
    classes = {(nx, ny) for nx, ny in unstable if (nx, ny) >= (-nx, -ny)}
    assert classes == {(1, 0), (0, 1), (1, 1), (1, -1)}
    assert doc["genericity"]["ok"] is True


def test_analyze_takes_one_census(tmp_path, capsys, monkeypatch):
    # the listed modes are the census the genericity verdict was taken on
    calls = count_censuses(monkeypatch)
    path, _ = four_mode_config(tmp_path)
    assert main(["analyze", "--config", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["modes"]) == 24
    assert len(calls) == 1


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


def test_spectrum_single_mode(tmp_path, capsys, single_mode_sd):
    path, _ = single_mode_config(tmp_path)
    assert main(["spectrum", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["g"] == 2
    assert len(doc["pairs"]) == 2
    # the construction's identities are checked on the data in test_curve
    # and by criterion 3; the JSON carries where the data stop being valid
    assert "diagnostics" not in doc
    assert doc["regime"] == dict(zip(("eps_max", "lambda_min_P"), regime(single_mode_sd)))
    # complex numbers serialized as [re, im]
    assert isinstance(doc["W_t"][0], list) and len(doc["W_t"][0]) == 2


@pytest.mark.parametrize("make, L_y, genus", [(single_mode_config, 2 * math.pi / 4.2, 2),
                                               (four_mode_config, 2 * math.pi / 2.8, 8)],
                         ids=["genus2", "genus8"])
def test_spectrum_pairs_carry_the_analyze_census(tmp_path, capsys, make, L_y, genus):
    # at a = 2 each pair's mode is the census entry analyze lists, in the
    # problem's units: k_x = 2.4 and sigma = 7.68 for (1, 0), so |W_t| =
    # sigma and W_zbar, W_z = i (k_x +/- i k_y) / 2 hold within one document
    path, _ = make(tmp_path, L_x=2 * math.pi / 2.4, L_y=L_y, a=2.0)
    assert main(["analyze", "--config", str(path)]) == 0
    census = {(m["n_x"], m["n_y"]): m for m in json.loads(capsys.readouterr().out)["modes"]}
    assert main(["spectrum", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["g"] == genus
    for p, W_t, W_zbar, W_z in zip(doc["pairs"], doc["W_t"], doc["W_zbar"], doc["W_z"]):
        mode = p["mode"]
        assert mode == census[mode["n_x"], mode["n_y"]]
        sigma = mode["sigma"][0]
        assert abs(complex(*W_t)) == pytest.approx(sigma, rel=1e-12)
        k = complex(mode["k_x"], mode["k_y"])
        assert complex(*W_zbar) == pytest.approx(0.5j * k, abs=1e-12)
        assert complex(*W_z) == pytest.approx(0.5j * k.conjugate(), abs=1e-12)
    assert census[1, 0]["k_x"] == pytest.approx(2.4) and census[1, 0]["sigma"][0] == 7.68


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
    # a finite but huge grid_file datum: |u|^2 overflows in the first step,
    # and the solver fails closed with the coded error as its one report (no
    # numpy warning); a non-finite datum is a config error
    v0 = np.full((32, 32), 1e200, dtype=complex)
    grid = tmp_path / "v0.bin"
    write_field_bin(Field(SINGLE_LX, SINGLE_LY, 0.0, v0), grid)
    path, _ = single_mode_config(tmp_path, perturbation={"grid_file": str(grid)})
    out = tmp_path / "ref"
    assert main(["evolve-ref", "--config", str(path), "--out", str(out)]) == 5
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1 and stderr.endswith("\n")
    err = json.loads(stderr)
    assert err["error"] == "nan-detected" and err["exit_code"] == 5
    assert "t = 0.001 " in err["message"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("cmd", ["spectrum", "evolve-fg", "evolve-ref"])
def test_non_finite_grid_file_is_config_error(tmp_path, capsys, cmd, bad):
    # a non-finite datum sample is bad input, named at load, before any
    # command can turn it into NaN tokens in the JSON or a numeric failure
    v0 = cosine_grid(16, 16)
    v0[3, 4] = bad
    grid = tmp_path / "v0.bin"
    write_field_bin(Field(SINGLE_LX, SINGLE_LY, 0.0, v0), grid)
    path, _ = single_mode_config(tmp_path, grid=[16, 16], perturbation={"grid_file": str(grid)})
    assert main([cmd, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config-parse" and str(grid) in err["message"]
    assert not (tmp_path / "out").exists()


def test_evolve_fg_past_eps_max_names_the_regime(tmp_path, capsys, four_mode_sd):
    # just past eps_max Re B is not negative definite: the failure keeps its
    # code and exit code, and names eps and eps_max rather than blaming B
    eps_max = regime(four_mode_sd)[0]
    eps = 1.01 * eps_max
    path, _ = four_mode_config(tmp_path, eps=eps, grid=[32, 32])
    out = tmp_path / "fg"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out)]) == 5
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "not-negative-definite" and err["exit_code"] == 5
    assert f"eps = {eps:.6g}" in err["message"]
    assert f"eps_max = {eps_max:.6g}" in err["message"]
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


@pytest.mark.parametrize("place", ["wrong-kind", "under-a-file"])
@pytest.mark.parametrize("cmd", ["analyze", "spectrum", "evolve-fg", "evolve-ref", "compare"])
def test_unwritable_out_is_io(tmp_path, capsys, monkeypatch, cmd, place):
    # --out names a directory, or compare's metrics file: an existing file
    # (a directory for compare) or a path below a file cannot be written.
    # The evolve commands fail before they compute a snapshot
    path, _ = single_mode_config(tmp_path, grid=[8, 8], times=[0.0, 0.1])
    run = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(run), "--format", "bin"]) == 0
    capsys.readouterr()
    computed = []
    for module, name in ((refsolver, "step"), (fieldgen, "evaluate_grid")):
        real = getattr(module, name)
        spy = lambda *args, _real=real, _name=name: computed.append(_name) or _real(*args)  # noqa: E731
        monkeypatch.setattr(module, name, spy)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    wrong = run if cmd == "compare" else blocker
    out = wrong if place == "wrong-kind" else blocker / "out"
    args = [str(run), str(run)] if cmd == "compare" else ["--config", str(path)]
    assert main([cmd, *args, "--out", str(out)]) == 6
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1 and stderr.endswith("\n")
    err = json.loads(stderr)
    assert err["error"] == "io" and err["exit_code"] == 6
    assert str(out if place == "wrong-kind" else blocker) in err["message"]
    assert computed == []


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


def test_compare_box_mismatch(tmp_path, capsys):
    # the same 16x16 grid and times on two tori: the samples sit at other
    # points, so the metrics would compare unlike fields
    p1, _ = single_mode_config(tmp_path, grid=[16, 16], times=[0.0, 0.1])
    p2, _ = single_mode_config(tmp_path, L_x=2.0 * math.pi / 1.1, grid=[16, 16], times=[0.0, 0.1])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["evolve-fg", "--config", str(p1), "--out", str(out1)]) == 0
    assert main(["evolve-ref", "--config", str(p2), "--out", str(out2)]) == 0
    assert main(["compare", str(out1), str(out2)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "grid-mismatch" and repr(2.0 * math.pi / 1.1) in err["message"]


@pytest.mark.parametrize(
    "edit, code",
    [
        (lambda f: Field(f.L_x, f.L_y, f.t, f.u[:1]), "grid-mismatch"),
        (lambda f: Field(f.L_x, f.L_y, f.t + 0.5, f.u), "time-mismatch"),
        (lambda f: Field(f.L_x, 2.0 * f.L_y, f.t, f.u), "grid-mismatch"),
    ],
    ids=["one-row-file", "later-file", "other-box-file"],
)
def test_compare_file_disagrees_with_manifest(tmp_path, capsys, edit, code):
    # the manifest says 8x8 at t = 0 on its box, but the file holds another
    # grid (a 1x8 row broadcasts against 8x8, so unchecked it compared as
    # equal), time or box
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


def test_manifest_states_config_hash_and_files(tmp_path):
    # grid, box and times live in the config alone; every entry keeps its t
    # and string file names, which readers of a run directory rely on
    path, _ = single_mode_config(tmp_path, times=[0.0, 0.3])
    out = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["command", "config", "config_hash", "files", "schema"]
    assert manifest["schema"] == 2
    assert manifest["config"]["grid"] == [32, 32] and manifest["config"]["times"] == [0.0, 0.3]
    assert [e["t"] for e in manifest["files"]] == [0.0, 0.3]
    assert all(type(e[k]) is str for e in manifest["files"] for k in ("bin", "csv"))


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_compare_reads_the_old_manifest_layout(tmp_path, capsys, fmt):
    # a schema-1 manifest repeats grid, box and times beside its config
    path, doc = single_mode_config(tmp_path, times=[0.0, 0.3])
    out = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", fmt]) == 0
    assert main(["compare", str(out), str(out)]) == 0
    new = capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.update(schema=1, grid=doc["grid"], L_x=doc["L_x"], L_y=doc["L_y"],
                    times=doc["times"], format=fmt)
    manifest["config"]["outputs"]["directory"] = None
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", str(out), str(out)]) == 0
    assert capsys.readouterr().out == new


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(files=m["files"][:1]),
        lambda m: m["config"].update(grid=16),
        lambda m: m["config"].update(grid=[16, 0]),
        lambda m: m["config"].update(grid=[16.5, 16]),
        lambda m: m.update(files=["fg_0000.bin", "fg_0001.bin"]),
        lambda m: m["files"][0].update(bin=5),
        lambda m: m["files"][1].update(csv=None),
        lambda m: m["files"][1].update(t="x"),
    ],
    ids=["truncated-files", "scalar-grid", "zero-grid", "float-grid", "name-files",
         "int-bin-name", "null-csv-name", "string-entry-time"],
)
def test_compare_manifest_bad_shape(tmp_path, capsys, edit):
    # the manifest's config goes through the config parser; every error
    # names the manifest
    path, _ = single_mode_config(tmp_path, grid=[16, 16], times=[0.0, 0.3])
    out = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "csv"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", str(out), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse" and "manifest.json" in err["message"]


@pytest.mark.parametrize("case", ["unreadable", "not-json", "not-utf8"])
def test_compare_manifest_unloadable(tmp_path, capsys, case):
    # the manifest is read by the config's reader, which places a fault
    path = tmp_path / "manifest.json"
    if case == "not-json":
        path.write_text('{"grid": [8, 8],')
    elif case == "not-utf8":
        path.write_bytes(b'\x80{"grid": [8, 8]}')
    assert main(["compare", str(path), str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-parse" and err["exit_code"] == 2
    if case != "unreadable":
        assert "manifest.json:1:" in err["message"]


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_compare_refuses_non_finite_samples(tmp_path, capsys, fmt):
    # unchecked, a NaN sample reached the metrics as a NaN token, which is not JSON
    path, _ = single_mode_config(tmp_path, grid=[8, 8], times=[0.0])
    out = tmp_path / "run"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", fmt]) == 0
    u = np.ones((8, 8), dtype=complex)
    u[3, 4] = np.nan
    write = write_field_bin if fmt == "bin" else write_field_csv
    write(Field(SINGLE_LX, SINGLE_LY, 0.0, u), out / f"fg_0000.{fmt}")
    assert main(["compare", str(out), str(out)]) == 6
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io" and f"fg_0000.{fmt}" in err["message"]


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
    fields = evaluate_grid([0.0], 16, 16, sd) + [Field(L_x, L_y, 0.0, 1.0 + 1e-2 * v0)]
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


def test_csv_formats_each_repeated_row_once(tmp_path, monkeypatch):
    # the deterministic work: one modulus per formatted sample, so a
    # y-independent 128^2 field formats one row's values and a field with
    # no repeated row formats all of them
    count = [0]
    hypot = math.hypot

    def spy(a, b):
        count[0] += 1
        return hypot(a, b)

    monkeypatch.setattr(math, "hypot", spy)
    rng = np.random.default_rng(34)
    row = rng.normal(size=128) + 1j * rng.normal(size=128)
    write_field_csv(Field(2.0, 2.0, 0.0, np.tile(row, (128, 1))), tmp_path / "f.csv")
    assert count == [128]
    count[0] = 0
    u = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    write_field_csv(Field(2.0, 2.0, 0.0, u), tmp_path / "f.csv")
    assert count == [128 * 128]


MALFORMED_ROWS = {
    "4 columns": lambda rows: rows[:7] + [rows[7].rsplit(",", 1)[0]] + rows[8:],
    "6 columns": lambda rows: rows[:7] + [rows[7] + ",1.0"] + rows[8:],
    "missing row": lambda rows: rows[:7] + rows[8:],
    "extra row": lambda rows: rows + rows[-1:],
}


@pytest.mark.parametrize("edit", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_csv_rows_of_the_wrong_shape_rejected(tmp_path, capsys, edit):
    # the reader converts two of the five columns; a row with one column too
    # few or too many, or one row too few or too many, still fails
    path, _ = single_mode_config(tmp_path, times=[0.0])
    out = tmp_path / "csvrun"
    assert main(["evolve-fg", "--config", str(path), "--out", str(out), "--format", "csv"]) == 0
    csv = out / "fg_0000.csv"
    csv.write_text("\n".join(edit(csv.read_text().splitlines())) + "\n")
    with pytest.raises(OutputError) as err:
        read_field_csv(csv, SINGLE_LX, SINGLE_LY, 32, 32, 0.0)
    assert err.value.code == "io"
    assert main(["compare", str(out), str(out)]) == 6
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io" and err["exit_code"] == 6


def test_csv_without_final_newline_reads(tmp_path):
    u = np.arange(12.0).reshape(3, 4) - 1j
    path = tmp_path / "f.csv"
    write_field_csv(Field(2.0, 2.0, 0.0, u), path)
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    assert read_field_csv(path, 2.0, 2.0, 4, 3, 0.0).u.tobytes() == u.tobytes()


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


@pytest.mark.parametrize("case", ["truncated-header", "wrong-byte-count", "unreadable"])
def test_read_field_bin_coded_failures(tmp_path, case):
    path = tmp_path / "f.bin"
    if case != "unreadable":
        write_field_bin(Field(1.0, 1.0, 0.0, np.zeros((8, 8), complex)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:20] if case == "truncated-header" else raw[:-16])
    with pytest.raises(OutputError) as err:
        read_field_bin(path)
    assert (err.value.code, err.value.exit_code) == ("io", 6)


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
