"""Each output check accepts the program's output and rejects corrupted
output: a NaN sample, a field scaled by 1.01, or a shifted time.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import (  # noqa: E402
    Case,
    Snapshot,
    akhmediev_peak,
    akhmediev_peak_time,
    read_bin,
    read_csv,
    read_run,
    split_step,
)
from workloads import EPS  # noqa: E402

import ds2aw  # noqa: E402
from ds2aw import cli, fieldio  # noqa: E402

K = 2.0 * np.pi / workloads.SINGLE_L[0]


def fg_snapshots(case: Case, times) -> list[Snapshot]:
    v0 = (case.datum() - case.a) / case.eps
    sd = ds2aw.build_spectral_data(case.L_x, case.L_y, case.eps, v0, a=case.a)
    return [Snapshot(f.t, f.u) for f in ds2aw.evaluate_grid(times, case.nx, case.ny, sd)]


@pytest.fixture(scope="module")
def sweep():
    """The fg-g2-sweep scan on a coarse grid, with its 1-D reference."""
    t_peak = akhmediev_peak_time(K, 1.0, EPS)
    times = tuple(t_peak * j / 12 for j in range(20))
    case = Case(*workloads.SINGLE_L, EPS, workloads.SINGLE_MODE, 32, 8, times)
    row = split_step(case.datum(ny=1), case.L_x, case.L_y, times, case.dt)
    return case, fg_snapshots(case, times), row


def sweep_checks(case, snaps, row) -> dict[str, list[str]]:
    datum = case.datum()
    return {
        "times": checks.times_match(snaps, case.times, "fg"),
        "finite": checks.finite(snaps, "fg"),
        "datum": checks.near_datum(snaps[0], datum, workloads.DATUM_G2, "fg"),
        "mass": checks.mass_kept(snaps, datum, workloads.MASS_G2, "fg"),
        "peak": checks.peak_matches(snaps, akhmediev_peak(K, case.a),
                                    workloads.PEAK_TOL, "fg"),  # x0 = 0 is on the grid
        "solver": checks.agrees(snaps, row, workloads.FG_VS_SOLVER, "fg"),
    }


def scaled(snaps, factor=1.01):
    return [Snapshot(s.t, s.u * factor) for s in snaps]


def test_sweep_checks_accept_program_output(sweep):
    assert sweep_checks(*sweep) == dict.fromkeys(sweep_checks(*sweep), [])


def test_nan_sample_rejected(sweep):
    case, snaps, row = sweep
    bad = [Snapshot(s.t, s.u.copy()) for s in snaps]
    bad[7].u[3, 5] = np.nan
    failed = sweep_checks(case, bad, row)
    assert failed["finite"] and failed["mass"] and failed["solver"]


@pytest.mark.parametrize("check", ["datum", "mass", "peak", "solver"])
def test_scaled_field_rejected(sweep, check):
    case, snaps, row = sweep
    assert sweep_checks(case, scaled(snaps), row)[check]


def test_shifted_time_rejected(sweep):
    case, snaps, row = sweep
    relabelled = [Snapshot(s.t + 0.05, s.u) for s in snaps]
    assert sweep_checks(case, relabelled, row)["times"]
    late = fg_snapshots(case, [t + 0.05 for t in case.times])
    moved = [Snapshot(t, s.u) for t, s in zip(case.times, late)]
    failed = sweep_checks(case, moved, row)
    assert failed["datum"] and failed["solver"]


def test_peak_reference_follows_grid_sampling():
    """With the breather's peak between grid points the expected maximum is
    the closed form at the largest sampled cos(k (x - x0)), not 2.6."""
    t_peak = akhmediev_peak_time(K, 1.0, EPS)
    modes = workloads.shifted(workloads.SINGLE_L, workloads.SINGLE_MODE, seed=1)
    case = Case(*workloads.SINGLE_L, EPS, modes, 32, 8, (t_peak,))
    snaps = fg_snapshots(case, case.times)
    c = float(np.max(case.datum().real - 1.0)) / EPS
    tol = workloads.PEAK_TOL
    assert checks.peak_matches(snaps, akhmediev_peak(K, 1.0, c), tol, "fg") == []
    assert checks.peak_matches(snaps, akhmediev_peak(K, 1.0), tol, "fg")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """evolve-ref, evolve-fg and compare run through the CLI on 16^2."""
    out = tmp_path_factory.mktemp("pipeline")
    case = Case(*workloads.SINGLE_L, EPS, workloads.SINGLE_MODE, 16, 16, (0.0, 0.4, 0.8))
    cfg = out / "c.json"
    cfg.write_text(json.dumps(case.config("both")))
    for argv in (["evolve-ref", "--config", str(cfg), "--out", str(out / "ref")],
                 ["evolve-fg", "--config", str(cfg), "--out", str(out / "fg")],
                 ["compare", str(out / "fg"), str(out / "ref"),
                  "--out", str(out / "compare.json")]):
        assert cli.main(argv) == 0
    return case, out


def test_parsers_read_program_files_exactly(pipeline):
    case, out = pipeline
    bins = read_run(out / "ref", 16, 16, "bin")
    csvs = read_run(out / "ref", 16, 16, "csv")
    assert checks.identical(csvs, bins, "ref") == []
    for i, s in enumerate(bins):
        f = fieldio.read_field_bin(out / "ref" / f"ref_{i:04d}.bin")
        assert np.array_equal(f.u, s.u) and f.t == s.t == case.times[i]


def test_identical_rejects_corrupted_copy(pipeline):
    _, out = pipeline
    bins = read_run(out / "ref", 16, 16, "bin")
    csvs = read_run(out / "ref", 16, 16, "csv")
    assert checks.identical(scaled(csvs), bins, "ref")
    assert checks.identical([Snapshot(s.t + 0.05, s.u) for s in csvs], bins, "ref")
    csvs[1].u[0, 0] = np.nan
    assert checks.identical(csvs, bins, "ref")


def test_norm_check(pipeline):
    _, out = pipeline
    ref = read_run(out / "ref", 16, 16, "bin")
    assert checks.norm_kept(ref, workloads.NORM_TOL, "ref") == []
    assert checks.norm_kept(ref[:2] + scaled(ref[2:]), workloads.NORM_TOL, "ref")
    ref[1].u[2, 2] = np.nan
    assert checks.norm_kept(ref, workloads.NORM_TOL, "ref")


def test_compare_report_check(pipeline):
    _, out = pipeline
    fg = read_run(out / "fg", 16, 16, "bin")
    ref = read_run(out / "ref", 16, 16, "bin")
    doc = json.loads((out / "compare.json").read_text())
    limit = workloads.COMPARE_LIMIT
    assert checks.compare_report(doc, fg, ref, limit) == []
    assert checks.compare_report(doc, scaled(fg), ref, limit)
    assert checks.compare_report(dict(doc, times=[t + 0.05 for t in doc["times"]]),
                                 fg, ref, limit)
    assert checks.compare_report(dict(doc, rel_linf=[float("nan")] * 3), fg, ref, limit)
    far = scaled(fg, 1.3)
    honest = dict(doc, rel_linf=[checks.rel_linf(a.u, b.u) for a, b in zip(far, ref)])
    assert checks.compare_report(honest, far, ref, limit)


def test_unreadable_output_is_a_failed_check(pipeline, tmp_path):
    _, out = pipeline
    raw = (out / "ref" / "ref_0000.bin").read_bytes()
    (tmp_path / "cut.bin").write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        read_bin(tmp_path / "cut.bin")
    (tmp_path / "short.csv").write_text("x,y,re_u,im_u,abs_u\n0,0,1,0,1\n")
    with pytest.raises(ValueError):
        read_csv(tmp_path / "short.csv", 16, 16, 0.0)
    verify = workloads._guarded(lambda d: read_run(d, 16, 16, "bin") and [])
    assert verify(tmp_path / "missing")


def test_metric_names_match_benchmark_json():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
