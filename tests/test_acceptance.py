"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line of every criterion as it completes.  Every tolerance is pinned here,
not configurable.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ds2aw.cli import main
from ds2aw.curve import build_spectral_data
from ds2aw.fieldgen import (
    Field,
    default_theta_params,
    evaluate_grid,
    make_cauchy_field,
)
from ds2aw.modes import growth_rate
from ds2aw.refsolver import evolve, q_multiplier
from ds2aw.theta import ThetaParams, adaptive_radius, quasi_periodicity_residual, theta

from conftest import FOURMODE_LX, FOURMODE_LY, SINGLE_LX, SINGLE_LY, cosine_grid, harmonic_grid
from test_fieldgen import evaluate_u
from test_refsolver import eigenvector_seed, fitted_rate, mode_coefficient, step_snapshots


@contextmanager
def criterion(num, text):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] FAIL  {text}")
        raise
    print(f"[ACCEPTANCE {num}] PASS  {text}  ({time.perf_counter() - start:.2f}s)")


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


FOURMODE_HARMONICS = [
    {"n_x": 1, "n_y": 0, "c": [0.35, 0.0]},
    {"n_x": -1, "n_y": 0, "c": [0.35, 0.0]},
    {"n_x": 0, "n_y": 1, "c": [0.25, 0.0]},
    {"n_x": 0, "n_y": -1, "c": [0.25, 0.0]},
    {"n_x": 1, "n_y": 1, "c": [0.15, 0.1]},
    {"n_x": -1, "n_y": -1, "c": [0.15, -0.1]},
    {"n_x": 1, "n_y": -1, "c": [0.12, 0.0]},
    {"n_x": -1, "n_y": 1, "c": [0.08, 0.0]},
]

SINGLE_HARMONICS = [
    {"n_x": 1, "n_y": 0, "c": [0.5, 0.0]},
    {"n_x": -1, "n_y": 0, "c": [0.5, 0.0]},
]


def base_config(L_x, L_y, harmonics, **overrides):
    doc = {
        "schema": 1,
        "L_x": L_x,
        "L_y": L_y,
        "a": 1.0,
        "eps": 1e-2,
        "perturbation": {"harmonics": harmonics},
        "grid": [32, 32],
        "times": [0.0],
        "dt": 1e-3,
        "theta": {"M": "adaptive", "tail_tol": 1e-10},
    }
    doc.update(overrides)
    return doc


def canonical(n_x, n_y):
    return (n_x, n_y) if (n_x > 0 or (n_x == 0 and n_y > 0)) else (-n_x, -n_y)


def test_criterion_1_mode_census(tmp_path, capsys):
    """Four-mode benchmark: 4 unstable classes, genus 8, pair layout, < 1 s."""
    with criterion(1, "mode census and genus-8 spectrum, four-mode benchmark"):
        start = time.perf_counter()
        cfg = write_config(
            tmp_path, "fourmode.json", base_config(FOURMODE_LX, FOURMODE_LY, FOURMODE_HARMONICS)
        )
        assert main(["analyze", "--config", str(cfg)]) == 0
        analyze_doc = json.loads(capsys.readouterr().out)
        unstable = [(m["n_x"], m["n_y"]) for m in analyze_doc["modes"] if m["unstable"]]
        assert {canonical(*k) for k in unstable} == {(1, 0), (0, 1), (1, 1), (1, -1)}
        assert len(unstable) == 8
        assert analyze_doc["genericity"]["ok"] is True

        assert main(["spectrum", "--config", str(cfg)]) == 0
        spec_doc = json.loads(capsys.readouterr().out)
        assert spec_doc["g"] == 8
        assert len(spec_doc["pairs"]) == 8
        # mirror pairs sit N apart and the clockwise cyclic order of the
        # mode classes is fixed by the geometry of the resonant points;
        # the fixed reference angle pins the rotation
        seq = [canonical(p["mode"]["n_x"], p["mode"]["n_y"]) for p in spec_doc["pairs"]]
        assert seq[:4] == seq[4:]
        mode_cycle = [(1, 1), (1, 0), (1, -1), (0, 1)]
        rotations = [mode_cycle[r:] + mode_cycle[:r] for r in range(4)]
        assert seq[:4] in rotations
        for j in range(4):
            t_j = complex(*spec_doc["pairs"][j]["tau_1"])
            t_m = complex(*spec_doc["pairs"][j + 4]["tau_1"])
            assert abs(t_j + t_m) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


SAMPLED_WAVEVECTORS = [
    # (L_x, L_y, n_x, n_y, kind): 3 unstable, 3 stable
    (2 * math.pi / 1.2, 2 * math.pi / 1.3, 1, 0, "grow"),
    (2 * math.pi / 1.3, 2 * math.pi / 1.4, 0, 1, "grow"),
    (2 * math.pi / 1.2, 2 * math.pi / 1.4, 1, 1, "grow"),
    (2 * math.pi / 3.0, 2 * math.pi / 1.1, 1, 0, "osc"),
    (2 * math.pi / 1.1, 2 * math.pi / 2.2, 0, 1, "osc"),
    (2 * math.pi / 2.4, 2 * math.pi / 1.0, 1, 1, "osc"),
]


def test_criterion_2_dispersion_oracle():
    """Fitted solver rates match the dispersion formula within 1%."""
    with criterion(2, "refsolver dispersion vs formula, 6 wavevectors, 1%"):
        start = time.perf_counter()
        for L_x, L_y, n_x, n_y, kind in SAMPLED_WAVEVECTORS:
            f, k_x, k_y, lam = eigenvector_seed(L_x, L_y, 128, n_x, n_y, 1e-4, kind)
            times = list(np.linspace(0.0, 1.0, 11))
            fields = evolve(f, times, 2e-3)
            rate = fitted_rate(fields, n_x, n_y)
            sigma = growth_rate(k_x, k_y, 1.0)
            assert abs(abs(rate) - abs(sigma)) <= 0.01 * abs(sigma), (k_x, k_y)
            assert abs(rate - lam) <= 0.01 * abs(lam), (k_x, k_y)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_wt_sigma_identity():
    """|W_t| equals the growth rate for every pair, 1e-10 relative."""
    with criterion(3, "|W_t| = sigma identity on all pairs"):
        configs = [
            (FOURMODE_LX, FOURMODE_LY, harmonic_grid(
                32, 32,
                [(1, 0, 0.35), (-1, 0, 0.35), (0, 1, 0.25), (0, -1, 0.25),
                 (1, 1, 0.15 + 0.1j), (-1, -1, 0.15 - 0.1j),
                 (1, -1, 0.12), (-1, 1, 0.08)])),
            (SINGLE_LX, SINGLE_LY, cosine_grid(32, 32)),
        ]
        for L_x, L_y, v0 in configs:
            sd = build_spectral_data(L_x, L_y, 1e-2, v0)
            for idx, p in enumerate(sd.pairs):
                sigma = abs(growth_rate(p.mode.k_x, p.mode.k_y, 1.0))
                assert abs(abs(sd.W_t[idx]) - sigma) <= 1e-10 * sigma


def test_criterion_4_theta_correctness():
    """Frozen genus-1 value, quasi-periodicity, block factorization."""
    with criterion(4, "theta value 1e-9, quasi-periodicity 1e-9, blocks 1e-12"):
        start = time.perf_counter()
        p1 = ThetaParams(B=np.array([[-2.0 + 0j]]), truncation_radius=6)
        assert abs(theta(np.zeros(1, dtype=complex), p1) - 1.7726372048) < 1e-9

        rng = np.random.default_rng(2024)
        cases = [1] * 34 + [2] * 33 + [4] * 33
        for g in cases:
            d = rng.uniform(-16.0, -11.0, size=g)
            off = rng.uniform(-0.4, 0.4, size=(g, g))
            B = ((off + off.T) / 2.0 + np.diag(d) + 0j)
            np.fill_diagonal(B, d)
            z = rng.uniform(-5, 5, g) + 1j * rng.uniform(-5, 5, g)
            k = int(rng.integers(0, g))
            bound = 5.0 + float(np.abs(np.real(B)).max())
            M = adaptive_radius(B, bound, 1e-13)
            params = ThetaParams(B=B, truncation_radius=M, tail_tolerance=1e-6)
            assert quasi_periodicity_residual(z, k, params) <= 1e-9

        for _ in range(5):
            d = rng.uniform(-14.0, -10.0, size=4)
            B = np.diag(d) + 0j
            B[0, 1] = B[1, 0] = 0.3
            B[2, 3] = B[3, 2] = -0.2
            pfull = ThetaParams(B=B, truncation_radius=6, tail_tolerance=1e-6)
            pa = ThetaParams(B=B[:2, :2], truncation_radius=6, tail_tolerance=1e-6)
            pb = ThetaParams(B=B[2:, 2:], truncation_radius=6, tail_tolerance=1e-6)
            z = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
            whole = theta(z, pfull)
            parts = theta(z[:2], pa) * theta(z[2:], pb)
            assert abs(whole - parts) <= 1e-12 * abs(whole)
        assert time.perf_counter() - start < 5.0


def test_criterion_5_cauchy_reconstruction_order():
    """t = 0 field error scales as eps^2: ratio(2e-2 / 1e-2) in [3, 5]."""
    with criterion(5, "Cauchy-data reconstruction error is O(eps^2)"):
        start = time.perf_counter()
        nx = ny = 64
        v0 = cosine_grid(nx, ny)
        x = np.arange(nx) * (SINGLE_LX / nx)
        X = np.meshgrid(x, np.arange(ny) * (SINGLE_LY / ny), indexing="xy")[0]
        errs = {}
        for eps in (1e-2, 2e-2):
            sd = build_spectral_data(SINGLE_LX, SINGLE_LY, eps, v0)
            f = evaluate_grid([0.0], nx, ny, sd)[0]
            errs[eps] = np.abs(f.u - (1.0 + eps * np.cos(1.2 * X))).max()
        ratio = errs[2e-2] / errs[1e-2]
        assert 3.0 <= ratio <= 5.0, ratio
        assert time.perf_counter() - start < 10.0


def test_criterion_6_finite_gap_vs_direct():
    """rel Linf <= 0.15 on [0, T1]; peak times within 0.1 T1; peak > 2."""
    with criterion(6, "finite-gap vs split-step over the AW growth cycle"):
        start = time.perf_counter()
        eps = 1e-2
        nx = ny = 128
        T1 = math.log(1.0 / eps) / 1.92
        scan = list(np.arange(0.0, 1.6 * T1, 0.05))
        v0 = cosine_grid(nx, ny)
        sd = build_spectral_data(SINGLE_LX, SINGLE_LY, eps, v0)
        params = default_theta_params(sd, scan)
        fg = evaluate_grid(scan, nx, ny, sd, params)
        u0 = make_cauchy_field(SINGLE_LX, SINGLE_LY, 1.0, eps, v0)
        ref = evolve(u0, scan, 1e-3)

        worst = 0.0
        for f, r in zip(fg, ref):
            if f.t > T1 + 1e-9:
                break
            rel = np.abs(f.u - r.u).max() / np.abs(r.u).max()
            worst = max(worst, rel)
        assert worst <= 0.15, worst

        amp_fg = np.array([np.abs(f.u).max() for f in fg])
        amp_ref = np.array([np.abs(r.u).max() for r in ref])
        t_fg = scan[int(amp_fg.argmax())]
        t_ref = scan[int(amp_ref.argmax())]
        assert abs(t_fg - t_ref) <= 0.1 * T1, (t_fg, t_ref)
        assert amp_fg.max() > 2.0 and amp_ref.max() > 2.0
        assert time.perf_counter() - start < 300.0


def test_criterion_7_conservation_and_gauge():
    """L2 drift <= 1e-12 over [0,5]; background flat to 1e-13; q clean."""
    with criterion(7, "conservation, background stationarity, q gauge"):
        f, *_ = eigenvector_seed(SINGLE_LX, SINGLE_LY, 64, 1, 0, 1e-2)
        norm0 = np.linalg.norm(f.u)
        [out] = evolve(f, [5.0], 1e-3)
        assert abs(np.linalg.norm(out.u) - norm0) <= 1e-12 * norm0

        const = Field(SINGLE_LX, SINGLE_LY, 0.0, np.ones((32, 32), complex))
        [flat] = evolve(const, [10.0], 1e-2)
        assert np.abs(flat.u - 1.0).max() <= 1e-13

        Q = q_multiplier(f)
        for g in step_snapshots(f, 1e-3, 100):
            dens = np.abs(g.u) ** 2
            raw = np.fft.ifft2(Q * np.fft.fft2(dens))
            assert np.abs(raw.imag).max() <= 1e-12
            assert abs(np.real(raw).mean()) <= 1e-12


def test_criterion_8_symmetry_suite():
    """Conjugation symmetry, period-matrix structure, periodicity, scaling."""
    with criterion(8, "alpha-beta symmetry, B structure, periodicity, eps law"):
        v0 = harmonic_grid(
            32, 32,
            [(1, 0, 0.35), (-1, 0, 0.35), (0, 1, 0.25), (0, -1, 0.25),
             (1, 1, 0.15 + 0.1j), (-1, -1, 0.15 - 0.1j),
             (1, -1, 0.12), (-1, 1, 0.08)])
        sd = build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1e-2, v0)
        n = sd.g // 2
        for j in range(n):
            p, m = sd.pairs[j], sd.pairs[j + n]
            prod = p.alpha * p.beta
            assert abs(m.alpha * m.beta - prod.conjugate()) <= 1e-12 * max(1.0, abs(prod))
        assert np.array_equal(sd.B, sd.B.T)
        off = sd.B[~np.eye(sd.g, dtype=bool)]
        assert np.all(
            (np.abs(off.imag) <= 1e-10) | (np.abs(off.imag - math.pi) <= 1e-10)
        )

        params = default_theta_params(sd, [0.0, 0.5])
        rng = np.random.default_rng(55)
        for _ in range(5):
            x, y, t = rng.uniform(0.1, 2.0, 3)
            u0 = evaluate_u(x, y, t, sd, params)
            assert abs(evaluate_u(x + sd.L_x, y, t, sd, params) - u0) <= 1e-9 * abs(u0)
            assert abs(evaluate_u(x, y + sd.L_y, t, sd, params) - u0) <= 1e-9 * abs(u0)

        sd2 = build_spectral_data(FOURMODE_LX, FOURMODE_LY, 2e-2, v0)
        for j in range(sd.g):
            delta = sd2.B[j, j] - sd.B[j, j]
            assert abs(delta - 2.0 * math.log(2.0)) <= 1e-10


def test_criterion_9_determinism(tmp_path):
    """Two identical runs produce bit-identical binary field files."""
    with criterion(9, "bit-identical binary outputs across repeated runs"):
        doc = base_config(
            SINGLE_LX, SINGLE_LY, SINGLE_HARMONICS, times=[0.0, 0.3], grid=[32, 32]
        )
        cfg = write_config(tmp_path, "det.json", doc)
        for cmd, prefix in [("evolve-fg", "fg"), ("evolve-ref", "ref")]:
            d1, d2 = tmp_path / f"{prefix}_one", tmp_path / f"{prefix}_two"
            assert main([cmd, "--config", str(cfg), "--out", str(d1)]) == 0
            assert main([cmd, "--config", str(cfg), "--out", str(d2)]) == 0
            for i in range(2):
                name = f"{prefix}_{i:04d}.bin"
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
