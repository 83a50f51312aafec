"""Finite-gap field evaluation: normalization, periodicity, growth."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from ds2aw.curve import build_spectral_data
from ds2aw.errors import NumericError
from ds2aw.fieldgen import (
    default_theta_params,
    evaluate_batch,
    evaluate_grid,
    first_appearance_estimate,
)
from ds2aw.theta import ThetaParams

from conftest import (
    FOURMODE_LX,
    FOURMODE_LY,
    FOURMODE_TERMS,
    SINGLE_LX,
    SINGLE_LY,
    cosine_grid,
    harmonic_grid,
)


def evaluate_u(x, y, t, sd, params=None):
    """The finite-gap field at one space-time point, by direct lattice sums."""
    return complex(evaluate_batch(sd, np.array([complex(x, y)]), t, params)[0])


def grid_xy(field):
    """Coordinates (X, Y) of the field's samples: X[iy, ix] = ix L_x / nx."""
    x = np.arange(field.nx) * (field.L_x / field.nx)
    y = np.arange(field.ny) * (field.L_y / field.ny)
    return np.meshgrid(x, y, indexing="xy")


def test_normalization_at_origin(single_mode_sd):
    u = evaluate_u(0.0, 0.0, 0.0, single_mode_sd)
    assert u == pytest.approx(single_mode_sd.u00, abs=1e-13)


def test_double_periodicity(single_mode_sd, four_mode_sd):
    rng = np.random.default_rng(17)
    for sd in (single_mode_sd, four_mode_sd):
        params = default_theta_params(sd, [0.0, 1.0])
        for _ in range(5):
            x, y = rng.uniform(0, 3, size=2)
            t = rng.uniform(0, 1)
            u0 = evaluate_u(x, y, t, sd, params)
            ux = evaluate_u(x + sd.L_x, y, t, sd, params)
            uy = evaluate_u(x, y + sd.L_y, t, sd, params)
            assert abs(ux - u0) <= 1e-9 * abs(u0)
            assert abs(uy - u0) <= 1e-9 * abs(u0)


def test_cauchy_datum_reproduced(single_mode_sd):
    # t = 0 snapshot approximates a + eps v0 at order eps^2
    sd = single_mode_sd
    nx = ny = 32
    f = evaluate_grid([0.0], nx, ny, sd)[0]
    x = np.arange(nx) * (sd.L_x / nx)
    X = np.meshgrid(x, np.arange(ny) * (sd.L_y / ny), indexing="xy")[0]
    target = 1.0 + sd.eps * np.cos(1.2 * X)
    assert np.abs(f.u - target).max() < 10.0 * sd.eps**2


def test_grid_matches_direct_sum(single_mode_sd, four_mode_sd):
    # the folded-FFT grid path against the direct lattice sum at every grid
    # point; the two paths sum in a different order, so equality is to
    # rounding, not bitwise
    rescaled = build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, cosine_grid(32, 32), a=0.9)
    T8 = first_appearance_estimate(four_mode_sd)
    cases = [(single_mode_sd, 0.4, 8), (single_mode_sd, 3.0, 16), (rescaled, 1.7, 16)]
    cases += [(four_mode_sd, f * T8, 16) for f in (0.75, 1.0, 1.5)]
    for sd, t, n in cases:
        params = default_theta_params(sd, [t])
        f = evaluate_grid([t], n, n, sd, params)[0]
        X, Y = grid_xy(f)
        direct = evaluate_batch(sd, (X + 1j * Y).ravel(), t, params).reshape(n, n)
        assert np.max(np.abs(f.u - direct) / np.abs(direct)) <= 1e-12


def theta_cube(c, sd, x, y):
    """theta(w(x, y) + c) on the grid x by y (shape (len(y), len(x))) summed
    over the 3^g lattice points |n_j| <= 1 only, by direct sums."""
    N = np.array(list(itertools.product((-1, 0, 1), repeat=sd.g)))
    terms = np.exp(0.5 * ((N @ sd.B) * N).sum(1) + N @ c)
    ex = np.exp(np.outer(x, N @ (sd.W_z + sd.W_zbar)))
    ey = np.exp(np.outer(y, N @ (1j * (sd.W_z - sd.W_zbar))))
    return (ey * terms) @ ex.T


@pytest.mark.parametrize(
    "L, terms",
    [((SINGLE_LX, SINGLE_LY), [(1, 0, 0.5), (-1, 0, 0.5)]),
     ((FOURMODE_LX, FOURMODE_LY), FOURMODE_TERMS)],
    ids=["genus2", "genus8"],
)
def test_elementary_function_form(L, terms):
    # the paper's leading-order field reduces to elementary functions: the
    # 3^g terms |n_j| <= 1 reproduce the certified field on [0, 1.5 T1]
    # far below the formula's own O(eps) error, and the gap falls faster
    # than eps (measured ratio 2.8 at genus 2, 3.7 at genus 8)
    errs = {}
    for eps in (1e-2, 5e-3):
        sd = build_spectral_data(*L, eps, harmonic_grid(32, 32, terms))
        times = np.linspace(0.0, 1.5 * first_appearance_estimate(sd), 7)
        zero = np.zeros(1)
        base = theta_cube(sd.d, sd, zero, zero) / theta_cube(sd.A_inf2 + sd.d, sd, zero, zero)
        worst = 0.0
        for f in evaluate_grid(times, 16, 16, sd):
            x = np.arange(f.nx) * (f.L_x / f.nx)
            y = np.arange(f.ny) * (f.L_y / f.ny)
            c = sd.d + sd.W_t * f.t
            cube = theta_cube(sd.A_inf2 + c, sd, x, y) / theta_cube(c, sd, x, y)
            u = cube * base[0, 0] * sd.u00
            worst = max(worst, np.abs(u - f.u).max() / np.abs(f.u).max())
        errs[eps] = worst
        assert worst <= 0.1 * eps, (eps, worst)
    ratio = errs[1e-2] / errs[5e-3]
    assert 2.0 <= ratio <= 8.0, errs


def test_modulational_growth_rate(single_mode_sd):
    # the (1, 0) Fourier coefficient grows like e^{sigma t} up to T1/2
    sd = single_mode_sd
    sigma = abs(sd.W_t[0])
    t1 = first_appearance_estimate(sd)
    times = np.linspace(0.0, 0.5 * t1, 9)
    fields = evaluate_grid(times, 32, 32, sd)
    amps = []
    for f in fields:
        c = np.fft.fft2(f.u) / (32 * 32)
        amps.append(abs(c[0, 1]))
    # drop the t=0 point: both eigendirections are present initially
    fit = np.polyfit(times[3:], np.log(amps[3:]), 1)[0]
    assert abs(fit - sigma) <= 0.05 * sigma


def test_anomalous_wave_peak(single_mode_sd):
    sd = single_mode_sd
    t1 = first_appearance_estimate(sd)
    times = np.arange(0.0, 2.0 * t1, 0.1)
    fields = evaluate_grid(times, 32, 32, sd)
    peak = max(np.abs(f.u).max() for f in fields)
    assert peak > 2.0


def test_gauge_phase_rotation(single_mode_sd):
    # constant-phase gauge: rotating u00 rotates the field rigidly
    sd = single_mode_sd
    rot = dataclasses.replace(sd, u00=sd.u00 * np.exp(0.7j))
    f0 = evaluate_grid([0.9], 16, 16, sd)[0]
    f1 = evaluate_grid([0.9], 16, 16, rot)[0]
    assert np.abs(np.abs(f1.u) - np.abs(f0.u)).max() <= 1e-12
    assert np.allclose(f1.u, f0.u * np.exp(0.7j), rtol=1e-12)


def test_relabeling_invariance(single_mode_sd):
    # permuting handle indices consistently leaves the field unchanged
    sd = single_mode_sd
    perm = [1, 0]
    swapped = dataclasses.replace(
        sd,
        pairs=[sd.pairs[i] for i in perm],
        B=sd.B[np.ix_(perm, perm)],
        W_z=sd.W_z[perm],
        W_zbar=sd.W_zbar[perm],
        W_t=sd.W_t[perm],
        A_inf2=sd.A_inf2[perm],
        A_div=sd.A_div[perm],
        K=sd.K[perm],
        d=sd.d[perm],
    )
    rng = np.random.default_rng(23)
    for _ in range(5):
        x, y, t = rng.uniform(0, 2, size=3)
        assert evaluate_u(x, y, t, swapped) == pytest.approx(
            evaluate_u(x, y, t, sd), rel=1e-10
        )


def test_first_appearance_estimate_values():
    # C = max |sqrt(alpha beta)| = 1 when v0 = 2 cos(1.2 x)
    v0 = harmonic_grid(32, 32, [(1, 0, 1.0), (-1, 0, 1.0)])
    sd = build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, v0)
    assert max(abs(p.sqrt_alpha_beta) for p in sd.pairs) == pytest.approx(1.0, abs=1e-12)
    t1 = first_appearance_estimate(sd)
    assert t1 == pytest.approx(math.log(100.0) / 1.92, rel=1e-12)
    # halving eps delays by log 2 / sigma_max
    sd2 = build_spectral_data(SINGLE_LX, SINGLE_LY, 5e-3, v0)
    assert first_appearance_estimate(sd2) - t1 == pytest.approx(
        math.log(2.0) / 1.92, rel=1e-10
    )
    assert t1 > 0.0


def test_theta_zero_reported(single_mode_sd, monkeypatch):
    # the hard floor (1e-300) is unreachable for genuine data, so raise it
    # and aim the argument exactly at a theta root to exercise the error path
    import importlib

    fieldgen = importlib.import_module("ds2aw.fieldgen")
    sd = single_mode_sd
    monkeypatch.setattr(fieldgen, "ZERO_FLOOR", 1e-2)
    root = np.array([1j * math.pi + sd.B[0, 0] / 2.0, 0.35 + 0.1j])
    bad = dataclasses.replace(sd, d=root)
    params = default_theta_params(sd, [0.0])
    with pytest.raises(NumericError) as err:
        evaluate_u(0.0, 0.0, 0.0, bad, params)
    assert err.value.code == "theta-zero"
    with pytest.raises(NumericError) as err:
        evaluate_grid([0.0], 8, 8, bad, params)
    assert err.value.code == "theta-zero"
    assert "(x, y, t) = (0, 0, 0)" in err.value.message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # t = 50 overflows on purpose
def test_truncation_insufficient_propagates(single_mode_sd):
    sd = single_mode_sd
    tiny = ThetaParams(B=sd.B, truncation_radius=1, tail_tolerance=1e-30)
    with pytest.raises(NumericError) as err:
        evaluate_u(0.1, 0.2, 0.5, sd, tiny)
    assert err.value.code == "truncation-insufficient"
    # at t = 50 the theta terms overflow: both paths fail closed instead of
    # returning NaN samples, and name their worst sample
    with pytest.raises(NumericError) as err:
        evaluate_u(0.1, 0.2, 50.0, sd)
    assert err.value.code == "truncation-insufficient"
    assert err.value.message.endswith("smallest |theta| at (x, y, t) = (0.1, 0.2, 50)")
    with pytest.raises(NumericError) as err:
        evaluate_grid([50.0], 16, 16, sd)
    assert err.value.code == "truncation-insufficient"
    assert re.search(r"smallest \|theta\| at \(x, y, t\) = \([^,]+, [^,]+, 50\)$",
                     err.value.message)
