"""Split-step DS2 integrator: conservation, dispersion, convergence.

The dispersion tests seed the exact growing (or rotating) eigenvector of
the linearized single-harmonic system and fit the complex rate of the
corresponding Fourier coefficient; the formula value comes from the mode
census.
"""

import math

import numpy as np
import pytest

from ds2aw.errors import ConfigError, NumericError
from ds2aw.fieldgen import Field, make_cauchy_field
from ds2aw.modes import growth_rate
from ds2aw.refsolver import _half_spectrum, _mean_flow, evolve, q_multiplier, stability_bound

from conftest import FOURMODE_LX, FOURMODE_LY, FOURMODE_TERMS, harmonic_grid
from test_modes import harmonic_matrix


def q_from_u(field):
    """Mean-flow field q for the samples of u; real with zero mean."""
    return _mean_flow(field.u, _half_spectrum(q_multiplier(field)))


def strang_reference(field, targets, dt):
    """Unfused symmetric Strang oracle: snapshots of u at each target.

    Each segment is cut into equal sub-steps as ``evolve`` does, and every
    step is taken on its own: q from |u|^2 by a full complex FFT, half
    phase exp(i h q), the linear flow, q again, half phase (6 FFTs).
    """
    kx = 2 * math.pi * np.fft.fftfreq(field.nx, d=field.L_x / field.nx)
    ky = 2 * math.pi * np.fft.fftfreq(field.ny, d=field.L_y / field.ny)
    KX, KY = np.meshgrid(kx, ky, indexing="xy")
    K_diff = KX * KX - KY * KY
    Q = q_multiplier(field)
    u = np.array(field.u, dtype=complex)
    now = field.t
    out = []
    for target in targets:
        nsteps = max(1, math.ceil(abs(target - now) / abs(dt) - 1e-12))
        h = (target - now) / nsteps
        for _ in range(nsteps):
            q = np.real(np.fft.ifft2(Q * np.fft.fft2(np.abs(u) ** 2)))
            u = u * np.exp(1j * h * q)
            u = np.fft.ifft2(np.fft.fft2(u) * np.exp(-1j * h * K_diff))
            q = np.real(np.fft.ifft2(Q * np.fft.fft2(np.abs(u) ** 2)))
            u = u * np.exp(1j * h * q)
        out.append(u)
        now = target
    return out


def step_snapshots(field, dt, nsteps):
    """``evolve`` with a snapshot after each of nsteps steps of size dt."""
    times = [k * dt for k in range(1, nsteps + 1)]
    return evolve(field, times, dt)


def flat_field(L_x=2 * math.pi, L_y=2 * math.pi, n=32, value=1.0 + 0j):
    u = np.full((n, n), value, dtype=complex)
    return Field(L_x, L_y, 0.0, u)


def eigenvector_seed(L_x, L_y, n, n_x, n_y, eps, which="grow"):
    """a=1 background plus eps times the exact eigenvector of the (k, -k)
    harmonic pair; returns (field, k_x, k_y, lambda)."""
    k_x = n_x * 2 * math.pi / L_x
    k_y = n_y * 2 * math.pi / L_y
    M = harmonic_matrix(k_x, k_y)
    evals, evecs = np.linalg.eig(M)
    if which == "grow":
        idx = int(np.argmax(evals.real))
    else:
        idx = int(np.argmax(evals.imag))
    lam = evals[idx]
    u1, u_minus1_bar = evecs[:, idx]
    x = np.arange(n) * (L_x / n)
    y = np.arange(n) * (L_y / n)
    X, Y = np.meshgrid(x, y, indexing="xy")
    v = u1 * np.exp(1j * (k_x * X + k_y * Y)) + np.conjugate(u_minus1_bar) * np.exp(
        -1j * (k_x * X + k_y * Y)
    )
    return Field(L_x, L_y, 0.0, 1.0 + eps * v), k_x, k_y, lam


def mode_coefficient(field, n_x, n_y):
    c = np.fft.fft2(field.u) / (field.nx * field.ny)
    return complex(c[n_y % field.ny, n_x % field.nx])


def fitted_rate(fields, n_x, n_y):
    ts = np.array([f.t for f in fields])
    cs = np.array([mode_coefficient(f, n_x, n_y) for f in fields])
    logc = np.log(np.abs(cs)) + 1j * np.unwrap(np.angle(cs))
    fit = np.polyfit(ts, logc, 1)
    return complex(fit[0])


def test_constant_background_stationary():
    f = flat_field()
    [out] = evolve(f, [10.0], 1e-2)
    assert np.abs(out.u - 1.0).max() <= 1e-13


def test_q_zero_for_constant():
    assert np.abs(q_from_u(flat_field())).max() < 1e-14


def test_q_pure_x_and_y_harmonics():
    n = 32
    L = 2 * math.pi
    x = np.arange(n) * (L / n)
    X, Y = np.meshgrid(x, x, indexing="xy")
    # |u|^2 = 1 + 0.5 cos(k_x x): Q = +1 on k_y = 0 modes
    ux = Field(L, L, 0.0, np.sqrt(1.0 + 0.5 * np.cos(2 * X)) + 0j)
    assert np.abs(q_from_u(ux) - 0.5 * np.cos(2 * X)).max() < 1e-12
    # |u|^2 = 1 + 0.5 cos(k_y y): Q = -1 on k_x = 0 modes
    uy = Field(L, L, 0.0, np.sqrt(1.0 + 0.5 * np.cos(3 * Y)) + 0j)
    assert np.abs(q_from_u(uy) + 0.5 * np.cos(3 * Y)).max() < 1e-12


def test_q_real_zero_mean_every_step():
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 32, 1, 0, 1e-2)
    for g in step_snapshots(f, 1e-2, 50):
        q = q_from_u(g)
        assert abs(q.mean()) < 1e-12
        dens = np.abs(g.u) ** 2
        raw = np.fft.ifft2(q_multiplier(g) * np.fft.fft2(dens))
        assert np.abs(raw.imag).max() < 1e-12


def test_q_multiplier_range():
    f = flat_field(n=32)
    Q = q_multiplier(f)
    assert Q[0, 0] == 0.0
    assert np.all(Q >= -1.0) and np.all(Q <= 1.0)


def test_l2_conservation():
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 32, 1, 0, 1e-2)
    norm0 = np.linalg.norm(f.u)
    for g in step_snapshots(f, 1e-3, 200):
        assert abs(np.linalg.norm(g.u) - norm0) <= 1e-12 * norm0


@pytest.mark.parametrize(
    "L_x,L_y,n_x,n_y,which",
    [
        (2 * math.pi / 1.2, 2 * math.pi / 2.1, 1, 0, "grow"),
        (2 * math.pi / 1.3, 2 * math.pi / 1.4, 0, 1, "grow"),
        (2 * math.pi / 3.0, 2 * math.pi / 3.1, 1, 0, "osc"),
    ],
)
def test_linearized_rates(L_x, L_y, n_x, n_y, which):
    f, k_x, k_y, lam = eigenvector_seed(L_x, L_y, 64, n_x, n_y, 1e-4, which)
    times = list(np.linspace(0.0, 1.0, 11))
    fields = evolve(f, times, 1e-3)
    rate = fitted_rate(fields, n_x, n_y)
    sigma = growth_rate(k_x, k_y, 1.0)
    assert abs(rate - lam) <= 0.01 * abs(lam)
    assert abs(abs(lam.real + 1j * lam.imag) - abs(sigma)) < 1e-10


def test_time_reversibility():
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 32, 1, 0, 1e-2)
    [fwd] = evolve(f, [0.5], 1e-3)
    [back] = evolve(fwd, [0.0], 1e-3)
    assert np.abs(back.u - f.u).max() <= 1e-8


def test_second_order_convergence():
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 32, 1, 0, 0.1)
    T = 0.5
    [ref] = evolve(f, [T], 1e-3 / 8)
    errs = []
    for dt in (2e-3, 1e-3):
        [out] = evolve(f, [T], dt)
        errs.append(np.linalg.norm(out.u - ref.u))
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_snapshots_land_exactly():
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 16, 1, 0, 1e-2)
    # one Field per requested time, landing exactly on it; a time equal to
    # the start returns the datum
    times = [0.0, 0.1, 0.25, 0.4, 0.5]
    fields = evolve(f, times, 7e-3)
    assert [g.t for g in fields] == times
    assert np.array_equal(fields[0].u, f.u) and fields[0].u is not f.u
    assert evolve(f, [], 7e-3) == []


def test_evolve_carries_no_state():
    # the work buffers belong to one call: u0 is left as it was, every
    # snapshot owns its samples (two at one time included), and a second
    # run from u0 repeats the first bit for bit
    v0 = harmonic_grid(20, 12, FOURMODE_TERMS)
    f = make_cauchy_field(FOURMODE_LX, FOURMODE_LY, 1.0, 1e-2, v0)
    before = f.u.copy()
    times = [0.0, 0.05, 0.1, 0.1]
    kept = [g.u.tobytes() for g in evolve(f, times, 1e-3)]
    assert f.u.tobytes() == before.tobytes()
    for i in range(len(times)):
        fields = evolve(f, times, 1e-3)
        fields[i].u[:] = np.nan
        same = [g.u.tobytes() == k for g, k in zip(fields, kept)]
        assert same == [j != i for j in range(len(times))]
    assert f.u.tobytes() == before.tobytes()


@pytest.mark.parametrize("times", [[0.2, 0.1], [-0.1, 0.1], [0.1, -0.1]])
def test_times_must_be_monotone(times):
    f = flat_field(n=16)
    with pytest.raises(ConfigError) as err:
        evolve(f, times, 1e-2)
    assert err.value.code == "invalid-times"


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_dt_must_be_positive(dt):
    f = flat_field(n=16)
    with pytest.raises(ConfigError) as err:
        evolve(f, [-0.1], dt)
    assert err.value.code == "invalid-dt"


@pytest.mark.parametrize("T,times", [(0.3, [0.05, 0.22]), (-0.3, [-0.05, -0.22])])
def test_fused_matches_strang_reference(T, times):
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 64, 1, 0, 0.1)
    dt = 7e-3
    times = times + [T]
    series = []
    fields = evolve(f, times, dt, max_series=series)
    ref = strang_reference(f, times, dt)
    assert [g.t for g in fields] == times
    for g, r in zip(fields, ref):
        assert np.abs(g.u - r).max() <= 1e-12 * np.abs(r).max()
    # one entry per step; each segment's last entry lands on its target
    counts = [math.ceil(abs(b - a) / dt - 1e-12) for a, b in zip([0.0] + times, times)]
    assert len(series) == sum(counts)
    ends = np.cumsum(counts) - 1
    assert [series[i][0] for i in ends] == times
    assert series[-1][1] == np.abs(fields[-1].u).max()


def test_dt_bound_enforced():
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 32, 1, 0, 1e-2)
    bound = stability_bound(f)
    with pytest.raises(ConfigError) as err:
        evolve(f, [0.1], 2 * bound)
    assert err.value.code == "invalid-dt"


def test_nan_detected():
    f = flat_field(n=16)
    f.u[3, 4] = np.nan
    with pytest.raises(NumericError) as err:
        evolve(f, [0.1], 1e-2)
    assert err.value.code == "nan-detected"


def test_any_grid_size_agrees_with_finer_grid():
    # the scheme needs no power-of-two grid: on the four-mode datum to t = 2,
    # 48^2 and odd 45^2 runs match 96^2 at the shared points to rounding
    # (2000 steps; measured 8.0e-14 and 1.1e-12, L2 drift <= 4.1e-13)
    def run(n):
        v0 = harmonic_grid(n, n, FOURMODE_TERMS)
        u0 = make_cauchy_field(FOURMODE_LX, FOURMODE_LY, 1.0, 1e-2, v0)
        u = evolve(u0, [2.0], 1e-3)[0].u
        assert abs(np.mean(np.abs(u) ** 2) / np.mean(np.abs(u0.u) ** 2) - 1) < 1e-12
        return u

    fine = run(96)
    for n in (48, 45):
        a, b = n // math.gcd(n, 96), 96 // math.gcd(n, 96)
        err = np.abs(run(n)[::a, ::a] - fine[::b, ::b]).max()
        assert err < 1e-11 * np.abs(fine).max()
