"""Split-step DS2 integrator: conservation, dispersion, convergence.

The dispersion tests seed the exact growing (or rotating) eigenvector of
the linearized single-harmonic system and fit the complex rate of the
corresponding Fourier coefficient; the formula value comes from the mode
census.

``evolve`` integrates on the datum's period cell, so a y-independent seed
runs on one row.  The conservation, reversibility, convergence and gauge
tests also run the four-mode datum, whose cell is the whole grid, so the
2-D step stays covered.
"""

import math

import numpy as np
import pytest

from ds2aw import refsolver
from ds2aw.errors import ConfigError, NumericError
from ds2aw.fieldio import Field
from ds2aw.modes import growth_rate
from ds2aw.refsolver import _cell, _mean_flow, _Work, evolve, stability_bound

from conftest import (
    FOURMODE_LX,
    FOURMODE_LY,
    FOURMODE_TERMS,
    SINGLE_LX,
    SINGLE_LY,
    cosine_grid,
    harmonic_grid,
    harmonic_matrix,
    q_multiplier,
)


def q_from_u(field):
    """Mean-flow field q for the samples of u; real with zero mean."""
    return _mean_flow(field.u, _Work(field))


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


def four_mode_field(nx, ny, eps=1e-2):
    """The four-mode (genus-8) datum on an nx x ny grid: its cell is the
    whole grid."""
    v0 = harmonic_grid(nx, ny, FOURMODE_TERMS)
    return Field(FOURMODE_LX, FOURMODE_LY, 0.0, 1.0 + eps * v0)


def x_seed_and_four_mode(n, eps):
    """The (1, 0) eigenvector seed, which runs on a one-row cell, and the
    four-mode datum, which runs on the whole n x n grid."""
    f, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, n, 1, 0, eps)
    return [f, four_mode_field(n, n, eps)]


def tiled_block():
    """A random 8 x 16 block tiled 4 x 2 onto a 32^2 grid of unit spacing."""
    rng = np.random.default_rng(8)
    block = 1.0 + 0.3 * (rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16)))
    return Field(32.0, 32.0, 0.0, np.tile(block, (4, 2)))


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


def test_q_on_one_dimensional_cells():
    # a row cell (Q = +1 off the origin) and a column cell (Q = -1) take q
    # without a transform; it is the full-grid FFT q of the tiled field
    rng = np.random.default_rng(5)
    row = 1.0 + 0.3 * (rng.standard_normal((1, 24)) + 1j * rng.standard_normal((1, 24)))
    for cell in (row, row.T.copy()):
        py, px = cell.shape
        grid = Field(24.0, 24.0, 0.0, np.tile(cell, (24 // py, 24 // px)))
        full = np.real(np.fft.ifft2(q_multiplier(grid) * np.fft.fft2(np.abs(grid.u) ** 2)))
        q = q_from_u(Field(float(px), float(py), 0.0, cell))
        assert np.abs(np.tile(q, (24 // py, 24 // px)) - full).max() <= 1e-14 * np.abs(full).max()


def test_q_real_zero_mean_every_step():
    for f in x_seed_and_four_mode(32, 1e-2):
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
    # the solver's plan holds the same Q on the half spectrum
    assert np.array_equal(_Work(f).Q_half, Q[:, : f.nx // 2 + 1])


def test_l2_conservation():
    for f in x_seed_and_four_mode(32, 1e-2):
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
    for f in x_seed_and_four_mode(32, 1e-2):
        [fwd] = evolve(f, [0.5], 1e-3)
        [back] = evolve(fwd, [0.0], 1e-3)
        assert np.abs(back.u - f.u).max() <= 1e-8


def test_second_order_convergence():
    T = 0.5
    for f in x_seed_and_four_mode(32, 0.1):
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
    f = four_mode_field(20, 12)
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


@pytest.mark.parametrize(
    "times",
    [[0.2, 0.1], [-0.1, 0.1], [0.1, -0.1], [0.1, math.inf], [-math.inf], [math.nan],
     pytest.param(0.1, id="scalar"), pytest.param(np.float64(0.1), id="numpy-scalar")],
)
def test_times_must_be_monotone(times):
    f = flat_field(n=16)
    with pytest.raises(ConfigError) as err:
        evolve(f, times, 1e-2)
    assert err.value.code == "invalid-times"


def test_times_may_be_any_iterable():
    f = four_mode_field(20, 12)
    want = [g.u.tobytes() for g in evolve(f, [0.05, 0.1], 1e-2)]
    for times in ((0.05, 0.1), np.array([0.05, 0.1]), iter([0.05, 0.1])):
        assert [g.u.tobytes() for g in evolve(f, times, 1e-2)] == want


def test_start_time_must_be_finite():
    f = flat_field(n=16)
    with pytest.raises(ConfigError) as err:
        evolve(Field(f.L_x, f.L_y, math.inf, f.u), [1.0], 1e-2)
    assert err.value.code == "invalid-times"


@pytest.mark.parametrize(
    "box, u, code",
    [
        ((2.0, 2.0), np.ones(16, complex), "invalid-grid"),
        ((2.0, 2.0), np.ones((0, 16), complex), "invalid-grid"),
        ((0.0, 2.0), np.ones((16, 16), complex), "invalid-period"),
        ((math.nan, 2.0), np.ones((16, 16), complex), "invalid-period"),
        ((-5.0, 2.0), np.ones((16, 16), complex), "invalid-period"),
        ((math.inf, 2.0), np.ones((16, 16), complex), "invalid-period"),
        ((2.0, -math.inf), np.ones((16, 16), complex), "invalid-period"),
    ],
    ids=["u-1d", "u-empty", "L_x-zero", "L_x-nan", "L_x-negative", "L_x-inf", "L_y-neg-inf"],
)
def test_malformed_field_refused(box, u, code):
    # refused before any work: every wavenumber divides by the box, and a
    # step needs a 2-d grid of samples
    with pytest.raises(ConfigError) as err:
        evolve(Field(*box, 0.0, u), [0.1], 1e-2)
    assert err.value.code == code


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_dt_must_be_positive(dt):
    f = flat_field(n=16)
    with pytest.raises(ConfigError) as err:
        evolve(f, [-0.1], dt)
    assert err.value.code == "invalid-dt"


@pytest.mark.parametrize("T,times", [(0.3, [0.05, 0.22]), (-0.3, [-0.05, -0.22])])
def test_fused_matches_strang_reference(T, times):
    # against the full-grid oracle: a y-independent seed (one-row cell, Q = +1
    # off the origin), an x-independent one (one-column cell, Q = -1), a tiled
    # random block (8 x 16 cell) and a constant (1 x 1 cell); every snapshot
    # is its cell tiled
    x_seed, *_ = eigenvector_seed(2 * math.pi / 1.2, 2 * math.pi / 2.1, 64, 1, 0, 0.1)
    y_seed, *_ = eigenvector_seed(2 * math.pi / 1.3, 2 * math.pi / 1.4, 64, 0, 1, 0.1)
    constant = flat_field(n=16, value=0.8 - 0.6j)
    dt = 7e-3
    times = times + [T]
    cells = ((x_seed, (1, 64)), (y_seed, (64, 1)), (tiled_block(), (8, 16)), (constant, (1, 1)))
    for f, (py, px) in cells:
        fields = evolve(f, times, dt)
        ref = strang_reference(f, times, dt)
        assert [g.t for g in fields] == times
        for g, r in zip(fields, ref):
            assert np.abs(g.u - r).max() <= 1e-12 * np.abs(r).max()
            assert np.array_equal(g.u, np.tile(g.u[:py, :px], (f.ny // py, f.nx // px)))


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
        u0 = four_mode_field(n, n)
        u = evolve(u0, [2.0], 1e-3)[0].u
        assert abs(np.mean(np.abs(u) ** 2) / np.mean(np.abs(u0.u) ** 2) - 1) < 1e-12
        return u

    fine = run(96)
    for n in (48, 45):
        a, b = n // math.gcd(n, 96), 96 // math.gcd(n, 96)
        err = np.abs(run(n)[::a, ::a] - fine[::b, ::b]).max()
        assert err < 1e-11 * np.abs(fine).max()


def test_cell():
    # the smallest block that tiles the samples exactly, per axis
    single = 1.0 + 1e-2 * cosine_grid(32, 32)
    y_seed, *_ = eigenvector_seed(2 * math.pi / 1.3, 2 * math.pi / 1.4, 32, 0, 1, 1e-2)
    assert _cell(single) == (1, 32)
    assert _cell(y_seed.u) == (32, 1)
    assert _cell(four_mode_field(20, 12).u) == (12, 20)
    assert _cell(tiled_block().u) == (8, 16)
    assert _cell(np.full((12, 20), 1.0 + 0j)) == (1, 1)
    # only exact equality counts: one sample one ulp off, or NaN, keeps the grid
    for u in (single, tiled_block().u):
        ulp, nan = u.copy(), u.copy()
        ulp.real[5, 9] = np.nextafter(ulp.real[5, 9], np.inf)
        nan[5, 9] = np.nan
        assert _cell(ulp) == _cell(nan) == (32, 32)


@pytest.mark.parametrize("nx,ny", [(128, 45), (100, 60)])
def test_y_independent_rows_stay_identical(nx, ny):
    # the y-independent datum is the NLS reduction: every row carries the same
    # solution, bit for bit, through the first appearance and past it.  A
    # full-grid solve on these grids spreads the rows apart by rounding that
    # the transverse instability amplifies (measured 1.2e-14 at T1/8, rising to
    # 6e-14 and 7.5e-14 by 2 T1)
    eps = 1e-2
    T1 = math.log(1.0 / eps) / 1.92
    u0 = Field(SINGLE_LX, SINGLE_LY, 0.0, 1.0 + eps * cosine_grid(nx, ny))
    for g in evolve(u0, [T1 * j / 8 for j in range(17)], 1e-3):
        assert np.array_equal(g.u, np.broadcast_to(g.u[0], g.u.shape))


def test_steps_run_on_the_cell(monkeypatch):
    # the deterministic work: a y-independent 128^2 run steps one row with one
    # complex FFT pass each way and no real one, a constant steps a 1 x 1 cell
    # with no transform, and a 2-D datum steps its whole grid with a complex
    # and a real FFT pair, one 1-D pass per axis each
    passes = []
    for name in np.fft.__all__:
        if "freq" not in name and "shift" not in name:
            real = getattr(np.fft, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                passes.append((_name, kwargs.get("axis", kwargs.get("axes"))))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
    steps = []
    step = refsolver.step

    def spy(u, *args):
        start = len(passes)
        step(u, *args)
        steps.append((u.shape, passes[start:]))

    monkeypatch.setattr(refsolver, "step", spy)
    single = Field(SINGLE_LX, SINGLE_LY, 0.0, 1.0 + 1e-2 * cosine_grid(128, 128))
    evolve(single, [0.05, 0.1], 1e-3)
    assert steps == [((1, 128), [("fft", 1), ("ifft", 1)])] * 100
    steps.clear()
    evolve(flat_field(n=16), [0.05, 0.1], 1e-3)
    assert steps == [((1, 1), [])] * 100
    steps.clear()
    evolve(four_mode_field(20, 12), [0.05, 0.1], 1e-3)
    linear = [("fft", 1), ("fft", 0), ("ifft", 1), ("ifft", 0)]
    mean_flow = [("rfft", 1), ("fft", 0), ("ifft", 0), ("irfft", 1)]
    assert steps == [((12, 20), linear + mean_flow)] * 100
